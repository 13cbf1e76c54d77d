//! The seeded fuzz gate: 10k inputs per target per seed must all parse or
//! reject — a panic anywhere fails the test — the streaming wire decoders
//! must agree with their tree-walking oracle on every input, and the number
//! reader with the `str::parse` scan it replaced. The
//! same harness backs `cargo xtask fuzz-http --seed N` for replaying a
//! specific seed.

use revmax_http::fuzz::{
    fuzz_event_decoder, fuzz_http_parser, fuzz_instance_decoder, fuzz_json_codec,
    fuzz_number_reader, FuzzReport, DEFAULT_ITERATIONS,
};

fn check(report: FuzzReport, what: &str) {
    assert_eq!(report.iterations, DEFAULT_ITERATIONS, "{what}: short run");
    assert_eq!(
        report.accepted + report.rejected,
        report.iterations,
        "{what}: every input must be classified"
    );
    // Mutations start from valid corpus entries, so both classes must be
    // well represented — a parser that rejects (or accepts) everything is
    // not being exercised.
    assert!(report.rejected > 0, "{what}: no rejections ({report:?})");
    assert!(report.accepted > 0, "{what}: no accepts ({report:?})");
}

#[test]
fn http_head_parser_survives_10k_mutations_per_seed() {
    for seed in [1, 2, 0xC0FFEE] {
        check(
            fuzz_http_parser(seed, DEFAULT_ITERATIONS),
            &format!("http seed {seed}"),
        );
    }
}

#[test]
fn json_codec_survives_10k_mutations_per_seed() {
    for seed in [1, 2, 0xC0FFEE] {
        check(
            fuzz_json_codec(seed, DEFAULT_ITERATIONS),
            &format!("json seed {seed}"),
        );
    }
}

#[test]
fn instance_decoder_agrees_with_the_tree_oracle_on_10k_documents_per_seed() {
    for seed in [1, 2, 0xC0FFEE] {
        let report = fuzz_instance_decoder(seed, DEFAULT_ITERATIONS);
        check(report, &format!("instance seed {seed}"));
        assert!(
            report.unprocessable > 0,
            "instance seed {seed}: no 422s ({report:?})"
        );
    }
}

#[test]
fn event_decoder_agrees_with_the_tree_oracle_on_10k_documents_per_seed() {
    for seed in [1, 2, 0xC0FFEE] {
        check(
            fuzz_event_decoder(seed, DEFAULT_ITERATIONS),
            &format!("event seed {seed}"),
        );
    }
}

#[test]
fn number_reader_agrees_with_the_str_parse_oracle_on_10k_numbers_per_seed() {
    for seed in [1, 2, 0xC0FFEE] {
        check(
            fuzz_number_reader(seed, DEFAULT_ITERATIONS),
            &format!("number seed {seed}"),
        );
    }
}
