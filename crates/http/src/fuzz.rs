//! Seeded fuzzing for the untrusted-input surfaces: the HTTP head parser
//! ([`crate::request::parse_head`]), the JSON [`Reader`]
//! (`revmax_core::json`) and its number reader, and the streaming wire
//! decoders for instances and event batches (`revmax_core::wire`).
//!
//! Deterministic by construction — the vendored `rand` shim is seeded, so a
//! failing seed replays exactly (`cargo xtask fuzz-http --seed N`). Every
//! target asserts the *totality* contract: each input is accepted or
//! rejected with a structured error; a panic (or out-of-bounds read, which
//! in safe Rust surfaces as a panic) fails the run.
//!
//! * **JSON** — accepted documents round-trip through the writer to the
//!   identical value, and [`Reader::skip`] accepts exactly what the
//!   tree-building reader accepts.
//! * **Wire decoders** (differential) — each streaming decoder runs beside
//!   an oracle: the tree-walking decoder the wire module used before it
//!   read from the [`Reader`] directly, kept verbatim in this module.
//!   Documents come from a structure-aware generator (reordered, repeated
//!   and unknown keys, `null` price rows, `1e999`, negative probabilities,
//!   β outside `[0, 1]`, horizon 0, duplicate candidates, invalid UTF-8
//!   inside strings); a quarter of them are then byte-mutated. The two must
//!   agree on accept vs reject and on the HTTP class of a rejection (400
//!   for JSON and schema errors; 422, with the same [`BuildError`], for an
//!   instance that fails to build), and accepted documents must decode to
//!   bit-identical values.
//! * **Number reader** (differential) — [`Reader::number`] runs beside the
//!   number scan the reader had before its one-pass Eisel–Lemire reader,
//!   kept verbatim in this module: a grammar scan, then `str::parse` of the
//!   same bytes. The decoder oracle above parses through [`Reader::number`]
//!   itself, so only this target can see a conversion bug. Number texts come
//!   from the hard cases of decimal-to-binary conversion (halfway points,
//!   2⁵³ ± 1, 19- and 20-digit significands, long leading-zero fractions,
//!   the edges of the power-of-five window, subnormals, the overflow
//!   threshold, huge exponents on zero); a quarter are then byte-mutated.
//!   The two must agree on accept vs reject, the error's offset and
//!   message, the bytes consumed and the value's bits.

use crate::request::{parse_head, HeadOutcome, DEFAULT_HEAD_LIMIT};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, RngCore, SeedableRng};
use revmax_core::json::{self, JsonError, Reader};
use revmax_core::{wire, BuildError, WireError};

/// Default iteration count per target (the acceptance bar is 10k).
pub const DEFAULT_ITERATIONS: usize = 10_000;

/// What a fuzz run observed (a run that panics never returns one).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FuzzReport {
    /// Inputs fed to the target.
    pub iterations: usize,
    /// Inputs the target accepted.
    pub accepted: usize,
    /// Inputs rejected with a structured error (or, for the HTTP parser,
    /// classified as incomplete).
    pub rejected: usize,
    /// The rejections a wire decoder answers with `422` (instances that
    /// parse but fail to build); 0 for the parsers.
    pub unprocessable: usize,
}

impl FuzzReport {
    fn new(iterations: usize) -> Self {
        FuzzReport {
            iterations,
            accepted: 0,
            rejected: 0,
            unprocessable: 0,
        }
    }
}

/// Valid request heads the HTTP mutations start from.
const HTTP_CORPUS: &[&[u8]] = &[
    b"GET /healthz HTTP/1.1\r\n\r\n",
    b"GET /statsz HTTP/1.1\r\nHost: revmax\r\n\r\n",
    b"GET /plans/42 HTTP/1.1\r\nAccept: application/json\r\n\r\n",
    b"POST /instances HTTP/1.1\r\nContent-Length: 2\r\n\r\n{}",
    b"POST /sessions HTTP/1.1\r\nContent-Length: 0\r\nConnection: keep-alive\r\n\r\n",
    b"POST /sessions/7/events HTTP/1.1\r\nContent-Length: 13\r\n\r\n{\"events\":[]}",
    b"GET /sessions/7/suffix HTTP/1.0\r\nConnection: close\r\n\r\n",
    b"DELETE /sessions/123456 HTTP/1.1\r\nX-Trace: 00-aa-bb\r\n\r\n",
];

/// Valid documents (covering every wire shape) the JSON mutations start
/// from.
const JSON_CORPUS: &[&str] = &[
    "null",
    "true",
    "[]",
    "{}",
    "-12.5e-3",
    "[[0,1,1],[2,0,3]]",
    "{\"plan_id\":3,\"status\":\"done\",\"revenue\":81.25,\"strategy\":[[0,0,1]]}",
    "{\"events\":[{\"user\":1,\"item\":0,\"t\":2,\"outcome\":\"adopted\"}],\"now\":2}",
    "{\"users\":2,\"items\":1,\"horizon\":2,\"display_limit\":1,\"classes\":[0],\
     \"beta\":[0.5],\"capacity\":[2],\"prices\":[null],\
     \"candidates\":[[0,0,4.5,[0.25,0.5]],[1,0,3.0,[0.125,0.0625]]]}",
    "\"escape \\u00e9 \\n \\\" \\\\ sequences\"",
    "[1e308,-1e-308,0.0,-0.0,9007199254740991]",
];

fn json_splice_pool() -> Vec<&'static [u8]> {
    JSON_CORPUS.iter().map(|s| s.as_bytes()).collect()
}

/// Applies 1–8 random byte-level mutations to `base`.
fn mutate(rng: &mut StdRng, base: &[u8], splice_pool: &[&[u8]]) -> Vec<u8> {
    let mut bytes = base.to_vec();
    for _ in 0..rng.gen_range(1usize..=8) {
        if bytes.is_empty() {
            bytes.push(rng.gen_range(0u32..256) as u8);
            continue;
        }
        match rng.gen_range(0u32..6) {
            // Overwrite one byte with anything.
            0 => {
                let at = rng.gen_range(0..bytes.len());
                bytes[at] = rng.gen_range(0u32..256) as u8;
            }
            // Insert a random byte.
            1 => {
                let at = rng.gen_range(0..=bytes.len());
                bytes.insert(at, rng.gen_range(0u32..256) as u8);
            }
            // Delete a short range.
            2 => {
                let at = rng.gen_range(0..bytes.len());
                let end = (at + rng.gen_range(1usize..=8)).min(bytes.len());
                bytes.drain(at..end);
            }
            // Duplicate a short range in place.
            3 => {
                let at = rng.gen_range(0..bytes.len());
                let end = (at + rng.gen_range(1usize..=8)).min(bytes.len());
                let slice = bytes[at..end].to_vec();
                for (offset, b) in slice.into_iter().enumerate() {
                    bytes.insert(at + offset, b);
                }
            }
            // Truncate.
            4 => {
                let keep = rng.gen_range(0..=bytes.len());
                bytes.truncate(keep);
            }
            // Splice a window from another corpus entry.
            _ => {
                let donor = splice_pool[rng.gen_range(0..splice_pool.len())];
                if !donor.is_empty() {
                    let from = rng.gen_range(0..donor.len());
                    let to = (from + rng.gen_range(1usize..=16)).min(donor.len());
                    let at = rng.gen_range(0..=bytes.len());
                    for (offset, &b) in donor[from..to].iter().enumerate() {
                        bytes.insert(at + offset, b);
                    }
                }
            }
        }
    }
    bytes
}

/// Fuzzes the HTTP head parser with `iterations` seeded mutations.
pub fn fuzz_http_parser(seed: u64, iterations: usize) -> FuzzReport {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut report = FuzzReport::new(iterations);
    for _ in 0..iterations {
        let base = HTTP_CORPUS[rng.gen_range(0..HTTP_CORPUS.len())];
        let input = mutate(&mut rng, base, HTTP_CORPUS);
        match parse_head(&input, DEFAULT_HEAD_LIMIT) {
            HeadOutcome::Parsed { head, consumed } => {
                assert!(
                    consumed <= input.len(),
                    "parser claimed more bytes than it was given"
                );
                // Accepted heads must answer the derived queries without
                // panicking either.
                let _ = head.content_length();
                let _ = head.keep_alive();
                report.accepted += 1;
            }
            HeadOutcome::Incomplete | HeadOutcome::Invalid(_) => report.rejected += 1,
        }
    }
    report
}

/// Fuzzes the JSON reader with `iterations` seeded byte mutations: the
/// validating skip must accept exactly what the tree reader accepts, and
/// accepted documents are round-tripped through the writer.
pub fn fuzz_json_codec(seed: u64, iterations: usize) -> FuzzReport {
    let mut rng = StdRng::seed_from_u64(seed);
    let splice_pool = json_splice_pool();
    let mut report = FuzzReport::new(iterations);
    for _ in 0..iterations {
        let base = JSON_CORPUS[rng.gen_range(0..JSON_CORPUS.len())];
        let input = mutate(&mut rng, base.as_bytes(), &splice_pool);
        let mut r = Reader::new(&input);
        let parsed = r.value().and_then(|value| r.finish().map(|()| value));
        let mut s = Reader::new(&input);
        let skipped = s.skip().and_then(|()| s.finish());
        assert_eq!(
            parsed.is_ok(),
            skipped.is_ok(),
            "skip and value disagree on {:?}",
            String::from_utf8_lossy(&input)
        );
        match parsed {
            Ok(value) => {
                let rewritten = value.to_string();
                let reparsed = json::parse(&rewritten);
                assert!(
                    reparsed.as_ref().is_ok_and(|v| *v == value),
                    "write→parse round trip broke on {rewritten:?}: {reparsed:?}"
                );
                report.accepted += 1;
            }
            Err(_) => report.rejected += 1,
        }
    }
    report
}

// ---------------------------------------------------------------------------
// Differential wire-decoder fuzzing
// ---------------------------------------------------------------------------

/// A decoder's answer to one document, in HTTP terms.
#[derive(Debug, PartialEq)]
enum Verdict {
    /// Decoded. Carries the value re-encoded by the direct writer, whose
    /// number formatting is canonical, so equal text means bit-identical
    /// values.
    Accepted(String),
    /// `400`: malformed JSON or a schema violation.
    BadRequest,
    /// `422`: a well-formed instance that fails to build.
    Unprocessable(BuildError),
}

fn verdict<T>(decoded: Result<T, WireError>, encode: impl FnOnce(&T) -> String) -> Verdict {
    match decoded {
        Ok(value) => Verdict::Accepted(encode(&value)),
        Err(WireError::Json(_) | WireError::Schema { .. }) => Verdict::BadRequest,
        Err(WireError::Build(e)) => Verdict::Unprocessable(e),
    }
}

/// The oracle's view of a body: the tree [`json::parse`] builds, which
/// needs `&str` — a body that was not UTF-8 was a `400` before any JSON
/// was read.
fn oracle_tree(doc: &[u8]) -> Result<json::JsonValue, WireError> {
    let text = std::str::from_utf8(doc).map_err(|e| {
        WireError::Json(JsonError {
            offset: e.valid_up_to(),
            message: "request body is not valid UTF-8".into(),
        })
    })?;
    Ok(json::parse(text)?)
}

/// Runs `iterations` generated (a quarter of them byte-mutated) documents
/// through both decoders and asserts that they agree.
fn differential(
    seed: u64,
    iterations: usize,
    generate: fn(&mut StdRng) -> Vec<u8>,
    streaming: fn(&[u8]) -> Verdict,
    oracle: fn(&[u8]) -> Verdict,
) -> FuzzReport {
    let mut rng = StdRng::seed_from_u64(seed);
    let splice_pool = json_splice_pool();
    let mut report = FuzzReport::new(iterations);
    for _ in 0..iterations {
        let mut doc = generate(&mut rng);
        if rng.gen_bool(0.25) {
            doc = mutate(&mut rng, &doc, &splice_pool);
        }
        let fast = streaming(&doc);
        let slow = oracle(&doc);
        assert!(
            fast == slow,
            "streaming decoder and oracle disagree on {:?}:\n  streaming: {fast:?}\n  oracle:    {slow:?}",
            String::from_utf8_lossy(&doc)
        );
        match fast {
            Verdict::Accepted(_) => report.accepted += 1,
            Verdict::BadRequest => report.rejected += 1,
            Verdict::Unprocessable(_) => {
                report.rejected += 1;
                report.unprocessable += 1;
            }
        }
    }
    report
}

/// Differentially fuzzes the streaming instance decoder
/// (`wire::instance_from_bytes`) against the tree-walking oracle.
pub fn fuzz_instance_decoder(seed: u64, iterations: usize) -> FuzzReport {
    differential(
        seed,
        iterations,
        instance_document,
        |doc| verdict(wire::instance_from_bytes(doc), wire::instance_to_json),
        |doc| {
            let decoded = oracle_tree(doc).and_then(|v| oracle::instance_from_value(&v));
            verdict(decoded, wire::instance_to_json)
        },
    )
}

/// Differentially fuzzes the streaming event-batch decoder
/// (`wire::events_from_bytes`) against the tree-walking oracle.
pub fn fuzz_event_decoder(seed: u64, iterations: usize) -> FuzzReport {
    differential(
        seed,
        iterations,
        event_document,
        |doc| verdict(wire::events_from_bytes(doc), |e| wire::events_to_json(e)),
        |doc| {
            let decoded = oracle_tree(doc).and_then(|v| oracle::events_from_value(&v));
            verdict(decoded, |e| wire::events_to_json(e))
        },
    )
}

/// Differentially fuzzes [`Reader::number`] against the number scan the
/// reader had before (`str::parse` of the scanned bytes).
pub fn fuzz_number_reader(seed: u64, iterations: usize) -> FuzzReport {
    let mut rng = StdRng::seed_from_u64(seed);
    let splice_pool = json_splice_pool();
    let mut report = FuzzReport::new(iterations);
    for _ in 0..iterations {
        let mut text = number_text(&mut rng);
        if rng.gen_bool(0.25) {
            text = mutate(&mut rng, &text, &splice_pool);
        }
        let mut r = Reader::new(&text);
        let read = r.number().map(f64::to_bits);
        let (oracle, consumed) = oracle::number(&text);
        let oracle = oracle.map(f64::to_bits);
        assert!(
            read == oracle && r.offset() == consumed,
            "number reader and oracle disagree on {:?}:\n  reader: {read:?} after {} bytes\n  oracle: {oracle:?} after {consumed} bytes",
            String::from_utf8_lossy(&text),
            r.offset()
        );
        match read {
            Ok(_) => report.accepted += 1,
            Err(_) => report.rejected += 1,
        }
    }
    report
}

/// A random significand of `len` digits, the first nonzero.
fn digit_string(rng: &mut StdRng, len: usize) -> String {
    (0..len)
        .map(|i| char::from(b'0' + rng.gen_range(u8::from(i == 0)..10)))
        .collect()
}

/// `digits · 10^q`, spelled with the decimal point at a random place.
fn spell(rng: &mut StdRng, digits: &str, q: i64) -> String {
    let point = rng.gen_range(1..=digits.len());
    let (int, frac) = digits.split_at(point);
    let exponent = q + (digits.len() - point) as i64;
    let mut text = int.to_string();
    if !frac.is_empty() {
        text.push('.');
        text.push_str(frac);
    }
    if exponent != 0 || rng.gen_bool(0.2) {
        text.push(if rng.gen_bool(0.5) { 'e' } else { 'E' });
        if exponent >= 0 && rng.gen_bool(0.3) {
            text.push('+');
        }
        text.push_str(&exponent.to_string());
    }
    text
}

/// Shortest round-trip text of `v`, plain or scientific.
fn shortest(rng: &mut StdRng, v: f64) -> String {
    if rng.gen_bool(0.5) {
        format!("{v}")
    } else {
        format!("{v:e}")
    }
}

/// The exact point halfway between two neighbouring doubles `m · 2^e` and
/// `(m + 1) · 2^e` near 2⁵³ (mostly 17 digits), the text one unit off in
/// its last digit, or one of the two neighbours.
fn halfway(rng: &mut StdRng) -> String {
    let m = rng.gen_range((1u64 << 52)..(1u64 << 53) - 1);
    let e = rng.gen_range(-3i32..=4);
    match rng.gen_range(0..4u32) {
        0 => {
            let below = m as f64 * 2f64.powi(e);
            shortest(rng, below)
        }
        1 => {
            let above = (m + 1) as f64 * 2f64.powi(e);
            shortest(rng, above)
        }
        _ => {
            // (2m + 1) · 2^(e-1), as a decimal integer times 10^q.
            let odd = u128::from(2 * m + 1);
            let (mut digits, q) = if e >= 1 {
                (odd << (e - 1), 0)
            } else {
                (odd * 5u128.pow((1 - e) as u32), i64::from(e - 1))
            };
            match rng.gen_range(0..4u32) {
                0 => digits -= 1,
                1 => digits += 1,
                _ => {}
            }
            spell(rng, &digits.to_string(), q)
        }
    }
}

/// Number text from the hard cases of decimal-to-binary conversion,
/// usually valid.
fn number_text(rng: &mut StdRng) -> Vec<u8> {
    let body = match rng.gen_range(0..12u32) {
        // Shortest round-trip text of random bits.
        0 | 1 => {
            let v = f64::from_bits(rng.next_u64() >> 1);
            let v = if v.is_finite() { v } else { f64::MAX };
            shortest(rng, v)
        }
        2 => halfway(rng),
        // 2⁵³ ± 1 and its neighbours, which need the last bit rounded.
        3 => {
            let n = (1u64 << 53) - 2 + rng.gen_range(0..5u64);
            let q = rng.gen_range(-2i64..=2);
            spell(rng, &n.to_string(), q)
        }
        // 19 significant digits stay exact; 20 do not.
        4 => {
            let len = rng.gen_range(19..=20);
            let digits = digit_string(rng, len);
            let q = rng.gen_range(-40i64..=40);
            spell(rng, &digits, q)
        }
        // A long run of leading fraction zeros.
        5 => {
            let zeros = "0".repeat(rng.gen_range(1..=400));
            let len = rng.gen_range(1..=20);
            let digits = digit_string(rng, len);
            let exponent = if rng.gen_bool(0.5) {
                format!("e{}", rng.gen_range(-40i64..=400))
            } else {
                String::new()
            };
            format!("0.{zeros}{digits}{exponent}")
        }
        // The edges of the power-of-five window.
        6 => {
            let q = [-28, -27, 55, 56][rng.gen_range(0..4)];
            let len = rng.gen_range(1..=19);
            let digits = digit_string(rng, len);
            spell(rng, &digits, q)
        }
        // Subnormals and the normal/subnormal boundary.
        7 => {
            let bits = if rng.gen_bool(0.5) {
                rng.gen_range(1u64..1 << 52)
            } else {
                (1u64 << 52) - 4 + rng.gen_range(0..8u64)
            };
            shortest(rng, f64::from_bits(bits))
        }
        // The largest finite value, and the text just past it.
        8 => {
            let last = rng.gen_range(5u32..=9);
            let zeros = rng.gen_range(0..=6);
            let digits = format!("1797693134862315{last}{}", "0".repeat(zeros));
            spell(rng, &digits, 292 - zeros as i64)
        }
        // A long zero run against a huge exponent. `str::parse` stops
        // adding exponent digits once the exponent reaches 65,536, so with
        // a zero run of more than ~65,000 digits only the reader under
        // test gets the value right; the runs here stay well short of it.
        9 => {
            let zeros = rng.gen_range(300..=5_000);
            let exponent = match rng.gen_range(0..4u32) {
                0 => (zeros as i64 + rng.gen_range(-400i64..=400)).to_string(),
                1 => "999999999".to_string(),
                2 => "-99999999999999999999".to_string(),
                _ => "9223372036854775808".to_string(),
            };
            format!("0.{}1e{exponent}", "0".repeat(zeros))
        }
        // Zero, whatever its exponent.
        10 => [
            "0",
            "0.0",
            "0e999999999",
            "0.000E-7",
            "0e+0",
            "0.0e99999999999999999999",
        ][rng.gen_range(0..6)]
        .to_string(),
        // Random 1–25-digit significands.
        _ => {
            let len = rng.gen_range(1..=25);
            let digits = digit_string(rng, len);
            let q = rng.gen_range(-360i64..=330);
            spell(rng, &digits, q)
        }
    };
    let sign = if rng.gen_bool(0.25) { "-" } else { "" };
    let space = if rng.gen_bool(0.1) { " \n" } else { "" };
    format!("{space}{sign}{body}").into_bytes()
}

/// A field list: raw key bytes (written between quotes as they are, so a
/// key may hold escapes or invalid UTF-8) and raw value text.
type Fields = Vec<(Vec<u8>, Vec<u8>)>;

/// JSON text for a number, as the writer spells it.
fn number(v: f64) -> Vec<u8> {
    let mut s = String::new();
    json::write_f64(&mut s, v);
    s.into_bytes()
}

fn integer(n: u32) -> Vec<u8> {
    n.to_string().into_bytes()
}

fn array(items: impl IntoIterator<Item = Vec<u8>>) -> Vec<u8> {
    let mut out = vec![b'['];
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(b',');
        }
        out.extend_from_slice(&item);
    }
    out.push(b']');
    out
}

/// An object from `fields`, with a little whitespace here and there.
fn object(rng: &mut StdRng, fields: &[(Vec<u8>, Vec<u8>)]) -> Vec<u8> {
    let mut out = vec![b'{'];
    for (i, (key, value)) in fields.iter().enumerate() {
        if i > 0 {
            out.push(b',');
        }
        if rng.gen_bool(0.2) {
            out.extend_from_slice(b"\n ");
        }
        out.push(b'"');
        out.extend_from_slice(key);
        out.extend_from_slice(b"\":");
        out.extend_from_slice(value);
    }
    out.push(b'}');
    out
}

/// Values of every kind, some not valid JSON: fillers for repeated,
/// unknown and mistyped fields.
const ODD_VALUES: &[&[u8]] = &[
    b"null",
    b"true",
    b"\"x\"",
    b"{}",
    b"[]",
    b"-1",
    b"-0",
    b"1.5",
    b"4294967296",
    b"1e-999",
    b"[1,[2,{\"a\":null}]]",
    b"{\"k\":[\"\\u00e9\"]}",
    b"\"caf\xc3\xa9\"",
    b"1e999",
    b"\"\\ud800\"",
    b"[1,]",
    b"\"\xff\"",
    b"\"\xc3\"",
];

fn odd_value(rng: &mut StdRng) -> Vec<u8> {
    ODD_VALUES[rng.gen_range(0..ODD_VALUES.len())].to_vec()
}

/// Number spellings that break an index: negative, fractional, too large
/// for an `f64`, too large for a `u32`.
const BAD_NUMBERS: &[&[u8]] = &[b"-1", b"1.5", b"1e999", b"4294967296"];

/// Replaces one number in `text`, chosen at random, with `with`.
fn replace_number(rng: &mut StdRng, text: &[u8], with: &[u8]) -> Vec<u8> {
    let in_number = |b: u8| b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E');
    let starts: Vec<usize> = (0..text.len())
        .filter(|&i| {
            (text[i].is_ascii_digit() || text[i] == b'-') && (i == 0 || !in_number(text[i - 1]))
        })
        .collect();
    let Some(&start) = starts.get(rng.gen_range(0..starts.len().max(1))) else {
        return text.to_vec();
    };
    let len = text[start..].iter().take_while(|&&b| in_number(b)).count();
    [&text[..start], with, &text[start + len..]].concat()
}

/// Sets every field named `key` to `value`.
fn set_field(fields: &mut [(Vec<u8>, Vec<u8>)], key: &[u8], value: &[u8]) {
    for (k, v) in fields.iter_mut() {
        if k.as_slice() == key {
            *v = value.to_vec();
        }
    }
}

/// Respells key `k` with a `\u` escape (equal once decoded), or inserts a
/// key holding invalid UTF-8 at `at`.
fn odd_key(rng: &mut StdRng, fields: &mut Fields, k: usize, at: usize) {
    if rng.gen_bool(0.5) {
        let key = fields[k].0.clone();
        if let Some((&first, rest)) = key.split_first() {
            let escaped = format!("\\u{first:04x}");
            fields[k].0 = [escaped.as_bytes(), rest].concat();
        }
    } else {
        fields.insert(at, (b"n\xffte".to_vec(), b"1".to_vec()));
    }
}

fn probability(rng: &mut StdRng) -> f64 {
    match rng.gen_range(0..6u32) {
        0 => 0.0,
        1 => -0.0,
        2 => 5e-324,
        3 => 1.0,
        4 => 1.0 / 3.0,
        _ => rng.gen_range(0.0..1.0),
    }
}

fn price(rng: &mut StdRng) -> f64 {
    match rng.gen_range(0..5u32) {
        0 => -0.0,
        1 => 1e308,
        _ => rng.gen_range(0.0..50.0),
    }
}

fn series(rng: &mut StdRng, len: u32, value: fn(&mut StdRng) -> f64) -> Vec<u8> {
    let values: Vec<Vec<u8>> = (0..len).map(|_| number(value(rng))).collect();
    array(values)
}

/// A wire instance document, usually valid, with structure-aware faults.
fn instance_document(rng: &mut StdRng) -> Vec<u8> {
    let users = rng.gen_range(1u32..=4);
    let items = rng.gen_range(1u32..=3);
    let horizon = rng.gen_range(1u32..=4);
    let mut prices: Vec<Vec<u8>> = (0..items).map(|_| series(rng, horizon, price)).collect();
    let mut candidates = Vec::new();
    for u in 0..users {
        for i in 0..items {
            if rng.gen_bool(0.6) {
                let rating = number(rng.gen_range(-5.0..5.0));
                let probs = series(rng, horizon, probability);
                candidates.push(array([integer(u), integer(i), rating, probs]));
            }
        }
    }

    // Row faults.
    if rng.gen_bool(0.15) {
        let k = rng.gen_range(0..prices.len());
        prices[k] = b"null".to_vec();
    }
    if !candidates.is_empty() {
        let k = rng.gen_range(0..candidates.len());
        match rng.gen_range(0..10u32) {
            // A repeated (user, item) pair.
            0 => candidates.push(candidates[k].clone()),
            // A negative probability (or index).
            1 => candidates[k] = replace_number(rng, &candidates[k], b"-0.25"),
            // A probability series of the wrong length.
            2 => {
                let probs = series(rng, horizon + 1, probability);
                candidates[k] = array([integer(0), integer(0), number(1.0), probs]);
            }
            // A user outside the declared range.
            3 => {
                let probs = series(rng, horizon, probability);
                candidates[k] = array([integer(users), integer(0), number(1.0), probs]);
            }
            _ => {}
        }
    }

    let mut fields: Fields = vec![
        (b"users".to_vec(), integer(users)),
        (b"items".to_vec(), integer(items)),
        (b"horizon".to_vec(), integer(horizon)),
        (b"prices".to_vec(), array(prices)),
        (b"candidates".to_vec(), array(candidates)),
    ];
    if rng.gen_bool(0.5) {
        fields.push((b"display_limit".to_vec(), integer(rng.gen_range(1u32..=2))));
    }
    if rng.gen_bool(0.5) {
        let classes: Vec<Vec<u8>> = (0..items)
            .map(|_| integer(rng.gen_range(0..items)))
            .collect();
        fields.push((b"classes".to_vec(), array(classes)));
    }
    if rng.gen_bool(0.5) {
        fields.push((b"beta".to_vec(), series(rng, items, probability)));
    }
    if rng.gen_bool(0.5) {
        let capacity: Vec<Vec<u8>> = (0..items)
            .map(|_| integer(rng.gen_range(0..=users)))
            .collect();
        fields.push((b"capacity".to_vec(), array(capacity)));
    }
    if rng.gen_bool(0.3) {
        let exempt_users: Vec<Vec<u8>> = (0..rng.gen_range(0..=2u32))
            .map(|_| integer(rng.gen_range(0..users)))
            .collect();
        let row = array([integer(rng.gen_range(0..items)), array(exempt_users)]);
        fields.push((b"exempt".to_vec(), array([row])));
    }

    // Field faults.
    for _ in 0..rng.gen_range(0..=2u32) {
        if fields.is_empty() {
            break;
        }
        let k = rng.gen_range(0..fields.len());
        let at = rng.gen_range(0..=fields.len());
        match rng.gen_range(0..9u32) {
            // Dimensions after everything else, `candidates` included.
            0 => {
                let n = 3.min(fields.len());
                fields.rotate_left(n);
            }
            // A repeated key, before or after the first occurrence.
            1 => {
                let key = fields[k].0.clone();
                fields.insert(at, (key, odd_value(rng)));
            }
            // An unknown key.
            2 => fields.insert(at, (b"note".to_vec(), odd_value(rng))),
            // A number too large for an `f64`.
            3 => fields[k].1 = replace_number(rng, &fields[k].1, b"1e999"),
            // β outside [0, 1].
            4 => {
                let beta = if rng.gen_bool(0.5) { 1.5 } else { -0.5 };
                let values: Vec<Vec<u8>> = (0..items).map(|_| number(beta)).collect();
                fields.retain(|(key, _)| key.as_slice() != b"beta");
                fields.push((b"beta".to_vec(), array(values)));
            }
            // Horizon 0.
            5 => set_field(&mut fields, b"horizon", b"0"),
            // A missing field.
            6 => {
                fields.remove(k);
            }
            // A value of the wrong kind.
            7 => fields[k].1 = odd_value(rng),
            _ => odd_key(rng, &mut fields, k, at),
        }
    }
    if rng.gen_bool(0.3) {
        fields.shuffle(rng);
    }
    let doc = object(rng, &fields);
    if rng.gen_bool(0.02) {
        return array([doc]);
    }
    doc
}

/// Outcome spellings: valid, escaped, unknown, mistyped, invalid UTF-8.
const OUTCOMES: &[&[u8]] = &[
    b"\"adopted\"",
    b"\"rejected\"",
    b"\"adopt\\u0065d\"",
    b"\"maybe\"",
    b"3",
    b"\"ad\xffopted\"",
    b"\"rejected\xc3\"",
];

/// A wire event batch, usually valid, with structure-aware faults.
fn event_document(rng: &mut StdRng) -> Vec<u8> {
    let events: Vec<Vec<u8>> = (0..rng.gen_range(0..=4u32))
        .map(|_| event_object(rng))
        .collect();
    if rng.gen_bool(0.03) {
        return object(rng, &[(b"events".to_vec(), array(events))]);
    }
    array(events)
}

fn event_object(rng: &mut StdRng) -> Vec<u8> {
    let outcome = if rng.gen_bool(0.8) {
        OUTCOMES[rng.gen_range(0..2)]
    } else {
        OUTCOMES[rng.gen_range(0..OUTCOMES.len())]
    };
    let mut fields: Fields = vec![
        (b"user".to_vec(), integer(rng.gen_range(0..5u32))),
        (b"item".to_vec(), integer(rng.gen_range(0..5u32))),
        (b"t".to_vec(), integer(rng.gen_range(1..5u32))),
        (b"outcome".to_vec(), outcome.to_vec()),
    ];
    for _ in 0..rng.gen_range(0..=2u32) {
        if fields.is_empty() {
            break;
        }
        let k = rng.gen_range(0..fields.len());
        let at = rng.gen_range(0..=fields.len());
        match rng.gen_range(0..7u32) {
            // Time step 0.
            0 => set_field(&mut fields, b"t", b"0"),
            1 => {
                let with = BAD_NUMBERS[rng.gen_range(0..BAD_NUMBERS.len())];
                fields[k].1 = replace_number(rng, &fields[k].1, with);
            }
            // A value of the wrong kind.
            2 => fields[k].1 = odd_value(rng),
            // A repeated key, before or after the first occurrence.
            3 => {
                let key = fields[k].0.clone();
                fields.insert(at, (key, odd_value(rng)));
            }
            // An unknown key.
            4 => fields.insert(at, (b"x".to_vec(), odd_value(rng))),
            // A missing field.
            5 => {
                fields.remove(k);
            }
            _ => odd_key(rng, &mut fields, k, at),
        }
    }
    if rng.gen_bool(0.5) {
        fields.shuffle(rng);
    }
    if rng.gen_bool(0.03) {
        return odd_value(rng);
    }
    object(rng, &fields)
}

/// The differential oracles, kept verbatim: the tree-walking decoders
/// `revmax_core::wire` used before it read documents from the [`Reader`]
/// directly, and the number scan the reader used before its one-pass
/// number reader.
mod oracle {
    use revmax_core::json::{JsonError, JsonValue};
    use revmax_core::wire::{MAX_WIRE_CELLS, MAX_WIRE_DIM};
    use revmax_core::{AdoptionEvent, Instance, InstanceBuilder, WireError};

    fn schema(message: impl Into<String>) -> WireError {
        WireError::Schema {
            message: message.into(),
        }
    }

    fn field<'v>(obj: &'v JsonValue, key: &str) -> Result<&'v JsonValue, WireError> {
        obj.get(key)
            .ok_or_else(|| schema(format!("missing field `{key}`")))
    }

    fn u32_field(value: &JsonValue, what: &str) -> Result<u32, WireError> {
        value
            .as_u32()
            .ok_or_else(|| schema(format!("`{what}` must be a non-negative integer")))
    }

    fn dim_field(value: &JsonValue, what: &str) -> Result<u32, WireError> {
        let n = u32_field(value, what)?;
        if n > MAX_WIRE_DIM {
            return Err(schema(format!(
                "`{what}` is {n}, above the wire limit of {MAX_WIRE_DIM}"
            )));
        }
        Ok(n)
    }

    fn f64_field(value: &JsonValue, what: &str) -> Result<f64, WireError> {
        value
            .as_f64()
            .ok_or_else(|| schema(format!("`{what}` must be a number")))
    }

    fn array_field<'v>(value: &'v JsonValue, what: &str) -> Result<&'v [JsonValue], WireError> {
        value
            .as_array()
            .ok_or_else(|| schema(format!("`{what}` must be an array")))
    }

    fn f64_vec(value: &JsonValue, what: &str) -> Result<Vec<f64>, WireError> {
        array_field(value, what)?
            .iter()
            .map(|v| f64_field(v, what))
            .collect()
    }

    fn u32_vec(value: &JsonValue, what: &str) -> Result<Vec<u32>, WireError> {
        array_field(value, what)?
            .iter()
            .map(|v| u32_field(v, what))
            .collect()
    }

    pub fn instance_from_value(value: &JsonValue) -> Result<Instance, WireError> {
        if value.as_object().is_none() {
            return Err(schema("an instance must be a JSON object"));
        }
        let users = dim_field(field(value, "users")?, "users")?;
        let items = dim_field(field(value, "items")?, "items")?;
        let horizon = dim_field(field(value, "horizon")?, "horizon")?;
        if u64::from(items) * u64::from(horizon) > MAX_WIRE_CELLS {
            return Err(schema(format!(
                "`items * horizon` is {}, above the wire limit of {MAX_WIRE_CELLS} price cells",
                u64::from(items) * u64::from(horizon)
            )));
        }
        let mut b = InstanceBuilder::new(users, items, horizon);
        if let Some(k) = value.get("display_limit") {
            b.display_limit(u32_field(k, "display_limit")?);
        }
        if let Some(classes) = value.get("classes") {
            for (i, c) in u32_vec(classes, "classes")?.into_iter().enumerate() {
                b.item_class(i as u32, c);
            }
        }
        if let Some(beta) = value.get("beta") {
            for (i, bi) in f64_vec(beta, "beta")?.into_iter().enumerate() {
                b.beta(i as u32, bi);
            }
        }
        if let Some(capacity) = value.get("capacity") {
            for (i, q) in u32_vec(capacity, "capacity")?.into_iter().enumerate() {
                b.capacity(i as u32, q);
            }
        }
        for (i, series) in array_field(field(value, "prices")?, "prices")?
            .iter()
            .enumerate()
        {
            if series.is_null() {
                continue;
            }
            b.prices(i as u32, &f64_vec(series, "prices")?);
        }
        for row in array_field(field(value, "candidates")?, "candidates")? {
            let row = array_field(row, "candidates")?;
            if row.len() != 4 {
                return Err(schema(
                    "a candidate row must be `[user, item, rating, probs]`",
                ));
            }
            let user = u32_field(&row[0], "candidate user")?;
            let item = u32_field(&row[1], "candidate item")?;
            let rating = f64_field(&row[2], "candidate rating")?;
            let probs = f64_vec(&row[3], "candidate probs")?;
            b.candidate(user, item, &probs, rating);
        }
        if let Some(exempt) = value.get("exempt") {
            for row in array_field(exempt, "exempt")? {
                let row = array_field(row, "exempt")?;
                if row.len() != 2 {
                    return Err(schema("an exempt row must be `[item, [users...]]`"));
                }
                let item = u32_field(&row[0], "exempt item")?;
                for user in u32_vec(&row[1], "exempt users")? {
                    b.exempt_user(item, user);
                }
            }
        }
        Ok(b.build()?)
    }

    fn event_from_value(value: &JsonValue) -> Result<AdoptionEvent, WireError> {
        if value.as_object().is_none() {
            return Err(schema("an event must be a JSON object"));
        }
        let user = u32_field(field(value, "user")?, "user")?;
        let item = u32_field(field(value, "item")?, "item")?;
        let t = u32_field(field(value, "t")?, "t")?;
        if t == 0 {
            return Err(schema("time steps are 1-based"));
        }
        let outcome = field(value, "outcome")?
            .as_str()
            .ok_or_else(|| schema("`outcome` must be a string"))?;
        match outcome {
            "adopted" => Ok(AdoptionEvent::adopted(user, item, t)),
            "rejected" => Ok(AdoptionEvent::rejected(user, item, t)),
            _ => Err(schema("`outcome` must be \"adopted\" or \"rejected\"")),
        }
    }

    pub fn events_from_value(value: &JsonValue) -> Result<Vec<AdoptionEvent>, WireError> {
        array_field(value, "events")?
            .iter()
            .map(event_from_value)
            .collect()
    }

    /// `Reader::number` as it was before the one-pass reader, run on the
    /// bytes of one number (after optional whitespace): a grammar scan, a
    /// 15-digit integer shortcut, then `str::parse` of the same bytes and a
    /// finiteness check. Returns the result and the bytes consumed.
    pub fn number(bytes: &[u8]) -> (Result<f64, JsonError>, usize) {
        let mut scan = Scan { bytes, pos: 0 };
        let read = scan.number();
        (read, scan.pos)
    }

    /// The reader's cursor, with just what its old `number` body uses; that
    /// body is kept verbatim.
    struct Scan<'a> {
        bytes: &'a [u8],
        pos: usize,
    }

    impl Scan<'_> {
        fn error(&self, message: &str) -> JsonError {
            self.error_at(self.pos, message)
        }

        fn error_at(&self, offset: usize, message: &str) -> JsonError {
            JsonError {
                offset,
                message: message.to_string(),
            }
        }

        fn peek_byte(&self) -> Option<u8> {
            self.bytes.get(self.pos).copied()
        }

        /// The reader's `start` outside any container: skips whitespace and
        /// returns the next byte.
        fn start(&mut self) -> Result<u8, JsonError> {
            while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.bytes.get(self.pos) {
                self.pos += 1;
            }
            self.peek_byte()
                .ok_or_else(|| self.error("unexpected end of input"))
        }

        fn digits(&mut self) {
            while let Some(b'0'..=b'9') = self.bytes.get(self.pos) {
                self.pos += 1;
            }
        }

        fn number(&mut self) -> Result<f64, JsonError> {
            self.start()?;
            let start = self.pos;
            let negative = self.peek_byte() == Some(b'-');
            if negative {
                self.pos += 1;
            }
            let int_start = self.pos;
            match self.peek_byte() {
                Some(b'0') => self.pos += 1,
                Some(b'1'..=b'9') => self.digits(),
                _ => return Err(self.error("invalid number")),
            }
            let int_end = self.pos;
            let mut integer = true;
            if self.peek_byte() == Some(b'.') {
                integer = false;
                self.pos += 1;
                if !matches!(self.peek_byte(), Some(b'0'..=b'9')) {
                    return Err(self.error("digit expected after decimal point"));
                }
                self.digits();
            }
            if let Some(b'e' | b'E') = self.peek_byte() {
                integer = false;
                self.pos += 1;
                if let Some(b'+' | b'-') = self.peek_byte() {
                    self.pos += 1;
                }
                if !matches!(self.peek_byte(), Some(b'0'..=b'9')) {
                    return Err(self.error("digit expected in exponent"));
                }
                self.digits();
            }
            // Up to 15 integer digits are exact in an `f64` (< 2⁵³), so the
            // value needs no decimal-to-binary rounding.
            if integer && int_end - int_start <= 15 {
                let magnitude = self.bytes[int_start..int_end]
                    .iter()
                    .fold(0u64, |acc, &d| acc * 10 + u64::from(d - b'0'))
                    as f64;
                return Ok(if negative { -magnitude } else { magnitude });
            }
            let n: f64 = std::str::from_utf8(&self.bytes[start..self.pos])
                .ok()
                .and_then(|text| text.parse().ok())
                .ok_or_else(|| self.error_at(start, "number does not parse as f64"))?;
            if !n.is_finite() {
                return Err(self.error_at(start, "number overflows f64"));
            }
            Ok(n)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fuzz_runs_are_deterministic_per_seed() {
        assert_eq!(fuzz_http_parser(7, 500), fuzz_http_parser(7, 500));
        assert_eq!(fuzz_json_codec(7, 500), fuzz_json_codec(7, 500));
        assert_eq!(fuzz_instance_decoder(7, 300), fuzz_instance_decoder(7, 300));
        assert_eq!(fuzz_event_decoder(7, 300), fuzz_event_decoder(7, 300));
        assert_eq!(fuzz_number_reader(7, 500), fuzz_number_reader(7, 500));
    }

    #[test]
    fn corpora_baselines_are_accepted_unmutated() {
        for base in HTTP_CORPUS {
            assert!(
                matches!(
                    parse_head(base, DEFAULT_HEAD_LIMIT),
                    HeadOutcome::Parsed { .. }
                ),
                "corpus entry failed to parse: {:?}",
                String::from_utf8_lossy(base)
            );
        }
        for base in JSON_CORPUS {
            json::parse(base).expect("JSON corpus entry parses");
        }
    }
}
