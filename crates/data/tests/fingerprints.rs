//! Every generated instance, pinned bit for bit.
//!
//! Each case hashes the wire encoding of one generated instance (64-bit
//! FNV-1a of `wire::instance_to_json`) and compares it with a constant. The
//! constants were computed before the random-number shim took the divisions
//! out of its bounded draws and before the synthetic pipeline moved to a
//! fixed-length shuffle, so a change to either that alters one drawn value,
//! or any later change to a generator, fails here.

use revmax_core::wire::instance_to_json;
use revmax_data::{generate, generate_scalability, DatasetConfig};

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn fingerprint(config: &DatasetConfig, seed: u64, synthetic: bool) -> u64 {
    let mut config = config.clone();
    config.seed = seed;
    let ds = if synthetic {
        generate_scalability(&config)
    } else {
        generate(&config)
    };
    fnv1a(instance_to_json(&ds.instance).as_bytes())
}

fn check(name: &str, config: DatasetConfig, synthetic: bool, expected: [(u64, u64); 2]) {
    let got = expected.map(|(seed, _)| (seed, fingerprint(&config, seed, synthetic)));
    assert_eq!(got, expected, "{name}: (seed, fingerprint) pairs");
}

#[test]
fn fnv1a_matches_its_reference_vectors() {
    assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
    assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
}

#[test]
fn synthetic_scalability_instances_are_unchanged() {
    check(
        "synthetic_scalability(300)",
        DatasetConfig::synthetic_scalability(300),
        true,
        [
            (1, 0x2ee2_9409_c41e_69c6),
            (20_140_816, 0xfc8c_3d88_14f9_cdd2),
        ],
    );
}

#[test]
fn amazon_like_instances_are_unchanged() {
    check(
        "amazon_like x0.005",
        DatasetConfig::amazon_like().scaled(0.005),
        false,
        [(1, 0xd414_5956_c757_3b67), (2, 0x298c_04cf_45c4_c4e9)],
    );
}

#[test]
fn epinions_like_instances_are_unchanged() {
    check(
        "epinions_like x0.005",
        DatasetConfig::epinions_like().scaled(0.005),
        false,
        [(1, 0x3111_dfcb_3a25_b3bf), (2, 0x5320_ce55_ea1f_fb90)],
    );
}
