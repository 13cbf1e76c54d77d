//! Shared parsing of `REVMAX_*` environment knobs.
//!
//! Every binary in the workspace exposes its runtime knobs through
//! environment variables, and they all follow the same contract: **a missing
//! or unparsable value falls back to the default** — configuration selects
//! speed, never behaviour, so a typo must degrade gracefully instead of
//! aborting. This module is the single implementation of that contract; the
//! per-crate `from_env` constructors (`PlannerConfig::from_env` in
//! `revmax-algorithms`, `Scale::from_env` in `revmax-experiments`, the bench
//! emitters) are thin layers over it.

use std::str::FromStr;

/// Reads and parses an environment variable; `None` when the variable is
/// unset, empty, or fails to parse.
pub fn var<T: FromStr>(key: &str) -> Option<T> {
    std::env::var(key).ok().and_then(|s| {
        let s = s.trim();
        if s.is_empty() {
            None
        } else {
            s.parse().ok()
        }
    })
}

/// Reads and parses an environment variable, falling back to `default`.
pub fn var_or<T: FromStr>(key: &str, default: T) -> T {
    var(key).unwrap_or(default)
}

/// Reads an environment variable through a custom parser (for enum-valued
/// knobs like `REVMAX_ALGORITHM=gg|slg`); `None` when unset or rejected.
pub fn var_with<T>(key: &str, parse: impl FnOnce(&str) -> Option<T>) -> Option<T> {
    std::env::var(key).ok().and_then(|s| parse(s.trim()))
}

/// Whether a boolean knob is switched on (the workspace convention is `=1`).
pub fn flag(key: &str) -> bool {
    std::env::var(key).is_ok_and(|v| v.trim() == "1")
}

/// Whether the variable is present in the environment at all (regardless of
/// parseability). Tests use this to probe for ambient configuration that
/// would change a default-path assertion.
pub fn is_set(key: &str) -> bool {
    std::env::var_os(key).is_some()
}

/// Parses a comma-separated list (e.g. `REVMAX_SERVE_SHARDS=1,2,4`);
/// unparsable entries are skipped, `None` when the variable is unset.
pub fn var_list<T: FromStr>(key: &str) -> Option<Vec<T>> {
    std::env::var(key)
        .ok()
        .map(|s| s.split(',').filter_map(|x| x.trim().parse().ok()).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    // Each test owns distinct variable names: the test harness runs tests
    // concurrently in one process and the environment is global.

    #[test]
    fn var_parses_and_falls_back() {
        std::env::set_var("REVMAX_TEST_VAR_A", "42");
        assert_eq!(var::<u32>("REVMAX_TEST_VAR_A"), Some(42));
        std::env::set_var("REVMAX_TEST_VAR_A", "not a number");
        assert_eq!(var::<u32>("REVMAX_TEST_VAR_A"), None);
        std::env::set_var("REVMAX_TEST_VAR_A", "  7 ");
        assert_eq!(var::<u32>("REVMAX_TEST_VAR_A"), Some(7));
        std::env::remove_var("REVMAX_TEST_VAR_A");
        assert_eq!(var::<u32>("REVMAX_TEST_VAR_A"), None);
        assert_eq!(var_or("REVMAX_TEST_VAR_A", 5u32), 5);
    }

    #[test]
    fn flag_requires_exactly_one() {
        std::env::set_var("REVMAX_TEST_FLAG_B", "1");
        assert!(flag("REVMAX_TEST_FLAG_B"));
        std::env::set_var("REVMAX_TEST_FLAG_B", "true");
        assert!(!flag("REVMAX_TEST_FLAG_B"));
        std::env::remove_var("REVMAX_TEST_FLAG_B");
        assert!(!flag("REVMAX_TEST_FLAG_B"));
    }

    #[test]
    fn var_with_uses_custom_parser() {
        std::env::set_var("REVMAX_TEST_ENUM_C", "hash");
        let parsed = var_with("REVMAX_TEST_ENUM_C", |s| match s {
            "flat" => Some(0),
            "hash" => Some(1),
            _ => None,
        });
        assert_eq!(parsed, Some(1));
        std::env::set_var("REVMAX_TEST_ENUM_C", "typo");
        let parsed = var_with("REVMAX_TEST_ENUM_C", |s| match s {
            "flat" => Some(0),
            _ => None,
        });
        assert_eq!(parsed, None);
        std::env::remove_var("REVMAX_TEST_ENUM_C");
    }

    #[test]
    fn var_list_splits_and_skips_garbage() {
        std::env::set_var("REVMAX_TEST_LIST_D", "1, 2,x,8");
        assert_eq!(var_list::<u32>("REVMAX_TEST_LIST_D"), Some(vec![1, 2, 8]));
        std::env::remove_var("REVMAX_TEST_LIST_D");
        assert_eq!(var_list::<u32>("REVMAX_TEST_LIST_D"), None);
    }
}
