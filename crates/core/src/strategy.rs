//! Recommendation strategies: sets of (user, item, time) triples, plus
//! validation against the REVMAX display and capacity constraints and a
//! self-contained JSON codec for persistence.
//!
//! # Serialisation
//!
//! The on-disk format is a JSON array of `[user, item, t]` triples in
//! insertion order, written by [`Strategy::to_json`] and read back by
//! [`Strategy::from_json`]. Deserialisation goes through [`Strategy::insert`],
//! which rebuilds the `O(1)` membership index — an earlier version derived its
//! serialisation and skipped the index field, so every deserialised strategy
//! answered `contains() == false` for all of its own triples. The round-trip
//! regression test below pins the fix.

use crate::error::{ConstraintViolation, StrategyParseError};
use crate::ids::{ItemId, TimeStep, Triple, UserId};
use crate::instance::Instance;
use std::collections::{HashMap, HashSet};

/// A recommendation strategy `S ⊆ U × I × [T]`.
///
/// The container preserves insertion order (useful for replaying greedy
/// selection traces, e.g. Figure 4 of the paper) while providing `O(1)`
/// membership tests.
#[derive(Debug, Clone, Default)]
pub struct Strategy {
    triples: Vec<Triple>,
    index: HashSet<Triple>,
}

impl Strategy {
    /// Creates an empty strategy.
    pub fn new() -> Self {
        Strategy::default()
    }

    /// Creates an empty strategy with room for `cap` triples.
    pub fn with_capacity(cap: usize) -> Self {
        Strategy {
            triples: Vec::with_capacity(cap),
            index: HashSet::with_capacity(cap),
        }
    }

    /// Number of triples in the strategy.
    pub fn len(&self) -> usize {
        self.triples.len()
    }

    /// Whether the strategy is empty.
    pub fn is_empty(&self) -> bool {
        self.triples.is_empty()
    }

    /// Whether a triple is part of the strategy.
    pub fn contains(&self, triple: Triple) -> bool {
        self.index.contains(&triple)
    }

    /// Inserts a triple; returns `false` if it was already present.
    pub fn insert(&mut self, triple: Triple) -> bool {
        if self.index.insert(triple) {
            self.triples.push(triple);
            true
        } else {
            false
        }
    }

    /// Removes a triple; returns `true` if it was present.
    ///
    /// This is `O(n)` in the strategy size and intended for the local-search
    /// approximation algorithm, not for the greedy hot loops.
    pub fn remove(&mut self, triple: Triple) -> bool {
        if self.index.remove(&triple) {
            if let Some(pos) = self.triples.iter().position(|&t| t == triple) {
                self.triples.remove(pos);
            }
            true
        } else {
            false
        }
    }

    /// Iterates over the triples in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = Triple> + '_ {
        self.triples.iter().copied()
    }

    /// The triples in insertion order.
    pub fn as_slice(&self) -> &[Triple] {
        &self.triples
    }

    /// All triples recommended to a given user, in insertion order.
    pub fn triples_of_user(&self, user: UserId) -> Vec<Triple> {
        self.triples
            .iter()
            .copied()
            .filter(|t| t.user == user)
            .collect()
    }

    /// Number of repeats per (user, item) pair — the quantity plotted in
    /// Figure 5 of the paper.
    pub fn repeat_histogram(&self) -> HashMap<(UserId, ItemId), u32> {
        let mut h: HashMap<(UserId, ItemId), u32> = HashMap::new();
        for t in &self.triples {
            *h.entry((t.user, t.item)).or_insert(0) += 1;
        }
        h
    }

    /// Validates the strategy against the display constraint (at most `k` items
    /// per user per time step), the capacity constraint (at most `q_i` distinct
    /// non-exempt users per item, see [`Instance::is_exempt`]), and
    /// range/candidacy of every triple.
    pub fn validate(&self, inst: &Instance) -> Result<(), ConstraintViolation> {
        let mut display: HashMap<(UserId, TimeStep), usize> = HashMap::new();
        let mut users_per_item: HashMap<ItemId, HashSet<UserId>> = HashMap::new();
        for &triple in &self.triples {
            if !inst.in_range(triple) {
                return Err(ConstraintViolation::OutOfRange { triple });
            }
            if inst.candidate_for(triple.user, triple.item).is_none() {
                return Err(ConstraintViolation::NotACandidate { triple });
            }
            *display.entry((triple.user, triple.t)).or_insert(0) += 1;
            users_per_item
                .entry(triple.item)
                .or_default()
                .insert(triple.user);
        }
        for ((user, t), count) in display {
            if count > inst.display_limit() as usize {
                return Err(ConstraintViolation::Display {
                    user,
                    t: t.value(),
                    count,
                    limit: inst.display_limit(),
                });
            }
        }
        for (item, users) in users_per_item {
            // Exempt users were already charged against the original
            // instance a residual was conditioned on; they do not consume
            // the (residual) capacity again.
            let charged = users.iter().filter(|&&u| !inst.is_exempt(item, u)).count();
            if charged > inst.capacity(item) as usize {
                return Err(ConstraintViolation::Capacity {
                    item,
                    distinct_users: charged,
                    capacity: inst.capacity(item),
                });
            }
        }
        Ok(())
    }

    /// Serialises the strategy as a JSON array of `[user, item, t]` triples in
    /// insertion order (written by [`crate::wire::write_strategy`]).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(self.triples.len() * 16 + 2);
        crate::wire::write_strategy(&mut out, self);
        out
    }

    /// Parses the JSON produced by [`Strategy::to_json`].
    ///
    /// Insertion order is preserved, duplicates are dropped, and the `O(1)`
    /// membership index is rebuilt (every triple goes through
    /// [`Strategy::insert`]), so `contains()` is correct on the result.
    ///
    /// The original hand-rolled scanner grew into the shared
    /// [`crate::json`] reader when the wire protocol arrived; this method
    /// is now a thin layer over [`crate::wire::read_strategy`] and rejects
    /// exactly the same malformed inputs as before (pinned by the tests
    /// below).
    pub fn from_json(input: &str) -> Result<Strategy, StrategyParseError> {
        crate::wire::strategy_from_bytes(input.as_bytes()).map_err(|e| StrategyParseError {
            message: e.to_string(),
        })
    }

    /// Whether the strategy satisfies only the display constraint (the validity
    /// notion of the relaxed problem R-REVMAX, §4.2 of the paper).
    pub fn satisfies_display(&self, inst: &Instance) -> bool {
        let mut display: HashMap<(UserId, TimeStep), usize> = HashMap::new();
        for &triple in &self.triples {
            let c = display.entry((triple.user, triple.t)).or_insert(0);
            *c += 1;
            if *c > inst.display_limit() as usize {
                return false;
            }
        }
        true
    }
}

impl FromIterator<Triple> for Strategy {
    fn from_iter<I: IntoIterator<Item = Triple>>(iter: I) -> Self {
        let mut s = Strategy::new();
        for t in iter {
            s.insert(t);
        }
        s
    }
}

impl<'a> IntoIterator for &'a Strategy {
    type Item = Triple;
    type IntoIter = std::iter::Copied<std::slice::Iter<'a, Triple>>;

    fn into_iter(self) -> Self::IntoIter {
        self.triples.iter().copied()
    }
}

impl PartialEq for Strategy {
    fn eq(&self, other: &Self) -> bool {
        if self.len() != other.len() {
            return false;
        }
        self.triples.iter().all(|t| other.contains(*t))
    }
}

impl Eq for Strategy {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::InstanceBuilder;

    fn instance() -> Instance {
        let mut b = InstanceBuilder::new(3, 2, 2);
        b.display_limit(1)
            .capacity(0, 1)
            .capacity(1, 3)
            .constant_price(0, 10.0)
            .constant_price(1, 5.0);
        for u in 0..3 {
            b.candidate(u, 0, &[0.5, 0.5], 4.0);
            b.candidate(u, 1, &[0.3, 0.3], 3.0);
        }
        b.build().unwrap()
    }

    #[test]
    fn insert_contains_remove() {
        let mut s = Strategy::new();
        let z = Triple::new(0, 0, 1);
        assert!(s.is_empty());
        assert!(s.insert(z));
        assert!(!s.insert(z));
        assert!(s.contains(z));
        assert_eq!(s.len(), 1);
        assert!(s.remove(z));
        assert!(!s.remove(z));
        assert!(s.is_empty());
    }

    #[test]
    fn from_iterator_dedups() {
        let s: Strategy = vec![
            Triple::new(0, 0, 1),
            Triple::new(0, 0, 1),
            Triple::new(1, 1, 2),
        ]
        .into_iter()
        .collect();
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn equality_is_set_equality() {
        let a: Strategy = vec![Triple::new(0, 0, 1), Triple::new(1, 1, 2)]
            .into_iter()
            .collect();
        let b: Strategy = vec![Triple::new(1, 1, 2), Triple::new(0, 0, 1)]
            .into_iter()
            .collect();
        let c: Strategy = vec![Triple::new(0, 0, 1)].into_iter().collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn validate_accepts_valid_strategy() {
        let inst = instance();
        let s: Strategy = vec![
            Triple::new(0, 0, 1),
            Triple::new(0, 1, 2),
            Triple::new(1, 1, 1),
        ]
        .into_iter()
        .collect();
        assert!(s.validate(&inst).is_ok());
        assert!(s.satisfies_display(&inst));
    }

    #[test]
    fn validate_detects_display_violation() {
        let inst = instance();
        let s: Strategy = vec![Triple::new(0, 0, 1), Triple::new(0, 1, 1)]
            .into_iter()
            .collect();
        assert!(matches!(
            s.validate(&inst),
            Err(ConstraintViolation::Display { .. })
        ));
        assert!(!s.satisfies_display(&inst));
    }

    #[test]
    fn validate_detects_capacity_violation() {
        let inst = instance();
        // Item 0 has capacity 1 but is shown to two distinct users.
        let s: Strategy = vec![Triple::new(0, 0, 1), Triple::new(1, 0, 1)]
            .into_iter()
            .collect();
        assert!(matches!(
            s.validate(&inst),
            Err(ConstraintViolation::Capacity { .. })
        ));
        // Repeats to the *same* user do not violate capacity.
        let s: Strategy = vec![Triple::new(0, 0, 1), Triple::new(0, 0, 2)]
            .into_iter()
            .collect();
        assert!(s.validate(&inst).is_ok());
    }

    #[test]
    fn validate_detects_out_of_range_and_non_candidate() {
        let inst = instance();
        let s: Strategy = vec![Triple::new(9, 0, 1)].into_iter().collect();
        assert!(matches!(
            s.validate(&inst),
            Err(ConstraintViolation::OutOfRange { .. })
        ));
        // user 0 / item 1 is a candidate, but an instance without that pair rejects it
        let mut b = InstanceBuilder::new(2, 2, 2);
        b.constant_price(0, 1.0).candidate(0, 0, &[0.1, 0.1], 0.0);
        let inst2 = b.build().unwrap();
        let s: Strategy = vec![Triple::new(0, 1, 1)].into_iter().collect();
        assert!(matches!(
            s.validate(&inst2),
            Err(ConstraintViolation::NotACandidate { .. })
        ));
    }

    #[test]
    fn repeat_histogram_counts_pairs() {
        let s: Strategy = vec![
            Triple::new(0, 0, 1),
            Triple::new(0, 0, 2),
            Triple::new(0, 1, 1),
        ]
        .into_iter()
        .collect();
        let h = s.repeat_histogram();
        assert_eq!(h[&(UserId(0), ItemId(0))], 2);
        assert_eq!(h[&(UserId(0), ItemId(1))], 1);
    }

    #[test]
    fn json_round_trip_rebuilds_the_membership_index() {
        // Regression: the previous derived serialisation skipped the index
        // field, so a deserialised strategy reported `contains() == false`
        // for every one of its own triples.
        let original: Strategy = vec![
            Triple::new(3, 1, 2),
            Triple::new(0, 0, 1),
            Triple::new(7, 4, 5),
        ]
        .into_iter()
        .collect();
        let json = original.to_json();
        let restored = Strategy::from_json(&json).unwrap();
        assert_eq!(restored.len(), original.len());
        // Insertion order survives.
        assert_eq!(restored.as_slice(), original.as_slice());
        // And, crucially, membership queries work on the restored copy.
        for z in original.iter() {
            assert!(restored.contains(z), "restored strategy lost {z}");
        }
        assert!(!restored.contains(Triple::new(9, 9, 9)));
        assert_eq!(restored, original);
    }

    #[test]
    fn json_round_trip_empty_and_format() {
        let empty = Strategy::new();
        assert_eq!(empty.to_json(), "[]");
        assert!(Strategy::from_json("[]").unwrap().is_empty());
        assert!(Strategy::from_json(" [ ] ").unwrap().is_empty());
        let s: Strategy = vec![Triple::new(1, 2, 3)].into_iter().collect();
        assert_eq!(s.to_json(), "[[1,2,3]]");
        // Whitespace-tolerant parsing.
        let spaced = Strategy::from_json("[ [1, 2, 3] , [4 ,5, 6] ]").unwrap();
        assert_eq!(spaced.len(), 2);
        assert!(spaced.contains(Triple::new(4, 5, 6)));
    }

    #[test]
    fn json_parser_rejects_malformed_input() {
        for bad in [
            "",
            "{}",
            "[[1,2]]",
            "[[1,2,3,4]]",
            "[[1,2,x]]",
            "[[1,2,0]]", // 0 is not a valid 1-based time step
            "[[1,2,3]",
            "[[1,2,3] [4,5,6]]",
        ] {
            assert!(
                Strategy::from_json(bad).is_err(),
                "accepted malformed {bad:?}"
            );
        }
    }

    #[test]
    fn triples_of_user_filters() {
        let s: Strategy = vec![
            Triple::new(0, 0, 1),
            Triple::new(1, 0, 1),
            Triple::new(0, 1, 2),
        ]
        .into_iter()
        .collect();
        assert_eq!(s.triples_of_user(UserId(0)).len(), 2);
        assert_eq!(s.triples_of_user(UserId(2)).len(), 0);
    }
}
