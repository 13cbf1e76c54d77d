//! The priority queue of the heap-driven greedy loops: SL/RL-Greedy and
//! the staged variants.
//!
//! [`LazyMaxHeap`] is a lazy-deletion binary max-heap keyed by (possibly
//! stale) marginal revenues: every update pushes a fresh entry and records
//! the element's current value, and popped entries whose value is no longer
//! exactly the recorded one are stale and skipped. It pops in the
//! (value desc, element id asc) total order (`precedes`) — the same order
//! the G-Greedy tournament tree and the shard arbitration select in.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A heap entry: a value attached to an element index.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Entry {
    value: f64,
    element: u32,
}

impl Eq for Entry {}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Finite values only; ties broken by element id for determinism.
        self.value
            .partial_cmp(&other.value)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.element.cmp(&self.element))
    }
}

/// A max-heap over element indices with lazily invalidated entries.
///
/// Each element has a single *current* value; [`LazyMaxHeap::update`] changes
/// it and pushes a new heap entry, and [`LazyMaxHeap::pop`] skips entries that
/// no longer match the current value (stale) or belong to removed elements.
#[derive(Debug, Clone)]
pub struct LazyMaxHeap {
    heap: BinaryHeap<Entry>,
    current: Vec<f64>,
    alive: Vec<bool>,
}

impl LazyMaxHeap {
    /// Builds a heap over `values.len()` elements with the given initial
    /// values, in `O(n)` (bottom-up heapify via `BinaryHeap::from`).
    pub fn new(values: &[f64]) -> Self {
        let entries: Vec<Entry> = values
            .iter()
            .enumerate()
            .map(|(idx, &value)| Entry {
                value,
                element: idx as u32,
            })
            .collect();
        LazyMaxHeap {
            heap: BinaryHeap::from(entries),
            current: values.to_vec(),
            alive: vec![true; values.len()],
        }
    }

    /// Changes the value of an element (pushes a fresh entry).
    pub fn update(&mut self, element: u32, value: f64) {
        self.current[element as usize] = value;
        if self.alive[element as usize] {
            self.heap.push(Entry { value, element });
        }
    }

    /// Removes an element from consideration entirely.
    pub fn remove(&mut self, element: u32) {
        self.alive[element as usize] = false;
    }

    /// Whether `entry` still carries its element's current value. `update`
    /// stores and pushes the same `f64`, so exact equality is the test: any
    /// tolerance would let a superseded value of a tiny marginal pass as
    /// current.
    #[inline]
    fn is_current(&self, entry: &Entry) -> bool {
        let idx = entry.element as usize;
        self.alive[idx] && entry.value == self.current[idx]
    }

    /// Pops the element with the maximum current value, or `None` if empty.
    ///
    /// The popped element stays alive; callers that select it should either
    /// [`LazyMaxHeap::remove`] it or [`LazyMaxHeap::update`] it afterwards.
    pub fn pop(&mut self) -> Option<(u32, f64)> {
        while let Some(entry) = self.heap.pop() {
            if self.is_current(&entry) {
                return Some((entry.element, entry.value));
            }
        }
        None
    }
}

/// Whether move `(value, candidate id)` `a` precedes `b` in the sequential
/// selection order (larger value first, ties towards the smaller id) — the
/// total order [`LazyMaxHeap`] pops in.
#[inline]
pub(crate) fn precedes(a: (f64, u32), b: (f64, u32)) -> bool {
    a.0 > b.0 || (a.0 == b.0 && a.1 < b.1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_descending_value_order() {
        let mut heap = LazyMaxHeap::new(&[1.0, 5.0, 3.0]);
        assert_eq!(heap.pop(), Some((1, 5.0)));
        heap.remove(1);
        assert_eq!(heap.pop(), Some((2, 3.0)));
        heap.remove(2);
        assert_eq!(heap.pop(), Some((0, 1.0)));
        heap.remove(0);
        assert_eq!(heap.pop(), None);
    }

    #[test]
    fn stale_entries_are_skipped_after_update() {
        // Element 0 decreases below element 1. In the second case the values
        // differ by less than f64::EPSILON in absolute terms, so only exact
        // comparison sees that element 0's first entry is stale.
        for [v0, v1, lowered] in [[10.0, 5.0, 1.0], [2e-17, 1.5e-17, 1e-17]] {
            let mut heap = LazyMaxHeap::new(&[v0, v1]);
            heap.update(0, lowered);
            assert_eq!(heap.pop(), Some((1, v1)));
            heap.remove(1);
            assert_eq!(heap.pop(), Some((0, lowered)));
        }
    }

    #[test]
    fn removed_elements_never_surface() {
        let mut heap = LazyMaxHeap::new(&[10.0, 5.0, 7.0]);
        heap.remove(0);
        assert_eq!(heap.pop(), Some((2, 7.0)));
        heap.remove(2);
        assert_eq!(heap.pop(), Some((1, 5.0)));
        heap.remove(1);
        heap.update(0, 99.0); // updating a removed element does not revive it
        assert_eq!(heap.pop(), None);
    }

    #[test]
    fn ties_are_broken_deterministically() {
        let mut heap = LazyMaxHeap::new(&[3.0, 3.0, 3.0]);
        assert_eq!(heap.pop(), Some((0, 3.0)));
    }

    #[test]
    fn repeated_updates_converge_to_latest_value() {
        let mut heap = LazyMaxHeap::new(&[1.0]);
        for v in [5.0, 4.0, 0.5, 2.5] {
            heap.update(0, v);
        }
        assert_eq!(heap.pop(), Some((0, 2.5)));
    }

    /// The O(n) model the heap must be observationally equal to: per element
    /// a value plus `alive` and `queued` flags; `pop` takes the queued live
    /// element with the largest value, ties to the smaller id.
    struct Reference {
        value: Vec<f64>,
        alive: Vec<bool>,
        queued: Vec<bool>,
    }

    impl Reference {
        fn new(values: &[f64]) -> Self {
            Reference {
                value: values.to_vec(),
                alive: vec![true; values.len()],
                queued: vec![true; values.len()],
            }
        }

        fn update(&mut self, e: u32, v: f64) {
            self.value[e as usize] = v;
            self.queued[e as usize] = self.alive[e as usize];
        }

        fn remove(&mut self, e: u32) {
            self.alive[e as usize] = false;
            self.queued[e as usize] = false;
        }

        fn pop(&mut self) -> Option<(u32, f64)> {
            let top = (0..self.value.len() as u32)
                .filter(|&e| self.queued[e as usize])
                .map(|e| (e, self.value[e as usize]))
                .fold(None, |best, (e, v)| match best {
                    Some((be, bv)) if !precedes((v, e), (bv, be)) => Some((be, bv)),
                    _ => Some((e, v)),
                })?;
            self.queued[top.0 as usize] = false;
            Some(top)
        }
    }

    /// A seeded stream of pops, updates (of queued, held, and removed
    /// elements) and removals, with values spanning 1e-18 to 1e2 so that
    /// superseded values sit within `f64::EPSILON` of current ones. Popped
    /// elements are either retired, re-queued at once, or held out of the
    /// heap for a while before either. An element
    /// never takes the same value twice, so the heap holds at most one
    /// current entry per element, which is what the reference assumes.
    #[test]
    fn op_stream_matches_the_naive_reference() {
        for seed in [
            0x243F_6A88_85A3_08D3u64,
            0x1319_8A2E_0370_7344,
            0xA409_3822_299F_31D0,
        ] {
            let n = 48u32;
            let mut x = seed;
            let mut next = move || {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            };
            let draw = |next: &mut dyn FnMut() -> u64| {
                let mag = [1e-18, 1e-17, 1e-16, 1.0, 100.0][(next() % 5) as usize];
                let v = (next() % 41) as f64 * 0.5 * mag;
                if next().is_multiple_of(8) {
                    -v
                } else {
                    v
                }
            };
            let values: Vec<f64> = (0..n).map(|_| draw(&mut next)).collect();
            let mut history: Vec<Vec<f64>> = values.iter().map(|&v| vec![v]).collect();
            let mut heap = LazyMaxHeap::new(&values);
            let mut reference = Reference::new(&values);
            let mut held: Vec<u32> = Vec::new();
            // Sets a value the element has never had (skips the op if the
            // draw repeats one).
            let mut fresh_update =
                |heap: &mut LazyMaxHeap, reference: &mut Reference, e: u32, v: f64| {
                    if history[e as usize].contains(&v) {
                        return false;
                    }
                    history[e as usize].push(v);
                    heap.update(e, v);
                    reference.update(e, v);
                    true
                };
            for step in 0..4000 {
                match next() % 7 {
                    0..=2 => {
                        let got = heap.pop();
                        assert_eq!(got, reference.pop(), "seed {seed:#x} step {step}: pop");
                        if let Some((e, _)) = got {
                            match next() % 3 {
                                0 => {
                                    heap.remove(e);
                                    reference.remove(e);
                                }
                                1 => {
                                    let v = draw(&mut next);
                                    if !fresh_update(&mut heap, &mut reference, e, v) {
                                        held.push(e);
                                    }
                                }
                                _ => held.push(e),
                            }
                        }
                    }
                    3 | 4 => {
                        // Update any element: queued (supersedes its entry),
                        // held (re-queues it), or removed (no effect).
                        let e = (next() % n as u64) as u32;
                        let v = draw(&mut next);
                        if fresh_update(&mut heap, &mut reference, e, v) {
                            held.retain(|&h| h != e);
                        }
                    }
                    5 => {
                        let e = (next() % n as u64) as u32;
                        heap.remove(e);
                        reference.remove(e);
                        held.retain(|&h| h != e);
                    }
                    _ => {
                        if let Some(e) = held.pop() {
                            heap.remove(e);
                            reference.remove(e);
                        }
                    }
                }
            }
        }
    }
}
