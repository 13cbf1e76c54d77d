//! Minimal scoped-thread parallelism helpers.
//!
//! The build environment ships no external crates, so instead of rayon the
//! greedy algorithms use `std::thread::scope` over explicit slice partitions.
//! Two properties matter here:
//!
//! * **determinism** — every element of the output slice is a pure function of
//!   its index, so the parallel and sequential fills produce bit-identical
//!   results (asserted by the equivalence tests in
//!   `crates/algorithms/tests/algorithm_properties.rs`);
//! * **per-user decomposition** — [`balanced_cuts`] cuts the candidate axis
//!   at user boundaries (the CSR layout keeps each user's candidates
//!   contiguous), the slate-construction decomposition of Keerthi & Tomlin
//!   (2007); the sharded planner draws its user shards from it.

use std::num::NonZeroUsize;

/// Number of worker threads to use for a problem of `len` independent items.
pub fn worker_count(len: usize) -> usize {
    if len < 2 {
        return 1;
    }
    std::thread::available_parallelism()
        .map_or(1, NonZeroUsize::get)
        .min(len)
}

/// Cuts `0..total` into at most `pieces` ranges whose boundaries are drawn
/// from `boundaries` (a non-decreasing prefix array starting at 0 and ending
/// at `total`, e.g. the CSR `user_cand_start` offsets). Returns the cut
/// points, including `0` and `total`.
pub fn balanced_cuts(boundaries: &[u32], pieces: usize) -> Vec<usize> {
    let total = *boundaries.last().unwrap_or(&0) as usize;
    let mut cuts = vec![0usize];
    if total == 0 || pieces <= 1 {
        cuts.push(total);
        return cuts;
    }
    let mut next_target = total.div_ceil(pieces);
    for &b in boundaries {
        let b = b as usize;
        if b >= next_target && b > *cuts.last().expect("non-empty") && b < total {
            cuts.push(b);
            next_target = b + total.div_ceil(pieces);
        }
    }
    cuts.push(total);
    cuts
}

/// Runs `worker(tid)` on `threads` persistent scoped worker threads while
/// `driver()` runs on the calling thread, returning the worker results (in
/// `tid` order) alongside the driver's. Each worker stays alive for a whole
/// planning run, so the concurrent shard executor can park and resume
/// shards on the same OS thread, with the coordinator (the driver)
/// arbitrating from the calling thread. A worker's panic is re-raised on
/// the calling thread once `driver` returns.
pub fn scoped_pool<R, D, W, F>(threads: usize, worker: W, driver: F) -> (Vec<R>, D)
where
    R: Send,
    W: Fn(usize) -> R + Sync,
    F: FnOnce() -> D,
{
    std::thread::scope(|scope| {
        let worker = &worker;
        let handles: Vec<_> = (0..threads)
            .map(|tid| scope.spawn(move || worker(tid)))
            .collect();
        let d = driver();
        let results = handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
            })
            .collect();
        (results, d)
    })
}

/// Fills `out` with `out[i] = f(i)`, cut into `worker_count` even pieces
/// that fill on scoped threads; one piece fills sequentially.
pub fn parallel_fill<T, F>(out: &mut [T], f: F)
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = worker_count(out.len());
    if workers <= 1 {
        for (i, slot) in out.iter_mut().enumerate() {
            *slot = f(i);
        }
        return;
    }
    let chunk = out.len().div_ceil(workers);
    let f = &f;
    std::thread::scope(|scope| {
        for (p, piece) in out.chunks_mut(chunk).enumerate() {
            scope.spawn(move || {
                for (i, slot) in piece.iter_mut().enumerate() {
                    *slot = f(p * chunk + i);
                }
            });
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_fill_matches_sequential() {
        let mut par = vec![0u64; 10_001];
        parallel_fill(&mut par, |i| (i as u64).wrapping_mul(2654435761));
        let seq: Vec<u64> = (0..10_001)
            .map(|i| (i as u64).wrapping_mul(2654435761))
            .collect();
        assert_eq!(par, seq);
    }

    #[test]
    fn balanced_cuts_respect_boundaries() {
        // CSR-style offsets: 4 users with 3, 1, 4, 2 candidates.
        let offsets = [0u32, 3, 4, 8, 10];
        let cuts = balanced_cuts(&offsets, 3);
        assert_eq!(*cuts.first().unwrap(), 0);
        assert_eq!(*cuts.last().unwrap(), 10);
        for w in cuts.windows(2) {
            assert!(w[0] < w[1]);
        }
        for c in &cuts {
            assert!(offsets.contains(&(*c as u32)));
        }
    }

    #[test]
    fn balanced_cuts_degenerate_cases() {
        assert_eq!(balanced_cuts(&[0], 4), vec![0, 0]);
        assert_eq!(balanced_cuts(&[0, 5], 1), vec![0, 5]);
        // One giant user cannot be split.
        assert_eq!(balanced_cuts(&[0, 100], 4), vec![0, 100]);
    }

    #[test]
    fn scoped_pool_runs_driver_alongside_workers() {
        use std::sync::mpsc;
        // Workers send their ids; the driver collects all of them while the
        // workers are still alive, proving driver/worker overlap.
        let (tx, rx) = mpsc::channel::<usize>();
        let tx = std::sync::Mutex::new(tx);
        let (ids, seen) = scoped_pool(
            4,
            |tid| {
                tx.lock().unwrap().send(tid).unwrap();
                tid * 10
            },
            move || {
                let mut got: Vec<usize> = (0..4).map(|_| rx.recv().unwrap()).collect();
                got.sort_unstable();
                got
            },
        );
        assert_eq!(ids, vec![0, 10, 20, 30]);
        assert_eq!(seen, vec![0, 1, 2, 3]);
    }
}
