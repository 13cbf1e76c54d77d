//! The schedule-exploring concurrency model checker.
//!
//! `cargo xtask check-ledger` runs the **real** `SharedCapacityLedgerIn`
//! code (and the `revmax_algorithms::protocol` claim seam) with the cell
//! type swapped from `AtomicCell` to [`crate::cell::InstrCell`]. Every
//! shared-memory operation the ledger performs then blocks in a
//! [`Controller`] until the scheduler grants it, which makes thread
//! interleavings a *decision sequence* the checker can enumerate:
//!
//! * **DFS mode** exhaustively explores every schedule (and, for loads,
//!   every value the memory model allows the load to return) of a small
//!   scenario — 2–3 threads, a handful of operations each;
//! * **random mode** drives larger thread/item counts through seeded
//!   pseudo-random schedules.
//!
//! # The memory model
//!
//! Sequential consistency would hide exactly the bugs this checker exists
//! to find, so the controller keeps an acquire/release-aware model in the
//! style of C++11 (vector clocks + per-cell store histories):
//!
//! * every atomic cell carries its full **modification order** — the list
//!   of stores, each stamped with the storing thread's vector clock
//!   (`stamp`, for happens-before tests) and a **message clock** (`msg`,
//!   what an acquire-load of that store synchronises with; release stores
//!   publish their thread clock, RMWs additionally continue the release
//!   sequence of the store they displaced);
//! * a **load** may read any store in the modification order that is not
//!   *hidden* — a store is hidden if a later store already happens-before
//!   the loading thread — and not older than the thread's per-cell
//!   coherence floor (no thread ever reads backwards). Each eligible store
//!   is a separate DFS branch. `Acquire` loads join the store's message
//!   clock; `Relaxed` loads join nothing — which is precisely how a
//!   demoted-ordering mutant becomes observable;
//! * an **RMW** (`fetch_sub`/`compare_exchange`) always reads the latest
//!   store in the modification order (C++ guarantees RMW atomicity
//!   regardless of ordering);
//! * **plain accesses** (the model's stand-in for non-atomic shared state,
//!   e.g. a published held-slot) are checked for data races FastTrack-style:
//!   two conflicting accesses not ordered by happens-before flag a race.
//!
//! `SeqCst` is approximated as `AcqRel` (strictly weaker, so the checker
//! may report a spurious violation on SC-dependent protocols but never
//! misses an AcqRel-expressible one; the ledger uses nothing stronger than
//! `AcqRel`).
//!
//! # Built-in safety invariants
//!
//! Independent of scenario-level checks, the controller itself flags:
//!
//! * **capacity overrun** — a successful `compare_exchange` whose new value
//!   exceeds the cell's registered capacity (`try_claim` is the only CAS
//!   user in the ledger, so this is exactly "claims never exceed capacity");
//! * **underflow** — a `fetch_sub` displacing a zero value (a demand
//!   retired twice);
//! * **data race** — conflicting unsynchronised plain accesses.

use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar, Mutex};

/// Maximum scheduled operations in one execution (runaway-loop backstop).
const MAX_OPS_PER_EXECUTION: usize = 10_000;

// ---------------------------------------------------------------------------
// Vector clocks
// ---------------------------------------------------------------------------

/// A vector clock over the scenario's threads.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct VClock(Vec<u32>);

impl VClock {
    fn bottom(n: usize) -> Self {
        VClock(vec![0; n])
    }

    fn tick(&mut self, tid: usize) {
        self.0[tid] += 1;
    }

    fn join(&mut self, other: &VClock) {
        for (a, b) in self.0.iter_mut().zip(&other.0) {
            *a = (*a).max(*b);
        }
    }

    /// Whether `self` happens-before-or-equals `other` (component-wise ≤).
    fn leq(&self, other: &VClock) -> bool {
        self.0.iter().zip(&other.0).all(|(a, b)| a <= b)
    }
}

// ---------------------------------------------------------------------------
// Operation requests
// ---------------------------------------------------------------------------

/// One shared-memory operation, as submitted by an instrumented cell or
/// plain variable.
#[derive(Debug, Clone)]
pub enum OpKind {
    /// Atomic load with the requested ordering.
    Load(Ordering),
    /// Atomic `fetch_sub(delta)`.
    FetchSub(u32, Ordering),
    /// Atomic strong compare-exchange.
    Cas {
        /// Expected current value.
        current: u32,
        /// Replacement value stored on success.
        new: u32,
        /// Success ordering.
        success: Ordering,
        /// Failure ordering.
        failure: Ordering,
    },
    /// Non-atomic read of a plain variable (race-checked).
    PlainRead,
    /// Non-atomic write of a plain variable (race-checked).
    PlainWrite(u32),
}

/// An operation request: which location, what operation.
#[derive(Debug, Clone)]
pub struct OpReq {
    /// Atomic-cell id for atomic ops, plain-variable id for plain ops.
    pub loc: usize,
    /// The operation.
    pub kind: OpKind,
}

/// Grant word handed back to the blocked thread: low 32 bits carry the
/// loaded/previous value, bit 32 carries the CAS success flag.
pub const GRANT_CAS_SUCCESS: u64 = 1 << 32;

// ---------------------------------------------------------------------------
// Memory state
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
struct Store {
    value: u32,
    /// The storing thread's clock at the store (happens-before stamp).
    stamp: VClock,
    /// What an acquire-load of this store joins (release/message clock).
    msg: VClock,
}

#[derive(Debug, Default)]
struct CellState {
    stores: Vec<Store>,
}

#[derive(Debug, Default)]
struct PlainState {
    value: u32,
    write_stamp: Option<(usize, VClock)>,
    /// Per-thread clock of the thread's last read (None = never read).
    read_stamps: Vec<Option<VClock>>,
}

#[derive(Debug, Default)]
struct Memory {
    nthreads: usize,
    cells: Vec<CellState>,
    plains: Vec<PlainState>,
    /// Per-thread vector clocks.
    clocks: Vec<VClock>,
    /// Per-thread, per-cell coherence floor (min readable store index).
    floors: Vec<Vec<usize>>,
}

impl Memory {
    fn reset(&mut self, nthreads: usize) {
        self.nthreads = nthreads;
        self.cells.clear();
        self.plains.clear();
        self.clocks = (0..nthreads).map(|_| VClock::bottom(nthreads)).collect();
        self.floors = vec![Vec::new(); nthreads];
    }

    fn register_cell(&mut self, initial: u32) -> usize {
        let id = self.cells.len();
        self.cells.push(CellState {
            stores: vec![Store {
                value: initial,
                stamp: VClock::bottom(self.nthreads),
                msg: VClock::bottom(self.nthreads),
            }],
        });
        for f in &mut self.floors {
            f.resize(self.cells.len(), 0);
        }
        id
    }

    fn register_plain(&mut self, initial: u32) -> usize {
        let id = self.plains.len();
        self.plains.push(PlainState {
            value: initial,
            write_stamp: None,
            read_stamps: vec![None; self.nthreads],
        });
        id
    }

    /// Store indices a load by `tid` on `cell` may legally return: everything
    /// from the newest happens-before store (older stores are hidden) up to
    /// the end of the modification order, clipped to the coherence floor.
    fn eligible(&self, tid: usize, cell: usize) -> Vec<usize> {
        let stores = &self.cells[cell].stores;
        let clock = &self.clocks[tid];
        let mut min = self.floors[tid][cell];
        for (i, s) in stores.iter().enumerate() {
            if i > min && s.stamp.leq(clock) {
                min = i;
            }
        }
        (min..stores.len()).collect()
    }
}

fn acquires(order: Ordering) -> bool {
    matches!(
        order,
        Ordering::Acquire | Ordering::AcqRel | Ordering::SeqCst
    )
}

fn releases(order: Ordering) -> bool {
    matches!(
        order,
        Ordering::Release | Ordering::AcqRel | Ordering::SeqCst
    )
}

// ---------------------------------------------------------------------------
// Controller
// ---------------------------------------------------------------------------

/// How the scheduler chooses among the enabled options at a decision point.
#[derive(Debug)]
enum Decider {
    /// DFS replay: follow `cursors`; record the option count per depth in
    /// `counts` (new depths append a cursor of 0).
    Dfs {
        cursors: Vec<usize>,
        counts: Vec<usize>,
        depth: usize,
    },
    /// Seeded pseudo-random walk (splitmix64).
    Random { state: u64 },
}

impl Decider {
    fn decide(&mut self, options: usize) -> usize {
        match self {
            Decider::Dfs {
                cursors,
                counts,
                depth,
            } => {
                if *depth == cursors.len() {
                    cursors.push(0);
                }
                if *depth == counts.len() {
                    counts.push(options);
                } else {
                    counts[*depth] = options;
                }
                let pick = cursors[*depth];
                *depth += 1;
                debug_assert!(pick < options, "DFS cursor out of range");
                pick.min(options - 1)
            }
            Decider::Random { state } => {
                // splitmix64 step
                *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = *state;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^= z >> 31;
                (z % options as u64) as usize
            }
        }
    }
}

#[derive(Debug)]
struct Inner {
    nthreads: usize,
    pending: Vec<Option<OpReq>>,
    grant: Vec<Option<u64>>,
    finished: Vec<bool>,
    mem: Memory,
    /// Per atomic cell: registered capacity (claims past it are violations).
    caps: Vec<Option<u32>>,
    /// Demote every requested ordering to `Relaxed` (the seeded mutant).
    demote: bool,
    decider: Decider,
    violations: Vec<String>,
    trace: Vec<String>,
    ops_executed: usize,
}

impl Inner {
    fn all_settled(&self) -> bool {
        (0..self.nthreads).all(|t| self.finished[t] || self.pending[t].is_some())
    }

    fn order(&self, requested: Ordering) -> Ordering {
        if self.demote {
            Ordering::Relaxed
        } else {
            requested
        }
    }

    /// Applies one granted operation to the memory model; returns the grant
    /// word. `choice` selects among the eligible stores for loads.
    fn apply(&mut self, tid: usize, req: &OpReq, choice: usize) -> u64 {
        self.ops_executed += 1;
        if self.ops_executed > MAX_OPS_PER_EXECUTION {
            self.violations
                .push("execution exceeded the per-run operation budget".into());
        }
        self.mem.clocks[tid].tick(tid);
        match req.kind {
            OpKind::Load(order) => {
                let order = self.order(order);
                let eligible = self.mem.eligible(tid, req.loc);
                let idx = eligible[choice.min(eligible.len() - 1)];
                let store = self.mem.cells[req.loc].stores[idx].clone();
                if acquires(order) {
                    self.mem.clocks[tid].join(&store.msg);
                }
                self.mem.floors[tid][req.loc] = self.mem.floors[tid][req.loc].max(idx);
                self.trace.push(format!(
                    "t{tid} load c{} [{order:?}] -> {} (store #{idx})",
                    req.loc, store.value
                ));
                store.value as u64
            }
            OpKind::FetchSub(delta, order) => {
                let order = self.order(order);
                let prev = self.rmw_read(tid, req.loc, order);
                if prev == 0 {
                    self.violations.push(format!(
                        "underflow: t{tid} fetch_sub on c{} read 0",
                        req.loc
                    ));
                }
                let new = prev.wrapping_sub(delta);
                self.rmw_write(tid, req.loc, new, order);
                self.trace.push(format!(
                    "t{tid} fetch_sub c{} [{order:?}] {prev} -> {new}",
                    req.loc
                ));
                prev as u64
            }
            OpKind::Cas {
                current,
                new,
                success,
                failure,
            } => {
                let success = self.order(success);
                let failure = self.order(failure);
                let last = self.mem.cells[req.loc]
                    .stores
                    .last()
                    .expect("cell has an initial store")
                    .value;
                if last == current {
                    let prev = self.rmw_read(tid, req.loc, success);
                    debug_assert_eq!(prev, current);
                    if let Some(cap) = self.caps[req.loc] {
                        if new > cap {
                            self.violations.push(format!(
                                "capacity overrun: t{tid} CAS on c{} stored {new} > cap {cap}",
                                req.loc
                            ));
                        }
                    }
                    self.rmw_write(tid, req.loc, new, success);
                    self.trace.push(format!(
                        "t{tid} cas c{} [{success:?}] {current} -> {new} (ok)",
                        req.loc
                    ));
                    current as u64 | GRANT_CAS_SUCCESS
                } else {
                    // Failed CAS is a load of the latest store.
                    if acquires(failure) {
                        let msg = self.mem.cells[req.loc]
                            .stores
                            .last()
                            .expect("cell has an initial store")
                            .msg
                            .clone();
                        self.mem.clocks[tid].join(&msg);
                    }
                    let idx = self.mem.cells[req.loc].stores.len() - 1;
                    self.mem.floors[tid][req.loc] = self.mem.floors[tid][req.loc].max(idx);
                    self.trace.push(format!(
                        "t{tid} cas c{} [{failure:?}] expected {current}, found {last} (fail)",
                        req.loc
                    ));
                    last as u64
                }
            }
            OpKind::PlainRead => {
                let clock = self.mem.clocks[tid].clone();
                let plain = &mut self.mem.plains[req.loc];
                if let Some((wt, ws)) = &plain.write_stamp {
                    if !ws.leq(&clock) {
                        self.violations.push(format!(
                            "data race: t{tid} read of v{} unordered with t{wt}'s write",
                            req.loc
                        ));
                    }
                }
                plain.read_stamps[tid] = Some(clock);
                self.trace
                    .push(format!("t{tid} plain-read v{} -> {}", req.loc, plain.value));
                plain.value as u64
            }
            OpKind::PlainWrite(value) => {
                let clock = self.mem.clocks[tid].clone();
                let plain = &mut self.mem.plains[req.loc];
                if let Some((wt, ws)) = &plain.write_stamp {
                    if *wt != tid && !ws.leq(&clock) {
                        self.violations.push(format!(
                            "data race: t{tid} write of v{} unordered with t{wt}'s write",
                            req.loc
                        ));
                    }
                }
                for (rt, rs) in plain.read_stamps.iter().enumerate() {
                    if rt == tid {
                        continue;
                    }
                    if let Some(rs) = rs {
                        if !rs.leq(&clock) {
                            self.violations.push(format!(
                                "data race: t{tid} write of v{} unordered with t{rt}'s read",
                                req.loc
                            ));
                        }
                    }
                }
                plain.value = value;
                plain.write_stamp = Some((tid, clock));
                self.trace
                    .push(format!("t{tid} plain-write v{} = {value}", req.loc));
                value as u64
            }
        }
    }

    /// RMW read side: always the latest store; acquire side joins its
    /// message clock (RMWs see the latest value regardless of ordering).
    fn rmw_read(&mut self, tid: usize, cell: usize, order: Ordering) -> u32 {
        let store = self.mem.cells[cell]
            .stores
            .last()
            .expect("cell has an initial store")
            .clone();
        if acquires(order) {
            self.mem.clocks[tid].join(&store.msg);
        }
        store.value
    }

    /// RMW write side: appends to the modification order, continuing the
    /// displaced store's release sequence.
    fn rmw_write(&mut self, tid: usize, cell: usize, value: u32, order: Ordering) {
        let prev_msg = self.mem.cells[cell]
            .stores
            .last()
            .expect("cell has an initial store")
            .msg
            .clone();
        let stamp = self.mem.clocks[tid].clone();
        let mut msg = prev_msg;
        if releases(order) {
            msg.join(&stamp);
        }
        let stores = &mut self.mem.cells[cell].stores;
        stores.push(Store { value, stamp, msg });
        let idx = stores.len() - 1;
        self.mem.floors[tid][cell] = self.mem.floors[tid][cell].max(idx);
    }
}

/// The schedule controller: serialises every instrumented operation and
/// drives the memory model. One controller is reused across executions
/// (`reset` between runs).
pub struct Controller {
    inner: Mutex<Inner>,
    cond: Condvar,
}

impl Controller {
    /// A fresh controller (call [`Controller::reset_dfs`] or
    /// [`Controller::reset_random`] before each execution).
    pub fn new() -> Arc<Controller> {
        Arc::new(Controller {
            inner: Mutex::new(Inner {
                nthreads: 0,
                pending: Vec::new(),
                grant: Vec::new(),
                finished: Vec::new(),
                mem: Memory::default(),
                caps: Vec::new(),
                demote: false,
                decider: Decider::Random { state: 0 },
                violations: Vec::new(),
                trace: Vec::new(),
                ops_executed: 0,
            }),
            cond: Condvar::new(),
        })
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Prepares the controller for one execution of `nthreads` scheduled
    /// threads, replaying `cursors` as the DFS decision prefix.
    pub fn reset_dfs(&self, nthreads: usize, cursors: Vec<usize>, demote: bool) {
        let mut g = self.lock();
        g.decider = Decider::Dfs {
            cursors,
            counts: Vec::new(),
            depth: 0,
        };
        Self::reset_common(&mut g, nthreads, demote);
    }

    /// Prepares the controller for one seeded random-schedule execution.
    pub fn reset_random(&self, nthreads: usize, seed: u64, demote: bool) {
        let mut g = self.lock();
        g.decider = Decider::Random {
            state: seed ^ 0xD6E8_FEB8_6659_FD93,
        };
        Self::reset_common(&mut g, nthreads, demote);
    }

    fn reset_common(g: &mut Inner, nthreads: usize, demote: bool) {
        g.nthreads = nthreads;
        g.pending = (0..nthreads).map(|_| None).collect();
        g.grant = (0..nthreads).map(|_| None).collect();
        g.finished = vec![false; nthreads];
        g.mem.reset(nthreads);
        g.caps.clear();
        g.demote = demote;
        g.violations.clear();
        g.trace.clear();
        g.ops_executed = 0;
    }

    /// Registers a fresh atomic cell; returns its id.
    pub fn register_cell(&self, initial: u32) -> usize {
        let mut g = self.lock();
        let id = g.mem.register_cell(initial);
        g.caps.push(None);
        id
    }

    /// Registers a fresh plain (race-checked) variable; returns its id.
    pub fn register_plain(&self, initial: u32) -> usize {
        self.lock().mem.register_plain(initial)
    }

    /// Declares the capacity of an atomic cell: any successful CAS storing a
    /// value above it is flagged (claims never exceed capacity).
    pub fn set_cap(&self, cell: usize, cap: u32) {
        self.lock().caps[cell] = Some(cap);
    }

    /// Submits an operation for thread `tid` and blocks until granted.
    pub fn perform(&self, tid: usize, req: OpReq) -> u64 {
        let mut g = self.lock();
        debug_assert!(g.pending[tid].is_none(), "thread submitted twice");
        g.pending[tid] = Some(req);
        self.cond.notify_all();
        loop {
            if let Some(result) = g.grant[tid].take() {
                return result;
            }
            g = self.cond.wait(g).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Performs an operation directly, outside the schedule — only sound on
    /// the coordinating thread *before* workers start or *after* they have
    /// all finished (every op reads the latest store). This is exactly the
    /// standing of the concurrent executor's coordinator: its admissions
    /// and rejections run at the arbitration barrier with every shard
    /// parked or done.
    pub fn perform_direct(&self, req: OpReq) -> u64 {
        let mut g = self.lock();
        match req.kind {
            OpKind::Load(_) => {
                g.mem.cells[req.loc]
                    .stores
                    .last()
                    .expect("cell has an initial store")
                    .value as u64
            }
            OpKind::PlainRead => g.mem.plains[req.loc].value as u64,
            OpKind::PlainWrite(v) => {
                g.mem.plains[req.loc].value = v;
                v as u64
            }
            OpKind::FetchSub(delta, _) => {
                let prev = g.mem.cells[req.loc]
                    .stores
                    .last()
                    .expect("cell has an initial store")
                    .value;
                if prev == 0 {
                    g.violations.push(format!(
                        "underflow: ambient fetch_sub on c{} read 0",
                        req.loc
                    ));
                }
                let value = prev.wrapping_sub(delta);
                let stamp = VClock::bottom(g.nthreads.max(1));
                let msg = stamp.clone();
                g.mem.cells[req.loc]
                    .stores
                    .push(Store { value, stamp, msg });
                prev as u64
            }
            // Ambient RMWs model the coordinator resolving parked proposals
            // at the arbitration barrier: every scheduled thread is
            // quiescent, so reading the latest store is the real semantics.
            OpKind::Cas { current, new, .. } => {
                let last = g.mem.cells[req.loc]
                    .stores
                    .last()
                    .expect("cell has an initial store")
                    .value;
                if last == current {
                    if let Some(cap) = g.caps[req.loc] {
                        if new > cap {
                            g.violations.push(format!(
                                "capacity overrun: ambient CAS on c{} stored {new} > cap {cap}",
                                req.loc
                            ));
                        }
                    }
                    let stamp = VClock::bottom(g.nthreads.max(1));
                    let msg = stamp.clone();
                    g.mem.cells[req.loc].stores.push(Store {
                        value: new,
                        stamp,
                        msg,
                    });
                    current as u64 | GRANT_CAS_SUCCESS
                } else {
                    last as u64
                }
            }
        }
    }

    /// Marks a scheduled thread as finished.
    pub fn finish(&self, tid: usize) {
        let mut g = self.lock();
        g.finished[tid] = true;
        self.cond.notify_all();
    }

    /// Runs the scheduler until every scheduled thread has finished. Call on
    /// the coordinating thread after spawning the workers.
    pub fn schedule_loop(&self) {
        let mut g = self.lock();
        loop {
            while !g.all_settled() {
                g = self.cond.wait(g).unwrap_or_else(|e| e.into_inner());
            }
            let runnable: Vec<usize> = (0..g.nthreads)
                .filter(|&t| g.pending[t].is_some())
                .collect();
            if runnable.is_empty() {
                return;
            }
            // Enumerate the enabled options: one per runnable thread, times
            // one per eligible store for loads (value nondeterminism).
            let mut options: Vec<(usize, usize)> = Vec::new();
            for &t in &runnable {
                let req = g.pending[t].as_ref().expect("runnable implies pending");
                let nchoices = match req.kind {
                    OpKind::Load(_) => g.mem.eligible(t, req.loc).len(),
                    _ => 1,
                };
                for c in 0..nchoices {
                    options.push((t, c));
                }
            }
            let pick = g.decider.decide(options.len());
            let (t, choice) = options[pick];
            let req = g.pending[t].take().expect("picked thread is pending");
            let result = g.apply(t, &req, choice);
            g.grant[t] = Some(result);
            self.cond.notify_all();
        }
    }

    /// Records a scenario-level violation (final-invariant failures).
    pub fn flag(&self, message: String) {
        self.lock().violations.push(message);
    }

    /// The violations recorded during the current execution.
    pub fn violations(&self) -> Vec<String> {
        self.lock().violations.clone()
    }

    /// The operation trace of the current execution (for failure reports).
    pub fn trace(&self) -> Vec<String> {
        self.lock().trace.clone()
    }

    /// DFS bookkeeping after an execution: the decision cursors and the
    /// option count discovered at each depth.
    pub fn dfs_state(&self) -> (Vec<usize>, Vec<usize>) {
        let g = self.lock();
        match &g.decider {
            Decider::Dfs {
                cursors, counts, ..
            } => (cursors.clone(), counts.clone()),
            Decider::Random { .. } => (Vec::new(), Vec::new()),
        }
    }
}

// ---------------------------------------------------------------------------
// Exploration drivers
// ---------------------------------------------------------------------------

/// Outcome of exploring one scenario.
#[derive(Debug)]
pub struct Exploration {
    /// Executions performed.
    pub executions: usize,
    /// First violating execution, if any: (violations, schedule trace).
    pub violation: Option<(Vec<String>, Vec<String>)>,
    /// Whether the exploration covered the full schedule space (DFS ran to
    /// exhaustion) rather than stopping at a budget or first violation.
    pub exhaustive: bool,
}

/// One execution of a scenario body under a prepared controller. The body
/// builds its ledger/variables (with the controller ambient), spawns its
/// workers, runs the scheduler, and applies its final invariant checks.
pub type ScenarioBody = dyn Fn(&Arc<Controller>) + Sync;

/// Exhaustive DFS over every schedule (and load-value choice) of `body`.
/// Stops at the first violation, or after `max_executions` (in which case
/// `exhaustive` is false and the caller decides whether that is acceptable).
pub fn explore_dfs(
    nthreads: usize,
    demote: bool,
    max_executions: usize,
    body: &ScenarioBody,
) -> Exploration {
    let ctrl = Controller::new();
    let mut stack: Vec<usize> = Vec::new();
    let mut executions = 0usize;
    loop {
        ctrl.reset_dfs(nthreads, stack.clone(), demote);
        body(&ctrl);
        executions += 1;
        let violations = ctrl.violations();
        if !violations.is_empty() {
            return Exploration {
                executions,
                violation: Some((violations, ctrl.trace())),
                exhaustive: false,
            };
        }
        if executions >= max_executions {
            return Exploration {
                executions,
                violation: None,
                exhaustive: false,
            };
        }
        // Advance the DFS stack to the next unexplored decision sequence.
        let (cursors, counts) = ctrl.dfs_state();
        stack = cursors;
        loop {
            match stack.len() {
                0 => {
                    return Exploration {
                        executions,
                        violation: None,
                        exhaustive: true,
                    }
                }
                depth => {
                    let last = depth - 1;
                    stack[last] += 1;
                    if stack[last] < counts[last] {
                        break;
                    }
                    stack.pop();
                }
            }
        }
    }
}

/// Seeded random-schedule fuzzing: `iterations` executions with schedules
/// (and load-value choices) drawn from `seed`.
pub fn explore_random(
    nthreads: usize,
    demote: bool,
    seed: u64,
    iterations: usize,
    body: &ScenarioBody,
) -> Exploration {
    let ctrl = Controller::new();
    for i in 0..iterations {
        ctrl.reset_random(nthreads, seed.wrapping_add(i as u64), demote);
        body(&ctrl);
        let violations = ctrl.violations();
        if !violations.is_empty() {
            return Exploration {
                executions: i + 1,
                violation: Some((violations, ctrl.trace())),
                exhaustive: false,
            };
        }
    }
    Exploration {
        executions: iterations,
        violation: None,
        exhaustive: false,
    }
}
