//! The instrumented [`LedgerCell`] and the worker-thread harness.
//!
//! [`InstrCell`] implements `revmax_core::LedgerCell` by routing every
//! operation — with its requested `Ordering` — through the ambient
//! [`Controller`]: on a registered worker thread the operation blocks until
//! the scheduler grants it (one schedule decision per shared-memory
//! transition); on the coordinating thread (ledger construction, final
//! invariant reads) it applies directly.
//!
//! Because `SharedCapacityLedgerIn<InstrCell>` is the *production ledger
//! type* at a different cell parameter, every scenario in
//! [`crate::scenarios`] executes the identical claim/retire code the
//! concurrent shard executor runs — `cargo xtask check-ledger` model-checks
//! the real protocol, not a transcription of it.

use crate::model::{Controller, OpKind, OpReq, GRANT_CAS_SUCCESS};
use revmax_core::LedgerCell;
use std::cell::RefCell;
use std::sync::atomic::Ordering;
use std::sync::Arc;

thread_local! {
    /// The ambient controller and (for workers) the scheduled thread id.
    static AMBIENT: RefCell<Option<(Arc<Controller>, Option<usize>)>> =
        const { RefCell::new(None) };
}

/// Sets the ambient controller for the current thread while `f` runs.
/// `tid` is `Some` on scheduled worker threads, `None` on the coordinator.
pub fn with_ambient<R>(ctrl: &Arc<Controller>, tid: Option<usize>, f: impl FnOnce() -> R) -> R {
    struct Guard;
    impl Drop for Guard {
        fn drop(&mut self) {
            AMBIENT.with(|a| *a.borrow_mut() = None);
        }
    }
    AMBIENT.with(|a| *a.borrow_mut() = Some((Arc::clone(ctrl), tid)));
    let _guard = Guard;
    f()
}

fn submit(req: OpReq) -> u64 {
    let (ctrl, tid) = AMBIENT.with(|a| {
        a.borrow()
            .as_ref()
            .map(|(c, t)| (Arc::clone(c), *t))
            .expect("instrumented op outside a model-checker scenario")
    });
    match tid {
        Some(tid) => ctrl.perform(tid, req),
        None => ctrl.perform_direct(req),
    }
}

/// The instrumented ledger cell: every op is a scheduler transition.
#[derive(Debug)]
pub struct InstrCell {
    id: usize,
}

impl LedgerCell for InstrCell {
    fn new(value: u32) -> Self {
        let id = AMBIENT.with(|a| {
            a.borrow()
                .as_ref()
                .map(|(c, _)| c.register_cell(value))
                .expect("InstrCell created outside a model-checker scenario")
        });
        InstrCell { id }
    }

    fn load(&self, order: Ordering) -> u32 {
        submit(OpReq {
            loc: self.id,
            kind: OpKind::Load(order),
        }) as u32
    }

    fn fetch_sub(&self, delta: u32, order: Ordering) -> u32 {
        submit(OpReq {
            loc: self.id,
            kind: OpKind::FetchSub(delta, order),
        }) as u32
    }

    fn compare_exchange(
        &self,
        current: u32,
        new: u32,
        success: Ordering,
        failure: Ordering,
    ) -> Result<u32, u32> {
        let grant = submit(OpReq {
            loc: self.id,
            kind: OpKind::Cas {
                current,
                new,
                success,
                failure,
            },
        });
        let value = grant as u32;
        if grant & GRANT_CAS_SUCCESS != 0 {
            Ok(value)
        } else {
            Err(value)
        }
    }
}

/// A race-checked plain (non-atomic) variable: the model's stand-in for
/// unsynchronised shared state such as a published held-slot.
#[derive(Debug)]
pub struct PlainVar {
    id: usize,
}

impl PlainVar {
    /// Registers a plain variable with the ambient controller.
    pub fn new(initial: u32) -> Self {
        let id = AMBIENT.with(|a| {
            a.borrow()
                .as_ref()
                .map(|(c, _)| c.register_plain(initial))
                .expect("PlainVar created outside a model-checker scenario")
        });
        PlainVar { id }
    }

    /// Non-atomic read (flagged if it races a concurrent write).
    pub fn read(&self) -> u32 {
        submit(OpReq {
            loc: self.id,
            kind: OpKind::PlainRead,
        }) as u32
    }

    /// Non-atomic write (flagged if it races any concurrent access).
    pub fn write(&self, value: u32) {
        submit(OpReq {
            loc: self.id,
            kind: OpKind::PlainWrite(value),
        });
    }
}

/// Runs `bodies` as scheduled worker threads under `ctrl` and drives the
/// scheduler to completion; returns each body's result (`u64::MAX` for a
/// body that panicked — the panic is also flagged as a violation).
pub fn run_threads<'scope>(
    ctrl: &Arc<Controller>,
    bodies: Vec<Box<dyn FnOnce() -> u64 + Send + 'scope>>,
) -> Vec<u64> {
    std::thread::scope(|s| {
        let handles: Vec<_> = bodies
            .into_iter()
            .enumerate()
            .map(|(tid, body)| {
                let ctrl = Arc::clone(ctrl);
                s.spawn(move || {
                    // Settle the scheduler even if the body panics.
                    struct Finisher(Arc<Controller>, usize);
                    impl Drop for Finisher {
                        fn drop(&mut self) {
                            self.0.finish(self.1);
                        }
                    }
                    let finisher = Finisher(Arc::clone(&ctrl), tid);
                    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        with_ambient(&ctrl, Some(tid), body)
                    }));
                    drop(finisher);
                    match result {
                        Ok(r) => r,
                        Err(e) => {
                            let msg = e
                                .downcast_ref::<&str>()
                                .copied()
                                .or_else(|| e.downcast_ref::<String>().map(String::as_str))
                                .unwrap_or("non-string panic payload");
                            ctrl.flag(format!("worker t{tid} panicked: {msg}"));
                            u64::MAX
                        }
                    }
                })
            })
            .collect();
        ctrl.schedule_loop();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or(u64::MAX))
            .collect()
    })
}
