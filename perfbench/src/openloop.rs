//! Open-loop request generation: every request has a due time fixed before
//! the run starts, and its latency is measured from that due time, so a
//! stall shows in every request queued behind it instead of slowing the
//! generator down (no coordinated omission).

use std::time::{Duration, Instant};

/// Time since the start of a schedule.
pub trait Clock {
    fn now(&self) -> Duration;
    fn sleep_until(&self, t: Duration);
}

/// The real clock.
pub struct WallClock {
    origin: Instant,
}

impl WallClock {
    pub fn starting_now() -> Self {
        WallClock {
            origin: Instant::now(),
        }
    }

    pub fn origin(&self) -> Instant {
        self.origin
    }
}

impl Clock for WallClock {
    fn now(&self) -> Duration {
        self.origin.elapsed()
    }

    fn sleep_until(&self, t: Duration) {
        if let Some(wait) = t.checked_sub(self.now()) {
            std::thread::sleep(wait);
        }
    }
}

/// One request of a connection's schedule.
#[derive(Debug, Clone)]
pub struct Planned<R> {
    pub due: Duration,
    pub req: R,
}

/// What happened to one planned request that was sent.
#[derive(Debug, Clone)]
pub struct Sent<T> {
    pub due: Duration,
    pub sent: Duration,
    pub done: Duration,
    /// How late the generator itself was: the send time minus the later of
    /// the due time and the moment the connection became free.
    pub lateness: Duration,
    pub reply: T,
}

impl<T> Sent<T> {
    /// Latency from the due time, which includes any wait behind earlier
    /// requests on the same connection.
    pub fn latency(&self) -> Duration {
        self.done - self.due
    }
}

/// Sends one connection's schedule in order, each request no earlier than
/// its due time. Requests still unsent when the clock passes `give_up` are
/// returned as `None`: they did not finish.
pub fn run_connection<C: Clock, R, T>(
    clock: &C,
    schedule: &[Planned<R>],
    give_up: Duration,
    mut send: impl FnMut(&R) -> T,
) -> Vec<Option<Sent<T>>> {
    let mut out = Vec::with_capacity(schedule.len());
    let mut free_at = Duration::ZERO;
    for p in schedule {
        clock.sleep_until(p.due);
        let sent = clock.now();
        if sent > give_up {
            out.push(None);
            continue;
        }
        let reply = send(&p.req);
        let done = clock.now();
        out.push(Some(Sent {
            due: p.due,
            sent,
            done,
            lateness: sent.saturating_sub(p.due.max(free_at)),
            reply,
        }));
        free_at = done;
    }
    out
}

/// Requests due at or before `at` that had not completed by then (unsent
/// requests never complete).
pub fn backlog_at<T>(outcomes: &[Option<Sent<T>>], dues: &[Duration], at: Duration) -> usize {
    outcomes
        .iter()
        .zip(dues)
        .filter(|(o, &due)| due <= at && o.as_ref().is_none_or(|s| s.done > at))
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    /// A clock that only moves when the fake server works or the generator
    /// sleeps.
    struct FakeClock(Cell<Duration>);

    impl Clock for FakeClock {
        fn now(&self) -> Duration {
            self.0.get()
        }
        fn sleep_until(&self, t: Duration) {
            if t > self.0.get() {
                self.0.set(t);
            }
        }
    }

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    #[test]
    fn requests_queued_behind_a_stall_carry_the_stall_in_their_latency() {
        let clock = FakeClock(Cell::new(Duration::ZERO));
        // Ten requests due every 10 ms; the server answers in 2 ms except
        // request 2, which stalls for 100 ms.
        let schedule: Vec<Planned<usize>> = (0..10)
            .map(|i| Planned {
                due: ms(10 * i as u64),
                req: i,
            })
            .collect();
        let outcomes = run_connection(&clock, &schedule, ms(10_000), |&i| {
            let work = if i == 2 { ms(100) } else { ms(2) };
            clock.0.set(clock.0.get() + work);
            i
        });
        let sent: Vec<&Sent<usize>> = outcomes.iter().map(|o| o.as_ref().unwrap()).collect();
        assert_eq!(sent[1].latency(), ms(2));
        assert_eq!(sent[2].latency(), ms(100));
        // Request 3 was due at 30 ms but could only go out at 120 ms, when
        // the stall ended: a closed-loop timer would report 2 ms.
        assert_eq!(sent[3].sent, ms(120));
        assert_eq!(sent[3].done - sent[3].sent, ms(2));
        assert_eq!(sent[3].latency(), ms(92));
        let stall_end = ms(120);
        for s in &sent[3..] {
            assert!(s.latency() >= stall_end - s.due);
        }
        // The generator itself was never late: it sent as soon as the
        // connection was free.
        assert!(sent.iter().all(|s| s.lateness == Duration::ZERO));
        // At 100 ms, requests 2..=9 were due and unfinished.
        let dues: Vec<Duration> = schedule.iter().map(|p| p.due).collect();
        assert_eq!(backlog_at(&outcomes, &dues, ms(100)), 8);
        assert_eq!(backlog_at(&outcomes, &dues, ms(1_000)), 0);
    }

    #[test]
    fn requests_past_the_give_up_time_are_not_sent() {
        let clock = FakeClock(Cell::new(Duration::ZERO));
        let schedule: Vec<Planned<()>> = (0..3)
            .map(|i| Planned {
                due: ms(i),
                req: (),
            })
            .collect();
        let outcomes = run_connection(&clock, &schedule, ms(50), |_| {
            clock.0.set(clock.0.get() + ms(60));
        });
        assert!(outcomes[0].is_some());
        assert!(outcomes[1].is_none() && outcomes[2].is_none());
        let dues: Vec<Duration> = schedule.iter().map(|p| p.due).collect();
        assert_eq!(backlog_at(&outcomes, &dues, ms(1_000)), 2);
    }
}
