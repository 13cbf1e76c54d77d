//! In-memory spans for the traced run: name, start, end, parent, and the
//! request they belong to. Nothing is written until the run ends.

use std::fmt::Write as _;
use std::time::Instant;

/// One timed interval at a layer boundary (times in ns since the tracer
/// started).
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub request: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Collects spans; a span's id is its index.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    /// Spans opened with [`Tracer::begin`] (not recorded after the fact).
    begun: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            begun: Vec::new(),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Opens a span now; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, parent: Option<usize>, request: u64) -> usize {
        let start_ns = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            parent,
            request,
            start_ns,
            end_ns: start_ns,
        });
        let id = self.spans.len() - 1;
        self.begun.push(id);
        id
    }

    pub fn end(&mut self, id: usize) {
        self.spans[id].end_ns = self.ns(Instant::now());
    }

    /// Times `f` as one span.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.begin(name, parent, request);
        let out = f();
        self.end(id);
        out
    }

    /// Records an interval measured elsewhere (e.g. on a client thread).
    pub fn record(&mut self, name: &'static str, request: u64, start: Instant, end: Instant) {
        let span = Span {
            name,
            parent: None,
            request,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        };
        self.spans.push(span);
    }

    /// Durations in ms of every span called `name`, in recording order.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e6)
            .collect()
    }

    /// Self times in ms of every span called `name`.
    pub fn self_ms(&self, name: &str) -> Vec<f64> {
        let all = self_times_ns(&self.spans);
        self.spans
            .iter()
            .zip(all)
            .filter(|(s, _)| s.name == name)
            .map(|(_, t)| t as f64 / 1e6)
            .collect()
    }

    /// The tracer's own cost as a share of the work it timed: the spans it
    /// opened times the measured cost of opening and closing one, over the
    /// total time of the root spans it opened.
    pub fn overhead_pct(&self) -> f64 {
        const PROBES: usize = 10_000;
        let mut probe = Tracer::new();
        let started = Instant::now();
        for i in 0..PROBES {
            let id = probe.begin("probe", None, i as u64);
            probe.end(id);
        }
        let per_span_ns = started.elapsed().as_nanos() as f64 / PROBES as f64;
        let traced_ns: u64 = self
            .begun
            .iter()
            .map(|&id| &self.spans[id])
            .filter(|s| s.parent.is_none())
            .map(Span::duration_ns)
            .sum();
        100.0 * per_span_ns * self.begun.len() as f64 / traced_ns as f64
    }

    /// Writes every span as one JSON line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"parent\":{parent},\"request\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.request, s.start_ns, s.end_ns
            );
        }
        std::fs::write(path, out)
    }
}

/// Each span's self time: its duration minus the part of its interval that
/// its direct children cover (overlapping children count once).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let lo = s.start_ns.max(parent.start_ns);
            let hi = s.end_ns.min(parent.end_ns);
            if lo < hi {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = 0;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            parent,
            request: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_covered_child_intervals_once() {
        let spans = vec![
            span("root", None, 0, 100),
            // Two overlapping children cover [10, 50) together.
            span("a", Some(0), 10, 40),
            span("b", Some(0), 30, 50),
            // A grandchild is charged to its own parent only.
            span("c", Some(1), 15, 25),
            // A child sticking out of its parent is clipped to it.
            span("d", Some(0), 90, 130),
        ];
        assert_eq!(
            self_times_ns(&spans),
            vec![100 - 40 - 10, 30 - 10, 20, 10, 40]
        );
    }

    #[test]
    fn tracer_nests_spans_and_reports_self_time() {
        let mut tr = Tracer::new();
        let root = tr.begin("root", None, 7);
        tr.time("child", Some(root), 7, || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        tr.end(root);
        let total = tr.durations_ms("root")[0];
        let child = tr.durations_ms("child")[0];
        let own = tr.self_ms("root")[0];
        assert!(child >= 5.0);
        assert!((own - (total - child)).abs() < 1e-6);
        assert!(tr.spans.iter().all(|s| s.request == 7));
        // Two spans around a 5 ms sleep cost far less than 1% of it.
        let overhead = tr.overhead_pct();
        assert!(overhead > 0.0 && overhead < 1.0, "{overhead}");
    }
}
