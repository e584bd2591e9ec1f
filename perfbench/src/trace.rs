//! Spans and counters recorded from the benchmark's side of each layer
//! boundary. Spans stay in memory for one pass over a workload's fixed
//! content and are summarised when the pass ends.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// One timed call into a layer.
#[derive(Debug, Clone)]
pub struct Span {
    /// `<layer>.<call>`, e.g. `yum.solve`.
    pub name: &'static str,
    pub start: Duration,
    pub end: Duration,
    /// Index of the span that was open when this one began.
    pub parent: Option<usize>,
    /// The op this span belongs to.
    pub op: usize,
}

impl Span {
    pub fn duration(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }
}

/// Records spans, deterministic counts and measured quantities.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    op: usize,
    open: Vec<usize>,
    pub spans: Vec<Span>,
    /// Counts that must repeat exactly on the same inputs.
    pub counts: BTreeMap<&'static str, u64>,
    /// Timing-derived sums (milliseconds), e.g. per-worker busy time.
    pub sums: BTreeMap<&'static str, f64>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            op: 0,
            open: Vec::new(),
            spans: Vec::new(),
            counts: BTreeMap::new(),
            sums: BTreeMap::new(),
        }
    }
}

impl Tracer {
    /// Tag the spans that follow with op id `op`.
    pub fn begin_op(&mut self, op: usize) {
        self.op = op;
    }

    /// Run `f` inside a span named `name`, nested under the open span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start: Duration::ZERO,
            end: Duration::ZERO,
            parent: self.open.last().copied(),
            op: self.op,
        });
        self.open.push(idx);
        self.spans[idx].start = self.origin.elapsed();
        let out = f(self);
        self.spans[idx].end = self.origin.elapsed();
        self.open.pop();
        out
    }

    pub fn count(&mut self, name: &'static str, n: u64) {
        *self.counts.entry(name).or_default() += n;
    }

    pub fn add(&mut self, name: &'static str, ms: f64) {
        *self.sums.entry(name).or_default() += ms;
    }

    /// Self time per span name in milliseconds: each span's duration
    /// minus the part its children cover. The values sum to the
    /// duration of the root spans.
    pub fn self_ms(&self) -> BTreeMap<&'static str, f64> {
        let mut child = vec![Duration::ZERO; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.duration();
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child) {
            *out.entry(s.name).or_default() += ms(s.duration().saturating_sub(c));
        }
        out
    }

    /// Total duration of the root spans, in milliseconds.
    pub fn root_ms(&self) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| ms(s.duration()))
            .sum()
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_sum_to_root_time() {
        let mut t = Tracer::default();
        t.begin_op(3);
        t.span("svc.execute", |t| {
            t.span("yum.solve", |_| {
                std::thread::sleep(Duration::from_millis(2))
            });
            t.span("core.deploy", |t| {
                t.span("rpm.tx", |_| std::thread::sleep(Duration::from_millis(2)))
            });
        });
        t.count("yum.solve.calls", 1);
        let self_ms = t.self_ms();
        let total: f64 = self_ms.values().sum();
        assert!((total - t.root_ms()).abs() < 1e-6, "{self_ms:?}");
        assert!(self_ms["rpm.tx"] >= 2.0);
        assert!(self_ms["core.deploy"] < self_ms["rpm.tx"]);
        assert_eq!(t.spans[2].parent, Some(0));
        assert_eq!(t.spans[3].parent, Some(2));
        assert!(t.spans.iter().all(|s| s.op == 3));
        assert_eq!(t.counts["yum.solve.calls"], 1);
    }
}
