//! Spans for the traced run.
//!
//! The benchmark records a span around each public call it makes into a
//! layer: `{name, start_ns, end_ns, parent, items}`. Spans stay in memory
//! and are written out when the run ends. A layer's value is the sum of
//! its spans' self time: a span's duration minus the durations of its
//! direct children.
//!
//! Work repeated only so it can be measured is marked *beside* and left
//! out of both sides of the coverage ratio.

use std::collections::BTreeMap;
use std::time::Instant;

use serde_json::{json, Value};

/// One recorded call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// Work the call did, in the layer's own unit (records, rows, bytes).
    pub items: u64,
    /// Repeated only to be measured: excluded from coverage.
    pub beside: bool,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records nested spans against one clock origin.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn open_span(&mut self, name: &'static str, beside: bool) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            items: 0,
            beside,
        });
        let id = self.spans.len() - 1;
        self.open.push(id);
        id
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> usize {
        self.open_span(name, false)
    }

    /// Opens a span for work repeated only to measure it.
    pub fn begin_beside(&mut self, name: &'static str) -> usize {
        self.open_span(name, true)
    }

    /// Closes span `id`, which must be the innermost open span.
    pub fn end(&mut self, id: usize, items: u64) {
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        let end_ns = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = end_ns;
        span.items = items;
    }

    /// Records a child of the open span `parent` whose duration a layer
    /// reported itself (such as `TrainedMfpa::train_secs`), placed at the
    /// start of the parent.
    pub fn reported(&mut self, parent: usize, name: &'static str, secs: f64, items: u64) {
        assert_eq!(self.open.last(), Some(&parent), "parent must be open");
        let start_ns = self.spans[parent].start_ns;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns + (secs * 1e9) as u64,
            parent: Some(parent),
            items,
            beside: false,
        });
    }

    pub fn into_spans(self) -> Vec<Span> {
        assert!(self.open.is_empty(), "every span must be closed");
        self.spans
    }
}

/// Per-name sums over a finished trace.
#[derive(Debug, Default)]
pub struct Profile {
    /// Summed self time per span name, in ns.
    pub self_ns: BTreeMap<&'static str, u64>,
    /// Summed items per span name.
    pub items: BTreeMap<&'static str, u64>,
    /// Each span's full duration per name, in ms, in recording order.
    pub durations_ms: BTreeMap<&'static str, Vec<f64>>,
    /// Root wall time less beside work, in ns.
    pub timed_ns: u64,
    /// Summed self time of leaf spans that are not beside, in ns.
    pub covered_ns: u64,
}

impl Profile {
    pub fn of(spans: &[Span]) -> Profile {
        let mut children_ns = vec![0u64; spans.len()];
        let mut has_children = vec![false; spans.len()];
        for span in spans {
            if let Some(p) = span.parent {
                children_ns[p] += span.duration_ns();
                has_children[p] = true;
            }
        }
        let mut profile = Profile::default();
        for (i, span) in spans.iter().enumerate() {
            let self_ns = span.duration_ns().saturating_sub(children_ns[i]);
            *profile.self_ns.entry(span.name).or_default() += self_ns;
            *profile.items.entry(span.name).or_default() += span.items;
            profile
                .durations_ms
                .entry(span.name)
                .or_default()
                .push(span.duration_ns() as f64 / 1e6);
            if span.parent.is_none() {
                profile.timed_ns += span.duration_ns();
            }
            if span.beside {
                assert!(!has_children[i], "beside spans must be leaves");
                profile.timed_ns = profile.timed_ns.saturating_sub(span.duration_ns());
            } else if !has_children[i] {
                profile.covered_ns += self_ns;
            }
        }
        profile
    }

    /// Self time of layer `name`, in ms (0 when it never ran).
    pub fn ms(&self, name: &str) -> f64 {
        self.self_ns.get(name).copied().unwrap_or(0) as f64 / 1e6
    }

    /// Items of layer `name` (0 when it never ran).
    pub fn items(&self, name: &str) -> u64 {
        self.items.get(name).copied().unwrap_or(0)
    }

    /// Self nanoseconds of layer `name` per item, 0 without items.
    pub fn ns_per_item(&self, name: &str) -> f64 {
        match self.items(name) {
            0 => 0.0,
            n => self.self_ns.get(name).copied().unwrap_or(0) as f64 / n as f64,
        }
    }

    /// Median span duration of layer `name`, in ms (0 when it never ran).
    pub fn p50_ms(&self, name: &str) -> f64 {
        self.durations_ms
            .get(name)
            .map_or(0.0, |d| crate::stats::median(d))
    }

    /// Share of the timed wall that leaf spans account for.
    pub fn coverage(&self) -> f64 {
        self.covered_ns as f64 / self.timed_ns.max(1) as f64
    }

    /// Timed wall time, in seconds.
    pub fn timed_secs(&self) -> f64 {
        self.timed_ns as f64 / 1e9
    }
}

/// The spans as JSON, for `<workload>.seed<n>.trace.json`.
pub fn spans_json(spans: &[Span]) -> Value {
    Value::Array(
        spans
            .iter()
            .map(|s| {
                json!({
                    "name": s.name,
                    "start_ns": s.start_ns,
                    "end_ns": s.end_ns,
                    "parent": s.parent,
                    "items": s.items,
                    "beside": s.beside
                })
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            items: 1,
            beside: false,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // pass [0, 100) holds a [10, 60) and b [60, 90); a holds c [20, 50).
        let spans = vec![
            span("pass", 0, 100, None),
            span("a", 10, 60, Some(0)),
            span("c", 20, 50, Some(1)),
            span("b", 60, 90, Some(0)),
        ];
        let p = Profile::of(&spans);
        assert_eq!(p.self_ns["pass"], 100 - 50 - 30);
        assert_eq!(p.self_ns["a"], 50 - 30);
        assert_eq!(p.self_ns["c"], 30);
        assert_eq!(p.self_ns["b"], 30);
        assert_eq!(p.timed_ns, 100);
        // Leaves c and b cover 60 of 100 ns.
        assert_eq!(p.covered_ns, 60);
        assert!((p.coverage() - 0.6).abs() < 1e-12);
    }

    #[test]
    fn repeated_names_sum_and_beside_work_is_excluded() {
        let mut spans = vec![
            span("pass", 0, 100, None),
            span("x", 0, 20, Some(0)),
            span("x", 20, 50, Some(0)),
            span("again", 50, 90, Some(0)),
        ];
        spans[3].beside = true;
        let p = Profile::of(&spans);
        assert_eq!(p.self_ns["x"], 50);
        assert_eq!(p.items("x"), 2);
        assert_eq!(p.durations_ms["x"], vec![20e-6, 30e-6]);
        assert_eq!(p.timed_ns, 60);
        assert_eq!(p.covered_ns, 50);
        assert_eq!(p.ms("missing"), 0.0);
        assert_eq!(p.ns_per_item("x"), 25.0);
    }

    #[test]
    fn tracer_nests_and_places_reported_children() {
        let mut tr = Tracer::default();
        let root = tr.begin("pass");
        let fit = tr.begin("train_rows");
        tr.reported(fit, "fit", 0.0, 7);
        tr.end(fit, 3);
        let side = tr.begin_beside("again");
        tr.end(side, 0);
        tr.end(root, 0);
        let spans = tr.into_spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(1));
        assert_eq!(spans[2].items, 7);
        assert_eq!(spans[1].items, 3);
        assert!(spans[3].beside);
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
    }

    #[test]
    #[should_panic(expected = "innermost first")]
    fn spans_must_close_in_order() {
        let mut tr = Tracer::default();
        let a = tr.begin("a");
        let _b = tr.begin("b");
        tr.end(a, 0);
    }
}
