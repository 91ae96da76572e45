//! Spans, recorded by the harness around its calls into each layer, kept in
//! memory and written out when the run ends. Nothing here is compiled into
//! the program: tracing is a property of the traced pass, and the end-to-end
//! numbers come from a pass that records no spans at all.

use crate::sys::Json;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// One recorded interval.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer-qualified stage name (`sql.plan`, `db.load`, …) or `request`.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// Index of the span that caused this one (`None` for a request root).
    pub parent: Option<usize>,
    /// Spans of one request share this identifier.
    pub request_id: u64,
    /// Workload text the request carried.
    pub text: usize,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An in-memory span log. Each client thread owns one; all share an epoch so
/// their spans lie on one timeline.
pub struct Tracer {
    epoch: Instant,
    next_request: u64,
    /// The recorded spans, in recording order.
    pub spans: Vec<Span>,
}

impl Tracer {
    /// A tracer whose request identifiers start at `first_request` (clients
    /// take disjoint ranges).
    pub fn new(epoch: Instant, first_request: u64) -> Tracer {
        Tracer { epoch, next_request: first_request, spans: Vec::with_capacity(4096) }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Opens a request that starts at `start` and carries workload text
    /// `text`; returns its root span. [`Tracer::close`] sets the end.
    pub fn request(&mut self, text: usize, start: Instant) -> usize {
        let request_id = self.next_request;
        self.next_request += 1;
        let at = self.ns(start);
        self.spans.push(Span {
            name: "request",
            start_ns: at,
            end_ns: at,
            parent: None,
            request_id,
            text,
        });
        self.spans.len() - 1
    }

    /// Ends the request rooted at `root`.
    pub fn close(&mut self, root: usize, end: Instant) {
        self.spans[root].end_ns = self.ns(end);
    }

    /// Records a span under `parent` (a request root or another span).
    pub fn child(
        &mut self,
        parent: usize,
        name: &'static str,
        start: Instant,
        wall: Duration,
    ) -> usize {
        let (start_ns, end_ns) = (self.ns(start), self.ns(start + wall));
        let Span { request_id, text, .. } = self.spans[parent];
        self.spans.push(Span { name, start_ns, end_ns, parent: Some(parent), request_id, text });
        self.spans.len() - 1
    }

    /// Appends another tracer's spans (parents re-based).
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(
            other.spans.into_iter().map(|s| Span { parent: s.parent.map(|p| p + base), ..s }),
        );
    }

    /// Self time per span: its duration minus the part its children cover.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::duration_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.duration_ns());
            }
        }
        own
    }

    /// Per stage name: `(spans, total self nanoseconds)`; request roots are
    /// listed under `request`, where self time is what no stage accounts for.
    pub fn self_time_by_name(&self) -> BTreeMap<&'static str, (u64, u64)> {
        let mut by_name: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for (span, own) in self.spans.iter().zip(self.self_times_ns()) {
            let e = by_name.entry(span.name).or_default();
            e.0 += 1;
            e.1 += own;
        }
        by_name
    }

    /// Per stage name: `(spans, total nanoseconds)`, children included.
    pub fn duration_by_name(&self) -> BTreeMap<&'static str, (u64, u64)> {
        let mut by_name: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for span in &self.spans {
            let e = by_name.entry(span.name).or_default();
            e.0 += 1;
            e.1 += span.duration_ns();
        }
        by_name
    }

    /// Total duration of the request roots, in nanoseconds.
    pub fn request_ns(&self) -> u64 {
        self.spans.iter().filter(|s| s.parent.is_none()).map(Span::duration_ns).sum()
    }

    /// The span log as JSON: `{name, start_ns, end_ns, parent, request_id, text}` per span.
    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .map(|s| {
                    Json::obj([
                        ("name", Json::str(s.name)),
                        ("start_ns", Json::Int(s.start_ns as i64)),
                        ("end_ns", Json::Int(s.end_ns as i64)),
                        ("parent", s.parent.map_or(Json::Int(-1), |p| Json::Int(p as i64))),
                        ("request_id", Json::Int(s.request_id as i64)),
                        ("text", Json::Int(s.text as i64)),
                    ])
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let epoch = Instant::now();
        let ms = Duration::from_millis;
        let mut t = Tracer::new(epoch, 100);
        let root = t.request(7, epoch);
        let load = t.child(root, "core.load", epoch + ms(1), ms(6));
        t.child(load, "db.load", epoch + ms(3), ms(4));
        t.child(root, "exec.execute", epoch + ms(7), ms(2));
        t.close(root, epoch + ms(10));
        assert_eq!(t.self_times_ns(), vec![2_000_000, 2_000_000, 4_000_000, 2_000_000]);
        assert_eq!(t.request_ns(), 10_000_000);
        let by = t.self_time_by_name();
        assert_eq!(by["db.load"], (1, 4_000_000));
        assert_eq!(by["request"], (1, 2_000_000));
        assert_eq!(t.duration_by_name()["core.load"], (1, 6_000_000));
        // Self times of one request add up to its wall time.
        assert_eq!(t.self_times_ns().iter().sum::<u64>(), t.request_ns());
        assert!(t.spans.iter().all(|s| s.request_id == 100 && s.text == 7));
    }

    #[test]
    fn absorb_rebases_parents() {
        let epoch = Instant::now();
        let mut a = Tracer::new(epoch, 0);
        let root = a.request(0, epoch);
        a.close(root, epoch + Duration::from_millis(1));
        let mut b = Tracer::new(epoch, 1_000);
        let root = b.request(1, epoch);
        b.child(root, "exec.execute", epoch, Duration::from_millis(1));
        b.close(root, epoch + Duration::from_millis(2));
        a.absorb(b);
        assert_eq!(a.spans[2].parent, Some(1));
        assert!(a.to_json().to_string().contains("\"request_id\": 1000"));
    }
}
