//! Outside-in spans: recorded by the harness around its calls into the
//! program and its layers, kept in memory, written out at exit. (Spans
//! recorded inside the program are ROADMAP item 4.)

use crate::json::Json;
use std::time::Instant;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Spans of one operation share an identifier.
    pub request_id: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans against one monotonic clock. A disabled tracer hands
/// out a dummy handle and stores nothing, so the same code path runs
/// with and without recording.
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

/// A tracer that records nothing.
impl Default for Tracer {
    fn default() -> Self {
        Tracer::new(false)
    }
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            origin: Instant::now(),
            enabled,
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`exit`](Self::exit).
    pub fn enter(&mut self, name: &str, parent: Option<usize>, request_id: u64) -> usize {
        if !self.enabled {
            return 0;
        }
        let now = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: now,
            end_ns: now,
            parent,
            request_id,
        });
        self.spans.len() - 1
    }

    pub fn exit(&mut self, span: usize) {
        if self.enabled {
            self.spans[span].end_ns = self.now_ns();
        }
    }

    /// Records a span whose interval the caller measured; returns its
    /// index, for use as a parent.
    pub fn record(
        &mut self,
        name: &str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        request_id: u64,
    ) -> usize {
        if !self.enabled {
            return 0;
        }
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: ns(start),
            end_ns: ns(end).max(ns(start)),
            parent,
            request_id,
        });
        self.spans.len() - 1
    }

    /// Runs `f` inside a span.
    pub fn span<R>(
        &mut self,
        name: &str,
        parent: Option<usize>,
        request_id: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.enter(name, parent, request_id);
        let out = f();
        self.exit(id);
        out
    }

    /// The spans recorded from index `from` on, as a trace of their
    /// own: parent indices count from `from`.
    pub fn spans_since(&self, from: usize) -> Vec<Span> {
        self.spans[from..]
            .iter()
            .map(|s| Span {
                parent: s.parent.and_then(|p| p.checked_sub(from)),
                ..s.clone()
            })
            .collect()
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// The trace as a JSON document: one object per span, self time
    /// included.
    pub fn to_json(&self, workload: &str) -> Json {
        let self_ns = self_times_ns(&self.spans);
        let spans = self
            .spans
            .iter()
            .zip(self_ns)
            .map(|(s, own)| {
                Json::Obj(vec![
                    ("name".into(), Json::Str(s.name.clone())),
                    ("start_ns".into(), Json::Num(s.start_ns as f64)),
                    ("end_ns".into(), Json::Num(s.end_ns as f64)),
                    (
                        "parent".into(),
                        s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                    ),
                    ("request_id".into(), Json::Num(s.request_id as f64)),
                    ("self_ns".into(), Json::Num(own as f64)),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("workload".into(), Json::Str(workload.to_string())),
            ("spans".into(), Json::Arr(spans)),
        ])
    }
}

/// Self time of every span: its duration minus the part of its
/// interval its child spans cover. Children may overlap each other
/// (serve jobs in flight together under one round), so the covered
/// part is the union of their intervals, clipped to the parent.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let lo = s.start_ns.max(spans[p].start_ns);
            let hi = s.end_ns.min(spans[p].end_ns);
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for (lo, hi) in kids {
                if hi > reach {
                    covered += hi - lo.max(reach);
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

    fn span(name: &str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.into(),
            start_ns,
            end_ns,
            parent,
            request_id: 1,
        }
    }

    #[test]
    fn self_time_subtracts_sequential_children() {
        let spans = [
            span("request", 0, 100, None),
            span("parse", 10, 30, Some(0)),
            span("run", 30, 90, Some(0)),
            span("kernel", 40, 80, Some(2)),
        ];
        assert_eq!(self_times_ns(&spans), vec![20, 20, 20, 40]);
    }

    #[test]
    fn self_time_counts_overlapping_children_once_and_clips_to_the_parent() {
        let spans = [
            span("round", 100, 200, None),
            span("job", 110, 150, Some(0)),
            span("job", 130, 170, Some(0)),
            span("job", 140, 145, Some(0)),
            // started before the round and ended after it: clipped
            span("late", 190, 260, Some(0)),
            span("early", 50, 105, Some(0)),
        ];
        // covered: [100,105] + [110,170] + [190,200] = 75
        assert_eq!(self_times_ns(&spans)[0], 25);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut off = Tracer::new(false);
        let id = off.enter("x", None, 1);
        off.exit(id);
        assert_eq!(off.span("y", None, 1, || 7), 7);
        assert_eq!(off.len(), 0);

        let mut on = Tracer::new(true);
        let root = on.enter("root", None, 9);
        on.span("child", Some(root), 9, || ());
        on.exit(root);
        assert_eq!(on.len(), 2);
        assert_eq!(
            on.to_json("w")
                .get("spans")
                .unwrap()
                .as_arr()
                .unwrap()
                .len(),
            2
        );
        assert_eq!(on.spans_since(0)[1].parent, Some(0));
        assert!(on.spans_since(0)[0].end_ns >= on.spans_since(0)[1].end_ns);
        let later = on.enter("later", None, 10);
        on.span("child", Some(later), 10, || ());
        on.exit(later);
        let own = on.spans_since(2);
        assert_eq!(
            (own.len(), own[0].parent, own[1].parent),
            (2, None, Some(0))
        );
    }
}
