//! In-memory spans recorded around each call into a layer.
//!
//! A span has a name, a start, an end and the id of the span that
//! caused it (0 for a root). Spans stay in memory until the run ends;
//! [`self_times`] then charges each span its duration minus the part of
//! that interval its children cover.

use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// One thread's span log. Disabled recorders store nothing and hand
/// out id 0, so untraced runs pay one branch per boundary.
pub struct Recorder {
    on: bool,
    epoch: Instant,
    /// Ids are `thread << 40 | sequence`, unique across recorders.
    next_id: u64,
    pub spans: Vec<Span>,
}

impl Recorder {
    pub fn new(on: bool, epoch: Instant, thread: u64) -> Self {
        Recorder {
            on,
            epoch,
            next_id: (thread << 40) + 1,
            spans: Vec::new(),
        }
    }

    /// Reserves an id for a span whose children are recorded before it.
    pub fn reserve(&mut self) -> u64 {
        if !self.on {
            return 0;
        }
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    fn ns(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Records a span under a reserved id.
    pub fn record_as(
        &mut self,
        id: u64,
        name: &'static str,
        parent: u64,
        start: Instant,
        end: Instant,
    ) {
        if self.on {
            let (start_ns, end_ns) = (self.ns(start), self.ns(end));
            self.spans.push(Span {
                id,
                parent,
                name,
                start_ns,
                end_ns,
            });
        }
    }

    /// Records a span with a fresh id and returns the id.
    pub fn record(&mut self, name: &'static str, parent: u64, start: Instant, end: Instant) -> u64 {
        let id = self.reserve();
        self.record_as(id, name, parent, start, end);
        id
    }
}

/// Per span name: how many spans, their total duration and their total
/// self time, in nanoseconds.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct SpanTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl SpanTotals {
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64
        }
    }

    pub fn mean_self_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.count as f64
        }
    }
}

/// Totals and self times by span name.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, SpanTotals> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
    for s in spans {
        let dur = s.end_ns.saturating_sub(s.start_ns);
        let covered = children
            .get_mut(&s.id)
            .map_or(0, |c| covered_ns(c, s.start_ns, s.end_ns));
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += dur;
        t.self_ns += dur - covered.min(dur);
    }
    out
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let (mut total, mut reach) = (0, lo);
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(reach), e.min(hi));
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &'static str, s: u64, e: u64) -> Span {
        Span {
            id,
            parent,
            name,
            start_ns: s,
            end_ns: e,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span(1, 0, "root", 0, 100),
            span(2, 1, "a", 10, 40),
            span(3, 1, "b", 30, 60),  // overlaps a by 10
            span(4, 1, "c", 90, 120), // runs past the parent's end
            span(5, 2, "leaf", 15, 20),
        ];
        let t = self_times(&spans);
        assert_eq!(t["root"].total_ns, 100);
        assert_eq!(t["root"].self_ns, 100 - 50 - 10);
        assert_eq!(t["a"].self_ns, 30 - 5);
        assert_eq!(t["b"].self_ns, 30);
        assert_eq!(t["leaf"].self_ns, 5);
    }

    #[test]
    fn disabled_recorder_stores_nothing() {
        let now = Instant::now();
        let mut r = Recorder::new(false, now, 1);
        assert_eq!(r.record("x", 0, now, now), 0);
        assert!(r.spans.is_empty());
    }
}
