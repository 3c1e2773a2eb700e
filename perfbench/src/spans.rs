//! Layer attribution from finished [`obs::TraceTree`]s: per-name totals and
//! self times (a span's duration minus the part of it its children cover).

use obs::trace::TraceSpan;
use std::collections::BTreeMap;

/// Per-span-name aggregate over one or more trees, in microseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanTotals {
    /// Spans recorded under the name.
    pub count: u64,
    /// Summed durations.
    pub total_us: u64,
    /// Summed self times.
    pub self_us: u64,
}

/// Self time of every span in one tree, in the order given: its duration
/// minus the union of its children's intervals clipped to its own. Children
/// are found by `parent_id`; spans of one thread nest, but the union also
/// holds for overlapping children.
pub fn self_times(spans: &[TraceSpan]) -> Vec<u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if s.parent_id != 0 {
            children
                .entry(s.parent_id)
                .or_default()
                .push((s.start_us, s.start_us + s.dur_us));
        }
    }
    spans
        .iter()
        .map(|s| {
            let (lo, hi) = (s.start_us, s.start_us + s.dur_us);
            let mut kids: Vec<(u64, u64)> = children
                .get(&s.span_id)
                .map(|v| {
                    v.iter()
                        .map(|&(a, b)| (a.clamp(lo, hi), b.clamp(lo, hi)))
                        .collect()
                })
                .unwrap_or_default();
            kids.sort_unstable();
            let mut covered = 0;
            let mut cursor = lo;
            for (a, b) in kids {
                let a = a.max(cursor);
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            s.dur_us - covered
        })
        .collect()
}

/// Adds one tree's spans into per-name totals.
pub fn accumulate(spans: &[TraceSpan], into: &mut BTreeMap<&'static str, SpanTotals>) {
    for (s, self_us) in spans.iter().zip(self_times(spans)) {
        let t = into.entry(s.name).or_default();
        t.count += 1;
        t.total_us += s.dur_us;
        t.self_us += self_us;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, id: u64, parent: u64, start: u64, dur: u64) -> TraceSpan {
        TraceSpan {
            name,
            label: None,
            notes: Vec::new(),
            span_id: id,
            parent_id: parent,
            tid: 0,
            start_us: start,
            dur_us: dur,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        // learn [0,100) ⊃ bc [0,20), search [25,95) ⊃ theta [30,40), [50,70)
        let spans = vec![
            span("learn.bc_build", 2, 1, 0, 20),
            span("coverage.theta", 4, 3, 30, 10),
            span("coverage.theta", 5, 3, 50, 20),
            span("learn.clause_search", 3, 1, 25, 70),
            span("learn", 1, 0, 0, 100),
        ];
        assert_eq!(self_times(&spans), vec![20, 10, 20, 40, 10]);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = vec![
            span("root", 1, 0, 10, 50),
            span("a", 2, 1, 5, 20),  // clipped to [10,25)
            span("b", 3, 1, 20, 10), // overlaps a on [20,25)
            span("c", 4, 1, 55, 30), // clipped to [55,60)
        ];
        // covered: [10,30) + [55,60) = 25 of 50
        assert_eq!(self_times(&spans)[0], 25);
    }

    #[test]
    fn totals_group_by_name() {
        let spans = vec![
            span("x", 2, 1, 0, 4),
            span("x", 3, 1, 5, 4),
            span("root", 1, 0, 0, 10),
        ];
        let mut m = BTreeMap::new();
        accumulate(&spans, &mut m);
        accumulate(&spans, &mut m);
        assert_eq!(
            m["x"],
            SpanTotals {
                count: 4,
                total_us: 16,
                self_us: 16
            }
        );
        assert_eq!(
            m["root"],
            SpanTotals {
                count: 2,
                total_us: 20,
                self_us: 4
            }
        );
    }
}
