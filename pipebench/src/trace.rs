//! Self times from a traced pass.
//!
//! Every span of a pass — the benchmark's own, around each layer call, and
//! the ones the program emits (`phase`, `shard.*`, `converge.iteration`,
//! `explore.schedule`) — is opened and closed on the benchmark's thread,
//! so spans nest by interval: a span's parent is the innermost span whose
//! interval contains it.

use cheetah_obs::SpanRecord;
use std::collections::BTreeMap;

/// Busy and self nanoseconds of one span name, summed over a pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanTotals {
    /// Spans recorded.
    pub count: u64,
    /// Summed durations.
    pub total_ns: u64,
    /// Summed durations minus the time direct children cover.
    pub self_ns: u64,
}

/// Per-name totals, plus the time of spans named `inner` that sit anywhere
/// below a span named `outer` (keyed `(outer, inner)`; only the outermost
/// `inner` on each path counts).
#[derive(Debug, Default)]
pub struct SelfTimes {
    /// Totals per span name.
    pub by_name: BTreeMap<&'static str, SpanTotals>,
    /// Nanoseconds of `inner` spans under an `outer` ancestor.
    pub within: BTreeMap<(&'static str, &'static str), u64>,
}

impl SelfTimes {
    /// Self milliseconds of spans named `name`.
    pub fn self_ms(&self, name: &str) -> f64 {
        self.by_name
            .get(name)
            .map_or(0.0, |t| t.self_ns as f64 / 1e6)
    }

    /// Self milliseconds summed over every span whose name starts with
    /// `prefix`.
    pub fn self_ms_prefixed(&self, prefix: &str) -> f64 {
        self.by_name
            .iter()
            .filter(|(name, _)| name.starts_with(prefix))
            .map(|(_, t)| t.self_ns as f64 / 1e6)
            .fold(0.0, |a, b| a + b)
    }

    /// Milliseconds of `inner` spans below an `outer` span.
    pub fn within_ms(&self, outer: &'static str, inner: &'static str) -> f64 {
        self.within
            .get(&(outer, inner))
            .map_or(0.0, |&ns| ns as f64 / 1e6)
    }
}

/// Builds the span tree of `spans` and sums busy and self time per name.
pub fn self_times(spans: &[SpanRecord]) -> SelfTimes {
    let mut order: Vec<usize> = (0..spans.len()).collect();
    // Parents start no later and last no shorter than their children.
    order.sort_by_key(|&i| (spans[i].start_ns, std::cmp::Reverse(spans[i].dur_ns)));
    let end = |i: usize| spans[i].start_ns + spans[i].dur_ns;

    let mut child_ns = vec![0u64; spans.len()];
    let mut stack: Vec<usize> = Vec::new();
    let mut out = SelfTimes::default();
    for &i in &order {
        while stack
            .last()
            .is_some_and(|&top| end(top) <= spans[i].start_ns)
        {
            stack.pop();
        }
        if let Some(&parent) = stack.last() {
            child_ns[parent] += spans[i].dur_ns;
        }
        let name = spans[i].name;
        let mut seen: Vec<&'static str> = Vec::new();
        let nested_in_same = stack.iter().any(|&a| spans[a].name == name);
        if !nested_in_same {
            for &ancestor in &stack {
                let outer = spans[ancestor].name;
                if !seen.contains(&outer) {
                    seen.push(outer);
                    *out.within.entry((outer, name)).or_default() += spans[i].dur_ns;
                }
            }
        }
        stack.push(i);
    }
    for (i, span) in spans.iter().enumerate() {
        let totals = out.by_name.entry(span.name).or_default();
        totals.count += 1;
        totals.total_ns += span.dur_ns;
        totals.self_ns += span.dur_ns.saturating_sub(child_ns[i]);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, dur_ns: u64) -> SpanRecord {
        SpanRecord {
            name,
            lane: 0,
            start_ns,
            dur_ns,
            attrs: Vec::new(),
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = [
            span("op", 0, 100),
            span("run", 10, 50),
            span("phase", 15, 20),
            span("phase", 40, 10),
            span("shard.merge", 42, 5),
            span("finish", 70, 20),
        ];
        let t = self_times(&spans);
        assert_eq!(t.by_name["op"].self_ns, 100 - 50 - 20);
        assert_eq!(t.by_name["run"].self_ns, 50 - 30);
        assert_eq!(t.by_name["phase"].self_ns, 30 - 5);
        assert_eq!(t.by_name["phase"].count, 2);
        assert_eq!(t.by_name["finish"].self_ns, 20);
        assert_eq!(t.within_ms("op", "phase"), 30.0 / 1e6);
        assert_eq!(t.within_ms("run", "shard.merge"), 5.0 / 1e6);
        assert_eq!(t.within_ms("finish", "phase"), 0.0);
        assert_eq!(t.self_ms_prefixed("shard."), 5.0 / 1e6);
    }

    #[test]
    fn identical_intervals_nest_longest_first() {
        // A child that starts with its parent is still its child.
        let spans = [span("inner", 0, 10), span("outer", 0, 30)];
        let t = self_times(&spans);
        assert_eq!(t.by_name["outer"].self_ns, 20);
        assert_eq!(t.by_name["inner"].self_ns, 10);
    }
}
