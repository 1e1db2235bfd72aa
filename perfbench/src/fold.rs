//! Folds a flat list of timed spans into a containment forest and sums
//! total and self time per span name.
//!
//! `haccs-obs` spans carry no parent link, only an end timestamp and a
//! duration. Every span the benchmark reads is opened and closed on the
//! thread that drives the round, so spans nest properly in time, and a
//! span's parent is the innermost span whose interval contains it. A span's
//! self time is its duration minus the durations of its direct children.

use haccs_obs::{EventKind, EventRecord};
use std::collections::BTreeMap;

/// Timestamp slack for containment. A span's end is read a few
/// microseconds after its duration (the recorder updates a histogram in
/// between), so intervals derived from `(end, duration)` drift by about
/// that much; 50 µs is far above the drift and far below any span that
/// matters.
pub const NEST_SLACK_MS: f64 = 0.05;

/// One closed span, in milliseconds on the recorder's clock.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_ms: f64,
    pub end_ms: f64,
}

impl Span {
    pub fn new(name: &str, start_ms: f64, end_ms: f64) -> Self {
        Span { name: name.to_string(), start_ms, end_ms }
    }

    /// The span a trace record describes; `None` for instant events.
    pub fn from_record(r: &EventRecord) -> Option<Span> {
        if r.kind != EventKind::Span {
            return None;
        }
        let end_ms = r.t_s * 1e3;
        Some(Span::new(r.name, end_ms - r.dur_ms?, end_ms))
    }

    pub fn dur_ms(&self) -> f64 {
        self.end_ms - self.start_ms
    }

    fn contains(&self, other: &Span) -> bool {
        other.start_ms >= self.start_ms - NEST_SLACK_MS
            && other.end_ms <= self.end_ms + NEST_SLACK_MS
    }
}

/// Time attributed to one span name inside a subtree.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Layer {
    pub total_ms: f64,
    pub self_ms: f64,
    pub count: usize,
}

/// Spans arranged by interval containment.
#[derive(Debug)]
pub struct Forest {
    spans: Vec<Span>,
    children: Vec<Vec<usize>>,
    roots: Vec<usize>,
}

impl Forest {
    pub fn build(mut spans: Vec<Span>) -> Self {
        // parents sort before their children: earlier start first, and of
        // two spans starting together the longer one first
        spans.sort_by(|a, b| a.start_ms.total_cmp(&b.start_ms).then(b.end_ms.total_cmp(&a.end_ms)));
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
        let mut parent: Vec<Option<usize>> = vec![None; spans.len()];
        let mut roots = Vec::new();
        let mut open: Vec<usize> = Vec::new();
        for i in 0..spans.len() {
            let mut adopted = Vec::new();
            while let Some(&p) = open.last() {
                if spans[p].contains(&spans[i]) {
                    break;
                }
                open.pop();
                // a child whose start drifted ahead of its parent's sorts
                // first; the parent takes it over. It is the newest entry
                // of its own parent's list, since anything attached later
                // would have closed it.
                if spans[i].contains(&spans[p]) {
                    match parent[p] {
                        Some(q) => children[q].pop(),
                        None => roots.pop(),
                    };
                    adopted.push(p);
                }
            }
            parent[i] = open.last().copied();
            match parent[i] {
                Some(p) => children[p].push(i),
                None => roots.push(i),
            }
            for &c in &adopted {
                parent[c] = Some(i);
            }
            children[i].extend(adopted);
            open.push(i);
        }
        Forest { spans, children, roots }
    }

    /// Top-level spans with this name, in start order.
    pub fn roots_named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = usize> + 'a {
        self.roots.iter().copied().filter(move |&i| self.spans[i].name == name)
    }

    /// Durations of every span with this name, nested or not.
    pub fn durations_named(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(Span::dur_ms).collect()
    }

    /// Duration of span `i` not covered by its direct children.
    pub fn self_ms(&self, i: usize) -> f64 {
        let covered: f64 = self.children[i].iter().map(|&c| self.spans[c].dur_ms()).sum();
        (self.spans[i].dur_ms() - covered).max(0.0)
    }

    /// Total and self time per span name over the subtree rooted at `i`,
    /// the root included.
    pub fn subtree(&self, i: usize) -> BTreeMap<String, Layer> {
        let mut out = BTreeMap::new();
        let mut stack = vec![i];
        while let Some(j) = stack.pop() {
            let layer: &mut Layer = out.entry(self.spans[j].name.clone()).or_default();
            layer.total_ms += self.spans[j].dur_ms();
            layer.self_ms += self.self_ms(j);
            layer.count += 1;
            stack.extend(&self.children[j]);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-9
    }

    /// round [0,100] ⊃ { select [1,11] ⊃ pick [2,5] ; train [20,80] ;
    /// heartbeat [85,95] }, then a second round [100,150] ⊃ train [110,140]
    fn two_rounds() -> Forest {
        Forest::build(vec![
            Span::new("train", 20.0, 80.0),
            Span::new("round", 0.0, 100.0),
            Span::new("pick", 2.0, 5.0),
            Span::new("heartbeat", 85.0, 95.0),
            Span::new("select", 1.0, 11.0),
            Span::new("round", 100.0, 150.0),
            Span::new("train", 110.0, 140.0),
        ])
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let f = two_rounds();
        let first = f.roots_named("round").next().unwrap();
        // 100 − (10 + 60 + 10); the nested pick belongs to select
        assert!(close(f.self_ms(first), 20.0));
        let t = f.subtree(first);
        assert!(close(t["select"].total_ms, 10.0));
        assert!(close(t["select"].self_ms, 7.0));
        assert!(close(t["pick"].self_ms, 3.0));
        assert!(close(t["train"].total_ms, 60.0));
        assert_eq!(t["round"].count, 1);
        // self times over a subtree add back up to the root's duration
        let sum: f64 = t.values().map(|l| l.self_ms).sum();
        assert!(close(sum, 100.0));
    }

    #[test]
    fn adjacent_roots_stay_separate() {
        let f = two_rounds();
        let rounds: Vec<usize> = f.roots_named("round").collect();
        assert_eq!(rounds.len(), 2);
        let second = f.subtree(rounds[1]);
        assert!(close(second["train"].total_ms, 30.0));
        assert!(close(second["round"].self_ms, 20.0));
        assert!(!second.contains_key("select"));
    }

    #[test]
    fn clock_drift_within_slack_still_nests() {
        // the child appears to start 20 µs before its parent
        let f = Forest::build(vec![Span::new("outer", 10.0, 20.0), Span::new("inner", 9.98, 19.0)]);
        let outer = f.roots_named("outer").next().unwrap();
        assert_eq!(f.roots_named("inner").count(), 0);
        assert!(close(f.self_ms(outer), 10.0 - 9.02));
    }

    #[test]
    fn spans_come_from_span_records_only() {
        let rec = |kind, dur_ms| EventRecord {
            t_s: 2.0,
            unix_s: 0.0,
            kind,
            name: "x",
            sim_s: None,
            dur_ms,
            fields: Vec::new(),
        };
        assert_eq!(Span::from_record(&rec(EventKind::Event, None)), None);
        assert_eq!(
            Span::from_record(&rec(EventKind::Span, Some(500.0))),
            Some(Span::new("x", 1500.0, 2000.0))
        );
    }
}
