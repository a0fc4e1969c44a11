//! Causal trace reconstruction and critical-path analysis.
//!
//! A trace is the life of one user write request: minted as a
//! [`TraceId`] when the primary proposes the request's write set,
//! propagated through consensus (the id rides the traced entry inside
//! `append_entries`; no ack and no signature transaction carries one),
//! and closed at global commit / receipt issuance. Every component along
//! the way records *stage spans* against the id — `forward`,
//! `request`, `append`, `sign`, `replicate`, `commit`, `receipt` —
//! stamped in virtual time, so same-seed runs reconstruct byte-for-byte
//! identical traces.
//!
//! [`assemble`] rebuilds one tree per trace from a [`Snapshot`]'s
//! retained stage spans; [`critical_path`] walks a tree's spans in
//! causal order and attributes each stage the wall (virtual) time it
//! *exclusively* contributed — the "why was request #417 slow?" answer.

use crate::{Snapshot, TraceSpan};

/// The identity of one causal trace. Minted dense-from-1 by
/// [`Registry::mint_trace`](crate::Registry::mint_trace); `0` is the
/// reserved "no trace" value that travels with untraced entries.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TraceId(pub u64);

impl TraceId {
    /// The absent trace: stages recorded against it record nothing.
    pub const NONE: TraceId = TraceId(0);

    /// True for [`TraceId::NONE`].
    pub fn is_none(&self) -> bool {
        self.0 == 0
    }

    /// True for a real trace id.
    pub fn is_some(&self) -> bool {
        self.0 != 0
    }
}

/// The identity of one recorded stage span — its registry sequence
/// number, unique across the run. `0` means "no parent" (a root span,
/// or a span recorded before its parent was known).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SpanId(pub u64);

impl SpanId {
    /// The absent span id (used as the `parent` of root spans).
    pub const NONE: SpanId = SpanId(0);
}

/// One node of an assembled trace tree.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceNode {
    /// The stage span itself.
    pub span: TraceSpan,
    /// Index of the parent node within [`TraceTree::nodes`], `None`
    /// for the chronological root.
    pub parent: Option<usize>,
    /// Indices of child nodes, in causal (seq) order.
    pub children: Vec<usize>,
}

/// One reconstructed trace: all retained stage spans of a [`TraceId`],
/// linked into a tree.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceTree {
    /// The trace id.
    pub trace: u64,
    /// Nodes in causal (seq) order; index 0 is the chronological root.
    pub nodes: Vec<TraceNode>,
    /// Spans whose recorded parent was evicted from the bounded ring
    /// before the snapshot: they are re-attached under the
    /// chronological root instead of being dropped.
    pub orphans: usize,
}

impl TraceTree {
    /// True when the trace reached global commit (has a `commit`
    /// stage span). Incomplete trees are the in-flight requests a
    /// violation caught mid-protocol.
    pub fn committed(&self) -> bool {
        self.nodes.iter().any(|n| n.span.stage == "commit")
    }
}

/// Rebuilds one [`TraceTree`] per trace id from the snapshot's
/// retained stage spans, ordered by trace id.
///
/// Parent links use the recorded parent [`SpanId`] when the parent is
/// still retained. A nonzero parent missing from the ring (evicted) or
/// a zero parent on a non-root span both attach to the trace's
/// chronological root; only the former counts as an orphan.
pub fn assemble(spans: &[TraceSpan]) -> Vec<TraceTree> {
    let mut by_trace: std::collections::BTreeMap<u64, Vec<&TraceSpan>> =
        std::collections::BTreeMap::new();
    for s in spans {
        by_trace.entry(s.trace).or_default().push(s);
    }
    by_trace
        .into_iter()
        .map(|(trace, mut group)| {
            group.sort_by_key(|s| s.seq);
            let index_of = |seq: u64, upto: usize| -> Option<usize> {
                group[..upto].iter().position(|s| s.seq == seq)
            };
            let mut nodes: Vec<TraceNode> = Vec::with_capacity(group.len());
            let mut orphans = 0;
            for (i, span) in group.iter().enumerate() {
                let parent = if i == 0 {
                    None
                } else if span.parent == 0 {
                    Some(0)
                } else {
                    match index_of(span.parent, i) {
                        Some(j) => Some(j),
                        None => {
                            orphans += 1;
                            Some(0)
                        }
                    }
                };
                if let Some(p) = parent {
                    nodes[p].children.push(i);
                }
                nodes.push(TraceNode { span: (*span).clone(), parent, children: Vec::new() });
            }
            TraceTree { trace, nodes, orphans }
        })
        .collect()
}

/// One stage's contribution to a trace's critical path.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StageCost {
    /// Stage name (`forward`, `request`, `append`, `replicate`, `sign`,
    /// `commit`, …).
    pub stage: String,
    /// The node the stage ran on.
    pub node: String,
    /// Virtual-time start of the stage span.
    pub start: u64,
    /// Virtual-time end of the stage span.
    pub end: u64,
    /// Virtual milliseconds this stage *exclusively* added to the
    /// trace's end-to-end latency (time not already covered by an
    /// earlier stage in causal order).
    pub exclusive_ms: u64,
}

/// The longest causal chain of one trace with per-stage attribution.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CriticalPath {
    /// The trace id.
    pub trace: u64,
    /// Virtual time the first stage started.
    pub start: u64,
    /// Virtual time the last stage ended.
    pub end: u64,
    /// End-to-end virtual latency (`end - start`).
    pub total_ms: u64,
    /// Every stage span in causal order with its exclusive
    /// contribution; the stages with `exclusive_ms > 0` are the
    /// critical path.
    pub stages: Vec<StageCost>,
}

impl CriticalPath {
    /// One-line human rendering: total latency plus the stages that
    /// exclusively contributed to it, e.g.
    /// `trace 3: 38 ms = request 3ms@n0 -> sign 21ms@n0 -> commit 14ms@n1`.
    pub fn render(&self) -> String {
        let mut parts: Vec<String> = self
            .stages
            .iter()
            .filter(|s| s.exclusive_ms > 0)
            .map(|s| format!("{} {}ms@{}", s.stage, s.exclusive_ms, s.node))
            .collect();
        if parts.is_empty() {
            parts = self
                .stages
                .iter()
                .map(|s| format!("{} 0ms@{}", s.stage, s.node))
                .collect();
        }
        format!("trace {}: {} ms = {}", self.trace, self.total_ms, parts.join(" -> "))
    }
}

/// Computes the critical path of an assembled trace: spans are walked
/// in causal order and each is attributed the virtual time it added
/// beyond what earlier stages already covered. Causal order is start
/// time, then the event each span began at, then sequence number. A
/// stage is recorded when it ends, so its own `seq` orders ends; one
/// whose parent ended as it began (`sign` after its `append` marker,
/// `replicate` after `sign`) began at its parent's record. Deterministic:
/// same spans, same path.
pub fn critical_path(tree: &TraceTree) -> CriticalPath {
    let began_at = |n: &TraceNode| match n.parent.map(|p| &tree.nodes[p].span) {
        Some(p) if p.seq == n.span.parent && p.end == n.span.start => p.seq,
        _ => n.span.seq,
    };
    let mut nodes: Vec<&TraceNode> = tree.nodes.iter().collect();
    nodes.sort_by_key(|n| (n.span.start, began_at(n), n.span.seq));
    let spans: Vec<&TraceSpan> = nodes.into_iter().map(|n| &n.span).collect();
    let start = spans.first().map(|s| s.start).unwrap_or(0);
    let mut covered = start;
    let mut stages = Vec::with_capacity(spans.len());
    for s in spans {
        let exclusive = s.end.saturating_sub(covered.max(s.start));
        covered = covered.max(s.end);
        stages.push(StageCost {
            stage: s.stage.clone(),
            node: s.node.clone(),
            start: s.start,
            end: s.end,
            exclusive_ms: exclusive,
        });
    }
    CriticalPath { trace: tree.trace, start, end: covered, total_ms: covered - start, stages }
}

/// Convenience: assemble every trace in `snapshot` and return its
/// critical path, ordered by trace id.
pub fn critical_paths(snapshot: &Snapshot) -> Vec<CriticalPath> {
    assemble(&snapshot.trace_spans).iter().map(critical_path).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{NodeRef, Registry};

    fn record(
        reg: &Registry,
        trace: u64,
        parent: u64,
        stage: &'static str,
        node: NodeRef,
        start: u64,
        end: u64,
    ) {
        reg.set_now(end);
        reg.trace_span(TraceId(trace), SpanId(parent), stage, node, start);
    }

    #[test]
    fn assemble_links_parents_and_groups_by_trace() {
        let reg = Registry::new();
        let n0 = reg.node_ref("n0");
        let n1 = reg.node_ref("n1");
        reg.set_now(10);
        let (root, _) = reg.trace_mark(TraceId(1), SpanId::NONE, "request", n0);
        record(&reg, 2, 0, "request", n1, 10, 12);
        reg.set_now(20);
        reg.trace_span(TraceId(1), root, "append", n0, 10);
        let trees = assemble(&reg.snapshot().trace_spans);
        assert_eq!(trees.len(), 2);
        assert_eq!(trees[0].trace, 1);
        assert_eq!(trees[0].nodes.len(), 2);
        assert_eq!(trees[0].orphans, 0);
        // Trace 2's span sits between them in the ring; grouping by
        // trace links trace 1's append under its request root.
        assert_eq!(trees[0].nodes[0].span.stage, "request");
        assert_eq!(trees[0].nodes[1].span.stage, "append");
        assert_eq!(trees[0].nodes[1].parent, Some(0));
        assert_eq!(trees[0].nodes[0].children, vec![1]);
        assert_eq!(trees[1].trace, 2);
        assert!(trees[1].nodes[0].parent.is_none());
    }

    #[test]
    fn orphan_spans_reattach_to_chronological_root() {
        // Trace ring of 2: the root span is evicted by later stages.
        let reg = Registry::with_capacities(2, 8);
        let n0 = reg.node_ref("n0");
        reg.set_now(1);
        let (root_id, _) = reg.trace_mark(TraceId(1), SpanId::NONE, "request", n0);
        record(&reg, 1, root_id.0, "append", n0, 2, 2);
        record(&reg, 1, root_id.0, "sign", n0, 2, 5);
        record(&reg, 1, root_id.0, "commit", n0, 2, 9);
        let snap = reg.snapshot();
        assert_eq!(snap.trace_spans_total, 4);
        assert_eq!(snap.trace_spans.len(), 2); // root + append evicted
        let trees = assemble(&snap.trace_spans);
        assert_eq!(trees.len(), 1);
        let tree = &trees[0];
        // "sign" became the chronological root; "commit"'s parent (the
        // evicted request span) is gone, so it re-attaches as an orphan.
        assert_eq!(tree.nodes[0].span.stage, "sign");
        assert!(tree.nodes[0].parent.is_none());
        assert_eq!(tree.nodes[1].span.stage, "commit");
        assert_eq!(tree.nodes[1].parent, Some(0));
        assert_eq!(tree.orphans, 1);
        assert!(tree.committed());
        // Critical path still computes over the surviving spans.
        let cp = critical_path(tree);
        assert_eq!(cp.total_ms, 7);
    }

    #[test]
    fn critical_path_attributes_exclusive_time() {
        let reg = Registry::new();
        let n0 = reg.node_ref("n0");
        let n1 = reg.node_ref("n1");
        // request 0..4 overlaps sign 2..10; replicate 10..16 extends;
        // commit marker at 16 adds nothing.
        record(&reg, 1, 0, "request", n0, 0, 4);
        record(&reg, 1, 0, "sign", n0, 2, 10);
        record(&reg, 1, 0, "replicate", n0, 10, 16);
        record(&reg, 1, 0, "commit", n1, 16, 16);
        let trees = assemble(&reg.snapshot().trace_spans);
        let cp = critical_path(&trees[0]);
        assert_eq!(cp.total_ms, 16);
        let excl: Vec<(String, u64)> =
            cp.stages.iter().map(|s| (s.stage.clone(), s.exclusive_ms)).collect();
        assert_eq!(
            excl,
            vec![
                ("request".to_string(), 4),
                ("sign".to_string(), 6),
                ("replicate".to_string(), 6),
                ("commit".to_string(), 0),
            ]
        );
        let line = cp.render();
        assert!(line.contains("trace 1: 16 ms"), "{line}");
        assert!(line.contains("sign 6ms@n0"), "{line}");
        assert!(!line.contains("commit 0ms"), "{line}");
    }

    #[test]
    fn critical_path_orders_equal_starts_by_the_event_they_began_at() {
        let reg = Registry::new();
        let n1 = reg.node_ref("n1");
        let n2 = reg.node_ref("n2");
        // n1 appends before n2 in the same millisecond, but n2's commit
        // ends (and is recorded) first.
        let (a1, _) = reg.trace_mark(TraceId(1), SpanId::NONE, "append", n1);
        let (a2, _) = reg.trace_mark(TraceId(1), SpanId::NONE, "append", n2);
        reg.set_now(5);
        reg.trace_span(TraceId(1), a2, "commit", n2, 0);
        reg.set_now(8);
        reg.trace_span(TraceId(1), a1, "commit", n1, 0);
        let cp = critical_path(&assemble(&reg.snapshot().trace_spans)[0]);
        let order: Vec<(&str, &str, u64)> =
            cp.stages.iter().map(|s| (s.stage.as_str(), s.node.as_str(), s.exclusive_ms)).collect();
        assert_eq!(
            order,
            vec![("append", "n1", 0), ("commit", "n1", 8), ("append", "n2", 0), ("commit", "n2", 0)]
        );
        assert_eq!(cp.render(), "trace 1: 8 ms = commit 8ms@n1");
    }

    #[test]
    fn critical_path_of_marker_only_trace_renders() {
        let reg = Registry::new();
        let n0 = reg.node_ref("n0");
        record(&reg, 1, 0, "append", n0, 5, 5);
        let snap = reg.snapshot();
        let cps = critical_paths(&snap);
        assert_eq!(cps.len(), 1);
        assert_eq!(cps[0].total_ms, 0);
        assert!(cps[0].render().contains("append 0ms@n0"));
    }
}
