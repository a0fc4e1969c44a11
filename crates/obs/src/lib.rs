//! Deterministic observability for the CCF reproduction: RED-style
//! metrics, Dapper-style causal request traces, and a crash-forensics
//! flight recorder — with no dependencies.
//!
//! The paper evaluates CCF with per-subsystem breakdowns (§7, Figs.
//! 7–9); this crate provides the plumbing to see where *virtual* time
//! goes inside a run. Because every instrumented component runs on the
//! deterministic simulator (`ccf-sim`), all timestamps come from
//! virtual time and every counter increment happens in a fixed order —
//! so two runs from the same seed produce **byte-identical**
//! [`Snapshot`]s, and CI can diff them.
//!
//! # Model
//!
//! * [`Registry`] — a cheaply-cloneable handle (an `Arc`) owning all
//!   metrics of one run, with all of its state behind one lock. There
//!   is deliberately no process-global registry: each
//!   `Cluster`/`ServiceCluster`/chaos run owns its own, so parallel
//!   tests never share state and same-seed runs snapshot identically.
//! * [`Counter`] / [`Gauge`] — monotone and last-write-wins `u64`
//!   cells. Handles are shared atomic cells: fetch them once (e.g.
//!   into a per-replica metrics struct) and increment without the
//!   registry lock on the hot path.
//! * [`Histogram`] — fixed bucket boundaries declared at registration
//!   (`le`-style cumulative export), plus count and sum. No dynamic
//!   resizing, so observation cost is a branchless-ish scan over a
//!   handful of atomics.
//! * Traces — [`Registry::mint_trace`] issues a [`TraceId`] when a user
//!   request enters the node; components along the write path record
//!   stage spans against it with [`Registry::trace_enter`] /
//!   [`Registry::trace_exit`] (stages: `forward`, `request`,
//!   `append`, `sign`, `replicate`, `commit`, `receipt`) into a bounded
//!   ring buffer (old spans are overwritten, a total count is kept).
//!   Each span stamps the registry's virtual time and a monotone
//!   sequence number; off-simulation — when nothing calls
//!   [`Registry::set_now`] — the virtual clock stays at zero and the
//!   sequence number alone orders events. The id — a plain `u64` —
//!   rides the replicated entry it traces, so a trace spans nodes.
//!   [`trace::assemble`] rebuilds trace trees from a snapshot and
//!   computes per-stage critical paths.
//! * Flight recorder — [`Registry::flight`] records bounded structured
//!   protocol events (message send/recv/drop, elections, commits,
//!   rollbacks, snapshots). The chaos invariant checker reads it
//!   incrementally with [`Registry::flight_since`]; when an invariant
//!   trips, the last N events — already in causal order — are the crash
//!   forensics.
//! * [`Snapshot`] / JSON — [`Registry::snapshot`] captures everything
//!   into plain sorted maps; [`Snapshot::to_json`] renders them with
//!   deterministic key order and no floats.
//!
//! # Naming scheme
//!
//! Metric names are `&'static str`, dot-separated, `subsystem.metric`:
//! `consensus.*` (replica protocol), `node.*` (request path),
//! `ledger.*` (Merkle/encryption), `net.*` (simulated network),
//! `crypto.*` (signature verification). See `DESIGN.md` §10 and §12.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod trace;

pub use trace::{SpanId, TraceId};

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Default capacity of the trace-span ring buffer.
pub const DEFAULT_TRACE_CAPACITY: usize = 4096;

/// Default capacity of the flight-recorder ring buffer.
pub const DEFAULT_FLIGHT_CAPACITY: usize = 512;

/// A monotone counter. Cloning shares the underlying cell, so a handle
/// can be cached once and incremented lock-free on the hot path.
#[derive(Clone, Debug, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Increments by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increments by `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-write-wins `u64` cell (queue depths, commit seqnos, …).
#[derive(Clone, Debug, Default)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Sets the gauge to `v`.
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Raises the gauge to `v` if `v` is larger (monotone high-water).
    pub fn fetch_max(&self, v: u64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[derive(Debug)]
struct HistogramInner {
    /// Upper bounds (inclusive) of each bucket; an implicit `+inf`
    /// bucket follows the last bound.
    bounds: &'static [u64],
    /// `bounds.len() + 1` cells; the last is the overflow bucket. Their
    /// total is the observation count.
    buckets: Vec<AtomicU64>,
    sum: AtomicU64,
}

/// A histogram with fixed bucket boundaries declared at registration.
///
/// A value `v` lands in the first bucket whose bound satisfies
/// `v <= bound`, or in the implicit overflow bucket past the last
/// bound. Export is per-bucket (not cumulative); count and sum ride
/// along so averages need no float arithmetic.
#[derive(Clone, Debug)]
pub struct Histogram(Arc<HistogramInner>);

impl Histogram {
    fn new(bounds: &'static [u64]) -> Self {
        debug_assert!(bounds.windows(2).all(|w| w[0] < w[1]), "bounds must be strictly increasing");
        let buckets = (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect();
        Histogram(Arc::new(HistogramInner { bounds, buckets, sum: AtomicU64::new(0) }))
    }

    /// Records one observation of `v`.
    pub fn observe(&self, v: u64) {
        let inner = &self.0;
        let idx = inner.bounds.iter().position(|&b| v <= b).unwrap_or(inner.bounds.len());
        inner.buckets[idx].fetch_add(1, Ordering::Relaxed);
        inner.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.0.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// Sum of all observed values.
    pub fn sum(&self) -> u64 {
        self.0.sum.load(Ordering::Relaxed)
    }

    fn snapshot(&self) -> HistogramSnapshot {
        let buckets: Vec<u64> = self.0.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect();
        HistogramSnapshot {
            bounds: self.0.bounds.to_vec(),
            count: buckets.iter().sum(),
            buckets,
            sum: self.sum(),
        }
    }
}

/// A bounded ring: keeps the last `capacity` items, counts everything.
#[derive(Debug)]
struct Ring<T> {
    buf: Vec<T>,
    /// Next slot to overwrite once the buffer is full.
    head: usize,
    /// Total items ever recorded (including overwritten ones).
    total: u64,
    capacity: usize,
}

impl<T> Ring<T> {
    fn new(capacity: usize) -> Self {
        Ring { buf: Vec::new(), head: 0, total: 0, capacity }
    }

    fn push(&mut self, rec: T) {
        self.total += 1;
        if self.capacity == 0 {
            return;
        }
        if self.buf.len() < self.capacity {
            self.buf.push(rec);
        } else {
            self.buf[self.head] = rec;
            self.head = (self.head + 1) % self.capacity;
        }
    }

    /// Contents in recording order (oldest retained first).
    fn ordered(&self) -> impl Iterator<Item = &T> {
        self.newest(self.buf.len())
    }

    /// The last `k` retained items in recording order (fewer if the ring
    /// holds fewer).
    fn newest(&self, k: usize) -> impl Iterator<Item = &T> {
        let len = self.buf.len();
        (len - k.min(len)..len).map(move |i| &self.buf[(self.head + i) % len])
    }
}

/// An interned node name: a cheap `Copy` id handed out by
/// [`Registry::node_ref`]. Trace spans and flight events carry these
/// instead of `String`s so recording never allocates; snapshots resolve
/// them back to names.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct NodeRef(u32);

impl NodeRef {
    /// The anonymous node (renders as the empty string).
    pub const ANON: NodeRef = NodeRef(u32::MAX);
}

/// An in-flight trace stage span: returned by
/// [`Registry::trace_enter`], consumed by [`Registry::trace_exit`].
/// `Copy`, so protocol state machines can park tokens in maps keyed by
/// seqno and drop them wholesale on rollback (dropping records
/// nothing — a rolled-back stage never happened).
#[derive(Clone, Copy, Debug)]
pub struct TraceSpanToken {
    trace: TraceId,
    parent: SpanId,
    stage: &'static str,
    node: NodeRef,
    start: u64,
    seq: u64,
}

impl TraceSpanToken {
    /// The span id this token will record under — usable as the
    /// `parent` of child stages before the token is exited.
    pub fn id(&self) -> SpanId {
        SpanId(self.seq)
    }

    /// The trace this token belongs to.
    pub fn trace(&self) -> TraceId {
        self.trace
    }

    /// The virtual-time start stamped at enter.
    pub fn start(&self) -> u64 {
        self.start
    }
}

/// Internal ring representation of a completed trace stage span (no
/// owned strings; see [`TraceSpan`] for the snapshot form).
#[derive(Clone, Copy, Debug)]
struct TraceRec {
    trace: u64,
    parent: u64,
    stage: &'static str,
    node: u32,
    start: u64,
    end: u64,
    seq: u64,
}

/// One completed trace stage span as captured in a [`Snapshot`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceSpan {
    /// The trace this stage belongs to (ids are minted from 1; 0 never
    /// appears in a snapshot).
    pub trace: u64,
    /// Sequence number of the parent span, or 0 for a root / unknown
    /// parent. A nonzero parent absent from the retained set means the
    /// parent was evicted from the ring (an *orphan* — see
    /// [`trace::assemble`]).
    pub parent: u64,
    /// Stage name: `forward`, `request`, `append`, `sign`,
    /// `replicate`, `commit`, `receipt`.
    pub stage: String,
    /// The node the stage ran on (interned at record time).
    pub node: String,
    /// Virtual-time start (ms).
    pub start: u64,
    /// Virtual-time end (ms).
    pub end: u64,
    /// Monotone sequence number — doubles as this span's [`SpanId`].
    pub seq: u64,
}

/// Internal ring representation of a flight-recorder event.
#[derive(Clone, Copy, Debug)]
struct FlightRec {
    at: u64,
    seq: u64,
    node: u32,
    kind: &'static str,
    tag: &'static str,
    peer: u32,
    a: u64,
    b: u64,
}

/// One structured protocol event as captured in a [`Snapshot`] —
/// the unit of crash forensics. Events are causally ordered by `seq`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FlightRecord {
    /// Virtual time of the event (ms).
    pub at: u64,
    /// Monotone sequence number (causal order across the whole run).
    pub seq: u64,
    /// The node the event happened on.
    pub node: String,
    /// Event kind: `send`, `recv`, `drop`, `election`, `rollback`,
    /// `snapshot`, `invariant`.
    pub kind: String,
    /// Kind-specific tag (e.g. the message kind for net events).
    pub tag: String,
    /// The peer node, if the event involves one (empty otherwise).
    pub peer: String,
    /// First kind-specific payload value (e.g. a view).
    pub a: u64,
    /// Second kind-specific payload value (e.g. a seqno).
    pub b: u64,
}

impl FlightRecord {
    /// One-line human rendering, e.g.
    /// `[t=120 #88] n0 -> n2 send append_entries a=2 b=17`.
    pub fn render(&self) -> String {
        let peer = if self.peer.is_empty() {
            String::new()
        } else {
            format!(" -> {}", self.peer)
        };
        format!(
            "[t={} #{}] {}{} {} {} a={} b={}",
            self.at, self.seq, self.node, peer, self.kind, self.tag, self.a, self.b
        )
    }
}

/// Everything one run's registry holds, behind its one lock.
#[derive(Debug)]
struct State {
    counters: BTreeMap<&'static str, Counter>,
    gauges: BTreeMap<&'static str, Gauge>,
    histograms: BTreeMap<&'static str, Histogram>,
    traces: Ring<TraceRec>,
    flight: Ring<FlightRec>,
    /// Interned node names; a [`NodeRef`] indexes this vec.
    nodes: Vec<String>,
    /// Virtual time, fed by the harness driving the run.
    now: u64,
    /// Last event sequence number handed out; the ordering stub
    /// off-simulation. Numbers start at 1 so 0 can mean "no parent" in
    /// trace spans.
    seq: u64,
    /// Trace ids minted so far; ids start at 1 (0 = `TraceId::NONE`).
    trace_ids: u64,
}

impl State {
    fn next_seq(&mut self) -> u64 {
        self.seq += 1;
        self.seq
    }

    /// The name interned as `r`; empty for [`NodeRef::ANON`].
    fn node_name(&self, r: u32) -> String {
        self.nodes.get(r as usize).cloned().unwrap_or_default()
    }

    fn trace_enter(
        &mut self,
        trace: TraceId,
        parent: SpanId,
        stage: &'static str,
        node: NodeRef,
    ) -> TraceSpanToken {
        let seq = if trace.is_none() { 0 } else { self.next_seq() };
        TraceSpanToken { trace, parent, stage, node, start: self.now, seq }
    }

    fn trace_exit(&mut self, token: TraceSpanToken) -> SpanId {
        if token.trace.is_none() {
            return SpanId::NONE;
        }
        let rec = TraceRec {
            trace: token.trace.0,
            parent: token.parent.0,
            stage: token.stage,
            node: token.node.0,
            start: token.start,
            end: self.now,
            seq: token.seq,
        };
        self.traces.push(rec);
        SpanId(token.seq)
    }

    fn resolve_flight(&self, r: &FlightRec) -> FlightRecord {
        FlightRecord {
            at: r.at,
            seq: r.seq,
            node: self.node_name(r.node),
            kind: r.kind.to_string(),
            tag: r.tag.to_string(),
            peer: self.node_name(r.peer),
            a: r.a,
            b: r.b,
        }
    }
}

/// A registry of metrics, traces and flight events for one run. Cloning
/// yields another handle to the same state. Every method takes the
/// registry's one lock once, so a sequence number and the ring slot of
/// the record it stamps are assigned under the same hold: ring order is
/// `seq` order.
#[derive(Clone, Debug)]
pub struct Registry(Arc<std::sync::Mutex<State>>);

impl Default for Registry {
    fn default() -> Self {
        Registry::new()
    }
}

impl Registry {
    /// Creates an empty registry with the default capacities.
    pub fn new() -> Self {
        Registry::with_capacities(DEFAULT_TRACE_CAPACITY, DEFAULT_FLIGHT_CAPACITY)
    }

    /// Creates an empty registry with explicit ring capacities for trace
    /// stage spans and flight-recorder events (older entries are
    /// overwritten; the totals are still counted).
    pub fn with_capacities(traces: usize, flight: usize) -> Self {
        Registry(Arc::new(std::sync::Mutex::new(State {
            counters: BTreeMap::new(),
            gauges: BTreeMap::new(),
            histograms: BTreeMap::new(),
            traces: Ring::new(traces),
            flight: Ring::new(flight),
            nodes: Vec::new(),
            now: 0,
            seq: 0,
            trace_ids: 0,
        })))
    }

    /// The one hold of the registry lock a method takes. std's lock is
    /// not reentrant: nothing called under the guard may take it again.
    fn state(&self) -> std::sync::MutexGuard<'_, State> {
        self.0.lock().expect("a thread panicked while holding the registry lock")
    }

    /// Returns the counter registered under `name`, creating it on
    /// first use. Cache the handle; do not call this on a hot path.
    pub fn counter(&self, name: &'static str) -> Counter {
        self.state().counters.entry(name).or_default().clone()
    }

    /// Returns the gauge registered under `name`, creating it on first
    /// use.
    pub fn gauge(&self, name: &'static str) -> Gauge {
        self.state().gauges.entry(name).or_default().clone()
    }

    /// Returns the histogram registered under `name`, creating it with
    /// `bounds` on first use.
    ///
    /// **First registration wins**: later calls for the same name
    /// return the existing histogram and their `bounds` argument is
    /// ignored. Re-registering with *different* bounds is a bug in the
    /// caller (the recorded buckets would not mean what the call site
    /// thinks) and trips a `debug_assert!`.
    pub fn histogram(&self, name: &'static str, bounds: &'static [u64]) -> Histogram {
        let mut s = self.state();
        let h = s.histograms.entry(name).or_insert_with(|| Histogram::new(bounds));
        debug_assert_eq!(
            h.0.bounds, bounds,
            "histogram {name:?} re-registered with different bounds (first registration wins)"
        );
        h.clone()
    }

    /// Advances the virtual clock to `t` (monotone: earlier values are
    /// ignored). Harnesses call this once per simulation step.
    pub fn set_now(&self, t: u64) {
        let mut s = self.state();
        s.now = s.now.max(t);
    }

    /// Current virtual time (0 until [`set_now`](Registry::set_now) is
    /// first called — the off-simulation stub). Every timestamp the
    /// registry records, and every stage latency derived from a span, is
    /// read off this clock.
    pub fn now(&self) -> u64 {
        self.state().now
    }

    /// Interns `name`, returning a cheap `Copy` reference for use in
    /// trace spans and flight events. Call once per component, not on
    /// a hot path.
    pub fn node_ref(&self, name: &str) -> NodeRef {
        let mut s = self.state();
        if let Some(i) = s.nodes.iter().position(|n| n == name) {
            return NodeRef(i as u32);
        }
        s.nodes.push(name.to_string());
        NodeRef((s.nodes.len() - 1) as u32)
    }

    /// Mints a fresh [`TraceId`] — called when a user request enters
    /// the node. Ids are dense from 1, so same-seed runs mint identical
    /// ids in identical order.
    pub fn mint_trace(&self) -> TraceId {
        let mut s = self.state();
        s.trace_ids += 1;
        TraceId(s.trace_ids)
    }

    /// Opens a trace stage span for `trace`, starting now. `parent` is
    /// the enclosing stage's [`SpanId`] ([`SpanId::NONE`] for a root).
    /// With `trace == TraceId::NONE` the returned token is inert:
    /// exiting it records nothing.
    pub fn trace_enter(
        &self,
        trace: TraceId,
        parent: SpanId,
        stage: &'static str,
        node: NodeRef,
    ) -> TraceSpanToken {
        self.state().trace_enter(trace, parent, stage, node)
    }

    /// Closes a trace stage span, recording it into the trace ring.
    /// Returns the recorded [`SpanId`] (usable as a child's parent).
    /// No-op for inert tokens (minted against [`TraceId::NONE`]).
    pub fn trace_exit(&self, token: TraceSpanToken) -> SpanId {
        self.state().trace_exit(token)
    }

    /// Records a zero-duration trace stage marker (enter + exit now).
    pub fn trace_mark(
        &self,
        trace: TraceId,
        parent: SpanId,
        stage: &'static str,
        node: NodeRef,
    ) -> SpanId {
        let mut s = self.state();
        let token = s.trace_enter(trace, parent, stage, node);
        s.trace_exit(token)
    }

    /// Records a structured protocol event into the flight recorder.
    /// `a` and `b` are kind-specific payloads (views, seqnos, counts).
    pub fn flight(
        &self,
        node: NodeRef,
        kind: &'static str,
        tag: &'static str,
        peer: Option<NodeRef>,
        a: u64,
        b: u64,
    ) {
        let mut s = self.state();
        let rec = FlightRec {
            at: s.now,
            seq: s.next_seq(),
            node: node.0,
            kind,
            tag,
            peer: peer.unwrap_or(NodeRef::ANON).0,
            a,
            b,
        };
        s.flight.push(rec);
    }

    /// Total flight-recorder events ever recorded, overwritten ones
    /// included: the cursor a [`Registry::flight_since`] reader starts
    /// from.
    pub fn flight_total(&self) -> u64 {
        self.state().flight.total
    }

    /// The flight records pushed since the total was `since` (an earlier
    /// [`Registry::flight_total`]), oldest first, with the new total. A
    /// reader that fell more than the ring's capacity behind gets only
    /// the retained tail: `total - since - records.len()` were lost. The
    /// cursor is the ring's total, not `seq`, which trace spans share.
    pub fn flight_since(&self, since: u64) -> (u64, Vec<FlightRecord>) {
        let s = self.state();
        let new = usize::try_from(s.flight.total.saturating_sub(since)).unwrap_or(usize::MAX);
        (s.flight.total, s.flight.newest(new).map(|r| s.resolve_flight(r)).collect())
    }

    /// Captures everything into a plain, comparable [`Snapshot`].
    pub fn snapshot(&self) -> Snapshot {
        let s = self.state();
        let trace_spans = s
            .traces
            .ordered()
            .map(|r| TraceSpan {
                trace: r.trace,
                parent: r.parent,
                stage: r.stage.to_string(),
                node: s.node_name(r.node),
                start: r.start,
                end: r.end,
                seq: r.seq,
            })
            .collect();
        Snapshot {
            counters: s.counters.iter().map(|(k, v)| (k.to_string(), v.get())).collect(),
            gauges: s.gauges.iter().map(|(k, v)| (k.to_string(), v.get())).collect(),
            histograms: s.histograms.iter().map(|(k, v)| (k.to_string(), v.snapshot())).collect(),
            trace_spans_total: s.traces.total,
            trace_spans,
            flight_total: s.flight.total,
            flight: s.flight.ordered().map(|r| s.resolve_flight(r)).collect(),
        }
    }
}

/// One histogram's state inside a [`Snapshot`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Inclusive upper bounds, one per non-overflow bucket.
    pub bounds: Vec<u64>,
    /// Per-bucket counts; `bounds.len() + 1` entries, last is overflow.
    pub buckets: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: u64,
}

/// A point-in-time capture of a [`Registry`]: plain sorted maps, fully
/// comparable. Two same-seed simulator runs produce `==` snapshots and
/// byte-identical [`to_json`](Snapshot::to_json) output.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct Snapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, u64>,
    /// Histogram states by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
    /// Total trace stage spans ever recorded.
    pub trace_spans_total: u64,
    /// Retained trace stage spans, oldest first.
    pub trace_spans: Vec<TraceSpan>,
    /// Total flight-recorder events ever recorded.
    pub flight_total: u64,
    /// Retained flight-recorder events, causally ordered.
    pub flight: Vec<FlightRecord>,
}

/// The difference between two [`Snapshot`]s, as produced by
/// [`Snapshot::diff`]: every metric whose value differs, as
/// `(name, self, other)` (missing counts as 0).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SnapshotDiff {
    /// Counters that differ.
    pub counters: Vec<(String, u64, u64)>,
    /// Gauges that differ.
    pub gauges: Vec<(String, u64, u64)>,
    /// Histograms whose observation *count* differs.
    pub histogram_counts: Vec<(String, u64, u64)>,
}

impl SnapshotDiff {
    /// True when nothing differs.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histogram_counts.is_empty()
    }

    /// Multi-line human rendering (`kind name: a vs b`), empty string
    /// when nothing differs.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (kind, rows) in [
            ("counter", &self.counters),
            ("gauge", &self.gauges),
            ("histogram", &self.histogram_counts),
        ] {
            for (name, a, b) in rows {
                let _ = writeln!(out, "    {kind} {name}: {a} vs {b}");
            }
        }
        out
    }
}

fn diff_maps<'a, I, J>(a: I, b: J) -> Vec<(String, u64, u64)>
where
    I: Iterator<Item = (&'a String, u64)>,
    J: Iterator<Item = (&'a String, u64)>,
{
    let a: BTreeMap<&String, u64> = a.collect();
    let b: BTreeMap<&String, u64> = b.collect();
    let mut names: Vec<&String> = a.keys().copied().collect();
    for k in b.keys() {
        if !a.contains_key(*k) {
            names.push(k);
        }
    }
    names.sort();
    names
        .into_iter()
        .filter_map(|name| {
            let x = a.get(name).copied().unwrap_or(0);
            let y = b.get(name).copied().unwrap_or(0);
            (x != y).then(|| (name.clone(), x, y))
        })
        .collect()
}

impl Snapshot {
    /// Renders the snapshot as JSON with deterministic key order.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n  \"counters\": {");
        join_map(&mut s, self.counters.iter(), |s, (k, v)| {
            let _ = write!(s, "\"{}\": {}", escape(k), v);
        });
        s.push_str("},\n  \"gauges\": {");
        join_map(&mut s, self.gauges.iter(), |s, (k, v)| {
            let _ = write!(s, "\"{}\": {}", escape(k), v);
        });
        s.push_str("},\n  \"histograms\": {");
        join_map(&mut s, self.histograms.iter(), |s, (k, h)| {
            let _ = write!(
                s,
                "\"{}\": {{\"bounds\": {:?}, \"buckets\": {:?}, \"count\": {}, \"sum\": {}}}",
                escape(k),
                h.bounds,
                h.buckets,
                h.count,
                h.sum
            );
        });
        let _ = write!(
            s,
            "}},\n  \"trace_spans_total\": {},\n  \"trace_spans\": [",
            self.trace_spans_total
        );
        join_map(&mut s, self.trace_spans.iter(), |s, r| {
            let _ = write!(
                s,
                "{{\"trace\": {}, \"parent\": {}, \"stage\": \"{}\", \"node\": \"{}\", \
                 \"start\": {}, \"end\": {}, \"seq\": {}}}",
                r.trace,
                r.parent,
                escape(&r.stage),
                escape(&r.node),
                r.start,
                r.end,
                r.seq
            );
        });
        let _ = write!(s, "],\n  \"flight_total\": {},\n  \"flight\": [", self.flight_total);
        join_map(&mut s, self.flight.iter(), |s, r| {
            let _ = write!(
                s,
                "{{\"at\": {}, \"seq\": {}, \"node\": \"{}\", \"kind\": \"{}\", \
                 \"tag\": \"{}\", \"peer\": \"{}\", \"a\": {}, \"b\": {}}}",
                r.at,
                r.seq,
                escape(&r.node),
                escape(&r.kind),
                escape(&r.tag),
                escape(&r.peer),
                r.a,
                r.b
            );
        });
        s.push_str("]\n}\n");
        s
    }

    /// Full difference against `other`: counters, gauges, and
    /// histogram observation counts. The chaos sweeper prints this on
    /// invariant violations to show what a failing seed did differently
    /// from the last passing one.
    pub fn diff(&self, other: &Snapshot) -> SnapshotDiff {
        SnapshotDiff {
            counters: diff_maps(
                self.counters.iter().map(|(k, v)| (k, *v)),
                other.counters.iter().map(|(k, v)| (k, *v)),
            ),
            gauges: diff_maps(
                self.gauges.iter().map(|(k, v)| (k, *v)),
                other.gauges.iter().map(|(k, v)| (k, *v)),
            ),
            histogram_counts: diff_maps(
                self.histograms.iter().map(|(k, h)| (k, h.count)),
                other.histograms.iter().map(|(k, h)| (k, h.count)),
            ),
        }
    }
}

fn join_map<I: Iterator>(s: &mut String, items: I, mut f: impl FnMut(&mut String, I::Item)) {
    let mut first = true;
    for item in items {
        if !first {
            s.push_str(", ");
        }
        first = false;
        f(s, item);
    }
}

/// Minimal JSON string escaping; metric names are static identifiers,
/// but span/snapshot consumers must never be able to break the output.
fn escape(raw: &str) -> String {
    let mut out = String::with_capacity(raw.len());
    for c in raw.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let reg = Registry::new();
        let c = reg.counter("x.count");
        c.inc();
        c.add(4);
        assert_eq!(reg.counter("x.count").get(), 5);
        let g = reg.gauge("x.depth");
        g.set(7);
        g.set(3);
        assert_eq!(g.get(), 3);
        g.fetch_max(2);
        assert_eq!(g.get(), 3);
        g.fetch_max(9);
        assert_eq!(g.get(), 9);
    }

    #[test]
    fn histogram_bucket_boundaries() {
        let reg = Registry::new();
        let h = reg.histogram("h", &[1, 4, 16]);
        // Bounds are inclusive: v <= bound.
        h.observe(0); // bucket 0
        h.observe(1); // bucket 0 (boundary)
        h.observe(2); // bucket 1
        h.observe(4); // bucket 1 (boundary)
        h.observe(5); // bucket 2
        h.observe(16); // bucket 2 (boundary)
        h.observe(17); // overflow
        h.observe(9000); // overflow
        let snap = reg.snapshot();
        let hs = &snap.histograms["h"];
        assert_eq!(hs.bounds, vec![1, 4, 16]);
        assert_eq!(hs.buckets, vec![2, 2, 2, 2]);
        assert_eq!(hs.count, 8);
        assert_eq!(hs.sum, 1 + 2 + 4 + 5 + 16 + 17 + 9000);
    }

    #[test]
    fn histogram_same_name_returns_same_cells() {
        let reg = Registry::new();
        reg.histogram("h", &[10]).observe(3);
        reg.histogram("h", &[10]).observe(4);
        assert_eq!(reg.histogram("h", &[10]).count(), 2);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "first registration wins")]
    fn histogram_bounds_mismatch_is_detected() {
        let reg = Registry::new();
        let _ = reg.histogram("h", &[10, 20]);
        let _ = reg.histogram("h", &[10, 30]);
    }

    #[test]
    fn span_ring_wraparound() {
        let reg = Registry::with_capacities(3, DEFAULT_FLIGHT_CAPACITY);
        let n = reg.node_ref("n0");
        for i in 0..5u64 {
            reg.set_now(i * 10);
            let t = reg.trace_enter(reg.mint_trace(), SpanId::NONE, "request", n);
            reg.set_now(i * 10 + 1);
            reg.trace_exit(t);
        }
        let snap = reg.snapshot();
        assert_eq!(snap.trace_spans_total, 5);
        assert_eq!(snap.trace_spans.len(), 3);
        // Oldest retained first: spans 2, 3, 4.
        assert_eq!(
            snap.trace_spans.iter().map(|s| s.start).collect::<Vec<_>>(),
            vec![20, 30, 40]
        );
        assert!(snap.trace_spans.windows(2).all(|w| w[0].seq < w[1].seq));
    }

    #[test]
    fn zero_capacity_ring_counts_but_retains_nothing() {
        let reg = Registry::with_capacities(0, DEFAULT_FLIGHT_CAPACITY);
        reg.trace_mark(reg.mint_trace(), SpanId::NONE, "commit", NodeRef::ANON);
        let snap = reg.snapshot();
        assert_eq!(snap.trace_spans_total, 1);
        assert!(snap.trace_spans.is_empty());
    }

    #[test]
    fn virtual_clock_is_monotone() {
        let reg = Registry::new();
        assert_eq!(reg.now(), 0);
        reg.set_now(100);
        reg.set_now(50); // ignored
        assert_eq!(reg.now(), 100);
    }

    #[test]
    fn snapshot_json_is_deterministic_and_sorted() {
        let build = || {
            let reg = Registry::new();
            reg.counter("b.second").add(2);
            reg.counter("a.first").inc();
            reg.gauge("z.depth").set(9);
            reg.histogram("lat", &[1, 2]).observe(3);
            reg.set_now(42);
            let n = reg.node_ref("n0");
            let tr = reg.mint_trace();
            let tok = reg.trace_enter(tr, SpanId::NONE, "request", n);
            reg.trace_exit(tok);
            reg.flight(n, "send", "append_entries", Some(n), 1, 2);
            reg.snapshot().to_json()
        };
        let a = build();
        let b = build();
        assert_eq!(a, b);
        // Sorted key order regardless of registration order.
        assert!(a.find("a.first").unwrap() < a.find("b.second").unwrap());
        assert!(a.contains("\"trace_spans_total\": 1"));
        assert!(a.contains("\"flight_total\": 1"));
    }

    #[test]
    fn diff_counters_reports_changed_and_missing() {
        let a = Registry::new();
        a.counter("only_a").inc();
        a.counter("same").add(5);
        a.counter("diff").add(1);
        let b = Registry::new();
        b.counter("same").add(5);
        b.counter("diff").add(3);
        b.counter("only_b").add(2);
        let d = a.snapshot().diff(&b.snapshot());
        assert_eq!(
            d.counters,
            vec![
                ("diff".to_string(), 1, 3),
                ("only_a".to_string(), 1, 0),
                ("only_b".to_string(), 0, 2),
            ]
        );
    }

    #[test]
    fn full_diff_covers_gauges_and_histograms() {
        let a = Registry::new();
        a.counter("c").inc();
        a.gauge("g").set(4);
        a.histogram("h", &[10]).observe(1);
        a.histogram("h", &[10]).observe(2);
        let b = Registry::new();
        b.counter("c").inc();
        b.gauge("g").set(9);
        b.histogram("h", &[10]).observe(1);
        let d = a.snapshot().diff(&b.snapshot());
        assert!(d.counters.is_empty());
        assert_eq!(d.gauges, vec![("g".to_string(), 4, 9)]);
        assert_eq!(d.histogram_counts, vec![("h".to_string(), 2, 1)]);
        assert!(!d.is_empty());
        assert!(d.render().contains("gauge g: 4 vs 9"));
        let same = a.snapshot().diff(&a.snapshot());
        assert!(same.is_empty());
        assert_eq!(same.render(), "");
    }

    #[test]
    fn trace_spans_record_stage_node_and_parent() {
        let reg = Registry::new();
        let n0 = reg.node_ref("n0");
        let n1 = reg.node_ref("n1");
        assert_eq!(reg.node_ref("n0"), n0);
        let tr = reg.mint_trace();
        assert_eq!(tr, TraceId(1));
        reg.set_now(10);
        let root = reg.trace_enter(tr, SpanId::NONE, "request", n0);
        let child = reg.trace_enter(tr, root.id(), "append", n1);
        reg.set_now(15);
        reg.trace_exit(child);
        let root_id = reg.trace_exit(root);
        assert_eq!(root_id, root.id());
        let snap = reg.snapshot();
        assert_eq!(snap.trace_spans.len(), 2);
        let child_span = &snap.trace_spans[0];
        assert_eq!(child_span.stage, "append");
        assert_eq!(child_span.node, "n1");
        assert_eq!(child_span.parent, root.id().0);
        assert_eq!(child_span.start, 10);
        assert_eq!(child_span.end, 15);
        let root_span = &snap.trace_spans[1];
        assert_eq!(root_span.parent, 0);
        assert_eq!(root_span.node, "n0");
    }

    #[test]
    fn none_trace_tokens_are_inert() {
        let reg = Registry::new();
        let n = reg.node_ref("n0");
        let tok = reg.trace_enter(TraceId::NONE, SpanId::NONE, "request", n);
        assert_eq!(reg.trace_exit(tok), SpanId::NONE);
        assert_eq!(reg.trace_mark(TraceId::NONE, SpanId::NONE, "commit", n), SpanId::NONE);
        let snap = reg.snapshot();
        assert_eq!(snap.trace_spans_total, 0);
        assert!(snap.trace_spans.is_empty());
    }

    #[test]
    fn flight_recorder_is_bounded_and_causally_ordered() {
        let reg = Registry::with_capacities(8, 3);
        let n0 = reg.node_ref("n0");
        let n1 = reg.node_ref("n1");
        for i in 0..5u64 {
            reg.set_now(i);
            reg.flight(n0, "send", "append_entries", Some(n1), 1, i);
        }
        let snap = reg.snapshot();
        let recs = &snap.flight;
        assert_eq!(recs.len(), 3);
        assert!(recs.windows(2).all(|w| w[0].seq < w[1].seq));
        assert_eq!(recs.last().unwrap().b, 4);
        assert_eq!(snap.flight_total, 5);
        let line = recs[0].render();
        assert!(line.contains("n0 -> n1 send append_entries"), "{line}");
    }

    #[test]
    fn flight_since_reads_new_records_and_exposes_overwrites() {
        let reg = Registry::with_capacities(8, 3);
        let n0 = reg.node_ref("n0");
        assert_eq!(reg.flight_since(0), (0, Vec::new()));
        reg.flight(n0, "commit", "advance", None, 1, 2);
        reg.flight(n0, "commit", "advance", None, 1, 4);
        let (total, recs) = reg.flight_since(0);
        assert_eq!((total, recs.iter().map(|r| r.b).collect::<Vec<_>>()), (2, vec![2, 4]));
        assert_eq!(reg.flight_since(total), (2, Vec::new()));
        // Four more: the ring keeps three, so a reader at 2 lost one.
        for b in 5..9 {
            reg.flight(n0, "commit", "advance", None, 1, b);
        }
        let (total, recs) = reg.flight_since(2);
        assert_eq!(total, reg.flight_total());
        assert_eq!((total, recs.iter().map(|r| r.b).collect::<Vec<_>>()), (6, vec![6, 7, 8]));
        assert_eq!(recs, reg.snapshot().flight);
        let (_, tail) = reg.flight_since(5);
        assert_eq!(tail.iter().map(|r| r.b).collect::<Vec<_>>(), vec![8]);
    }

    #[test]
    fn escape_handles_control_and_quote() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\u{1}"), "\\u0001");
    }
}
