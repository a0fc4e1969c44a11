//! A deterministic discrete-event network simulator.
//!
//! The paper evaluates CCF on Azure VMs; this reproduction substitutes a
//! simulator for the experiments that need *controlled fault timing* —
//! primary kills, partitions, message loss, reconfiguration races
//! (Figure 9 and the consensus test-suite). Time is virtual, every delay
//! and drop decision comes from one seeded generator, and therefore every
//! run replays bit-for-bit from its seed.
//!
//! The simulator is generic over the message type: `ccf-consensus` drives
//! it with consensus RPCs, `ccf-core` with full node-to-node traffic.
//! Every cluster harness advances through the one loop, [`SimNet::step`]:
//! each node maps an [`Input`] to the messages it sends.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod nemesis;

use ccf_crypto::chacha::ChaChaRng;
use ccf_obs::NodeRef;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap, HashSet};

/// Virtual time in milliseconds.
pub type Time = u64;

/// A node identifier (matches `ccf_consensus::NodeId`).
pub type NodeId = String;

/// Link behaviour parameters.
#[derive(Clone, Debug)]
pub struct NetConfig {
    /// Message latency range [min, max) in ms.
    pub latency: (Time, Time),
    /// Probability of silently dropping any message.
    pub drop_probability: f64,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig { latency: (1, 5), drop_probability: 0.0 }
    }
}

#[derive(PartialEq, Eq)]
struct Scheduled<M> {
    deliver_at: Time,
    seq: u64, // FIFO tiebreak for equal times — determinism
    from: NodeId,
    to: NodeId,
    /// `from` and `to` as the flight recorder knows them, resolved at send.
    refs: (NodeRef, NodeRef),
    msg: M,
}

impl<M: Eq> Ord for Scheduled<M> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.deliver_at, self.seq).cmp(&(other.deliver_at, other.seq))
    }
}

impl<M: Eq> PartialOrd for Scheduled<M> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// A message delivered by [`SimNet::deliveries_until`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Delivery<M> {
    /// Virtual delivery time.
    pub at: Time,
    /// Sender.
    pub from: NodeId,
    /// Recipient.
    pub to: NodeId,
    /// The message.
    pub msg: M,
}

/// One input to a node driven by [`SimNet::step`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Input<M> {
    /// A message from `from`, due now.
    Receive {
        /// Sender.
        from: NodeId,
        /// The message.
        msg: M,
    },
    /// The node's timer tick at this virtual time.
    Tick(Time),
}

/// The simulated network: a priority queue of in-flight messages plus
/// fault state (crashed nodes, partitions) and the virtual clock.
pub struct SimNet<M> {
    cfg: NetConfig,
    rng: ChaChaRng,
    queue: BinaryHeap<Reverse<Scheduled<M>>>,
    seq: u64,
    now: Time,
    crashed: HashSet<NodeId>,
    /// Partition groups: nodes in different groups cannot communicate.
    /// Empty = fully connected.
    partition_groups: Vec<BTreeSet<NodeId>>,
    /// Directional blocks: `(from, to)` pairs whose messages are dropped
    /// even when the partition groups would allow them (asymmetric /
    /// one-way partitions, the classic "A hears B but B not A" fault).
    blocked_links: HashSet<(NodeId, NodeId)>,
    /// Probability of scheduling a second, independently delayed copy of
    /// any message (duplication fault; 0 = off).
    duplicate_probability: f64,
    /// `net.messages_sent` / `net.messages_dropped` in the run's registry.
    sent_counter: ccf_obs::Counter,
    dropped_counter: ccf_obs::Counter,
    /// The run's registry: its clock and flight recorder.
    reg: ccf_obs::Registry,
    /// Every node id this network has recorded, interned in `reg` the
    /// first time it is seen, so a send resolves its ids without the
    /// registry's name lock (a delivery reuses its send's). A cluster has
    /// a handful of nodes: a scan beats hashing the id.
    refs: Vec<(NodeId, NodeRef)>,
    /// Classifies messages into short static tags ("append_entries",
    /// "request_vote", …) for the flight recorder. A plain `fn` pointer
    /// keeps the simulator dependency-free and `SimNet` comparable.
    tagger: fn(&M) -> &'static str,
}

impl<M: Eq + Clone> SimNet<M> {
    /// Creates a network with the given behaviour and seed, reporting
    /// into `reg`: the `net.messages_sent` / `net.messages_dropped`
    /// counters, and a flight-recorder event for every send, drop and
    /// receive, tagged by `tagger` (e.g. `Message::kind`).
    pub fn new(
        cfg: NetConfig,
        seed: u64,
        reg: &ccf_obs::Registry,
        tagger: fn(&M) -> &'static str,
    ) -> SimNet<M> {
        SimNet {
            cfg,
            rng: ChaChaRng::seed_from_u64(seed ^ 0x5157_0000_0000_0000),
            queue: BinaryHeap::new(),
            seq: 0,
            now: 0,
            crashed: HashSet::new(),
            partition_groups: Vec::new(),
            blocked_links: HashSet::new(),
            duplicate_probability: 0.0,
            sent_counter: reg.counter("net.messages_sent"),
            dropped_counter: reg.counter("net.messages_dropped"),
            reg: reg.clone(),
            refs: Vec::new(),
            tagger,
        }
    }

    /// The flight-recorder ref of `id`, interned on first sight.
    fn node_ref(&mut self, id: &NodeId) -> NodeRef {
        if let Some((_, r)) = self.refs.iter().find(|(known, _)| known == id) {
            return *r;
        }
        let r = self.reg.node_ref(id);
        self.refs.push((id.clone(), r));
        r
    }

    /// Records a net flight event between the resolved `(from, to)`.
    fn flight(&self, kind: &'static str, (from, to): (NodeRef, NodeRef), msg: &M, at: Time) {
        self.reg.flight(from, kind, (self.tagger)(msg), Some(to), at, 0);
    }

    /// Counts and records a lost message.
    fn drop_msg(&self, refs: (NodeRef, NodeRef), msg: &M, at: Time) {
        self.dropped_counter.inc();
        self.flight("drop", refs, msg, at);
    }

    /// Current virtual time.
    pub fn now(&self) -> Time {
        self.now
    }

    /// The run's observability registry.
    pub fn registry(&self) -> &ccf_obs::Registry {
        &self.reg
    }

    /// Whether a message from `a` can currently reach `b` (directional:
    /// one-way blocks apply to the `(a, b)` direction only).
    fn can_communicate(&self, a: &NodeId, b: &NodeId) -> bool {
        // The lookup key owns two ids; build it only while a link is blocked.
        if !self.blocked_links.is_empty() && self.blocked_links.contains(&(a.clone(), b.clone())) {
            return false;
        }
        if self.partition_groups.is_empty() {
            return true;
        }
        let group_of = |n: &NodeId| self.partition_groups.iter().position(|g| g.contains(n));
        match (group_of(a), group_of(b)) {
            (Some(ga), Some(gb)) => ga == gb,
            // Nodes not mentioned in any group are unreachable during a
            // partition only if the other side is grouped elsewhere; treat
            // ungrouped nodes as a separate implicit group.
            (None, None) => true,
            _ => false,
        }
    }

    /// Sends `msg` from `from` to `to`, subject to faults and latency.
    pub fn send(&mut self, from: &NodeId, to: &NodeId, msg: M) {
        self.sent_counter.inc();
        let refs = (self.node_ref(from), self.node_ref(to));
        self.flight("send", refs, &msg, self.now);
        if self.crashed.contains(from)
            || self.crashed.contains(to)
            || !self.can_communicate(from, to)
            || (self.cfg.drop_probability > 0.0 && self.rng.gen_bool(self.cfg.drop_probability))
        {
            self.drop_msg(refs, &msg, self.now);
            return;
        }
        let (lo, hi) = self.cfg.latency;
        let delay = self.rng.gen_range_in(lo, hi.max(lo + 1));
        // Duplication fault: occasionally schedule a second copy with an
        // independent delay, so the receiver sees the same message twice,
        // possibly out of order with its neighbours.
        let duplicate = self.duplicate_probability > 0.0
            && self.rng.gen_bool(self.duplicate_probability);
        self.seq += 1;
        let seq = self.seq;
        // Only a drawn duplicate costs a clone; the original is moved in.
        // The queue orders by (deliver_at, seq), so push order is free.
        if duplicate {
            let delay2 = self.rng.gen_range_in(lo, hi.max(lo + 1) * 2);
            self.seq += 1;
            self.queue.push(Reverse(Scheduled {
                deliver_at: self.now + delay2,
                seq: self.seq,
                from: from.clone(),
                to: to.clone(),
                refs,
                msg: msg.clone(),
            }));
        }
        self.queue.push(Reverse(Scheduled {
            deliver_at: self.now + delay,
            seq,
            from: from.clone(),
            to: to.clone(),
            refs,
            msg,
        }));
    }

    /// Pops every message due at or before `t`, advancing time to `t`.
    /// Messages to nodes that crashed or were cut off after sending are
    /// dropped at delivery time.
    pub fn deliveries_until(&mut self, t: Time) -> Vec<Delivery<M>> {
        self.now = self.now.max(t);
        let mut out = Vec::new();
        while let Some(Reverse(head)) = self.queue.peek() {
            if head.deliver_at > t {
                break;
            }
            let Reverse(s) = self.queue.pop().unwrap();
            if self.crashed.contains(&s.to) || !self.can_communicate(&s.from, &s.to) {
                self.drop_msg(s.refs, &s.msg, s.deliver_at);
                continue;
            }
            self.flight("recv", s.refs, &s.msg, s.deliver_at);
            out.push(Delivery { at: s.deliver_at, from: s.from, to: s.to, msg: s.msg });
        }
        out
    }

    /// Advances virtual time by one millisecond and drives `nodes`
    /// through it: the registry's clock moves to the new time, every
    /// message now due goes to its recipient as [`Input::Receive`], then
    /// every node not marked crashed gets [`Input::Tick`], in id order.
    /// `f` maps a node's input to the messages it sends; they go out in
    /// call order, so the whole step is deterministic in the seed.
    /// Messages due to ids not in `nodes` are lost.
    pub fn step<N>(
        &mut self,
        nodes: &mut BTreeMap<NodeId, N>,
        mut f: impl FnMut(&NodeId, &mut N, Input<M>) -> Vec<(NodeId, M)>,
    ) {
        self.now += 1;
        self.reg.set_now(self.now);
        for d in self.deliveries_until(self.now) {
            if let Some(node) = nodes.get_mut(&d.to) {
                for (to, msg) in f(&d.to, node, Input::Receive { from: d.from, msg: d.msg }) {
                    self.send(&d.to, &to, msg);
                }
            }
        }
        for (id, node) in nodes.iter_mut() {
            if self.crashed.contains(id) {
                continue;
            }
            for (to, msg) in f(id, node, Input::Tick(self.now)) {
                self.send(id, &to, msg);
            }
        }
    }

    /// Marks a node as crashed: it sends, receives and ticks nothing.
    pub fn crash(&mut self, node: &str) {
        self.crashed.insert(node.to_string());
    }

    /// Heals a crashed node (the consensus layer treats it as a fresh
    /// node — CCF nodes never resume, §6.2 — but the chaos harnesses
    /// resume it in memory).
    pub fn restart(&mut self, node: &str) {
        self.crashed.remove(node);
    }

    /// True if the node is currently crashed.
    pub fn is_crashed(&self, node: &str) -> bool {
        self.crashed.contains(node)
    }

    /// Imposes a partition: nodes can only reach others in their group.
    pub fn partition(&mut self, groups: Vec<BTreeSet<NodeId>>) {
        self.partition_groups = groups;
    }

    /// Removes any partition and all one-way blocks.
    pub fn heal(&mut self) {
        self.partition_groups.clear();
        self.blocked_links.clear();
    }

    /// Blocks the directed link `from → to` (asymmetric partition): `to`
    /// stops hearing `from`, while the reverse direction still works.
    pub fn block_link(&mut self, from: &NodeId, to: &NodeId) {
        self.blocked_links.insert((from.clone(), to.clone()));
    }

    /// Sets the probability that a sent message is scheduled twice.
    pub fn set_duplicate_probability(&mut self, p: f64) {
        self.duplicate_probability = p.clamp(0.0, 1.0);
    }

    /// Sets the drop probability at runtime (lossy-window faults).
    pub fn set_drop_probability(&mut self, p: f64) {
        self.cfg.drop_probability = p.clamp(0.0, 1.0);
    }

    /// Sets the latency range at runtime (reordering widens the window).
    pub fn set_latency(&mut self, lo: Time, hi: Time) {
        self.cfg.latency = (lo, hi.max(lo + 1));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(s: &str) -> NodeId {
        s.to_string()
    }

    /// A network on a fresh registry, tagging every message alike.
    fn sim<M: Eq + Clone>(cfg: NetConfig, seed: u64) -> SimNet<M> {
        SimNet::new(cfg, seed, &ccf_obs::Registry::new(), |_| "msg")
    }

    fn dropped<M: Eq + Clone>(net: &SimNet<M>) -> u64 {
        net.registry().counter("net.messages_dropped").get()
    }

    #[test]
    fn delivers_in_time_order() {
        let mut net: SimNet<u32> = sim(NetConfig { latency: (1, 10), drop_probability: 0.0 }, 1);
        for i in 0..50 {
            net.send(&n("a"), &n("b"), i);
        }
        let deliveries = net.deliveries_until(100);
        assert_eq!(deliveries.len(), 50);
        let times: Vec<_> = deliveries.iter().map(|d| d.at).collect();
        let mut sorted = times.clone();
        sorted.sort();
        assert_eq!(times, sorted);
        // All 50 payloads arrive exactly once.
        let mut payloads: Vec<_> = deliveries.iter().map(|d| d.msg).collect();
        payloads.sort();
        assert_eq!(payloads, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn determinism_from_seed() {
        let run = |seed| {
            let mut net: SimNet<u32> =
                sim(NetConfig { latency: (1, 20), drop_probability: 0.3 }, seed);
            for i in 0..100 {
                net.send(&n("a"), &n("b"), i);
            }
            net.deliveries_until(1000)
                .into_iter()
                .map(|d| (d.at, d.msg))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn crash_blocks_traffic() {
        let mut net: SimNet<u32> = sim(NetConfig::default(), 1);
        net.send(&n("a"), &n("b"), 1);
        net.crash(&n("b"));
        // In-flight message to a crashed node is dropped at delivery.
        assert!(net.deliveries_until(100).is_empty());
        net.send(&n("a"), &n("b"), 2);
        net.send(&n("b"), &n("a"), 3);
        assert!(net.deliveries_until(200).is_empty());
        net.restart(&n("b"));
        net.send(&n("a"), &n("b"), 4);
        let d = net.deliveries_until(300);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].msg, 4);
    }

    #[test]
    fn partitions_block_cross_group_traffic() {
        let mut net: SimNet<u32> = sim(NetConfig::default(), 1);
        net.partition(vec![
            BTreeSet::from([n("a"), n("b")]),
            BTreeSet::from([n("c")]),
        ]);
        net.send(&n("a"), &n("b"), 1);
        net.send(&n("a"), &n("c"), 2);
        let d = net.deliveries_until(100);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].msg, 1);
        net.heal();
        net.send(&n("a"), &n("c"), 3);
        assert_eq!(net.deliveries_until(200).len(), 1);
        assert_eq!(dropped(&net), 1);
    }

    #[test]
    fn drop_probability_loses_roughly_that_fraction() {
        let mut net: SimNet<u32> =
            sim(NetConfig { latency: (1, 2), drop_probability: 0.25 }, 3);
        for i in 0..4000 {
            net.send(&n("a"), &n("b"), i);
        }
        let delivered = net.deliveries_until(100).len();
        assert!((2700..3300).contains(&delivered), "delivered {delivered}");
    }

    #[test]
    fn one_way_block_is_directional() {
        let mut net: SimNet<u32> = sim(NetConfig::default(), 1);
        net.block_link(&n("a"), &n("b"));
        net.send(&n("a"), &n("b"), 1); // blocked direction
        net.send(&n("b"), &n("a"), 2); // reverse still open
        let d = net.deliveries_until(100);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].msg, 2);
        assert_eq!(dropped(&net), 1);
        // heal() clears one-way blocks too.
        net.heal();
        net.send(&n("a"), &n("b"), 3);
        assert_eq!(net.deliveries_until(200).len(), 1);
    }

    #[test]
    fn duplication_delivers_extra_copies() {
        let mut net: SimNet<u32> = sim(NetConfig { latency: (1, 2), drop_probability: 0.0 }, 9);
        net.set_duplicate_probability(1.0);
        for i in 0..10 {
            net.send(&n("a"), &n("b"), i);
        }
        let d = net.deliveries_until(100);
        assert_eq!(d.len(), 20);
        for i in 0..10 {
            assert_eq!(d.iter().filter(|x| x.msg == i).count(), 2);
        }
    }

    /// Counts its own clones, so tests can see what `send` copies.
    #[derive(Debug, PartialEq, Eq)]
    struct Counted(std::rc::Rc<std::cell::Cell<u32>>);

    impl Clone for Counted {
        fn clone(&self) -> Self {
            self.0.set(self.0.get() + 1);
            Counted(self.0.clone())
        }
    }

    #[test]
    fn send_clones_only_drawn_duplicates() {
        let clones = std::rc::Rc::new(std::cell::Cell::new(0));
        let mut net: SimNet<Counted> = sim(NetConfig::default(), 5);
        for _ in 0..10 {
            net.send(&n("a"), &n("b"), Counted(clones.clone()));
        }
        assert_eq!(net.deliveries_until(100).len(), 10);
        assert_eq!(clones.get(), 0, "fault-free sends must move the message");

        net.set_duplicate_probability(1.0);
        for _ in 0..10 {
            net.send(&n("a"), &n("b"), Counted(clones.clone()));
        }
        assert_eq!(net.deliveries_until(300).len(), 20);
        assert_eq!(clones.get(), 10, "one clone per duplicate");
    }

    /// The flight recorder reads the same through the network's interned
    /// refs as when every event resolves its names in the registry, and
    /// the registry interns names in the order they are first seen.
    #[test]
    fn flight_records_match_per_event_registry_resolution() {
        // Latency (1, 2) is always 1 ms: every delivery lands at t = 1.
        let cfg = NetConfig { latency: (1, 2), drop_probability: 0.0 };
        let reg = ccf_obs::Registry::new();
        let z = reg.node_ref("z"); // interned before the network sees any id
        let mut net: SimNet<u32> = SimNet::new(cfg, 1, &reg, |_| "msg");
        net.send(&n("b"), &n("a"), 1);
        net.send(&n("a"), &n("c"), 2); // dropped at delivery: c crashes
        net.crash("c");
        net.send(&n("a"), &n("c"), 3); // dropped at send
        net.send(&n("c"), &n("b"), 4); // dropped at send
        assert_eq!(net.deliveries_until(10).len(), 1);

        let expected = ccf_obs::Registry::new();
        expected.node_ref("z");
        let events = [
            ("send", "b", "a", 0),
            ("send", "a", "c", 0),
            ("send", "a", "c", 0),
            ("drop", "a", "c", 0),
            ("send", "c", "b", 0),
            ("drop", "c", "b", 0),
            ("recv", "b", "a", 1),
            ("drop", "a", "c", 1),
        ];
        for (kind, from, to, at) in events {
            let (f, t) = (expected.node_ref(from), expected.node_ref(to));
            expected.flight(f, kind, "msg", Some(t), at, 0);
        }
        assert_eq!(reg.snapshot().flight, expected.snapshot().flight);
        let refs = ["z", "b", "a", "c"].map(|name| reg.node_ref(name));
        assert_eq!(refs[0], z);
        assert!(refs.windows(2).all(|w| w[0] < w[1]), "interned out of first-seen order");
        assert_eq!(refs, ["z", "b", "a", "c"].map(|name| expected.node_ref(name)));
    }

    /// A toy node for [`SimNet::step`]: on each tick it sends `fanout`
    /// numbered messages to `peer`.
    struct Toy {
        peer: NodeId,
        fanout: u32,
    }

    /// Steps `net` once, logging every call `step` makes.
    fn step_toys(
        net: &mut SimNet<String>,
        nodes: &mut BTreeMap<NodeId, Toy>,
        calls: &mut Vec<(NodeId, Input<String>)>,
    ) {
        net.step(nodes, |id, node, input| {
            calls.push((id.clone(), input.clone()));
            match input {
                Input::Receive { .. } => Vec::new(),
                Input::Tick(t) => (0..node.fanout)
                    .map(|k| (node.peer.clone(), format!("{id}{t}.{k}")))
                    .collect(),
            }
        });
    }

    #[test]
    fn step_delivers_before_ticking_and_sends_in_call_order() {
        // Latency (1, 2) is always 1 ms: a step's sends are due in
        // exactly the next step.
        let mut net = sim(NetConfig { latency: (1, 2), drop_probability: 0.0 }, 1);
        let mut nodes = BTreeMap::from([
            (n("a"), Toy { peer: n("c"), fanout: 2 }),
            (n("b"), Toy { peer: n("c"), fanout: 2 }),
            (n("c"), Toy { peer: n("d"), fanout: 1 }),
            (n("d"), Toy { peer: n("a"), fanout: 0 }),
        ]);
        let mut calls = Vec::new();
        step_toys(&mut net, &mut nodes, &mut calls);
        net.crash("d");
        step_toys(&mut net, &mut nodes, &mut calls);
        let recv = |from: &str, msg: &str| Input::Receive { from: n(from), msg: msg.to_string() };
        let expected = vec![
            // Step 1: nothing in flight; every node ticks in id order.
            (n("a"), Input::Tick(1)),
            (n("b"), Input::Tick(1)),
            (n("c"), Input::Tick(1)),
            (n("d"), Input::Tick(1)),
            // Step 2: step 1's sends arrive before any tick, in call
            // order (a's two, then b's, each in the order sent); crashed
            // d neither receives c's message nor ticks.
            (n("c"), recv("a", "a1.0")),
            (n("c"), recv("a", "a1.1")),
            (n("c"), recv("b", "b1.0")),
            (n("c"), recv("b", "b1.1")),
            (n("a"), Input::Tick(2)),
            (n("b"), Input::Tick(2)),
            (n("c"), Input::Tick(2)),
        ];
        assert_eq!(calls, expected);
        // Both of c's messages to d are lost: the one in flight when d
        // crashed, and the one sent after.
        assert_eq!(dropped(&net), 2);
        assert_eq!((net.now(), net.registry().now()), (2, 2));
    }
}
