//! Oracle tests: the vector-indexed `Fabric` (per-link and per-node
//! occupancy in vectors, borrowed routes from a sorted per-source route
//! store, wire times computed once per message size and bandwidth)
//! behaves identically to the implementation it replaced, carried here
//! verbatim modulo names as a reference: occupancy in `BTreeMap`s, and a
//! route `Vec` cloned out of a `BTreeMap` route cache for every message.
//!
//! Both sides are built from one list of topology operations and driven
//! with one seeded message sequence, over single-switch and multi-leaf
//! switch trees of up to 103 nodes, under every switch model, with and
//! without a generated fault plan, and with links added after routes
//! were cached. After every send both must return the same arrival or
//! the same error and hold the same statistics; after `reset` they must
//! go on agreeing.

use mb_faults::{FaultConfig, FaultPlan};
use mb_net::builders::switch_tree;
use mb_net::fabric::{Fabric, FabricStats, SwitchModel};
use mb_net::graph::{Link, LinkId, LinkSpec, Network, NodeId};
use mb_simcore::error::{MbError, MbResult};
use mb_simcore::rng::{Rng, Xoshiro256};
use mb_simcore::time::SimTime;
use std::collections::{BTreeMap, VecDeque};

// ---------------------------------------------------------------------
// The reference: the BTreeMap network and fabric, verbatim modulo names.
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum NodeKind {
    Host,
    /// A switch and its creation-order ordinal among the switches.
    Switch(u32),
}

#[derive(Debug, Clone, Default)]
struct RefNetwork {
    kinds: Vec<NodeKind>,
    links: Vec<Link>,
    adjacency: Vec<Vec<(NodeId, LinkId)>>,
    hosts: Vec<NodeId>,
    switches: Vec<NodeId>,
    route_cache: BTreeMap<(NodeId, NodeId), Vec<LinkId>>,
}

impl RefNetwork {
    fn add_node(&mut self, kind: NodeKind) -> NodeId {
        let id = NodeId(self.kinds.len() as u32);
        self.kinds.push(kind);
        self.adjacency.push(Vec::new());
        match kind {
            NodeKind::Host => self.hosts.push(id),
            NodeKind::Switch(_) => self.switches.push(id),
        }
        id
    }

    fn add_host(&mut self) -> NodeId {
        self.add_node(NodeKind::Host)
    }

    fn add_switch(&mut self) -> NodeId {
        self.add_node(NodeKind::Switch(self.switches.len() as u32))
    }

    fn connect(&mut self, a: NodeId, b: NodeId, spec: LinkSpec) -> (LinkId, LinkId) {
        assert!(a != b, "self-links are not allowed");
        assert!((a.0 as usize) < self.kinds.len(), "unknown node {a:?}");
        assert!((b.0 as usize) < self.kinds.len(), "unknown node {b:?}");
        let ab = LinkId(self.links.len() as u32);
        self.links.push(Link {
            from: a,
            to: b,
            spec,
        });
        self.adjacency[a.0 as usize].push((b, ab));
        let ba = LinkId(self.links.len() as u32);
        self.links.push(Link {
            from: b,
            to: a,
            spec,
        });
        self.adjacency[b.0 as usize].push((a, ba));
        self.route_cache.clear();
        (ab, ba)
    }

    fn link(&self, id: LinkId) -> &Link {
        &self.links[id.0 as usize]
    }

    fn switch_ordinal(&self, id: NodeId) -> Option<u32> {
        match self.kinds[id.0 as usize] {
            NodeKind::Switch(ordinal) => Some(ordinal),
            NodeKind::Host => None,
        }
    }

    fn try_route(&mut self, src: NodeId, dst: NodeId) -> MbResult<Vec<LinkId>> {
        if src == dst {
            return Ok(Vec::new());
        }
        if let Some(r) = self.route_cache.get(&(src, dst)) {
            return Ok(r.clone());
        }
        let n = self.kinds.len();
        let mut prev: Vec<Option<(NodeId, LinkId)>> = vec![None; n];
        let mut visited = vec![false; n];
        let mut q = VecDeque::new();
        visited[src.0 as usize] = true;
        q.push_back(src);
        'bfs: while let Some(u) = q.pop_front() {
            for &(v, l) in &self.adjacency[u.0 as usize] {
                if !visited[v.0 as usize] {
                    visited[v.0 as usize] = true;
                    prev[v.0 as usize] = Some((u, l));
                    if v == dst {
                        break 'bfs;
                    }
                    q.push_back(v);
                }
            }
        }
        if !visited[dst.0 as usize] {
            return Err(MbError::NoRoute {
                src: src.0,
                dst: dst.0,
            });
        }
        let mut path = Vec::new();
        let mut cur = dst;
        while cur != src {
            let (p, l) = prev[cur.0 as usize].expect("path recorded");
            path.push(l);
            cur = p;
        }
        path.reverse();
        self.route_cache.insert((src, dst), path.clone());
        Ok(path)
    }
}

const MTU_BYTES: u64 = 1500;
const BURST_WINDOW_BYTES: u64 = 64 * 1024;

#[derive(Debug, Clone, Copy, Default)]
struct BufferState {
    last_update: SimTime,
    queued_bytes: f64,
}

#[derive(Debug, Clone)]
struct RefFabric {
    network: RefNetwork,
    link_free: BTreeMap<LinkId, SimTime>,
    buffers: BTreeMap<NodeId, BufferState>,
    switch_model: Option<SwitchModel>,
    stats: FabricStats,
    rng: Xoshiro256,
    seed: u64,
    faults: FaultPlan,
}

impl RefFabric {
    fn new(network: RefNetwork, switch_model: Option<SwitchModel>) -> Self {
        let seed = 0xFAB41C;
        RefFabric {
            network,
            link_free: BTreeMap::new(),
            buffers: BTreeMap::new(),
            switch_model,
            stats: FabricStats::default(),
            rng: Xoshiro256::seed_from(seed),
            seed,
            faults: FaultPlan::default(),
        }
    }

    fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self.rng = Xoshiro256::seed_from(seed);
        self
    }

    fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = plan;
        self
    }

    fn reset(&mut self) {
        self.link_free.clear();
        self.buffers.clear();
        self.stats = FabricStats::default();
        self.rng = Xoshiro256::seed_from(self.seed);
    }

    fn try_send(
        &mut self,
        src: NodeId,
        dst: NodeId,
        bytes: u64,
        depart: SimTime,
    ) -> MbResult<SimTime> {
        self.stats.messages += 1;
        self.stats.bytes += bytes;
        if src == dst {
            return Ok(depart);
        }
        let route = self.network.try_route(src, dst)?;
        let bytes = bytes.max(1);
        let chunk = bytes.min(MTU_BYTES);

        let mut head_available = depart; // earliest the head chunk is at the next sender
        let mut arrival = depart;
        // Set when the previous switch dropped the message: the next link
        // transmits it twice (the lost copy plus the retransmission), so
        // congestion wastes real bandwidth, not just this message's time.
        let mut retransmit = false;
        for (hop, link_id) in route.iter().enumerate() {
            let link = *self.network.link(*link_id);
            let free = self
                .link_free
                .get(link_id)
                .copied()
                .unwrap_or(SimTime::ZERO);
            let mut start = head_available.max(free);
            self.stats.queueing_ns += start.saturating_sub(head_available).as_nanos();
            // An outage holds the message at the hop until the link comes
            // back; the wait is attributed to the fault, not to
            // congestion queueing.
            if let Some(until) = self.faults.link_blocked_until(link_id.0, start) {
                self.stats.fault_stall_ns += until.saturating_sub(start).as_nanos();
                start = start.max(until);
            }
            let mut tx = link.spec.transmit_time(bytes);
            let mut chunk_tx = link.spec.transmit_time(chunk);
            let factor = self.faults.link_degrade_factor(link_id.0, start);
            if factor != 1.0 {
                tx = scale_by_inverse(tx, factor);
                chunk_tx = scale_by_inverse(chunk_tx, factor);
            }
            if retransmit {
                tx = tx * 2;
                retransmit = false;
            }
            self.link_free.insert(*link_id, start + tx);
            // Head chunk reaches the next node after its own wire time +
            // propagation; the full message lands after tx + propagation.
            head_available = start + chunk_tx + link.spec.latency;
            arrival = start + tx + link.spec.latency;

            // Buffer accounting at the receiving switch.
            let to = link.to;
            if let Some(ordinal) = self.network.switch_ordinal(to) {
                // A faulted switch eats the message outright. The draw
                // comes from the fabric's seeded stream and only happens
                // inside an active drop window, so runs without fault
                // windows never consume it.
                let p = self.faults.switch_drop_probability(ordinal, arrival);
                if p > 0.0 && self.rng.gen_bool(p) {
                    self.stats.fault_drops += 1;
                    return Err(MbError::Dropped {
                        src: src.0,
                        dst: dst.0,
                        at_ns: arrival.as_nanos(),
                    });
                }
                if let Some(model) = self.switch_model {
                    if model.hiccup_probability > 0.0 && self.rng.gen_bool(model.hiccup_probability)
                    {
                        self.stats.hiccups += 1;
                        head_available += model.hiccup_delay;
                        arrival += model.hiccup_delay;
                        retransmit = true;
                    }
                    let state = self.buffers.entry(to).or_default();
                    let dt = arrival.saturating_sub(state.last_update).as_secs_f64();
                    state.queued_bytes = (state.queued_bytes - dt * model.drain_bps / 8.0).max(0.0);
                    state.last_update = arrival;
                    let burst = bytes.min(BURST_WINDOW_BYTES);
                    if state.queued_bytes + burst as f64 > model.buffer_bytes as f64 {
                        self.stats.overflows += 1;
                        // The message waits out the pause; the buffer has
                        // drained meanwhile, and the retransmission will
                        // occupy the next link twice.
                        state.queued_bytes = 0.0;
                        head_available += model.overflow_penalty;
                        arrival += model.overflow_penalty;
                        retransmit = true;
                    } else {
                        state.queued_bytes += burst as f64;
                    }
                }
            }
            let _ = hop;
        }
        Ok(arrival)
    }
}

fn scale_by_inverse(t: SimTime, factor: f64) -> SimTime {
    SimTime::from_nanos((t.as_nanos() as f64 / factor).round() as u64)
}

// ---------------------------------------------------------------------
// One topology, built on both sides.
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Copy)]
enum Op {
    Host,
    Switch,
    Connect(u32, u32, LinkSpec),
}

/// The operations `builders::switch_tree` performs, in its order.
fn tree_ops(hosts: usize, hosts_per_leaf: usize, edge: LinkSpec, uplink: LinkSpec) -> Vec<Op> {
    let mut ops = Vec::new();
    let leaves = hosts.div_ceil(hosts_per_leaf);
    if leaves == 1 {
        ops.push(Op::Switch);
        for h in 0..hosts as u32 {
            ops.push(Op::Host);
            ops.push(Op::Connect(h + 1, 0, edge));
        }
        return ops;
    }
    ops.push(Op::Switch);
    let mut next = 1;
    for leaf_idx in 0..leaves {
        let leaf = next;
        ops.push(Op::Switch);
        ops.push(Op::Connect(leaf, 0, uplink));
        next += 1;
        let lo = leaf_idx * hosts_per_leaf;
        for _ in lo..(lo + hosts_per_leaf).min(hosts) {
            ops.push(Op::Host);
            ops.push(Op::Connect(next, leaf, edge));
            next += 1;
        }
    }
    ops
}

fn apply(ops: &[Op], net: &mut Network, reference: &mut RefNetwork) {
    for op in ops {
        match *op {
            Op::Host => assert_eq!(net.add_host(), reference.add_host()),
            Op::Switch => assert_eq!(net.add_switch(), reference.add_switch()),
            Op::Connect(a, b, spec) => assert_eq!(
                net.connect(NodeId(a), NodeId(b), spec),
                reference.connect(NodeId(a), NodeId(b), spec)
            ),
        }
    }
}

/// Both networks have the same nodes, links and hosts.
fn assert_same_graph(net: &Network, reference: &RefNetwork) {
    let links = net.fault_topology(0).links as usize;
    assert_eq!(links, reference.links.len());
    for i in 0..links as u32 {
        assert_eq!(net.link(LinkId(i)), reference.link(LinkId(i)), "link {i}");
    }
    assert_eq!(net.hosts(), &reference.hosts[..]);
    assert_eq!(
        net.fault_topology(0).switches as usize,
        reference.switches.len()
    );
}

/// Every ordered pair routes the same on both sides (or fails the same).
fn assert_same_routes(net: &mut Network, reference: &mut RefNetwork) {
    let n = reference.kinds.len() as u32;
    for a in 0..n {
        for b in 0..n {
            let got = net.try_route(NodeId(a), NodeId(b)).map(<[LinkId]>::to_vec);
            assert_eq!(got, reference.try_route(NodeId(a), NodeId(b)), "{a} → {b}");
        }
    }
}

/// A `switch_tree` network, plus operations applied to it after routes
/// were cached.
struct Case {
    hosts: usize,
    per_leaf: usize,
    edge: LinkSpec,
    uplink: LinkSpec,
    later: Vec<Op>,
}

fn cases() -> Vec<Case> {
    let gbe = LinkSpec::gigabit_ethernet();
    let ten = LinkSpec::ten_gigabit_ethernet();
    let tree = |hosts, uplink| Case {
        hosts,
        per_leaf: 16,
        edge: gbe,
        uplink,
        later: Vec::new(),
    };
    // One leaf; three leaves with bonded uplinks; the Fig 3 extreme, 96
    // hosts on six leaves (103 nodes), with GbE and 10 GbE uplinks.
    let mut cases = vec![
        tree(12, gbe),
        tree(40, gbe.bonded(4)),
        tree(96, gbe),
        tree(96, ten),
    ];
    // Three leaves (44 nodes), then a shortcut between the first two
    // leaves (nodes 1 and 18), which shortens cross-leaf routes, a new
    // host on it, and an isolated host: every route to it is `NoRoute`.
    let mut late = tree(40, gbe);
    late.later = vec![
        Op::Connect(1, 18, ten),
        Op::Host,
        Op::Connect(44, 18, gbe.bonded(2)),
        Op::Host,
    ];
    cases.push(late);
    cases
}

/// Each switch model the fabric offers, plus a stressed one whose
/// hiccups and overflows fire often enough to cover their paths.
fn models() -> Vec<(&'static str, Option<SwitchModel>)> {
    let stressed = SwitchModel {
        buffer_bytes: 200_000,
        hiccup_probability: 0.02,
        ..SwitchModel::commodity_gbe()
    };
    vec![
        ("commodity", Some(SwitchModel::commodity_gbe())),
        ("upgraded", Some(SwitchModel::upgraded())),
        ("ideal", None),
        ("stressed", Some(stressed)),
    ]
}

/// A fault plan dense enough to hit a message stream over 200 ms.
fn faults(seed: u64, net: &Network) -> FaultPlan {
    let config = FaultConfig {
        link_down_probability: 0.15,
        link_degrade_probability: 0.3,
        switch_drop_probability: 1.0,
        straggler_probability: 0.0,
        rank_crash_probability: 0.0,
        horizon: SimTime::from_millis(200),
    };
    FaultPlan::generate(seed, &config, &net.fault_topology(0))
}

/// One seeded message: any pair of nodes (hosts mostly), a size from a
/// palette that repeats (the wire-time reuse) or a fresh draw, and a
/// departure that mostly moves forward.
fn message(
    rng: &mut Xoshiro256,
    nodes: u32,
    hosts: &[NodeId],
    clock: &mut u64,
) -> (NodeId, NodeId, u64, SimTime) {
    let pick = |rng: &mut Xoshiro256| {
        if rng.gen_bool(0.9) {
            hosts[rng.gen_range(hosts.len() as u64) as usize]
        } else {
            NodeId(rng.gen_range(u64::from(nodes)) as u32)
        }
    };
    let (src, dst) = (pick(rng), pick(rng));
    const PALETTE: [u64; 8] = [0, 1, 1499, 1500, 1501, 4096, 65_536, 400_000];
    let bytes = if rng.gen_bool(0.7) {
        PALETTE[rng.gen_range(PALETTE.len() as u64) as usize]
    } else {
        rng.gen_range(2_000_000)
    };
    *clock += rng.gen_range(400_000);
    let depart = if rng.gen_bool(0.1) {
        rng.gen_range(*clock + 1)
    } else {
        *clock
    };
    (src, dst, bytes, SimTime::from_nanos(depart))
}

/// What every case covered, summed, so the test fails if a path it
/// claims to check never ran.
#[derive(Default)]
struct Coverage {
    sends: u64,
    no_route: u64,
    stats: FabricStats,
}

fn drive(
    fabric: &mut Fabric,
    reference: &mut RefFabric,
    seed: u64,
    sends: usize,
    coverage: &mut Coverage,
    what: &str,
) {
    let hosts = reference.network.hosts.clone();
    let nodes = reference.network.kinds.len() as u32;
    let mut rng = Xoshiro256::seed_from(seed);
    let mut clock = 0;
    for i in 0..sends {
        let (src, dst, bytes, depart) = message(&mut rng, nodes, &hosts, &mut clock);
        let got = fabric.try_send(src, dst, bytes, depart);
        let want = reference.try_send(src, dst, bytes, depart);
        assert_eq!(
            got, want,
            "{what}: send {i} ({src:?} → {dst:?}, {bytes} B at {depart})"
        );
        assert_eq!(
            fabric.stats(),
            &reference.stats,
            "{what}: stats after send {i}"
        );
        coverage.sends += 1;
        coverage.no_route += u64::from(matches!(got, Err(MbError::NoRoute { .. })));
    }
    let s = fabric.stats();
    let c = &mut coverage.stats;
    c.overflows += s.overflows;
    c.hiccups += s.hiccups;
    c.queueing_ns += s.queueing_ns;
    c.fault_drops += s.fault_drops;
    c.fault_stall_ns += s.fault_stall_ns;
}

#[test]
fn fabric_matches_the_btreemap_reference() {
    let mut coverage = Coverage::default();
    for (c, case) in cases().into_iter().enumerate() {
        let (hosts, per_leaf) = (case.hosts, case.per_leaf);
        let mut reference = RefNetwork::default();
        let ops = tree_ops(hosts, per_leaf, case.edge, case.uplink);
        apply(&ops, &mut Network::new(), &mut reference);
        // The fabric under test runs on `switch_tree`'s own network.
        let (mut net, host_ids) = switch_tree(hosts, per_leaf, case.edge, case.uplink);
        assert_same_graph(&net, &reference);
        assert_eq!(host_ids, reference.hosts);
        if !case.later.is_empty() {
            assert_same_routes(&mut net, &mut reference);
            apply(&case.later, &mut net, &mut reference);
        }
        assert_same_graph(&net, &reference);
        for (m, (model_name, model)) in models().into_iter().enumerate() {
            for faulted in [false, true] {
                let seed = 1000 * c as u64 + 10 * m as u64 + u64::from(faulted);
                let what =
                    format!("tree {hosts}/{per_leaf}, case {c} / {model_name} / faulted {faulted}");
                let mut fabric = Fabric::new(net.clone(), model).with_seed(seed);
                let mut oracle = RefFabric::new(reference.clone(), model).with_seed(seed);
                if faulted {
                    let plan = faults(seed, &net);
                    assert!(!plan.is_empty());
                    fabric = fabric.with_faults(plan.clone());
                    oracle = oracle.with_faults(plan);
                }
                drive(&mut fabric, &mut oracle, seed, 1500, &mut coverage, &what);
                fabric.reset();
                oracle.reset();
                assert_eq!(fabric.stats(), &FabricStats::default(), "{what}: reset");
                drive(
                    &mut fabric,
                    &mut oracle,
                    seed ^ 0x5EED,
                    300,
                    &mut coverage,
                    &what,
                );
            }
        }
        // Every route the fabrics cached still agrees with a fresh search.
        assert_same_routes(&mut net, &mut reference);
    }
    assert!(coverage.sends > 0);
    assert!(coverage.no_route > 0, "no NoRoute send");
    let s = coverage.stats;
    assert!(s.overflows > 0, "no overflow");
    assert!(s.hiccups > 0, "no hiccup");
    assert!(s.queueing_ns > 0, "no queueing");
    assert!(s.fault_drops > 0, "no fault drop");
    assert!(s.fault_stall_ns > 0, "no link-down stall");
}

#[test]
fn routes_are_cached_per_source_and_invalidated_by_connect() {
    let gbe = LinkSpec::gigabit_ethernet();
    let (mut net, hosts) = switch_tree(40, 16, gbe, gbe);
    let mut reference = RefNetwork::default();
    apply(
        &tree_ops(40, 16, gbe, gbe),
        &mut Network::new(),
        &mut reference,
    );
    // Cache routes in a scattered order, then read them back.
    let mut rng = Xoshiro256::seed_from(7);
    for _ in 0..500 {
        let a = hosts[rng.gen_range(40) as usize];
        let b = hosts[rng.gen_range(40) as usize];
        let got = net.route(a, b).to_vec();
        assert_eq!(Ok(got), reference.try_route(a, b));
    }
    // A shortcut between the first two leaves: hosts 0 and 16 are now
    // three hops apart, not four.
    let (first_leaf, second_leaf) = (NodeId(1), NodeId(18));
    assert_eq!(net.route(hosts[0], hosts[16]).len(), 4);
    net.connect(first_leaf, second_leaf, gbe);
    reference.connect(first_leaf, second_leaf, gbe);
    assert_eq!(net.route(hosts[0], hosts[16]).len(), 3);
    assert_same_routes(&mut net, &mut reference);
}
