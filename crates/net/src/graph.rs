//! The network graph: hosts, switches, links and routing.

use mb_simcore::error::{MbError, MbResult};
use mb_simcore::time::SimTime;
use std::collections::{BTreeMap, VecDeque};

/// Identifier of a network node (host or switch).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct NodeId(pub u32);

/// Identifier of a directed link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct LinkId(pub u32);

/// Bandwidth and propagation latency of one link direction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkSpec {
    /// Usable bandwidth in bits per second.
    pub bandwidth_bps: f64,
    /// Propagation + per-hop processing latency.
    pub latency: SimTime,
}

impl LinkSpec {
    /// Gigabit Ethernet with a realistic ~30 µs per-hop latency for the
    /// era's commodity switches and the Tegra2's PCIe NIC path.
    pub fn gigabit_ethernet() -> Self {
        LinkSpec {
            bandwidth_bps: 1e9,
            latency: SimTime::from_micros(30),
        }
    }

    /// 10-Gigabit Ethernet with cut-through-class latency — the upgraded
    /// switch hardware of §IV / §VI.
    pub fn ten_gigabit_ethernet() -> Self {
        LinkSpec {
            bandwidth_bps: 10e9,
            latency: SimTime::from_micros(5),
        }
    }

    /// An 802.3ad-style bond of `n` links of this spec: `n×` the
    /// bandwidth at the same per-hop latency. The era's standard
    /// mitigation for oversubscribed GbE uplinks.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn bonded(self, n: u32) -> Self {
        assert!(n > 0, "bond needs at least one link");
        LinkSpec {
            bandwidth_bps: self.bandwidth_bps * n as f64,
            latency: self.latency,
        }
    }

    /// Serialisation time of `bytes` on this link.
    pub fn transmit_time(&self, bytes: u64) -> SimTime {
        SimTime::from_secs_f64(bytes as f64 * 8.0 / self.bandwidth_bps)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum NodeKind {
    Host,
    /// A switch and its creation-order ordinal among the switches.
    Switch(u32),
}

/// A directed link record.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Link {
    /// Source node.
    pub from: NodeId,
    /// Destination node.
    pub to: NodeId,
    /// Bandwidth/latency.
    pub spec: LinkSpec,
}

/// The network graph with precomputable routes.
///
/// Links are added in pairs (full duplex) by [`Network::connect`].
#[derive(Debug, Clone, Default)]
pub struct Network {
    kinds: Vec<NodeKind>,
    links: Vec<Link>,
    adjacency: Vec<Vec<(NodeId, LinkId)>>,
    hosts: Vec<NodeId>,
    switches: Vec<NodeId>,
    // Deterministic by construction: BTreeMap iteration (Clone, Debug,
    // future folds) follows key order, never insertion or hash order.
    route_cache: BTreeMap<(NodeId, NodeId), Vec<LinkId>>,
}

impl Network {
    /// Creates an empty network.
    pub fn new() -> Self {
        Network::default()
    }

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

    /// Adds a host (NIC endpoint).
    pub fn add_host(&mut self) -> NodeId {
        self.add_node(NodeKind::Host)
    }

    /// Adds a switch.
    pub fn add_switch(&mut self) -> NodeId {
        self.add_node(NodeKind::Switch(self.switches.len() as u32))
    }

    /// Connects two nodes with a full-duplex link (two directed links of
    /// the same spec). Returns `(a→b, b→a)`.
    ///
    /// # Panics
    ///
    /// Panics if either node does not exist or `a == b`.
    pub fn connect(&mut self, a: NodeId, b: NodeId, spec: LinkSpec) -> (LinkId, LinkId) {
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

    /// All hosts, in creation order.
    pub fn hosts(&self) -> &[NodeId] {
        &self.hosts
    }

    /// Looks up a directed link.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn link(&self, id: LinkId) -> &Link {
        &self.links[id.0 as usize]
    }

    /// The switch's creation-order ordinal — how fault plans address
    /// it — or `None` for a host.
    pub(crate) fn switch_ordinal(&self, id: NodeId) -> Option<u32> {
        match self.kinds[id.0 as usize] {
            NodeKind::Switch(ordinal) => Some(ordinal),
            NodeKind::Host => None,
        }
    }

    /// Shortest-path route (fewest hops; BFS with deterministic
    /// tie-breaking by adjacency order) from `src` to `dst`, as a list of
    /// directed links. Cached.
    ///
    /// # Panics
    ///
    /// Panics if no path exists; use [`Network::try_route`] when a
    /// missing path is a recoverable condition.
    pub fn route(&mut self, src: NodeId, dst: NodeId) -> Vec<LinkId> {
        match self.try_route(src, dst) {
            Ok(path) => path,
            Err(e) => panic!("{e}"),
        }
    }

    /// [`Network::route`] returning a typed error instead of panicking
    /// when the nodes are disconnected.
    ///
    /// # Errors
    ///
    /// Returns [`MbError::NoRoute`] if no path exists.
    pub fn try_route(&mut self, src: NodeId, dst: NodeId) -> MbResult<Vec<LinkId>> {
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

    /// Summary of this network's addressable elements for
    /// [`mb_faults::FaultPlan::generate`]; the caller supplies the MPI
    /// rank count, which the network does not know.
    pub fn fault_topology(&self, ranks: u32) -> mb_faults::Topology {
        mb_faults::Topology {
            links: self.links.len() as u32,
            switches: self.switches.len() as u32,
            hosts: self.hosts.len() as u32,
            ranks,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linkspec_transmit_time() {
        let gbe = LinkSpec::gigabit_ethernet();
        // 125 MB/s → 1 MB takes 8 ms.
        let t = gbe.transmit_time(1_000_000);
        assert!((t.as_secs_f64() - 8e-3).abs() < 1e-9);
        assert!(LinkSpec::ten_gigabit_ethernet().transmit_time(1_000_000) < t);
    }

    fn star(n: usize) -> (Network, Vec<NodeId>, NodeId) {
        let mut net = Network::new();
        let sw = net.add_switch();
        let hosts: Vec<NodeId> = (0..n)
            .map(|_| {
                let h = net.add_host();
                net.connect(h, sw, LinkSpec::gigabit_ethernet());
                h
            })
            .collect();
        (net, hosts, sw)
    }

    #[test]
    fn star_routes_via_switch() {
        let (mut net, hosts, _sw) = star(4);
        let r = net.route(hosts[0], hosts[3]);
        assert_eq!(r.len(), 2, "host→switch→host");
        assert_eq!(net.link(r[0]).from, hosts[0]);
        assert_eq!(net.link(r[1]).to, hosts[3]);
    }

    #[test]
    fn route_to_self_is_empty() {
        let (mut net, hosts, _) = star(2);
        assert!(net.route(hosts[0], hosts[0]).is_empty());
    }

    #[test]
    fn two_tier_route_length() {
        // Two leaf switches under a root: cross-leaf = 4 hops.
        let mut net = Network::new();
        let root = net.add_switch();
        let l1 = net.add_switch();
        let l2 = net.add_switch();
        net.connect(l1, root, LinkSpec::gigabit_ethernet());
        net.connect(l2, root, LinkSpec::gigabit_ethernet());
        let a = net.add_host();
        let b = net.add_host();
        net.connect(a, l1, LinkSpec::gigabit_ethernet());
        net.connect(b, l2, LinkSpec::gigabit_ethernet());
        let r = net.route(a, b);
        assert_eq!(r.len(), 4);
        // Same-leaf is 2 hops.
        let c = net.add_host();
        net.connect(c, l1, LinkSpec::gigabit_ethernet());
        assert_eq!(net.route(a, c).len(), 2);
    }

    #[test]
    fn route_cache_consistent() {
        let (mut net, hosts, _) = star(3);
        let r1 = net.route(hosts[0], hosts[1]);
        let r2 = net.route(hosts[0], hosts[1]);
        assert_eq!(r1, r2);
    }

    #[test]
    fn hosts_and_switches_listed() {
        let (net, hosts, sw) = star(5);
        assert_eq!(net.hosts().len(), 5);
        assert_eq!(net.switches, [sw]);
        assert_eq!(net.switch_ordinal(sw), Some(0));
        assert_eq!(net.switch_ordinal(hosts[0]), None);
        assert_eq!(net.links.len(), 10);
    }

    #[test]
    #[should_panic(expected = "no route")]
    fn disconnected_panics() {
        let mut net = Network::new();
        let a = net.add_host();
        let b = net.add_host();
        let _ = net.route(a, b);
    }

    #[test]
    fn try_route_reports_disconnection_as_a_value() {
        let mut net = Network::new();
        let a = net.add_host();
        let b = net.add_host();
        assert_eq!(
            net.try_route(a, b),
            Err(MbError::NoRoute { src: a.0, dst: b.0 })
        );
        // Connected pairs still route.
        let sw = net.add_switch();
        net.connect(a, sw, LinkSpec::gigabit_ethernet());
        net.connect(b, sw, LinkSpec::gigabit_ethernet());
        assert_eq!(net.try_route(a, b).map(|r| r.len()), Ok(2));
    }

    #[test]
    fn fault_topology_counts_elements() {
        let (net, _, _) = star(4);
        let topo = net.fault_topology(8);
        assert_eq!(topo.links, 8, "4 full-duplex host links");
        assert_eq!(topo.switches, 1);
        assert_eq!(topo.hosts, 4);
        assert_eq!(topo.ranks, 8);
    }

    #[test]
    #[should_panic(expected = "self-links are not allowed")]
    fn self_link_panics() {
        let mut net = Network::new();
        let a = net.add_host();
        net.connect(a, a, LinkSpec::gigabit_ethernet());
    }
}
