//! Topology builders and the Tibidabo presets.

use crate::fabric::{Fabric, SwitchModel};
use crate::graph::{LinkSpec, Network, NodeId};

/// Builds a hierarchical switch tree: hosts attach to leaf switches with
/// `hosts_per_leaf` ports used downward; leaves uplink to a single root
/// switch. Both tiers use `edge` links for host attachment and `uplink`
/// links for leaf→root (commodity trees are oversubscribed exactly
/// because the uplink is no faster than the edge).
///
/// Returns the network and the host ids, in order.
///
/// # Panics
///
/// Panics if `hosts == 0` or `hosts_per_leaf == 0`.
pub fn switch_tree(
    hosts: usize,
    hosts_per_leaf: usize,
    edge: LinkSpec,
    uplink: LinkSpec,
) -> (Network, Vec<NodeId>) {
    assert!(hosts > 0, "need at least one host");
    assert!(hosts_per_leaf > 0, "need at least one port per leaf");
    let mut net = Network::new();
    let mut host_ids = Vec::with_capacity(hosts);
    let leaves = hosts.div_ceil(hosts_per_leaf);
    if leaves == 1 {
        // A single switch suffices; no root tier.
        let sw = net.add_switch();
        for _ in 0..hosts {
            let h = net.add_host();
            net.connect(h, sw, edge);
            host_ids.push(h);
        }
        return (net, host_ids);
    }
    let root = net.add_switch();
    for leaf_idx in 0..leaves {
        let leaf = net.add_switch();
        net.connect(leaf, root, uplink);
        let lo = leaf_idx * hosts_per_leaf;
        let hi = (lo + hosts_per_leaf).min(hosts);
        for _ in lo..hi {
            let h = net.add_host();
            net.connect(h, leaf, edge);
            host_ids.push(h);
        }
    }
    (net, host_ids)
}

/// Boards attached per leaf switch on Tibidabo. The deployment wires
/// blades of boards to small leaf switches that uplink into the 48-port
/// aggregation tier, so even modest runs (18 nodes / 36 cores, the
/// Figure 4 configuration) cross switch boundaries.
pub const TIBIDABO_HOSTS_PER_LEAF: usize = 16;

/// The Tibidabo fabric for `nodes` Tegra2 boards: GbE everywhere,
/// hierarchical 48-port switches, commodity shallow-buffer switch model
/// (§II.B). This is the fabric whose congestion Figure 4 exposes.
pub fn tibidabo_fabric(nodes: usize) -> Fabric {
    let (net, _) = switch_tree(
        nodes,
        TIBIDABO_HOSTS_PER_LEAF,
        LinkSpec::gigabit_ethernet(),
        LinkSpec::gigabit_ethernet(),
    );
    Fabric::new(net, Some(SwitchModel::commodity_gbe()))
}

/// Tibidabo with `bond`-wide 802.3ad-bonded GbE uplinks — the cheap
/// intermediate between the commodity fabric and the full switch
/// upgrade.
///
/// # Panics
///
/// Panics if `bond` is zero.
pub fn tibidabo_fabric_bonded(nodes: usize, bond: u32) -> Fabric {
    let (net, _) = switch_tree(
        nodes,
        TIBIDABO_HOSTS_PER_LEAF,
        LinkSpec::gigabit_ethernet(),
        LinkSpec::gigabit_ethernet().bonded(bond),
    );
    Fabric::new(net, Some(SwitchModel::commodity_gbe()))
}

/// The "upgraded switches" variant the paper expects to fix the problem:
/// 10 GbE uplinks and deep-buffer switches.
pub fn tibidabo_fabric_upgraded(nodes: usize) -> Fabric {
    let (net, _) = switch_tree(
        nodes,
        TIBIDABO_HOSTS_PER_LEAF,
        LinkSpec::gigabit_ethernet(),
        LinkSpec::ten_gigabit_ethernet(),
    );
    Fabric::new(net, Some(SwitchModel::upgraded()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mb_simcore::time::SimTime;

    #[test]
    fn small_cluster_is_single_switch() {
        let (net, hosts) = switch_tree(
            8,
            44,
            LinkSpec::gigabit_ethernet(),
            LinkSpec::gigabit_ethernet(),
        );
        assert_eq!(hosts.len(), 8);
        assert_eq!(net.fault_topology(0).switches, 1);
    }

    #[test]
    fn large_cluster_is_two_tier() {
        let (mut net, hosts) = switch_tree(
            100,
            44,
            LinkSpec::gigabit_ethernet(),
            LinkSpec::gigabit_ethernet(),
        );
        assert_eq!(hosts.len(), 100);
        // 3 leaves + root.
        assert_eq!(net.fault_topology(0).switches, 4);
        // Same-leaf: 2 hops; cross-leaf: 4 hops.
        assert_eq!(net.route(hosts[0], hosts[1]).len(), 2);
        assert_eq!(net.route(hosts[0], hosts[99]).len(), 4);
    }

    #[test]
    fn tibidabo_presets_route() {
        let mut f = tibidabo_fabric(64);
        let hosts = f.network().hosts().to_vec();
        assert_eq!(hosts.len(), 64);
        let t = f.send(hosts[0], hosts[63], 1 << 16, SimTime::ZERO);
        assert!(t > SimTime::ZERO);
    }

    #[test]
    fn upgraded_fabric_faster_under_load() {
        let load = |mut f: Fabric| {
            let hosts = f.network().hosts().to_vec();
            let mut last = SimTime::ZERO;
            // Sixteen disjoint cross-leaf pairs all start at once: the
            // shared leaf->root uplink is the bottleneck, so the 10 GbE
            // upgrade shows directly.
            for i in 0..16 {
                last = last.max(f.send(hosts[i], hosts[16 + i], 200_000, SimTime::ZERO));
            }
            last
        };
        let slow = load(tibidabo_fabric(60));
        let fast = load(tibidabo_fabric_upgraded(60));
        assert!(fast < slow, "upgraded {fast} should beat commodity {slow}");
    }

    #[test]
    fn bonded_uplinks_sit_between_commodity_and_upgrade() {
        let load = |mut f: Fabric| {
            let hosts = f.network().hosts().to_vec();
            let mut last = SimTime::ZERO;
            for i in 0..16 {
                last = last.max(f.send(hosts[i], hosts[16 + i], 200_000, SimTime::ZERO));
            }
            last
        };
        let single = load(tibidabo_fabric(60));
        let bonded = load(tibidabo_fabric_bonded(60, 4));
        let upgraded = load(tibidabo_fabric_upgraded(60));
        assert!(bonded < single, "bonding must help: {bonded} vs {single}");
        assert!(
            upgraded < bonded,
            "the full upgrade still wins: {upgraded} vs {bonded}"
        );
    }

    #[test]
    #[should_panic(expected = "bond needs at least one link")]
    fn zero_bond_panics() {
        let _ = LinkSpec::gigabit_ethernet().bonded(0);
    }

    #[test]
    #[should_panic(expected = "need at least one host")]
    fn zero_hosts_panics() {
        let _ = switch_tree(
            0,
            44,
            LinkSpec::gigabit_ethernet(),
            LinkSpec::gigabit_ethernet(),
        );
    }
}
