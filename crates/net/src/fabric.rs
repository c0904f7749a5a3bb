//! The transfer engine: queueing, cut-through pipelining and switch
//! buffer overflow.
//!
//! Every message reserves each link of its route in order. A link busy
//! with an earlier message delays the next one — this is how shared
//! uplinks serialise all-to-all traffic. Across hops, forwarding is
//! cut-through at MTU granularity, so long messages pipeline rather than
//! paying full store-and-forward per hop.
//!
//! Switches have a finite **shared buffer** drained at port speed; when a
//! message arrives into a full buffer it pays an overflow penalty
//! (modelling Ethernet pause frames / drop-and-retransmit on the
//! commodity 48-port switches of Tibidabo). That penalty is the
//! "delayed communications" of Figure 4.

use crate::graph::{LinkId, Network, NodeId};
use mb_faults::FaultPlan;
use mb_simcore::error::{MbError, MbResult};
use mb_simcore::rng::{Rng, Xoshiro256};
use mb_simcore::time::SimTime;
use std::collections::BTreeMap;

/// Ethernet MTU used for cut-through pipelining.
const MTU_BYTES: u64 = 1500;

/// How much of a single message can sit in a switch buffer at once. A
/// long stream self-paces (its tail is still on the wire while its head
/// drains), so only a window's worth of it ever occupies the buffer;
/// overflow comes from *many senders bursting together*, not from one
/// large transfer.
const BURST_WINDOW_BYTES: u64 = 64 * 1024;

/// Shared-buffer and misbehaviour model of the fabric's switches.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SwitchModel {
    /// Shared packet buffer per switch, in bytes.
    pub buffer_bytes: u64,
    /// Rate at which the buffer drains (bits per second).
    pub drain_bps: f64,
    /// Penalty paid by a message that arrives into a full buffer.
    pub overflow_penalty: SimTime,
    /// Probability, per message per switch hop, of a firmware "hiccup" —
    /// the intermittent misbehaviour of Tibidabo's commodity switches
    /// that Figure 4 exposes (a drop followed by a long retransmission
    /// timeout). Seeded and deterministic; see [`Fabric::with_seed`].
    pub hiccup_probability: f64,
    /// Delay charged to a message hit by a hiccup.
    pub hiccup_delay: SimTime,
}

impl SwitchModel {
    /// The commodity 48-port GbE switches of Tibidabo: ~1 MB shared
    /// buffer, GbE drain, a 2 ms pause/retransmit penalty, and rare but
    /// expensive hiccups (~15 ms, the scale of a retransmission timeout).
    pub fn commodity_gbe() -> Self {
        SwitchModel {
            buffer_bytes: 1 << 20,
            drain_bps: 1e9,
            overflow_penalty: SimTime::from_millis(2),
            hiccup_probability: 1.2e-4,
            hiccup_delay: SimTime::from_millis(60),
        }
    }

    /// The upgraded switches of §IV/§VI: deep buffers, 10 GbE drain,
    /// negligible penalty, no hiccups.
    pub fn upgraded() -> Self {
        SwitchModel {
            buffer_bytes: 16 << 20,
            drain_bps: 10e9,
            overflow_penalty: SimTime::from_micros(100),
            hiccup_probability: 0.0,
            hiccup_delay: SimTime::ZERO,
        }
    }
}

/// Aggregate fabric statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FabricStats {
    /// Messages delivered.
    pub messages: u64,
    /// Payload bytes delivered.
    pub bytes: u64,
    /// Switch-buffer overflow events.
    pub overflows: u64,
    /// Switch hiccup events (drop + retransmission timeout).
    pub hiccups: u64,
    /// Total time messages spent queued behind busy links (ns summed
    /// over messages and hops).
    pub queueing_ns: u64,
    /// Messages dropped by an injected switch fault (surface as
    /// [`MbError::Dropped`] from [`Fabric::try_send`]).
    pub fault_drops: u64,
    /// Total time messages spent stalled behind injected link outages
    /// (ns summed over messages and hops).
    pub fault_stall_ns: u64,
}

#[derive(Debug, Clone, Copy, Default)]
struct BufferState {
    last_update: SimTime,
    queued_bytes: f64,
}

/// The fabric: a [`Network`] plus link/buffer occupancy state.
///
/// # Examples
///
/// ```
/// use mb_net::fabric::{Fabric, SwitchModel};
/// use mb_net::graph::{LinkSpec, Network};
/// use mb_simcore::time::SimTime;
///
/// let mut net = Network::new();
/// let sw = net.add_switch();
/// let a = net.add_host();
/// let b = net.add_host();
/// net.connect(a, sw, LinkSpec::gigabit_ethernet());
/// net.connect(b, sw, LinkSpec::gigabit_ethernet());
/// let mut fabric = Fabric::new(net, Some(SwitchModel::commodity_gbe()));
/// let arrival = fabric.send(a, b, 1500, SimTime::ZERO);
/// assert!(arrival.as_micros_f64() > 60.0); // two 30 µs hops + wire time
/// ```
#[derive(Debug, Clone)]
pub struct Fabric {
    network: Network,
    // BTreeMap so that Clone/Debug and any future whole-map folds are
    // key-ordered — occupancy state must never depend on hash order.
    link_free: BTreeMap<LinkId, SimTime>,
    buffers: BTreeMap<NodeId, BufferState>,
    switch_model: Option<SwitchModel>,
    stats: FabricStats,
    rng: Xoshiro256,
    seed: u64,
    // Injected faults; empty unless a plan is installed, and an empty
    // plan's queries are neutral (no RNG draw, no float round-trip).
    faults: FaultPlan,
}

impl Fabric {
    /// Creates a fabric over a network, optionally with finite switch
    /// buffers (`None` = ideal infinite-buffer switches).
    pub fn new(network: Network, switch_model: Option<SwitchModel>) -> Self {
        let seed = 0xFAB41C;
        Fabric {
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

    /// Re-seeds the hiccup stream, builder-style. Two fabrics with the
    /// same topology, model and seed behave identically.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self.rng = Xoshiro256::seed_from(seed);
        self
    }

    /// Installs a fault plan, builder-style. An empty plan is neutral:
    /// it never draws from the hiccup stream or stretches a transfer, so
    /// the fabric produces the same bits as one that never heard of
    /// faults.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = plan;
        self
    }

    /// The installed fault plan (empty when none was installed).
    pub fn fault_plan(&self) -> &FaultPlan {
        &self.faults
    }

    /// The underlying network.
    pub fn network(&self) -> &Network {
        &self.network
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &FabricStats {
        &self.stats
    }

    /// Clears all occupancy state and statistics (topology is kept) and
    /// restarts the hiccup stream from the seed.
    pub fn reset(&mut self) {
        self.link_free.clear();
        self.buffers.clear();
        self.stats = FabricStats::default();
        self.rng = Xoshiro256::seed_from(self.seed);
    }

    /// Sends `bytes` from `src` to `dst`, departing at `depart`.
    /// Returns the arrival (fully-received) time at `dst`.
    ///
    /// # Panics
    ///
    /// Panics if no route exists, or if an installed fault plan drops
    /// the message — resilient callers use [`Fabric::try_send`].
    pub fn send(&mut self, src: NodeId, dst: NodeId, bytes: u64, depart: SimTime) -> SimTime {
        match self.try_send(src, dst, bytes, depart) {
            Ok(t) => t,
            Err(e) => panic!("{e}"),
        }
    }

    /// [`Fabric::send`] with recoverable failures surfaced as values.
    ///
    /// With a fault plan installed, the message additionally stalls
    /// behind link outages, transmits slower through degraded links, and
    /// may be dropped by a misbehaving switch. Link occupancy consumed
    /// before the drop point stays consumed — a dropped message wasted
    /// real wire time, exactly like the hiccup retransmissions.
    ///
    /// # Errors
    ///
    /// [`MbError::NoRoute`] if the nodes are disconnected;
    /// [`MbError::Dropped`] if an injected switch fault eats the message.
    pub fn try_send(
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

/// Stretches a duration by `1 / factor` (degraded links only: a healthy
/// link's factor is exactly `1.0`, so its times never round-trip through
/// floats).
fn scale_by_inverse(t: SimTime, factor: f64) -> SimTime {
    SimTime::from_nanos((t.as_nanos() as f64 / factor).round() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::LinkSpec;

    fn star(n: usize, model: Option<SwitchModel>) -> (Fabric, Vec<NodeId>) {
        let mut net = Network::new();
        let sw = net.add_switch();
        let hosts: Vec<NodeId> = (0..n)
            .map(|_| {
                let h = net.add_host();
                net.connect(h, sw, LinkSpec::gigabit_ethernet());
                h
            })
            .collect();
        (Fabric::new(net, model), hosts)
    }

    #[test]
    fn single_message_latency() {
        let (mut f, h) = star(2, None);
        // 1500 B over 2 GbE hops: 2 × (12 µs wire + 30 µs hop latency),
        // minus pipelining (second hop starts after the first chunk —
        // which is the whole message here).
        let t = f.send(h[0], h[1], 1500, SimTime::ZERO);
        let wire = 1500.0 * 8.0 / 1e9; // 12 µs
        let expect = 2.0 * (wire + 30e-6);
        assert!((t.as_secs_f64() - expect).abs() < 1e-9, "{t}");
    }

    #[test]
    fn large_message_pipelines() {
        let (mut f, h) = star(2, None);
        let t = f.send(h[0], h[1], 1_500_000, SimTime::ZERO);
        // Full store-and-forward would be 2 × 12 ms; pipelining should be
        // close to 12 ms + small change.
        let secs = t.as_secs_f64();
        assert!(secs > 0.012 && secs < 0.0135, "got {secs}");
    }

    #[test]
    fn self_send_is_free() {
        let (mut f, h) = star(2, None);
        let t = f.send(h[0], h[0], 1 << 20, SimTime::from_micros(5));
        assert_eq!(t, SimTime::from_micros(5));
    }

    #[test]
    fn shared_destination_link_serialises() {
        let (mut f, h) = star(3, None);
        // Two senders target the same receiver at the same time: the
        // switch→receiver link serialises them.
        let t1 = f.send(h[0], h[2], 1_000_000, SimTime::ZERO);
        let t2 = f.send(h[1], h[2], 1_000_000, SimTime::ZERO);
        assert!(
            t2.as_secs_f64() > t1.as_secs_f64() + 0.007,
            "{t1} then {t2}"
        );
        assert!(f.stats().queueing_ns > 0);
    }

    #[test]
    fn disjoint_pairs_do_not_interfere() {
        let (mut f, h) = star(4, None);
        let t1 = f.send(h[0], h[1], 1_000_000, SimTime::ZERO);
        let t2 = f.send(h[2], h[3], 1_000_000, SimTime::ZERO);
        assert_eq!(t1, t2, "independent pairs run in parallel");
    }

    #[test]
    fn buffer_overflow_penalised() {
        let model = SwitchModel {
            buffer_bytes: 100_000,
            drain_bps: 1e9,
            overflow_penalty: SimTime::from_millis(2),
            hiccup_probability: 0.0,
            hiccup_delay: SimTime::ZERO,
        };
        let (mut f, h) = star(8, Some(model));
        // Seven senders slam one receiver with big messages at t=0.
        let mut arrivals = Vec::new();
        for i in 1..8 {
            arrivals.push(f.send(h[i], h[0], 500_000, SimTime::ZERO));
        }
        assert!(f.stats().overflows > 0, "expected overflows");
        // The last arrival reflects serialisation + at least one penalty.
        let last = arrivals.iter().max().copied().expect("non-empty");
        let serial_only = 7.0 * 500_000.0 * 8.0 / 1e9;
        assert!(last.as_secs_f64() > serial_only);
    }

    #[test]
    fn upgraded_switches_reduce_congestion() {
        // 31 senders bursting at once exceed the commodity switch's 1 MB
        // shared buffer (each message charges one 64 KB burst window)
        // but not the upgraded switch's 16 MB.
        let run = |model: SwitchModel| {
            let (mut f, h) = star(32, Some(model));
            let mut last = SimTime::ZERO;
            for i in 1..32 {
                last = last.max(f.send(h[i], h[0], 400_000, SimTime::ZERO));
            }
            (last, f.stats().overflows)
        };
        let (slow, ov_slow) = run(SwitchModel::commodity_gbe());
        let (fast, ov_fast) = run(SwitchModel::upgraded());
        assert!(ov_slow > 0, "commodity switch must overflow");
        assert!(fast < slow, "upgraded {fast} vs commodity {slow}");
        assert!(ov_fast < ov_slow);
    }

    #[test]
    fn stats_accumulate_and_reset() {
        let (mut f, h) = star(2, None);
        f.send(h[0], h[1], 1000, SimTime::ZERO);
        assert_eq!(f.stats().messages, 1);
        assert_eq!(f.stats().bytes, 1000);
        f.reset();
        assert_eq!(f.stats().messages, 0);
        // After reset links are free again: same arrival as a cold send.
        let a = f.send(h[0], h[1], 1000, SimTime::ZERO);
        f.reset();
        let b = f.send(h[0], h[1], 1000, SimTime::ZERO);
        assert_eq!(a, b);
    }

    #[test]
    fn link_down_window_stalls_traffic() {
        use mb_faults::{Fault, FaultPlan, FaultWindow};
        let (f, h) = star(2, None);
        // Host 0's uplink (link 0) is down for [0, 5 ms).
        let plan = FaultPlan::from_faults(
            0,
            vec![Fault::LinkDown {
                link: 0,
                window: FaultWindow {
                    start: SimTime::ZERO,
                    end: SimTime::from_millis(5),
                },
            }],
        );
        let mut f = f.with_faults(plan);
        let t = f.try_send(h[0], h[1], 1500, SimTime::ZERO).unwrap();
        assert!(t > SimTime::from_millis(5), "stalled past the outage: {t}");
        assert!(f.stats().fault_stall_ns >= 5_000_000);
        // The reverse direction (a different directed link) is unaffected.
        let back = f.try_send(h[1], h[0], 1500, SimTime::ZERO).unwrap();
        assert!(back < SimTime::from_millis(1), "{back}");
    }

    #[test]
    fn degraded_link_transmits_slower() {
        use mb_faults::{Fault, FaultPlan, FaultWindow};
        let window = FaultWindow {
            start: SimTime::ZERO,
            end: SimTime::from_secs(1),
        };
        let (f, h) = star(2, None);
        // Degrade the delivery hop (link 3 = switch→h[1]); in the
        // cut-through model the last hop's transmit time governs arrival.
        let plan = FaultPlan::from_faults(
            0,
            vec![Fault::LinkDegrade {
                link: 3,
                window,
                bandwidth_factor: 0.1,
            }],
        );
        let mut degraded = f.with_faults(plan);
        let slow = degraded
            .try_send(h[0], h[1], 1_000_000, SimTime::ZERO)
            .unwrap();
        let (mut clean, h2) = star(2, None);
        let fast = clean.send(h2[0], h2[1], 1_000_000, SimTime::ZERO);
        // 1 MB at 10% of GbE on the delivery hop: ~80 ms vs ~8 ms.
        assert!(
            slow.as_secs_f64() > 8.0 * fast.as_secs_f64(),
            "slow {slow} vs fast {fast}"
        );
    }

    #[test]
    fn faulted_switch_drops_messages() {
        use mb_faults::{Fault, FaultPlan, FaultWindow};
        let (f, h) = star(2, None);
        let plan = FaultPlan::from_faults(
            0,
            vec![Fault::SwitchDrop {
                switch: 0,
                window: FaultWindow {
                    start: SimTime::ZERO,
                    end: SimTime::from_secs(1),
                },
                drop_probability: 1.0,
            }],
        );
        let mut f = f.with_faults(plan);
        let err = f.try_send(h[0], h[1], 1500, SimTime::ZERO).unwrap_err();
        assert!(
            matches!(err, MbError::Dropped { src: 0.., .. }),
            "expected Dropped, got {err:?}"
        );
        assert_eq!(f.stats().fault_drops, 1);
    }

    #[test]
    fn later_departure_later_arrival() {
        let (mut f, h) = star(2, None);
        let a = f.send(h[0], h[1], 1000, SimTime::ZERO);
        f.reset();
        let b = f.send(h[0], h[1], 1000, SimTime::from_millis(1));
        assert_eq!(
            b.saturating_sub(SimTime::from_millis(1)),
            a,
            "pure time shift"
        );
    }
}
