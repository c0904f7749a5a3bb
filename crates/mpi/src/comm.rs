//! The communicator: ranks, clocks, point-to-point and collectives.

use crate::resilience::{ResilienceStats, RetryPolicy};
use mb_faults::FaultPlan;
use mb_net::fabric::Fabric;
use mb_net::graph::NodeId;
use mb_simcore::error::{MbError, MbResult};
use mb_simcore::time::SimTime;
use mb_trace::record::{CollectiveKind, CommRecord, StateKind};
use mb_trace::trace::Trace;

/// Configuration of a communicator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CommConfig {
    /// Number of ranks.
    pub ranks: u32,
    /// Ranks packed per host (cores per node).
    pub ranks_per_host: u32,
    /// Software (MPI stack + NIC driver) overhead per message at each
    /// endpoint.
    pub per_message_overhead: SimTime,
    /// Effective bandwidth of intra-node (shared-memory) transfers, in
    /// bytes per second.
    pub intra_node_bw: f64,
    /// Whether to record a trace.
    pub tracing: bool,
}

impl CommConfig {
    /// Tibidabo defaults: 2 ranks per Tegra2 node, ~25 µs per-message
    /// software overhead (slow ARM cores running the MPI stack), ~1 GB/s
    /// shared-memory bandwidth.
    pub fn tibidabo(ranks: u32) -> Self {
        CommConfig {
            ranks,
            ranks_per_host: 2,
            per_message_overhead: SimTime::from_micros(25),
            intra_node_bw: 1e9,
            tracing: false,
        }
    }
}

/// A simulated communicator over a fabric.
///
/// Ranks have private clocks; operations advance them. The orchestration
/// style is "program order per rank": the experiment code calls
/// collective/point-to-point methods and the communicator resolves the
/// timing through the fabric.
///
/// Every communicator reacts to the fault plan its fabric carries
/// (see [`crate::resilience`]). With the empty plan every rank stays
/// alive, no message drops and every counter stays zero, so a healthy
/// run is simply a run under the empty plan.
#[derive(Debug)]
pub struct Comm {
    fabric: Fabric,
    cfg: CommConfig,
    hosts: Vec<NodeId>,
    clock: Vec<SimTime>,
    trace: Trace,
    next_op: u64,
    // The reaction to the fabric's fault plan (the plan itself lives
    // only in the fabric): retransmission policy, the plan's rank
    // crashes as `(rank, at)` in rank order (so a liveness refresh
    // visits only the ranks that can die), liveness per rank and the
    // degradation counters.
    policy: RetryPolicy,
    crashes: Vec<(u32, SimTime)>,
    alive: Vec<bool>,
    stats: ResilienceStats,
}

impl Comm {
    /// Creates a fault-free communicator over `fabric`: any plan the
    /// fabric carries is replaced by the empty one.
    ///
    /// # Panics
    ///
    /// Panics if the fabric has too few hosts for
    /// `ranks / ranks_per_host`, or if `ranks` or `ranks_per_host` is
    /// zero. Use [`Comm::resilient`] to get the condition as a value.
    pub fn new(fabric: Fabric, cfg: CommConfig) -> Self {
        match Comm::resilient(fabric, cfg, FaultPlan::default(), RetryPolicy::default()) {
            Ok(c) => c,
            Err(e) => panic!("{e}"),
        }
    }

    /// Creates a fault-tolerant communicator: the plan is installed into
    /// the fabric (link/switch faults, rank crashes, stragglers), and
    /// dropped messages are retransmitted under `policy`. Under an empty
    /// plan the communicator is the fault-free one of [`Comm::new`].
    ///
    /// # Errors
    ///
    /// [`MbError::InvalidConfig`] if `ranks` or `ranks_per_host` is zero
    /// or the fabric has too few hosts.
    pub fn resilient(
        fabric: Fabric,
        cfg: CommConfig,
        plan: FaultPlan,
        policy: RetryPolicy,
    ) -> MbResult<Self> {
        if cfg.ranks == 0 {
            return Err(MbError::InvalidConfig {
                what: "need at least one rank".to_string(),
            });
        }
        if cfg.ranks_per_host == 0 {
            return Err(MbError::InvalidConfig {
                what: "need at least one rank per host".to_string(),
            });
        }
        let hosts_needed = cfg.ranks.div_ceil(cfg.ranks_per_host) as usize;
        let fabric_hosts = fabric.network().hosts();
        if fabric_hosts.len() < hosts_needed {
            return Err(MbError::InvalidConfig {
                what: format!(
                    "fabric has {} hosts, {} needed",
                    fabric_hosts.len(),
                    hosts_needed
                ),
            });
        }
        let hosts = (0..cfg.ranks)
            .map(|r| fabric_hosts[(r / cfg.ranks_per_host) as usize])
            .collect();
        let crashes = (0..cfg.ranks)
            .filter_map(|r| plan.crash_time(r).map(|at| (r, at)))
            .collect();
        Ok(Comm {
            fabric: fabric.with_faults(plan),
            cfg,
            hosts,
            clock: vec![SimTime::ZERO; cfg.ranks as usize],
            trace: Trace::new(cfg.ranks),
            next_op: 0,
            policy,
            crashes,
            alive: vec![true; cfg.ranks as usize],
            stats: ResilienceStats::default(),
        })
    }

    /// Resilience counters (all zero under the empty plan).
    pub fn resilience_stats(&self) -> ResilienceStats {
        self.stats
    }

    /// Whether the rank is still alive (always true under the empty
    /// plan).
    ///
    /// # Panics
    ///
    /// Panics if the rank is out of range.
    pub fn is_alive(&self, rank: u32) -> bool {
        self.alive[rank as usize]
    }

    /// Number of ranks still alive.
    pub fn surviving_ranks(&self) -> u32 {
        self.alive.iter().filter(|a| **a).count() as u32
    }

    /// The clock of one rank.
    ///
    /// # Panics
    ///
    /// Panics if the rank is out of range.
    pub fn clock(&self, rank: u32) -> SimTime {
        self.clock[rank as usize]
    }

    /// The latest rank clock — the current makespan.
    pub fn max_clock(&self) -> SimTime {
        self.clock.iter().copied().max().unwrap_or(SimTime::ZERO)
    }

    /// The recorded trace (empty if tracing is disabled).
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Consumes the communicator, returning the trace.
    pub fn into_trace(self) -> Trace {
        self.trace
    }

    /// The underlying fabric (for congestion statistics).
    pub fn fabric(&self) -> &Fabric {
        &self.fabric
    }

    /// Marks `rank` dead if its crash time has passed its clock.
    fn refresh_crash(&mut self, rank: u32) {
        let r = rank as usize;
        if !self.alive[r] {
            return;
        }
        if let Some(&(_, at)) = self.crashes.iter().find(|&&(c, _)| c == rank) {
            if self.clock[r] >= at {
                self.alive[r] = false;
                self.stats.crashed_ranks += 1;
                if self.cfg.tracing {
                    self.trace
                        .push_event(rank, self.clock[r], "rank_crash", rank as u64);
                }
            }
        }
    }

    /// Refreshes every rank's liveness.
    fn refresh_crashes(&mut self) {
        for i in 0..self.crashes.len() {
            self.refresh_crash(self.crashes[i].0);
        }
    }

    /// Refreshes every rank's liveness; true when anyone is dead.
    fn any_rank_dead(&mut self) -> bool {
        self.refresh_crashes();
        self.alive.contains(&false)
    }

    /// Surviving ranks in rank order.
    fn alive_ranks(&self) -> Vec<u32> {
        (0..self.cfg.ranks).filter(|&r| self.is_alive(r)).collect()
    }

    /// Advances one rank's clock by a computation phase. A straggler
    /// window multiplies the duration, and a crashed rank stops
    /// computing entirely.
    ///
    /// # Panics
    ///
    /// Panics if the rank is out of range.
    pub fn compute(&mut self, rank: u32, duration: SimTime) {
        let start = self.clock[rank as usize];
        self.refresh_crash(rank);
        if !self.alive[rank as usize] {
            return;
        }
        let host = rank / self.cfg.ranks_per_host;
        let factor = self.fabric.fault_plan().straggler_factor(host, start);
        let duration = if factor != 1.0 {
            SimTime::from_nanos((duration.as_nanos() as f64 * factor).round() as u64)
        } else {
            duration
        };
        self.clock[rank as usize] += duration;
        if self.cfg.tracing {
            self.trace
                .push_state(rank, start, start + duration, StateKind::Compute);
        }
    }

    /// Core transfer primitive: departs at the sender's clock, arrives
    /// per the fabric (or the intra-node copy model), both endpoints pay
    /// the software overhead. The *sender's* clock advances past the
    /// send overhead only (eager protocol); the receiver's clock is
    /// pushed to the arrival. A message with a crashed endpoint is
    /// skipped, and one that times out (see [`Comm::deliver`]) never
    /// advances its receiver.
    fn transfer(&mut self, src: u32, dst: u32, bytes: u64, coll: Option<(CollectiveKind, u64)>) {
        self.refresh_crash(src);
        self.refresh_crash(dst);
        if !self.alive[src as usize] || !self.alive[dst as usize] {
            self.stats.skipped_messages += 1;
            return;
        }
        let depart = self.clock[src as usize] + self.cfg.per_message_overhead;
        let (arrive, sender_done) = self.deliver(src, dst, bytes, depart);
        self.clock[src as usize] = sender_done;
        if let Some(arrive) = arrive {
            let recv_done = arrive + self.cfg.per_message_overhead;
            self.clock[dst as usize] = self.clock[dst as usize].max(recv_done);
            self.record(src, dst, depart, recv_done, bytes, coll);
        }
    }

    /// Moves one message departing at `depart`: an intra-node copy, or a
    /// fabric send whose drops are retransmitted with bounded backoff per
    /// the retry policy. Returns `(arrival, sender-done time)`; arrival
    /// is `None` when the retry budget is exhausted (an `mpi_timeout`:
    /// the message is abandoned).
    ///
    /// # Panics
    ///
    /// Panics if the fabric has no route between the ranks' hosts.
    fn deliver(
        &mut self,
        src: u32,
        dst: u32,
        bytes: u64,
        depart: SimTime,
    ) -> (Option<SimTime>, SimTime) {
        let (src_host, dst_host) = (self.hosts[src as usize], self.hosts[dst as usize]);
        if src_host == dst_host {
            let arrive = depart + SimTime::from_secs_f64(bytes as f64 / self.cfg.intra_node_bw);
            return (Some(arrive), depart);
        }
        let mut attempt = 0u32;
        let mut when = depart;
        loop {
            match self.fabric.try_send(src_host, dst_host, bytes, when) {
                Ok(arrive) => return (Some(arrive), when),
                Err(MbError::Dropped { .. }) => {
                    if attempt >= self.policy.max_retries {
                        self.stats.timeouts += 1;
                        if self.cfg.tracing {
                            self.trace.push_event(src, when, "mpi_timeout", dst as u64);
                        }
                        return (None, when);
                    }
                    self.stats.retries += 1;
                    if self.cfg.tracing {
                        self.trace
                            .push_event(src, when, "mpi_retry", (attempt + 1) as u64);
                    }
                    when += self.policy.backoff_before(attempt);
                    attempt += 1;
                }
                Err(e) => panic!("{e}"),
            }
        }
    }

    /// Records one delivered message in the trace, if tracing.
    fn record(
        &mut self,
        src: u32,
        dst: u32,
        send_time: SimTime,
        recv_time: SimTime,
        bytes: u64,
        collective: Option<(CollectiveKind, u64)>,
    ) {
        if self.cfg.tracing {
            self.trace.push_comm(CommRecord {
                src,
                dst,
                send_time,
                recv_time,
                bytes,
                collective,
            });
        }
    }

    /// Point-to-point send of `bytes` from `src` to `dst`.
    ///
    /// # Panics
    ///
    /// Panics if either rank is out of range or `src == dst`.
    pub fn p2p(&mut self, src: u32, dst: u32, bytes: u64) {
        assert!(src != dst, "p2p requires distinct ranks");
        assert!(src < self.cfg.ranks && dst < self.cfg.ranks, "rank range");
        self.transfer(src, dst, bytes, None);
    }

    /// Non-blocking exchange (`isend`/`irecv` + `waitall`): every message
    /// departs based on its sender's clock **at entry** (multiple sends
    /// from one rank stagger by the per-message overhead), and receivers
    /// only advance to their latest arrival. This is how real halo
    /// exchanges avoid the serial cascade a chain of blocking sends would
    /// create.
    ///
    /// # Panics
    ///
    /// Panics if any rank is out of range or a message is a self-send.
    pub fn exchange(&mut self, messages: &[(u32, u32, u64)]) {
        self.exchange_tagged(messages, None);
    }

    /// [`Comm::exchange`] with a collective tag on every message.
    /// Messages touching a crashed rank are skipped, and a timed-out
    /// message never advances its receiver; crashed ranks' clocks stay
    /// frozen.
    fn exchange_tagged(
        &mut self,
        messages: &[(u32, u32, u64)],
        coll: Option<(CollectiveKind, u64)>,
    ) {
        let n = self.cfg.ranks;
        for &(src, dst, _) in messages {
            assert!(src < n && dst < n, "rank range");
            assert!(src != dst, "exchange messages must cross ranks");
        }
        self.refresh_crashes();
        let entry: Vec<SimTime> = self.clock.clone();
        let mut sends_posted = vec![0u64; n as usize];
        let mut recv_latest: Vec<SimTime> = entry.clone();
        let mut send_latest: Vec<SimTime> = entry.clone();
        for &(src, dst, bytes) in messages {
            if !self.alive[src as usize] || !self.alive[dst as usize] {
                self.stats.skipped_messages += 1;
                continue;
            }
            let depart = entry[src as usize]
                + self.cfg.per_message_overhead * (sends_posted[src as usize] + 1);
            sends_posted[src as usize] += 1;
            let (arrive, sender_done) = self.deliver(src, dst, bytes, depart);
            send_latest[src as usize] = send_latest[src as usize].max(sender_done);
            if let Some(arrive) = arrive {
                let recv_done = arrive + self.cfg.per_message_overhead;
                recv_latest[dst as usize] = recv_latest[dst as usize].max(recv_done);
                self.record(src, dst, depart, recv_done, bytes, coll);
            }
        }
        for r in 0..n as usize {
            if self.alive[r] {
                self.clock[r] = send_latest[r].max(recv_latest[r]);
            }
        }
    }

    /// Barrier: everyone waits for the slowest rank (implemented as a
    /// zero-byte binomial gather + broadcast timing using pure clock
    /// synchronisation plus a small latency per round).
    pub fn barrier(&mut self) {
        let id = self.bump_op();
        // Gather phase (binomial): child → parent zero-ish messages.
        self.binomial_to_root(0, 1, Some((CollectiveKind::Barrier, id)));
        self.binomial_from_root(0, 1, Some((CollectiveKind::Barrier, id)));
    }

    /// Segment size above which broadcasts pipeline (production MPIs
    /// switch algorithms around this scale).
    pub const BCAST_SEGMENT: u64 = 128 * 1024;

    /// Binomial-tree broadcast of `bytes` from `root`. Large payloads are
    /// pipelined in [`Self::BCAST_SEGMENT`]-byte segments down the same
    /// tree: a rank forwards segment *s* as soon as it holds it, while
    /// segment *s+1* is still arriving — so the makespan approaches
    /// `bytes/bandwidth + depth·segment_time` instead of
    /// `depth·bytes/bandwidth`.
    ///
    /// # Panics
    ///
    /// Panics if `root` is out of range.
    pub fn bcast(&mut self, root: u32, bytes: u64) {
        assert!(root < self.cfg.ranks, "root out of range");
        let id = self.bump_op();
        if bytes <= Self::BCAST_SEGMENT {
            self.binomial_from_root(root, bytes, Some((CollectiveKind::Bcast, id)));
            return;
        }
        let full_segments = bytes / Self::BCAST_SEGMENT;
        let tail = bytes % Self::BCAST_SEGMENT;
        for _ in 0..full_segments {
            self.binomial_from_root(root, Self::BCAST_SEGMENT, Some((CollectiveKind::Bcast, id)));
        }
        if tail > 0 {
            self.binomial_from_root(root, tail, Some((CollectiveKind::Bcast, id)));
        }
    }

    /// Pipelined ring broadcast — HPL's `1ring` algorithm: the payload
    /// travels rank → rank+1 → … in segments, so the pipe fills and the
    /// makespan approaches `bytes/bandwidth + (p−2)·segment_time`.
    /// Neighbouring ranks share nodes and leaf switches, so (unlike the
    /// binomial tree) a ring broadcast barely touches the uplinks — the
    /// reason HPL tolerates hierarchical commodity Ethernet.
    ///
    /// # Panics
    ///
    /// Panics if `root` is out of range.
    pub fn bcast_ring(&mut self, root: u32, bytes: u64) {
        assert!(root < self.cfg.ranks, "root out of range");
        let n = self.cfg.ranks;
        if n == 1 {
            return;
        }
        let id = self.bump_op();
        // The chain root, root+1, … over the survivors: under crashes it
        // re-closes around the dead ranks so the payload still reaches
        // every survivor.
        self.refresh_crashes();
        let chain: Vec<u32> = (0..n)
            .map(|i| (root + i) % n)
            .filter(|&r| self.is_alive(r))
            .collect();
        if chain.len() < 2 {
            return;
        }
        const SEGMENT: u64 = 1024 * 1024;
        let mut remaining = bytes;
        while remaining > 0 {
            let seg = remaining.min(SEGMENT);
            remaining -= seg;
            for w in chain.windows(2) {
                self.transfer(w[0], w[1], seg, Some((CollectiveKind::Bcast, id)));
            }
        }
    }

    /// Binomial-tree reduction of `bytes` to `root`.
    ///
    /// # Panics
    ///
    /// Panics if `root` is out of range.
    pub fn reduce(&mut self, root: u32, bytes: u64) {
        assert!(root < self.cfg.ranks, "root out of range");
        let id = self.bump_op();
        self.binomial_to_root(root, bytes, Some((CollectiveKind::Allreduce, id)));
    }

    /// All-reduce: reduce to rank 0 then broadcast (both binomial).
    pub fn allreduce(&mut self, bytes: u64) {
        let id = self.bump_op();
        self.binomial_to_root(0, bytes, Some((CollectiveKind::Allreduce, id)));
        self.binomial_from_root(0, bytes, Some((CollectiveKind::Allreduce, id)));
    }

    /// The ring schedule: every survivor sends to its successor among
    /// the survivors for `survivors−1` steps — with every rank alive,
    /// rank `r` to `r+1` for `p−1` steps; under crashes the ring
    /// re-closes around the gap.
    fn ring_schedule(&mut self, bytes: u64) -> (Vec<(u32, u32, u64)>, u32) {
        self.refresh_crashes();
        let alive = self.alive_ranks();
        if alive.len() < 2 {
            return (Vec::new(), 0);
        }
        let msgs = (0..alive.len())
            .map(|i| (alive[i], alive[(i + 1) % alive.len()], bytes))
            .collect();
        (msgs, alive.len() as u32 - 1)
    }

    /// Reduce-scatter via the ring algorithm: `p−1` steps, each rank
    /// passing a shrinking partial sum to its successor. The building
    /// block of the ring all-reduce.
    pub fn reduce_scatter_ring(&mut self, bytes: u64) {
        let n = self.cfg.ranks;
        if n == 1 {
            return;
        }
        let id = self.bump_op();
        let block = (bytes / n as u64).max(1);
        let (msgs, steps) = self.ring_schedule(block);
        for _step in 0..steps {
            self.exchange_tagged(&msgs, Some((CollectiveKind::Allreduce, id)));
        }
    }

    /// Ring all-reduce (reduce-scatter + all-gather), the
    /// bandwidth-optimal algorithm for large payloads: each rank moves
    /// `2·(p−1)/p · bytes` regardless of `p`.
    pub fn allreduce_ring(&mut self, bytes: u64) {
        let n = self.cfg.ranks;
        if n == 1 {
            return;
        }
        self.reduce_scatter_ring(bytes);
        let block = (bytes / n as u64).max(1);
        let id = self.bump_op();
        let (msgs, steps) = self.ring_schedule(block);
        for _step in 0..steps {
            self.exchange_tagged(&msgs, Some((CollectiveKind::Allreduce, id)));
        }
    }

    /// Regular all-to-all: every rank sends `bytes` to every other rank
    /// (linear pairwise exchange).
    pub fn alltoall(&mut self, bytes: u64) {
        let n = self.cfg.ranks;
        let matrix = vec![vec![bytes; n as usize]; n as usize];
        self.alltoallv_impl(&matrix, CollectiveKind::Alltoall);
    }

    /// Vector all-to-all: `matrix[src][dst]` bytes from each `src` to
    /// each `dst` — BigDFT's dominant pattern (Figure 4). Diagonal
    /// entries are ignored.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not `ranks × ranks`.
    pub fn alltoallv(&mut self, matrix: &[Vec<u64>]) {
        self.alltoallv_impl(matrix, CollectiveKind::Alltoallv);
    }

    fn alltoallv_impl(&mut self, matrix: &[Vec<u64>], kind: CollectiveKind) {
        let n = self.cfg.ranks as usize;
        assert_eq!(matrix.len(), n, "matrix rows must equal rank count");
        assert!(
            matrix.iter().all(|row| row.len() == n),
            "matrix columns must equal rank count"
        );
        let id = self.bump_op();
        // Linear exchange with rank-rotated pairing (each round r, rank i
        // sends to (i + r) mod n) — the classic schedule, which floods
        // shared uplinks when n outgrows one switch.
        for round in 1..n {
            #[allow(clippy::needless_range_loop)] // src indexes ranks and matrix rows
            for src in 0..n {
                let dst = (src + round) % n;
                let bytes = matrix[src][dst];
                if bytes > 0 {
                    self.transfer(src as u32, dst as u32, bytes, Some((kind, id)));
                }
            }
        }
        // A collective completes everywhere only when the last message
        // lands: synchronise the participants (survivors only — a
        // crashed rank's clock stays frozen at its death).
        let max = (0..self.cfg.ranks)
            .filter(|&r| self.is_alive(r))
            .map(|r| self.clock[r as usize])
            .max()
            .unwrap_or(SimTime::ZERO);
        for r in 0..self.cfg.ranks {
            if self.is_alive(r) {
                self.clock[r as usize] = max;
            }
        }
    }

    fn bump_op(&mut self) -> u64 {
        let id = self.next_op;
        self.next_op += 1;
        id
    }

    fn binomial_from_root(&mut self, root: u32, bytes: u64, coll: Option<(CollectiveKind, u64)>) {
        if self.any_rank_dead() {
            // A binomial relay chain breaks at a dead intermediate, so
            // the collective degrades to a linear fan-out from the root
            // over the survivors — slower, but it completes.
            for r in self.alive_ranks() {
                if r != root {
                    self.transfer(root, r, bytes, coll);
                }
            }
            return;
        }
        let n = self.cfg.ranks;
        // Relative numbering: rank 0 == root.
        let mut reached = 1u32;
        while reached < n {
            let senders = reached.min(n - reached);
            for i in 0..senders {
                let src_rel = i;
                let dst_rel = i + reached;
                if dst_rel < n {
                    let src = (src_rel + root) % n;
                    let dst = (dst_rel + root) % n;
                    self.transfer(src, dst, bytes, coll);
                }
            }
            reached *= 2;
        }
    }

    fn binomial_to_root(&mut self, root: u32, bytes: u64, coll: Option<(CollectiveKind, u64)>) {
        if self.any_rank_dead() {
            // Linear gather from the survivors (see binomial_from_root).
            for r in self.alive_ranks() {
                if r != root {
                    self.transfer(r, root, bytes, coll);
                }
            }
            return;
        }
        let n = self.cfg.ranks;
        // Mirror of the broadcast tree: run the rounds in reverse.
        let mut spans = Vec::new();
        let mut reached = 1u32;
        while reached < n {
            spans.push(reached);
            reached *= 2;
        }
        for &span in spans.iter().rev() {
            let senders = span.min(n - span);
            for i in 0..senders {
                let dst_rel = i;
                let src_rel = i + span;
                if src_rel < n {
                    let src = (src_rel + root) % n;
                    let dst = (dst_rel + root) % n;
                    self.transfer(src, dst, bytes, coll);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mb_net::builders::{tibidabo_fabric, tibidabo_fabric_upgraded};
    use mb_trace::analysis::DelayAnalysis;

    fn comm(nodes: usize, ranks: u32) -> Comm {
        Comm::new(tibidabo_fabric(nodes), CommConfig::tibidabo(ranks))
    }

    fn traced(ranks: u32) -> CommConfig {
        CommConfig {
            tracing: true,
            ..CommConfig::tibidabo(ranks)
        }
    }

    /// Advances every rank's clock by the same computation phase.
    fn compute_all(c: &mut Comm, duration: SimTime) {
        for r in 0..c.cfg.ranks {
            c.compute(r, duration);
        }
    }

    #[test]
    fn compute_advances_one_clock() {
        let mut c = comm(2, 4);
        c.compute(2, SimTime::from_micros(50));
        assert_eq!(c.clock(2), SimTime::from_micros(50));
        assert_eq!(c.clock(0), SimTime::ZERO);
        assert_eq!(c.max_clock(), SimTime::from_micros(50));
    }

    #[test]
    fn p2p_intra_node_faster_than_inter_node() {
        let mut c = comm(2, 4);
        // Ranks 0,1 share node 0; rank 2 is on node 1.
        c.p2p(0, 1, 100_000);
        let intra = c.clock(1);
        let mut c = comm(2, 4);
        c.p2p(0, 2, 100_000);
        let inter = c.clock(2);
        assert!(intra < inter, "intra {intra} vs inter {inter}");
    }

    #[test]
    fn p2p_receiver_waits_for_message() {
        let mut c = comm(2, 4);
        c.p2p(0, 2, 1500);
        // Receiver clock includes 2× overhead + network time.
        assert!(c.clock(2) > SimTime::from_micros(50));
        // Sender only paid the send overhead.
        assert_eq!(c.clock(0), SimTime::from_micros(25));
    }

    #[test]
    fn bcast_reaches_everyone_in_log_rounds() {
        let mut c = comm(8, 16);
        c.bcast(0, 1500);
        // All clocks advanced.
        for r in 0..16 {
            assert!(c.clock(r) > SimTime::ZERO, "rank {r} untouched");
        }
        // Binomial depth is 4 for 16 ranks: the makespan must be far
        // below 15 sequential full-hop transfers.
        let mut single = comm(8, 16);
        single.p2p(0, 15, 1500); // one full inter-node hop
        let hop = single.max_clock();
        assert!(c.max_clock() < hop * 8, "binomial should be ~4 rounds");
    }

    #[test]
    fn barrier_synchronises_clocks() {
        let mut c = comm(4, 8);
        c.compute(3, SimTime::from_millis(5));
        c.barrier();
        let after = c.clock(3);
        for r in 0..8 {
            assert!(c.clock(r) >= SimTime::from_millis(5), "rank {r}");
            // All ranks' clocks are close to the barrier exit.
            assert!(c.clock(r) <= after + SimTime::from_millis(1));
        }
    }

    #[test]
    fn allreduce_costs_more_than_reduce() {
        let mut a = comm(4, 8);
        a.reduce(0, 8192);
        let mut b = comm(4, 8);
        b.allreduce(8192);
        assert!(b.max_clock() > a.max_clock());
    }

    #[test]
    fn alltoallv_synchronises_and_traces() {
        let ranks = 8u32;
        let mut c = Comm::new(tibidabo_fabric(4), traced(ranks));
        let m = vec![vec![4096u64; ranks as usize]; ranks as usize];
        c.alltoallv(&m);
        // All clocks equal after the collective.
        let t0 = c.clock(0);
        assert!((0..ranks).all(|r| c.clock(r) == t0));
        // Trace holds n(n-1) messages tagged alltoallv.
        let tagged = c
            .trace()
            .comms()
            .iter()
            .filter(|r| matches!(r.collective, Some((CollectiveKind::Alltoallv, _))))
            .count();
        assert_eq!(tagged, 56);
    }

    #[test]
    fn congested_fabric_delays_some_collectives() {
        // 36 ranks on 18 nodes under commodity switches, repeated
        // all_to_all_v: at least one op should be flagged delayed, and
        // the upgraded fabric should be faster.
        let ranks = 36u32;
        let run = |fabric| {
            let mut c = Comm::new(fabric, traced(ranks));
            let m = vec![vec![16_384u64; ranks as usize]; ranks as usize];
            for _ in 0..12 {
                compute_all(&mut c, SimTime::from_micros(300));
                c.alltoallv(&m);
            }
            (c.max_clock(), c.into_trace())
        };
        let (t_commodity, trace) = run(tibidabo_fabric(18));
        let (t_upgraded, _) = run(tibidabo_fabric_upgraded(18));
        assert!(
            t_upgraded < t_commodity,
            "upgraded {t_upgraded} vs commodity {t_commodity}"
        );
        let analysis = DelayAnalysis::run(&trace, 1.5);
        assert_eq!(analysis.total_count(CollectiveKind::Alltoallv), 12);
        assert!(
            analysis.delayed_count(CollectiveKind::Alltoallv) >= 1,
            "expected at least one delayed all_to_all_v"
        );
    }

    #[test]
    fn ring_allreduce_beats_tree_for_large_payloads() {
        // 4 MB across 16 ranks: the ring moves 2·(p−1)/p·B per rank; the
        // reduce+bcast tree moves ~2·log(p)·B through the root links.
        let bytes = 4 << 20;
        let mut tree = comm(8, 16);
        tree.allreduce(bytes);
        let mut ring = comm(8, 16);
        ring.allreduce_ring(bytes);
        assert!(
            ring.max_clock() < tree.max_clock(),
            "ring {} vs tree {}",
            ring.max_clock(),
            tree.max_clock()
        );
    }

    #[test]
    fn tree_allreduce_beats_ring_for_tiny_payloads() {
        // 8 bytes: latency-bound; the ring pays p−1 hops, the tree log p.
        let mut tree = comm(16, 32);
        tree.allreduce(8);
        let mut ring = comm(16, 32);
        ring.allreduce_ring(8);
        assert!(
            tree.max_clock() < ring.max_clock(),
            "tree {} vs ring {}",
            tree.max_clock(),
            ring.max_clock()
        );
    }

    #[test]
    fn single_rank_collectives_are_free() {
        let mut c = Comm::new(tibidabo_fabric(1), CommConfig::tibidabo(1));
        c.allreduce_ring(1024);
        c.bcast_ring(0, 1024);
        assert_eq!(c.max_clock(), SimTime::ZERO);
    }

    #[test]
    fn trace_disabled_by_default() {
        let mut c = comm(2, 4);
        c.alltoall(1024);
        assert!(c.trace().comms().is_empty());
    }

    #[test]
    #[should_panic(expected = "fabric has")]
    fn too_few_hosts_panics() {
        let _ = Comm::new(tibidabo_fabric(2), CommConfig::tibidabo(16));
    }

    #[test]
    fn try_new_surfaces_config_errors_as_values() {
        // `Comm::resilient` is the fallible constructor.
        let try_new = |cfg| {
            Comm::resilient(
                tibidabo_fabric(2),
                cfg,
                FaultPlan::default(),
                RetryPolicy::tibidabo(),
            )
        };
        let err = try_new(CommConfig::tibidabo(16)).unwrap_err();
        assert!(err.to_string().contains("fabric has"), "{err}");
        let err = try_new(CommConfig::tibidabo(0)).unwrap_err();
        assert!(err.to_string().contains("at least one rank"), "{err}");
    }

    #[test]
    fn dropped_messages_retry_and_deliver() {
        use mb_faults::{Fault, FaultPlan, FaultWindow};
        // Switch 0 (the top-of-rack) drops everything for the first
        // 500 µs, then heals: retries push messages past the window.
        let plan = FaultPlan::from_faults(
            0,
            vec![Fault::SwitchDrop {
                switch: 0,
                window: FaultWindow {
                    start: SimTime::ZERO,
                    end: SimTime::from_micros(500),
                },
                drop_probability: 1.0,
            }],
        );
        let mut c =
            Comm::resilient(tibidabo_fabric(2), traced(4), plan, RetryPolicy::tibidabo()).unwrap();
        c.p2p(0, 2, 1500);
        let stats = c.resilience_stats();
        assert!(stats.retries > 0, "expected retries: {stats:?}");
        assert_eq!(stats.timeouts, 0, "{stats:?}");
        // Delivered after the window despite the drops.
        assert!(c.clock(2) > SimTime::from_micros(500));
        let retries = c
            .trace()
            .events()
            .iter()
            .filter(|e| e.label == "mpi_retry")
            .count();
        assert_eq!(retries as u64, stats.retries);
    }

    #[test]
    fn exhausted_retries_time_out_without_aborting() {
        use mb_faults::{Fault, FaultPlan, FaultWindow};
        // The switch never heals: the sender gives up after its budget.
        let plan = FaultPlan::from_faults(
            0,
            vec![Fault::SwitchDrop {
                switch: 0,
                window: FaultWindow {
                    start: SimTime::ZERO,
                    end: SimTime::from_secs(3600),
                },
                drop_probability: 1.0,
            }],
        );
        let mut c =
            Comm::resilient(tibidabo_fabric(2), traced(4), plan, RetryPolicy::tibidabo()).unwrap();
        c.p2p(0, 2, 1500);
        let stats = c.resilience_stats();
        assert_eq!(stats.timeouts, 1, "{stats:?}");
        assert_eq!(stats.retries, 4, "{stats:?}");
        // The receiver never heard anything.
        assert_eq!(c.clock(2), SimTime::ZERO);
        assert!(c.trace().events().iter().any(|e| e.label == "mpi_timeout"));
    }

    #[test]
    fn crashed_rank_degrades_collectives_without_aborting() {
        use mb_faults::{Fault, FaultPlan};
        let plan = FaultPlan::from_faults(
            0,
            vec![Fault::RankCrash {
                rank: 3,
                at: SimTime::from_micros(100),
            }],
        );
        let mut c =
            Comm::resilient(tibidabo_fabric(4), traced(8), plan, RetryPolicy::tibidabo()).unwrap();
        compute_all(&mut c, SimTime::from_millis(1)); // pushes rank 3 past its crash
        c.bcast(0, 64 * 1024);
        c.allreduce(8192);
        c.allreduce_ring(4096);
        c.alltoall(2048);
        c.barrier();
        assert!(!c.is_alive(3));
        assert_eq!(c.surviving_ranks(), 7);
        let stats = c.resilience_stats();
        assert_eq!(stats.crashed_ranks, 1);
        assert!(stats.skipped_messages > 0, "{stats:?}");
        // Survivors made progress; the dead rank's clock froze.
        for r in 0..8 {
            if r != 3 {
                assert!(c.clock(r) > SimTime::from_millis(1), "rank {r}");
            }
        }
        assert!(c.clock(3) <= SimTime::from_millis(1) + SimTime::from_micros(1));
        assert!(c.trace().events().iter().any(|e| e.label == "rank_crash"));
    }

    #[test]
    fn straggler_window_slows_compute() {
        use mb_faults::{Fault, FaultPlan, FaultWindow};
        // Host 1 (ranks 2,3) computes 3× slower for the first 10 ms.
        let plan = FaultPlan::from_faults(
            0,
            vec![Fault::Straggler {
                host: 1,
                window: FaultWindow {
                    start: SimTime::ZERO,
                    end: SimTime::from_millis(10),
                },
                slowdown_factor: 3.0,
            }],
        );
        let mut c = Comm::resilient(
            tibidabo_fabric(2),
            CommConfig::tibidabo(4),
            plan,
            RetryPolicy::tibidabo(),
        )
        .unwrap();
        compute_all(&mut c, SimTime::from_millis(1));
        assert_eq!(c.clock(0), SimTime::from_millis(1));
        assert_eq!(c.clock(2), SimTime::from_millis(3), "3× slowdown");
    }

    #[test]
    #[should_panic(expected = "p2p requires distinct ranks")]
    fn p2p_self_panics() {
        let mut c = comm(2, 4);
        c.p2p(1, 1, 10);
    }

    #[test]
    #[should_panic(expected = "matrix rows must equal rank count")]
    fn bad_matrix_panics() {
        let mut c = comm(2, 4);
        c.alltoallv(&[vec![0; 4]]);
    }
}
