//! What the benchmark runs and what it reports: the five workloads, the
//! campaigns behind each, the digests their outputs must reproduce, and
//! the metric names with their units.
//!
//! `BENCHMARK.json` at the repository root declares the same workloads
//! and metrics with their bounds; `tests/mbbench_smoke.rs` checks that
//! the two agree.

/// One workload: a fixed set of campaign inputs, or the service's job
/// mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Workload {
    /// Name, as given to `--workload`.
    pub name: &'static str,
    /// Campaigns one unit of the workload runs, in order (before the
    /// seed shuffles them). For `serve-mix` these are the campaigns
    /// jobs are drawn from.
    pub campaigns: &'static [&'static str],
    /// The `-quick` counterparts `--smoke` runs instead.
    pub smoke_campaigns: &'static [&'static str],
    /// Units one `mbbench run` set measures (jobs, for `serve-mix`), a
    /// multiple of `bench::RUN_WINDOWS`.
    pub reps: usize,
    /// Whether the workload drives a live `mb-lab serve` process.
    pub served: bool,
}

/// The service job mix: every figure grid at its quick size.
const SERVE_MIX: &[&str] = &["fig3-quick", "fig5-quick", "fig7-quick", "table2-quick"];

/// Every workload, in reporting order.
pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "tune-fig7",
        campaigns: &["fig7-paper"],
        smoke_campaigns: &["fig7-quick"],
        reps: 25,
        served: false,
    },
    Workload {
        name: "node-table2",
        campaigns: &["table2-paper"],
        smoke_campaigns: &["table2-quick"],
        reps: 20,
        served: false,
    },
    Workload {
        name: "rt-fig5",
        campaigns: &["fig5-paper"],
        smoke_campaigns: &["fig5-quick"],
        reps: 15,
        served: false,
    },
    Workload {
        name: "cluster-fig3",
        campaigns: &["fig3-paper", "fig3-faulted-paper"],
        smoke_campaigns: &["fig3-quick", "fig3-faulted-quick"],
        reps: 150,
        served: false,
    },
    Workload {
        name: "serve-mix",
        campaigns: SERVE_MIX,
        smoke_campaigns: SERVE_MIX,
        reps: 120,
        served: true,
    },
];

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

impl Workload {
    /// The campaigns this run uses.
    pub fn campaigns(&self, smoke: bool) -> &'static [&'static str] {
        if smoke {
            self.smoke_campaigns
        } else {
            self.campaigns
        }
    }
}

/// The digest each campaign's finalized stream must reproduce. Kept
/// here rather than read from the program's registry, so a change that
/// moves both the output and the registry's pin still fails the
/// benchmark's correctness check.
pub fn pinned_digest(campaign: &str) -> Option<u64> {
    Some(match campaign {
        "fig3-quick" => 0xd0d5_f716_d0b3_0356,
        "fig3-faulted-quick" => 0x8ce8_a81a_59cb_2163,
        "fig5-quick" => 0x206e_118a_c499_7a4c,
        "fig7-quick" => 0xa5a1_d292_2006_e451,
        "table2-quick" => 0xe2a5_d2bf_61fb_fbcf,
        "fig3-paper" => 0x622e_3c14_cb8e_59b9,
        "fig3-faulted-paper" => 0x7c65_dc30_f714_ac45,
        "fig5-paper" => 0xc49f_00d6_ca0a_c4ad,
        "fig7-paper" => 0x9080_737c_78a9_66c3,
        "table2-paper" => 0x8bd9_f1e8_0879_d505,
        _ => return None,
    })
}

/// End-to-end metrics (`mbbench run`, tracing off), with their units.
pub const END_TO_END: [(&str, &str); 4] = [
    ("campaign_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("jobs_per_min", "jobs/min"),
];

/// Per-layer metrics (`mbbench trace`), with their units. Every
/// workload reports every one; a layer a workload never enters reads
/// as a zero count.
pub const PER_LAYER: [(&str, &str); 27] = [
    ("core.slot_ms_p50", "ms"),
    ("core.slot_ms_p90", "ms"),
    ("lab.driver_ms_per_slot", "ms"),
    ("lab.journal_append_us", "us"),
    ("lab.journal_load_ms", "ms"),
    ("trace_overhead_frac", "ratio"),
    ("kernels.native_s", "s"),
    ("cpu.model_s", "s"),
    ("cpu.interp_ratio", "ratio"),
    ("mem.hierarchy_s", "s"),
    ("mem.tlb_s", "s"),
    ("mem.ns_per_access", "ns"),
    ("cpu.dispatch_s", "s"),
    ("cpu.mem_ops", "count"),
    ("cpu.flop_instr", "count"),
    ("cpu.int_ops", "count"),
    ("cpu.branches", "count"),
    ("mem.sampled_accesses", "count"),
    ("mem.l1_misses", "count"),
    ("mem.tlb_misses", "count"),
    ("mpi.messages", "count"),
    ("mpi.bytes", "bytes"),
    ("mpi.retries", "count"),
    ("serve.submit_ms_p50", "ms"),
    ("serve.queue_ms_p50", "ms"),
    ("serve.run_ms_p50", "ms"),
    ("serve.busy_count", "count"),
];
