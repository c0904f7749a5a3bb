//! The per-layer split of a workload's simulated work, measured from
//! outside by calling each layer's public functions:
//!
//! * **kernels** — the real kernel under [`NullExec`] (native speed);
//! * **cpu** — the same kernel under the slot's `ModelExec`;
//! * **mem** — the kernel's access stream, captured by a [`Recorder`]
//!   in chunks and replayed into a fresh `Hierarchy::access` and
//!   `Tlb::access` under `ModelExec`'s 1024-access window rule
//!   ([`MemReplay`]);
//! * **fabric** — `ScalingStudy::execute_outcome` over a Figure 3 grid
//!   ([`fabric_split`]);
//! * **journal** — `Journal::load` and `Journal::append` replaying a
//!   finished run's journal ([`journal_split`]).
//!
//! [`kernel_jobs`] lists the kernel calls each campaign's slots make.
//! `tests/replay_oracle.rs` checks that replaying a recording gives
//! the direct run's `ExecReport`, that the replayed miss counts match
//! `ModelExec`'s counters, and that the jobs reproduce the slots.

use mb_cluster::scaling::{FabricKind, ScalingStudy};
use mb_cpu::exec_model::ModelExec;
use mb_cpu::ops::{Exec, FlopKind, NullExec, OpCounts, Precision};
use mb_faults::FaultConfig;
use mb_kernels::chess;
use mb_kernels::coremark::CoreMark;
use mb_kernels::linpack::Linpack;
use mb_kernels::linpack_blocked::BlockedLu;
use mb_kernels::magicfilter::{Grid3, MagicfilterWorkspace};
use mb_kernels::membench::{self, MembenchConfig};
use mb_kernels::protein::{HpModel, UNGER_MOULT_20};
use mb_kernels::specfem::{Specfem, SpecfemConfig};
use mb_lab::journal::Journal;
use mb_mem::hierarchy::Hierarchy;
use mb_mem::pages::{PageAllocator, PagePolicy, PageTable};
use mb_mem::tlb::Tlb;
use mb_simcore::plan::MeasurementPlan;
use montblanc::{fig3, fig5, fig7, table2, Platform};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// `ModelExec` simulates windows of this many consecutive accesses and
/// skips `sample_rate - 1` windows between them.
pub const SAMPLE_WINDOW: u64 = 1024;

/// Operations a [`Recorder`] buffers before handing them on.
const CHUNK: usize = 1 << 16;

/// One call on the [`Exec`] trait.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Op {
    /// `flop(kind, prec, lanes)`.
    Flop(FlopKind, Precision, u32),
    /// `flop_run(kind, prec, lanes, n)`.
    FlopRun(FlopKind, Precision, u32, u64),
    /// `int_ops(n)`.
    IntOps(u64),
    /// `load(addr, bytes)`.
    Load(u64, u32),
    /// `store(addr, bytes)`.
    Store(u64, u32),
    /// `branch(predictable)`.
    Branch(bool),
    /// `branch_run(n, predictable)`.
    BranchRun(u64, bool),
}

/// Issues `ops` on `exec`, in order.
pub fn replay<E: Exec>(ops: &[Op], exec: &mut E) {
    for op in ops {
        match *op {
            Op::Flop(kind, prec, lanes) => exec.flop(kind, prec, lanes),
            Op::FlopRun(kind, prec, lanes, n) => exec.flop_run(kind, prec, lanes, n),
            Op::IntOps(n) => exec.int_ops(n),
            Op::Load(addr, bytes) => exec.load(addr, bytes),
            Op::Store(addr, bytes) => exec.store(addr, bytes),
            Op::Branch(p) => exec.branch(p),
            Op::BranchRun(n, p) => exec.branch_run(n, p),
        }
    }
}

/// An [`Exec`] that records every call and hands each full chunk of
/// operations to `sink`, so a long kernel never holds its whole stream.
/// Call [`Recorder::finish`] to hand on the last, partial chunk.
pub struct Recorder<F: FnMut(&[Op])> {
    ops: Vec<Op>,
    sink: F,
}

impl<F: FnMut(&[Op])> Recorder<F> {
    /// A recorder feeding `sink`.
    pub fn new(sink: F) -> Self {
        Recorder {
            ops: Vec::with_capacity(CHUNK),
            sink,
        }
    }

    fn push(&mut self, op: Op) {
        self.ops.push(op);
        if self.ops.len() == CHUNK {
            (self.sink)(&self.ops);
            self.ops.clear();
        }
    }

    /// Hands on the remaining operations.
    pub fn finish(mut self) {
        if !self.ops.is_empty() {
            (self.sink)(&self.ops);
        }
    }
}

impl<F: FnMut(&[Op])> Exec for Recorder<F> {
    fn flop(&mut self, kind: FlopKind, prec: Precision, lanes: u32) {
        self.push(Op::Flop(kind, prec, lanes));
    }
    fn int_ops(&mut self, n: u64) {
        self.push(Op::IntOps(n));
    }
    fn load(&mut self, addr: u64, bytes: u32) {
        self.push(Op::Load(addr, bytes));
    }
    fn store(&mut self, addr: u64, bytes: u32) {
        self.push(Op::Store(addr, bytes));
    }
    fn branch(&mut self, predictable: bool) {
        self.push(Op::Branch(predictable));
    }
    fn flop_run(&mut self, kind: FlopKind, prec: Precision, lanes: u32, n: u64) {
        self.push(Op::FlopRun(kind, prec, lanes, n));
    }
    fn branch_run(&mut self, n: u64, predictable: bool) {
        self.push(Op::BranchRun(n, predictable));
    }
}

/// A kernel call a campaign slot makes, with the inputs the slot uses.
#[derive(Debug, Clone)]
pub enum Kernel {
    /// The 3-D magicfilter at one unroll degree (a Figure 7 slot).
    Magicfilter {
        /// The filtered field.
        grid: Arc<Grid3>,
        /// Unroll degree.
        unroll: u32,
    },
    /// Blocked HPL-style LU, factorize + solve (Table II LINPACK).
    BlockedLu {
        /// Matrix order.
        n: usize,
    },
    /// Unblocked dgefa LU, factorize + solve.
    Dgefa {
        /// Matrix order.
        n: usize,
    },
    /// CoreMark's three-workload loop.
    CoreMark {
        /// Iterations.
        iterations: u32,
    },
    /// The StockFish-style chess bench.
    Chess {
        /// Search depth.
        depth: u32,
    },
    /// SPECFEM time steps on the Table II mesh.
    Specfem {
        /// Time steps.
        steps: u32,
    },
    /// Iterated magicfilter at unroll 4 (Table II BigDFT).
    Bigdft {
        /// Cubic grid edge.
        edge: usize,
        /// Filter applications.
        iterations: u32,
    },
    /// HP-model protein-folding anneal.
    Protein {
        /// Monte-Carlo sweeps.
        sweeps: u32,
    },
    /// The Section V memory microbenchmark (a Figure 5 slot).
    Membench {
        /// The variant.
        cfg: MembenchConfig,
        /// The buffer it walks.
        data: Arc<Vec<u8>>,
    },
}

impl Kernel {
    /// Short name used in per-kernel reports.
    pub fn name(&self) -> &'static str {
        match self {
            Kernel::Magicfilter { .. } => "magicfilter",
            Kernel::BlockedLu { .. } => "linpack",
            Kernel::Dgefa { .. } => "dgefa",
            Kernel::CoreMark { .. } => "coremark",
            Kernel::Chess { .. } => "stockfish",
            Kernel::Specfem { .. } => "specfem",
            Kernel::Bigdft { .. } => "bigdft",
            Kernel::Protein { .. } => "protein",
            Kernel::Membench { .. } => "membench",
        }
    }

    /// Runs the kernel (building its inputs first, as the slot does),
    /// reporting every operation to `exec`.
    pub fn run<E: Exec>(&self, exec: &mut E) {
        match self {
            Kernel::Magicfilter { grid, unroll } => {
                let mut ws = MagicfilterWorkspace::new();
                black_box(ws.apply(grid, *unroll, exec));
            }
            Kernel::BlockedLu { n } => {
                let mut lu = BlockedLu::new(*n, (*n / 8).max(8), 42);
                lu.factorize(exec);
                black_box(lu.solve(exec));
            }
            Kernel::Dgefa { n } => {
                let mut lp = Linpack::new(*n, 42);
                lp.factorize(exec);
                black_box(lp.solve(exec));
            }
            Kernel::CoreMark { iterations } => {
                let cm = CoreMark {
                    iterations: *iterations,
                    ..CoreMark::table2()
                };
                black_box(cm.run(exec));
            }
            Kernel::Chess { depth } => {
                black_box(chess::bench(*depth, exec));
            }
            Kernel::Specfem { steps } => {
                let mut sim = Specfem::new(SpecfemConfig::table2());
                sim.run(*steps, exec);
                black_box(&sim);
            }
            Kernel::Bigdft { edge, iterations } => {
                let mut current = Grid3::random(*edge, *edge, *edge, 7);
                let mut ws = MagicfilterWorkspace::new();
                for _ in 0..*iterations {
                    ws.apply(&current, 4, exec);
                    ws.swap_output(&mut current.data);
                }
                black_box(&current);
            }
            Kernel::Protein { sweeps } => {
                let mut model = HpModel::new(UNGER_MOULT_20, 0x5331);
                black_box(model.anneal(*sweeps, 2.0, 0.995, exec));
            }
            Kernel::Membench { cfg, data } => {
                black_box(membench::run(cfg, data, exec));
            }
        }
    }
}

/// A kernel call plus the machine model the slot costs it on.
#[derive(Debug, Clone)]
pub struct KernelJob {
    /// The kernel call.
    pub kernel: Kernel,
    /// The platform whose `exec(sample_rate)` the slot builds.
    pub platform: Platform,
    /// Cache-simulation sampling rate (1 = exact).
    pub sample_rate: u32,
    /// Memory-level-parallelism hint the slot sets, if any.
    pub mlp_hint: Option<u32>,
    /// Prefetch predictability hint the slot sets, if any.
    pub prefetch_hint: Option<f64>,
    /// Page-table routing the slot installs, if any.
    pub page_table: Option<PageTable>,
}

impl KernelJob {
    fn new(kernel: Kernel, platform: &Platform, sample_rate: u32) -> Self {
        KernelJob {
            kernel,
            platform: platform.clone(),
            sample_rate,
            mlp_hint: None,
            prefetch_hint: None,
            page_table: None,
        }
    }

    fn hints(mut self, mlp: u32, prefetch: f64) -> Self {
        self.mlp_hint = Some(mlp);
        self.prefetch_hint = Some(prefetch);
        self
    }

    /// A fresh `ModelExec` configured the way the slot configures its own.
    pub fn model_exec(&self) -> ModelExec {
        let mut exec = self.platform.exec(self.sample_rate);
        if let Some(mlp) = self.mlp_hint {
            exec.set_mlp_hint(mlp);
        }
        if let Some(p) = self.prefetch_hint {
            exec.set_prefetch_hint(p);
        }
        exec.set_page_table(self.page_table.clone());
        exec
    }
}

/// The kernel calls the slots of `campaign` make, in slot order. A
/// Figure 3 campaign runs no kernel per slot; its kernel work is the
/// one-time SPECFEM calibration every cold process pays
/// (`fig3::tegra2_effective_gflops`). Unknown campaigns have none.
///
/// The Figure 7 jobs are the magicfilter call alone: the register-spill
/// traffic `fig7::measure_variant` adds past the register budget is
/// slot code, not kernel code, and stays in the slot time.
pub fn kernel_jobs(campaign: &str) -> Vec<KernelJob> {
    let quick = campaign.ends_with("-quick");
    match campaign
        .trim_end_matches("-quick")
        .trim_end_matches("-paper")
    {
        "fig7" => {
            let cfg = if quick {
                fig7::Fig7Config::quick()
            } else {
                fig7::Fig7Config::paper()
            };
            let e = cfg.grid_edge;
            let grid = Arc::new(Grid3::random(e, e, e, 0xF167));
            (0..fig7::slot_count(&cfg))
                .map(|slot| {
                    let max = cfg.max_unroll as usize;
                    let platform = if slot < max {
                        Platform::xeon_x5550()
                    } else {
                        Platform::tegra2_node()
                    };
                    let unroll = (slot % max) as u32 + 1;
                    let kernel = Kernel::Magicfilter {
                        grid: Arc::clone(&grid),
                        unroll,
                    };
                    KernelJob::new(kernel, &platform, 1).hints(unroll, 0.8)
                })
                .collect()
        }
        "table2" => {
            let cfg = if quick {
                table2::Table2Config::quick()
            } else {
                table2::Table2Config::paper()
            };
            // Rows in `table2::run_extended` order; `true` marks the
            // streaming codes the table costs with MLP 4 / prefetch 0.8.
            let rows = [
                (Kernel::BlockedLu { n: cfg.linpack_n }, true),
                (
                    Kernel::CoreMark {
                        iterations: cfg.coremark_iterations,
                    },
                    false,
                ),
                (
                    Kernel::Chess {
                        depth: cfg.chess_depth,
                    },
                    false,
                ),
                (
                    Kernel::Specfem {
                        steps: cfg.specfem_steps,
                    },
                    true,
                ),
                (
                    Kernel::Bigdft {
                        edge: cfg.magicfilter_edge,
                        iterations: cfg.magicfilter_iterations,
                    },
                    true,
                ),
                (
                    Kernel::Protein {
                        sweeps: 40 * cfg.coremark_iterations,
                    },
                    false,
                ),
                (Kernel::Dgefa { n: cfg.linpack_n }, true),
            ];
            let machines = [Platform::snowball(), Platform::xeon_x5550()];
            rows.iter()
                .flat_map(|(kernel, streaming)| {
                    machines.iter().map(move |platform| {
                        let job = KernelJob::new(kernel.clone(), platform, cfg.sample_rate);
                        if *streaming {
                            job.hints(4, 0.8)
                        } else {
                            job
                        }
                    })
                })
                .collect()
        }
        "fig5" => {
            let cfg = if quick {
                fig5::Fig5Config::quick()
            } else {
                fig5::Fig5Config::paper()
            };
            // The serially walked prelude of `fig5::run`: the randomised
            // plan and the order-dependent page allocations.
            let plan = MeasurementPlan::full_factorial(&cfg.sizes, cfg.reps, cfg.seed);
            let mut allocator =
                PageAllocator::new(PagePolicy::ReuseLast, 4096, 1 << 18, cfg.seed ^ 0xB);
            let max_size = cfg.sizes.iter().copied().max().unwrap_or(0);
            let data = Arc::new(membench::make_buffer(max_size, cfg.seed));
            let platform = Platform::snowball();
            plan.iter()
                .map(|m| {
                    let mb_cfg = MembenchConfig {
                        sweeps: cfg.sweeps,
                        ..MembenchConfig::figure5(m.level)
                    };
                    let kernel = Kernel::Membench {
                        cfg: mb_cfg,
                        data: Arc::clone(&data),
                    };
                    let mut job = KernelJob::new(kernel, &platform, 1).hints(mb_cfg.unroll, 1.0);
                    job.page_table = Some(allocator.allocate(m.level));
                    job
                })
                .collect()
        }
        "fig3" | "fig3-faulted" => vec![KernelJob::new(
            Kernel::Specfem { steps: 40 },
            &Platform::tegra2_node(),
            1,
        )],
        _ => Vec::new(),
    }
}

/// Replays an access stream into a fresh `Hierarchy` and `Tlb` built
/// from a job's platform, sampling windows exactly as `ModelExec` does
/// and timing the two components separately.
pub struct MemReplay {
    hierarchy: Hierarchy,
    tlb: Tlb,
    page_table: Option<PageTable>,
    sample_rate: u64,
    accesses: u64,
    window: Vec<u64>,
    /// Seconds inside `Hierarchy::access` (address routing included).
    pub hierarchy_s: f64,
    /// Seconds inside `Tlb::access`.
    pub tlb_s: f64,
    /// Accesses that went through the hierarchy and TLB.
    pub sampled_accesses: u64,
}

impl MemReplay {
    /// An empty replay for `job`'s machine.
    pub fn new(job: &KernelJob) -> Self {
        MemReplay {
            hierarchy: Hierarchy::new(job.platform.hierarchy.clone()),
            tlb: Tlb::new(job.platform.tlb),
            page_table: job.page_table.clone(),
            sample_rate: u64::from(job.sample_rate),
            accesses: 0,
            window: Vec::new(),
            hierarchy_s: 0.0,
            tlb_s: 0.0,
            sampled_accesses: 0,
        }
    }

    /// Replays the loads and stores among `ops`.
    pub fn feed(&mut self, ops: &[Op]) {
        self.window.clear();
        for op in ops {
            let (Op::Load(addr, _) | Op::Store(addr, _)) = *op else {
                continue;
            };
            self.accesses += 1;
            let window = (self.accesses - 1) / SAMPLE_WINDOW;
            if self.sample_rate > 1 && !window.is_multiple_of(self.sample_rate) {
                continue;
            }
            self.window.push(addr);
        }
        self.sampled_accesses += self.window.len() as u64;
        let started = Instant::now();
        for &addr in &self.window {
            black_box(self.tlb.access(addr));
        }
        self.tlb_s += started.elapsed().as_secs_f64();
        let started = Instant::now();
        for &addr in &self.window {
            let paddr = match &self.page_table {
                Some(t) if (addr as usize) < t.span_bytes() => t.translate(addr),
                _ => addr,
            };
            black_box(self.hierarchy.access(paddr));
        }
        self.hierarchy_s += started.elapsed().as_secs_f64();
    }

    /// Every load and store seen, sampled or not.
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// L1 misses among the sampled accesses.
    pub fn l1_misses(&self) -> u64 {
        self.hierarchy.level_stats(0).misses
    }

    /// TLB misses among the sampled accesses.
    pub fn tlb_misses(&self) -> u64 {
        self.tlb.misses()
    }
}

/// Host time and exact counts of a list of kernel jobs.
#[derive(Debug, Clone, Default)]
pub struct KernelSplit {
    /// Seconds of the kernels under `NullExec`.
    pub native_s: f64,
    /// Seconds of the kernels under their slot's `ModelExec`, `finish`
    /// included.
    pub model_s: f64,
    /// Seconds of the replayed stream in `Hierarchy::access`.
    pub hierarchy_s: f64,
    /// Seconds of the replayed stream in `Tlb::access`.
    pub tlb_s: f64,
    /// Operation counts `ModelExec` reported, summed.
    pub counts: OpCounts,
    /// Accesses the window sampling kept.
    pub sampled_accesses: u64,
    /// Sampled L1 misses (not scaled by the sampling rate).
    pub l1_misses: u64,
    /// Sampled TLB misses (not scaled).
    pub tlb_misses: u64,
    /// `(native_s, model_s)` per kernel name.
    pub per_kernel: BTreeMap<&'static str, (f64, f64)>,
}

/// Runs every job three ways — native, modelled, recorded and replayed
/// into the memory components — and adds up the times and counts.
pub fn kernel_split(jobs: &[KernelJob]) -> KernelSplit {
    let mut split = KernelSplit::default();
    for job in jobs {
        let started = Instant::now();
        job.kernel.run(&mut NullExec);
        let native = started.elapsed().as_secs_f64();

        let mut exec = job.model_exec();
        let started = Instant::now();
        job.kernel.run(&mut exec);
        let report = exec.finish();
        let model = started.elapsed().as_secs_f64();

        let mut mem = MemReplay::new(job);
        let mut recorder = Recorder::new(|ops: &[Op]| mem.feed(ops));
        job.kernel.run(&mut recorder);
        recorder.finish();

        split.native_s += native;
        split.model_s += model;
        split.hierarchy_s += mem.hierarchy_s;
        split.tlb_s += mem.tlb_s;
        split.counts.merge(&report.counts);
        split.sampled_accesses += mem.sampled_accesses;
        split.l1_misses += mem.l1_misses();
        split.tlb_misses += mem.tlb_misses();
        let entry = split.per_kernel.entry(job.kernel.name()).or_default();
        entry.0 += native;
        entry.1 += model;
    }
    split
}

/// Host time and message counts of one Figure 3 grid in the fabric.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FabricSplit {
    /// Seconds of untraced `ScalingStudy::execute_outcome` over the grid.
    pub execute_s: f64,
    /// Messages in the traced pass.
    pub messages: u64,
    /// Payload bytes in the traced pass.
    pub bytes: u64,
    /// Retransmissions plus timeouts (`ResilienceStats`).
    pub retries: u64,
    /// Whether every traced run reproduced its untraced makespan.
    pub consistent: bool,
}

/// Executes the grid of a Figure 3 campaign twice, untraced (timed)
/// and traced (counted); `None` for any other campaign.
pub fn fabric_split(campaign: &str) -> Option<FabricSplit> {
    let (cfg, faulted) = match campaign {
        "fig3-quick" => (fig3::Fig3Config::quick(), false),
        "fig3-faulted-quick" => (fig3::Fig3Config::quick(), true),
        "fig3-paper" => (fig3::Fig3Config::paper(), false),
        "fig3-faulted-paper" => (fig3::Fig3Config::paper(), true),
        _ => return None,
    };
    let mut study = ScalingStudy::new(FabricKind::Tibidabo);
    if faulted {
        study = study.with_faults(FaultConfig::light());
    }
    let mut split = FabricSplit {
        consistent: true,
        ..FabricSplit::default()
    };
    for (panel, cores) in fig3::scaling_slots(&cfg) {
        let workload = fig3::workload(panel, cfg.iterations);
        let started = Instant::now();
        let plain = study.execute_outcome(&workload, cores, false);
        split.execute_s += started.elapsed().as_secs_f64();
        split.retries += plain.stats.retries + plain.stats.timeouts;
        let traced = study.execute_outcome(&workload, cores, true);
        let comms = traced.trace.comms();
        split.messages += comms.len() as u64;
        split.bytes += comms.iter().map(|c| c.bytes).sum::<u64>();
        split.consistent &= traced.time == plain.time;
    }
    Some(split)
}

/// Host time of the journal layer over one finished run's journal.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JournalSplit {
    /// Seconds of `Journal::load` (parse and chain-verify) of the file.
    pub load_s: f64,
    /// Seconds appending every record to a fresh journal.
    pub append_s: f64,
    /// Records replayed.
    pub records: usize,
}

/// Loads `journal`, then appends its records in order to a fresh
/// journal at `scratch` with the same header.
///
/// # Errors
///
/// Any journal error, or a journal missing some of its slots.
pub fn journal_split(journal: &Path, scratch: &Path) -> Result<JournalSplit, String> {
    let err = |e: mb_lab::JournalError| format!("{}: {e}", journal.display());
    let started = Instant::now();
    let loaded = Journal::load(journal).map_err(err)?;
    let load_s = started.elapsed().as_secs_f64();
    if loaded.records.len() != loaded.header.tasks {
        return Err(format!(
            "{}: {} of {} slots journaled",
            journal.display(),
            loaded.records.len(),
            loaded.header.tasks
        ));
    }
    let mut fresh = Journal::create(scratch, loaded.header.clone()).map_err(err)?;
    let started = Instant::now();
    for (slot, payload) in &loaded.records {
        fresh.append(*slot, payload).map_err(err)?;
    }
    Ok(JournalSplit {
        load_s,
        append_s: started.elapsed().as_secs_f64(),
        records: loaded.records.len(),
    })
}
