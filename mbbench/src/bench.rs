//! The measurements behind every report: end-to-end samples of a
//! workload (tracing off) and its per-layer split (a separate traced
//! run).
//!
//! Host discipline: the measured processes run with one worker thread
//! ([`MB_THREADS`]) and the generator runs one campaign process at a
//! time, so a campaign number is the plain single-threaded baseline.
//! The service workload is the exception by design: two closed-loop
//! clients against two server workers.

use crate::catalog::{Workload, WORKLOADS};
use crate::cold::{self, Mode};
use crate::layers;
use crate::service::{self, JobOutcome, JobSample, Server, Until};
use crate::stats;
use mb_simcore::rng::{Rng, SplitMix64};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// `MB_THREADS` of every process the benchmark measures.
pub const MB_THREADS: &str = "1";

/// Set-up-only server starts per service window (full runs).
const SERVE_SETUPS: usize = 5;

/// Windows one `mbbench run` set splits each workload's repetitions into.
pub const RUN_WINDOWS: usize = 5;

/// Jobs of the traced service session on `serve-mix`.
const SERVE_TRACE_JOBS: usize = 24;

/// Cold runs per campaign in a trace.
const TRACE_RUNS: usize = 3;

/// Service probe jobs per campaign in a campaign workload's trace.
const PROBE_JOBS_PER_CAMPAIGN: usize = 3;

/// Where and how a measurement runs.
pub struct Ctx {
    /// This executable, re-spawned as `mbbench child`.
    pub exe: PathBuf,
    /// The `mb-lab` binary, when it exists.
    pub mb_lab: Option<PathBuf>,
    /// Scratch directory for journals and server data.
    pub work: PathBuf,
    /// Quick grids and the fewest repetitions.
    pub smoke: bool,
    /// Workload seed.
    pub seed: u64,
    next_dir: Cell<u64>,
}

impl Ctx {
    /// A context writing its scratch files under `work`.
    pub fn new(
        exe: PathBuf,
        mb_lab: Option<PathBuf>,
        work: PathBuf,
        smoke: bool,
        seed: u64,
    ) -> Ctx {
        Ctx {
            exe,
            mb_lab,
            work,
            smoke,
            seed,
            next_dir: Cell::new(0),
        }
    }

    /// A fresh, unused scratch path.
    fn scratch(&self, tag: &str) -> PathBuf {
        let n = self.next_dir.get();
        self.next_dir.set(n + 1);
        self.work.join(format!("{tag}-{n}"))
    }
}

/// Operations attempted and failed; each failure is explained on stderr.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed or produced a wrong output.
    pub failed: u64,
}

impl Tally {
    fn record<T>(&mut self, result: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        result
            .map_err(|e| {
                self.failed += 1;
                eprintln!("mbbench: {e}");
            })
            .ok()
    }
}

/// The samples of one measurement window of a workload, reduced to one
/// value per end-to-end metric by [`Window::value`].
#[derive(Debug, Default)]
pub struct Window {
    /// Seconds to a verified digest: per cold unit (summed over its
    /// campaigns), or per served job.
    pub campaign_s: Vec<f64>,
    /// Set-up seconds: per cold unit, or per server start.
    pub setup_s: Vec<f64>,
    /// Peak resident set, MB: per cold unit (its largest child), or the
    /// server's.
    pub peak_rss_mb: Vec<f64>,
    /// Verified campaigns per minute: per cold unit from its
    /// spawn-to-exit wall time, or over a whole service session.
    pub jobs_per_min: Vec<f64>,
    /// Whether the samples come from a service session.
    pub served: bool,
}

impl Window {
    /// An empty window of a cold (`served == false`) or service workload.
    pub fn new(served: bool) -> Window {
        Window {
            served,
            ..Window::default()
        }
    }

    /// The samples of an end-to-end metric.
    pub fn samples(&self, metric: &str) -> &[f64] {
        match metric {
            "campaign_s" => &self.campaign_s,
            "setup_s" => &self.setup_s,
            "peak_rss_mb" => &self.peak_rss_mb,
            "jobs_per_min" => &self.jobs_per_min,
            _ => &[],
        }
    }

    /// The window's value of an end-to-end metric. Other load on the
    /// host only ever slows a run down, and on a shared host it comes in
    /// bursts, so a cold workload reports its fastest unit (and best
    /// throughput) and every workload its fastest set-up. A service
    /// session reports its mean job latency and its throughput: a job's
    /// latency moves in steps of the server's poll interval, which one
    /// job cannot resolve and a mean over the session does. Peak RSS is
    /// the median.
    pub fn value(&self, metric: &str) -> Option<f64> {
        let samples = self.samples(metric);
        let fastest = samples.iter().copied().reduce(f64::min);
        match (metric, self.served) {
            ("campaign_s", true) => stats::mean(samples),
            ("campaign_s" | "setup_s", _) => fastest,
            ("jobs_per_min", _) => samples.iter().copied().reduce(f64::max),
            ("peak_rss_mb", _) => stats::median(samples),
            _ => None,
        }
    }
}

fn shuffle<T>(items: &mut [T], rng: &mut SplitMix64) {
    for i in (1..items.len()).rev() {
        let j = (rng.next_u64() % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
}

/// One unit of a campaign workload: each of its campaigns once as a
/// cold child, plus one set-up-only child per campaign. The seed draws
/// the campaign order and whether set-up runs first. A unit's sample
/// sums its campaigns (the Figure 3 pair is one unit).
pub fn campaign_unit(
    ctx: &Ctx,
    w: &Workload,
    rng: &mut SplitMix64,
    win: &mut Window,
    tally: &mut Tally,
) {
    let mut order = w.campaigns(ctx.smoke).to_vec();
    shuffle(&mut order, rng);
    let setup_first = rng.next_u64() & 1 == 0;
    let (mut campaign_s, mut setup_s, mut wall_s, mut rss_mb) = (0.0, 0.0, 0.0, 0.0f64);
    let mut complete = true;
    for campaign in order {
        let modes = if setup_first {
            [Mode::Setup, Mode::Run]
        } else {
            [Mode::Run, Mode::Setup]
        };
        for mode in modes {
            let dir = ctx.scratch("cold");
            let report = tally.record(cold::run_child(&ctx.exe, campaign, mode, &dir));
            let _ = std::fs::remove_dir_all(&dir);
            match (mode, report) {
                (Mode::Setup, Some(r)) => setup_s += r.secs,
                (_, Some(r)) => {
                    campaign_s += r.secs;
                    wall_s += r.wall_s;
                    rss_mb = rss_mb.max(r.rss_mb);
                }
                (_, None) => complete = false,
            }
        }
    }
    if complete {
        let n = w.campaigns(ctx.smoke).len() as f64;
        win.campaign_s.push(campaign_s);
        win.setup_s.push(setup_s);
        win.peak_rss_mb.push(rss_mb);
        win.jobs_per_min.push(60.0 * n / wall_s);
    }
}

/// Service job `index` of a mix over `campaigns`, drawn from the seed
/// alone, so job `index` is the same campaign however the clients
/// interleave.
pub fn mix_pick(campaigns: &'static [&'static str], seed: u64, index: usize) -> &'static str {
    let draw =
        SplitMix64::new(seed ^ (index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)).next_u64();
    campaigns[(draw % campaigns.len() as u64) as usize]
}

/// A finished service session.
struct Session {
    samples: Vec<JobSample>,
    wall_s: f64,
    setup_s: f64,
    rss_mb: f64,
}

/// Starts a server, runs `clients` closed-loop clients until `until`,
/// reads the server's peak RSS and stops it. `None` without `mb-lab`
/// or when the server could not run.
fn serve_session(
    ctx: &Ctx,
    clients: usize,
    pick: &(dyn Fn(usize) -> &'static str + Sync),
    until: Until,
    tally: &mut Tally,
) -> Option<Session> {
    let mb_lab = ctx.mb_lab.as_ref()?;
    let server = tally.record(Server::start(mb_lab, &ctx.scratch("serve")))?;
    let setup_s = server.setup_s;
    let (samples, wall_s) = service::closed_loop(&server.addr, clients, pick, until);
    let rss_mb = tally.record(server.peak_rss_mb());
    tally.record(server.stop());
    for s in &samples {
        tally.record(match &s.outcome {
            JobOutcome::Verified => Ok(()),
            JobOutcome::Busy => Err(format!("{}: server answered busy", s.campaign)),
            JobOutcome::Failed(why) => Err(why.clone()),
        });
    }
    Some(Session {
        samples,
        wall_s,
        setup_s,
        rss_mb: rss_mb?,
    })
}

/// One window of the service workload: set-up-only server starts, then
/// one session of two closed-loop clients drawing from the job mix.
pub fn serve_window(ctx: &Ctx, w: &Workload, until: Until, win: &mut Window, tally: &mut Tally) {
    let Some(mb_lab) = &ctx.mb_lab else {
        return;
    };
    for _ in 0..if ctx.smoke { 1 } else { SERVE_SETUPS } {
        if let Some(server) = tally.record(Server::start(mb_lab, &ctx.scratch("setup"))) {
            win.setup_s.push(server.setup_s);
            tally.record(server.stop());
        }
    }
    let campaigns = w.campaigns(ctx.smoke);
    let seed = ctx.seed;
    let pick = move |i: usize| mix_pick(campaigns, seed, i);
    let Some(session) = serve_session(ctx, 2, &pick, until, tally) else {
        return;
    };
    let latencies: Vec<f64> = session
        .samples
        .iter()
        .filter(|s| s.outcome == JobOutcome::Verified)
        .map(|s| s.latency_s)
        .collect();
    win.setup_s.push(session.setup_s);
    win.peak_rss_mb.push(session.rss_mb);
    win.jobs_per_min
        .push(60.0 * latencies.len() as f64 / session.wall_s);
    win.campaign_s.extend(latencies);
}

/// One window of `w` lasting about `seconds` (the last unit or the jobs
/// in flight finish past it).
pub fn measure_e2e(ctx: &Ctx, w: &Workload, seconds: f64) -> (Window, Tally) {
    let mut win = Window::new(w.served);
    let mut tally = Tally::default();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    if w.served {
        serve_window(ctx, w, Until::Deadline(deadline), &mut win, &mut tally);
    } else {
        let mut rng = SplitMix64::new(ctx.seed);
        loop {
            campaign_unit(ctx, w, &mut rng, &mut win, &mut tally);
            if Instant::now() >= deadline {
                break;
            }
        }
    }
    (win, tally)
}

/// One full set: every workload's fixed repetitions (`Workload::reps`)
/// split into [`RUN_WINDOWS`] windows, with every cold unit and service
/// session in one seed-drawn interleaved order, so host drift biases no
/// workload. `--smoke` runs one window of one unit (or four jobs) each.
pub fn run_set(ctx: &Ctx) -> Vec<(Workload, Vec<Window>, Tally)> {
    let windows = if ctx.smoke { 1 } else { RUN_WINDOWS };
    let mut order: Vec<(usize, usize)> = Vec::new();
    for (i, w) in WORKLOADS.iter().enumerate() {
        let per_window = if w.served || ctx.smoke {
            1
        } else {
            w.reps / windows
        };
        for k in 0..windows {
            order.extend(std::iter::repeat_n((i, k), per_window));
        }
    }
    let mut rng = SplitMix64::new(ctx.seed);
    shuffle(&mut order, &mut rng);
    let mut results: Vec<(Vec<Window>, Tally)> = WORKLOADS
        .iter()
        .map(|w| {
            (
                (0..windows).map(|_| Window::new(w.served)).collect(),
                Tally::default(),
            )
        })
        .collect();
    for (i, k) in order {
        let w = &WORKLOADS[i];
        let (wins, tally) = &mut results[i];
        if w.served {
            let jobs = if ctx.smoke { 4 } else { w.reps / windows };
            serve_window(ctx, w, Until::Jobs(jobs), &mut wins[k], tally);
        } else {
            campaign_unit(ctx, w, &mut rng, &mut wins[k], tally);
        }
    }
    WORKLOADS
        .iter()
        .copied()
        .zip(results)
        .map(|(w, (wins, tally))| (w, wins, tally))
        .collect()
}

/// A workload's per-layer values, plus diagnostic extras.
#[derive(Debug, Default)]
pub struct Layers {
    /// Per-layer metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Further breakdowns (per kernel, per fabric grid), with units.
    pub extras: Vec<(String, f64, &'static str)>,
    /// Attempts and failures.
    pub tally: Tally,
}

/// The traced run of `w`: cold children per campaign with the driver's
/// own slot times, journal replays, the kernel / `ModelExec` / memory
/// split, the fabric pass, and a service session.
pub fn measure_layers(ctx: &Ctx, w: &Workload) -> Layers {
    let mut out = Layers::default();
    let campaigns = w.campaigns(ctx.smoke);
    let m = &mut out.metrics;
    let tally = &mut out.tally;

    // Core and lab: each campaign as cold children, with the slot times
    // the driver reports (`RunOutcome::slot_secs`), and a replay of every
    // run's journal.
    let runs = if ctx.smoke { 1 } else { TRACE_RUNS };
    let mut run_s = 0.0;
    let mut slots: Vec<f64> = Vec::new();
    let (mut load_s, mut append_s, mut records) = (0.0, 0.0, 0);
    for &campaign in campaigns {
        for _ in 0..runs {
            let dir = ctx.scratch("trace");
            if let Some(r) = tally.record(cold::run_child(&ctx.exe, campaign, Mode::Run, &dir)) {
                run_s += r.run_s;
                slots.extend(&r.slot_s);
                let journal = cold::journal_path(&dir);
                let replayed = layers::journal_split(&journal, &dir.join("replay.journal"));
                if let Some(j) = tally.record(replayed) {
                    load_s += j.load_s;
                    append_s += j.append_s;
                    records += j.records;
                }
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
    if let (Some(p50), Some(p90)) = (
        stats::percentile(&slots, 0.5),
        stats::percentile(&slots, 0.9),
    ) {
        let slot_sum: f64 = slots.iter().sum();
        m.insert("core.slot_ms_p50", p50 * 1e3);
        m.insert("core.slot_ms_p90", p90 * 1e3);
        m.insert(
            "lab.driver_ms_per_slot",
            (run_s - slot_sum) / slots.len() as f64 * 1e3,
        );
        out.extras
            .push(("core.slots".into(), slots.len() as f64, "count"));
    }
    if records > 0 {
        m.insert("lab.journal_append_us", append_s / records as f64 * 1e6);
        // Per run: every campaign journal of the workload once.
        m.insert("lab.journal_load_ms", load_s / runs as f64 * 1e3);
    }
    // The split reads the slot times the driver already takes, so the
    // traced runs are the untraced runs: no overhead, by construction.
    m.insert("trace_overhead_frac", 0.0);

    // Kernels, ModelExec and the memory components.
    let jobs: Vec<layers::KernelJob> = campaigns
        .iter()
        .flat_map(|c| layers::kernel_jobs(c))
        .collect();
    let k = layers::kernel_split(&jobs);
    m.insert("kernels.native_s", k.native_s);
    m.insert("cpu.model_s", k.model_s);
    m.insert("cpu.interp_ratio", k.model_s / k.native_s);
    m.insert("mem.hierarchy_s", k.hierarchy_s);
    m.insert("mem.tlb_s", k.tlb_s);
    m.insert(
        "mem.ns_per_access",
        (k.hierarchy_s + k.tlb_s) / k.sampled_accesses as f64 * 1e9,
    );
    m.insert(
        "cpu.dispatch_s",
        k.model_s - k.native_s - k.hierarchy_s - k.tlb_s,
    );
    m.insert("cpu.mem_ops", k.counts.memory_accesses() as f64);
    m.insert("cpu.flop_instr", k.counts.flop_instructions as f64);
    m.insert("cpu.int_ops", k.counts.int_ops as f64);
    m.insert("cpu.branches", k.counts.branches as f64);
    m.insert("mem.sampled_accesses", k.sampled_accesses as f64);
    m.insert("mem.l1_misses", k.l1_misses as f64);
    m.insert("mem.tlb_misses", k.tlb_misses as f64);
    for (name, (native, model)) in &k.per_kernel {
        out.extras
            .push((format!("kernels.native_s.{name}"), *native, "s"));
        out.extras
            .push((format!("cpu.model_s.{name}"), *model, "s"));
    }

    // The fabric, for the Figure 3 grids among the campaigns.
    let (mut messages, mut bytes, mut retries) = (0, 0, 0);
    for &campaign in campaigns {
        let Some(f) = layers::fabric_split(campaign) else {
            continue;
        };
        tally.record(if f.consistent {
            Ok(())
        } else {
            Err(format!(
                "{campaign}: a traced fabric run changed its makespan"
            ))
        });
        messages += f.messages;
        bytes += f.bytes;
        retries += f.retries;
        out.extras.push((
            format!("cluster.execute_ms.{campaign}"),
            f.execute_s * 1e3,
            "ms",
        ));
        out.extras.push((
            format!("cluster.us_per_message.{campaign}"),
            f.execute_s * 1e6 / f.messages as f64,
            "us",
        ));
    }
    m.insert("mpi.messages", messages as f64);
    m.insert("mpi.bytes", bytes as f64);
    m.insert("mpi.retries", retries as f64);

    // The service: the mix itself on serve-mix, otherwise a probe of
    // this workload's own campaigns through a single client.
    let session = if w.served {
        let jobs = if ctx.smoke { 4 } else { SERVE_TRACE_JOBS };
        let seed = ctx.seed;
        let pick = move |i: usize| mix_pick(campaigns, seed, i);
        serve_session(ctx, 2, &pick, Until::Jobs(jobs), tally)
    } else {
        let per = if ctx.smoke {
            1
        } else {
            PROBE_JOBS_PER_CAMPAIGN
        };
        let pick = |i: usize| campaigns[i % campaigns.len()];
        serve_session(ctx, 1, &pick, Until::Jobs(per * campaigns.len()), tally)
    };
    if let Some(s) = session {
        let submit: Vec<f64> = s.samples.iter().map(|j| j.submit_ms).collect();
        let (queue, run): (Vec<f64>, Vec<f64>) = s.samples.iter().filter_map(|j| j.split).unzip();
        let busy = s
            .samples
            .iter()
            .filter(|j| j.outcome == JobOutcome::Busy)
            .count();
        if let Some(v) = stats::median(&submit) {
            m.insert("serve.submit_ms_p50", v);
        }
        if let (Some(q), Some(r)) = (stats::median(&queue), stats::median(&run)) {
            m.insert("serve.queue_ms_p50", q);
            m.insert("serve.run_ms_p50", r);
        }
        m.insert("serve.busy_count", busy as f64);
        out.extras
            .push(("serve.jobs".into(), s.samples.len() as f64, "count"));
        out.extras
            .push(("serve.split_jobs".into(), queue.len() as f64, "count"));
    }
    out
}
