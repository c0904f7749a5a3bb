//! §V.A.1 — influence of physical page allocation: the reproducibility
//! study.
//!
//! The paper's surprise: "Despite very little performance variability
//! inside a set of measurements on Snowball, from one run to another we
//! were getting very different global behavior." Cause: near the 32 KB
//! L1 size, the OS sometimes allocates page frames whose cache *colours*
//! collide; and within a run, repeated `malloc`/`free` gets the same
//! frames back, hiding the problem from within-run statistics.
//!
//! This experiment reproduces the full phenomenon: several simulated
//! "runs" (OS boots = allocator seeds), each measuring the 32 KB
//! microbenchmark many times under the frame-reuse policy. Within-run
//! variation is tiny; across-run variation is large; and the across-run
//! differences are *explained* by the colour analysis of each run's
//! page mapping ([`mb_mem::coloring`]).

use crate::platform::Platform;
use mb_kernels::membench::{make_buffer, run as membench_run, MembenchConfig};
use mb_mem::coloring::{analyse, ColourAnalysis};
use mb_mem::pages::{PageAllocator, PagePolicy};
use mb_simcore::stats::Summary;

/// Configuration of the reproducibility study.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sec5aConfig {
    /// Array size under test (the paper: ~32 KB, the L1 size).
    pub array_bytes: usize,
    /// Simulated runs (OS boots).
    pub runs: u32,
    /// Measurements per run.
    pub reps_per_run: u32,
    /// Sweeps per measurement.
    pub sweeps: u32,
    /// Master seed.
    pub seed: u64,
}

impl Sec5aConfig {
    /// Fast test configuration.
    pub fn quick() -> Self {
        Sec5aConfig {
            array_bytes: 32 * 1024,
            runs: 12,
            reps_per_run: 6,
            sweeps: 6,
            seed: 0x5A1,
        }
    }

    /// The bench binary's configuration.
    pub fn paper() -> Self {
        Sec5aConfig {
            runs: 20,
            reps_per_run: 20,
            sweeps: 8,
            ..Sec5aConfig::quick()
        }
    }
}

/// One simulated run: its measurements and the mapping diagnosis.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// The run's seed (its "boot identity").
    pub seed: u64,
    /// Bandwidths measured within the run, GB/s.
    pub bandwidths: Vec<f64>,
    /// Mean bandwidth.
    pub mean: f64,
    /// Within-run coefficient of variation.
    pub cv: f64,
    /// Colour analysis of the frames this run's allocator handed out.
    pub colours: ColourAnalysis,
}

/// The full study.
#[derive(Debug, Clone, PartialEq)]
pub struct Sec5aReport {
    /// Per-run results.
    pub runs: Vec<RunResult>,
    /// Coefficient of variation of the *run means* — the across-run
    /// variability the paper found so troubling.
    pub across_run_cv: f64,
    /// Mean of the within-run CVs.
    pub within_run_cv: f64,
}

impl Sec5aReport {
    /// The paper's observation quantified: across-run variability
    /// relative to within-run variability.
    pub fn variability_ratio(&self) -> f64 {
        if self.within_run_cv == 0.0 {
            f64::INFINITY
        } else {
            self.across_run_cv / self.within_run_cv
        }
    }
}

/// Runs the study on the Snowball model.
pub fn run(cfg: &Sec5aConfig) -> Sec5aReport {
    let platform = Platform::snowball();
    let l1 = platform.hierarchy.levels[0].cache;
    let data = make_buffer(cfg.array_bytes, cfg.seed);
    let mut runs = Vec::with_capacity(cfg.runs as usize);
    for r in 0..cfg.runs {
        let run_seed = cfg.seed.wrapping_mul(0x9E37_79B9).wrapping_add(r as u64);
        // A fresh boot: fresh allocator state, frame reuse within the run.
        let mut allocator = PageAllocator::new(PagePolicy::ReuseLast, 4096, 1 << 18, run_seed);
        let mut exec = platform.exec(1);
        let mut bandwidths = Vec::with_capacity(cfg.reps_per_run as usize);
        let mut colours = None;
        for _ in 0..cfg.reps_per_run {
            // malloc/free per measurement — the paper's protocol. The
            // reuse policy hands the same frames back.
            let table = allocator.allocate(cfg.array_bytes);
            if colours.is_none() {
                colours = Some(analyse(&table, &l1));
            }
            exec.set_page_table(Some(table));
            let mb = MembenchConfig {
                sweeps: cfg.sweeps,
                ..MembenchConfig::figure5(cfg.array_bytes)
            };
            // Measure with a custom model setup rather than
            // `membench::run_model`: colour-conflicted lines are evicted
            // behind the prefetcher's back (the stream has already moved
            // on when the set wraps), so conflict misses stall the
            // in-order pipe almost fully.
            exec.reset();
            exec.set_mlp_hint(1);
            exec.set_prefetch_hint(0.2);
            let (accesses, _checksum) = membench_run(&mb, &data, &mut exec);
            let report = exec.finish();
            let bytes = accesses as f64 * mb.elem_bytes as f64;
            bandwidths.push(bytes / report.time.as_secs_f64() / 1e9);
        }
        let summary = Summary::from_samples(bandwidths.iter().copied());
        runs.push(RunResult {
            seed: run_seed,
            mean: summary.mean(),
            cv: summary.cv(),
            bandwidths,
            colours: colours.expect("at least one measurement"),
        });
    }
    let means = Summary::from_samples(runs.iter().map(|r| r.mean));
    let within = runs.iter().map(|r| r.cv).sum::<f64>() / runs.len() as f64;
    Sec5aReport {
        across_run_cv: means.cv(),
        within_run_cv: within,
        runs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn within_run_is_stable_across_runs_is_not() {
        let r = run(&Sec5aConfig::quick());
        // "very little performance variability inside a set of
        // measurements … from one run to another very different global
        // behavior".
        assert!(
            r.within_run_cv < 0.01,
            "within-run CV should be tiny: {}",
            r.within_run_cv
        );
        assert!(
            r.across_run_cv > 0.02,
            "across-run CV should be visible: {}",
            r.across_run_cv
        );
        assert!(r.variability_ratio() > 3.0);
    }

    #[test]
    fn colour_imbalance_explains_slow_runs() {
        let r = run(&Sec5aConfig::quick());
        // Rank runs by bandwidth; the slowest run must have a worse (or
        // equal) colour balance than the fastest.
        let fastest = r
            .runs
            .iter()
            .max_by(|a, b| a.mean.partial_cmp(&b.mean).expect("finite"))
            .expect("non-empty");
        let slowest = r
            .runs
            .iter()
            .min_by(|a, b| a.mean.partial_cmp(&b.mean).expect("finite"))
            .expect("non-empty");
        assert!(
            slowest.colours.overflow_fraction >= fastest.colours.overflow_fraction,
            "slow run overflow {} vs fast run overflow {}",
            slowest.colours.overflow_fraction,
            fastest.colours.overflow_fraction
        );
        assert!(slowest.mean < fastest.mean);
    }

    #[test]
    fn deterministic() {
        assert_eq!(run(&Sec5aConfig::quick()), run(&Sec5aConfig::quick()));
    }
}
