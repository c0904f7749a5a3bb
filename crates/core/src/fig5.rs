//! Figure 5 — the real-time-scheduling bandwidth anomaly on the
//! Snowball.
//!
//! The paper's protocol: the memory microbenchmark with stride 1, array
//! sizes 1–50 KB, **42 randomised repetitions per size**, run under
//! `SCHED_FIFO`. Two execution modes appear: a normal one and a degraded
//! one ~5× slower, with the degraded measurements *consecutive* in
//! sequence order (panels a and b). Physical pages are reallocated per
//! measurement (the §V.A.1 reuse behaviour), so within-run noise is tiny.

use crate::platform::Platform;
use mb_kernels::membench::{make_buffer, run_model, MembenchConfig};
use mb_mem::pages::{PageAllocator, PagePolicy};
use mb_os::rt_anomaly::RtAnomalyModel;
use mb_simcore::plan::MeasurementPlan;
use mb_simcore::stats::Histogram;

/// Configuration of the Figure 5 experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig5Config {
    /// Array sizes in bytes.
    pub sizes: Vec<usize>,
    /// Randomised repetitions per size (paper: 42).
    pub reps: u32,
    /// Sweeps per measurement.
    pub sweeps: u32,
    /// Fraction of the sequence covered by the degraded window.
    pub degraded_fraction: f64,
    /// Slowdown of the degraded mode (paper: "almost 5 times lower").
    pub slowdown: f64,
    /// Master seed.
    pub seed: u64,
}

impl Fig5Config {
    /// Fast test configuration.
    pub fn quick() -> Self {
        Fig5Config {
            sizes: (1..=8).map(|i| i * 6 * 1024).collect(),
            reps: 6,
            sweeps: 2,
            degraded_fraction: 0.3,
            slowdown: 5.0,
            seed: 0xF165,
        }
    }

    /// The paper's grid: 1–50 KB, 42 repetitions.
    pub fn paper() -> Self {
        Fig5Config {
            sizes: (1..=50).map(|kb| kb * 1024).collect(),
            reps: 42,
            sweeps: 4,
            degraded_fraction: 0.3,
            slowdown: 5.0,
            seed: 0xF165,
        }
    }
}

/// One measurement in execution order.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig5Sample {
    /// Position in the executed sequence (panel b's x-axis).
    pub seq: usize,
    /// Array size measured.
    pub array_bytes: usize,
    /// Effective bandwidth after the scheduler's interference, GB/s.
    pub bandwidth_gbps: f64,
    /// Whether the RT anomaly degraded this measurement.
    pub degraded: bool,
}

/// The Figure 5 dataset and its analysis hooks.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig5Report {
    /// Samples in execution order.
    pub samples: Vec<Fig5Sample>,
    /// Configuration used.
    pub config: Fig5Config,
}

impl Fig5Report {
    /// Histogram of all bandwidths (panel a's marginal distribution).
    pub fn histogram(&self, bins: usize) -> Histogram {
        let max = self
            .samples
            .iter()
            .map(|s| s.bandwidth_gbps)
            .fold(0.0f64, f64::max);
        let mut h = Histogram::new(0.0, max * 1.01 + f64::EPSILON, bins);
        for s in &self.samples {
            h.record(s.bandwidth_gbps);
        }
        h
    }

    /// Number of distinct execution modes detected (the paper observes
    /// two).
    pub fn modes(&self) -> usize {
        self.histogram(12)
            .modes(self.samples.len() as u64 / 24)
            .len()
    }

    /// Whether all degraded samples are consecutive in sequence order —
    /// the panel-b observation.
    pub fn degraded_block_is_contiguous(&self) -> bool {
        let flags: Vec<bool> = self.samples.iter().map(|s| s.degraded).collect();
        let first = flags.iter().position(|&d| d);
        let last = flags.iter().rposition(|&d| d);
        match (first, last) {
            (Some(a), Some(b)) => flags[a..=b].iter().all(|&d| d),
            _ => true,
        }
    }

    /// Mean *normal-mode* bandwidth per array size, `(bytes, GB/s)`,
    /// sorted by size (panel a's solid line, excluding the degraded
    /// mode).
    pub fn mean_by_size(&self) -> Vec<(usize, f64)> {
        let mut sizes: Vec<usize> = self.config.sizes.clone();
        sizes.sort_unstable();
        sizes
            .into_iter()
            .map(|sz| {
                let vals: Vec<f64> = self
                    .samples
                    .iter()
                    .filter(|s| s.array_bytes == sz && !s.degraded)
                    .map(|s| s.bandwidth_gbps)
                    .collect();
                let mean = if vals.is_empty() {
                    0.0
                } else {
                    vals.iter().sum::<f64>() / vals.len() as f64
                };
                (sz, mean)
            })
            .collect()
    }
}

/// Runs the Figure 5 experiment on the Snowball model.
///
/// The stateful parts of the protocol — the randomised plan, the RT
/// anomaly window and the page allocator (whose `ReuseLast` policy
/// depends on allocation order) — are walked serially in sequence
/// order to bind each measurement to its `(seq, size, page table)`.
/// The measurements themselves are then independent and fan out over
/// `mb_simcore::par::sweep_labeled`, one fresh executor per task;
/// `run_model` resets its executor on entry, so a fresh executor is
/// bit-identical to the reset-and-reuse of a serial run.
pub fn run(cfg: &Fig5Config) -> Fig5Report {
    let prelude = Prelude::new(cfg);
    let tasks = prelude
        .slots
        .iter()
        .map(|&(seq, size, _)| (format!("seq{seq}-{size}B"), seq))
        .collect();
    let samples = mb_simcore::par::sweep_labeled(cfg.seed, tasks, |_, seq| {
        prelude.measure(cfg, seq)
    });
    Fig5Report {
        samples,
        config: cfg.clone(),
    }
}

/// The stateful, *serially walked* part of the Figure 5 protocol: the
/// randomised measurement plan, the RT anomaly window and the
/// order-dependent page allocations, bound to each sequence position.
/// Recomputing it is cheap and deterministic, which is what lets a
/// campaign slot (or a shard on another host) reproduce measurement
/// `seq` bit for bit without running its predecessors.
struct Prelude {
    platform: Platform,
    anomaly: RtAnomalyModel,
    data: Vec<u8>,
    /// `(seq, array_bytes, page_table)` per measurement, in order.
    slots: Vec<(usize, usize, mb_mem::pages::PageTable)>,
}

impl Prelude {
    fn new(cfg: &Fig5Config) -> Self {
        let plan = MeasurementPlan::full_factorial(&cfg.sizes, cfg.reps, cfg.seed);
        let anomaly = RtAnomalyModel::new(
            plan.len(),
            cfg.degraded_fraction,
            cfg.slowdown,
            cfg.seed ^ 0xA,
        );
        // §V.A.1: within one run the OS hands the same frames back per
        // size; `ReuseLast` makes table `seq` a function of allocation
        // order, so the walk below must stay serial.
        let mut allocator =
            PageAllocator::new(PagePolicy::ReuseLast, 4096, 1 << 18, cfg.seed ^ 0xB);
        let max_size = cfg.sizes.iter().copied().max().expect("non-empty sizes");
        let data = make_buffer(max_size, cfg.seed);
        let slots = plan
            .iter()
            .enumerate()
            .map(|(seq, m)| (seq, m.level, allocator.allocate(m.level)))
            .collect();
        Prelude {
            platform: Platform::snowball(),
            anomaly,
            data,
            slots,
        }
    }

    fn measure(&self, cfg: &Fig5Config, seq: usize) -> Fig5Sample {
        let (_, size, ref table) = self.slots[seq];
        let mut exec = self.platform.exec(1);
        exec.set_page_table(Some(table.clone()));
        let mb_cfg = MembenchConfig {
            sweeps: cfg.sweeps,
            ..MembenchConfig::figure5(size)
        };
        let result = run_model(&mb_cfg, &self.data, &mut exec);
        Fig5Sample {
            seq,
            array_bytes: size,
            bandwidth_gbps: result.bandwidth_gbps() / self.anomaly.slowdown_at(seq),
            degraded: self.anomaly.is_degraded(seq),
        }
    }
}

/// Number of campaign slots (measurements) a config produces.
pub fn slot_count(cfg: &Fig5Config) -> usize {
    cfg.sizes.len() * cfg.reps as usize
}

/// Human-readable label of campaign slot `seq`.
pub fn slot_label(cfg: &Fig5Config, seq: usize) -> String {
    let plan = MeasurementPlan::full_factorial(&cfg.sizes, cfg.reps, cfg.seed);
    let size = plan
        .iter()
        .map(|m| m.level)
        .nth(seq)
        .expect("seq in range");
    format!("seq{seq}-{size}B")
}

/// Labels of every campaign slot, in sequence order. Walks the
/// randomised plan once, so labelling the paper grid's 2 100 slots is
/// O(n) rather than the O(n²) of calling [`slot_label`] per slot.
pub fn slot_labels(cfg: &Fig5Config) -> Vec<String> {
    let plan = MeasurementPlan::full_factorial(&cfg.sizes, cfg.reps, cfg.seed);
    plan.iter()
        .enumerate()
        .map(|(seq, m)| format!("seq{seq}-{}B", m.level))
        .collect()
}

/// Reusable slot measurer: builds the serial prelude (plan, anomaly
/// window, order-dependent page allocations) once and then measures any
/// slot bit-identically to [`measure_slot`]. A campaign driving the
/// paper grid measures 2 100 slots; recomputing the 2 100-entry prelude
/// per slot would make the decomposition quadratic in the grid size.
pub struct SlotMeasurer {
    cfg: Fig5Config,
    prelude: Prelude,
}

impl SlotMeasurer {
    /// Builds the prelude for `cfg` once.
    pub fn new(cfg: &Fig5Config) -> SlotMeasurer {
        SlotMeasurer {
            cfg: cfg.clone(),
            prelude: Prelude::new(cfg),
        }
    }

    /// Number of slots this measurer can measure.
    pub fn slot_count(&self) -> usize {
        self.prelude.slots.len()
    }

    /// Measures slot `seq` — bit-identical to the sample a monolithic
    /// [`run`] produces at that sequence position.
    pub fn measure(&self, seq: usize) -> f64 {
        self.prelude.measure(&self.cfg, seq).bandwidth_gbps
    }
}

/// Measures campaign slot `seq` alone: replays the serial prelude
/// (plan, anomaly window, allocation order) and runs the one
/// measurement — bit-identical to the sample a monolithic [`run`]
/// produces at that sequence position.
pub fn measure_slot(cfg: &Fig5Config, seq: usize) -> f64 {
    SlotMeasurer::new(cfg).measure(seq)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_execution_modes() {
        let r = run(&Fig5Config::quick());
        assert_eq!(r.modes(), 2, "expected the bimodal Figure 5a shape");
    }

    #[test]
    fn degraded_samples_are_consecutive() {
        let r = run(&Fig5Config::quick());
        assert!(r.degraded_block_is_contiguous());
        let degraded = r.samples.iter().filter(|s| s.degraded).count();
        assert!(degraded > 0 && degraded < r.samples.len());
    }

    #[test]
    fn degraded_mode_is_about_five_times_slower() {
        let r = run(&Fig5Config::quick());
        let norm: Vec<f64> = r
            .samples
            .iter()
            .filter(|s| !s.degraded)
            .map(|s| s.bandwidth_gbps)
            .collect();
        let degr: Vec<f64> = r
            .samples
            .iter()
            .filter(|s| s.degraded)
            .map(|s| s.bandwidth_gbps)
            .collect();
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        let ratio = mean(&norm) / mean(&degr);
        assert!(
            (3.5..6.5).contains(&ratio),
            "mode ratio {ratio} (paper: ~5)"
        );
    }

    #[test]
    fn bandwidth_decreases_past_l1() {
        let r = run(&Fig5Config::quick());
        let by_size = r.mean_by_size();
        let small = by_size.first().expect("non-empty").1; // 6 KB
        let large = by_size.last().expect("non-empty").1; // 48 KB > L1
        assert!(
            small > large,
            "bandwidth should fall past 32 KB: {small} vs {large}"
        );
    }

    #[test]
    fn slot_decomposition_is_bit_identical_to_monolithic_run() {
        let cfg = Fig5Config::quick();
        let r = run(&cfg);
        assert_eq!(r.samples.len(), slot_count(&cfg));
        // Spot-check a spread of slots, including both anomaly modes.
        for seq in [0, 1, 7, slot_count(&cfg) / 2, slot_count(&cfg) - 1] {
            let lone = measure_slot(&cfg, seq);
            assert_eq!(
                lone.to_bits(),
                r.samples[seq].bandwidth_gbps.to_bits(),
                "slot {seq} diverged from the monolithic run"
            );
            assert!(slot_label(&cfg, seq).starts_with(&format!("seq{seq}-")));
        }
    }

    #[test]
    fn deterministic() {
        let a = run(&Fig5Config::quick());
        let b = run(&Fig5Config::quick());
        assert_eq!(a, b);
    }

    #[test]
    fn slot_measurer_reuse_matches_fresh_preludes() {
        let cfg = Fig5Config::quick();
        let measurer = SlotMeasurer::new(&cfg);
        assert_eq!(measurer.slot_count(), slot_count(&cfg));
        for seq in [0, 3, slot_count(&cfg) - 1] {
            assert_eq!(
                measurer.measure(seq).to_bits(),
                measure_slot(&cfg, seq).to_bits(),
                "slot {seq}: shared-prelude measurement diverged"
            );
        }
    }

    #[test]
    fn slot_labels_match_per_slot_labels() {
        let cfg = Fig5Config::quick();
        let labels = slot_labels(&cfg);
        assert_eq!(labels.len(), slot_count(&cfg));
        for seq in [0, 1, slot_count(&cfg) / 2, slot_count(&cfg) - 1] {
            assert_eq!(labels[seq], slot_label(&cfg, seq));
        }
    }
}
