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

    /// The value stream the pinned Figure 5 digests fold: every
    /// bandwidth sample, in sequence order.
    pub fn digest_stream(&self) -> Vec<f64> {
        self.samples.iter().map(|s| s.bandwidth_gbps).collect()
    }
}

/// Runs the Figure 5 experiment on the Snowball model: every slot of a
/// [`SlotMeasurer`] on the sweep worker pool, folded by
/// [`SlotMeasurer::assemble`]. The measurements are independent, one
/// fresh executor per task; `run_model` resets its executor on entry,
/// so a fresh executor is bit-identical to the reset-and-reuse of a
/// serial run.
pub fn run(cfg: &Fig5Config) -> Fig5Report {
    let measurer = SlotMeasurer::new(cfg);
    let tasks = slot_labels(cfg).into_iter().zip(0..).collect();
    let bandwidths =
        mb_simcore::par::sweep_labeled(cfg.seed, tasks, |_, seq| measurer.measure(seq));
    measurer.assemble(&bandwidths)
}

/// Labels of every campaign slot, in sequence order, e.g.
/// `"seq7-12288B"`. Walks the randomised plan only — no page tables.
pub fn slot_labels(cfg: &Fig5Config) -> Vec<String> {
    let plan = MeasurementPlan::full_factorial(&cfg.sizes, cfg.reps, cfg.seed);
    plan.iter()
        .enumerate()
        .map(|(seq, m)| format!("seq{seq}-{}B", m.level))
        .collect()
}

/// The Figure 5 slot measurer. It walks the stateful part of the
/// protocol once — the randomised measurement plan, the RT anomaly
/// window and the order-dependent page allocations, bound to each
/// sequence position — then measures any slot on its own and folds
/// slot payloads into the report. Building it is cheap and
/// deterministic, which is what lets a campaign slot (or a shard on
/// another host) reproduce measurement `seq` bit for bit without
/// running its predecessors; sharing one across the paper grid's 2 100
/// slots keeps the campaign linear in the grid size.
pub struct SlotMeasurer {
    cfg: Fig5Config,
    platform: Platform,
    anomaly: RtAnomalyModel,
    data: Vec<u8>,
    /// `(array_bytes, page_table)` per measurement, in sequence order.
    slots: Vec<(usize, mb_mem::pages::PageTable)>,
}

impl SlotMeasurer {
    /// Walks the serial prelude for `cfg` once.
    pub fn new(cfg: &Fig5Config) -> SlotMeasurer {
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
        let slots = plan
            .iter()
            .map(|m| (m.level, allocator.allocate(m.level)))
            .collect();
        SlotMeasurer {
            cfg: cfg.clone(),
            platform: Platform::snowball(),
            anomaly,
            data: make_buffer(max_size, cfg.seed),
            slots,
        }
    }

    /// Number of slots this measurer can measure.
    pub fn slot_count(&self) -> usize {
        self.slots.len()
    }

    /// Measures slot `seq`: the effective bandwidth in GB/s after the
    /// scheduler's interference.
    pub fn measure(&self, seq: usize) -> f64 {
        let (size, ref table) = self.slots[seq];
        let mut exec = self.platform.exec(1);
        exec.set_page_table(Some(table.clone()));
        let mb_cfg = MembenchConfig {
            sweeps: self.cfg.sweeps,
            ..MembenchConfig::figure5(size)
        };
        let result = run_model(&mb_cfg, &self.data, &mut exec);
        result.bandwidth_gbps() / self.anomaly.slowdown_at(seq)
    }

    /// Folds one [`Self::measure`] payload per slot, in sequence order,
    /// into the report.
    ///
    /// # Panics
    ///
    /// Panics unless there is exactly one payload per slot.
    pub fn assemble(&self, bandwidths: &[f64]) -> Fig5Report {
        assert_eq!(bandwidths.len(), self.slot_count(), "one payload per slot");
        let samples = self
            .slots
            .iter()
            .zip(bandwidths)
            .enumerate()
            .map(|(seq, (&(array_bytes, _), &bandwidth_gbps))| Fig5Sample {
                seq,
                array_bytes,
                bandwidth_gbps,
                degraded: self.anomaly.is_degraded(seq),
            })
            .collect();
        Fig5Report {
            samples,
            config: self.cfg.clone(),
        }
    }
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
        // The sweep gives every slot a fresh executor; one executor
        // reused across the whole sequence in order (the paper's serial
        // protocol) must measure the same bits, so `run_model`'s reset
        // leaves nothing behind.
        let cfg = Fig5Config::quick();
        let r = run(&cfg);
        let m = SlotMeasurer::new(&cfg);
        let mut exec = m.platform.exec(1);
        for (seq, &(size, ref table)) in m.slots.iter().enumerate() {
            exec.set_page_table(Some(table.clone()));
            let mb_cfg = MembenchConfig {
                sweeps: cfg.sweeps,
                ..MembenchConfig::figure5(size)
            };
            let bw = run_model(&mb_cfg, &m.data, &mut exec).bandwidth_gbps()
                / m.anomaly.slowdown_at(seq);
            assert_eq!(
                bw.to_bits(),
                r.samples[seq].bandwidth_gbps.to_bits(),
                "slot {seq} diverged from the serial run"
            );
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
        assert_eq!(measurer.slot_count(), cfg.sizes.len() * cfg.reps as usize);
        for seq in [0, 3, measurer.slot_count() - 1] {
            assert_eq!(
                measurer.measure(seq).to_bits(),
                SlotMeasurer::new(&cfg).measure(seq).to_bits(),
                "slot {seq}: shared-prelude measurement diverged"
            );
        }
    }

    #[test]
    fn slot_labels_match_per_slot_labels() {
        // Labels walk the plan alone; the measurer's prelude binds the
        // same sizes to the same sequence positions.
        let cfg = Fig5Config::quick();
        let labels = slot_labels(&cfg);
        let sizes = SlotMeasurer::new(&cfg).assemble(&vec![0.0; labels.len()]);
        for s in &sizes.samples {
            assert_eq!(labels[s.seq], format!("seq{}-{}B", s.seq, s.array_bytes));
        }
    }
}
