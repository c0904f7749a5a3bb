//! Figure 5 — the real-time-scheduling bandwidth anomaly on the
//! Snowball.
//!
//! The paper's protocol: the memory microbenchmark with stride 1, array
//! sizes 1–50 KB, **42 randomised repetitions per size**, run under
//! `SCHED_FIFO`. Two execution modes appear: a normal one and a degraded
//! one ~5× slower, with the degraded measurements *consecutive* in
//! sequence order (panels a and b). Physical pages are reallocated per
//! measurement, and within one run the OS hands the same frames back for
//! the same size (the §V.A.1 reuse behaviour). So the repetitions of a
//! size share a page table and measure identically: the model costs each
//! `(array size, page table)` class once and only the anomaly window
//! tells the repetitions apart.

use crate::platform::Platform;
use mb_kernels::membench::{make_buffer, run_model, MembenchConfig};
use mb_mem::pages::{PageAllocator, PagePolicy, PageTable};
use mb_os::rt_anomaly::RtAnomalyModel;
use mb_simcore::plan::MeasurementPlan;
use mb_simcore::stats::Histogram;
use std::collections::BTreeMap;
use std::sync::OnceLock;

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
/// [`SlotMeasurer::assemble`]. The measurements are independent: a
/// task costs its slot's measurement class on a fresh executor, or reads
/// it if another task already has, and `run_model` resets its executor
/// on entry, so either is bit-identical to the reset-and-reuse of a
/// serial run.
pub fn run(cfg: &Fig5Config) -> Fig5Report {
    let measurer = SlotMeasurer::new(cfg);
    let tasks = slot_labels(cfg).into_iter().zip(0..).collect();
    let bandwidths = mb_simcore::par::sweep(tasks, |seq| measurer.measure(seq));
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

/// Every slot's array size and page table, in sequence order. The
/// allocator is stateful (`ReuseLast` makes table `seq` a function of
/// allocation order), so this walk is serial.
pub fn slot_tables(cfg: &Fig5Config) -> impl Iterator<Item = (usize, PageTable)> {
    let plan = MeasurementPlan::full_factorial(&cfg.sizes, cfg.reps, cfg.seed);
    let sizes: Vec<usize> = plan.iter().map(|m| m.level).collect();
    // §V.A.1: within one run the OS hands the same frames back per size.
    let mut allocator = PageAllocator::new(PagePolicy::ReuseLast, 4096, 1 << 18, cfg.seed ^ 0xB);
    sizes
        .into_iter()
        .map(move |size| (size, allocator.allocate(size)))
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
///
/// Slots with equal `(array_bytes, page_table)` form a measurement
/// class: the repetitions of a size get the same frames back, so the
/// paper grid's 2 100 slots are 50 classes. Each class's bandwidth
/// before the anomaly's division is costed once, by whichever slot asks
/// first, and depends only on the class, the sweeps, the data and the
/// platform. So every slot computes the same bits in any process, shard
/// or worker order.
pub struct SlotMeasurer {
    cfg: Fig5Config,
    platform: Platform,
    anomaly: RtAnomalyModel,
    data: Vec<u8>,
    /// `(array_bytes, page_table)` per class, in order of first slot.
    classes: Vec<(usize, PageTable)>,
    /// The class of each slot, in sequence order.
    class_of: Vec<usize>,
    /// Each class's bandwidth in GB/s before the anomaly's division.
    /// Caching a divided value instead would make a slot depend on which
    /// slot filled the class: `x / 5.0 * 5.0` is not `x` in general.
    class_bandwidth: Vec<OnceLock<f64>>,
}

impl SlotMeasurer {
    /// Walks the serial prelude for `cfg` once and groups its slots into
    /// measurement classes.
    pub fn new(cfg: &Fig5Config) -> SlotMeasurer {
        let mut index: BTreeMap<(usize, usize, Vec<u64>), usize> = BTreeMap::new();
        let mut classes = Vec::new();
        let class_of: Vec<usize> = slot_tables(cfg)
            .map(|(size, table)| {
                let key = (size, table.page_bytes(), table.frames().to_vec());
                *index.entry(key).or_insert_with(|| {
                    classes.push((size, table));
                    classes.len() - 1
                })
            })
            .collect();
        let anomaly = RtAnomalyModel::new(
            class_of.len(),
            cfg.degraded_fraction,
            cfg.slowdown,
            cfg.seed ^ 0xA,
        );
        let max_size = cfg.sizes.iter().copied().max().expect("non-empty sizes");
        SlotMeasurer {
            cfg: cfg.clone(),
            platform: Platform::snowball(),
            anomaly,
            data: make_buffer(max_size, cfg.seed),
            class_bandwidth: classes.iter().map(|_| OnceLock::new()).collect(),
            classes,
            class_of,
        }
    }

    /// Number of slots this measurer can measure.
    pub fn slot_count(&self) -> usize {
        self.class_of.len()
    }

    /// Number of distinct `(array_bytes, page_table)` measurement classes.
    pub fn class_count(&self) -> usize {
        self.classes.len()
    }

    /// Measures slot `seq`: the effective bandwidth in GB/s after the
    /// scheduler's interference.
    pub fn measure(&self, seq: usize) -> f64 {
        self.class_bandwidth(self.class_of[seq]) / self.anomaly.slowdown_at(seq)
    }

    /// The bandwidth of class `class` before the anomaly's division,
    /// costed on a fresh executor by the first caller.
    fn class_bandwidth(&self, class: usize) -> f64 {
        *self.class_bandwidth[class].get_or_init(|| {
            let (size, ref table) = self.classes[class];
            let mut exec = self.platform.exec(1);
            exec.set_page_table(Some(table.clone()));
            let mb_cfg = MembenchConfig {
                sweeps: self.cfg.sweeps,
                ..MembenchConfig::figure5(size)
            };
            run_model(&mb_cfg, &self.data, &mut exec).bandwidth_gbps()
        })
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
            .class_of
            .iter()
            .zip(bandwidths)
            .enumerate()
            .map(|(seq, (&class, &bandwidth_gbps))| Fig5Sample {
                seq,
                array_bytes: self.classes[class].0,
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
        // The sweep costs each measurement class once on a fresh
        // executor; one executor reused across the whole sequence in
        // order (the paper's serial protocol), fed every slot's own page
        // table, must measure the same bits, so `run_model`'s reset
        // leaves nothing behind.
        let cfg = Fig5Config::quick();
        let r = run(&cfg);
        let m = SlotMeasurer::new(&cfg);
        let mut exec = m.platform.exec(1);
        for (seq, (size, table)) in slot_tables(&cfg).enumerate() {
            exec.set_page_table(Some(table));
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
