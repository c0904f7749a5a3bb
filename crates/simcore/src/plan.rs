//! Randomised measurement plans.
//!
//! Section V.A.1 of the paper finds that naïve benchmarking on the ARM
//! boards is *biased*: the OS tends to hand the same physical pages back to
//! successive `malloc`/`free` pairs, so all measurements inside one run
//! share hidden state, while separate runs differ wildly. The paper's
//! remedy — "such benchmarks and auto-tuning methods need to be thoroughly
//! randomized" — is captured here as a reusable experiment-design
//! component: a full-factorial plan over factor levels, replicated and
//! shuffled with a seeded RNG.
//!
//! The Figure 5 experiment ("42 randomized repetitions for each array size
//! 1KB–50KB") is literally `MeasurementPlan::full_factorial(&sizes, 42,
//! seed)`.

use crate::rng::{shuffle, Xoshiro256};

/// One scheduled measurement: which factor level to use, and which
/// repetition this is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Measurement<L> {
    /// Index into the level list the plan was built from.
    pub level_index: usize,
    /// The factor level itself.
    pub level: L,
    /// Repetition number, `0..reps`.
    pub rep: u32,
}

/// A randomised, replicated measurement plan over one factor.
///
/// # Examples
///
/// ```
/// use mb_simcore::plan::MeasurementPlan;
///
/// // Figure 5: array sizes 1..=50 KB, 42 randomised repetitions each.
/// let sizes: Vec<usize> = (1..=50).map(|kb| kb * 1024).collect();
/// let plan = MeasurementPlan::full_factorial(&sizes, 42, 0xF1605);
/// assert_eq!(plan.len(), 50 * 42);
/// // Every (size, rep) pair appears exactly once.
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MeasurementPlan<L> {
    order: Vec<Measurement<L>>,
    reps: u32,
    levels: usize,
    seed: u64,
}

impl<L: Clone> MeasurementPlan<L> {
    /// Builds a full-factorial plan: every level × every repetition, in a
    /// seeded random order.
    ///
    /// # Panics
    ///
    /// Panics if `levels` is empty or `reps` is zero.
    pub fn full_factorial(levels: &[L], reps: u32, seed: u64) -> Self {
        assert!(!levels.is_empty(), "plan needs at least one level");
        assert!(reps > 0, "plan needs at least one repetition");
        let mut order = Vec::with_capacity(levels.len() * reps as usize);
        for rep in 0..reps {
            for (level_index, level) in levels.iter().enumerate() {
                order.push(Measurement {
                    level_index,
                    level: level.clone(),
                    rep,
                });
            }
        }
        let mut rng = Xoshiro256::seed_from(seed);
        shuffle(&mut order, &mut rng);
        MeasurementPlan {
            order,
            reps,
            levels: levels.len(),
            seed,
        }
    }

    /// Builds a **sequential** (non-randomised) plan — the biased design
    /// the paper warns about. Provided so ablations can demonstrate the
    /// bias.
    ///
    /// # Panics
    ///
    /// Panics if `levels` is empty or `reps` is zero.
    pub fn sequential(levels: &[L], reps: u32) -> Self {
        assert!(!levels.is_empty(), "plan needs at least one level");
        assert!(reps > 0, "plan needs at least one repetition");
        let mut order = Vec::with_capacity(levels.len() * reps as usize);
        for (level_index, level) in levels.iter().enumerate() {
            for rep in 0..reps {
                order.push(Measurement {
                    level_index,
                    level: level.clone(),
                    rep,
                });
            }
        }
        MeasurementPlan {
            order,
            reps,
            levels: levels.len(),
            seed: 0,
        }
    }

    /// Number of scheduled measurements (`levels × reps`).
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// Returns `true` if the plan is empty (never true for constructed
    /// plans, but part of the conventional len/is_empty pair).
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// Number of repetitions per level.
    pub fn reps(&self) -> u32 {
        self.reps
    }

    /// The seed the plan was shuffled with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Iterates over the scheduled measurements in execution order.
    pub fn iter(&self) -> std::slice::Iter<'_, Measurement<L>> {
        self.order.iter()
    }

    /// Runs `f` for every scheduled measurement and groups results by
    /// level index (results within a group appear in execution order).
    pub fn run<T>(&self, mut f: impl FnMut(&Measurement<L>) -> T) -> Vec<Vec<T>> {
        let mut groups: Vec<Vec<T>> = (0..self.levels).map(|_| Vec::new()).collect();
        for m in &self.order {
            groups[m.level_index].push(f(m));
        }
        groups
    }
}

impl<'a, L> IntoIterator for &'a MeasurementPlan<L> {
    type Item = &'a Measurement<L>;
    type IntoIter = std::slice::Iter<'a, Measurement<L>>;
    fn into_iter(self) -> Self::IntoIter {
        self.order.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn full_factorial_covers_everything_once() {
        let plan = MeasurementPlan::full_factorial(&[10usize, 20, 30], 4, 42);
        assert_eq!(plan.len(), 12);
        assert_eq!(plan.levels, 3);
        assert_eq!(plan.reps(), 4);
        let pairs: HashSet<(usize, u32)> = plan.iter().map(|m| (m.level, m.rep)).collect();
        assert_eq!(pairs.len(), 12, "every (level, rep) pair unique");
    }

    #[test]
    fn randomised_order_differs_from_sequential() {
        let levels: Vec<u32> = (0..20).collect();
        let plan = MeasurementPlan::full_factorial(&levels, 3, 7);
        let seq = MeasurementPlan::sequential(&levels, 3);
        let p: Vec<u32> = plan.iter().map(|m| m.level).collect();
        let s: Vec<u32> = seq.iter().map(|m| m.level).collect();
        assert_ne!(p, s);
    }

    #[test]
    fn same_seed_same_order() {
        let levels = [1u8, 2, 3, 4];
        let a = MeasurementPlan::full_factorial(&levels, 5, 99);
        let b = MeasurementPlan::full_factorial(&levels, 5, 99);
        assert_eq!(a, b);
        let c = MeasurementPlan::full_factorial(&levels, 5, 100);
        assert_ne!(a, c);
    }

    #[test]
    fn sequential_groups_reps_together() {
        let plan = MeasurementPlan::sequential(&["a", "b"], 3);
        let order: Vec<(&str, u32)> = plan.iter().map(|m| (m.level, m.rep)).collect();
        assert_eq!(
            order,
            vec![("a", 0), ("a", 1), ("a", 2), ("b", 0), ("b", 1), ("b", 2)]
        );
    }

    #[test]
    fn run_groups_by_level() {
        let plan = MeasurementPlan::full_factorial(&[100usize, 200], 10, 5);
        let groups = plan.run(|m| m.level * 2);
        assert_eq!(groups.len(), 2);
        assert_eq!(groups[0].len(), 10);
        assert_eq!(groups[1].len(), 10);
        assert!(groups[0].iter().all(|&v| v == 200));
        assert!(groups[1].iter().all(|&v| v == 400));
    }

    #[test]
    #[should_panic(expected = "plan needs at least one level")]
    fn empty_levels_panics() {
        let _ = MeasurementPlan::<u32>::full_factorial(&[], 1, 0);
    }

    #[test]
    #[should_panic(expected = "plan needs at least one repetition")]
    fn zero_reps_panics() {
        let _ = MeasurementPlan::full_factorial(&[1], 0, 0);
    }

    #[test]
    fn figure5_shape() {
        // The paper: 42 randomized repetitions for each array size 1–50 KB.
        let sizes: Vec<usize> = (1..=50).map(|kb| kb * 1024).collect();
        let plan = MeasurementPlan::full_factorial(&sizes, 42, 0xF1605);
        assert_eq!(plan.len(), 2100);
    }
}
