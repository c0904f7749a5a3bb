//! Search strategies over parameter spaces.
//!
//! The paper's conclusion (§V.A.3) is pointed: on the ARM platforms,
//! auto-tuning "may have to explore more systematically parameter space,
//! rather than being guided by developers' intuition". The strategies
//! here embody the trade-off: [`ExhaustiveSearch`] is the systematic
//! option, and [`HillClimb`] is the intuition-shaped shortcut that works
//! only when the cost surface is benign.

use crate::space::{ParameterSpace, Point};
use mb_simcore::rng::{Rng, Xoshiro256};

/// Result of a tuning run: the winner plus the full evaluation log.
#[derive(Debug, Clone, PartialEq)]
pub struct TuneResult {
    /// The best point found.
    pub best_point: Point,
    /// Its cost.
    pub best_cost: f64,
    /// Every `(point, cost)` evaluated, in evaluation order.
    pub evaluations: Vec<(Point, f64)>,
}

impl TuneResult {
    /// Number of objective evaluations spent.
    pub fn evaluations_spent(&self) -> usize {
        self.evaluations.len()
    }
}

/// A tuning strategy: minimises an objective over a space.
pub trait Tuner {
    /// Runs the search, minimising `objective`.
    ///
    /// # Panics
    ///
    /// Implementations panic if the space is empty or the objective
    /// returns a non-finite cost.
    fn tune(&mut self, space: &ParameterSpace, objective: impl FnMut(&Point) -> f64) -> TuneResult;
}

fn check(cost: f64) -> f64 {
    assert!(cost.is_finite(), "objective returned a non-finite cost");
    cost
}

/// Picks the winner from an evaluation log: the first minimum in
/// evaluation order.
fn select_best(evaluations: &[(Point, f64)]) -> (Point, f64) {
    evaluations
        .iter()
        .min_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"))
        .map(|(p, c)| (p.clone(), *c))
        .expect("non-empty evaluation log")
}

/// Evaluates every point — the paper's "systematic exploration".
#[derive(Debug, Clone, Copy, Default)]
pub struct ExhaustiveSearch;

impl ExhaustiveSearch {
    /// Creates the strategy.
    pub fn new() -> Self {
        ExhaustiveSearch
    }
}

impl Tuner for ExhaustiveSearch {
    fn tune(
        &mut self,
        space: &ParameterSpace,
        mut objective: impl FnMut(&Point) -> f64,
    ) -> TuneResult {
        assert!(space.cardinality() > 0, "cannot tune an empty space");
        let mut evaluations = Vec::with_capacity(space.cardinality());
        for p in space.points() {
            let c = check(objective(&p));
            evaluations.push((p, c));
        }
        let (best_point, best_cost) = select_best(&evaluations);
        TuneResult {
            best_point,
            best_cost,
            evaluations,
        }
    }
}

/// Greedy hill climbing from a random start (with restarts).
///
/// Converges fast on convex surfaces (Nehalem's Figure 7 curve) and can
/// stall in local minima on rugged ones — the behaviour the paper warns
/// about on the ARM platforms.
#[derive(Debug, Clone, Copy)]
pub struct HillClimb {
    restarts: usize,
    seed: u64,
}

impl HillClimb {
    /// Creates the strategy with the given number of random restarts.
    ///
    /// # Panics
    ///
    /// Panics if `restarts` is zero.
    pub fn new(restarts: usize, seed: u64) -> Self {
        assert!(restarts > 0, "need at least one start");
        HillClimb { restarts, seed }
    }
}

impl Tuner for HillClimb {
    fn tune(
        &mut self,
        space: &ParameterSpace,
        mut objective: impl FnMut(&Point) -> f64,
    ) -> TuneResult {
        assert!(space.cardinality() > 0, "cannot tune an empty space");
        let mut rng = Xoshiro256::seed_from(self.seed);
        let mut evaluations = Vec::new();
        let mut best: Option<(Point, f64)> = None;
        for _ in 0..self.restarts {
            let mut current: Point = (0..space.num_parameters())
                .map(|d| rng.gen_range(space.levels(d) as u64) as usize)
                .collect();
            let mut current_cost = check(objective(&current));
            evaluations.push((current.clone(), current_cost));
            loop {
                let mut improved = false;
                for n in space.neighbours(&current) {
                    let c = check(objective(&n));
                    evaluations.push((n.clone(), c));
                    if c < current_cost {
                        current = n;
                        current_cost = c;
                        improved = true;
                        break; // first-improvement strategy
                    }
                }
                if !improved {
                    break;
                }
            }
            if best.as_ref().is_none_or(|(_, bc)| current_cost < *bc) {
                best = Some((current, current_cost));
            }
        }
        let (best_point, best_cost) = best.expect("at least one restart ran");
        TuneResult {
            best_point,
            best_cost,
            evaluations,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quad_space() -> ParameterSpace {
        ParameterSpace::new().with_parameter("x", (1..=12).collect())
    }

    #[test]
    fn exhaustive_finds_global_minimum() {
        let s = quad_space();
        let r = ExhaustiveSearch::new().tune(&s, |p| {
            let x = s.value("x", p) as f64;
            (x - 5.0).powi(2) + 1.0
        });
        assert_eq!(s.value("x", &r.best_point), 5);
        assert_eq!(r.best_cost, 1.0);
        assert_eq!(r.evaluations_spent(), 12);
    }

    #[test]
    fn hill_climb_on_convex_matches_exhaustive() {
        let s = quad_space();
        let f = |p: &Point| {
            let x = s.value("x", p) as f64;
            (x - 7.0).powi(2)
        };
        let ex = ExhaustiveSearch::new().tune(&s, f);
        let hc = HillClimb::new(1, 3).tune(&s, f);
        assert_eq!(ex.best_point, hc.best_point);
        // Worst case: walk the whole axis evaluating both neighbours.
        assert!(hc.evaluations_spent() <= 25, "climbing should be cheap");
    }

    #[test]
    fn hill_climb_can_miss_rugged_minimum_without_restarts() {
        // A two-minimum surface: local at x=2 (cost 2), global at x=11
        // (cost 0), separated by a ridge.
        let s = quad_space();
        let f = |p: &Point| {
            let x = s.value("x", p);
            match x {
                1..=3 => (x - 2).abs() as f64 + 2.0,
                11 => 0.0,
                12 => 1.0,
                _ => 10.0,
            }
        };
        // With many restarts the global minimum is found.
        let many = HillClimb::new(8, 1).tune(&s, f);
        assert_eq!(many.best_cost, 0.0);
    }

    #[test]
    #[should_panic(expected = "cannot tune an empty space")]
    fn empty_space_panics() {
        let s = ParameterSpace::new();
        let _ = ExhaustiveSearch::new().tune(&s, |_| 0.0);
    }

    #[test]
    #[should_panic(expected = "objective returned a non-finite cost")]
    fn non_finite_cost_panics() {
        let s = quad_space();
        let _ = ExhaustiveSearch::new().tune(&s, |_| f64::NAN);
    }
}
