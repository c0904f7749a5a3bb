//! Search strategies over parameter spaces.
//!
//! The paper's conclusion (§V.A.3) is pointed: on the ARM platforms,
//! auto-tuning "may have to explore more systematically parameter space,
//! rather than being guided by developers' intuition". The strategies
//! here embody the trade-off: [`ExhaustiveSearch`] is the systematic
//! option, [`HillClimb`] is the intuition-shaped shortcut that works only
//! when the cost surface is benign, and [`RandomSearch`] sits between.

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

/// Evaluates `budget` uniformly random points (with replacement).
#[derive(Debug, Clone, Copy)]
pub struct RandomSearch {
    budget: usize,
    seed: u64,
}

impl RandomSearch {
    /// Creates the strategy.
    ///
    /// # Panics
    ///
    /// Panics if `budget` is zero.
    pub fn new(budget: usize, seed: u64) -> Self {
        assert!(budget > 0, "budget must be positive");
        RandomSearch { budget, seed }
    }
}

impl Tuner for RandomSearch {
    fn tune(
        &mut self,
        space: &ParameterSpace,
        mut objective: impl FnMut(&Point) -> f64,
    ) -> TuneResult {
        assert!(space.cardinality() > 0, "cannot tune an empty space");
        let mut rng = Xoshiro256::seed_from(self.seed);
        let mut evaluations = Vec::with_capacity(self.budget);
        for _ in 0..self.budget {
            let p: Point = (0..space.num_parameters())
                .map(|d| rng.gen_range(space.levels(d) as u64) as usize)
                .collect();
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

/// Simulated annealing: a random walk that accepts uphill moves with
/// probability `exp(−Δ/T)` under a geometric cooling schedule. Escapes
/// the local minima that trap [`HillClimb`] on rugged ARM-style cost
/// surfaces, at a bounded evaluation budget.
#[derive(Debug, Clone, Copy)]
pub struct SimulatedAnnealing {
    steps: usize,
    initial_temperature: f64,
    cooling: f64,
    seed: u64,
}

impl SimulatedAnnealing {
    /// Creates the strategy.
    ///
    /// # Panics
    ///
    /// Panics if `steps` is zero, the temperature is not positive, or
    /// `cooling` is outside `(0, 1)`.
    pub fn new(steps: usize, initial_temperature: f64, cooling: f64, seed: u64) -> Self {
        assert!(steps > 0, "need at least one step");
        assert!(initial_temperature > 0.0, "temperature must be positive");
        assert!(
            cooling > 0.0 && cooling < 1.0,
            "cooling factor must be in (0, 1)"
        );
        SimulatedAnnealing {
            steps,
            initial_temperature,
            cooling,
            seed,
        }
    }
}

impl Tuner for SimulatedAnnealing {
    fn tune(
        &mut self,
        space: &ParameterSpace,
        mut objective: impl FnMut(&Point) -> f64,
    ) -> TuneResult {
        assert!(space.cardinality() > 0, "cannot tune an empty space");
        let mut rng = Xoshiro256::seed_from(self.seed);
        let mut current: Point = (0..space.num_parameters())
            .map(|d| rng.gen_range(space.levels(d) as u64) as usize)
            .collect();
        let mut current_cost = check(objective(&current));
        let mut evaluations = vec![(current.clone(), current_cost)];
        let mut best = (current.clone(), current_cost);
        let mut temperature = self.initial_temperature;
        for _ in 0..self.steps {
            let neighbours = space.neighbours(&current);
            if neighbours.is_empty() {
                break; // single-point space
            }
            let pick = rng.gen_range(neighbours.len() as u64) as usize;
            let candidate = neighbours[pick].clone();
            let cost = check(objective(&candidate));
            evaluations.push((candidate.clone(), cost));
            let delta = cost - current_cost;
            let accept = delta <= 0.0 || rng.next_f64() < (-delta / temperature).exp();
            if accept {
                current = candidate;
                current_cost = cost;
                if current_cost < best.1 {
                    best = (current.clone(), current_cost);
                }
            }
            temperature *= self.cooling;
        }
        TuneResult {
            best_point: best.0,
            best_cost: best.1,
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
    fn random_search_stays_in_space_and_is_seeded() {
        let s = ParameterSpace::new()
            .with_parameter("a", vec![0, 1, 2])
            .with_parameter("b", vec![5, 6]);
        let f = |p: &Point| (p[0] + p[1]) as f64;
        let r1 = RandomSearch::new(20, 9).tune(&s, f);
        let r2 = RandomSearch::new(20, 9).tune(&s, f);
        assert_eq!(r1, r2);
        assert!(r1.evaluations.iter().all(|(p, _)| s.contains(p)));
        assert_eq!(r1.best_cost, 0.0, "cheap point exists and gets found");
    }

    #[test]
    fn annealing_escapes_local_minima() {
        // The rugged surface that traps a single hill climb.
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
        // Annealing is stochastic: across a handful of seeds it should
        // reach the global minimum at least half the time, where a
        // single hill climb from a bad start never does.
        let hits = (0..6)
            .filter(|&seed| {
                SimulatedAnnealing::new(400, 10.0, 0.99, seed)
                    .tune(&s, f)
                    .best_cost
                    == 0.0
            })
            .count();
        assert!(hits >= 3, "annealing found the global min {hits}/6 times");
    }

    #[test]
    fn annealing_deterministic_and_in_space() {
        let s = ParameterSpace::new()
            .with_parameter("a", vec![0, 1, 2, 3])
            .with_parameter("b", vec![10, 20]);
        let f = |p: &Point| (p[0] * 2 + p[1]) as f64;
        let r1 = SimulatedAnnealing::new(50, 4.0, 0.95, 9).tune(&s, f);
        let r2 = SimulatedAnnealing::new(50, 4.0, 0.95, 9).tune(&s, f);
        assert_eq!(r1, r2);
        assert!(r1.evaluations.iter().all(|(p, _)| s.contains(p)));
        assert_eq!(r1.best_cost, 0.0);
    }

    #[test]
    #[should_panic(expected = "cooling factor must be in (0, 1)")]
    fn bad_cooling_panics() {
        let _ = SimulatedAnnealing::new(10, 1.0, 1.5, 0);
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
