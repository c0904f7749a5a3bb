//! Plan generation and the query API consumers poll on their hot paths.

use crate::config::FaultConfig;
use crate::fault::{Fault, FaultWindow, Topology};
use mb_simcore::rng::{Rng, SplitMix64};
use mb_simcore::time::SimTime;

// Per-category stream salts: each fault kind draws from its own
// SplitMix64 stream so adding (say) stragglers to a config never
// reshuffles which links go down under the same seed.
const LINK_DOWN_SALT: u64 = 0x11AB_1E5D_0F0F_0001;
const LINK_DEGRADE_SALT: u64 = 0x11AB_1E5D_0F0F_0002;
const SWITCH_DROP_SALT: u64 = 0x11AB_1E5D_0F0F_0003;
const STRAGGLER_SALT: u64 = 0x11AB_1E5D_0F0F_0004;
const RANK_CRASH_SALT: u64 = 0x11AB_1E5D_0F0F_0005;

/// A fully materialised, immutable schedule of faults.
///
/// Pure function of `(seed, config, topology)`; replaying generation
/// with the same inputs yields a bit-identical plan (property-tested in
/// `tests/plan_props.rs`). Queries are read-only linear scans — plans
/// hold a handful of faults, so on the empty plan (the [`Default`], and
/// what [`FaultConfig::none`] generates) every query is a scan of
/// nothing that answers "healthy".
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    seed: u64,
    faults: Vec<Fault>,
}

impl FaultPlan {
    /// Generates the plan for one experiment.
    ///
    /// One SplitMix64 stream per fault category, elements visited in
    /// index order: element *i* of category *c* always sees the same
    /// draws under the same seed, independent of every other category's
    /// configuration. Rank 0 never crashes (it hosts the driver).
    pub fn generate(seed: u64, config: &FaultConfig, topology: &Topology) -> Self {
        let mut faults = Vec::new();
        if config.is_zero() {
            return FaultPlan { seed, faults };
        }
        let horizon = config.horizon.as_nanos().max(1);

        let mut rng = SplitMix64::new(seed ^ LINK_DOWN_SALT);
        for link in 0..topology.links {
            if config.link_down_probability > 0.0 && rng.gen_bool(config.link_down_probability) {
                let window = draw_window(&mut rng, horizon);
                faults.push(Fault::LinkDown { link, window });
            }
        }

        let mut rng = SplitMix64::new(seed ^ LINK_DEGRADE_SALT);
        for link in 0..topology.links {
            if config.link_degrade_probability > 0.0
                && rng.gen_bool(config.link_degrade_probability)
            {
                let window = draw_window(&mut rng, horizon);
                // Bandwidth drops to 10–50% of nominal.
                let bandwidth_factor = 0.1 + 0.4 * rng.next_f64();
                faults.push(Fault::LinkDegrade {
                    link,
                    window,
                    bandwidth_factor,
                });
            }
        }

        let mut rng = SplitMix64::new(seed ^ SWITCH_DROP_SALT);
        for switch in 0..topology.switches {
            if config.switch_drop_probability > 0.0 && rng.gen_bool(config.switch_drop_probability)
            {
                let window = draw_window(&mut rng, horizon);
                // 5–35% of traversing messages dropped while active.
                let drop_probability = 0.05 + 0.3 * rng.next_f64();
                faults.push(Fault::SwitchDrop {
                    switch,
                    window,
                    drop_probability,
                });
            }
        }

        let mut rng = SplitMix64::new(seed ^ STRAGGLER_SALT);
        for host in 0..topology.hosts {
            if config.straggler_probability > 0.0 && rng.gen_bool(config.straggler_probability) {
                let window = draw_window(&mut rng, horizon);
                // Compute runs 1.5–4× slower — the Fig 5 throttling range.
                let slowdown_factor = 1.5 + 2.5 * rng.next_f64();
                faults.push(Fault::Straggler {
                    host,
                    window,
                    slowdown_factor,
                });
            }
        }

        let mut rng = SplitMix64::new(seed ^ RANK_CRASH_SALT);
        for rank in 1..topology.ranks {
            if config.rank_crash_probability > 0.0 && rng.gen_bool(config.rank_crash_probability) {
                let at = SimTime::from_nanos(rng.gen_range(horizon));
                faults.push(Fault::RankCrash { rank, at });
            }
        }

        FaultPlan { seed, faults }
    }

    /// A plan containing exactly the given faults — for tests and for
    /// scripting specific failure scenarios.
    pub fn from_faults(seed: u64, faults: Vec<Fault>) -> Self {
        FaultPlan { seed, faults }
    }

    /// The seed the plan was generated from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// All scheduled faults, category-then-index ordered.
    pub fn faults(&self) -> &[Fault] {
        &self.faults
    }

    /// True when nothing is scheduled.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// If the directed link is down at `t`, the end of its outage
    /// window (when queued traffic may proceed).
    #[inline]
    pub fn link_blocked_until(&self, link: u32, t: SimTime) -> Option<SimTime> {
        self.faults.iter().find_map(|f| match f {
            Fault::LinkDown { link: l, window } if *l == link && window.contains(t) => {
                Some(window.end)
            }
            _ => None,
        })
    }

    /// Bandwidth multiplier for the directed link at `t`; `1.0` when
    /// healthy.
    #[inline]
    pub fn link_degrade_factor(&self, link: u32, t: SimTime) -> f64 {
        self.faults
            .iter()
            .find_map(|f| match f {
                Fault::LinkDegrade {
                    link: l,
                    window,
                    bandwidth_factor,
                } if *l == link && window.contains(t) => Some(*bandwidth_factor),
                _ => None,
            })
            .unwrap_or(1.0)
    }

    /// Per-message drop probability at the switch at `t`; `0.0` when
    /// healthy.
    #[inline]
    pub fn switch_drop_probability(&self, switch: u32, t: SimTime) -> f64 {
        self.faults
            .iter()
            .find_map(|f| match f {
                Fault::SwitchDrop {
                    switch: s,
                    window,
                    drop_probability,
                } if *s == switch && window.contains(t) => Some(*drop_probability),
                _ => None,
            })
            .unwrap_or(0.0)
    }

    /// Compute-time multiplier for the host at `t`; `1.0` when healthy.
    #[inline]
    pub fn straggler_factor(&self, host: u32, t: SimTime) -> f64 {
        self.faults
            .iter()
            .find_map(|f| match f {
                Fault::Straggler {
                    host: h,
                    window,
                    slowdown_factor,
                } if *h == host && window.contains(t) => Some(*slowdown_factor),
                _ => None,
            })
            .unwrap_or(1.0)
    }

    /// When (if ever) the rank crashes.
    #[inline]
    pub fn crash_time(&self, rank: u32) -> Option<SimTime> {
        self.faults.iter().find_map(|f| match f {
            Fault::RankCrash { rank: r, at } if *r == rank => Some(*at),
            _ => None,
        })
    }
}

/// Draws a window inside `[0, horizon)`: a uniform start, then a
/// duration between 2% and 20% of the horizon, clipped at the end.
fn draw_window(rng: &mut SplitMix64, horizon_ns: u64) -> FaultWindow {
    let start = rng.gen_range(horizon_ns);
    let lo = horizon_ns / 50 + 1;
    let hi = horizon_ns / 5 + 2;
    let duration = rng.gen_range_in(lo, hi);
    FaultWindow {
        start: SimTime::from_nanos(start),
        end: SimTime::from_nanos(start.saturating_add(duration).min(horizon_ns)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn topo() -> Topology {
        Topology {
            links: 80,
            switches: 4,
            hosts: 40,
            ranks: 80,
        }
    }

    #[test]
    fn zero_config_draws_nothing() {
        let plan = FaultPlan::generate(123, &FaultConfig::none(), &topo());
        assert!(plan.is_empty());
        assert_eq!(plan.seed(), 123);
    }

    #[test]
    fn generation_is_a_pure_function() {
        let a = FaultPlan::generate(77, &FaultConfig::light(), &topo());
        let b = FaultPlan::generate(77, &FaultConfig::light(), &topo());
        assert_eq!(a, b);
        let c = FaultPlan::generate(78, &FaultConfig::light(), &topo());
        assert_ne!(a, c, "different seeds should differ for this size");
    }

    #[test]
    fn light_config_schedules_each_category_somewhere() {
        // Over many seeds every category must appear: probabilities are
        // small but the element counts amortise them.
        let mut seen = [false; 5];
        for seed in 0..40u64 {
            let plan = FaultPlan::generate(seed, &FaultConfig::light(), &topo());
            for f in plan.faults() {
                let slot = match f {
                    Fault::LinkDown { .. } => 0,
                    Fault::LinkDegrade { .. } => 1,
                    Fault::SwitchDrop { .. } => 2,
                    Fault::Straggler { .. } => 3,
                    Fault::RankCrash { .. } => 4,
                };
                seen[slot] = true;
            }
        }
        assert_eq!(seen, [true; 5], "some category never fired in 40 seeds");
    }

    #[test]
    fn rank_zero_never_crashes() {
        let cfg = FaultConfig {
            rank_crash_probability: 1.0,
            ..FaultConfig::none()
        };
        for seed in 0..20u64 {
            let plan = FaultPlan::generate(seed, &cfg, &topo());
            assert!(plan.crash_time(0).is_none());
            assert!(plan.crash_time(1).is_some());
        }
    }

    #[test]
    fn queries_respect_windows() {
        let w = FaultWindow {
            start: SimTime::from_millis(5),
            end: SimTime::from_millis(9),
        };
        let plan = FaultPlan::from_faults(
            0,
            vec![
                Fault::LinkDown { link: 3, window: w },
                Fault::LinkDegrade {
                    link: 4,
                    window: w,
                    bandwidth_factor: 0.25,
                },
                Fault::SwitchDrop {
                    switch: 1,
                    window: w,
                    drop_probability: 0.5,
                },
                Fault::Straggler {
                    host: 2,
                    window: w,
                    slowdown_factor: 3.0,
                },
                Fault::RankCrash {
                    rank: 7,
                    at: SimTime::from_millis(6),
                },
            ],
        );
        let inside = SimTime::from_millis(6);
        let outside = SimTime::from_millis(10);
        assert_eq!(plan.link_blocked_until(3, inside), Some(w.end));
        assert_eq!(plan.link_blocked_until(3, outside), None);
        assert_eq!(plan.link_blocked_until(4, inside), None, "wrong link");
        assert_eq!(plan.link_degrade_factor(4, inside), 0.25);
        assert_eq!(plan.link_degrade_factor(4, outside), 1.0);
        assert_eq!(plan.switch_drop_probability(1, inside), 0.5);
        assert_eq!(plan.switch_drop_probability(0, inside), 0.0);
        assert_eq!(plan.straggler_factor(2, inside), 3.0);
        assert_eq!(plan.straggler_factor(2, outside), 1.0);
        assert_eq!(plan.crash_time(7), Some(SimTime::from_millis(6)));
        assert_eq!(plan.crash_time(8), None);
    }

    #[test]
    fn categories_use_independent_streams() {
        // Turning stragglers on must not change which links go down.
        let only_links = FaultConfig {
            link_down_probability: 0.3,
            ..FaultConfig::none()
        };
        let links_and_stragglers = FaultConfig {
            straggler_probability: 0.3,
            ..only_links
        };
        let a = FaultPlan::generate(5, &only_links, &topo());
        let b = FaultPlan::generate(5, &links_and_stragglers, &topo());
        let downs = |p: &FaultPlan| {
            p.faults()
                .iter()
                .filter(|f| matches!(f, Fault::LinkDown { .. }))
                .copied()
                .collect::<Vec<_>>()
        };
        assert_eq!(downs(&a), downs(&b));
    }
}
