//! Fault-rate configuration and presets.

use mb_simcore::time::SimTime;

/// Per-element fault probabilities and the horizon within which fault
/// windows are scheduled.
///
/// Each probability is the chance that one addressable element (one
/// directed link, one switch, one host, one rank) receives one fault of
/// that kind somewhere inside the horizon. `Copy` so experiment configs
/// embedding it stay `Copy`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Chance a directed link gets an outage window.
    pub link_down_probability: f64,
    /// Chance a directed link gets a bandwidth-degradation window.
    pub link_degrade_probability: f64,
    /// Chance a switch gets a packet-drop window.
    pub switch_drop_probability: f64,
    /// Chance a host gets a straggler (compute-throttling) window.
    pub straggler_probability: f64,
    /// Chance a rank (other than rank 0) crashes.
    pub rank_crash_probability: f64,
    /// Simulated-time span fault windows are drawn from.
    pub horizon: SimTime,
}

impl FaultConfig {
    /// No faults at all: generates an empty plan, whose every query
    /// answers "healthy" — a run under it is the fault-free run.
    pub fn none() -> Self {
        FaultConfig {
            link_down_probability: 0.0,
            link_degrade_probability: 0.0,
            switch_drop_probability: 0.0,
            straggler_probability: 0.0,
            rank_crash_probability: 0.0,
            horizon: SimTime::from_secs(30),
        }
    }

    /// The flakiness of a commodity low-power cluster on a bad week:
    /// a few percent of elements misbehave, one rank in a hundred dies.
    pub fn light() -> Self {
        FaultConfig {
            link_down_probability: 0.02,
            link_degrade_probability: 0.05,
            switch_drop_probability: 0.25,
            straggler_probability: 0.05,
            rank_crash_probability: 0.01,
            horizon: SimTime::from_secs(30),
        }
    }

    /// [`FaultConfig::light`] with every probability multiplied by
    /// `rate` (clamped to `[0, 1]`) — the knob the `fault_ablation`
    /// bench sweeps. `scaled(0.0)` equals [`FaultConfig::none`]'s rates;
    /// `scaled(1.0)` equals [`FaultConfig::light`].
    pub fn scaled(rate: f64) -> Self {
        let base = FaultConfig::light();
        let s = |p: f64| (p * rate).clamp(0.0, 1.0);
        FaultConfig {
            link_down_probability: s(base.link_down_probability),
            link_degrade_probability: s(base.link_degrade_probability),
            switch_drop_probability: s(base.switch_drop_probability),
            straggler_probability: s(base.straggler_probability),
            rank_crash_probability: s(base.rank_crash_probability),
            horizon: base.horizon,
        }
    }

    /// True when every probability is exactly zero — generation will
    /// produce an empty plan without drawing a single random number.
    pub fn is_zero(&self) -> bool {
        self.link_down_probability == 0.0
            && self.link_degrade_probability == 0.0
            && self.switch_drop_probability == 0.0
            && self.straggler_probability == 0.0
            && self.rank_crash_probability == 0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_is_zero_light_is_not() {
        assert!(FaultConfig::none().is_zero());
        assert!(!FaultConfig::light().is_zero());
        assert!(FaultConfig::scaled(0.0).is_zero());
    }

    #[test]
    fn scaled_interpolates_and_clamps() {
        let half = FaultConfig::scaled(0.5);
        let light = FaultConfig::light();
        assert!((half.straggler_probability - light.straggler_probability / 2.0).abs() < 1e-12);
        let huge = FaultConfig::scaled(1e9);
        assert!(huge.switch_drop_probability <= 1.0);
        assert_eq!(FaultConfig::scaled(1.0), light);
    }
}
