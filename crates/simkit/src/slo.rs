//! Sim-time SLO watchdogs: a deterministic rule engine over fleet
//! telemetry.
//!
//! The fleet sampler tick feeds one [`SloInput`] per interval to an
//! [`SloEngine`]; each rule tracks its own state (rates need a previous
//! observation, stall detection needs a run of unchanged progress) and
//! fires *edge* events — an [`Alert`] when a condition becomes true and
//! another when it clears — rather than re-alerting every tick. Because
//! inputs are derived from sim-state at sim-timestamps and every
//! threshold comparison is pure, two same-seed runs produce identical
//! alert streams.
//!
//! The four rules mirror the operational questions the paper's agility
//! claim raises at fleet scale:
//!
//! - **retransmit-storm** — fleet-wide AoE retransmits/sec above a
//!   threshold for [`SloConfig::storm_ticks`] consecutive intervals:
//!   the symptom of an overdriven fabric or a server that stopped
//!   answering. Healthy fleets burst past the rate during admission
//!   waves; only a *sustained* elevation raises.
//! - **cache-collapse** — server-side cache hit ratio below a floor
//!   after warmup: deployment traffic has outrun the cache.
//! - **stalled-member** — no deployment progress anywhere for K
//!   consecutive intervals while machines remain unbooted.
//! - **boot-budget** — the projected p99 boot time exceeds the budget:
//!   the tail claim is failing *while the run is still going*.
//!
//! # Examples
//!
//! ```
//! use simkit::slo::{SloConfig, SloEngine, SloInput, SloRule};
//! use simkit::{SimDuration, SimTime};
//!
//! let cfg = SloConfig { storm_ticks: 2, ..SloConfig::default() };
//! let mut slo = SloEngine::new(cfg);
//! let quiet = SloInput {
//!     at: SimTime::from_secs(1),
//!     retransmits_total: 0,
//!     cache_hits: 0,
//!     cache_misses: 0,
//!     fill_progress: 1.0,
//!     machines_booted: 0,
//!     machines_total: 4,
//!     projected_p99_s: 0.0,
//! };
//! assert!(slo.evaluate(&quiet).is_empty());
//! // One elevated interval is a burst, not a storm ...
//! let stormy = SloInput {
//!     at: SimTime::from_secs(2),
//!     retransmits_total: 1_000_000,
//!     ..quiet
//! };
//! assert!(slo.evaluate(&stormy).is_empty());
//! // ... the second consecutive one raises.
//! let still_stormy = SloInput {
//!     at: SimTime::from_secs(3),
//!     retransmits_total: 2_000_000,
//!     ..quiet
//! };
//! let edges = slo.evaluate(&still_stormy);
//! assert_eq!(edges.len(), 1);
//! assert_eq!(edges[0].rule, SloRule::RetransmitStorm);
//! assert!(edges[0].raised);
//! ```

use crate::time::{SimDuration, SimTime};

/// The four watchdog rules, in canonical evaluation (and reporting)
/// order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SloRule {
    /// Fleet-wide retransmits/sec above threshold.
    RetransmitStorm,
    /// Server cache hit ratio below floor after warmup.
    CacheCollapse,
    /// No deployment progress for K consecutive intervals.
    StalledMember,
    /// Projected p99 boot time over budget.
    BootBudget,
}

/// All rules in canonical order — the order alerts are evaluated and
/// reported in within one tick.
pub const ALL_RULES: [SloRule; 4] = [
    SloRule::RetransmitStorm,
    SloRule::CacheCollapse,
    SloRule::StalledMember,
    SloRule::BootBudget,
];

impl SloRule {
    /// Stable machine-readable rule name (used in exports and traces).
    pub fn name(&self) -> &'static str {
        match self {
            SloRule::RetransmitStorm => "retransmit-storm",
            SloRule::CacheCollapse => "cache-collapse",
            SloRule::StalledMember => "stalled-member",
            SloRule::BootBudget => "boot-budget",
        }
    }

    fn index(&self) -> usize {
        ALL_RULES.iter().position(|r| r == self).unwrap()
    }
}

/// Thresholds for the watchdog rules.
#[derive(Debug, Clone)]
pub struct SloConfig {
    /// Retransmits/sec (fleet-wide, over the last sampler interval)
    /// above which an interval counts as elevated.
    pub retransmit_storm_per_sec: f64,
    /// Consecutive elevated intervals before the storm rule raises.
    /// Healthy fleets burst past the rate threshold during admission
    /// waves; a storm is a rate that *stays* elevated (a reply backlog
    /// feeding retransmissions feeding the backlog).
    pub storm_ticks: u32,
    /// Hit-ratio floor for the server cache (0..1).
    pub cache_hit_floor: f64,
    /// Sampler ticks to ignore the cache rule for while it warms up.
    pub cache_warmup_ticks: u64,
    /// Consecutive no-progress ticks before stalled-member raises.
    pub stall_ticks: u32,
    /// Boot-time budget the projected p99 is held against.
    pub boot_budget: SimDuration,
}

impl Default for SloConfig {
    fn default() -> Self {
        SloConfig {
            retransmit_storm_per_sec: 50.0,
            storm_ticks: 40,
            cache_hit_floor: 0.05,
            cache_warmup_ticks: 20,
            stall_ticks: 10,
            boot_budget: SimDuration::from_secs(600),
        }
    }
}

/// One tick's worth of fleet telemetry, as read by the fleet sampler.
#[derive(Debug, Clone, Copy)]
pub struct SloInput {
    /// Sim-time of this evaluation (the sampler tick).
    pub at: SimTime,
    /// Cumulative AoE client retransmits across all members.
    pub retransmits_total: u64,
    /// Cumulative server cache hits (all server nodes).
    pub cache_hits: u64,
    /// Cumulative server cache misses (all server nodes).
    pub cache_misses: u64,
    /// A monotone progress scalar: any deployment progress anywhere
    /// must change it (e.g. summed fill fractions plus booted count).
    pub fill_progress: f64,
    /// Members that have finished booting.
    pub machines_booted: u64,
    /// Total members in the run.
    pub machines_total: u64,
    /// Projected p99 boot time in seconds (0.0 when nothing booted
    /// yet and nothing is in flight).
    pub projected_p99_s: f64,
}

/// One edge event: a rule raised or cleared at a sim-instant.
#[derive(Debug, Clone, PartialEq)]
pub struct Alert {
    /// When the edge fired (the evaluating sampler tick).
    pub at: SimTime,
    /// Which rule changed state.
    pub rule: SloRule,
    /// `true` for a raise edge, `false` for a clear edge.
    pub raised: bool,
    /// Deterministically formatted measurement that caused the edge.
    pub detail: String,
}

/// The watchdog evaluator: feed it one [`SloInput`] per sampler tick.
#[derive(Debug)]
pub struct SloEngine {
    cfg: SloConfig,
    ticks: u64,
    last: Option<SloInput>,
    storm_run: u32,
    stall_run: u32,
    active: [bool; 4],
    alerts: Vec<Alert>,
}

impl SloEngine {
    /// A fresh engine with no history: the first tick can only observe,
    /// never fire a rate-based rule.
    pub fn new(cfg: SloConfig) -> SloEngine {
        SloEngine {
            cfg,
            ticks: 0,
            last: None,
            storm_run: 0,
            stall_run: 0,
            active: [false; 4],
            alerts: Vec::new(),
        }
    }

    /// The configured thresholds.
    pub fn config(&self) -> &SloConfig {
        &self.cfg
    }

    /// Evaluates all rules against one tick of telemetry, returning the
    /// edge events this tick produced (also appended to
    /// [`SloEngine::alerts`]). Deterministic: same input sequence, same
    /// alert sequence.
    pub fn evaluate(&mut self, input: &SloInput) -> Vec<Alert> {
        self.ticks += 1;

        // retransmit-storm: rate over the window since the previous
        // tick, sustained for `storm_ticks` consecutive intervals.
        let (storm, storm_detail) = match &self.last {
            Some(prev) if input.at > prev.at => {
                let secs = (input.at - prev.at).as_secs_f64();
                let rate =
                    input.retransmits_total.saturating_sub(prev.retransmits_total) as f64 / secs;
                if rate > self.cfg.retransmit_storm_per_sec {
                    self.storm_run = self.storm_run.saturating_add(1);
                } else {
                    self.storm_run = 0;
                }
                (
                    self.storm_run >= self.cfg.storm_ticks,
                    format!(
                        "{rate:.3}/s > {:.3}/s for {} ticks",
                        self.cfg.retransmit_storm_per_sec, self.storm_run
                    ),
                )
            }
            _ => (false, String::new()),
        };

        // cache-collapse: hit ratio under the floor, after warmup and
        // only once the cache has seen traffic.
        let lookups = input.cache_hits + input.cache_misses;
        let ratio = if lookups > 0 {
            input.cache_hits as f64 / lookups as f64
        } else {
            1.0
        };
        let collapse = self.ticks > self.cfg.cache_warmup_ticks
            && lookups > 0
            && ratio < self.cfg.cache_hit_floor;
        let collapse_detail = format!("hit_ratio {ratio:.4} < {:.4}", self.cfg.cache_hit_floor);

        // stalled-member: progress scalar unchanged for K ticks while
        // members remain unbooted.
        let unfinished = input.machines_booted < input.machines_total;
        match &self.last {
            Some(prev) if unfinished && input.fill_progress == prev.fill_progress => {
                self.stall_run += 1;
            }
            _ => self.stall_run = 0,
        }
        let stalled = unfinished && self.stall_run >= self.cfg.stall_ticks;
        let stalled_detail = format!(
            "no progress for {} ticks ({}/{} booted)",
            self.stall_run, input.machines_booted, input.machines_total
        );

        // boot-budget: projected p99 over budget.
        let budget_s = self.cfg.boot_budget.as_secs_f64();
        let over_budget = input.projected_p99_s > 0.0 && input.projected_p99_s > budget_s;
        let budget_detail = format!(
            "projected p99 {:.3}s > budget {budget_s:.3}s",
            input.projected_p99_s
        );

        let mut edges = Vec::new();
        let conditions = [
            (SloRule::RetransmitStorm, storm, storm_detail),
            (SloRule::CacheCollapse, collapse, collapse_detail),
            (SloRule::StalledMember, stalled, stalled_detail),
            (SloRule::BootBudget, over_budget, budget_detail),
        ];
        for (rule, cond, detail) in conditions {
            let idx = rule.index();
            if cond != self.active[idx] {
                self.active[idx] = cond;
                edges.push(Alert {
                    at: input.at,
                    rule,
                    raised: cond,
                    detail,
                });
            }
        }
        self.alerts.extend(edges.iter().cloned());
        self.last = Some(*input);
        edges
    }

    /// All edge events so far, in firing order.
    pub fn alerts(&self) -> &[Alert] {
        &self.alerts
    }

    /// Rules currently in the raised state.
    pub fn active_count(&self) -> u64 {
        self.active.iter().filter(|a| **a).count() as u64
    }

    /// Whether `rule` is currently raised.
    pub fn is_active(&self, rule: SloRule) -> bool {
        self.active[rule.index()]
    }

    /// Total raise edges seen for `rule` across the run.
    pub fn raise_count(&self, rule: SloRule) -> u64 {
        self.alerts
            .iter()
            .filter(|a| a.rule == rule && a.raised)
            .count() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quiet(at_s: u64) -> SloInput {
        SloInput {
            at: SimTime::from_secs(at_s),
            retransmits_total: 0,
            cache_hits: 100,
            cache_misses: 0,
            fill_progress: at_s as f64,
            machines_booted: 0,
            machines_total: 4,
            projected_p99_s: 1.0,
        }
    }

    #[test]
    fn quiet_run_fires_nothing() {
        let mut slo = SloEngine::new(SloConfig::default());
        for s in 1..=100 {
            assert!(slo.evaluate(&quiet(s)).is_empty(), "tick {s}");
        }
        assert_eq!(slo.active_count(), 0);
        assert!(slo.alerts().is_empty());
    }

    #[test]
    fn storm_raises_once_sustained_then_clears() {
        let cfg = SloConfig {
            storm_ticks: 3,
            ..SloConfig::default()
        };
        let mut slo = SloEngine::new(cfg);
        slo.evaluate(&quiet(1));
        // Elevated rate every tick: silent until the 3rd consecutive one.
        for (i, s) in (2..=4).enumerate() {
            let mut stormy = quiet(s);
            stormy.retransmits_total = 10_000 * s;
            let edges = slo.evaluate(&stormy);
            if s < 4 {
                assert!(edges.is_empty(), "tick {s}: burst too short");
            } else {
                assert_eq!(edges.len(), 1, "tick {s} (elevated #{})", i + 1);
                assert_eq!(edges[0].rule, SloRule::RetransmitStorm);
                assert!(edges[0].raised);
                assert!(edges[0].detail.contains("for 3 ticks"), "{}", edges[0].detail);
            }
        }
        assert!(slo.is_active(SloRule::RetransmitStorm));

        // Same cumulative count next tick: rate back to zero → clear edge.
        let mut calm = quiet(5);
        calm.retransmits_total = 40_000;
        let edges = slo.evaluate(&calm);
        assert_eq!(edges.len(), 1);
        assert!(!edges[0].raised);
        assert_eq!(slo.raise_count(SloRule::RetransmitStorm), 1);
        assert_eq!(slo.alerts().len(), 2);
    }

    #[test]
    fn admission_wave_burst_shorter_than_storm_ticks_is_silent() {
        let cfg = SloConfig {
            storm_ticks: 5,
            ..SloConfig::default()
        };
        let mut slo = SloEngine::new(cfg);
        let mut total = 0u64;
        for s in 1..=20 {
            let mut tick = quiet(s);
            // Four-tick bursts separated by calm ticks never reach the
            // five sustained intervals a storm requires.
            if s % 5 != 0 {
                total += 1000;
            }
            tick.retransmits_total = total;
            assert!(slo.evaluate(&tick).is_empty(), "tick {s}");
        }
        assert_eq!(slo.raise_count(SloRule::RetransmitStorm), 0);
    }

    #[test]
    fn first_tick_cannot_fire_rate_rules() {
        let mut slo = SloEngine::new(SloConfig::default());
        let mut first = quiet(1);
        first.retransmits_total = 1_000_000;
        assert!(
            slo.evaluate(&first).is_empty(),
            "no previous tick, no rate"
        );
    }

    #[test]
    fn cache_collapse_respects_warmup() {
        let cfg = SloConfig {
            cache_warmup_ticks: 3,
            ..SloConfig::default()
        };
        let mut slo = SloEngine::new(cfg);
        for s in 1..=3 {
            let mut cold = quiet(s);
            cold.cache_hits = 0;
            cold.cache_misses = 1000;
            assert!(slo.evaluate(&cold).is_empty(), "warmup tick {s}");
        }
        let mut cold = quiet(4);
        cold.cache_hits = 0;
        cold.cache_misses = 1000;
        let edges = slo.evaluate(&cold);
        assert_eq!(edges.len(), 1);
        assert_eq!(edges[0].rule, SloRule::CacheCollapse);
    }

    #[test]
    fn stall_needs_k_consecutive_flat_ticks() {
        let cfg = SloConfig {
            stall_ticks: 3,
            ..SloConfig::default()
        };
        let mut slo = SloEngine::new(cfg);
        let mut flat = quiet(1);
        flat.fill_progress = 5.0;
        slo.evaluate(&flat);
        for s in 2..=3 {
            flat.at = SimTime::from_secs(s);
            assert!(slo.evaluate(&flat).is_empty(), "run too short at {s}");
        }
        flat.at = SimTime::from_secs(4);
        let edges = slo.evaluate(&flat);
        assert_eq!(edges.len(), 1);
        assert_eq!(edges[0].rule, SloRule::StalledMember);

        // Progress resumes: the run resets and the alert clears.
        flat.at = SimTime::from_secs(5);
        flat.fill_progress = 6.0;
        let edges = slo.evaluate(&flat);
        assert_eq!(edges.len(), 1);
        assert!(!edges[0].raised);
    }

    #[test]
    fn booted_fleet_never_stalls() {
        let cfg = SloConfig {
            stall_ticks: 1,
            ..SloConfig::default()
        };
        let mut slo = SloEngine::new(cfg);
        for s in 1..=10 {
            let mut done = quiet(s);
            done.fill_progress = 100.0;
            done.machines_booted = 4;
            assert!(slo.evaluate(&done).is_empty(), "tick {s}");
        }
    }

    #[test]
    fn boot_budget_fires_on_projection() {
        let cfg = SloConfig {
            boot_budget: SimDuration::from_secs(10),
            ..SloConfig::default()
        };
        let mut slo = SloEngine::new(cfg);
        let mut slow = quiet(1);
        slow.projected_p99_s = 30.0;
        let edges = slo.evaluate(&slow);
        assert_eq!(edges.len(), 1);
        assert_eq!(edges[0].rule, SloRule::BootBudget);
        assert!(edges[0].detail.contains("30.000"), "{}", edges[0].detail);
    }

    #[test]
    fn identical_input_sequences_give_identical_alerts() {
        let run = |spike_at: u64| {
            let cfg = SloConfig {
                storm_ticks: 3,
                ..SloConfig::default()
            };
            let mut slo = SloEngine::new(cfg);
            for s in 1..=20 {
                let mut i = quiet(s);
                if s >= spike_at {
                    i.retransmits_total = s * 5_000;
                }
                slo.evaluate(&i);
            }
            slo.alerts().to_vec()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(9), "different stimulus, different stream");
    }
}
