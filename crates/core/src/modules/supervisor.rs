//! The module supervisor: panic isolation, watchdog budgets, crash-loop
//! quarantine, and overload shedding for the detection pipeline.
//!
//! Kalis is "security-in-a-box": the node must keep watching the network
//! even when one detection technique crashes on hostile input, wedges on
//! a pathological slow path, or the capture interface bursts past what
//! the pipeline can sustain. The supervisor mirrors the peer-health
//! design of the collective-sync layer: a per-module
//! `Healthy → Degraded → Quarantined` state machine driven by caught
//! panics and watchdog-budget overruns, with exponential backoff before
//! a quarantined module is re-probed, plus an overload controller that
//! sheds work in priority order (heavyweight anomaly modules first,
//! pinned signature modules never).
//!
//! This file holds only the *policy* — pure state machines with no
//! telemetry or I/O — so it is trivially unit-testable. The
//! [`ModuleManager`](super::ModuleManager) applies the verdicts and
//! journals the evidence.

use core::time::Duration;

use kalis_packets::Timestamp;

use crate::knowledge::capped_doubling;

/// Consecutive budget overruns before a module is quarantined.
pub(crate) const OVERRUN_LIMIT: u32 = 8;
/// First quarantine backoff; doubles on every re-quarantine.
pub(crate) const BACKOFF_BASE: Duration = Duration::from_secs(5);
/// Upper bound on the exponential quarantine backoff.
pub(crate) const BACKOFF_MAX: Duration = Duration::from_secs(300);
/// Clean dispatches a `Degraded` module needs to heal to `Healthy`.
pub(crate) const HEAL_STREAK: u32 = 64;
/// Shedding keeps one dispatch in `SHED_SAMPLE` for affected modules
/// (the rest are skipped and counted).
pub(crate) const SHED_SAMPLE: u64 = 4;

/// Tuning knobs for the supervisor, one per configuration-language key:
/// `Supervisor.PanicLimit`, `Supervisor.BudgetMs` and
/// `Supervisor.BurstPps`. A node takes them from its config and
/// `recommend_config()` writes them back.
#[derive(Debug, Clone, PartialEq, Eq)]
// kalis-lint: allow(KL306): named by the `pub` signature of `ModuleManager::supervisor_config`
pub struct SupervisorConfig {
    /// Panics a module may accumulate before it is quarantined.
    pub(crate) panic_limit: u32,
    /// Per-dispatch wall-clock budget. `None` disables the watchdog
    /// (the default: wall-clock measurement is nondeterministic, so it
    /// is opt-in via `Supervisor.BudgetMs`).
    pub budget: Option<Duration>,
    /// Sustained ingest rate (packets per second) the pipeline accepts
    /// before the overload controller starts shedding.
    pub(crate) burst_pps: u64,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            panic_limit: 3,
            budget: None,
            burst_pps: 5_000,
        }
    }
}

/// A module's supervision state (mirrors the sync layer's peer health).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModuleHealth {
    /// Operating normally.
    Healthy,
    /// Has panicked or blown its budget recently, or is on probation
    /// after quarantine; still dispatched, one eye on the door.
    Degraded,
    /// Excluded from dispatch and `recommend_config()` until the
    /// backoff expires.
    Quarantined,
}

impl ModuleHealth {
    /// Stable label for journals and gauges.
    pub fn label(self) -> &'static str {
        match self {
            ModuleHealth::Healthy => "healthy",
            ModuleHealth::Degraded => "degraded",
            ModuleHealth::Quarantined => "quarantined",
        }
    }
}

/// What the state machine decided after an observation; the manager
/// turns these into journal events and counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum SupervisorVerdict {
    /// No health transition.
    Unchanged,
    /// First strike: the module moved to `Degraded`.
    Degraded,
    /// The module exhausted its allowance and is quarantined until the
    /// embedded deadline.
    Quarantined {
        /// When the module may be re-probed.
        until: Timestamp,
        /// The backoff that was applied.
        backoff: Duration,
    },
}

/// Per-module supervision bookkeeping, owned by the manager's slot.
#[derive(Debug, Clone)]
pub(crate) struct Supervision {
    health: ModuleHealth,
    /// Panics since the module last healed (or since probation began).
    panics: u32,
    /// Consecutive budget overruns; any clean dispatch resets it.
    overruns: u32,
    /// Clean dispatches since the last strike.
    clean_streak: u32,
    /// Lifetime quarantine count; drives the exponential backoff.
    quarantines: u32,
    quarantine_until: Timestamp,
}

impl Default for Supervision {
    fn default() -> Self {
        Supervision {
            health: ModuleHealth::Healthy,
            panics: 0,
            overruns: 0,
            clean_streak: 0,
            quarantines: 0,
            quarantine_until: Timestamp::ZERO,
        }
    }
}

impl Supervision {
    /// Current health.
    pub fn health(&self) -> ModuleHealth {
        self.health
    }

    /// Whether dispatch must skip this module right now.
    pub(crate) fn is_quarantined(&self) -> bool {
        self.health == ModuleHealth::Quarantined
    }

    /// When the current quarantine expires (meaningful only while
    /// quarantined).
    #[cfg(test)]
    pub(crate) fn quarantined_until(&self) -> Timestamp {
        self.quarantine_until
    }

    fn quarantine(&mut self, now: Timestamp) -> SupervisorVerdict {
        // The first quarantine gets the base backoff.
        self.quarantines += 1;
        let backoff = capped_doubling(BACKOFF_BASE, self.quarantines, BACKOFF_MAX);
        self.health = ModuleHealth::Quarantined;
        self.quarantine_until = now + backoff;
        self.clean_streak = 0;
        SupervisorVerdict::Quarantined {
            until: self.quarantine_until,
            backoff,
        }
    }

    /// A panic unwound out of the module.
    pub(crate) fn note_panic(
        &mut self,
        now: Timestamp,
        cfg: &SupervisorConfig,
    ) -> SupervisorVerdict {
        self.panics += 1;
        self.clean_streak = 0;
        if self.panics >= cfg.panic_limit.max(1) {
            self.quarantine(now)
        } else if self.health == ModuleHealth::Healthy {
            self.health = ModuleHealth::Degraded;
            SupervisorVerdict::Degraded
        } else {
            SupervisorVerdict::Unchanged
        }
    }

    /// A dispatch exceeded the configured watchdog budget.
    pub(crate) fn note_overrun(&mut self, now: Timestamp) -> SupervisorVerdict {
        self.overruns += 1;
        self.clean_streak = 0;
        if self.overruns >= OVERRUN_LIMIT {
            self.overruns = 0;
            self.quarantine(now)
        } else if self.health == ModuleHealth::Healthy {
            self.health = ModuleHealth::Degraded;
            SupervisorVerdict::Degraded
        } else {
            SupervisorVerdict::Unchanged
        }
    }

    /// A dispatch completed within budget and without panicking. A
    /// `Degraded` module heals back to `Healthy` after a sustained
    /// clean streak.
    pub(crate) fn note_clean(&mut self) {
        self.overruns = 0;
        self.clean_streak = self.clean_streak.saturating_add(1);
        if self.health == ModuleHealth::Degraded && self.clean_streak >= HEAL_STREAK {
            self.health = ModuleHealth::Healthy;
            self.panics = 0;
        }
    }

    /// If the quarantine backoff has expired, release the module on
    /// probation: it re-enters dispatch `Degraded` with one remaining
    /// strike, so a recurring crash re-quarantines immediately with a
    /// doubled backoff. Returns `true` when released.
    pub(crate) fn try_release(&mut self, now: Timestamp, cfg: &SupervisorConfig) -> bool {
        if self.health == ModuleHealth::Quarantined && now >= self.quarantine_until {
            self.health = ModuleHealth::Degraded;
            self.panics = cfg.panic_limit.max(1) - 1;
            self.overruns = OVERRUN_LIMIT - 1;
            self.clean_streak = 0;
            true
        } else {
            false
        }
    }
}

/// How much of the pipeline the overload controller is currently
/// shedding.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord)]
pub enum ShedMode {
    /// Normal operation: every active module sees every packet.
    #[default]
    None,
    /// Sustained overload: heavyweight, unpinned detection modules see
    /// sampled dispatch.
    Heavy,
    /// Severe overload (≥ 2× capacity): every unpinned detection module
    /// is sampled; heavyweight ones more aggressively. Sensing and
    /// pinned signature modules still see every packet.
    All,
}

/// Sliding-window arrival-rate controller over the capture clock.
///
/// The simulator drains every packet synchronously, so a literal bounded
/// queue would never fill; instead overload is defined by the *arrival
/// rate* observed over the last second of capture time, with hysteresis
/// (engage above `burst_pps`, escalate at 2×, release below ¾×) so the
/// mode doesn't flap at the boundary.
#[derive(Debug, Default)]
pub struct OverloadController {
    arrivals: std::collections::VecDeque<Timestamp>,
    mode: ShedMode,
    /// Dispatches sampled away during the current shedding episode.
    pub(crate) episode_skipped: u64,
}

impl OverloadController {
    /// Record one arrival and return the shed mode to apply to it.
    pub fn observe(&mut self, now: Timestamp, cfg: &SupervisorConfig) -> ShedMode {
        let capacity = cfg.burst_pps.max(1);
        // Bound the window: beyond 3× capacity the rate is already
        // deep past the severe (2×) threshold, so older entries carry
        // no extra signal and the deque stays O(capacity).
        if self.arrivals.len() as u64 >= capacity.saturating_mul(3) {
            self.arrivals.pop_front();
        }
        self.arrivals.push_back(now);
        let cutoff = Timestamp::from_micros(now.as_micros().saturating_sub(1_000_000));
        while self.arrivals.front().is_some_and(|t| *t < cutoff) {
            self.arrivals.pop_front();
        }
        let rate = self.arrivals.len() as u64;
        self.mode = match self.mode {
            ShedMode::None if rate > capacity * 2 => ShedMode::All,
            ShedMode::None if rate > capacity => ShedMode::Heavy,
            ShedMode::Heavy if rate > capacity * 2 => ShedMode::All,
            ShedMode::Heavy if rate * 4 <= capacity * 3 => ShedMode::None,
            ShedMode::All if rate * 4 <= capacity * 3 => ShedMode::None,
            ShedMode::All if rate <= capacity => ShedMode::Heavy,
            other => other,
        };
        self.mode
    }

    /// The observed arrival rate (packets over the trailing second).
    pub fn rate(&self) -> u64 {
        self.arrivals.len() as u64
    }

    /// The mode decided by the last [`OverloadController::observe`].
    pub fn mode(&self) -> ShedMode {
        self.mode
    }

    /// Whether any shedding is in effect.
    pub(crate) fn shedding(&self) -> bool {
        self.mode != ShedMode::None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> SupervisorConfig {
        SupervisorConfig::default()
    }

    #[test]
    fn panics_degrade_then_quarantine() {
        let c = cfg();
        let mut s = Supervision::default();
        assert_eq!(s.health(), ModuleHealth::Healthy);
        assert_eq!(
            s.note_panic(Timestamp::from_secs(1), &c),
            SupervisorVerdict::Degraded
        );
        assert_eq!(
            s.note_panic(Timestamp::from_secs(2), &c),
            SupervisorVerdict::Unchanged
        );
        let v = s.note_panic(Timestamp::from_secs(3), &c);
        match v {
            SupervisorVerdict::Quarantined { until, backoff } => {
                assert_eq!(backoff, BACKOFF_BASE);
                assert_eq!(until, Timestamp::from_secs(3) + BACKOFF_BASE);
            }
            other => panic!("expected quarantine, got {other:?}"),
        }
        assert!(s.is_quarantined());
    }

    #[test]
    fn probation_requarantines_with_doubled_backoff() {
        let c = cfg();
        let mut s = Supervision::default();
        for i in 0..c.panic_limit {
            s.note_panic(Timestamp::from_secs(u64::from(i)), &c);
        }
        assert!(s.is_quarantined());
        let release_at = s.quarantined_until();
        let just_before = Timestamp::from_micros(release_at.as_micros() - 1_000);
        assert!(!s.try_release(just_before, &c));
        assert!(s.try_release(release_at, &c));
        assert_eq!(s.health(), ModuleHealth::Degraded, "probation is degraded");
        // One more strike immediately re-quarantines, backoff doubled.
        match s.note_panic(release_at + Duration::from_secs(1), &c) {
            SupervisorVerdict::Quarantined { backoff, .. } => {
                assert_eq!(backoff, BACKOFF_BASE * 2);
            }
            other => panic!("expected immediate re-quarantine, got {other:?}"),
        }
    }

    #[test]
    fn backoff_is_capped() {
        let c = cfg();
        let mut s = Supervision::default();
        let mut now = Timestamp::ZERO;
        let mut last_backoff = Duration::ZERO;
        for _ in 0..20 {
            loop {
                now += Duration::from_secs(1);
                if s.try_release(now, &c) {
                    break;
                }
                if !s.is_quarantined() {
                    break;
                }
            }
            match s.note_panic(now, &c) {
                SupervisorVerdict::Quarantined { backoff, .. } => last_backoff = backoff,
                SupervisorVerdict::Degraded | SupervisorVerdict::Unchanged => {}
            }
        }
        assert_eq!(last_backoff, BACKOFF_MAX, "backoff saturates at max");
    }

    #[test]
    fn overruns_quarantine_and_clean_dispatches_reset() {
        let mut s = Supervision::default();
        for _ in 0..OVERRUN_LIMIT - 1 {
            s.note_overrun(Timestamp::ZERO);
        }
        // A clean dispatch resets the consecutive-overrun count.
        s.note_clean();
        for _ in 0..OVERRUN_LIMIT - 1 {
            s.note_overrun(Timestamp::ZERO);
        }
        assert!(!s.is_quarantined(), "non-consecutive overruns don't flip");
        s.note_overrun(Timestamp::ZERO);
        assert!(s.is_quarantined(), "consecutive overruns at limit flip");
    }

    #[test]
    fn degraded_heals_after_clean_streak() {
        let c = cfg();
        let mut s = Supervision::default();
        s.note_panic(Timestamp::ZERO, &c);
        assert_eq!(s.health(), ModuleHealth::Degraded);
        for _ in 0..HEAL_STREAK {
            s.note_clean();
        }
        assert_eq!(s.health(), ModuleHealth::Healthy);
        // Healing also forgave the old panic.
        s.note_panic(Timestamp::ZERO, &c);
        s.note_panic(Timestamp::ZERO, &c);
        assert!(!s.is_quarantined(), "panic budget refilled by healing");
    }

    #[test]
    fn overload_controller_hysteresis() {
        let mut cfg = cfg();
        cfg.burst_pps = 10;
        let mut ctl = OverloadController::default();
        let mut now = Timestamp::from_secs(10);
        // 5 pps: calm.
        for _ in 0..10 {
            now += Duration::from_millis(200);
            assert_eq!(ctl.observe(now, &cfg), ShedMode::None);
        }
        // Burst at ~100 pps: escalates to All.
        for _ in 0..30 {
            now += Duration::from_millis(10);
            ctl.observe(now, &cfg);
        }
        assert_eq!(ctl.mode(), ShedMode::All);
        assert!(ctl.rate() > 20);
        // Rate falls back below ¾ capacity: released.
        for _ in 0..10 {
            now += Duration::from_millis(500);
            ctl.observe(now, &cfg);
        }
        assert_eq!(ctl.mode(), ShedMode::None);
        assert!(!ctl.shedding());
    }

    #[test]
    fn moderate_overload_sheds_heavy_only() {
        let mut cfg = cfg();
        cfg.burst_pps = 20;
        let mut ctl = OverloadController::default();
        let mut now = Timestamp::from_secs(10);
        // ~33 pps: above capacity, below 2×.
        for _ in 0..40 {
            now += Duration::from_millis(30);
            ctl.observe(now, &cfg);
        }
        assert_eq!(ctl.mode(), ShedMode::Heavy);
    }
}
