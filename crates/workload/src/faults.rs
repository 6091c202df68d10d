//! Declarative failure injection: the disturbance half of the data
//! surface.
//!
//! A [`FaultPlan`] is pure data — it can be written in a scenario file's
//! `faults` block, carried in a trace header, or built programmatically —
//! and covers the degradation scenarios a production deployment must
//! survive: a hung controller daemon, lost statistics, a device slowdown,
//! a full OST crash/recovery window, and client-side process churn.
//!
//! All faults are deterministic (cycle-, time- or process-indexed), so a
//! faulty run is exactly as reproducible as a healthy one, and a trace
//! recorded under faults replays byte-identically (the plan rides in the
//! trace header).
//!
//! Every rule the two executors (`adaptbf-sim`, `adaptbf-runtime`) must
//! agree on for a live recording to replay byte-exactly is a pure function
//! here, defined once: crash-window membership ([`FaultPlan::crashed_at`]),
//! survivor routing ([`FaultPlan::route`]), the per-cycle control gate
//! ([`FaultPlan::cycle_gate`]), process placement ([`client_of`],
//! [`base_ost`], [`stripe_ost`]) and wiring validation ([`validate_wiring`]).

use adaptbf_model::{CycleGate, SimDuration, SimTime};
use rand::{rngs::SmallRng, Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// A deterministic fault schedule for one run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// The controller daemon hangs: every `period`-th control cycle, the
    /// next `duration` cycles are skipped outright (no collection, no
    /// allocation, no rule changes — stats keep accumulating, exactly like
    /// a stalled userspace daemon).
    pub controller_stall: Option<StallSpec>,
    /// `job_stats` reads fail every `n`-th cycle: the controller sees an
    /// empty active set and stops every rule, pushing traffic through the
    /// fallback path until the next healthy cycle.
    pub stats_loss_every: Option<u64>,
    /// The device degrades (e.g. SSD garbage collection): service times
    /// multiply by `factor` inside the window.
    pub disk_degrade: Option<DegradeSpec>,
    /// One OST crashes and later rejoins with empty bucket state. While it
    /// is down, its queued RPCs are resent to surviving stripe members
    /// after a client timeout and new arrivals re-route to a surviving
    /// stripe member immediately (or park until recovery if none exists).
    pub ost_crash: Option<CrashSpec>,
    /// Client-side process churn: processes leave (stop issuing) and
    /// rejoin mid-run on a rotating schedule, churning the active job set
    /// the controller allocates for.
    pub churn: Option<ChurnSpec>,
}

/// Periodic controller stall.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct StallSpec {
    /// A stall begins every `every` cycles (must be > duration).
    pub every: u64,
    /// Cycles skipped per stall.
    pub duration: u64,
}

/// A device slowdown window.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DegradeSpec {
    /// Window start.
    pub from: SimTime,
    /// Window length.
    pub for_: SimDuration,
    /// Service-time multiplier (> 1 slows the device).
    pub factor: f64,
}

/// An OST crash/recovery window.
///
/// At `from` the OST stops serving: its I/O threads die (RPCs in service
/// are lost and resent by their clients after `resend_after`), its
/// scheduler queues are drained and resent the same way, and new arrivals
/// re-route to the next surviving member of the issuing process's stripe
/// set (parking until recovery when none survives). At `from + for_` the
/// OST rejoins with empty token-bucket state (fresh scheduler; the
/// controller reinstalls rules on its next healthy cycle, static rules are
/// reinstalled at recovery).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CrashSpec {
    /// Index of the OST that crashes.
    pub ost: usize,
    /// Crash instant.
    pub from: SimTime,
    /// Outage length.
    pub for_: SimDuration,
    /// Client RPC timeout: how long after the loss an affected RPC is
    /// resent.
    pub resend_after: SimDuration,
}

impl CrashSpec {
    /// The instant the OST rejoins.
    pub fn recovery_at(&self) -> SimTime {
        self.from + self.for_
    }
}

/// Rotating process churn: time tiles into cycles of `every`; in cycle
/// `c`, every process `p` with `p % stride == c % stride` is offline for
/// the first `offline` of the cycle (it stops issuing new RPCs; work its
/// pattern releases queues up client-side and in-flight RPCs complete
/// normally). With `stride` s, each process sits out one cycle in `s`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChurnSpec {
    /// Cycle length (must be > offline).
    pub every: SimDuration,
    /// Offline span at the start of each cycle.
    pub offline: SimDuration,
    /// Rotation width: process `p` is offline in cycles `c` with
    /// `p % stride == c % stride` (must be >= 1).
    pub stride: usize,
}

/// Where an RPC addressed to `ost` lands ([`FaultPlan::route`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// The addressed OST is up: enqueue there.
    Local,
    /// The addressed OST is inside its crash window: this surviving OST
    /// takes the RPC over.
    Reroute(usize),
    /// Crashed with no survivor: hold the RPC until the OST rejoins.
    Park,
}

/// Why a `(wiring, fault plan)` pair cannot run ([`validate_wiring`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WiringError {
    /// Client/OST counts or the stripe width are inconsistent.
    Wiring(String),
    /// The plan fails [`FaultPlan::validate`] or targets an OST outside
    /// the wiring.
    Fault(String),
}

impl std::fmt::Display for WiringError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WiringError::Wiring(msg) => write!(f, "invalid wiring: {msg}"),
            WiringError::Fault(msg) => write!(f, "invalid fault plan: {msg}"),
        }
    }
}

impl std::error::Error for WiringError {}

/// Check a cluster wiring and the fault plan that runs on it: at least
/// one client and one OST, `stripe_count ∈ 1..=n_osts`, a valid plan, and
/// a crash target inside the wiring.
pub fn validate_wiring(
    n_clients: usize,
    n_osts: usize,
    stripe_count: usize,
    faults: &FaultPlan,
) -> Result<(), WiringError> {
    if n_clients == 0 || n_osts == 0 {
        return Err(WiringError::Wiring(
            "n_clients and n_osts must be positive".into(),
        ));
    }
    if stripe_count == 0 || stripe_count > n_osts {
        return Err(WiringError::Wiring(format!(
            "stripe_count must be in 1..={n_osts}, got {stripe_count}"
        )));
    }
    faults.validate().map_err(WiringError::Fault)?;
    match faults.ost_crash {
        Some(crash) if crash.ost >= n_osts => Err(WiringError::Fault(format!(
            "ost_crash.ost {} out of range (n_osts {n_osts})",
            crash.ost
        ))),
        _ => Ok(()),
    }
}

/// The client node process number `proc` (scenario declaration order)
/// runs on: file-per-process, round-robin over clients like the paper's
/// testbed.
#[inline]
pub fn client_of(proc: usize, n_clients: usize) -> usize {
    proc % n_clients
}

/// The first OST of process `proc`'s stripe set (round-robin over OSTs).
#[inline]
pub fn base_ost(proc: usize, n_osts: usize) -> usize {
    proc % n_osts
}

/// The `k`-th member of the stripe set based at OST `base`: a process's
/// sequential RPCs round-robin over `stripe_ost(base, 0..stripe_count)`.
#[inline]
pub fn stripe_ost(base: usize, k: usize, n_osts: usize) -> usize {
    (base + k) % n_osts
}

impl FaultPlan {
    /// A plan with no faults.
    pub fn none() -> Self {
        Self::default()
    }

    /// Whether `ost` is inside its crash window `[from, recovery_at)` at
    /// `at` — a pure function of the plan, so senders, receivers and both
    /// executors agree with no shared "crashed" flag.
    #[inline]
    pub fn crashed_at(&self, ost: usize, at: SimTime) -> bool {
        match self.ost_crash {
            Some(c) => c.ost == ost && at >= c.from && at < c.recovery_at(),
            None => false,
        }
    }

    /// Route an RPC of process `proc` addressed to `ost` at `at`.
    ///
    /// Inside the crash window the survivor is the next non-crashed member
    /// of the issuing process's *stripe set*, in stripe order after `ost`
    /// (Lustre clients redirect striped I/O once an OST is marked
    /// inactive). The set is derived from the process id exactly as
    /// [`base_ost`] assigns it, so record and replay agree without any
    /// client state. An RPC addressed outside its derivable stripe set
    /// (hand-authored traces) falls back to plain ring order over all
    /// OSTs; for fully-striped wirings both walks visit the same
    /// candidates in the same order. No survivor ⇒ [`Route::Park`].
    #[inline]
    pub fn route(
        &self,
        ost: usize,
        proc: usize,
        n_osts: usize,
        stripe_count: usize,
        at: SimTime,
    ) -> Route {
        if !self.crashed_at(ost, at) {
            return Route::Local;
        }
        let base = base_ost(proc, n_osts);
        let offset = (ost + n_osts - base) % n_osts;
        let alive = |candidate: &usize| !self.crashed_at(*candidate, at);
        let survivor = if offset < stripe_count {
            (1..stripe_count)
                .map(|k| stripe_ost(base, (offset + k) % stripe_count, n_osts))
                .find(alive)
        } else {
            (1..n_osts).map(|k| stripe_ost(ost, k, n_osts)).find(alive)
        };
        survivor.map_or(Route::Park, Route::Reroute)
    }

    /// The verdict on control cycle number `cycle` (0-based, counting
    /// skipped cycles too) of an OST that is `crashed` or not: a crashed
    /// OSS takes its controller down with it, a stalled daemon skips the
    /// whole cycle, a failed stats read blinds it.
    pub fn cycle_gate(&self, cycle: u64, crashed: bool) -> CycleGate {
        if crashed || self.cycle_stalled(cycle) {
            CycleGate::Skip
        } else if self.stats_lost(cycle) {
            CycleGate::StatsLost
        } else {
            CycleGate::Healthy
        }
    }

    /// Whether control cycle number `cycle` (0-based) is stalled.
    pub fn cycle_stalled(&self, cycle: u64) -> bool {
        match self.controller_stall {
            Some(StallSpec { every, duration }) => {
                assert!(every > duration, "stall period must exceed its duration");
                cycle % every >= every - duration
            }
            None => false,
        }
    }

    /// Whether cycle `cycle` loses its stats read.
    pub fn stats_lost(&self, cycle: u64) -> bool {
        match self.stats_loss_every {
            Some(n) if n > 0 => cycle % n == n - 1,
            _ => false,
        }
    }

    /// Service-time multiplier in force at `now`.
    pub fn disk_factor(&self, now: SimTime) -> f64 {
        match self.disk_degrade {
            Some(DegradeSpec { from, for_, factor }) if now >= from && now < from + for_ => factor,
            _ => 1.0,
        }
    }

    /// If process number `proc` is churned offline at `now`, the instant
    /// it rejoins; `None` while it is online.
    pub fn churn_offline_until(&self, proc: usize, now: SimTime) -> Option<SimTime> {
        let ChurnSpec {
            every,
            offline,
            stride,
        } = self.churn?;
        debug_assert!(!every.is_zero() && stride >= 1 && offline < every);
        let cycle = now.as_nanos() / every.as_nanos();
        if proc as u64 % stride as u64 != cycle % stride as u64 {
            return None;
        }
        let start = cycle * every.as_nanos();
        if now.as_nanos() - start < offline.as_nanos() {
            Some(SimTime(start + offline.as_nanos()))
        } else {
            None
        }
    }

    /// Whether the plan injects anything at all.
    pub fn is_none(&self) -> bool {
        self.controller_stall.is_none()
            && self.stats_loss_every.is_none()
            && self.disk_degrade.is_none()
            && self.ost_crash.is_none()
            && self.churn.is_none()
    }

    /// The hull of the plan's first disturbance windows `[from, until)`,
    /// clamped to `horizon` — the span `analysis::resilience` should score
    /// a run of this plan over.
    ///
    /// Per dimension: degrade contributes its window, a crash contributes
    /// `[from, recovery_at)`, churn its *second* cycle's offline span
    /// (cycle 0 starts at t = 0, before any baseline exists), a stall its
    /// first stalled cycles `[(every − duration)·period, every·period)`,
    /// and stats loss its first lost cycle. Returns `None` for a faultless
    /// plan or when the hull degenerates (e.g. it starts past the
    /// horizon); callers then fall back to conservation-only scoring.
    pub fn disturbance_window(
        &self,
        period: SimDuration,
        horizon: SimDuration,
    ) -> Option<(SimTime, SimTime)> {
        let mut from = u64::MAX;
        let mut until = 0u64;
        let mut add = |s: u64, e: u64| {
            from = from.min(s);
            until = until.max(e);
        };
        if let Some(StallSpec { every, duration }) = self.controller_stall {
            let p = period.as_nanos();
            add(every.saturating_sub(duration) * p, every * p);
        }
        if let Some(n) = self.stats_loss_every {
            let p = period.as_nanos();
            add(n.saturating_sub(1) * p, n * p);
        }
        if let Some(DegradeSpec { from: f, for_, .. }) = self.disk_degrade {
            add(f.as_nanos(), (f + for_).as_nanos());
        }
        if let Some(c) = self.ost_crash {
            add(c.from.as_nanos(), c.recovery_at().as_nanos());
        }
        if let Some(ChurnSpec { every, offline, .. }) = self.churn {
            add(every.as_nanos(), (every + offline).as_nanos());
        }
        if from == u64::MAX {
            return None;
        }
        let until = until.min(horizon.as_nanos());
        (from < until).then_some((SimTime(from), SimTime(until)))
    }

    /// Validate all parameters, returning a human-readable error for the
    /// scenario-file surface instead of panicking mid-run.
    pub fn validate(&self) -> Result<(), String> {
        if let Some(StallSpec { every, duration }) = self.controller_stall {
            if duration == 0 || every <= duration {
                return Err(format!(
                    "controller_stall: every ({every}) must exceed duration ({duration}) \
                     and duration must be positive"
                ));
            }
        }
        if let Some(n) = self.stats_loss_every {
            if n == 0 {
                return Err("stats_loss_every must be positive".into());
            }
        }
        if let Some(DegradeSpec { for_, factor, .. }) = self.disk_degrade {
            if for_.is_zero() {
                return Err("disk_degrade: window length must be positive".into());
            }
            if !(factor >= 1.0 && factor.is_finite()) {
                return Err(format!(
                    "disk_degrade: factor must be a finite value >= 1, got {factor}"
                ));
            }
        }
        if let Some(CrashSpec {
            for_, resend_after, ..
        }) = self.ost_crash
        {
            if for_.is_zero() {
                return Err("ost_crash: outage length must be positive".into());
            }
            if resend_after.is_zero() {
                return Err("ost_crash: resend_after must be positive".into());
            }
        }
        if let Some(ChurnSpec {
            every,
            offline,
            stride,
        }) = self.churn
        {
            if stride == 0 {
                return Err("churn: stride must be >= 1".into());
            }
            if offline.is_zero() || offline >= every {
                return Err(format!(
                    "churn: offline ({offline}) must be positive and shorter than every ({every})"
                ));
            }
        }
        Ok(())
    }
}

/// Declared sampling bounds for randomized fault plans — the chaos lab's
/// search space.
///
/// A [`PlanBounds`] pins the run horizon and wiring limits; `sample` then
/// draws fault plans whose windows land inside the horizon early enough
/// that recovery is observable before the run ends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanBounds {
    /// Run horizon the sampled windows must land inside.
    pub horizon: SimDuration,
    /// OST count of the target wiring. Crashes pick `ost < n_osts` and are
    /// only sampled when at least two OSTs exist — with a single OST a
    /// crash parks everything and measures nothing.
    pub n_osts: usize,
    /// Upper bound (inclusive) on the churn rotation stride.
    pub max_stride: usize,
}

impl PlanBounds {
    /// Bounds for a run of `horizon` on `n_osts` OSTs, with the default
    /// stride cap.
    pub fn new(horizon: SimDuration, n_osts: usize) -> Self {
        PlanBounds {
            horizon,
            n_osts,
            max_stride: 4,
        }
    }

    /// Sample one fault plan uniformly within the bounds.
    ///
    /// Each fault dimension is present with probability ~1/2, resampling
    /// until at least one is. All instants and spans land on whole
    /// milliseconds — together with the shortest-round-trip number
    /// rendering of the scenario DSL this makes every sampled plan
    /// round-trip *byte-identically* through the scenario-file `faults`
    /// block. The result always passes [`FaultPlan::validate`].
    pub fn sample<R: Rng>(&self, rng: &mut R) -> FaultPlan {
        let horizon_ms = self.horizon.as_nanos() / 1_000_000;
        assert!(horizon_ms >= 1_000, "chaos horizon must be at least 1 s");
        loop {
            let plan = self.sample_raw(rng, horizon_ms);
            if !plan.is_none() {
                debug_assert!(plan.validate().is_ok(), "sampled invalid plan {plan:?}");
                return plan;
            }
        }
    }

    /// [`PlanBounds::sample`] from a fresh generator seeded with `seed` —
    /// one case of a campaign, addressable by its seed alone.
    pub fn sample_seeded(&self, seed: u64) -> FaultPlan {
        self.sample(&mut SmallRng::seed_from_u64(seed))
    }

    fn sample_raw<R: Rng>(&self, rng: &mut R, horizon_ms: u64) -> FaultPlan {
        // A whole-ms span in [lo, hi] percent of the horizon.
        fn pct_ms<R: Rng>(rng: &mut R, horizon_ms: u64, lo: u64, hi: u64) -> u64 {
            let lo_ms = (horizon_ms * lo / 100).max(1);
            let hi_ms = (horizon_ms * hi / 100).max(lo_ms + 1);
            rng.gen_range(lo_ms..=hi_ms)
        }
        fn coin<R: Rng>(rng: &mut R) -> bool {
            rng.gen_range(0u32..2) == 0
        }
        let controller_stall = if coin(rng) {
            let every = rng.gen_range(4u64..=12);
            Some(StallSpec {
                every,
                duration: rng.gen_range(1..=(every - 1).min(3)),
            })
        } else {
            None
        };
        let stats_loss_every = if coin(rng) {
            Some(rng.gen_range(2u64..=8))
        } else {
            None
        };
        let disk_degrade = if coin(rng) {
            // from ≤ 45 % + for ≤ 25 % keeps the window inside 70 % of the
            // horizon: recovery stays observable.
            let from_ms = pct_ms(rng, horizon_ms, 10, 45);
            let for_ms = pct_ms(rng, horizon_ms, 5, 25);
            Some(DegradeSpec {
                from: SimTime::from_millis(from_ms),
                for_: SimDuration::from_millis(for_ms),
                factor: f64::from(rng.gen_range(15u32..=40)) / 10.0,
            })
        } else {
            None
        };
        let ost_crash = if self.n_osts >= 2 && coin(rng) {
            Some(CrashSpec {
                ost: rng.gen_range(0..self.n_osts),
                from: SimTime::from_millis(pct_ms(rng, horizon_ms, 15, 45)),
                for_: SimDuration::from_millis(pct_ms(rng, horizon_ms, 10, 25)),
                resend_after: SimDuration::from_millis(rng.gen_range(50u64..=300)),
            })
        } else {
            None
        };
        let churn = if coin(rng) {
            let every_ms = pct_ms(rng, horizon_ms, 12, 25);
            let offline_ms = (every_ms * rng.gen_range(2u64..=7) / 10).max(1);
            Some(ChurnSpec {
                every: SimDuration::from_millis(every_ms),
                offline: SimDuration::from_millis(offline_ms),
                stride: rng.gen_range(1..=self.max_stride.max(1)),
            })
        } else {
            None
        };
        FaultPlan {
            controller_stall,
            stats_loss_every,
            disk_degrade,
            ost_crash,
            churn,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_faults_by_default() {
        let p = FaultPlan::none();
        assert!(p.is_none());
        assert!(!p.cycle_stalled(5));
        assert!(!p.stats_lost(5));
        assert_eq!(p.disk_factor(SimTime::from_secs(1)), 1.0);
        assert_eq!(p.churn_offline_until(0, SimTime::from_secs(1)), None);
        assert!(p.validate().is_ok());
    }

    #[test]
    fn stall_windows() {
        let p = FaultPlan {
            controller_stall: Some(StallSpec {
                every: 10,
                duration: 3,
            }),
            ..Default::default()
        };
        // Cycles 7,8,9 of every decade stall.
        let stalled: Vec<u64> = (0..20).filter(|c| p.cycle_stalled(*c)).collect();
        assert_eq!(stalled, vec![7, 8, 9, 17, 18, 19]);
        assert!(!p.is_none());
    }

    #[test]
    fn stats_loss_cadence() {
        let p = FaultPlan {
            stats_loss_every: Some(4),
            ..Default::default()
        };
        let lost: Vec<u64> = (0..12).filter(|c| p.stats_lost(*c)).collect();
        assert_eq!(lost, vec![3, 7, 11]);
    }

    #[test]
    fn degrade_window_bounds() {
        let p = FaultPlan {
            disk_degrade: Some(DegradeSpec {
                from: SimTime::from_secs(10),
                for_: SimDuration::from_secs(5),
                factor: 3.0,
            }),
            ..Default::default()
        };
        assert_eq!(p.disk_factor(SimTime::from_secs(9)), 1.0);
        assert_eq!(p.disk_factor(SimTime::from_secs(10)), 3.0);
        assert_eq!(p.disk_factor(SimTime::from_millis(14_999)), 3.0);
        assert_eq!(p.disk_factor(SimTime::from_secs(15)), 1.0);
    }

    #[test]
    #[should_panic(expected = "stall period")]
    fn stall_longer_than_period_rejected() {
        let p = FaultPlan {
            controller_stall: Some(StallSpec {
                every: 3,
                duration: 3,
            }),
            ..Default::default()
        };
        let _ = p.cycle_stalled(0);
    }

    #[test]
    fn crash_recovery_instant() {
        let c = CrashSpec {
            ost: 1,
            from: SimTime::from_secs(8),
            for_: SimDuration::from_secs(6),
            resend_after: SimDuration::from_millis(300),
        };
        assert_eq!(c.recovery_at(), SimTime::from_secs(14));
    }

    fn crash(ost: usize) -> FaultPlan {
        FaultPlan {
            ost_crash: Some(CrashSpec {
                ost,
                from: SimTime::from_secs(8),
                for_: SimDuration::from_secs(6),
                resend_after: SimDuration::from_millis(300),
            }),
            ..Default::default()
        }
    }

    #[test]
    fn route_table() {
        let inside = SimTime::from_secs(10);
        // (plan, addressed ost, proc, n_osts, stripe_count, at) → route
        let table = [
            // The window is half-open: closed before `from`, open at it,
            // open to the last instant, closed again at `recovery_at()`.
            (
                crash(1),
                1,
                0,
                4,
                2,
                SimTime::from_millis(7_999),
                Route::Local,
            ),
            (
                crash(1),
                1,
                0,
                4,
                2,
                SimTime::from_secs(8),
                Route::Reroute(0),
            ),
            (
                crash(1),
                1,
                0,
                4,
                2,
                SimTime::from_millis(13_999),
                Route::Reroute(0),
            ),
            (crash(1), 1, 0, 4, 2, SimTime::from_secs(14), Route::Local),
            // Only the crashed OST is displaced.
            (crash(1), 0, 0, 4, 2, inside, Route::Local),
            // Stripe order after the addressed member: proc 0 stripes
            // {0, 1, 2}; OST 1 down ⇒ next member 2, not back to 0.
            (crash(1), 1, 0, 4, 3, inside, Route::Reroute(2)),
            // Stripe wrap (base + width > n_osts): proc 3 stripes {3, 0};
            // either member fails over to the other, never to 1 or 2.
            (crash(3), 3, 3, 4, 2, inside, Route::Reroute(0)),
            (crash(0), 0, 3, 4, 2, inside, Route::Reroute(3)),
            // Addressed outside the derivable stripe set (proc 0 stripes
            // {0, 1}, the trace says OST 2): plain ring order from there.
            (crash(2), 2, 0, 4, 2, inside, Route::Reroute(3)),
            // A file confined to its one OST has nowhere to go.
            (crash(0), 0, 0, 4, 1, inside, Route::Park),
            (crash(0), 0, 0, 1, 1, inside, Route::Park),
        ];
        for (plan, ost, proc, n_osts, stripe_count, at, expected) in table {
            assert_eq!(
                plan.route(ost, proc, n_osts, stripe_count, at),
                expected,
                "ost {ost} proc {proc} on {n_osts} OSTs × stripe {stripe_count} at {at}"
            );
        }
        assert_eq!(FaultPlan::none().route(0, 0, 1, 1, inside), Route::Local);
    }

    #[test]
    fn fully_striped_route_is_the_ring_walk() {
        // stripe_count == n_osts: the stripe walk after `ost` and the ring
        // fallback visit the same candidates in the same order, so the
        // survivor is the ring successor whatever the process's base.
        let n = 5;
        for down in 0..n {
            for proc in 0..2 * n {
                assert_eq!(
                    crash(down).route(down, proc, n, n, SimTime::from_secs(9)),
                    Route::Reroute((down + 1) % n),
                    "ost {down} proc {proc}"
                );
            }
        }
    }

    #[test]
    fn cycle_gate_orders_crash_stall_and_stats_loss() {
        let plan = FaultPlan {
            controller_stall: Some(StallSpec {
                every: 4,
                duration: 1,
            }),
            stats_loss_every: Some(2),
            ..Default::default()
        };
        // Cycles 1 and 3 lose stats, cycle 3 is also stalled: the stall wins.
        let gates: Vec<CycleGate> = (0..4).map(|c| plan.cycle_gate(c, false)).collect();
        use CycleGate::{Healthy, Skip, StatsLost};
        assert_eq!(gates, [Healthy, StatsLost, Healthy, Skip]);
        // A crashed OSS skips whatever the cycle-indexed faults say.
        assert!((0..4).all(|c| plan.cycle_gate(c, true) == Skip));
        assert_eq!(FaultPlan::none().cycle_gate(7, false), Healthy);
    }

    #[test]
    fn wiring_validation_names_the_broken_part() {
        let ok = FaultPlan::none();
        assert_eq!(validate_wiring(4, 2, 2, &crash(1)), Ok(()));
        for (n_clients, n_osts, stripe) in [(0, 1, 1), (1, 0, 1), (1, 2, 0), (1, 2, 3)] {
            let err = validate_wiring(n_clients, n_osts, stripe, &ok).unwrap_err();
            assert!(matches!(err, WiringError::Wiring(_)), "{err}");
        }
        let err = validate_wiring(4, 2, 2, &crash(2)).unwrap_err();
        assert!(matches!(err, WiringError::Fault(_)), "{err}");
        assert!(err.to_string().contains("out of range"), "{err}");
        let stall_free = FaultPlan {
            stats_loss_every: Some(0),
            ..Default::default()
        };
        let err = validate_wiring(4, 2, 2, &stall_free).unwrap_err();
        assert!(matches!(err, WiringError::Fault(_)), "{err}");
    }

    #[test]
    fn placement_round_robins_and_wraps() {
        assert_eq!((client_of(5, 4), base_ost(5, 4)), (1, 1));
        assert_eq!(base_ost(3, 4), 3);
        assert_eq!(stripe_ost(3, 1, 4), 0, "stripe sets wrap around the ring");
    }

    #[test]
    fn churn_rotates_over_processes() {
        let p = FaultPlan {
            churn: Some(ChurnSpec {
                every: SimDuration::from_secs(6),
                offline: SimDuration::from_secs(2),
                stride: 3,
            }),
            ..Default::default()
        };
        // Cycle 0 ([0, 6) s): processes 0, 3, 6 … offline for the first 2 s.
        assert_eq!(
            p.churn_offline_until(0, SimTime::from_secs(1)),
            Some(SimTime::from_secs(2))
        );
        assert_eq!(p.churn_offline_until(1, SimTime::from_secs(1)), None);
        assert_eq!(p.churn_offline_until(0, SimTime::from_secs(3)), None);
        // Cycle 1 ([6, 12) s): processes 1, 4, 7 … offline.
        assert_eq!(
            p.churn_offline_until(1, SimTime::from_secs(7)),
            Some(SimTime::from_secs(8))
        );
        assert_eq!(p.churn_offline_until(0, SimTime::from_secs(7)), None);
        // Cycle 3 wraps back to p % 3 == 0.
        assert_eq!(
            p.churn_offline_until(3, SimTime::from_secs(18)),
            Some(SimTime::from_secs(20))
        );
    }

    #[test]
    fn validation_rejects_bad_parameters() {
        let bad = [
            FaultPlan {
                controller_stall: Some(StallSpec {
                    every: 2,
                    duration: 2,
                }),
                ..Default::default()
            },
            FaultPlan {
                stats_loss_every: Some(0),
                ..Default::default()
            },
            FaultPlan {
                disk_degrade: Some(DegradeSpec {
                    from: SimTime::ZERO,
                    for_: SimDuration::from_secs(1),
                    factor: 0.5,
                }),
                ..Default::default()
            },
            FaultPlan {
                ost_crash: Some(CrashSpec {
                    ost: 0,
                    from: SimTime::ZERO,
                    for_: SimDuration::ZERO,
                    resend_after: SimDuration::from_millis(100),
                }),
                ..Default::default()
            },
            FaultPlan {
                churn: Some(ChurnSpec {
                    every: SimDuration::from_secs(2),
                    offline: SimDuration::from_secs(2),
                    stride: 2,
                }),
                ..Default::default()
            },
            FaultPlan {
                churn: Some(ChurnSpec {
                    every: SimDuration::from_secs(2),
                    offline: SimDuration::from_secs(1),
                    stride: 0,
                }),
                ..Default::default()
            },
        ];
        for plan in bad {
            assert!(plan.validate().is_err(), "must reject {plan:?}");
        }
    }

    #[test]
    fn sampled_plans_are_valid_nonempty_and_inside_the_horizon() {
        let bounds = PlanBounds::new(SimDuration::from_secs(6), 2);
        for seed in 0..200 {
            let plan = bounds.sample_seeded(seed);
            assert!(!plan.is_none(), "seed {seed} sampled an empty plan");
            plan.validate()
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            if let Some(d) = plan.disk_degrade {
                assert!(d.from + d.for_ <= SimTime::ZERO + bounds.horizon);
            }
            if let Some(c) = plan.ost_crash {
                assert!(c.ost < bounds.n_osts);
                assert!(c.recovery_at() <= SimTime::ZERO + bounds.horizon);
            }
            if let Some(ch) = plan.churn {
                assert!(ch.stride <= bounds.max_stride);
            }
        }
    }

    #[test]
    fn sampling_is_reproducible_per_seed() {
        let bounds = PlanBounds::new(SimDuration::from_secs(4), 2);
        for seed in [0u64, 7, 42, u64::MAX] {
            assert_eq!(bounds.sample_seeded(seed), bounds.sample_seeded(seed));
        }
    }

    #[test]
    fn single_ost_bounds_never_sample_crashes() {
        let bounds = PlanBounds::new(SimDuration::from_secs(4), 1);
        for seed in 0..100 {
            assert!(bounds.sample_seeded(seed).ost_crash.is_none());
        }
    }

    #[test]
    fn disturbance_window_hulls_all_dimensions() {
        let period = SimDuration::from_millis(100);
        let horizon = SimDuration::from_secs(10);
        assert_eq!(FaultPlan::none().disturbance_window(period, horizon), None);
        let plan = FaultPlan {
            // Stalled cycles 7..10 → [700 ms, 1000 ms).
            controller_stall: Some(StallSpec {
                every: 10,
                duration: 3,
            }),
            disk_degrade: Some(DegradeSpec {
                from: SimTime::from_secs(2),
                for_: SimDuration::from_secs(3),
                factor: 2.0,
            }),
            ..Default::default()
        };
        assert_eq!(
            plan.disturbance_window(period, horizon),
            Some((SimTime::from_millis(700), SimTime::from_secs(5)))
        );
        // Churn scores its second cycle, skipping the baseline-free first.
        let churn = FaultPlan {
            churn: Some(ChurnSpec {
                every: SimDuration::from_secs(2),
                offline: SimDuration::from_secs(1),
                stride: 1,
            }),
            ..Default::default()
        };
        assert_eq!(
            churn.disturbance_window(period, horizon),
            Some((SimTime::from_secs(2), SimTime::from_secs(3)))
        );
        // A window entirely past the horizon degenerates to None.
        assert_eq!(
            churn.disturbance_window(period, SimDuration::from_secs(2)),
            None
        );
    }
}
