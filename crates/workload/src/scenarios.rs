//! Ready-made scenarios reproducing the paper's evaluation job mixes.
//!
//! Each builder returns the full-size workload used by the corresponding
//! figure; the `_scaled` variants shrink file sizes and duration by a
//! factor for fast unit tests and doc tests while preserving the mix's
//! shape (priorities, burst cadence, process counts).

use crate::dsl::{RunSpec, ScenarioFile};
use crate::faults::{ChurnSpec, CrashSpec, DegradeSpec, FaultPlan};
use crate::job::{JobSpec, ProcessSpec, RPCS_PER_GIB};
use crate::scenario::Scenario;
use adaptbf_model::{JobId, SimDuration, SimTime};

fn scale_rpcs(rpcs: u64, f: f64) -> u64 {
    ((rpcs as f64 * f).round() as u64).max(1)
}

fn scale_duration(secs: f64, f: f64) -> SimDuration {
    SimDuration::from_secs_f64((secs * f).clamp(3.0, secs))
}

/// Section IV-D (Figures 3–4): four jobs with identical continuous
/// file-per-process I/O but different priorities (10/10/30/50 %). Higher
/// priority jobs finish earlier under priority-proportional control,
/// exercising adaptation to a shrinking active set.
pub fn token_allocation() -> Scenario {
    token_allocation_scaled(1.0)
}

/// [`token_allocation`] with file sizes and duration scaled by `f`.
pub fn token_allocation_scaled(f: f64) -> Scenario {
    let file = scale_rpcs(RPCS_PER_GIB, f);
    let job =
        |id: u32, nodes: u64| JobSpec::uniform(JobId(id), nodes, 16, ProcessSpec::continuous(file));
    Scenario::new(
        "token_allocation",
        "IV-D: priority-proportional allocation under a dynamic active set \
         (priorities 10/10/30/50%)",
        vec![job(1, 1), job(2, 1), job(3, 3), job(4, 5)],
        scale_duration(100.0, f),
    )
}

/// Section IV-E (Figures 5–6): three high-priority jobs (30 % each)
/// issuing interleaved periodic bursts, against one low-priority (10 %)
/// job with continuous high demand — the redistribution stress test.
pub fn token_redistribution() -> Scenario {
    token_redistribution_scaled(1.0)
}

/// [`token_redistribution`] with file sizes and duration scaled by `f`.
///
/// The bursty jobs are *closed-loop* (Filebench `write burst; sleep`
/// semantics): server-side starvation stretches every burst cycle, which
/// is exactly how the paper's No BW baseline hurts them.
pub fn token_redistribution_scaled(f: f64) -> Scenario {
    let file = scale_rpcs(RPCS_PER_GIB, f);
    let secs = SimDuration::from_secs_f64;
    let bursty = |id: u32, start: f64, think: f64, burst: u64| {
        JobSpec::uniform(
            JobId(id),
            3,
            2,
            ProcessSpec::bursty_think(file * 2, secs(start), secs(think), burst),
        )
    };
    Scenario::new(
        "token_redistribution",
        "IV-E: bursty high-priority jobs (30% each) vs continuous \
         low-priority job (10%)",
        vec![
            // 2 GiB per bursty process so the burst cadence covers the run.
            bursty(1, 1.0, 3.0, 120),
            bursty(2, 2.0, 4.0, 160),
            bursty(3, 3.0, 5.0, 200),
            // 4 GiB per continuous process: job 4's demand must outlast the
            // horizon (the paper's job 4 is continuous *throughout*).
            JobSpec::uniform(JobId(4), 1, 16, ProcessSpec::continuous(file * 4)),
        ],
        scale_duration(60.0, f),
    )
}

/// Section IV-F (Figures 7–8): four equal-priority jobs. Jobs 1–3 pair a
/// small constant-cadence burster with a continuous stream that switches
/// on at 20/50/80 s; job 4 is continuous from the start. Exercises
/// lending early and re-compensation when the lenders' demand rises.
pub fn token_recompensation() -> Scenario {
    token_recompensation_scaled(1.0)
}

/// [`token_recompensation`] with file sizes and duration scaled by `f`.
/// Delays scale with `f` as well so the lend→reclaim phases survive
/// scaling.
pub fn token_recompensation_scaled(f: f64) -> Scenario {
    let file = scale_rpcs(RPCS_PER_GIB, f);
    let secs = SimDuration::from_secs_f64;
    let lender = |id: u32, start: f64, interval: f64, burst: u64, delay: f64| {
        JobSpec::mixed(
            JobId(id),
            1,
            vec![
                // Small open-loop bursts at a constant cadence: the demand
                // signal that keeps the job active while it lends.
                ProcessSpec::bursty(file, secs(start), secs(interval), burst),
                // The continuous stream that switches on later and triggers
                // re-compensation; sized to outlast the horizon.
                ProcessSpec::delayed(file * 8, secs((delay * f).max(1.0))),
            ],
        )
    };
    Scenario::new(
        "token_recompensation",
        "IV-F: equal priorities; jobs 1-3 lend while quiet (bursts only), \
         their continuous streams start at 20/50/80s and reclaim",
        vec![
            lender(1, 0.5, 2.0, 20, 20.0),
            lender(2, 1.0, 3.0, 30, 50.0),
            lender(3, 1.5, 2.5, 15, 80.0),
            // 8 GiB per process: continuous demand through the whole run.
            JobSpec::uniform(JobId(4), 1, 16, ProcessSpec::continuous(file * 8)),
        ],
        scale_duration(120.0, f),
    )
}

/// The introduction's motivating case: a one-node job hogging the OST with
/// continuous I/O while a 15-node job bursts — not an evaluation figure,
/// but the scenario the paper opens with; used by examples.
pub fn hog_and_victim() -> Scenario {
    hog_and_victim_scaled(1.0)
}

/// [`hog_and_victim`] with file sizes and duration scaled by `f`.
pub fn hog_and_victim_scaled(f: f64) -> Scenario {
    let file = scale_rpcs(RPCS_PER_GIB, f);
    let secs = SimDuration::from_secs_f64;
    Scenario::new(
        "hog_and_victim",
        "Intro: a 1-node job floods the OST; a 15-node job's bursts must \
         not be starved",
        vec![
            // The hog: modest allocation (1 node), relentless writes.
            JobSpec::uniform(JobId(1), 1, 8, ProcessSpec::continuous(file * 4)),
            // The victim: 15 nodes, closed-loop bursts whose cycles stretch
            // when the hog monopolizes the OST.
            JobSpec::uniform(
                JobId(2),
                15,
                4,
                ProcessSpec::bursty_think(file * 2, secs(1.0), secs(2.0), 160),
            ),
        ],
        scale_duration(45.0, f),
    )
}

/// A scalability stress: `n` jobs with varied node counts and a rotating
/// mix of continuous / bursty / delayed patterns (not a paper figure;
/// feeds the Section IV-G scaling analysis and the fairness tests).
pub fn many_jobs(n: usize, duration_secs: u64) -> Scenario {
    assert!(n >= 1, "need at least one job");
    let secs = SimDuration::from_secs_f64;
    let jobs = (0..n)
        .map(|i| {
            let id = JobId(i as u32 + 1);
            let nodes = 1 + (i as u64 * 7) % 16;
            match i % 3 {
                0 => JobSpec::uniform(id, nodes, 2, ProcessSpec::continuous(RPCS_PER_GIB * 4)),
                1 => JobSpec::uniform(
                    id,
                    nodes,
                    1,
                    ProcessSpec::bursty(
                        RPCS_PER_GIB,
                        secs(0.5 + (i % 5) as f64),
                        secs(2.0 + (i % 4) as f64),
                        20 + (i as u64 % 6) * 10,
                    ),
                ),
                _ => JobSpec::uniform(
                    id,
                    nodes,
                    1,
                    ProcessSpec::delayed(RPCS_PER_GIB * 2, secs((i % 10) as f64 + 1.0)),
                ),
            }
        })
        .collect();
    Scenario::new(
        format!("many_jobs_{n}"),
        format!("scalability mix: {n} jobs, rotating continuous/bursty/delayed patterns"),
        jobs,
        SimDuration::from_secs(duration_secs),
    )
}

/// The hot-path stress: hundreds of concurrent jobs — one TBF rule each —
/// with small per-process files and a rotating pattern mix, sized so the
/// rule table is large while each individual run stays fast. Pair it with
/// a multi-OST cluster config (e.g. `n_osts: 4`, `stripe_count: 2`) to
/// exercise every per-OST controller at once. This is the workload the
/// O(1) classification map and the incremental reconcile exist for: with
/// `n` jobs the naive substrate pays O(n) per RPC and O(n²) per control
/// cycle, while the fast paths keep both flat.
pub fn scale_stress(n_jobs: usize, duration_secs: u64) -> Scenario {
    assert!(n_jobs >= 1, "need at least one job");
    let secs = SimDuration::from_secs_f64;
    let file = RPCS_PER_GIB / 16; // 64 RPCs: keep total work ∝ n_jobs small
    let jobs = (0..n_jobs)
        .map(|i| {
            let id = JobId(i as u32 + 1);
            let nodes = 1 + (i as u64 * 13) % 24;
            match i % 4 {
                0 => JobSpec::uniform(id, nodes, 2, ProcessSpec::continuous(file * 2)),
                1 => JobSpec::uniform(
                    id,
                    nodes,
                    1,
                    ProcessSpec::bursty(
                        file,
                        secs(0.2 + (i % 7) as f64 * 0.4),
                        secs(1.0 + (i % 3) as f64 * 0.7),
                        8 + (i as u64 % 6) * 4,
                    ),
                ),
                2 => JobSpec::uniform(
                    id,
                    nodes,
                    1,
                    ProcessSpec::delayed(file * 2, secs(0.5 + (i % 8) as f64 * 0.5)),
                ),
                _ => JobSpec::uniform(
                    id,
                    nodes,
                    2,
                    ProcessSpec::bursty_think(file, secs(0.3), secs(1.5), 16),
                ),
            }
        })
        .collect();
    Scenario::new(
        format!("scale_stress_{n_jobs}"),
        format!(
            "hot-path stress: {n_jobs} jobs / rules, rotating pattern mix, \
             sized for multi-OST runs"
        ),
        jobs,
        SimDuration::from_secs(duration_secs),
    )
}

/// The end-to-end event-loop stress: 64 jobs × 2 processes, each writing
/// an 8 GiB-equivalent file (8192 RPCs), sized for a 16-OST cluster —
/// ~1.05 M RPCs served in one run. At this scale the simulator itself
/// (event heap, metrics bookkeeping, per-RPC map lookups) is the
/// bottleneck, not the scheduler, so it tracks the
/// dense-interner/flat-metrics fast path.
pub fn million_rpc() -> Scenario {
    million_rpc_scaled(1.0)
}

/// [`million_rpc`] with file sizes and duration scaled by `f` (the CI
/// smoke configuration uses a small `f`).
pub fn million_rpc_scaled(f: f64) -> Scenario {
    const JOBS: u32 = 64;
    let file = scale_rpcs(8192, f);
    let jobs = (0..JOBS)
        .map(|i| {
            let nodes = 1 + (i as u64 * 5) % 16;
            JobSpec::uniform(
                JobId(i + 1),
                nodes,
                2,
                ProcessSpec::continuous(file).with_max_inflight(16),
            )
        })
        .collect();
    Scenario::new(
        "million_rpc",
        "event-loop stress: 64 continuous jobs sized for ~1M served RPCs \
         on a 16-OST cluster",
        jobs,
        scale_duration(80.0, f),
    )
}

/// The OST failover drill: a striped 2-OST cluster whose second OST
/// crashes mid-run and rejoins with empty bucket state. Queued and
/// in-service RPCs on the dead OST are resent to the survivor after a
/// client timeout; new arrivals re-route immediately. Returned as a full
/// [`ScenarioFile`] because the fault schedule and wiring are part of the
/// scenario, not just the workload.
pub fn ost_failover() -> ScenarioFile {
    ost_failover_scaled(1.0)
}

/// [`ost_failover`] with file sizes, duration and fault windows scaled by
/// `f` (windows keep their relative position in the run).
pub fn ost_failover_scaled(f: f64) -> ScenarioFile {
    let file = scale_rpcs(RPCS_PER_GIB * 2, f);
    let duration = scale_duration(24.0, f);
    let r = duration.as_secs_f64() / 24.0;
    let secs = SimDuration::from_secs_f64;
    let scenario = Scenario::new(
        "ost_failover",
        "resilience: OST 1 of a striped pair crashes mid-run; traffic \
         fails over to OST 0 and re-balances after recovery",
        vec![
            JobSpec::uniform(JobId(1), 1, 8, ProcessSpec::continuous(file)),
            JobSpec::uniform(JobId(2), 3, 8, ProcessSpec::continuous(file)),
            JobSpec::uniform(
                JobId(3),
                4,
                4,
                ProcessSpec::bursty(file / 2, secs(0.5), secs(2.0), scale_rpcs(64, f)),
            ),
        ],
        duration,
    );
    let mut out = ScenarioFile::from_scenario(&scenario);
    out.run = RunSpec {
        seed: Some(42),
        policy: Some("adaptbf".into()),
        period_ms: Some(100),
        n_osts: Some(2),
        stripe_count: Some(2),
        ..RunSpec::default()
    };
    out.faults = FaultPlan {
        ost_crash: Some(CrashSpec {
            ost: 1,
            from: SimTime::ZERO + secs(8.0 * r),
            for_: secs(6.0 * r),
            resend_after: secs(0.3 * r),
        }),
        ..FaultPlan::none()
    };
    out
}

/// Churn under degradation: four continuous jobs whose processes rotate
/// offline every few seconds (client churn) while the disk hits a
/// garbage-collection slowdown window late in the run — the compound
/// disturbance case the controller must re-allocate through.
pub fn churn_under_degradation() -> ScenarioFile {
    churn_under_degradation_scaled(1.0)
}

/// [`churn_under_degradation`] with file sizes, duration and fault
/// windows scaled by `f`.
pub fn churn_under_degradation_scaled(f: f64) -> ScenarioFile {
    let file = scale_rpcs(RPCS_PER_GIB, f);
    let duration = scale_duration(30.0, f);
    let r = duration.as_secs_f64() / 30.0;
    let secs = SimDuration::from_secs_f64;
    let job =
        |id: u32, nodes: u64| JobSpec::uniform(JobId(id), nodes, 4, ProcessSpec::continuous(file));
    let scenario = Scenario::new(
        "churn_under_degradation",
        "resilience: rotating process churn (one quarter of the clients \
         offline at a time) plus a late disk-degradation window",
        vec![job(1, 1), job(2, 1), job(3, 2), job(4, 4)],
        duration,
    );
    let mut out = ScenarioFile::from_scenario(&scenario);
    out.run = RunSpec {
        seed: Some(42),
        policy: Some("adaptbf".into()),
        period_ms: Some(100),
        ..RunSpec::default()
    };
    out.faults = FaultPlan {
        churn: Some(ChurnSpec {
            every: secs(6.0 * r),
            offline: secs(2.0 * r),
            stride: 4,
        }),
        disk_degrade: Some(DegradeSpec {
            from: SimTime::ZERO + secs(15.0 * r),
            for_: secs(6.0 * r),
            factor: 2.5,
        }),
        ..FaultPlan::none()
    };
    out
}

/// Job churn: five jobs whose lifetimes tile the horizon (staggered
/// delayed starts, finite files), exercising rule creation/stopping and
/// active-set renormalization continuously.
pub fn job_churn() -> Scenario {
    job_churn_scaled(1.0)
}

/// [`job_churn`] with file sizes and duration scaled by `f`.
pub fn job_churn_scaled(f: f64) -> Scenario {
    let file = scale_rpcs(RPCS_PER_GIB * 2, f);
    let secs = SimDuration::from_secs_f64;
    let phased = |id: u32, nodes: u64, start: f64| {
        JobSpec::uniform(
            JobId(id),
            nodes,
            4,
            ProcessSpec::delayed(file, secs((start * f).max(0.5))),
        )
    };
    Scenario::new(
        "job_churn",
        "five jobs with staggered lifetimes; the active set changes every \
         few seconds",
        vec![
            phased(1, 2, 0.0),
            phased(2, 6, 8.0),
            phased(3, 1, 16.0),
            phased(4, 4, 24.0),
            phased(5, 3, 32.0),
        ],
        scale_duration(60.0, f),
    )
}

/// A built-in's constructor: the scale factor in, the scenario file out.
pub type BuiltinFn = fn(f64) -> ScenarioFile;

/// Every built-in scenario: name → constructor taking the scale factor, in
/// `adaptbf scenarios` order. Plain mixes and fault drills alike come out
/// as a [`ScenarioFile`], so a built-in name and `--scenario-file` take the
/// same path from here on (the plain mixes carry an empty `run` block and
/// no faults).
pub const BUILTINS: &[(&str, BuiltinFn)] = &[
    ("token_allocation", |f| plain(token_allocation_scaled(f))),
    ("token_redistribution", |f| {
        plain(token_redistribution_scaled(f))
    }),
    ("token_recompensation", |f| {
        plain(token_recompensation_scaled(f))
    }),
    ("hog_and_victim", |f| plain(hog_and_victim_scaled(f))),
    ("job_churn", |f| plain(job_churn_scaled(f))),
    ("many_jobs", |f| {
        plain(many_jobs(32, (30.0 * f).max(5.0) as u64))
    }),
    ("million_rpc", |f| plain(million_rpc_scaled(f))),
    ("ost_failover", ost_failover_scaled),
    ("churn_under_degradation", churn_under_degradation_scaled),
];

fn plain(scenario: Scenario) -> ScenarioFile {
    ScenarioFile::from_scenario(&scenario)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::IoPattern;

    #[test]
    fn token_allocation_matches_paper_priorities() {
        let s = token_allocation();
        assert_eq!(s.jobs.len(), 4);
        assert!((s.static_priority(JobId(1)) - 0.1).abs() < 1e-9);
        assert!((s.static_priority(JobId(3)) - 0.3).abs() < 1e-9);
        assert!((s.static_priority(JobId(4)) - 0.5).abs() < 1e-9);
        for j in &s.jobs {
            assert_eq!(j.processes.len(), 16);
            assert_eq!(j.processes[0].file_rpcs, RPCS_PER_GIB);
        }
    }

    #[test]
    fn token_redistribution_mixes_bursty_and_continuous() {
        let s = token_redistribution();
        assert!((s.static_priority(JobId(1)) - 0.3).abs() < 1e-9);
        assert!((s.static_priority(JobId(4)) - 0.1).abs() < 1e-9);
        assert!(matches!(
            s.jobs[0].processes[0].pattern,
            IoPattern::BurstThenThink { .. }
        ));
        assert!(matches!(
            s.jobs[3].processes[0].pattern,
            IoPattern::Continuous
        ));
        assert_eq!(s.jobs[3].processes.len(), 16);
        // Continuous demand sized to outlast the horizon.
        assert!(s.jobs[3].processes[0].file_rpcs >= 4 * s.jobs[0].processes[0].file_rpcs / 2);
    }

    #[test]
    fn token_recompensation_has_staggered_delays() {
        let s = token_recompensation();
        for j in &s.jobs {
            assert!((s.static_priority(j.id) - 0.25).abs() < 1e-9);
        }
        let delays: Vec<u64> = s.jobs[..3]
            .iter()
            .map(|j| match j.processes[1].pattern {
                IoPattern::DelayedContinuous { delay } => delay.as_nanos() / 1_000_000_000,
                _ => panic!("expected delayed stream"),
            })
            .collect();
        assert_eq!(delays, vec![20, 50, 80]);
    }

    #[test]
    fn scaling_shrinks_files_and_duration() {
        let s = token_allocation_scaled(1.0 / 64.0);
        assert_eq!(s.jobs[0].processes[0].file_rpcs, 16);
        assert!(s.duration <= SimDuration::from_secs(4));
        // Never below one RPC.
        let tiny = token_allocation_scaled(1e-9);
        assert_eq!(tiny.jobs[0].processes[0].file_rpcs, 1);
    }

    #[test]
    fn hog_and_victim_shape() {
        let s = hog_and_victim();
        assert!(s.static_priority(JobId(2)) > 0.9);
        assert_eq!(s.jobs[0].processes.len(), 8);
    }

    #[test]
    fn many_jobs_builds_requested_count() {
        let s = many_jobs(50, 30);
        assert_eq!(s.jobs.len(), 50);
        assert!(s.jobs.iter().all(|j| j.nodes >= 1 && j.nodes <= 16));
        // All three pattern kinds appear.
        let kinds: std::collections::BTreeSet<u8> = s
            .jobs
            .iter()
            .map(|j| match j.processes[0].pattern {
                IoPattern::Continuous => 0,
                IoPattern::PeriodicBurst { .. } => 1,
                IoPattern::DelayedContinuous { .. } => 2,
                IoPattern::BurstThenThink { .. } => 3,
                IoPattern::Timed(_) => 4,
            })
            .collect();
        assert!(kinds.len() >= 3, "pattern variety: {kinds:?}");
    }

    #[test]
    fn scale_stress_builds_hundreds_of_jobs() {
        let s = scale_stress(300, 10);
        assert_eq!(s.jobs.len(), 300);
        assert!(s.jobs.iter().all(|j| j.nodes >= 1 && j.nodes <= 24));
        // Every job has demand, so every job earns a TBF rule.
        assert!(s.jobs.iter().all(|j| j.total_rpcs() > 0));
        // All four pattern kinds appear.
        let kinds: std::collections::BTreeSet<u8> = s
            .jobs
            .iter()
            .map(|j| match j.processes[0].pattern {
                IoPattern::Continuous => 0,
                IoPattern::PeriodicBurst { .. } => 1,
                IoPattern::DelayedContinuous { .. } => 2,
                IoPattern::BurstThenThink { .. } => 3,
                IoPattern::Timed(_) => 4,
            })
            .collect();
        assert_eq!(kinds.len(), 4, "pattern variety: {kinds:?}");
    }

    #[test]
    fn million_rpc_is_sized_for_a_million_served() {
        let s = million_rpc();
        assert_eq!(s.jobs.len(), 64);
        let total: u64 = s.jobs.iter().map(|j| j.total_rpcs()).sum();
        assert_eq!(total, 1_048_576, "64 jobs × 2 procs × 8192 RPCs");
        assert!(s.jobs.iter().all(|j| j.nodes >= 1 && j.nodes <= 16));
        // Scaled smoke variant stays proportional and non-degenerate.
        let smoke = million_rpc_scaled(1.0 / 64.0);
        let smoke_total: u64 = smoke.jobs.iter().map(|j| j.total_rpcs()).sum();
        assert_eq!(smoke_total, 16_384);
        assert!(smoke.duration >= SimDuration::from_secs(3));
    }

    #[test]
    fn fault_builtins_carry_their_fault_plans() {
        let failover = ost_failover();
        assert_eq!(failover.name, "ost_failover");
        assert_eq!(failover.run.n_osts, Some(2));
        let crash = failover.faults.ost_crash.expect("crash window");
        assert_eq!(crash.ost, 1);
        assert_eq!(crash.from, SimTime::from_secs(8));
        assert_eq!(crash.recovery_at(), SimTime::from_secs(14));
        assert!(failover.faults.validate().is_ok());
        assert!(failover.to_scenario().is_ok());

        let churny = churn_under_degradation();
        assert!(churny.faults.churn.is_some());
        assert!(churny.faults.disk_degrade.is_some());
        assert!(churny.faults.validate().is_ok());
        assert!(churny.to_scenario().is_ok());
    }

    #[test]
    fn fault_builtins_scale_windows_with_duration() {
        let scaled = ost_failover_scaled(1.0 / 8.0);
        let s = scaled.to_scenario().unwrap();
        assert_eq!(s.duration, SimDuration::from_secs(3));
        let crash = scaled.faults.ost_crash.unwrap();
        // 8 s of 24 s → 1 s of 3 s: the window keeps its relative position.
        assert_eq!(crash.from, SimTime::from_secs(1));
        assert_eq!(crash.for_, SimDuration::from_millis(750));
        assert!(crash.recovery_at() < SimTime::ZERO + s.duration);
        assert!(scaled.faults.validate().is_ok());

        let churny = churn_under_degradation_scaled(1.0 / 10.0);
        let c = churny.faults.churn.unwrap();
        assert_eq!(c.every, SimDuration::from_millis(600));
        assert_eq!(c.offline, SimDuration::from_millis(200));
        assert!(churny.faults.validate().is_ok());
    }

    #[test]
    fn job_churn_staggers_starts() {
        let s = job_churn();
        let starts: Vec<u64> = s
            .jobs
            .iter()
            .map(|j| match j.processes[0].pattern {
                IoPattern::DelayedContinuous { delay } => delay.as_nanos(),
                _ => panic!("churn jobs are delayed-continuous"),
            })
            .collect();
        let mut sorted = starts.clone();
        sorted.sort_unstable();
        assert_eq!(starts, sorted, "start times must stagger upward");
        assert!(starts.windows(2).all(|w| w[0] < w[1]));
    }
}
