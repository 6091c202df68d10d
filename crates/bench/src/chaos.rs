//! The chaos lab: seeded randomized fault campaigns over the scenario ×
//! policy grid, plus the shrinker that minimizes what they find.
//!
//! A campaign samples [`PlanBounds`] fault plans (one deterministic plan
//! per `(campaign seed, scenario, plan index)`), runs each plan under all
//! three policies on a striped two-OST testbed via [`adaptbf_sim::RunGrid`], and scores
//! every run with `analysis::resilience` — dip depth, recovery time and
//! the conservation audit of the `FaultStats` partition. The fold is a
//! per-policy [`Scorecard`] whose worst numbers become the CI resilience
//! floor (`crates/bench/chaos_floor.txt`), and the full campaign renders
//! as `BENCH_chaos.json`.
//!
//! Because the simulator is a pure function of (scenario, policy, seed,
//! wiring, faults) and the report carries no wall-clock data, the same
//! campaign seed reproduces `BENCH_chaos.json` *byte-identically* on any
//! machine — the floor check can therefore be strict.
//!
//! Worst cases feed [`shrink_case`]: a greedy fixpoint loop that drops
//! fault dimensions, narrows windows and shrinks the workload while the
//! resilience violation persists, using byte-exact record/replay as the
//! oracle on every candidate. The survivor renders as a canonical
//! scenario file ready to check in as a golden regression.
//!
//! [`run_campaign`] takes the executor: on [`Executor::Live`] the same
//! sampled grid sweeps the live threaded runtime instead of the simulator
//! — every plan the sampler emits is live-feasible now that the full
//! fault battery runs on real threads. Live runs are wall-clock (each
//! takes its scenario duration in real time) and their dip/recovery
//! numbers jitter, so the live floor (`crates/bench/chaos_live_floor.txt`)
//! is count-shaped rather than strict: the grid size is pinned exactly,
//! the conservation audit — a pure invariant of the `FaultStats`
//! partition, untouched by timing — may never break, and the number of
//! resilience violations may not grow past the recorded ceiling.

use adaptbf_analysis::{conservation_ok, score_run, RunScore, Scorecard};
use adaptbf_cli::exec::{execute, Executor};
use adaptbf_model::{SimDuration, SimTime};
use adaptbf_sim::report::report_body_digest;
use adaptbf_sim::{plan_file_run, replay_cluster_config, replay_report, RunReport, Timeline};
use adaptbf_workload::dsl::faults_block_json;
use adaptbf_workload::faults::PlanBounds;
use adaptbf_workload::{scenarios, ScenarioFile};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The three policies every sampled plan runs under.
pub const POLICIES: [&str; 3] = ["no_bw", "static_bw", "adaptbf"];

/// Campaign shape: how many plans to sample per scenario and how to score.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CampaignConfig {
    /// Campaign seed: pins every sampled plan and every run seed.
    pub seed: u64,
    /// Fault plans sampled per base scenario (each runs under all three
    /// policies).
    pub plans_per_scenario: usize,
    /// Workload scale factor for the base scenarios.
    pub scale: f64,
    /// Recovery tolerance passed to `analysis::resilience`.
    pub tolerance: f64,
}

impl CampaignConfig {
    /// The full campaign shape (the checked-in `BENCH_chaos.json`).
    pub fn full(seed: u64) -> Self {
        CampaignConfig {
            seed,
            plans_per_scenario: 8,
            scale: 1.0 / 8.0,
            tolerance: 0.5,
        }
    }

    /// The CI smoke shape: small enough to run per-PR, same scoring.
    pub fn smoke(seed: u64) -> Self {
        CampaignConfig {
            seed,
            plans_per_scenario: 3,
            scale: 1.0 / 16.0,
            tolerance: 0.5,
        }
    }

    /// The full live-runtime shape. Live runs are wall-clock (scaled
    /// scenarios clamp to a 3 s minimum horizon), so the grid is smaller
    /// than the simulated campaign's: 2 plans × 3 scenarios × 3 policies
    /// ≈ one minute of real time.
    pub fn live(seed: u64) -> Self {
        CampaignConfig {
            seed,
            plans_per_scenario: 2,
            scale: 1.0 / 32.0,
            tolerance: 0.5,
        }
    }

    /// The live CI smoke shape: one plan per scenario, ~30 s of wall
    /// clock. The checked-in `chaos_live_floor.txt` is written from this
    /// shape so the per-PR check compares like with like.
    pub fn live_smoke(seed: u64) -> Self {
        CampaignConfig {
            seed,
            plans_per_scenario: 1,
            scale: 1.0 / 32.0,
            tolerance: 0.5,
        }
    }
}

/// One cell of the campaign grid: a sampled plan on a base scenario under
/// one policy. The scenario file is self-contained — faults, policy and
/// seed all ride in it, so a worst case is reproducible from the file
/// alone.
#[derive(Debug, Clone)]
pub struct ChaosCase {
    /// Base scenario name.
    pub scenario: String,
    /// Policy this cell runs under.
    pub policy: String,
    /// Index of the sampled plan within its scenario.
    pub plan_index: usize,
    /// Derived seed: samples the plan and seeds the run.
    pub case_seed: u64,
    /// The complete runnable scenario file.
    pub file: ScenarioFile,
}

/// A scored grid cell.
#[derive(Debug, Clone)]
pub struct CaseOutcome {
    /// The cell that ran.
    pub case: ChaosCase,
    /// Its resilience score.
    pub score: RunScore,
    /// The disturbance window the score was taken over (`None` = the
    /// plan's hull degenerated; only conservation was audited).
    pub window: Option<(SimTime, SimTime)>,
}

/// A completed campaign: every outcome plus the per-policy fold.
#[derive(Debug)]
pub struct Campaign {
    /// The shape that ran.
    pub config: CampaignConfig,
    /// All grid cells in submission order.
    pub outcomes: Vec<CaseOutcome>,
    /// Per-policy aggregate scorecards.
    pub per_policy: BTreeMap<String, Scorecard>,
}

/// SplitMix64-style mix for deriving per-case seeds from the campaign
/// seed: decorrelated, order-independent, stable across refactors.
fn mix(a: u64, b: u64) -> u64 {
    let mut z = a ^ b.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The base scenarios a campaign disturbs, pinned to a striped two-OST
/// testbed so crash re-route/resend paths are reachable.
pub fn base_files(scale: f64) -> Vec<ScenarioFile> {
    [
        scenarios::token_allocation_scaled(scale),
        scenarios::token_redistribution_scaled(scale),
        scenarios::job_churn_scaled(scale),
    ]
    .into_iter()
    .map(|s| {
        let mut file = ScenarioFile::from_scenario(&s);
        file.run.n_osts = Some(2);
        file.run.stripe_count = Some(2);
        file
    })
    .collect()
}

/// Expand a campaign config into its grid of cases (pure; no runs).
pub fn campaign_cases(config: CampaignConfig) -> Vec<ChaosCase> {
    let mut cases = Vec::new();
    for (s_idx, base) in base_files(config.scale).iter().enumerate() {
        let horizon = SimDuration::from_secs_f64(base.duration_secs);
        let bounds = PlanBounds::new(horizon, base.run.n_osts.unwrap_or(1));
        for plan_index in 0..config.plans_per_scenario {
            // Masked to 32 bits: scenario-file seeds travel through the
            // JSON number path, which is exact only below 2^53.
            let case_seed = mix(config.seed, ((s_idx as u64) << 32) | plan_index as u64) >> 32;
            let plan = bounds.sample_seeded(case_seed);
            for policy in POLICIES {
                let mut file = base.clone();
                file.faults = plan;
                file.run.policy = Some(policy.to_string());
                file.run.seed = Some(case_seed);
                cases.push(ChaosCase {
                    scenario: base.name.clone(),
                    policy: policy.to_string(),
                    plan_index,
                    case_seed,
                    file,
                });
            }
        }
    }
    cases
}

/// Run and score one grid cell on `exec`. The cell's scenario file
/// resolves through [`plan_file_run`] either way, so a live campaign's
/// testbed describes the same hardware the simulated one models — same
/// wiring, same fault plan, same seed.
pub fn score_case(case: &ChaosCase, tolerance: f64, exec: Executor) -> CaseOutcome {
    let plan = plan_file_run(&case.file).expect("sampled chaos case must plan");
    let report = execute(&plan, exec, false)
        .expect("sampled chaos plans run on both executors")
        .report;
    let window = disturbance_window(&case.file, plan.scenario.duration);
    let score = score_over(&report, window, tolerance);
    CaseOutcome {
        case: case.clone(),
        score,
        window,
    }
}

/// The hull of a chaos file's fault plan over its run (`None` = nothing
/// to score a dip against).
fn disturbance_window(file: &ScenarioFile, horizon: SimDuration) -> Option<(SimTime, SimTime)> {
    let period = SimDuration::from_millis(file.run.period_ms.unwrap_or(100));
    file.faults.disturbance_window(period, horizon)
}

/// Score a report over an optional disturbance window, falling back to a
/// conservation-only audit when the window degenerated.
fn score_over(report: &RunReport, window: Option<(SimTime, SimTime)>, tolerance: f64) -> RunScore {
    match window {
        Some((from, until)) => score_run(report, from, until, tolerance),
        None => RunScore {
            tracked_jobs: 0,
            worst_dip_ratio: 1.0,
            all_recovered: true,
            worst_recovery_secs: None,
            conservation_ok: conservation_ok(report),
        },
    }
}

/// Run the whole campaign grid on `exec`, over [`Executor::grid`]:
/// simulated cells fan out (results are byte-identical to a sequential
/// sweep regardless of thread count), live cells run one at a time.
pub fn run_campaign(config: CampaignConfig, exec: Executor) -> Campaign {
    let cases = campaign_cases(config);
    let tolerance = config.tolerance;
    let outcomes = exec
        .grid()
        .run(cases, move |case| score_case(&case, tolerance, exec));
    let mut per_policy: BTreeMap<String, Scorecard> = POLICIES
        .iter()
        .map(|p| (p.to_string(), Scorecard::new()))
        .collect();
    for outcome in &outcomes {
        per_policy
            .get_mut(&outcome.case.policy)
            .expect("policy key")
            .absorb(&outcome.score);
    }
    Campaign {
        config,
        outcomes,
        per_policy,
    }
}

/// Severity key, higher = worse: conservation break outranks an
/// unrecovered job, which outranks dip depth, which outranks recovery
/// time.
fn severity(o: &CaseOutcome) -> (u8, u8, f64, f64) {
    let s = &o.score;
    (
        u8::from(!s.conservation_ok),
        u8::from(s.tracked_jobs > 0 && !s.all_recovered),
        1.0 - s.worst_dip_ratio,
        s.worst_recovery_secs.unwrap_or(0.0),
    )
}

/// The campaign's worst cells, most severe first (stable on ties, so the
/// ranking is as deterministic as the runs).
pub fn worst_cases(campaign: &Campaign, k: usize) -> Vec<&CaseOutcome> {
    let mut ranked: Vec<&CaseOutcome> = campaign.outcomes.iter().collect();
    ranked.sort_by(|a, b| {
        let (ka, kb) = (severity(a), severity(b));
        kb.0.cmp(&ka.0)
            .then(kb.1.cmp(&ka.1))
            .then(kb.2.total_cmp(&ka.2))
            .then(kb.3.total_cmp(&ka.3))
    });
    ranked.truncate(k);
    ranked
}

/// A `faults` block on one line (the block contains no string values, so
/// collapsing whitespace is lossless).
fn compact_faults(file: &ScenarioFile) -> String {
    faults_block_json(&file.faults)
        .split_whitespace()
        .collect::<Vec<_>>()
        .join(" ")
}

/// Render the campaign as the machine-readable `BENCH_chaos.json`.
///
/// Deliberately wall-clock free: every value is a pure function of the
/// campaign seed, so the same seed yields byte-identical text anywhere.
pub fn campaign_json(campaign: &Campaign) -> String {
    let c = &campaign.config;
    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"campaign_seed\": {},", c.seed);
    let _ = writeln!(json, "  \"plans_per_scenario\": {},", c.plans_per_scenario);
    let _ = writeln!(json, "  \"scale\": {},", c.scale);
    let _ = writeln!(json, "  \"tolerance\": {},", c.tolerance);
    let _ = writeln!(json, "  \"runs\": {},", campaign.outcomes.len());
    let violations = campaign
        .outcomes
        .iter()
        .filter(|o| o.score.violates())
        .count();
    let _ = writeln!(json, "  \"violations\": {violations},");
    json.push_str("  \"plans\": [\n");
    let mut seen = std::collections::BTreeSet::new();
    let mut first = true;
    for o in &campaign.outcomes {
        if !seen.insert((o.case.scenario.clone(), o.case.plan_index)) {
            continue;
        }
        if !first {
            json.push_str(",\n");
        }
        first = false;
        let _ = write!(
            json,
            "    {{ \"scenario\": \"{}\", \"plan\": {}, \"seed\": {}, \"faults\": {} }}",
            o.case.scenario,
            o.case.plan_index,
            o.case.case_seed,
            compact_faults(&o.case.file)
        );
    }
    json.push_str("\n  ],\n");
    json.push_str("  \"floors\": {\n");
    let mut first = true;
    for (policy, card) in &campaign.per_policy {
        if !first {
            json.push_str(",\n");
        }
        first = false;
        let _ = write!(
            json,
            "    \"{policy}\": {{ \"runs\": {}, \"worst_dip_ratio\": {:.4}, \
             \"worst_recovery_secs\": {:.4}, \"unrecovered_runs\": {}, \
             \"conservation_violations\": {} }}",
            card.runs,
            card.worst_dip_ratio,
            card.worst_recovery_secs,
            card.unrecovered_runs,
            card.conservation_violations
        );
    }
    json.push_str("\n  },\n");
    json.push_str("  \"worst_cases\": [\n");
    let mut first = true;
    for o in worst_cases(campaign, 5) {
        if !first {
            json.push_str(",\n");
        }
        first = false;
        let (wf, wu) = o.window.map_or((0.0, 0.0), |(f, u)| {
            (f.as_nanos() as f64 / 1e9, u.as_nanos() as f64 / 1e9)
        });
        let _ = write!(
            json,
            "    {{ \"scenario\": \"{}\", \"policy\": \"{}\", \"plan\": {}, \"seed\": {}, \
             \"violates\": {}, \"conservation_ok\": {}, \"all_recovered\": {}, \
             \"worst_dip_ratio\": {:.4}, \"worst_recovery_secs\": {}, \
             \"window_from_s\": {wf:.3}, \"window_until_s\": {wu:.3}, \"faults\": {} }}",
            o.case.scenario,
            o.case.policy,
            o.case.plan_index,
            o.case.case_seed,
            o.score.violates(),
            o.score.conservation_ok,
            o.score.all_recovered,
            o.score.worst_dip_ratio,
            o.score
                .worst_recovery_secs
                .map_or_else(|| "null".to_string(), |s| format!("{s:.4}")),
            compact_faults(&o.case.file)
        );
    }
    json.push_str("\n  ]\n}\n");
    json
}

/// How a floor row's checked-in value bounds the measured one.
#[derive(Debug, Clone, Copy)]
enum Bound {
    /// Measured may not fall below the floor value.
    AtLeast,
    /// Measured may not rise above the floor value.
    AtMost,
    /// Measured must equal the floor value (re-floor after an intentional
    /// reshape).
    Exactly,
}

/// One line of a floor file — `key value` — as `(key, measured, decimals
/// the value prints with, how the floor bounds it)`.
type FloorRow = (&'static str, f64, usize, Bound);

/// The rows a campaign on `exec` is held to.
///
/// A simulated campaign is bit-deterministic, so its floor
/// (`crates/bench/chaos_floor.txt`) is the adaptbf scorecard itself: the
/// dip may not deepen, recovery may not slow, and no new unrecovered runs
/// or conservation breaks may appear. A live campaign's floor
/// (`crates/bench/chaos_live_floor.txt`) is count-shaped: wall-clock
/// jitter moves dip depth and recovery time between runs, so pinning them
/// to four decimals would flake. What it pins instead: the grid size
/// (exact — the case expansion is deterministic), zero conservation
/// breaks (a pure bookkeeping invariant, independent of timing), and a
/// ceiling on resilience violations, both counted across all policies.
fn floor_rows(campaign: &Campaign, exec: Executor) -> Vec<FloorRow> {
    use Bound::{AtLeast, AtMost, Exactly};
    let count = |pred: fn(&RunScore) -> bool| {
        campaign.outcomes.iter().filter(|o| pred(&o.score)).count() as f64
    };
    match exec {
        Executor::Sim { .. } => {
            let card = &campaign.per_policy["adaptbf"];
            let (dip, recovery) = (card.worst_dip_ratio, card.worst_recovery_secs);
            let unrecovered = card.unrecovered_runs as f64;
            let broken = card.conservation_violations as f64;
            vec![
                ("adaptbf_worst_dip_ratio", dip, 4, AtLeast),
                ("adaptbf_worst_recovery_secs", recovery, 4, AtMost),
                ("adaptbf_unrecovered_runs", unrecovered, 0, AtMost),
                ("adaptbf_conservation_violations", broken, 0, AtMost),
            ]
        }
        Executor::Live => {
            let cases = campaign.outcomes.len() as f64;
            let broken = count(|s| !s.conservation_ok);
            let violating = count(RunScore::violates);
            vec![
                ("live_cases", cases, 0, Exactly),
                ("live_conservation_violations", broken, 0, AtMost),
                ("live_resilience_violations", violating, 0, AtMost),
            ]
        }
    }
}

/// The floor of a campaign that ran on `exec`, as the key-value text
/// checked in under `crates/bench/`.
pub fn floor_text(campaign: &Campaign, exec: Executor) -> String {
    let mut out = String::new();
    for (key, measured, decimals, _) in floor_rows(campaign, exec) {
        let _ = writeln!(out, "{key} {measured:.decimals$}");
    }
    out
}

/// Compare a campaign `run` on `exec` against its checked-in floor:
/// every row must be present (and no other), and each measured value must
/// sit on the right side of its floor value. A tiny epsilon only absorbs
/// the floor file's 4-decimal rounding; counts are whole numbers, so for
/// them the comparison is exact. A floor that holds comes back with one
/// warning per row measured more than 20 % inside its floor value: a
/// stale bound, which would let that much regression through.
pub fn check_floor(run: &Campaign, exec: Executor, floor: &str) -> Result<Vec<String>, String> {
    const EPS: f64 = 1e-4;
    let mut slack = Vec::new();
    let rows = floor_rows(run, exec);
    let mut values: BTreeMap<&str, f64> = BTreeMap::new();
    for line in floor.lines().map(str::trim).filter(|l| !l.is_empty()) {
        let (key, value) = line
            .split_once(' ')
            .ok_or_else(|| format!("malformed floor line `{line}`"))?;
        if !rows.iter().any(|row| row.0 == key) {
            return Err(format!("unknown floor key `{key}`"));
        }
        let value = value
            .trim()
            .parse()
            .map_err(|e| format!("bad floor value for `{key}`: {e}"))?;
        values.insert(key, value);
    }
    for (key, measured, decimals, bound) in rows {
        let floor = *values
            .get(key)
            .ok_or_else(|| format!("floor missing {key}"))?;
        let (broken, requires) = match bound {
            Bound::AtLeast => (measured < floor - EPS, "at least"),
            Bound::AtMost => (measured > floor + EPS, "at most"),
            Bound::Exactly => ((measured - floor).abs() > EPS, "exactly"),
        };
        if broken {
            return Err(format!(
                "{key} regressed: measured {measured:.decimals$}, \
                 floor requires {requires} {floor:.decimals$}"
            ));
        }
        if (measured - floor).abs() > 0.2 * floor.abs() + EPS {
            slack.push(format!(
                "{key} has over 20 % slack: measured {measured:.decimals$}, floor {floor:.decimals$}"
            ));
        }
    }
    Ok(slack)
}

/// Printable campaign summary table.
pub fn summary_table(campaign: &Campaign) -> String {
    let mut out = format!(
        "chaos campaign seed={} plans/scenario={} scale={} tolerance={}\n\
         {:<10} {:>5} {:>10} {:>14} {:>12} {:>13}\n",
        campaign.config.seed,
        campaign.config.plans_per_scenario,
        campaign.config.scale,
        campaign.config.tolerance,
        "policy",
        "runs",
        "worst_dip",
        "worst_recovery",
        "unrecovered",
        "conservation"
    );
    for (policy, card) in &campaign.per_policy {
        let _ = writeln!(
            out,
            "{policy:<10} {:>5} {:>10.4} {:>13.4}s {:>12} {:>13}",
            card.runs,
            card.worst_dip_ratio,
            card.worst_recovery_secs,
            card.unrecovered_runs,
            card.conservation_violations
        );
    }
    out
}

/// One oracle-checked run of a self-contained chaos scenario file.
#[derive(Debug, Clone)]
pub struct ScoredRun {
    /// The resilience score over the file's disturbance window.
    pub score: RunScore,
    /// Full body digest of the recorded report ([`report_body_digest`]) —
    /// what a golden test pins.
    pub body_digest: String,
}

/// The byte-exact record/replay contract the simulator guarantees (see
/// `sim/tests/proptests.rs` and `tests/trace_replay.rs`): per-job served
/// counts, the served timeline, and the audited fault-stats partition.
/// Release/completion bookkeeping is deliberately outside the contract —
/// a trace carries only arrivals that actually issued, so work a crash
/// left undelivered at the horizon is invisible to the replay.
fn oracle_digest(report: &RunReport) -> String {
    let m = &report.metrics;
    let fs = &report.fault_stats;
    let mut out = format!(
        "fault_stats resent={} lost_in_service={} rerouted={} parked={} undelivered={}\n",
        fs.resent, fs.lost_in_service, fs.rerouted, fs.parked, fs.undelivered
    );
    for (job, served) in m.served_by_job() {
        let _ = writeln!(out, "{job} served={served}");
    }
    m.write_csv(Timeline::Served, &mut out);
    out
}

/// Run a chaos scenario file with the record/replay oracle: the run is
/// recorded, replayed, and both must match byte-for-byte on the replay
/// contract (`oracle_digest`: served-by-job + served timeline +
/// fault-stats partition).
///
/// `None` when the file fails to plan (a shrink move can invalidate it) or
/// the replay diverges — either way the caller must not trust the
/// candidate.
pub fn scored_run(file: &ScenarioFile, tolerance: f64) -> Option<ScoredRun> {
    let plan = plan_file_run(file).ok()?;
    let ran = execute(&plan, Executor::Sim { shards: None }, true).ok()?;
    let (report, trace) = (ran.report, ran.trace?);
    let replayed = replay_report(
        &trace,
        plan.policy,
        plan.seed,
        replay_cluster_config(&trace),
    );
    if oracle_digest(&report) != oracle_digest(&replayed) {
        return None;
    }
    let window = disturbance_window(file, plan.scenario.duration);
    Some(ScoredRun {
        score: score_over(&report, window, tolerance),
        body_digest: report_body_digest(&report),
    })
}

/// A minimized violation.
#[derive(Debug, Clone)]
pub struct ShrinkOutcome {
    /// The smallest scenario file still violating.
    pub file: ScenarioFile,
    /// Its score.
    pub score: RunScore,
    /// Accepted shrink steps.
    pub steps: usize,
    /// Total oracle runs spent.
    pub runs: usize,
}

/// Greedily minimize a violating chaos scenario file: repeatedly try the
/// candidate moves of [`shrink_candidates`] and keep the first one that
/// still violates (with a clean record/replay), until none does.
///
/// Returns `None` if the input itself does not violate under the oracle.
pub fn shrink_case(file: &ScenarioFile, tolerance: f64) -> Option<ShrinkOutcome> {
    let baseline = scored_run(file, tolerance)?;
    if !baseline.score.violates() {
        return None;
    }
    let mut current = file.clone();
    let mut score = baseline.score;
    let mut steps = 0;
    let mut runs = 1;
    'fixpoint: while steps < 64 {
        for candidate in shrink_candidates(&current) {
            runs += 1;
            if let Some(scored) = scored_run(&candidate, tolerance) {
                if scored.score.violates() {
                    current = candidate;
                    score = scored.score;
                    steps += 1;
                    continue 'fixpoint;
                }
            }
        }
        break;
    }
    Some(ShrinkOutcome {
        file: current,
        score,
        steps,
        runs,
    })
}

fn half_ms(d: SimDuration) -> Option<SimDuration> {
    let ms = d.as_nanos() / 1_000_000 / 2;
    (ms > 0).then(|| SimDuration::from_millis(ms))
}

/// The shrink moves, in preference order: drop whole fault dimensions,
/// then narrow fault windows (ms-rounded halving, so candidates stay
/// byte-round-trippable), then shrink the workload itself.
pub fn shrink_candidates(file: &ScenarioFile) -> Vec<ScenarioFile> {
    let mut out = Vec::new();
    let mut push = |f: ScenarioFile| out.push(f);
    let faults = &file.faults;
    if faults.controller_stall.is_some() {
        let mut c = file.clone();
        c.faults.controller_stall = None;
        push(c);
    }
    if faults.stats_loss_every.is_some() {
        let mut c = file.clone();
        c.faults.stats_loss_every = None;
        push(c);
    }
    if faults.disk_degrade.is_some() {
        let mut c = file.clone();
        c.faults.disk_degrade = None;
        push(c);
    }
    if faults.ost_crash.is_some() {
        let mut c = file.clone();
        c.faults.ost_crash = None;
        push(c);
    }
    if faults.churn.is_some() {
        let mut c = file.clone();
        c.faults.churn = None;
        push(c);
    }
    if let Some(d) = faults.disk_degrade {
        if let Some(half) = half_ms(d.for_) {
            let mut c = file.clone();
            c.faults.disk_degrade = Some(adaptbf_workload::DegradeSpec { for_: half, ..d });
            push(c);
        }
    }
    if let Some(k) = faults.ost_crash {
        if let Some(half) = half_ms(k.for_) {
            let mut c = file.clone();
            c.faults.ost_crash = Some(adaptbf_workload::CrashSpec { for_: half, ..k });
            push(c);
        }
    }
    if let Some(s) = faults.controller_stall {
        if s.duration > 1 {
            let mut c = file.clone();
            c.faults.controller_stall = Some(adaptbf_workload::StallSpec {
                duration: s.duration / 2,
                ..s
            });
            push(c);
        }
    }
    if let Some(ch) = faults.churn {
        if let Some(half) = half_ms(ch.offline) {
            let mut c = file.clone();
            c.faults.churn = Some(adaptbf_workload::ChurnSpec {
                offline: half,
                ..ch
            });
            push(c);
        }
    }
    // Workload shrinks: fewer jobs, fewer processes, smaller files, a
    // shorter horizon.
    if file.jobs.len() > 1 {
        let mut c = file.clone();
        c.jobs.pop();
        push(c);
    }
    for (j, job) in file.jobs.iter().enumerate() {
        for (s, stream) in job.streams.iter().enumerate() {
            if stream.count > 1 {
                let mut c = file.clone();
                c.jobs[j].streams[s].count = stream.count / 2;
                push(c);
            }
            if let Some(rpcs) = stream.file_rpcs {
                if rpcs > 64 {
                    let mut c = file.clone();
                    c.jobs[j].streams[s].file_rpcs = Some(rpcs / 2);
                    push(c);
                }
            }
        }
    }
    if file.duration_secs > 2.0 {
        let mut c = file.clone();
        c.duration_secs = (file.duration_secs / 2.0).max(2.0);
        push(c);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn case_grid_is_scenarios_by_plans_by_policies() {
        let config = CampaignConfig {
            seed: 9,
            plans_per_scenario: 2,
            scale: 1.0 / 16.0,
            tolerance: 0.5,
        };
        let cases = campaign_cases(config);
        assert_eq!(cases.len(), 3 * 2 * 3);
        // Same plan is shared across the three policies of a cell.
        assert_eq!(cases[0].file.faults, cases[1].file.faults);
        assert_eq!(cases[0].file.faults, cases[2].file.faults);
        assert!(!cases[0].file.faults.is_none());
        // Every case file parses back from its canonical rendering.
        for case in &cases {
            let rendered = case.file.render();
            assert_eq!(ScenarioFile::parse(&rendered).unwrap(), case.file);
        }
    }

    #[test]
    fn case_seeds_differ_across_scenarios_and_plans() {
        let cases = campaign_cases(CampaignConfig::smoke(1));
        let mut seeds: Vec<u64> = cases.iter().map(|c| c.case_seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 3 * 3, "one distinct seed per (scenario, plan)");
    }

    /// Both floor shapes through the one row table: a campaign passes
    /// its own floor text without a warning; every row, pushed in its bad
    /// direction, fails naming its key, and far in its good direction,
    /// passes with one warning naming it; unknown keys, missing keys and
    /// malformed lines are rejected.
    #[test]
    fn floor_check_accepts_own_floor_and_rejects_each_regression() {
        let config = CampaignConfig::live_smoke(1);
        let clean_score = RunScore {
            tracked_jobs: 1,
            worst_dip_ratio: 0.8,
            all_recovered: true,
            worst_recovery_secs: Some(0.1),
            conservation_ok: true,
        };
        let mut campaign = Campaign {
            config,
            outcomes: campaign_cases(config)
                .into_iter()
                .map(|case| CaseOutcome {
                    case,
                    score: clean_score,
                    window: None,
                })
                .collect(),
            per_policy: POLICIES
                .iter()
                .map(|p| (p.to_string(), Scorecard::new()))
                .collect(),
        };
        fn card(c: &mut Campaign) -> &mut Scorecard {
            c.per_policy.get_mut("adaptbf").unwrap()
        }
        card(&mut campaign).runs = 4;
        card(&mut campaign).worst_dip_ratio = 0.25;
        card(&mut campaign).worst_recovery_secs = 1.5;

        type Regress = fn(&mut Campaign);
        let sim_regressions: [(&str, Regress); 4] = [
            ("adaptbf_worst_dip_ratio", |c| card(c).worst_dip_ratio = 0.1),
            ("adaptbf_worst_recovery_secs", |c| {
                card(c).worst_recovery_secs = 1.6
            }),
            ("adaptbf_unrecovered_runs", |c| card(c).unrecovered_runs = 1),
            ("adaptbf_conservation_violations", |c| {
                card(c).conservation_violations = 1
            }),
        ];
        let live_regressions: [(&str, Regress); 4] = [
            // A reshaped grid must be re-floored, not silently accepted —
            // in either direction.
            ("live_cases", |c| {
                c.outcomes.pop();
            }),
            ("live_cases", |c| c.outcomes.push(c.outcomes[0].clone())),
            // A conservation break is a hard failure.
            ("live_conservation_violations", |c| {
                c.outcomes[0].score.conservation_ok = false
            }),
            // An unrecovered tracked job exceeds the zero-violation ceiling.
            ("live_resilience_violations", |c| {
                c.outcomes[0].score.all_recovered = false
            }),
        ];
        for (exec, regressions) in [
            (Executor::Sim { shards: None }, &sim_regressions),
            (Executor::Live, &live_regressions),
        ] {
            let floor = floor_text(&campaign, exec);
            assert_eq!(check_floor(&campaign, exec, &floor), Ok(vec![]), "{floor}");
            let changed = |change: &Regress| {
                let mut other = Campaign {
                    config,
                    outcomes: campaign.outcomes.clone(),
                    per_policy: campaign.per_policy.clone(),
                };
                change(&mut other);
                check_floor(&other, exec, &floor)
            };
            for (key, regress) in regressions {
                assert!(floor.contains(&format!("{key} ")), "{floor}");
                let err = changed(regress).unwrap_err();
                assert!(err.starts_with(key), "{key}: {err}");
            }
            // Stale floors: the at-least and at-most rows with room to
            // improve warn past 20 %, not before; the exit is unchanged.
            let improvements: [(&str, Regress, Regress); 2] = [
                (
                    "adaptbf_worst_dip_ratio",
                    |c| card(c).worst_dip_ratio = 0.3,
                    |c| card(c).worst_dip_ratio = 0.31,
                ),
                (
                    "adaptbf_worst_recovery_secs",
                    |c| card(c).worst_recovery_secs = 1.2,
                    |c| card(c).worst_recovery_secs = 1.19,
                ),
            ];
            for (key, inside, past) in &improvements {
                let sim = matches!(exec, Executor::Sim { .. });
                assert_eq!(changed(inside), Ok(vec![]), "{key}");
                let warned = changed(past).unwrap();
                assert_eq!(warned.len(), usize::from(sim), "{warned:?}");
                assert!(warned.iter().all(|w| w.starts_with(key)), "{warned:?}");
            }
            let err = check_floor(&campaign, exec, "garbage").unwrap_err();
            assert!(err.contains("malformed"), "{err}");
            let err = check_floor(&campaign, exec, &format!("{floor}bogus_key 1\n")).unwrap_err();
            assert!(err.contains("unknown floor key"), "{err}");
            let first_line_gone = floor.split_once('\n').unwrap().1;
            let err = check_floor(&campaign, exec, first_line_gone).unwrap_err();
            assert!(err.contains("floor missing"), "{err}");
        }
        // The checked-in key sets and number formats.
        assert_eq!(
            floor_text(&campaign, Executor::Sim { shards: None }),
            "adaptbf_worst_dip_ratio 0.2500\nadaptbf_worst_recovery_secs 1.5000\n\
             adaptbf_unrecovered_runs 0\nadaptbf_conservation_violations 0\n"
        );
        assert_eq!(
            floor_text(&campaign, Executor::Live),
            "live_cases 9\nlive_conservation_violations 0\nlive_resilience_violations 0\n"
        );
    }
}
