//! The declarative scenario surface: JSON scenario files ⇄ [`Scenario`].
//!
//! Every built-in scenario (and any new one) is expressible as a plain
//! data file — no recompile needed. The format is documented in
//! `docs/SCENARIOS.md`; checked-in examples live under
//! `examples/scenarios/`. Sketch:
//!
//! ```json
//! {
//!   "name": "two_jobs",
//!   "description": "a hog and a burster",
//!   "duration_secs": 30,
//!   "jobs": [
//!     {"id": 1, "nodes": 1, "streams": [
//!       {"count": 8, "pattern": "continuous", "file_rpcs": 4096}
//!     ]},
//!     {"id": 2, "nodes": 15, "streams": [
//!       {"pattern": "burst", "start_secs": 1, "interval_secs": 2,
//!        "rpcs_per_burst": 160, "file_rpcs": 2048}
//!     ]}
//!   ],
//!   "run": {"seed": 42, "policy": "adaptbf", "period_ms": 100},
//!   "faults": {
//!     "ost_crash": {"ost": 1, "from_secs": 8, "for_secs": 4,
//!                   "resend_after_secs": 0.3}
//!   }
//! }
//! ```
//!
//! Arrival shapes: `continuous`, `delayed`, `burst` (open-loop periodic),
//! `burst_think` (closed-loop), `timed` (explicit chunk list — what a
//! replayed trace produces), and `diurnal` (authoring sugar: a cosine
//! day/night cycle that expands to `timed` chunks at build time).
//!
//! The optional `faults` block declares a deterministic disturbance
//! schedule ([`FaultPlan`]) the same way the `jobs` block declares the
//! workload: `controller_stall`, `stats_loss_every`, `disk_degrade`,
//! `ost_crash` and `job_churn` (see `docs/SCENARIOS.md` for the full
//! reference).
//!
//! The optional `tuning` block ([`TuningSpec`]) pins live-runtime testbed
//! knobs that have no simulator meaning — RPC payload bytes, the emulated
//! service quantum, the client send batch — parsed with the same strictness as
//! `faults` (unknown keys are errors) and rendered canonically.
//!
//! Rendering is canonical: [`ScenarioFile::render`] after
//! [`ScenarioFile::parse`] reproduces a canonical file byte-for-byte
//! (asserted by golden-file tests).

use crate::faults::{ChurnSpec, CrashSpec, DegradeSpec, FaultPlan, StallSpec};
use crate::job::{JobSpec, ProcessSpec, DEFAULT_MAX_INFLIGHT};
use crate::json::{Json, JsonError};
use crate::pattern::{IoPattern, WorkChunk};
use crate::scenario::Scenario;
use adaptbf_model::{JobId, SimDuration, SimTime};
use std::fmt;

/// A scenario-file failure: parse errors, schema violations, or semantic
/// validation failures (duplicate job ids, zero durations, …).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DslError(pub String);

impl fmt::Display for DslError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "scenario file error: {}", self.0)
    }
}

impl std::error::Error for DslError {}

impl From<JsonError> for DslError {
    fn from(e: JsonError) -> Self {
        DslError(e.to_string())
    }
}

fn err(msg: impl Into<String>) -> DslError {
    DslError(msg.into())
}

/// The declarative form of one arrival pattern.
#[derive(Debug, Clone, PartialEq)]
pub enum PatternSpec {
    /// Whole file ready at t=0.
    Continuous,
    /// Whole file ready after a delay.
    Delayed {
        /// Seconds until the stream switches on.
        delay_secs: f64,
    },
    /// Open-loop periodic bursts.
    Burst {
        /// First burst instant, seconds.
        start_secs: f64,
        /// Gap between burst starts, seconds.
        interval_secs: f64,
        /// Burst magnitude in RPCs.
        rpcs_per_burst: u64,
    },
    /// Closed-loop bursts (think after each burst completes).
    BurstThink {
        /// First burst instant, seconds.
        start_secs: f64,
        /// Think time after each completed burst, seconds.
        think_secs: f64,
        /// Burst magnitude in RPCs.
        rpcs_per_burst: u64,
    },
    /// Explicit `[at_secs, rpcs]` chunks, sorted by time.
    Timed {
        /// The arrival chunks as `(at_secs, rpcs)` pairs.
        chunks: Vec<(f64, u64)>,
    },
    /// A cosine day/night arrival cycle: bursts every `interval_secs`
    /// whose magnitude swings between `trough_rpcs` and `peak_rpcs` over
    /// `period_secs`. Expands to [`IoPattern::Timed`] chunks.
    Diurnal {
        /// First burst instant, seconds.
        start_secs: f64,
        /// Gap between bursts, seconds.
        interval_secs: f64,
        /// Length of one day/night cycle, seconds.
        period_secs: f64,
        /// Burst magnitude at the peak of the cycle.
        peak_rpcs: u64,
        /// Burst magnitude at the trough of the cycle.
        trough_rpcs: u64,
    },
}

impl PatternSpec {
    /// The file-format tag for this shape.
    pub fn kind(&self) -> &'static str {
        match self {
            PatternSpec::Continuous => "continuous",
            PatternSpec::Delayed { .. } => "delayed",
            PatternSpec::Burst { .. } => "burst",
            PatternSpec::BurstThink { .. } => "burst_think",
            PatternSpec::Timed { .. } => "timed",
            PatternSpec::Diurnal { .. } => "diurnal",
        }
    }

    /// Build the runtime [`IoPattern`]. `duration` bounds the expansion of
    /// generated shapes (`diurnal`).
    pub fn to_pattern(&self, duration: SimDuration) -> Result<IoPattern, DslError> {
        let time = |secs: f64| -> Result<SimTime, DslError> {
            if !(secs >= 0.0 && secs.is_finite()) {
                return Err(err(format!("invalid time {secs}")));
            }
            Ok(SimTime::ZERO + SimDuration::from_secs_f64(secs))
        };
        let span = |secs: f64, what: &str| -> Result<SimDuration, DslError> {
            if !(secs > 0.0 && secs.is_finite()) {
                return Err(err(format!("{what} must be positive, got {secs}")));
            }
            Ok(SimDuration::from_secs_f64(secs))
        };
        Ok(match *self {
            PatternSpec::Continuous => IoPattern::Continuous,
            PatternSpec::Delayed { delay_secs } => IoPattern::DelayedContinuous {
                delay: time(delay_secs)?,
            },
            PatternSpec::Burst {
                start_secs,
                interval_secs,
                rpcs_per_burst,
            } => {
                if rpcs_per_burst == 0 {
                    return Err(err("rpcs_per_burst must be positive"));
                }
                IoPattern::PeriodicBurst {
                    start: time(start_secs)?,
                    interval: span(interval_secs, "interval_secs")?,
                    rpcs_per_burst,
                }
            }
            PatternSpec::BurstThink {
                start_secs,
                think_secs,
                rpcs_per_burst,
            } => {
                if rpcs_per_burst == 0 {
                    return Err(err("rpcs_per_burst must be positive"));
                }
                IoPattern::BurstThenThink {
                    start: time(start_secs)?,
                    think: span(think_secs, "think_secs")?,
                    rpcs_per_burst,
                }
            }
            PatternSpec::Timed { ref chunks } => {
                let mut out = Vec::with_capacity(chunks.len());
                for &(at_secs, rpcs) in chunks {
                    out.push(WorkChunk {
                        at: time(at_secs)?,
                        rpcs,
                    });
                }
                if !out.windows(2).all(|w| w[0].at <= w[1].at) {
                    return Err(err("timed chunks must be sorted by at_secs"));
                }
                IoPattern::Timed(out)
            }
            PatternSpec::Diurnal {
                start_secs,
                interval_secs,
                period_secs,
                peak_rpcs,
                trough_rpcs,
            } => {
                let interval = span(interval_secs, "interval_secs")?;
                let period = span(period_secs, "period_secs")?;
                if peak_rpcs < trough_rpcs {
                    return Err(err("peak_rpcs must be >= trough_rpcs"));
                }
                let mut at = time(start_secs)?;
                let end = SimTime::ZERO + duration;
                let mut chunks = Vec::new();
                while at < end {
                    let phase = (at - time(start_secs)?).as_secs_f64() / period.as_secs_f64();
                    let swing = (1.0 - (2.0 * std::f64::consts::PI * phase).cos()) / 2.0;
                    let rpcs = trough_rpcs as f64 + (peak_rpcs - trough_rpcs) as f64 * swing;
                    let rpcs = rpcs.round() as u64;
                    if rpcs > 0 {
                        chunks.push(WorkChunk { at, rpcs });
                    }
                    at += interval;
                }
                IoPattern::Timed(chunks)
            }
        })
    }

    /// The declarative form of a runtime pattern (used to express built-in
    /// scenarios as data).
    pub fn from_pattern(pattern: &IoPattern) -> PatternSpec {
        match pattern {
            IoPattern::Continuous => PatternSpec::Continuous,
            IoPattern::DelayedContinuous { delay } => PatternSpec::Delayed {
                delay_secs: delay.as_secs_f64(),
            },
            IoPattern::PeriodicBurst {
                start,
                interval,
                rpcs_per_burst,
            } => PatternSpec::Burst {
                start_secs: start.as_secs_f64(),
                interval_secs: interval.as_secs_f64(),
                rpcs_per_burst: *rpcs_per_burst,
            },
            IoPattern::BurstThenThink {
                start,
                think,
                rpcs_per_burst,
            } => PatternSpec::BurstThink {
                start_secs: start.as_secs_f64(),
                think_secs: think.as_secs_f64(),
                rpcs_per_burst: *rpcs_per_burst,
            },
            IoPattern::Timed(chunks) => PatternSpec::Timed {
                chunks: chunks
                    .iter()
                    .map(|c| (c.at.as_secs_f64(), c.rpcs))
                    .collect(),
            },
        }
    }
}

/// One (possibly repeated) I/O stream of a job.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamSpec {
    /// How many identical processes run this stream (default 1).
    pub count: usize,
    /// The arrival shape.
    pub pattern: PatternSpec,
    /// File size in RPCs; optional for `timed`/`diurnal` (defaults to the
    /// sum of the expanded chunks).
    pub file_rpcs: Option<u64>,
    /// `max_rpcs_in_flight` (default 8).
    pub max_inflight: usize,
}

/// One job in a scenario file.
#[derive(Debug, Clone, PartialEq)]
pub struct JobFileSpec {
    /// The job id.
    pub id: u32,
    /// Compute-node count (the priority weight).
    pub nodes: u64,
    /// The job's streams.
    pub streams: Vec<StreamSpec>,
}

/// Controller / cluster knobs a scenario file may pin. All fields are
/// optional; consumers fill in paper defaults (and command lines may
/// override them).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RunSpec {
    /// RNG seed.
    pub seed: Option<u64>,
    /// `no_bw`, `static_bw` or `adaptbf`.
    pub policy: Option<String>,
    /// AdapTBF observation period `Δt` in milliseconds.
    pub period_ms: Option<u64>,
    /// Client nodes the processes spread over.
    pub n_clients: Option<usize>,
    /// OSTs in the cluster (one controller each).
    pub n_osts: Option<usize>,
    /// Stripe width: sequential RPCs round-robin over this many OSTs.
    pub stripe_count: Option<usize>,
}

impl RunSpec {
    /// Whether no knob is set (the `run` object can be omitted).
    pub fn is_empty(&self) -> bool {
        *self == RunSpec::default()
    }
}

/// Live-testbed knobs a scenario file may pin (the `tuning` block). These
/// only matter to the threaded runtime — the simulator ignores them — but
/// they are part of the scenario file so a live experiment is fully
/// described by one artifact. All fields are optional; consumers fill in
/// the `LiveTuning` defaults.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TuningSpec {
    /// Payload bytes each RPC carries over the channel.
    pub payload_bytes: Option<u64>,
    /// Target mean service time per RPC in microseconds (the emulated
    /// disk's per-RPC quantum at nominal bandwidth).
    pub service_quantum_us: Option<u64>,
    /// Largest RPC batch a client puts in one channel message (1 = the
    /// legacy one-message-per-RPC data path).
    pub send_batch: Option<u64>,
}

impl TuningSpec {
    /// Whether no knob is set (the `tuning` object can be omitted).
    pub fn is_empty(&self) -> bool {
        *self == TuningSpec::default()
    }

    /// Semantic validation: zero payloads or quanta are authoring errors.
    pub fn validate(&self) -> Result<(), String> {
        if self.payload_bytes == Some(0) {
            return Err("tuning: payload_bytes must be positive".into());
        }
        if self.service_quantum_us == Some(0) {
            return Err("tuning: service_quantum_us must be positive".into());
        }
        if self.send_batch == Some(0) {
            return Err("tuning: send_batch must be positive".into());
        }
        Ok(())
    }
}

/// A parsed declarative scenario file.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioFile {
    /// Scenario name (report/CSV label).
    pub name: String,
    /// Human description.
    pub description: String,
    /// Simulated horizon in seconds.
    pub duration_secs: f64,
    /// The competing jobs.
    pub jobs: Vec<JobFileSpec>,
    /// Optional controller/cluster knobs.
    pub run: RunSpec,
    /// Optional deterministic fault schedule (controller stalls, stats
    /// loss, disk degradation, OST crash/recovery, process churn).
    pub faults: FaultPlan,
    /// Optional live-testbed knobs (payload bytes, service quantum,
    /// send batch). Ignored by the simulator.
    pub tuning: TuningSpec,
}

impl ScenarioFile {
    /// Parse a scenario file from JSON text (strict: unknown keys error).
    pub fn parse(text: &str) -> Result<ScenarioFile, DslError> {
        let root = Json::parse(text)?;
        let obj = as_obj(&root, "top level")?;
        check_keys(
            obj,
            &[
                "name",
                "description",
                "duration_secs",
                "jobs",
                "run",
                "faults",
                "tuning",
            ],
            "top level",
        )?;
        let name = req_str(&root, "name")?;
        let description = opt_str(&root, "description")?.unwrap_or_default();
        let duration_secs = req_f64(&root, "duration_secs")?;
        if !(duration_secs > 0.0 && duration_secs.is_finite()) {
            return Err(err("duration_secs must be positive"));
        }
        let jobs_json = root
            .get("jobs")
            .and_then(Json::as_arr)
            .ok_or_else(|| err("`jobs` must be an array"))?;
        if jobs_json.is_empty() {
            return Err(err("`jobs` must not be empty"));
        }
        let mut jobs = Vec::with_capacity(jobs_json.len());
        for (i, j) in jobs_json.iter().enumerate() {
            jobs.push(parse_job(j).map_err(|e| err(format!("jobs[{i}]: {}", e.0)))?);
        }
        let run = match root.get("run") {
            None => RunSpec::default(),
            Some(r) => parse_run(r)?,
        };
        let faults = match root.get("faults") {
            None => FaultPlan::none(),
            Some(f) => parse_faults(f)?,
        };
        faults.validate().map_err(|e| err(format!("faults: {e}")))?;
        let tuning = match root.get("tuning") {
            None => TuningSpec::default(),
            Some(t) => parse_tuning(t)?,
        };
        tuning.validate().map_err(err)?;
        Ok(ScenarioFile {
            name,
            description,
            duration_secs,
            jobs,
            run,
            faults,
            tuning,
        })
    }

    /// Render the canonical JSON form (stable key order, 2-space indent,
    /// trailing newline). `parse` ∘ `render` is the identity.
    pub fn render(&self) -> String {
        let mut top = vec![
            ("name", Json::str(&self.name)),
            ("description", Json::str(&self.description)),
            ("duration_secs", Json::Num(self.duration_secs)),
        ];
        let jobs = self
            .jobs
            .iter()
            .map(|j| {
                Json::obj(vec![
                    ("id", Json::num_u64(j.id as u64)),
                    ("nodes", Json::num_u64(j.nodes)),
                    (
                        "streams",
                        Json::Arr(j.streams.iter().map(render_stream).collect()),
                    ),
                ])
            })
            .collect();
        top.push(("jobs", Json::Arr(jobs)));
        if !self.run.is_empty() {
            let mut run = Vec::new();
            if let Some(seed) = self.run.seed {
                run.push(("seed", Json::num_u64(seed)));
            }
            if let Some(ref policy) = self.run.policy {
                run.push(("policy", Json::str(policy)));
            }
            if let Some(period_ms) = self.run.period_ms {
                run.push(("period_ms", Json::num_u64(period_ms)));
            }
            if let Some(n_clients) = self.run.n_clients {
                run.push(("n_clients", Json::num_u64(n_clients as u64)));
            }
            if let Some(n_osts) = self.run.n_osts {
                run.push(("n_osts", Json::num_u64(n_osts as u64)));
            }
            if let Some(stripe_count) = self.run.stripe_count {
                run.push(("stripe_count", Json::num_u64(stripe_count as u64)));
            }
            top.push(("run", Json::obj(run)));
        }
        if !self.faults.is_none() {
            top.push(("faults", render_faults(&self.faults)));
        }
        if !self.tuning.is_empty() {
            top.push(("tuning", render_tuning(&self.tuning)));
        }
        Json::obj(top).render()
    }

    /// Build the runnable [`Scenario`]. Validates ids, nodes, and pattern
    /// parameters, returning errors instead of panicking.
    pub fn to_scenario(&self) -> Result<Scenario, DslError> {
        let duration = SimDuration::from_secs_f64(self.duration_secs);
        let mut seen = std::collections::BTreeSet::new();
        let mut jobs = Vec::with_capacity(self.jobs.len());
        for j in &self.jobs {
            if !seen.insert(j.id) {
                return Err(err(format!("duplicate job id {}", j.id)));
            }
            if j.nodes == 0 {
                return Err(err(format!("job {} must occupy at least one node", j.id)));
            }
            let mut processes = Vec::new();
            for s in &j.streams {
                if s.count == 0 {
                    return Err(err(format!("job {}: stream count must be >= 1", j.id)));
                }
                if s.max_inflight == 0 {
                    return Err(err(format!("job {}: max_inflight must be >= 1", j.id)));
                }
                let pattern = s
                    .pattern
                    .to_pattern(duration)
                    .map_err(|e| err(format!("job {}: {}", j.id, e.0)))?;
                let file_rpcs = match s.file_rpcs {
                    Some(n) => n,
                    None => match &pattern {
                        IoPattern::Timed(chunks) => chunks.iter().map(|c| c.rpcs).sum(),
                        _ => {
                            return Err(err(format!(
                                "job {}: `file_rpcs` is required for `{}` streams",
                                j.id,
                                s.pattern.kind()
                            )))
                        }
                    },
                };
                let spec = ProcessSpec {
                    pattern,
                    file_rpcs,
                    max_inflight: s.max_inflight,
                };
                for _ in 0..s.count {
                    processes.push(spec.clone());
                }
            }
            if processes.is_empty() {
                return Err(err(format!("job {} has no streams", j.id)));
            }
            jobs.push(JobSpec {
                id: JobId(j.id),
                nodes: j.nodes,
                processes,
            });
        }
        Ok(Scenario::new(
            self.name.clone(),
            self.description.clone(),
            jobs,
            duration,
        ))
    }

    /// Express a programmatic scenario as data. Consecutive identical
    /// process specs compress into one stream with a `count`, so uniform
    /// jobs stay readable. `from_scenario(s).to_scenario() == s`.
    pub fn from_scenario(scenario: &Scenario) -> ScenarioFile {
        let jobs = scenario
            .jobs
            .iter()
            .map(|j| {
                let mut streams: Vec<StreamSpec> = Vec::new();
                for p in &j.processes {
                    let spec = StreamSpec {
                        count: 1,
                        pattern: PatternSpec::from_pattern(&p.pattern),
                        file_rpcs: Some(p.file_rpcs),
                        max_inflight: p.max_inflight,
                    };
                    match streams.last_mut() {
                        Some(last)
                            if last.pattern == spec.pattern
                                && last.file_rpcs == spec.file_rpcs
                                && last.max_inflight == spec.max_inflight =>
                        {
                            last.count += 1;
                        }
                        _ => streams.push(spec),
                    }
                }
                JobFileSpec {
                    id: j.id.raw(),
                    nodes: j.nodes,
                    streams,
                }
            })
            .collect();
        ScenarioFile {
            name: scenario.name.clone(),
            description: scenario.description.clone(),
            duration_secs: scenario.duration.as_secs_f64(),
            jobs,
            run: RunSpec::default(),
            faults: FaultPlan::none(),
            tuning: TuningSpec::default(),
        }
    }
}

fn as_obj<'a>(v: &'a Json, what: &str) -> Result<&'a [(String, Json)], DslError> {
    match v {
        Json::Obj(pairs) => Ok(pairs),
        _ => Err(err(format!("{what} must be an object"))),
    }
}

fn check_keys(pairs: &[(String, Json)], allowed: &[&str], what: &str) -> Result<(), DslError> {
    for (k, _) in pairs {
        if !allowed.contains(&k.as_str()) {
            return Err(err(format!(
                "{what}: unknown key `{k}` (allowed: {})",
                allowed.join(", ")
            )));
        }
    }
    Ok(())
}

fn req_str(v: &Json, key: &str) -> Result<String, DslError> {
    v.get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| err(format!("`{key}` must be a string")))
}

fn opt_str(v: &Json, key: &str) -> Result<Option<String>, DslError> {
    match v.get(key) {
        None => Ok(None),
        Some(s) => s
            .as_str()
            .map(|s| Some(s.to_string()))
            .ok_or_else(|| err(format!("`{key}` must be a string"))),
    }
}

fn req_f64(v: &Json, key: &str) -> Result<f64, DslError> {
    v.get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| err(format!("`{key}` must be a number")))
}

fn req_u64(v: &Json, key: &str) -> Result<u64, DslError> {
    v.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| err(format!("`{key}` must be a non-negative integer")))
}

fn opt_u64(v: &Json, key: &str) -> Result<Option<u64>, DslError> {
    match v.get(key) {
        None => Ok(None),
        Some(n) => n
            .as_u64()
            .map(Some)
            .ok_or_else(|| err(format!("`{key}` must be a non-negative integer"))),
    }
}

fn parse_job(v: &Json) -> Result<JobFileSpec, DslError> {
    let obj = as_obj(v, "job")?;
    check_keys(obj, &["id", "nodes", "streams"], "job")?;
    let id = req_u64(v, "id")?;
    if id > u32::MAX as u64 {
        return Err(err("`id` must fit in 32 bits"));
    }
    let nodes = req_u64(v, "nodes")?;
    let streams_json = v
        .get("streams")
        .and_then(Json::as_arr)
        .ok_or_else(|| err("`streams` must be an array"))?;
    let mut streams = Vec::with_capacity(streams_json.len());
    for (i, s) in streams_json.iter().enumerate() {
        streams.push(parse_stream(s).map_err(|e| err(format!("streams[{i}]: {}", e.0)))?);
    }
    Ok(JobFileSpec {
        id: id as u32,
        nodes,
        streams,
    })
}

fn parse_stream(v: &Json) -> Result<StreamSpec, DslError> {
    let obj = as_obj(v, "stream")?;
    let kind = req_str(v, "pattern")?;
    let (pattern, pattern_keys): (PatternSpec, &[&str]) = match kind.as_str() {
        "continuous" => (PatternSpec::Continuous, &[]),
        "delayed" => (
            PatternSpec::Delayed {
                delay_secs: req_f64(v, "delay_secs")?,
            },
            &["delay_secs"],
        ),
        "burst" => (
            PatternSpec::Burst {
                start_secs: req_f64(v, "start_secs")?,
                interval_secs: req_f64(v, "interval_secs")?,
                rpcs_per_burst: req_u64(v, "rpcs_per_burst")?,
            },
            &["start_secs", "interval_secs", "rpcs_per_burst"],
        ),
        "burst_think" => (
            PatternSpec::BurstThink {
                start_secs: req_f64(v, "start_secs")?,
                think_secs: req_f64(v, "think_secs")?,
                rpcs_per_burst: req_u64(v, "rpcs_per_burst")?,
            },
            &["start_secs", "think_secs", "rpcs_per_burst"],
        ),
        "timed" => {
            let chunks_json = v
                .get("chunks")
                .and_then(Json::as_arr)
                .ok_or_else(|| err("`chunks` must be an array of [at_secs, rpcs] pairs"))?;
            let mut chunks = Vec::with_capacity(chunks_json.len());
            for c in chunks_json {
                let pair = c
                    .as_arr()
                    .filter(|p| p.len() == 2)
                    .ok_or_else(|| err("each chunk must be a two-element [at_secs, rpcs] array"))?;
                let at_secs = pair[0]
                    .as_f64()
                    .ok_or_else(|| err("chunk at_secs must be a number"))?;
                let rpcs = pair[1]
                    .as_u64()
                    .ok_or_else(|| err("chunk rpcs must be a non-negative integer"))?;
                chunks.push((at_secs, rpcs));
            }
            (PatternSpec::Timed { chunks }, &["chunks"])
        }
        "diurnal" => (
            PatternSpec::Diurnal {
                start_secs: req_f64(v, "start_secs")?,
                interval_secs: req_f64(v, "interval_secs")?,
                period_secs: req_f64(v, "period_secs")?,
                peak_rpcs: req_u64(v, "peak_rpcs")?,
                trough_rpcs: req_u64(v, "trough_rpcs")?,
            },
            &[
                "start_secs",
                "interval_secs",
                "period_secs",
                "peak_rpcs",
                "trough_rpcs",
            ],
        ),
        other => {
            return Err(err(format!(
                "unknown pattern `{other}` (continuous, delayed, burst, \
                 burst_think, timed, diurnal)"
            )))
        }
    };
    let mut allowed = vec!["count", "pattern", "file_rpcs", "max_inflight"];
    allowed.extend_from_slice(pattern_keys);
    check_keys(obj, &allowed, "stream")?;
    let count = opt_u64(v, "count")?.unwrap_or(1);
    let max_inflight = opt_u64(v, "max_inflight")?.unwrap_or(DEFAULT_MAX_INFLIGHT as u64);
    Ok(StreamSpec {
        count: count as usize,
        pattern,
        file_rpcs: opt_u64(v, "file_rpcs")?,
        max_inflight: max_inflight as usize,
    })
}

fn parse_run(v: &Json) -> Result<RunSpec, DslError> {
    let obj = as_obj(v, "run")?;
    check_keys(
        obj,
        &[
            "seed",
            "policy",
            "period_ms",
            "n_clients",
            "n_osts",
            "stripe_count",
        ],
        "run",
    )?;
    let policy = opt_str(v, "policy")?;
    if let Some(ref p) = policy {
        if !["no_bw", "static_bw", "adaptbf"].contains(&p.as_str()) {
            return Err(err(format!(
                "unknown policy `{p}` (no_bw, static_bw, adaptbf)"
            )));
        }
    }
    Ok(RunSpec {
        seed: opt_u64(v, "seed")?,
        policy,
        period_ms: opt_u64(v, "period_ms")?,
        n_clients: opt_u64(v, "n_clients")?.map(|n| n as usize),
        n_osts: opt_u64(v, "n_osts")?.map(|n| n as usize),
        stripe_count: opt_u64(v, "stripe_count")?.map(|n| n as usize),
    })
}

/// Canonical JSON text of a standalone `faults` block — byte-identical to
/// what [`ScenarioFile::render`] writes for the block inside a full
/// scenario file. The chaos campaign report embeds plans with this, and
/// [`parse_faults_block`] inverts it exactly.
pub fn faults_block_json(plan: &FaultPlan) -> String {
    render_faults(plan).render()
}

/// Strict-parse a standalone `faults` block (the inverse of
/// [`faults_block_json`]): unknown keys are errors and the parsed plan
/// must pass [`FaultPlan::validate`].
pub fn parse_faults_block(text: &str) -> Result<FaultPlan, DslError> {
    let v = Json::parse(text)?;
    let plan = parse_faults(&v)?;
    plan.validate().map_err(err)?;
    Ok(plan)
}

fn parse_faults(v: &Json) -> Result<FaultPlan, DslError> {
    let obj = as_obj(v, "faults")?;
    check_keys(
        obj,
        &[
            "controller_stall",
            "stats_loss_every",
            "disk_degrade",
            "ost_crash",
            "job_churn",
        ],
        "faults",
    )?;
    let span = |secs: f64, what: &str| -> Result<SimDuration, DslError> {
        if !(secs > 0.0 && secs.is_finite()) {
            return Err(err(format!("faults: {what} must be positive, got {secs}")));
        }
        Ok(SimDuration::from_secs_f64(secs))
    };
    let instant = |secs: f64, what: &str| -> Result<SimTime, DslError> {
        if !(secs >= 0.0 && secs.is_finite()) {
            return Err(err(format!("faults: invalid {what} {secs}")));
        }
        Ok(SimTime::ZERO + SimDuration::from_secs_f64(secs))
    };
    let controller_stall = match v.get("controller_stall") {
        None => None,
        Some(s) => {
            check_keys(
                as_obj(s, "controller_stall")?,
                &["every", "duration"],
                "controller_stall",
            )?;
            Some(StallSpec {
                every: req_u64(s, "every")?,
                duration: req_u64(s, "duration")?,
            })
        }
    };
    let disk_degrade = match v.get("disk_degrade") {
        None => None,
        Some(d) => {
            check_keys(
                as_obj(d, "disk_degrade")?,
                &["from_secs", "for_secs", "factor"],
                "disk_degrade",
            )?;
            Some(DegradeSpec {
                from: instant(req_f64(d, "from_secs")?, "from_secs")?,
                for_: span(req_f64(d, "for_secs")?, "for_secs")?,
                factor: req_f64(d, "factor")?,
            })
        }
    };
    let ost_crash = match v.get("ost_crash") {
        None => None,
        Some(c) => {
            check_keys(
                as_obj(c, "ost_crash")?,
                &["ost", "from_secs", "for_secs", "resend_after_secs"],
                "ost_crash",
            )?;
            Some(CrashSpec {
                ost: req_u64(c, "ost")? as usize,
                from: instant(req_f64(c, "from_secs")?, "from_secs")?,
                for_: span(req_f64(c, "for_secs")?, "for_secs")?,
                resend_after: span(req_f64(c, "resend_after_secs")?, "resend_after_secs")?,
            })
        }
    };
    let churn = match v.get("job_churn") {
        None => None,
        Some(c) => {
            check_keys(
                as_obj(c, "job_churn")?,
                &["every_secs", "offline_secs", "stride"],
                "job_churn",
            )?;
            Some(ChurnSpec {
                every: span(req_f64(c, "every_secs")?, "every_secs")?,
                offline: span(req_f64(c, "offline_secs")?, "offline_secs")?,
                stride: req_u64(c, "stride")? as usize,
            })
        }
    };
    Ok(FaultPlan {
        controller_stall,
        stats_loss_every: opt_u64(v, "stats_loss_every")?,
        disk_degrade,
        ost_crash,
        churn,
    })
}

fn render_faults(f: &FaultPlan) -> Json {
    let mut pairs: Vec<(&str, Json)> = Vec::new();
    if let Some(StallSpec { every, duration }) = f.controller_stall {
        pairs.push((
            "controller_stall",
            Json::obj(vec![
                ("every", Json::num_u64(every)),
                ("duration", Json::num_u64(duration)),
            ]),
        ));
    }
    if let Some(n) = f.stats_loss_every {
        pairs.push(("stats_loss_every", Json::num_u64(n)));
    }
    if let Some(DegradeSpec { from, for_, factor }) = f.disk_degrade {
        pairs.push((
            "disk_degrade",
            Json::obj(vec![
                ("from_secs", Json::Num(from.as_secs_f64())),
                ("for_secs", Json::Num(for_.as_secs_f64())),
                ("factor", Json::Num(factor)),
            ]),
        ));
    }
    if let Some(CrashSpec {
        ost,
        from,
        for_,
        resend_after,
    }) = f.ost_crash
    {
        pairs.push((
            "ost_crash",
            Json::obj(vec![
                ("ost", Json::num_u64(ost as u64)),
                ("from_secs", Json::Num(from.as_secs_f64())),
                ("for_secs", Json::Num(for_.as_secs_f64())),
                ("resend_after_secs", Json::Num(resend_after.as_secs_f64())),
            ]),
        ));
    }
    if let Some(ChurnSpec {
        every,
        offline,
        stride,
    }) = f.churn
    {
        pairs.push((
            "job_churn",
            Json::obj(vec![
                ("every_secs", Json::Num(every.as_secs_f64())),
                ("offline_secs", Json::Num(offline.as_secs_f64())),
                ("stride", Json::num_u64(stride as u64)),
            ]),
        ));
    }
    Json::obj(pairs)
}

fn parse_tuning(v: &Json) -> Result<TuningSpec, DslError> {
    let obj = as_obj(v, "tuning")?;
    check_keys(
        obj,
        &["payload_bytes", "service_quantum_us", "send_batch"],
        "tuning",
    )?;
    Ok(TuningSpec {
        payload_bytes: opt_u64(v, "payload_bytes")?,
        service_quantum_us: opt_u64(v, "service_quantum_us")?,
        send_batch: opt_u64(v, "send_batch")?,
    })
}

fn render_tuning(t: &TuningSpec) -> Json {
    let mut pairs: Vec<(&str, Json)> = Vec::new();
    if let Some(n) = t.payload_bytes {
        pairs.push(("payload_bytes", Json::num_u64(n)));
    }
    if let Some(us) = t.service_quantum_us {
        pairs.push(("service_quantum_us", Json::num_u64(us)));
    }
    if let Some(n) = t.send_batch {
        pairs.push(("send_batch", Json::num_u64(n)));
    }
    Json::obj(pairs)
}

fn render_stream(s: &StreamSpec) -> Json {
    let mut pairs: Vec<(&str, Json)> = Vec::new();
    if s.count != 1 {
        pairs.push(("count", Json::num_u64(s.count as u64)));
    }
    pairs.push(("pattern", Json::str(s.pattern.kind())));
    match &s.pattern {
        PatternSpec::Continuous => {}
        PatternSpec::Delayed { delay_secs } => {
            pairs.push(("delay_secs", Json::Num(*delay_secs)));
        }
        PatternSpec::Burst {
            start_secs,
            interval_secs,
            rpcs_per_burst,
        } => {
            pairs.push(("start_secs", Json::Num(*start_secs)));
            pairs.push(("interval_secs", Json::Num(*interval_secs)));
            pairs.push(("rpcs_per_burst", Json::num_u64(*rpcs_per_burst)));
        }
        PatternSpec::BurstThink {
            start_secs,
            think_secs,
            rpcs_per_burst,
        } => {
            pairs.push(("start_secs", Json::Num(*start_secs)));
            pairs.push(("think_secs", Json::Num(*think_secs)));
            pairs.push(("rpcs_per_burst", Json::num_u64(*rpcs_per_burst)));
        }
        PatternSpec::Timed { chunks } => {
            pairs.push((
                "chunks",
                Json::Arr(
                    chunks
                        .iter()
                        .map(|&(at, rpcs)| Json::Arr(vec![Json::Num(at), Json::num_u64(rpcs)]))
                        .collect(),
                ),
            ));
        }
        PatternSpec::Diurnal {
            start_secs,
            interval_secs,
            period_secs,
            peak_rpcs,
            trough_rpcs,
        } => {
            pairs.push(("start_secs", Json::Num(*start_secs)));
            pairs.push(("interval_secs", Json::Num(*interval_secs)));
            pairs.push(("period_secs", Json::Num(*period_secs)));
            pairs.push(("peak_rpcs", Json::num_u64(*peak_rpcs)));
            pairs.push(("trough_rpcs", Json::num_u64(*trough_rpcs)));
        }
    }
    if let Some(file_rpcs) = s.file_rpcs {
        pairs.push(("file_rpcs", Json::num_u64(file_rpcs)));
    }
    if s.max_inflight != DEFAULT_MAX_INFLIGHT {
        pairs.push(("max_inflight", Json::num_u64(s.max_inflight as u64)));
    }
    Json::obj(pairs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenarios;

    #[test]
    fn every_builtin_round_trips_through_the_file_format() {
        let builtins = [
            scenarios::token_allocation(),
            scenarios::token_redistribution(),
            scenarios::token_recompensation(),
            scenarios::hog_and_victim(),
            scenarios::job_churn(),
            scenarios::many_jobs(12, 20),
            scenarios::scale_stress(24, 10),
        ];
        for s in builtins {
            let file = ScenarioFile::from_scenario(&s);
            let rebuilt = file.to_scenario().expect("valid file");
            assert_eq!(rebuilt, s, "scenario {} round-trips", s.name);
            // And the text form round-trips too.
            let text = file.render();
            let reparsed = ScenarioFile::parse(&text).expect("parses");
            assert_eq!(reparsed, file, "text form of {}", s.name);
            assert_eq!(reparsed.render(), text, "canonical form of {}", s.name);
        }
        // The fault built-ins are full scenario files (workload + run +
        // faults); their canonical rendering must round-trip identically,
        // fault block included.
        for file in [
            scenarios::ost_failover(),
            scenarios::churn_under_degradation(),
        ] {
            let text = file.render();
            let reparsed = ScenarioFile::parse(&text).expect("parses");
            assert_eq!(reparsed, file, "text form of {}", file.name);
            assert_eq!(reparsed.render(), text, "canonical form of {}", file.name);
            assert!(text.contains("\"faults\""), "{} renders faults", file.name);
        }
    }

    #[test]
    fn uniform_jobs_compress_into_counted_streams() {
        let file = ScenarioFile::from_scenario(&scenarios::token_allocation());
        assert_eq!(file.jobs.len(), 4);
        for j in &file.jobs {
            assert_eq!(j.streams.len(), 1, "16 identical processes → 1 stream");
            assert_eq!(j.streams[0].count, 16);
        }
    }

    #[test]
    fn parses_authored_file_with_run_spec() {
        let text = r#"{
            "name": "two_jobs",
            "description": "hog vs burster",
            "duration_secs": 10,
            "jobs": [
                {"id": 1, "nodes": 1, "streams": [
                    {"count": 2, "pattern": "continuous", "file_rpcs": 100}
                ]},
                {"id": 2, "nodes": 3, "streams": [
                    {"pattern": "burst", "start_secs": 0.5, "interval_secs": 2,
                     "rpcs_per_burst": 10, "file_rpcs": 50, "max_inflight": 4}
                ]}
            ],
            "run": {"seed": 7, "policy": "adaptbf", "period_ms": 200, "n_osts": 2,
                    "stripe_count": 2}
        }"#;
        let file = ScenarioFile::parse(text).unwrap();
        assert_eq!(file.run.seed, Some(7));
        assert_eq!(file.run.policy.as_deref(), Some("adaptbf"));
        assert_eq!(file.run.n_osts, Some(2));
        let s = file.to_scenario().unwrap();
        assert_eq!(s.jobs[0].processes.len(), 2);
        assert_eq!(s.jobs[1].processes[0].max_inflight, 4);
        assert_eq!(s.duration, SimDuration::from_secs(10));
    }

    #[test]
    fn diurnal_expands_to_timed_chunks() {
        let spec = PatternSpec::Diurnal {
            start_secs: 0.0,
            interval_secs: 1.0,
            period_secs: 8.0,
            peak_rpcs: 100,
            trough_rpcs: 10,
        };
        let p = spec.to_pattern(SimDuration::from_secs(8)).unwrap();
        let IoPattern::Timed(chunks) = p else {
            panic!("diurnal must expand to timed");
        };
        assert_eq!(chunks.len(), 8, "one burst per second over 8 s");
        // Trough at t=0, peak at t=4 (half period).
        assert_eq!(chunks[0].rpcs, 10);
        assert_eq!(chunks[4].rpcs, 100);
        assert!(chunks[2].rpcs > chunks[1].rpcs);
    }

    #[test]
    fn timed_stream_defaults_file_to_chunk_sum() {
        let text = r#"{
            "name": "t", "description": "", "duration_secs": 5,
            "jobs": [{"id": 1, "nodes": 1, "streams": [
                {"pattern": "timed", "chunks": [[0, 10], [1.5, 20]]}
            ]}]
        }"#;
        let s = ScenarioFile::parse(text).unwrap().to_scenario().unwrap();
        assert_eq!(s.jobs[0].processes[0].file_rpcs, 30);
        assert_eq!(s.total_rpcs(), 30);
    }

    #[test]
    fn faults_block_round_trips_canonically() {
        let text = r#"{
            "name": "faulty",
            "description": "",
            "duration_secs": 20,
            "jobs": [
                {"id": 1, "nodes": 1, "streams": [
                    {"pattern": "continuous", "file_rpcs": 100}
                ]}
            ],
            "faults": {
                "controller_stall": {"every": 10, "duration": 3},
                "stats_loss_every": 4,
                "disk_degrade": {"from_secs": 2, "for_secs": 2.5, "factor": 3},
                "ost_crash": {"ost": 1, "from_secs": 8, "for_secs": 4,
                              "resend_after_secs": 0.3},
                "job_churn": {"every_secs": 6, "offline_secs": 2, "stride": 3}
            }
        }"#;
        let file = ScenarioFile::parse(text).unwrap();
        assert_eq!(
            file.faults.controller_stall,
            Some(StallSpec {
                every: 10,
                duration: 3
            })
        );
        assert_eq!(file.faults.stats_loss_every, Some(4));
        let crash = file.faults.ost_crash.unwrap();
        assert_eq!(crash.ost, 1);
        assert_eq!(crash.from, SimTime::from_secs(8));
        assert_eq!(crash.resend_after, SimDuration::from_millis(300));
        let churn = file.faults.churn.unwrap();
        assert_eq!(churn.every, SimDuration::from_secs(6));
        assert_eq!(churn.stride, 3);
        // Canonical rendering is a fixed point of parse ∘ render.
        let canonical = file.render();
        let reparsed = ScenarioFile::parse(&canonical).unwrap();
        assert_eq!(reparsed, file);
        assert_eq!(reparsed.render(), canonical);
        assert!(canonical.contains("\"faults\""));
    }

    #[test]
    fn tuning_block_round_trips_canonically() {
        let text = r#"{
            "name": "tuned",
            "description": "",
            "duration_secs": 5,
            "jobs": [
                {"id": 1, "nodes": 1, "streams": [
                    {"pattern": "continuous", "file_rpcs": 100}
                ]}
            ],
            "tuning": {
                "payload_bytes": 8192,
                "service_quantum_us": 500,
                "send_batch": 64
            }
        }"#;
        let file = ScenarioFile::parse(text).unwrap();
        assert_eq!(file.tuning.payload_bytes, Some(8192));
        assert_eq!(file.tuning.service_quantum_us, Some(500));
        assert_eq!(file.tuning.send_batch, Some(64));
        // Canonical rendering is a fixed point of parse ∘ render.
        let canonical = file.render();
        let reparsed = ScenarioFile::parse(&canonical).unwrap();
        assert_eq!(reparsed, file);
        assert_eq!(reparsed.render(), canonical);
        assert!(canonical.contains("\"tuning\""));
        // A partial block renders only what is set.
        let partial = ScenarioFile {
            tuning: TuningSpec {
                payload_bytes: Some(1024),
                ..TuningSpec::default()
            },
            ..file.clone()
        };
        let text = partial.render();
        assert!(text.contains("\"payload_bytes\""));
        assert!(!text.contains("\"send_batch\""));
        assert_eq!(ScenarioFile::parse(&text).unwrap(), partial);
    }

    #[test]
    fn rejects_bad_tuning_blocks() {
        let with_tuning = |tuning: &str| {
            format!(
                r#"{{"name":"x","duration_secs":1,"jobs":[{{"id":1,"nodes":1,
                     "streams":[{{"pattern":"continuous","file_rpcs":1}}]}}],
                     "tuning":{tuning}}}"#
            )
        };
        let bad = [
            // Unknown tuning key.
            r#"{"overclock": 2}"#,
            // Zero payload.
            r#"{"payload_bytes": 0}"#,
            // Zero quantum.
            r#"{"service_quantum_us": 0}"#,
            // Zero send batch.
            r#"{"send_batch": 0}"#,
        ];
        for tuning in bad {
            assert!(
                ScenarioFile::parse(&with_tuning(tuning)).is_err(),
                "must reject tuning {tuning}"
            );
        }
        // A knob that was removed is an unknown key like any other.
        let err = ScenarioFile::parse(&with_tuning(r#"{"pin_threads": true}"#)).unwrap_err();
        assert!(
            err.to_string().contains("unknown key `pin_threads`"),
            "{err}"
        );
    }

    #[test]
    fn faultless_files_render_no_faults_block() {
        let file = ScenarioFile::from_scenario(&scenarios::token_allocation());
        assert!(file.faults.is_none());
        assert!(!file.render().contains("\"faults\""));
    }

    #[test]
    fn rejects_bad_fault_blocks() {
        let with_faults = |faults: &str| {
            format!(
                r#"{{"name":"x","duration_secs":1,"jobs":[{{"id":1,"nodes":1,
                     "streams":[{{"pattern":"continuous","file_rpcs":1}}]}}],
                     "faults":{faults}}}"#
            )
        };
        let bad = [
            // Unknown fault key.
            r#"{"meteor_strike": 1}"#,
            // Stall duration not shorter than its period.
            r#"{"controller_stall": {"every": 3, "duration": 3}}"#,
            // Degrade factor below 1 (would speed the disk up).
            r#"{"disk_degrade": {"from_secs": 0, "for_secs": 1, "factor": 0.5}}"#,
            // Crash without a resend timeout.
            r#"{"ost_crash": {"ost": 0, "from_secs": 1, "for_secs": 1,
                              "resend_after_secs": 0}}"#,
            // Churn offline longer than its cycle.
            r#"{"job_churn": {"every_secs": 2, "offline_secs": 3, "stride": 2}}"#,
            // Churn with zero stride.
            r#"{"job_churn": {"every_secs": 2, "offline_secs": 1, "stride": 0}}"#,
            // Unknown key inside a sub-block.
            r#"{"ost_crash": {"ost": 0, "from_secs": 1, "for_secs": 1,
                              "resend_after_secs": 0.1, "blast_radius": 7}}"#,
        ];
        for faults in bad {
            assert!(
                ScenarioFile::parse(&with_faults(faults)).is_err(),
                "must reject faults {faults}"
            );
        }
    }

    #[test]
    fn rejects_schema_violations() {
        let bad = [
            // Unknown top-level key.
            r#"{"name":"x","duration_secs":1,"jobs":[{"id":1,"nodes":1,"streams":[{"pattern":"continuous","file_rpcs":1}]}],"bogus":1}"#,
            // Missing file size on a continuous stream.
            r#"{"name":"x","duration_secs":1,"jobs":[{"id":1,"nodes":1,"streams":[{"pattern":"continuous"}]}]}"#,
            // Unknown pattern.
            r#"{"name":"x","duration_secs":1,"jobs":[{"id":1,"nodes":1,"streams":[{"pattern":"fractal","file_rpcs":1}]}]}"#,
            // Duplicate job ids.
            r#"{"name":"x","duration_secs":1,"jobs":[{"id":1,"nodes":1,"streams":[{"pattern":"continuous","file_rpcs":1}]},{"id":1,"nodes":1,"streams":[{"pattern":"continuous","file_rpcs":1}]}]}"#,
            // Zero nodes.
            r#"{"name":"x","duration_secs":1,"jobs":[{"id":1,"nodes":0,"streams":[{"pattern":"continuous","file_rpcs":1}]}]}"#,
            // Bad policy.
            r#"{"name":"x","duration_secs":1,"jobs":[{"id":1,"nodes":1,"streams":[{"pattern":"continuous","file_rpcs":1}]}],"run":{"policy":"magic"}}"#,
            // Unsorted timed chunks.
            r#"{"name":"x","duration_secs":1,"jobs":[{"id":1,"nodes":1,"streams":[{"pattern":"timed","chunks":[[2,1],[1,1]]}]}]}"#,
        ];
        for text in bad {
            let result = ScenarioFile::parse(text).and_then(|f| f.to_scenario());
            assert!(result.is_err(), "must reject: {text}");
        }
    }
}
