//! RPC traces: the record/replay half of the `adaptbf-trace` subsystem.
//!
//! A [`Trace`] is the complete I/O arrival history of one simulated run —
//! every RPC that reached an OSS, with its arrival instant, target OST and
//! full identity — plus the run metadata needed to replay it
//! deterministically ([`TraceMeta`]). The sim's recorder hook
//! (`adaptbf_sim::Cluster::run_traced`) produces one; `Cluster::build_replay`
//! re-injects one, reproducing the original run's per-job served bytes
//! exactly (see `tests/trace_replay.rs`).
//!
//! Traces serialize to a versioned, line-oriented text format
//! ([`Trace::to_text`] / [`Trace::from_text`]) so they can be stored,
//! diffed, and authored or post-processed by external tools. A trace also
//! converts back into an ordinary [`Scenario`] ([`Trace::to_scenario`])
//! whose processes carry [`IoPattern::Timed`](crate::pattern::IoPattern::Timed) chunk lists — an open-loop
//! approximation that lets any scenario consumer (grids, benches, files)
//! run a recorded workload shape.

use crate::faults::{
    validate_wiring, ChurnSpec, CrashSpec, DegradeSpec, FaultPlan, StallSpec, WiringError,
};
use crate::job::JobSpec;
#[cfg(test)]
use crate::pattern::IoPattern;
use crate::pattern::WorkChunk;
use crate::scenario::Scenario;
use adaptbf_model::{ClientId, JobId, OpCode, ProcId, Rpc, RpcId, SimDuration, SimTime};
use std::collections::BTreeMap;
use std::fmt;

/// Current trace format version tag (first line of every trace file).
pub const TRACE_FORMAT: &str = "adaptbf-trace v1";

/// One recorded OSS arrival.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRecord {
    /// When the RPC arrived at the OSS.
    pub at: SimTime,
    /// Index of the OST it targeted.
    pub ost: usize,
    /// The full RPC (identity, op, size, client issue instant).
    pub rpc: Rpc,
}

/// Everything about the recorded run that replay needs besides the RPCs
/// themselves.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceMeta {
    /// Name of the recorded scenario.
    pub scenario: String,
    /// RNG seed of the recorded run.
    pub seed: u64,
    /// Policy name of the recorded run (`no_bw`, `static_bw`, `adaptbf`).
    pub policy: String,
    /// AdapTBF observation period in ms (`None` under the baselines).
    pub period_ms: Option<u64>,
    /// The recorded horizon.
    pub duration: SimDuration,
    /// Client nodes of the recorded wiring.
    pub n_clients: usize,
    /// OSTs of the recorded wiring.
    pub n_osts: usize,
    /// Stripe width of the recorded wiring.
    pub stripe_count: usize,
    /// The fault schedule active during the recording (none by default).
    /// Replaying under the recorded plan reproduces the faulty run
    /// byte-exactly; replaying with a different plan answers "what would
    /// this traffic have seen without (or with another) disturbance?".
    pub faults: FaultPlan,
    /// Which executor recorded the trace (`"live"` for the threaded
    /// runtime's recorder hook; `None` for the simulator's, and for
    /// traces predating the header). Provenance only — replay semantics
    /// are identical either way.
    pub recorded_by: Option<String>,
    /// `(job, nodes)` priority weights, in job order.
    pub jobs: Vec<(JobId, u64)>,
}

/// A recorded (or externally authored) RPC arrival history.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    /// Run metadata.
    pub meta: TraceMeta,
    /// Arrivals in chronological order (ties keep recorded order).
    pub records: Vec<TraceRecord>,
}

/// A trace parse/validation failure, with a line number when applicable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceError(pub String);

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "trace error: {}", self.0)
    }
}

impl std::error::Error for TraceError {}

fn err(msg: impl Into<String>) -> TraceError {
    TraceError(msg.into())
}

/// Split a header payload into exactly `n` whitespace-separated fields.
fn fields_of<'a>(
    rest: &'a str,
    n: usize,
    line: usize,
    what: &str,
) -> Result<Vec<&'a str>, TraceError> {
    let fields: Vec<&str> = rest.split_whitespace().collect();
    if fields.len() != n {
        return Err(err(format!(
            "line {}: `{what}` needs {n} fields, got {}",
            line + 1,
            fields.len()
        )));
    }
    Ok(fields)
}

impl Trace {
    /// RPCs recorded per job.
    pub fn rpcs_per_job(&self) -> BTreeMap<JobId, u64> {
        let mut out = BTreeMap::new();
        for r in &self.records {
            *out.entry(r.rpc.job).or_insert(0) += 1;
        }
        out
    }

    /// Payload bytes recorded per job.
    pub fn bytes_per_job(&self) -> BTreeMap<JobId, u64> {
        let mut out = BTreeMap::new();
        for r in &self.records {
            *out.entry(r.rpc.job).or_insert(0) += r.rpc.size_bytes;
        }
        out
    }

    /// Serialize to the versioned line format:
    ///
    /// ```text
    /// adaptbf-trace v1
    /// scenario <name>
    /// seed <n>
    /// policy <name>
    /// period_ms <n>            (adaptbf only)
    /// duration_ns <n>
    /// n_clients <n>
    /// n_osts <n>
    /// stripe_count <n>
    /// recorded_by <executor>   (live recordings only)
    /// fault_stall <every> <duration>             (only when injected)
    /// fault_stats_loss <n>                       (only when injected)
    /// fault_degrade <from_ns> <for_ns> <factor>  (only when injected)
    /// fault_crash <ost> <from_ns> <for_ns> <resend_ns>   (only when injected)
    /// fault_churn <every_ns> <offline_ns> <stride>       (only when injected)
    /// job <id> <nodes>         (one per job)
    /// records <count>
    /// r <at_ns> <ost> <rpc_id> <job> <client> <proc> <W|R> <size> <issued_ns>
    /// ```
    pub fn to_text(&self) -> String {
        let mut out = String::with_capacity(64 + self.records.len() * 48);
        out.push_str(TRACE_FORMAT);
        out.push('\n');
        out.push_str(&format!("scenario {}\n", self.meta.scenario));
        out.push_str(&format!("seed {}\n", self.meta.seed));
        out.push_str(&format!("policy {}\n", self.meta.policy));
        if let Some(ms) = self.meta.period_ms {
            out.push_str(&format!("period_ms {ms}\n"));
        }
        out.push_str(&format!("duration_ns {}\n", self.meta.duration.as_nanos()));
        out.push_str(&format!("n_clients {}\n", self.meta.n_clients));
        out.push_str(&format!("n_osts {}\n", self.meta.n_osts));
        out.push_str(&format!("stripe_count {}\n", self.meta.stripe_count));
        if let Some(who) = &self.meta.recorded_by {
            out.push_str(&format!("recorded_by {who}\n"));
        }
        let f = &self.meta.faults;
        if let Some(StallSpec { every, duration }) = f.controller_stall {
            out.push_str(&format!("fault_stall {every} {duration}\n"));
        }
        if let Some(n) = f.stats_loss_every {
            out.push_str(&format!("fault_stats_loss {n}\n"));
        }
        if let Some(DegradeSpec { from, for_, factor }) = f.disk_degrade {
            out.push_str(&format!(
                "fault_degrade {} {} {factor}\n",
                from.as_nanos(),
                for_.as_nanos()
            ));
        }
        if let Some(CrashSpec {
            ost,
            from,
            for_,
            resend_after,
        }) = f.ost_crash
        {
            out.push_str(&format!(
                "fault_crash {ost} {} {} {}\n",
                from.as_nanos(),
                for_.as_nanos(),
                resend_after.as_nanos()
            ));
        }
        if let Some(ChurnSpec {
            every,
            offline,
            stride,
        }) = f.churn
        {
            out.push_str(&format!(
                "fault_churn {} {} {stride}\n",
                every.as_nanos(),
                offline.as_nanos()
            ));
        }
        for (job, nodes) in &self.meta.jobs {
            out.push_str(&format!("job {} {}\n", job.raw(), nodes));
        }
        out.push_str(&format!("records {}\n", self.records.len()));
        for r in &self.records {
            let op = match r.rpc.op {
                OpCode::Write => 'W',
                OpCode::Read => 'R',
            };
            out.push_str(&format!(
                "r {} {} {} {} {} {} {} {} {}\n",
                r.at.as_nanos(),
                r.ost,
                r.rpc.id.raw(),
                r.rpc.job.raw(),
                r.rpc.client.raw(),
                r.rpc.proc_id.raw(),
                op,
                r.rpc.size_bytes,
                r.rpc.issued_at.as_nanos(),
            ));
        }
        out
    }

    /// Parse the text format produced by [`Trace::to_text`] (or authored
    /// externally). Validates the version tag, required header fields,
    /// record count, and chronological record order.
    pub fn from_text(text: &str) -> Result<Trace, TraceError> {
        let mut lines = text.lines().enumerate();
        let (_, first) = lines.next().ok_or_else(|| err("empty trace"))?;
        if first.trim() != TRACE_FORMAT {
            return Err(err(format!(
                "unsupported format `{first}` (expected `{TRACE_FORMAT}`)"
            )));
        }
        let mut scenario = None;
        let mut seed = None;
        let mut policy = None;
        let mut period_ms = None;
        let mut duration = None;
        let mut n_clients = None;
        let mut n_osts = None;
        let mut stripe_count = None;
        let mut recorded_by = None;
        let mut faults = FaultPlan::none();
        let mut jobs: Vec<(JobId, u64)> = Vec::new();
        let mut expected_records = None;

        let parse_u64 = |value: &str, line: usize, what: &str| -> Result<u64, TraceError> {
            value
                .parse::<u64>()
                .map_err(|_| err(format!("line {}: bad {what} `{value}`", line + 1)))
        };

        for (i, line) in lines.by_ref() {
            let line = line.trim_end();
            if line.is_empty() {
                continue;
            }
            let (key, rest) = line.split_once(' ').unwrap_or((line, ""));
            match key {
                "scenario" => scenario = Some(rest.to_string()),
                "seed" => seed = Some(parse_u64(rest, i, "seed")?),
                "policy" => policy = Some(rest.to_string()),
                "period_ms" => period_ms = Some(parse_u64(rest, i, "period_ms")?),
                "duration_ns" => {
                    duration = Some(SimDuration(parse_u64(rest, i, "duration_ns")?));
                }
                "n_clients" => n_clients = Some(parse_u64(rest, i, "n_clients")? as usize),
                "n_osts" => n_osts = Some(parse_u64(rest, i, "n_osts")? as usize),
                "stripe_count" => {
                    stripe_count = Some(parse_u64(rest, i, "stripe_count")? as usize);
                }
                "recorded_by" => {
                    if rest.is_empty() {
                        return Err(err(format!(
                            "line {}: recorded_by needs an executor name",
                            i + 1
                        )));
                    }
                    recorded_by = Some(rest.to_string());
                }
                "fault_stall" => {
                    let f = fields_of(rest, 2, i, "fault_stall")?;
                    faults.controller_stall = Some(StallSpec {
                        every: parse_u64(f[0], i, "stall every")?,
                        duration: parse_u64(f[1], i, "stall duration")?,
                    });
                }
                "fault_stats_loss" => {
                    faults.stats_loss_every = Some(parse_u64(rest, i, "stats loss cadence")?);
                }
                "fault_degrade" => {
                    let f = fields_of(rest, 3, i, "fault_degrade")?;
                    faults.disk_degrade = Some(DegradeSpec {
                        from: SimTime(parse_u64(f[0], i, "degrade from")?),
                        for_: SimDuration(parse_u64(f[1], i, "degrade length")?),
                        factor: f[2].parse::<f64>().map_err(|_| {
                            err(format!("line {}: bad degrade factor `{}`", i + 1, f[2]))
                        })?,
                    });
                }
                "fault_crash" => {
                    let f = fields_of(rest, 4, i, "fault_crash")?;
                    faults.ost_crash = Some(CrashSpec {
                        ost: parse_u64(f[0], i, "crash ost")? as usize,
                        from: SimTime(parse_u64(f[1], i, "crash from")?),
                        for_: SimDuration(parse_u64(f[2], i, "crash length")?),
                        resend_after: SimDuration(parse_u64(f[3], i, "crash resend")?),
                    });
                }
                "fault_churn" => {
                    let f = fields_of(rest, 3, i, "fault_churn")?;
                    faults.churn = Some(ChurnSpec {
                        every: SimDuration(parse_u64(f[0], i, "churn every")?),
                        offline: SimDuration(parse_u64(f[1], i, "churn offline")?),
                        stride: parse_u64(f[2], i, "churn stride")? as usize,
                    });
                }
                "job" => {
                    let mut parts = rest.split_whitespace();
                    let id = parts
                        .next()
                        .ok_or_else(|| err(format!("line {}: job needs an id", i + 1)))?;
                    let nodes = parts
                        .next()
                        .ok_or_else(|| err(format!("line {}: job needs nodes", i + 1)))?;
                    if parts.next().is_some() {
                        return Err(err(format!("line {}: trailing job fields", i + 1)));
                    }
                    jobs.push((
                        JobId(parse_u64(id, i, "job id")? as u32),
                        parse_u64(nodes, i, "job nodes")?,
                    ));
                }
                "records" => {
                    expected_records = Some(parse_u64(rest, i, "record count")? as usize);
                    break;
                }
                other => {
                    return Err(err(format!("line {}: unknown header `{other}`", i + 1)));
                }
            }
        }

        let meta = TraceMeta {
            scenario: scenario.ok_or_else(|| err("missing `scenario` header"))?,
            seed: seed.ok_or_else(|| err("missing `seed` header"))?,
            policy: policy.ok_or_else(|| err("missing `policy` header"))?,
            period_ms,
            duration: duration.ok_or_else(|| err("missing `duration_ns` header"))?,
            n_clients: n_clients.ok_or_else(|| err("missing `n_clients` header"))?,
            n_osts: n_osts.ok_or_else(|| err("missing `n_osts` header"))?,
            stripe_count: stripe_count.ok_or_else(|| err("missing `stripe_count` header"))?,
            faults,
            recorded_by,
            jobs,
        };
        if meta.duration.is_zero() {
            return Err(err("duration must be positive"));
        }
        validate_wiring(meta.n_clients, meta.n_osts, meta.stripe_count, &meta.faults).map_err(
            |e| match e {
                WiringError::Wiring(msg) => err(msg),
                WiringError::Fault(msg) => err(format!("fault header: {msg}")),
            },
        )?;
        if meta.jobs.is_empty() {
            return Err(err("trace must declare at least one `job`"));
        }
        let mut seen_jobs = std::collections::BTreeSet::new();
        for &(job, nodes) in &meta.jobs {
            if !seen_jobs.insert(job) {
                return Err(err(format!("duplicate `job {}` header", job.raw())));
            }
            if nodes == 0 {
                return Err(err(format!(
                    "job {} must have at least one node",
                    job.raw()
                )));
            }
        }
        let expected = expected_records.ok_or_else(|| err("missing `records` header"))?;

        let mut records = Vec::with_capacity(expected);
        for (i, line) in lines {
            let line = line.trim_end();
            if line.is_empty() {
                continue;
            }
            let fields: Vec<&str> = line.split_whitespace().collect();
            if fields.len() != 10 || fields[0] != "r" {
                return Err(err(format!(
                    "line {}: expected `r` with 9 fields, got `{line}`",
                    i + 1
                )));
            }
            let op = match fields[7] {
                "W" => OpCode::Write,
                "R" => OpCode::Read,
                other => return Err(err(format!("line {}: bad op `{other}`", i + 1))),
            };
            let at = SimTime(parse_u64(fields[1], i, "at_ns")?);
            if let Some(prev) = records.last().map(|r: &TraceRecord| r.at) {
                if at < prev {
                    return Err(err(format!(
                        "line {}: records must be chronological ({at} after {prev})",
                        i + 1
                    )));
                }
            }
            let ost = parse_u64(fields[2], i, "ost")? as usize;
            if ost >= meta.n_osts {
                return Err(err(format!(
                    "line {}: ost {ost} out of range (n_osts {})",
                    i + 1,
                    meta.n_osts
                )));
            }
            records.push(TraceRecord {
                at,
                ost,
                rpc: Rpc {
                    id: RpcId(parse_u64(fields[3], i, "rpc id")?),
                    job: JobId(parse_u64(fields[4], i, "job")? as u32),
                    client: ClientId(parse_u64(fields[5], i, "client")? as u32),
                    proc_id: ProcId(parse_u64(fields[6], i, "proc")? as u32),
                    op,
                    size_bytes: parse_u64(fields[8], i, "size")?,
                    issued_at: SimTime(parse_u64(fields[9], i, "issued_ns")?),
                },
            });
        }
        if records.len() != expected {
            return Err(err(format!(
                "record count mismatch: header says {expected}, found {}",
                records.len()
            )));
        }
        Ok(Trace { meta, records })
    }

    /// Convert the trace back into an ordinary [`Scenario`]: one
    /// [`IoPattern::Timed`](crate::pattern::IoPattern::Timed) process per recorded process, its chunks at the
    /// recorded *client issue* instants. This is an open-loop approximation
    /// (window feedback and network jitter are re-simulated, so timings
    /// shift); for exact reproduction use `Cluster::build_replay` on the
    /// trace itself.
    pub fn to_scenario(&self) -> Scenario {
        // Group issue instants by (job, proc), preserving issue order.
        let mut per_proc: BTreeMap<(JobId, ProcId), Vec<SimTime>> = BTreeMap::new();
        for r in &self.records {
            per_proc
                .entry((r.rpc.job, r.rpc.proc_id))
                .or_default()
                .push(r.rpc.issued_at);
        }
        let mut processes: BTreeMap<JobId, Vec<crate::job::ProcessSpec>> = BTreeMap::new();
        for ((job, _proc), mut issues) in per_proc {
            issues.sort_unstable();
            let mut chunks: Vec<WorkChunk> = Vec::new();
            for at in issues {
                match chunks.last_mut() {
                    Some(last) if last.at == at => last.rpcs += 1,
                    _ => chunks.push(WorkChunk { at, rpcs: 1 }),
                }
            }
            processes
                .entry(job)
                .or_default()
                .push(crate::job::ProcessSpec::timed(chunks));
        }
        let jobs = self
            .meta
            .jobs
            .iter()
            .map(|&(id, nodes)| JobSpec {
                id,
                nodes,
                processes: processes.remove(&id).unwrap_or_else(|| {
                    // A job that never issued within the horizon still needs
                    // one (empty) process to be a valid Scenario member.
                    vec![crate::job::ProcessSpec::timed(Vec::new())]
                }),
            })
            .collect();
        Scenario::new(
            format!("{}_replay", self.meta.scenario),
            format!(
                "open-loop replay of `{}` (seed {}, {} RPCs)",
                self.meta.scenario,
                self.meta.seed,
                self.records.len()
            ),
            jobs,
            self.meta.duration,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Trace {
        let rpc = |id: u64, job: u32, proc_id: u32, issued_ns: u64| Rpc {
            id: RpcId(id),
            job: JobId(job),
            client: ClientId(job % 4),
            proc_id: ProcId(proc_id),
            op: OpCode::Write,
            size_bytes: 1 << 20,
            issued_at: SimTime(issued_ns),
        };
        Trace {
            meta: TraceMeta {
                scenario: "tiny".into(),
                seed: 42,
                policy: "adaptbf".into(),
                period_ms: Some(100),
                duration: SimDuration::from_secs(3),
                n_clients: 4,
                n_osts: 2,
                stripe_count: 1,
                faults: FaultPlan::none(),
                recorded_by: None,
                jobs: vec![(JobId(1), 1), (JobId(2), 3)],
            },
            records: vec![
                TraceRecord {
                    at: SimTime(1_000_000),
                    ost: 0,
                    rpc: rpc(0, 1, 0, 900_000),
                },
                TraceRecord {
                    at: SimTime(1_100_000),
                    ost: 1,
                    rpc: rpc(1, 2, 1, 900_000),
                },
                TraceRecord {
                    at: SimTime(2_000_000),
                    ost: 0,
                    rpc: rpc(2, 1, 0, 1_900_000),
                },
            ],
        }
    }

    #[test]
    fn text_round_trip_is_identity() {
        let t = sample();
        let text = t.to_text();
        let parsed = Trace::from_text(&text).expect("parses");
        assert_eq!(parsed, t);
        assert_eq!(parsed.to_text(), text);
    }

    #[test]
    fn header_describes_run() {
        let text = sample().to_text();
        assert!(text.starts_with("adaptbf-trace v1\nscenario tiny\nseed 42\n"));
        assert!(text.contains("\nperiod_ms 100\n"));
        assert!(text.contains("\njob 2 3\n"));
        assert!(text.contains("\nrecords 3\n"));
    }

    #[test]
    fn per_job_tallies() {
        let t = sample();
        assert_eq!(t.rpcs_per_job()[&JobId(1)], 2);
        assert_eq!(t.rpcs_per_job()[&JobId(2)], 1);
        assert_eq!(t.bytes_per_job()[&JobId(1)], 2 << 20);
    }

    #[test]
    fn fault_headers_round_trip() {
        let mut t = sample();
        t.meta.faults = FaultPlan {
            controller_stall: Some(StallSpec {
                every: 10,
                duration: 2,
            }),
            stats_loss_every: Some(5),
            disk_degrade: Some(DegradeSpec {
                from: SimTime::from_secs(1),
                for_: SimDuration::from_millis(750),
                factor: 2.5,
            }),
            ost_crash: Some(CrashSpec {
                ost: 1,
                from: SimTime::from_millis(1_200),
                for_: SimDuration::from_millis(600),
                resend_after: SimDuration::from_millis(250),
            }),
            churn: Some(ChurnSpec {
                every: SimDuration::from_secs(2),
                offline: SimDuration::from_millis(500),
                stride: 4,
            }),
        };
        let text = t.to_text();
        assert!(text.contains("\nfault_stall 10 2\n"));
        assert!(text.contains("\nfault_stats_loss 5\n"));
        assert!(text.contains("\nfault_degrade 1000000000 750000000 2.5\n"));
        assert!(text.contains("\nfault_crash 1 1200000000 600000000 250000000\n"));
        assert!(text.contains("\nfault_churn 2000000000 500000000 4\n"));
        let parsed = Trace::from_text(&text).expect("parses");
        assert_eq!(parsed, t);
        assert_eq!(parsed.to_text(), text);
    }

    #[test]
    fn recorded_by_header_round_trips() {
        let mut t = sample();
        t.meta.recorded_by = Some("live".into());
        let text = t.to_text();
        assert!(text.contains("\nrecorded_by live\n"));
        let parsed = Trace::from_text(&text).expect("parses");
        assert_eq!(parsed, t);
        assert_eq!(parsed.to_text(), text);
        // Traces predating the header still parse.
        let old = sample().to_text();
        assert!(!old.contains("recorded_by"));
        assert_eq!(Trace::from_text(&old).unwrap().meta.recorded_by, None);
        // …and an empty executor name is rejected.
        assert!(
            Trace::from_text(&old.replace("\nrecords 3\n", "\nrecorded_by\nrecords 3\n")).is_err()
        );
    }

    #[test]
    fn faultless_traces_carry_no_fault_headers() {
        let text = sample().to_text();
        assert!(!text.contains("fault_"));
        assert!(Trace::from_text(&text).unwrap().meta.faults.is_none());
    }

    #[test]
    fn rejects_invalid_fault_headers() {
        let good = sample().to_text();
        let inject = |line: &str| good.replace("\nrecords 3\n", &format!("\n{line}\nrecords 3\n"));
        // Stall duration >= period.
        assert!(Trace::from_text(&inject("fault_stall 3 3")).is_err());
        // Wrong field count.
        assert!(Trace::from_text(&inject("fault_crash 1 5")).is_err());
        // Bad degrade factor.
        assert!(Trace::from_text(&inject("fault_degrade 0 1000 fast")).is_err());
        // Zero churn stride.
        assert!(Trace::from_text(&inject("fault_churn 1000 500 0")).is_err());
        // Crash OST outside the recorded wiring (n_osts 2).
        assert!(Trace::from_text(&inject("fault_crash 5 1000 1000 100")).is_err());
        // …while an in-range one parses.
        assert!(Trace::from_text(&inject("fault_crash 1 1000 1000 100")).is_ok());
    }

    #[test]
    fn rejects_malformed_traces() {
        let good = sample().to_text();
        // Wrong version tag.
        assert!(Trace::from_text(&good.replace("v1", "v9")).is_err());
        // Record count mismatch.
        assert!(Trace::from_text(&good.replace("records 3", "records 2")).is_err());
        // Out-of-range OST.
        assert!(Trace::from_text(&good.replace("\nr 1000000 0 ", "\nr 1000000 7 ")).is_err());
        // Missing header.
        assert!(Trace::from_text(&good.replace("seed 42\n", "")).is_err());
        // Non-chronological records.
        let mut t = sample();
        t.records.swap(0, 2);
        assert!(Trace::from_text(&t.to_text()).is_err());
        // Invalid wirings must be rejected at parse time, not panic later.
        assert!(Trace::from_text(&good.replace("n_clients 4", "n_clients 0")).is_err());
        assert!(Trace::from_text(&good.replace("stripe_count 1", "stripe_count 3")).is_err());
        assert!(Trace::from_text(&good.replace("\njob 2 3\n", "\njob 1 3\n")).is_err());
        assert!(Trace::from_text(&good.replace("\njob 2 3\n", "\njob 2 0\n")).is_err());
        let no_jobs = good.replace("job 1 1\n", "").replace("job 2 3\n", "");
        assert!(Trace::from_text(&no_jobs).is_err());
    }

    #[test]
    fn to_scenario_builds_timed_processes() {
        let s = sample().to_scenario();
        assert_eq!(s.name, "tiny_replay");
        assert_eq!(s.jobs.len(), 2);
        assert_eq!(s.nodes(JobId(2)), 3);
        // Job 1's single proc issued at 0.9 ms and 1.9 ms.
        let IoPattern::Timed(ref chunks) = s.jobs[0].processes[0].pattern else {
            panic!("replay scenarios are timed");
        };
        assert_eq!(chunks.len(), 2);
        assert_eq!(chunks[0].at, SimTime(900_000));
        assert_eq!(s.total_rpcs(), 3);
    }
}
