//! `--seed` → the text the program is fed.
//!
//! Every workload's input is scenario-file JSON, written here by hand (not
//! through `ScenarioFile::render`) so that the program receives generated
//! text only and a change to its renderer cannot move the inputs. The same
//! seed gives byte-identical text; the seed picks job priorities, file-size
//! jitter, pattern phases and the run's RNG seed, and leaves the amount of
//! work nearly constant so that rates compare across seeds.

use std::fmt::Write as _;

/// The five workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [Workload; 5] = [
    Workload::SimFlat,
    Workload::SimStriped,
    Workload::SimControl,
    Workload::LiveSat,
    Workload::LiveOpen,
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Stripe-1 simulator run: the per-RPC inner loop does the work, the
    /// window protocol none.
    SimFlat,
    /// Striped, 4-shard, crashy simulator run: the epoch window protocol,
    /// crash routing and the shard merge do the work.
    SimStriped,
    /// Thousands of jobs on few OSTs: the control cycle does the work.
    SimControl,
    /// Closed-loop live run with the emulated disk lifted: the runtime's
    /// data plane binds.
    LiveSat,
    /// Open-loop live run at a fixed rate: latency-bound.
    LiveOpen,
}

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            Workload::SimFlat => "sim_flat",
            Workload::SimStriped => "sim_striped",
            Workload::SimControl => "sim_control",
            Workload::LiveSat => "live_sat",
            Workload::LiveOpen => "live_open",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        WORKLOADS.into_iter().find(|w| w.name() == name)
    }

    pub fn is_sim(self) -> bool {
        matches!(
            self,
            Workload::SimFlat | Workload::SimStriped | Workload::SimControl
        )
    }

    /// Event-loop shards of the timed run (`Cluster::shards`, set
    /// explicitly: `ADAPTBF_SHARDS` is removed from the child environment).
    pub fn shards(self) -> usize {
        match self {
            Workload::SimStriped => 4,
            _ => 1,
        }
    }

    /// Whether the workload is sized so that every released RPC is served
    /// before the horizon (an unserved one then counts as failed).
    pub fn sized_to_finish(self) -> bool {
        matches!(self, Workload::SimFlat | Workload::SimStriped)
    }
}

/// `ADAPTBF_THREADS` of every timed child: one worker, so the 4-shard run
/// measures the window protocol and not two pooled workers sharing two
/// cores (that row is `sim.pool.t2_ratio`, reported and ungated).
pub const TIMED_THREADS: usize = 1;

/// SplitMix64: small, seedable, and the harness's own — the program's
/// `rand` stand-in may change its streams without moving the inputs.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n` ≥ 1; the modulo bias is irrelevant here).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Token ceiling `T_i` of the simulator's paper-default OST, tokens/s.
const SIM_TOKENS_PER_OST: f64 = 1000.0;

/// Offered rate of `live_open`, RPC/s over all processes.
pub const OPEN_RATE_RPS: f64 = 1_000_000.0;
/// `live_sat`: the client's `max_rpcs_in_flight` window.
pub const SAT_WINDOW: usize = 4096;
/// `live_open`: jobs, one logical process each.
pub const OPEN_JOBS: usize = 16;
/// `live_open`: send-step width, seconds.
pub const OPEN_STEP_SECS: f64 = 0.001;

/// `0..n` in a seeded order (Fisher–Yates). Priorities are dealt from a
/// fixed multiset through this, so the seed moves *which* job has which
/// node count and fairness stays comparable across seeds.
fn shuffled(n: u64, rng: &mut SplitMix64) -> Vec<u64> {
    let mut v: Vec<u64> = (0..n).collect();
    for i in (1..v.len()).rev() {
        v.swap(i, rng.below(i as u64 + 1) as usize);
    }
    v
}

fn scaled(n: u64, scale: f64) -> u64 {
    ((n as f64 * scale).round() as u64).max(1)
}

/// The scenario-file text of `workload` for `seed`. `scale` 1.0 is the
/// measured size; `--smoke` passes about a tenth.
pub fn scenario_text(workload: Workload, seed: u64, scale: f64) -> String {
    let mut rng = SplitMix64::new(seed ^ 0xADA9_7BF0);
    match workload {
        Workload::SimFlat => sim_mix(&mut rng, seed, scale, "sim_flat", 16_384, 1, false),
        Workload::SimStriped => sim_mix(&mut rng, seed, scale, "sim_striped", 6_144, 4, true),
        Workload::SimControl => sim_control(&mut rng, seed, scale),
        Workload::LiveSat => live_sat(&mut rng, seed, scale),
        Workload::LiveOpen => live_open(&mut rng, seed, scale),
    }
}

/// 64 jobs × 2 continuous processes on 16 OSTs and 8 clients under
/// AdapTBF, sized so that everything is served before the horizon.
fn sim_mix(
    rng: &mut SplitMix64,
    seed: u64,
    scale: f64,
    name: &str,
    file_rpcs: u64,
    stripe: usize,
    crash: bool,
) -> String {
    const JOBS: u64 = 64;
    const N_OSTS: u64 = 16;
    let base = scaled(file_rpcs, scale);
    let mut jobs = String::new();
    let mut total = 0u64;
    let deal = shuffled(JOBS, rng);
    for id in 1..=JOBS {
        let nodes = 1 + (deal[id as usize - 1] * 5) % 16;
        let file = base + rng.below(base / 32 + 1);
        total += 2 * file;
        let _ = write!(
            jobs,
            "{}\n    {{\"id\": {id}, \"nodes\": {nodes}, \"streams\": [{{\"count\": 2, \
             \"pattern\": \"continuous\", \"file_rpcs\": {file}, \"max_inflight\": 16}}]}}",
            if id > 1 { "," } else { "" }
        );
    }
    // Twice the time the token ceiling needs for the whole job mix: the
    // low-priority tail finishes well inside it, crash window included.
    let duration = (2.0 * total as f64 / (N_OSTS as f64 * SIM_TOKENS_PER_OST)).ceil() + 2.0;
    let faults = if crash {
        format!(
            ",\n  \"faults\": {{\"ost_crash\": {{\"ost\": {}, \"from_secs\": {}, \
             \"for_secs\": {}, \"resend_after_secs\": 0.03}}}}",
            rng.below(N_OSTS),
            duration / 4.0,
            duration / 4.0
        )
    } else {
        String::new()
    };
    format!(
        "{{\n  \"name\": \"{name}\",\n  \"description\": \"benchmark input, seed {seed}\",\n  \
         \"duration_secs\": {duration},\n  \"jobs\": [{jobs}\n  ],\n  \
         \"run\": {{\"seed\": {seed}, \"policy\": \"adaptbf\", \"period_ms\": 100, \
         \"n_clients\": 8, \"n_osts\": {N_OSTS}, \"stripe_count\": {stripe}}}{faults}\n}}\n"
    )
}

/// Thousands of small jobs in a rotating continuous / bursty / delayed /
/// think mix on 4 OSTs: one TBF rule and one ledger entry per job, so the
/// control cycle dominates. Not sized to finish — the token ceiling binds.
fn sim_control(rng: &mut SplitMix64, seed: u64, scale: f64) -> String {
    const FILE: u64 = 64;
    let n_jobs = scaled(2048, scale).max(64);
    let rotation = rng.below(4);
    let deal = shuffled(n_jobs, rng);
    let mut jobs = String::new();
    for i in 0..n_jobs {
        let id = i + 1;
        let nodes = 1 + (deal[i as usize] * 13) % 24;
        let streams = match (i + rotation) % 4 {
            0 => format!(
                "{{\"count\": 2, \"pattern\": \"continuous\", \"file_rpcs\": {}}}",
                FILE * 2
            ),
            1 => format!(
                "{{\"pattern\": \"burst\", \"start_secs\": {:.1}, \"interval_secs\": {:.1}, \
                 \"rpcs_per_burst\": {}, \"file_rpcs\": {FILE}}}",
                0.2 + rng.below(7) as f64 * 0.4,
                1.0 + rng.below(3) as f64 * 0.7,
                8 + rng.below(6) * 4
            ),
            2 => format!(
                "{{\"pattern\": \"delayed\", \"delay_secs\": {:.1}, \"file_rpcs\": {}}}",
                0.5 + rng.below(8) as f64 * 0.5,
                FILE * 2
            ),
            _ => format!(
                "{{\"count\": 2, \"pattern\": \"burst_think\", \"start_secs\": 0.3, \
                 \"think_secs\": 1.5, \"rpcs_per_burst\": 16, \"file_rpcs\": {FILE}}}"
            ),
        };
        let _ = write!(
            jobs,
            "{}\n    {{\"id\": {id}, \"nodes\": {nodes}, \"streams\": [{streams}]}}",
            if i > 0 { "," } else { "" }
        );
    }
    format!(
        "{{\n  \"name\": \"sim_control\",\n  \"description\": \"benchmark input, seed {seed}\",\n  \
         \"duration_secs\": 10,\n  \"jobs\": [{jobs}\n  ],\n  \
         \"run\": {{\"seed\": {seed}, \"policy\": \"adaptbf\", \"period_ms\": 100, \
         \"n_clients\": 4, \"n_osts\": 4, \"stripe_count\": 2}}\n}}\n"
    )
}

/// One job, one closed-loop process with a 4096-RPC window and far more
/// work than the horizon can serve; the `tuning` block lifts the emulated
/// disk (1 µs quantum) so the host's data plane binds.
fn live_sat(rng: &mut SplitMix64, seed: u64, scale: f64) -> String {
    let nodes = 1 + rng.below(16);
    let duration = 1.5 * scale.max(0.1);
    format!(
        "{{\n  \"name\": \"live_sat\",\n  \"description\": \"benchmark input, seed {seed}\",\n  \
         \"duration_secs\": {duration},\n  \"jobs\": [\n    {{\"id\": 1, \"nodes\": {nodes}, \
         \"streams\": [{{\"pattern\": \"continuous\", \"file_rpcs\": 1000000000, \
         \"max_inflight\": {SAT_WINDOW}}}]}}\n  ],\n  \
         \"run\": {{\"seed\": {seed}, \"policy\": \"adaptbf\", \"period_ms\": 100, \
         \"n_clients\": 1, \"n_osts\": 1, \"stripe_count\": 1}},\n  \
         \"tuning\": {{\"payload_bytes\": 4096, \"service_quantum_us\": 1, \"send_batch\": 512}}\n}}\n"
    )
}

/// The open-loop schedule of one process: how many RPCs fall due at each
/// send step when `rate_per_step` (fractional) is offered per step. The
/// fraction is carried forward, so over `steps` steps the total differs
/// from `rate_per_step × steps` by less than one; `phase` in `[0, 1)`
/// seeds the carry and thereby which steps round up.
pub fn open_loop_counts(rate_per_step: f64, steps: usize, phase: f64) -> Vec<u64> {
    let mut carry = phase;
    (0..steps)
        .map(|_| {
            let due = rate_per_step + carry;
            let n = due.floor();
            carry = due - n;
            n as u64
        })
        .collect()
}

/// 16 jobs × 1 process, each offered an equal share of [`OPEN_RATE_RPS`]
/// as explicit `timed` chunks, one per millisecond — the text *is* the
/// send schedule the harness's generator follows, and the simulator can
/// run the same file. The processes' send instants are staggered evenly
/// over the millisecond: sent all at once, the 16 batches beat against
/// the OST loop's 200 µs idle floor, the latency distribution turns
/// bimodal with the median on the boundary (p50 0.46–0.82 ms run to run,
/// against 0.379–0.387 ms staggered), and no bound could rest on it.
fn live_open(rng: &mut SplitMix64, seed: u64, scale: f64) -> String {
    let duration = 1.5 * scale.max(0.1);
    let steps = (duration / OPEN_STEP_SECS).round() as usize;
    let per_step = OPEN_RATE_RPS * OPEN_STEP_SECS / OPEN_JOBS as f64;
    // Equal priorities: with unequal ones AdapTBF's lend/reclaim cycle parks
    // a borrower's queue for whole 100 ms periods even at a third of the
    // device rate, and the latency percentiles would measure that ledger
    // dynamic, not the runtime's data path this workload exists for.
    let nodes = 1 + rng.below(4);
    let mut jobs = String::new();
    for id in 1..=OPEN_JOBS {
        let counts = open_loop_counts(per_step, steps, rng.unit());
        let mut chunks = String::new();
        for (k, n) in counts.iter().enumerate().filter(|(_, n)| **n > 0) {
            if !chunks.is_empty() {
                chunks.push_str(", ");
            }
            let at = (k as f64 + (id - 1) as f64 / OPEN_JOBS as f64) * OPEN_STEP_SECS;
            let _ = write!(chunks, "[{at:.7}, {n}]");
        }
        let _ = write!(
            jobs,
            "{}\n    {{\"id\": {id}, \"nodes\": {nodes}, \"streams\": [{{\"pattern\": \"timed\", \
             \"max_inflight\": 1000000, \"chunks\": [{chunks}]}}]}}",
            if id > 1 { "," } else { "" }
        );
    }
    format!(
        "{{\n  \"name\": \"live_open\",\n  \"description\": \"benchmark input, seed {seed}\",\n  \
         \"duration_secs\": {duration},\n  \"jobs\": [{jobs}\n  ],\n  \
         \"run\": {{\"seed\": {seed}, \"policy\": \"adaptbf\", \"period_ms\": 100, \
         \"n_clients\": 1, \"n_osts\": 1, \"stripe_count\": 1}},\n  \
         \"tuning\": {{\"payload_bytes\": 4096, \"service_quantum_us\": 10, \"send_batch\": 512}}\n}}\n"
    )
}
