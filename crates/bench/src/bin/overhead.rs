//! Section IV-G: framework overhead.
//!
//! The paper reports the token allocation algorithm is O(n) with < 30 µs
//! per active job, and the whole framework cycle (collect stats, allocate,
//! manage rules, clear) costs ~25 ms independent of job count. Their
//! implementation shells out to Lustre procfs; ours is in-memory, so the
//! absolute cycle cost is far smaller — the *scaling shape* is the target:
//! flat per job, for a steady job set and for one that churns over a
//! parked backlog alike. Also prints the Table II-derived simulation
//! calibration.

use adaptbf_bench::{write_artifact, Options};
use adaptbf_core::AllocationController;
use adaptbf_model::config::paper;
use adaptbf_model::{
    ClientId, JobId, JobObservation, ProcId, Rpc, RpcId, SimDuration, SimTime, TbfSchedulerConfig,
};
use adaptbf_node::{ControllerOverhead, OstNode, Policy};
use adaptbf_sim::RunGrid;
use adaptbf_tbf::NrsTbfScheduler;
use std::time::Instant;

/// RPCs of never-active jobs [`ControlCycles`] parks in the fallback
/// queue under churn: every rule start has to look past them.
const PARKED: u64 = 4096;

/// Enqueue the churn fixture's standing backlog: [`PARKED`] RPCs of 64
/// jobs above `universe` (never ruled, so parked for good) plus two
/// per job of `1..=universe` (captured when the job's rule starts,
/// released when it stops). Nothing is ever served, so it stands.
fn park_backlog(s: &mut NrsTbfScheduler, universe: u32) {
    let parked = (0..PARKED).map(|i| universe + 1 + (i % 64) as u32);
    let own = (0..2 * universe).map(|i| 1 + i % universe);
    for (id, job) in parked.chain(own).enumerate() {
        let rpc = Rpc::new(
            RpcId(id as u64),
            JobId(job),
            ClientId(0),
            ProcId(0),
            SimTime::ZERO,
        );
        s.enqueue(rpc, SimTime::ZERO);
    }
}

/// The `n` jobs active in `cycle`: the half `1..=n/2` always, plus a
/// pool of `n/2` — the same one every cycle, or under `churn` one of
/// two in alternation, so that every cycle stops half the rules,
/// starts as many and re-rates the rest (a universe of `3n/2` jobs).
fn active_jobs(n: u32, churn: bool, cycle: u64) -> impl Iterator<Item = u32> {
    let half = n / 2;
    let pool = half + if churn { (cycle % 2) as u32 * half } else { 0 };
    (1..=half).chain(pool + 1..=pool + half)
}

/// One OST's whole control plane (Section IV-G's framework cycle)
/// with [`active_jobs`] each period: a steady set over an empty
/// fallback queue, or — `churn` — a churning one over
/// [`park_backlog`].
struct ControlCycles {
    node: OstNode,
    n: u32,
    churn: bool,
    cycle: u64,
}

impl ControlCycles {
    /// Assemble the node (and park the backlog under `churn`).
    fn new(n: u32, churn: bool) -> Self {
        let universe = if churn { n + n / 2 } else { n };
        let jobs: Vec<_> = (1..=universe)
            .map(|j| (JobId(j), j as u64 % 16 + 1))
            .collect();
        let mut node = OstNode::new(
            Policy::adaptbf_default(),
            TbfSchedulerConfig::default(),
            &jobs,
            paper::MAX_TOKEN_RATE,
            SimTime::ZERO,
        );
        if churn {
            park_backlog(&mut node.scheduler, universe);
        }
        ControlCycles {
            node,
            n,
            churn,
            cycle: 0,
        }
    }

    /// Run one observation period: this cycle's active jobs report
    /// demand, then the controller ticks.
    fn cycle(&mut self) {
        for job in active_jobs(self.n, self.churn, self.cycle) {
            for _ in 0..3 {
                self.node.job_stats.record_arrival(JobId(job));
            }
        }
        self.cycle += 1;
        let now = SimTime::ZERO + SimDuration::from_millis(100) * self.cycle;
        std::hint::black_box(self.node.tick(now));
    }

    /// The driver's own accounting of the cycles run so far.
    fn overhead(&self) -> ControllerOverhead {
        self.node.overhead().expect("AdapTBF node")
    }
}

fn observations(n: usize) -> Vec<JobObservation> {
    (0..n)
        .map(|i| {
            JobObservation::new(
                JobId(i as u32 + 1),
                (i as u64 % 16) + 1,
                50 + i as u64 % 200,
            )
        })
        .collect()
}

fn bench_allocation(n: usize, iters: u32) -> f64 {
    let mut controller = AllocationController::new(paper::adaptbf());
    let obs = observations(n);
    // Warm the ledger so steady-state cost is measured.
    for _ in 0..3 {
        controller.step(&obs);
    }
    let t0 = Instant::now();
    for _ in 0..iters {
        controller.step(&obs);
    }
    t0.elapsed().as_nanos() as f64 / iters as f64
}

/// The driver's own accounting over `iters` framework cycles with `n`
/// active jobs, after two warm-up cycles (the first installs every rule).
fn bench_full_cycle(n: u32, churn: bool, iters: u32) -> ControllerOverhead {
    let mut cycles = ControlCycles::new(n, churn);
    cycles.cycle();
    cycles.cycle();
    let warm = cycles.overhead();
    for _ in 0..iters {
        cycles.cycle();
    }
    let total = cycles.overhead();
    ControllerOverhead {
        ticks: total.ticks - warm.ticks,
        total_ns: total.total_ns - warm.total_ns,
        jobs_allocated: total.jobs_allocated - warm.jobs_allocated,
    }
}

fn main() {
    let _opts = Options::from_args();
    println!("== Section IV-G: framework overhead ==\n");

    let ost = paper::ost();
    println!("Table II calibration (simulated substrate):");
    println!("  I/O threads          : {}", ost.n_io_threads);
    println!(
        "  device bandwidth     : {:.0} MiB/s",
        ost.disk_bw_bytes_per_s as f64 / (1 << 20) as f64
    );
    println!("  device token rate    : {:.0} RPC/s", ost.max_token_rate());
    println!(
        "  TBF ceiling T_i      : {:.0} tokens/s",
        paper::MAX_TOKEN_RATE
    );
    println!("  bulk RPC size        : {} MiB\n", ost.rpc_size >> 20);

    // These are wall-clock microbenchmarks: they run through the shared
    // RunGrid executor like every other grid binary, but pinned to one
    // worker — concurrent timing samples on shared cores would corrupt
    // the measurement. (The grid still guarantees result order.)
    let timing_grid = RunGrid::with_threads(1);

    println!("Token allocation algorithm scaling (paper: O(n), <30 us/job):");
    println!("{:>8} {:>14} {:>14}", "jobs", "ns/step", "ns/job");
    let mut csv = String::from("jobs,ns_per_step,ns_per_job\n");
    let sizes = vec![1usize, 10, 50, 100, 250, 500, 1000];
    let rows = timing_grid.run(sizes, |n| {
        let iters = if n >= 500 { 200 } else { 1000 };
        (n, bench_allocation(n, iters))
    });
    for (n, ns) in rows {
        println!("{n:>8} {ns:>14.0} {:>14.1}", ns / n as f64);
        csv.push_str(&format!("{n},{ns:.0},{:.1}\n", ns / n as f64));
    }
    write_artifact("overhead_alloc_scaling.csv", &csv);

    println!("\nFull framework cycle (collect + allocate + rules + clear), steady job");
    println!("set over an empty fallback queue vs half the rules replaced every");
    println!("cycle over {PARKED} parked RPCs (paper: <30 us/job):");
    println!(
        "{:>8} {:>14} {:>12} {:>14} {:>12}",
        "jobs", "steady us/cyc", "us/job", "churn us/cyc", "us/job"
    );
    let mut csv = String::from(
        "jobs,steady_us_per_cycle,steady_us_per_job,churn_us_per_cycle,churn_us_per_job\n",
    );
    let sizes = vec![64u32, 512, 2048];
    let rows = timing_grid.run(sizes, |n| {
        let iters = if n >= 512 { 50 } else { 300 };
        let row = [false, true].map(|churn| {
            let o = bench_full_cycle(n, churn, iters);
            (o.ns_per_tick() / 1e3, o.ns_per_job() / 1e3)
        });
        (n, row)
    });
    for (n, [(steady, steady_job), (churn, churn_job)]) in rows {
        println!("{n:>8} {steady:>14.1} {steady_job:>12.3} {churn:>14.1} {churn_job:>12.3}");
        csv.push_str(&format!(
            "{n},{steady:.1},{steady_job:.3},{churn:.1},{churn_job:.3}\n"
        ));
    }
    write_artifact("overhead_framework_cycle.csv", &csv);

    // Memory footprint: the paper stores job id + record per job.
    let entry = std::mem::size_of::<adaptbf_core::LedgerEntry>()
        + std::mem::size_of::<adaptbf_model::JobId>();
    println!(
        "\nJob Records memory footprint: {entry} bytes/job ({} KiB for 1000 jobs)",
        entry * 1000 / 1024
    );
    println!(
        "\npaper shape: per-job allocation cost flat (O(n) total), well under\n\
         30 us/job; cycle cost per job flat too, churning or not."
    );
}
