//! The TBF substrate's hot paths (Figure 1 mechanism): classification +
//! enqueue, deadline-heap dispatch, and rule churn — the operations every
//! RPC and every control cycle pay for.

use adaptbf_bench::hotpath_fixture::{
    active_jobs, park_backlog, rpc, scheduler_with_rules, PARKED,
};
use adaptbf_model::{JobAllocation, JobId, SimTime, TbfSchedulerConfig};
use adaptbf_tbf::{NrsTbfScheduler, RuleDaemon, SchedDecision};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

/// One enqueue+dispatch group over the given rule-table sizes. Virtual
/// time advances 10 µs per iteration so buckets refill (10 tokens at the
/// 1M tps rule rate) and the bench measures mechanism cost, not
/// throttling; arrivals cycle over every job so the whole table is live.
fn enqueue_dispatch_group(c: &mut Criterion, name: &str, sizes: &[u32]) {
    let mut group = c.benchmark_group(name);
    for &n_jobs in sizes {
        group.throughput(Throughput::Elements(1));
        group.bench_with_input(BenchmarkId::from_parameter(n_jobs), &n_jobs, |b, &n| {
            let mut s = scheduler_with_rules(n);
            let mut id = 0u64;
            b.iter(|| {
                let now = SimTime::from_micros(id * 10);
                let job = (id % n as u64) as u32 + 1;
                s.enqueue(rpc(id, job), now);
                id += 1;
                match s.next(now) {
                    SchedDecision::Serve(r) => std::hint::black_box(r),
                    other => panic!("expected serve, got {other:?}"),
                }
            });
        });
    }
    group.finish();
}

fn bench_enqueue_dispatch(c: &mut Criterion) {
    enqueue_dispatch_group(c, "enqueue_dispatch", &[1, 16, 128]);
}

fn bench_classification_scaling(c: &mut Criterion) {
    // The data-path claim: enqueue+dispatch cost must be flat in the rule
    // count (O(1) shortcut map), not linear (the naive first-match scan).
    // 1024 rules must land within ~2× of the 1-rule cost.
    enqueue_dispatch_group(c, "classification_scaling", &[1, 64, 1024]);
}

fn bench_rule_churn(c: &mut Criterion) {
    // One control cycle's worth of rule updates (rate + weight per job).
    let mut group = c.benchmark_group("rule_churn");
    for n_jobs in [4usize, 64, 256] {
        group.throughput(Throughput::Elements(n_jobs as u64));
        group.bench_with_input(BenchmarkId::from_parameter(n_jobs), &n_jobs, |b, &n| {
            let mut s = scheduler_with_rules(n as u32);
            let ids: Vec<_> = s.rules().rules().iter().map(|r| r.id).collect();
            let mut rate = 100.0;
            b.iter(|| {
                rate = if rate > 1000.0 { 100.0 } else { rate + 1.0 };
                for id in &ids {
                    s.change_rate(*id, rate, SimTime::ZERO).unwrap();
                }
            });
        });
    }
    group.finish();
}

fn bench_rule_churn_parked(c: &mut Criterion) {
    // One control cycle's rule transaction under churn, as the daemon
    // issues it: half the rules stopped, as many started, the rest
    // re-rated — over a standing fallback backlog of jobs the cycle never
    // touches. Elements = active jobs, so the per-element time is Section
    // IV-G's per-job cost.
    let by_jobs = [64u32, 512, 2048].map(|n| (BenchmarkId::from_parameter(n), n, PARKED));
    // The crowd grows, the work does not: 512 jobs (256 starts a cycle)
    // must cost the same per job over 400, 4 k and 16 k parked RPCs.
    let by_parked = [400u64, 4_000, 16_000].map(|p| (BenchmarkId::new("parked", p), 512, p));
    let mut group = c.benchmark_group("rule_churn_parked");
    for (id, n_jobs, parked) in by_jobs.into_iter().chain(by_parked) {
        group.throughput(Throughput::Elements(n_jobs as u64));
        group.bench_with_input(id, &n_jobs, |b, &n| {
            let mut s = NrsTbfScheduler::new(TbfSchedulerConfig::default());
            park_backlog(&mut s, n + n / 2, parked);
            let mut daemon = RuleDaemon::new();
            let mut cycle = 0u64;
            b.iter(|| {
                let (allocations, weights): (Vec<_>, Vec<_>) = active_jobs(n, true, cycle)
                    .map(|job| {
                        let alloc = JobAllocation {
                            job: JobId(job),
                            tokens: 10 + cycle % 7,
                            rate_tps: 100.0 + (cycle % 7) as f64,
                        };
                        (alloc, (JobId(job), 1 + job % 16))
                    })
                    .unzip();
                cycle += 1;
                let now = SimTime::from_millis(100 * cycle);
                daemon.apply(&mut s, &allocations, &weights, now);
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_enqueue_dispatch,
    bench_classification_scaling,
    bench_rule_churn,
    bench_rule_churn_parked
);
criterion_main!(benches);
