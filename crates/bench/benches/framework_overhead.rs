//! Section IV-G: the full framework cycle — collect job stats, run the
//! allocation algorithm, create/modify/stop TBF rules, clear stats.
//!
//! The paper measures ~25 ms per cycle on Lustre (dominated by procfs and
//! lctl round-trips, independent of job count). Our in-memory cycle is
//! orders of magnitude cheaper; the reproduction target is the *shape*:
//! cycle cost must not blow up with the number of jobs.

use adaptbf_model::config::paper;
use adaptbf_model::{JobId, SimDuration, SimTime, TbfSchedulerConfig};
use adaptbf_node::ControllerDriver;
use adaptbf_node::OstNode;
use adaptbf_sim::ost::OstState;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

fn bench_cycle(c: &mut Criterion) {
    let mut group = c.benchmark_group("framework_cycle");
    for n_jobs in [4usize, 64, 256, 1000] {
        group.throughput(Throughput::Elements(n_jobs as u64));
        group.bench_with_input(BenchmarkId::from_parameter(n_jobs), &n_jobs, |b, &n| {
            let mut ost = OstState::new(
                paper::ost(),
                OstNode::unruled(TbfSchedulerConfig::default()),
                1,
            );
            let nodes = (0..n)
                .map(|i| (JobId(i as u32 + 1), (i as u64 % 16) + 1))
                .collect();
            let mut driver = ControllerDriver::new(paper::adaptbf(), nodes);
            let mut now = SimTime::ZERO;
            b.iter(|| {
                // Repopulate the stats the cycle will consume and clear.
                for i in 0..n {
                    for _ in 0..2 {
                        ost.node.job_stats.record_arrival(JobId(i as u32 + 1));
                    }
                }
                now += SimDuration::from_millis(100);
                std::hint::black_box(driver.tick(
                    &mut ost.node.scheduler,
                    &mut ost.node.job_stats,
                    now,
                ));
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_cycle);
criterion_main!(benches);
