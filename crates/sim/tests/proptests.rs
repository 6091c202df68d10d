//! Property-based tests for the whole simulator: randomized scenarios must
//! uphold global invariants under every policy, and the slot-interned
//! metrics collector must be observationally identical to the ordered-map
//! implementation it replaced.

use adaptbf_model::{JobId, LatencyHistogram, PerJobSeries, SimDuration, SimTime};
use adaptbf_node::Metrics;
use adaptbf_sim::cluster::{Cluster, ClusterConfig};
use adaptbf_sim::{
    replay_cluster_config, ChurnSpec, CrashSpec, DegradeSpec, FaultPlan, Policy, StallSpec,
};
use adaptbf_workload::trace::Trace;
use adaptbf_workload::{JobSpec, ProcessSpec, Scenario};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// The original `BTreeMap`-backed metrics bookkeeping, retained verbatim
/// as the semantic ground truth for the slot-interned [`Metrics`].
#[derive(Default)]
struct RefMetrics {
    served: PerJobSeries,
    demand: PerJobSeries,
    records: PerJobSeries,
    allocations: PerJobSeries,
    served_by_job: BTreeMap<JobId, u64>,
    released_by_job: BTreeMap<JobId, u64>,
    completion_time: BTreeMap<JobId, Option<SimTime>>,
    last_served: BTreeMap<JobId, SimTime>,
    last_service: SimTime,
    latency_by_job: BTreeMap<JobId, LatencyHistogram>,
}

impl RefMetrics {
    fn new(bucket: SimDuration) -> Self {
        RefMetrics {
            served: PerJobSeries::new(bucket),
            demand: PerJobSeries::new(bucket),
            records: PerJobSeries::new(bucket),
            allocations: PerJobSeries::new(bucket),
            ..Default::default()
        }
    }

    fn on_served_at(&mut self, job: JobId, now: SimTime, issued_at: SimTime) {
        self.latency_by_job
            .entry(job)
            .or_default()
            .record(now.since(issued_at));
        self.on_served(job, now);
    }

    fn on_served(&mut self, job: JobId, now: SimTime) {
        self.served.add(job, now, 1.0);
        self.last_service = self.last_service.max(now);
        *self.served_by_job.entry(job).or_insert(0) += 1;
        let last = self.last_served.entry(job).or_insert(now);
        *last = (*last).max(now);
    }

    fn on_arrival(&mut self, job: JobId, now: SimTime) {
        self.demand.add(job, now, 1.0);
    }

    fn on_allocation(&mut self, job: JobId, now: SimTime, record: i64, tokens: u64) {
        self.records.set(job, now, record as f64);
        self.allocations.set(job, now, tokens as f64);
    }

    fn set_record(&mut self, job: JobId, now: SimTime, record: f64) {
        self.records.set(job, now, record);
    }

    fn set_released(&mut self, job: JobId, total: u64) {
        self.released_by_job.insert(job, total);
        self.completion_time.entry(job).or_insert(None);
    }

    /// The completion rule, restated over the maps: a tracked job that
    /// served exactly its released total completed at its latest serve.
    fn rebuild_completions(&mut self) {
        for (job, total) in &self.released_by_job {
            if self.served_by_job.get(job) == Some(total) {
                self.completion_time
                    .insert(*job, self.last_served.get(job).copied());
            }
        }
    }

    fn finalize(&mut self, until: SimTime) {
        for fam in [
            &mut self.served,
            &mut self.demand,
            &mut self.records,
            &mut self.allocations,
        ] {
            for job in fam.jobs() {
                fam.add(job, until, 0.0);
            }
            fam.align();
        }
    }
}

/// One randomized metric event.
#[derive(Debug, Clone, Copy)]
enum MetricOp {
    SetReleased(u32, u64),
    ServedAt(u32, u64, u64),
    Served(u32, u64),
    Arrival(u32, u64),
    Allocation(u32, u64, i64, u64),
    SetRecord(u32, u64, i64),
}

fn job_strategy() -> impl Strategy<Value = u32> {
    // Small dense ids (listed thrice for weight) plus huge ones that
    // exercise the interner's spill path.
    prop_oneof![
        0u32..10,
        0u32..10,
        0u32..10,
        Just(u32::MAX - 1),
        Just(3_000_000_000),
    ]
}

fn metric_op_strategy() -> impl Strategy<Value = MetricOp> {
    let t = 0u64..5_000u64; // event times in ms, deliberately non-monotone
    prop_oneof![
        (job_strategy(), 1u64..40).prop_map(|(j, n)| MetricOp::SetReleased(j, n)),
        (job_strategy(), t.clone(), 0u64..400)
            .prop_map(|(j, now, lat)| MetricOp::ServedAt(j, now, lat)),
        (job_strategy(), t.clone()).prop_map(|(j, now)| MetricOp::Served(j, now)),
        (job_strategy(), t.clone()).prop_map(|(j, now)| MetricOp::Arrival(j, now)),
        (job_strategy(), t.clone(), 0u64..100, 0u64..200)
            .prop_map(|(j, now, r, tk)| MetricOp::Allocation(j, now, r as i64 - 50, tk)),
        (job_strategy(), t, 0u64..100).prop_map(|(j, now, r)| MetricOp::SetRecord(
            j,
            now,
            r as i64 - 50
        )),
    ]
}

/// One event into the collector under test.
fn apply(m: &mut Metrics, op: MetricOp) {
    let ms = SimTime::from_millis;
    match op {
        MetricOp::SetReleased(j, n) => m.set_released(JobId(j), n),
        MetricOp::ServedAt(j, now, lat) => {
            m.on_served_at(JobId(j), ms(now), ms(now.saturating_sub(lat)))
        }
        MetricOp::Served(j, now) => m.on_served(JobId(j), ms(now)),
        MetricOp::Arrival(j, now) => m.on_arrival(JobId(j), ms(now)),
        MetricOp::Allocation(j, now, r, tk) => m.on_allocation(JobId(j), ms(now), r, tk),
        MetricOp::SetRecord(j, now, r) => m.set_record(JobId(j), ms(now), r as f64),
    }
}

/// A small random scenario: up to 4 jobs, mixed patterns, short horizon.
fn scenario_strategy() -> impl Strategy<Value = Scenario> {
    let job = (1u64..8, 1usize..3, 10u64..200, 0u8..3)
        .prop_map(|(nodes, procs, file, kind)| (nodes, procs, file, kind));
    proptest::collection::vec(job, 1..4).prop_map(|jobs| {
        let specs = jobs
            .into_iter()
            .enumerate()
            .map(|(i, (nodes, procs, file, kind))| {
                let spec = match kind {
                    0 => ProcessSpec::continuous(file),
                    1 => ProcessSpec::bursty(
                        file,
                        SimDuration::from_millis(200),
                        SimDuration::from_millis(700),
                        (file / 4).max(1),
                    ),
                    _ => ProcessSpec::delayed(file, SimDuration::from_millis(500)),
                };
                JobSpec::uniform(JobId(i as u32 + 1), nodes, procs, spec)
            })
            .collect();
        Scenario::new("prop", "", specs, SimDuration::from_secs(4))
    })
}

/// A random (possibly compound, possibly empty) fault plan sized for the
/// 2-OST test wiring: every generated plan passes `FaultPlan::validate`.
fn fault_plan_strategy() -> impl Strategy<Value = FaultPlan> {
    let stall = prop_oneof![
        Just(None),
        (4u64..12, 1u64..3).prop_map(|(every, duration)| Some(StallSpec { every, duration })),
    ];
    let stats = prop_oneof![Just(None), (2u64..8).prop_map(Some)];
    let degrade = prop_oneof![
        Just(None),
        (0u64..2000, 200u64..1500, 15u64..40).prop_map(|(from, for_, factor)| {
            Some(DegradeSpec {
                from: SimTime::from_millis(from),
                for_: SimDuration::from_millis(for_),
                factor: factor as f64 / 10.0,
            })
        }),
    ];
    let crash = prop_oneof![
        Just(None),
        (0usize..2, 50u64..1500, 100u64..800, 20u64..200).prop_map(|(ost, from, for_, resend)| {
            Some(CrashSpec {
                ost,
                from: SimTime::from_millis(from),
                for_: SimDuration::from_millis(for_),
                resend_after: SimDuration::from_millis(resend),
            })
        }),
    ];
    let churn = prop_oneof![
        Just(None),
        (300u64..1200, 1u64..9, 1usize..4).prop_map(|(every, tenths, stride)| {
            Some(ChurnSpec {
                every: SimDuration::from_millis(every),
                offline: SimDuration::from_millis(every * tenths / 10),
                stride,
            })
        }),
    ];
    (stall, stats, degrade, crash, churn).prop_map(
        |(controller_stall, stats_loss_every, disk_degrade, ost_crash, churn)| FaultPlan {
            controller_stall,
            stats_loss_every,
            disk_degrade,
            ost_crash,
            churn,
        },
    )
}

fn faulty_wiring(faults: FaultPlan) -> ClusterConfig {
    ClusterConfig {
        n_osts: 2,
        stripe_count: 2,
        faults,
        ..ClusterConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// `(scenario, policy, seed, wiring, faults)` fully determines a run:
    /// two executions agree on every series and on the fault accounting.
    #[test]
    fn faulty_runs_are_deterministic(
        scenario in scenario_strategy(),
        faults in fault_plan_strategy(),
        seed in 0u64..32,
    ) {
        prop_assert!(faults.validate().is_ok(), "{faults:?}");
        let cfg = faulty_wiring(faults);
        for policy in [Policy::NoBw, Policy::adaptbf_default()] {
            let a = Cluster::build_with(&scenario, policy, seed, cfg).run();
            let b = Cluster::build_with(&scenario, policy, seed, cfg).run();
            prop_assert_eq!(a.metrics.served(), b.metrics.served());
            prop_assert_eq!(a.metrics.demand(), b.metrics.demand());
            prop_assert_eq!(a.metrics.records(), b.metrics.records());
            prop_assert_eq!(a.metrics.served_by_job(), b.metrics.served_by_job());
            prop_assert_eq!(a.fault_stats, b.fault_stats);
        }
    }

    /// Record → replay under a random fault plan is byte-exact: the plan
    /// rides the trace header (which round-trips through text), and the
    /// replay regenerates every resend/re-route deterministically.
    #[test]
    fn record_replay_under_faults_is_byte_exact(
        scenario in scenario_strategy(),
        faults in fault_plan_strategy(),
        seed in 0u64..32,
    ) {
        let cfg = faulty_wiring(faults);
        for policy in [Policy::NoBw, Policy::StaticBw, Policy::adaptbf_default()] {
            let (out, trace) = Cluster::build_with(&scenario, policy, seed, cfg).run_traced();
            prop_assert_eq!(trace.meta.faults, faults, "plan rides the header");
            let parsed = Trace::from_text(&trace.to_text()).expect("trace parses");
            prop_assert_eq!(&parsed, &trace, "text round trip");
            let replayed =
                Cluster::build_replay(&parsed, policy, seed, replay_cluster_config(&parsed)).run();
            prop_assert_eq!(
                out.metrics.served_by_job(),
                replayed.metrics.served_by_job(),
                "served counts diverged under {}", policy.name()
            );
            prop_assert_eq!(out.metrics.served(), replayed.metrics.served());
            prop_assert_eq!(out.fault_stats, replayed.fault_stats);
        }
    }

    /// The conservation invariant survives every disturbance: faults may
    /// delay or displace RPCs but can never mint them.
    #[test]
    fn served_never_exceeds_released_under_faults(
        scenario in scenario_strategy(),
        faults in fault_plan_strategy(),
        seed in 0u64..32,
    ) {
        let cfg = faulty_wiring(faults);
        let out = Cluster::build_with(&scenario, Policy::adaptbf_default(), seed, cfg).run();
        for (job, served) in &out.metrics.served_by_job() {
            let released = out.metrics.released_by_job().get(job).copied().unwrap_or(0);
            prop_assert!(
                *served <= released,
                "{} served {} > released {} under {:?}",
                job, served, released, faults
            );
        }
        let fs = out.fault_stats;
        prop_assert!(fs.lost_in_service <= fs.resent);
        if faults.ost_crash.is_none() {
            prop_assert_eq!(fs, adaptbf_sim::FaultStats::default());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn served_never_exceeds_released(scenario in scenario_strategy(), seed in 0u64..64) {
        for policy in [Policy::NoBw, Policy::StaticBw, Policy::adaptbf_default()] {
            let out = Cluster::build(&scenario, policy, seed).run();
            for (job, served) in &out.metrics.served_by_job() {
                let released = out.metrics.released_by_job().get(job).copied().unwrap_or(0);
                prop_assert!(
                    *served <= released,
                    "{job} served {served} > released {released} under {}",
                    policy.name()
                );
            }
        }
    }

    #[test]
    fn adaptbf_ledger_always_balances(scenario in scenario_strategy(), seed in 0u64..64) {
        let out = Cluster::build(&scenario, Policy::adaptbf_default(), seed).run();
        // The records gauge of the last bucket must sum to zero.
        let mut records = out.metrics.records();
        records.align();
        let n = records.max_len();
        if n > 0 {
            let total: f64 = records
                .jobs()
                .iter()
                .map(|j| records.get(*j).map_or(0.0, |s| s.get(n - 1)))
                .sum();
            prop_assert_eq!(total, 0.0, "ledger must balance");
        }
    }

    #[test]
    fn runs_are_bit_deterministic(scenario in scenario_strategy(), seed in 0u64..16) {
        let a = Cluster::build(&scenario, Policy::adaptbf_default(), seed).run();
        let b = Cluster::build(&scenario, Policy::adaptbf_default(), seed).run();
        prop_assert_eq!(a.metrics.served(), b.metrics.served());
        prop_assert_eq!(a.metrics.demand(), b.metrics.demand());
        prop_assert_eq!(a.metrics.records(), b.metrics.records());
    }

    #[test]
    fn timeline_totals_match_counters(scenario in scenario_strategy(), seed in 0u64..32) {
        let out = Cluster::build(&scenario, Policy::adaptbf_default(), seed).run();
        for (job, count) in &out.metrics.served_by_job() {
            let series_total =
                out.metrics.served().get(*job).map_or(0.0, |s| s.total());
            prop_assert_eq!(series_total as u64, *count, "series vs counter for {}", job);
        }
        // Latency samples equal served counts.
        for (job, count) in &out.metrics.served_by_job() {
            prop_assert_eq!(out.metrics.latency_of(*job).map_or(0, |l| l.count()), *count);
        }
    }

    #[test]
    fn striping_preserves_work(
        scenario in scenario_strategy(),
        seed in 0u64..16,
        stripes in 1usize..4,
    ) {
        let cfg = ClusterConfig {
            n_osts: 4,
            stripe_count: stripes.min(4),
            ..ClusterConfig::default()
        };
        let out = Cluster::build_with(&scenario, Policy::adaptbf_default(), seed, cfg).run();
        let plain = Cluster::build(&scenario, Policy::NoBw, seed).run();
        // Striping changes placement, never the amount of achievable work:
        // with 4 OSTs of capacity versus 1, everything released must be
        // served at least as completely as the single-OST No BW run.
        prop_assert!(
            out.metrics.total_served() >= plain.metrics.total_served(),
            "striped {} < single {}",
            out.metrics.total_served(),
            plain.metrics.total_served()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `fold_shards` takes its first shard as it is instead of absorbing
    /// it into an empty collector. For 1–4 shards with overlapping jobs,
    /// ragged lengths (a shard may already be finalized), release totals
    /// some shards knew inline, and a gauge every shard wrote as 0.0,
    /// every report shape equals the absorb-everything fold's.
    #[test]
    fn fold_shards_equals_absorbing_every_shard_into_an_empty_collector(
        streams in proptest::collection::vec(
            (proptest::collection::vec(metric_op_strategy(), 0..120), any::<bool>()),
            1..5,
        ),
        released in proptest::collection::vec((job_strategy(), 1u64..40), 0..6),
    ) {
        let bucket = SimDuration::from_millis(100);
        let ms = SimTime::from_millis;
        let shards: Vec<Metrics> = streams
            .iter()
            .enumerate()
            .map(|(k, (ops, finalized))| {
                let mut shard = Metrics::new(bucket);
                ops.iter().for_each(|op| apply(&mut shard, *op));
                shard.set_record(JobId(1), ms(700 + 100 * (k as u64 % 2)), 0.0);
                if *finalized {
                    shard.finalize(ms(2_000 + 500 * k as u64));
                }
                shard
            })
            .collect();
        let released: Vec<(JobId, u64)> = released.iter().map(|&(j, n)| (JobId(j), n)).collect();

        let mut want = Metrics::new(bucket);
        shards.iter().for_each(|shard| want.absorb(shard));
        released.iter().for_each(|&(job, total)| want.set_released(job, total));
        want.rebuild_completions();
        want.finalize(ms(5_000));
        let got = Metrics::fold_shards(bucket, shards, released, ms(5_000));

        prop_assert_eq!(got.served(), want.served());
        prop_assert_eq!(got.demand(), want.demand());
        prop_assert_eq!(got.records(), want.records());
        prop_assert_eq!(got.allocations(), want.allocations());
        prop_assert_eq!(got.served_by_job(), want.served_by_job());
        prop_assert_eq!(got.released_by_job(), want.released_by_job());
        prop_assert_eq!(got.completion_time(), want.completion_time());
        prop_assert_eq!(got.latency_by_job(), want.latency_by_job());
        prop_assert_eq!(got.last_service, want.last_service);
    }

    /// The tentpole equivalence: a random stream of metric events drives
    /// the slot-interned collector and the retained BTreeMap reference;
    /// every fold/read-time view must match exactly — counters,
    /// completion detection, latency histograms, and all four timeline
    /// families, including after `finalize` padding/alignment.
    #[test]
    fn slot_metrics_match_btreemap_reference(
        ops in proptest::collection::vec(metric_op_strategy(), 0..300),
    ) {
        let bucket = SimDuration::from_millis(100);
        let mut flat = Metrics::new(bucket);
        let mut reference = RefMetrics::new(bucket);
        let ms = SimTime::from_millis;
        for op in &ops {
            match *op {
                MetricOp::SetReleased(j, n) => {
                    flat.set_released(JobId(j), n);
                    reference.set_released(JobId(j), n);
                }
                MetricOp::ServedAt(j, now, lat) => {
                    let issued = ms(now.saturating_sub(lat));
                    flat.on_served_at(JobId(j), ms(now), issued);
                    reference.on_served_at(JobId(j), ms(now), issued);
                }
                MetricOp::Served(j, now) => {
                    flat.on_served(JobId(j), ms(now));
                    reference.on_served(JobId(j), ms(now));
                }
                MetricOp::Arrival(j, now) => {
                    flat.on_arrival(JobId(j), ms(now));
                    reference.on_arrival(JobId(j), ms(now));
                }
                MetricOp::Allocation(j, now, r, tk) => {
                    flat.on_allocation(JobId(j), ms(now), r, tk);
                    reference.on_allocation(JobId(j), ms(now), r, tk);
                }
                MetricOp::SetRecord(j, now, r) => {
                    flat.set_record(JobId(j), ms(now), r as f64);
                    reference.set_record(JobId(j), ms(now), r as f64);
                }
            }
        }
        // Mid-stream (pre-finalize) views must already agree.
        prop_assert_eq!(flat.total_served(), reference.served_by_job.values().sum::<u64>());
        prop_assert_eq!(flat.served(), reference.served.clone());
        flat.rebuild_completions();
        reference.rebuild_completions();
        flat.finalize(ms(5_000));
        reference.finalize(ms(5_000));
        prop_assert_eq!(flat.served_by_job(), reference.served_by_job.clone());
        prop_assert_eq!(flat.released_by_job(), reference.released_by_job.clone());
        prop_assert_eq!(flat.completion_time(), reference.completion_time.clone());
        prop_assert_eq!(flat.latency_by_job(), reference.latency_by_job.clone());
        prop_assert_eq!(flat.last_service, reference.last_service);
        prop_assert_eq!(flat.served(), reference.served.clone());
        prop_assert_eq!(flat.demand(), reference.demand.clone());
        prop_assert_eq!(flat.records(), reference.records.clone());
        prop_assert_eq!(flat.allocations(), reference.allocations.clone());
        for j in [0u32, 1, 5, 9, u32::MAX - 1, 3_000_000_000] {
            let job = JobId(j);
            prop_assert_eq!(
                flat.latency_of(job).cloned().unwrap_or_default(),
                reference.latency_by_job.get(&job).cloned().unwrap_or_default()
            );
            prop_assert_eq!(
                flat.served_of(job),
                reference.served_by_job.get(&job).copied().unwrap_or(0)
            );
            prop_assert_eq!(
                flat.released_of(job),
                reference.released_by_job.get(&job).copied().unwrap_or(0)
            );
            prop_assert_eq!(
                flat.completion_of(job),
                reference.completion_time.get(&job).copied().flatten()
            );
        }
    }
}
