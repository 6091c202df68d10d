//! Conservation of RPC accounting across the live runtime's three
//! bookkeepers: the sharded `LiveMetrics` collector (per-OST metrics
//! shards plus lock-free issued/served slot counters), the per-process
//! `ProcFinal` tallies the client threads return, and the per-OST
//! `OstFinal` serve counts. The batched data path moves hundreds of
//! thousands of RPC/s through bounded channels with amortized completion
//! tokens — these tests pin down that no RPC is double-counted or lost in
//! the books at any batch setting, fault-free or through crash and churn
//! windows, and that the issued counter commits only *after* a successful
//! channel send (the shutdown-race fix: a client racing the horizon must
//! not count an RPC the OST never received).
//!
//! These are wall-clock tests: each case runs its scenario duration in
//! real time, so the mixes are short.

use adaptbf::analysis::resilience::conservation_ok;
use adaptbf::model::{JobId, SimDuration, SimTime};
use adaptbf::runtime::{LiveCluster, LiveReport, LiveTuning};
use adaptbf::sim::Policy;
use adaptbf::workload::{ChurnSpec, CrashSpec, FaultPlan, JobSpec, ProcessSpec, Scenario};

/// Wall clock per live run.
const RUN_MS: u64 = 1200;

/// Two saturating continuous jobs at 25/75% priority — enough offered
/// load that every path (batching, windows, resends) stays busy.
fn saturating_pair() -> Scenario {
    Scenario::new(
        "accounting",
        "two saturating continuous jobs",
        vec![
            JobSpec::uniform(JobId(1), 1, 2, ProcessSpec::continuous(1_000_000)),
            JobSpec::uniform(JobId(2), 3, 2, ProcessSpec::continuous(1_000_000)),
        ],
        SimDuration::from_millis(RUN_MS),
    )
}

fn tuning(n_osts: usize, max_batch: usize) -> LiveTuning {
    LiveTuning {
        n_osts,
        stripe_count: n_osts,
        max_batch,
        ..LiveTuning::fast_test()
    }
}

/// The conservation ledger every live run must balance, whatever the
/// batch size or fault plan:
///
/// * the collector's issued counters agree *exactly* with what the client
///   threads report having sent (the count-after-send invariant);
/// * the folded report's served total agrees *exactly* with the sum of
///   the per-OST serve tallies (one bump per served RPC, in one place);
/// * clients never see more completions than serves (tokens are counted,
///   never invented), and nothing is served that was not issued;
/// * the fault-stats partition balances (`conservation_ok`).
fn assert_books_balance(live: &LiveReport, what: &str) {
    let issued_collector: u64 = live.issued.values().sum();
    let issued_procs: u64 = live.procs.iter().map(|p| p.issued).sum();
    assert_eq!(
        issued_collector, issued_procs,
        "{what}: collector says {issued_collector} issued, client threads say {issued_procs}"
    );
    let served = live.total_served();
    let served_osts: u64 = live.served_per_ost.iter().sum();
    assert_eq!(
        served, served_osts,
        "{what}: report says {served} served, OST tallies say {served_osts}"
    );
    let completed: u64 = live.procs.iter().map(|p| p.completed).sum();
    assert!(
        completed <= served,
        "{what}: {completed} completions exceed {served} serves"
    );
    assert!(
        served <= issued_procs,
        "{what}: {served} serves exceed {issued_procs} issues"
    );
    assert!(
        conservation_ok(&live.report),
        "{what}: fault partition leaked: {:?}",
        live.report.fault_stats
    );
    assert!(served > 500, "{what}: barely served ({served})");
    // No job starves on real threads, faults or not.
    for (job, outcome) in &live.report.per_job {
        assert!(outcome.served > 0, "{what}: {job} served nothing");
    }
}

/// A crash window over the middle of the run (stripe pair, OST 0 down
/// from 25% to 50% of the horizon) — resends and reroutes in the books.
fn mid_crash() -> FaultPlan {
    FaultPlan {
        ost_crash: Some(CrashSpec {
            ost: 0,
            from: SimTime::from_millis(RUN_MS / 4),
            for_: SimDuration::from_millis(RUN_MS / 4),
            resend_after: SimDuration::from_millis(30),
        }),
        ..FaultPlan::none()
    }
}

/// Rotating client churn: each process sits out part of every cycle.
fn churn() -> FaultPlan {
    FaultPlan {
        churn: Some(ChurnSpec {
            every: SimDuration::from_millis(400),
            offline: SimDuration::from_millis(150),
            stride: 2,
        }),
        ..FaultPlan::none()
    }
}

/// Every fault shape × every batch setting balances the same ledger. The
/// batch settings bracket the data path: 1 is the legacy
/// one-message-per-RPC path, the `fast_test` default exercises real
/// batches with the amortized completion tokens.
#[test]
fn books_balance_across_faults_and_batch_settings() {
    let cases: &[(&str, FaultPlan, usize)] = &[
        ("fault_free", FaultPlan::none(), 1),
        ("crash", mid_crash(), 2),
        ("churn", churn(), 1),
    ];
    for &(name, ref faults, n_osts) in cases {
        for max_batch in [1, LiveTuning::fast_test().max_batch] {
            let live = LiveCluster::run_with_faults(
                &saturating_pair(),
                Policy::NoBw,
                tuning(n_osts, max_batch),
                faults,
                11,
            )
            .expect("plans are live-feasible");
            assert_books_balance(&live, &format!("{name}/batch={max_batch}"));
        }
    }
}

/// The ledger holds under the allocating policy too (controller cycles,
/// rule churn, fallback paths — none of it may touch the counters).
#[test]
fn books_balance_under_adaptbf() {
    let live = LiveCluster::run_with_faults(
        &saturating_pair(),
        Policy::adaptbf_default(),
        tuning(2, LiveTuning::fast_test().max_batch),
        &mid_crash(),
        11,
    )
    .expect("the crash plan is live-feasible");
    assert_books_balance(&live, "adaptbf/crash");
}

/// The shutdown race, pinned: on a horizon so tight that clients are
/// still issuing when the OSTs close their ingest channels, a batch that
/// fails to send must not be counted as issued. Exact parity between the
/// collector and the client threads is the regression test for the
/// old count-before-send bug.
#[test]
fn issued_parity_survives_a_shutdown_race() {
    for round in 0..3 {
        let live = LiveCluster::run_with_faults(
            &Scenario::new(
                "tight",
                "clients racing the horizon",
                vec![
                    JobSpec::uniform(JobId(1), 1, 2, ProcessSpec::continuous(1_000_000)),
                    JobSpec::uniform(JobId(2), 1, 2, ProcessSpec::continuous(1_000_000)),
                ],
                SimDuration::from_millis(150),
            ),
            Policy::NoBw,
            tuning(1, 64),
            &FaultPlan::none(),
            round,
        )
        .expect("fault-free is live-feasible");
        let issued_collector: u64 = live.issued.values().sum();
        let issued_procs: u64 = live.procs.iter().map(|p| p.issued).sum();
        assert_eq!(
            issued_collector, issued_procs,
            "round {round}: a batch that never reached an OST was counted as issued"
        );
    }
}
