//! Unit tests of the sharded cluster — and the home of the **fixed-window
//! oracle**: the original conservative epoch protocol, which the shipped
//! simulator no longer carries. It survives here as the reference the
//! adaptive windows are checked against.

use super::shard::Msg;
use super::*;
use crate::report::report_body_digest;
use adaptbf_model::{JobId, NetworkConfig};
use adaptbf_workload::faults::{ChurnSpec, CrashSpec};
use adaptbf_workload::{JobSpec, PlanBounds, ProcessSpec, WorkChunk};
use proptest::prelude::*;
use std::collections::BTreeMap;

impl Shard {
    /// Process every event in the half-open epoch window
    /// `[·, window_end)`, clipped to the horizon.
    fn run_window(&mut self, sh: &Shared, window_end: SimTime) {
        let end = sh.end;
        while let Some((now, key, event)) =
            self.queue.pop_entry_if(|t, _| t < window_end && t <= end)
        {
            self.note_pop();
            self.handle(sh, event, now, key);
        }
    }
}

/// The original conservative protocol, kept verbatim (sequential half) as
/// the reference oracle: every shard — emitting or not — steps the global
/// window `[t_min, t_min + L)` each epoch.
///
/// ```text
/// loop:
///   1. each shard drains its inbox into its queue
///   2. t_min := min next-event time over all shards; stop if none or
///      past the horizon
///   3. each shard processes its events in [t_min, t_min + L)
///   4. each shard flushes its outboxes into destination inboxes
/// ```
///
/// Any message sent while processing the window lands at ≥ sender_now + L
/// ≥ t_min + L — outside the window — so no shard can miss an incoming
/// event it should have processed this epoch; the lookahead floor on
/// client resends preserves this for fault redeliveries too.
fn run_fixed(shared: &Shared, shards: &mut [Shard]) -> u64 {
    let end_ns = shared.end.as_nanos();
    let mut inboxes: Vec<Vec<Msg>> = shards.iter().map(|_| Vec::new()).collect();
    let mut epochs = 0u64;
    loop {
        let mut t_min = u64::MAX;
        for (shard, inbox) in shards.iter_mut().zip(&mut inboxes) {
            shard.deliver_inbox(inbox);
            if let Some(t) = shard.queue.peek_at() {
                t_min = t_min.min(t.as_nanos());
            }
        }
        if t_min == u64::MAX || t_min > end_ns {
            break;
        }
        epochs += 1;
        let window_end = SimTime(t_min) + shared.lookahead;
        for shard in shards.iter_mut() {
            shard.run_window(shared, window_end);
            for (dest, inbox) in inboxes.iter_mut().enumerate() {
                if !shard.outbox[dest].is_empty() {
                    shard.loop_stats.inbox_flushes += 1;
                    inbox.append(&mut shard.outbox[dest]);
                }
            }
        }
    }
    epochs
}

/// Run `cluster` under the fixed-window oracle instead of the shipped
/// adaptive protocol.
fn run_under_fixed_oracle(cluster: Cluster) -> RawRunOutput {
    cluster.execute(false, run_fixed).0
}

fn tiny_scenario() -> Scenario {
    Scenario::new(
        "tiny",
        "two jobs, equal priority",
        vec![
            JobSpec::uniform(JobId(1), 1, 2, ProcessSpec::continuous(50)),
            JobSpec::uniform(JobId(2), 1, 2, ProcessSpec::continuous(50)),
        ],
        SimDuration::from_secs(3),
    )
}

#[test]
fn no_bw_serves_all_work() {
    let out = Cluster::build(&tiny_scenario(), Policy::NoBw, 1).run();
    assert_eq!(out.metrics.total_served(), 200, "all 200 RPCs served");
    assert_eq!(out.metrics.completion_time().len(), 2);
    assert!(out.metrics.completion_of(JobId(1)).is_some());
    assert!(out.overheads.is_empty());
    let stats = out.loop_stats;
    assert!(stats.events > 400, "every RPC crosses several events");
    assert!(stats.peak_queue_depth > 0);
}

#[test]
fn adaptbf_serves_all_work_and_reports_overhead() {
    let out = Cluster::build(&tiny_scenario(), Policy::adaptbf_default(), 1).run();
    assert_eq!(out.metrics.total_served(), 200);
    assert_eq!(out.overheads.len(), 1);
    assert!(out.overheads[0].ticks > 10, "a tick every 100 ms");
}

#[test]
fn static_bw_respects_rates() {
    // Job 1 alone at 50% → 500 tps static cap. 100 RPCs take ≥ 200 ms
    // even though the disk could do them in ~100 ms.
    let scenario = Scenario::new(
        "static",
        "",
        vec![
            JobSpec::uniform(JobId(1), 1, 4, ProcessSpec::continuous(25)),
            JobSpec::uniform(JobId(2), 1, 1, ProcessSpec::continuous(1)),
        ],
        SimDuration::from_secs(2),
    );
    let out = Cluster::build(&scenario, Policy::StaticBw, 1).run();
    let done = out.metrics.completion_of(JobId(1)).expect("finishes");
    assert!(
        done >= SimTime::from_millis(190),
        "static 500 tps cap must stretch 100 RPCs to ≈200 ms, got {done}"
    );
    assert_eq!(out.metrics.total_served(), 101);
}

#[test]
fn deterministic_given_seed() {
    let a = Cluster::build(&tiny_scenario(), Policy::adaptbf_default(), 42).run();
    let b = Cluster::build(&tiny_scenario(), Policy::adaptbf_default(), 42).run();
    assert_eq!(a.metrics.served_by_job(), b.metrics.served_by_job());
    assert_eq!(a.metrics.served(), b.metrics.served());
    let c = Cluster::build(&tiny_scenario(), Policy::adaptbf_default(), 43).run();
    // Different seed: still all served, timeline may differ.
    assert_eq!(c.metrics.total_served(), 200);
}

#[test]
fn replay_reproduces_recorded_run_exactly() {
    for policy in [Policy::NoBw, Policy::StaticBw, Policy::adaptbf_default()] {
        let (out, trace) = Cluster::build(&tiny_scenario(), policy, 9).run_traced();
        assert_eq!(trace.records.len(), 200, "every RPC recorded");
        let replayed = Cluster::build_replay(&trace, policy, 9, ClusterConfig::default()).run();
        assert_eq!(
            out.metrics.served_by_job(),
            replayed.metrics.served_by_job(),
            "replay diverged under {}",
            policy.name()
        );
        assert_eq!(out.metrics.served(), replayed.metrics.served());
    }
}

#[test]
fn recorded_trace_round_trips_through_text() {
    let (_, trace) = Cluster::build(&tiny_scenario(), Policy::adaptbf_default(), 5).run_traced();
    let text = trace.to_text();
    let parsed = adaptbf_workload::trace::Trace::from_text(&text).expect("parses");
    assert_eq!(parsed, trace);
}

fn crash_faults(ost: usize, from_ms: u64, for_ms: u64) -> FaultPlan {
    FaultPlan {
        ost_crash: Some(CrashSpec {
            ost,
            from: SimTime::from_millis(from_ms),
            for_: SimDuration::from_millis(for_ms),
            resend_after: SimDuration::from_millis(50),
        }),
        ..FaultPlan::none()
    }
}

#[test]
fn ost_crash_on_striped_pair_loses_no_work() {
    let cfg = ClusterConfig {
        n_osts: 2,
        stripe_count: 2,
        faults: crash_faults(1, 20, 150),
        ..Default::default()
    };
    for policy in [Policy::NoBw, Policy::StaticBw, Policy::adaptbf_default()] {
        let out = Cluster::build_with(&tiny_scenario(), policy, 3, cfg).run();
        assert_eq!(
            out.metrics.total_served(),
            200,
            "every RPC survives the failover under {}",
            policy.name()
        );
        let fs = out.fault_stats;
        assert!(
            fs.resent + fs.rerouted > 0,
            "the crash window must actually displace traffic: {fs:?}"
        );
        assert!(fs.lost_in_service <= fs.resent);
    }
}

#[test]
fn single_ost_crash_parks_arrivals_until_recovery() {
    let cfg = ClusterConfig {
        faults: crash_faults(0, 50, 200),
        ..Default::default()
    };
    let out = Cluster::build_with(&tiny_scenario(), Policy::adaptbf_default(), 3, cfg).run();
    assert_eq!(
        out.metrics.total_served(),
        200,
        "no survivor ⇒ park or resend, never drop"
    );
    let fs = out.fault_stats;
    assert!(fs.resent > 0, "{fs:?}");
    assert_eq!(fs.rerouted, 0, "nowhere to re-route to: {fs:?}");
    assert_eq!(fs.undelivered, 0, "everything redelivered in time: {fs:?}");
}

#[test]
fn resends_cut_off_by_the_horizon_are_counted_undelivered() {
    // The crash opens mid-run but the resend timeout stretches past
    // the horizon: displaced RPCs cannot be redelivered in time. They
    // must not vanish from the books — `undelivered` owns them.
    let cfg = ClusterConfig {
        faults: FaultPlan {
            ost_crash: Some(CrashSpec {
                ost: 0,
                from: SimTime::from_millis(100),
                for_: SimDuration::from_millis(200),
                resend_after: SimDuration::from_secs(10),
            }),
            ..FaultPlan::none()
        },
        ..Default::default()
    };
    let out = Cluster::build_with(&tiny_scenario(), Policy::adaptbf_default(), 3, cfg).run();
    let fs = out.fault_stats;
    assert!(
        fs.undelivered > 0,
        "cut-off resends must be tallied: {fs:?}"
    );
    assert_eq!(
        fs.undelivered, fs.resent,
        "a 10s timeout strands every resend of this run: {fs:?}"
    );
    // The undelivered RPCs also pin their client window slots, so some
    // backlog stays unissued — but nothing is unaccounted: whatever is
    // not served is either an undelivered resend or still client-side.
    let served = out.metrics.total_served();
    assert!(served < 200, "the stranded resends cannot have been served");
    assert!(
        served + fs.undelivered <= 200,
        "no RPC is both served and undelivered: {fs:?}"
    );
}

#[test]
fn reroute_stays_within_the_stripe_set() {
    // 4 OSTs but stripe width 1: the single process's file lives on
    // OST 0 only. When OST 0 crashes there is no *stripe member* to
    // fail over to — its RPCs must park until recovery, never leak to
    // OSTs 1..3 that the client's layout does not include.
    let scenario = Scenario::new(
        "one_proc",
        "",
        vec![JobSpec::uniform(
            JobId(1),
            1,
            1,
            ProcessSpec::continuous(200),
        )],
        SimDuration::from_secs(3),
    );
    let cfg = ClusterConfig {
        n_osts: 4,
        stripe_count: 1,
        faults: crash_faults(0, 20, 150),
        ..Default::default()
    };
    let out = Cluster::build_with(&scenario, Policy::adaptbf_default(), 3, cfg).run();
    assert_eq!(
        out.metrics.total_served(),
        200,
        "confined work still served"
    );
    let fs = out.fault_stats;
    assert!(fs.resent > 0, "{fs:?}");
    assert_eq!(
        fs.rerouted, 0,
        "no foreign OST may serve a stripe-confined file: {fs:?}"
    );
    assert_eq!(fs.undelivered, 0, "{fs:?}");
}

#[test]
fn faulty_runs_are_deterministic_and_faultless_stats_are_zero() {
    let cfg = ClusterConfig {
        n_osts: 2,
        stripe_count: 2,
        faults: FaultPlan {
            churn: Some(ChurnSpec {
                every: SimDuration::from_millis(300),
                offline: SimDuration::from_millis(100),
                stride: 2,
            }),
            ..crash_faults(1, 60, 150)
        },
        ..Default::default()
    };
    let run = || {
        let out = Cluster::build_with(&tiny_scenario(), Policy::adaptbf_default(), 7, cfg).run();
        (out.metrics.served_by_job(), out.fault_stats)
    };
    let (a, fa) = run();
    let (b, fb) = run();
    assert_eq!(a, b);
    assert_eq!(fa, fb);
    let clean = Cluster::build(&tiny_scenario(), Policy::adaptbf_default(), 7).run();
    assert_eq!(clean.fault_stats, FaultStats::default());
}

#[test]
fn churn_pauses_issuance_but_serves_everything() {
    let cfg = ClusterConfig {
        faults: FaultPlan {
            churn: Some(ChurnSpec {
                every: SimDuration::from_millis(600),
                offline: SimDuration::from_millis(200),
                stride: 2,
            }),
            ..FaultPlan::none()
        },
        ..Default::default()
    };
    let faulty = Cluster::build_with(&tiny_scenario(), Policy::adaptbf_default(), 3, cfg).run();
    assert_eq!(
        faulty.metrics.total_served(),
        200,
        "churn delays, never drops"
    );
    // Offline windows must actually defer service relative to the
    // healthy run at some point in the timeline.
    let healthy = Cluster::build(&tiny_scenario(), Policy::adaptbf_default(), 3).run();
    assert!(
        faulty.metrics.last_service >= healthy.metrics.last_service,
        "pausing issuance cannot finish earlier"
    );
}

#[test]
fn replay_reproduces_faulty_run_exactly() {
    let cfg = ClusterConfig {
        n_osts: 2,
        stripe_count: 2,
        faults: crash_faults(1, 20, 150),
        ..Default::default()
    };
    for policy in [Policy::NoBw, Policy::StaticBw, Policy::adaptbf_default()] {
        let (out, trace) = Cluster::build_with(&tiny_scenario(), policy, 9, cfg).run_traced();
        assert_eq!(
            trace.meta.faults, cfg.faults,
            "the active fault plan rides in the trace header"
        );
        // Resends/re-routes are derived, not recorded: the trace holds
        // exactly the client-originated arrivals.
        assert_eq!(trace.records.len(), 200);
        let replayed = Cluster::build_replay(&trace, policy, 9, cfg).run();
        assert_eq!(
            out.metrics.served_by_job(),
            replayed.metrics.served_by_job(),
            "faulty replay diverged under {}",
            policy.name()
        );
        assert_eq!(out.metrics.served(), replayed.metrics.served());
        assert_eq!(out.fault_stats, replayed.fault_stats);
    }
}

#[test]
#[should_panic(expected = "out of range")]
fn crash_on_unknown_ost_is_rejected() {
    let cfg = ClusterConfig {
        faults: crash_faults(3, 100, 100),
        ..Default::default()
    };
    let _ = Cluster::build_with(&tiny_scenario(), Policy::NoBw, 1, cfg);
}

#[test]
fn multi_ost_stripes_processes() {
    let cfg = ClusterConfig {
        n_osts: 2,
        ..Default::default()
    };
    let out = Cluster::build_with(&tiny_scenario(), Policy::adaptbf_default(), 1, cfg).run();
    assert_eq!(out.metrics.total_served(), 200);
    assert_eq!(out.overheads.len(), 2, "one controller per OST");
    assert!(out.overheads.iter().all(|o| o.ticks > 0));
}

// ---- sharded-execution oracles --------------------------------------

/// Every scalar observable surface of a run, for whole-run equality
/// checks across shard counts.
type Surfaces = (
    BTreeMap<JobId, u64>,
    BTreeMap<JobId, Option<SimTime>>,
    SimTime,
    FaultStats,
    u64,
);

fn surfaces(out: &RawRunOutput) -> Surfaces {
    (
        out.metrics.served_by_job(),
        out.metrics.completion_time(),
        out.metrics.last_service,
        out.fault_stats,
        out.loop_stats.events,
    )
}

fn assert_same_run(a: &RawRunOutput, b: &RawRunOutput, what: &str) {
    assert_eq!(surfaces(a), surfaces(b), "{what}: scalar surfaces diverged");
    assert_eq!(a.metrics.served(), b.metrics.served(), "{what}: served");
    assert_eq!(a.metrics.demand(), b.metrics.demand(), "{what}: demand");
    assert_eq!(a.metrics.records(), b.metrics.records(), "{what}: records");
    assert_eq!(
        a.metrics.allocations(),
        b.metrics.allocations(),
        "{what}: allocations"
    );
    assert_eq!(
        a.metrics.latency_by_job(),
        b.metrics.latency_by_job(),
        "{what}: latency"
    );
    assert_eq!(a.overheads.len(), b.overheads.len(), "{what}: overheads");
}

#[test]
fn sharded_runs_match_single_shard_exactly() {
    // 4 OSTs, stripe 2, no crash: the coupled epoch path with
    // real cross-shard arrivals and replies at every shard count > 1.
    let cfg = ClusterConfig {
        n_osts: 4,
        stripe_count: 2,
        ..Default::default()
    };
    for policy in [Policy::NoBw, Policy::StaticBw, Policy::adaptbf_default()] {
        let base = Cluster::build_with(&tiny_scenario(), policy, 11, cfg)
            .shards(1)
            .run();
        for n in [2, 4, 16] {
            let sharded = Cluster::build_with(&tiny_scenario(), policy, 11, cfg)
                .shards(n)
                .run();
            assert_same_run(&base, &sharded, &format!("{} @ {n} shards", policy.name()));
        }
    }
}

#[test]
fn crash_reroute_crossing_shards_mid_epoch_matches_unsharded() {
    // OST 1 crashes while striped traffic is in flight: re-routes and
    // client resends must cross the shard boundary and still land in
    // the same global order as the single-queue run.
    let cfg = ClusterConfig {
        n_osts: 2,
        stripe_count: 2,
        faults: crash_faults(1, 20, 150),
        ..Default::default()
    };
    let base = Cluster::build_with(&tiny_scenario(), Policy::adaptbf_default(), 3, cfg)
        .shards(1)
        .run();
    assert!(
        base.fault_stats.rerouted > 0,
        "the scenario must actually re-route: {:?}",
        base.fault_stats
    );
    for n in [2, 16] {
        let sharded = Cluster::build_with(&tiny_scenario(), Policy::adaptbf_default(), 3, cfg)
            .shards(n)
            .run();
        assert_same_run(&base, &sharded, &format!("crash reroute @ {n} shards"));
    }
}

#[test]
fn events_exactly_on_epoch_boundaries_are_exchanged_correctly() {
    // Zero jitter: every hop takes exactly `base_latency`, so every
    // cross-shard message lands exactly on an epoch boundary (the
    // lookahead is shaved a hair *below* the base latency — the
    // half-open window must push boundary events into the next epoch,
    // never drop or double-process them).
    let cfg = ClusterConfig {
        n_osts: 4,
        stripe_count: 4,
        network: NetworkConfig {
            base_latency: SimDuration::from_micros(100),
            jitter: 0.0,
        },
        ..Default::default()
    };
    let base = Cluster::build_with(&tiny_scenario(), Policy::adaptbf_default(), 5, cfg)
        .shards(1)
        .run();
    assert_eq!(base.metrics.total_served(), 200);
    for n in [2, 4] {
        let sharded = Cluster::build_with(&tiny_scenario(), Policy::adaptbf_default(), 5, cfg)
            .shards(n)
            .run();
        assert_same_run(&base, &sharded, &format!("boundary events @ {n} shards"));
    }
}

#[test]
fn zero_lookahead_degrades_to_a_single_shard() {
    // Full jitter means a latency draw can be zero: no conservative
    // window exists (every epoch would be zero-length). The coupled
    // path must fall back to one shard rather than livelock.
    let cfg = ClusterConfig {
        n_osts: 2,
        stripe_count: 2,
        network: NetworkConfig {
            base_latency: SimDuration::from_micros(100),
            jitter: 1.0,
        },
        ..Default::default()
    };
    let base = Cluster::build_with(&tiny_scenario(), Policy::NoBw, 7, cfg)
        .shards(1)
        .run();
    let sharded = Cluster::build_with(&tiny_scenario(), Policy::NoBw, 7, cfg)
        .shards(8)
        .run();
    assert_eq!(base.metrics.total_served(), 200);
    assert_same_run(&base, &sharded, "zero-lookahead fallback");
}

#[test]
fn empty_shards_are_harmless() {
    // 16 shards over 2 OSTs: most shards own nothing and must idle
    // through every epoch without disturbing the exchange.
    let cfg = ClusterConfig {
        n_osts: 2,
        stripe_count: 2,
        ..Default::default()
    };
    let base = Cluster::build_with(&tiny_scenario(), Policy::adaptbf_default(), 13, cfg)
        .shards(1)
        .run();
    let sharded = Cluster::build_with(&tiny_scenario(), Policy::adaptbf_default(), 13, cfg)
        .shards(16)
        .run();
    assert_same_run(&base, &sharded, "mostly-empty shards");
}

#[test]
fn sharded_recording_is_byte_identical() {
    let cfg = ClusterConfig {
        n_osts: 4,
        stripe_count: 2,
        ..Default::default()
    };
    let (_, t1) = Cluster::build_with(&tiny_scenario(), Policy::adaptbf_default(), 9, cfg)
        .shards(1)
        .run_traced();
    let (_, t4) = Cluster::build_with(&tiny_scenario(), Policy::adaptbf_default(), 9, cfg)
        .shards(4)
        .run_traced();
    assert_eq!(t1, t4, "shard count leaked into the recorded trace");
    assert_eq!(t1.to_text(), t4.to_text());
}

/// One job, one process: the smallest wiring that still emits when
/// its stripe set crosses a shard boundary.
fn lone_proc_scenario() -> Scenario {
    Scenario::new(
        "lone",
        "one job, one process",
        vec![JobSpec::uniform(
            JobId(1),
            1,
            1,
            ProcessSpec::continuous(50),
        )],
        SimDuration::from_secs(3),
    )
}

#[test]
fn adaptive_windows_match_the_fixed_oracle() {
    // Same run, both window protocols, with and without a crash — the
    // adaptive mode must be an execution detail, not a model change,
    // and must need no more epochs than the fixed oracle.
    let plain = ClusterConfig {
        n_osts: 4,
        stripe_count: 2,
        ..Default::default()
    };
    let crashy = ClusterConfig {
        n_osts: 2,
        stripe_count: 2,
        faults: crash_faults(1, 20, 150),
        ..Default::default()
    };
    for cfg in [plain, crashy] {
        for n in [2, 4, 16] {
            let build = || {
                Cluster::build_with(&tiny_scenario(), Policy::adaptbf_default(), 11, cfg).shards(n)
            };
            let adaptive = build().run();
            let fixed = run_under_fixed_oracle(build());
            assert_same_run(&adaptive, &fixed, &format!("window modes @ {n} shards"));
            assert!(fixed.loop_stats.epochs > 0, "coupled run must take epochs");
            assert!(
                adaptive.loop_stats.epochs <= fixed.loop_stats.epochs,
                "adaptive windows cannot need more epochs: {} > {}",
                adaptive.loop_stats.epochs,
                fixed.loop_stats.epochs,
            );
        }
    }
}

#[test]
fn solo_drain_engages_and_disengages() {
    // One process striping over both shards: only its own shard holds
    // events until the first cross-shard arrival matures, so the run
    // must open on the solo fast path and then fall back to windowed
    // epochs once both sides hold work.
    let cfg = ClusterConfig {
        n_osts: 2,
        stripe_count: 2,
        ..Default::default()
    };
    let base = Cluster::build_with(&lone_proc_scenario(), Policy::NoBw, 17, cfg)
        .shards(1)
        .run();
    assert_eq!(base.metrics.total_served(), 50);
    assert_eq!(base.loop_stats.epochs, 0, "one shard never runs epochs");
    let sharded = Cluster::build_with(&lone_proc_scenario(), Policy::NoBw, 17, cfg)
        .shards(2)
        .run();
    assert_same_run(&base, &sharded, "solo engage/disengage");
    let stats = sharded.loop_stats;
    assert!(stats.solo_drains >= 1, "must open solo: {stats:?}");
    assert!(
        stats.epochs > stats.solo_drains,
        "replies must pull the run back into windowed epochs: {stats:?}"
    );
}

#[test]
fn aligned_stripes_run_independently_despite_striping() {
    // Stripe width 2 over 4 OSTs, but the lone process's stripe set
    // {0, 1} sits inside shard 0 of two: the emits analysis must see
    // that no boundary is crossed and skip the epoch protocol
    // entirely (the old stripe_count == 1 test was a special case).
    let cfg = ClusterConfig {
        n_osts: 4,
        stripe_count: 2,
        ..Default::default()
    };
    let base = Cluster::build_with(&lone_proc_scenario(), Policy::NoBw, 19, cfg)
        .shards(1)
        .run();
    let sharded = Cluster::build_with(&lone_proc_scenario(), Policy::NoBw, 19, cfg)
        .shards(2)
        .run();
    assert_same_run(&base, &sharded, "aligned stripes");
    assert_eq!(
        sharded.loop_stats.epochs, 0,
        "no stripe set crosses a boundary — nothing may couple"
    );
    assert_eq!(sharded.loop_stats.inbox_flushes, 0);
}

#[test]
fn crash_window_with_an_eventless_peer_stays_solo() {
    // A crash forces every shard into the coupled set (re-routes can
    // cross anywhere), but the second shard never actually holds an
    // event: the owner must ride the solo fast path through the whole
    // run instead of stepping lookahead windows.
    let cfg = ClusterConfig {
        n_osts: 2,
        stripe_count: 1,
        faults: crash_faults(0, 20, 150),
        ..Default::default()
    };
    let base = Cluster::build_with(&lone_proc_scenario(), Policy::NoBw, 23, cfg)
        .shards(1)
        .run();
    let sharded = Cluster::build_with(&lone_proc_scenario(), Policy::NoBw, 23, cfg)
        .shards(2)
        .run();
    assert_same_run(&base, &sharded, "crash with eventless peer");
    assert!(
        base.fault_stats.resent > 0,
        "the crash must actually displace traffic: {:?}",
        base.fault_stats
    );
    let stats = sharded.loop_stats;
    assert!(stats.solo_drains >= 1, "peer never has events: {stats:?}");
    assert_eq!(
        stats.epochs, stats.solo_drains,
        "every epoch must be a solo drain: {stats:?}"
    );
    assert_eq!(stats.inbox_flushes, 0, "parks stay local: {stats:?}");
}

#[test]
fn thread_budget_changes_nothing() {
    // The coupled group runs on one thread and the independent shards fan
    // out beside it, so the thread budget must change neither the run nor
    // any loop counter. `RunGrid` nesting pins the budget a cluster run
    // sees: budget/items = 1 runs every item inline, 4 fans them out.
    //
    // 4 OSTs: every shard emits. 8 OSTs: the four processes sit on OSTs
    // 0..=4, so shards 0–2 couple while shard 3 only ever sees its own
    // control ticks — a *mixed* partition, whose independent shard must be
    // drained too (a worker pool once skipped it): the 1-shard run is the
    // reference, so an undrained shard shows as missing events.
    let released: u64 = tiny_scenario()
        .released_by_job()
        .iter()
        .map(|&(_, rpcs)| rpcs)
        .sum();
    for n_osts in [4, 8] {
        let cfg = ClusterConfig {
            n_osts,
            stripe_count: 2,
            ..Default::default()
        };
        let build = || Cluster::build_with(&tiny_scenario(), Policy::adaptbf_default(), 29, cfg);
        let run_at = |grid_threads: usize| {
            crate::RunGrid::with_threads(grid_threads)
                .run(vec![(), ()], |_| build().shards(4).run())
                .pop()
                .expect("two runs")
        };
        let base = build().shards(1).run();
        let inline = run_at(2); // share 1
        let fanned = run_at(8); // share 4
        assert_same_run(&base, &inline, "1 shard vs 4 shards, share 1");
        assert_same_run(&base, &fanned, "1 shard vs 4 shards, share 4");
        assert_eq!(
            inline.loop_stats, fanned.loop_stats,
            "the worker count must not reach any counter"
        );
        assert_eq!(fanned.metrics.total_served(), released);
        assert!(fanned.overheads.iter().all(|o| o.ticks > 0));
        assert!(inline.loop_stats.epochs > 0, "this wiring couples");
    }
}

#[test]
fn loop_stats_fold_sums_events_and_bounds_depth() {
    let mut a = LoopStats {
        events: 5,
        peak_queue_depth: 3,
        coalesced: 0,
        epochs: 2,
        solo_drains: 1,
        inbox_flushes: 4,
    };
    a.absorb(&LoopStats {
        events: 7,
        peak_queue_depth: 4,
        coalesced: 0,
        epochs: 3,
        solo_drains: 2,
        inbox_flushes: 5,
    });
    assert_eq!(
        a,
        LoopStats {
            events: 12,
            peak_queue_depth: 7,
            coalesced: 0,
            epochs: 5,
            solo_drains: 3,
            inbox_flushes: 9,
        }
    );
    // The folded event count is invariant across shard counts (every
    // shard count handles the same events); the depth bound is
    // per-shard-count deterministic but not invariant.
    let cfg = ClusterConfig {
        n_osts: 4,
        stripe_count: 2,
        ..Default::default()
    };
    let one = Cluster::build_with(&tiny_scenario(), Policy::adaptbf_default(), 1, cfg)
        .shards(1)
        .run();
    let four = Cluster::build_with(&tiny_scenario(), Policy::adaptbf_default(), 1, cfg)
        .shards(4)
        .run();
    assert_eq!(one.loop_stats.events, four.loop_stats.events);
    assert!(four.loop_stats.peak_queue_depth > 0);
    let rerun = Cluster::build_with(&tiny_scenario(), Policy::adaptbf_default(), 1, cfg)
        .shards(4)
        .run();
    assert_eq!(four.loop_stats, rerun.loop_stats);
}

// ---- adaptive windows vs the fixed oracle, sampled -----------------------
// (moved here from `tests/shard_determinism.rs` together with the oracle)

/// A small random scenario: up to 4 jobs, mixed patterns, short horizon
/// (long enough that every sampled fault window can open *and* close).
fn scenario_strategy() -> impl Strategy<Value = Scenario> {
    let job = (1u64..8, 1usize..3, 10u64..150, 0u8..3);
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
        Scenario::new("shard_prop", "", specs, SimDuration::from_secs(4))
    })
}

/// Everything the reporting layer can observe of a run, rendered
/// canonically, plus the fault-stat partition.
fn digest_of(scenario: &Scenario, policy: Policy, out: RawRunOutput) -> (String, FaultStats) {
    let fault_stats = out.fault_stats;
    let report = out.into_report(scenario.name.clone(), policy, &scenario.job_ids());
    (report_body_digest(&report), fault_stats)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Adaptive epoch windows against the fixed-lookahead oracle, over the
    /// chaos lab's sampled fault-plan space: the window protocol is purely
    /// an execution detail, so report digest *and* fault-stat partition
    /// must be byte-identical under both at every shard count — solo
    /// drains, emission caps, re-routes and all.
    #[test]
    fn adaptive_windows_match_the_fixed_oracle_on_sampled_plans(
        scenario in scenario_strategy(),
        plan_seed in 0u64..1_000_000,
        seed in 0u64..32,
    ) {
        let bounds = PlanBounds::new(SimDuration::from_secs(4), 2);
        let faults = bounds.sample_seeded(plan_seed);
        let cfg = ClusterConfig {
            n_osts: 4,
            stripe_count: 2,
            faults,
            ..ClusterConfig::default()
        };
        let policy = Policy::adaptbf_default();
        for shards in [1usize, 2, 4, 16] {
            let build = || Cluster::build_with(&scenario, policy, seed, cfg).shards(shards);
            let adaptive = digest_of(&scenario, policy, build().run());
            let fixed = digest_of(&scenario, policy, run_under_fixed_oracle(build()));
            prop_assert_eq!(
                adaptive, fixed,
                "window protocols diverged at {} shards under {:?}", shards, faults
            );
        }
    }
}

#[test]
fn fixed_oracle_agrees_around_a_solo_crash_window() {
    // The scenario of `tests/shard_determinism.rs`'s
    // `solo_drain_engages_around_a_crash_window`: aligned stripes, a crash
    // forcing every shard into the coupled set, and a long solo tail.
    let scenario = Scenario::new(
        "solo_crash",
        "long job on OST 0, short crashed job on OST 1",
        vec![
            JobSpec::uniform(JobId(1), 1, 1, ProcessSpec::continuous(400)),
            JobSpec::uniform(JobId(2), 1, 1, ProcessSpec::continuous(150)),
        ],
        SimDuration::from_secs(4),
    );
    let cfg = ClusterConfig {
        n_osts: 2,
        stripe_count: 1,
        faults: FaultPlan {
            ost_crash: Some(CrashSpec {
                ost: 1,
                from: SimTime::from_millis(50),
                for_: SimDuration::from_millis(200),
                resend_after: SimDuration::from_millis(50),
            }),
            ..FaultPlan::none()
        },
        ..ClusterConfig::default()
    };
    let build = |n| Cluster::build_with(&scenario, Policy::NoBw, 31, cfg).shards(n);
    let base = digest_of(&scenario, Policy::NoBw, build(1).run());
    let adaptive = digest_of(&scenario, Policy::NoBw, build(2).run());
    let fixed = digest_of(&scenario, Policy::NoBw, run_under_fixed_oracle(build(2)));
    assert_eq!(
        base, adaptive,
        "adaptive windows diverged from the single queue"
    );
    assert_eq!(base, fixed, "fixed oracle diverged from the single queue");
}

// ---- the epoch protocol, enumerated ---------------------------------------

/// `sh` with its lookahead replaced. Any value in `(0, minimum latency]`
/// is a valid conservative lookahead, so the protocol must produce the
/// same run under each; `execute` only ever derives the largest.
fn with_lookahead(sh: &Shared, lookahead: SimDuration) -> Shared {
    Shared {
        lookahead,
        policy: sh.policy,
        end: sh.end,
        network: sh.network,
        stripe_count: sh.stripe_count,
        n_osts: sh.n_osts,
        faults: sh.faults,
        replay: sh.replay,
        emits: sh.emits.clone(),
        ost_shard: sh.ost_shard.clone(),
        ost_local: sh.ost_local.clone(),
        proc_shard: sh.proc_shard.clone(),
        proc_local: sh.proc_local.clone(),
    }
}

/// Append to `out` every non-empty multiset of up to `max` slots out of
/// `0..n_slots` that extends `prefix`, as non-decreasing index lists.
fn multisets(prefix: &mut Vec<usize>, n_slots: usize, max: usize, out: &mut Vec<Vec<usize>>) {
    if !prefix.is_empty() {
        out.push(prefix.clone());
    }
    if prefix.len() < max {
        for slot in prefix.last().copied().unwrap_or(0)..n_slots {
            prefix.push(slot);
            multisets(prefix, n_slots, max, out);
            prefix.pop();
        }
    }
}

#[test]
fn epoch_protocol_is_exact_on_every_small_placement() {
    // With one driver thread the protocol is a pure function of where
    // events fall, so enumerate it: every placement of up to four 2-RPC
    // chunks (stripe 2: one RPC stays, one crosses) at instants on and
    // around the window edges, over three processes on three OSTs. No
    // jitter anywhere, so arrivals, completions and replies of different
    // entities collide on the same nanosecond — the tie-heavy regime in
    // which handling a run of same-instant replies or wakes one at a time
    // must issue the same RPCs, with the same keys, as any grouping.
    // Adaptive windows ≡ the fixed-window oracle ≡ the single queue, at the
    // widest lookahead and at the narrowest.
    let network = NetworkConfig {
        base_latency: SimDuration::from_micros(100),
        jitter: 0.0,
    };
    let cfg = ClusterConfig {
        n_osts: 3,
        stripe_count: 2,
        network,
        ost: adaptbf_model::OstConfig {
            service_jitter: 0.0,
            ..paper::ost()
        },
        ..Default::default()
    };
    // Full jitter: a latency draw can be zero, no window exists, and a
    // coupled partition must degrade to the single queue.
    let zero_lookahead = ClusterConfig {
        network: NetworkConfig {
            jitter: 1.0,
            ..network
        },
        ..cfg
    };
    let l = min_latency(&network).as_nanos();
    assert_eq!(min_latency(&zero_lookahead.network), SimDuration::ZERO);
    let instants = [0, l - 1, l, l + 1, 2 * l];
    let n_procs = cfg.n_osts;
    let policy = Policy::NoBw;
    let mut placements = Vec::new();
    multisets(
        &mut Vec::new(),
        n_procs * instants.len(),
        4,
        &mut placements,
    );
    assert_eq!(placements.len(), 3875, "C(15 + 4, 4) − 1");
    for placement in placements {
        let jobs = (0..n_procs)
            .map(|p| {
                let chunks = placement
                    .iter()
                    .filter(|&&slot| slot / instants.len() == p)
                    .map(|&slot| WorkChunk {
                        at: SimTime(instants[slot % instants.len()]),
                        rpcs: 2,
                    })
                    .collect();
                JobSpec::uniform(JobId(p as u32 + 1), 1, 1, ProcessSpec::timed(chunks))
            })
            .collect();
        let scenario = Scenario::new("enumerated", "", jobs, SimDuration::from_millis(100));
        let build = |cfg, n| Cluster::build_with(&scenario, policy, 3, cfg).shards(n);
        let digest = |out| digest_of(&scenario, policy, out);
        let base = digest(build(cfg, 1).run());
        for n in [2, 3] {
            let adaptive = build(cfg, n).run();
            let fixed = run_under_fixed_oracle(build(cfg, n));
            assert!(adaptive.loop_stats.epochs > 0, "{placement:?} must couple");
            assert!(adaptive.loop_stats.epochs <= fixed.loop_stats.epochs);
            let tight = |drive: fn(&Shared, &mut [Shard]) -> u64| {
                let narrowed = |sh: &Shared, shards: &mut [Shard]| {
                    drive(&with_lookahead(sh, SimDuration(1)), shards)
                };
                digest(build(cfg, n).execute(false, narrowed).0)
            };
            for (what, got) in [
                ("adaptive", digest(adaptive)),
                ("fixed oracle", digest(fixed)),
                ("adaptive, 1 ns lookahead", tight(windows::run_sharded)),
                ("fixed oracle, 1 ns lookahead", tight(run_fixed)),
            ] {
                assert_eq!(base, got, "{what} at {n} shards on {placement:?}");
            }
        }
        let degraded = build(zero_lookahead, 3).run();
        assert_eq!(degraded.loop_stats.epochs, 0, "no window, no epochs");
        assert_eq!(
            digest(build(zero_lookahead, 1).run()),
            digest(degraded),
            "zero-lookahead fallback on {placement:?}"
        );
    }
}
