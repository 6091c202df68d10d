//! The open-loop generator's bookkeeping under synthetic time.

use adaptbf_benchmark::inputs::open_loop_counts;
use adaptbf_benchmark::openloop::{FifoMatcher, Generator, Step};

const MS: u64 = 1_000_000;

#[test]
fn fractional_rates_are_carried_not_dropped() {
    // 62.5 RPCs per step: alternate 62 and 63, never lose the half.
    let counts = open_loop_counts(62.5, 1000, 0.0);
    assert_eq!(counts.iter().sum::<u64>(), 62_500);
    assert!(counts.iter().all(|&n| n == 62 || n == 63));
    // A rate below one still sends: every fourth step.
    let slow = open_loop_counts(0.25, 400, 0.0);
    assert_eq!(slow.iter().sum::<u64>(), 100);
    assert!(slow.iter().all(|&n| n <= 1));
    // The phase moves which steps round up, never the total by one or more.
    for phase in [0.1, 0.5, 0.999] {
        let total: u64 = open_loop_counts(62.5, 1000, phase).iter().sum();
        assert!(total == 62_500 || total == 62_501, "phase {phase}: {total}");
    }
    assert_ne!(
        open_loop_counts(62.5, 8, 0.0),
        open_loop_counts(62.5, 8, 0.5)
    );
}

#[test]
fn tokens_acknowledge_the_oldest_rpcs_of_their_process() {
    let mut m = FifoMatcher::new(2);
    m.sent(0, 0, 3);
    m.sent(1, 0, 5);
    m.sent(0, MS, 2);
    let mut lat = Vec::new();
    // Four RPCs of process 0 done at 1.5 ms: three due at 0, one due at 1 ms.
    assert_eq!(m.token(0, 4, 3 * MS / 2, &mut lat), 0);
    assert_eq!(lat, vec![3 * MS / 2, 3 * MS / 2, 3 * MS / 2, MS / 2]);
    assert_eq!(m.unacked(), 6, "process 1's five and one of process 0");
    // Process 1 is untouched by process 0's token.
    lat.clear();
    assert_eq!(m.token(1, 5, 2 * MS, &mut lat), 0);
    assert_eq!(lat, vec![2 * MS; 5]);
    // A token for more than is outstanding reports the excess.
    assert_eq!(m.token(0, 3, 2 * MS, &mut lat), 2);
    assert_eq!(m.unacked(), 0);
}

fn steady_steps(n_steps: u64, per_step: u64) -> Vec<Step> {
    (0..n_steps)
        .map(|k| Step {
            due_ns: k * MS,
            proc: 0,
            rpcs: per_step,
        })
        .collect()
}

/// A system that acknowledges everything 0.3 ms after it is sent.
fn drive(gen: &mut Generator, wake_times_ns: &[u64]) {
    for &now in wake_times_ns {
        let sent: u64 = gen.take_due(now).iter().map(|s| s.rpcs).sum();
        if sent > 0 {
            gen.on_token(0, sent, now + 3 * MS / 10);
        }
    }
}

#[test]
fn a_generator_stall_shows_in_the_latency_of_what_was_due_during_it() {
    // 100 steps of 10 RPCs, one per millisecond.
    let punctual: Vec<u64> = (0..100).map(|k| k * MS).collect();
    let mut healthy = Generator::new(steady_steps(100, 10), 1);
    drive(&mut healthy, &punctual);
    assert!(healthy.done());
    assert!(healthy.latencies_ns.iter().all(|&l| l == 3 * MS / 10));
    assert_eq!(*healthy.lags_ns.iter().max().unwrap(), 0);

    // The same schedule, but the generator sleeps from 10 ms to 60 ms.
    let stalled: Vec<u64> = (0..100)
        .filter(|k| !(11..60).contains(k))
        .map(|k| k * MS)
        .collect();
    let mut gen = Generator::new(steady_steps(100, 10), 1);
    drive(&mut gen, &stalled);
    assert!(gen.done(), "everything is still sent and acknowledged");
    assert_eq!(gen.sent, 1000);
    let mut lat = gen.latencies_ns.clone();
    lat.sort_unstable();
    // The 49 steps due at 11..=59 ms went out at 60 ms: the one due at
    // 11 ms waited 49 ms + 0.3 ms, the one due at 59 ms 1 ms + 0.3 ms.
    assert_eq!(*lat.last().unwrap(), 49 * MS + 3 * MS / 10);
    let late = lat.iter().filter(|&&l| l > MS).count();
    assert_eq!(late, 49 * 10, "every RPC due during the stall carries it");
    // Timing from the send instant instead would have hidden all of it.
    assert_eq!(*gen.lags_ns.iter().max().unwrap(), 49 * MS);
    // The median RPC is unharmed; the tail is not.
    assert_eq!(lat[lat.len() / 2], 3 * MS / 10);
    assert!(lat[lat.len() * 9 / 10] > 20 * MS);
}

#[test]
fn unacknowledged_rpcs_stay_counted() {
    let mut gen = Generator::new(steady_steps(3, 4), 1);
    gen.take_due(2 * MS);
    gen.on_token(0, 9, 3 * MS);
    assert_eq!((gen.sent, gen.acked, gen.unacked()), (12, 9, 3));
    assert!(!gen.done());
}
