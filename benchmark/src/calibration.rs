//! Host-speed calibration.
//!
//! The reference box is a 2-vCPU microVM whose speed drifts by up to 1.7×
//! over tens of seconds with nothing else running in it: user CPU time per
//! simulated RPC moves with the wall time, a register-only loop barely
//! moves, so it is the shared memory hierarchy, not scheduling. Ten
//! consecutive 15 s runs of `sim_flat` read 1.51–2.63 M RPC/s raw. A run
//! sits wholly inside one such phase, so no number of repetitions or
//! medians steadies a raw time.
//!
//! Every repetition therefore times a fixed kernel of the harness's own
//! right before and right after its request — a hold loop on a 4096-entry
//! binary heap (cache-resident, like the scheduler's heaps) and a chain of
//! dependent reads over an 8 MiB table (cache-missing, like the event
//! queue and the metrics series) — and the parent reports CPU-bound times
//! in **calibrated seconds**: measured seconds × [`NOMINAL_NS`] ÷ the
//! kernel's mean time around that repetition. On a host at nominal speed
//! the factor is 1. The kernel is not program code, so a faster program
//! still reads as faster. Measured on the reference box over ninety
//! interleaved repetitions per workload in a calm phase, medians of ten
//! spread 3.8–7.7 % raw and 1.6–4.4 % calibrated; in a noisy phase 13.8 %
//! raw and 3.6 % calibrated. The factor and the raw rate are printed per
//! layer (`harness.host_speed`, `harness.raw_rpcs_per_s`).

use std::collections::BinaryHeap;
use std::hint::black_box;
use std::time::Instant;

/// What the kernel takes on the reference box in a fast phase, ns.
pub const NOMINAL_NS: f64 = 66_000_000.0;

const HEAP_ENTRIES: u64 = 4096;
const HOLD_OPS: usize = 600_000;
const TABLE_WORDS: usize = 1 << 20; // 8 MiB
const WALK_OPS: usize = 1_000_000;

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// Run the kernel once and return the nanoseconds it took. Its scratch
/// memory is allocated, filled (untimed) and freed inside the call, so it
/// never counts towards the repetition's peak resident set.
pub fn kernel_ns() -> u64 {
    let mut x = 0x2545_F491_4F6C_DD1Du64;
    let mut heap: BinaryHeap<u64> = (0..HEAP_ENTRIES).map(|i| i * 1000).collect();
    let mut table: Vec<u64> = (0..TABLE_WORDS).map(|_| xorshift(&mut x)).collect();

    let t = Instant::now();
    for _ in 0..HOLD_OPS {
        let top = heap.pop().expect("the hold loop keeps the heap full");
        heap.push(u64::MAX - (top ^ xorshift(&mut x)) % (1 << 40));
    }
    let mask = TABLE_WORDS - 1;
    let mut at = x as usize & mask;
    for _ in 0..WALK_OPS {
        let v = table[at];
        table[at] = v.rotate_left(7) ^ x;
        at = (v ^ at as u64) as usize & mask;
    }
    black_box(at);
    t.elapsed().as_nanos() as u64
}

/// The factor measured seconds are multiplied by, from the kernel's time
/// before and after a repetition.
pub fn speed_factor(before_ns: u64, after_ns: u64) -> f64 {
    NOMINAL_NS / ((before_ns + after_ns) as f64 / 2.0)
}
