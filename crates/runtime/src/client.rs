//! Client processes as real threads: bounded-window issuance over
//! channels, with open-loop chunks, closed-loop burst support, Lustre-style
//! striping over the process's OST set, and churn-fault gating.
//!
//! Issuance is batched: each pass builds up to `max_batch` RPCs, stripes
//! them over the OST set, and sends **one** [`LiveBatch`] per target —
//! so a channel operation amortizes over the whole batch. Completions
//! come back as counted tokens (each `u64` worth that many finished
//! RPCs), drained non-blockingly after every blocking receive. Issued
//! counts are recorded only **after** a successful send, so the
//! collector's issued totals match `ProcFinal.issued` exactly even when
//! an OST hangs up mid-run. RPC ids follow the simulator's rule
//! ([`RpcId::for_process`]): each thread numbers its own RPCs, so id order
//! — what a crashed OST's backlog resends in — owes nothing to how the
//! client threads interleave.

use crate::clock::WallClock;
use crate::metrics::ClientSlot;
use crate::ost::LiveBatch;
use adaptbf_model::{ClientId, JobId, OpCode, ProcId, Rpc, RpcId, SimTime};
use adaptbf_workload::{FaultPlan, ProcessSpec};
use bytes::Bytes;
use crossbeam::channel::{bounded, RecvTimeoutError, Sender};
use std::thread::JoinHandle;
use std::time::Duration;

/// Per-process final counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProcFinal {
    /// RPCs issued.
    pub issued: u64,
    /// Replies received.
    pub completed: u64,
}

/// Spawn one client-process thread running `spec` until `deadline`.
///
/// `ost_txs` is the process's *stripe set* in stripe order: sequential
/// RPCs round-robin over it exactly like the simulator's striped issue
/// path, batched `max_batch` at a time. `faults` may carry a `job_churn`
/// schedule; while this process is churned offline it stops issuing (work
/// keeps accumulating client-side and in-flight RPCs complete normally),
/// mirroring the simulator's gate.
#[allow(clippy::too_many_arguments)]
pub fn spawn_process(
    job: JobId,
    proc_id: ProcId,
    client: ClientId,
    spec: ProcessSpec,
    horizon: SimTime,
    ost_txs: Vec<Sender<LiveBatch>>,
    faults: FaultPlan,
    clock: WallClock,
    payload: Bytes,
    slot: ClientSlot,
    max_batch: usize,
) -> JoinHandle<ProcFinal> {
    std::thread::Builder::new()
        .name(format!("{job}-{proc_id}"))
        .spawn(move || {
            run_process(
                job, proc_id, client, spec, horizon, ost_txs, faults, clock, payload, slot,
                max_batch,
            )
        })
        .expect("spawn client thread")
}

#[allow(clippy::too_many_arguments)]
fn run_process(
    job: JobId,
    proc_id: ProcId,
    client: ClientId,
    spec: ProcessSpec,
    horizon: SimTime,
    ost_txs: Vec<Sender<LiveBatch>>,
    faults: FaultPlan,
    clock: WallClock,
    payload: Bytes,
    slot: ClientSlot,
    max_batch: usize,
) -> ProcFinal {
    assert!(!ost_txs.is_empty(), "process needs at least one OST");
    let max_batch = max_batch.max(1);
    let n_targets = ost_txs.len();
    // Counted completion tokens: at most `max_inflight` RPCs are
    // outstanding and every token counts at least one, so the channel can
    // never hold more than `max_inflight` messages — OST flushes never
    // block on it.
    let (done_tx, done_rx) = bounded::<u64>(spec.max_inflight.max(1));
    let horizon_span = horizon - SimTime::ZERO;
    let mut chunks = spec.pattern.arrivals(spec.file_rpcs, horizon_span);
    chunks.sort_by_key(|c| c.at);
    let think = spec.pattern.think_spec();
    let statically_released: u64 = chunks.iter().map(|c| c.rpcs).sum();
    let mut unreleased = if think.is_some() {
        spec.file_rpcs.saturating_sub(statically_released)
    } else {
        0
    };

    let mut next_chunk = 0usize;
    // A closed-loop burst waiting for its release instant.
    let mut pending_burst: Option<(SimTime, u64)> = None;
    let mut available = 0u64;
    let mut inflight = 0usize;
    let mut issued = 0u64;
    let mut completed = 0u64;
    // Striped batch scratch, one bucket per stripe target.
    let mut per_target: Vec<Vec<Rpc>> = vec![Vec::new(); n_targets];

    loop {
        let now = clock.now();
        if now >= horizon {
            break;
        }

        // Release open-loop chunks that are due.
        while next_chunk < chunks.len() && chunks[next_chunk].at <= now {
            available += chunks[next_chunk].rpcs;
            next_chunk += 1;
        }
        // Release a due closed-loop burst.
        if let Some((at, rpcs)) = pending_burst {
            if at <= now {
                available += rpcs;
                pending_burst = None;
            }
        }

        // Churn gate: an offline process stops issuing until it rejoins
        // (released work queues up client-side meanwhile).
        let offline_until = faults.churn_offline_until(proc_id.raw() as usize, now);

        // Issue while the window allows: build a batch, stripe it over
        // the OST set, one send per target.
        while offline_until.is_none() && available > 0 && inflight < spec.max_inflight {
            let n = available
                .min((spec.max_inflight - inflight) as u64)
                .min(max_batch as u64);
            for k in 0..n {
                let rpc = Rpc {
                    id: RpcId::for_process(proc_id, issued + k),
                    job,
                    client,
                    proc_id,
                    op: OpCode::Write,
                    size_bytes: payload.len() as u64,
                    issued_at: now,
                };
                per_target[((issued + k) % n_targets as u64) as usize].push(rpc);
            }
            for (target, batch) in per_target.iter_mut().enumerate() {
                if batch.is_empty() {
                    continue;
                }
                let rpcs = std::mem::take(batch);
                let sent = rpcs.len() as u64;
                if ost_txs[target]
                    .send(LiveBatch {
                        rpcs,
                        payload: payload.clone(),
                        reply_to: done_tx.clone(),
                        handoff: false,
                    })
                    .is_err()
                {
                    // OST gone: nothing more to do. Only successfully
                    // sent batches were counted, so the collector's
                    // issued totals still match ours exactly.
                    return ProcFinal { issued, completed };
                }
                slot.on_issued(sent);
                issued += sent;
            }
            available -= n;
            inflight += n as usize;
        }

        // Schedule the next closed-loop burst when fully drained.
        if inflight == 0 && available == 0 && pending_burst.is_none() && unreleased > 0 {
            if let Some((think_time, burst)) = think {
                let rpcs = burst.min(unreleased);
                unreleased -= rpcs;
                pending_burst = Some((clock.now() + think_time, rpcs));
            }
        }

        // Decide how long we can sleep.
        let mut wake: Option<SimTime> = Some(horizon);
        if next_chunk < chunks.len() {
            wake = Some(wake.unwrap().min(chunks[next_chunk].at));
        }
        if let Some((at, _)) = pending_burst {
            wake = Some(wake.unwrap().min(at));
        }
        if let Some(until) = offline_until {
            wake = Some(wake.unwrap().min(until));
        }
        let timeout = clock.until(wake.unwrap_or(horizon));

        if inflight > 0 {
            match done_rx.recv_timeout(timeout.min(Duration::from_millis(50))) {
                Ok(n) => {
                    inflight -= (n as usize).min(inflight);
                    completed += n;
                    // Drain every token already buffered: one wake refills
                    // the whole window.
                    while let Some(n) = done_rx.try_recv() {
                        inflight -= (n as usize).min(inflight);
                        completed += n;
                    }
                }
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => break,
            }
        } else if available == 0 || offline_until.is_some() {
            // Nothing outstanding and nothing issuable: sleep to next event.
            std::thread::sleep(timeout.min(Duration::from_millis(50)));
        }
    }
    // Drain outstanding replies briefly so OST sends don't error.
    while inflight > 0 {
        match done_rx.recv_timeout(Duration::from_millis(20)) {
            Ok(n) => {
                inflight -= (n as usize).min(inflight);
                completed += n;
            }
            Err(_) => break,
        }
    }
    ProcFinal { issued, completed }
}
