//! The end-of-run fold: per-shard metrics, fault accounting, loop counters,
//! controller overheads and trace captures into one [`RawRunOutput`].

use super::shard::Shard;
use super::{LoopStats, RawRunOutput};
use adaptbf_model::{JobId, SimDuration, SimTime};
use adaptbf_node::{FaultStats, Metrics};
use adaptbf_workload::trace::{Trace, TraceMeta, TraceRecord};

/// Fold per-shard outputs into the run result, in ascending shard order
/// (the gauge-merge contract of [`Metrics::fold_shards`]). Shards own
/// contiguous ascending OST ranges, so shard order is also OST order for
/// the overheads. `trace_meta` is `Some` on recording runs.
pub(super) fn merge_outputs(
    shards: Vec<Shard>,
    released: &[(JobId, u64)],
    end: SimTime,
    bucket: SimDuration,
    trace_meta: Option<TraceMeta>,
) -> (RawRunOutput, Option<Trace>) {
    let mut metrics = Vec::with_capacity(shards.len());
    let mut fault_stats = FaultStats::default();
    let mut loop_stats = LoopStats::default();
    let mut overheads = Vec::new();
    let mut records: Vec<(u64, TraceRecord)> = Vec::new();
    for mut shard in shards {
        fault_stats.absorb(&shard.fault_stats);
        loop_stats.absorb(&shard.loop_stats);
        overheads.extend(shard.osts.iter().filter_map(|ost| ost.node.overhead()));
        if let Some(mut recs) = shard.recorder.take() {
            records.append(&mut recs);
        }
        metrics.push(shard.metrics);
    }
    let metrics = Metrics::fold_shards(bucket, metrics, released.iter().copied(), end);
    // Global processing order is the (time, key) total order — restore it
    // across per-shard capture logs.
    records.sort_unstable_by_key(|&(key, ref r)| (r.at, key));
    let trace = trace_meta.map(|meta| Trace {
        meta,
        records: records.into_iter().map(|(_, rec)| rec).collect(),
    });
    let out = RawRunOutput {
        metrics,
        overheads,
        end,
        loop_stats,
        fault_stats,
    };
    (out, trace)
}
