//! What a TBF rule matches: one Lustre JobID.
//!
//! Lustre's TBF rules can also match on NID or opcode and conjoin
//! conditions (`jobid={x}&opcode={ost_write}`). AdapTBF's Rule Management
//! Daemon only ever creates one JobID rule per active job (Section
//! III-D), and no entry point of this repository — either executor, the
//! Static BW baseline, the CLI, the scenario DSL, the chaos harness — can
//! install anything else. So this substrate models exactly that: **a rule
//! names one job.** The scheduler depends on it — a job's RPCs are all in
//! its one queue or all in the fallback, classification is one slot load,
//! and a rule change moves a queue whole. A matcher that looks at
//! anything but `rpc.job` would need per-RPC re-classification on every
//! rule change back; add one only together with a caller that installs it.

use adaptbf_model::JobId;
use serde::{Deserialize, Serialize};

/// The predicate of a [`crate::TbfRule`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RpcMatcher {
    /// Match a specific Lustre JobID (`jobid={...}`).
    Job(JobId),
}
