//! Compact, copyable identifiers for the entities in an AdapTBF deployment.
//!
//! Lustre identifies the owner of an RPC by a *JobID* string (the paper sets
//! `jobid_var=nodelocal`, `jobid_name=%e.%H`, i.e. `executable.hostname`).
//! For the hot scheduling paths we intern those strings into dense integer
//! ids; [`JobId::label`] reconstructs a human-readable form for reports.

use serde::{Deserialize, Serialize};
use std::fmt;

macro_rules! id_type {
    ($(#[$doc:meta])* $name:ident, $inner:ty, $prefix:literal) => {
        $(#[$doc])*
        #[derive(
            Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
        )]
        pub struct $name(pub $inner);

        impl $name {
            /// Raw numeric value of the identifier.
            #[inline]
            pub const fn raw(self) -> $inner {
                self.0
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl From<$inner> for $name {
            fn from(v: $inner) -> Self {
                Self(v)
            }
        }
    };
}

id_type!(
    /// A job (application) as seen by the storage system. One `JobId`
    /// corresponds to one Lustre JobID string such as `ior.node17`.
    JobId,
    u32,
    "job"
);

id_type!(
    /// An Object Storage Target — the unit at which AdapTBF runs one
    /// independent controller instance (`S_i` in the paper's notation).
    OstId,
    u16,
    "ost"
);

id_type!(
    /// A client (compute) node issuing RPCs. Stands in for the Lustre NID.
    ClientId,
    u32,
    "client"
);

id_type!(
    /// One I/O process of a job (file-per-process workloads run many).
    ProcId,
    u32,
    "proc"
);

id_type!(
    /// A TBF rule installed in the Network Request Scheduler.
    RuleId,
    u64,
    "rule"
);

id_type!(
    /// A unique RPC sequence number (per simulation / runtime instance).
    RpcId,
    u64,
    "rpc"
);

/// Bit position of the process index inside an [`RpcId`]: the low 40 bits
/// number the process's own RPCs (a trillion per process), the high bits
/// carry the process.
const PROC_ID_SHIFT: u32 = 40;

impl RpcId {
    /// The id of `proc`'s `ordinal`-th RPC (counting from 0) — the one id
    /// rule of both executors. Each process numbers its own RPCs, so ids
    /// are unique and depend only on each process's issue history, never on
    /// how processes interleave: everything keyed on them (crash-backlog
    /// resend order, same-instant trace-record order) is the same on one
    /// simulator shard, sixteen, or the live runtime's client threads.
    #[inline]
    pub const fn for_process(proc: ProcId, ordinal: u64) -> Self {
        RpcId(((proc.0 as u64) << PROC_ID_SHIFT) | ordinal)
    }
}

impl JobId {
    /// Human-readable JobID label in the paper's `%e.%H` style.
    pub fn label(self) -> String {
        format!("app{}.node{}", self.0, self.0)
    }
}

impl ClientId {
    /// A Lustre-style NID string for this client (used by NID matchers).
    pub fn nid(self) -> String {
        format!("10.0.{}.{}@tcp", self.0 / 256, self.0 % 256)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_forms() {
        assert_eq!(JobId(3).to_string(), "job3");
        assert_eq!(OstId(1).to_string(), "ost1");
        assert_eq!(ClientId(7).to_string(), "client7");
        assert_eq!(RuleId(9).to_string(), "rule9");
    }

    #[test]
    fn rpc_ids_are_process_local() {
        assert_eq!(RpcId::for_process(ProcId(0), 2), RpcId(2));
        assert_eq!(RpcId::for_process(ProcId(3), 1), RpcId((3 << 40) | 1));
    }

    #[test]
    fn job_label_is_jobid_var_style() {
        assert_eq!(JobId(2).label(), "app2.node2");
    }

    #[test]
    fn client_nid_is_lnet_style() {
        assert_eq!(ClientId(300).nid(), "10.0.1.44@tcp");
    }

    #[test]
    fn ids_order_by_raw_value() {
        assert!(JobId(1) < JobId(2));
        assert_eq!(JobId::from(5).raw(), 5);
    }

    #[test]
    fn ids_are_hashable_map_keys() {
        let mut m = std::collections::HashMap::new();
        m.insert(JobId(1), 10u64);
        m.insert(JobId(2), 20u64);
        assert_eq!(m[&JobId(2)], 20);
    }
}
