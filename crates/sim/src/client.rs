//! Client-side process model: bounded-window RPC issuance.
//!
//! Each workload process owns a work backlog (filled by its pattern's
//! [`adaptbf_workload::WorkChunk`]s) and issues RPCs while it has both work
//! and a free slot in its `max_rpcs_in_flight` window — exactly how a
//! Lustre client behaves when the server throttles it: the window fills,
//! issuance stops, and resumes one-for-one with replies.

use adaptbf_model::{ClientId, JobId, OpCode, ProcId, Rpc, RpcId, SimTime};

/// Mutable state of one workload process during a run.
#[derive(Debug, Clone)]
pub struct ProcessState {
    /// Owning job.
    pub job: JobId,
    /// Globally unique process id.
    pub proc_id: ProcId,
    /// The client node this process runs on.
    pub client: ClientId,
    /// Index of the OST its file lives on.
    pub ost: usize,
    /// `max_rpcs_in_flight`.
    pub max_inflight: usize,
    /// RPC payload size in bytes.
    pub rpc_size: u64,
    /// Work released by the pattern but not yet issued.
    pub available: u64,
    /// RPCs currently outstanding (issued, no reply yet).
    pub inflight: usize,
    /// RPCs issued so far.
    pub issued: u64,
    /// Replies received so far.
    pub completed: u64,
    /// Closed-loop burst state: `(think_time, rpcs_per_burst)` if the
    /// process releases its next burst after the current one completes.
    pub think: Option<(adaptbf_model::SimDuration, u64)>,
    /// File RPCs not yet released (closed-loop patterns only).
    pub unreleased: u64,
}

impl ProcessState {
    /// New idle process.
    pub fn new(
        job: JobId,
        proc_id: ProcId,
        client: ClientId,
        ost: usize,
        max_inflight: usize,
        rpc_size: u64,
    ) -> Self {
        ProcessState {
            job,
            proc_id,
            client,
            ost,
            max_inflight,
            rpc_size,
            available: 0,
            inflight: 0,
            issued: 0,
            completed: 0,
            think: None,
            unreleased: 0,
        }
    }

    /// If the process is a quiescent closed-loop burster with file left,
    /// consume and return the next burst size (the caller schedules its
    /// arrival after the think time).
    pub fn take_next_burst(&mut self) -> Option<(adaptbf_model::SimDuration, u64)> {
        if !self.is_quiescent() || self.unreleased == 0 {
            return None;
        }
        let (think, burst) = self.think?;
        let rpcs = burst.min(self.unreleased);
        self.unreleased -= rpcs;
        Some((think, rpcs))
    }

    /// More work became available (a pattern chunk arrived).
    pub fn add_work(&mut self, rpcs: u64) {
        self.available += rpcs;
    }

    /// A reply came back: free a window slot.
    pub fn on_reply(&mut self) {
        debug_assert!(self.inflight > 0, "reply without outstanding RPC");
        self.inflight -= 1;
        self.completed += 1;
    }

    /// Issue as many RPCs as the window allows right now. Ids are drawn
    /// from this process's private id space; returns the RPCs to hand to
    /// the network.
    pub fn issue(&mut self, now: SimTime) -> Vec<Rpc> {
        let mut out = Vec::new();
        self.issue_into(now, &mut out);
        out
    }

    /// [`ProcessState::issue`] writing into a caller-owned buffer (the
    /// event loop reuses one scratch `Vec` across all issues — a reply
    /// typically opens exactly one window slot, and a heap allocation per
    /// reply is measurable at million-RPC scale). The buffer is *appended*
    /// to; callers clear or drain it.
    ///
    /// RPC ids follow the one rule of both executors,
    /// [`RpcId::for_process`]: the process and its issue ordinal.
    pub fn issue_into(&mut self, now: SimTime, out: &mut Vec<Rpc>) {
        while self.available > 0 && self.inflight < self.max_inflight {
            out.push(Rpc {
                id: RpcId::for_process(self.proc_id, self.issued),
                job: self.job,
                client: self.client,
                proc_id: self.proc_id,
                op: OpCode::Write,
                size_bytes: self.rpc_size,
                issued_at: now,
            });
            self.available -= 1;
            self.inflight += 1;
            self.issued += 1;
        }
    }

    /// Whether the process has neither queued work nor outstanding RPCs.
    pub fn is_quiescent(&self) -> bool {
        self.available == 0 && self.inflight == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn proc_state(window: usize) -> ProcessState {
        ProcessState::new(JobId(1), ProcId(0), ClientId(0), 0, window, 1 << 20)
    }

    #[test]
    fn issues_up_to_window() {
        let mut p = proc_state(8);
        p.add_work(20);
        let rpcs = p.issue(SimTime::ZERO);
        assert_eq!(rpcs.len(), 8);
        assert_eq!(p.inflight, 8);
        assert_eq!(p.available, 12);
        // Window full: nothing more.
        assert!(p.issue(SimTime::ZERO).is_empty());
    }

    #[test]
    fn reply_opens_one_slot() {
        let mut p = proc_state(2);
        p.add_work(5);
        assert_eq!(p.issue(SimTime::ZERO).len(), 2);
        p.on_reply();
        let more = p.issue(SimTime::from_millis(1));
        assert_eq!(more.len(), 1);
        assert_eq!(more[0].id, RpcId(2), "ids count the process's own issues");
        assert_eq!(p.completed, 1);
    }

    #[test]
    fn quiescence() {
        let mut p = proc_state(4);
        assert!(p.is_quiescent());
        p.add_work(1);
        assert!(!p.is_quiescent());
        p.issue(SimTime::ZERO);
        assert!(!p.is_quiescent());
        p.on_reply();
        assert!(p.is_quiescent());
    }

    #[test]
    fn closed_loop_burst_cycle() {
        let mut p = proc_state(8);
        p.think = Some((adaptbf_model::SimDuration::from_secs(3), 20));
        p.unreleased = 30;
        // Not quiescent? No burst.
        p.add_work(1);
        assert!(p.take_next_burst().is_none());
        p.issue(SimTime::ZERO);
        p.on_reply();
        // Quiescent with file left: next burst (clipped by file on the
        // second round).
        assert_eq!(
            p.take_next_burst(),
            Some((adaptbf_model::SimDuration::from_secs(3), 20))
        );
        assert_eq!(p.unreleased, 10);
        assert_eq!(
            p.take_next_burst(),
            Some((adaptbf_model::SimDuration::from_secs(3), 10))
        );
        assert_eq!(p.unreleased, 0);
        assert!(p.take_next_burst().is_none(), "file exhausted");
    }

    #[test]
    fn issued_rpcs_carry_identity() {
        let mut p = ProcessState::new(JobId(9), ProcId(3), ClientId(2), 1, 1, 4096);
        p.add_work(1);
        let rpcs = p.issue(SimTime::from_secs(5));
        let r = rpcs[0];
        assert_eq!(r.job, JobId(9));
        assert_eq!(r.proc_id, ProcId(3));
        assert_eq!(r.client, ClientId(2));
        assert_eq!(r.size_bytes, 4096);
        assert_eq!(r.issued_at, SimTime::from_secs(5));
        assert_eq!(r.id, RpcId::for_process(ProcId(3), 0));
    }

    #[test]
    fn rpc_ids_are_process_local_and_interleaving_invariant() {
        // Two processes issuing in any interleaving produce the same id
        // sets — the property the sharded executor depends on.
        let mut a = ProcessState::new(JobId(1), ProcId(0), ClientId(0), 0, 4, 1);
        let mut b = ProcessState::new(JobId(1), ProcId(1), ClientId(0), 0, 4, 1);
        a.add_work(2);
        b.add_work(2);
        let ids_a: Vec<_> = a.issue(SimTime::ZERO).iter().map(|r| r.id).collect();
        let ids_b: Vec<_> = b.issue(SimTime::ZERO).iter().map(|r| r.id).collect();
        assert_eq!(ids_a, vec![RpcId(0), RpcId(1)]);
        assert_eq!(
            ids_b,
            vec![
                RpcId::for_process(ProcId(1), 0),
                RpcId::for_process(ProcId(1), 1)
            ]
        );
    }
}
