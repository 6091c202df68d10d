//! The open-loop load generator's bookkeeping, free of threads and clocks
//! so tests can drive it with synthetic time.
//!
//! The generator sends on a schedule regardless of how the system keeps
//! up, and times every RPC **from when it was due**, not from when it was
//! actually sent: if the generator (or the host) stalls, the RPCs that
//! fell due during the stall carry the stall in their latency instead of
//! hiding it.

use std::collections::VecDeque;

/// One send step of one process: `rpcs` RPCs fall due at `due_ns`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Step {
    pub due_ns: u64,
    pub proc: usize,
    pub rpcs: u64,
}

/// Matches counted completion tokens back to the RPCs they acknowledge.
///
/// The runtime acknowledges with bare counts ("`n` more RPCs of process
/// `p` are done"). Within one process RPCs are served in issue order (one
/// TBF queue per job, FIFO; zero service jitter), so the `n` oldest
/// outstanding RPCs of `p` are the ones a token covers.
#[derive(Debug)]
pub struct FifoMatcher {
    /// Per process: `(due_ns, RPCs of that step still unacknowledged)`.
    outstanding: Vec<VecDeque<(u64, u64)>>,
    unacked: u64,
}

impl FifoMatcher {
    pub fn new(n_procs: usize) -> Self {
        FifoMatcher {
            outstanding: vec![VecDeque::new(); n_procs],
            unacked: 0,
        }
    }

    /// `rpcs` RPCs of `proc`, due at `due_ns`, are now on the wire.
    pub fn sent(&mut self, proc: usize, due_ns: u64, rpcs: u64) {
        if rpcs > 0 {
            self.outstanding[proc].push_back((due_ns, rpcs));
            self.unacked += rpcs;
        }
    }

    /// A token worth `n` RPCs of `proc` arrived at `now_ns`: push one
    /// due-to-token latency per acknowledged RPC onto `latencies_ns`.
    /// Returns how many of the `n` matched nothing (a token for RPCs that
    /// were never sent — an accounting fault the caller reports).
    pub fn token(&mut self, proc: usize, n: u64, now_ns: u64, latencies_ns: &mut Vec<u64>) -> u64 {
        let mut left = n;
        let queue = &mut self.outstanding[proc];
        while left > 0 {
            let Some((due_ns, remaining)) = queue.front_mut() else {
                break;
            };
            let take = left.min(*remaining);
            let latency = now_ns.saturating_sub(*due_ns);
            latencies_ns.extend(std::iter::repeat_n(latency, take as usize));
            *remaining -= take;
            left -= take;
            if *remaining == 0 {
                queue.pop_front();
            }
        }
        self.unacked -= n - left;
        left
    }

    /// RPCs sent and not yet acknowledged.
    pub fn unacked(&self) -> u64 {
        self.unacked
    }
}

/// Schedule + matcher + the samples they produce.
#[derive(Debug)]
pub struct Generator {
    steps: Vec<Step>,
    next: usize,
    matcher: FifoMatcher,
    /// Due-to-token latency of every acknowledged RPC.
    pub latencies_ns: Vec<u64>,
    /// Per send step: how late the generator sent it.
    pub lags_ns: Vec<u64>,
    pub sent: u64,
    pub acked: u64,
    /// Token RPCs that matched no outstanding RPC.
    pub unmatched: u64,
    pub last_token_ns: u64,
}

impl Generator {
    /// `steps` in due order.
    pub fn new(steps: Vec<Step>, n_procs: usize) -> Self {
        assert!(
            steps.windows(2).all(|w| w[0].due_ns <= w[1].due_ns),
            "steps must be sorted by due time"
        );
        let total: u64 = steps.iter().map(|s| s.rpcs).sum();
        Generator {
            steps,
            next: 0,
            matcher: FifoMatcher::new(n_procs),
            latencies_ns: Vec::with_capacity(total as usize),
            lags_ns: Vec::new(),
            sent: 0,
            acked: 0,
            unmatched: 0,
            last_token_ns: 0,
        }
    }

    pub fn offered(&self) -> u64 {
        self.steps.iter().map(|s| s.rpcs).sum()
    }

    /// When the next unsent step falls due.
    pub fn next_due_ns(&self) -> Option<u64> {
        self.steps.get(self.next).map(|s| s.due_ns)
    }

    /// Every step due by `now_ns`, marked sent **with its due time** — the
    /// caller puts them on the wire right away.
    pub fn take_due(&mut self, now_ns: u64) -> &[Step] {
        let from = self.next;
        while self.next < self.steps.len() && self.steps[self.next].due_ns <= now_ns {
            let s = self.steps[self.next];
            self.matcher.sent(s.proc, s.due_ns, s.rpcs);
            self.lags_ns.push(now_ns - s.due_ns);
            self.sent += s.rpcs;
            self.next += 1;
        }
        &self.steps[from..self.next]
    }

    pub fn on_token(&mut self, proc: usize, n: u64, now_ns: u64) {
        let unmatched = self.matcher.token(proc, n, now_ns, &mut self.latencies_ns);
        self.acked += n - unmatched;
        self.unmatched += unmatched;
        self.last_token_ns = self.last_token_ns.max(now_ns);
    }

    pub fn unacked(&self) -> u64 {
        self.matcher.unacked()
    }

    /// All steps sent and every sent RPC acknowledged.
    pub fn done(&self) -> bool {
        self.next == self.steps.len() && self.matcher.unacked() == 0
    }
}
