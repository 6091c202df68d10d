//! The three bandwidth-control policies of the evaluation (Section IV-C),
//! shared by every executor.

use adaptbf_model::{AdapTbfConfig, SimDuration};

/// Which bandwidth controller governs the run.
///
/// This is the *cluster-level* policy: the per-OST resolution (concrete
/// static rule rates, one controller instance per OST) happens in
/// [`crate::OstNode::new`], identically under the simulator and the live
/// runtime.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Policy {
    /// Default Lustre: no TBF rules; FCFS via the fallback path.
    NoBw,
    /// Static TBF rules from global priorities, installed once at t=0.
    StaticBw,
    /// The full AdapTBF controller re-allocating every `Δt`.
    AdapTbf(AdapTbfConfig),
}

impl Policy {
    /// Display name used in reports and CSV headers.
    pub fn name(&self) -> &'static str {
        match self {
            Policy::NoBw => "no_bw",
            Policy::StaticBw => "static_bw",
            Policy::AdapTbf(_) => "adaptbf",
        }
    }

    /// The paper-default AdapTBF policy.
    pub fn adaptbf_default() -> Policy {
        Policy::AdapTbf(adaptbf_model::config::paper::adaptbf())
    }

    /// The controller's observation period, if the policy has one.
    pub fn period(&self) -> Option<SimDuration> {
        match self {
            Policy::AdapTbf(cfg) => Some(cfg.period),
            _ => None,
        }
    }

    /// What a trace header records of the policy: its name and, under
    /// AdapTBF, the observation period in whole milliseconds.
    pub fn trace_header(&self) -> (String, Option<u64>) {
        let period_ms = self.period().map(|p| p.as_nanos() / 1_000_000);
        (self.name().to_string(), period_ms)
    }
}

impl Default for Policy {
    fn default() -> Self {
        Policy::adaptbf_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names() {
        assert_eq!(Policy::NoBw.name(), "no_bw");
        assert_eq!(Policy::StaticBw.name(), "static_bw");
        assert_eq!(Policy::adaptbf_default().name(), "adaptbf");
    }

    #[test]
    fn default_is_adaptbf() {
        assert!(matches!(Policy::default(), Policy::AdapTbf(_)));
    }

    #[test]
    fn only_adaptbf_has_a_period() {
        assert_eq!(Policy::NoBw.period(), None);
        assert_eq!(Policy::StaticBw.period(), None);
        assert_eq!(
            Policy::adaptbf_default().period(),
            Some(SimDuration::from_millis(100))
        );
    }
}
