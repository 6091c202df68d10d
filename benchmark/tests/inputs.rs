//! Generated inputs: deterministic per seed, distinct across seeds, and
//! accepted by the program's own parser.

use adaptbf_benchmark::inputs::{scenario_text, WORKLOADS};
use adaptbf_sim::plan_file_run;
use adaptbf_workload::dsl::ScenarioFile;

#[test]
fn same_seed_same_bytes_other_seed_other_bytes() {
    for w in WORKLOADS {
        let a = scenario_text(w, 42, 0.1);
        assert_eq!(
            a,
            scenario_text(w, 42, 0.1),
            "{}: same seed must repeat",
            w.name()
        );
        assert_ne!(
            a,
            scenario_text(w, 43, 0.1),
            "{}: another seed must differ",
            w.name()
        );
    }
}

#[test]
fn every_generated_text_parses_and_plans() {
    for w in WORKLOADS {
        for seed in [0, 1, u64::MAX] {
            let text = scenario_text(w, seed, 0.1);
            let file = ScenarioFile::parse(&text)
                .unwrap_or_else(|e| panic!("{} seed {seed}: {e}", w.name()));
            let plan =
                plan_file_run(&file).unwrap_or_else(|e| panic!("{} seed {seed}: {e}", w.name()));
            assert_eq!(plan.seed, seed, "the run block carries the seed");
            assert_eq!(plan.scenario.name, w.name());
        }
    }
}

#[test]
fn seeds_move_priorities_not_the_amount_of_work() {
    for w in WORKLOADS {
        let total = |seed| {
            let file = ScenarioFile::parse(&scenario_text(w, seed, 0.1)).unwrap();
            let s = file.to_scenario().unwrap();
            let nodes: u64 = s.jobs.iter().map(|j| j.nodes).sum();
            (s.total_rpcs() as f64, nodes, s.jobs.len())
        };
        let (rpcs_a, _, jobs_a) = total(1);
        let (rpcs_b, _, jobs_b) = total(2);
        assert_eq!(jobs_a, jobs_b);
        assert!(
            (rpcs_a - rpcs_b).abs() / rpcs_a < 0.05,
            "{}: {rpcs_a} vs {rpcs_b}",
            w.name()
        );
    }
}
