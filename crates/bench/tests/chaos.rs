//! Chaos campaign integration tests: byte-identical reproducibility of
//! the campaign report, the plan round-trip guarantee at the campaign
//! level, and the shrinker's candidate moves.

use adaptbf_bench::chaos::{
    base_files, campaign_cases, campaign_json, check_floor, floor_text, run_campaign,
    shrink_candidates, CampaignConfig, POLICIES,
};
use adaptbf_cli::exec::Executor;
use adaptbf_workload::ScenarioFile;

const SIM: Executor = Executor::Sim { shards: None };

fn tiny() -> CampaignConfig {
    CampaignConfig {
        seed: 8,
        plans_per_scenario: 2,
        scale: 1.0 / 32.0,
        tolerance: 0.5,
    }
}

/// The acceptance criterion: the same campaign seed reproduces the whole
/// machine-readable report byte-for-byte (the report carries no
/// wall-clock data and every run is deterministic).
#[test]
fn same_campaign_seed_reproduces_byte_identical_report() {
    let first = campaign_json(&run_campaign(tiny(), SIM));
    let second = campaign_json(&run_campaign(tiny(), SIM));
    assert_eq!(first, second);
    assert!(first.contains("\"campaign_seed\": 8"));
    // And its own floor always passes its own campaign.
    let campaign = run_campaign(tiny(), SIM);
    assert!(check_floor(&campaign, SIM, &floor_text(&campaign, SIM)).is_ok());
}

#[test]
fn different_campaign_seeds_sample_different_plans() {
    let a = campaign_cases(tiny());
    let b = campaign_cases(CampaignConfig { seed: 9, ..tiny() });
    assert_eq!(a.len(), b.len());
    assert!(
        a.iter()
            .zip(&b)
            .any(|(x, y)| x.file.faults != y.file.faults),
        "seed must steer the sampled fault space"
    );
}

/// Every case file a campaign fans out is strict-parse round-trippable —
/// the scenario-file surface can reproduce any cell of the grid.
#[test]
fn campaign_case_files_round_trip_through_the_dsl() {
    for case in campaign_cases(tiny()) {
        let rendered = case.file.render();
        let parsed = ScenarioFile::parse(&rendered)
            .unwrap_or_else(|e| panic!("{}/{}: {e}", case.scenario, case.policy));
        assert_eq!(parsed, case.file);
        assert_eq!(
            parsed.render(),
            rendered,
            "canonical render is a fixed point"
        );
    }
}

#[test]
fn base_scenarios_are_striped_two_ost() {
    let files = base_files(1.0 / 16.0);
    assert_eq!(files.len(), 3);
    for file in &files {
        assert_eq!(file.run.n_osts, Some(2));
        assert_eq!(file.run.stripe_count, Some(2));
        assert!(file.faults.is_none(), "faults are sampled per case");
    }
    assert_eq!(POLICIES.len(), 3);
}

/// Shrink moves only ever remove or narrow: every candidate stays
/// parseable, keeps the run block, and is strictly "not larger" than its
/// parent on the axes the move touches.
#[test]
fn shrink_candidates_stay_valid_and_smaller() {
    let text = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../examples/scenarios/chaos_crash_residual.json"
    ))
    .expect("checked-in chaos scenario");
    let file = ScenarioFile::parse(&text).unwrap();
    let candidates = shrink_candidates(&file);
    assert!(!candidates.is_empty());
    for cand in &candidates {
        assert_eq!(cand.run, file.run, "shrinking never touches the run block");
        assert!(cand.duration_secs <= file.duration_secs);
        assert!(cand.jobs.len() <= file.jobs.len());
        // Candidates stay inside the canonical DSL surface.
        let rendered = cand.render();
        assert_eq!(ScenarioFile::parse(&rendered).unwrap(), *cand);
    }
    // The file has one fault dimension → exactly one drop move, plus the
    // window-narrowing and workload moves.
    assert!(candidates
        .iter()
        .any(|c| c.faults.is_none() && c.jobs == file.jobs));
}
