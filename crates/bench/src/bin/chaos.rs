//! Chaos campaign driver: randomized fault sweeps with resilience
//! scorecards and shrinker-minimized worst cases.
//!
//! Samples seeded fault plans, sweeps them across the scenario × policy
//! grid, scores every run with `analysis::resilience` plus the
//! conservation audit, and writes the machine-readable `BENCH_chaos.json`
//! at the workspace root. The whole campaign is a pure function of the
//! campaign seed — the same seed reproduces the report byte-identically.
//!
//! Flags:
//!   --seed N        campaign seed (default 42)
//!   --plans N       fault plans per scenario (default 8; 3 under --smoke)
//!   --smoke         the small CI shape
//!   --live          sweep the grid over the live threaded runtime
//!                   instead of the simulator (wall-clock; floor file is
//!                   crates/bench/chaos_live_floor.txt, count-shaped)
//!   --check-floor   compare against the floor file, exit 1 on a
//!                   resilience regression; warn about a stale floor
//!   --write-floor   rewrite the floor file from this campaign
//!   --shrink-worst  minimize the worst violating case and write it as a
//!                   canonical scenario file under results/ (sim only)
//!   --no-bench      skip writing BENCH_chaos.json (CI smoke)

use adaptbf_bench::chaos::{
    campaign_json, check_floor, floor_text, run_campaign, shrink_case, summary_table, worst_cases,
    CampaignConfig,
};
use adaptbf_bench::{arg_value, workspace_root};
use adaptbf_cli::exec::Executor;

fn main() {
    let flag = |name: &str| std::env::args().any(|a| a == name);
    let value = arg_value::<u64>;
    let seed = value("--seed").unwrap_or(42);
    let (live, smoke) = (flag("--live"), flag("--smoke"));
    let (exec, mut config, floor_file) = if live {
        let config = if smoke {
            CampaignConfig::live_smoke(seed)
        } else {
            CampaignConfig::live(seed)
        };
        (Executor::Live, config, "chaos_live_floor.txt")
    } else {
        let config = if smoke {
            CampaignConfig::smoke(seed)
        } else {
            CampaignConfig::full(seed)
        };
        (Executor::Sim { shards: None }, config, "chaos_floor.txt")
    };
    if let Some(plans) = value("--plans") {
        config.plans_per_scenario = plans as usize;
    }
    let floor_path = workspace_root().join("crates/bench").join(floor_file);

    if live {
        println!(
            "live chaos campaign: {} cases over the threaded runtime (wall-clock)",
            3 * config.plans_per_scenario * 3
        );
    }
    let campaign = run_campaign(config, exec);
    print!("{}", summary_table(&campaign));
    if live {
        print!("{}", floor_text(&campaign, exec));
    }

    // No BENCH artifact from a live campaign: its numbers are wall-clock
    // and would dirty the tree on every run.
    if !live && !flag("--no-bench") {
        let path = workspace_root().join("BENCH_chaos.json");
        std::fs::write(&path, campaign_json(&campaign)).expect("write BENCH_chaos.json");
        println!("wrote {}", path.display());
    }

    if flag("--write-floor") {
        std::fs::write(&floor_path, floor_text(&campaign, exec)).expect("write the floor file");
        println!("wrote {}", floor_path.display());
    }

    if !live && flag("--shrink-worst") {
        shrink_worst(&campaign);
    }

    if flag("--check-floor") {
        let floor = std::fs::read_to_string(&floor_path)
            .unwrap_or_else(|e| panic!("read {}: {e}", floor_path.display()));
        match check_floor(&campaign, exec, &floor) {
            Ok(slack) => {
                slack.iter().for_each(|warning| println!("WARN: {warning}"));
                println!("OK: resilience floor holds ({floor_file})");
            }
            Err(e) => {
                eprintln!("FAIL: {e}");
                eprintln!("(rerun with --write-floor after an intentional change)");
                std::process::exit(1);
            }
        }
    }
}

/// Minimize the worst violating case and write the survivor as a
/// canonical scenario file.
fn shrink_worst(campaign: &adaptbf_bench::chaos::Campaign) {
    let Some(worst) = worst_cases(campaign, campaign.outcomes.len())
        .into_iter()
        .find(|o| o.score.violates())
    else {
        println!("no violating case to shrink");
        return;
    };
    println!(
        "shrinking worst case: {} / {} plan {} seed {}",
        worst.case.scenario, worst.case.policy, worst.case.plan_index, worst.case.case_seed
    );
    let Some(minimized) = shrink_case(&worst.case.file, campaign.config.tolerance) else {
        println!("violation did not reproduce under the record/replay oracle");
        return;
    };
    let mut file = minimized.file;
    file.name = format!(
        "chaos_{}_{}_{}",
        worst.case.scenario, worst.case.policy, worst.case.case_seed
    );
    file.description = format!(
        "Shrinker-minimized chaos campaign find (seed {} on {}): {}",
        campaign.config.seed,
        worst.case.scenario,
        if minimized.score.conservation_ok {
            "a tracked job never re-converges after the disturbance"
        } else {
            "the fault-stats conservation audit fails"
        }
    );
    let dir = adaptbf_bench::results_dir();
    let path = dir.join(format!("{}.json", file.name));
    std::fs::write(&path, file.render()).expect("write minimized scenario");
    println!(
        "minimized in {} steps / {} oracle runs → {}",
        minimized.steps,
        minimized.runs,
        path.display()
    );
}
