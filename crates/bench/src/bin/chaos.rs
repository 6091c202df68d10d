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
//!                   resilience regression
//!   --write-floor   rewrite the floor file from this campaign
//!   --shrink-worst  minimize the worst violating case and write it as a
//!                   canonical scenario file under results/ (sim only)
//!   --no-bench      skip writing BENCH_chaos.json (CI smoke)

use adaptbf_bench::chaos::{
    campaign_json, check_floor, check_live_floor, floor_text, live_floor_text, run_campaign,
    run_live_campaign, shrink_case, summary_table, worst_cases, CampaignConfig,
};
use adaptbf_bench::{arg_value, workspace_root};

fn main() {
    let flag = |name: &str| std::env::args().any(|a| a == name);
    let value = arg_value::<u64>;
    let seed = value("--seed").unwrap_or(42);
    if flag("--live") {
        let mut config = if flag("--smoke") {
            CampaignConfig::live_smoke(seed)
        } else {
            CampaignConfig::live(seed)
        };
        if let Some(plans) = value("--plans") {
            config.plans_per_scenario = plans as usize;
        }
        run_live(config, flag("--write-floor"), flag("--check-floor"));
        return;
    }
    let mut config = if flag("--smoke") {
        CampaignConfig::smoke(seed)
    } else {
        CampaignConfig::full(seed)
    };
    if let Some(plans) = value("--plans") {
        config.plans_per_scenario = plans as usize;
    }

    let campaign = run_campaign(config);
    print!("{}", summary_table(&campaign));

    if !flag("--no-bench") {
        let path = workspace_root().join("BENCH_chaos.json");
        std::fs::write(&path, campaign_json(&campaign)).expect("write BENCH_chaos.json");
        println!("wrote {}", path.display());
    }

    if flag("--write-floor") {
        let path = workspace_root().join("crates/bench/chaos_floor.txt");
        std::fs::write(&path, floor_text(&campaign)).expect("write chaos_floor.txt");
        println!("wrote {}", path.display());
    }

    if flag("--shrink-worst") {
        shrink_worst(&campaign);
    }

    if flag("--check-floor") {
        let path = workspace_root().join("crates/bench/chaos_floor.txt");
        let floor = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
        match check_floor(&campaign, &floor) {
            Ok(()) => println!("OK: resilience floor holds"),
            Err(e) => {
                eprintln!("FAIL: {e}");
                eprintln!("(rerun with --write-floor after an intentional change)");
                std::process::exit(1);
            }
        }
    }
}

/// Sweep the campaign grid over the live threaded runtime and gate on
/// the count-shaped live floor (`crates/bench/chaos_live_floor.txt`).
/// No BENCH artifact: live numbers are wall-clock and would dirty the
/// tree on every run.
fn run_live(config: CampaignConfig, write_floor: bool, do_check: bool) {
    println!(
        "live chaos campaign: {} cases over the threaded runtime (wall-clock)",
        3 * config.plans_per_scenario * 3
    );
    let campaign = run_live_campaign(config);
    print!("{}", summary_table(&campaign));
    print!("{}", live_floor_text(&campaign));
    let path = workspace_root().join("crates/bench/chaos_live_floor.txt");
    if write_floor {
        std::fs::write(&path, live_floor_text(&campaign)).expect("write chaos_live_floor.txt");
        println!("wrote {}", path.display());
    }
    if do_check {
        let floor = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
        match check_live_floor(&campaign, &floor) {
            Ok(()) => println!("OK: live resilience floor holds"),
            Err(e) => {
                eprintln!("FAIL: {e}");
                eprintln!("(rerun with --live --write-floor after an intentional change)");
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
