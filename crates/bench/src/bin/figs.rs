//! Every figure of the paper's evaluation (Figures 3–9) from one binary.
//!
//! With no flag it runs the lot and writes all `results/*.csv` artifacts;
//! `--fig N` runs one figure and prints the shape the paper reports for it. Figures come in pairs over one
//! three-policy comparison: the odd one is the timelines, the even one the
//! summary bars.

use adaptbf_bench::{arg_value, fig9_sweep, write_fig7_series, write_fig9, ComparisonFig, Options};
use adaptbf_workload::{scenarios, Scenario};

/// A built-in scenario at a given scale.
type Scaled = fn(f64) -> Scenario;

/// `(first figure, section, workload)` of each timelines/summary pair
/// over a shared comparison; the summary figure is `first + 1`.
const PAIRS: [(u32, &str, Scaled); 3] = [
    (
        3,
        "token allocation (Section IV-D)",
        scenarios::token_allocation_scaled,
    ),
    (
        5,
        "token redistribution (Section IV-E)",
        scenarios::token_redistribution_scaled,
    ),
    (
        7,
        "token re-compensation (Section IV-F)",
        scenarios::token_recompensation_scaled,
    ),
];

/// Title and paper shape of Figures 3..=9.
const FIGURES: [(&str, &str); 7] = [
    (
        "token allocation timelines",
        "AdapTBF orders bandwidth 50% > 30% > 10% ≈ 10% and\n\
         re-allocates within one period of each completion; Static BW strands\n\
         bandwidth after early finishers; No BW ignores priority.",
    ),
    (
        "token allocation summary",
        "significant gains for job3/job4 (high priority), minimal\n\
         losses for job1/job2; AdapTBF overall ≈ No BW overall.",
    ),
    (
        "token redistribution timelines",
        "No BW lets the continuous low-priority job starve the\n\
         bursty high-priority jobs; AdapTBF serves bursts promptly and caps\n\
         job4; Static BW leaves capacity idle between bursts.",
    ),
    (
        "token redistribution summary",
        "large gains for jobs 1-3 over both baselines; job4 (and\n\
         the aggregate) throttled below No BW — the price of priority fairness.",
    ),
    (
        "records & demand over time",
        "jobs 1-3 accumulate positive records (lending) until\n\
         their continuous streams start at 20/50/80s, then reclaim; job4's\n\
         record goes negative (borrowing) and is paid back over time.",
    ),
    (
        "re-compensation summary",
        "AdapTBF ≈ No BW on aggregate; Static BW significantly\n\
         degraded; gains for jobs 1-3, minimal loss for job4.",
    ),
    (
        "allocation frequency sweep",
        "smaller periods adapt faster and win; 100 ms is best.",
    ),
];

/// The lending story of Figure 7: min/max/final record per job.
fn print_record_ranges(fig: &ComparisonFig) {
    let records = fig.comparison.adaptbf.metrics.records();
    for (job, series) in records.iter() {
        let max = series.values.iter().cloned().fold(f64::MIN, f64::max);
        let min = series.values.iter().cloned().fold(f64::MAX, f64::min);
        let last = series.values.last().copied().unwrap_or(0.0);
        println!("{job}: record range [{min:.0}, {max:.0}], final {last:.0}");
    }
}

fn main() {
    let opts = Options::from_args();
    let only: Option<u32> = arg_value("--fig");
    assert!(
        only.is_none_or(|n| (3..=9).contains(&n)),
        "--fig takes 3..=9"
    );
    let want = |n: u32| only.is_none_or(|f| f == n);
    match only {
        None => println!(
            "Running the full evaluation (seed {}, scale {})\n",
            opts.seed, opts.scale
        ),
        Some(n) => println!(
            "== Figure {n}: {} (seed {}, scale {}) ==",
            FIGURES[n as usize - 3].0,
            opts.seed,
            opts.scale
        ),
    }
    for (first, section, scenario) in PAIRS {
        if !(want(first) || want(first + 1)) {
            continue;
        }
        if only.is_none() {
            println!("--- Figures {first} & {}: {section} ---", first + 1);
        }
        let fig = ComparisonFig::run(scenario(opts.scale), opts.seed);
        if want(first) {
            // Figure 7 proper is the records/demand series; its throughput
            // timelines belong to the full run only.
            if first != 7 || only.is_none() {
                fig.write_timelines(&format!("fig{first}"));
            }
            if first == 7 {
                write_fig7_series(&fig);
            }
        }
        match only {
            // The full run keeps one summary per pair, under the even name.
            None => println!("{}", fig.write_summary(&format!("fig{}", first + 1))),
            Some(n) => {
                if n == 7 {
                    print_record_ranges(&fig);
                }
                println!("{}", fig.write_summary(&format!("fig{n}")));
            }
        }
    }
    if want(9) {
        if only.is_none() {
            println!("--- Figure 9: allocation frequency sweep (Section IV-H) ---");
        }
        println!("{}", write_fig9(&fig9_sweep(opts)));
    }
    match only {
        None => {
            println!("done. See results/ and run");
            println!("`cargo run -p adaptbf-bench --bin overhead --release` for §IV-G.");
        }
        Some(n) => println!("paper shape: {}", FIGURES[n as usize - 3].1),
    }
}
