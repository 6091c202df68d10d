//! The benchmark against its own contract: build profile, metric names,
//! `BENCHMARK.json`, and the result line of a real (smoke-sized) run.

use adaptbf_benchmark::inputs::WORKLOADS;
use adaptbf_benchmark::metrics::{END_TO_END, PER_LAYER};
use adaptbf_workload::json::Json;
use std::collections::BTreeSet;
use std::path::Path;
use std::process::Command;

fn read(rel: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(rel);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// The `key = value` lines of a manifest's `[profile.release]` table.
fn release_profile(manifest: &str) -> BTreeSet<String> {
    manifest
        .lines()
        .skip_while(|l| l.trim() != "[profile.release]")
        .skip(1)
        .take_while(|l| !l.trim_start().starts_with('['))
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| l.split_whitespace().collect::<String>())
        .collect()
}

#[test]
fn release_profile_matches_the_repository_root() {
    let root = release_profile(&read("../Cargo.toml"));
    let own = release_profile(&read("Cargo.toml"));
    assert!(!root.is_empty(), "root manifest has a [profile.release]");
    assert_eq!(
        own, root,
        "benchmark/Cargo.toml must repeat the root [profile.release]"
    );
}

fn name_ok(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
}

#[test]
fn metric_and_workload_names_are_well_formed_and_unique() {
    let mut seen = BTreeSet::new();
    let names = END_TO_END
        .iter()
        .map(|m| m.name)
        .chain(PER_LAYER.iter().map(|m| m.name))
        .chain(WORKLOADS.iter().map(|w| w.name()));
    for name in names {
        assert!(name_ok(name), "bad name `{name}`");
        assert!(seen.insert(name), "`{name}` is used twice");
    }
    assert!(END_TO_END
        .iter()
        .any(|m| m.name == "setup_s" && m.unit == "s"));
    let widest = END_TO_END.iter().map(|m| m.bound).fold(0.0, f64::max);
    assert!(widest <= 0.25);
    assert_eq!(
        END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .unwrap()
            .bound,
        widest
    );
}

#[test]
fn benchmark_json_repeats_the_metric_tables() {
    let json = Json::parse(&read("../BENCHMARK.json")).expect("BENCHMARK.json parses");
    let list = |key: &str| {
        json.get(key)
            .and_then(Json::as_arr)
            .unwrap_or_else(|| panic!("`{key}` array"))
            .to_vec()
    };
    let text = |v: &Json, key: &str| {
        v.get(key)
            .and_then(Json::as_str)
            .unwrap_or_else(|| panic!("`{key}`"))
            .to_string()
    };

    let workloads: Vec<String> = list("workloads").iter().map(|w| text(w, "name")).collect();
    let own: Vec<&str> = WORKLOADS.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, own);

    let e2e = list("end_to_end");
    assert_eq!(e2e.len(), END_TO_END.len());
    for (j, m) in e2e.iter().zip(&END_TO_END) {
        assert_eq!(text(j, "name"), m.name);
        assert_eq!(text(j, "unit"), m.unit, "{}", m.name);
        assert_eq!(text(j, "better"), m.better.as_str(), "{}", m.name);
        assert_eq!(
            j.get("bound").and_then(Json::as_f64),
            Some(m.bound),
            "{}",
            m.name
        );
    }
    let layers = list("per_layer");
    assert_eq!(layers.len(), PER_LAYER.len());
    for (j, m) in layers.iter().zip(&PER_LAYER) {
        assert_eq!(text(j, "name"), m.name);
        assert_eq!(text(j, "unit"), m.unit, "{}", m.name);
        assert_eq!(text(j, "better"), m.better.as_str(), "{}", m.name);
    }
    let paths: Vec<String> = list("paths")
        .iter()
        .map(|p| p.as_str().unwrap().to_string())
        .collect();
    assert_eq!(paths, ["benchmark"]);
}

/// Run the built harness at smoke size and return its result line.
fn result_line(workload: &str, trace: &str) -> Json {
    let out = Command::new(env!("CARGO_BIN_EXE_adaptbf-benchmark"))
        .args([
            "--smoke",
            "--workload",
            workload,
            "--seed",
            "5",
            "--seconds",
            "1",
            "--trace",
            trace,
        ])
        .output()
        .expect("run the harness");
    assert!(
        out.status.success(),
        "{workload} --trace {trace} exited with {}",
        out.status
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let last = stdout.lines().last().expect("a result line");
    Json::parse(last).unwrap_or_else(|e| panic!("result line is JSON ({e}): {last}"))
}

fn metric_names(result: &Json) -> Vec<String> {
    match result.get("metrics") {
        Some(Json::Obj(pairs)) => pairs.iter().map(|(k, _)| k.clone()).collect(),
        other => panic!("`metrics` object, got {other:?}"),
    }
}

#[test]
fn a_run_prints_every_metric_by_name_with_its_unit() {
    for (workload, trace) in [
        ("sim_striped", "0"),
        ("sim_striped", "1"),
        ("live_open", "0"),
    ] {
        let result = result_line(workload, trace);
        assert_eq!(
            result.get("correct").and_then(Json::as_bool),
            Some(true),
            "{workload}"
        );
        assert_eq!(
            result.get("failed").and_then(Json::as_u64),
            Some(0),
            "{workload}"
        );
        assert!(result.get("attempted").and_then(Json::as_u64).unwrap() >= 1);
        let want: Vec<(&str, &str)> = if trace == "0" {
            END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
        } else {
            PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
        };
        let got = metric_names(&result);
        assert_eq!(
            got,
            want.iter().map(|(n, _)| n.to_string()).collect::<Vec<_>>(),
            "{workload} --trace {trace}"
        );
        for (name, unit) in want {
            assert!(name_ok(name));
            let m = result.get("metrics").unwrap().get(name).unwrap();
            assert_eq!(m.get("unit").and_then(Json::as_str), Some(unit), "{name}");
            let value = m
                .get("value")
                .and_then(Json::as_f64)
                .unwrap_or_else(|| panic!("{name} has a numeric value"));
            if trace == "0" {
                assert!(
                    value > 0.0,
                    "end-to-end `{name}` on {workload} must never be 0, got {value}"
                );
            }
        }
    }
}

#[test]
fn the_striped_workload_runs_the_window_protocol_and_the_flat_one_does_not() {
    let count = |workload: &str, name: &str| {
        result_line(workload, "1")
            .get("metrics")
            .unwrap()
            .get(name)
            .unwrap()
            .get("value")
            .and_then(Json::as_f64)
            .unwrap()
    };
    assert!(count("sim_striped", "sim.cluster.epochs") > 0.0);
    assert!(count("sim_striped", "sim.cluster.inbox_flushes") > 0.0);
    assert_eq!(count("sim_flat", "sim.cluster.epochs"), 0.0);
    assert_eq!(count("sim_flat", "sim.cluster.inbox_flushes"), 0.0);
}
