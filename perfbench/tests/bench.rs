//! Runs every workload at a tiny size through the built binary and checks
//! the benchmark against its own declaration: every printed metric is
//! listed in `BENCHMARK.json` with the same unit, no operation fails, and
//! the exact counts repeat between two invocations of one seed.

use std::process::{Command, Output};

use serde_json::Value;

const WORKLOADS: [&str; 4] = ["grid_full", "grid_replay", "smp_coherence", "fleet_sampled"];

/// The seed kept back from tuning, for confirming gain claims.
const HELD_BACK_SEED: &str = "0x5EED";

fn perfbench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(args)
        .output()
        .expect("perfbench starts")
}

/// One tiny invocation: the parsed result line and every printed count line.
fn run(workload: &str, trace: bool, seed: &str) -> (Value, Vec<String>) {
    let trace = if trace { "1" } else { "0" };
    let output = perfbench(&[
        "--workload",
        workload,
        "--seed",
        seed,
        "--seconds",
        "0",
        "--trace",
        trace,
        "--tiny",
    ]);
    let stdout = String::from_utf8(output.stdout).expect("UTF-8 output");
    assert!(
        output.status.success(),
        "{workload} --trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    let result = serde_json::parse(last).expect("the last line is JSON");
    let counts = stdout
        .lines()
        .filter(|line| line.starts_with("counts ") || line.contains(" counts "))
        .map(str::to_string)
        .collect();
    (result, counts)
}

/// `(name, unit)` of every metric `BENCHMARK.json` lists under `section`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json");
    let document = serde_json::parse(&text).expect("BENCHMARK.json is JSON");
    let field = |metric: &Value, key: &str| {
        metric
            .get(key)
            .and_then(Value::as_str)
            .expect("metric field")
            .to_string()
    };
    let mut metrics: Vec<(String, String)> = document
        .get(section)
        .and_then(Value::as_array)
        .expect("metric section")
        .iter()
        .map(|metric| (field(metric, "name"), field(metric, "unit")))
        .collect();
    metrics.sort();
    metrics
}

fn printed(result: &Value) -> Vec<(String, String)> {
    let mut metrics: Vec<(String, String)> = result
        .get("metrics")
        .and_then(Value::as_object)
        .expect("metrics object")
        .iter()
        .map(|(name, metric)| {
            let value = metric.get("value").and_then(Value::as_f64);
            assert!(
                value.is_some_and(f64::is_finite),
                "{name} has no finite value"
            );
            let unit = metric.get("unit").and_then(Value::as_str).expect("unit");
            (name.clone(), unit.to_string())
        })
        .collect();
    metrics.sort();
    metrics
}

fn assert_clean(workload: &str, result: &Value) {
    assert_eq!(
        result.get("correct").and_then(Value::as_bool),
        Some(true),
        "{workload}"
    );
    assert_eq!(
        result.get("failed").and_then(Value::as_u64),
        Some(0),
        "{workload}: fail_rate must be 0"
    );
    assert!(result
        .get("attempted")
        .and_then(Value::as_u64)
        .is_some_and(|n| n > 0));
}

#[test]
fn metrics_match_the_declaration_and_counts_repeat() {
    for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
        let declared = declared(section);
        for workload in WORKLOADS {
            let (result, counts) = run(workload, trace, "1");
            assert_clean(workload, &result);
            assert_eq!(printed(&result), declared, "{workload}: {section} metrics");
            assert!(!counts.is_empty(), "{workload} printed no counts");
            let (_, again) = run(workload, trace, "1");
            assert_eq!(counts, again, "{workload}: counts must repeat exactly");
        }
    }
}

#[test]
fn the_held_back_seed_runs_clean() {
    for workload in WORKLOADS {
        let (result, _) = run(workload, false, HELD_BACK_SEED);
        assert_clean(workload, &result);
    }
}

#[test]
fn bad_arguments_print_no_result() {
    for args in [
        &["--workload", "no_such_workload"][..],
        &["--workload", "grid_full", "--trace", "2"],
        &["--seed", "1"],
    ] {
        let output = perfbench(args);
        assert!(!output.status.success(), "{args:?} must fail");
        assert!(output.stdout.is_empty(), "{args:?} printed a result");
    }
}
