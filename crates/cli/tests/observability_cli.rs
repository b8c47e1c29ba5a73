//! End-to-end observability contract of the `laec-cli` binary:
//!
//! * `--metrics-out`/`--progress` never change the stdout report bytes,
//! * `--progress` streams valid JSONL (one event object per stderr line),
//!   also when a sharded sampler stops before the campaign finishes,
//! * the metrics file round-trips through `laec-cli stats`, whose
//!   `--counters` section is byte-identical across `--threads` values,
//! * `trace info` reports the per-core event-type histogram,
//! * `forensics` refuses a multi-core grid rather than printing zeros.

use std::path::PathBuf;
use std::process::{Command, Output};

/// Common grid flags for a quick fault campaign.
const GRID: &[&str] = &[
    "campaign",
    "--smoke",
    "--workloads",
    "vector_sum",
    "--schemes",
    "no-ecc,laec",
    "--fault-seeds",
    "1,2",
    "--fault-interval",
    "200",
];

fn cli(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_laec-cli"))
        .args(args)
        .output()
        .expect("laec-cli runs")
}

fn scratch(name: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("laec-cli-obs-{}-{name}", std::process::id()));
    let _ = std::fs::remove_file(&path);
    path
}

#[test]
fn metrics_and_progress_flags_leave_the_stdout_report_untouched() {
    let metrics = scratch("untouched.json");
    let plain = cli(&[GRID, &["--json"]].concat());
    let observed = cli(&[
        GRID,
        &[
            "--json",
            "--progress",
            "--metrics-out",
            metrics.to_str().expect("utf-8 temp path"),
        ],
    ]
    .concat());
    assert!(plain.status.success() && observed.status.success());
    assert_eq!(
        plain.stdout, observed.stdout,
        "observability must not perturb the report bytes"
    );
    assert!(metrics.is_file(), "--metrics-out writes the dump file");
    std::fs::remove_file(metrics).expect("cleanup");
}

#[test]
fn progress_stream_is_valid_jsonl_on_stderr() {
    let observed = cli(&[GRID, &["--progress"]].concat());
    assert!(observed.status.success());
    let stderr = String::from_utf8(observed.stderr).expect("UTF-8 stderr");
    let lines: Vec<&str> = stderr.lines().collect();
    // campaign_start + 6 cells (2 schemes x 3 runs) + campaign_end.
    assert_eq!(lines.len(), 8, "unexpected event stream:\n{stderr}");
    for line in &lines {
        let event = serde_json::parse(line).expect("every line is one JSON object");
        assert!(event.get("event").is_some(), "not an event: {line}");
        assert!(
            event.get("spec").and_then(|v| v.as_str()).is_some(),
            "missing spec stamp: {line}"
        );
    }
    assert!(lines[0].contains("campaign_start"));
    assert!(lines[7].contains("campaign_end"));
}

#[test]
fn an_unfinished_sharded_sampler_keeps_its_progress_stream_pure_jsonl() {
    let checkpoint = scratch("shard.ckpt");
    let observed = cli(&[
        "campaign",
        "--smoke",
        "--workloads",
        "vector_sum",
        "--schemes",
        "no-ecc",
        "--fault-interval",
        "60",
        "--sample",
        "64",
        "--batch",
        "8",
        "--min-samples",
        "8",
        "--shard-rounds",
        "1",
        "--checkpoint",
        checkpoint.to_str().expect("utf-8 temp path"),
        "--progress",
    ]);
    assert!(observed.status.success());
    assert!(checkpoint.is_file(), "the shard saved its checkpoint");
    std::fs::remove_file(checkpoint).expect("cleanup");
    let stderr = String::from_utf8(observed.stderr).expect("UTF-8 stderr");
    assert!(!stderr.is_empty(), "the shard streamed its events");
    for line in stderr.lines() {
        let event = serde_json::parse(line)
            .unwrap_or_else(|_| panic!("not one JSON object: {line}\nstream:\n{stderr}"));
        assert!(event.get("event").is_some(), "not an event: {line}");
    }
}

#[test]
fn stats_counter_section_is_identical_across_thread_counts() {
    let one = scratch("threads1.json");
    let eight = scratch("threads8.json");
    for (threads, path) in [("1", &one), ("8", &eight)] {
        let run = cli(&[
            GRID,
            &[
                "--threads",
                threads,
                "--metrics-out",
                path.to_str().expect("utf-8 temp path"),
            ],
        ]
        .concat());
        assert!(run.status.success());
    }
    let render = cli(&["stats", one.to_str().expect("utf-8")]);
    assert!(render.status.success());
    let rendered = String::from_utf8(render.stdout).expect("UTF-8 stats output");
    assert!(rendered.contains("counters (deterministic):"));
    assert!(rendered.contains("self-profile"));

    let counters_one = cli(&["stats", one.to_str().expect("utf-8"), "--counters"]);
    let counters_eight = cli(&["stats", eight.to_str().expect("utf-8"), "--counters"]);
    assert!(counters_one.status.success() && counters_eight.status.success());
    assert_eq!(
        counters_one.stdout, counters_eight.stdout,
        "counter sections must be byte-identical across thread counts"
    );
    serde_json::parse(&String::from_utf8(counters_one.stdout).expect("UTF-8"))
        .expect("counter section is valid JSON");
    std::fs::remove_file(one).expect("cleanup");
    std::fs::remove_file(eight).expect("cleanup");
}

#[test]
fn stats_rejects_a_file_that_is_not_a_metrics_dump() {
    let bogus = scratch("bogus.json");
    std::fs::write(&bogus, "{\"schema\": 99}").expect("fixture");
    let run = cli(&["stats", bogus.to_str().expect("utf-8")]);
    assert!(!run.status.success());
    let stderr = String::from_utf8(run.stderr).expect("UTF-8 stderr");
    assert!(stderr.contains("unsupported metrics schema"), "{stderr}");
    std::fs::remove_file(bogus).expect("cleanup");
}

#[test]
fn trace_info_reports_the_per_core_event_histogram() {
    let trace = scratch("histogram.trace");
    let record = cli(&[
        "trace",
        "record",
        "--smoke",
        "--workloads",
        "vector_sum",
        "--detailed",
        "--out",
        trace.to_str().expect("utf-8 temp path"),
    ]);
    assert!(record.status.success());
    let info = cli(&[
        "trace",
        "info",
        "--input",
        trace.to_str().expect("utf-8"),
        "--json",
    ]);
    assert!(info.status.success());
    let doc = serde_json::parse(&String::from_utf8(info.stdout).expect("UTF-8"))
        .expect("trace info emits JSON");
    let per_core = doc
        .get("per_core")
        .and_then(|v| v.as_array())
        .expect("per_core array");
    assert_eq!(per_core.len(), 1, "single-core recording has one entry");
    let events = per_core[0].get("events").expect("event histogram");
    for bucket in ["commit", "mem_read", "fetch", "stall", "line_fill"] {
        assert!(
            events.get(bucket).and_then(|v| v.as_u64()).unwrap_or(0) > 0,
            "missing `{bucket}` bucket in {events:?}"
        );
    }
    std::fs::remove_file(trace).expect("cleanup");
}
