//! The observability layer's determinism contract:
//!
//! 1. **Zero perturbation** — a campaign run with an enabled [`Obs`] handle
//!    produces byte-identical report JSON to the same campaign run with
//!    observability disabled.
//! 2. **Counter-section identity** — the deterministic sections of the
//!    metrics dump (`counter_section_json`) are byte-identical across
//!    worker-thread counts and across a fresh run versus a
//!    checkpoint/resume shard split, because they are projected from the
//!    final (byte-identical) reports, never incremented live.
//! 3. **Cross-engine identity** — the engine-independent sections
//!    (`campaign_section_json`) are byte-identical between the full-sim and
//!    trace-backed engines on the same spec; only the engine name and
//!    `engine_counters` may differ.
//! 4. **Wall clock stays out** — timing fields appear in the full dump but
//!    never in a compared section.
//! 5. **Degenerate-baseline surfacing** — `degenerate_baselines` is present
//!    in both report JSON documents (not just the rendered WARNING line)
//!    and agrees with the projected metrics counter.

use laec::core::sampling::{Sampler, SamplerCheckpoint};
use laec::core::spec::ExecutionMode;
use laec::prelude::*;

/// A small fault grid: 1 workload x 2 schemes x 2 fault seeds.
fn grid_spec(mode: ExecutionMode) -> ValidatedSpec {
    let mut builder = CampaignBuilder::smoke()
        .named_workloads(["vector_sum"])
        .schemes([EccScheme::NoEcc, EccScheme::Laec])
        .fault_seeds([1, 2])
        .fault_interval(200);
    if let ExecutionMode::TraceBacked { cache_dir } = mode {
        builder = match cache_dir {
            Some(dir) => builder.trace_cache(dir),
            None => builder.trace_backed(),
        };
    }
    builder.validate().expect("valid spec")
}

/// A small sampled campaign: 1 workload x 1 scheme, 16-sample budget.
fn sampled_spec() -> ValidatedSpec {
    CampaignBuilder::smoke()
        .named_workloads(["vector_sum"])
        .schemes([EccScheme::Laec])
        .sampled(16)
        .batch(8)
        .min_samples(8)
        .validate()
        .expect("valid sampled spec")
}

#[test]
fn observed_run_report_is_byte_identical_to_plain_run() {
    let plain = Campaign::new(grid_spec(ExecutionMode::Full)).run(2);
    let obs = Obs::enabled();
    let observed = Campaign::new(grid_spec(ExecutionMode::Full)).run_observed(2, &obs);
    assert_eq!(plain.to_json(), observed.to_json());
    assert_eq!(plain.render(), observed.render());
    // And the dump actually recorded the campaign.
    assert_eq!(
        obs.dump().counters["campaign.cells"],
        plain.grid().expect("grid mode").cells.len() as u64
    );
}

#[test]
fn counter_section_is_thread_count_invariant() {
    let one = Obs::enabled();
    let eight = Obs::enabled();
    let _ = Campaign::new(grid_spec(ExecutionMode::Full)).run_observed(1, &one);
    let _ = Campaign::new(grid_spec(ExecutionMode::Full)).run_observed(8, &eight);
    assert_eq!(
        one.dump().counter_section_json(),
        eight.dump().counter_section_json(),
        "deterministic sections must not depend on worker count"
    );
}

#[test]
fn counter_section_survives_a_shard_resume_split() {
    // Fresh, uninterrupted run through the engine dispatch.
    let fresh_obs = Obs::enabled();
    let _ = Campaign::new(sampled_spec()).run_observed(2, &fresh_obs);

    // The same campaign driven as two shards with a checkpoint between
    // them — the CLI's --checkpoint/--shard-rounds/--resume path.
    let validated = sampled_spec();
    let grid = validated.grid();
    let plan = *validated.plan().expect("sampled mode");
    let execution = validated.sample_execution().expect("sampled mode").clone();
    let mut first = Sampler::new(&grid, &plan, &execution, 2);
    assert!(
        !first.run_rounds(2, Some(1)),
        "one round must not complete a 16-sample budget in 8-sample batches"
    );
    let checkpoint =
        SamplerCheckpoint::decode(&first.checkpoint().encode()).expect("checkpoint round-trips");
    let mut resumed = Sampler::restore(&grid, &plan, &execution, 2, &checkpoint).expect("restores");
    assert!(resumed.run_rounds(2, None));
    let sharded_outcome = CampaignOutcome::Sampled {
        report: resumed.report(),
        trace_stats: None,
    };
    let sharded_obs = Obs::enabled();
    sharded_obs.set_context(&validated.fingerprint_hex(), "sampled");
    record_outcome_metrics(&sharded_outcome, &sharded_obs);

    assert_eq!(
        fresh_obs.dump().counter_section_json(),
        sharded_obs.dump().counter_section_json(),
        "a shard/resume split must project the same deterministic sections"
    );
}

#[test]
fn campaign_section_is_engine_invariant_between_full_and_trace_backed() {
    let full = Obs::enabled();
    let traced = Obs::enabled();
    let _ = Campaign::new(grid_spec(ExecutionMode::Full)).run_observed(2, &full);
    // The trace-backed run replays a warm trace cache.
    let cache = std::path::PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("obs-trace-cache");
    let _ = std::fs::remove_dir_all(&cache);
    let mode = || ExecutionMode::TraceBacked {
        cache_dir: Some(cache.clone()),
    };
    let _ = Campaign::new(grid_spec(mode())).run(2);
    let _ = Campaign::new(grid_spec(mode())).run_observed(2, &traced);
    let _ = std::fs::remove_dir_all(&cache);
    // The engine-independent projection is identical because the reports
    // are; the engine-specific sections legitimately differ.
    assert_eq!(
        full.dump().campaign_section_json(),
        traced.dump().campaign_section_json()
    );
    let full_dump = full.dump();
    let traced_dump = traced.dump();
    assert_eq!(full_dump.engine, "full");
    assert_eq!(traced_dump.engine, "trace-backed");
    // The full engine explains every faulty cell by its seed overlay:
    // served, or escaped for a reason.
    let faulty_cells = full_dump.counters["campaign.cells"] - 2;
    assert!(full_dump
        .engine_counters
        .keys()
        .all(|name| name == "overlay.served" || name.starts_with("overlay.escaped.")));
    assert_eq!(
        full_dump.engine_counters.values().sum::<u64>(),
        faulty_cells,
        "{:?}",
        full_dump.engine_counters
    );
    // Each of the 2 triples replayed its recording, carrying its 2 seeds.
    let counter = |name: &str| traced_dump.engine_counters[name];
    assert_eq!(
        (counter("trace.cache_loads"), counter("trace.recorded")),
        (2, 0)
    );
    let replays = counter("trace.replayed") + counter("trace.fallbacks");
    assert_eq!(replays, faulty_cells);
    // Both engines carry the same seeds as overlays, so they explain their
    // faulty cells alike.
    let overlay_counters = |dump: &MetricsDump| -> Vec<(String, u64)> {
        dump.engine_counters
            .iter()
            .filter(|(name, _)| name.starts_with("overlay."))
            .map(|(name, &count)| (name.clone(), count))
            .collect()
    };
    assert_eq!(overlay_counters(&full_dump), overlay_counters(&traced_dump));
}

/// The escape split of one trace-backed run whose every faulty cell, or
/// sample, rode a seed overlay on a replay: the
/// `overlay.escaped.<scheme>.<reason>` counters, after checking that they
/// and `overlay.served` sum to `total`, and that the replays account for
/// every seed they carried.
fn escape_split(dump: &MetricsDump, total: u64) -> Vec<(String, u64)> {
    let counters = &dump.engine_counters;
    let split: Vec<(String, u64)> = counters
        .iter()
        .filter(|(name, _)| name.starts_with("overlay.escaped."))
        .map(|(name, &count)| (name.clone(), count))
        .collect();
    let escaped: u64 = split.iter().map(|(_, count)| count).sum();
    let served = counters.get("overlay.served").copied().unwrap_or(0);
    assert_eq!(served + escaped, total, "the split sums to the total");
    assert_eq!(
        (counters["trace.replayed"], counters["trace.fallbacks"]),
        (served, escaped),
        "every seed rode a replay"
    );
    split
}

#[test]
fn fallback_split_is_thread_count_invariant_and_sums_to_the_total() {
    // The grid replays a warm trace cache, so its faulty cells ride
    // replays, as the trace-backed sampler's samples do.
    let cache = std::path::PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("obs-escape-split");
    let _ = std::fs::remove_dir_all(&cache);
    let grid = CampaignBuilder::smoke()
        .named_workloads(["vector_sum", "table_lookup"])
        .schemes([EccScheme::NoEcc, EccScheme::Laec])
        .platforms([PlatformVariant::WriteBack, PlatformVariant::WriteThrough])
        .fault_seeds([7, 8])
        .fault_interval(60)
        .trace_cache(cache.clone())
        .validate()
        .expect("valid spec");
    let _ = Campaign::new(grid.clone()).run(2);
    let sampled = CampaignBuilder::smoke()
        .named_workloads(["vector_sum"])
        .schemes([EccScheme::NoEcc])
        .fault_interval(60)
        .sampled(16)
        .batch(8)
        .min_samples(8)
        .trace_backed()
        .validate()
        .expect("valid sampled spec");
    // 2 workloads x 2 schemes x 2 platforms x 2 seeds faulty cells; 16
    // samples.
    for (spec, total) in [(grid, 16), (sampled, 16)] {
        let one = Obs::enabled();
        let eight = Obs::enabled();
        let _ = Campaign::new(spec.clone()).run_observed(1, &one);
        let _ = Campaign::new(spec).run_observed(8, &eight);
        let split = escape_split(&one.dump(), total);
        assert!(
            split
                .iter()
                .any(|(name, _)| name == "overlay.escaped.no-ecc.load_value"),
            "no-ecc strikes reach loaded values: {split:?}"
        );
        assert_eq!(split, escape_split(&eight.dump(), total));
    }
    let _ = std::fs::remove_dir_all(&cache);
}

#[test]
fn smp_escape_split_is_thread_count_invariant_and_sums_to_the_faulty_cells() {
    // An smp2 grid carries its seeds as overlays on core 0 in full
    // simulation: 2 workloads x 2 schemes x 2 seeds faulty cells.
    let spec = CampaignBuilder::smoke()
        .named_workloads(["vector_sum", "table_lookup"])
        .schemes([EccScheme::NoEcc, EccScheme::Laec])
        .platforms([PlatformVariant::smp(2)])
        .fault_seeds([7, 8])
        .fault_interval(60)
        .validate()
        .expect("valid spec");
    let split = |threads: usize| {
        let obs = Obs::enabled();
        let _ = Campaign::new(spec.clone()).run_observed(threads, &obs);
        let counters = obs.dump().engine_counters;
        let served = counters.get("overlay.served").copied().unwrap_or(0);
        let escaped: Vec<(String, u64)> = counters
            .into_iter()
            .filter(|(name, _)| name.starts_with("overlay.escaped."))
            .collect();
        (served, escaped)
    };
    let (served, escaped) = split(1);
    let total = served + escaped.iter().map(|(_, count)| count).sum::<u64>();
    assert_eq!(
        total, 8,
        "the split explains every faulty cell: {escaped:?}"
    );
    assert!(served > 0, "some seeds are served: {escaped:?}");
    assert!(
        escaped
            .iter()
            .any(|(name, _)| name == "overlay.escaped.no-ecc.load_value"),
        "no-ecc strikes reach loaded values: {escaped:?}"
    );
    assert_eq!((served, escaped), split(8));
}

#[test]
fn wall_clock_timings_are_excluded_from_every_compared_section() {
    let obs = Obs::enabled();
    let _ = Campaign::new(grid_spec(ExecutionMode::Full)).run_observed(2, &obs);
    let dump = obs.dump();
    assert!(
        !dump.timings.is_empty(),
        "an observed full-sim campaign must record phase spans"
    );
    let full = dump.to_json();
    assert!(full.contains("\"timings\""));
    assert!(full.contains("total_ms"));
    for section in [dump.counter_section_json(), dump.campaign_section_json()] {
        assert!(!section.contains("timings"), "wall clock leaked: {section}");
        assert!(
            !section.contains("total_ms"),
            "wall clock leaked: {section}"
        );
        assert!(!section.contains("_ns"), "wall clock leaked: {section}");
    }
}

#[test]
fn dump_round_trips_through_its_json_form() {
    let obs = Obs::enabled();
    let _ = Campaign::new(grid_spec(ExecutionMode::Full)).run_observed(2, &obs);
    let dump = obs.dump();
    let parsed = MetricsDump::from_json(&dump.to_json()).expect("dump parses");
    assert_eq!(parsed, dump);
    assert_eq!(parsed.counter_section_json(), dump.counter_section_json());
}

#[test]
fn degenerate_baselines_is_surfaced_in_both_report_json_documents() {
    // Grid report: the field is part of the serialized document, so JSON
    // consumers see the warning condition without parsing rendered text.
    let grid_outcome = Campaign::new(grid_spec(ExecutionMode::Full)).run(2);
    let grid_json = grid_outcome.to_json();
    assert!(
        grid_json.contains("\"degenerate_baselines\": 0"),
        "grid report JSON must carry the degenerate-baseline count"
    );

    // Sampled report: same field, same contract.
    let obs = Obs::enabled();
    let sampled_outcome = Campaign::new(sampled_spec()).run_observed(2, &obs);
    let sampled_json = sampled_outcome.to_json();
    assert!(
        sampled_json.contains("\"degenerate_baselines\": 0"),
        "sampled report JSON must carry the degenerate-baseline count"
    );

    // And the metrics projection agrees with the report field.
    assert_eq!(
        obs.dump().counters["campaign.degenerate_baselines"],
        sampled_outcome
            .sampled()
            .expect("sampled mode")
            .degenerate_baselines
    );
}

#[test]
fn sampled_progress_events_stream_per_stratum_convergence() {
    use laec::obs::JsonlSink;
    use std::sync::{Arc, Mutex};

    /// Captures the emitted byte stream in memory for assertion.
    #[derive(Debug, Clone)]
    struct Capture(Arc<Mutex<Vec<u8>>>);
    impl std::io::Write for Capture {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().expect("capture lock").extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }
    let captured = Arc::new(Mutex::new(Vec::new()));
    let obs = Obs::enabled();
    obs.attach_progress(Box::new(JsonlSink::to_writer(Box::new(Capture(
        captured.clone(),
    )))));
    let _ = Campaign::new(sampled_spec()).run_observed(2, &obs);

    let captured = captured.lock().expect("capture lock");
    let text = String::from_utf8(captured.clone()).expect("UTF-8 JSONL");
    let lines: Vec<&str> = text.lines().collect();
    let fingerprint = sampled_spec().fingerprint_hex();
    assert!(lines[0].contains("\"event\":\"campaign_start\""));
    assert!(lines
        .last()
        .expect("events")
        .contains("\"event\":\"campaign_end\""));
    assert!(
        lines
            .iter()
            .any(|l| l.contains("\"event\":\"round\"") && l.contains("\"width\":")),
        "sampled campaigns must stream per-stratum interval widths"
    );
    for line in lines.iter() {
        assert!(
            line.contains(&format!("\"spec\":\"{fingerprint}\"")),
            "every event is stamped with the spec fingerprint: {line}"
        );
    }
}

#[test]
fn execution_mode_never_changes_the_report_bytes_under_observation() {
    // The cross-engine byte-identity oracle, now with observation enabled
    // on both sides: full-sim and trace-backed replay (of a warm trace
    // cache) agree bit-for-bit even while both are being instrumented.
    let full = Campaign::new(grid_spec(ExecutionMode::Full)).run_observed(4, &Obs::enabled());
    let cache = std::path::PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("obs-mode-bytes");
    let _ = std::fs::remove_dir_all(&cache);
    let mode = || ExecutionMode::TraceBacked {
        cache_dir: Some(cache.clone()),
    };
    let _ = Campaign::new(grid_spec(mode())).run(4);
    let traced = Campaign::new(grid_spec(mode())).run_observed(4, &Obs::enabled());
    let _ = std::fs::remove_dir_all(&cache);
    let stats = traced.trace_stats().expect("trace-backed counters");
    assert_eq!((stats.cache_loads, stats.recorded), (2, 0), "{stats}");
    assert_eq!(full.to_json(), traced.to_json());
}
