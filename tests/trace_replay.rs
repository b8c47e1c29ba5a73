//! End-to-end guarantees of the trace capture & replay subsystem: a
//! trace-backed campaign must serialize *byte-identically* to the full-
//! simulation campaign for the same spec — fault axis included — and the
//! persisted trace cache must round-trip, for grids, sampled campaigns and
//! forensics alike.

use std::path::PathBuf;

use laec::core::campaign::{CampaignSpec, PlatformVariant, WorkloadSet};
use laec::core::sampling::{stratum_count, SampleExecution, SamplingPlan};
use laec::core::spec::{self, Campaign, CampaignOutcome, ExecutionMode};
use laec::core::{cell_fingerprint, record_cell, trace_file_name};
use laec::obs::Obs;
use laec::pipeline::EccScheme;
use laec::trace::TraceDetail;

use laec_bench::{run_full, run_full_forensic, run_mode, run_sampled, run_trace_backed};

/// Two workloads × two ECC schemes × fault seeds on the paper platform:
/// the acceptance grid of the subsystem.
fn secded_spec() -> CampaignSpec {
    let mut spec = CampaignSpec::smoke();
    spec.workloads = WorkloadSet::Named(vec!["vector_sum".into(), "fir_filter".into()]);
    spec.schemes = vec![EccScheme::Laec, EccScheme::ExtraStage];
    spec.platforms = vec![PlatformVariant::WriteBack];
    spec.fault_seeds = vec![0xA1, 0xB2, 0xC3];
    spec.fault_interval = 200;
    spec
}

/// A divergence-heavy grid: the unprotected no-ECC baseline corrupts
/// silently and the write-through platform recovers by refetch — both
/// make seeds escape their overlays, which must still be byte-identical.
fn divergent_spec() -> CampaignSpec {
    let mut spec = CampaignSpec::smoke();
    spec.workloads = WorkloadSet::Named(vec!["vector_sum".into(), "table_lookup".into()]);
    spec.schemes = vec![EccScheme::NoEcc, EccScheme::Laec];
    spec.platforms = vec![PlatformVariant::WriteBack, PlatformVariant::WriteThrough];
    spec.fault_seeds = vec![7, 8];
    spec.fault_interval = 60;
    spec
}

#[test]
fn trace_backed_campaign_is_byte_identical_on_the_secded_grid() {
    let spec = secded_spec();
    let full = run_full(&spec, 2);
    let traced = run_trace_backed(&spec, 2, None);
    assert_eq!(traced.report.to_json(), full.to_json(), "byte-identical");
    // Without a cache no replay would read a recording: nothing is
    // recorded, and 4 triples carry 3 overlays each.
    let overlays = &traced.stats.overlays;
    assert_eq!(traced.stats.recorded, 0);
    let escaped: u64 = overlays.escaped.values().sum();
    assert_eq!(overlays.served + escaped, 12);
    assert!(
        overlays.served >= 10,
        "SECDED absorbs sparse single-bit strikes; almost every faulty cell \
         must be served by its overlay ({})",
        traced.stats
    );
    // The faulty cells really injected faults (the overlays did real work).
    let injected: u64 = traced
        .report
        .cells
        .iter()
        .filter(|c| c.fault_seed.is_some())
        .map(|c| c.faults_injected)
        .sum();
    assert!(injected > 0, "faults were injected into the overlays");
}

#[test]
fn trace_backed_campaign_is_byte_identical_when_faults_force_fallbacks() {
    let spec = divergent_spec();
    let full = run_full(&spec, 2);
    let traced = run_trace_backed(&spec, 2, None);
    assert_eq!(traced.report.to_json(), full.to_json(), "byte-identical");
    assert!(
        !traced.stats.overlays.escaped.is_empty(),
        "silent no-ECC corruption / WT refetches must make seeds escape \
         their overlays somewhere in this grid ({})",
        traced.stats
    );
}

#[test]
fn warm_trace_cache_serves_a_faulty_grid_with_one_replay_per_triple() {
    let spec = divergent_spec();
    let cache = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("trace-cache-faulty");
    let _ = std::fs::remove_dir_all(&cache);
    let triples = 8;
    let faulty = triples * spec.fault_seeds.len() as u64;

    let cold = run_trace_backed(&spec, 2, Some(&cache));
    assert_eq!((cold.stats.recorded, cold.stats.cache_loads), (triples, 0));
    assert_eq!((cold.stats.replayed, cold.stats.fallbacks), (0, 0));

    let warm = run_trace_backed(&spec, 2, Some(&cache));
    assert_eq!(warm.stats.cache_loads, triples, "one replay per triple");
    assert_eq!(warm.stats.recorded, 0, "everything came from the cache");
    // Every seed rode a replay: served from its overlay, or escaped.
    assert_eq!(warm.stats.replayed + warm.stats.fallbacks, faulty);
    assert!(warm.stats.fallbacks > 0, "{}", warm.stats);

    let CampaignOutcome::Grid {
        report,
        overlay_stats: Some(full),
        ..
    } = run_mode(&spec, ExecutionMode::Full, 2)
    else {
        panic!("a full-simulation grid counts its overlays");
    };
    assert_eq!(warm.stats.overlays, full, "the same split as the full run");
    assert_eq!(cold.stats.overlays, full);
    assert_eq!(warm.stats.replayed, full.served);
    assert_eq!(warm.report.to_json(), report.to_json());
    assert_eq!(cold.report.to_json(), report.to_json());

    // A cached trace whose replay runs to the end and then misses the
    // recorded checksum is recorded anew, with the overlays its replay
    // consumed rebuilt: the same bytes and the same split.
    let workload = &spec.materialize_workloads()[0];
    let (scheme, platform) = (spec.schemes[0], spec.platforms[0]);
    let (_, mut trace) = record_cell(&spec, workload, scheme, platform, TraceDetail::Replay);
    trace.header.summary.memory_checksum ^= 1;
    let fingerprint = cell_fingerprint(&spec, scheme, platform);
    let name = trace_file_name(
        &workload.name,
        &scheme.to_string(),
        &platform.to_string(),
        fingerprint,
    );
    std::fs::write(cache.join(name), trace.encode()).expect("a tampered cache file");
    let mended = run_trace_backed(&spec, 2, Some(&cache));
    assert_eq!(
        (mended.stats.recorded, mended.stats.cache_loads),
        (1, triples - 1)
    );
    assert_eq!(mended.stats.overlays, full);
    assert_eq!(mended.report.to_json(), report.to_json());

    let _ = std::fs::remove_dir_all(&cache);
}

#[test]
fn fault_free_grids_replay_from_the_trace_cache() {
    let mut spec = secded_spec();
    spec.fault_seeds = vec![0xEE];
    let cache = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("trace-cache-test");
    let _ = std::fs::remove_dir_all(&cache);

    let first = run_trace_backed(&spec, 2, Some(&cache));
    assert_eq!(first.stats.recorded, 4);
    assert_eq!(first.stats.cache_loads, 0);
    assert_eq!(first.stats.cache_write_failures, 0);

    let second = run_trace_backed(&spec, 2, Some(&cache));
    assert_eq!(second.stats.recorded, 0, "everything came from the cache");
    assert_eq!(second.stats.cache_loads, 4);
    assert_eq!(second.report.to_json(), first.report.to_json());

    // A different master seed must invalidate the cache (fingerprints).
    let mut reseeded = spec.clone();
    reseeded.seed ^= 0xDEAD;
    let third = run_trace_backed(&reseeded, 2, Some(&cache));
    assert_eq!(third.stats.cache_loads, 0);
    assert_eq!(third.stats.recorded, 4);

    let _ = std::fs::remove_dir_all(&cache);
}

#[test]
fn trace_backed_grids_without_faults_or_cache_record_nothing() {
    // No faulty cell would replay a recording and no cache would keep it,
    // so every fault-free cell is simulated without a recorder.
    let mut spec = secded_spec();
    spec.fault_seeds.clear();
    let traced = run_trace_backed(&spec, 2, None);
    assert_eq!(traced.stats.recorded, 0, "{}", traced.stats);
    assert_eq!(traced.stats.cache_loads, 0);
    assert_eq!(traced.report.to_json(), run_full(&spec, 2).to_json());
}

#[test]
fn thread_count_does_not_change_trace_backed_reports() {
    let spec = secded_spec();
    let cache = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("trace-cache-threads");
    let _ = std::fs::remove_dir_all(&cache);
    let cold = run_trace_backed(&spec, 8, Some(&cache));
    assert_eq!(cold.stats.recorded, 4);
    // Warm, every triple replays its recording carrying its 3 seeds.
    let one = run_trace_backed(&spec, 1, Some(&cache));
    let eight = run_trace_backed(&spec, 8, Some(&cache));
    let _ = std::fs::remove_dir_all(&cache);
    assert_eq!((one.stats.cache_loads, one.stats.recorded), (4, 0));
    assert_eq!(one.stats.replayed + one.stats.fallbacks, 12);
    assert_eq!(one.report.to_json(), eight.report.to_json());
    assert_eq!(one.report.to_json(), cold.report.to_json());
    assert_eq!(one.stats, eight.stats);
}

#[test]
fn one_trace_cache_serves_grids_samplers_and_forensics() {
    let spec = secded_spec();
    let cache = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("trace-cache-engines");
    let _ = std::fs::remove_dir_all(&cache);
    let warmed = run_trace_backed(&spec, 2, Some(&cache));
    assert_eq!(warmed.stats.recorded, 4);
    let run = |spec: &CampaignSpec, mode: ExecutionMode| {
        let validated = spec::CampaignSpec::from_grid(spec, mode)
            .validate()
            .expect("a valid spec");
        Campaign::new(validated).run_forensic(2, &Obs::disabled())
    };

    // A sampled campaign over the same axes loads every stratum from the
    // grid's recordings and prints the bytes of a cold run.
    let mut axes = spec.clone();
    axes.fault_seeds.clear();
    let mut plan = SamplingPlan::new(8);
    plan.min_samples = 4;
    plan.batch = 4;
    let cold = SampleExecution::TraceBacked { cache_dir: None };
    let cold = run_sampled(&axes, &plan, 2, &cold);
    let execution = SampleExecution::TraceBacked {
        cache_dir: Some(cache.clone()),
    };
    let (warm, _) = run(&axes, ExecutionMode::Sampled { plan, execution });
    let stats = warm.trace_stats().expect("trace-backed counters");
    assert_eq!(stats.cache_loads, stratum_count(&axes) as u64);
    assert_eq!(stats.recorded, 0, "every stratum came from the cache");
    assert_eq!(warm.to_json(), cold.to_json());

    // Forensics on the warm cache: the full-simulation document.
    let (_, full) = run_full_forensic(&spec, 2);
    let full = full.expect("full simulation traces lifecycles");
    let mode = ExecutionMode::TraceBacked {
        cache_dir: Some(cache.clone()),
    };
    let (outcome, traced) = run(&spec, mode);
    let stats = outcome.trace_stats().expect("trace-backed counters");
    assert_eq!((stats.cache_loads, stats.recorded), (4, 0));
    let traced = traced.expect("trace-backed grids trace lifecycles");
    assert!(
        full.cells.iter().any(|cell| !cell.records.is_empty()),
        "the faulty cells carry lifecycle records"
    );
    assert_eq!(traced.to_json(), full.to_json());

    let _ = std::fs::remove_dir_all(&cache);
}
