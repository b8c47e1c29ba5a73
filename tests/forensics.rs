//! The fault-forensics layer's determinism contract:
//!
//! 1. **Zero perturbation** — a campaign run with forensics enabled
//!    produces byte-identical report JSON (and rendered text) to the same
//!    campaign run plain: the lifecycle hooks only observe.
//! 2. **Thread-count identity** — the forensics document is byte-identical
//!    for any worker-thread count, because every record is stamped with
//!    simulation cycles and sorted canonically per cell.
//! 3. **Cross-engine identity** — full simulation and trace-backed replay
//!    produce byte-identical forensics documents on the same spec: the
//!    replay re-issues the recorded (event, cycle) stream, so every strike,
//!    activation and outcome lands on the same cycle.
//! 4. **Schema** — the Chrome-trace export is valid JSON in the trace-event
//!    format, and the report's outcome classes track the ECC scheme
//!    (no-ecc cannot correct; LAEC corrects with measurable detection
//!    latency).

use laec::core::spec::ExecutionMode;
use laec::prelude::*;

/// A fault grid that actually activates faults: `fir_filter` re-reads its
/// coefficient and sample windows, so strikes at interval 200 are touched
/// before the run ends (unlike pure streaming kernels, where almost every
/// strike stays latent and is closed as masked).
fn grid_spec(mode: ExecutionMode) -> ValidatedSpec {
    let mut builder = CampaignBuilder::smoke()
        .named_workloads(["fir_filter"])
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

/// An `smp2` fault grid: the observed core carries the strikes while a
/// background core streams through the shared bus and L2 beside it.
fn smp2_spec() -> ValidatedSpec {
    CampaignBuilder::smoke()
        .named_workloads(["vector_sum", "fir_filter", "cache_buster"])
        .schemes([EccScheme::NoEcc, EccScheme::Laec])
        .platforms([PlatformVariant::smp(2)])
        .fault_seeds([1, 2])
        .fault_interval(200)
        .validate()
        .expect("valid smp2 spec")
}

#[test]
fn forensic_run_report_is_byte_identical_to_plain_run() {
    for spec in [grid_spec(ExecutionMode::Full), smp2_spec()] {
        let plain = Campaign::new(spec.clone()).run(2);
        let (forensic, report) = Campaign::new(spec).run_forensic(2, &Obs::disabled());
        assert_eq!(plain.to_json(), forensic.to_json());
        assert_eq!(plain.render(), forensic.render());
        let report = report.expect("the full engine traces lifecycles");
        assert!(report.total_faults() > 0);
        // One record per strike the cells report, on every platform.
        let cells = &forensic.grid().expect("a grid report").cells;
        let injected: u64 = cells.iter().map(|cell| cell.faults_injected).sum();
        assert_eq!(report.total_faults(), injected);
    }
}

#[test]
fn forensics_document_is_thread_count_invariant() {
    for spec in [grid_spec(ExecutionMode::Full), smp2_spec()] {
        let (_, one) = Campaign::new(spec.clone()).run_forensic(1, &Obs::disabled());
        let (_, eight) = Campaign::new(spec).run_forensic(8, &Obs::disabled());
        let (one, eight) = (one.expect("forensics"), eight.expect("forensics"));
        assert_eq!(one.to_json(), eight.to_json());
        assert_eq!(one.render(true), eight.render(true));
        assert_eq!(one.chrome_trace_json(), eight.chrome_trace_json());
    }
}

#[test]
fn forensics_document_is_engine_invariant() {
    let (_, full) = Campaign::new(grid_spec(ExecutionMode::Full)).run_forensic(2, &Obs::disabled());
    // Trace-backed on a warm trace cache: each triple's fault-free cell is
    // replayed, and every faulty cell simulated with its lifecycle traced.
    let cache = std::path::PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("forensics-cache");
    let _ = std::fs::remove_dir_all(&cache);
    let mode = || ExecutionMode::TraceBacked {
        cache_dir: Some(cache.clone()),
    };
    let _ = Campaign::new(grid_spec(mode())).run(2);
    let (outcome, traced) = Campaign::new(grid_spec(mode())).run_forensic(2, &Obs::disabled());
    let _ = std::fs::remove_dir_all(&cache);
    let stats = outcome.trace_stats().expect("trace-backed counters");
    assert_eq!((stats.cache_loads, stats.recorded), (2, 0), "{stats}");
    let (full, traced) = (full.expect("forensics"), traced.expect("forensics"));
    assert!(full.total_faults() > 0);
    assert_eq!(full.to_json(), traced.to_json());
}

#[test]
fn outcome_classes_track_the_scheme() {
    let (_, report) =
        Campaign::new(grid_spec(ExecutionMode::Full)).run_forensic(2, &Obs::disabled());
    let report = report.expect("forensics");
    for cell in &report.cells {
        for record in &cell.records {
            // An activation always happens at or after the strike, and the
            // record's latency is exactly the distance.
            if let (Some(cycle), Some(latency)) = (record.activation_cycle, record.latency) {
                assert!(cycle >= record.strike_cycle);
                assert_eq!(latency, cycle - record.strike_cycle);
                assert!(record.activation.is_some());
            } else {
                // Never-touched strikes close as masked with no activation.
                assert_eq!(record.outcome, "masked");
                assert!(record.activation.is_none());
            }
            if cell.scheme == "no-ecc" {
                // Without a code there is nothing to correct or detect.
                assert_ne!(record.outcome, "corrected");
                assert_ne!(record.outcome, "detected");
            }
        }
    }
    // LAEC's SEC-DED corrects activated single-bit strikes...
    let corrected: u64 = report
        .cells
        .iter()
        .filter(|c| c.scheme == "laec")
        .flat_map(|c| c.records.iter())
        .filter(|r| r.outcome == "corrected")
        .count() as u64;
    assert!(corrected > 0, "no corrected lifecycles under laec");
    // ...and no-ecc lets some of the same activations corrupt results.
    assert!(report
        .cells
        .iter()
        .filter(|c| c.scheme == "no-ecc")
        .flat_map(|c| c.records.iter())
        .any(|r| r.outcome == "sdc"));
    // The detection-latency histogram counts exactly the flagged records.
    let flagged: u64 = report
        .detection_latency_histogram()
        .iter()
        .map(|(_, count)| count)
        .sum();
    let detected_or_corrected = report
        .outcome_totals()
        .iter()
        .filter(|(label, _)| *label == "corrected" || *label == "detected")
        .map(|(_, count)| *count)
        .sum::<u64>();
    assert_eq!(flagged, detected_or_corrected);
}

#[test]
fn chrome_trace_export_is_schema_valid() {
    let (_, report) =
        Campaign::new(grid_spec(ExecutionMode::Full)).run_forensic(2, &Obs::disabled());
    let report = report.expect("forensics");
    let value = serde_json::parse(&report.chrome_trace_json()).expect("valid JSON");
    let events = value
        .get("traceEvents")
        .and_then(|v| v.as_array())
        .expect("traceEvents array");
    assert!(!events.is_empty());
    let mut spans = 0u64;
    for event in events {
        let ph = event
            .get("ph")
            .and_then(|v| v.as_str())
            .expect("every event has a phase");
        assert!(event.get("name").and_then(|v| v.as_str()).is_some());
        assert!(event.get("pid").and_then(|v| v.as_u64()).is_some());
        match ph {
            "X" => {
                spans += 1;
                assert!(event.get("ts").and_then(|v| v.as_u64()).is_some());
                let dur = event.get("dur").and_then(|v| v.as_u64()).expect("dur");
                assert!(dur >= 1, "spans are clamped to visible width");
            }
            "M" | "i" | "s" | "f" => {}
            other => panic!("unexpected phase {other}"),
        }
    }
    // One span per cell plus one per activated fault.
    assert_eq!(spans, report.cells.len() as u64 + report.activated());
}

#[test]
fn metrics_dump_carries_the_forensics_sections() {
    let obs = Obs::enabled();
    let (_, report) = Campaign::new(grid_spec(ExecutionMode::Full)).run_forensic(2, &obs);
    let report = report.expect("forensics");
    let dump = obs.dump();
    assert_eq!(dump.counters["forensics.faults"], report.total_faults());
    assert_eq!(dump.counters["forensics.activated"], report.activated());
    assert_eq!(
        dump.histograms["forensics.outcomes"].total(),
        report.total_faults()
    );
    assert_eq!(
        dump.histograms["forensics.outcomes_by_axis"].total(),
        report.total_faults()
    );
    assert_eq!(
        dump.histograms["forensics.detection_latency_cycles"].total(),
        report
            .detection_latency_histogram()
            .iter()
            .map(|(_, c)| c)
            .sum::<u64>()
    );
}

#[test]
fn forensics_incapable_engines_return_none() {
    let spec = CampaignBuilder::smoke()
        .named_workloads(["vector_sum"])
        .schemes([EccScheme::Laec])
        .sampled(16)
        .batch(8)
        .min_samples(8)
        .validate()
        .expect("valid sampled spec");
    let (outcome, forensics) = Campaign::new(spec).run_forensic(2, &Obs::disabled());
    assert!(outcome.sampled().is_some());
    assert!(forensics.is_none());
}
