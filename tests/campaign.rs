//! Integration tests for the parallel campaign engine: determinism across
//! worker counts (the report must be byte-identical), and architectural
//! equivalence across every cell of a multi-platform grid.

use laec::core::campaign::{CampaignSpec, PlatformVariant, WorkloadSet};
use laec::pipeline::EccScheme;
use laec::workloads::GeneratorConfig;

use laec_bench::run_full;

fn test_spec() -> CampaignSpec {
    CampaignSpec {
        workloads: WorkloadSet::Named(vec![
            "vector_sum".to_string(),
            "fir_filter".to_string(),
            "pointer_chase".to_string(),
            "a2time".to_string(),
            "cacheb".to_string(),
        ]),
        generator: GeneratorConfig::smoke(),
        schemes: vec![
            EccScheme::NoEcc,
            EccScheme::ExtraCycle,
            EccScheme::ExtraStage,
            EccScheme::Laec,
            EccScheme::SpeculateFlush { flush_penalty: 4 },
        ],
        platforms: vec![
            PlatformVariant::WriteBack,
            PlatformVariant::WriteThrough,
            PlatformVariant::ContendedBus(8),
        ],
        fault_seeds: vec![11, 22],
        fault_interval: 500,
        fault_target: laec::mem::FaultTarget::Data,
        protocol: laec::mem::ProtocolKind::Mesi,
        seed: 0x5EED_1AEC,
    }
}

/// A parallel run with N threads produces byte-identical `CampaignReport`
/// JSON to a serial run with the same seed — determinism must not depend on
/// scheduling.
#[test]
fn parallel_report_is_byte_identical_to_serial() {
    let spec = test_spec();
    let serial = run_full(&spec, 1);
    for threads in [2, 4, 8] {
        let parallel = run_full(&spec, threads);
        assert_eq!(
            parallel, serial,
            "{threads}-thread report diverged structurally"
        );
        assert_eq!(
            parallel.to_json(),
            serial.to_json(),
            "{threads}-thread JSON not byte-identical"
        );
    }
}

/// `architecturally_equivalent()` holds across every grid cell: the schemes
/// may only change timing, on every platform in the grid.
#[test]
fn equivalence_holds_across_every_grid_cell() {
    let spec = test_spec();
    let report = run_full(&spec, 4);
    assert_eq!(
        report.equivalence.len(),
        5 * 3,
        "one equivalence verdict per workload x platform group"
    );
    for check in &report.equivalence {
        assert!(
            check.equivalent,
            "{} on {} diverged",
            check.workload, check.platform
        );
    }
    assert!(report.architecturally_equivalent());
}

/// The grid covers every axis combination and the fault-free no-ECC cell of
/// each group anchors the slowdown at exactly 1.0.
#[test]
fn grid_shape_and_baselines() {
    let spec = test_spec();
    let report = run_full(&spec, 4);
    // 5 workloads x 3 platforms x 5 schemes x (1 fault-free + 2 faulty).
    assert_eq!(report.total_jobs, 5 * 3 * 5 * 3);
    for cell in report
        .cells
        .iter()
        .filter(|c| c.scheme == "no-ecc" && c.fault_seed.is_none())
    {
        assert_eq!(
            cell.slowdown,
            Some(1.0),
            "{} on {}",
            cell.workload,
            cell.platform
        );
    }
    // LAEC is bounded by Extra-Stage on the paper platform (§III.E), cell by cell.
    for row in report.slowdowns.rows.iter().filter(|r| r.platform == "wb") {
        let index = |label: &str| {
            report
                .slowdowns
                .schemes
                .iter()
                .position(|s| s == label)
                .expect("scheme in matrix")
        };
        let laec = row.slowdowns[index("laec")].expect("laec slowdown");
        let extra_stage = row.slowdowns[index("extra-stage")].expect("extra-stage slowdown");
        assert!(
            laec <= extra_stage + 1e-9,
            "{}: {laec} vs {extra_stage}",
            row.workload
        );
    }
}
