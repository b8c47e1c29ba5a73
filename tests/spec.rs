//! The unified campaign API's end-to-end guarantees:
//!
//! 1. **Spec serialization** — the committed `specs/ci_smoke.json` golden
//!    fixture parses to exactly the spec the builder assembles, its run
//!    byte-compares to the programmatically built equivalent, and every
//!    `ExecutionMode` round-trips `to_json` → `from_json` → `==`.
//! 2. **Typed errors** — representative `SpecError` cases assert by
//!    variant, never by error-string match.
//! 3. **Shard/resume** — driving the `Sampler` by hand matches the one-shot
//!    dispatch byte for byte.

use std::path::PathBuf;

use laec::core::sampling::{Sampler, SamplingPlan};
use laec::prelude::*;

const GOLDEN: &str = include_str!("../specs/ci_smoke.json");

/// The flag set CI pairs with the golden fixture
/// (`campaign --smoke --workloads vector_sum,fir_filter --schemes
/// no-ecc,laec --fault-seeds 1,2 --fault-interval 200`).
fn golden_equivalent() -> CampaignSpec {
    CampaignBuilder::smoke()
        .named_workloads(["vector_sum", "fir_filter"])
        .schemes([EccScheme::NoEcc, EccScheme::Laec])
        .fault_seeds([1, 2])
        .fault_interval(200)
        .build()
        .expect("well-formed spec")
}

#[test]
fn golden_fixture_parses_to_the_programmatically_built_spec() {
    let from_file = CampaignSpec::from_json(GOLDEN).expect("committed fixture parses");
    let built = golden_equivalent();
    assert_eq!(from_file, built, "fixture and builder must agree");
    // And serialization is byte-stable: re-dumping the parsed spec
    // reproduces the committed document exactly (modulo the trailing
    // newline the CLI's println appends).
    assert_eq!(format!("{}\n", built.to_json()), GOLDEN);
}

#[test]
fn golden_fixture_run_byte_compares_to_the_built_equivalent() {
    let from_file = Campaign::new(
        CampaignSpec::from_json(GOLDEN)
            .expect("fixture parses")
            .validate()
            .expect("fixture validates"),
    )
    .run(2);
    let built = Campaign::new(golden_equivalent().validate().expect("valid")).run(2);
    assert_eq!(from_file.to_json(), built.to_json());
}

/// One spec per execution mode, each with every mode-specific knob set to
/// a non-default value, so the round-trip exercises the full wire format.
fn specimen_modes() -> Vec<ExecutionMode> {
    let mut plan = SamplingPlan::new(48);
    plan.min_samples = 12;
    plan.batch = 6;
    plan.confidence = 0.99;
    plan.max_rel_error = 0.125;
    vec![
        ExecutionMode::Full,
        ExecutionMode::TraceBacked { cache_dir: None },
        ExecutionMode::TraceBacked {
            cache_dir: Some(PathBuf::from("/tmp/laec-traces")),
        },
        ExecutionMode::Sampled {
            plan,
            execution: SampleExecution::FullSim,
        },
        ExecutionMode::Sampled {
            plan,
            execution: SampleExecution::TraceBacked { cache_dir: None },
        },
        ExecutionMode::Sampled {
            plan,
            execution: SampleExecution::TraceBacked {
                cache_dir: Some(PathBuf::from("/tmp/laec-traces")),
            },
        },
    ]
}

#[test]
fn every_execution_mode_round_trips_through_json() {
    for mode in specimen_modes() {
        let mut spec = golden_equivalent();
        if matches!(mode, ExecutionMode::Sampled { .. }) {
            spec.fault_seeds.clear();
        }
        spec.mode = mode;
        let json = spec.to_json();
        let parsed = CampaignSpec::from_json(&json)
            .unwrap_or_else(|e| panic!("round-trip parse failed for {json}: {e}"));
        assert_eq!(parsed, spec, "round trip must be the identity\n{json}");
    }
}

#[test]
fn spec_errors_assert_by_variant_not_by_message() {
    // Unknown workload: typed, not a panic and not a CLI string.
    assert!(matches!(
        CampaignBuilder::smoke()
            .named_workloads(["vectorsum"])
            .validate(),
        Err(SpecError::UnknownWorkload(name)) if name == "vectorsum"
    ));
    // Mode × platform incompatibility, straight from the engine caps.
    assert!(matches!(
        CampaignBuilder::smoke()
            .platforms([PlatformVariant::smp(4)])
            .sampled(16)
            .validate(),
        Err(SpecError::ModeIncompatiblePlatform { mode: "sampled", platform }) if platform == "smp4"
    ));
    // Sampling knob without sampling mode.
    assert!(matches!(
        CampaignBuilder::smoke().confidence(0.99).validate(),
        Err(SpecError::SamplingKnobWithoutSampling("confidence"))
    ));
    // Fixed fault seeds under sampled execution.
    assert!(matches!(
        CampaignBuilder::smoke()
            .fault_seeds([1])
            .sampled(16)
            .validate(),
        Err(SpecError::FaultSeedsWithSampling)
    ));
    // A version this build does not read.
    let future = GOLDEN.replace("\"version\": 2", "\"version\": 99");
    assert!(matches!(
        CampaignSpec::from_json(&future),
        Err(SpecError::UnsupportedVersion(99))
    ));
    // A typo'd field is caught, not silently ignored.
    let typod = GOLDEN.replace("\"fault_interval\"", "\"fault_intreval\"");
    assert!(matches!(
        CampaignSpec::from_json(&typod),
        Err(SpecError::UnknownField(field)) if field == "fault_intreval"
    ));
}

/// The sharded path the CLI drives (`Sampler` directly, for
/// checkpoint/resume) stays byte-identical to the one-shot dispatch.
#[test]
fn manual_sampler_drive_matches_campaign_run() {
    let mut plan = SamplingPlan::new(24);
    plan.min_samples = 8;
    plan.batch = 8;
    let mut spec = golden_equivalent();
    spec.fault_seeds.clear();
    spec.mode = ExecutionMode::Sampled {
        plan,
        execution: SampleExecution::FullSim,
    };
    let mut sampler = Sampler::new(&spec.grid(), &plan, &SampleExecution::FullSim, 2);
    assert!(sampler.run_rounds(2, None));
    let manual = sampler.report();
    let dispatched = Campaign::new(spec.validate().expect("valid spec")).run(2);
    assert_eq!(dispatched.to_json(), manual.to_json());
}
