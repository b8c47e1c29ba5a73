//! Integration tests for the stratified Monte-Carlo campaign sampler:
//! statistical soundness (the sampled confidence interval brackets the
//! exhaustive grid's estimate), determinism across worker counts, and
//! checkpoint/kill/resume byte-identity.

use laec::core::campaign::{CampaignSpec, WorkloadSet};
use laec::core::sampling::{
    SampleExecution, SampledReport, Sampler, SamplerCheckpoint, SamplingPlan,
};
use laec::pipeline::EccScheme;

use laec_bench::{run_full, run_sampled};

/// A grid small enough to sample exhaustively in-test but harsh enough
/// (dense upsets on a tiny kernel) that failure rates are non-trivial.
fn test_spec() -> CampaignSpec {
    let mut spec = CampaignSpec::smoke();
    spec.workloads = WorkloadSet::Named(vec!["vector_sum".into(), "fir_filter".into()]);
    spec.schemes = vec![EccScheme::NoEcc, EccScheme::Laec];
    spec.fault_interval = 1_000;
    spec
}

fn test_plan() -> SamplingPlan {
    let mut plan = SamplingPlan::new(96);
    plan.min_samples = 16;
    plan.batch = 16;
    plan
}

/// The same run-failure classification the sampler applies, computed from
/// an exhaustive grid report: a faulty cell fails when it lost dirty data
/// or its final architectural state diverged from the fault-free cell of
/// its stratum.
fn exhaustive_failure_rate(
    report: &laec::core::campaign::CampaignReport,
    workload: &str,
    scheme: &str,
) -> f64 {
    let reference = report
        .cells
        .iter()
        .find(|c| c.workload == workload && c.scheme == scheme && c.fault_seed.is_none())
        .expect("fault-free reference cell");
    let faulty: Vec<_> = report
        .cells
        .iter()
        .filter(|c| c.workload == workload && c.scheme == scheme && c.fault_seed.is_some())
        .collect();
    assert!(!faulty.is_empty(), "grid has a fault axis");
    let failures = faulty
        .iter()
        .filter(|c| {
            c.unrecoverable_errors > 0
                || c.registers_fingerprint != reference.registers_fingerprint
                || c.memory_checksum != reference.memory_checksum
        })
        .count();
    failures as f64 / faulty.len() as f64
}

/// The sampled failure-rate interval brackets the exhaustive 16-seed
/// grid's point estimate, stratum by stratum — the sampler estimates the
/// same quantity the grid enumerates.
#[test]
fn sampled_interval_brackets_the_exhaustive_grid_estimate() {
    let mut exhaustive_spec = test_spec();
    exhaustive_spec.fault_seeds = (1..=16).collect();
    let exhaustive = run_full(&exhaustive_spec, 4);

    let sampled = run_sampled(&test_spec(), &test_plan(), 4, &SampleExecution::FullSim);
    assert_eq!(
        sampled.strata.len(),
        4,
        "2 workloads x 1 platform x 2 schemes"
    );
    for stratum in &sampled.strata {
        let grid_rate = exhaustive_failure_rate(&exhaustive, &stratum.workload, &stratum.scheme);
        assert!(
            stratum.ci_low <= grid_rate + 1e-12 && grid_rate <= stratum.ci_high + 1e-12,
            "{} / {}: exhaustive rate {grid_rate} outside sampled CI [{}, {}] \
             ({} failures / {} samples)",
            stratum.workload,
            stratum.scheme,
            stratum.ci_low,
            stratum.ci_high,
            stratum.failures,
            stratum.samples,
        );
        assert!(stratum.samples >= test_plan().min_samples);
        // 1e-12 absorbs float rounding at the p̂ ∈ {0, 1} extremes, where
        // the Wilson bounds land within one ulp of the point estimate.
        assert!(
            stratum.ci_low <= stratum.failure_rate + 1e-12
                && stratum.failure_rate <= stratum.ci_high + 1e-12
        );
    }
}

/// Byte-identical reports for any worker count: the round-based scheduler
/// folds outcomes in sample-index order regardless of which thread ran
/// which job.
#[test]
fn sampled_report_is_byte_identical_across_thread_counts() {
    let spec = test_spec();
    let plan = test_plan();
    let serial = run_sampled(&spec, &plan, 1, &SampleExecution::FullSim);
    for threads in [2, 8] {
        let parallel = run_sampled(&spec, &plan, threads, &SampleExecution::FullSim);
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

/// Trace-backed sampling (replay per sample, full-sim fallback on
/// divergence) produces the identical report.
#[test]
fn trace_backed_sampling_matches_full_simulation_byte_for_byte() {
    let spec = test_spec();
    let plan = test_plan();
    let full = run_sampled(&spec, &plan, 2, &SampleExecution::FullSim);
    let traced = run_sampled(
        &spec,
        &plan,
        2,
        &SampleExecution::TraceBacked { cache_dir: None },
    );
    assert_eq!(traced.to_json(), full.to_json());
}

/// Kill/resume round-trip: interrupt the campaign after every single
/// round, serialize the checkpoint through its binary container, restore
/// into a fresh sampler (different thread count, even), and the final
/// report byte-compares against an uninterrupted run.
#[test]
fn checkpoint_kill_resume_reproduces_the_uninterrupted_report() {
    let spec = test_spec();
    let plan = test_plan();
    let uninterrupted = run_sampled(&spec, &plan, 2, &SampleExecution::FullSim);

    let mut survivor: Option<SampledReport> = None;
    let mut checkpoint_bytes: Option<Vec<u8>> = None;
    for round in 0..64 {
        // "Kill": drop the previous sampler entirely; only the serialized
        // checkpoint survives into this iteration.
        let mut sampler = match &checkpoint_bytes {
            None => Sampler::new(&spec, &plan, &SampleExecution::FullSim, 4),
            Some(bytes) => {
                let checkpoint = SamplerCheckpoint::decode(bytes).expect("checkpoint round-trips");
                Sampler::restore(&spec, &plan, &SampleExecution::FullSim, 1, &checkpoint)
                    .expect("checkpoint matches spec and plan")
            }
        };
        let threads = 1 + (round % 4) as usize;
        if sampler.run_rounds(threads, Some(1)) {
            survivor = Some(sampler.report());
            break;
        }
        checkpoint_bytes = Some(sampler.checkpoint().encode());
    }
    let resumed = survivor.expect("campaign completes within 64 single-round shards");
    assert_eq!(resumed.to_json(), uninterrupted.to_json());
}

/// A paused sampler's report is a valid partial view: fewer samples, wider
/// intervals, nothing converged prematurely.
#[test]
fn partial_reports_are_consistent() {
    let spec = test_spec();
    let plan = test_plan();
    let mut sampler = Sampler::new(&spec, &plan, &SampleExecution::FullSim, 2);
    assert!(!sampler.run_rounds(2, Some(1)));
    let partial = sampler.report();
    assert_eq!(
        partial.total_samples,
        plan.batch * partial.strata.len() as u64
    );
    for stratum in &partial.strata {
        // batch == min_samples here, so the stopping rule IS consulted
        // after round one — it must still decline: a Wilson interval at
        // n = 16 is far wider than the 5 % target at any failure rate.
        assert!(
            !stratum.converged,
            "a 16-sample interval cannot meet the 5% target"
        );
        assert!(stratum.ci_high - stratum.ci_low > 0.0);
    }
}
