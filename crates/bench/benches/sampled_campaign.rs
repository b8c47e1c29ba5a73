//! Sampled vs exhaustive fault campaigns at matched statistical precision.
//!
//! The exhaustive grid spends one full faulty run per (cell × seed) no
//! matter how quickly the estimate stabilises; the stratified sampler
//! stops each stratum as soon as its Wilson interval is tight enough.  At
//! matched per-stratum precision (same budget ceiling, so the exhaustive
//! grid is the sampler's worst case), the sampler's win is exactly the
//! samples it did *not* have to draw — this bench measures that win in
//! wall-clock on the kernel suite and prints the achieved sample counts
//! and interval widths next to it.

use criterion::{criterion_group, criterion_main, Criterion};
use laec_bench::{run_full, run_sampled};
use laec_core::campaign::{CampaignSpec, PlatformVariant, WorkloadSet};
use laec_core::sampling::{SampleExecution, SamplingPlan};
use laec_pipeline::EccScheme;
use laec_workloads::GeneratorConfig;
use std::hint::black_box;
use std::time::Instant;

/// Seeds per cell of the exhaustive grid == the sampler's per-stratum
/// budget: both estimators get at most the same number of faulty runs per
/// stratum, so whatever the sampler saves comes purely from early
/// stopping at the target precision.
const BUDGET: u64 = 64;

fn spec() -> CampaignSpec {
    let mut spec = CampaignSpec::smoke();
    spec.workloads = WorkloadSet::Named(vec![
        "vector_sum".into(),
        "fir_filter".into(),
        "pointer_chase".into(),
    ]);
    spec.generator = GeneratorConfig::smoke();
    spec.schemes = vec![EccScheme::NoEcc, EccScheme::Laec, EccScheme::ExtraStage];
    spec.platforms = vec![PlatformVariant::WriteBack];
    spec.fault_interval = 1_000;
    spec
}

fn plan() -> SamplingPlan {
    let mut plan = SamplingPlan::new(BUDGET);
    plan.min_samples = 16;
    plan.batch = 16;
    plan
}

fn report_matched_precision_speedup() {
    let mut exhaustive_spec = spec();
    exhaustive_spec.fault_seeds = (1..=BUDGET).collect();
    let sampled_spec = spec();
    let sampled_plan = plan();

    let runs = 3u32;
    let start = Instant::now();
    for _ in 0..runs {
        black_box(run_full(&exhaustive_spec, 1));
    }
    let exhaustive = start.elapsed();

    let start = Instant::now();
    let mut last = None;
    for _ in 0..runs {
        last = Some(run_sampled(
            &sampled_spec,
            &sampled_plan,
            1,
            &SampleExecution::FullSim,
        ));
    }
    let sampled_time = start.elapsed();
    let report = last.expect("ran");

    let strata = report.strata.len() as u64;
    let widest = report
        .strata
        .iter()
        .map(|s| s.ci_high - s.ci_low)
        .fold(0.0f64, f64::max);
    println!(
        "sampled campaign: {:?} vs exhaustive {}-seed grid {:?} -> {:.2}x at matched \
         precision ({} samples across {} strata vs {} exhaustive runs; {}/{} converged, \
         widest CI {:.3})",
        sampled_time / runs,
        BUDGET,
        exhaustive / runs,
        exhaustive.as_secs_f64() / sampled_time.as_secs_f64(),
        report.total_samples,
        strata,
        strata * BUDGET,
        report.converged_strata,
        strata,
        widest,
    );
}

fn bench(c: &mut Criterion) {
    report_matched_precision_speedup();
    let sampled_spec = spec();
    let sampled_plan = plan();
    let mut group = c.benchmark_group("sampled_campaign");
    group.sample_size(10);
    group.bench_function("kernels_3x3_budget64", |b| {
        b.iter(|| {
            run_sampled(
                black_box(&sampled_spec),
                &sampled_plan,
                0,
                &SampleExecution::FullSim,
            )
        })
    });
    group.bench_function("kernels_3x3_budget64_trace_backed", |b| {
        b.iter(|| {
            run_sampled(
                black_box(&sampled_spec),
                &sampled_plan,
                0,
                &SampleExecution::TraceBacked { cache_dir: None },
            )
        })
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
