//! Trace capture & replay vs full simulation — the throughput claim of the
//! `laec_trace` subsystem: a fault campaign with N seeds per cell costs one
//! recorded simulation plus N cheap replays instead of N + 1 full
//! simulations, while producing a byte-identical report.

use criterion::{criterion_group, criterion_main, Criterion};
use laec_bench::{bench_shape, report_shape, run_full, run_trace_backed};
use laec_core::campaign::{CampaignSpec, PlatformVariant, WorkloadSet};
use laec_pipeline::EccScheme;
use std::hint::black_box;
use std::time::Instant;

/// The measured grid: EEMBC-like workloads under the two SEC-DED schemes
/// with a 16-seed fault axis — the sweet spot of trace replay (SECDED
/// absorbs sparse strikes, so nearly every faulty cell replays).
fn campaign_spec() -> CampaignSpec {
    let mut spec = CampaignSpec::paper_grid();
    spec.workloads = WorkloadSet::Named(vec![
        "a2time".into(),
        "cacheb".into(),
        "matrix".into(),
        "aifirf".into(),
    ]);
    spec.generator = bench_shape();
    spec.schemes = vec![EccScheme::Laec, EccScheme::ExtraStage];
    spec.platforms = vec![PlatformVariant::WriteBack];
    spec.fault_seeds = (1..=16).collect();
    spec.fault_interval = 5_000;
    spec
}

fn report_speedup(spec: &CampaignSpec) {
    let runs = 3;
    let start = Instant::now();
    for _ in 0..runs {
        black_box(run_full(spec, 1));
    }
    let full = start.elapsed();
    let start = Instant::now();
    let mut traced_stats = None;
    for _ in 0..runs {
        let traced = run_trace_backed(spec, 1, None);
        traced_stats = Some(traced.stats);
        black_box(traced);
    }
    let traced = start.elapsed();
    let stats = traced_stats.expect("ran");
    println!(
        "trace-backed campaign: {:?} vs full simulation {:?} -> {:.2}x throughput \
         ({} cells; {})",
        traced / runs,
        full / runs,
        full.as_secs_f64() / traced.as_secs_f64(),
        (1 + spec.fault_seeds.len()) * 8,
        stats,
    );
}

fn bench(c: &mut Criterion) {
    // The printed reproduction uses the paper's evaluation workload size so
    // the speedup number reflects real campaigns; the measured loops use the
    // small bench shape to keep `cargo bench` fast.
    let mut full_size = campaign_spec();
    full_size.generator = report_shape();
    report_speedup(&full_size);
    let spec = campaign_spec();
    let mut group = c.benchmark_group("trace_replay");
    group.sample_size(10);
    group.bench_function("full_sim_campaign", |b| {
        b.iter(|| black_box(run_full(&spec, 1).total_jobs))
    });
    group.bench_function("trace_backed_campaign", |b| {
        b.iter(|| black_box(run_trace_backed(&spec, 1, None).report.total_jobs))
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
