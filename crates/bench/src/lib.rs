//! Shared helpers for the Criterion benchmark harness.
//!
//! Each bench target under `benches/` regenerates one table or figure of the
//! paper (printing it once) and then measures a scaled-down version of the
//! underlying computation so `cargo bench` stays fast.  Each target is
//! named after the artefact it regenerates (`fig8_exec_time`,
//! `table2_characterization`, …); `EXPERIMENTS.md` records the numbers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::path::Path;

use laec_core::campaign::CampaignSpec;
use laec_core::sampling::{SampleExecution, SampledReport, SamplingPlan};
use laec_core::{Campaign, CampaignOutcome, CampaignReport, ExecutionMode, TraceBackedStats};
use laec_workloads::GeneratorConfig;

/// The workload shape used inside measured benchmark loops (small, so each
/// Criterion sample stays in the tens of milliseconds).
#[must_use]
pub fn bench_shape() -> GeneratorConfig {
    GeneratorConfig {
        body_instructions: 120,
        iterations: 6,
        seed: 0x1AEC,
    }
}

/// The workload shape used for the one-off printed reproduction (the same
/// shape the integration tests validate against the paper's numbers).
#[must_use]
pub fn report_shape() -> GeneratorConfig {
    GeneratorConfig::evaluation()
}

/// Runs a grid spec through the unified dispatch in the given mode.
#[must_use]
pub fn run_mode(spec: &CampaignSpec, mode: ExecutionMode, threads: usize) -> CampaignOutcome {
    let spec = laec_core::spec::CampaignSpec::from_grid(spec, mode);
    Campaign::new(spec.validate().expect("valid spec")).run(threads)
}

/// Full-simulation mode.
#[must_use]
pub fn run_full(spec: &CampaignSpec, threads: usize) -> CampaignReport {
    run_mode(spec, ExecutionMode::Full, threads)
        .into_grid()
        .expect("grid report")
}

/// A trace-backed campaign's report plus how the trace engine earned it.
#[derive(Debug, Clone, PartialEq)]
pub struct TracedCampaign {
    /// The report — byte-identical to full simulation of the same spec.
    pub report: CampaignReport,
    /// Record and replay counters, with the overlay split of its seeds.
    pub stats: TraceBackedStats,
}

/// Trace-backed mode, with the record/replay counters.
#[must_use]
pub fn run_trace_backed(
    spec: &CampaignSpec,
    threads: usize,
    cache_dir: Option<&Path>,
) -> TracedCampaign {
    let mode = ExecutionMode::TraceBacked {
        cache_dir: cache_dir.map(Path::to_path_buf),
    };
    match run_mode(spec, mode, threads) {
        CampaignOutcome::Grid {
            report,
            trace_stats,
            ..
        } => TracedCampaign {
            report,
            stats: trace_stats.expect("trace-backed counters"),
        },
        CampaignOutcome::Sampled { .. } => unreachable!("trace-backed mode is a grid mode"),
    }
}

/// Full-simulation mode with per-fault lifecycle forensics enabled: the
/// report is byte-identical to [`run_full`]; the second element is the
/// assembled forensics document (see `laec_core::forensics`).
#[must_use]
pub fn run_full_forensic(
    spec: &CampaignSpec,
    threads: usize,
) -> (CampaignReport, Option<laec_core::ForensicsReport>) {
    let spec = laec_core::spec::CampaignSpec::from_grid(spec, ExecutionMode::Full);
    let campaign = Campaign::new(spec.validate().expect("valid spec"));
    let (outcome, forensics) = campaign.run_forensic(threads, &laec_obs::Obs::disabled());
    (outcome.into_grid().expect("grid report"), forensics)
}

/// Sampled (stratified Monte-Carlo) mode.
#[must_use]
pub fn run_sampled(
    spec: &CampaignSpec,
    plan: &SamplingPlan,
    threads: usize,
    execution: &SampleExecution,
) -> SampledReport {
    let mode = ExecutionMode::Sampled {
        plan: *plan,
        execution: execution.clone(),
    };
    run_mode(spec, mode, threads)
        .into_sampled()
        .expect("statistical report")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shapes_are_distinct_and_small_enough() {
        assert!(bench_shape().iterations < report_shape().iterations);
        assert_eq!(bench_shape().seed, report_shape().seed);
    }
}
