//! The one cell runner, and the convenience layer over it for running
//! workloads under the different schemes.
//!
//! `run_cell` builds the pipelines of every campaign cell — full,
//! forensic and recorded cells, and the sampler's baselines and fallbacks —
//! on the uniprocessor or on an N-core system.  An N-core cell runs the
//! observed workload on core 0 (which alone carries the cell's fault
//! campaign) and read-only background-traffic kernels on the other cores.
//! The background cores contend for the shared bus and L2 through their
//! own coherent DL1s but never write a byte, so the observed core's
//! architectural results — and therefore the campaign's cross-scheme
//! equivalence checks — are untouched.

use laec_mem::ProtocolKind;
use laec_pipeline::{EccScheme, PipelineConfig, SimResult, Simulator};
use laec_smp::{SmpSystem, StopPolicy};
use laec_trace::TraceRecorder;
use laec_workloads::{background_traffic, Workload};

use crate::campaign::PlatformVariant;

/// Base address of the first background core's private streaming region —
/// far above every workload data region (inputs/outputs live below 1 MiB).
const BACKGROUND_BASE: u32 = 0x0200_0000;
/// Address distance between consecutive background cores' regions.
const BACKGROUND_STRIDE: u32 = 0x0010_0000;
/// Lines each background core streams over: 4096 × 32 B = 128 KiB per
/// core — far past the 16 KiB DL1, so the stream misses continuously and
/// keeps the shared bus and L2 busy.
const BACKGROUND_LINES: u32 = 4096;

/// What a cell run observes besides its result.
#[derive(Debug, Default)]
pub(crate) struct Hooks {
    /// Turns on per-fault lifecycle forensics in the hierarchy; the records,
    /// taken once after every core drained, come back in
    /// [`SimResult::forensics`].
    pub forensics: bool,
    /// Records the run into this recorder, which [`run_cell`] hands back
    /// after the end-of-run drain.  Uniprocessor cells only: a recording
    /// captures one core's access stream.
    pub recorder: Option<TraceRecorder>,
}

/// Runs one campaign cell: `workload` under `config`, which already
/// carries the platform's overrides and the cell's fault campaign.
/// `platform` picks the pipelines: [`PlatformVariant::Smp`] runs its core
/// count under the N-core scheduler (even one core), coherent under
/// `protocol`, until core 0 halts, and returns core 0's result with the
/// system-wide final memory checksum; every other platform runs the
/// uniprocessor.
///
/// # Panics
///
/// Panics if an N-core cell is handed a recorder.
pub(crate) fn run_cell(
    workload: &Workload,
    config: PipelineConfig,
    platform: PlatformVariant,
    protocol: ProtocolKind,
    hooks: Hooks,
) -> (SimResult, Option<TraceRecorder>) {
    let PlatformVariant::Smp(cores) = platform else {
        let mut simulator = Simulator::new(workload.program.clone(), config);
        if hooks.forensics {
            simulator.enable_forensics();
        }
        if let Some(recorder) = hooks.recorder {
            simulator.attach_recorder(recorder);
        }
        let result = simulator.execute();
        return (result, simulator.take_recorder());
    };
    assert!(
        hooks.recorder.is_none(),
        "a recording captures one core's access stream; {platform} cells cannot be recorded"
    );
    let mut programs = vec![workload.program.clone()];
    let mut configs = vec![config.clone()];
    for background in 1..cores {
        programs.push(background_traffic(
            BACKGROUND_BASE + (background - 1) * BACKGROUND_STRIDE,
            BACKGROUND_LINES,
        ));
        // Same pipeline/hierarchy, but no fault campaign and no chronogram:
        // only the observed core is measured or struck.
        configs.push(PipelineConfig {
            fault_campaign: None,
            trace_instructions: 0,
            ..config.clone()
        });
    }
    let mut system = SmpSystem::with_protocol(programs, configs, protocol);
    if hooks.forensics {
        system.enable_forensics();
    }
    let run = system.run(StopPolicy::ObservedCoreHalts);
    // laec-lint: allow(panic-in-library) -- `SmpSystem::with_protocol` is
    // handed at least one program (the observed core), so `run.cores` is
    // never empty.
    let mut result = run.cores.into_iter().next().expect("core 0 always exists");
    // The per-core checksum snapshot was taken when core 0 drained; the
    // system-wide value is the authoritative final state.  Background cores
    // are read-only, so the two agree — this keeps it true by construction.
    result.memory_checksum = run.final_checksum;
    result.forensics = run.forensics;
    (result, None)
}

/// Runs one cell's workload on core 0 of a `cores`-core system coherent
/// under `protocol`, with read-only background traffic on the remaining
/// cores, until core 0 halts.  Returns core 0's result with the
/// system-wide final memory checksum.
///
/// # Panics
///
/// Panics if `cores == 0`.
#[must_use]
pub fn run_observed_core(
    workload: &Workload,
    config: PipelineConfig,
    cores: u32,
    protocol: ProtocolKind,
) -> SimResult {
    assert!(cores >= 1, "need at least the observed core");
    let platform = PlatformVariant::Smp(cores);
    run_cell(workload, config, platform, protocol, Hooks::default()).0
}

/// Result of running one workload under every Figure 8 scheme.
#[derive(Debug, Clone)]
pub struct SchemeComparison {
    /// Workload name.
    pub name: String,
    /// Result under the ideal no-ECC baseline.
    pub no_ecc: SimResult,
    /// Result under the Extra-Cycle scheme.
    pub extra_cycle: SimResult,
    /// Result under the Extra-Stage scheme.
    pub extra_stage: SimResult,
    /// Result under LAEC.
    pub laec: SimResult,
}

impl SchemeComparison {
    /// Execution-time increase of `scheme` relative to the no-ECC baseline
    /// (1.0 means no overhead) — the y-axis of the paper's Fig. 8.
    #[must_use]
    pub fn slowdown(&self, scheme: EccScheme) -> f64 {
        let result = match scheme {
            EccScheme::NoEcc => &self.no_ecc,
            EccScheme::ExtraCycle => &self.extra_cycle,
            EccScheme::ExtraStage => &self.extra_stage,
            EccScheme::Laec | EccScheme::SpeculateFlush { .. } => &self.laec,
        };
        result.stats.slowdown_versus(&self.no_ecc.stats)
    }

    /// `true` if all four schemes produced identical architectural state.
    #[must_use]
    pub fn architecturally_equivalent(&self) -> bool {
        let reference = (&self.no_ecc.registers, self.no_ecc.memory_checksum);
        [&self.extra_cycle, &self.extra_stage, &self.laec]
            .iter()
            .all(|r| (&r.registers, r.memory_checksum) == reference)
    }
}

/// Runs one workload under one scheme with the default platform.
#[must_use]
pub fn run_scheme(workload: &Workload, scheme: EccScheme) -> SimResult {
    run_with_config(workload, PipelineConfig::for_scheme(scheme))
}

/// Runs one workload on the uniprocessor under an explicit configuration.
#[must_use]
pub fn run_with_config(workload: &Workload, config: PipelineConfig) -> SimResult {
    // Any single-core platform picks the uniprocessor; `config` decides
    // the hierarchy.
    let (platform, hooks) = (PlatformVariant::WriteBack, Hooks::default());
    run_cell(workload, config, platform, ProtocolKind::Mesi, hooks).0
}

/// Runs one workload under the four Figure 8 schemes.
#[must_use]
pub fn compare_schemes(workload: &Workload) -> SchemeComparison {
    SchemeComparison {
        name: workload.name.clone(),
        no_ecc: run_scheme(workload, EccScheme::NoEcc),
        extra_cycle: run_scheme(workload, EccScheme::ExtraCycle),
        extra_stage: run_scheme(workload, EccScheme::ExtraStage),
        laec: run_scheme(workload, EccScheme::Laec),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{execute_full, CampaignSpec, WorkloadSet};
    use laec_workloads::{kernel_suite, GeneratorConfig};

    #[test]
    fn kernel_comparison_is_equivalent_and_ordered() {
        let workload = kernel_suite()
            .into_iter()
            .find(|w| w.name == "vector_sum")
            .unwrap();
        let comparison = compare_schemes(&workload);
        assert!(comparison.architecturally_equivalent());
        assert!(comparison.slowdown(EccScheme::NoEcc) == 1.0);
        assert!(comparison.slowdown(EccScheme::Laec) <= comparison.slowdown(EccScheme::ExtraStage));
        // vector_sum's only load has a distance-1 consumer, for which
        // Extra-Stage and Extra-Cycle stall identically (Figs. 3 vs 4); allow
        // the one-cycle pipeline-drain difference of the longer pipeline.
        assert!(
            comparison.slowdown(EccScheme::ExtraStage)
                <= comparison.slowdown(EccScheme::ExtraCycle) + 0.01
        );
    }

    #[test]
    fn eembc_workload_runs_under_explicit_config() {
        let workload = laec_workloads::eembc_workload("cacheb", &GeneratorConfig::smoke()).unwrap();
        let result = run_with_config(&workload, PipelineConfig::laec().with_trace(8));
        assert!(result.stats.instructions > 500);
        assert_eq!(result.chronogram.len(), 8);
    }

    #[test]
    fn smp_platform_slows_the_observed_core_down() {
        let workload = laec_workloads::kernel_suite()
            .into_iter()
            .find(|w| w.name == "cache_buster")
            .expect("miss-heavy kernel");
        let config = PipelineConfig::laec();
        let alone = run_observed_core(&workload, config.clone(), 1, ProtocolKind::Mesi);
        let contended = run_observed_core(&workload, config, 4, ProtocolKind::Mesi);
        assert_eq!(
            alone.registers, contended.registers,
            "background traffic never perturbs architecture"
        );
        assert!(
            contended.stats.cycles > alone.stats.cycles,
            "3 streaming cores must cost bus/L2 bandwidth ({} vs {})",
            contended.stats.cycles,
            alone.stats.cycles
        );
        assert!(contended.stats.mem.snoop_lookups > 0);
    }

    #[test]
    fn smp_campaign_reports_are_thread_count_invariant() {
        let mut spec = CampaignSpec::smoke();
        spec.workloads = WorkloadSet::Named(vec!["vector_sum".into()]);
        spec.schemes = vec![EccScheme::NoEcc, EccScheme::Laec];
        spec.platforms = vec![PlatformVariant::smp(2)];
        spec.fault_seeds = vec![7];
        spec.fault_interval = 500;
        let one = execute_full(&spec, 1, &laec_obs::Obs::disabled());
        let four = execute_full(&spec, 4, &laec_obs::Obs::disabled());
        assert_eq!(one.to_json(), four.to_json());
        assert!(one.architecturally_equivalent());
        assert_eq!(one.platforms, vec!["smp2"]);
    }
}
