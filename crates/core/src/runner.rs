//! The one cell runner, the cell functions every campaign engine calls,
//! and the convenience layer over them for running workloads under the
//! different schemes.
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
//!
//! A grid is a list of workload × platform × scheme triples (`grid_triples`,
//! in grid order); the grid executor and the sampler both run a triple
//! through the same two cell functions (`Cells::fault_free` and
//! `Cells::faulty`): one fault-free cell (simulated, or recorded or loaded
//! from the trace cache), then faulty cells that replay that recording,
//! fall back to full simulation when the replay diverges, or are simulated
//! when there is no recording.

use laec_mem::{CellForensics, FaultCampaignConfig, ProtocolKind};
use laec_obs::{Obs, Phase};
use laec_pipeline::{EccScheme, PipelineConfig, SimResult, Simulator};
use laec_smp::{SmpSystem, StopPolicy};
use laec_trace::{Divergence, Trace, TraceRecorder};
use laec_workloads::{background_traffic, Workload};

use crate::campaign::{cell_from_result, CampaignCell, CampaignSpec, PlatformVariant};
use crate::sampling::SampleExecution;
use crate::trace_backed::{obtain_recording, replay_cell_forensic};

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

// ---------------------------------------------------------------------------
// Grid cells
// ---------------------------------------------------------------------------

/// One workload × platform × scheme triple of a campaign grid, as indices
/// into the spec's axes: the cells that share one fault-free run (and, in
/// trace-backed execution, one recording), and one stratum of a sampled
/// campaign.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Triple {
    pub workload: usize,
    pub platform: usize,
    pub scheme: usize,
}

/// Every triple of a grid over `workloads` workloads and `spec`'s platform
/// and scheme axes, in grid order: workload-major, then platform, then
/// scheme.
pub(crate) fn grid_triples(spec: &CampaignSpec, workloads: usize) -> Vec<Triple> {
    let mut triples = Vec::with_capacity(workloads * spec.platforms.len() * spec.schemes.len());
    for workload in 0..workloads {
        for platform in 0..spec.platforms.len() {
            for scheme in 0..spec.schemes.len() {
                triples.push(Triple {
                    workload,
                    platform,
                    scheme,
                });
            }
        }
    }
    triples
}

/// The fault-free pipeline configuration of one scheme on one platform.
pub(crate) fn cell_config(scheme: EccScheme, platform: PlatformVariant) -> PipelineConfig {
    platform.apply_config(PipelineConfig::for_scheme(scheme))
}

/// How a triple's fault-free cell was obtained.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Origin {
    /// Simulated in full, without a recorder.
    Simulated,
    /// Simulated in full under a recorder, and written to the trace cache
    /// when there is one.
    Recorded { cache_write_failed: bool },
    /// Rebuilt from a recording in the trace cache.
    CacheHit,
}

impl Origin {
    /// The phase that served the cell.
    pub(crate) fn phase(self) -> Phase {
        match self {
            Origin::Simulated => Phase::FullSim,
            Origin::Recorded { .. } => Phase::TraceRecord,
            Origin::CacheHit => Phase::TraceDecode,
        }
    }
}

/// A triple's fault-free cell.
pub(crate) struct FaultFree {
    pub cell: CampaignCell,
    pub origin: Origin,
    /// The recording the triple's faulty cells replay; `None` under full
    /// simulation.
    pub recording: Option<Trace>,
}

/// How a faulty cell was served.
pub(crate) enum Served {
    /// Simulated in full: there was no recording to replay.
    Simulated,
    /// Replayed from its triple's recording.
    Replayed,
    /// Simulated in full after its replay diverged.
    FellBack(Divergence),
}

impl Served {
    /// The phase that served the cell.
    pub(crate) fn phase(&self) -> Phase {
        match self {
            Served::Simulated => Phase::Inject,
            Served::Replayed => Phase::Replay,
            Served::FellBack(_) => Phase::FullSimFallback,
        }
    }
}

/// One faulty cell, and how it was served.
pub(crate) struct Faulty {
    pub cell: CampaignCell,
    /// Its per-fault lifecycle records (empty unless [`Cells::forensic`]).
    pub forensics: CellForensics,
    pub served: Served,
}

/// What every cell of one campaign shares: the grid, its materialised
/// workload axis, whether faulty cells trace per-fault lifecycles, and the
/// instrumentation their phase spans go to.
pub(crate) struct Cells<'a> {
    pub spec: &'a CampaignSpec,
    pub workloads: &'a [Workload],
    pub forensic: bool,
    pub obs: &'a Obs,
}

impl Cells<'_> {
    /// Runs `triple`'s fault-free cell: simulated under
    /// [`SampleExecution::FullSim`]; otherwise rebuilt from the trace cache
    /// or recorded (see [`obtain_recording`]), and the recording returned
    /// for the triple's faulty cells.
    pub(crate) fn fault_free(&self, triple: Triple, execution: &SampleExecution) -> FaultFree {
        let SampleExecution::TraceBacked { cache_dir } = execution else {
            let _span = self.obs.span(Phase::FullSim);
            return FaultFree {
                cell: self.simulate(triple, None, None).0,
                origin: Origin::Simulated,
                recording: None,
            };
        };
        let (cell, trace, origin) = obtain_recording(
            self.spec,
            &self.workloads[triple.workload],
            self.spec.schemes[triple.scheme],
            self.spec.platforms[triple.platform],
            cache_dir.as_deref(),
            self.obs,
        );
        FaultFree {
            cell,
            origin,
            recording: Some(trace),
        }
    }

    /// Runs one faulty cell of `triple`: single-bit upsets seeded by
    /// `injection_seed` at the spec's interval and target.  It replays
    /// `recording` when there is one and falls back to full simulation on a
    /// [`Divergence`]; without a recording it is simulated.  `fault_seed`
    /// is the cell's fault-axis label.
    pub(crate) fn faulty(
        &self,
        triple: Triple,
        injection_seed: u64,
        fault_seed: Option<u64>,
        recording: Option<&Trace>,
    ) -> Faulty {
        let fault = FaultCampaignConfig::single_bit(injection_seed, self.spec.fault_interval)
            .with_target(self.spec.fault_target);
        let mut served = Served::Simulated;
        if let Some(trace) = recording {
            let replayed = {
                let _span = self.obs.span(Phase::Replay);
                replay_cell_forensic(
                    self.spec,
                    trace,
                    trace.events(),
                    &self.workloads[triple.workload],
                    Some(fault),
                    fault_seed,
                    self.forensic,
                )
            };
            match replayed {
                Ok((cell, forensics)) => {
                    return Faulty {
                        cell,
                        forensics,
                        served: Served::Replayed,
                    }
                }
                Err(divergence) => served = Served::FellBack(divergence),
            }
        }
        let _span = self.obs.span(served.phase());
        let (cell, forensics) = self.simulate(triple, Some(fault), fault_seed);
        Faulty {
            cell,
            forensics,
            served,
        }
    }

    /// Simulates one cell of `triple` in full, under `fault` if given.
    fn simulate(
        &self,
        triple: Triple,
        fault: Option<FaultCampaignConfig>,
        fault_seed: Option<u64>,
    ) -> (CampaignCell, CellForensics) {
        let workload = &self.workloads[triple.workload];
        let scheme = self.spec.schemes[triple.scheme];
        let platform = self.spec.platforms[triple.platform];
        let config = PipelineConfig {
            fault_campaign: fault,
            ..cell_config(scheme, platform)
        };
        // A fault-free cell injects nothing: it has no lifecycles to trace.
        let hooks = Hooks {
            forensics: self.forensic && fault.is_some(),
            recorder: None,
        };
        let (mut result, _) = run_cell(workload, config, platform, self.spec.protocol, hooks);
        let forensics = result.forensics.take().unwrap_or_default();
        let cell = cell_from_result(workload, scheme, platform, fault_seed, &result);
        (cell, forensics)
    }
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
    use crate::campaign::{execute_grid, WorkloadSet};
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
        let full = SampleExecution::FullSim;
        let one = execute_grid(&spec, 1, &full, false, &Obs::disabled()).0;
        let four = execute_grid(&spec, 4, &full, false, &Obs::disabled()).0;
        assert_eq!(one.to_json(), four.to_json());
        assert!(one.architecturally_equivalent());
        assert_eq!(one.platforms, vec!["smp2"]);
    }
}
