//! The one cell runner, the cell functions every campaign engine calls,
//! and the convenience layer over them for running workloads under the
//! different schemes.
//!
//! `run_cell` builds the pipelines of every campaign cell — full,
//! forensic and recorded cells, and the sampler's baselines and samples —
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
//! through the same cell functions.  A triple's fault-free run carries its
//! fault seeds (a grid's fault axis, a sampler round's batch) as seed
//! overlays (`laec_mem::overlay`), whichever driver runs it:
//! `Cells::fault_free` simulates it, or replays it from the trace cache, or
//! records it when the cache or the sampler keeps the recording;
//! `Cells::overlay_run` replays a recording the sampler holds.  On an
//! `smpN` platform the overlays strike core 0, the observed core, as the
//! cell's fault campaign does.  Every seed that stayed neutral is served
//! from that one run (`FaultFree::served`).  A seed that escaped, and every
//! seed of a triple that carries no overlays (metadata targets, forensic
//! runs), goes through `Cells::faulty`, the one per-seed path: a simulation
//! of that seed alone.

use std::fs;
use std::path::Path;

use laec_mem::{
    CellForensics, EscapeReason, FaultCampaignConfig, FaultTarget, OverlayOutcome, ProtocolKind,
    SeedOverlays,
};
use laec_obs::{Obs, Phase};
use laec_pipeline::{EccScheme, PipelineConfig, SimResult, Simulator};
use laec_smp::{SmpSystem, StopPolicy};
use laec_trace::{Divergence, Trace, TraceDetail, TraceRecorder};
use laec_workloads::{background_traffic, Workload};

use crate::campaign::{
    cell_from_result, overlay_cell, CampaignCell, CampaignSpec, PlatformVariant,
};
use crate::sampling::SampleExecution;
use crate::trace_backed::{cell_fingerprint, record_overlaid, replay, trace_file_name};

/// Base address of the first background core's private streaming region —
/// far above every workload data region (inputs/outputs live below 1 MiB).
const BACKGROUND_BASE: u32 = 0x0200_0000;
/// Address distance between consecutive background cores' regions.
const BACKGROUND_STRIDE: u32 = 0x0010_0000;
/// Lines each background core streams over: 4096 × 32 B = 128 KiB per
/// core — far past the 16 KiB DL1, so the stream misses continuously and
/// keeps the shared bus and L2 busy.
const BACKGROUND_LINES: u32 = 4096;

/// What a cell run observes besides its result.  [`run_cell`] hands the
/// hooks back after the end-of-run drain, with the recorder and the
/// overlays it was given.
#[derive(Debug, Default)]
pub(crate) struct Hooks {
    /// Turns on per-fault lifecycle forensics in the hierarchy; the records,
    /// taken once after every core drained, come back in
    /// [`SimResult::forensics`].
    pub forensics: bool,
    /// Records the run into this recorder.  Uniprocessor cells only: a
    /// recording captures one core's access stream.
    pub recorder: Option<TraceRecorder>,
    /// Fault seeds the (fault-free) run carries as overlays on core 0;
    /// their outcomes are settled once every core drained.
    pub overlays: Option<SeedOverlays>,
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
    mut hooks: Hooks,
) -> (SimResult, Hooks) {
    let PlatformVariant::Smp(cores) = platform else {
        let mut simulator = Simulator::new(workload.program.clone(), config);
        if hooks.forensics {
            simulator.enable_forensics();
        }
        if let Some(recorder) = hooks.recorder.take() {
            simulator.attach_recorder(recorder);
        }
        if let Some(overlays) = hooks.overlays.take() {
            simulator.attach_overlays(overlays);
        }
        let result = simulator.execute();
        hooks.recorder = simulator.take_recorder();
        hooks.overlays = simulator.take_overlays();
        return (result, hooks);
    };
    assert!(
        hooks.recorder.is_none(),
        "a recording follows one core's access stream; {platform} cells carry none"
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
    if let Some(overlays) = hooks.overlays.take() {
        system.attach_overlays(overlays);
    }
    let run = system.run(StopPolicy::ObservedCoreHalts);
    hooks.overlays = system.take_overlays();
    // laec-lint: allow(panic-in-library) -- `SmpSystem::with_protocol` is
    // handed at least one program (the observed core), so `run.cores` is
    // never empty.
    let mut result = run.cores.into_iter().next().expect("core 0 always exists");
    // The per-core checksum snapshot was taken when core 0 drained; the
    // system-wide value is the authoritative final state.  Background cores
    // are read-only, so the two agree — this keeps it true by construction.
    result.memory_checksum = run.final_checksum;
    result.forensics = run.forensics;
    (result, hooks)
}

// ---------------------------------------------------------------------------
// Grid cells
// ---------------------------------------------------------------------------

/// One workload × platform × scheme triple of a campaign grid, as indices
/// into the spec's axes: the cells that share one fault-free run, and one
/// stratum of a sampled campaign.
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
    /// Replayed from a recording in the trace cache.
    CacheHit,
    /// Replayed from a recording the caller holds (a sampler stratum's).
    Replayed,
}

impl Origin {
    /// The phase that served the cell.
    pub(crate) fn phase(self) -> Phase {
        match self {
            Origin::Simulated => Phase::FullSim,
            Origin::Recorded { .. } => Phase::TraceRecord,
            Origin::CacheHit => Phase::TraceDecode,
            Origin::Replayed => Phase::Replay,
        }
    }
}

/// A triple's fault-free run.
pub(crate) struct FaultFree {
    pub cell: CampaignCell,
    pub origin: Origin,
    /// The run's recording, when the caller asked to keep it.
    pub recording: Option<Trace>,
    /// What became of each seed the run carried as an overlay, in the
    /// order given; empty when it carried none.
    pub overlaid: Vec<OverlayOutcome>,
}

impl FaultFree {
    /// Settles the overlays a finished run hands back.
    pub(crate) fn new(
        cell: CampaignCell,
        origin: Origin,
        recording: Option<Trace>,
        overlays: Option<SeedOverlays>,
    ) -> Self {
        FaultFree {
            cell,
            origin,
            recording,
            overlaid: overlays.iter().flat_map(SeedOverlays::outcomes).collect(),
        }
    }

    /// The faulty cell (labelled `fault_seed`) of the `index`-th seed the
    /// run carried, built from this run's cell when the seed stayed in its
    /// overlay; otherwise how it must be served: simulated on its own.
    pub(crate) fn served(
        &self,
        index: usize,
        fault_seed: Option<u64>,
    ) -> Result<CampaignCell, Served> {
        match self.overlaid.get(index) {
            Some(OverlayOutcome::Served(report)) => {
                Ok(overlay_cell(&self.cell, fault_seed, report))
            }
            Some(&OverlayOutcome::Escaped(reason)) => Err(Served::Escaped(reason)),
            None => Err(Served::Simulated),
        }
    }
}

/// How a faulty cell was served.
pub(crate) enum Served {
    /// Simulated on its own: its triple's fault-free run carried no
    /// overlays.
    Simulated,
    /// Built from its triple's fault-free run, which carried it as an
    /// overlay.
    Overlay,
    /// Simulated on its own after it escaped its overlay.
    Escaped(EscapeReason),
}

impl Served {
    /// The phase that served the cell.
    pub(crate) fn phase(&self) -> Phase {
        match self {
            Served::Simulated | Served::Escaped(_) => Phase::Inject,
            Served::Overlay => Phase::Overlay,
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
    /// `triple`'s workload, scheme and platform.
    fn coordinates(&self, triple: Triple) -> (&Workload, EccScheme, PlatformVariant) {
        (
            &self.workloads[triple.workload],
            self.spec.schemes[triple.scheme],
            self.spec.platforms[triple.platform],
        )
    }

    /// Runs `triple`'s fault-free cell carrying the faulty cells injected
    /// with `seeds` as overlays, where the campaign carries overlays at all
    /// (see [`Cells::carries_overlays`]).  Trace-backed, with a trace cache
    /// or when `keep_recording`, the run is replayed from the cache or
    /// recorded (see [`Cells::obtain_recording`]), and the recording is
    /// kept when asked for; otherwise it is simulated.
    pub(crate) fn fault_free(
        &self,
        triple: Triple,
        execution: &SampleExecution,
        seeds: &[u64],
        keep_recording: bool,
    ) -> FaultFree {
        let seeds = if self.carries_overlays() { seeds } else { &[] };
        match execution {
            SampleExecution::TraceBacked { cache_dir } if keep_recording || cache_dir.is_some() => {
                self.obtain_recording(triple, seeds, cache_dir.as_deref(), keep_recording)
            }
            _ => self.simulate(triple, seeds),
        }
    }

    /// Runs `triple`'s fault-free cell carrying the faulty cells injected
    /// with `seeds` as overlays: replays `recording`, the triple's, when
    /// given, and simulates when there is none or its replay fails (with
    /// the overlays rebuilt).
    pub(crate) fn overlay_run(
        &self,
        triple: Triple,
        recording: Option<&Trace>,
        seeds: &[u64],
    ) -> FaultFree {
        if let Some(trace) = recording {
            let _span = self.obs.span(Phase::Replay);
            if let Ok((cell, overlays)) = self.replay_overlaid(triple, trace, seeds) {
                return FaultFree::new(cell, Origin::Replayed, None, overlays);
            }
        }
        self.simulate(triple, seeds)
    }

    /// Simulates `triple`'s fault-free cell, without a recorder, carrying
    /// the faulty cells injected with `seeds` as overlays.
    fn simulate(&self, triple: Triple, seeds: &[u64]) -> FaultFree {
        let _span = self.obs.span(Phase::FullSim);
        let (workload, scheme, platform) = self.coordinates(triple);
        let hooks = Hooks {
            overlays: self.overlays(triple, seeds),
            ..Hooks::default()
        };
        let config = cell_config(scheme, platform);
        let (result, hooks) = run_cell(workload, config, platform, self.spec.protocol, hooks);
        let cell = cell_from_result(workload, scheme, platform, None, &result);
        FaultFree::new(cell, Origin::Simulated, None, hooks.overlays)
    }

    /// Obtains `triple`'s fault-free cell carrying the faulty cells injected
    /// with `seeds` as overlays, and its recording when `keep`: replayed
    /// from `cache_dir` when it holds a valid, matching trace, otherwise
    /// recorded from a fresh simulation (persisted back to `cache_dir`
    /// best-effort).  A cached trace whose replay fails is recorded anew,
    /// and the overlays its replay consumed are rebuilt for the simulation.
    fn obtain_recording(
        &self,
        triple: Triple,
        seeds: &[u64],
        cache_dir: Option<&Path>,
        keep: bool,
    ) -> FaultFree {
        let (workload, scheme, platform) = self.coordinates(triple);
        let file_name = trace_file_name(
            &workload.name,
            &scheme.to_string(),
            &platform.to_string(),
            cell_fingerprint(self.spec, scheme, platform),
        );
        if let Some(dir) = cache_dir {
            if let Ok(bytes) = fs::read(dir.join(&file_name)) {
                let _span = self.obs.span(Phase::TraceDecode);
                let decoded = Trace::decode(&bytes);
                // The file's bytes are not kept beside the decoded events.
                drop(bytes);
                if let Ok(trace) = decoded {
                    if let Ok((cell, overlays)) = self.replay_overlaid(triple, &trace, seeds) {
                        let recording = keep.then_some(trace);
                        return FaultFree::new(cell, Origin::CacheHit, recording, overlays);
                    }
                }
            }
        }
        let (cell, trace, overlays) = {
            let _span = self.obs.span(Phase::TraceRecord);
            let overlays = self.overlays(triple, seeds);
            let detail = TraceDetail::Replay;
            record_overlaid(self.spec, workload, scheme, platform, detail, overlays)
        };
        let cache_write_failed = cache_dir.is_some_and(|dir| {
            fs::create_dir_all(dir)
                .and_then(|()| fs::write(dir.join(&file_name), trace.encode()))
                .is_err()
        });
        let origin = Origin::Recorded { cache_write_failed };
        FaultFree::new(cell, origin, keep.then_some(trace), overlays)
    }

    /// Replays `trace`, `triple`'s fault-free recording, carrying the
    /// faulty cells injected with `seeds` as overlays (see [`replay`]).
    fn replay_overlaid(
        &self,
        triple: Triple,
        trace: &Trace,
        seeds: &[u64],
    ) -> Result<(CampaignCell, Option<SeedOverlays>), Divergence> {
        let (events, workload) = (trace.events(), &self.workloads[triple.workload]);
        let overlays = self.overlays(triple, seeds);
        replay(self.spec, trace, events, workload, None, overlays, None)
    }

    /// Whether the campaign's fault-free runs carry their seeds as overlays:
    /// strikes on the data array, without forensics (whose records follow
    /// each seed's own run).
    pub(crate) fn carries_overlays(&self) -> bool {
        !self.forensic && self.spec.fault_target == FaultTarget::Data
    }

    /// One overlay per seed of `seeds` for `triple`'s fault-free run, or
    /// `None` when there are none.
    pub(crate) fn overlays(&self, triple: Triple, seeds: &[u64]) -> Option<SeedOverlays> {
        let campaigns: Vec<FaultCampaignConfig> =
            seeds.iter().map(|&seed| self.campaign(seed)).collect();
        let scheme = self.spec.schemes[triple.scheme];
        let flush_on_error = matches!(scheme, EccScheme::SpeculateFlush { .. });
        (!campaigns.is_empty()).then(|| SeedOverlays::new(&campaigns, flush_on_error))
    }

    /// Serves the faulty cell of `triple` injected with `injection_seed`
    /// (`fault_seed` is its fault-axis label): the cell its overlay served
    /// (see [`FaultFree::served`]), otherwise simulated on its own.
    pub(crate) fn serve(
        &self,
        triple: Triple,
        injection_seed: u64,
        fault_seed: Option<u64>,
        served: Result<CampaignCell, Served>,
    ) -> Faulty {
        let (cell, forensics, served) = match served {
            Ok(cell) => (cell, CellForensics::default(), Served::Overlay),
            Err(served) => {
                let (cell, forensics) = self.faulty(triple, injection_seed, fault_seed);
                (cell, forensics, served)
            }
        };
        Faulty {
            cell,
            forensics,
            served,
        }
    }

    /// The fault campaign of a faulty cell seeded by `injection_seed`:
    /// single-bit upsets at the spec's interval and target.
    fn campaign(&self, injection_seed: u64) -> FaultCampaignConfig {
        FaultCampaignConfig::single_bit(injection_seed, self.spec.fault_interval)
            .with_target(self.spec.fault_target)
    }

    /// Simulates one faulty cell of `triple` on its own, injected with
    /// `injection_seed`; `fault_seed` is its fault-axis label.
    pub(crate) fn faulty(
        &self,
        triple: Triple,
        injection_seed: u64,
        fault_seed: Option<u64>,
    ) -> (CampaignCell, CellForensics) {
        let _span = self.obs.span(Phase::Inject);
        let (workload, scheme, platform) = self.coordinates(triple);
        let config = PipelineConfig {
            fault_campaign: Some(self.campaign(injection_seed)),
            ..cell_config(scheme, platform)
        };
        let hooks = Hooks {
            forensics: self.forensic,
            ..Hooks::default()
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
        let one = execute_grid(&spec, 1, &full, false, &Obs::disabled()).report;
        let four = execute_grid(&spec, 4, &full, false, &Obs::disabled()).report;
        assert_eq!(one.to_json(), four.to_json());
        assert!(one.architecturally_equivalent());
        assert_eq!(one.platforms, vec!["smp2"]);
    }
}
