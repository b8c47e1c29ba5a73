//! Trace-backed campaign execution: record a triple's fault-free run once,
//! and replay it carrying the triple's fault seeds as overlays.
//!
//! The campaign engines evaluate a workload × platform × scheme triple's
//! fault seeds as seed overlays (`laec_mem::overlay`) that ride the
//! triple's one fault-free run; a seed that escapes its overlay is
//! simulated on its own.  That run has two drivers: a full simulation, or
//! a *replay* of a recording of it, which drives the memory hierarchy
//! through exactly the recorded calls and skips the pipeline model.
//!
//! * With `--trace-cache`, a grid replays each triple's cached recording,
//!   carrying its fault axis, and records a trace that is missing or fails
//!   its replay.  Without a cache a grid records nothing: no replay would
//!   read the recording, so it takes the full-simulation path.
//! * The sampler records each stratum's fault-free run once and replays it
//!   once per round, carrying the round's samples.
//!
//! This module holds the primitives: recording a cell, replaying a
//! recording, and naming a recording in the cache.  The cell functions in
//! [`crate::runner`] choose, per triple, whether to simulate, record or
//! replay, for the grid executor ([`crate::campaign`]) and the sampler
//! ([`crate::sampling`]) alike.
//!
//! # The byte-identical guarantee
//!
//! A trace-backed report serialises *byte-identically* to full simulation
//! of the same spec (asserted end-to-end by `tests/trace_replay.rs`).  A
//! replayed fault-free cell takes its pipeline-side fields (cycles, CPI,
//! hit rates, look-ahead rate) from the recorded summary and its
//! memory-side fields from the replayed hierarchy, which must reproduce
//! the recorded checksum.  Overlays leave that hierarchy fault-free, so the
//! replay cannot diverge, and they meet the same accesses, fills and
//! drains against the same DL1 contents as in the simulation: every seed
//! is served, or escapes, as the simulation would decide.
//!
//! [`replay_cell`] also replays a recording under a fault campaign
//! (`laec-cli trace replay --fault-seed`); the replay driver then reports a
//! [`Divergence`] when the faults perturbed a load's value or timing (see
//! `laec_trace::replay`).  A recording is one owner's decoded [`Trace`],
//! encoded only when persisted (`--trace-cache`, `laec-cli trace record`).

use laec_mem::{FaultCampaignConfig, ReplayMemory, SeedOverlays};
use laec_pipeline::EccScheme;
use laec_trace::{
    replay_events, Divergence, Trace, TraceContext, TraceDetail, TraceError, TraceEvent,
    TraceRecorder,
};
use laec_workloads::Workload;

use crate::campaign::{
    cell_from_result, fnv1a, registers_fingerprint, CampaignCell, CampaignSpec, OverlayStats,
    PlatformVariant,
};
use crate::runner::{cell_config, run_cell, Hooks, Origin, Served};

/// Execution counters of one trace-backed campaign.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceBackedStats {
    /// Fault-free cells simulated in full under a recorder.
    pub recorded: u64,
    /// Fault-free cells replayed from a cached trace.
    pub cache_loads: u64,
    /// Fault seeds served from an overlay that rode a replay: of a cached
    /// trace, or of a sampler stratum's recording.
    pub replayed: u64,
    /// Fault seeds that escaped an overlay that rode a replay; each was
    /// then simulated on its own.
    pub fallbacks: u64,
    /// Cache files that could not be written (best-effort persistence).
    pub cache_write_failures: u64,
    /// How every fault seed that rode an overlay fared, whichever driver
    /// ran the overlay's fault-free run.
    pub overlays: OverlayStats,
}

impl TraceBackedStats {
    /// Counts where a fault-free cell came from: recorded, or replayed from
    /// the trace cache (any other cell counts nothing).
    pub(crate) fn count_fault_free(&mut self, origin: Origin) {
        match origin {
            Origin::Simulated | Origin::Replayed => {}
            Origin::Recorded { cache_write_failed } => {
                self.recorded += 1;
                self.cache_write_failures += u64::from(cache_write_failed);
            }
            Origin::CacheHit => self.cache_loads += 1,
        }
    }

    /// Counts how a faulty cell of `scheme` was served, whose triple's
    /// fault-free run came from `origin`.
    pub(crate) fn count_faulty(
        &mut self,
        scheme: impl std::fmt::Display,
        origin: Origin,
        served: &Served,
    ) {
        if matches!(origin, Origin::CacheHit | Origin::Replayed) {
            match served {
                Served::Overlay => self.replayed += 1,
                Served::Escaped(_) => self.fallbacks += 1,
                Served::Simulated => {}
            }
        }
        self.overlays.count(scheme, served);
    }
}

impl std::fmt::Display for TraceBackedStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "traces: {} recorded, {} from cache; {}; on replays: {} served, {} escaped",
            self.recorded, self.cache_loads, self.overlays, self.replayed, self.fallbacks
        )
    }
}

/// Fingerprint of everything that shapes one cell's access stream: the
/// spec seed, the workload generator shape and the platform-applied
/// pipeline configuration (which embeds the scheme and hierarchy).
#[must_use]
pub fn cell_fingerprint(spec: &CampaignSpec, scheme: EccScheme, platform: PlatformVariant) -> u64 {
    let config = cell_config(scheme, platform);
    let description = format!("v1|{:?}|{:?}|{:?}", spec.seed, spec.generator, config);
    fnv1a(description.bytes())
}

/// The canonical cache file name of one cell's trace.
#[must_use]
pub fn trace_file_name(workload: &str, scheme: &str, platform: &str, fingerprint: u64) -> String {
    format!("{workload}__{scheme}__{platform}__{fingerprint:016x}.laectrace")
}

/// Runs one fault-free cell in full simulation while recording its access
/// stream, returning the grid cell and the sealed trace.
#[must_use]
pub fn record_cell(
    spec: &CampaignSpec,
    workload: &Workload,
    scheme: EccScheme,
    platform: PlatformVariant,
    detail: TraceDetail,
) -> (CampaignCell, Trace) {
    let (cell, trace, _) = record_overlaid(spec, workload, scheme, platform, detail, None);
    (cell, trace)
}

/// [`record_cell`], with the run carrying `overlays`, which it hands back
/// settled.
pub(crate) fn record_overlaid(
    spec: &CampaignSpec,
    workload: &Workload,
    scheme: EccScheme,
    platform: PlatformVariant,
    detail: TraceDetail,
    overlays: Option<SeedOverlays>,
) -> (CampaignCell, Trace, Option<SeedOverlays>) {
    let config = cell_config(scheme, platform);
    let context = TraceContext::new(
        workload.name.clone(),
        scheme.to_string(),
        platform.to_string(),
        cell_fingerprint(spec, scheme, platform),
    );
    let hooks = Hooks {
        recorder: Some(TraceRecorder::with_detail(context, detail)),
        overlays,
        ..Hooks::default()
    };
    let (result, hooks) = run_cell(workload, config, platform, spec.protocol, hooks);
    // laec-lint: allow(panic-in-library) -- `run_cell` hands back the
    // recorder it was given.
    let recorder = hooks.recorder.expect("the recorder comes back");
    let mut summary = result.trace_summary();
    summary.registers_fingerprint = registers_fingerprint(&result.registers);
    let cell = cell_from_result(workload, scheme, platform, None, &result);
    (cell, recorder.finish(summary), hooks.overlays)
}

/// Replays a recorded cell — fault-free (`fault: None`, reconstructing the
/// recorded cell) or under a fault campaign (`fault_axis_seed` labels the
/// produced cell's grid coordinate).
///
/// # Errors
///
/// Returns a [`Divergence`] when an injected fault perturbed values or
/// timing (fall back to full simulation), or a
/// [`Divergence::Trace`] when the trace does not belong to this
/// spec/workload or fails its internal consistency checks.
pub fn replay_cell(
    spec: &CampaignSpec,
    trace: &Trace,
    workload: &Workload,
    fault: Option<FaultCampaignConfig>,
    fault_axis_seed: Option<u64>,
) -> Result<CampaignCell, Divergence> {
    replay_cell_events(
        spec,
        trace,
        trace.events(),
        workload,
        fault,
        fault_axis_seed,
    )
}

/// [`replay_cell`] over an explicit event slice of `trace` (usually
/// [`Trace::events`]).
///
/// # Errors
///
/// See [`replay_cell`].
pub fn replay_cell_events(
    spec: &CampaignSpec,
    trace: &Trace,
    events: &[TraceEvent],
    workload: &Workload,
    fault: Option<FaultCampaignConfig>,
    fault_axis_seed: Option<u64>,
) -> Result<CampaignCell, Divergence> {
    replay(spec, trace, events, workload, fault, None, fault_axis_seed).map(|(cell, _)| cell)
}

/// [`replay_cell_events`], carrying `overlays`, which it hands back
/// settled.  The campaign engines replay fault-free recordings carrying
/// overlays, and fail only on a trace that does not fit (a
/// [`Divergence::Trace`]: a foreign or inconsistent trace, or a wrong
/// memory checksum).
#[allow(clippy::too_many_lines)]
pub(crate) fn replay(
    spec: &CampaignSpec,
    trace: &Trace,
    events: &[TraceEvent],
    workload: &Workload,
    fault: Option<FaultCampaignConfig>,
    overlays: Option<SeedOverlays>,
    fault_axis_seed: Option<u64>,
) -> Result<(CampaignCell, Option<SeedOverlays>), Divergence> {
    let header = &trace.header;
    let corrupt = |what: &'static str| Divergence::Trace(TraceError::Corrupt(what));
    if header.workload != workload.name {
        return Err(corrupt("trace belongs to a different workload"));
    }
    let scheme: EccScheme = header
        .scheme
        .parse()
        .map_err(|_| corrupt("unknown scheme label"))?;
    let platform: PlatformVariant = header
        .platform
        .parse()
        .map_err(|_| corrupt("unknown platform label"))?;
    if header.context_fingerprint != cell_fingerprint(spec, scheme, platform) {
        return Err(corrupt(
            "trace was recorded under a different configuration",
        ));
    }

    let config = cell_config(scheme, platform);
    let mut target = ReplayMemory::new(config.hierarchy)
        .with_flush_on_error(matches!(scheme, EccScheme::SpeculateFlush { .. }));
    if let Some(interference) = config.bus_interference {
        target = target.with_bus_interference(interference);
    }
    if let Some(fault) = fault {
        target = target.with_fault_campaign(fault);
    }
    if let Some(overlays) = overlays {
        target.attach_overlays(overlays);
    }
    target.reserve_memory(workload.program.data().len());
    for &(address, value) in workload.program.data() {
        target.preload_word(address, value);
    }

    let progress = replay_events(events, &mut target)?;
    let summary = header.summary;
    if progress.commits != summary.instructions
        || progress.loads != summary.loads
        || progress.stores != summary.stores
    {
        return Err(corrupt("event counts disagree with the recorded summary"));
    }

    // Mirror the order of `Core::finalize`: statistics
    // snapshot first, then the dirty-state drain that produces the final
    // memory checksum, then the metadata-fault counters (the drain can
    // settle pending lost-writeback classifications).
    let stats = target.stats();
    let faults_injected = target.campaign_report().injected;
    let unrecoverable_errors = target.system().core_unrecoverable_errors(0);
    let memory_checksum = target.drain_to_memory();
    let dl1 = target.system().dl1(0);
    let meta_faults_injected = dl1.meta_faults_injected();
    let lost_writebacks = dl1.lost_writebacks();
    let stale_metadata_reads = dl1.stale_reads();
    if fault.is_none() && memory_checksum != summary.memory_checksum {
        return Err(corrupt("fault-free replay did not reproduce the checksum"));
    }

    let cell = CampaignCell {
        workload: workload.name.clone(),
        scheme: header.scheme.clone(),
        platform: header.platform.clone(),
        fault_seed: fault_axis_seed,
        cycles: summary.cycles,
        instructions: summary.instructions,
        // Same expressions as `PipelineStats::{cpi, load_hit_rate,
        // lookahead_rate}` so the floats are bit-identical.
        cpi: if summary.instructions == 0 {
            0.0
        } else {
            summary.cycles as f64 / summary.instructions as f64
        },
        load_hit_rate: if summary.loads == 0 {
            1.0
        } else {
            summary.load_hits as f64 / summary.loads as f64
        },
        lookahead_rate: if summary.loads == 0 {
            0.0
        } else {
            summary.lookahead_loads as f64 / summary.loads as f64
        },
        bus_transactions: stats.bus_transactions,
        faults_injected,
        faults_corrected: stats.dl1.ecc.corrected(),
        faults_detected_uncorrectable: stats.dl1.ecc.uncorrectable(),
        unrecoverable_errors,
        meta_faults_injected,
        lost_writebacks,
        stale_metadata_reads,
        snoop_lookups: stats.snoop_lookups,
        invalidations_sent: stats.invalidations_sent,
        registers_fingerprint: summary.registers_fingerprint,
        memory_checksum,
        slowdown: None,
    };
    Ok((cell, target.take_overlays()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::WorkloadSet;

    fn kernel(name: &str) -> Workload {
        laec_workloads::kernel_suite()
            .into_iter()
            .find(|w| w.name == name)
            .expect("known kernel")
    }

    fn small_spec() -> CampaignSpec {
        let mut spec = CampaignSpec::smoke();
        spec.workloads = WorkloadSet::Named(vec!["vector_sum".into()]);
        spec.schemes = vec![EccScheme::Laec];
        spec
    }

    #[test]
    fn fault_free_replay_reconstructs_the_recorded_cell_exactly() {
        let spec = small_spec();
        let workload = kernel("vector_sum");
        let (recorded_cell, trace) = record_cell(
            &spec,
            &workload,
            EccScheme::Laec,
            PlatformVariant::WriteBack,
            TraceDetail::Replay,
        );
        let replayed_cell =
            replay_cell(&spec, &trace, &workload, None, None).expect("fault-free replay");
        assert_eq!(replayed_cell, recorded_cell);
    }

    #[test]
    fn replay_rejects_foreign_traces() {
        let spec = small_spec();
        let workload = kernel("vector_sum");
        let other = kernel("fir_filter");
        let (_, trace) = record_cell(
            &spec,
            &workload,
            EccScheme::Laec,
            PlatformVariant::WriteBack,
            TraceDetail::Replay,
        );
        assert!(matches!(
            replay_cell(&spec, &trace, &other, None, None),
            Err(Divergence::Trace(TraceError::Corrupt(_)))
        ));
        let mut other_seed = spec.clone();
        other_seed.seed ^= 1;
        assert!(matches!(
            replay_cell(&other_seed, &trace, &workload, None, None),
            Err(Divergence::Trace(TraceError::Corrupt(_)))
        ));
    }

    #[test]
    fn trace_round_trips_through_the_binary_container() {
        let spec = small_spec();
        let workload = kernel("vector_sum");
        let (_, trace) = record_cell(
            &spec,
            &workload,
            EccScheme::Laec,
            PlatformVariant::WriteBack,
            TraceDetail::Full,
        );
        let decoded = Trace::decode(&trace.encode()).expect("valid container");
        assert_eq!(decoded, trace);
        let replayed = replay_cell(&spec, &decoded, &workload, None, None).expect("replays");
        assert_eq!(replayed.cycles, trace.header.summary.cycles);
    }
}
