//! Trace-backed campaign execution: record once, replay per fault seed.
//!
//! All faulty runs of one workload × platform × scheme triple share the
//! fault-free run's access stream — only the injected faults differ.
//! Trace-backed execution exploits that: the fault-free run of each triple
//! (which the grid contains anyway) is executed once under a `laec_trace`
//! recorder, and every faulty cell is then *replayed* from the recording —
//! the memory hierarchy and the fault injector are driven through exactly
//! the recorded calls while the pipeline model is skipped entirely.  With
//! `--trace-cache`, recordings persist on disk and later invocations skip
//! even the fault-free simulations.  A grid without a fault axis and
//! without a cache records nothing: no faulty cell would replay the
//! recording, so its fault-free cells are simulated.
//!
//! This module holds the recording and replay primitives; the grid
//! executor ([`crate::campaign`]) and the sampler ([`crate::sampling`])
//! drive them through the one pair of cell functions in
//! [`crate::runner`].
//!
//! # The byte-identical guarantee
//!
//! A trace-backed grid produces a [`crate::campaign::CampaignReport`] that
//! serialises *byte-identically* to full simulation of the same spec
//! (asserted end-to-end by `tests/trace_replay.rs`):
//!
//! * pipeline-side cell fields (cycles, CPI, hit rates, look-ahead rate)
//!   are taken from the recorded summary — valid because the replay driver
//!   verifies at every load that the injected faults did not perturb
//!   values or timing (see `laec_trace::replay`),
//! * memory-side fields (bus traffic, ECC outcomes, unrecoverable errors,
//!   final memory checksum) are recomputed by the replayed hierarchy,
//!   which by construction performs the same accesses in the same order at
//!   the same cycle stamps with the same injected faults,
//! * any cell whose replay reports a [`Divergence`] (a fault escaped into
//!   values or timing — silent corruption under no-ECC, parity refetches,
//!   speculate-and-flush penalties, …) transparently falls back to full
//!   simulation for that one cell.
//!
//! Replay touches only the memory hierarchy, but it still walks the whole
//! hierarchy once per fault seed.  Full simulation no longer does: its
//! fault-free run carries every seed of the triple as a seed overlay
//! (`laec_mem::overlay`) and re-simulates only the seeds that escape, so on
//! a cold faulty grid it is the faster engine (perfbench's `grid_replay` ÷
//! `grid_full` ratio; see EXPERIMENTS.md).  Replay pays off on
//! `--trace-cache` hits, until recordings drive overlays too.
//!
//! A recording stays one owner's decoded [`Trace`] from its first event to
//! its last replay, and lives for its triple: the grid executor runs a
//! triple's fault-free cell and then its faulty cells as one job and drops
//! the recording when the job ends, so each worker holds one recording at
//! a time.  (The sampler keeps its strata's recordings for as long as it
//! samples them.)  The hierarchy of the recording run owns the recorder,
//! and the binary container is written only when a trace is persisted
//! (`--trace-cache`, `laec-cli trace record`).

use std::collections::BTreeMap;
use std::fs;
use std::path::Path;

use laec_mem::{CellForensics, FaultCampaignConfig, ReplayMemory};
use laec_obs::{Obs, Phase};
use laec_pipeline::EccScheme;
use laec_trace::{
    replay_events, Divergence, Trace, TraceContext, TraceDetail, TraceError, TraceEvent,
    TraceRecorder,
};
use laec_workloads::Workload;

use crate::campaign::{
    cell_from_result, fnv1a, registers_fingerprint, CampaignCell, CampaignSpec, PlatformVariant,
};
use crate::runner::{cell_config, run_cell, Hooks, Origin, Served};

/// Execution counters of one trace-backed campaign.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceBackedStats {
    /// Fault-free cells simulated in full (and recorded).
    pub recorded: u64,
    /// Fault-free cells reconstructed from a cached trace.
    pub cache_loads: u64,
    /// Faulty cells completed by replay.
    pub replayed: u64,
    /// Faulty cells that diverged and fell back to full simulation.
    pub fallbacks: u64,
    /// Cache files that could not be written (best-effort persistence).
    pub cache_write_failures: u64,
    /// `fallbacks` split by scheme label × divergence kind
    /// (`load_value`, `load_timing`, `scheme_timing`, `trace`); the
    /// entries sum to `fallbacks`.
    pub fallbacks_by: BTreeMap<(String, &'static str), u64>,
    /// Fallbacks per decile of where the replay diverged: bucket *d* counts
    /// divergences at event index ÷ recorded events in `[d/10, (d+1)/10)`.
    /// `trace` divergences have no position and are not bucketed.
    pub divergence_deciles: [u64; 10],
}

impl TraceBackedStats {
    /// Counts where a fault-free cell came from: recorded, or loaded from
    /// the trace cache (a simulated cell counts nothing).
    pub(crate) fn count_fault_free(&mut self, origin: Origin) {
        match origin {
            Origin::Simulated => {}
            Origin::Recorded { cache_write_failed } => {
                self.recorded += 1;
                self.cache_write_failures += u64::from(cache_write_failed);
            }
            Origin::CacheHit => self.cache_loads += 1,
        }
    }

    /// Counts how a faulty cell of `scheme` was served from a recording of
    /// `events` events: replayed, or fallen back to full simulation after
    /// its divergence (a cell simulated without a recording counts
    /// nothing).
    pub(crate) fn count_faulty(
        &mut self,
        scheme: impl std::fmt::Display,
        served: &Served,
        events: usize,
    ) {
        let divergence = match served {
            Served::Simulated | Served::Overlay | Served::Escaped(_) => return,
            Served::Replayed => {
                self.replayed += 1;
                return;
            }
            Served::FellBack(divergence) => divergence,
        };
        self.fallbacks += 1;
        let (kind, event) = match *divergence {
            Divergence::LoadValue { event, .. } => ("load_value", Some(event)),
            Divergence::LoadTiming { event, .. } => ("load_timing", Some(event)),
            Divergence::SchemeTimingError { event, .. } => ("scheme_timing", Some(event)),
            Divergence::Trace(_) => ("trace", None),
        };
        *self
            .fallbacks_by
            .entry((scheme.to_string(), kind))
            .or_default() += 1;
        if let Some(event) = event {
            let decile = u128::from(event) * 10 / (events.max(1) as u128);
            self.divergence_deciles[decile.min(9) as usize] += 1;
        }
    }
}

impl std::fmt::Display for TraceBackedStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "traces: {} recorded, {} from cache; faulty cells: {} replayed, {} fell back",
            self.recorded, self.cache_loads, self.replayed, self.fallbacks
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
    let config = cell_config(scheme, platform);
    let context = TraceContext::new(
        workload.name.clone(),
        scheme.to_string(),
        platform.to_string(),
        cell_fingerprint(spec, scheme, platform),
    );
    let hooks = Hooks {
        recorder: Some(TraceRecorder::with_detail(context, detail)),
        ..Hooks::default()
    };
    let (result, hooks) = run_cell(workload, config, platform, spec.protocol, hooks);
    // laec-lint: allow(panic-in-library) -- `run_cell` hands back the
    // recorder it was given.
    let recorder = hooks.recorder.expect("the recorder comes back");
    let mut summary = result.trace_summary();
    summary.registers_fingerprint = registers_fingerprint(&result.registers);
    let cell = cell_from_result(workload, scheme, platform, None, &result);
    (cell, recorder.finish(summary))
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
    replay_cell_forensic(spec, trace, events, workload, fault, fault_axis_seed, false)
        .map(|(cell, _)| cell)
}

/// [`replay_cell_events`], optionally with per-fault lifecycle forensics
/// enabled on the replayed hierarchy.  The cell is byte-identical either
/// way; the forensics records are byte-identical to a full simulation of
/// the same grid coordinates (the replay re-issues the recorded
/// (event, cycle) stream).
#[allow(clippy::too_many_lines)]
pub(crate) fn replay_cell_forensic(
    spec: &CampaignSpec,
    trace: &Trace,
    events: &[TraceEvent],
    workload: &Workload,
    fault: Option<FaultCampaignConfig>,
    fault_axis_seed: Option<u64>,
    forensic: bool,
) -> Result<(CampaignCell, CellForensics), Divergence> {
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
        .with_flush_on_error(matches!(scheme, EccScheme::SpeculateFlush { .. }))
        .with_forensics(forensic);
    if let Some(interference) = config.bus_interference {
        target = target.with_bus_interference(interference);
    }
    if let Some(fault) = fault {
        target = target.with_fault_campaign(fault);
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
    // Like `Simulator::execute`: the forensics set closes only after the
    // drain has settled every pending lifecycle.
    let forensics = target.take_forensics().unwrap_or_default();
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
    Ok((cell, forensics))
}

/// Obtains one stratum's fault-free cell plus its recording: from
/// `cache_dir` when a valid, matching trace is present, otherwise by
/// recording a fresh full simulation (persisting it back to `cache_dir`
/// best-effort).  [`crate::runner::Cells::fault_free`] calls it for the
/// grid executor and the sampler alike.
pub(crate) fn obtain_recording(
    spec: &CampaignSpec,
    workload: &Workload,
    scheme: EccScheme,
    platform: PlatformVariant,
    cache_dir: Option<&Path>,
    obs: &Obs,
) -> (CampaignCell, Trace, Origin) {
    let file_name = trace_file_name(
        &workload.name,
        &scheme.to_string(),
        &platform.to_string(),
        cell_fingerprint(spec, scheme, platform),
    );
    if let Some(dir) = cache_dir {
        if let Ok(bytes) = fs::read(dir.join(&file_name)) {
            let _span = obs.span(Phase::TraceDecode);
            let decoded = Trace::decode(&bytes);
            // The file's bytes are not kept beside the decoded events.
            drop(bytes);
            if let Ok(trace) = decoded {
                if let Ok(cell) = replay_cell(spec, &trace, workload, None, None) {
                    return (cell, trace, Origin::CacheHit);
                }
            }
        }
    }
    let (cell, trace) = {
        let _span = obs.span(Phase::TraceRecord);
        record_cell(spec, workload, scheme, platform, TraceDetail::Replay)
    };
    let cache_write_failed = cache_dir.is_some_and(|dir| {
        fs::create_dir_all(dir)
            .and_then(|()| fs::write(dir.join(&file_name), trace.encode()))
            .is_err()
    });
    (cell, trace, Origin::Recorded { cache_write_failed })
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
