//! Parallel experiment campaigns: workload × scheme × platform × fault grids.
//!
//! The per-artefact functions in [`crate::experiment`] each reproduce one
//! table or figure serially.  This module generalises them into a single
//! executor: a [`CampaignSpec`] names the axes of an experiment grid
//! (workloads, [`EccScheme`]s, platform configurations, fault-injection
//! seeds), the executor expands the grid into workload × platform × scheme
//! triples and runs each triple's cells — fault-free first, then one per
//! fault seed — as one job on a [`std::thread::scope`]-based worker pool,
//! in full simulation or trace-backed, and the result is aggregated
//! into a [`CampaignReport`] with per-cell statistics, slowdown matrices and
//! architectural-equivalence checks, renderable as aligned text
//! ([`render_campaign`]) or JSON ([`CampaignReport::to_json`]).
//!
//! # Determinism
//!
//! Reports are *byte-identical* regardless of worker count: the triples
//! are expanded in a fixed order, each faulty cell's fault-injection seed
//! is derived only from the spec seed and the cell's grid coordinates
//! (never from thread identity or scheduling), and every job writes its
//! cells into its own pre-allocated slot.  Running the same spec on 1 and
//! on 8 workers therefore serializes to the same JSON — the integration
//! tests assert exactly that.
//!
//! This module holds the grid *description* ([`CampaignSpec`]) and the one
//! grid executor, for full-simulation and trace-backed grids alike.
//! Campaigns run through the unified, serializable API in [`crate::spec`]
//! ([`crate::spec::Campaign`] dispatches every execution mode behind one
//! entry point).
//!
//! # Example
//!
//! ```
//! use laec_core::spec::{Campaign, CampaignBuilder};
//!
//! let validated = CampaignBuilder::smoke().validate().expect("valid spec");
//! let outcome = Campaign::new(validated).run(2);
//! assert!(outcome.architecturally_equivalent());
//! ```

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread;

use laec_mem::{
    CellForensics, FaultTarget, HierarchyConfig, Interference, OverlayReport, ProtocolKind,
};
use laec_obs::{Obs, Phase, ProgressEvent};
use laec_pipeline::{EccScheme, PipelineConfig};
use laec_workloads::{eembc_suite, kernel_suite, GeneratorConfig, Workload};
use serde::{Deserialize, Serialize};

use crate::runner::{grid_triples, Cells, Faulty, Served, Triple};
use crate::sampling::SampleExecution;
use crate::trace_backed::TraceBackedStats;

// ---------------------------------------------------------------------------
// Spec: the axes of the grid
// ---------------------------------------------------------------------------

/// Which workloads form the workload axis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WorkloadSet {
    /// The sixteen EEMBC-Automotive-like synthetic workloads.
    Eembc,
    /// The hand-written kernels (vector sum, FIR, pointer chase, …).
    Kernels,
    /// EEMBC-like workloads *and* kernels.
    Both,
    /// An explicit subset, by name, drawn from either suite.
    Named(Vec<String>),
}

/// One platform (cache/pipeline) configuration on the platform axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlatformVariant {
    /// The paper's evaluation platform: write-back DL1 + SECDED.
    WriteBack,
    /// The production NGMP configuration: write-through DL1 + parity.
    WriteThrough,
    /// Write-back DL1 with heavy bus interference from the unobserved cores
    /// (the §II.A contention scenario); the payload is the per-request extra
    /// bus cycles.
    ContendedBus(u32),
    /// The write-back platform simulated as a real N-core system (payload:
    /// core count ≥ 2): the observed workload runs on core 0 while the
    /// other cores stream read-only background traffic through their own
    /// MESI-coherent DL1s, the shared bus and the shared L2 — the §II.A
    /// contention scenario with actual cores instead of the synthetic
    /// [`Interference`] generator.  Construct via [`PlatformVariant::smp`].
    Smp(u32),
}

impl PlatformVariant {
    /// The N-core write-back platform; `cores <= 1` collapses to
    /// [`PlatformVariant::WriteBack`] (a 1-core SMP system *is* the
    /// uniprocessor — byte-identically, see `tests/smp_equivalence.rs`).
    #[must_use]
    pub fn smp(cores: u32) -> Self {
        if cores <= 1 {
            PlatformVariant::WriteBack
        } else {
            PlatformVariant::Smp(cores)
        }
    }

    /// How many cores the platform simulates.
    #[must_use]
    pub fn cores(self) -> u32 {
        match self {
            PlatformVariant::Smp(cores) => cores,
            _ => 1,
        }
    }

    /// Every label the [`FromStr`](std::str::FromStr) impl accepts for a distinct
    /// platform with small payloads — used by exhaustive round-trip tests.
    /// `contendedN` and `smpN` take any payload in range; the returned set
    /// samples the boundaries (including the `contended0` edge and the
    /// `smp1` collapse).
    #[must_use]
    pub fn label_test_set() -> Vec<PlatformVariant> {
        vec![
            PlatformVariant::WriteBack,
            PlatformVariant::WriteThrough,
            PlatformVariant::ContendedBus(0),
            PlatformVariant::ContendedBus(8),
            PlatformVariant::ContendedBus(u32::MAX),
            PlatformVariant::Smp(2),
            PlatformVariant::Smp(8),
        ]
    }

    /// Applies this platform's overrides to a scheme-derived configuration.
    #[must_use]
    pub fn apply_config(self, mut config: PipelineConfig) -> PipelineConfig {
        match self {
            PlatformVariant::WriteBack | PlatformVariant::Smp(_) => {}
            PlatformVariant::WriteThrough => {
                config.hierarchy = HierarchyConfig::ngmp_write_through();
            }
            PlatformVariant::ContendedBus(extra) => {
                config.bus_interference = Some(Interference::every_request(extra));
            }
        }
        config
    }
}

impl std::fmt::Display for PlatformVariant {
    /// The platform's canonical label — the exact string reports, traces
    /// and the CLI use (`wb`, `wt`, `contendedN`, `smpN`).  The
    /// [`FromStr`](std::str::FromStr) impl parses it back.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlatformVariant::WriteBack => f.write_str("wb"),
            PlatformVariant::WriteThrough => f.write_str("wt"),
            PlatformVariant::ContendedBus(extra) => write!(f, "contended{extra}"),
            PlatformVariant::Smp(cores) => write!(f, "smp{cores}"),
        }
    }
}

/// The error of [`PlatformVariant`]'s `FromStr`: the offending label.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsePlatformError {
    /// The label that named no platform.
    pub label: String,
}

impl std::fmt::Display for ParsePlatformError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "unknown platform `{}`", self.label)
    }
}

impl std::error::Error for ParsePlatformError {}

impl std::str::FromStr for PlatformVariant {
    type Err = ParsePlatformError;

    /// Parses a canonical platform label: `contendedN` selects N extra bus
    /// cycles per request, `smpN` an N-core system.  `smp1` is accepted and
    /// collapses to [`PlatformVariant::WriteBack`], exactly like
    /// [`PlatformVariant::smp`] (a 1-core SMP system *is* the
    /// uniprocessor).
    fn from_str(label: &str) -> Result<Self, Self::Err> {
        let unknown = || ParsePlatformError {
            label: label.to_string(),
        };
        match label {
            "wb" => Ok(PlatformVariant::WriteBack),
            "wt" => Ok(PlatformVariant::WriteThrough),
            _ => {
                if let Some(n) = label.strip_prefix("contended") {
                    return n
                        .parse()
                        .map(PlatformVariant::ContendedBus)
                        .map_err(|_| unknown());
                }
                label
                    .strip_prefix("smp")
                    .and_then(|n| n.parse().ok())
                    // Every core is a full pipeline + DL1 model: keep the
                    // count in the range real NGMP-class parts ship with
                    // (and that the false-sharing line can hold).  1 is the
                    // uniprocessor and collapses through `smp()`.
                    .filter(|&n| (1..=8).contains(&n))
                    .map(PlatformVariant::smp)
                    .ok_or_else(unknown)
            }
        }
    }
}

/// The full description of one campaign: every axis of the grid plus the
/// master seed it is expanded under.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignSpec {
    /// The workload axis.
    pub workloads: WorkloadSet,
    /// Shape of the synthetic EEMBC-like workloads (ignored for kernels).
    pub generator: GeneratorConfig,
    /// The scheme axis.
    pub schemes: Vec<EccScheme>,
    /// The platform axis.
    pub platforms: Vec<PlatformVariant>,
    /// The fault axis: one extra (faulty) run per seed per cell, in addition
    /// to the always-present fault-free run.  Empty means fault-free only.
    pub fault_seeds: Vec<u64>,
    /// Mean cycles between injected single-bit upsets on faulty runs.
    pub fault_interval: u64,
    /// Which DL1 array faulty runs strike: the ECC-protected data array
    /// (default) or the unprotected coherence metadata (state bits or
    /// address tags) — see [`FaultTarget`].
    pub fault_target: FaultTarget,
    /// The coherence protocol governing [`PlatformVariant::Smp`] cells
    /// (MESI by default; single-core platforms never take a
    /// protocol-dependent transition, and the spec layer rejects non-MESI
    /// protocols on grids without an SMP platform).
    pub protocol: ProtocolKind,
    /// Master seed; every per-job injection seed derives from it and the
    /// job's grid coordinates only.
    pub seed: u64,
}

impl CampaignSpec {
    /// The paper's Figure 8 grid: EEMBC-like suite × the four Figure 8
    /// schemes on the write-back platform, fault-free.
    #[must_use]
    pub fn paper_grid() -> Self {
        CampaignSpec {
            workloads: WorkloadSet::Eembc,
            generator: GeneratorConfig::evaluation(),
            schemes: EccScheme::figure8_set().to_vec(),
            platforms: vec![PlatformVariant::WriteBack],
            fault_seeds: Vec::new(),
            fault_interval: 5_000,
            fault_target: FaultTarget::Data,
            protocol: ProtocolKind::Mesi,
            seed: 0x1AEC,
        }
    }

    /// A quick grid over the hand-written kernels (used by tests/examples).
    #[must_use]
    pub fn smoke() -> Self {
        CampaignSpec {
            workloads: WorkloadSet::Kernels,
            generator: GeneratorConfig::smoke(),
            schemes: EccScheme::figure8_set().to_vec(),
            platforms: vec![PlatformVariant::WriteBack],
            fault_seeds: Vec::new(),
            fault_interval: 1_000,
            fault_target: FaultTarget::Data,
            protocol: ProtocolKind::Mesi,
            seed: 0x1AEC,
        }
    }

    /// Names accepted by [`WorkloadSet::Named`]: every EEMBC-like workload
    /// plus every hand-written kernel.  Cheap — no programs are generated.
    #[must_use]
    pub fn available_workload_names() -> Vec<String> {
        let mut names: Vec<String> = laec_workloads::eembc_profiles()
            .iter()
            .map(|profile| profile.name.to_string())
            .collect();
        names.extend(
            laec_workloads::KERNEL_NAMES
                .iter()
                .map(|name| name.to_string()),
        );
        names
    }

    /// Workloads the spec's set will materialise into, without generating
    /// any programs.  Cheap — fleet servers use it to plan stratum shards
    /// before any worker touches the grid.
    #[must_use]
    pub fn workload_count(&self) -> usize {
        match &self.workloads {
            WorkloadSet::Eembc => laec_workloads::eembc_profiles().len(),
            WorkloadSet::Kernels => laec_workloads::KERNEL_NAMES.len(),
            WorkloadSet::Both => {
                laec_workloads::eembc_profiles().len() + laec_workloads::KERNEL_NAMES.len()
            }
            WorkloadSet::Named(names) => names.len(),
        }
    }

    /// Materialises the workload axis.
    ///
    /// # Panics
    ///
    /// Panics if a [`WorkloadSet::Named`] entry names no known workload — a
    /// typo'd spec must fail loudly, not run a silently empty grid whose
    /// equivalence check is vacuously true.  Callers taking untrusted names
    /// should pre-validate against [`CampaignSpec::available_workload_names`].
    #[must_use]
    pub fn materialize_workloads(&self) -> Vec<Workload> {
        let mut generator = self.generator;
        generator.seed = self.seed;
        match &self.workloads {
            WorkloadSet::Eembc => eembc_suite(&generator),
            WorkloadSet::Kernels => kernel_suite(),
            WorkloadSet::Both => {
                let mut all = eembc_suite(&generator);
                all.extend(kernel_suite());
                all
            }
            WorkloadSet::Named(names) => {
                // Generate only what was asked for: kernels are cheap, and
                // each EEMBC-like workload is synthesized individually
                // instead of materialising the whole 16-entry suite.
                let kernels = kernel_suite();
                names
                    .iter()
                    .map(|name| {
                        kernels
                            .iter()
                            .find(|w| &w.name == name)
                            .cloned()
                            .or_else(|| laec_workloads::eembc_workload(name, &generator))
                            .unwrap_or_else(|| {
                                // laec-lint: allow(panic-in-library) -- specs are
                                // validated (CampaignSpec::validate rejects unknown
                                // workload names) before materialization; reaching
                                // here means a validation bypass, which must abort
                                // rather than silently shrink the grid.
                                panic!("unknown workload `{name}` in WorkloadSet::Named")
                            })
                    })
                    .collect()
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Report types
// ---------------------------------------------------------------------------

/// One grid cell: one workload under one scheme on one platform, either
/// fault-free (`fault_seed == None`) or under one fault-injection seed.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignCell {
    /// Workload name.
    pub workload: String,
    /// Scheme label (the scheme's `Display` form).
    pub scheme: String,
    /// Platform label (the platform's `Display` form).
    pub platform: String,
    /// Grid-axis fault seed, `None` for the fault-free run.
    pub fault_seed: Option<u64>,
    /// Total cycles.
    pub cycles: u64,
    /// Retired instructions.
    pub instructions: u64,
    /// Cycles per instruction.
    pub cpi: f64,
    /// DL1 load hit rate.
    pub load_hit_rate: f64,
    /// Fraction of load hits LAEC anticipated (0 for other schemes).
    pub lookahead_rate: f64,
    /// Shared-bus transactions.
    pub bus_transactions: u64,
    /// Faults injected into the DL1 during the run.
    pub faults_injected: u64,
    /// Faults corrected by the DL1's code.
    pub faults_corrected: u64,
    /// Detected-but-uncorrectable DL1 events.
    pub faults_detected_uncorrectable: u64,
    /// Unrecoverable events (dirty data lost).
    pub unrecoverable_errors: u64,
    /// Metadata (MESI state / tag bit) faults injected.
    pub meta_faults_injected: u64,
    /// Dirty lines silently dropped because corrupted metadata hid their
    /// dirtiness or re-addressed them (silent data corruption, invisible to
    /// the data array's ECC).
    pub lost_writebacks: u64,
    /// Loads served wrong data because of corrupted metadata (aliased tag
    /// hits, stale refetches) — the other metadata SDC class.
    pub stale_metadata_reads: u64,
    /// Remote-cache snoop lookups this core's bus transactions triggered
    /// (0 on single-core platforms).
    pub snoop_lookups: u64,
    /// Remote copies this core's write intents invalidated.
    pub invalidations_sent: u64,
    /// FNV-1a fingerprint of the final register file.
    pub registers_fingerprint: u64,
    /// Checksum of the final memory image.
    pub memory_checksum: u64,
    /// Execution time normalised to the fault-free no-ECC cell of the same
    /// workload and platform; `None` when that baseline is not in the grid.
    pub slowdown: Option<f64>,
}

/// Execution-time slowdown of every scheme, one row per workload × platform.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SlowdownRow {
    /// Workload name.
    pub workload: String,
    /// Platform label.
    pub platform: String,
    /// One entry per scheme, aligned with [`SlowdownMatrix::schemes`].
    pub slowdowns: Vec<Option<f64>>,
}

/// The slowdown matrix of the fault-free grid.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SlowdownMatrix {
    /// Column labels (scheme labels).
    pub schemes: Vec<String>,
    /// Per-workload × platform rows.
    pub rows: Vec<SlowdownRow>,
    /// Column summaries, aligned with `schemes`: the *geometric* mean of
    /// each column's normalized slowdown ratios (the standard aggregate for
    /// ratios of a baseline — the arithmetic mean systematically overstates
    /// them).
    pub averages: Vec<Option<f64>>,
}

/// Architectural-equivalence verdict for one workload × platform group: all
/// fault-free schemes must agree on registers and memory.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EquivalenceCheck {
    /// Workload name.
    pub workload: String,
    /// Platform label.
    pub platform: String,
    /// `true` if every fault-free scheme produced identical state.
    pub equivalent: bool,
}

/// The aggregated result of one campaign.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignReport {
    /// Master seed the grid ran under.
    pub seed: u64,
    /// Workload axis, in grid order.
    pub workloads: Vec<String>,
    /// Scheme axis labels, in grid order.
    pub schemes: Vec<String>,
    /// Platform axis labels, in grid order.
    pub platforms: Vec<String>,
    /// Fault axis, in grid order (empty = fault-free only).
    pub fault_seeds: Vec<u64>,
    /// Total jobs executed.
    pub total_jobs: u64,
    /// Every grid cell, in deterministic grid order.
    pub cells: Vec<CampaignCell>,
    /// The fault-free slowdown matrix.
    pub slowdowns: SlowdownMatrix,
    /// Per-group equivalence verdicts.
    pub equivalence: Vec<EquivalenceCheck>,
    /// Workload × platform groups whose fault-free no-ECC baseline retired
    /// zero cycles: their cells carry `slowdown: None` instead of a
    /// fabricated finite ratio.  Non-zero values deserve investigation — a
    /// real workload never runs for zero cycles.
    pub degenerate_baselines: u64,
}

impl CampaignReport {
    /// `true` if every workload × platform group passed the architectural-
    /// equivalence check across its fault-free schemes.
    #[must_use]
    pub fn architecturally_equivalent(&self) -> bool {
        self.equivalence.iter().all(|check| check.equivalent)
    }

    /// Serialises the report as pretty-printed JSON.
    ///
    /// Byte-identical across runs with the same spec, regardless of the
    /// worker count used to produce the report.
    #[must_use]
    pub fn to_json(&self) -> String {
        // laec-lint: allow(panic-in-library) -- serialization of an in-memory
        // report is infallible (no NaN floats: cpi/rates are finite by
        // construction, slowdowns come from positive cycle counts); the
        // Result only exists because serde's API is generic over writers.
        serde_json::to_string_pretty(self).expect("campaign report serializes")
    }
}

// ---------------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------------

/// SplitMix64 finaliser, used to decorrelate per-job injection seeds.
pub(crate) fn mix64(mut value: u64) -> u64 {
    value = value.wrapping_add(0x9E37_79B9_7F4A_7C15);
    value = (value ^ (value >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    value = (value ^ (value >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    value ^ (value >> 31)
}

pub(crate) fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes
        .into_iter()
        .fold(0xcbf2_9ce4_8422_2325u64, |hash, byte| {
            (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01B3)
        })
}

pub(crate) fn registers_fingerprint(registers: &[u32]) -> u64 {
    fnv1a(registers.iter().flat_map(|r| r.to_le_bytes()))
}

/// The seed a faulty grid cell injects under: a pure function of the spec
/// seed, the grid-axis fault seed and the cell's triple — never of
/// scheduling.
pub(crate) fn grid_injection_seed(spec: &CampaignSpec, triple: Triple, axis_seed: u64) -> u64 {
    mix64(
        spec.seed
            ^ axis_seed.rotate_left(17)
            ^ ((triple.workload as u64) << 40)
            ^ ((triple.scheme as u64) << 20)
            ^ (triple.platform as u64),
    )
}

/// The number of worker threads the engines use when the caller passes `0`:
/// the machine's available parallelism.
#[must_use]
pub fn default_threads() -> usize {
    // laec-lint: allow(ambient-parallelism) -- the worker count only picks how
    // many threads drain the job queue; every report byte is independent of it
    // (CI cmp's 8-thread vs 1-thread runs), so this is sanctioned ambience.
    thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Runs `spec`'s grid on `threads` workers (`0` = [`default_threads`]).
///
/// A worker-pool job is one workload × platform × scheme triple: its
/// fault-free cell, then its faulty cells in fault-axis order.  The
/// fault-free run carries the fault axis as seed overlays where they apply,
/// and only the seeds that escape their overlays, or that no overlay
/// carried, are simulated on their own.  Under
/// [`SampleExecution::TraceBacked`] with a trace cache, the fault-free run
/// is replayed from the cache (or recorded into it); without one it is
/// simulated.  The report is byte-identical either way.  Cells, the
/// engine's counters and one [`CellForensics`] per cell (empty record sets
/// unless `forensic`) come back in grid order for any thread count.
///
/// # Panics
///
/// Panics if a worker thread panics (the underlying simulator is panic-free
/// on valid programs; a panic indicates a bug, not bad input).
pub(crate) fn execute_grid(
    spec: &CampaignSpec,
    threads: usize,
    execution: &SampleExecution,
    forensic: bool,
    obs: &Obs,
) -> GridRun {
    let workloads = spec.materialize_workloads();
    let triples = grid_triples(spec, workloads.len());
    let cells = Cells {
        spec,
        workloads: &workloads,
        forensic,
        obs,
    };
    let per_triple = 1 + spec.fault_seeds.len();
    let total = (triples.len() * per_triple) as u64;
    let trace_backed = matches!(execution, SampleExecution::TraceBacked { .. });
    let engine = if trace_backed { "trace-backed" } else { "full" };
    obs.emit(&ProgressEvent::CampaignStart {
        engine,
        jobs: total,
    });
    let emit = |index: usize, cell: &CampaignCell, phase: Phase, forensics: &CellForensics| {
        let tallies = forensic.then(|| forensics.outcome_tallies());
        obs.emit(&ProgressEvent::Cell {
            index: index as u64,
            total,
            workload: &cell.workload,
            scheme: &cell.scheme,
            platform: &cell.platform,
            fault_seed: cell.fault_seed,
            cycles: cell.cycles,
            phase: phase.label(),
            outcomes: tallies.as_ref().map(|t| &t[..]),
        });
    };
    let blocks = run_pool(triples.len(), threads, |index| {
        let triple = triples[index];
        let first = index * per_triple;
        let seeds: Vec<u64> = spec
            .fault_seeds
            .iter()
            .map(|&axis_seed| grid_injection_seed(spec, triple, axis_seed))
            .collect();
        let fault_free = cells.fault_free(triple, execution, &seeds, false);
        emit(
            first,
            &fault_free.cell,
            fault_free.origin.phase(),
            &CellForensics::default(),
        );
        let faulty: Vec<Faulty> = spec
            .fault_seeds
            .iter()
            .zip(seeds)
            .enumerate()
            .map(|(fault, (&axis_seed, seed))| {
                let served = fault_free.served(fault, Some(axis_seed));
                let faulty = cells.serve(triple, seed, Some(axis_seed), served);
                emit(
                    first + 1 + fault,
                    &faulty.cell,
                    faulty.served.phase(),
                    &faulty.forensics,
                );
                faulty
            })
            .collect();
        (fault_free.cell, fault_free.origin, faulty)
    });
    obs.emit(&ProgressEvent::CampaignEnd {
        engine,
        executed: total,
    });

    let mut stats = TraceBackedStats::default();
    let mut grid_cells = Vec::with_capacity(total as usize);
    let mut forensics = Vec::with_capacity(total as usize);
    for (cell, origin, faulty) in blocks {
        stats.count_fault_free(origin);
        grid_cells.push(cell);
        // A fault-free cell injects nothing: its record set is empty.
        forensics.push(CellForensics::default());
        for faulty in faulty {
            stats.count_faulty(&faulty.cell.scheme, origin, &faulty.served);
            grid_cells.push(faulty.cell);
            forensics.push(faulty.forensics);
        }
    }
    GridRun {
        report: assemble_report(spec, &workloads, grid_cells),
        overlay_stats: (!trace_backed).then(|| stats.overlays.clone()),
        trace_stats: trace_backed.then_some(stats),
        forensics,
    }
}

/// What [`execute_grid`] produced.
pub(crate) struct GridRun {
    pub report: CampaignReport,
    /// Record/replay counters, the overlay split among them (trace-backed
    /// grids).
    pub trace_stats: Option<TraceBackedStats>,
    /// Seed-overlay counters (full-simulation grids).
    pub overlay_stats: Option<OverlayStats>,
    /// One record set per cell, in grid order (empty sets unless
    /// forensic).
    pub forensics: Vec<CellForensics>,
}

/// How a campaign served its faulty cells, or its samples: from the seed
/// overlays their fault-free run carried, simulated or replayed, or on
/// their own after escaping.  Cells of campaigns that carry no overlays
/// (metadata targets, forensic runs) are simulated per seed and counted in
/// neither.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OverlayStats {
    /// Faulty cells built from their triple's fault-free run.
    pub served: u64,
    /// Escaped seeds by scheme label × reason
    /// ([`laec_mem::EscapeReason::label`]); each was simulated on its own.
    pub escaped: BTreeMap<(String, &'static str), u64>,
}

impl OverlayStats {
    /// Counts how a faulty cell of `scheme` was served (cells served
    /// without an overlay count nothing).
    pub(crate) fn count(&mut self, scheme: impl std::fmt::Display, served: &Served) {
        match served {
            Served::Overlay => self.served += 1,
            Served::Escaped(reason) => {
                *self
                    .escaped
                    .entry((scheme.to_string(), reason.label()))
                    .or_default() += 1;
            }
            Served::Simulated => {}
        }
    }
}

impl std::fmt::Display for OverlayStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "overlays: {} served, {} escaped",
            self.served,
            self.escaped.values().sum::<u64>()
        )
    }
}

/// Executes `count` jobs on a scoped worker pool of `threads` workers
/// (`0` = [`default_threads`]; one shared cursor, one pre-allocated slot per
/// job), preserving index order in the result.
pub(crate) fn run_pool<T, F>(count: usize, threads: usize, job: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let threads = if threads == 0 {
        default_threads()
    } else {
        threads
    };
    let cursor = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = (0..count).map(|_| Mutex::new(None)).collect();
    thread::scope(|scope| {
        for _ in 0..threads.min(count).max(1) {
            scope.spawn(|| loop {
                let index = cursor.fetch_add(1, Ordering::Relaxed);
                if index >= count {
                    break;
                }
                let result = job(index);
                *slots[index]
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner) = Some(result);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                // laec-lint: allow(panic-in-library) -- every slot is filled
                // before `thread::scope` returns (the cursor hands out each
                // index exactly once); an empty slot is a pool bug, and the
                // documented panic is better than silently dropping a cell.
                .expect("job ran")
        })
        .collect()
}

/// Derives the slowdown matrix and equivalence checks from grid-ordered
/// cells and packages the report.
pub(crate) fn assemble_report(
    spec: &CampaignSpec,
    workloads: &[Workload],
    mut cells: Vec<CampaignCell>,
) -> CampaignReport {
    let degenerate_baselines = fill_slowdowns(spec, &mut cells);
    let slowdowns = slowdown_matrix(spec, workloads, &cells);
    let equivalence = equivalence_checks(spec, workloads, &cells);

    CampaignReport {
        seed: spec.seed,
        workloads: workloads.iter().map(|w| w.name.clone()).collect(),
        schemes: spec.schemes.iter().map(ToString::to_string).collect(),
        platforms: spec.platforms.iter().map(ToString::to_string).collect(),
        fault_seeds: spec.fault_seeds.clone(),
        total_jobs: cells.len() as u64,
        cells,
        slowdowns,
        equivalence,
        degenerate_baselines,
    }
}

/// Builds the faulty cell labelled `fault_seed` from the fault-free cell
/// it rode as an overlay, and the overlay's `report`: the seed kept the
/// run's timing, traffic and registers, and differs only in its fault
/// counters and its final memory checksum.
pub(crate) fn overlay_cell(
    fault_free: &CampaignCell,
    fault_seed: Option<u64>,
    report: &OverlayReport,
) -> CampaignCell {
    CampaignCell {
        fault_seed,
        faults_injected: report.faults_injected,
        faults_corrected: report.corrected,
        faults_detected_uncorrectable: report.uncorrectable,
        memory_checksum: fault_free
            .memory_checksum
            .wrapping_add(report.checksum_delta),
        ..fault_free.clone()
    }
}

/// Builds a grid cell from a finished simulation (shared by the full-sim
/// path and the trace recorder so the two can never drift apart).
pub(crate) fn cell_from_result(
    workload: &Workload,
    scheme: EccScheme,
    platform: PlatformVariant,
    fault_seed: Option<u64>,
    result: &laec_pipeline::SimResult,
) -> CampaignCell {
    CampaignCell {
        workload: workload.name.clone(),
        scheme: scheme.to_string(),
        platform: platform.to_string(),
        fault_seed,
        cycles: result.stats.cycles,
        instructions: result.stats.instructions,
        cpi: result.stats.cpi(),
        load_hit_rate: result.stats.load_hit_rate(),
        lookahead_rate: result.stats.lookahead_rate(),
        bus_transactions: result.stats.mem.bus_transactions,
        faults_injected: result.stats.faults_injected,
        faults_corrected: result.stats.mem.dl1.ecc.corrected(),
        faults_detected_uncorrectable: result.stats.mem.dl1.ecc.uncorrectable(),
        unrecoverable_errors: result.unrecoverable_errors,
        meta_faults_injected: result.meta_faults_injected,
        lost_writebacks: result.lost_writebacks,
        stale_metadata_reads: result.stale_metadata_reads,
        snoop_lookups: result.stats.mem.snoop_lookups,
        invalidations_sent: result.stats.mem.invalidations_sent,
        registers_fingerprint: registers_fingerprint(&result.registers),
        memory_checksum: result.memory_checksum,
        slowdown: None, // filled once every cell (incl. the baseline) exists
    }
}

/// Normalizes every cell to its group's fault-free no-ECC baseline.
///
/// A baseline that ran zero cycles cannot normalize anything: those groups
/// keep `slowdown: None` (no fabricated finite ratio) and are counted in
/// the returned warning counter, surfaced as
/// [`CampaignReport::degenerate_baselines`].
fn fill_slowdowns(spec: &CampaignSpec, cells: &mut [CampaignCell]) -> u64 {
    if !spec.schemes.contains(&EccScheme::NoEcc) {
        return 0;
    }
    // One pass to index every group's fault-free no-ECC baseline, rather
    // than rescanning all cells per cell (O(n^2) on big grids).  BTreeMap,
    // not HashMap: the degenerate-baseline count below folds over iteration
    // order, and everything that can reach report bytes must be ordered.
    let baseline = EccScheme::NoEcc.to_string();
    let baselines: BTreeMap<(&str, &str), u64> = cells
        .iter()
        .filter(|c| c.scheme == baseline && c.fault_seed.is_none())
        .map(|c| ((c.workload.as_str(), c.platform.as_str()), c.cycles))
        .collect();
    let degenerate = baselines.values().filter(|&&cycles| cycles == 0).count() as u64;
    // Keys borrow from `cells`, so resolve each cell's baseline first.
    let resolved: Vec<Option<u64>> = cells
        .iter()
        .map(|c| {
            baselines
                .get(&(c.workload.as_str(), c.platform.as_str()))
                .copied()
        })
        .collect();
    for (cell, base) in cells.iter_mut().zip(resolved) {
        cell.slowdown = base
            .filter(|&base| base > 0)
            .map(|base| cell.cycles as f64 / base as f64);
    }
    degenerate
}

fn slowdown_matrix(
    spec: &CampaignSpec,
    workloads: &[Workload],
    cells: &[CampaignCell],
) -> SlowdownMatrix {
    let schemes: Vec<String> = spec.schemes.iter().map(ToString::to_string).collect();
    // Index the fault-free cells once; row assembly below is then a pure
    // lookup per (workload, platform, scheme).
    let by_coordinates: BTreeMap<(&str, &str, &str), Option<f64>> = cells
        .iter()
        .filter(|c| c.fault_seed.is_none())
        .map(|c| {
            (
                (c.workload.as_str(), c.platform.as_str(), c.scheme.as_str()),
                c.slowdown,
            )
        })
        .collect();
    let mut rows = Vec::new();
    for workload in workloads {
        for platform in &spec.platforms {
            let platform = platform.to_string();
            let slowdowns: Vec<Option<f64>> = schemes
                .iter()
                .map(|scheme| {
                    by_coordinates
                        .get(&(workload.name.as_str(), platform.as_str(), scheme.as_str()))
                        .copied()
                        .flatten()
                })
                .collect();
            rows.push(SlowdownRow {
                workload: workload.name.clone(),
                platform,
                slowdowns,
            });
        }
    }
    let averages: Vec<Option<f64>> = (0..schemes.len())
        .map(|column| {
            let values: Vec<f64> = rows
                .iter()
                .filter_map(|row| row.slowdowns[column])
                .collect();
            geometric_mean(&values)
        })
        .collect();
    SlowdownMatrix {
        schemes,
        rows,
        averages,
    }
}

/// The geometric mean of a set of normalized ratios — the standard summary
/// for slowdowns against a common baseline.  `None` for an empty set or one
/// containing a non-positive ratio (log-space has nothing sound to say
/// about those).
#[must_use]
pub fn geometric_mean(values: &[f64]) -> Option<f64> {
    if values.is_empty() || values.iter().any(|&v| v <= 0.0) {
        return None;
    }
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    Some((log_sum / values.len() as f64).exp())
}

fn equivalence_checks(
    spec: &CampaignSpec,
    workloads: &[Workload],
    cells: &[CampaignCell],
) -> Vec<EquivalenceCheck> {
    // One pass over the cells: per group, remember the first fingerprint and
    // whether every later fault-free cell matched it.
    type Fingerprint = (u64, u64);
    let mut groups: BTreeMap<(&str, &str), (Fingerprint, bool)> = BTreeMap::new();
    for cell in cells.iter().filter(|c| c.fault_seed.is_none()) {
        let fingerprint = (cell.registers_fingerprint, cell.memory_checksum);
        groups
            .entry((cell.workload.as_str(), cell.platform.as_str()))
            .and_modify(|(reference, equivalent)| *equivalent &= fingerprint == *reference)
            .or_insert((fingerprint, true));
    }
    let mut checks = Vec::new();
    for workload in workloads {
        for platform in &spec.platforms {
            let platform = platform.to_string();
            let equivalent = groups
                .get(&(workload.name.as_str(), platform.as_str()))
                .is_none_or(|(_, equivalent)| *equivalent);
            checks.push(EquivalenceCheck {
                workload: workload.name.clone(),
                platform,
                equivalent,
            });
        }
    }
    checks
}

// ---------------------------------------------------------------------------
// Text rendering
// ---------------------------------------------------------------------------

/// Renders the campaign's slowdown matrix, fault summary and equivalence
/// verdicts as aligned text.
#[must_use]
pub fn render_campaign(report: &CampaignReport) -> String {
    use std::fmt::Write as _;

    let mut out = String::new();
    let _ = writeln!(
        out,
        "Campaign: {} workloads x {} schemes x {} platforms, {} fault seed(s), seed {:#x}, {} jobs",
        report.workloads.len(),
        report.schemes.len(),
        report.platforms.len(),
        report.fault_seeds.len(),
        report.seed,
        report.total_jobs,
    );

    // Slowdown matrix (fault-free grid), normalised to no-ECC.
    let _ = write!(out, "\n{:<16} {:<12}", "workload", "platform");
    for scheme in &report.slowdowns.schemes {
        let _ = write!(out, " {scheme:>16}");
    }
    out.push('\n');
    for row in &report.slowdowns.rows {
        let _ = write!(out, "{:<16} {:<12}", row.workload, row.platform);
        for slowdown in &row.slowdowns {
            match slowdown {
                Some(value) => {
                    let _ = write!(out, " {value:>16.4}");
                }
                None => {
                    let _ = write!(out, " {:>16}", "-");
                }
            }
        }
        out.push('\n');
    }
    let _ = write!(out, "{:<16} {:<12}", "geomean", "");
    for average in &report.slowdowns.averages {
        match average {
            Some(value) => {
                let _ = write!(out, " {value:>16.4}");
            }
            None => {
                let _ = write!(out, " {:>16}", "-");
            }
        }
    }
    out.push('\n');
    if report.degenerate_baselines > 0 {
        let _ = writeln!(
            out,
            "WARNING: {} workload x platform group(s) had a zero-cycle no-ECC \
             baseline; their slowdowns are reported as '-'",
            report.degenerate_baselines,
        );
    }

    // Fault summary, if the grid had a fault axis.
    if !report.fault_seeds.is_empty() {
        let faulty: Vec<&CampaignCell> = report
            .cells
            .iter()
            .filter(|c| c.fault_seed.is_some())
            .collect();
        let injected: u64 = faulty.iter().map(|c| c.faults_injected).sum();
        let corrected: u64 = faulty.iter().map(|c| c.faults_corrected).sum();
        let detected: u64 = faulty.iter().map(|c| c.faults_detected_uncorrectable).sum();
        let unrecoverable: u64 = faulty.iter().map(|c| c.unrecoverable_errors).sum();
        let _ = writeln!(
            out,
            "\nFaults: {injected} injected, {corrected} corrected, \
             {detected} detected-uncorrectable, {unrecoverable} unrecoverable \
             across {} faulty runs",
            faulty.len(),
        );
        let meta: u64 = faulty.iter().map(|c| c.meta_faults_injected).sum();
        if meta > 0 {
            // The metadata-strike SDC classes: invisible to the data ECC.
            let lost: u64 = faulty.iter().map(|c| c.lost_writebacks).sum();
            let stale: u64 = faulty.iter().map(|c| c.stale_metadata_reads).sum();
            let _ = writeln!(
                out,
                "Metadata strikes: {meta} injected (state/tag bits): \
                 {lost} lost writebacks, {stale} stale reads — silent data \
                 corruption no data-array code detects",
            );
        }
    }

    let failing: Vec<&EquivalenceCheck> = report
        .equivalence
        .iter()
        .filter(|c| !c.equivalent)
        .collect();
    if failing.is_empty() {
        let _ = writeln!(
            out,
            "\nArchitectural equivalence: OK ({} workload x platform groups)",
            report.equivalence.len(),
        );
    } else {
        let _ = writeln!(out, "\nArchitectural equivalence: FAILED for:");
        for check in failing {
            let _ = writeln!(out, "  {} on {}", check.workload, check.platform);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_expansion_covers_every_axis_combination() {
        let mut spec = CampaignSpec::smoke();
        spec.workloads = WorkloadSet::Named(vec!["vector_sum".into(), "fir_filter".into()]);
        spec.fault_seeds = vec![1, 2];
        let report =
            execute_grid(&spec, 2, &SampleExecution::FullSim, false, &Obs::disabled()).report;
        // 2 workloads x 1 platform x 4 schemes x (1 fault-free + 2 faulty).
        assert_eq!(report.total_jobs, 2 * 4 * 3);
        assert_eq!(report.cells.len(), 24);
        assert_eq!(report.workloads, vec!["vector_sum", "fir_filter"]);
        assert!(report.architecturally_equivalent());
    }

    #[test]
    fn slowdowns_are_normalised_to_no_ecc() {
        let mut spec = CampaignSpec::smoke();
        spec.workloads = WorkloadSet::Named(vec!["vector_sum".into()]);
        let report =
            execute_grid(&spec, 1, &SampleExecution::FullSim, false, &Obs::disabled()).report;
        let no_ecc = report
            .cells
            .iter()
            .find(|c| c.scheme == "no-ecc")
            .expect("baseline cell");
        assert_eq!(no_ecc.slowdown, Some(1.0));
        for cell in &report.cells {
            let slowdown = cell.slowdown.expect("baseline present");
            assert!(slowdown >= 1.0 - 1e-9, "{}: {slowdown}", cell.scheme);
        }
    }

    #[test]
    fn without_a_baseline_slowdowns_are_absent() {
        let mut spec = CampaignSpec::smoke();
        spec.workloads = WorkloadSet::Named(vec!["vector_sum".into()]);
        spec.schemes = vec![EccScheme::Laec, EccScheme::ExtraStage];
        let report =
            execute_grid(&spec, 1, &SampleExecution::FullSim, false, &Obs::disabled()).report;
        assert!(report.cells.iter().all(|c| c.slowdown.is_none()));
        assert!(report.slowdowns.averages.iter().all(Option::is_none));
    }

    #[test]
    fn faulty_runs_inject_and_are_reported() {
        let mut spec = CampaignSpec::smoke();
        spec.workloads = WorkloadSet::Named(vec!["vector_sum".into()]);
        spec.schemes = vec![EccScheme::Laec];
        spec.fault_seeds = vec![0xBEEF];
        spec.fault_interval = 50;
        let report =
            execute_grid(&spec, 2, &SampleExecution::FullSim, false, &Obs::disabled()).report;
        let faulty = report
            .cells
            .iter()
            .find(|c| c.fault_seed == Some(0xBEEF))
            .expect("faulty cell");
        assert!(faulty.faults_injected > 0);
        // Only faults on lines that are read back before eviction get
        // corrected; the SECDED write-back DL1 must lose nothing either way.
        assert!(faulty.faults_corrected <= faulty.faults_injected);
        assert_eq!(faulty.unrecoverable_errors, 0);
        let text = render_campaign(&report);
        assert!(text.contains("Faults:"), "{text}");
    }

    /// One synthetic grid cell (only the fields the aggregation code reads
    /// are meaningful).
    fn synthetic_cell(workload: &str, scheme: &str, cycles: u64) -> CampaignCell {
        CampaignCell {
            workload: workload.to_string(),
            scheme: scheme.to_string(),
            platform: "wb".to_string(),
            fault_seed: None,
            cycles,
            instructions: cycles,
            cpi: 1.0,
            load_hit_rate: 1.0,
            lookahead_rate: 0.0,
            bus_transactions: 0,
            faults_injected: 0,
            faults_corrected: 0,
            faults_detected_uncorrectable: 0,
            unrecoverable_errors: 0,
            meta_faults_injected: 0,
            lost_writebacks: 0,
            stale_metadata_reads: 0,
            snoop_lookups: 0,
            invalidations_sent: 0,
            registers_fingerprint: 0,
            memory_checksum: 0,
            slowdown: None,
        }
    }

    #[test]
    fn summary_row_is_the_geometric_mean_of_the_column() {
        // Two workloads with slowdowns 1.2 and 1.8 under one scheme: the
        // summary must be sqrt(1.2 * 1.8), not (1.2 + 1.8) / 2.
        let mut spec = CampaignSpec::smoke();
        spec.schemes = vec![EccScheme::NoEcc, EccScheme::Laec];
        let workloads = vec![
            laec_workloads::kernel_suite().remove(0),
            laec_workloads::kernel_suite().remove(1),
        ];
        let (a, b) = (workloads[0].name.clone(), workloads[1].name.clone());
        let cells = vec![
            synthetic_cell(&a, "no-ecc", 1_000),
            synthetic_cell(&a, "laec", 1_200),
            synthetic_cell(&b, "no-ecc", 1_000),
            synthetic_cell(&b, "laec", 1_800),
        ];
        let report = assemble_report(&spec, &workloads, cells);
        let laec_column = report
            .slowdowns
            .schemes
            .iter()
            .position(|s| s == "laec")
            .expect("laec column");
        let average = report.slowdowns.averages[laec_column].expect("two finite ratios");
        assert!(
            (average - (1.2f64 * 1.8).sqrt()).abs() < 1e-12,
            "expected geometric mean {}, got {average}",
            (1.2f64 * 1.8).sqrt()
        );
        assert_eq!(report.degenerate_baselines, 0);
    }

    #[test]
    fn zero_cycle_baseline_yields_none_and_a_warning_not_a_fabricated_ratio() {
        let mut spec = CampaignSpec::smoke();
        spec.schemes = vec![EccScheme::NoEcc, EccScheme::Laec];
        let workloads = vec![laec_workloads::kernel_suite().remove(0)];
        let name = workloads[0].name.clone();
        let cells = vec![
            synthetic_cell(&name, "no-ecc", 0),
            synthetic_cell(&name, "laec", 500),
        ];
        let report = assemble_report(&spec, &workloads, cells);
        assert!(
            report.cells.iter().all(|c| c.slowdown.is_none()),
            "a 0-cycle baseline must not normalize anything"
        );
        assert!(report.slowdowns.averages.iter().all(Option::is_none));
        assert_eq!(report.degenerate_baselines, 1);
        let text = render_campaign(&report);
        assert!(
            text.contains("WARNING: 1 workload x platform group"),
            "{text}"
        );
    }

    #[test]
    fn geometric_mean_edge_cases() {
        assert_eq!(geometric_mean(&[]), None);
        assert_eq!(geometric_mean(&[2.0, 0.0]), None);
        assert_eq!(geometric_mean(&[2.0, -1.0]), None);
        let mean = geometric_mean(&[4.0, 9.0]).expect("positive inputs");
        assert!((mean - 6.0).abs() < 1e-12);
        let single = geometric_mean(&[1.25]).expect("single input");
        assert!((single - 1.25).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "unknown workload `vectorsum`")]
    fn named_set_panics_on_unknown_workload() {
        let mut spec = CampaignSpec::smoke();
        spec.workloads = WorkloadSet::Named(vec!["vectorsum".into()]);
        let _ = spec.materialize_workloads();
    }

    #[test]
    fn available_names_cover_both_suites() {
        let names = CampaignSpec::available_workload_names();
        assert_eq!(names.len(), 16 + 7);
        assert!(names.contains(&"a2time".to_string()));
        assert!(names.contains(&"vector_sum".to_string()));
    }

    /// Display → FromStr is the identity over every scheme variant,
    /// including the payload edge values (`speculate-flush0`, `u32::MAX`).
    #[test]
    fn scheme_display_from_str_round_trips_exhaustively() {
        let schemes = [
            EccScheme::NoEcc,
            EccScheme::ExtraCycle,
            EccScheme::ExtraStage,
            EccScheme::Laec,
            EccScheme::SpeculateFlush { flush_penalty: 0 },
            EccScheme::SpeculateFlush { flush_penalty: 6 },
            EccScheme::SpeculateFlush {
                flush_penalty: u32::MAX,
            },
        ];
        for scheme in schemes {
            assert_eq!(scheme.to_string().parse(), Ok(scheme));
        }
        assert_eq!(
            "speculate-flush0".parse::<EccScheme>(),
            Ok(EccScheme::SpeculateFlush { flush_penalty: 0 })
        );
        // The alias the CLI has always accepted.
        assert_eq!("noecc".parse::<EccScheme>(), Ok(EccScheme::NoEcc));
        for bogus in ["bogus", "", "speculate-flush", "speculate-flush-1", "LAEC"] {
            assert!(
                bogus.parse::<EccScheme>().is_err(),
                "`{bogus}` must not parse"
            );
        }
    }

    /// Display → FromStr is the identity over every platform variant,
    /// including the `contended0` payload edge.
    #[test]
    fn platform_display_from_str_round_trips_exhaustively() {
        for platform in PlatformVariant::label_test_set() {
            assert_eq!(platform.to_string().parse(), Ok(platform));
        }
        for bogus in ["bogus", "", "smp", "smp0", "smp9", "contended", "WB"] {
            assert!(
                bogus.parse::<PlatformVariant>().is_err(),
                "`{bogus}` must not parse"
            );
        }
    }

    /// `--platforms smp1` must parse and collapse to the uniprocessor
    /// exactly like `PlatformVariant::smp(1)` does.
    #[test]
    fn smp1_label_parses_and_collapses_to_write_back() {
        assert_eq!(
            "smp1".parse::<PlatformVariant>(),
            Ok(PlatformVariant::WriteBack)
        );
        assert_eq!(
            "smp1".parse::<PlatformVariant>().unwrap(),
            PlatformVariant::smp(1)
        );
    }
}
