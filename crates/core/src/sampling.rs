//! Statistical fault-campaign sampling: stratified Monte Carlo with online
//! confidence intervals, early stopping and checkpoint/resume.
//!
//! The grid engine in [`crate::campaign`] enumerates a *fixed* fault-seed
//! axis — 16 seeds per cell gives nowhere near the statistical power a
//! safety claim needs, and exhaustive enumeration cannot scale to
//! millions-of-injections campaigns.  This module turns each
//! workload × scheme × platform cell into a *stratum* and samples fault
//! injections from it instead:
//!
//! * every sample is one faulty run whose injection seed is a pure function
//!   of the spec seed, the stratum coordinates and the sample index — never
//!   of scheduling,
//! * per-stratum statistics are maintained online (Welford mean/variance
//!   for execution time, a Wilson score interval for the failure rate),
//! * a stratum stops early once its interval meets the requested
//!   confidence / relative-error bound, or when its sample budget is
//!   exhausted,
//! * each round evaluates a stratum's samples as seed overlays
//!   (`laec_mem::overlay`) that ride one fault-free run of the stratum, and
//!   simulates on its own only a sample that escapes its overlay;
//! * sampling composes with trace replay
//!   ([`SampleExecution::TraceBacked`]): each stratum's fault-free access
//!   stream is recorded once, and each round's fault-free run replays it
//!   instead of simulating it — with *identical* outcomes either way.
//!
//! # Determinism
//!
//! Reports are byte-identical for any worker count and any
//! checkpoint/resume split.  Samples are drawn in fixed-size *rounds*
//! (`batch` indices per active stratum); a round's jobs execute in
//! parallel, but results fold into the accumulators in sample-index order
//! and the stopping rule is evaluated only at round boundaries.  The
//! decision sequence is therefore a pure function of the spec and the
//! plan.
//!
//! # Checkpoint/resume
//!
//! [`Sampler::checkpoint`] serialises the campaign state (per-stratum
//! counters and accumulators; sample-index cursors are implicit in the
//! counters because seeds are index-derived) into a versioned binary
//! container, mirroring `laec_trace`'s format discipline: magic, version,
//! spec/plan fingerprint, payload, FNV-1a checksum.  Huge campaigns shard
//! across invocations: run some rounds, checkpoint, exit, resume later —
//! the final report byte-compares equal to an uninterrupted run.
//!
//! # Example
//!
//! ```
//! use laec_core::spec::{Campaign, CampaignBuilder};
//!
//! let validated = CampaignBuilder::smoke()
//!     .named_workloads(["vector_sum"])
//!     .fault_interval(500)
//!     .sampled(32)
//!     .min_samples(8)
//!     .batch(8)
//!     .validate()
//!     .expect("valid spec");
//! let outcome = Campaign::new(validated).run(2);
//! let report = outcome.sampled().expect("sampled mode");
//! assert!(report.strata.iter().all(|s| s.ci_low <= s.failure_rate));
//! ```

use std::path::PathBuf;

use laec_obs::{Obs, Phase, ProgressEvent};
use laec_trace::{varint, Trace};
use laec_workloads::Workload;
use serde::Serialize;

use crate::campaign::{mix64, run_pool, CampaignCell, CampaignSpec};
use crate::runner::{grid_triples, Cells, Origin, Served, Triple};
use crate::trace_backed::TraceBackedStats;

// ---------------------------------------------------------------------------
// Statistics primitives
// ---------------------------------------------------------------------------

/// Welford's online mean/variance accumulator.
///
/// Numerically stable, single pass, and — crucial for the determinism
/// guarantee — a pure function of the *sequence* of pushed values, which
/// the sampler keeps in sample-index order regardless of thread count.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Welford {
    count: u64,
    mean: f64,
    m2: f64,
}

impl Welford {
    /// Folds one observation into the accumulator.
    pub fn push(&mut self, value: f64) {
        self.count += 1;
        let delta = value - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (value - self.mean);
    }

    /// Number of observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Running mean (0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Unbiased sample variance (0 with fewer than two observations).
    #[must_use]
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Sample standard deviation.
    #[must_use]
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }
}

/// The standard-normal quantile function (inverse CDF), via Acklam's
/// rational approximation (absolute error < 1.2e-9 — far below anything a
/// Monte-Carlo interval can resolve).
///
/// # Panics
///
/// Panics unless `0 < p < 1`.
#[must_use]
pub fn normal_quantile(p: f64) -> f64 {
    assert!(p > 0.0 && p < 1.0, "quantile needs 0 < p < 1, got {p}");
    const A: [f64; 6] = [
        -3.969_683_028_665_376e1,
        2.209_460_984_245_205e2,
        -2.759_285_104_469_687e2,
        1.383_577_518_672_69e2,
        -3.066_479_806_614_716e1,
        2.506_628_277_459_239,
    ];
    const B: [f64; 5] = [
        -5.447_609_879_822_406e1,
        1.615_858_368_580_409e2,
        -1.556_989_798_598_866e2,
        6.680_131_188_771_972e1,
        -1.328_068_155_288_572e1,
    ];
    const C: [f64; 6] = [
        -7.784_894_002_430_293e-3,
        -3.223_964_580_411_365e-1,
        -2.400_758_277_161_838,
        -2.549_732_539_343_734,
        4.374_664_141_464_968,
        2.938_163_982_698_783,
    ];
    const D: [f64; 4] = [
        7.784_695_709_041_462e-3,
        3.224_671_290_700_398e-1,
        2.445_134_137_142_996,
        3.754_408_661_907_416,
    ];
    const P_LOW: f64 = 0.02425;

    if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    }
}

/// The Wilson score interval for a binomial proportion: `successes`
/// failures out of `trials` runs at critical value `z`.
///
/// Unlike the naive Wald interval it behaves sanely at the extremes the
/// fault campaigns actually live at (failure rates near 0 under SEC-DED,
/// near 1 under no-ECC): it never collapses to zero width at p̂ ∈ {0, 1}
/// and always stays inside [0, 1].  `trials == 0` returns the vacuous
/// interval `[0, 1]`.
#[must_use]
pub fn wilson_interval(successes: u64, trials: u64, z: f64) -> (f64, f64) {
    if trials == 0 {
        return (0.0, 1.0);
    }
    let n = trials as f64;
    let p = successes as f64 / n;
    let z2 = z * z;
    let denominator = 1.0 + z2 / n;
    let center = (p + z2 / (2.0 * n)) / denominator;
    let half = (z / denominator) * (p * (1.0 - p) / n + z2 / (4.0 * n * n)).sqrt();
    ((center - half).max(0.0), (center + half).min(1.0))
}

// ---------------------------------------------------------------------------
// Plan
// ---------------------------------------------------------------------------

/// The statistical contract of a sampled campaign: how many samples each
/// stratum may draw, and how tight its failure-rate interval must be
/// before it may stop early.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SamplingPlan {
    /// Per-stratum sample budget (hard cap).
    pub max_samples: u64,
    /// Samples each stratum must draw before the stopping rule is consulted
    /// (guards against a lucky first batch stopping a stratum at a wildly
    /// wrong estimate).
    pub min_samples: u64,
    /// Samples drawn per stratum per round — the determinism granularity:
    /// the stopping rule is evaluated only at multiples of this.
    pub batch: u64,
    /// Confidence level of the Wilson interval, e.g. `0.95`.
    pub confidence: f64,
    /// Target half-width of the interval, relative to the failure-rate
    /// estimate (with an absolute fallback of the same magnitude so
    /// zero-failure strata can converge; see [`SamplingPlan::converged`]).
    pub max_rel_error: f64,
}

/// A structurally invalid [`SamplingPlan`] — the typed currency shared by
/// [`SamplingPlan::check`] (and therefore [`SamplingPlan::validate`]) and
/// the spec layer's [`crate::spec::SpecError::InvalidPlan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanViolation {
    /// `max_samples` is 0 — no stratum could ever draw a sample.
    ZeroBudget,
    /// `batch` is 0 — rounds would never make progress.
    ZeroBatch,
    /// `confidence` is not strictly between 0 and 1.
    ConfidenceOutOfRange,
    /// `max_rel_error` is not a positive number.
    NonPositiveRelError,
}

impl std::fmt::Display for PlanViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanViolation::ZeroBudget => write!(f, "sample budget must be at least 1"),
            PlanViolation::ZeroBatch => write!(f, "batch size must be at least 1"),
            PlanViolation::ConfidenceOutOfRange => {
                write!(f, "confidence must be strictly between 0 and 1")
            }
            PlanViolation::NonPositiveRelError => {
                write!(f, "max relative error must be positive")
            }
        }
    }
}

impl std::error::Error for PlanViolation {}

impl SamplingPlan {
    /// A plan with the default statistical knobs (95 % confidence, 5 %
    /// relative error, batches of 16, at least 32 samples) and the given
    /// per-stratum budget.
    #[must_use]
    pub fn new(max_samples: u64) -> Self {
        SamplingPlan {
            max_samples,
            min_samples: 32,
            batch: 16,
            confidence: 0.95,
            max_rel_error: 0.05,
        }
    }

    /// Checks the plan's structural invariants, typed.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant as a [`PlanViolation`].
    pub fn check(&self) -> Result<(), PlanViolation> {
        if self.max_samples == 0 {
            return Err(PlanViolation::ZeroBudget);
        }
        if self.batch == 0 {
            return Err(PlanViolation::ZeroBatch);
        }
        if !(self.confidence > 0.0 && self.confidence < 1.0) {
            return Err(PlanViolation::ConfidenceOutOfRange);
        }
        // `<=` alone would wave NaN through; spell the check as the
        // negation so NaN is rejected too.
        if self.max_rel_error.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
            return Err(PlanViolation::NonPositiveRelError);
        }
        Ok(())
    }

    /// [`SamplingPlan::check`], rendered as a human-readable complaint for
    /// the CLI to surface (with the offending value appended where one
    /// exists).  Both validators share [`SamplingPlan::check`], so they can
    /// never drift.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        self.check().map_err(|violation| match violation {
            PlanViolation::ConfidenceOutOfRange => {
                format!("{violation}, got {}", self.confidence)
            }
            PlanViolation::NonPositiveRelError => {
                format!("{violation}, got {}", self.max_rel_error)
            }
            other => other.to_string(),
        })
    }

    /// The critical value of the plan's confidence level.
    #[must_use]
    pub fn z(&self) -> f64 {
        normal_quantile((1.0 + self.confidence) / 2.0)
    }

    /// The early-stopping rule: with `failures` out of `taken` samples, is
    /// the Wilson interval tight enough?  Tight means half-width ≤
    /// `max_rel_error` × p̂; for *zero-failure* strata — whose relative
    /// target is unreachable at p̂ = 0 — the bound applies absolutely
    /// instead.  The fallback is restricted to `failures == 0`: a blanket
    /// absolute disjunct would subsume the relative test (p̂ ≤ 1 makes
    /// `half ≤ e·p̂` imply `half ≤ e`) and void the relative-precision
    /// contract for small non-zero rates.
    #[must_use]
    pub fn converged(&self, failures: u64, taken: u64) -> bool {
        if taken < self.min_samples {
            return false;
        }
        let (low, high) = wilson_interval(failures, taken, self.z());
        let half = (high - low) / 2.0;
        let rate = failures as f64 / taken as f64;
        half <= self.max_rel_error * rate || (failures == 0 && half <= self.max_rel_error)
    }
}

// ---------------------------------------------------------------------------
// Execution mode
// ---------------------------------------------------------------------------

/// How the fault-free runs that carry a campaign's samples (or, in an
/// exhaustive grid, its fault axis) as seed overlays are driven.  Either
/// way a seed that escapes its overlay is simulated on its own, and the
/// report is byte-identical.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub enum SampleExecution {
    /// Every fault-free run is a full pipeline + memory simulation.
    #[default]
    FullSim,
    /// Each stratum's fault-free run is recorded once (or loaded from
    /// `cache_dir`), and each sampling round replays the recording,
    /// carrying the round's samples.  An exhaustive grid under
    /// [`crate::spec::ExecutionMode::TraceBacked`] replays a triple's
    /// recording from `cache_dir`, carrying its fault axis, and simulates
    /// when there is no cache.
    TraceBacked {
        /// Persist/reuse recordings under this directory.
        cache_dir: Option<PathBuf>,
    },
}

// ---------------------------------------------------------------------------
// Internal state
// ---------------------------------------------------------------------------

/// What the fault-free reference run of a stratum established.
#[derive(Debug, Clone, Copy)]
struct Baseline {
    cycles: u64,
    registers_fingerprint: u64,
    memory_checksum: u64,
}

impl From<&CampaignCell> for Baseline {
    fn from(cell: &CampaignCell) -> Self {
        Baseline {
            cycles: cell.cycles,
            registers_fingerprint: cell.registers_fingerprint,
            memory_checksum: cell.memory_checksum,
        }
    }
}

/// Per-stratum accumulators — exactly the state a checkpoint persists.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct StratumStats {
    taken: u64,
    failures: u64,
    unrecoverable_runs: u64,
    silent_corruptions: u64,
    detected_runs: u64,
    faults_injected: u64,
    faults_corrected: u64,
    cycles: Welford,
    converged: bool,
}

/// What one sample run reports back for aggregation.
#[derive(Debug, Clone, Copy)]
struct SampleOutcome {
    cycles: u64,
    unrecoverable_errors: u64,
    detected_uncorrectable: u64,
    faults_injected: u64,
    faults_corrected: u64,
    registers_fingerprint: u64,
    memory_checksum: u64,
}

impl From<&CampaignCell> for SampleOutcome {
    fn from(cell: &CampaignCell) -> Self {
        SampleOutcome {
            cycles: cell.cycles,
            unrecoverable_errors: cell.unrecoverable_errors,
            detected_uncorrectable: cell.faults_detected_uncorrectable,
            faults_injected: cell.faults_injected,
            faults_corrected: cell.faults_corrected,
            registers_fingerprint: cell.registers_fingerprint,
            memory_checksum: cell.memory_checksum,
        }
    }
}

/// One sample of a round after its stratum's overlay run: its injection
/// seed, and what the fold reads of its cell when its overlay served it.
type Carried = (u64, Result<SampleOutcome, Served>);

impl StratumStats {
    /// Folds one outcome in.  A sample *fails* when dirty data was lost
    /// (unrecoverable) or the final architectural state silently diverged
    /// from the fault-free reference — the two ways an upset defeats the
    /// paper's safety argument.
    fn absorb(&mut self, baseline: &Baseline, outcome: &SampleOutcome) {
        self.taken += 1;
        self.faults_injected += outcome.faults_injected;
        self.faults_corrected += outcome.faults_corrected;
        let unrecoverable = outcome.unrecoverable_errors > 0;
        let silent = !unrecoverable
            && (outcome.registers_fingerprint != baseline.registers_fingerprint
                || outcome.memory_checksum != baseline.memory_checksum);
        self.unrecoverable_runs += u64::from(unrecoverable);
        self.silent_corruptions += u64::from(silent);
        self.detected_runs += u64::from(outcome.detected_uncorrectable > 0);
        self.failures += u64::from(unrecoverable || silent);
        self.cycles.push(outcome.cycles as f64);
    }
}

/// Salt decorrelating sample-injection seeds from the fixed fault axis of
/// [`crate::campaign::grid_injection_seed`] (a sampled campaign must not
/// accidentally re-draw the exhaustive grid's seeds).
const SAMPLE_SALT: u64 = 0x51A7_1571_CA15_AB1E;

/// The injection seed of sample `index` of `triple`'s stratum: a pure
/// function of the spec seed, the stratum's grid coordinates and the index
/// — never of scheduling, thread count or checkpoint splits.
#[must_use]
pub(crate) fn sample_injection_seed(spec: &CampaignSpec, triple: Triple, index: u64) -> u64 {
    mix64(
        mix64(
            spec.seed
                ^ SAMPLE_SALT
                ^ ((triple.workload as u64) << 40)
                ^ ((triple.scheme as u64) << 20)
                ^ (triple.platform as u64),
        ) ^ index,
    )
}

// ---------------------------------------------------------------------------
// Checkpoint container
// ---------------------------------------------------------------------------

/// Current checkpoint format version; readers accept exactly this version.
///
/// v2 widened the identity fingerprint from 64-bit FNV-1a to the 128-bit
/// content hash of [`crate::fingerprint::hash128`] (shared with the fleet
/// result store).  v1 checkpoints are rejected with
/// [`CheckpointError::UnsupportedVersion`] — the identity function changed,
/// so a v1 fingerprint can never be checked against a v2 spec.
pub const CHECKPOINT_VERSION: u64 = 2;

const CHECKPOINT_MAGIC: &[u8; 8] = b"LAECSMP\0";

/// Why a checkpoint could not be decoded or applied.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// The file does not start with the checkpoint magic.
    BadMagic,
    /// The file was written by a different format version.
    UnsupportedVersion(u64),
    /// The file ended before the structure it promised.
    Truncated,
    /// The payload checksum did not match (bit rot / partial write).
    ChecksumMismatch,
    /// The checkpoint was taken under a different spec or plan.
    SpecMismatch,
    /// A structurally invalid field.
    Corrupt(&'static str),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::BadMagic => write!(f, "not a sampler checkpoint (bad magic)"),
            CheckpointError::UnsupportedVersion(version) => {
                write!(f, "unsupported checkpoint format version {version}")
            }
            CheckpointError::Truncated => write!(f, "truncated checkpoint"),
            CheckpointError::ChecksumMismatch => write!(f, "checkpoint checksum mismatch"),
            CheckpointError::SpecMismatch => write!(
                f,
                "checkpoint belongs to a different campaign spec or sampling plan"
            ),
            CheckpointError::Corrupt(what) => write!(f, "corrupt checkpoint: {what}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

/// A serialisable snapshot of a sampled campaign's progress.
///
/// Holds per-stratum counters and accumulators only: injection seeds are
/// derived from sample indices, so the counters double as RNG cursors, and
/// baselines/traces are recomputed deterministically on resume.
#[derive(Debug, Clone, PartialEq)]
pub struct SamplerCheckpoint {
    /// Fingerprint of the spec + plan the snapshot belongs to.
    pub fingerprint: u128,
    strata: Vec<StratumStats>,
}

/// Fingerprint binding a checkpoint to its spec and plan: resuming under a
/// different grid, seed or statistical contract is rejected up front.
#[must_use]
pub fn sampler_fingerprint(spec: &CampaignSpec, plan: &SamplingPlan) -> u128 {
    let description = format!("laec-sampler-v{CHECKPOINT_VERSION}|{spec:?}|{plan:?}");
    crate::fingerprint::hash128(description.as_bytes())
}

impl SamplerCheckpoint {
    /// Serialises the snapshot into its binary container.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64 + self.strata.len() * 64);
        out.extend_from_slice(CHECKPOINT_MAGIC);
        varint::write_u64(&mut out, CHECKPOINT_VERSION);
        out.extend_from_slice(&self.fingerprint.to_le_bytes());
        varint::write_u64(&mut out, self.strata.len() as u64);
        for stratum in &self.strata {
            varint::write_u64(&mut out, stratum.taken);
            varint::write_u64(&mut out, stratum.failures);
            varint::write_u64(&mut out, stratum.unrecoverable_runs);
            varint::write_u64(&mut out, stratum.silent_corruptions);
            varint::write_u64(&mut out, stratum.detected_runs);
            varint::write_u64(&mut out, stratum.faults_injected);
            varint::write_u64(&mut out, stratum.faults_corrected);
            out.push(u8::from(stratum.converged));
            varint::write_u64(&mut out, stratum.cycles.count);
            out.extend_from_slice(&stratum.cycles.mean.to_bits().to_le_bytes());
            out.extend_from_slice(&stratum.cycles.m2.to_bits().to_le_bytes());
        }
        let checksum = crate::campaign::fnv1a(out.iter().copied());
        out.extend_from_slice(&checksum.to_le_bytes());
        out
    }

    /// Parses a binary container.
    ///
    /// # Errors
    ///
    /// Returns a [`CheckpointError`] when the bytes are not a checkpoint,
    /// were written by a different format version, are truncated, or fail
    /// the checksum.
    pub fn decode(bytes: &[u8]) -> Result<SamplerCheckpoint, CheckpointError> {
        if bytes.len() < CHECKPOINT_MAGIC.len()
            || &bytes[..CHECKPOINT_MAGIC.len()] != CHECKPOINT_MAGIC
        {
            return Err(CheckpointError::BadMagic);
        }
        if bytes.len() < CHECKPOINT_MAGIC.len() + 8 {
            return Err(CheckpointError::Truncated);
        }
        let body_end = bytes.len() - 8;
        let mut stored = [0u8; 8];
        stored.copy_from_slice(&bytes[body_end..]);
        if u64::from_le_bytes(stored) != crate::campaign::fnv1a(bytes[..body_end].iter().copied()) {
            return Err(CheckpointError::ChecksumMismatch);
        }
        let body = &bytes[..body_end];
        let mut cursor = CHECKPOINT_MAGIC.len();
        let read =
            |cursor: &mut usize| varint::read_u64(body, cursor).ok_or(CheckpointError::Truncated);
        let version = read(&mut cursor)?;
        if version != CHECKPOINT_VERSION {
            return Err(CheckpointError::UnsupportedVersion(version));
        }
        let fingerprint = read_u128_le(body, &mut cursor)?;
        let count = read(&mut cursor)?;
        let mut strata = Vec::new();
        for _ in 0..count {
            let taken = read(&mut cursor)?;
            let failures = read(&mut cursor)?;
            let unrecoverable_runs = read(&mut cursor)?;
            let silent_corruptions = read(&mut cursor)?;
            let detected_runs = read(&mut cursor)?;
            let faults_injected = read(&mut cursor)?;
            let faults_corrected = read(&mut cursor)?;
            let converged = match body.get(cursor).copied() {
                Some(0) => false,
                Some(1) => true,
                Some(_) => return Err(CheckpointError::Corrupt("converged flag")),
                None => return Err(CheckpointError::Truncated),
            };
            cursor += 1;
            let cycle_count = read(&mut cursor)?;
            let mean = f64::from_bits(read_u64_le(body, &mut cursor)?);
            let m2 = f64::from_bits(read_u64_le(body, &mut cursor)?);
            if cycle_count != taken {
                return Err(CheckpointError::Corrupt("accumulator count"));
            }
            strata.push(StratumStats {
                taken,
                failures,
                unrecoverable_runs,
                silent_corruptions,
                detected_runs,
                faults_injected,
                faults_corrected,
                cycles: Welford {
                    count: cycle_count,
                    mean,
                    m2,
                },
                converged,
            });
        }
        if cursor != body.len() {
            return Err(CheckpointError::Corrupt("trailing bytes"));
        }
        Ok(SamplerCheckpoint {
            fingerprint,
            strata,
        })
    }

    /// An all-zero aggregate over `strata` strata — the merge-on-arrival
    /// accumulator fleet sharding folds shard checkpoints into.
    #[must_use]
    pub fn empty(fingerprint: u128, strata: usize) -> SamplerCheckpoint {
        SamplerCheckpoint {
            fingerprint,
            strata: vec![StratumStats::default(); strata],
        }
    }

    /// Overlays `shard`'s progress onto this aggregate.
    ///
    /// Shards must partition the strata: a stratum may carry samples in at
    /// most one merged shard.  Because per-stratum injection seeds are pure
    /// functions of (spec seed, stratum coordinates, sample index), the
    /// union of disjoint shard checkpoints is exactly the checkpoint an
    /// uninterrupted run would have produced — the property that keeps
    /// fleet-sharded reports byte-identical to single-process runs.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::SpecMismatch`] when the fingerprints differ,
    /// [`CheckpointError::Corrupt`] on a strata-length mismatch or when a
    /// stratum carries samples on both sides (overlapping shards).
    pub fn merge_shard(&mut self, shard: &SamplerCheckpoint) -> Result<(), CheckpointError> {
        fn occupied(stats: &StratumStats) -> bool {
            stats.taken > 0 || stats.converged
        }
        if shard.fingerprint != self.fingerprint {
            return Err(CheckpointError::SpecMismatch);
        }
        if shard.strata.len() != self.strata.len() {
            return Err(CheckpointError::Corrupt("shard strata length"));
        }
        if self
            .strata
            .iter()
            .zip(&shard.strata)
            .any(|(mine, theirs)| occupied(mine) && occupied(theirs))
        {
            return Err(CheckpointError::Corrupt("overlapping shard strata"));
        }
        for (mine, theirs) in self.strata.iter_mut().zip(&shard.strata) {
            if occupied(theirs) {
                *mine = *theirs;
            }
        }
        Ok(())
    }

    /// Strata (out of the grid total) that carry progress — fleet servers
    /// use this to tell a complete aggregate from one still missing shards.
    #[must_use]
    pub fn occupied_strata(&self) -> usize {
        self.strata
            .iter()
            .filter(|stats| stats.taken > 0 || stats.converged)
            .count()
    }

    /// Total strata the container describes.
    #[must_use]
    pub fn strata_len(&self) -> usize {
        self.strata.len()
    }
}

fn read_u128_le(bytes: &[u8], cursor: &mut usize) -> Result<u128, CheckpointError> {
    let end = cursor
        .checked_add(16)
        .filter(|&end| end <= bytes.len())
        .ok_or(CheckpointError::Truncated)?;
    let mut raw = [0u8; 16];
    raw.copy_from_slice(&bytes[*cursor..end]);
    *cursor = end;
    Ok(u128::from_le_bytes(raw))
}

fn read_u64_le(bytes: &[u8], cursor: &mut usize) -> Result<u64, CheckpointError> {
    let end = cursor
        .checked_add(8)
        .filter(|&end| end <= bytes.len())
        .ok_or(CheckpointError::Truncated)?;
    let mut raw = [0u8; 8];
    raw.copy_from_slice(&bytes[*cursor..end]);
    *cursor = end;
    Ok(u64::from_le_bytes(raw))
}

// ---------------------------------------------------------------------------
// Report types
// ---------------------------------------------------------------------------

/// The estimate one stratum converged to (or ran out of budget on).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct StratumEstimate {
    /// Workload name.
    pub workload: String,
    /// Scheme label.
    pub scheme: String,
    /// Platform label.
    pub platform: String,
    /// Samples drawn.
    pub samples: u64,
    /// `true` if the stopping rule (not the budget) ended the stratum.
    pub converged: bool,
    /// Failed runs (unrecoverable or silently corrupted).
    pub failures: u64,
    /// Point estimate of the failure probability per run.
    pub failure_rate: f64,
    /// Lower bound of the Wilson score interval at the plan's confidence.
    pub ci_low: f64,
    /// Upper bound of the Wilson score interval at the plan's confidence.
    pub ci_high: f64,
    /// Runs that lost dirty data outright.
    pub unrecoverable_runs: u64,
    /// Runs whose final state silently diverged from the fault-free
    /// reference (undetected corruption).
    pub silent_corruptions: u64,
    /// Runs with at least one detected-but-uncorrectable DL1 event.
    pub detected_runs: u64,
    /// Faults injected across all samples.
    pub faults_injected: u64,
    /// Faults corrected by the DL1's code across all samples.
    pub faults_corrected: u64,
    /// Cycles of the stratum's fault-free reference run.
    pub baseline_cycles: u64,
    /// Mean cycles across the faulty samples.
    pub mean_cycles: f64,
    /// Sample standard deviation of the cycles.
    pub cycles_std: f64,
    /// Mean faulty-run execution time normalised to the stratum's own
    /// fault-free run (fault-handling overhead: refetches, flush
    /// penalties…); `None` when the reference ran zero cycles.
    pub mean_slowdown: Option<f64>,
}

/// The aggregated result of one sampled campaign.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SampledReport {
    /// Master seed the campaign ran under.
    pub seed: u64,
    /// Mean injection opportunities between upsets on each sampled run.
    pub fault_interval: u64,
    /// Confidence level of every interval in the report.
    pub confidence: f64,
    /// The plan's target relative half-width.
    pub max_rel_error: f64,
    /// Determinism granularity (samples per stratum per round).
    pub batch: u64,
    /// Samples each stratum drew before consulting the stopping rule.
    pub min_samples: u64,
    /// Per-stratum budget.
    pub max_samples: u64,
    /// Workload axis, in grid order.
    pub workloads: Vec<String>,
    /// Scheme axis labels, in grid order.
    pub schemes: Vec<String>,
    /// Platform axis labels, in grid order.
    pub platforms: Vec<String>,
    /// Samples drawn across all strata.
    pub total_samples: u64,
    /// Strata ended by the stopping rule rather than the budget.
    pub converged_strata: u64,
    /// Strata whose fault-free reference ran zero cycles (their
    /// `mean_slowdown` is `None`).
    pub degenerate_baselines: u64,
    /// One estimate per workload × platform × scheme stratum, grid order.
    pub strata: Vec<StratumEstimate>,
}

impl SampledReport {
    /// `true` if every stratum converged inside its budget.
    #[must_use]
    pub fn all_converged(&self) -> bool {
        self.strata.iter().all(|s| s.converged)
    }

    /// Serialises the report as pretty-printed JSON — byte-identical for
    /// any worker count and any checkpoint/resume split.
    #[must_use]
    pub fn to_json(&self) -> String {
        // laec-lint: allow(panic-in-library) -- serialization of an in-memory
        // report is infallible; the Result exists only because serde's API is
        // generic over writers.
        serde_json::to_string_pretty(self).expect("sampled report serializes")
    }
}

/// Renders a sampled report as aligned text.
#[must_use]
pub fn render_sampled(report: &SampledReport) -> String {
    use std::fmt::Write as _;

    let mut out = String::new();
    let _ = writeln!(
        out,
        "Sampled campaign: {} strata, budget {} samples/stratum (batch {}, min {}), \
         {:.1}% confidence, target rel. error {:.1}%, fault interval {}, seed {:#x}",
        report.strata.len(),
        report.max_samples,
        report.batch,
        report.min_samples,
        100.0 * report.confidence,
        100.0 * report.max_rel_error,
        report.fault_interval,
        report.seed,
    );
    let _ = writeln!(
        out,
        "\n{:<16} {:<12} {:<16} {:>8} {:>5} {:>9} {:>9} {:>19} {:>9}",
        "workload", "platform", "scheme", "samples", "conv", "failures", "rate", "CI", "slowdown"
    );
    for stratum in &report.strata {
        let _ = write!(
            out,
            "{:<16} {:<12} {:<16} {:>8} {:>5} {:>9} {:>9.4} [{:.4}, {:.4}]",
            stratum.workload,
            stratum.platform,
            stratum.scheme,
            stratum.samples,
            if stratum.converged { "yes" } else { "no" },
            stratum.failures,
            stratum.failure_rate,
            stratum.ci_low,
            stratum.ci_high,
        );
        match stratum.mean_slowdown {
            Some(slowdown) => {
                let _ = writeln!(out, " {slowdown:>9.4}");
            }
            None => {
                let _ = writeln!(out, " {:>9}", "-");
            }
        }
    }
    let injected: u64 = report.strata.iter().map(|s| s.faults_injected).sum();
    let corrected: u64 = report.strata.iter().map(|s| s.faults_corrected).sum();
    let _ = writeln!(
        out,
        "\ntotals: {} samples, {}/{} strata converged; faults: {} injected, {} corrected",
        report.total_samples,
        report.converged_strata,
        report.strata.len(),
        injected,
        corrected,
    );
    if report.degenerate_baselines > 0 {
        let _ = writeln!(
            out,
            "WARNING: {} stratum/strata had a zero-cycle fault-free reference; \
             their slowdowns are reported as '-'",
            report.degenerate_baselines,
        );
    }
    out
}

// ---------------------------------------------------------------------------
// The sampler
// ---------------------------------------------------------------------------

/// A stratified Monte-Carlo fault campaign in progress.
///
/// Owns the materialised grid, the fault-free references (and, in
/// trace-backed mode, the recordings its rounds replay), and the
/// per-stratum accumulators.
/// Drive it with [`Sampler::run_rounds`]; snapshot it with
/// [`Sampler::checkpoint`]; read the result with [`Sampler::report`].
#[derive(Debug)]
pub struct Sampler {
    spec: CampaignSpec,
    plan: SamplingPlan,
    workloads: Vec<Workload>,
    strata: Vec<Triple>,
    baselines: Vec<Baseline>,
    /// Each stratum's recording, in trace-backed mode, when its rounds
    /// carry overlays.
    recordings: Vec<Option<Trace>>,
    states: Vec<StratumStats>,
    trace_stats: TraceBackedStats,
    /// Grid index of `strata[0]` — non-zero only for restricted samplers.
    first_stratum: usize,
    /// Strata in the whole grid (checkpoints always span the full grid).
    grid_strata: usize,
    /// Instrumentation handle; disabled unless [`Sampler::attach_obs`] ran.
    obs: Obs,
}

/// Strata a sampled campaign over `spec` stratifies into (workload ×
/// platform × scheme), without materialising any workload.  This is the
/// length of every checkpoint over the spec and the index space
/// [`Sampler::new_restricted`] restricts.
#[must_use]
pub fn stratum_count(spec: &CampaignSpec) -> usize {
    spec.workload_count() * spec.platforms.len() * spec.schemes.len()
}

impl Sampler {
    /// Prepares a fresh sampled campaign: materialises the workload axis
    /// and runs every stratum's fault-free reference (recording it in
    /// trace-backed mode) on `threads` workers (`0` = all cores).
    ///
    /// # Panics
    ///
    /// Panics on an invalid plan (see [`SamplingPlan::validate`]) or an
    /// unknown workload name, and if a worker thread panics.
    #[must_use]
    pub fn new(
        spec: &CampaignSpec,
        plan: &SamplingPlan,
        execution: &SampleExecution,
        threads: usize,
    ) -> Self {
        Sampler::new_restricted(spec, plan, execution, threads, 0..stratum_count(spec))
    }

    /// [`Sampler::new`] restricted to the strata whose grid indices fall in
    /// `range` — the unit of fleet sharding.
    ///
    /// Only the in-range strata are baselined (and recorded, in
    /// trace-backed mode) and sampled; [`Sampler::checkpoint`] still spans
    /// the full grid, with out-of-range strata left at zero, so disjoint
    /// restricted checkpoints can be
    /// [merged](SamplerCheckpoint::merge_shard) into the checkpoint of an
    /// uninterrupted run.  Per-stratum injection seeds depend only on
    /// absolute grid coordinates, never on the restriction.
    ///
    /// # Panics
    ///
    /// As [`Sampler::new`]; additionally if `range` falls outside the
    /// grid's `0..stratum_count(spec)`.
    #[must_use]
    pub fn new_restricted(
        spec: &CampaignSpec,
        plan: &SamplingPlan,
        execution: &SampleExecution,
        threads: usize,
        range: std::ops::Range<usize>,
    ) -> Self {
        // laec-lint: allow(panic-in-library) -- documented precondition: the
        // unified dispatch (`Campaign::run`) only constructs samplers from
        // specs whose plan already passed `SamplingPlan::validate`.
        plan.validate().expect("valid sampling plan");
        assert!(
            spec.platforms.iter().all(|p| p.cores() == 1),
            "sampled campaigns do not support multi-core (smpN) platforms yet"
        );
        let workloads = spec.materialize_workloads();

        // Strata are the grid's triples, in grid order.
        let strata = grid_triples(spec, workloads.len());
        let grid_strata = strata.len();
        assert!(
            range.start <= range.end && range.end <= grid_strata,
            "stratum range {range:?} outside grid of {grid_strata}"
        );
        let first_stratum = range.start;
        let strata = strata[range].to_vec();

        let states = vec![StratumStats::default(); strata.len()];
        let mut sampler = Sampler {
            spec: spec.clone(),
            plan: *plan,
            workloads,
            strata,
            baselines: Vec::new(),
            recordings: Vec::new(),
            states,
            trace_stats: TraceBackedStats::default(),
            first_stratum,
            grid_strata,
            obs: Obs::disabled(),
        };
        // Trace-backed, a stratum's recording is kept when its rounds will
        // replay it, carrying their samples as overlays.
        let cells = sampler.cells();
        let fault_free = run_pool(sampler.strata.len(), threads, |index| {
            let triple = sampler.strata[index];
            cells.fault_free(triple, execution, &[], cells.carries_overlays())
        });
        for fault_free in fault_free {
            sampler.trace_stats.count_fault_free(fault_free.origin);
            sampler.baselines.push(Baseline::from(&fault_free.cell));
            sampler.recordings.push(fault_free.recording);
        }
        sampler
    }

    /// Attaches an instrumentation handle: subsequent rounds record
    /// [`Phase::SamplerRound`] spans and stream per-stratum convergence
    /// events through it.  Observation never touches sampling results.
    pub fn attach_obs(&mut self, obs: &Obs) {
        self.obs = obs.clone();
    }

    /// [`Sampler::new`], then overlays the progress recorded in
    /// `checkpoint`.
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::SpecMismatch`] when the checkpoint was
    /// taken under a different spec/plan, or
    /// [`CheckpointError::Corrupt`] when its stratum count disagrees with
    /// the grid.
    ///
    /// # Panics
    ///
    /// As [`Sampler::new`].
    pub fn restore(
        spec: &CampaignSpec,
        plan: &SamplingPlan,
        execution: &SampleExecution,
        threads: usize,
        checkpoint: &SamplerCheckpoint,
    ) -> Result<Self, CheckpointError> {
        if checkpoint.fingerprint != sampler_fingerprint(spec, plan) {
            return Err(CheckpointError::SpecMismatch);
        }
        let mut sampler = Sampler::new(spec, plan, execution, threads);
        if checkpoint.strata.len() != sampler.states.len() {
            return Err(CheckpointError::Corrupt("stratum count"));
        }
        sampler.states.clone_from(&checkpoint.strata);
        Ok(sampler)
    }

    /// Snapshots the campaign's progress for [`Sampler::restore`].
    ///
    /// Always spans the full grid: a restricted sampler reports zeros for
    /// the strata outside its range, so its snapshot drops straight into
    /// [`SamplerCheckpoint::merge_shard`].
    #[must_use]
    pub fn checkpoint(&self) -> SamplerCheckpoint {
        let mut strata = vec![StratumStats::default(); self.grid_strata];
        strata[self.first_stratum..self.first_stratum + self.states.len()]
            .copy_from_slice(&self.states);
        SamplerCheckpoint {
            fingerprint: sampler_fingerprint(&self.spec, &self.plan),
            strata,
        }
    }

    /// `true` once every stratum has converged or exhausted its budget.
    #[must_use]
    pub fn complete(&self) -> bool {
        self.states
            .iter()
            .all(|s| s.converged || s.taken >= self.plan.max_samples)
    }

    /// Record and replay counters, and the overlay split of every sample
    /// (reported only in trace-backed mode).
    #[must_use]
    pub fn trace_stats(&self) -> TraceBackedStats {
        self.trace_stats.clone()
    }

    /// Runs sampling rounds on `threads` workers (`0` = all cores) until
    /// the campaign completes or `max_rounds` rounds have run, whichever
    /// comes first.  Returns [`Sampler::complete`].
    ///
    /// Each round draws up to [`SamplingPlan::batch`] samples from every
    /// still-active stratum: one fault-free run carries them as seed
    /// overlays, and a sample that escapes is simulated on its own.  The
    /// strata's overlay runs run in parallel, then the samples' own
    /// simulations, one job each, but samples fold into the accumulators in
    /// sample-index order, and the stopping rule is evaluated only after the
    /// whole round has folded — the source of the any-thread-count /
    /// any-split byte-identity guarantee.
    ///
    /// # Panics
    ///
    /// Panics if a worker thread panics.
    pub fn run_rounds(&mut self, threads: usize, max_rounds: Option<u64>) -> bool {
        let mut rounds = 0u64;
        loop {
            // Each active stratum with the first sample index and the
            // number of samples it draws this round.
            let mut draws: Vec<(usize, u64, u64)> = Vec::new();
            for (stratum, state) in self.states.iter().enumerate() {
                if state.converged || state.taken >= self.plan.max_samples {
                    continue;
                }
                let draw = self.plan.batch.min(self.plan.max_samples - state.taken);
                draws.push((stratum, state.taken, draw));
            }
            if draws.is_empty() {
                return true;
            }
            if max_rounds.is_some_and(|max| rounds >= max) {
                return false;
            }
            let round_span = self.obs.span(Phase::SamplerRound);
            // One job per active stratum: one fault-free run carries its
            // samples as overlays.
            let carried = run_pool(draws.len(), threads, |index| {
                let (stratum, first, draw) = draws[index];
                self.carry_samples(stratum, first..first + draw)
            });
            // One job per sample, in fold order: a sample its overlay did
            // not serve is simulated on its own.
            let strata = &self.strata;
            let round: Vec<(Triple, &Carried)> = draws
                .iter()
                .zip(&carried)
                .flat_map(|(&(stratum, _, _), (_, samples))| {
                    samples.iter().map(move |sample| (strata[stratum], sample))
                })
                .collect();
            let cells = self.cells();
            let outcomes = run_pool(round.len(), threads, |index| match round[index] {
                (_, (_, Ok(outcome))) => *outcome,
                (triple, &(seed, Err(_))) => {
                    SampleOutcome::from(&cells.faulty(triple, seed, None).0)
                }
            });
            let mut outcomes = outcomes.into_iter();
            for (&(stratum, _, _), (origin, samples)) in draws.iter().zip(&carried) {
                let scheme = self.spec.schemes[self.strata[stratum].scheme];
                for ((_, served), outcome) in samples.iter().zip(outcomes.by_ref()) {
                    self.states[stratum].absorb(&self.baselines[stratum], &outcome);
                    let served = served.as_ref().err().unwrap_or(&Served::Overlay);
                    if let Some(origin) = *origin {
                        self.trace_stats.count_faulty(scheme, origin, served);
                    }
                }
            }
            for state in &mut self.states {
                if !state.converged {
                    state.converged = self.plan.converged(state.failures, state.taken);
                }
            }
            drop(round_span);
            if self.obs.is_enabled() {
                self.emit_round_events(draws.iter().map(|&(stratum, _, _)| stratum));
            }
            rounds += 1;
        }
    }

    /// Streams one convergence event per stratum that drew samples this
    /// round.  The round number is derived from the samples taken
    /// (`ceil(taken / batch)`), so it continues correctly across
    /// checkpoint/resume splits — rounds are not persisted.
    fn emit_round_events(&self, touched: impl Iterator<Item = usize>) {
        let z = self.plan.z();
        for stratum in touched {
            let state = &self.states[stratum];
            let triple = self.strata[stratum];
            let (ci_low, ci_high) = wilson_interval(state.failures, state.taken, z);
            self.obs.emit(&ProgressEvent::Round {
                round: state.taken.div_ceil(self.plan.batch),
                workload: &self.workloads[triple.workload].name,
                scheme: &self.spec.schemes[triple.scheme].to_string(),
                platform: &self.spec.platforms[triple.platform].to_string(),
                samples: state.taken,
                failures: state.failures,
                ci_low,
                ci_high,
                width: ci_high - ci_low,
                converged: state.converged,
            });
        }
    }

    /// The cell functions of this campaign's samples.
    fn cells(&self) -> Cells<'_> {
        Cells {
            spec: &self.spec,
            workloads: &self.workloads,
            forensic: false,
            obs: &self.obs,
        }
    }

    /// Draws the samples of `stratum` with indices `samples` and carries
    /// them as seed overlays on one fault-free run of the stratum: a replay
    /// of its recording in trace-backed mode, a simulation otherwise.
    /// Returns the run's origin (`None` when the stratum carries no
    /// overlays) and, in index order, each sample's injection seed with what
    /// the fold reads of its cell when its overlay served it, or how it must
    /// be served otherwise: simulated on its own, by
    /// [`Sampler::run_rounds`].
    fn carry_samples(
        &self,
        stratum: usize,
        samples: std::ops::Range<u64>,
    ) -> (Option<Origin>, Vec<Carried>) {
        let triple = self.strata[stratum];
        let cells = self.cells();
        let seeds: Vec<u64> = samples
            .map(|sample| sample_injection_seed(&self.spec, triple, sample))
            .collect();
        let recording = self.recordings[stratum].as_ref();
        let fault_free = cells
            .carries_overlays()
            .then(|| cells.overlay_run(triple, recording, &seeds));
        let carried = seeds.iter().enumerate().map(|(index, &seed)| {
            let served = fault_free
                .as_ref()
                .map_or(Err(Served::Simulated), |run| run.served(index, None));
            (seed, served.map(|cell| SampleOutcome::from(&cell)))
        });
        let carried = carried.collect();
        (fault_free.map(|run| run.origin), carried)
    }

    /// Builds the report from the current accumulators.  Valid at any
    /// point (partial progress simply reports wider intervals and
    /// `converged: false`); byte-identical across thread counts and
    /// checkpoint splits once [`Sampler::complete`] holds.
    #[must_use]
    pub fn report(&self) -> SampledReport {
        let z = self.plan.z();
        let mut estimates = Vec::with_capacity(self.strata.len());
        let mut total_samples = 0;
        let mut converged_strata = 0;
        let mut degenerate_baselines = 0;
        for (index, triple) in self.strata.iter().enumerate() {
            let state = &self.states[index];
            let baseline = &self.baselines[index];
            let (ci_low, ci_high) = wilson_interval(state.failures, state.taken, z);
            let failure_rate = if state.taken == 0 {
                0.0
            } else {
                state.failures as f64 / state.taken as f64
            };
            // Gated on taken as well: an unsampled stratum must report
            // `None`, not a fabricated 0.0× ratio from an empty mean.
            let mean_slowdown = (baseline.cycles > 0 && state.taken > 0)
                .then(|| state.cycles.mean() / baseline.cycles as f64);
            degenerate_baselines += u64::from(baseline.cycles == 0);
            total_samples += state.taken;
            converged_strata += u64::from(state.converged);
            estimates.push(StratumEstimate {
                workload: self.workloads[triple.workload].name.clone(),
                scheme: self.spec.schemes[triple.scheme].to_string(),
                platform: self.spec.platforms[triple.platform].to_string(),
                samples: state.taken,
                converged: state.converged,
                failures: state.failures,
                failure_rate,
                ci_low,
                ci_high,
                unrecoverable_runs: state.unrecoverable_runs,
                silent_corruptions: state.silent_corruptions,
                detected_runs: state.detected_runs,
                faults_injected: state.faults_injected,
                faults_corrected: state.faults_corrected,
                baseline_cycles: baseline.cycles,
                mean_cycles: state.cycles.mean(),
                cycles_std: state.cycles.std_dev(),
                mean_slowdown,
            });
        }
        SampledReport {
            seed: self.spec.seed,
            fault_interval: self.spec.fault_interval,
            confidence: self.plan.confidence,
            max_rel_error: self.plan.max_rel_error,
            batch: self.plan.batch,
            min_samples: self.plan.min_samples,
            max_samples: self.plan.max_samples,
            workloads: self.workloads.iter().map(|w| w.name.clone()).collect(),
            schemes: self.spec.schemes.iter().map(ToString::to_string).collect(),
            platforms: self
                .spec
                .platforms
                .iter()
                .map(ToString::to_string)
                .collect(),
            total_samples,
            converged_strata,
            degenerate_baselines,
            strata: estimates,
        }
    }
}

/// Runs a sampled campaign ([`crate::spec::ExecutionMode::Sampled`]) to
/// completion and returns the report plus, under
/// [`SampleExecution::TraceBacked`], the trace record/replay counters.
///
/// # Panics
///
/// As [`Sampler::new`] and [`Sampler::run_rounds`].
#[must_use]
pub(crate) fn execute_sampled(
    spec: &CampaignSpec,
    plan: &SamplingPlan,
    threads: usize,
    execution: &SampleExecution,
    obs: &Obs,
) -> (SampledReport, Option<TraceBackedStats>) {
    // The baseline phase records (trace-backed) or fully simulates every
    // stratum's fault-free reference; bill it to the matching phase.
    let baseline_phase = match execution {
        SampleExecution::FullSim => Phase::FullSim,
        SampleExecution::TraceBacked { .. } => Phase::TraceRecord,
    };
    let mut sampler = {
        let _span = obs.span(baseline_phase);
        Sampler::new(spec, plan, execution, threads)
    };
    sampler.attach_obs(obs);
    obs.emit(&ProgressEvent::CampaignStart {
        engine: "sampled",
        jobs: sampler.states.len() as u64,
    });
    let complete = sampler.run_rounds(threads, None);
    debug_assert!(complete, "unbounded run_rounds always completes");
    let report = sampler.report();
    obs.emit(&ProgressEvent::CampaignEnd {
        engine: "sampled",
        executed: report.total_samples,
    });
    let trace_backed = matches!(execution, SampleExecution::TraceBacked { .. });
    (report, trace_backed.then(|| sampler.trace_stats()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::WorkloadSet;
    use laec_pipeline::EccScheme;

    #[test]
    fn normal_quantile_matches_known_values() {
        // Classic two-sided critical values.
        for (p, expected) in [
            (0.975, 1.959_964),
            (0.95, 1.644_854),
            (0.995, 2.575_829),
            (0.5, 0.0),
        ] {
            let got = normal_quantile(p);
            assert!(
                (got - expected).abs() < 1e-5,
                "quantile({p}) = {got}, expected {expected}"
            );
        }
        // Symmetry.
        assert!((normal_quantile(0.025) + normal_quantile(0.975)).abs() < 1e-9);
        // Tail branch.
        assert!((normal_quantile(0.0001) + normal_quantile(0.9999)).abs() < 1e-9);
    }

    #[test]
    fn wilson_interval_behaves_at_the_extremes() {
        let z = normal_quantile(0.975);
        let (low, high) = wilson_interval(0, 0, z);
        assert_eq!((low, high), (0.0, 1.0));
        // Zero failures: lower bound pinned at 0, upper bound positive.
        let (low, high) = wilson_interval(0, 40, z);
        assert_eq!(low, 0.0);
        assert!(high > 0.0 && high < 0.2, "{high}");
        // All failures: mirrored.
        let (mirror_low, mirror_high) = wilson_interval(40, 40, z);
        assert_eq!(mirror_high, 1.0);
        assert!((mirror_low - (1.0 - high)).abs() < 1e-12);
        // Interval brackets the point estimate and shrinks with n.
        let (l1, h1) = wilson_interval(10, 100, z);
        let (l2, h2) = wilson_interval(100, 1000, z);
        assert!(l1 < 0.1 && 0.1 < h1);
        assert!(h2 - l2 < h1 - l1);
    }

    #[test]
    fn welford_matches_two_pass_statistics() {
        let values = [3.0, 7.0, 7.0, 19.0, 24.0, 4.5];
        let mut accumulator = Welford::default();
        for value in values {
            accumulator.push(value);
        }
        let mean: f64 = values.iter().sum::<f64>() / values.len() as f64;
        let variance: f64 =
            values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / (values.len() - 1) as f64;
        assert_eq!(accumulator.count(), values.len() as u64);
        assert!((accumulator.mean() - mean).abs() < 1e-12);
        assert!((accumulator.variance() - variance).abs() < 1e-12);
    }

    #[test]
    fn stopping_rule_requires_min_samples_and_tight_intervals() {
        let plan = SamplingPlan::new(1_000);
        // Below min_samples: never converged, however clean.
        assert!(!plan.converged(0, plan.min_samples - 1));
        // Zero failures converge via the absolute fallback once enough
        // samples accumulate.
        assert!(plan.converged(0, 160));
        // A mid-range rate at small n is far too loose.
        assert!(!plan.converged(16, 32));
        // The absolute fallback is *only* for zero-failure strata: a small
        // non-zero rate must be held to the relative target, not wave
        // through on absolute width (which the rate-1 bound would imply).
        assert!(!plan.converged(1, 160));
        // A rate pinned at 1 satisfies the relative bound directly.
        assert!(plan.converged(160, 160));
    }

    #[test]
    fn plan_validation_rejects_nonsense() {
        assert!(SamplingPlan::new(64).validate().is_ok());
        assert!(SamplingPlan::new(0).validate().is_err());
        let mut plan = SamplingPlan::new(64);
        plan.batch = 0;
        assert!(plan.validate().is_err());
        plan = SamplingPlan::new(64);
        plan.confidence = 1.0;
        assert!(plan.validate().is_err());
        plan = SamplingPlan::new(64);
        plan.max_rel_error = 0.0;
        assert!(plan.validate().is_err());
    }

    #[test]
    fn sample_seeds_differ_from_the_exhaustive_axis_and_between_samples() {
        let spec = CampaignSpec::smoke();
        let stratum = |workload| Triple {
            workload,
            platform: 0,
            scheme: 0,
        };
        let a = sample_injection_seed(&spec, stratum(0), 0);
        let b = sample_injection_seed(&spec, stratum(0), 1);
        let c = sample_injection_seed(&spec, stratum(1), 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn checkpoint_container_round_trips_and_detects_corruption() {
        let mut cycles = Welford::default();
        for i in 0..48 {
            cycles.push(1_000.0 + f64::from(i));
        }
        let stats = StratumStats {
            taken: 48,
            failures: 3,
            unrecoverable_runs: 1,
            silent_corruptions: 2,
            detected_runs: 5,
            faults_injected: 96,
            faults_corrected: 90,
            converged: true,
            cycles,
        };
        let checkpoint = SamplerCheckpoint {
            fingerprint: 0xFEED_FACE,
            strata: vec![stats, StratumStats::default()],
        };
        let encoded = checkpoint.encode();
        let decoded = SamplerCheckpoint::decode(&encoded).expect("valid container");
        assert_eq!(decoded, checkpoint);

        assert_eq!(
            SamplerCheckpoint::decode(&encoded[..4]),
            Err(CheckpointError::BadMagic)
        );
        assert_eq!(
            SamplerCheckpoint::decode(&encoded[..encoded.len() - 4]),
            Err(CheckpointError::ChecksumMismatch)
        );
        let mut flipped = encoded.clone();
        flipped[12] ^= 0x10;
        assert_eq!(
            SamplerCheckpoint::decode(&flipped),
            Err(CheckpointError::ChecksumMismatch)
        );
    }

    #[test]
    fn checkpoint_accumulator_count_mismatch_is_corrupt() {
        let mut stats = StratumStats {
            taken: 2,
            ..StratumStats::default()
        };
        stats.cycles.push(1.0); // count 1 != taken 2
        let encoded = SamplerCheckpoint {
            fingerprint: 1,
            strata: vec![stats],
        }
        .encode();
        assert_eq!(
            SamplerCheckpoint::decode(&encoded),
            Err(CheckpointError::Corrupt("accumulator count"))
        );
    }

    fn tiny_spec() -> CampaignSpec {
        let mut spec = CampaignSpec::smoke();
        spec.workloads = WorkloadSet::Named(vec!["vector_sum".into()]);
        spec.schemes = vec![EccScheme::Laec];
        spec.fault_interval = 200;
        spec
    }

    fn tiny_plan() -> SamplingPlan {
        let mut plan = SamplingPlan::new(24);
        plan.min_samples = 8;
        plan.batch = 8;
        plan
    }

    #[test]
    fn restore_rejects_foreign_checkpoints() {
        let spec = tiny_spec();
        let plan = tiny_plan();
        let sampler = Sampler::new(&spec, &plan, &SampleExecution::FullSim, 1);
        let checkpoint = sampler.checkpoint();
        let mut other_spec = spec.clone();
        other_spec.seed ^= 1;
        assert_eq!(
            Sampler::restore(
                &other_spec,
                &plan,
                &SampleExecution::FullSim,
                1,
                &checkpoint
            )
            .err(),
            Some(CheckpointError::SpecMismatch)
        );
        let mut other_plan = plan;
        other_plan.max_samples += 1;
        assert_eq!(
            Sampler::restore(
                &spec,
                &other_plan,
                &SampleExecution::FullSim,
                1,
                &checkpoint
            )
            .err(),
            Some(CheckpointError::SpecMismatch)
        );
        assert!(Sampler::restore(&spec, &plan, &SampleExecution::FullSim, 1, &checkpoint).is_ok());
    }

    #[test]
    fn bounded_rounds_pause_and_resume_without_losing_progress() {
        let spec = tiny_spec();
        let plan = tiny_plan();
        let mut sampler = Sampler::new(&spec, &plan, &SampleExecution::FullSim, 2);
        let complete = sampler.run_rounds(2, Some(1));
        assert!(!complete, "one 8-sample round cannot satisfy a 24 budget");
        let paused = sampler.report();
        assert_eq!(paused.total_samples, 8);
        let checkpoint = sampler.checkpoint();
        let mut resumed = Sampler::restore(&spec, &plan, &SampleExecution::FullSim, 2, &checkpoint)
            .expect("matching checkpoint");
        assert!(resumed.run_rounds(2, None));
        let finished = resumed.report();
        assert!(finished.total_samples >= 8);
        assert!(finished.strata[0].converged || finished.strata[0].samples == plan.max_samples);
    }

    #[test]
    fn restricted_shards_merge_into_the_uninterrupted_checkpoint() {
        let mut spec = tiny_spec();
        spec.workloads = WorkloadSet::Named(vec!["vector_sum".into(), "fir_filter".into()]);
        let plan = tiny_plan();
        let total = stratum_count(&spec);
        assert!(total >= 2, "need at least two strata to shard");

        let mut full = Sampler::new(&spec, &plan, &SampleExecution::FullSim, 2);
        assert!(full.run_rounds(2, None));
        let reference = full.checkpoint();

        let mut merged = SamplerCheckpoint::empty(sampler_fingerprint(&spec, &plan), total);
        assert_eq!(merged.occupied_strata(), 0);
        for range in [0..1, 1..total] {
            let mut shard =
                Sampler::new_restricted(&spec, &plan, &SampleExecution::FullSim, 1, range);
            assert!(shard.run_rounds(1, None));
            merged.merge_shard(&shard.checkpoint()).expect("disjoint");
        }
        assert_eq!(merged.occupied_strata(), total);
        assert_eq!(merged, reference, "shard union == uninterrupted run");

        let restored = Sampler::restore(&spec, &plan, &SampleExecution::FullSim, 2, &merged)
            .expect("merged checkpoint restores");
        assert_eq!(restored.report(), full.report());

        // Overlapping shards and foreign fingerprints are rejected.
        let mut overlapping = merged.clone();
        assert_eq!(
            overlapping.merge_shard(&reference),
            Err(CheckpointError::Corrupt("overlapping shard strata"))
        );
        let mut foreign = SamplerCheckpoint::empty(1, total);
        assert_eq!(
            foreign.merge_shard(&reference),
            Err(CheckpointError::SpecMismatch)
        );
    }

    #[test]
    fn unsampled_strata_report_no_slowdown() {
        let spec = tiny_spec();
        let plan = tiny_plan();
        let sampler = Sampler::new(&spec, &plan, &SampleExecution::FullSim, 1);
        let report = sampler.report();
        assert_eq!(report.total_samples, 0);
        for stratum in &report.strata {
            assert!(stratum.baseline_cycles > 0);
            assert_eq!(
                stratum.mean_slowdown, None,
                "no samples must mean no ratio, not 0.0x"
            );
        }
    }

    #[test]
    fn render_lists_every_stratum_and_the_totals() {
        let spec = tiny_spec();
        let plan = tiny_plan();
        let (report, _) =
            execute_sampled(&spec, &plan, 2, &SampleExecution::FullSim, &Obs::disabled());
        let text = render_sampled(&report);
        assert!(text.contains("vector_sum"), "{text}");
        assert!(text.contains("totals:"), "{text}");
        assert!(!text.contains("WARNING"), "{text}");
    }
}
