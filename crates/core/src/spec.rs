//! The unified campaign API: one serializable, validated spec; one
//! dispatch over the execution modes.
//!
//! Every way of running a campaign goes through one discipline, following
//! the single-declarative-experiment-description approach of gem5-class
//! simulators:
//!
//! * [`CampaignSpec`] — a *versioned, JSON-serializable* description of an
//!   entire campaign: every grid axis **plus** the [`ExecutionMode`] it
//!   runs under.  [`CampaignSpec::to_json`] /
//!   [`CampaignSpec::from_json`] round-trip it losslessly, so any run can
//!   be reproduced from a committed artifact (`laec-cli campaign --spec
//!   FILE.json`, `--dump-spec`).
//! * [`CampaignBuilder`] — a fluent, typed way to assemble a spec, ending
//!   in [`CampaignBuilder::validate`].
//! * [`CampaignSpec::validate`] — turns a spec into a [`ValidatedSpec`] or
//!   a **structured** [`SpecError`] (unknown workload, mode × platform
//!   incompatibility, sampling knobs without sampling mode, …) instead of
//!   panics or ad-hoc CLI strings.
//! * [`Campaign::run`] — the one dispatch point: it matches on the
//!   [`ExecutionMode`] and runs a full or trace-backed grid through the one
//!   grid executor, or a sampled campaign through the sampler.  Both run
//!   every cell through the same cell functions ([`crate::runner`]), so
//!   the engines differ only in whether a fault-free run, which carries
//!   its triple's fault seeds as overlays, is simulated or replayed.
//!
//! The platform axis, not the mode, decides the core count: full simulation
//! runs `smpN` cells on an N-core system and every other platform on the
//! uniprocessor, and both are the one `laec_mem::MemorySystem`.  Only full
//! simulation drives `smpN` platforms (a recording captures one core's
//! access stream), and only sampled campaigns reject the fixed fault-seed
//! axis and forensics — each rule is one check on the mode.
//!
//! # Example
//!
//! ```
//! use laec_core::spec::{Campaign, CampaignBuilder};
//! use laec_pipeline::EccScheme;
//!
//! let validated = CampaignBuilder::smoke()
//!     .named_workloads(["vector_sum"])
//!     .schemes([EccScheme::NoEcc, EccScheme::Laec])
//!     .fault_seeds([1, 2])
//!     .validate()
//!     .expect("a valid spec");
//! let outcome = Campaign::new(validated).run(2);
//! assert!(outcome.architecturally_equivalent());
//! ```

use std::fmt;
use std::path::PathBuf;

use laec_mem::{CellForensics, FaultTarget, ProtocolKind};
use laec_obs::Obs;
use laec_pipeline::EccScheme;
use laec_workloads::GeneratorConfig;
use serde::{Serialize, Serializer};
use serde_json::Value;

use crate::campaign::{self, CampaignReport, OverlayStats, PlatformVariant, WorkloadSet};
use crate::forensics::ForensicsReport;
use crate::sampling::{self, SampleExecution, SampledReport, SamplingPlan};
use crate::trace_backed::TraceBackedStats;

/// The campaign-spec wire-format version this build writes and reads.
///
/// Version 1 is the pre-serialization era; version 2 is the first on-disk
/// format.
pub const SPEC_VERSION: u64 = 2;

// ---------------------------------------------------------------------------
// Execution modes
// ---------------------------------------------------------------------------

/// How a campaign's grid is executed.
#[derive(Debug, Clone, PartialEq)]
pub enum ExecutionMode {
    /// Every cell runs the full pipeline + memory simulation (the
    /// reference engine; supports every platform and the fault-seed axis).
    Full,
    /// Each triple's fault-free run, which carries its fault axis as seed
    /// overlays, is replayed from its recording in the trace cache (and
    /// recorded into it when missing) instead of simulated.
    /// Byte-identical to [`ExecutionMode::Full`]; single-core platforms
    /// only.
    TraceBacked {
        /// Persist/reuse recordings under this directory (`None`: the grid
        /// records nothing and simulates, as [`ExecutionMode::Full`]).
        cache_dir: Option<PathBuf>,
    },
    /// The fixed fault-seed axis is replaced by stratified Monte-Carlo
    /// sampling with per-stratum confidence intervals and early stopping;
    /// single-core platforms only, and the spec's `fault_seeds` must be
    /// empty.
    Sampled {
        /// The statistical contract (budget, confidence, batch, …).
        plan: SamplingPlan,
        /// How each round's fault-free runs are driven (full simulation
        /// or trace replay).
        execution: SampleExecution,
    },
}

impl ExecutionMode {
    /// The mode's stable kind label (the `"kind"` field of the JSON form).
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            ExecutionMode::Full => "full",
            ExecutionMode::TraceBacked { .. } => "trace-backed",
            ExecutionMode::Sampled { .. } => "sampled",
        }
    }
}

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

pub use crate::sampling::PlanViolation;

/// Why a spec could not be parsed, assembled or validated.
///
/// Every case is a distinct variant so callers (and tests) match on
/// structure, not on error-message substrings.
#[derive(Debug, Clone, PartialEq)]
pub enum SpecError {
    /// The document is not syntactically valid JSON.
    Json(String),
    /// The document's `version` is not [`SPEC_VERSION`].
    UnsupportedVersion(u64),
    /// A required field is absent.
    MissingField(&'static str),
    /// A field holds a value of the wrong shape (e.g. a string where a
    /// number belongs, a fractional seed).
    InvalidField(&'static str),
    /// The document carries a field this format does not define — almost
    /// always a typo'd knob that would otherwise be silently ignored.
    UnknownField(String),
    /// A scheme label named no [`EccScheme`].
    UnknownScheme(String),
    /// A platform label named no [`PlatformVariant`].
    UnknownPlatform(String),
    /// A fault-target label named no [`FaultTarget`].
    UnknownFaultTarget(String),
    /// A protocol label named no [`ProtocolKind`].
    UnknownProtocol(String),
    /// A workload-set `suite` tag named no [`WorkloadSet`] shape.
    UnknownWorkloadSet(String),
    /// A mode `kind` tag named no [`ExecutionMode`].
    UnknownModeKind(String),
    /// A named workload exists in neither suite.
    UnknownWorkload(String),
    /// A grid axis is empty (nothing to run; the vacuously-true
    /// equivalence check would mask the mistake).
    EmptyAxis(&'static str),
    /// The execution mode cannot drive one of the spec's platforms (e.g.
    /// trace-backed or sampled execution on a multi-core `smpN` platform).
    ModeIncompatiblePlatform {
        /// The mode's kind label ([`ExecutionMode::kind`]).
        mode: &'static str,
        /// The offending platform's label.
        platform: String,
    },
    /// A non-MESI coherence protocol was requested for a grid that
    /// contains a single-core platform.  Dragon and MOESI only differ
    /// from MESI when cores actually snoop each other, so running them
    /// on `wb`/`wt`/`contendedN` would silently produce MESI-identical
    /// numbers under a misleading label.
    ProtocolNeedsSmp {
        /// The requested protocol's label.
        protocol: &'static str,
        /// The first single-core platform's label.
        platform: String,
    },
    /// The spec carries fixed fault seeds *and* requests sampled
    /// execution, which replaces the fault-seed axis.
    FaultSeedsWithSampling,
    /// A sampling-only knob (confidence, batch, …) was set without
    /// selecting sampled execution — it would otherwise be silently
    /// ignored and an exhaustive grid would run instead.
    SamplingKnobWithoutSampling(&'static str),
    /// The sampling plan violates a structural invariant.
    InvalidPlan(PlanViolation),
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::Json(message) => write!(f, "spec is not valid JSON: {message}"),
            SpecError::UnsupportedVersion(version) => write!(
                f,
                "unsupported spec version {version} (this build reads version {SPEC_VERSION})"
            ),
            SpecError::MissingField(field) => write!(f, "spec is missing field `{field}`"),
            SpecError::InvalidField(field) => {
                write!(f, "spec field `{field}` holds an invalid value")
            }
            SpecError::UnknownField(field) => write!(f, "spec has unknown field `{field}`"),
            SpecError::UnknownScheme(label) => write!(f, "unknown scheme `{label}`"),
            SpecError::UnknownPlatform(label) => write!(f, "unknown platform `{label}`"),
            SpecError::UnknownFaultTarget(label) => write!(f, "unknown fault target `{label}`"),
            SpecError::UnknownProtocol(label) => {
                write!(f, "unknown coherence protocol `{label}`")
            }
            SpecError::UnknownWorkloadSet(tag) => write!(f, "unknown workload suite `{tag}`"),
            SpecError::UnknownModeKind(tag) => write!(f, "unknown execution-mode kind `{tag}`"),
            SpecError::UnknownWorkload(name) => write!(f, "unknown workload `{name}`"),
            SpecError::EmptyAxis(axis) => write!(f, "the {axis} axis is empty"),
            SpecError::ModeIncompatiblePlatform { mode, platform } => write!(
                f,
                "{mode} execution does not support the multi-core `{platform}` platform"
            ),
            SpecError::ProtocolNeedsSmp { protocol, platform } => write!(
                f,
                "the `{protocol}` coherence protocol needs multi-core `smpN` platforms \
                 (`{platform}` is single-core)"
            ),
            SpecError::FaultSeedsWithSampling => write!(
                f,
                "sampled execution replaces the fixed fault-seed axis; drop the fault seeds"
            ),
            SpecError::SamplingKnobWithoutSampling(knob) => {
                write!(f, "{knob} needs sampled execution (a sample budget)")
            }
            SpecError::InvalidPlan(violation) => write!(f, "invalid sampling plan: {violation}"),
        }
    }
}

impl std::error::Error for SpecError {}

// ---------------------------------------------------------------------------
// The spec
// ---------------------------------------------------------------------------

/// The complete, serializable description of one campaign (spec format v2):
/// the grid axes of [`campaign::CampaignSpec`] *plus* the
/// [`ExecutionMode`].
///
/// Assemble one with [`CampaignBuilder`], or load one from JSON with
/// [`CampaignSpec::from_json`]; [`CampaignSpec::validate`] gates execution.
///
/// ```
/// use laec_core::spec::{CampaignBuilder, CampaignSpec};
///
/// let spec = CampaignBuilder::smoke().build().expect("well-formed");
/// let json = spec.to_json();
/// assert_eq!(CampaignSpec::from_json(&json), Ok(spec));
/// ```
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
    /// The fixed fault axis: one faulty run per seed per cell (must be
    /// empty under [`ExecutionMode::Sampled`]).
    pub fault_seeds: Vec<u64>,
    /// Mean cycles between injected upsets on faulty runs.
    pub fault_interval: u64,
    /// Which DL1 array faulty runs strike.
    pub fault_target: FaultTarget,
    /// The coherence protocol governing multi-core cells (MESI by
    /// default; Dragon and MOESI require an all-`smpN` platform axis —
    /// see [`SpecError::ProtocolNeedsSmp`]).
    pub protocol: ProtocolKind,
    /// Master seed; every derived seed is a pure function of it and grid
    /// coordinates.
    pub seed: u64,
    /// How the grid executes.
    pub mode: ExecutionMode,
}

impl CampaignSpec {
    /// Wraps a legacy grid description in a v2 spec with the given mode.
    #[must_use]
    pub fn from_grid(grid: &campaign::CampaignSpec, mode: ExecutionMode) -> Self {
        CampaignSpec {
            workloads: grid.workloads.clone(),
            generator: grid.generator,
            schemes: grid.schemes.clone(),
            platforms: grid.platforms.clone(),
            fault_seeds: grid.fault_seeds.clone(),
            fault_interval: grid.fault_interval,
            fault_target: grid.fault_target,
            protocol: grid.protocol,
            seed: grid.seed,
            mode,
        }
    }

    /// The grid axes as the legacy description the executors consume.
    #[must_use]
    pub fn grid(&self) -> campaign::CampaignSpec {
        campaign::CampaignSpec {
            workloads: self.workloads.clone(),
            generator: self.generator,
            schemes: self.schemes.clone(),
            platforms: self.platforms.clone(),
            fault_seeds: self.fault_seeds.clone(),
            fault_interval: self.fault_interval,
            fault_target: self.fault_target,
            protocol: self.protocol,
            seed: self.seed,
        }
    }

    /// Serialises the spec as pretty-printed JSON (format version
    /// [`SPEC_VERSION`]).  Deterministic: the same spec always produces the
    /// same bytes, so dumped specs can be committed and `cmp`'d.
    ///
    /// Cache-directory paths are written as UTF-8 strings (non-UTF-8 paths
    /// are replaced lossily — keep spec files portable).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut serializer = Serializer::pretty();
        self.serialize(&mut serializer);
        serializer.finish()
    }

    /// Parses a JSON document produced by [`CampaignSpec::to_json`] (or
    /// written by hand to the same schema).
    ///
    /// # Errors
    ///
    /// Returns the structured [`SpecError`] describing the first problem:
    /// syntax ([`SpecError::Json`]), version, missing/invalid/unknown
    /// fields, or unknown axis labels.  Semantic validation (unknown
    /// workloads, mode × platform rules) is **not** performed here — call
    /// [`CampaignSpec::validate`] on the result.
    pub fn from_json(text: &str) -> Result<Self, SpecError> {
        let document = serde_json::parse(text).map_err(|e| SpecError::Json(e.to_string()))?;
        decode::spec(&document)
    }

    /// Checks the spec's semantic invariants and locks it for execution.
    ///
    /// # Errors
    ///
    /// * [`SpecError::EmptyAxis`] — an empty scheme, platform or named
    ///   workload axis,
    /// * [`SpecError::UnknownWorkload`] — a named workload in neither
    ///   suite,
    /// * [`SpecError::ModeIncompatiblePlatform`] — a multi-core `smpN`
    ///   platform under a mode other than [`ExecutionMode::Full`],
    /// * [`SpecError::ProtocolNeedsSmp`] — a non-MESI protocol with a
    ///   single-core platform in the grid,
    /// * [`SpecError::FaultSeedsWithSampling`] — fixed fault seeds under
    ///   [`ExecutionMode::Sampled`],
    /// * [`SpecError::InvalidPlan`] — a structurally invalid sampling
    ///   plan.
    pub fn validate(self) -> Result<ValidatedSpec, SpecError> {
        if self.schemes.is_empty() {
            return Err(SpecError::EmptyAxis("scheme"));
        }
        if self.platforms.is_empty() {
            return Err(SpecError::EmptyAxis("platform"));
        }
        if let WorkloadSet::Named(names) = &self.workloads {
            if names.is_empty() {
                return Err(SpecError::EmptyAxis("workload"));
            }
            let known = campaign::CampaignSpec::available_workload_names();
            if let Some(missing) = names.iter().find(|name| !known.contains(name)) {
                return Err(SpecError::UnknownWorkload(missing.clone()));
            }
        }
        // A recording captures one core's access stream, so only full
        // simulation drives multi-core platforms.
        if self.mode != ExecutionMode::Full {
            if let Some(platform) = self.platforms.iter().find(|p| p.cores() > 1) {
                return Err(SpecError::ModeIncompatiblePlatform {
                    mode: self.mode.kind(),
                    platform: platform.to_string(),
                });
            }
        }
        if self.protocol != ProtocolKind::Mesi {
            if let Some(platform) = self.platforms.iter().find(|p| p.cores() <= 1) {
                return Err(SpecError::ProtocolNeedsSmp {
                    protocol: self.protocol.table().name(),
                    platform: platform.to_string(),
                });
            }
        }
        if let ExecutionMode::Sampled { plan, .. } = &self.mode {
            if !self.fault_seeds.is_empty() {
                return Err(SpecError::FaultSeedsWithSampling);
            }
            plan.check().map_err(SpecError::InvalidPlan)?;
        }
        Ok(ValidatedSpec { spec: self })
    }
}

impl Serialize for CampaignSpec {
    fn serialize(&self, serializer: &mut Serializer) {
        serializer.begin_object();
        serializer.field("version", &SPEC_VERSION);
        serializer.field("seed", &self.seed);
        serializer.field("workloads", &WorkloadsJson(&self.workloads));
        serializer.field("generator", &GeneratorJson(&self.generator));
        let schemes: Vec<String> = self.schemes.iter().map(ToString::to_string).collect();
        serializer.field("schemes", &schemes);
        let platforms: Vec<String> = self.platforms.iter().map(ToString::to_string).collect();
        serializer.field("platforms", &platforms);
        serializer.field("fault_seeds", &self.fault_seeds);
        serializer.field("fault_interval", &self.fault_interval);
        serializer.field("fault_target", self.fault_target.label());
        serializer.field("protocol", self.protocol.table().name());
        serializer.field("mode", &ModeJson(&self.mode));
        serializer.end_object();
    }
}

struct WorkloadsJson<'a>(&'a WorkloadSet);

impl Serialize for WorkloadsJson<'_> {
    fn serialize(&self, serializer: &mut Serializer) {
        serializer.begin_object();
        match self.0 {
            WorkloadSet::Eembc => serializer.field("suite", "eembc"),
            WorkloadSet::Kernels => serializer.field("suite", "kernels"),
            WorkloadSet::Both => serializer.field("suite", "both"),
            WorkloadSet::Named(names) => {
                serializer.field("suite", "named");
                serializer.field("names", names);
            }
        }
        serializer.end_object();
    }
}

struct GeneratorJson<'a>(&'a GeneratorConfig);

impl Serialize for GeneratorJson<'_> {
    fn serialize(&self, serializer: &mut Serializer) {
        serializer.begin_object();
        serializer.field("body_instructions", &self.0.body_instructions);
        serializer.field("iterations", &self.0.iterations);
        serializer.field("seed", &self.0.seed);
        serializer.end_object();
    }
}

fn path_field(serializer: &mut Serializer, key: &str, path: Option<&PathBuf>) {
    match path {
        Some(path) => serializer.field(key, &path.to_string_lossy().into_owned()),
        None => serializer.field(key, &Option::<String>::None),
    }
}

struct ModeJson<'a>(&'a ExecutionMode);

impl Serialize for ModeJson<'_> {
    fn serialize(&self, serializer: &mut Serializer) {
        serializer.begin_object();
        serializer.field("kind", self.0.kind());
        match self.0 {
            ExecutionMode::Full => {}
            ExecutionMode::TraceBacked { cache_dir } => {
                path_field(serializer, "cache_dir", cache_dir.as_ref());
            }
            ExecutionMode::Sampled { plan, execution } => {
                serializer.field("budget", &plan.max_samples);
                serializer.field("min_samples", &plan.min_samples);
                serializer.field("batch", &plan.batch);
                serializer.field("confidence", &plan.confidence);
                serializer.field("max_rel_error", &plan.max_rel_error);
                let (trace_backed, cache_dir) = match execution {
                    SampleExecution::FullSim => (false, None),
                    SampleExecution::TraceBacked { cache_dir } => (true, cache_dir.as_ref()),
                };
                serializer.field("trace_backed", &trace_backed);
                path_field(serializer, "cache_dir", cache_dir);
            }
        }
        serializer.end_object();
    }
}

/// JSON → spec decoding, with one strict helper per shape.
mod decode {
    use super::*;

    fn object<'a>(
        value: &'a Value,
        field: &'static str,
    ) -> Result<&'a [(String, Value)], SpecError> {
        value.as_object().ok_or(SpecError::InvalidField(field))
    }

    fn require<'a>(
        members: &'a [(String, Value)],
        field: &'static str,
    ) -> Result<&'a Value, SpecError> {
        members
            .iter()
            .find(|(name, _)| name == field)
            .map(|(_, value)| value)
            .ok_or(SpecError::MissingField(field))
    }

    fn reject_unknown(members: &[(String, Value)], allowed: &[&str]) -> Result<(), SpecError> {
        for (name, _) in members {
            if !allowed.contains(&name.as_str()) {
                return Err(SpecError::UnknownField(name.clone()));
            }
        }
        Ok(())
    }

    fn u64_of(value: &Value, field: &'static str) -> Result<u64, SpecError> {
        value.as_u64().ok_or(SpecError::InvalidField(field))
    }

    fn f64_of(value: &Value, field: &'static str) -> Result<f64, SpecError> {
        value.as_f64().ok_or(SpecError::InvalidField(field))
    }

    fn str_of<'a>(value: &'a Value, field: &'static str) -> Result<&'a str, SpecError> {
        value.as_str().ok_or(SpecError::InvalidField(field))
    }

    fn optional_path(
        members: &[(String, Value)],
        key: &str,
        label: &'static str,
    ) -> Result<Option<PathBuf>, SpecError> {
        match members.iter().find(|(name, _)| name == key) {
            None => Ok(None),
            Some((_, value)) if value.is_null() => Ok(None),
            Some((_, value)) => Ok(Some(PathBuf::from(str_of(value, label)?))),
        }
    }

    fn workloads(value: &Value) -> Result<WorkloadSet, SpecError> {
        let members = object(value, "workloads")?;
        reject_unknown(members, &["suite", "names"])?;
        let suite = str_of(require(members, "suite")?, "workloads.suite")?;
        match suite {
            "eembc" => Ok(WorkloadSet::Eembc),
            "kernels" => Ok(WorkloadSet::Kernels),
            "both" => Ok(WorkloadSet::Both),
            "named" => {
                let names = require(members, "names")?
                    .as_array()
                    .ok_or(SpecError::InvalidField("workloads.names"))?;
                let names: Result<Vec<String>, SpecError> = names
                    .iter()
                    .map(|name| str_of(name, "workloads.names").map(str::to_string))
                    .collect();
                Ok(WorkloadSet::Named(names?))
            }
            other => Err(SpecError::UnknownWorkloadSet(other.to_string())),
        }
    }

    fn generator(value: &Value) -> Result<GeneratorConfig, SpecError> {
        let members = object(value, "generator")?;
        reject_unknown(members, &["body_instructions", "iterations", "seed"])?;
        let body = u64_of(
            require(members, "body_instructions")?,
            "generator.body_instructions",
        )?;
        let iterations = u64_of(require(members, "iterations")?, "generator.iterations")?;
        Ok(GeneratorConfig {
            body_instructions: usize::try_from(body)
                .map_err(|_| SpecError::InvalidField("generator.body_instructions"))?,
            iterations: u32::try_from(iterations)
                .map_err(|_| SpecError::InvalidField("generator.iterations"))?,
            seed: u64_of(require(members, "seed")?, "generator.seed")?,
        })
    }

    fn mode(value: &Value) -> Result<ExecutionMode, SpecError> {
        let members = object(value, "mode")?;
        let kind = str_of(require(members, "kind")?, "mode.kind")?;
        match kind {
            "full" => {
                reject_unknown(members, &["kind"])?;
                Ok(ExecutionMode::Full)
            }
            "trace-backed" => {
                reject_unknown(members, &["kind", "cache_dir"])?;
                Ok(ExecutionMode::TraceBacked {
                    cache_dir: optional_path(members, "cache_dir", "mode.cache_dir")?,
                })
            }
            "sampled" => {
                reject_unknown(
                    members,
                    &[
                        "kind",
                        "budget",
                        "min_samples",
                        "batch",
                        "confidence",
                        "max_rel_error",
                        "trace_backed",
                        "cache_dir",
                    ],
                )?;
                let mut plan =
                    SamplingPlan::new(u64_of(require(members, "budget")?, "mode.budget")?);
                plan.min_samples = u64_of(require(members, "min_samples")?, "mode.min_samples")?;
                plan.batch = u64_of(require(members, "batch")?, "mode.batch")?;
                plan.confidence = f64_of(require(members, "confidence")?, "mode.confidence")?;
                plan.max_rel_error =
                    f64_of(require(members, "max_rel_error")?, "mode.max_rel_error")?;
                let trace_backed = require(members, "trace_backed")?
                    .as_bool()
                    .ok_or(SpecError::InvalidField("mode.trace_backed"))?;
                let cache_dir = optional_path(members, "cache_dir", "mode.cache_dir")?;
                let execution = if trace_backed {
                    SampleExecution::TraceBacked { cache_dir }
                } else if cache_dir.is_some() {
                    return Err(SpecError::InvalidField("mode.cache_dir"));
                } else {
                    SampleExecution::FullSim
                };
                Ok(ExecutionMode::Sampled { plan, execution })
            }
            other => Err(SpecError::UnknownModeKind(other.to_string())),
        }
    }

    pub(super) fn spec(document: &Value) -> Result<CampaignSpec, SpecError> {
        let members = object(document, "spec")?;
        reject_unknown(
            members,
            &[
                "version",
                "seed",
                "workloads",
                "generator",
                "schemes",
                "platforms",
                "fault_seeds",
                "fault_interval",
                "fault_target",
                "protocol",
                "mode",
            ],
        )?;
        let version = u64_of(require(members, "version")?, "version")?;
        if version != SPEC_VERSION {
            return Err(SpecError::UnsupportedVersion(version));
        }
        let schemes_value = require(members, "schemes")?
            .as_array()
            .ok_or(SpecError::InvalidField("schemes"))?;
        let mut schemes = Vec::with_capacity(schemes_value.len());
        for label in schemes_value {
            let label = str_of(label, "schemes")?;
            schemes.push(
                label
                    .parse::<EccScheme>()
                    .map_err(|_| SpecError::UnknownScheme(label.to_string()))?,
            );
        }
        let platforms_value = require(members, "platforms")?
            .as_array()
            .ok_or(SpecError::InvalidField("platforms"))?;
        let mut platforms = Vec::with_capacity(platforms_value.len());
        for label in platforms_value {
            let label = str_of(label, "platforms")?;
            platforms.push(
                label
                    .parse::<PlatformVariant>()
                    .map_err(|_| SpecError::UnknownPlatform(label.to_string()))?,
            );
        }
        let fault_seeds_value = require(members, "fault_seeds")?
            .as_array()
            .ok_or(SpecError::InvalidField("fault_seeds"))?;
        let fault_seeds: Result<Vec<u64>, SpecError> = fault_seeds_value
            .iter()
            .map(|seed| u64_of(seed, "fault_seeds"))
            .collect();
        let fault_target_label = str_of(require(members, "fault_target")?, "fault_target")?;
        let fault_target = fault_target_label
            .parse::<FaultTarget>()
            .map_err(|_| SpecError::UnknownFaultTarget(fault_target_label.to_string()))?;
        // Optional for compatibility: specs written before the protocol
        // axis existed (and hand-written MESI specs) omit it.
        let protocol = match members.iter().find(|(name, _)| name == "protocol") {
            None => ProtocolKind::Mesi,
            Some((_, value)) => {
                let label = str_of(value, "protocol")?;
                label
                    .parse::<ProtocolKind>()
                    .map_err(|_| SpecError::UnknownProtocol(label.to_string()))?
            }
        };
        Ok(CampaignSpec {
            workloads: workloads(require(members, "workloads")?)?,
            generator: generator(require(members, "generator")?)?,
            schemes,
            platforms,
            fault_seeds: fault_seeds?,
            fault_interval: u64_of(require(members, "fault_interval")?, "fault_interval")?,
            fault_target,
            protocol,
            seed: u64_of(require(members, "seed")?, "seed")?,
            mode: mode(require(members, "mode")?)?,
        })
    }
}

// ---------------------------------------------------------------------------
// Validated spec
// ---------------------------------------------------------------------------

/// A [`CampaignSpec`] that passed [`CampaignSpec::validate`] — the only
/// thing [`Campaign::run`] accepts, so an executing campaign is valid *by
/// construction*.
#[derive(Debug, Clone, PartialEq)]
pub struct ValidatedSpec {
    spec: CampaignSpec,
}

impl ValidatedSpec {
    /// The underlying spec.
    #[must_use]
    pub fn spec(&self) -> &CampaignSpec {
        &self.spec
    }

    /// 128-bit content hash ([`crate::fingerprint::hash128`]) of the
    /// spec's canonical JSON — the identity that stamps metrics dumps and
    /// progress events, and keys the fleet result store.  Stable across
    /// processes for equal specs.
    #[must_use]
    pub fn fingerprint(&self) -> u128 {
        crate::fingerprint::hash128(self.spec.to_json().as_bytes())
    }

    /// [`ValidatedSpec::fingerprint`] as the `0x`-prefixed hex string used
    /// in serialized artifacts (a string survives consumers that parse
    /// JSON numbers as doubles).
    #[must_use]
    pub fn fingerprint_hex(&self) -> String {
        format!("0x{:032x}", self.fingerprint())
    }

    /// The execution mode.
    #[must_use]
    pub fn mode(&self) -> &ExecutionMode {
        &self.spec.mode
    }

    /// The grid axes as the legacy description the executors consume.
    #[must_use]
    pub fn grid(&self) -> campaign::CampaignSpec {
        self.spec.grid()
    }

    /// The sampling plan, when the mode is [`ExecutionMode::Sampled`].
    #[must_use]
    pub fn plan(&self) -> Option<&SamplingPlan> {
        match &self.spec.mode {
            ExecutionMode::Sampled { plan, .. } => Some(plan),
            _ => None,
        }
    }

    /// The per-sample execution strategy, when the mode is
    /// [`ExecutionMode::Sampled`].
    #[must_use]
    pub fn sample_execution(&self) -> Option<&SampleExecution> {
        match &self.spec.mode {
            ExecutionMode::Sampled { execution, .. } => Some(execution),
            _ => None,
        }
    }

    /// Unwraps the spec (e.g. to mutate and re-validate).
    #[must_use]
    pub fn into_inner(self) -> CampaignSpec {
        self.spec
    }
}

// ---------------------------------------------------------------------------
// Builder
// ---------------------------------------------------------------------------

/// Fluent assembly of a [`CampaignSpec`].
///
/// Mirrors the CLI's flag surface: grid axes, fault knobs, and the
/// execution-mode toggles ([`CampaignBuilder::trace_backed`],
/// [`CampaignBuilder::sampled`]).
/// Sampling knobs set without [`CampaignBuilder::sampled`] are a
/// [`SpecError::SamplingKnobWithoutSampling`], not silently ignored.
///
/// ```
/// use laec_core::spec::{Campaign, CampaignBuilder};
/// use laec_pipeline::EccScheme;
///
/// let validated = CampaignBuilder::smoke()
///     .named_workloads(["vector_sum", "fir_filter"])
///     .schemes([EccScheme::NoEcc, EccScheme::Laec])
///     .fault_seeds([0xBEEF])
///     .fault_interval(500)
///     .validate()
///     .expect("a valid spec");
/// let report = Campaign::new(validated).run(2).into_grid().expect("grid mode");
/// assert_eq!(report.total_jobs, 2 * 2 * 2);
/// ```
#[derive(Debug, Clone)]
pub struct CampaignBuilder {
    base: campaign::CampaignSpec,
    budget: Option<u64>,
    confidence: Option<f64>,
    max_rel_error: Option<f64>,
    batch: Option<u64>,
    min_samples: Option<u64>,
    trace_backed: bool,
    cache_dir: Option<PathBuf>,
}

impl CampaignBuilder {
    fn from_base(base: campaign::CampaignSpec) -> Self {
        CampaignBuilder {
            base,
            budget: None,
            confidence: None,
            max_rel_error: None,
            batch: None,
            min_samples: None,
            trace_backed: false,
            cache_dir: None,
        }
    }

    /// Starts from the paper's Figure 8 grid
    /// ([`campaign::CampaignSpec::paper_grid`]).
    #[must_use]
    pub fn paper() -> Self {
        Self::from_base(campaign::CampaignSpec::paper_grid())
    }

    /// Starts from the quick kernel-suite grid
    /// ([`campaign::CampaignSpec::smoke`]).
    #[must_use]
    pub fn smoke() -> Self {
        Self::from_base(campaign::CampaignSpec::smoke())
    }

    /// Sets the workload axis.
    #[must_use]
    pub fn workloads(mut self, workloads: WorkloadSet) -> Self {
        self.base.workloads = workloads;
        self
    }

    /// Sets the workload axis to an explicit list of names.
    #[must_use]
    pub fn named_workloads<I>(self, names: I) -> Self
    where
        I: IntoIterator,
        I::Item: Into<String>,
    {
        let names: Vec<String> = names.into_iter().map(Into::into).collect();
        self.workloads(WorkloadSet::Named(names))
    }

    /// Sets the synthetic-workload generator shape.
    #[must_use]
    pub fn generator(mut self, generator: GeneratorConfig) -> Self {
        self.base.generator = generator;
        self
    }

    /// Sets the master seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.base.seed = seed;
        self
    }

    /// Sets the scheme axis.
    #[must_use]
    pub fn schemes(mut self, schemes: impl IntoIterator<Item = EccScheme>) -> Self {
        self.base.schemes = schemes.into_iter().collect();
        self
    }

    /// Sets the platform axis.
    #[must_use]
    pub fn platforms(mut self, platforms: impl IntoIterator<Item = PlatformVariant>) -> Self {
        self.base.platforms = platforms.into_iter().collect();
        self
    }

    /// Sets the fixed fault-seed axis.
    #[must_use]
    pub fn fault_seeds(mut self, seeds: impl IntoIterator<Item = u64>) -> Self {
        self.base.fault_seeds = seeds.into_iter().collect();
        self
    }

    /// Sets the mean cycles between injected upsets.
    #[must_use]
    pub fn fault_interval(mut self, interval: u64) -> Self {
        self.base.fault_interval = interval;
        self
    }

    /// Sets which DL1 array faulty runs strike.
    #[must_use]
    pub fn fault_target(mut self, target: FaultTarget) -> Self {
        self.base.fault_target = target;
        self
    }

    /// Sets the coherence protocol governing multi-core cells (MESI by
    /// default; Dragon and MOESI need an all-`smpN` platform axis).
    #[must_use]
    pub fn protocol(mut self, protocol: ProtocolKind) -> Self {
        self.base.protocol = protocol;
        self
    }

    /// Selects trace-backed execution (fault-free runs replayed from
    /// recordings, carrying the fault seeds as overlays).
    #[must_use]
    pub fn trace_backed(mut self) -> Self {
        self.trace_backed = true;
        self
    }

    /// Persists/reuses recordings under `dir` (implies
    /// [`CampaignBuilder::trace_backed`]).
    #[must_use]
    pub fn trace_cache(mut self, dir: impl Into<PathBuf>) -> Self {
        self.cache_dir = Some(dir.into());
        self.trace_backed = true;
        self
    }

    /// Selects sampled (stratified Monte-Carlo) execution with this
    /// per-stratum sample budget.
    #[must_use]
    pub fn sampled(mut self, budget: u64) -> Self {
        self.budget = Some(budget);
        self
    }

    /// Confidence level of the per-stratum Wilson intervals (sampled mode
    /// only).
    #[must_use]
    pub fn confidence(mut self, confidence: f64) -> Self {
        self.confidence = Some(confidence);
        self
    }

    /// Target relative half-width of the failure-rate interval (sampled
    /// mode only).
    #[must_use]
    pub fn max_rel_error(mut self, max_rel_error: f64) -> Self {
        self.max_rel_error = Some(max_rel_error);
        self
    }

    /// Samples per stratum per round — the determinism granularity
    /// (sampled mode only).
    #[must_use]
    pub fn batch(mut self, batch: u64) -> Self {
        self.batch = Some(batch);
        self
    }

    /// Samples each stratum must draw before the stopping rule applies
    /// (sampled mode only).
    #[must_use]
    pub fn min_samples(mut self, min_samples: u64) -> Self {
        self.min_samples = Some(min_samples);
        self
    }

    /// Assembles the [`CampaignSpec`] without semantic validation.
    ///
    /// # Errors
    ///
    /// [`SpecError::SamplingKnobWithoutSampling`] — a sampling knob was set
    /// without [`CampaignBuilder::sampled`].
    pub fn build(self) -> Result<CampaignSpec, SpecError> {
        let mode = match self.budget {
            Some(budget) => {
                let mut plan = SamplingPlan::new(budget);
                if let Some(confidence) = self.confidence {
                    plan.confidence = confidence;
                }
                if let Some(max_rel_error) = self.max_rel_error {
                    plan.max_rel_error = max_rel_error;
                }
                if let Some(batch) = self.batch {
                    plan.batch = batch;
                }
                if let Some(min_samples) = self.min_samples {
                    plan.min_samples = min_samples;
                }
                let execution = if self.trace_backed {
                    SampleExecution::TraceBacked {
                        cache_dir: self.cache_dir,
                    }
                } else {
                    SampleExecution::FullSim
                };
                ExecutionMode::Sampled { plan, execution }
            }
            None => {
                let knobs = [
                    ("confidence", self.confidence.is_some()),
                    ("max relative error", self.max_rel_error.is_some()),
                    ("batch size", self.batch.is_some()),
                    ("minimum samples", self.min_samples.is_some()),
                ];
                if let Some((knob, _)) = knobs.iter().find(|(_, set)| *set) {
                    return Err(SpecError::SamplingKnobWithoutSampling(knob));
                }
                if self.trace_backed {
                    ExecutionMode::TraceBacked {
                        cache_dir: self.cache_dir,
                    }
                } else {
                    ExecutionMode::Full
                }
            }
        };
        Ok(CampaignSpec::from_grid(&self.base, mode))
    }

    /// [`CampaignBuilder::build`] followed by [`CampaignSpec::validate`].
    ///
    /// # Errors
    ///
    /// As both steps.
    pub fn validate(self) -> Result<ValidatedSpec, SpecError> {
        self.build()?.validate()
    }
}

// ---------------------------------------------------------------------------
// Outcome + dispatch
// ---------------------------------------------------------------------------

/// What running a campaign produced: an exhaustive grid report or a
/// statistical one, plus the trace record/replay counters when trace-backed
/// execution earned the result.
#[derive(Debug, Clone, PartialEq)]
pub enum CampaignOutcome {
    /// An exhaustive grid ([`ExecutionMode::Full`] or
    /// [`ExecutionMode::TraceBacked`]).
    Grid {
        /// The grid report.
        report: CampaignReport,
        /// Record/replay counters (trace-backed mode only).
        trace_stats: Option<TraceBackedStats>,
        /// Seed-overlay counters (full-simulation mode only).
        overlay_stats: Option<OverlayStats>,
    },
    /// A sampled campaign ([`ExecutionMode::Sampled`]).
    Sampled {
        /// The statistical report.
        report: SampledReport,
        /// Record/replay counters (trace-backed sampling only).
        trace_stats: Option<TraceBackedStats>,
    },
}

impl CampaignOutcome {
    /// The grid report, if this outcome is one.
    #[must_use]
    pub fn grid(&self) -> Option<&CampaignReport> {
        match self {
            CampaignOutcome::Grid { report, .. } => Some(report),
            CampaignOutcome::Sampled { .. } => None,
        }
    }

    /// The sampled report, if this outcome is one.
    #[must_use]
    pub fn sampled(&self) -> Option<&SampledReport> {
        match self {
            CampaignOutcome::Sampled { report, .. } => Some(report),
            CampaignOutcome::Grid { .. } => None,
        }
    }

    /// Consumes the outcome into its grid report, if it is one.
    #[must_use]
    pub fn into_grid(self) -> Option<CampaignReport> {
        match self {
            CampaignOutcome::Grid { report, .. } => Some(report),
            CampaignOutcome::Sampled { .. } => None,
        }
    }

    /// Consumes the outcome into its sampled report, if it is one.
    #[must_use]
    pub fn into_sampled(self) -> Option<SampledReport> {
        match self {
            CampaignOutcome::Sampled { report, .. } => Some(report),
            CampaignOutcome::Grid { .. } => None,
        }
    }

    /// Record/replay counters, when trace-backed execution produced the
    /// outcome.
    #[must_use]
    pub fn trace_stats(&self) -> Option<&TraceBackedStats> {
        match self {
            CampaignOutcome::Grid { trace_stats, .. }
            | CampaignOutcome::Sampled { trace_stats, .. } => trace_stats.as_ref(),
        }
    }

    /// `true` for grid outcomes whose cross-scheme equivalence checks all
    /// passed; sampled outcomes carry no such verdict and report `true`.
    #[must_use]
    pub fn architecturally_equivalent(&self) -> bool {
        match self {
            CampaignOutcome::Grid { report, .. } => report.architecturally_equivalent(),
            CampaignOutcome::Sampled { .. } => true,
        }
    }

    /// The report as pretty-printed JSON.
    #[must_use]
    pub fn to_json(&self) -> String {
        match self {
            CampaignOutcome::Grid { report, .. } => report.to_json(),
            CampaignOutcome::Sampled { report, .. } => report.to_json(),
        }
    }

    /// The report as aligned text.
    #[must_use]
    pub fn render(&self) -> String {
        match self {
            CampaignOutcome::Grid { report, .. } => campaign::render_campaign(report),
            CampaignOutcome::Sampled { report, .. } => sampling::render_sampled(report),
        }
    }
}

/// A validated campaign, ready to run — the single dispatch point over the
/// execution modes.
///
/// ```
/// use laec_core::spec::{Campaign, CampaignBuilder};
///
/// let campaign = Campaign::new(CampaignBuilder::smoke().validate().expect("valid"));
/// assert_eq!(campaign.spec().mode().kind(), "full");
/// let outcome = campaign.run(2);
/// assert!(outcome.architecturally_equivalent());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Campaign {
    spec: ValidatedSpec,
}

impl Campaign {
    /// Wraps a validated spec.
    #[must_use]
    pub fn new(spec: ValidatedSpec) -> Self {
        Campaign { spec }
    }

    /// The validated spec.
    #[must_use]
    pub fn spec(&self) -> &ValidatedSpec {
        &self.spec
    }

    /// Runs the campaign on `threads` workers (`0` = all cores).
    ///
    /// One dispatch over every mode: the report is byte-identical for any
    /// thread count.
    #[must_use]
    pub fn run(&self, threads: usize) -> CampaignOutcome {
        self.run_observed(threads, &Obs::disabled())
    }

    /// [`Campaign::run`] under instrumentation: stamps `obs` with the spec
    /// fingerprint and the mode's kind label, streams progress events while
    /// the campaign executes, and projects the finished outcome into the
    /// deterministic metric sections (see
    /// [`crate::observe::record_outcome_metrics`]).
    ///
    /// The outcome — and therefore the report bytes — is identical to
    /// [`Campaign::run`]: observation never touches results.
    #[must_use]
    pub fn run_observed(&self, threads: usize, obs: &Obs) -> CampaignOutcome {
        self.execute(threads, obs, false).0
    }

    /// [`Campaign::run_observed`] with per-fault lifecycle forensics: also
    /// returns a [`ForensicsReport`] assembling every injected fault's
    /// strike → activation → outcome record, and projects it into the
    /// `forensics.*` metric sections (see
    /// [`crate::observe::record_forensics_metrics`]).
    ///
    /// The outcome — and therefore the campaign report bytes — is
    /// identical to [`Campaign::run_observed`]: the forensics hooks only
    /// observe.  The forensics report inherits the determinism contract
    /// (same bytes for any `threads` and for full simulation and
    /// trace-backed execution).
    ///
    /// Sampled campaigns cannot trace lifecycles and return `None`.
    pub fn run_forensic(
        &self,
        threads: usize,
        obs: &Obs,
    ) -> (CampaignOutcome, Option<ForensicsReport>) {
        let (outcome, cells) = self.execute(threads, obs, true);
        let report = match (&outcome, cells) {
            (CampaignOutcome::Grid { report, .. }, Some(cells)) => {
                let forensics = ForensicsReport::build(self.spec.spec(), report, &cells);
                crate::observe::record_forensics_metrics(&forensics, obs);
                Some(forensics)
            }
            _ => None,
        };
        (outcome, report)
    }

    /// Runs the spec's mode — a grid through the one grid executor, a
    /// sampled campaign through the sampler — and projects the outcome
    /// into `obs`.  With `forensic`, a grid also returns one
    /// [`CellForensics`] per cell, in the report's cell order.
    fn execute(
        &self,
        threads: usize,
        obs: &Obs,
        forensic: bool,
    ) -> (CampaignOutcome, Option<Vec<CellForensics>>) {
        let mode = self.spec.mode();
        obs.set_context(&self.spec.fingerprint_hex(), mode.kind());
        let grid = self.spec.grid();
        let run_grid = |execution: SampleExecution| {
            let run = campaign::execute_grid(&grid, threads, &execution, forensic, obs);
            let outcome = CampaignOutcome::Grid {
                report: run.report,
                trace_stats: run.trace_stats,
                overlay_stats: run.overlay_stats,
            };
            (outcome, forensic.then_some(run.forensics))
        };
        let (outcome, forensics) = match mode {
            ExecutionMode::Full => run_grid(SampleExecution::FullSim),
            ExecutionMode::TraceBacked { cache_dir } => run_grid(SampleExecution::TraceBacked {
                cache_dir: cache_dir.clone(),
            }),
            ExecutionMode::Sampled { plan, execution } => {
                let (report, trace_stats) =
                    sampling::execute_sampled(&grid, plan, threads, execution, obs);
                let outcome = CampaignOutcome::Sampled {
                    report,
                    trace_stats,
                };
                (outcome, None)
            }
        };
        crate::observe::record_outcome_metrics(&outcome, obs);
        (outcome, forensics)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults_to_full_mode_on_the_base_grid() {
        let spec = CampaignBuilder::smoke().build().expect("well-formed");
        assert_eq!(spec.mode, ExecutionMode::Full);
        assert_eq!(spec.grid(), campaign::CampaignSpec::smoke());
        let paper = CampaignBuilder::paper().build().expect("well-formed");
        assert_eq!(paper.grid(), campaign::CampaignSpec::paper_grid());
    }

    #[test]
    fn builder_derives_each_mode_from_its_toggles() {
        let spec = CampaignBuilder::smoke().trace_backed().build().unwrap();
        assert_eq!(spec.mode, ExecutionMode::TraceBacked { cache_dir: None });

        let spec = CampaignBuilder::smoke()
            .trace_cache("/tmp/t")
            .build()
            .unwrap();
        assert_eq!(
            spec.mode,
            ExecutionMode::TraceBacked {
                cache_dir: Some(PathBuf::from("/tmp/t")),
            }
        );

        let spec = CampaignBuilder::smoke()
            .sampled(64)
            .confidence(0.99)
            .batch(8)
            .build()
            .unwrap();
        let ExecutionMode::Sampled { plan, execution } = spec.mode else {
            panic!("expected sampled mode");
        };
        assert_eq!(plan.max_samples, 64);
        assert_eq!(plan.confidence, 0.99);
        assert_eq!(plan.batch, 8);
        assert_eq!(plan.min_samples, SamplingPlan::new(64).min_samples);
        assert_eq!(execution, SampleExecution::FullSim);
    }

    #[test]
    fn sampling_knobs_without_sampling_are_typed_errors() {
        for (build, knob) in [
            (CampaignBuilder::smoke().confidence(0.9), "confidence"),
            (
                CampaignBuilder::smoke().max_rel_error(0.1),
                "max relative error",
            ),
            (CampaignBuilder::smoke().batch(4), "batch size"),
            (CampaignBuilder::smoke().min_samples(4), "minimum samples"),
        ] {
            assert_eq!(
                build.build(),
                Err(SpecError::SamplingKnobWithoutSampling(knob))
            );
        }
    }

    #[test]
    fn validation_rejects_unknown_workloads_and_empty_axes() {
        assert_eq!(
            CampaignBuilder::smoke()
                .named_workloads(["vectorsum"])
                .validate()
                .err(),
            Some(SpecError::UnknownWorkload("vectorsum".to_string()))
        );
        assert_eq!(
            CampaignBuilder::smoke()
                .schemes(Vec::<EccScheme>::new())
                .validate()
                .err(),
            Some(SpecError::EmptyAxis("scheme"))
        );
        assert_eq!(
            CampaignBuilder::smoke()
                .platforms(Vec::<PlatformVariant>::new())
                .validate()
                .err(),
            Some(SpecError::EmptyAxis("platform"))
        );
        assert_eq!(
            CampaignBuilder::smoke()
                .named_workloads::<[&str; 0]>([])
                .validate()
                .err(),
            Some(SpecError::EmptyAxis("workload"))
        );
    }

    #[test]
    fn validation_enforces_engine_capabilities() {
        // Trace-backed and sampled engines cannot drive smpN platforms.
        assert_eq!(
            CampaignBuilder::smoke()
                .platforms([PlatformVariant::smp(4)])
                .trace_backed()
                .validate()
                .err(),
            Some(SpecError::ModeIncompatiblePlatform {
                mode: "trace-backed",
                platform: "smp4".to_string(),
            })
        );
        assert_eq!(
            CampaignBuilder::smoke()
                .platforms([PlatformVariant::smp(2)])
                .sampled(8)
                .validate()
                .err(),
            Some(SpecError::ModeIncompatiblePlatform {
                mode: "sampled",
                platform: "smp2".to_string(),
            })
        );
        // The sampled engine replaces the fixed fault axis.
        assert_eq!(
            CampaignBuilder::smoke()
                .fault_seeds([1])
                .sampled(8)
                .validate()
                .err(),
            Some(SpecError::FaultSeedsWithSampling)
        );
        // The full engine accepts both.
        assert!(CampaignBuilder::smoke()
            .platforms([PlatformVariant::smp(2)])
            .fault_seeds([1])
            .validate()
            .is_ok());
    }

    #[test]
    fn non_mesi_protocols_require_an_all_smp_platform_axis() {
        // Smoke's default platform axis is the single-core `wb`.
        for protocol in [ProtocolKind::Dragon, ProtocolKind::Moesi] {
            assert_eq!(
                CampaignBuilder::smoke().protocol(protocol).validate().err(),
                Some(SpecError::ProtocolNeedsSmp {
                    protocol: protocol.table().name(),
                    platform: "wb".to_string(),
                })
            );
        }
        // A mixed axis reports the first single-core offender.
        assert_eq!(
            CampaignBuilder::smoke()
                .platforms([PlatformVariant::smp(4), PlatformVariant::WriteThrough])
                .protocol(ProtocolKind::Dragon)
                .validate()
                .err(),
            Some(SpecError::ProtocolNeedsSmp {
                protocol: "dragon",
                platform: "wt".to_string(),
            })
        );
        // All-SMP grids accept every protocol; MESI accepts every platform.
        for protocol in ProtocolKind::ALL {
            assert!(CampaignBuilder::smoke()
                .platforms([PlatformVariant::smp(2), PlatformVariant::smp(4)])
                .protocol(protocol)
                .validate()
                .is_ok());
        }
        assert!(CampaignBuilder::smoke()
            .protocol(ProtocolKind::Mesi)
            .validate()
            .is_ok());
    }

    #[test]
    fn protocol_round_trips_through_json_and_defaults_to_mesi_when_absent() {
        for protocol in ProtocolKind::ALL {
            let spec = CampaignBuilder::smoke()
                .platforms([PlatformVariant::smp(2)])
                .protocol(protocol)
                .build()
                .expect("well-formed");
            let json = spec.to_json();
            assert!(json.contains(&format!("\"protocol\": \"{protocol}\"")));
            assert_eq!(CampaignSpec::from_json(&json), Ok(spec));
        }
        // A spec written before the protocol axis existed parses as MESI.
        let modern = CampaignBuilder::smoke().build().unwrap().to_json();
        let legacy = modern.replace("  \"protocol\": \"mesi\",\n", "");
        assert_ne!(legacy, modern, "the protocol line must have been removed");
        let parsed = CampaignSpec::from_json(&legacy).expect("legacy specs stay readable");
        assert_eq!(parsed.protocol, ProtocolKind::Mesi);
        assert_eq!(parsed, CampaignSpec::from_json(&modern).unwrap());
    }

    #[test]
    fn invalid_plans_are_typed_by_violation() {
        for (build, violation) in [
            (
                CampaignBuilder::smoke().sampled(0),
                PlanViolation::ZeroBudget,
            ),
            (
                CampaignBuilder::smoke().sampled(8).batch(0),
                PlanViolation::ZeroBatch,
            ),
            (
                CampaignBuilder::smoke().sampled(8).confidence(1.0),
                PlanViolation::ConfidenceOutOfRange,
            ),
            (
                CampaignBuilder::smoke().sampled(8).confidence(f64::NAN),
                PlanViolation::ConfidenceOutOfRange,
            ),
            (
                CampaignBuilder::smoke().sampled(8).max_rel_error(0.0),
                PlanViolation::NonPositiveRelError,
            ),
            (
                CampaignBuilder::smoke().sampled(8).max_rel_error(f64::NAN),
                PlanViolation::NonPositiveRelError,
            ),
        ] {
            assert_eq!(
                build.validate().err(),
                Some(SpecError::InvalidPlan(violation))
            );
        }
    }

    /// What each mode's engine can drive: its kind label, `smpN`
    /// platforms, the fixed fault-seed axis, and lifecycle records from
    /// [`Campaign::run_forensic`].
    #[test]
    fn engine_capabilities_match_their_modes() {
        let mut plan = SamplingPlan::new(4);
        plan.min_samples = 4;
        plan.batch = 4;
        let sampled = ExecutionMode::Sampled {
            plan,
            execution: SampleExecution::FullSim,
        };
        for (mode, kind, multi_core, fault_axis, forensics) in [
            (ExecutionMode::Full, "full", true, true, true),
            (
                ExecutionMode::TraceBacked { cache_dir: None },
                "trace-backed",
                false,
                true,
                true,
            ),
            (sampled, "sampled", false, false, false),
        ] {
            assert_eq!(mode.kind(), kind);
            let mut grid = campaign::CampaignSpec::smoke();
            grid.workloads = WorkloadSet::Named(vec!["vector_sum".into()]);
            grid.schemes = vec![EccScheme::Laec];
            let validate = |grid: &campaign::CampaignSpec| {
                CampaignSpec::from_grid(grid, mode.clone()).validate()
            };
            let mut smp = grid.clone();
            smp.platforms = vec![PlatformVariant::smp(2)];
            assert_eq!(validate(&smp).is_ok(), multi_core, "{kind}");
            let mut faulty = grid.clone();
            faulty.fault_seeds = vec![1];
            assert_eq!(validate(&faulty).is_ok(), fault_axis, "{kind}");
            let campaign = Campaign::new(validate(&grid).expect("a valid spec"));
            let (_, records) = campaign.run_forensic(1, &Obs::disabled());
            assert_eq!(records.is_some(), forensics, "{kind}");
        }
    }

    #[test]
    fn spec_json_rejects_structural_problems_by_variant() {
        let valid = CampaignBuilder::smoke().build().unwrap().to_json();

        assert!(matches!(
            CampaignSpec::from_json("{not json"),
            Err(SpecError::Json(_))
        ));
        assert_eq!(
            CampaignSpec::from_json(&valid.replace("\"version\": 2", "\"version\": 3")),
            Err(SpecError::UnsupportedVersion(3))
        );
        assert_eq!(
            CampaignSpec::from_json(&valid.replace("\"seed\"", "\"sead\"")),
            Err(SpecError::UnknownField("sead".to_string()))
        );
        assert_eq!(
            CampaignSpec::from_json(&valid.replace("\"laec\"", "\"leac\"")),
            Err(SpecError::UnknownScheme("leac".to_string()))
        );
        assert_eq!(
            CampaignSpec::from_json(&valid.replace("\"wb\"", "\"bw\"")),
            Err(SpecError::UnknownPlatform("bw".to_string()))
        );
        assert_eq!(
            CampaignSpec::from_json(&valid.replace("\"data\"", "\"dta\"")),
            Err(SpecError::UnknownFaultTarget("dta".to_string()))
        );
        assert_eq!(
            CampaignSpec::from_json(&valid.replace("\"mesi\"", "\"mosi\"")),
            Err(SpecError::UnknownProtocol("mosi".to_string()))
        );
        assert_eq!(
            CampaignSpec::from_json(&valid.replace("\"full\"", "\"fulll\"")),
            Err(SpecError::UnknownModeKind("fulll".to_string()))
        );
        // `smp` is not a mode: the platform axis sets the core count.
        assert_eq!(
            CampaignSpec::from_json(&valid.replace("\"full\"", "\"smp\"")),
            Err(SpecError::UnknownModeKind("smp".to_string()))
        );
        assert_eq!(
            CampaignSpec::from_json(
                &valid.replace("\"fault_interval\": 1000", "\"fault_interval\": \"x\"")
            ),
            Err(SpecError::InvalidField("fault_interval"))
        );
        assert_eq!(
            CampaignSpec::from_json("{\"version\": 2}"),
            Err(SpecError::MissingField("schemes"))
        );
    }
}
