//! The four workloads, their set-up, their output checks, and the two ways
//! to run them: untraced (end-to-end metrics) and traced (per-layer
//! metrics).
//!
//! Every workload runs on one simulation thread (`threads = 1`, and
//! `ServerConfig.threads = 1` with inline workers), in this process, as a
//! closed loop with one client: the next repetition starts when the
//! previous one has been checked.  Simulated caches start empty in every
//! run, because every grid cell builds a fresh hierarchy.

use std::collections::BTreeMap;
use std::fs;
use std::hint::black_box;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use laec_core::campaign::{CampaignSpec as GridSpec, PlatformVariant};
use laec_core::spec::{Campaign, CampaignBuilder, CampaignOutcome, CampaignSpec, ValidatedSpec};
use laec_core::{record_cell, replay_cell_events, run_observed_core, CampaignCell, Sampler};
use laec_ecc::Codeword;
use laec_fleet::store;
use laec_fleet::{submit, FleetPaths, JobRecord, Server, ServerConfig, ServerSummary};
use laec_fleet::{Submission, DEFAULT_PRIORITY};
use laec_mem::{FaultCampaignConfig, HierarchyConfig, MemStats, ProtocolKind};
use laec_obs::Obs;
use laec_pipeline::{EccScheme, PipelineConfig, SimResult, Simulator};
use laec_smp::{SmpRunResult, SmpSystem, StopPolicy};
use laec_trace::{Divergence, TraceDetail};
use laec_workloads::smp::{
    false_sharing, parallel_reduction, parallel_reduction_expected, producer_consumer,
    producer_consumer_expected, RESULT_BASE, SHARED_BASE,
};
use laec_workloads::SmpWorkload;

use crate::stats::{fnv1a, geometric_mean, median, mix64, quantile};
use crate::tracer::Tracer;

mod traced;

/// FNV-1a digest of `grid_full`'s report JSON at the default seed.  A
/// change to this value means the simulated results changed.
const GRID_FULL_DIGEST: u64 = 0x3fd0_eb40_db38_2725;

/// The end-to-end metrics, in output order: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 4] = [
    ("runs_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_heap_mb", "MiB"),
    ("laec_slowdown", "ratio"),
];

/// The per-layer metrics of the traced run, in output order.
pub const PER_LAYER: [(&str, &str); 59] = [
    ("spec.parse_ms", "ms"),
    ("spec.validate_ms", "ms"),
    ("workloads.materialize_ms", "ms"),
    ("pipeline.execute_ms", "ms"),
    ("pipeline.ns_per_instr", "ns"),
    ("pipeline.instructions", "count"),
    ("pipeline.cycles", "count"),
    ("mem.dl1_accesses", "count"),
    ("mem.dl1_misses", "count"),
    ("mem.l2_accesses", "count"),
    ("mem.writebacks", "count"),
    ("mem.bus_transactions", "count"),
    ("ecc.checks", "count"),
    ("ecc.encodes", "count"),
    ("ecc.corrected", "count"),
    ("ecc.uncorrectable", "count"),
    ("ecc.encode_ns", "ns"),
    ("ecc.decode_ns", "ns"),
    ("ecc.share", "ratio"),
    ("trace.record_ms", "ms"),
    ("trace.record_overhead", "ratio"),
    ("trace.decode_ms", "ms"),
    ("trace.replay_ms", "ms"),
    ("trace.diverged_ms", "ms"),
    ("trace.fallback_ms", "ms"),
    ("trace.events", "count"),
    ("trace.bytes", "count"),
    ("trace.replayed", "count"),
    ("trace.fallbacks", "count"),
    ("trace.div_load_value", "count"),
    ("trace.div_load_timing", "count"),
    ("trace.div_scheme_timing", "count"),
    ("trace.div_position", "ratio"),
    ("smp.kernels_ms", "ms"),
    ("smp.campaign_ms", "ms"),
    ("smp.sharing_ms", "ms"),
    ("smp.ns_per_instr", "ns"),
    ("smp.snoop_lookups", "count"),
    ("smp.invalidations", "count"),
    ("smp.interventions", "count"),
    ("smp.bus_updates", "count"),
    ("sampler.baseline_ms", "ms"),
    ("sampler.round_ms", "ms"),
    ("sampler.samples", "count"),
    ("sampler.rounds", "count"),
    ("sampler.strata_converged", "count"),
    ("fleet.setup_ms", "ms"),
    ("fleet.submit_ms", "ms"),
    ("fleet.serve_ms", "ms"),
    ("fleet.lookup_ms", "ms"),
    ("fleet.lookup_p95_ms", "ms"),
    ("fleet.protocol_overhead", "ratio"),
    ("fleet.job_records", "count"),
    ("fleet.events", "count"),
    ("fleet.shards", "count"),
    ("report.json_ms", "ms"),
    ("report.render_ms", "ms"),
    ("core.residual_ms", "ms"),
    ("bench.tracing_overhead", "ratio"),
];

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// The paper grid, fault axis included, in full simulation.
    GridFull,
    /// The same spec under trace-backed execution.
    GridReplay,
    /// Kernel suite on `smp4` with faults, plus the write-sharing kernels.
    SmpCoherence,
    /// A sampled trace-backed spec served by an in-process fleet server.
    FleetSampled,
}

impl Kind {
    const ALL: [Kind; 4] = [
        Kind::GridFull,
        Kind::GridReplay,
        Kind::SmpCoherence,
        Kind::FleetSampled,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::GridFull => "grid_full",
            Kind::GridReplay => "grid_replay",
            Kind::SmpCoherence => "smp_coherence",
            Kind::FleetSampled => "fleet_sampled",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|kind| kind.name() == name)
    }
}

/// How one invocation runs.
#[derive(Debug, Clone)]
pub struct Options {
    /// Which workload.
    pub kind: Kind,
    /// The workload seed: the campaign's master seed.
    pub seed: u64,
    /// How long the timed repetitions run.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
    /// Shrunken inputs, for the benchmark's own tests.
    pub tiny: bool,
    /// Where fleet roots and the Chrome trace go.
    pub out_dir: PathBuf,
}

/// One printed metric.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// What one invocation reports.
#[derive(Debug, Clone)]
pub struct Report {
    /// Operations whose output was checked (repetitions and resubmissions).
    pub attempted: u64,
    /// Operations whose check failed.
    pub failed: u64,
    /// End-to-end or per-layer metrics.
    pub metrics: Vec<Metric>,
}

/// Input sizes.
struct Size {
    fault_seeds: &'static [u64],
    sample_budget: u64,
    min_samples: u64,
    reduction_n: u32,
    ring_items: u32,
    false_sharing_iters: u32,
    /// Set-ups before the first repetition and after each one; `setup_s`
    /// is the median of all of them.  Spreading them over the run samples
    /// the same host conditions the repetitions see.
    setups_per_rep: usize,
    /// Timed repetitions a run makes at least, however long they take.
    min_reps: usize,
    /// Cache-hit resubmissions per repetition, on the repetition's fresh
    /// root.  Fixed, because `submit` lists `jobs/` on every call and its
    /// latency grows with the number of job records.
    resubmissions: usize,
}

const FULL: Size = Size {
    fault_seeds: &[1, 2, 3, 4],
    sample_budget: 512,
    min_samples: 64,
    reduction_n: 16384,
    ring_items: 3072,
    false_sharing_iters: 3072,
    setups_per_rep: 8,
    min_reps: 5,
    resubmissions: 40,
};

const TINY: Size = Size {
    fault_seeds: &[1, 2],
    sample_budget: 64,
    min_samples: 32,
    reduction_n: 256,
    ring_items: 64,
    false_sharing_iters: 64,
    setups_per_rep: 2,
    min_reps: 2,
    resubmissions: 10,
};

const CORES: u32 = 4;
const PROTOCOLS: [ProtocolKind; 3] = [
    ProtocolKind::Mesi,
    ProtocolKind::Dragon,
    ProtocolKind::Moesi,
];

/// The campaign spec of a workload, as the JSON text a user would submit.
fn spec_json(kind: Kind, seed: u64, tiny: bool) -> Result<String, String> {
    let size = if tiny { &TINY } else { &FULL };
    let kernels = |builder: CampaignBuilder| {
        if tiny {
            builder.named_workloads(["vector_sum", "bit_count"])
        } else {
            builder
        }
    };
    let builder = match kind {
        Kind::GridFull | Kind::GridReplay => {
            let base = if tiny {
                CampaignBuilder::smoke()
            } else {
                CampaignBuilder::paper()
            };
            let base = base
                .fault_seeds(size.fault_seeds.iter().copied())
                .fault_interval(200);
            if kind == Kind::GridReplay {
                base.trace_backed()
            } else {
                base
            }
        }
        Kind::SmpCoherence => kernels(CampaignBuilder::smoke())
            .platforms([PlatformVariant::smp(CORES)])
            .fault_seeds(size.fault_seeds.iter().copied())
            .fault_interval(200),
        Kind::FleetSampled => kernels(CampaignBuilder::smoke())
            .schemes([EccScheme::NoEcc, EccScheme::Laec])
            .fault_interval(500)
            .sampled(size.sample_budget)
            .batch(32)
            .min_samples(size.min_samples)
            .trace_backed(),
    };
    let spec = builder.seed(seed).build().map_err(|e| e.to_string())?;
    Ok(spec.to_json())
}

/// One write-sharing kernel run and how its result is checked.
struct Kernel {
    workload: SmpWorkload,
    protocol: ProtocolKind,
    expect: Expect,
}

enum Expect {
    /// The word at `RESULT_BASE`.
    Result(u32),
    /// Every core's counter in the shared line equals this.
    Counters(u32),
}

fn build_kernels(size: &Size) -> Vec<Kernel> {
    let mut kernels = Vec::new();
    for protocol in PROTOCOLS {
        kernels.push(Kernel {
            workload: parallel_reduction(CORES, size.reduction_n),
            protocol,
            expect: Expect::Result(parallel_reduction_expected(size.reduction_n)),
        });
        kernels.push(Kernel {
            workload: producer_consumer(CORES, size.ring_items, 8),
            protocol,
            expect: Expect::Result(producer_consumer_expected(size.ring_items)),
        });
        kernels.push(Kernel {
            workload: false_sharing(CORES, size.false_sharing_iters),
            protocol,
            expect: Expect::Counters(size.false_sharing_iters),
        });
    }
    kernels
}

/// Runs one kernel to completion; the flag is its output check.
fn run_kernel(kernel: &Kernel) -> (SmpRunResult, bool) {
    let configs = vec![PipelineConfig::laec(); kernel.workload.cores()];
    let mut system =
        SmpSystem::with_protocol(kernel.workload.programs.clone(), configs, kernel.protocol);
    let run = system.run(StopPolicy::AllHalt);
    let memory = system.memory();
    let ok = run.cores.iter().all(|core| !core.hit_instruction_limit)
        && match kernel.expect {
            Expect::Result(value) => memory.peek_memory(RESULT_BASE) == value,
            Expect::Counters(iters) => {
                (0..CORES).all(|core| memory.peek_coherent(SHARED_BASE + 4 * core) == iters)
            }
        };
    (run, ok)
}

/// What one set-up produces.
struct Prepared {
    validated: ValidatedSpec,
    grid: GridSpec,
    kernels: Vec<Kernel>,
}

/// What a run computes once, untimed, to check repetitions against.
struct Reference {
    /// `grid_replay`: the full-simulation report.  `fleet_sampled`:
    /// `Campaign::run(1)` of the spec.
    json: Option<String>,
    /// `fleet_sampled`: the reference outcome (runs, slowdown).
    outcome: Option<CampaignOutcome>,
    /// `fleet_sampled`: simulated instructions of one repetition's samples,
    /// counting each sample at its stratum's fault-free instruction count.
    instructions: u64,
}

/// The output of one repetition's cold part.  One exists at a time, so
/// the variants' size difference costs nothing.
#[allow(clippy::large_enum_variant)]
enum Cold {
    Grid {
        outcome: CampaignOutcome,
        json: String,
        sharing: Vec<(SmpRunResult, bool)>,
    },
    Fleet {
        submission: Submission,
        summary: ServerSummary,
    },
}

/// What checking one repetition established.
struct Checked {
    ok: bool,
    runs: u64,
    instructions: u64,
    slowdown: f64,
    counts: BTreeMap<&'static str, u64>,
}

/// Exact per-layer counts of one traced iteration, read from the return
/// values of the calls it made.
#[derive(Debug, Default, Clone, PartialEq)]
struct Tally {
    pipeline_instructions: u64,
    pipeline_cycles: u64,
    execute_instructions: u64,
    dl1_accesses: u64,
    dl1_misses: u64,
    l2_accesses: u64,
    writebacks: u64,
    bus_transactions: u64,
    ecc_checks: u64,
    ecc_encodes: u64,
    ecc_corrected: u64,
    ecc_uncorrectable: u64,
    trace_events: u64,
    trace_bytes: u64,
    replayed: u64,
    fallbacks: u64,
    div_load_value: u64,
    div_load_timing: u64,
    div_scheme_timing: u64,
    div_positions: Vec<f64>,
    sharing_instructions: u64,
    snoop_lookups: u64,
    invalidations: u64,
    interventions: u64,
    bus_updates: u64,
    samples: u64,
    rounds: u64,
    strata_converged: u64,
    job_records: u64,
    events: u64,
    shards: u64,
}

impl Tally {
    /// A simulation's pipeline and hierarchy counts.
    fn add_sim(&mut self, result: &SimResult) {
        self.pipeline_instructions += result.stats.instructions;
        self.pipeline_cycles += result.stats.cycles;
        self.add_hierarchy(&result.stats.mem);
        self.bus_transactions += result.stats.mem.bus_transactions;
        self.ecc_corrected +=
            result.stats.mem.dl1.ecc.corrected() + result.stats.mem.l2.ecc.corrected();
        self.ecc_uncorrectable +=
            result.stats.mem.dl1.ecc.uncorrectable() + result.stats.mem.l2.ecc.uncorrectable();
    }

    /// Hierarchy work (accesses, checks, re-encodes) of one run.  A replay
    /// returns only a grid cell, so its hierarchy work is taken from the
    /// fault-free simulation of the same cell, which issues the same
    /// access stream.
    fn add_hierarchy(&mut self, mem: &MemStats) {
        let words = u64::from(HierarchyConfig::ngmp_write_back().dl1.words_per_line());
        self.dl1_accesses += mem.dl1.accesses();
        self.dl1_misses += mem.dl1.read_misses + mem.dl1.write_misses;
        self.l2_accesses += mem.l2.accesses();
        self.writebacks += mem.dl1.writebacks + mem.l2.writebacks;
        self.ecc_checks += mem.dl1.ecc.total() + mem.l2.ecc.total();
        // An upper bound: every write re-encodes one word, every fill a line.
        self.ecc_encodes +=
            mem.dl1.writes() + mem.dl1.fills * words + mem.l2.writes() + mem.l2.fills * words;
    }

    /// The counts a grid cell carries.
    fn add_cell(&mut self, cell: &CampaignCell) {
        self.bus_transactions += cell.bus_transactions;
        self.ecc_corrected += cell.faults_corrected;
        self.ecc_uncorrectable += cell.faults_detected_uncorrectable;
    }
}

/// The benchmark's own injection seed for one cell: derived from the
/// workload seed, because the engine's per-job seed is crate-private.
fn cell_seed(seed: u64, workload: usize, platform: usize, scheme: usize, fault: usize) -> u64 {
    mix64(
        seed ^ mix64(
            ((workload as u64) << 32)
                | ((platform as u64) << 24)
                | ((scheme as u64) << 16)
                | fault as u64,
        ),
    )
}

fn cell_config(
    grid: &GridSpec,
    scheme: EccScheme,
    platform: PlatformVariant,
    fault_seed: Option<u64>,
) -> PipelineConfig {
    let config = platform.apply_config(PipelineConfig::for_scheme(scheme));
    match fault_seed {
        Some(seed) => config.with_fault_campaign(
            FaultCampaignConfig::single_bit(seed, grid.fault_interval)
                .with_target(grid.fault_target),
        ),
        None => config,
    }
}

fn server_config() -> ServerConfig {
    ServerConfig {
        workers: 0,
        shards: 4,
        threads: 1,
        drain: true,
        ..ServerConfig::default()
    }
}

/// Nanoseconds per operation of `pass`, which makes `ops_per_pass`
/// operations: the median of 15 batches of at least 1 ms each.
fn ns_per_op(ops_per_pass: usize, mut pass: impl FnMut()) -> f64 {
    let mut passes = 1u32;
    loop {
        let start = Instant::now();
        for _ in 0..passes {
            pass();
        }
        if start.elapsed() >= Duration::from_millis(1) {
            break;
        }
        passes *= 2;
    }
    let samples: Vec<f64> = (0..15)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..passes {
                pass();
            }
            start.elapsed().as_nanos() as f64 / (f64::from(passes) * ops_per_pass as f64)
        })
        .collect();
    median(&samples)
}

/// `(encode_ns, decode_ns)` of the DL1's SEC-DED code (Hsiao 39/32),
/// called through `CodeKind::instantiate()` — the `dyn EccCode` path the
/// cache uses.
fn ecc_costs() -> (f64, f64) {
    let code = HierarchyConfig::ngmp_write_back()
        .dl1
        .protection
        .instantiate();
    let words: Vec<u64> = (0..4096u64).map(|i| mix64(i) & 0xFFFF_FFFF).collect();
    let codewords: Vec<Codeword> = words.iter().map(|&w| Codeword::encode(&*code, w)).collect();
    let encode = ns_per_op(words.len(), || {
        for &word in &words {
            black_box(Codeword::encode(&*code, black_box(word)));
        }
    });
    let decode = ns_per_op(codewords.len(), || {
        for codeword in &codewords {
            black_box(black_box(codeword).decode(&*code));
        }
    });
    (encode, decode)
}

fn map_err(error: impl std::fmt::Display) -> String {
    error.to_string()
}

/// A fresh fleet root and its server (`fleet_sampled` only).
struct Root {
    paths: FleetPaths,
    server: Server,
}

impl Root {
    fn remove(self) {
        drop(self.server);
        let _ = fs::remove_dir_all(self.paths.root());
    }
}

/// One invocation's state.
struct Bench<'a> {
    opts: &'a Options,
    size: &'static Size,
    spec_json: String,
    key: String,
    run_dir: PathBuf,
    roots: u64,
}

impl Bench<'_> {
    /// One set-up: spec JSON parse + validate + `materialize_workloads`,
    /// plus the write-sharing kernels on `smp_coherence`.  A fleet root is
    /// not part of it: its cost is the disk's (see `fresh_root`).
    fn set_up(&self, t: &mut Tracer) -> Result<Prepared, String> {
        let spec = t
            .time("spec.parse", || CampaignSpec::from_json(&self.spec_json))
            .map_err(map_err)?;
        let validated = t
            .time("spec.validate", || spec.validate())
            .map_err(map_err)?;
        let grid = validated.grid();
        black_box(t.time("workloads.materialize", || grid.materialize_workloads()));
        let kernels = if self.opts.kind == Kind::SmpCoherence {
            t.time("smp.kernels", || build_kernels(self.size))
        } else {
            Vec::new()
        };
        Ok(Prepared {
            validated,
            grid,
            kernels,
        })
    }

    /// A fresh fleet root for `fleet_sampled` (`None` for the others):
    /// `FleetPaths::init` + `Server::new`.  Created before a repetition's
    /// timer starts, because its time is the shared disk's: over five
    /// minutes it went from 0.23 to 0.88 ms with no change to the code.
    fn fresh_root(&mut self, t: &mut Tracer) -> Result<Option<Root>, String> {
        if self.opts.kind != Kind::FleetSampled {
            return Ok(None);
        }
        self.roots += 1;
        let paths = FleetPaths::new(self.run_dir.join(format!("root-{}", self.roots)));
        let server = t
            .time("fleet.setup", || {
                paths.init()?;
                Server::new(paths.clone(), server_config())
            })
            .map_err(map_err)?;
        Ok(Some(Root { paths, server }))
    }

    fn reference(&self, prep: &Prepared, obs: &Obs) -> Result<Reference, String> {
        match self.opts.kind {
            Kind::GridReplay => {
                let mut full = prep.validated.spec().clone();
                full.mode = laec_core::spec::ExecutionMode::Full;
                let validated = full.validate().map_err(map_err)?;
                Ok(Reference {
                    json: Some(Campaign::new(validated).run(1).to_json()),
                    outcome: None,
                    instructions: 0,
                })
            }
            Kind::FleetSampled => {
                let outcome = Campaign::new(prep.validated.clone()).run_observed(1, obs);
                let report = outcome.sampled().ok_or("sampled spec gave a grid report")?;
                let workloads = prep.grid.materialize_workloads();
                let mut instructions = 0;
                for stratum in &report.strata {
                    let workload = workloads
                        .iter()
                        .find(|w| w.name == stratum.workload)
                        .ok_or("stratum names an unknown workload")?;
                    let scheme: EccScheme = stratum.scheme.parse().map_err(map_err)?;
                    let platform: PlatformVariant = stratum.platform.parse().map_err(map_err)?;
                    let result = Simulator::run(
                        workload.program.clone(),
                        cell_config(&prep.grid, scheme, platform, None),
                    );
                    instructions += stratum.samples * result.stats.instructions;
                }
                Ok(Reference {
                    json: Some(outcome.to_json()),
                    outcome: Some(outcome),
                    instructions,
                })
            }
            Kind::GridFull | Kind::SmpCoherence => Ok(Reference {
                json: None,
                outcome: None,
                instructions: 0,
            }),
        }
    }

    /// The cold part of one repetition: the work `runs_per_s` times.
    fn cold_rep(
        &self,
        prep: &Prepared,
        root: Option<&mut Root>,
        obs: &Obs,
    ) -> Result<Cold, String> {
        if let Some(root) = root {
            let submission =
                submit(&root.paths, &self.spec_json, DEFAULT_PRIORITY).map_err(map_err)?;
            let summary = root.server.run().map_err(map_err)?;
            return Ok(Cold::Fleet {
                submission,
                summary,
            });
        }
        let outcome = Campaign::new(prep.validated.clone()).run_observed(1, obs);
        let json = outcome.to_json();
        black_box(outcome.render());
        let sharing = prep.kernels.iter().map(run_kernel).collect();
        Ok(Cold::Grid {
            outcome,
            json,
            sharing,
        })
    }

    /// Checks one repetition's output and collects its exact counts.
    fn check(
        &self,
        cold: &Cold,
        reference: &Reference,
        root: Option<&Root>,
    ) -> Result<Checked, String> {
        let mut counts = BTreeMap::new();
        match cold {
            Cold::Grid {
                outcome,
                json,
                sharing,
            } => {
                let report = outcome.grid().ok_or("grid spec gave a sampled report")?;
                let digest = fnv1a(json.as_bytes());
                let mut ok = outcome.architecturally_equivalent();
                match self.opts.kind {
                    Kind::GridFull if self.opts.seed == crate::DEFAULT_SEED && !self.opts.tiny => {
                        ok &= digest == GRID_FULL_DIGEST;
                    }
                    Kind::GridReplay => ok &= reference.json.as_ref() == Some(json),
                    _ => {}
                }
                let cells = &report.cells;
                let sum = |field: fn(&CampaignCell) -> u64| cells.iter().map(field).sum::<u64>();
                counts.insert("report_digest", digest);
                counts.insert("cells", cells.len() as u64);
                counts.insert("instructions", sum(|c| c.instructions));
                counts.insert("cycles", sum(|c| c.cycles));
                counts.insert("faults_injected", sum(|c| c.faults_injected));
                counts.insert("faults_corrected", sum(|c| c.faults_corrected));
                counts.insert(
                    "faults_uncorrectable",
                    sum(|c| c.faults_detected_uncorrectable),
                );
                counts.insert("unrecoverable", sum(|c| c.unrecoverable_errors));
                counts.insert("bus_transactions", sum(|c| c.bus_transactions));
                counts.insert("snoop_lookups", sum(|c| c.snoop_lookups));
                if let Some(stats) = outcome.trace_stats() {
                    counts.insert("trace_recorded", stats.recorded);
                    counts.insert("trace_replayed", stats.replayed);
                    counts.insert("trace_fallbacks", stats.fallbacks);
                }
                let mut instructions = counts["instructions"];
                if !sharing.is_empty() {
                    let cores = || sharing.iter().flat_map(|(run, _)| &run.cores);
                    let coherence = |field: fn(&SmpRunResult) -> u64| {
                        sharing.iter().map(|(run, _)| field(run)).sum::<u64>()
                    };
                    ok &= sharing.iter().all(|(_, kernel_ok)| *kernel_ok);
                    let sharing_instructions = cores().map(|c| c.stats.instructions).sum::<u64>();
                    instructions += sharing_instructions;
                    counts.insert("sharing_runs", sharing.len() as u64);
                    counts.insert("sharing_instructions", sharing_instructions);
                    counts.insert("sharing_cycles", cores().map(|c| c.stats.cycles).sum());
                    counts.insert(
                        "sharing_snoop_lookups",
                        coherence(|r| r.coherence.snoop_lookups),
                    );
                    counts.insert(
                        "sharing_invalidations",
                        coherence(|r| r.coherence.invalidations),
                    );
                    counts.insert(
                        "sharing_interventions",
                        coherence(|r| r.coherence.interventions),
                    );
                    counts.insert(
                        "sharing_bus_updates",
                        coherence(|r| r.coherence.bus_updates),
                    );
                }
                Ok(Checked {
                    ok,
                    runs: (cells.len() + sharing.len()) as u64,
                    instructions,
                    slowdown: laec_column(&report.slowdowns.schemes, &report.slowdowns.averages),
                    counts,
                })
            }
            Cold::Fleet {
                submission,
                summary,
            } => {
                let paths = &root.ok_or("a fleet repetition needs a root")?.paths;
                let outcome = reference.outcome.as_ref().ok_or("no reference outcome")?;
                let report = outcome.sampled().ok_or("no reference report")?;
                let stored = store::lookup(paths, &self.key)
                    .and_then(|dir| fs::read_to_string(dir.join("report.json")).ok())
                    .unwrap_or_default();
                let expected = format!("{}\n", reference.json.as_deref().unwrap_or_default());
                let ok = !submission.cached
                    && submission.store_key == self.key
                    && *summary
                        == (ServerSummary {
                            jobs_run: 1,
                            jobs_cached: 0,
                            jobs_failed: 0,
                        })
                    && stored == expected;
                let record = JobRecord::load(paths, submission.id).map_err(map_err)?;
                counts.insert("report_digest", fnv1a(stored.as_bytes()));
                counts.insert("samples", report.total_samples);
                counts.insert("strata_converged", report.converged_strata);
                counts.insert("shards", record.shards);
                Ok(Checked {
                    ok,
                    runs: report.total_samples,
                    instructions: reference.instructions,
                    slowdown: fleet_slowdown(report),
                    counts,
                })
            }
        }
    }

    /// Resubmits the spec a fixed number of times; each must be answered
    /// from the store under the same key.  Returns the failed count.
    fn resubmit(&self, root: &Root, t: &mut Tracer, latencies: &mut Vec<f64>) -> u64 {
        let paths = &root.paths;
        let mut failed = 0;
        for _ in 0..self.size.resubmissions {
            let start = Instant::now();
            let submission = t.time("fleet.lookup", || {
                submit(paths, &self.spec_json, DEFAULT_PRIORITY)
            });
            latencies.push(start.elapsed().as_secs_f64() * 1e3);
            if !matches!(&submission, Ok(s) if s.cached && s.store_key == self.key) {
                failed += 1;
            }
        }
        failed
    }

    /// The end-to-end run.
    fn run_untraced(&mut self) -> Result<Report, String> {
        let mut setup_s = Vec::new();
        let prep = self.set_ups(&mut setup_s)?;
        let reference = self.reference(&prep, &Obs::disabled())?;
        let mut ops = Ops::default();
        let mut rep_s = Vec::new();
        let mut latencies = Vec::new();
        let mut timed_since = None;
        let mut first: Option<Checked> = None;
        loop {
            let mut root = self.fresh_root(&mut Tracer::off())?;
            let start = Instant::now();
            let cold = self.cold_rep(&prep, root.as_mut(), &Obs::disabled());
            let elapsed = start.elapsed().as_secs_f64();
            let checked = cold
                .as_ref()
                .map_err(Clone::clone)
                .and_then(|cold| self.check(cold, &reference, root.as_ref()));
            ops.record(&checked, &mut first);
            let mut hits = Vec::new();
            if let Some(root) = root {
                if cold.is_ok() {
                    ops.failed += self.resubmit(&root, &mut Tracer::off(), &mut hits);
                    ops.attempted += self.size.resubmissions as u64;
                }
                root.remove();
            }
            self.set_ups(&mut setup_s)?;
            match timed_since {
                None => timed_since = Some(Instant::now()),
                Some(since) => {
                    rep_s.push(elapsed);
                    latencies.extend(hits);
                    if rep_s.len() >= self.size.min_reps
                        && since.elapsed().as_secs_f64() >= self.opts.seconds
                    {
                        break;
                    }
                }
            }
        }
        let first = first.ok_or("no repetition produced output")?;
        let median_rep = median(&rep_s);
        println!(
            "{} seed {:#x}: {} timed repetitions after 1 warm-up, median {:.4} s \
             (quartiles {:.4}-{:.4}); per repetition {} runs, {} simulated instructions",
            self.opts.kind.name(),
            self.opts.seed,
            rep_s.len(),
            median_rep,
            quantile(&rep_s, 0.25),
            quantile(&rep_s, 0.75),
            first.runs,
            first.instructions
        );
        println!(
            "{} set-ups; failed {} of {} operations",
            setup_s.len(),
            ops.failed,
            ops.attempted
        );
        if !latencies.is_empty() {
            println!(
                "cache-hit resubmissions: {}, median {:.4} ms, p95 {:.4} ms",
                latencies.len(),
                median(&latencies),
                quantile(&latencies, 0.95)
            );
        }
        println!("counts {}", counts_json(&first.counts));
        let metrics = vec![
            first.runs as f64 / median_rep,
            median(&setup_s),
            crate::heap::peak_mib(),
            first.slowdown,
        ];
        Ok(Report {
            attempted: ops.attempted,
            failed: ops.failed,
            metrics: END_TO_END
                .iter()
                .zip(metrics)
                .map(|(&(name, unit), value)| Metric { name, value, unit })
                .collect(),
        })
    }

    /// `size.setups_per_rep` timed set-ups, their durations appended to
    /// `samples`; returns the last one's state.
    fn set_ups(&self, samples: &mut Vec<f64>) -> Result<Prepared, String> {
        let mut last = None;
        for _ in 0..self.size.setups_per_rep {
            let start = Instant::now();
            let prep = self.set_up(&mut Tracer::off())?;
            samples.push(start.elapsed().as_secs_f64());
            last = Some(prep);
        }
        last.ok_or_else(|| "no set-up ran".to_string())
    }
}

/// Operations attempted and failed.
#[derive(Debug, Default)]
struct Ops {
    attempted: u64,
    failed: u64,
}

impl Ops {
    /// Counts one checked repetition.  The first repetition that produced
    /// output supplies the run's counts; every later one must match them.
    fn record(&mut self, checked: &Result<Checked, String>, first: &mut Option<Checked>) {
        self.attempted += 1;
        let checked = match checked {
            Ok(checked) => checked,
            Err(error) => {
                eprintln!("a repetition failed: {error}");
                self.failed += 1;
                return;
            }
        };
        if !checked.ok {
            eprintln!("a repetition failed its output check");
            self.failed += 1;
        }
        match first {
            Some(first) if first.counts != checked.counts => {
                eprintln!("counts differ between repetitions of one seed");
                self.failed += 1;
            }
            Some(_) => {}
            None => {
                *first = Some(Checked {
                    counts: checked.counts.clone(),
                    ..*checked
                });
            }
        }
    }
}

fn counts_json(counts: &BTreeMap<&'static str, u64>) -> String {
    let fields: Vec<String> = counts
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    format!("{{{}}}", fields.join(", "))
}

/// The `laec` column of a slowdown matrix's geometric-mean row.
fn laec_column(schemes: &[String], averages: &[Option<f64>]) -> f64 {
    schemes
        .iter()
        .zip(averages)
        .find(|(scheme, _)| **scheme == EccScheme::Laec.to_string())
        .and_then(|(_, average)| *average)
        .unwrap_or(0.0)
}

/// Geometric mean over workloads of fault-free LAEC cycles ÷ fault-free
/// no-ECC cycles, from the sampled report's stratum baselines.
fn fleet_slowdown(report: &laec_core::SampledReport) -> f64 {
    let baseline = |workload: &str, scheme: EccScheme| {
        report
            .strata
            .iter()
            .find(|s| s.workload == workload && s.scheme == scheme.to_string())
            .map(|s| s.baseline_cycles as f64)
    };
    let ratios: Vec<f64> = report
        .workloads
        .iter()
        .filter_map(|w| Some(baseline(w, EccScheme::Laec)? / baseline(w, EccScheme::NoEcc)?))
        .collect();
    geometric_mean(&ratios)
}

/// Runs one invocation.
pub fn run(opts: &Options) -> Result<Report, String> {
    let spec_json = spec_json(opts.kind, opts.seed, opts.tiny)?;
    let validated = CampaignSpec::from_json(&spec_json)
        .and_then(CampaignSpec::validate)
        .map_err(map_err)?;
    let run_dir = opts.out_dir.join(format!("run-{}", std::process::id()));
    let _ = fs::remove_dir_all(&run_dir);
    fs::create_dir_all(&run_dir).map_err(|e| format!("create {}: {e}", run_dir.display()))?;
    let mut bench = Bench {
        opts,
        size: if opts.tiny { &TINY } else { &FULL },
        key: laec_fleet::store_key(&validated),
        spec_json,
        run_dir: run_dir.clone(),
        roots: 0,
    };
    let result = if opts.trace {
        traced::run(&mut bench)
    } else {
        bench.run_untraced()
    };
    let _ = fs::remove_dir_all(&run_dir);
    result
}
