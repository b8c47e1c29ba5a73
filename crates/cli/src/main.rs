//! `laec-cli` — reproduce every artefact of the LAEC (DATE'19) paper from
//! one command.
//!
//! Subcommands:
//!
//! * `tables`   — Table I (commercial processors) and Table II (workload
//!   characterisation), optionally the §IV.A ablations,
//! * `figure8`  — the Figure 8 execution-time sweep plus the §IV.A summary
//!   claims,
//! * `campaign` — a parallel workload × scheme × platform × fault grid (see
//!   `laec_core::campaign`), optionally trace-backed (`--trace-backed`,
//!   `--trace-cache DIR`: fault-free runs replayed from recordings), and
//!   optionally *sampled* (`--sample N --confidence 0.95 --max-rel-error
//!   0.05 --checkpoint FILE --resume`, see `laec_core::sampling`): a
//!   stratified Monte-Carlo estimator with per-stratum confidence
//!   intervals, early stopping and checkpoint/resume sharding,
//! * `faults`   — the §I–II upset safety campaign (single-bit or
//!   adjacent-bit MBU patterns via `--pattern`),
//! * `trace`    — record, replay and inspect access-stream traces
//!   (`trace record|replay|info`, see `laec_trace`),
//! * `forensics` — per-fault lifecycle tracing over a campaign grid
//!   (strike → activation → outcome tables, detection-latency histograms,
//!   Chrome-trace export; see `laec_core::forensics`),
//! * `stats`    — render a metrics dump written by `campaign
//!   --metrics-out` (see `laec_obs`), or diff two dumps (`--compare`).
//!
//! Every subcommand accepts `--json` (machine-readable output), `--seed N`
//! and `--smoke` (small workload shape for quick runs); `campaign` also
//! accepts `--threads N`, the grid-axis flags documented in `--help`, and
//! the observability flags `--metrics-out FILE` / `--progress` — both keep
//! the stdout report byte-identical (metrics go to the file, progress
//! events to stderr).

use std::path::PathBuf;
use std::process::ExitCode;

use laec_core::campaign::{CampaignSpec, PlatformVariant, WorkloadSet};
use laec_core::experiment::{
    characterization, fault_campaign_with_pattern, figure8, hazard_breakdown, wt_vs_wb,
};
use laec_core::forensics::ForensicsReport;
use laec_core::observe::record_outcome_metrics;
use laec_core::sampling::{render_sampled, SampleExecution, Sampler, SamplerCheckpoint};
use laec_core::spec::{
    Campaign, CampaignBuilder, CampaignOutcome, CampaignSpec as SpecV2, ExecutionMode,
    ValidatedSpec,
};
use laec_core::trace_backed::{record_cell, replay_cell, trace_file_name};
use laec_core::{
    render_fault_campaign, render_figure8, render_hazard_breakdown, render_table1, render_table2,
    render_wt_vs_wb, table1_commercial_processors,
};
use laec_fleet::{FleetPaths, Server, ServerConfig, WorkerConfig};
use laec_mem::{FaultCampaignConfig, FaultPattern, FaultTarget, ProtocolKind};
use laec_obs::{Histogram, JsonlSink, MetricsDump, Obs, Phase};
use laec_pipeline::{EccScheme, PipelineConfig};
use laec_smp::{SmpSystem, StopPolicy};
use laec_trace::{Trace, TraceDetail, TraceEvent};
use laec_workloads::GeneratorConfig;
use serde::{Serialize, Serializer};

const USAGE: &str = "\
laec-cli — reproduce the LAEC (DATE'19) paper artefacts

USAGE:
    laec-cli <SUBCOMMAND> [FLAGS]

SUBCOMMANDS:
    tables      Table I and the Table II workload characterisation
    figure8     Figure 8: execution-time increase per DL1 ECC scheme
    campaign    Parallel workload x scheme x platform x fault grid
    faults      Soft-error campaign over the three DL1 designs
    smp         run | list: shared-memory kernels on the N-core system
    trace       record | replay | info: access-stream trace tooling
    forensics   Per-fault lifecycle tracing over a campaign grid
    stats       Render a metrics dump written by campaign --metrics-out
    submit      Queue a campaign spec with the fleet service
    serve       Run the fleet server: drain the queue across worker processes
    fleet       status | worker | stop: fleet service tooling
    help        Print this message

COMMON FLAGS:
    --json            Emit machine-readable JSON instead of aligned text
    --seed <N>        Master seed (decimal or 0x-hex; default 0x1AEC)
    --smoke           Small workload shape (quick); default is the paper
                      shape.  For `campaign` this selects the kernel-suite
                      smoke grid (fault interval 1000) unless overridden by
                      the grid flags below

tables FLAGS:
    --ablations       Also print the hazard-breakdown and WT-vs-WB ablations

campaign FLAGS:
    --spec <FILE>     Load the complete campaign description (grid axes +
                      execution mode) from a JSON spec file produced by
                      --dump-spec.  The file is authoritative: grid/mode
                      flags conflict with it; --threads, --json and the
                      checkpoint flags still apply
    --dump-spec       Print the campaign's JSON spec instead of running it.
                      Commit the file and any run is reproducible bit-for-bit
                      via --spec
    --threads <N>     Worker threads (default 0 = all available cores)
    --workloads <csv> Workload names (default: the 16 EEMBC-like workloads;
                      the entry 'kernels' expands to the hand-written kernel
                      suite and may be mixed with named workloads)
    --schemes <csv>   no-ecc, extra-cycle, extra-stage, laec,
                      speculate-flushN (default: the four Figure 8 schemes)
    --platforms <csv> wb, wt, contendedN, smpN (default: wb).  smpN runs the
                      workload on core 0 of a real N-core MESI-coherent
                      system; the other cores stream read-only background
                      traffic through the shared bus and L2.  smp1 collapses
                      to wb (a 1-core SMP system is the uniprocessor)
    --cores <N>       Shorthand: replace every wb platform with smpN (N >= 2;
                      N = 1 keeps the uniprocessor, which is byte-identical)
    --protocol <P>    Coherence protocol for smpN platforms: mesi (default,
                      invalidate-based), dragon (update-based: writes to
                      shared lines broadcast the written bytes instead of
                      invalidating) or moesi (Owned state: dirty lines are
                      supplied cache-to-cache without a memory write).
                      dragon/moesi require an all-smpN platform axis
    --fault-seeds <csv>
                      Fault-axis seeds; one faulty run per seed per cell
                      (default: none, fault-free grid only)
    --fault-interval <N>
                      Mean cycles between injected upsets (default 5000)
    --fault-target <T>
                      Which DL1 array the strikes hit: data (default,
                      ECC-protected), state (MESI state bits) or tag
                      (address tags).  state/tag are unprotected metadata:
                      their lost-writeback / stale-read outcomes are
                      classified separately in the report
    --trace-backed    Drive each cell's fault-free run, which carries the
                      cell's fault seeds, by replaying its recording instead
                      of simulating it (byte-identical report).  A grid
                      replays recordings from --trace-cache and, without
                      one, records nothing and simulates; a sampled
                      campaign records each stratum once and replays it
                      every round.  Seeds that change the run are
                      simulated alone either way
    --trace-cache <DIR>
                      Persist/reuse recordings under DIR (implies
                      --trace-backed)
    --sample <N>      Statistical mode: replace the fixed fault-seed axis
                      with stratified Monte-Carlo sampling, budget N samples
                      per workload x scheme x platform stratum.  Each
                      stratum stops early once its failure-rate confidence
                      interval is tight enough.  Composes with
                      --trace-backed / --trace-cache.  Reports are
                      byte-identical for any --threads value and any
                      checkpoint/resume split
    --confidence <C>  Confidence level of the Wilson intervals (default 0.95)
    --max-rel-error <E>
                      Target relative half-width of the failure-rate interval
                      (default 0.05; applied as an absolute bound for
                      zero-failure strata, whose relative target is
                      unreachable at rate 0)
    --batch <N>       Samples per stratum per round — the determinism
                      granularity (default 16)
    --min-samples <N> Samples before the stopping rule may end a stratum
                      (default 32)
    --checkpoint <FILE>
                      Write the sampler state to FILE (atomically, via a
                      .ck.tmp staging file) when this invocation finishes;
                      shard huge campaigns with --shard-rounds, the safe
                      stopping mechanism
    --resume          Load --checkpoint FILE and continue from it (rejects
                      checkpoints taken under a different spec or plan)
    --shard-rounds <N>
                      Stop this invocation after N sampling rounds (requires
                      --checkpoint; resume later with --resume)
    --metrics-out <FILE>
                      Write a laec_obs metrics dump (JSON) to FILE after the
                      campaign: deterministic counters/gauges/histograms
                      projected from the report, engine counters, and a
                      wall-clock self-profile.  The stdout report stays
                      byte-identical; inspect FILE with `laec-cli stats`
    --progress        Stream JSONL progress events (campaign_start, cell,
                      round, campaign_end; each stamped with the spec
                      fingerprint) to stderr while the campaign runs, in
                      place of the stderr overlay/trace summary line
    --forensics       Trace every injected fault's lifecycle (strike ->
                      activation -> outcome) and append the forensics
                      summary after the text report.  The stdout report
                      itself stays byte-identical; with --json only the
                      unchanged report JSON is printed (use the `forensics`
                      subcommand for the forensics document).  Full and
                      trace-backed modes only
    --chrome-trace <FILE>
                      Write the fault lifecycles as Chrome trace-event JSON
                      to FILE (open in chrome://tracing or Perfetto;
                      implies --forensics)

faults FLAGS:
    --interval <N>    Mean cycles between injected upsets (default 40)
    --pattern <P>     Strike shape: single (default), mbu2, mbu4
                      (adjacent-bit multi-bit-upset clusters)

smp SUBCOMMANDS (laec-cli smp <run|list> [FLAGS]):
    run               Run a shared-memory kernel on the N-core system
        --kernel <name>     parallel_reduction | producer_consumer |
                            false_sharing (required)
        --cores <N>         Core count (default 2)
        --schemes <label>   Scheme for every core (default laec)
        --protocol <P>      Coherence protocol: mesi (default), dragon, moesi
    list              List the shared-memory kernels

trace SUBCOMMANDS (laec-cli trace <record|replay|info> [FLAGS]):
    record            Run one fault-free cell under a recorder
        --workloads <name>  Workload to record (required, exactly one)
        --schemes <label>   Scheme (default laec)
        --platforms <label> Platform (default wb)
        --out <FILE>        Output path (default: canonical cache name)
        --detailed          Also record fetch/stall/fill/writeback events
    replay            Re-execute a recording against the memory hierarchy
        --input <FILE>      Trace to replay (required)
        --fault-seed <N>    Inject under raw injector seed N
        --interval <N>      Injection interval for --fault-seed (default 5000)
    info              Decode and summarise a trace file, including a
                      per-core event-type histogram
        --input <FILE>      Trace to inspect (required)

    record/replay print the resulting campaign cell; a fault-free replay is
    byte-identical to the recording's cell (the determinism check CI runs).

forensics FLAGS (laec-cli forensics [FLAGS]):
    Runs a campaign grid with per-fault lifecycle tracing and prints the
    full forensics document: per-outcome totals, detection-latency and
    latent-residency histograms, and per-record strike -> outcome tables.
    Deterministic: the bytes are identical for any --threads value and for
    the full-simulation and trace-backed engines (CI cmp's both).
    Accepts the campaign grid/mode flags above (--spec, --workloads,
    --schemes, --platforms, --fault-seeds, --fault-interval,
    --fault-target, --protocol, --trace-backed, --trace-cache, --threads,
    --seed, --smoke), plus:
    --json            Emit the forensics document as JSON instead of text
    --chrome-trace <FILE>
                      Also write the Chrome trace-event export to FILE

fleet service (laec-cli submit | serve | fleet <status|worker|stop>):
    The fleet is a long-running campaign service rooted in a directory
    (default .laec-fleet): `submit` journals a spec into a persistent
    priority queue, `serve` drains it across worker processes with
    work-stealing shard recovery, and results land in a spec-addressed
    store — a repeated submission is answered from the store without
    executing anything.  Every artifact is byte-identical to the
    single-process `campaign --spec <FILE> --json` run.

    submit --spec <FILE>  Queue the campaign spec in FILE (required)
        --priority <N>    Queue priority digit, 0 most urgent .. 9
                          (default 5)
        --json            Print the submission receipt as JSON
    serve                 Serve the fleet root until stopped
        --workers <N>     Worker processes to spawn (default 1; 0 executes
                          shards inline in the server)
        --shards <N>      Shards per sampled job (default: one per worker)
        --threads <N>     Threads for the merge/render pass (default all)
        --drain           Exit once the queue is empty instead of waiting
        --poll-ms <N>     Queue/task poll interval (default 50)
        --stall-timeout-ms <N>
                          Reassign a claimed shard when its worker's
                          heartbeat is older than this (default 10000)
        --progress        Mirror the job-event JSONL stream to stderr
                          (it is always appended to <root>/events.jsonl)
        --json            Print the drain summary as JSON
    fleet status          Snapshot the queue, store and job records
        --json            Emit the snapshot as JSON
    fleet worker          Run one worker process against the fleet root
        --worker-id <ID>  Worker name used in claims and events
        --max-tasks <N>   Exit after N tasks (default: run until stopped)
    fleet stop            Ask the server and its workers to exit
    All fleet subcommands accept --fleet-dir <DIR> to choose the root.

stats FLAGS (laec-cli stats <FILE> [FLAGS]):
    --counters        Print only the deterministic counter section (the
                      surface CI byte-compares across thread counts and
                      shard/resume splits) instead of the rendered table
    --json            Re-emit the full dump as normalised JSON
    --compare <B>     Diff two metrics dumps: `laec-cli stats --compare A B`
                      (or `laec-cli stats A --compare B`) prints a
                      counter/gauge delta table, B relative to A
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            eprintln!("Run `laec-cli help` for usage.");
            ExitCode::from(2)
        }
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let Some(subcommand) = args.first() else {
        println!("{USAGE}");
        return Ok(());
    };
    if subcommand == "smp" {
        let Some(action) = args.get(1) else {
            return Err("`smp` needs an action: run or list".to_string());
        };
        let flags = Flags::parse(&args[2..])?;
        return match action.as_str() {
            "run" => cmd_smp_run(&flags),
            "list" => {
                for name in laec_workloads::SMP_KERNEL_NAMES {
                    println!("{name}");
                }
                Ok(())
            }
            other => Err(format!("unknown smp action `{other}`")),
        };
    }
    if subcommand == "trace" {
        let Some(action) = args.get(1) else {
            return Err("`trace` needs an action: record, replay or info".to_string());
        };
        let flags = Flags::parse(&args[2..])?;
        return match action.as_str() {
            "record" => cmd_trace_record(&flags),
            "replay" => cmd_trace_replay(&flags),
            "info" => cmd_trace_info(&flags),
            other => Err(format!("unknown trace action `{other}`")),
        };
    }
    if subcommand == "fleet" {
        let Some(action) = args.get(1) else {
            return Err("`fleet` needs an action: status, worker or stop".to_string());
        };
        let flags = Flags::parse(&args[2..])?;
        return match action.as_str() {
            "status" => cmd_fleet_status(&flags),
            "worker" => cmd_fleet_worker(&flags),
            "stop" => cmd_fleet_stop(&flags),
            other => Err(format!("unknown fleet action `{other}`")),
        };
    }
    if subcommand == "stats" {
        // `stats --compare A B`: the two files follow the flag.
        if args.get(1).is_some_and(|a| a == "--compare") {
            let (Some(a), Some(b)) = (args.get(2), args.get(3)) else {
                return Err("`stats --compare` needs two metrics files".to_string());
            };
            let flags = Flags::parse(&args[4..])?;
            return cmd_stats_compare(&PathBuf::from(a), &PathBuf::from(b), &flags);
        }
        let Some(file) = args.get(1).filter(|a| !a.starts_with("--")) else {
            return Err("`stats` needs a metrics file: laec-cli stats <FILE>".to_string());
        };
        let flags = Flags::parse(&args[2..])?;
        // `stats A --compare B`: the baseline is positional.
        if let Some(b) = &flags.compare {
            return cmd_stats_compare(&PathBuf::from(file), b, &flags);
        }
        return cmd_stats(&PathBuf::from(file), &flags);
    }
    let flags = Flags::parse(&args[1..])?;
    match subcommand.as_str() {
        "tables" => cmd_tables(&flags),
        "figure8" => cmd_figure8(&flags),
        "campaign" => cmd_campaign(&flags),
        "submit" => cmd_submit(&flags),
        "serve" => cmd_serve(&flags),
        "forensics" => cmd_forensics(&flags),
        "faults" => cmd_faults(&flags),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown subcommand `{other}`")),
    }
}

/// Parsed command-line flags (a superset across subcommands; each subcommand
/// reads the ones it documents and rejects none, matching common CLI
/// behaviour for shared flag sets).
struct Flags {
    json: bool,
    smoke: bool,
    ablations: bool,
    seed: Option<u64>,
    threads: usize,
    interval: Option<u64>,
    workloads: Option<Vec<String>>,
    schemes: Option<Vec<EccScheme>>,
    platforms: Option<Vec<PlatformVariant>>,
    fault_seeds: Vec<u64>,
    pattern: FaultPattern,
    fault_target: Option<FaultTarget>,
    protocol: Option<ProtocolKind>,
    cores: Option<u32>,
    kernel: Option<String>,
    trace_backed: bool,
    trace_cache: Option<PathBuf>,
    input: Option<PathBuf>,
    out: Option<PathBuf>,
    detailed: bool,
    fault_seed: Option<u64>,
    sample: Option<u64>,
    confidence: Option<f64>,
    max_rel_error: Option<f64>,
    batch: Option<u64>,
    min_samples: Option<u64>,
    checkpoint: Option<PathBuf>,
    resume: bool,
    shard_rounds: Option<u64>,
    spec: Option<PathBuf>,
    dump_spec: bool,
    metrics_out: Option<PathBuf>,
    progress: bool,
    counters: bool,
    forensics: bool,
    chrome_trace: Option<PathBuf>,
    compare: Option<PathBuf>,
    fleet_dir: Option<PathBuf>,
    priority: Option<u8>,
    workers: Option<usize>,
    shards: Option<usize>,
    drain: bool,
    poll_ms: Option<u64>,
    stall_timeout_ms: Option<u64>,
    worker_id: Option<String>,
    max_tasks: Option<u64>,
}

impl Flags {
    fn parse(args: &[String]) -> Result<Flags, String> {
        let mut flags = Flags {
            json: false,
            smoke: false,
            ablations: false,
            seed: None,
            threads: 0,
            interval: None,
            workloads: None,
            schemes: None,
            platforms: None,
            fault_seeds: Vec::new(),
            pattern: FaultPattern::SingleBit,
            fault_target: None,
            protocol: None,
            cores: None,
            kernel: None,
            trace_backed: false,
            trace_cache: None,
            input: None,
            out: None,
            detailed: false,
            fault_seed: None,
            sample: None,
            confidence: None,
            max_rel_error: None,
            batch: None,
            min_samples: None,
            checkpoint: None,
            resume: false,
            shard_rounds: None,
            spec: None,
            dump_spec: false,
            metrics_out: None,
            progress: false,
            counters: false,
            forensics: false,
            chrome_trace: None,
            compare: None,
            fleet_dir: None,
            priority: None,
            workers: None,
            shards: None,
            drain: false,
            poll_ms: None,
            stall_timeout_ms: None,
            worker_id: None,
            max_tasks: None,
        };
        let mut iter = args.iter();
        while let Some(flag) = iter.next() {
            let mut value = |name: &str| {
                iter.next()
                    .map(String::as_str)
                    .ok_or_else(|| format!("flag `{name}` requires a value"))
            };
            match flag.as_str() {
                "--json" => flags.json = true,
                "--smoke" => flags.smoke = true,
                "--ablations" => flags.ablations = true,
                "--seed" => flags.seed = Some(parse_u64(value("--seed")?)?),
                "--threads" => {
                    flags.threads = parse_u64(value("--threads")?)? as usize;
                }
                "--interval" | "--fault-interval" => {
                    flags.interval = Some(parse_u64(value(flag)?)?);
                }
                "--workloads" => {
                    let list = value("--workloads")?;
                    flags.workloads = Some(list.split(',').map(str::to_string).collect());
                }
                "--schemes" => {
                    let mut schemes = Vec::new();
                    for label in value("--schemes")?.split(',') {
                        schemes.push(label.parse::<EccScheme>().map_err(|e| e.to_string())?);
                    }
                    flags.schemes = Some(schemes);
                }
                "--platforms" => {
                    let mut platforms = Vec::new();
                    for label in value("--platforms")?.split(',') {
                        platforms.push(
                            label
                                .parse::<PlatformVariant>()
                                .map_err(|e| e.to_string())?,
                        );
                    }
                    flags.platforms = Some(platforms);
                }
                "--fault-seeds" => {
                    for seed in value("--fault-seeds")?.split(',') {
                        flags.fault_seeds.push(parse_u64(seed)?);
                    }
                }
                "--pattern" => {
                    let label = value("--pattern")?;
                    flags.pattern = FaultPattern::from_label(label)
                        .ok_or_else(|| format!("unknown fault pattern `{label}`"))?;
                }
                "--fault-target" => {
                    let label = value("--fault-target")?;
                    flags.fault_target =
                        Some(label.parse::<FaultTarget>().map_err(|e| e.to_string())?);
                }
                "--protocol" => {
                    let label = value("--protocol")?;
                    flags.protocol =
                        Some(label.parse::<ProtocolKind>().map_err(|e| e.to_string())?);
                }
                "--cores" => {
                    let cores = parse_u64(value("--cores")?)?;
                    if cores == 0 || cores > 8 {
                        return Err("--cores must be between 1 and 8".to_string());
                    }
                    flags.cores = Some(cores as u32);
                }
                "--kernel" => flags.kernel = Some(value("--kernel")?.to_string()),
                "--trace-backed" => flags.trace_backed = true,
                "--trace-cache" => {
                    flags.trace_cache = Some(PathBuf::from(value("--trace-cache")?));
                    flags.trace_backed = true;
                }
                "--input" | "--in" => flags.input = Some(PathBuf::from(value(flag)?)),
                "--out" => flags.out = Some(PathBuf::from(value("--out")?)),
                "--detailed" => flags.detailed = true,
                "--fault-seed" => flags.fault_seed = Some(parse_u64(value("--fault-seed")?)?),
                "--sample" => flags.sample = Some(parse_u64(value("--sample")?)?),
                "--confidence" => flags.confidence = Some(parse_f64(value("--confidence")?)?),
                "--max-rel-error" => {
                    flags.max_rel_error = Some(parse_f64(value("--max-rel-error")?)?);
                }
                "--batch" => flags.batch = Some(parse_u64(value("--batch")?)?),
                "--min-samples" => flags.min_samples = Some(parse_u64(value("--min-samples")?)?),
                "--checkpoint" => flags.checkpoint = Some(PathBuf::from(value("--checkpoint")?)),
                "--resume" => flags.resume = true,
                "--shard-rounds" => {
                    flags.shard_rounds = Some(parse_u64(value("--shard-rounds")?)?);
                }
                "--spec" => flags.spec = Some(PathBuf::from(value("--spec")?)),
                "--dump-spec" => flags.dump_spec = true,
                "--metrics-out" => {
                    flags.metrics_out = Some(PathBuf::from(value("--metrics-out")?));
                }
                "--progress" => flags.progress = true,
                "--counters" => flags.counters = true,
                "--forensics" => flags.forensics = true,
                "--chrome-trace" => {
                    flags.chrome_trace = Some(PathBuf::from(value("--chrome-trace")?));
                    flags.forensics = true;
                }
                "--compare" => flags.compare = Some(PathBuf::from(value("--compare")?)),
                "--fleet-dir" => flags.fleet_dir = Some(PathBuf::from(value("--fleet-dir")?)),
                "--priority" => {
                    let priority = parse_u64(value("--priority")?)?;
                    flags.priority = Some(
                        u8::try_from(priority)
                            .map_err(|_| "--priority must be a digit 0..=9".to_string())?,
                    );
                }
                "--workers" => flags.workers = Some(parse_u64(value("--workers")?)? as usize),
                "--shards" => flags.shards = Some(parse_u64(value("--shards")?)? as usize),
                "--drain" => flags.drain = true,
                "--poll-ms" => flags.poll_ms = Some(parse_u64(value("--poll-ms")?)?),
                "--stall-timeout-ms" => {
                    flags.stall_timeout_ms = Some(parse_u64(value("--stall-timeout-ms")?)?);
                }
                "--worker-id" => flags.worker_id = Some(value("--worker-id")?.to_string()),
                "--max-tasks" => flags.max_tasks = Some(parse_u64(value("--max-tasks")?)?),
                other => return Err(format!("unknown flag `{other}`")),
            }
        }
        Ok(flags)
    }

    fn seed(&self) -> u64 {
        self.seed.unwrap_or(0x1AEC)
    }

    fn generator(&self) -> GeneratorConfig {
        let mut config = if self.smoke {
            GeneratorConfig::smoke()
        } else {
            GeneratorConfig::evaluation()
        };
        config.seed = self.seed();
        config
    }
}

fn parse_f64(text: &str) -> Result<f64, String> {
    text.parse()
        .map_err(|_| format!("`{text}` is not a valid number"))
}

fn parse_u64(text: &str) -> Result<u64, String> {
    let parsed = match text.strip_prefix("0x").or_else(|| text.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => text.parse(),
    };
    parsed.map_err(|_| format!("`{text}` is not a valid number"))
}

fn cmd_tables(flags: &Flags) -> Result<(), String> {
    let table2 = characterization(&flags.generator());
    if flags.json {
        let table1 =
            serde_json::to_string(&table1_commercial_processors()).map_err(|e| e.to_string())?;
        let table2 = serde_json::to_string(&table2).map_err(|e| e.to_string())?;
        let mut out = format!("{{\"table1\":{table1},\"table2\":{table2}");
        if flags.ablations {
            let hazards = serde_json::to_string(&hazard_breakdown(&flags.generator()))
                .map_err(|e| e.to_string())?;
            let wt_wb = serde_json::to_string(&wt_vs_wb()).map_err(|e| e.to_string())?;
            out.push_str(&format!(
                ",\"hazard_breakdown\":{hazards},\"wt_vs_wb\":{wt_wb}"
            ));
        }
        out.push('}');
        println!("{out}");
    } else {
        println!("{}", render_table1());
        println!("{}", render_table2(&table2));
        if flags.ablations {
            println!(
                "{}",
                render_hazard_breakdown(&hazard_breakdown(&flags.generator()))
            );
            println!("{}", render_wt_vs_wb(&wt_vs_wb()));
        }
    }
    Ok(())
}

fn cmd_figure8(flags: &Flags) -> Result<(), String> {
    let figure = figure8(&flags.generator());
    if flags.json {
        println!(
            "{}",
            serde_json::to_string_pretty(&figure).map_err(|e| e.to_string())?
        );
    } else {
        println!("{}", render_figure8(&figure));
        println!(
            "Average execution-time increase: extra-cycle +{:.2}%, extra-stage +{:.2}%, laec +{:.2}%",
            figure.average_increase_pct(EccScheme::ExtraCycle),
            figure.average_increase_pct(EccScheme::ExtraStage),
            figure.average_increase_pct(EccScheme::Laec),
        );
        println!(
            "LAEC gains: {:.2} points vs extra-stage, {:.2} points vs extra-cycle",
            figure.laec_gain_over_extra_stage_pct(),
            figure.laec_gain_over_extra_cycle_pct(),
        );
    }
    Ok(())
}

fn cmd_campaign(flags: &Flags) -> Result<(), String> {
    let spec = if let Some(path) = &flags.spec {
        // A spec file is the complete campaign description: combining it
        // with grid or mode flags would silently fork the committed
        // artifact, so every such flag is rejected.  Execution-only flags
        // (--threads, --json, --checkpoint/--resume/--shard-rounds,
        // --dump-spec) still apply.
        let conflicting = [
            ("--smoke", flags.smoke),
            ("--seed", flags.seed.is_some()),
            ("--workloads", flags.workloads.is_some()),
            ("--schemes", flags.schemes.is_some()),
            ("--platforms", flags.platforms.is_some()),
            ("--fault-seeds", !flags.fault_seeds.is_empty()),
            ("--fault-interval", flags.interval.is_some()),
            ("--fault-target", flags.fault_target.is_some()),
            ("--protocol", flags.protocol.is_some()),
            ("--cores", flags.cores.is_some()),
            ("--trace-backed", flags.trace_backed),
            ("--trace-cache", flags.trace_cache.is_some()),
            ("--sample", flags.sample.is_some()),
            ("--confidence", flags.confidence.is_some()),
            ("--max-rel-error", flags.max_rel_error.is_some()),
            ("--batch", flags.batch.is_some()),
            ("--min-samples", flags.min_samples.is_some()),
        ];
        if let Some((name, _)) = conflicting.iter().find(|(_, set)| *set) {
            return Err(format!(
                "{name} conflicts with --spec: the spec file is the complete campaign \
                 description (edit the file, or re-dump it with --dump-spec)"
            ));
        }
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        SpecV2::from_json(&text).map_err(|e| format!("{}: {e}", path.display()))?
    } else {
        build_spec_from_flags(flags)?
    };

    let validated = spec.validate().map_err(|e| e.to_string())?;
    if flags.dump_spec {
        // The dumped document reproduces this exact campaign via --spec;
        // byte-stable, so it can be committed and cmp'd (CI does).
        println!("{}", validated.spec().to_json());
        return Ok(());
    }

    let obs = build_obs(flags)?;

    if flags.forensics {
        check_forensics_mode(&validated)?;
        if flags.checkpoint.is_some() || flags.resume || flags.shard_rounds.is_some() {
            return Err(
                "--forensics does not compose with --checkpoint/--resume/--shard-rounds \
                 (sharded sampling has no lifecycle records)"
                    .to_string(),
            );
        }
    }

    // Checkpoint/resume/sharding are invocation concerns of the sampled
    // engine (where to park progress between shards), not part of the spec.
    if flags.checkpoint.is_some() || flags.resume || flags.shard_rounds.is_some() {
        if validated.plan().is_none() {
            let flag = if flags.resume {
                "--resume"
            } else if flags.checkpoint.is_some() {
                "--checkpoint"
            } else {
                "--shard-rounds"
            };
            // The actionable fix differs by how the campaign was described:
            // flags want --sample, a spec file wants its mode changed.
            let fix = if flags.spec.is_some() {
                "a spec whose \"mode\" has \"kind\": \"sampled\""
            } else {
                "--sample <N> (statistical mode)"
            };
            return Err(format!("{flag} needs {fix}"));
        }
        return cmd_campaign_sharded(flags, &validated, &obs);
    }

    let campaign = Campaign::new(validated);
    let (outcome, forensics) = if flags.forensics {
        campaign.run_forensic(flags.threads, &obs)
    } else {
        (campaign.run_observed(flags.threads, &obs), None)
    };
    // How the faulty cells were served, on stderr, unless stderr carries
    // the --progress JSONL stream.
    if !flags.progress {
        if let Some(stats) = outcome.trace_stats() {
            eprintln!("{stats}");
        } else if let CampaignOutcome::Grid {
            overlay_stats: Some(stats),
            ..
        } = &outcome
        {
            if stats.served > 0 || !stats.escaped.is_empty() {
                eprintln!("{stats}");
            }
        }
    }
    // The rendered bytes are exactly what `Campaign::run` would print —
    // observability must never perturb the report, only wrap it in a
    // timing span and mirror it into the metrics file.  The forensics
    // summary is *appended* after the text report (and omitted entirely
    // under --json), so the report surface CI byte-compares is untouched.
    let rendered = {
        let _span = obs.span(Phase::ReportRender);
        if flags.json {
            outcome.to_json()
        } else {
            outcome.render()
        }
    };
    println!("{rendered}");
    if let Some(forensics) = &forensics {
        if !flags.json {
            println!("{}", forensics.render(false));
        }
        write_chrome_trace(flags, forensics)?;
    }
    write_metrics(flags, &obs)?;
    if outcome.architecturally_equivalent() {
        Ok(())
    } else {
        Err("architectural equivalence FAILED for at least one grid cell".to_string())
    }
}

/// Rejects specs whose engine cannot trace fault lifecycles (sampled
/// mode).
fn check_forensics_mode(validated: &ValidatedSpec) -> Result<(), String> {
    let mode = validated.mode();
    if let ExecutionMode::Sampled { .. } = mode {
        return Err(format!(
            "the {} engine cannot trace fault lifecycles; forensics needs the full or \
             trace-backed mode",
            mode.kind()
        ));
    }
    Ok(())
}

/// Writes the Chrome trace-event export to `--chrome-trace FILE`, if
/// requested.
fn write_chrome_trace(flags: &Flags, forensics: &ForensicsReport) -> Result<(), String> {
    let Some(path) = &flags.chrome_trace else {
        return Ok(());
    };
    let mut text = forensics.chrome_trace_json();
    text.push('\n');
    std::fs::write(path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// `laec-cli forensics`: run a campaign grid with per-fault lifecycle
/// tracing and print the forensics document itself — strike → outcome
/// tables with `--json` and `--chrome-trace FILE` variants.  The document
/// is deterministic: byte-identical for any `--threads` value and for the
/// full-simulation and trace-backed engines (the CI determinism gate
/// `cmp`s both).
fn cmd_forensics(flags: &Flags) -> Result<(), String> {
    let spec = if let Some(path) = &flags.spec {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        SpecV2::from_json(&text).map_err(|e| format!("{}: {e}", path.display()))?
    } else {
        build_spec_from_flags(flags)?
    };
    let validated = spec.validate().map_err(|e| e.to_string())?;
    check_forensics_mode(&validated)?;
    let obs = build_obs(flags)?;
    let (_, forensics) = Campaign::new(validated).run_forensic(flags.threads, &obs);
    let forensics = forensics.expect("forensics-capable engine checked above");
    if flags.json {
        println!("{}", forensics.to_json());
    } else {
        println!("{}", forensics.render(true));
    }
    write_chrome_trace(flags, &forensics)?;
    write_metrics(flags, &obs)
}

/// One `a`/`b`/`delta` triple of the `stats --compare` JSON output.
struct DeltaRow<T: Serialize> {
    a: T,
    b: T,
    delta: T,
}

impl<T: Serialize> Serialize for DeltaRow<T> {
    fn serialize(&self, serializer: &mut Serializer) {
        serializer.begin_object();
        serializer.field("a", &self.a);
        serializer.field("b", &self.b);
        serializer.field("delta", &self.delta);
        serializer.end_object();
    }
}

/// A metric-name → [`DeltaRow`] object of the `stats --compare` JSON
/// output.
struct DeltaSection<'a, T: Serialize>(&'a [(&'a String, DeltaRow<T>)]);

impl<T: Serialize> Serialize for DeltaSection<'_, T> {
    fn serialize(&self, serializer: &mut Serializer) {
        serializer.begin_object();
        for (key, row) in self.0 {
            serializer.field(key, row);
        }
        serializer.end_object();
    }
}

/// `laec-cli stats --compare A B`: diff the deterministic counter and
/// gauge sections of two metrics dumps (B relative to A).
fn cmd_stats_compare(a: &PathBuf, b: &PathBuf, flags: &Flags) -> Result<(), String> {
    let load = |path: &PathBuf| -> Result<MetricsDump, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        MetricsDump::from_json(&text).map_err(|e| format!("{}: {e}", path.display()))
    };
    let (dump_a, dump_b) = (load(a)?, load(b)?);
    let counter_keys: std::collections::BTreeSet<&String> = dump_a
        .counters
        .keys()
        .chain(dump_b.counters.keys())
        .chain(dump_a.engine_counters.keys())
        .chain(dump_b.engine_counters.keys())
        .collect();
    let gauge_keys: std::collections::BTreeSet<&String> =
        dump_a.gauges.keys().chain(dump_b.gauges.keys()).collect();
    let counter_of = |dump: &MetricsDump, key: &String| -> i128 {
        dump.counters
            .get(key)
            .or_else(|| dump.engine_counters.get(key))
            .copied()
            .map_or(0, i128::from)
    };
    if flags.json {
        let counters: Vec<(&String, DeltaRow<i64>)> = counter_keys
            .iter()
            .map(|key| {
                let (va, vb) = (counter_of(&dump_a, key), counter_of(&dump_b, key));
                (
                    *key,
                    DeltaRow {
                        a: va as i64,
                        b: vb as i64,
                        delta: (vb - va) as i64,
                    },
                )
            })
            .collect();
        let gauges: Vec<(&String, DeltaRow<f64>)> = gauge_keys
            .iter()
            .map(|key| {
                let va = dump_a.gauges.get(*key).copied().unwrap_or(0.0);
                let vb = dump_b.gauges.get(*key).copied().unwrap_or(0.0);
                (
                    *key,
                    DeltaRow {
                        a: va,
                        b: vb,
                        delta: vb - va,
                    },
                )
            })
            .collect();
        let mut s = Serializer::pretty();
        s.begin_object();
        s.field("a", dump_a.spec_fingerprint.as_str());
        s.field("b", dump_b.spec_fingerprint.as_str());
        s.field("counters", &DeltaSection(&counters));
        s.field("gauges", &DeltaSection(&gauges));
        s.end_object();
        println!("{}", s.finish());
        return Ok(());
    }
    println!("metrics delta  {} -> {}", a.display(), b.display());
    if dump_a.spec_fingerprint != dump_b.spec_fingerprint {
        println!(
            "note: different campaigns ({} vs {})",
            dump_a.spec_fingerprint, dump_b.spec_fingerprint
        );
    }
    println!("{:<44} {:>14} {:>14} {:>14}", "counter", "a", "b", "delta");
    for key in counter_keys {
        let (va, vb) = (counter_of(&dump_a, key), counter_of(&dump_b, key));
        println!("{key:<44} {va:>14} {vb:>14} {:>+14}", vb - va);
    }
    if !gauge_keys.is_empty() {
        println!("{:<44} {:>14} {:>14} {:>14}", "gauge", "a", "b", "delta");
        for key in gauge_keys {
            let va = dump_a.gauges.get(key).copied().unwrap_or(0.0);
            let vb = dump_b.gauges.get(key).copied().unwrap_or(0.0);
            println!("{key:<44} {va:>14.6} {vb:>14.6} {:>+14.6}", vb - va);
        }
    }
    Ok(())
}

/// Builds the campaign's [`Obs`] handle from `--metrics-out`/`--progress`:
/// disabled (zero-cost) when neither flag is given, otherwise enabled with
/// a JSONL progress sink on stderr when `--progress` asked for one.
fn build_obs(flags: &Flags) -> Result<Obs, String> {
    if flags.metrics_out.is_none() && !flags.progress {
        return Ok(Obs::disabled());
    }
    let obs = Obs::enabled();
    if flags.progress {
        obs.attach_progress(Box::new(JsonlSink::stderr()));
    }
    Ok(obs)
}

/// Writes the metrics dump to `--metrics-out FILE`, if requested.
fn write_metrics(flags: &Flags, obs: &Obs) -> Result<(), String> {
    let Some(path) = &flags.metrics_out else {
        return Ok(());
    };
    let mut text = obs.dump().to_json();
    text.push('\n');
    std::fs::write(path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// Maps the grid/mode flags onto a [`CampaignBuilder`] (base grid: the
/// paper grid, or the kernel smoke grid under `--smoke`).
fn build_spec_from_flags(flags: &Flags) -> Result<SpecV2, String> {
    let mut builder = if flags.smoke {
        CampaignBuilder::smoke()
    } else {
        CampaignBuilder::paper()
    };
    builder = builder.seed(flags.seed()).generator(flags.generator());
    if let Some(workloads) = &flags.workloads {
        // The 'kernels' entry expands to the whole kernel suite and may be
        // mixed with named workloads.
        let set = if workloads.as_slice() == ["kernels".to_string()] {
            WorkloadSet::Kernels
        } else {
            let expanded: Vec<String> = workloads
                .iter()
                .flat_map(|name| {
                    if name == "kernels" {
                        laec_workloads::KERNEL_NAMES.map(str::to_string).to_vec()
                    } else {
                        vec![name.clone()]
                    }
                })
                .collect();
            WorkloadSet::Named(expanded)
        };
        builder = builder.workloads(set);
    }
    if let Some(schemes) = &flags.schemes {
        builder = builder.schemes(schemes.iter().copied());
    }
    if let Some(platforms) = &flags.platforms {
        builder = builder.platforms(platforms.iter().copied());
    }
    builder = builder.fault_seeds(flags.fault_seeds.iter().copied());
    if let Some(interval) = flags.interval {
        builder = builder.fault_interval(interval);
    }
    if let Some(target) = flags.fault_target {
        builder = builder.fault_target(target);
    }
    if let Some(protocol) = flags.protocol {
        builder = builder.protocol(protocol);
    }
    if let Some(cores) = flags.cores {
        if cores > 1 {
            let mut platforms = flags
                .platforms
                .clone()
                .unwrap_or_else(|| vec![PlatformVariant::WriteBack]);
            for platform in &mut platforms {
                match platform {
                    PlatformVariant::WriteBack => *platform = PlatformVariant::smp(cores),
                    other => {
                        return Err(format!(
                            "--cores applies to the wb platform; `{other}` has its own core model"
                        ))
                    }
                }
            }
            builder = builder.platforms(platforms);
        }
    }
    if flags.trace_backed {
        builder = match &flags.trace_cache {
            Some(dir) => builder.trace_cache(dir),
            None => builder.trace_backed(),
        };
    }
    if let Some(budget) = flags.sample {
        builder = builder.sampled(budget);
    }
    if let Some(confidence) = flags.confidence {
        builder = builder.confidence(confidence);
    }
    if let Some(max_rel_error) = flags.max_rel_error {
        builder = builder.max_rel_error(max_rel_error);
    }
    if let Some(batch) = flags.batch {
        builder = builder.batch(batch);
    }
    if let Some(min_samples) = flags.min_samples {
        builder = builder.min_samples(min_samples);
    }
    builder.build().map_err(|e| e.to_string())
}

/// The sampled campaign's sharded execution path: drive the [`Sampler`]
/// directly so progress can be checkpointed between invocations.  The
/// final report is byte-identical to an uninterrupted `Campaign::run`.
fn cmd_campaign_sharded(flags: &Flags, validated: &ValidatedSpec, obs: &Obs) -> Result<(), String> {
    let plan = *validated.plan().expect("caller checked: sampled mode");
    let execution = validated
        .sample_execution()
        .expect("caller checked: sampled mode")
        .clone();
    let grid = validated.grid();
    if flags.shard_rounds.is_some() && flags.checkpoint.is_none() {
        return Err("--shard-rounds needs --checkpoint <FILE> to save progress".to_string());
    }
    // This path bypasses `Campaign::run_observed`, so it establishes the
    // metrics context itself (the engine behind sampled mode is "sampled").
    obs.set_context(&validated.fingerprint_hex(), "sampled");
    let baseline_phase = match execution {
        SampleExecution::FullSim => Phase::FullSim,
        SampleExecution::TraceBacked { .. } => Phase::TraceRecord,
    };

    let mut sampler = {
        let _span = obs.span(baseline_phase);
        if flags.resume {
            let path = flags
                .checkpoint
                .as_ref()
                .ok_or("--resume needs --checkpoint <FILE>")?;
            let bytes =
                std::fs::read(path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
            let checkpoint = SamplerCheckpoint::decode(&bytes)
                .map_err(|e| format!("{}: {e}", path.display()))?;
            Sampler::restore(&grid, &plan, &execution, flags.threads, &checkpoint)
                .map_err(|e| e.to_string())?
        } else {
            Sampler::new(&grid, &plan, &execution, flags.threads)
        }
    };
    sampler.attach_obs(obs);

    let complete = sampler.run_rounds(flags.threads, flags.shard_rounds);
    if let Some(path) = &flags.checkpoint {
        // Write-then-rename so an interruption mid-write cannot destroy the
        // previous checkpoint — the only copy of the campaign's progress.
        // The staging name appends to the full file name (".tmp" via
        // with_extension would collide for sibling checkpoints that differ
        // only in extension).
        let _span = obs.span(Phase::CheckpointWrite);
        let mut staging = path.clone().into_os_string();
        staging.push(".tmp");
        let staging = PathBuf::from(staging);
        std::fs::write(&staging, sampler.checkpoint().encode())
            .map_err(|e| format!("cannot write {}: {e}", staging.display()))?;
        std::fs::rename(&staging, path)
            .map_err(|e| format!("cannot replace {}: {e}", path.display()))?;
    }
    if matches!(execution, SampleExecution::TraceBacked { .. }) && !flags.progress {
        eprintln!("{}", sampler.trace_stats());
    }
    if !complete {
        eprintln!(
            "campaign incomplete after {} round(s); checkpoint saved — continue with --resume",
            flags.shard_rounds.unwrap_or(0),
        );
        // The metrics dump of an incomplete shard carries the context and
        // this shard's timings; the deterministic sections are projected
        // only from a *finished* campaign, so they stay empty here and the
        // comparison surface is never a partial-progress snapshot.
        return write_metrics(flags, obs);
    }
    let report = sampler.report();
    let trace_stats =
        matches!(execution, SampleExecution::TraceBacked { .. }).then(|| sampler.trace_stats());
    let outcome = CampaignOutcome::Sampled {
        report,
        trace_stats,
    };
    record_outcome_metrics(&outcome, obs);
    let report = outcome.sampled().expect("built as sampled");
    let rendered = {
        let _span = obs.span(Phase::ReportRender);
        if flags.json {
            report.to_json()
        } else {
            render_sampled(report)
        }
    };
    println!("{rendered}");
    write_metrics(flags, obs)
}

/// Per-core row of the `smp run` output.
#[derive(serde::Serialize)]
struct SmpCoreRow {
    core: usize,
    program: String,
    cycles: u64,
    instructions: u64,
    cpi: f64,
    dl1_load_hit_rate: f64,
    bus_transactions: u64,
    invalidations_received: u64,
}

/// The `smp run` result document.
#[derive(serde::Serialize)]
struct SmpRunSummary {
    kernel: String,
    cores: usize,
    scheme: String,
    protocol: String,
    result_word: u32,
    expected: Option<u32>,
    snoop_lookups: u64,
    invalidations: u64,
    interventions: u64,
    upgrades: u64,
    bus_updates: u64,
    per_core: Vec<SmpCoreRow>,
}

fn cmd_smp_run(flags: &Flags) -> Result<(), String> {
    let name = flags
        .kernel
        .clone()
        .ok_or("smp run needs --kernel <name> (see `laec-cli smp list`)".to_string())?;
    let cores = flags.cores.unwrap_or(2);
    let scheme = match flags.schemes.as_deref() {
        None => EccScheme::Laec,
        Some([scheme]) => *scheme,
        Some(_) => return Err("smp run takes exactly one scheme".to_string()),
    };
    let workload = laec_workloads::smp_kernel(&name, cores)
        .ok_or_else(|| format!("unknown smp kernel `{name}` (see `laec-cli smp list`)"))?;
    let expected = laec_workloads::smp::smp_kernel_expected(&name);
    let program_names: Vec<String> = workload
        .programs
        .iter()
        .map(|p| p.name().to_string())
        .collect();
    let protocol = flags.protocol.unwrap_or(ProtocolKind::Mesi);
    let configs = vec![PipelineConfig::for_scheme(scheme); workload.programs.len()];
    let mut system = SmpSystem::with_protocol(workload.programs, configs, protocol);
    let run = system.run(StopPolicy::AllHalt);
    let result_word = system
        .memory()
        .peek_memory(laec_workloads::smp::RESULT_BASE);
    let summary = SmpRunSummary {
        kernel: name.clone(),
        cores: run.cores.len(),
        scheme: scheme.to_string(),
        protocol: protocol.to_string(),
        result_word,
        expected,
        snoop_lookups: run.coherence.snoop_lookups,
        invalidations: run.coherence.invalidations,
        interventions: run.coherence.interventions,
        upgrades: run.coherence.upgrades,
        bus_updates: run.coherence.bus_updates,
        per_core: run
            .cores
            .iter()
            .enumerate()
            .map(|(core, result)| SmpCoreRow {
                core,
                program: program_names[core].clone(),
                cycles: result.stats.cycles,
                instructions: result.stats.instructions,
                cpi: result.stats.cpi(),
                dl1_load_hit_rate: result.stats.load_hit_rate(),
                bus_transactions: result.stats.mem.bus_transactions,
                invalidations_received: result.stats.mem.invalidations_received,
            })
            .collect(),
    };
    if let Some(expected) = expected {
        if result_word != expected {
            return Err(format!(
                "{name} on {cores} core(s) produced {result_word:#x}, expected {expected:#x}"
            ));
        }
    }
    if flags.json {
        println!(
            "{}",
            serde_json::to_string_pretty(&summary).map_err(|e| e.to_string())?
        );
    } else {
        println!(
            "{} on {} core(s) under {} ({}): result {:#x}{}",
            summary.kernel,
            summary.cores,
            summary.scheme,
            summary.protocol,
            summary.result_word,
            match expected {
                Some(value) => format!(" (expected {value:#x}, OK)"),
                None => String::new(),
            },
        );
        println!(
            "coherence: {} snoop lookups, {} invalidations, {} interventions, {} upgrades, \
             {} bus updates",
            summary.snoop_lookups,
            summary.invalidations,
            summary.interventions,
            summary.upgrades,
            summary.bus_updates,
        );
        println!(
            "{:>4} {:<28} {:>10} {:>12} {:>8} {:>9} {:>8} {:>8}",
            "core", "program", "cycles", "instructions", "cpi", "ld-hit%", "bus", "inval-rx"
        );
        for row in &summary.per_core {
            println!(
                "{:>4} {:<28} {:>10} {:>12} {:>8.4} {:>8.1}% {:>8} {:>8}",
                row.core,
                row.program,
                row.cycles,
                row.instructions,
                row.cpi,
                100.0 * row.dl1_load_hit_rate,
                row.bus_transactions,
                row.invalidations_received,
            );
        }
    }
    Ok(())
}

fn cmd_faults(flags: &Flags) -> Result<(), String> {
    let rows =
        fault_campaign_with_pattern(flags.interval.unwrap_or(40), flags.seed(), flags.pattern);
    if flags.json {
        println!(
            "{}",
            serde_json::to_string_pretty(&rows).map_err(|e| e.to_string())?
        );
    } else {
        println!("{}", render_fault_campaign(&rows));
    }
    Ok(())
}

/// `laec-cli stats FILE`: load a metrics dump written by `campaign
/// --metrics-out` and render it (default), re-emit it as normalised JSON
/// (`--json`), or print only the deterministic counter section
/// (`--counters`) — the byte-comparison surface CI uses.
fn cmd_stats(path: &PathBuf, flags: &Flags) -> Result<(), String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let dump = MetricsDump::from_json(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    if flags.counters {
        println!("{}", dump.counter_section_json());
    } else if flags.json {
        println!("{}", dump.to_json());
    } else {
        println!("{}", dump.render());
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// trace record | replay | info
// ---------------------------------------------------------------------------

/// The (spec, workload, scheme, platform) a trace subcommand operates on.
/// `trace replay`/`info` take the labels from the trace header; `record`
/// takes them from the flags.
fn trace_cell_spec(
    flags: &Flags,
    workload_name: &str,
) -> Result<(CampaignSpec, laec_workloads::Workload), String> {
    let mut spec = if flags.smoke {
        CampaignSpec::smoke()
    } else {
        CampaignSpec::paper_grid()
    };
    spec.seed = flags.seed();
    spec.generator = flags.generator();
    spec.workloads = WorkloadSet::Named(vec![workload_name.to_string()]);
    if !CampaignSpec::available_workload_names().contains(&workload_name.to_string()) {
        return Err(format!("unknown workload `{workload_name}`"));
    }
    let workload = spec
        .materialize_workloads()
        .into_iter()
        .next()
        .expect("one workload requested");
    Ok((spec, workload))
}

fn print_cell(flags: &Flags, cell: &laec_core::CampaignCell) -> Result<(), String> {
    if flags.json {
        println!(
            "{}",
            serde_json::to_string_pretty(cell).map_err(|e| e.to_string())?
        );
    } else {
        println!(
            "{} / {} / {}: {} cycles, {} instructions (CPI {:.4}), \
             {:.1}% load hits, {} bus transactions",
            cell.workload,
            cell.scheme,
            cell.platform,
            cell.cycles,
            cell.instructions,
            cell.cpi,
            100.0 * cell.load_hit_rate,
            cell.bus_transactions,
        );
        if cell.fault_seed.is_some() || cell.faults_injected > 0 {
            println!(
                "faults: {} injected, {} corrected, {} detected-uncorrectable, {} unrecoverable",
                cell.faults_injected,
                cell.faults_corrected,
                cell.faults_detected_uncorrectable,
                cell.unrecoverable_errors,
            );
        }
    }
    Ok(())
}

fn cmd_trace_record(flags: &Flags) -> Result<(), String> {
    let names = flags
        .workloads
        .clone()
        .ok_or("trace record needs --workloads <name>")?;
    let [name] = names.as_slice() else {
        return Err("trace record takes exactly one workload".to_string());
    };
    let scheme = match flags.schemes.as_deref() {
        None => EccScheme::Laec,
        Some([scheme]) => *scheme,
        Some(_) => return Err("trace record takes exactly one scheme".to_string()),
    };
    let platform = match flags.platforms.as_deref() {
        None => PlatformVariant::WriteBack,
        Some([platform]) => *platform,
        Some(_) => return Err("trace record takes exactly one platform".to_string()),
    };
    if platform.cores() > 1 {
        return Err(format!(
            "trace record captures one core's access stream; `{platform}` is multi-core"
        ));
    }
    let (spec, workload) = trace_cell_spec(flags, name)?;
    let detail = if flags.detailed {
        TraceDetail::Full
    } else {
        TraceDetail::Replay
    };
    let (cell, trace) = record_cell(&spec, &workload, scheme, platform, detail);
    let path = flags.out.clone().unwrap_or_else(|| {
        PathBuf::from(trace_file_name(
            &workload.name,
            &scheme.to_string(),
            &platform.to_string(),
            trace.header.context_fingerprint,
        ))
    });
    let encoded = trace.encode();
    std::fs::write(&path, &encoded).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    eprintln!(
        "recorded {} event(s) ({} bytes) to {}",
        trace.header.event_count,
        encoded.len(),
        path.display()
    );
    print_cell(flags, &cell)
}

fn load_trace(flags: &Flags) -> Result<Trace, String> {
    let path = flags.input.as_ref().ok_or("missing --input <FILE>")?;
    let bytes = std::fs::read(path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    Trace::decode(&bytes).map_err(|e| format!("{}: {e}", path.display()))
}

fn cmd_trace_replay(flags: &Flags) -> Result<(), String> {
    let trace = load_trace(flags)?;
    let (spec, workload) = trace_cell_spec(flags, &trace.header.workload.clone())?;
    let fault = flags
        .fault_seed
        .map(|seed| FaultCampaignConfig::single_bit(seed, flags.interval.unwrap_or(5_000)));
    let cell = replay_cell(&spec, &trace, &workload, fault, flags.fault_seed).map_err(|e| {
        format!(
            "replay diverged from the recording ({e}); the faulted run \
             perturbs values or timing — use full simulation for this cell"
        )
    })?;
    print_cell(flags, &cell)
}

/// One core's event-type breakdown in the `trace info` output: an
/// event-type → count histogram over the events that core produced.
#[derive(serde::Serialize)]
struct CoreEvents {
    core: u8,
    events: Histogram,
}

/// Decoded summary of a trace file (the `trace info` output).
#[derive(serde::Serialize)]
struct TraceInfo {
    workload: String,
    scheme: String,
    platform: String,
    version: u64,
    detail: TraceDetail,
    context_fingerprint: u64,
    cycles: u64,
    instructions: u64,
    loads: u64,
    load_hits: u64,
    stores: u64,
    lookahead_loads: u64,
    event_count: u64,
    event_bytes: u64,
    commits: u64,
    mem_reads: u64,
    mem_writes: u64,
    fetches: u64,
    stalls: u64,
    line_fills: u64,
    writebacks: u64,
    per_core: Vec<CoreEvents>,
}

fn cmd_trace_info(flags: &Flags) -> Result<(), String> {
    let trace = load_trace(flags)?;
    let mut info = TraceInfo {
        workload: trace.header.workload.clone(),
        scheme: trace.header.scheme.clone(),
        platform: trace.header.platform.clone(),
        version: trace.header.version,
        detail: trace.header.detail,
        context_fingerprint: trace.header.context_fingerprint,
        cycles: trace.header.summary.cycles,
        instructions: trace.header.summary.instructions,
        loads: trace.header.summary.loads,
        load_hits: trace.header.summary.load_hits,
        stores: trace.header.summary.stores,
        lookahead_loads: trace.header.summary.lookahead_loads,
        event_count: trace.header.event_count,
        event_bytes: trace.event_bytes_len() as u64,
        commits: 0,
        mem_reads: 0,
        mem_writes: 0,
        fetches: 0,
        stalls: 0,
        line_fills: 0,
        writebacks: 0,
        per_core: Vec::new(),
    };
    // Per-core event-type histograms: commits count retired instructions
    // (run-length-merged records expand to their `count`), every other
    // type counts events.  BTreeMap keeps the cores in id order.
    let mut per_core: std::collections::BTreeMap<u8, Histogram> = std::collections::BTreeMap::new();
    for &event in trace.events() {
        let (bucket, weight) = match event {
            TraceEvent::Commit { count, .. } => {
                info.commits += count;
                ("commit", count)
            }
            TraceEvent::MemRead { .. } => {
                info.mem_reads += 1;
                ("mem_read", 1)
            }
            TraceEvent::MemWrite { .. } => {
                info.mem_writes += 1;
                ("mem_write", 1)
            }
            TraceEvent::Fetch { .. } => {
                info.fetches += 1;
                ("fetch", 1)
            }
            TraceEvent::Stall { .. } => {
                info.stalls += 1;
                ("stall", 1)
            }
            TraceEvent::LineFill { .. } => {
                info.line_fills += 1;
                ("line_fill", 1)
            }
            TraceEvent::Writeback { .. } => {
                info.writebacks += 1;
                ("writeback", 1)
            }
        };
        per_core
            .entry(event.core())
            .or_default()
            .add(bucket, weight);
    }
    info.per_core = per_core
        .into_iter()
        .map(|(core, events)| CoreEvents { core, events })
        .collect();
    if flags.json {
        println!(
            "{}",
            serde_json::to_string_pretty(&info).map_err(|e| e.to_string())?
        );
    } else {
        println!(
            "{} / {} / {} (format v{}, {:?} detail, fingerprint {:#018x})",
            info.workload,
            info.scheme,
            info.platform,
            info.version,
            info.detail,
            info.context_fingerprint,
        );
        println!(
            "recorded run: {} cycles, {} instructions, {} loads ({} hits), {} stores",
            info.cycles, info.instructions, info.loads, info.load_hits, info.stores,
        );
        println!(
            "{} event(s) in {} bytes ({:.2} bytes/instruction): \
             {} commits, {} reads, {} writes, {} fetches, {} stalls, \
             {} line fills, {} writebacks",
            info.event_count,
            info.event_bytes,
            info.event_bytes as f64 / info.instructions.max(1) as f64,
            info.commits,
            info.mem_reads,
            info.mem_writes,
            info.fetches,
            info.stalls,
            info.line_fills,
            info.writebacks,
        );
        for row in &info.per_core {
            let breakdown: Vec<String> = row
                .events
                .iter()
                .map(|(bucket, count)| format!("{bucket}={count}"))
                .collect();
            println!("core {}: {}", row.core, breakdown.join(", "));
        }
    }
    Ok(())
}

/// The fleet root chosen by `--fleet-dir` (default `.laec-fleet`).
fn fleet_paths(flags: &Flags) -> FleetPaths {
    FleetPaths::new(
        flags
            .fleet_dir
            .clone()
            .unwrap_or_else(|| PathBuf::from(".laec-fleet")),
    )
}

fn cmd_submit(flags: &Flags) -> Result<(), String> {
    let spec_path = flags
        .spec
        .as_ref()
        .ok_or("`submit` needs a campaign spec: laec-cli submit --spec <FILE>")?;
    let text = std::fs::read_to_string(spec_path)
        .map_err(|error| format!("read {}: {error}", spec_path.display()))?;
    let priority = flags.priority.unwrap_or(laec_fleet::DEFAULT_PRIORITY);
    let paths = fleet_paths(flags);
    let submission = laec_fleet::submit(&paths, &text, priority).map_err(|e| e.to_string())?;
    if flags.json {
        let mut s = Serializer::compact();
        s.begin_object();
        s.field("job", &submission.id);
        s.field("priority", &submission.priority);
        s.field("store_key", &submission.store_key);
        s.field("cached", &submission.cached);
        s.end_object();
        println!("{}", s.finish());
    } else if submission.cached {
        println!(
            "job {} answered from the store (key {})",
            submission.id, submission.store_key
        );
    } else {
        println!(
            "job {} queued at priority {} (key {})",
            submission.id, submission.priority, submission.store_key
        );
    }
    Ok(())
}

fn cmd_serve(flags: &Flags) -> Result<(), String> {
    let paths = fleet_paths(flags);
    let workers = flags.workers.unwrap_or(1);
    let poll_ms = flags.poll_ms.unwrap_or(50);
    let worker_command = if workers > 0 {
        let exe = std::env::current_exe()
            .map_err(|error| format!("locate the laec-cli executable: {error}"))?;
        Some(vec![
            exe.to_string_lossy().into_owned(),
            "fleet".to_string(),
            "worker".to_string(),
            "--fleet-dir".to_string(),
            paths.root().to_string_lossy().into_owned(),
            "--poll-ms".to_string(),
            poll_ms.to_string(),
        ])
    } else {
        None
    };
    let config = ServerConfig {
        workers,
        shards: flags.shards.unwrap_or(0),
        threads: flags.threads,
        poll: std::time::Duration::from_millis(poll_ms),
        stall_timeout: std::time::Duration::from_millis(flags.stall_timeout_ms.unwrap_or(10_000)),
        drain: flags.drain,
        worker_command,
        mirror_events: flags.progress,
    };
    let mut server = Server::new(paths, config).map_err(|e| e.to_string())?;
    let summary = server.run().map_err(|e| e.to_string())?;
    if flags.json {
        let mut s = Serializer::compact();
        s.begin_object();
        s.field("jobs_run", &summary.jobs_run);
        s.field("jobs_cached", &summary.jobs_cached);
        s.field("jobs_failed", &summary.jobs_failed);
        s.end_object();
        println!("{}", s.finish());
    } else {
        println!(
            "served: {} job(s) run, {} cached, {} failed",
            summary.jobs_run, summary.jobs_cached, summary.jobs_failed
        );
    }
    Ok(())
}

fn cmd_fleet_status(flags: &Flags) -> Result<(), String> {
    let report = laec_fleet::status(&fleet_paths(flags)).map_err(|e| e.to_string())?;
    if flags.json {
        println!("{}", report.to_json());
    } else {
        print!("{}", report.render());
    }
    Ok(())
}

fn cmd_fleet_worker(flags: &Flags) -> Result<(), String> {
    let paths = fleet_paths(flags);
    let config = WorkerConfig {
        id: flags
            .worker_id
            .clone()
            .unwrap_or_else(|| format!("w{}", std::process::id())),
        poll: std::time::Duration::from_millis(flags.poll_ms.unwrap_or(50)),
        max_tasks: flags.max_tasks,
    };
    let executed = laec_fleet::run_worker(&paths, &config).map_err(|e| e.to_string())?;
    // Narrate on stderr: a worker's stdout carries no artifact bytes.
    eprintln!("worker {}: {} task(s) executed", config.id, executed);
    Ok(())
}

fn cmd_fleet_stop(flags: &Flags) -> Result<(), String> {
    let paths = fleet_paths(flags);
    paths.init().map_err(|e| e.to_string())?;
    std::fs::write(paths.stop_file(), b"stop\n")
        .map_err(|error| format!("write {}: {error}", paths.stop_file().display()))?;
    println!("stop requested");
    Ok(())
}
