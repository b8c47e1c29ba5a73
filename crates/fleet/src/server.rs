//! The long-running campaign server.
//!
//! One process owns the queue: it dispatches jobs in priority+FIFO
//! order, answers repeats from the store, splits sampled jobs into shard
//! tasks, merges shard checkpoints as they arrive (merge-on-arrival —
//! completion order, not index order), renders the final report and
//! publishes it.  Worker processes are spawned and respawned from a
//! caller-supplied argv; with `workers == 0` the server executes tasks
//! inline, which is the single-process degenerate case the determinism
//! tests compare everything against.
//!
//! Crash windows are all covered by the file protocol:
//!
//! * server dies mid-job → `active/` is renamed back into `queue/` on
//!   restart and already-landed shard results are reused, not re-run;
//! * worker dies (or stalls) mid-shard → its claim's pid goes dead (or
//!   its heartbeat goes quiet) and the claim is renamed back into the
//!   task pool for anyone else — work stealing;
//! * both at once → both recoveries compose, and the final report is
//!   byte-identical to an uninterrupted run because every shard result
//!   is a pure function of the spec and its absolute stratum range.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Child, Command};
use std::time::Duration;

use laec_core::campaign;
use laec_core::sampling::{
    sampler_fingerprint, stratum_count, SampleExecution, Sampler, SamplerCheckpoint, SamplingPlan,
};
use laec_core::spec::{CampaignOutcome, ExecutionMode, ValidatedSpec};
use laec_obs::ProgressEvent;
use serde::Serializer;

use crate::clock;
use crate::events::EventLog;
use crate::paths::{read_bytes, read_text, sorted_dir, write_atomic, FleetPaths};
use crate::queue::{self, QueueEntry};
use crate::store::{self, Artifacts};
use crate::task::{parse_claim_name, plan_shards, task_stem, Task};
use crate::worker;
use crate::{io_err, FleetError, JobRecord, JobState};

/// How the server behaves.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker processes to keep alive (`0` = execute tasks inline,
    /// single-process).
    pub workers: usize,
    /// Shards per sampled job (`0` = one per worker, minimum one).
    pub shards: usize,
    /// Threads for the server's own render/baseline pass (`0` = all
    /// cores).  Byte-neutral by the determinism contract.
    pub threads: usize,
    /// Idle poll interval (queue scans, merge waits, heartbeats).
    pub poll: Duration,
    /// A claim whose heartbeat is older than this is stolen.
    pub stall_timeout: Duration,
    /// Exit once the queue is empty instead of waiting for more work.
    pub drain: bool,
    /// Argv prefix that launches one worker process; the server appends
    /// `--worker-id <name>`.  `None` with `workers > 0` means workers
    /// are managed externally.
    pub worker_command: Option<Vec<String>>,
    /// Also mirror the event stream to stderr.
    pub mirror_events: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 0,
            shards: 0,
            threads: 0,
            poll: Duration::from_millis(50),
            stall_timeout: Duration::from_secs(10),
            drain: false,
            worker_command: None,
            mirror_events: false,
        }
    }
}

/// What one `Server::run` accomplished.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerSummary {
    /// Jobs executed to completion.
    pub jobs_run: u64,
    /// Jobs answered from the store.
    pub jobs_cached: u64,
    /// Jobs rejected or failed.
    pub jobs_failed: u64,
}

enum Collected {
    Report { json: String, txt: String },
    Failed(String),
}

enum JobOutcome {
    Ran,
    Cached,
    Failed,
}

/// The campaign server.  Construct with [`Server::new`] (which performs
/// crash recovery), then call [`Server::run`].
pub struct Server {
    paths: FleetPaths,
    config: ServerConfig,
    events: EventLog,
    children: Vec<Child>,
    next_worker: usize,
    announced: BTreeSet<u64>,
}

impl Server {
    /// Opens a fleet root for serving: creates the layout, clears any
    /// stale stop file, reopens the event log (sequence numbers resume)
    /// and recovers state left by a killed predecessor.
    pub fn new(paths: FleetPaths, config: ServerConfig) -> Result<Server, FleetError> {
        paths.init()?;
        let _ = fs::remove_file(paths.stop_file());
        let events = EventLog::open(&paths, config.mirror_events)?;
        let mut server = Server {
            paths,
            config,
            events,
            children: Vec::new(),
            next_worker: 0,
            announced: BTreeSet::new(),
        };
        server.recover()?;
        Ok(server)
    }

    /// Crash recovery: the interrupted job (if any) goes back to the
    /// queue — its landed shard results stay in `results/` and will be
    /// merged instead of re-run — and claims held by dead pids return to
    /// the task pool.
    fn recover(&mut self) -> Result<(), FleetError> {
        for name in sorted_dir(&self.paths.active_dir())? {
            let from = self.paths.active_dir().join(&name);
            let to = self.paths.queue_dir().join(&name);
            fs::rename(&from, &to)
                .map_err(|error| io_err(format!("recover {}", from.display()), error))?;
            if let Some((_, id)) = FleetPaths::parse_queue_name(&name) {
                if let Ok(mut record) = JobRecord::load(&self.paths, id) {
                    record.state = JobState::Queued;
                    record.save(&self.paths)?;
                }
            }
        }
        self.reclaim_stale()?;
        Ok(())
    }

    /// Serves the queue.  With [`ServerConfig::drain`] the call returns
    /// once the queue is empty; otherwise it serves until the stop file
    /// appears.
    pub fn run(&mut self) -> Result<ServerSummary, FleetError> {
        let mut summary = ServerSummary::default();
        loop {
            if self.paths.stop_file().exists() {
                break;
            }
            self.maintain_workers()?;
            let entries = queue::scan(&self.paths)?;
            self.announce(&entries);
            if let Some(entry) = entries.first() {
                match self.process_job(&entry.clone())? {
                    JobOutcome::Ran => summary.jobs_run += 1,
                    JobOutcome::Cached => summary.jobs_cached += 1,
                    JobOutcome::Failed => summary.jobs_failed += 1,
                }
            } else if self.config.drain {
                break;
            } else {
                std::thread::sleep(self.config.poll);
            }
        }
        self.shutdown()?;
        Ok(summary)
    }

    /// Emits `job_queued` once per job the server sees in the queue.
    fn announce(&mut self, entries: &[QueueEntry]) {
        for entry in entries {
            if self.announced.contains(&entry.id) {
                continue;
            }
            if let Ok(record) = JobRecord::load(&self.paths, entry.id) {
                self.announced.insert(entry.id);
                self.events.emit(
                    &ProgressEvent::JobQueued {
                        job: entry.id,
                        priority: entry.priority,
                    },
                    &record.store_key,
                );
            }
        }
    }

    fn process_job(&mut self, entry: &QueueEntry) -> Result<JobOutcome, FleetError> {
        let queue_path = self.paths.queue_dir().join(&entry.name);
        let spec_text = read_text(&queue_path)?;
        let mut record = JobRecord::load(&self.paths, entry.id)
            .unwrap_or_else(|_| JobRecord::new(entry.id, entry.priority, String::new()));

        let validated = match queue::validate_spec(&spec_text) {
            Ok(validated) => validated,
            Err(error) => {
                record.state = JobState::Failed;
                record.error = Some(error.to_string());
                record.save(&self.paths)?;
                fs::remove_file(&queue_path)
                    .map_err(|e| io_err(format!("dequeue {}", queue_path.display()), e))?;
                self.events.emit(
                    &ProgressEvent::JobEnd {
                        job: entry.id,
                        cached: false,
                    },
                    &record.store_key,
                );
                return Ok(JobOutcome::Failed);
            }
        };
        let key = store::store_key(&validated);
        record.store_key.clone_from(&key);

        // Answer from the store (a submission that raced a publication,
        // or a duplicate queued before the first copy finished).
        if store::lookup(&self.paths, &key).is_some() {
            record.state = JobState::Done;
            record.cached = true;
            record.save(&self.paths)?;
            fs::remove_file(&queue_path)
                .map_err(|e| io_err(format!("dequeue {}", queue_path.display()), e))?;
            self.events
                .emit(&ProgressEvent::JobCached { job: entry.id }, &key);
            self.events.emit(
                &ProgressEvent::JobEnd {
                    job: entry.id,
                    cached: true,
                },
                &key,
            );
            return Ok(JobOutcome::Cached);
        }

        // Execute: move the entry to active/ (the crash marker), shard,
        // and collect.
        let active_path = self.paths.active_dir().join(&entry.name);
        fs::rename(&queue_path, &active_path)
            .map_err(|error| io_err(format!("activate {}", queue_path.display()), error))?;
        let spec_rel = format!("active/{}", entry.name);

        // A recovered job keeps the shard plan it started under: landed
        // results and live claims are keyed by shard index, and indices
        // only line up with the plan that created them.  A restarted
        // server with a different --workers/--shards must therefore not
        // re-plan an interrupted job.
        let max_shards = if record.shards > 0 {
            record.shards as usize
        } else if self.config.shards == 0 {
            self.config.workers.max(1)
        } else {
            self.config.shards
        };
        let kinds = plan_shards(&validated, max_shards);
        record.state = JobState::Running;
        record.shards = kinds.len() as u64;
        record.save(&self.paths)?;
        self.events.emit(
            &ProgressEvent::JobStart {
                job: entry.id,
                shards: kinds.len() as u64,
            },
            &key,
        );

        for (shard, kind) in kinds.iter().enumerate() {
            let shard = shard as u64;
            // Recovery reuse: a result that already landed (from the run
            // this job was interrupted in) needs no task; neither does a
            // shard a live worker still holds a claim for.
            if self.find_result(entry.id, shard)?.is_some() || self.claim_exists(entry.id, shard)? {
                continue;
            }
            Task {
                job: entry.id,
                shard,
                kind: *kind,
                spec_rel: spec_rel.clone(),
            }
            .journal(&self.paths)?;
        }

        let collected = self.collect(entry.id, &key, &validated, kinds.len())?;
        match collected {
            Collected::Report { json, txt } => {
                let mut spec_json = validated.spec().to_json();
                spec_json.push('\n');
                let meta = meta_json(entry.id, &key, validated.mode().kind(), kinds.len() as u64);
                store::publish(
                    &self.paths,
                    &key,
                    &Artifacts {
                        spec_json,
                        report_json: json,
                        report_txt: txt,
                        meta_json: meta,
                    },
                )?;
                record.state = JobState::Done;
                record.save(&self.paths)?;
                self.cleanup_job(entry.id, &active_path);
                self.events.emit(
                    &ProgressEvent::JobEnd {
                        job: entry.id,
                        cached: false,
                    },
                    &key,
                );
                Ok(JobOutcome::Ran)
            }
            Collected::Failed(message) => {
                record.state = JobState::Failed;
                record.error = Some(message);
                record.save(&self.paths)?;
                self.cleanup_job(entry.id, &active_path);
                self.events.emit(
                    &ProgressEvent::JobEnd {
                        job: entry.id,
                        cached: false,
                    },
                    &key,
                );
                Ok(JobOutcome::Failed)
            }
        }
    }

    /// Merge-on-arrival: waits for every shard result, merging each as
    /// it lands, then renders the job's final artifacts.
    fn collect(
        &mut self,
        job: u64,
        key: &str,
        validated: &ValidatedSpec,
        shards: usize,
    ) -> Result<Collected, FleetError> {
        let grid = validated.grid();
        match validated.mode() {
            ExecutionMode::Sampled { plan, .. } => {
                self.collect_sampled(job, key, &grid, plan, shards)
            }
            _ => self.collect_whole(job, key),
        }
    }

    fn collect_sampled(
        &mut self,
        job: u64,
        key: &str,
        grid: &campaign::CampaignSpec,
        plan: &SamplingPlan,
        shards: usize,
    ) -> Result<Collected, FleetError> {
        let mut merged =
            SamplerCheckpoint::empty(sampler_fingerprint(grid, plan), stratum_count(grid));
        let mut pending: BTreeSet<u64> = (0..shards as u64).collect();
        while !pending.is_empty() {
            let mut progressed = false;
            for shard in pending.clone() {
                let Some((path, worker)) = self.find_result(job, shard)? else {
                    continue;
                };
                let shard_ckpt = SamplerCheckpoint::decode(&read_bytes(&path)?)?;
                merged.merge_shard(&shard_ckpt)?;
                pending.remove(&shard);
                progressed = true;
                self.events.emit(
                    &ProgressEvent::ShardDone {
                        job,
                        shard,
                        worker: &worker,
                    },
                    key,
                );
            }
            if !pending.is_empty() && !progressed {
                self.wait_step()?;
            }
        }
        // The report reads only the strata's baseline cycles, which full
        // simulation gives without recording anything.
        let sampler = Sampler::restore(
            grid,
            plan,
            &SampleExecution::FullSim,
            self.config.threads,
            &merged,
        )?;
        let outcome = CampaignOutcome::Sampled {
            report: sampler.report(),
            trace_stats: None,
        };
        let mut json = outcome.to_json();
        json.push('\n');
        Ok(Collected::Report {
            json,
            txt: outcome.render(),
        })
    }

    fn collect_whole(&mut self, job: u64, key: &str) -> Result<Collected, FleetError> {
        loop {
            if let Some((path, worker)) = self.find_result(job, 0)? {
                let text = read_text(&path)?;
                let value = serde_json::parse(&text).map_err(|error| FleetError::Malformed {
                    path: path.clone(),
                    what: error.to_string(),
                })?;
                let field = |name: &str| {
                    value
                        .get(name)
                        .and_then(serde_json::Value::as_str)
                        .map(str::to_string)
                        .ok_or_else(|| FleetError::Malformed {
                            path: path.clone(),
                            what: format!("missing `{name}`"),
                        })
                };
                let equivalent = value
                    .get("equivalent")
                    .and_then(serde_json::Value::as_bool)
                    .ok_or_else(|| FleetError::Malformed {
                        path: path.clone(),
                        what: "missing `equivalent`".to_string(),
                    })?;
                self.events.emit(
                    &ProgressEvent::ShardDone {
                        job,
                        shard: 0,
                        worker: &worker,
                    },
                    key,
                );
                if !equivalent {
                    return Ok(Collected::Failed(
                        "architectural equivalence check failed".to_string(),
                    ));
                }
                let mut json = field("report_json")?;
                json.push('\n');
                return Ok(Collected::Report {
                    json,
                    txt: field("report_txt")?,
                });
            }
            self.wait_step()?;
        }
    }

    /// One step of waiting for workers: respawn dead ones, steal stale
    /// claims, and either execute a task inline (`workers == 0`) or
    /// sleep one poll interval.
    fn wait_step(&mut self) -> Result<(), FleetError> {
        self.maintain_workers()?;
        self.reclaim_stale()?;
        if self.config.workers == 0 {
            let pid = std::process::id();
            if let Some((task, claim)) = worker::claim_next(&self.paths, "server", pid)? {
                return worker::execute_task(&self.paths, &task, &claim, "server");
            }
        }
        std::thread::sleep(self.config.poll);
        Ok(())
    }

    /// The first (sorted) result file for a shard, with the worker that
    /// produced it.  Duplicates (a steal that raced the original owner)
    /// hold byte-identical content, so "first sorted" is a complete
    /// tie-break.
    fn find_result(&self, job: u64, shard: u64) -> Result<Option<(PathBuf, String)>, FleetError> {
        let prefix = format!("{}.", task_stem(job, shard));
        for name in sorted_dir(&self.paths.results_dir())? {
            if let Some(rest) = name.strip_prefix(&prefix) {
                if let Some((worker, _ext)) = rest.rsplit_once('.') {
                    return Ok(Some((
                        self.paths.results_dir().join(&name),
                        worker.to_string(),
                    )));
                }
            }
        }
        Ok(None)
    }

    /// Whether any worker currently holds a claim for this shard.
    fn claim_exists(&self, job: u64, shard: u64) -> Result<bool, FleetError> {
        let stem = task_stem(job, shard);
        Ok(sorted_dir(&self.paths.claims_dir())?
            .iter()
            .any(|name| parse_claim_name(name).is_some_and(|(s, _, _)| s == stem)))
    }

    /// Work stealing: claims whose result already landed are debris and
    /// are removed; claims whose pid is dead or whose heartbeat is older
    /// than the stall timeout go back to the task pool.
    fn reclaim_stale(&mut self) -> Result<(), FleetError> {
        for name in sorted_dir(&self.paths.claims_dir())? {
            let Some((stem, _worker, pid)) = parse_claim_name(&name) else {
                continue;
            };
            let claim_path = self.paths.claims_dir().join(&name);
            if self.stem_has_result(stem)? {
                let _ = fs::remove_file(&claim_path);
                continue;
            }
            let stale = pid_is_dead(pid)
                || clock::mtime_age(&claim_path)
                    .is_some_and(|age| age >= self.config.stall_timeout);
            if stale {
                // Losing this rename means the owner just finished (or a
                // heartbeat recreated the claim) — either way, no theft.
                let _ = fs::rename(
                    &claim_path,
                    self.paths.tasks_dir().join(format!("{stem}.json")),
                );
            }
        }
        Ok(())
    }

    fn stem_has_result(&self, stem: &str) -> Result<bool, FleetError> {
        let prefix = format!("{stem}.");
        Ok(sorted_dir(&self.paths.results_dir())?
            .iter()
            .any(|name| name.starts_with(&prefix)))
    }

    /// Keeps the worker pool at strength, reaping exited children.
    fn maintain_workers(&mut self) -> Result<(), FleetError> {
        let Some(argv) = self.config.worker_command.clone() else {
            return Ok(());
        };
        self.children
            .retain_mut(|child| !matches!(child.try_wait(), Ok(Some(_))));
        while self.children.len() < self.config.workers {
            let name = format!("w{}", self.next_worker);
            self.next_worker += 1;
            let Some(program) = argv.first() else {
                return Ok(());
            };
            let child = Command::new(program)
                .args(&argv[1..])
                .arg("--worker-id")
                .arg(&name)
                .spawn()
                .map_err(|error| io_err(format!("spawn worker {name} ({program})"), error))?;
            self.children.push(child);
        }
        Ok(())
    }

    /// Stops spawned workers: writes the stop file, waits politely, then
    /// kills stragglers.
    fn shutdown(&mut self) -> Result<(), FleetError> {
        if self.children.is_empty() {
            return Ok(());
        }
        write_atomic(&self.paths.stop_file(), b"stop\n")?;
        let patience =
            (self.config.stall_timeout.as_millis() / self.config.poll.as_millis().max(1)).max(20);
        for _ in 0..patience {
            self.children
                .retain_mut(|child| !matches!(child.try_wait(), Ok(Some(_))));
            if self.children.is_empty() {
                return Ok(());
            }
            std::thread::sleep(self.config.poll);
        }
        for child in &mut self.children {
            let _ = child.kill();
            let _ = child.wait();
        }
        self.children.clear();
        Ok(())
    }

    /// Removes a finished job's working files (tasks first, so nothing
    /// re-claims them), then its active entry.  Best-effort: leftovers
    /// are either re-swept or harmless byte-identical debris.
    fn cleanup_job(&self, job: u64, active_path: &Path) {
        let prefix = format!("t{job:010}-");
        for dir in [
            self.paths.tasks_dir(),
            self.paths.claims_dir(),
            self.paths.results_dir(),
        ] {
            if let Ok(names) = sorted_dir(&dir) {
                for name in names {
                    if name.starts_with(&prefix) {
                        let _ = fs::remove_file(dir.join(name));
                    }
                }
            }
        }
        let _ = fs::remove_file(active_path);
    }
}

/// On Linux `/proc/<pid>` vanishes with the process; elsewhere liveness
/// is unknowable this way and stall detection falls back to heartbeat
/// age alone.
fn pid_is_dead(pid: u32) -> bool {
    let proc_root = Path::new("/proc");
    proc_root.is_dir() && !proc_root.join(pid.to_string()).exists()
}

/// The provenance record published as `meta.json`.
fn meta_json(job: u64, key: &str, mode_kind: &str, shards: u64) -> String {
    let mut s = Serializer::compact();
    s.begin_object();
    s.field("store_key", key);
    s.field("mode", mode_kind);
    s.field("job", &job);
    s.field("shards", &shards);
    s.end_object();
    let mut line = s.finish();
    line.push('\n');
    line
}
