//! Service-level tests of the fleet: sharded execution, work stealing,
//! crash recovery and the result cache — all judged by the determinism
//! contract (every path must reproduce the single-process run's bytes).
//!
//! Workers here are threads sharing the fleet root, which exercises the
//! same file protocol as worker processes (the claim rename, heartbeat
//! and result publication are all filesystem-level).  Process-level
//! crash tests (kill -9 mid-shard, kill the server mid-job) live in the
//! CLI's end-to-end suite.

use std::fs;
use std::thread;
use std::time::Duration;

use laec_core::spec::{Campaign, CampaignBuilder, ValidatedSpec};
use laec_fleet::{
    store, submit, task, worker, FleetPaths, JobRecord, JobState, Server, ServerConfig, Task,
    TaskKind, WorkerConfig, DEFAULT_PRIORITY,
};
use laec_pipeline::EccScheme;

fn scratch_root(tag: &str) -> FleetPaths {
    let root = std::env::temp_dir().join(format!("laec-fleet-svc-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&root);
    FleetPaths::new(&root)
}

/// A small sampled campaign: 2 workloads x 2 schemes x 1 platform =
/// 4 strata, budget 8, batch 4.
fn sampled_builder() -> CampaignBuilder {
    CampaignBuilder::smoke()
        .named_workloads(["vector_sum", "fir_filter"])
        .schemes([EccScheme::NoEcc, EccScheme::Laec])
        .sampled(8)
        .batch(4)
        .min_samples(4)
}

fn sampled_validated() -> ValidatedSpec {
    sampled_builder().validate().expect("a valid sampled spec")
}

/// A small grid campaign (one Whole task through the fleet).
fn grid_validated() -> ValidatedSpec {
    CampaignBuilder::smoke()
        .named_workloads(["vector_sum"])
        .schemes([EccScheme::Laec])
        .fault_seeds([1, 2])
        .validate()
        .expect("a valid grid spec")
}

/// What `laec-cli campaign --spec <file> --json > out` would produce:
/// the single-process reference every fleet path must reproduce.
fn reference_json(validated: &ValidatedSpec) -> String {
    let mut json = Campaign::new(validated.clone()).run(1).to_json();
    json.push('\n');
    json
}

fn drain_config(workers: usize, shards: usize) -> ServerConfig {
    ServerConfig {
        workers,
        shards,
        threads: 1,
        poll: Duration::from_millis(5),
        stall_timeout: Duration::from_secs(30),
        drain: true,
        worker_command: None,
        mirror_events: false,
    }
}

fn published_report(paths: &FleetPaths, key: &str) -> String {
    let dir = store::lookup(paths, key).expect("the job's artifacts are published");
    fs::read_to_string(dir.join("report.json")).expect("read published report")
}

fn event_lines(paths: &FleetPaths) -> Vec<String> {
    fs::read_to_string(paths.events_file())
        .expect("read events.jsonl")
        .lines()
        .map(str::to_string)
        .collect()
}

/// Submits `validated` and serves it with two thread workers racing the
/// task pool over `shards` shards; returns the submission's store key.
fn serve_with_thread_workers(
    paths: &FleetPaths,
    validated: &ValidatedSpec,
    shards: usize,
) -> String {
    let submission = submit(paths, &validated.spec().to_json(), DEFAULT_PRIORITY).expect("submit");
    assert!(!submission.cached);

    // Two workers race the task pool while the server drains the queue.
    let handles: Vec<_> = (0..2)
        .map(|index| {
            let worker_paths = paths.clone();
            thread::spawn(move || {
                worker::run_worker(
                    &worker_paths,
                    &WorkerConfig {
                        id: format!("t{index}"),
                        poll: Duration::from_millis(5),
                        max_tasks: None,
                    },
                )
            })
        })
        .collect();

    let mut server = Server::new(paths.clone(), drain_config(2, shards)).expect("server");
    let summary = server.run().expect("serve");
    assert_eq!(summary.jobs_run, 1);

    // The drain finished; release the thread workers.
    fs::write(paths.stop_file(), b"stop\n").expect("write stop file");
    for handle in handles {
        handle
            .join()
            .expect("worker thread")
            .expect("worker ran clean");
    }
    submission.store_key
}

#[test]
fn sharded_thread_workers_reproduce_the_single_process_bytes() {
    let paths = scratch_root("shards");
    let validated = sampled_validated();
    let store_key = serve_with_thread_workers(&paths, &validated, 4);

    assert_eq!(
        published_report(&paths, &store_key),
        reference_json(&validated),
        "sharded execution must be byte-identical to the single-process run"
    );

    let lines = event_lines(&paths);
    assert_eq!(
        lines
            .iter()
            .filter(|l| l.contains("\"event\":\"shard_done\""))
            .count(),
        4,
        "four shards, four shard_done events: {lines:#?}"
    );
    assert!(lines[0].contains("\"seq\":0"));
    for (index, line) in lines.iter().enumerate() {
        assert!(
            line.contains(&format!("\"seq\":{index}")),
            "seq must be monotone at line {index}: {line}"
        );
        assert!(
            line.contains(&format!("\"spec\":\"0x{store_key}\"")),
            "every job event carries the store key: {line}"
        );
    }
    let _ = fs::remove_dir_all(paths.root());
}

/// The workers replay their strata; the server's merge restores the
/// checkpoint in full simulation, which gives the same baselines.
#[test]
fn sharded_trace_backed_sampling_reproduces_the_single_process_bytes() {
    let paths = scratch_root("traced-shards");
    let validated = sampled_builder()
        .trace_backed()
        .validate()
        .expect("a valid trace-backed sampled spec");
    let store_key = serve_with_thread_workers(&paths, &validated, 4);
    assert_eq!(
        published_report(&paths, &store_key),
        reference_json(&validated),
        "trace-backed sharded sampling must be byte-identical to the single-process run"
    );
    let _ = fs::remove_dir_all(paths.root());
}

#[test]
fn dead_worker_claims_are_stolen_without_changing_the_bytes() {
    let paths = scratch_root("steal");
    let validated = sampled_validated();
    let submission = submit(&paths, &validated.spec().to_json(), DEFAULT_PRIORITY).expect("submit");
    paths.init().expect("init");

    // A worker "died" mid-shard: its claim for shard 0 is held by a pid
    // that cannot exist.  The server must steal it, not wait for it.
    let active_name = FleetPaths::queue_name(DEFAULT_PRIORITY, submission.id);
    let dead_task = Task {
        job: submission.id,
        shard: 0,
        kind: TaskKind::Strata { lo: 0, hi: 1 },
        spec_rel: format!("active/{active_name}"),
    };
    let stem = task::task_stem(submission.id, 0);
    fs::write(
        paths
            .claims_dir()
            .join(task::claim_name(&stem, "casualty", u32::MAX)),
        dead_task.to_json(),
    )
    .expect("plant the dead claim");

    let mut server = Server::new(paths.clone(), drain_config(0, 4)).expect("server");
    let summary = server.run().expect("serve");
    assert_eq!(summary.jobs_run, 1);

    assert_eq!(
        published_report(&paths, &submission.store_key),
        reference_json(&validated),
        "a stolen shard must not change the report"
    );
    assert!(
        laec_fleet::paths::sorted_dir(&paths.claims_dir())
            .expect("list claims")
            .is_empty(),
        "the dead claim must be gone"
    );
    let _ = fs::remove_dir_all(paths.root());
}

#[test]
fn a_restarted_server_reuses_landed_shard_results() {
    let paths = scratch_root("resume");
    let validated = sampled_validated();
    let submission = submit(&paths, &validated.spec().to_json(), DEFAULT_PRIORITY).expect("submit");
    paths.init().expect("init");

    // Simulate the predecessor server dying mid-job: the queue entry had
    // been activated and shard 0's result had already landed (published
    // by a worker named "preseed").
    let active_name = FleetPaths::queue_name(DEFAULT_PRIORITY, submission.id);
    fs::rename(
        paths.queue_dir().join(&active_name),
        paths.active_dir().join(&active_name),
    )
    .expect("activate the entry like the dead server did");
    let task0 = Task {
        job: submission.id,
        shard: 0,
        kind: TaskKind::Strata { lo: 0, hi: 2 },
        spec_rel: format!("active/{active_name}"),
    };
    let stem = task::task_stem(submission.id, 0);
    let claim = paths
        .claims_dir()
        .join(task::claim_name(&stem, "preseed", std::process::id()));
    fs::write(&claim, task0.to_json()).expect("plant the claim");
    worker::execute_task(&paths, &task0, &claim, "preseed").expect("preseed shard 0");

    // Restart: recovery re-queues the job; collection must merge the
    // landed result instead of re-running it.
    let mut server = Server::new(paths.clone(), drain_config(0, 2)).expect("server");
    let summary = server.run().expect("serve");
    assert_eq!(summary.jobs_run, 1);

    assert_eq!(
        published_report(&paths, &submission.store_key),
        reference_json(&validated),
        "recovery must reproduce the uninterrupted bytes"
    );
    let lines = event_lines(&paths);
    assert!(
        lines
            .iter()
            .any(|l| l.contains("\"event\":\"shard_done\"") && l.contains("\"worker\":\"preseed\"")),
        "shard 0 must be merged from the pre-crash result: {lines:#?}"
    );
    assert!(
        lines
            .iter()
            .any(|l| l.contains("\"event\":\"shard_done\"") && l.contains("\"worker\":\"server\"")),
        "shard 1 must be executed after the restart: {lines:#?}"
    );
    let _ = fs::remove_dir_all(paths.root());
}

#[test]
fn repeat_submissions_are_answered_from_the_store() {
    let paths = scratch_root("cache");
    let validated = grid_validated();
    let spec_json = validated.spec().to_json();

    // Two identical submissions land in the queue before any server runs.
    let first = submit(&paths, &spec_json, DEFAULT_PRIORITY).expect("submit first");
    let second = submit(&paths, &spec_json, DEFAULT_PRIORITY).expect("submit second");
    assert!(!first.cached && !second.cached);
    assert_eq!(first.store_key, second.store_key);

    let mut server = Server::new(paths.clone(), drain_config(0, 0)).expect("server");
    let summary = server.run().expect("serve");
    assert_eq!(
        (summary.jobs_run, summary.jobs_cached),
        (1, 1),
        "the second copy must be served from the store"
    );

    assert_eq!(
        published_report(&paths, &first.store_key),
        reference_json(&validated),
        "the cached artifact is the flag-driven run's bytes"
    );
    let record = JobRecord::load(&paths, second.id).expect("second record");
    assert_eq!(record.state, JobState::Done);
    assert!(record.cached);
    assert!(
        event_lines(&paths)
            .iter()
            .any(|l| l.contains("\"event\":\"job_cached\"")),
        "the cache hit must be narrated"
    );

    // A third submission is answered at submit time, queueing nothing.
    let third = submit(&paths, &spec_json, DEFAULT_PRIORITY).expect("submit third");
    assert!(third.cached, "published artifacts answer at submit time");
    let _ = fs::remove_dir_all(paths.root());
}
