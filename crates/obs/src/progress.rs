//! The streaming side: progress/convergence events and their sinks.
//!
//! Mirrors the trace recorder's capture pattern: emitters call through
//! [`crate::Obs`] unconditionally, the [`ProgressSink`] trait defaults
//! every hook to a no-op, and a concrete sink ([`JsonlSink`]) turns the
//! stream into machine-readable JSONL on stderr or a file.  Events are
//! *progress*, not results: their arrival order may vary with the worker
//! count, which is why the determinism contract lives in the metrics dump
//! (see [`crate::MetricsDump`]) and never in the event stream.

use std::fmt;
use std::io::Write;
use std::path::Path;

use serde::{Serialize, Serializer};

/// One progress/convergence event.
///
/// Every serialized line is stamped with the campaign spec's fingerprint
/// (`"spec"`), so interleaved streams from different campaigns can be
/// separated after the fact.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ProgressEvent<'a> {
    /// A campaign started: `jobs` cells (grid modes) or strata (sampled).
    CampaignStart {
        /// Engine name (`full`, `trace-backed`, `sampled`, `smp`).
        engine: &'a str,
        /// Total cells (grid modes) or strata (sampled mode).
        jobs: u64,
    },
    /// One grid cell completed.
    Cell {
        /// Zero-based index in deterministic grid order.
        index: u64,
        /// Total cells in the grid.
        total: u64,
        /// Workload name.
        workload: &'a str,
        /// Scheme label.
        scheme: &'a str,
        /// Platform label.
        platform: &'a str,
        /// Fault-axis seed (`None` for the fault-free run).
        fault_seed: Option<u64>,
        /// Cycles the cell retired.
        cycles: u64,
        /// The phase that served the cell (see [`crate::Phase::label`]).
        phase: &'a str,
        /// Per-outcome fault-forensics tallies (label → count), present
        /// only when the campaign runs with forensics enabled.  `None`
        /// serializes no `"outcomes"` member at all, so forensics-off
        /// streams keep their historical bytes.
        outcomes: Option<&'a [(&'static str, u64)]>,
    },
    /// One stratum's state after a sampling round folded — the Wilson
    /// interval width is the convergence signal the stopping rule watches.
    Round {
        /// One-based round number (continues across shard/resume splits).
        round: u64,
        /// Workload name.
        workload: &'a str,
        /// Scheme label.
        scheme: &'a str,
        /// Platform label.
        platform: &'a str,
        /// Samples drawn so far.
        samples: u64,
        /// Failures observed so far.
        failures: u64,
        /// Wilson interval lower bound.
        ci_low: f64,
        /// Wilson interval upper bound.
        ci_high: f64,
        /// Interval width (`ci_high - ci_low`).
        width: f64,
        /// `true` once the stopping rule ended the stratum.
        converged: bool,
    },
    /// The campaign finished; the final report follows on stdout.
    CampaignEnd {
        /// Engine name.
        engine: &'a str,
        /// Cells or samples executed in this invocation.
        executed: u64,
    },
    /// A fleet job entered the persistent queue.  Job-scoped events stamp
    /// `"spec"` with the job's store key (the spec's 128-bit content hash),
    /// so one server's interleaved stream separates per job exactly like
    /// campaign streams separate per spec.
    JobQueued {
        /// Server-assigned job id.
        job: u64,
        /// Queue priority digit (`0` = most urgent, `9` = least).
        priority: u8,
    },
    /// A fleet job left the queue and began executing.
    JobStart {
        /// Server-assigned job id.
        job: u64,
        /// Shards the job was split into (`1` for unsharded jobs).
        shards: u64,
    },
    /// One shard's result merged into its job's aggregate
    /// (merge-on-arrival: shards land in completion order, not index
    /// order).
    ShardDone {
        /// Server-assigned job id.
        job: u64,
        /// Zero-based shard index.
        shard: u64,
        /// Id of the worker whose result arrived.
        worker: &'a str,
    },
    /// A submission was answered from the spec-addressed result store
    /// without executing anything.
    JobCached {
        /// Server-assigned job id.
        job: u64,
    },
    /// A fleet job finished; its artifacts are published in the store.
    JobEnd {
        /// Server-assigned job id.
        job: u64,
        /// `true` when the store served the job without execution.
        cached: bool,
    },
}

impl ProgressEvent<'_> {
    /// Encodes the event as one compact JSON line (no trailing newline),
    /// stamped with the spec fingerprint and the stream's monotone
    /// sequence number.
    ///
    /// `seq` is per *stream*, not per campaign: sinks number every line
    /// they write starting from 0 (or from the lines already present, for
    /// append sinks), so a consumer can detect gaps and reordering even
    /// though event arrival order is schedule-dependent.
    #[must_use]
    pub fn to_json_line(&self, spec_fingerprint: &str, seq: u64) -> String {
        let mut s = Serializer::compact();
        s.begin_object();
        s.field("seq", &seq);
        match self {
            ProgressEvent::CampaignStart { engine, jobs } => {
                s.field("event", "campaign_start");
                s.field("spec", spec_fingerprint);
                s.field("engine", *engine);
                s.field("jobs", jobs);
            }
            ProgressEvent::Cell {
                index,
                total,
                workload,
                scheme,
                platform,
                fault_seed,
                cycles,
                phase,
                outcomes,
            } => {
                s.field("event", "cell");
                s.field("spec", spec_fingerprint);
                s.field("index", index);
                s.field("total", total);
                s.field("workload", *workload);
                s.field("scheme", *scheme);
                s.field("platform", *platform);
                s.field("fault_seed", fault_seed);
                s.field("cycles", cycles);
                s.field("phase", *phase);
                if let Some(outcomes) = outcomes {
                    s.field("outcomes", &OutcomesJson(outcomes));
                }
            }
            ProgressEvent::Round {
                round,
                workload,
                scheme,
                platform,
                samples,
                failures,
                ci_low,
                ci_high,
                width,
                converged,
            } => {
                s.field("event", "round");
                s.field("spec", spec_fingerprint);
                s.field("round", round);
                s.field("workload", *workload);
                s.field("scheme", *scheme);
                s.field("platform", *platform);
                s.field("samples", samples);
                s.field("failures", failures);
                s.field("ci_low", ci_low);
                s.field("ci_high", ci_high);
                s.field("width", width);
                s.field("converged", converged);
            }
            ProgressEvent::CampaignEnd { engine, executed } => {
                s.field("event", "campaign_end");
                s.field("spec", spec_fingerprint);
                s.field("engine", *engine);
                s.field("executed", executed);
            }
            ProgressEvent::JobQueued { job, priority } => {
                s.field("event", "job_queued");
                s.field("spec", spec_fingerprint);
                s.field("job", job);
                s.field("priority", priority);
            }
            ProgressEvent::JobStart { job, shards } => {
                s.field("event", "job_start");
                s.field("spec", spec_fingerprint);
                s.field("job", job);
                s.field("shards", shards);
            }
            ProgressEvent::ShardDone { job, shard, worker } => {
                s.field("event", "shard_done");
                s.field("spec", spec_fingerprint);
                s.field("job", job);
                s.field("shard", shard);
                s.field("worker", *worker);
            }
            ProgressEvent::JobCached { job } => {
                s.field("event", "job_cached");
                s.field("spec", spec_fingerprint);
                s.field("job", job);
            }
            ProgressEvent::JobEnd { job, cached } => {
                s.field("event", "job_end");
                s.field("spec", spec_fingerprint);
                s.field("job", job);
                s.field("cached", cached);
            }
        }
        s.end_object();
        s.finish()
    }
}

/// The `"outcomes"` member of a forensic cell event: one JSON object in
/// the tallies' canonical (fixed) order.
struct OutcomesJson<'a>(&'a [(&'static str, u64)]);

impl Serialize for OutcomesJson<'_> {
    fn serialize(&self, serializer: &mut Serializer) {
        serializer.begin_object();
        for (label, count) in self.0 {
            serializer.field(label, count);
        }
        serializer.end_object();
    }
}

/// Receiver of progress events.
///
/// Every method defaults to a no-op so emitters can call unconditionally
/// — attaching no sink (or a [`NullProgressSink`]) keeps streaming free.
pub trait ProgressSink: fmt::Debug + Send {
    /// One event, already stamped with the spec fingerprint by the caller.
    fn emit(&mut self, _event: &ProgressEvent<'_>, _spec_fingerprint: &str) {}
}

/// A sink that drops everything (the default behaviour, spelled out).
#[derive(Debug, Clone, Copy, Default)]
pub struct NullProgressSink;

impl ProgressSink for NullProgressSink {}

/// Streams each event as one JSON line, flushing per event so progress is
/// visible while the campaign runs.  Lines are numbered with a monotone
/// `"seq"` member starting at 0 (or after the lines already present, for
/// [`JsonlSink::append`]), so consumers can detect gaps and reordering.
pub struct JsonlSink {
    out: Box<dyn Write + Send>,
    label: &'static str,
    seq: u64,
}

impl JsonlSink {
    /// A sink writing to the process's stderr (never stdout: report bytes
    /// stay untouched).
    #[must_use]
    pub fn stderr() -> Self {
        JsonlSink {
            out: Box::new(std::io::stderr()),
            label: "stderr",
            seq: 0,
        }
    }

    /// A sink writing to (and truncating) `path`.
    ///
    /// # Errors
    ///
    /// Returns the I/O error when the file cannot be created.
    pub fn create(path: &Path) -> std::io::Result<Self> {
        Ok(JsonlSink {
            out: Box::new(std::fs::File::create(path)?),
            label: "file",
            seq: 0,
        })
    }

    /// A sink appending to `path` (created when absent), numbering new
    /// events after the lines already present — how a restarted fleet
    /// server keeps one monotone sequence across its whole event log.
    ///
    /// # Errors
    ///
    /// Returns the I/O error when the file cannot be read or opened.
    pub fn append(path: &Path) -> std::io::Result<Self> {
        let existing = match std::fs::read(path) {
            Ok(bytes) => bytes.iter().filter(|&&byte| byte == b'\n').count() as u64,
            Err(error) if error.kind() == std::io::ErrorKind::NotFound => 0,
            Err(error) => return Err(error),
        };
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        Ok(JsonlSink {
            out: Box::new(file),
            label: "file",
            seq: existing,
        })
    }

    /// A sink writing into any byte sink (used by tests).
    #[must_use]
    pub fn to_writer(out: Box<dyn Write + Send>) -> Self {
        JsonlSink {
            out,
            label: "writer",
            seq: 0,
        }
    }

    /// The sequence number the next emitted line will carry.
    #[must_use]
    pub fn next_seq(&self) -> u64 {
        self.seq
    }
}

impl fmt::Debug for JsonlSink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("JsonlSink")
            .field("out", &self.label)
            .finish()
    }
}

impl ProgressSink for JsonlSink {
    fn emit(&mut self, event: &ProgressEvent<'_>, spec_fingerprint: &str) {
        let line = event.to_json_line(spec_fingerprint, self.seq);
        self.seq += 1;
        // A broken pipe must not take the campaign down with it; progress
        // is best-effort by design.
        let _ = writeln!(self.out, "{line}");
        let _ = self.out.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_encode_as_single_json_lines() {
        let event = ProgressEvent::Cell {
            index: 3,
            total: 24,
            workload: "vector_sum",
            scheme: "laec",
            platform: "wb",
            fault_seed: Some(7),
            cycles: 1234,
            phase: "replay",
            outcomes: None,
        };
        let line = event.to_json_line("0x1234", 0);
        assert!(!line.contains('\n'));
        assert!(
            !line.contains("outcomes"),
            "no forensics, no outcomes member"
        );
        let value = serde_json::parse(&line).expect("valid JSON");
        assert_eq!(value.get("event").and_then(|v| v.as_str()), Some("cell"));
        assert_eq!(value.get("spec").and_then(|v| v.as_str()), Some("0x1234"));
        assert_eq!(value.get("fault_seed").and_then(|v| v.as_u64()), Some(7));
    }

    #[test]
    fn forensic_cells_carry_outcome_tallies() {
        let tallies = [("masked", 2u64), ("sdc", 1u64)];
        let event = ProgressEvent::Cell {
            index: 1,
            total: 4,
            workload: "vector_sum",
            scheme: "no-ecc",
            platform: "wb",
            fault_seed: Some(3),
            cycles: 99,
            phase: "inject",
            outcomes: Some(&tallies),
        };
        let value = serde_json::parse(&event.to_json_line("0x2", 5)).expect("valid JSON");
        let outcomes = value.get("outcomes").expect("outcomes member");
        assert_eq!(outcomes.get("masked").and_then(|v| v.as_u64()), Some(2));
        assert_eq!(outcomes.get("sdc").and_then(|v| v.as_u64()), Some(1));
    }

    #[test]
    fn fault_free_cells_serialize_a_null_seed() {
        let event = ProgressEvent::Cell {
            index: 0,
            total: 1,
            workload: "w",
            scheme: "s",
            platform: "p",
            fault_seed: None,
            cycles: 1,
            phase: "full_sim",
            outcomes: None,
        };
        let value = serde_json::parse(&event.to_json_line("0x0", 0)).expect("valid JSON");
        assert!(value.get("fault_seed").expect("present").is_null());
    }

    #[test]
    fn round_events_carry_the_wilson_interval() {
        let event = ProgressEvent::Round {
            round: 2,
            workload: "w",
            scheme: "s",
            platform: "p",
            samples: 32,
            failures: 1,
            ci_low: 0.001,
            ci_high: 0.15,
            width: 0.149,
            converged: false,
        };
        let value = serde_json::parse(&event.to_json_line("0xff", 3)).expect("valid JSON");
        assert_eq!(value.get("round").and_then(|v| v.as_u64()), Some(2));
        assert_eq!(
            value.get("converged").and_then(|v| v.as_bool()),
            Some(false)
        );
        assert!(value.get("width").and_then(|v| v.as_f64()).is_some());
    }

    #[test]
    fn jsonl_sink_writes_one_line_per_event() {
        use std::sync::{Arc, Mutex};

        #[derive(Clone)]
        struct Shared(Arc<Mutex<Vec<u8>>>);
        impl Write for Shared {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.lock().expect("unpoisoned").extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }

        let buffer = Shared(Arc::new(Mutex::new(Vec::new())));
        let mut sink = JsonlSink::to_writer(Box::new(buffer.clone()));
        sink.emit(
            &ProgressEvent::CampaignStart {
                engine: "full",
                jobs: 8,
            },
            "0x1",
        );
        sink.emit(
            &ProgressEvent::CampaignEnd {
                engine: "full",
                executed: 8,
            },
            "0x1",
        );
        let bytes = buffer.0.lock().expect("unpoisoned").clone();
        let text = String::from_utf8(bytes).expect("utf8");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in lines {
            serde_json::parse(line).expect("each line is standalone JSON");
        }
    }

    /// Pins the `seq` schema: every line carries it, it starts at 0, and
    /// it increments by exactly one per line on a given sink.
    #[test]
    fn jsonl_sink_numbers_events_monotonically() {
        use std::sync::{Arc, Mutex};

        #[derive(Clone)]
        struct Shared(Arc<Mutex<Vec<u8>>>);
        impl Write for Shared {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.lock().expect("unpoisoned").extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }

        let buffer = Shared(Arc::new(Mutex::new(Vec::new())));
        let mut sink = JsonlSink::to_writer(Box::new(buffer.clone()));
        assert_eq!(sink.next_seq(), 0);
        for round in 0..3u64 {
            sink.emit(
                &ProgressEvent::CampaignStart {
                    engine: "full",
                    jobs: round,
                },
                "0x1",
            );
        }
        assert_eq!(sink.next_seq(), 3);
        let bytes = buffer.0.lock().expect("unpoisoned").clone();
        let text = String::from_utf8(bytes).expect("utf8");
        for (expected, line) in text.lines().enumerate() {
            let value = serde_json::parse(line).expect("valid JSON");
            assert_eq!(
                value.get("seq").and_then(|v| v.as_u64()),
                Some(expected as u64),
                "line {expected} carries its own index as seq"
            );
        }
    }

    /// Pins the job-scoped fleet event schema extension.
    #[test]
    fn job_events_encode_their_lifecycle_fields() {
        let key = "0x00000000000000000000000000001234";
        let cases: [(ProgressEvent<'_>, &str); 5] = [
            (
                ProgressEvent::JobQueued {
                    job: 7,
                    priority: 5,
                },
                "job_queued",
            ),
            (ProgressEvent::JobStart { job: 7, shards: 4 }, "job_start"),
            (
                ProgressEvent::ShardDone {
                    job: 7,
                    shard: 2,
                    worker: "w1",
                },
                "shard_done",
            ),
            (ProgressEvent::JobCached { job: 7 }, "job_cached"),
            (
                ProgressEvent::JobEnd {
                    job: 7,
                    cached: false,
                },
                "job_end",
            ),
        ];
        for (event, name) in cases {
            let value = serde_json::parse(&event.to_json_line(key, 9)).expect("valid JSON");
            assert_eq!(value.get("event").and_then(|v| v.as_str()), Some(name));
            assert_eq!(value.get("spec").and_then(|v| v.as_str()), Some(key));
            assert_eq!(value.get("seq").and_then(|v| v.as_u64()), Some(9));
            assert_eq!(value.get("job").and_then(|v| v.as_u64()), Some(7));
        }
        let done = ProgressEvent::ShardDone {
            job: 1,
            shard: 3,
            worker: "w0",
        };
        let value = serde_json::parse(&done.to_json_line(key, 0)).expect("valid JSON");
        assert_eq!(value.get("shard").and_then(|v| v.as_u64()), Some(3));
        assert_eq!(value.get("worker").and_then(|v| v.as_str()), Some("w0"));
    }

    /// An append sink continues the numbering of the lines already in the
    /// file — the fleet server's across-restart monotonicity.
    #[test]
    fn append_sink_resumes_numbering_after_existing_lines() {
        let dir = std::env::temp_dir().join(format!(
            "laec-obs-append-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("events.jsonl");
        {
            let mut sink = JsonlSink::create(&path).expect("create");
            sink.emit(
                &ProgressEvent::JobQueued {
                    job: 1,
                    priority: 5,
                },
                "0xabc",
            );
            sink.emit(&ProgressEvent::JobStart { job: 1, shards: 2 }, "0xabc");
        }
        {
            let mut sink = JsonlSink::append(&path).expect("append");
            assert_eq!(sink.next_seq(), 2, "two lines already present");
            sink.emit(
                &ProgressEvent::JobEnd {
                    job: 1,
                    cached: false,
                },
                "0xabc",
            );
        }
        let text = std::fs::read_to_string(&path).expect("readable");
        let seqs: Vec<u64> = text
            .lines()
            .map(|line| {
                serde_json::parse(line)
                    .expect("valid JSON")
                    .get("seq")
                    .and_then(|v| v.as_u64())
                    .expect("seq present")
            })
            .collect();
        assert_eq!(seqs, vec![0, 1, 2]);
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }
}
