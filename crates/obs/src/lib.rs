//! `laec_obs` — deterministic instrumentation for the LAEC campaign engine.
//!
//! The crate separates three concerns that are usually (and harmfully)
//! mixed in one "metrics" bucket:
//!
//! * **Deterministic metrics** — counters, gauges and histograms that are
//!   pure functions of the campaign's byte-identical report, so their
//!   serialized section can itself be `cmp`'d across thread counts,
//!   shard/resume splits and execution engines.  See [`MetricsDump`].
//! * **Wall-clock self-profile** — phase-scoped [`Span`] timings (decode,
//!   replay, inject, fallback, checkpoint, render) that answer "where does
//!   campaign time go?" and are explicitly excluded from every byte
//!   comparison.
//! * **Progress streaming** — [`ProgressEvent`]s (per-cell completion,
//!   per-stratum Wilson-interval convergence) flowing to a
//!   [`ProgressSink`] such as the JSONL sink, never to stdout.
//!
//! The [`Obs`] handle follows the trace recorder's discipline: a disabled
//! handle is a `None` and every call site pays one branch — no clock
//! reads, no locks, no allocation.  Instrumented code takes `&Obs` and
//! calls unconditionally.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod metrics;
mod progress;
mod span;
pub mod wallclock;

pub use metrics::{Histogram, MetricsDump, PhaseTiming, SpanStats, METRICS_SCHEMA};
pub use progress::{JsonlSink, NullProgressSink, ProgressEvent, ProgressSink};
pub use span::{Phase, Span};

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

pub(crate) use span::OpenSpan;

/// Locks a registry mutex, recovering from poisoning.
///
/// A poisoned mutex means some *other* thread panicked while holding it.
/// The observability layer must never amplify that into a second panic of
/// its own (the `Obs` handle is threaded through library code, where
/// `laec-lint` forbids panics): it takes the registry as-is.  The worst
/// case is one torn self-profile entry — report bytes never flow through
/// this registry, so the determinism contract is untouched.
pub(crate) fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// The shared observability handle.
///
/// Cloning is cheap (an `Arc` bump, or nothing when disabled); a clone
/// observes into the same registry, which is how worker threads and the
/// coordinating thread share one dump.
#[derive(Debug, Clone, Default)]
pub struct Obs {
    inner: Option<Arc<ObsInner>>,
}

#[derive(Debug, Default)]
pub(crate) struct ObsInner {
    spec_fingerprint: Mutex<String>,
    engine: Mutex<String>,
    counters: Mutex<BTreeMap<String, u64>>,
    gauges: Mutex<BTreeMap<String, f64>>,
    histograms: Mutex<BTreeMap<String, Histogram>>,
    engine_counters: Mutex<BTreeMap<String, u64>>,
    pub(crate) timings: Mutex<BTreeMap<&'static str, SpanStats>>,
    progress: Mutex<Option<Box<dyn ProgressSink>>>,
    has_progress: AtomicBool,
}

impl Obs {
    /// The inert handle: every operation is a single-branch no-op.
    #[must_use]
    pub fn disabled() -> Self {
        Obs { inner: None }
    }

    /// A live handle with an empty registry.
    #[must_use]
    pub fn enabled() -> Self {
        Obs {
            inner: Some(Arc::new(ObsInner::default())),
        }
    }

    /// `true` when observations are being recorded.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Stamps the registry with the campaign identity: the spec
    /// fingerprint (as a `0x`-prefixed hex string) and the engine name.
    pub fn set_context(&self, spec_fingerprint: &str, engine: &str) {
        if let Some(inner) = &self.inner {
            *lock(&inner.spec_fingerprint) = spec_fingerprint.to_string();
            *lock(&inner.engine) = engine.to_string();
        }
    }

    /// Sets a deterministic counter to `value` (projections overwrite, so
    /// re-running a projection cannot double-count).
    pub fn counter_set(&self, name: &str, value: u64) {
        if let Some(inner) = &self.inner {
            lock(&inner.counters).insert(name.to_string(), value);
        }
    }

    /// Adds `delta` to a deterministic counter.
    pub fn counter_add(&self, name: &str, delta: u64) {
        if let Some(inner) = &self.inner {
            *lock(&inner.counters).entry(name.to_string()).or_insert(0) += delta;
        }
    }

    /// Sets a deterministic gauge.
    pub fn gauge_set(&self, name: &str, value: f64) {
        if let Some(inner) = &self.inner {
            lock(&inner.gauges).insert(name.to_string(), value);
        }
    }

    /// Adds `delta` observations to bucket `bucket` of histogram `name`.
    pub fn histogram_add(&self, name: &str, bucket: &str, delta: u64) {
        if let Some(inner) = &self.inner {
            lock(&inner.histograms)
                .entry(name.to_string())
                .or_default()
                .add(bucket, delta);
        }
    }

    /// Sets an engine-specific deterministic counter (`trace.*`,
    /// `sampler.*`) to `value`.
    pub fn engine_counter_set(&self, name: &str, value: u64) {
        if let Some(inner) = &self.inner {
            lock(&inner.engine_counters).insert(name.to_string(), value);
        }
    }

    /// Opens a wall-clock timing span for `phase`; the span records on
    /// drop.  Inert (no clock read) when disabled.
    pub fn span(&self, phase: Phase) -> Span<'_> {
        Span {
            active: self.inner.as_deref().map(|obs| OpenSpan {
                obs,
                phase,
                started: wallclock::now(),
            }),
        }
    }

    /// Attaches a progress sink; subsequent [`Obs::emit`] calls stream to
    /// it.  Replaces any previously attached sink.
    pub fn attach_progress(&self, sink: Box<dyn ProgressSink>) {
        if let Some(inner) = &self.inner {
            *lock(&inner.progress) = Some(sink);
            inner.has_progress.store(true, Ordering::Release);
        }
    }

    /// Streams one progress event to the attached sink, stamped with the
    /// spec fingerprint.  Free (one branch + one relaxed load) when no
    /// sink is attached.
    pub fn emit(&self, event: &ProgressEvent<'_>) {
        if let Some(inner) = &self.inner {
            if !inner.has_progress.load(Ordering::Acquire) {
                return;
            }
            let fingerprint = lock(&inner.spec_fingerprint).clone();
            if let Some(sink) = lock(&inner.progress).as_mut() {
                sink.emit(event, &fingerprint);
            }
        }
    }

    /// Snapshots the registry into a serializable [`MetricsDump`].
    ///
    /// Disabled handles return an empty dump (schema stamped, everything
    /// else blank).
    #[must_use]
    pub fn dump(&self) -> MetricsDump {
        let Some(inner) = &self.inner else {
            return MetricsDump {
                schema: METRICS_SCHEMA,
                ..MetricsDump::default()
            };
        };
        let timings = lock(&inner.timings)
            .iter()
            .map(|(phase, stats)| PhaseTiming {
                phase: (*phase).to_string(),
                calls: stats.calls,
                total_ms: stats.total_ns as f64 / 1.0e6,
            })
            .collect();
        MetricsDump {
            schema: METRICS_SCHEMA,
            spec_fingerprint: lock(&inner.spec_fingerprint).clone(),
            engine: lock(&inner.engine).clone(),
            counters: lock(&inner.counters).clone(),
            gauges: lock(&inner.gauges).clone(),
            histograms: lock(&inner.histograms).clone(),
            engine_counters: lock(&inner.engine_counters).clone(),
            timings,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_is_inert() {
        let obs = Obs::disabled();
        assert!(!obs.is_enabled());
        obs.set_context("0x1", "full");
        obs.counter_set("campaign.cells", 9);
        obs.counter_add("campaign.cells", 1);
        obs.gauge_set("rate", 0.5);
        obs.histogram_add("h", "b", 1);
        obs.engine_counter_set("trace.replayed", 3);
        obs.emit(&ProgressEvent::CampaignEnd {
            engine: "full",
            executed: 1,
        });
        drop(obs.span(Phase::Replay));
        let dump = obs.dump();
        assert_eq!(dump.schema, METRICS_SCHEMA);
        assert!(dump.counters.is_empty());
        assert!(dump.timings.is_empty());
    }

    #[test]
    fn enabled_handle_accumulates_and_dumps() {
        let obs = Obs::enabled();
        obs.set_context("0xabc", "trace-backed");
        obs.counter_set("campaign.cells", 24);
        obs.counter_add("campaign.cells", 1);
        obs.gauge_set("campaign.load_hit_rate", 0.875);
        obs.histogram_add("campaign.cells_by_platform", "wb", 25);
        obs.engine_counter_set("trace.replayed", 16);
        {
            let _span = obs.span(Phase::Replay);
        }
        let dump = obs.dump();
        assert_eq!(dump.spec_fingerprint, "0xabc");
        assert_eq!(dump.engine, "trace-backed");
        assert_eq!(dump.counters.get("campaign.cells"), Some(&25));
        assert_eq!(dump.engine_counters.get("trace.replayed"), Some(&16));
        assert_eq!(dump.histograms["campaign.cells_by_platform"].get("wb"), 25);
        assert_eq!(dump.timings.len(), 1);
        assert_eq!(dump.timings[0].phase, "replay");
        assert_eq!(dump.timings[0].calls, 1);
    }

    #[test]
    fn clones_share_one_registry() {
        let obs = Obs::enabled();
        let clone = obs.clone();
        clone.counter_add("campaign.cells", 2);
        obs.counter_add("campaign.cells", 3);
        assert_eq!(obs.dump().counters.get("campaign.cells"), Some(&5));
    }

    #[test]
    fn emit_reaches_an_attached_sink() {
        use std::sync::{Arc, Mutex};

        #[derive(Debug, Clone, Default)]
        struct Capture(Arc<Mutex<Vec<String>>>);
        impl ProgressSink for Capture {
            fn emit(&mut self, event: &ProgressEvent<'_>, spec_fingerprint: &str) {
                let mut lines = self.0.lock().expect("unpoisoned");
                let seq = lines.len() as u64;
                lines.push(event.to_json_line(spec_fingerprint, seq));
            }
        }

        let obs = Obs::enabled();
        obs.set_context("0x2a", "sampled");
        let capture = Capture::default();
        let lines = capture.0.clone();
        obs.attach_progress(Box::new(capture));
        obs.emit(&ProgressEvent::CampaignStart {
            engine: "sampled",
            jobs: 4,
        });
        let lines = lines.lock().expect("unpoisoned");
        assert_eq!(lines.len(), 1);
        assert!(lines[0].contains("\"spec\":\"0x2a\""));
    }
}
