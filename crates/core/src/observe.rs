//! Projection of finished campaign reports into deterministic metrics.
//!
//! The deterministic sections of a [`laec_obs::MetricsDump`] are **not**
//! incremented live from worker threads — they are computed here, after
//! the campaign, as pure functions of the final report.  Because the
//! reports themselves are byte-identical across thread counts,
//! shard/resume splits and execution engines (the repo's core correctness
//! oracle), every value projected from them inherits that identity for
//! free: there is no counter that a second resumed process could start at
//! zero, and no engine-dependent code path that could drift.
//!
//! Only three things are recorded live, and all are excluded from the
//! byte-compared sections: wall-clock [`laec_obs::Phase`] spans, streamed
//! [`laec_obs::ProgressEvent`]s, and nothing else.

use laec_obs::Obs;

use crate::campaign::{CampaignReport, OverlayStats};
use crate::forensics::{decade_bucket, ForensicsReport};
use crate::sampling::SampledReport;
use crate::spec::CampaignOutcome;
use crate::trace_backed::TraceBackedStats;

/// Projects a finished outcome into `obs`'s deterministic metric sections:
/// `counters`/`gauges`/`histograms` from the (engine-independent) report,
/// `engine_counters` from the engine's own statistics.  No-op when `obs`
/// is disabled.
///
/// [`crate::spec::Campaign::run_observed`] calls this automatically; the
/// CLI's sharded sampling path calls it directly on the outcome it
/// assembles from a restored [`crate::sampling::Sampler`].
pub fn record_outcome_metrics(outcome: &CampaignOutcome, obs: &Obs) {
    if !obs.is_enabled() {
        return;
    }
    match outcome {
        CampaignOutcome::Grid {
            report,
            trace_stats,
            overlay_stats,
        } => {
            record_grid_metrics(report, obs);
            if let Some(stats) = trace_stats {
                record_trace_counters(stats, obs);
            }
            if let Some(stats) = overlay_stats {
                record_overlay_counters(stats, obs);
            }
        }
        CampaignOutcome::Sampled {
            report,
            trace_stats,
        } => {
            record_sampled_metrics(report, obs);
            if let Some(stats) = trace_stats {
                record_trace_counters(stats, obs);
            }
        }
    }
}

/// Grid-report projection: totals over the deterministic cell vector.
fn record_grid_metrics(report: &CampaignReport, obs: &Obs) {
    obs.counter_set("campaign.cells", report.cells.len() as u64);
    obs.counter_set("campaign.degenerate_baselines", report.degenerate_baselines);
    obs.counter_set(
        "campaign.equivalence_failures",
        report.equivalence.iter().filter(|e| !e.equivalent).count() as u64,
    );
    obs.counter_set("campaign.axis.workloads", report.workloads.len() as u64);
    obs.counter_set("campaign.axis.schemes", report.schemes.len() as u64);
    obs.counter_set("campaign.axis.platforms", report.platforms.len() as u64);
    obs.counter_set("campaign.axis.fault_seeds", report.fault_seeds.len() as u64);

    let mut cycles = 0u64;
    let mut instructions = 0u64;
    let mut bus_transactions = 0u64;
    let mut snoop_lookups = 0u64;
    let mut invalidations_sent = 0u64;
    let mut faults_injected = 0u64;
    let mut faults_corrected = 0u64;
    let mut detected_uncorrectable = 0u64;
    let mut unrecoverable_errors = 0u64;
    let mut meta_faults_injected = 0u64;
    let mut lost_writebacks = 0u64;
    let mut stale_metadata_reads = 0u64;
    let mut load_hit_rate = 0.0f64;
    let mut lookahead_rate = 0.0f64;
    for cell in &report.cells {
        cycles += cell.cycles;
        instructions += cell.instructions;
        bus_transactions += cell.bus_transactions;
        snoop_lookups += cell.snoop_lookups;
        invalidations_sent += cell.invalidations_sent;
        faults_injected += cell.faults_injected;
        faults_corrected += cell.faults_corrected;
        detected_uncorrectable += cell.faults_detected_uncorrectable;
        unrecoverable_errors += cell.unrecoverable_errors;
        meta_faults_injected += cell.meta_faults_injected;
        lost_writebacks += cell.lost_writebacks;
        stale_metadata_reads += cell.stale_metadata_reads;
        load_hit_rate += cell.load_hit_rate;
        lookahead_rate += cell.lookahead_rate;
        obs.histogram_add("campaign.cells_by_platform", &cell.platform, 1);
        obs.histogram_add(
            "campaign.faults_injected_by_scheme",
            &cell.scheme,
            cell.faults_injected,
        );
    }
    obs.counter_set("campaign.cycles", cycles);
    obs.counter_set("campaign.instructions", instructions);
    obs.counter_set("campaign.bus_transactions", bus_transactions);
    obs.counter_set("campaign.snoop_lookups", snoop_lookups);
    obs.counter_set("campaign.invalidations_sent", invalidations_sent);
    obs.counter_set("campaign.faults_injected", faults_injected);
    obs.counter_set("campaign.faults_corrected", faults_corrected);
    obs.counter_set(
        "campaign.faults_detected_uncorrectable",
        detected_uncorrectable,
    );
    obs.counter_set("campaign.unrecoverable_errors", unrecoverable_errors);
    obs.counter_set("campaign.meta_faults_injected", meta_faults_injected);
    obs.counter_set("campaign.lost_writebacks", lost_writebacks);
    obs.counter_set("campaign.stale_metadata_reads", stale_metadata_reads);
    if !report.cells.is_empty() {
        // Folded in the report's fixed cell order, so the float sums are
        // bit-identical run to run.
        let n = report.cells.len() as f64;
        obs.gauge_set("campaign.load_hit_rate", load_hit_rate / n);
        obs.gauge_set("campaign.lookahead_rate", lookahead_rate / n);
    }
}

/// Sampled-report projection: totals over the deterministic strata vector.
fn record_sampled_metrics(report: &SampledReport, obs: &Obs) {
    obs.counter_set("campaign.strata", report.strata.len() as u64);
    obs.counter_set("campaign.samples", report.total_samples);
    obs.counter_set("campaign.converged_strata", report.converged_strata);
    obs.counter_set("campaign.degenerate_baselines", report.degenerate_baselines);
    obs.counter_set("campaign.axis.workloads", report.workloads.len() as u64);
    obs.counter_set("campaign.axis.schemes", report.schemes.len() as u64);
    obs.counter_set("campaign.axis.platforms", report.platforms.len() as u64);

    let mut failures = 0u64;
    let mut unrecoverable_runs = 0u64;
    let mut silent_corruptions = 0u64;
    let mut detected_runs = 0u64;
    let mut faults_injected = 0u64;
    let mut faults_corrected = 0u64;
    let mut max_rounds = 0u64;
    for stratum in &report.strata {
        failures += stratum.failures;
        unrecoverable_runs += stratum.unrecoverable_runs;
        silent_corruptions += stratum.silent_corruptions;
        detected_runs += stratum.detected_runs;
        faults_injected += stratum.faults_injected;
        faults_corrected += stratum.faults_corrected;
        // Rounds are not persisted in checkpoints; derive them from the
        // sample counts so the value survives shard/resume splits.
        max_rounds = max_rounds.max(stratum.samples.div_ceil(report.batch));
        obs.histogram_add(
            "campaign.samples_by_platform",
            &stratum.platform,
            stratum.samples,
        );
        obs.histogram_add(
            "campaign.failures_by_scheme",
            &stratum.scheme,
            stratum.failures,
        );
    }
    obs.counter_set("campaign.failures", failures);
    obs.counter_set("campaign.unrecoverable_runs", unrecoverable_runs);
    obs.counter_set("campaign.silent_corruptions", silent_corruptions);
    obs.counter_set("campaign.detected_runs", detected_runs);
    obs.counter_set("campaign.faults_injected", faults_injected);
    obs.counter_set("campaign.faults_corrected", faults_corrected);
    if report.total_samples > 0 {
        obs.gauge_set(
            "campaign.failure_rate",
            failures as f64 / report.total_samples as f64,
        );
    }
    obs.engine_counter_set("sampler.rounds", max_rounds);
    obs.engine_counter_set("sampler.samples", report.total_samples);
    obs.engine_counter_set("sampler.converged_strata", report.converged_strata);
}

/// Projects a finished [`ForensicsReport`] into `obs`'s deterministic
/// metric sections: fault/activation totals, per-outcome and per-axis
/// histograms, and the decade-bucketed detection-latency and
/// latent-residency distributions.  Like every projection here it is a
/// pure function of the (byte-identical) report, so the `forensics.*`
/// sections inherit the determinism contract.  No-op when `obs` is
/// disabled.
///
/// [`crate::spec::Campaign::run_forensic`] calls this automatically.
pub fn record_forensics_metrics(report: &ForensicsReport, obs: &Obs) {
    if !obs.is_enabled() {
        return;
    }
    obs.counter_set("forensics.faults", report.total_faults());
    obs.counter_set("forensics.activated", report.activated());
    obs.counter_set("forensics.cells_with_faults", report.cells.len() as u64);
    for (outcome, count) in report.outcome_totals() {
        obs.histogram_add("forensics.outcomes", outcome, count);
    }
    for cell in &report.cells {
        for record in &cell.records {
            obs.histogram_add(
                "forensics.outcomes_by_axis",
                &format!(
                    "{}|{}|{}|{}",
                    report.fault_target, cell.scheme, report.protocol, record.outcome
                ),
                1,
            );
            if let Some(latency) = record.latency {
                obs.histogram_add(
                    "forensics.latent_residency_cycles",
                    decade_bucket(latency),
                    1,
                );
                if record.outcome == "detected" || record.outcome == "corrected" {
                    obs.histogram_add(
                        "forensics.detection_latency_cycles",
                        decade_bucket(latency),
                        1,
                    );
                }
            }
        }
    }
}

/// Trace-engine counters: deterministic for a given engine and spec, but
/// engine-specific — they live in the `engine_counters` section, outside
/// the cross-engine comparison surface.  `trace.replayed` and
/// `trace.fallbacks` count the seeds served from, or escaped from, an
/// overlay that rode a replay; the overlay counters explain every seed.
fn record_trace_counters(stats: &TraceBackedStats, obs: &Obs) {
    obs.engine_counter_set("trace.recorded", stats.recorded);
    obs.engine_counter_set("trace.cache_loads", stats.cache_loads);
    obs.engine_counter_set("trace.replayed", stats.replayed);
    obs.engine_counter_set("trace.fallbacks", stats.fallbacks);
    obs.engine_counter_set("trace.cache_write_failures", stats.cache_write_failures);
    record_overlay_counters(&stats.overlays, obs);
}

/// Seed-overlay counters, each written only where it is non-zero:
/// `overlay.served` and `overlay.escaped.<scheme>.<reason>`.  On a grid
/// that carries overlays (data strikes, no forensics), on any platform,
/// they sum to the grid's faulty cells, and on such a sampled campaign to
/// its samples.
fn record_overlay_counters(stats: &OverlayStats, obs: &Obs) {
    if stats.served > 0 {
        obs.engine_counter_set("overlay.served", stats.served);
    }
    for ((scheme, reason), &count) in &stats.escaped {
        obs.engine_counter_set(&format!("overlay.escaped.{scheme}.{reason}"), count);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::CampaignBuilder;

    #[test]
    fn grid_projection_matches_the_report() {
        let spec = CampaignBuilder::smoke()
            .named_workloads(["vector_sum"])
            .validate()
            .expect("valid spec");
        let obs = Obs::enabled();
        let outcome = crate::spec::Campaign::new(spec).run_observed(2, &obs);
        let report = outcome.grid().expect("grid mode");
        let dump = obs.dump();
        assert_eq!(dump.counters["campaign.cells"], report.cells.len() as u64);
        assert_eq!(
            dump.counters["campaign.faults_injected"],
            report.cells.iter().map(|c| c.faults_injected).sum::<u64>()
        );
        assert_eq!(
            dump.counters["campaign.degenerate_baselines"],
            report.degenerate_baselines
        );
        assert_eq!(
            dump.histograms["campaign.cells_by_platform"].total(),
            report.cells.len() as u64
        );
        assert_eq!(dump.engine, "full");
        assert!(dump.engine_counters.is_empty());
    }

    #[test]
    fn disabled_obs_projects_nothing() {
        let spec = CampaignBuilder::smoke()
            .named_workloads(["vector_sum"])
            .validate()
            .expect("valid spec");
        let obs = Obs::disabled();
        let outcome = crate::spec::Campaign::new(spec).run_observed(2, &obs);
        record_outcome_metrics(&outcome, &obs);
        assert!(obs.dump().counters.is_empty());
    }
}
