//! The traced run: a span around every call into each layer's public
//! functions, exact counts read from each call's return value, and the
//! per-layer metrics derived from both.
//!
//! Untraced repetitions alternate with traced iterations, so the tracing
//! overhead and the residual compare like with like.  A traced iteration
//! has up to three top-level spans: `rep` (the same work as an untraced
//! repetition, made through the layers' own calls), `hits` (the cache-hit
//! resubmissions) and, on `fleet_sampled`, `probe` (`Campaign::run(1)` of
//! the same spec, decomposed into sampler calls, back-to-back with the
//! fleet job).

use super::*;

/// Every top-level span kind a traced iteration records.
const ITERATION_ROOTS: [&str; 3] = ["rep", "hits", "probe"];

pub(super) fn run(bench: &mut Bench) -> Result<Report, String> {
    let mut t = Tracer::on();
    let mut iteration = 0u64;
    let mut prep = None;
    for _ in 0..bench.size.setups_per_rep {
        t.set_iteration(iteration);
        iteration += 1;
        let setup_root = t.begin("setup");
        let set_up = bench.set_up(&mut t);
        let fleet = bench.fresh_root(&mut t);
        t.end(setup_root);
        if let Some(root) = fleet? {
            root.remove();
        }
        prep = Some(set_up?);
    }
    let prep = prep.ok_or("no set-up ran")?;
    let obs = Obs::enabled();
    let reference = bench.reference(&prep, &obs)?;
    let (encode_ns, decode_ns) = ecc_costs();
    t.set_iteration(iteration);
    iteration += 1;
    let (fault_free, record_overhead) = if bench.opts.kind == Kind::GridReplay {
        record_probe(&prep, &mut t)
    } else {
        (Vec::new(), 0.0)
    };

    // Warm-up; on the grid workloads the program's own phase timer
    // observes it, as a cross-check of the spans.
    let mut ops = Ops::default();
    let mut first = None;
    let mut root = bench.fresh_root(&mut Tracer::off())?;
    let warm_obs = if root.is_some() {
        Obs::disabled()
    } else {
        obs.clone()
    };
    let warm = bench.cold_rep(&prep, root.as_mut(), &warm_obs)?;
    ops.record(&bench.check(&warm, &reference, root.as_ref()), &mut first);
    if let Some(root) = root {
        root.remove();
    }
    println!("program phase timings (laec_obs, one untraced campaign run):");
    for timing in obs.dump().timings {
        println!(
            "  {:<18} {:>6} calls {:>10.3} ms",
            timing.phase, timing.calls, timing.total_ms
        );
    }

    let mut untraced_ms = Vec::new();
    let mut tallies: Vec<Tally> = Vec::new();
    let since = Instant::now();
    loop {
        let mut root = bench.fresh_root(&mut Tracer::off())?;
        let start = Instant::now();
        let cold = bench.cold_rep(&prep, root.as_mut(), &Obs::disabled());
        untraced_ms.push(start.elapsed().as_secs_f64() * 1e3);
        let checked = cold
            .as_ref()
            .map_err(Clone::clone)
            .and_then(|cold| bench.check(cold, &reference, root.as_ref()));
        ops.record(&checked, &mut first);
        if let Some(root) = root {
            root.remove();
        }

        t.set_iteration(iteration);
        iteration += 1;
        let mut root = bench.fresh_root(&mut Tracer::off())?;
        let mut tally = Tally::default();
        let traced = traced_iteration(
            bench,
            &prep,
            &warm,
            &fault_free,
            root.as_mut(),
            &mut t,
            &mut tally,
        );
        let mut probed = Ok(true);
        if let Some(root) = root {
            let hits_root = t.begin("hits");
            ops.failed += bench.resubmit(&root, &mut t, &mut Vec::new());
            t.end(hits_root);
            ops.attempted += bench.size.resubmissions as u64;
            tally.job_records =
                fs::read_dir(root.paths.jobs_dir()).map_or(0, Iterator::count) as u64;
            probed = campaign_probe(&prep, &reference, &mut t, &mut tally);
            root.remove();
        }
        ops.attempted += 1;
        let verdict = match (traced, probed) {
            (Ok(traced_ok), Ok(probed_ok)) => Ok(traced_ok && probed_ok),
            (Err(error), _) | (_, Err(error)) => Err(error),
        };
        match verdict {
            Ok(true) if tallies.first().is_none_or(|first| *first == tally) => {}
            Ok(true) => {
                eprintln!("traced counts differ between iterations of one seed");
                ops.failed += 1;
            }
            Ok(false) => {
                eprintln!("a traced iteration failed its output check");
                ops.failed += 1;
            }
            Err(error) => {
                eprintln!("a traced iteration failed: {error}");
                ops.failed += 1;
            }
        }
        tallies.push(tally);
        if tallies.len() >= 2 && since.elapsed().as_secs_f64() >= bench.opts.seconds {
            break;
        }
    }

    let path = bench
        .opts
        .out_dir
        .join(format!("trace-{}.json", bench.opts.kind.name()));
    fs::write(&path, t.chrome_json()).map_err(|e| format!("write {}: {e}", path.display()))?;

    let values = layer_values(
        &t,
        &tallies[0],
        untraced_ms.as_slice(),
        (encode_ns, decode_ns),
        record_overhead,
    );
    print_summary(&t, &values, &untraced_ms, tallies.len());
    if let Some(first) = &first {
        println!("report counts {}", counts_json(&first.counts));
    }
    println!("chrome trace: {}", path.display());
    let metrics = PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            values
                .get(name)
                .map(|&value| Metric { name, value, unit })
                .ok_or_else(|| format!("no value for per-layer metric {name}"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Report {
        attempted: ops.attempted,
        failed: ops.failed,
        metrics,
    })
}

/// One traced iteration's `rep` span: the repetition's work, made through
/// each layer's public calls.  The flag is the iteration's output check.
fn traced_iteration(
    bench: &Bench,
    prep: &Prepared,
    warm: &Cold,
    fault_free: &[MemStats],
    fleet: Option<&mut Root>,
    t: &mut Tracer,
    tally: &mut Tally,
) -> Result<bool, String> {
    let root = t.begin("rep");
    let ok = match (bench.opts.kind, fleet) {
        (Kind::GridReplay, _) => replay_cells(bench, prep, fault_free, t, tally),
        (_, Some(fleet)) => fleet_job(bench, fleet, t, tally),
        _ => simulate_cells(bench, prep, t, tally),
    };
    if let Cold::Grid { outcome, .. } = warm {
        black_box(t.time("report.json", || outcome.to_json()));
        black_box(t.time("report.render", || outcome.render()));
    }
    t.end(root);
    ok
}

/// Records that the fault-free cells of one workload × platform agree on
/// registers and memory across schemes (the report's equivalence check).
fn agree(
    states: &mut BTreeMap<(usize, usize), (u64, u64)>,
    group: (usize, usize),
    state: (u64, u64),
) -> bool {
    *states.entry(group).or_insert(state) == state
}

/// Every grid cell in full simulation (`pipeline.execute`, or
/// `smp.campaign` on an `smpN` platform), then the write-sharing kernels.
fn simulate_cells(
    bench: &Bench,
    prep: &Prepared,
    t: &mut Tracer,
    tally: &mut Tally,
) -> Result<bool, String> {
    let grid = &prep.grid;
    let workloads = t.time("workloads.materialize", || grid.materialize_workloads());
    let mut states = BTreeMap::new();
    let mut ok = true;
    for (w, workload) in workloads.iter().enumerate() {
        for (p, &platform) in grid.platforms.iter().enumerate() {
            for (s, &scheme) in grid.schemes.iter().enumerate() {
                for fault in std::iter::once(None).chain((0..grid.fault_seeds.len()).map(Some)) {
                    let seed = fault.map(|f| cell_seed(bench.opts.seed, w, p, s, f));
                    let config = cell_config(grid, scheme, platform, seed);
                    let result = if platform.cores() > 1 {
                        let result = t.time("smp.campaign", || {
                            run_observed_core(workload, config, platform.cores(), grid.protocol)
                        });
                        let mem = &result.stats.mem;
                        tally.snoop_lookups += mem.snoop_lookups;
                        tally.invalidations += mem.invalidations_sent;
                        tally.interventions += mem.interventions;
                        tally.bus_updates += mem.bus_updates_sent;
                        result
                    } else {
                        let result = t.time("pipeline.execute", || {
                            Simulator::run(workload.program.clone(), config)
                        });
                        tally.execute_instructions += result.stats.instructions;
                        result
                    };
                    tally.add_sim(&result);
                    if fault.is_none() {
                        let registers: Vec<u8> = result
                            .registers
                            .iter()
                            .flat_map(|r| r.to_le_bytes())
                            .collect();
                        ok &= agree(
                            &mut states,
                            (w, p),
                            (fnv1a(&registers), result.memory_checksum),
                        );
                    }
                }
            }
        }
    }
    for kernel in &prep.kernels {
        let (run, kernel_ok) = t.time("smp.sharing", || run_kernel(kernel));
        ok &= kernel_ok;
        for core in &run.cores {
            tally.add_sim(core);
            tally.sharing_instructions += core.stats.instructions;
        }
        tally.snoop_lookups += run.coherence.snoop_lookups;
        tally.invalidations += run.coherence.invalidations;
        tally.interventions += run.coherence.interventions;
        tally.bus_updates += run.coherence.bus_updates;
    }
    Ok(ok)
}

/// The trace-backed engine's work, call by call: record each cell's
/// fault-free run, decode it, replay it per fault seed, and fall back to
/// full simulation where the replay diverges.
fn replay_cells(
    bench: &Bench,
    prep: &Prepared,
    fault_free: &[MemStats],
    t: &mut Tracer,
    tally: &mut Tally,
) -> Result<bool, String> {
    let grid = &prep.grid;
    let workloads = t.time("workloads.materialize", || grid.materialize_workloads());
    let mut hierarchies = fault_free.iter();
    let mut states = BTreeMap::new();
    let mut ok = true;
    for (w, workload) in workloads.iter().enumerate() {
        for (p, &platform) in grid.platforms.iter().enumerate() {
            for (s, &scheme) in grid.schemes.iter().enumerate() {
                let hierarchy = hierarchies.next().ok_or("no fault-free run for a cell")?;
                let (cell, trace) = t.time("trace.record", || {
                    record_cell(grid, workload, scheme, platform, TraceDetail::Replay)
                });
                ok &= agree(
                    &mut states,
                    (w, p),
                    (cell.registers_fingerprint, cell.memory_checksum),
                );
                tally.pipeline_instructions += cell.instructions;
                tally.pipeline_cycles += cell.cycles;
                tally.add_hierarchy(hierarchy);
                tally.add_cell(&cell);
                tally.trace_bytes += trace.event_bytes_len() as u64;
                let events = t
                    .time("trace.decode", || trace.decode_events())
                    .map_err(map_err)?;
                tally.trace_events += events.len() as u64;
                for (f, &axis_seed) in grid.fault_seeds.iter().enumerate() {
                    let seed = cell_seed(bench.opts.seed, w, p, s, f);
                    let fault = FaultCampaignConfig::single_bit(seed, grid.fault_interval)
                        .with_target(grid.fault_target);
                    let span = t.begin("trace.replay");
                    let replayed = replay_cell_events(
                        grid,
                        &trace,
                        &events,
                        workload,
                        Some(fault),
                        Some(axis_seed),
                    );
                    t.end(span);
                    let divergence = match replayed {
                        Ok(cell) => {
                            tally.replayed += 1;
                            tally.add_hierarchy(hierarchy);
                            tally.add_cell(&cell);
                            continue;
                        }
                        Err(divergence) => divergence,
                    };
                    t.rename(span, "trace.diverged");
                    let event = match divergence {
                        Divergence::LoadValue { event, .. } => {
                            tally.div_load_value += 1;
                            event
                        }
                        Divergence::LoadTiming { event, .. } => {
                            tally.div_load_timing += 1;
                            event
                        }
                        Divergence::SchemeTimingError { event, .. } => {
                            tally.div_scheme_timing += 1;
                            event
                        }
                        Divergence::Trace(error) => {
                            return Err(format!("replay rejected its own recording: {error}"))
                        }
                    };
                    tally
                        .div_positions
                        .push(event as f64 / events.len().max(1) as f64);
                    let config = cell_config(grid, scheme, platform, Some(seed));
                    let result = t.time("trace.fallback", || {
                        Simulator::run(workload.program.clone(), config)
                    });
                    tally.fallbacks += 1;
                    tally.add_sim(&result);
                }
            }
        }
    }
    Ok(ok)
}

/// Once per traced `grid_replay` run: each cell's plain `Simulator::run`
/// back-to-back with `record_cell` on the same cell.  Returns the plain
/// runs' hierarchy counts (the hierarchy work a replay of that cell does)
/// and `trace.record_overhead`.
fn record_probe(prep: &Prepared, t: &mut Tracer) -> (Vec<MemStats>, f64) {
    let grid = &prep.grid;
    let workloads = grid.materialize_workloads();
    let root = t.begin("record_probe");
    let (mut plain_s, mut record_s) = (0.0, 0.0);
    let mut fault_free = Vec::new();
    for workload in &workloads {
        for &platform in &grid.platforms {
            for &scheme in &grid.schemes {
                let config = cell_config(grid, scheme, platform, None);
                let start = Instant::now();
                let result = t.time("probe.execute", || {
                    Simulator::run(workload.program.clone(), config)
                });
                plain_s += start.elapsed().as_secs_f64();
                let start = Instant::now();
                black_box(t.time("probe.record", || {
                    record_cell(grid, workload, scheme, platform, TraceDetail::Replay)
                }));
                record_s += start.elapsed().as_secs_f64();
                fault_free.push(result.stats.mem);
            }
        }
    }
    t.end(root);
    (fault_free, record_s / plain_s - 1.0)
}

/// The fleet's cold job: submit, then serve until the queue drains.
fn fleet_job(
    bench: &Bench,
    root: &mut Root,
    t: &mut Tracer,
    tally: &mut Tally,
) -> Result<bool, String> {
    let paths = &root.paths;
    let submission = t
        .time("fleet.submit", || {
            submit(paths, &bench.spec_json, DEFAULT_PRIORITY)
        })
        .map_err(map_err)?;
    let summary = t
        .time("fleet.serve", || root.server.run())
        .map_err(map_err)?;
    tally.shards = JobRecord::load(paths, submission.id)
        .map_err(map_err)?
        .shards;
    tally.events =
        fs::read_to_string(paths.events_file()).map_or(0, |text| text.lines().count()) as u64;
    Ok(!submission.cached && summary.jobs_run == 1 && summary.jobs_failed == 0)
}

/// `Campaign::run(1)` of the sampled spec, made through the sampler's own
/// calls; the baseline `fleet.protocol_overhead` divides by.
fn campaign_probe(
    prep: &Prepared,
    reference: &Reference,
    t: &mut Tracer,
    tally: &mut Tally,
) -> Result<bool, String> {
    let (Some(plan), Some(execution)) = (prep.validated.plan(), prep.validated.sample_execution())
    else {
        return Err("fleet_sampled needs a sampled spec".to_string());
    };
    let root = t.begin("probe");
    let mut sampler = t.time("sampler.baseline", || {
        Sampler::new(&prep.grid, plan, execution, 1)
    });
    let mut rounds = 0;
    loop {
        rounds += 1;
        if t.time("sampler.round", || sampler.run_rounds(1, Some(1))) {
            break;
        }
    }
    let report = sampler.report();
    let trace_stats = sampler.trace_stats();
    tally.samples = report.total_samples;
    tally.rounds = rounds;
    tally.strata_converged = report.converged_strata;
    tally.replayed = trace_stats.replayed;
    tally.fallbacks = trace_stats.fallbacks;
    let json = t.time("report.json", || {
        CampaignOutcome::Sampled {
            report,
            trace_stats: Some(trace_stats),
        }
        .to_json()
    });
    t.end(root);
    Ok(reference.json.as_deref() == Some(json.as_str()))
}

/// Every per-layer value, by metric name.
fn layer_values(
    t: &Tracer,
    tally: &Tally,
    untraced_ms: &[f64],
    (encode_ns, decode_ns): (f64, f64),
    record_overhead: f64,
) -> BTreeMap<&'static str, f64> {
    let per_iteration = t.totals(&ITERATION_ROOTS);
    let per_setup = t.totals(&["setup"]);
    let med = |totals: &BTreeMap<u64, BTreeMap<&'static str, f64>>, name: &str| {
        let values: Vec<f64> = totals
            .values()
            .map(|spans| spans.get(name).copied().unwrap_or(0.0))
            .collect();
        median(&values)
    };
    let ms = |name: &str| med(&per_iteration, name);
    let per_unit = |ms: f64, count: u64| {
        if count == 0 {
            0.0
        } else {
            ms * 1e6 / count as f64
        }
    };
    let untraced = median(untraced_ms);
    let self_times = t.self_time_by_layer("rep");
    let covered: Vec<f64> = self_times
        .values()
        .map(|layers| layers.values().sum())
        .collect();
    let overheads: Vec<f64> = per_iteration
        .values()
        .filter_map(|spans| Some(spans.get("fleet.serve")? / spans.get("probe")? - 1.0))
        .collect();
    let lookups = t.durations(&ITERATION_ROOTS, "fleet.lookup");
    let ecc_ns = tally.ecc_checks as f64 * decode_ns + tally.ecc_encodes as f64 * encode_ns;
    let count = |value: u64| value as f64;
    BTreeMap::from([
        ("spec.parse_ms", med(&per_setup, "spec.parse")),
        ("spec.validate_ms", med(&per_setup, "spec.validate")),
        (
            "workloads.materialize_ms",
            med(&per_setup, "workloads.materialize"),
        ),
        ("pipeline.execute_ms", ms("pipeline.execute")),
        (
            "pipeline.ns_per_instr",
            per_unit(ms("pipeline.execute"), tally.execute_instructions),
        ),
        ("pipeline.instructions", count(tally.pipeline_instructions)),
        ("pipeline.cycles", count(tally.pipeline_cycles)),
        ("mem.dl1_accesses", count(tally.dl1_accesses)),
        ("mem.dl1_misses", count(tally.dl1_misses)),
        ("mem.l2_accesses", count(tally.l2_accesses)),
        ("mem.writebacks", count(tally.writebacks)),
        ("mem.bus_transactions", count(tally.bus_transactions)),
        ("ecc.checks", count(tally.ecc_checks)),
        ("ecc.encodes", count(tally.ecc_encodes)),
        ("ecc.corrected", count(tally.ecc_corrected)),
        ("ecc.uncorrectable", count(tally.ecc_uncorrectable)),
        ("ecc.encode_ns", encode_ns),
        ("ecc.decode_ns", decode_ns),
        ("ecc.share", ecc_ns / (untraced * 1e6)),
        ("trace.record_ms", ms("trace.record")),
        ("trace.record_overhead", record_overhead),
        ("trace.decode_ms", ms("trace.decode")),
        ("trace.replay_ms", ms("trace.replay")),
        ("trace.diverged_ms", ms("trace.diverged")),
        ("trace.fallback_ms", ms("trace.fallback")),
        ("trace.events", count(tally.trace_events)),
        ("trace.bytes", count(tally.trace_bytes)),
        ("trace.replayed", count(tally.replayed)),
        ("trace.fallbacks", count(tally.fallbacks)),
        ("trace.div_load_value", count(tally.div_load_value)),
        ("trace.div_load_timing", count(tally.div_load_timing)),
        ("trace.div_scheme_timing", count(tally.div_scheme_timing)),
        ("trace.div_position", median(&tally.div_positions)),
        ("smp.kernels_ms", med(&per_setup, "smp.kernels")),
        ("smp.campaign_ms", ms("smp.campaign")),
        ("smp.sharing_ms", ms("smp.sharing")),
        (
            "smp.ns_per_instr",
            per_unit(ms("smp.sharing"), tally.sharing_instructions),
        ),
        ("smp.snoop_lookups", count(tally.snoop_lookups)),
        ("smp.invalidations", count(tally.invalidations)),
        ("smp.interventions", count(tally.interventions)),
        ("smp.bus_updates", count(tally.bus_updates)),
        ("sampler.baseline_ms", ms("sampler.baseline")),
        ("sampler.round_ms", ms("sampler.round")),
        ("sampler.samples", count(tally.samples)),
        ("sampler.rounds", count(tally.rounds)),
        ("sampler.strata_converged", count(tally.strata_converged)),
        ("fleet.setup_ms", med(&per_setup, "fleet.setup")),
        ("fleet.submit_ms", ms("fleet.submit")),
        ("fleet.serve_ms", ms("fleet.serve")),
        ("fleet.lookup_ms", median(&lookups)),
        ("fleet.lookup_p95_ms", quantile(&lookups, 0.95)),
        ("fleet.protocol_overhead", median(&overheads)),
        ("fleet.job_records", count(tally.job_records)),
        ("fleet.events", count(tally.events)),
        ("fleet.shards", count(tally.shards)),
        ("report.json_ms", ms("report.json")),
        ("report.render_ms", ms("report.render")),
        ("core.residual_ms", untraced - median(&covered)),
        ("bench.tracing_overhead", ms("rep") / untraced - 1.0),
    ])
}

fn print_summary(
    t: &Tracer,
    values: &BTreeMap<&'static str, f64>,
    untraced_ms: &[f64],
    iterations: usize,
) {
    let untraced = median(untraced_ms);
    let self_times = t.self_time_by_layer("rep");
    let mut layers: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for spans in self_times.values() {
        for (&layer, &ms) in spans {
            layers.entry(layer).or_default().push(ms);
        }
    }
    println!(
        "{iterations} traced iterations; repetition median {untraced:.3} ms untraced; \
         tracing overhead {:.4}",
        values["bench.tracing_overhead"]
    );
    println!("self time per repetition (median over iterations):");
    for (layer, ms) in &layers {
        let ms = median(ms);
        println!(
            "  {layer:<10} {ms:>12.3} ms {:>7.2} %",
            100.0 * ms / untraced
        );
    }
    let residual = values["core.residual_ms"];
    println!(
        "  {:<10} {residual:>12.3} ms {:>7.2} %",
        "residual",
        100.0 * residual / untraced
    );
    let counts: Vec<String> = PER_LAYER
        .iter()
        .filter(|(_, unit)| *unit == "count")
        .map(|(name, _)| format!("\"{name}\": {}", values[name]))
        .collect();
    println!("traced counts {{{}}}", counts.join(", "));
}
