//! `perfbench` — the repository benchmark.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload grid_full --seed 6892 --seconds 25 --trace 0
//! ```
//!
//! Runs one workload (`grid_full`, `grid_replay`, `smp_coherence` or
//! `fleet_sampled`) through the public API of every layer it touches,
//! checks its outputs, and prints one JSON object as the last line of
//! standard output: the end-to-end metrics with `--trace 0`, the per-layer
//! metrics of a traced run with `--trace 1`.  See `perfbench/README.md`.

mod heap;
mod stats;
mod tracer;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;

use workload::{Kind, Options};

#[global_allocator]
static ALLOCATOR: heap::CountingAllocator = heap::CountingAllocator;

/// The workload seed when `--seed` is absent.
pub const DEFAULT_SEED: u64 = 0x1AEC;

const USAGE: &str =
    "usage: perfbench --workload <grid_full|grid_replay|smp_coherence|fleet_sampled> \
                     [--seed N] [--seconds S] [--trace 0|1] [--tiny]";

fn parse_u64(text: &str) -> Option<u64> {
    match text.strip_prefix("0x").or_else(|| text.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => text.parse().ok(),
    }
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Options, String> {
    let mut kind = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 25.0;
    let mut trace = false;
    let mut tiny = false;
    while let Some(flag) = args.next() {
        if flag == "--tiny" {
            tiny = true;
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                kind =
                    Some(Kind::parse(&value).ok_or_else(|| format!("unknown workload `{value}`"))?);
            }
            "--seed" => seed = parse_u64(&value).ok_or_else(|| format!("bad seed `{value}`"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("bad --seconds `{value}`"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                }
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Options {
        kind: kind.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        tiny,
        out_dir: PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out")),
    })
}

fn main() -> ExitCode {
    let opts = match parse_args(std::env::args().skip(1)) {
        Ok(opts) => opts,
        Err(error) => {
            eprintln!("perfbench: {error}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match workload::run(&opts).and_then(|report| {
        match report.metrics.iter().find(|m| !m.value.is_finite()) {
            Some(m) => Err(format!("metric {} is not a finite number", m.name)),
            None => Ok(report),
        }
    }) {
        Ok(report) => {
            let metrics: Vec<String> = report
                .metrics
                .iter()
                .map(|m| {
                    format!(
                        "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                        m.name, m.value, m.unit
                    )
                })
                .collect();
            println!(
                "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
                report.failed == 0,
                report.attempted,
                report.failed,
                metrics.join(", ")
            );
            ExitCode::SUCCESS
        }
        Err(error) => {
            eprintln!("perfbench: {error}");
            ExitCode::FAILURE
        }
    }
}
