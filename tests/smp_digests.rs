//! Multi-core byte pins.
//!
//! Every multi-core number the repository reports flows through the
//! coherent hierarchy, and no other test compares that output against a
//! fixed value (the determinism gates only compare runs with each other).
//! These digests fix it exactly:
//!
//! 1. the JSON report of a small `smp2`/`smp4` campaign under MESI, Dragon
//!    and MOESI × data, state and tag strikes;
//! 2. the run result of each shared-memory kernel at 4 cores under each
//!    protocol: per-core cycles and pipeline statistics, the coherence
//!    counters and the final memory checksum.
//!
//! A digest may change only with an intended behavioural change.  On a
//! mismatch the failure message lists every actual digest, in the table's
//! order, so an intended change is re-pinned from one run.

use laec::core::hash128;
use laec::mem::{FaultTarget, ProtocolKind};
use laec::pipeline::PipelineConfig;
use laec::prelude::{Campaign, CampaignBuilder, EccScheme, PlatformVariant};
use laec::smp::{SmpSystem, StopPolicy};
use laec::workloads::smp::{false_sharing, parallel_reduction, producer_consumer};
use laec::workloads::SmpWorkload;

/// `(protocol, strike target, digest of the campaign report JSON)`.
const CAMPAIGN_DIGESTS: [(ProtocolKind, FaultTarget, u128); 9] = [
    (
        ProtocolKind::Mesi,
        FaultTarget::Data,
        0xdcd95730fccff1016d1a36800b1159f8,
    ),
    (
        ProtocolKind::Mesi,
        FaultTarget::State,
        0x8a2af2902a2a099e5aad84d6a1c90a3,
    ),
    (
        ProtocolKind::Mesi,
        FaultTarget::Tag,
        0xd7fbcfeac57dd8a623c16a449632ac8e,
    ),
    (
        ProtocolKind::Dragon,
        FaultTarget::Data,
        0xdcd95730fccff1016d1a36800b1159f8,
    ),
    (
        ProtocolKind::Dragon,
        FaultTarget::State,
        0xda955dd86da0b8f49b2eb2f943e110f5,
    ),
    (
        ProtocolKind::Dragon,
        FaultTarget::Tag,
        0xd7fbcfeac57dd8a623c16a449632ac8e,
    ),
    (
        ProtocolKind::Moesi,
        FaultTarget::Data,
        0xdcd95730fccff1016d1a36800b1159f8,
    ),
    (
        ProtocolKind::Moesi,
        FaultTarget::State,
        0x748055040c0781621a15e80cdada0c51,
    ),
    (
        ProtocolKind::Moesi,
        FaultTarget::Tag,
        0xd7fbcfeac57dd8a623c16a449632ac8e,
    ),
];

/// `(kernel, protocol, digest of the 4-core run result)`.
const KERNEL_DIGESTS: [(&str, ProtocolKind, u128); 9] = [
    (
        "parallel_reduction",
        ProtocolKind::Mesi,
        0xa89c1fff725920765e95991e897829b1,
    ),
    (
        "parallel_reduction",
        ProtocolKind::Dragon,
        0x45d5652a3d52e48a6b2bb13b04b74873,
    ),
    (
        "parallel_reduction",
        ProtocolKind::Moesi,
        0x50c24456e0a88fa5404678d391e97c93,
    ),
    (
        "producer_consumer",
        ProtocolKind::Mesi,
        0xe1dd987b7898a5d146be968a13900c26,
    ),
    (
        "producer_consumer",
        ProtocolKind::Dragon,
        0x9306a4b1a7d88d9c861eaf81c0322ed0,
    ),
    (
        "producer_consumer",
        ProtocolKind::Moesi,
        0x6b33539d5bb71fe8728d62b881c367a0,
    ),
    (
        "false_sharing",
        ProtocolKind::Mesi,
        0x74f96f4b67f557ce8e06862dccc32b67,
    ),
    (
        "false_sharing",
        ProtocolKind::Dragon,
        0x2a96578cd3c4807d029fe07ca93fc692,
    ),
    (
        "false_sharing",
        ProtocolKind::Moesi,
        0x217a484c907c723cdf99cb1ac9934fd6,
    ),
];

fn campaign_digest(protocol: ProtocolKind, target: FaultTarget) -> u128 {
    let spec = CampaignBuilder::smoke()
        .named_workloads(["fir_filter", "matrix_multiply"])
        .schemes([EccScheme::NoEcc, EccScheme::Laec])
        .platforms([PlatformVariant::smp(2), PlatformVariant::smp(4)])
        .protocol(protocol)
        .fault_target(target)
        .fault_seeds([1])
        .fault_interval(60)
        .validate()
        .expect("a valid multi-core spec");
    hash128(Campaign::new(spec).run(2).to_json().as_bytes())
}

fn kernel(name: &str) -> SmpWorkload {
    match name {
        "parallel_reduction" => parallel_reduction(4, 64),
        "producer_consumer" => producer_consumer(4, 16, 4),
        "false_sharing" => false_sharing(4, 16),
        other => panic!("no kernel `{other}`"),
    }
}

fn kernel_digest(name: &str, protocol: ProtocolKind) -> u128 {
    let workload = kernel(name);
    let configs = vec![PipelineConfig::laec(); workload.programs.len()];
    let mut system = SmpSystem::with_protocol(workload.programs, configs, protocol);
    let run = system.run(StopPolicy::AllHalt);
    let mut text = String::new();
    for core in &run.cores {
        text.push_str(&format!(
            "cycles={} stats={:?} checksum={:#x}\n",
            core.stats.cycles, core.stats, core.memory_checksum
        ));
    }
    text.push_str(&format!(
        "coherence={:?} final={:#x}",
        run.coherence, run.final_checksum
    ));
    hash128(text.as_bytes())
}

fn check<K: std::fmt::Debug>(rows: Vec<(K, u128, u128)>) {
    let mismatches: Vec<String> = rows
        .iter()
        .filter(|(_, pinned, actual)| pinned != actual)
        .map(|(key, pinned, actual)| format!("{key:?}: pinned {pinned:#x}, actual {actual:#x}"))
        .collect();
    assert!(
        mismatches.is_empty(),
        "multi-core output drifted:\n{}\nall actual digests, in order:\n{}",
        mismatches.join("\n"),
        rows.iter()
            .map(|(_, _, actual)| format!("{actual:#x}"))
            .collect::<Vec<_>>()
            .join(",\n")
    );
}

#[test]
fn multi_core_campaign_reports_match_their_pinned_digests() {
    check(
        CAMPAIGN_DIGESTS
            .iter()
            .map(|&(protocol, target, pinned)| {
                (
                    (protocol, target),
                    pinned,
                    campaign_digest(protocol, target),
                )
            })
            .collect(),
    );
}

#[test]
fn shared_memory_kernel_runs_match_their_pinned_digests() {
    check(
        KERNEL_DIGESTS
            .iter()
            .map(|&(name, protocol, pinned)| {
                ((name, protocol), pinned, kernel_digest(name, protocol))
            })
            .collect(),
    );
}
