//! Persisted trace bytes, pinned.
//!
//! A recording reaches disk in exactly two ways: the trace cache
//! (`--trace-cache`) and `laec-cli trace record`.  Both write
//! `Trace::encode()` of a `record_cell` recording, and both must stay
//! readable by every later build, so the bytes themselves are the contract.
//! These digests fix them:
//!
//! 1. replay detail (what the trace cache stores): every kernel × both
//!    platforms, one digest over the four Figure 8 schemes' containers;
//! 2. full detail (what `trace record --detailed` writes): two cells whose
//!    streams carry fetches, stalls, line fills and writebacks.
//!
//! A digest may change only with an intended format change.  On a
//! mismatch the failure message lists every actual digest, in the table's
//! order, so an intended change is re-pinned from one run.

use laec::core::campaign::{CampaignSpec, PlatformVariant};
use laec::core::{hash128, record_cell};
use laec::pipeline::EccScheme;
use laec::trace::TraceDetail;
use laec::workloads::{kernel_suite, Workload};

/// `(kernel, platform, digest of its four Figure 8 schemes' containers)`.
const REPLAY_DIGESTS: [(&str, PlatformVariant, u128); 14] = [
    (
        "vector_sum",
        PlatformVariant::WriteBack,
        0xec67b2f87be6dbeb2b88a7150ff22ce,
    ),
    (
        "vector_sum",
        PlatformVariant::WriteThrough,
        0xfafbc8105c8ffb7d178ceca0d58eeb68,
    ),
    (
        "matrix_multiply",
        PlatformVariant::WriteBack,
        0x97108141496c2f5ea47ab5dbbc553466,
    ),
    (
        "matrix_multiply",
        PlatformVariant::WriteThrough,
        0x75e320cd6443e80ae034ca635a3666d5,
    ),
    (
        "fir_filter",
        PlatformVariant::WriteBack,
        0x38e681c49904ab58cffad098ece07262,
    ),
    (
        "fir_filter",
        PlatformVariant::WriteThrough,
        0x954fd5ededa97443a74971df71e9fdf2,
    ),
    (
        "table_lookup",
        PlatformVariant::WriteBack,
        0xa59b85c2c1a1805ee4f17ae5fda5ebf9,
    ),
    (
        "table_lookup",
        PlatformVariant::WriteThrough,
        0xadd9b3325efa35abe4128da19f00ba16,
    ),
    (
        "pointer_chase",
        PlatformVariant::WriteBack,
        0x7707e4928596c95c6ab422a3e2533c50,
    ),
    (
        "pointer_chase",
        PlatformVariant::WriteThrough,
        0x9b5a356d00580aaa0f76c1546b0a99,
    ),
    (
        "bit_count",
        PlatformVariant::WriteBack,
        0x2e13ba5f688472b0a9cd1a6b57f364ba,
    ),
    (
        "bit_count",
        PlatformVariant::WriteThrough,
        0xa1941010d8cd47e978e319c53b0a1b91,
    ),
    (
        "cache_buster",
        PlatformVariant::WriteBack,
        0x60604d568d25ed7703ac590037c000fa,
    ),
    (
        "cache_buster",
        PlatformVariant::WriteThrough,
        0xafa7daf2d898f1ea598493806e681f50,
    ),
];

/// `(kernel, scheme, platform, digest of the full-detail container)`.
const FULL_DIGESTS: [(&str, EccScheme, PlatformVariant, u128); 2] = [
    (
        "matrix_multiply",
        EccScheme::Laec,
        PlatformVariant::WriteBack,
        0xb6fe16f16254759d7c7e558c0a400c00,
    ),
    (
        "cache_buster",
        EccScheme::ExtraStage,
        PlatformVariant::WriteThrough,
        0xc8f626036317e8ec80eb77fd8bdb785d,
    ),
];

fn kernel(name: &str) -> Workload {
    kernel_suite()
        .into_iter()
        .find(|workload| workload.name == name)
        .unwrap_or_else(|| panic!("no kernel `{name}`"))
}

fn container(
    workload: &Workload,
    scheme: EccScheme,
    platform: PlatformVariant,
    detail: TraceDetail,
) -> Vec<u8> {
    let (_, trace) = record_cell(&CampaignSpec::smoke(), workload, scheme, platform, detail);
    trace.encode()
}

fn check<K: std::fmt::Debug>(rows: Vec<(K, u128, u128)>) {
    let mismatches: Vec<String> = rows
        .iter()
        .filter(|(_, pinned, actual)| pinned != actual)
        .map(|(key, pinned, actual)| format!("{key:?}: pinned {pinned:#x}, actual {actual:#x}"))
        .collect();
    assert!(
        mismatches.is_empty(),
        "persisted trace bytes drifted:\n{}\nall actual digests, in order:\n{}",
        mismatches.join("\n"),
        rows.iter()
            .map(|(_, _, actual)| format!("{actual:#x}"))
            .collect::<Vec<_>>()
            .join(",\n")
    );
}

#[test]
fn replay_detail_containers_match_their_pinned_digests() {
    check(
        REPLAY_DIGESTS
            .iter()
            .map(|&(name, platform, pinned)| {
                let workload = kernel(name);
                let bytes: Vec<u8> = EccScheme::figure8_set()
                    .into_iter()
                    .flat_map(|scheme| container(&workload, scheme, platform, TraceDetail::Replay))
                    .collect();
                ((name, platform), pinned, hash128(&bytes))
            })
            .collect(),
    );
}

#[test]
fn full_detail_containers_match_their_pinned_digests() {
    check(
        FULL_DIGESTS
            .iter()
            .map(|&(name, scheme, platform, pinned)| {
                let bytes = container(&kernel(name), scheme, platform, TraceDetail::Full);
                ((name, scheme, platform), pinned, hash128(&bytes))
            })
            .collect(),
    );
}
