//! Uniprocessor pipeline-counter pins.
//!
//! Campaign reports carry only cycles, CPI, hit rate and look-ahead rate,
//! so a change to any other pipeline counter — the dependent-load count
//! behind Table II's "% dep. loads", the three `lookahead_blocked_*`
//! counters of the hazard ablation, the stall-cycle breakdown — would pass
//! every report digest.  These digests fix the full `PipelineStats` (its
//! `Debug` text, memory-system counters included), the final registers and
//! the memory checksum of every hand-written kernel under every scheme on
//! the write-back and write-through platforms, fault-free and under data
//! strikes.
//!
//! A digest may change only with an intended behavioural change.  On a
//! mismatch the failure message lists every actual digest, in the table's
//! order, so an intended change is re-pinned from one run.

use laec::core::hash128;
use laec::mem::FaultCampaignConfig;
use laec::pipeline::{EccScheme, PipelineConfig, Simulator};
use laec::prelude::PlatformVariant;
use laec::workloads::{kernel_suite, Workload};

/// The schemes pinned, in the table's order.
const SCHEMES: [EccScheme; 5] = [
    EccScheme::NoEcc,
    EccScheme::ExtraCycle,
    EccScheme::ExtraStage,
    EccScheme::Laec,
    EccScheme::SpeculateFlush { flush_penalty: 5 },
];

/// The platforms pinned, in the table's order.
const PLATFORMS: [PlatformVariant; 2] = [PlatformVariant::WriteBack, PlatformVariant::WriteThrough];

/// Seed and interval of the struck run's data strikes.
const STRIKES: (u64, u64) = (1, 60);

/// One row per kernel × scheme × platform, kernel-major, then scheme, then
/// platform: `kernel scheme platform digest`, the digest covering the
/// fault-free run and the struck run.
const DIGESTS: [&str; 70] = [
    "vector_sum no-ecc wb 0x1b547a14a78afe4614d133038287372b",
    "vector_sum no-ecc wt 0xf17efe44c3edd1bf5a25080a6baf4353",
    "vector_sum extra-cycle wb 0x29a4d7459645b175a291ccad114d8d3c",
    "vector_sum extra-cycle wt 0x7d7555fb41bcfe2fbba245a7ec669e72",
    "vector_sum extra-stage wb 0x35c10ebaff6ea8440c412342f790bae0",
    "vector_sum extra-stage wt 0xb8e9d3de862a53e7d75d21a237b6fb69",
    "vector_sum laec wb 0x5b44967d492574b1ed6ad39c33299c7e",
    "vector_sum laec wt 0x1e26c0ebea98699a53a3a98d7c443a1a",
    "vector_sum speculate-flush5 wb 0x1b547a14a78afe4614d133038287372b",
    "vector_sum speculate-flush5 wt 0xf17efe44c3edd1bf5a25080a6baf4353",
    "matrix_multiply no-ecc wb 0x3492bf3a5aa117cb8e3d1a22abfa32a9",
    "matrix_multiply no-ecc wt 0xa8dc689e5683c41d44a5b9ccb520c772",
    "matrix_multiply extra-cycle wb 0xe4a0a26108b2a6b615bef27d6b226146",
    "matrix_multiply extra-cycle wt 0x4e41ff29324a2e64f2983bce3cc24427",
    "matrix_multiply extra-stage wb 0x9709db59e1a86ee93980fd7232cea70c",
    "matrix_multiply extra-stage wt 0x21966e960ce564ea37e79e476e1bdd63",
    "matrix_multiply laec wb 0xbbcf02a9af0bd673f167038b4114d63e",
    "matrix_multiply laec wt 0x39457d60f74c2a96872829a7d065dd68",
    "matrix_multiply speculate-flush5 wb 0x10fc28049cf920fee7d189bfbcd6c9e7",
    "matrix_multiply speculate-flush5 wt 0x8918f99fd8332c480af4945f67978cd6",
    "fir_filter no-ecc wb 0x4c66a8eec22ace93fdd77767083abac2",
    "fir_filter no-ecc wt 0x8107aeb88b96eb0f2346407054f62940",
    "fir_filter extra-cycle wb 0x5c3bbdf055f1d5388f6a14bbaf3dd715",
    "fir_filter extra-cycle wt 0xe20e9fb0949ab2ae9c3e4b6d79458430",
    "fir_filter extra-stage wb 0x139f849404d4ad208f11b5b31e1dd0c7",
    "fir_filter extra-stage wt 0x41926918745164ea8817328038511508",
    "fir_filter laec wb 0x77d8f5c2b1f6d7dca0b055e539484253",
    "fir_filter laec wt 0xa4ddfe78542d454a8ff427f080060740",
    "fir_filter speculate-flush5 wb 0xe3d12441ac4b17ce5e58465df00b6d7a",
    "fir_filter speculate-flush5 wt 0x4d4f9ac77f0a7a4e941c0b2b8f75727d",
    "table_lookup no-ecc wb 0xfe9b4293f35cb47d7bd721a7a1fd2922",
    "table_lookup no-ecc wt 0x4a394ae51e2250f8f231c4ad0a52386b",
    "table_lookup extra-cycle wb 0xa2c732df0dc5653c4db638608231cecb",
    "table_lookup extra-cycle wt 0xf9ae0bdcf37b2456aaad9e39cc333218",
    "table_lookup extra-stage wb 0x16fd00dc510229f6e8ba9ef84f919e63",
    "table_lookup extra-stage wt 0x3fcb83a8c8ff5aea7a5792ca313d984c",
    "table_lookup laec wb 0xd64847074b346ef1d556ac096a0249e6",
    "table_lookup laec wt 0xe75bd48e4ca11188bd117a61f0d49ebb",
    "table_lookup speculate-flush5 wb 0x82b82ca9fe5d9bb870ed8fca2b5b2e81",
    "table_lookup speculate-flush5 wt 0xdedf0d92f4087f4060512468a8c6a9c",
    "pointer_chase no-ecc wb 0x31357b2a205657194425dd21748a45d5",
    "pointer_chase no-ecc wt 0xce8ff9eb8c112a8a86b5d3a6386f87e8",
    "pointer_chase extra-cycle wb 0xbc02299c585c9f1efa8860f44fd192dc",
    "pointer_chase extra-cycle wt 0x163b566c5158c9c4f8746b86e7f416ea",
    "pointer_chase extra-stage wb 0xacdd2fd19017e1e8bfbb6cbea8afa18b",
    "pointer_chase extra-stage wt 0x80f995b22c356bc669ca7d2ef4d62cc7",
    "pointer_chase laec wb 0x5d2cbed99b999c67e42f0ef538ed0aac",
    "pointer_chase laec wt 0xc21f0188ef63881378fb84386a763fde",
    "pointer_chase speculate-flush5 wb 0xf1ea8667a1716857f42eff220596b482",
    "pointer_chase speculate-flush5 wt 0x47cee91ee164d255f2121990b31b28fa",
    "bit_count no-ecc wb 0xd1011ef116bed91726e8c73476dfbb2",
    "bit_count no-ecc wt 0xd07354c73a46b2cd141a6a85ed0d69f5",
    "bit_count extra-cycle wb 0xfe5ad81cfdf140a1f0feb547dcd0de5f",
    "bit_count extra-cycle wt 0x48eff1b67ca166554e7351337953c9b6",
    "bit_count extra-stage wb 0x5378ad47ee8c4b346028b2205d75c2b3",
    "bit_count extra-stage wt 0x1a70514da6d0ac267f7111f24ce0b287",
    "bit_count laec wb 0x107214fd8d706820218e659b926c80be",
    "bit_count laec wt 0x6ff52025a05623bdb8dcf531fe9f03ba",
    "bit_count speculate-flush5 wb 0xdf35d1ac09470211c538dcb5f18f49ad",
    "bit_count speculate-flush5 wt 0xff85bec0d7f28246f12fbd153e64c656",
    "cache_buster no-ecc wb 0xbbb33c86a5e65f35a2bd4a3710279d2f",
    "cache_buster no-ecc wt 0x4d0d978a6cc3ff9ff3039f2193fff46c",
    "cache_buster extra-cycle wb 0x888dac513f7f0dcc98c5d7c8fb6557c7",
    "cache_buster extra-cycle wt 0x4d0d978a6cc3ff9ff3039f2193fff46c",
    "cache_buster extra-stage wb 0x5eead3322d54ab43f5467845ea2c2cc",
    "cache_buster extra-stage wt 0x5664712dfaa9445f853723cca4093b92",
    "cache_buster laec wb 0x195be741804f87d36a6215f030d1d07a",
    "cache_buster laec wt 0x93726ecb2627435e3970948761248845",
    "cache_buster speculate-flush5 wb 0x888dac513f7f0dcc98c5d7c8fb6557c7",
    "cache_buster speculate-flush5 wt 0x4d0d978a6cc3ff9ff3039f2193fff46c",
];

/// The digest of one kernel × scheme × platform: its fault-free run, then
/// the same run under data strikes.
fn digest(workload: &Workload, scheme: EccScheme, platform: PlatformVariant) -> u128 {
    let clean = platform.apply_config(PipelineConfig::for_scheme(scheme));
    let struck = clean
        .clone()
        .with_fault_campaign(FaultCampaignConfig::single_bit(STRIKES.0, STRIKES.1));
    let mut text = String::new();
    for config in [clean, struck] {
        let struck = config.fault_campaign.is_some();
        let result = Simulator::run(workload.program.clone(), config);
        assert!(
            !struck || result.stats.faults_injected > 0,
            "strikes landed"
        );
        text.push_str(&format!(
            "stats={:?} registers={:?} checksum={:#x}\n",
            result.stats, result.registers, result.memory_checksum
        ));
    }
    hash128(text.as_bytes())
}

#[test]
fn pipeline_counters_match_their_pinned_digests() {
    let mut actual = Vec::new();
    for workload in kernel_suite() {
        for scheme in SCHEMES {
            for platform in PLATFORMS {
                let digest = digest(&workload, scheme, platform);
                actual.push(format!("{} {scheme} {platform} {digest:#x}", workload.name));
            }
        }
    }
    let mismatches: Vec<String> = actual
        .iter()
        .zip(DIGESTS)
        .filter(|(actual, pinned)| actual != pinned)
        .map(|(actual, pinned)| format!("pinned {pinned}, actual {actual}"))
        .collect();
    assert!(
        mismatches.is_empty() && actual.len() == DIGESTS.len(),
        "pipeline counters drifted ({} rows pinned, {} run):\n{}\nall actual rows, in order:\n{}",
        DIGESTS.len(),
        actual.len(),
        mismatches.join("\n"),
        actual.join("\n")
    );
}
