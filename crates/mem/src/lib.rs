//! NGMP-like memory hierarchy for the LAEC study.
//!
//! This crate models the memory system of the paper's evaluation platform
//! (§III.B, §IV): per-core private L1 data caches (4-way, 32 B lines, 16 KB),
//! a store (write) buffer, a shared bus, a shared write-back L2 and main
//! memory.  The model is both *functional* (caches hold real, ECC-protected
//! data and every access returns architecturally correct values) and *timed*
//! (every access reports the stall cycles a blocking in-order pipeline would
//! observe).
//!
//! Modules:
//!
//! * [`config`] — cache and hierarchy geometry/latency/protection parameters,
//! * [`cache`] — the set-associative, LRU, ECC-protected cache array,
//! * [`coherence`] — line states and the [`CoherenceProtocol`] decision
//!   tables (MESI, Dragon, MOESI),
//! * [`write_buffer`] — the NGMP store buffer with its
//!   "stall until completely empty" backpressure,
//! * [`bus`] — the shared bus with an interference model for unobserved cores,
//! * [`memory`] — flat main memory,
//! * [`hierarchy`] — [`MemorySystem`], the one hierarchy for 1..N cores:
//!   per-core DL1s kept coherent by snooping, the shared bus, L2 and memory.
//!   Every access names its issuing core; each pipeline borrows the
//!   hierarchy for the length of one step,
//! * [`fault`] — periodic soft-error injection campaigns (single-bit and
//!   adjacent-bit MBU patterns),
//! * [`forensics`] — per-fault lifecycle records (strike → latent residency →
//!   first activation → classified outcome), `Option`-gated and
//!   simulation-cycle-stamped,
//! * [`overlay`] — seed overlays ([`SeedOverlays`]): the fault seeds of a
//!   cell evaluated against its one fault-free run, each escaping to a run
//!   of its own when it cannot prove itself neutral,
//! * [`replay`] — the trace-replay adapter ([`ReplayMemory`]) that re-drives
//!   the hierarchy from a recorded `laec_trace` stream,
//! * [`stats`] — hit/miss/traffic counters.
//!
//! # Example
//!
//! ```
//! use laec_mem::{HierarchyConfig, MemorySystem};
//!
//! let mut system = MemorySystem::new(HierarchyConfig::ngmp_write_back());
//! system.preload_word(0x1000, 42);
//! let miss = system.load(0, 0x1000, 0);
//! assert_eq!(miss.value, 42);
//! assert!(!miss.dl1_hit);
//! let hit = system.load(0, 0x1000, 50);
//! assert!(hit.dl1_hit);
//! assert_eq!(hit.extra_cycles, 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bus;
pub mod cache;
pub mod coherence;
pub mod config;
pub mod fault;
pub mod forensics;
pub mod hierarchy;
pub mod memory;
pub mod overlay;
pub mod replay;
pub mod stats;
pub mod write_buffer;

pub use bus::{Bus, BusGrant, Interference};
pub use cache::{Cache, EvictedLine, LineWords, ReadHit};
pub use coherence::{
    CoherenceProtocol, Dragon, LineState, LocalWriteAction, Mesi, MesiState, Moesi,
    ParseProtocolError, ProtocolKind, SnoopResult,
};
pub use config::{AllocatePolicy, CacheConfig, HierarchyConfig, WritePolicy};
pub use fault::{
    FaultCampaign, FaultCampaignConfig, FaultCampaignReport, FaultPattern, FaultTarget,
    ParseFaultTargetError,
};
pub use forensics::{ActivationKind, CellForensics, FaultOutcome, FaultRecord};
pub use hierarchy::{LoadResponse, MemorySystem, StoreResponse};
pub use memory::MainMemory;
pub use overlay::{EscapeReason, OverlayOutcome, OverlayReport, SeedOverlays};
pub use replay::ReplayMemory;
pub use stats::{CacheStats, CoherenceStats, MemStats};
pub use write_buffer::{PendingStore, WriteBuffer};
