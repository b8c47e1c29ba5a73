//! The memory interface the pipeline drives.
//!
//! `laec_pipeline::Simulator` talks to its data memory exclusively through
//! this trait: one core's view of a [`MemorySystem`].  The uniprocessor
//! pipeline owns a one-core `MemorySystem` outright (its port is core 0, with
//! no shared-ownership cost on the hot path); each pipeline of a `laec_smp`
//! system holds a shared handle on one N-core `MemorySystem` plus its core
//! index.  Both run the same access flows, so a one-core SMP system is the
//! uniprocessor.

use laec_ecc::ErrorInjector;
use laec_trace::TraceRecorder;

use crate::fault::FaultCampaignConfig;
use crate::forensics::CellForensics;
use crate::hierarchy::{LoadResponse, MemorySystem, StoreResponse};
use crate::stats::MemStats;

/// The per-core data-memory interface: timed loads/stores, end-of-run
/// draining, statistics and fault injection.
pub trait MemoryPort {
    /// Performs a load of the aligned word containing `address` at cycle
    /// `now`.
    fn load_word(&mut self, address: u32, now: u64) -> LoadResponse;

    /// Performs a store of `value` (bytes selected by `byte_mask`) to the
    /// aligned word containing `address` at cycle `now`.
    fn store_word_masked(
        &mut self,
        address: u32,
        value: u32,
        byte_mask: u8,
        now: u64,
    ) -> StoreResponse;

    /// Flushes all dirty state this core is responsible for down to main
    /// memory and returns the memory image's checksum.
    fn drain_to_memory(&mut self) -> u64;

    /// Accumulated per-core statistics.
    fn stats(&self) -> MemStats;

    /// Uncorrectable errors on dirty data (unrecoverable data loss).
    fn unrecoverable_errors(&self) -> u64;

    /// Uncorrectable errors recovered by refetching from the level below.
    fn recovered_by_refetch(&self) -> u64;

    /// Dirty lines silently dropped because of corrupted cache metadata
    /// (MESI state / tag strikes) — a silent-data-corruption class.
    fn lost_writebacks(&self) -> u64;

    /// Reads served wrong data because of corrupted cache metadata — the
    /// other silent-data-corruption class.
    fn stale_metadata_reads(&self) -> u64;

    /// Metadata faults injected so far (state/tag strikes).
    fn meta_faults_injected(&self) -> u64;

    /// Injects one random fault into this core's DL1 following the
    /// campaign's target and strike pattern, returning the struck address
    /// (or `None` if nothing was resident to strike).
    fn inject_random_fault(
        &mut self,
        injector: &mut ErrorInjector,
        config: &FaultCampaignConfig,
    ) -> Option<u32>;

    /// Turns on per-fault lifecycle forensics, if the port supports it.
    /// Ports without forensics (e.g. the shared SMP port) silently ignore
    /// the request and keep returning `None` from
    /// [`MemoryPort::take_forensics`].
    fn enable_forensics(&mut self) {}

    /// Takes the closed forensics record set, or `None` when forensics was
    /// never enabled (or is unsupported).  Call after
    /// [`MemoryPort::drain_to_memory`].
    fn take_forensics(&mut self) -> Option<CellForensics> {
        None
    }

    /// The trace recorder the hierarchy behind this port owns, if the run
    /// is being recorded: the pipeline emits its fetch, access, stall and
    /// commit events through it.  Ports that do not record (the shared SMP
    /// port) keep the default `None`.
    #[inline]
    fn recorder(&mut self) -> Option<&mut TraceRecorder> {
        None
    }
}

/// A `MemorySystem` owned by one pipeline is core 0's port.
impl MemoryPort for MemorySystem {
    fn load_word(&mut self, address: u32, now: u64) -> LoadResponse {
        self.load(0, address, now)
    }

    fn store_word_masked(
        &mut self,
        address: u32,
        value: u32,
        byte_mask: u8,
        now: u64,
    ) -> StoreResponse {
        self.store(0, address, value, byte_mask, now)
    }

    fn drain_to_memory(&mut self) -> u64 {
        self.drain(0)
    }

    fn stats(&self) -> MemStats {
        self.core_stats(0)
    }

    fn unrecoverable_errors(&self) -> u64 {
        self.core_unrecoverable_errors(0)
    }

    fn recovered_by_refetch(&self) -> u64 {
        self.core_recovered_by_refetch(0)
    }

    fn lost_writebacks(&self) -> u64 {
        self.dl1(0).lost_writebacks()
    }

    fn stale_metadata_reads(&self) -> u64 {
        self.dl1(0).stale_reads()
    }

    fn meta_faults_injected(&self) -> u64 {
        self.dl1(0).meta_faults_injected()
    }

    fn inject_random_fault(
        &mut self,
        injector: &mut ErrorInjector,
        config: &FaultCampaignConfig,
    ) -> Option<u32> {
        self.inject_random_dl1_fault(0, injector, config)
    }

    fn enable_forensics(&mut self) {
        MemorySystem::enable_forensics(self);
    }

    fn take_forensics(&mut self) -> Option<CellForensics> {
        MemorySystem::take_forensics(self)
    }

    #[inline]
    fn recorder(&mut self) -> Option<&mut TraceRecorder> {
        MemorySystem::recorder(self)
    }
}
