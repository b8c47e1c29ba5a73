//! The shared handle on an N-core hierarchy.
//!
//! The hierarchy itself — N private DL1s snooping one shared bus in front of
//! the shared write-back L2 and main memory, coherent under MESI, Dragon or
//! MOESI — is `laec_mem::MemorySystem`, the same code the uniprocessor
//! runs with one core.  N pipelines drive it at once, so this module wraps
//! it in shared ownership: [`CoherentMemory`] is the system-wide handle
//! (construction, inspection, test-driving accesses) and each core's
//! [`CorePort`] is the handle plus a core index, implementing
//! `laec_mem::MemoryPort`.

use std::cell::RefCell;
use std::rc::Rc;

use laec_ecc::ErrorInjector;
use laec_mem::{
    CoherenceStats, FaultCampaignConfig, HierarchyConfig, Interference, LineState, LoadResponse,
    MemStats, MemoryPort, MemorySystem, ProtocolKind, StoreResponse,
};

/// The shared, coherent memory system: construction, inspection and the
/// per-core [`CorePort`] factory.
#[derive(Debug, Clone)]
pub struct CoherentMemory {
    system: Rc<RefCell<MemorySystem>>,
}

impl CoherentMemory {
    /// Builds an empty MESI-coherent hierarchy for `cores` cores.
    ///
    /// # Panics
    ///
    /// Panics if `cores == 0` or a cache configuration is invalid.
    #[must_use]
    pub fn new(config: HierarchyConfig, cores: usize) -> Self {
        CoherentMemory::with_protocol(config, cores, ProtocolKind::Mesi)
    }

    /// Builds an empty coherent hierarchy for `cores` cores governed by
    /// `protocol`'s decision table.
    ///
    /// # Panics
    ///
    /// Panics if `cores == 0` or a cache configuration is invalid.
    #[must_use]
    pub fn with_protocol(config: HierarchyConfig, cores: usize, protocol: ProtocolKind) -> Self {
        CoherentMemory {
            system: Rc::new(RefCell::new(MemorySystem::with_cores(
                config, cores, protocol,
            ))),
        }
    }

    /// Number of cores.
    #[must_use]
    pub fn cores(&self) -> usize {
        self.system.borrow().cores()
    }

    /// Installs bus interference (stand-in for off-model traffic).
    pub fn set_bus_interference(&self, interference: Interference) {
        self.system.borrow_mut().set_bus_interference(interference);
    }

    /// Pre-sizes main memory for a data image of about `words` words.
    pub fn reserve_memory(&self, words: usize) {
        self.system.borrow_mut().reserve_memory(words);
    }

    /// Pre-loads a word into main memory (program data images).
    pub fn preload_word(&self, address: u32, value: u32) {
        self.system.borrow_mut().preload_word(address, value);
    }

    /// Reads a word from main memory without touching caches or counters.
    #[must_use]
    pub fn peek_memory(&self, address: u32) -> u32 {
        self.system.borrow().peek_memory(address)
    }

    /// The architecturally current value of the aligned word at `address`:
    /// any dirty DL1 copy (`M`/`Sm`/`O`) wins, then the L2, then memory.
    #[must_use]
    pub fn peek_coherent(&self, address: u32) -> u32 {
        self.system.borrow().peek_coherent(address)
    }

    /// The coherence state of `address` in `core`'s DL1.
    #[must_use]
    pub fn state(&self, core: usize, address: u32) -> LineState {
        self.system.borrow().dl1(core).coherence_state(address)
    }

    /// A timed load issued by `core` (test/inspection convenience; the
    /// pipelines go through their [`CorePort`]s).
    pub fn load(&self, core: usize, address: u32, now: u64) -> LoadResponse {
        self.system.borrow_mut().load(core, address, now)
    }

    /// A timed full-word store issued by `core`.
    pub fn store(&self, core: usize, address: u32, value: u32, now: u64) -> StoreResponse {
        self.system
            .borrow_mut()
            .store(core, address, value, 0xF, now)
    }

    /// Forces eviction of the DL1 line holding `address` in `core`'s DL1 by
    /// filling the set with conflicting lines (test helper).
    pub fn evict(&self, core: usize, address: u32, now: u64) {
        let config = self.system.borrow().config().dl1;
        let stride = config.sets() * config.line_bytes;
        for i in 1..=config.ways {
            let conflicting = address.wrapping_add(i * stride);
            self.load(core, conflicting, now + u64::from(i));
        }
    }

    /// System-wide coherence counters.
    #[must_use]
    pub fn coherence_stats(&self) -> CoherenceStats {
        self.system.borrow().coherence_stats()
    }

    /// Per-core memory statistics.
    #[must_use]
    pub fn core_stats(&self, core: usize) -> MemStats {
        self.system.borrow().core_stats(core)
    }

    /// The final memory checksum (after the cores drained).
    #[must_use]
    pub fn memory_checksum(&self) -> u64 {
        self.system.borrow().memory_checksum()
    }

    /// The port core `core` plugs into its pipeline.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    #[must_use]
    pub fn port(&self, core: usize) -> CorePort {
        assert!(core < self.cores(), "core {core} out of range");
        CorePort {
            system: Rc::clone(&self.system),
            core,
        }
    }
}

/// One core's view of the coherent hierarchy — what its
/// [`laec_pipeline::Simulator`] drives.  Forensics is not supported here
/// (the [`MemoryPort`] defaults ignore it).
#[derive(Debug)]
pub struct CorePort {
    system: Rc<RefCell<MemorySystem>>,
    core: usize,
}

impl MemoryPort for CorePort {
    fn load_word(&mut self, address: u32, now: u64) -> LoadResponse {
        self.system.borrow_mut().load(self.core, address, now)
    }

    fn store_word_masked(
        &mut self,
        address: u32,
        value: u32,
        byte_mask: u8,
        now: u64,
    ) -> StoreResponse {
        self.system
            .borrow_mut()
            .store(self.core, address, value, byte_mask, now)
    }

    fn drain_to_memory(&mut self) -> u64 {
        self.system.borrow_mut().drain(self.core)
    }

    fn stats(&self) -> MemStats {
        self.system.borrow().core_stats(self.core)
    }

    fn unrecoverable_errors(&self) -> u64 {
        self.system.borrow().core_unrecoverable_errors(self.core)
    }

    fn recovered_by_refetch(&self) -> u64 {
        self.system.borrow().core_recovered_by_refetch(self.core)
    }

    fn lost_writebacks(&self) -> u64 {
        self.system.borrow().dl1(self.core).lost_writebacks()
    }

    fn stale_metadata_reads(&self) -> u64 {
        self.system.borrow().dl1(self.core).stale_reads()
    }

    fn meta_faults_injected(&self) -> u64 {
        self.system.borrow().dl1(self.core).meta_faults_injected()
    }

    fn inject_random_fault(
        &mut self,
        injector: &mut ErrorInjector,
        config: &FaultCampaignConfig,
    ) -> Option<u32> {
        self.system
            .borrow_mut()
            .inject_random_dl1_fault(self.core, injector, config)
    }
}
