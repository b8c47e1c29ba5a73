//! The memory hierarchy: one private DL1 per core in front of the shared
//! bus, the shared L2 and main memory.
//!
//! The model is functional *and* timed: every access returns both the correct
//! architectural value and the number of extra stall cycles beyond a 1-cycle
//! DL1 hit.  The paper's DL1 is blocking (a miss stalls the pipeline), which
//! keeps the timing interface simple: the pipeline adds `extra_cycles` stall
//! cycles to the memory stage.
//!
//! # One hierarchy for 1..N cores
//!
//! Only one core executes a task in the paper's evaluation (§IV); the other
//! cores' bus traffic can be represented with [`Interference`] for the
//! contention-oriented ablation.  [`MemorySystem::new`] builds that
//! uniprocessor.  [`MemorySystem::with_cores`] builds the real N-core
//! topology: every bus transaction a core issues snoops the *other* cores'
//! DL1 tag arrays, and what the snooped copies do is decided by the
//! configured [`CoherenceProtocol`](crate::CoherenceProtocol) table:
//!
//! * **MESI** (the default): remote reads downgrade `Modified`/`Exclusive`
//!   copies to `Shared` (a `Modified` owner supplies the line and refreshes
//!   the L2), remote write intents invalidate, and stores to `Shared` lines
//!   first broadcast an upgrade (BusUpgr) that invalidates the other copies.
//! * **Dragon**: update-based — stores to shared (`Sc`/`Sm`) lines
//!   broadcast the written word (BusUpd) into the surviving remote copies
//!   instead of invalidating them, and a dirty supplier keeps its writeback
//!   obligation (`Sm`) rather than refreshing the L2.
//! * **MOESI**: a `Modified` copy snooped by a remote read becomes `Owned` —
//!   it supplies the line cache-to-cache and stays dirty, so the L2 and
//!   memory remain stale until the owner evicts.
//!
//! Both are the same code: every flow takes the issuing core, and with one
//! core the snoop loops are empty.  The core count enters exactly one
//! decision — **the N = 1 rule**: the shared-line write action (BusUpgr or
//! BusUpd) is taken only when another DL1 exists.  On one core a line can
//! only be `Shared` because a fault flipped its state bits, and with no
//! copy to invalidate or update the broadcast would cost a bus transaction
//! the uniprocessor never issues.
//!
//! The trace recorder and the forensics log observe the hierarchy as a
//! whole; the campaign engines record one-core systems only.  The seed
//! overlays ([`crate::overlay`]), which evaluate a set of fault seeds
//! against a fault-free run, strike core 0 of any hierarchy.

use laec_ecc::{ErrorInjector, FlipPlan, Outcome};
use laec_trace::{MemLevel, TraceRecorder};

use crate::bus::{Bus, Interference};
use crate::cache::{Cache, EvictedLine, LineWords};
use crate::coherence::{LineState, LocalWriteAction, ProtocolKind};
use crate::config::{AllocatePolicy, HierarchyConfig, WritePolicy};
use crate::fault::{FaultCampaignConfig, FaultPattern, FaultTarget};
use crate::forensics::{ActivationKind, CellForensics, DataObservation, ForensicsLog};
use crate::memory::MainMemory;
use crate::overlay::SeedOverlays;
use crate::stats::{CoherenceStats, MemStats};

/// Result of a load.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoadResponse {
    /// The loaded (aligned) 32-bit word.
    pub value: u32,
    /// `true` if the access hit in the DL1.
    pub dl1_hit: bool,
    /// Stall cycles beyond the 1-cycle DL1 hit access.
    pub extra_cycles: u32,
    /// ECC outcome observed at the DL1 (Clean for misses: refilled data is
    /// freshly encoded).
    pub outcome: Outcome,
}

/// Result of a store (as seen by the write-buffer drain).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreResponse {
    /// `true` if the store hit in the DL1.
    pub dl1_hit: bool,
    /// Cycles the store occupies the DL1/bus beyond a single-cycle DL1 write.
    pub extra_cycles: u32,
}

/// One core's private side of the hierarchy: its DL1 and the counters kept
/// on its behalf.
#[derive(Debug)]
struct CoreSide {
    dl1: Cache,
    /// Bus, memory and coherence traffic this core caused.  The `dl1` and
    /// `l2` members are filled in by [`MemorySystem::core_stats`].
    stats: MemStats,
    /// Uncorrectable DL1 errors on dirty data (unrecoverable in a WB DL1).
    unrecoverable_errors: u64,
    /// Uncorrectable DL1 errors recovered by refetching from L2 (WT DL1).
    recovered_by_refetch: u64,
}

/// The memory hierarchy of a 1..N-core system (see the module docs).
#[derive(Debug)]
pub struct MemorySystem {
    config: HierarchyConfig,
    protocol: ProtocolKind,
    /// Index = core id.
    cores: Vec<CoreSide>,
    l2: Cache,
    bus: Bus,
    memory: MainMemory,
    coherence: CoherenceStats,
    /// The run's trace recorder, if it is being recorded.  The hierarchy
    /// emits its line fills and writebacks into it, and the pipeline its
    /// own events through [`MemorySystem::recorder`].  `None` by
    /// default: every emission site is a single branch.  Boxed, so the
    /// field is one word in every hierarchy, recorded or not.
    recorder: Option<Box<TraceRecorder>>,
    /// Optional per-fault lifecycle log (see [`crate::forensics`]).  `None`
    /// by default: every hook is a single branch on the disabled path.
    forensics: Option<Box<ForensicsLog>>,
    /// The fault seeds riding this fault-free run, if any (see
    /// [`crate::overlay`]).  `None` by default: every access and commit
    /// pays a single branch.
    overlays: Option<Box<SeedOverlays>>,
    /// The valid DL1 lines a per-seed strike draws against.
    strike_slots: Vec<usize>,
}

impl MemorySystem {
    /// Builds an empty one-core (uniprocessor) memory system.
    ///
    /// # Panics
    ///
    /// Panics if either cache configuration is invalid.
    #[must_use]
    pub fn new(config: HierarchyConfig) -> Self {
        MemorySystem::with_cores(config, 1, ProtocolKind::Mesi)
    }

    /// Builds an empty `cores`-core hierarchy whose DL1s are kept coherent
    /// by `protocol`'s decision table.
    ///
    /// # Panics
    ///
    /// Panics if `cores == 0` or a cache configuration is invalid.
    #[must_use]
    pub fn with_cores(config: HierarchyConfig, cores: usize, protocol: ProtocolKind) -> Self {
        assert!(cores >= 1, "a memory system needs at least one core");
        MemorySystem {
            protocol,
            cores: (0..cores)
                .map(|_| {
                    let mut dl1 = Cache::new(config.dl1);
                    dl1.set_protocol(protocol);
                    CoreSide {
                        dl1,
                        stats: MemStats::new(),
                        unrecoverable_errors: 0,
                        recovered_by_refetch: 0,
                    }
                })
                .collect(),
            l2: Cache::new(config.l2),
            bus: Bus::new(config.bus_latency),
            memory: MainMemory::new(config.memory_latency),
            coherence: CoherenceStats::default(),
            recorder: None,
            forensics: None,
            overlays: None,
            strike_slots: Vec::new(),
            config,
        }
    }

    /// Zeroes every traffic counter — each core's, its DL1's, the L2's
    /// and the coherence counters — and keeps the caches' contents, e.g.
    /// after a warm-up phase.
    pub fn reset_stats(&mut self) {
        for side in &mut self.cores {
            side.stats = MemStats::new();
            side.dl1.reset_stats();
        }
        self.l2.reset_stats();
        self.coherence = CoherenceStats::default();
    }

    /// Number of cores (private DL1s).
    #[must_use]
    pub fn cores(&self) -> usize {
        self.cores.len()
    }

    /// Turns on fault forensics: every injected fault gets a lifecycle
    /// record (strike → latent residency → first activation → outcome),
    /// stamped with simulation cycles.  Enabling forensics changes no
    /// architectural or timing behaviour — only observation.
    pub fn enable_forensics(&mut self) {
        if self.forensics.is_none() {
            self.forensics = Some(Box::default());
        }
        for side in &mut self.cores {
            side.dl1.enable_journal();
        }
    }

    /// Closes all still-latent fault records and takes the cell's forensics,
    /// or `None` when forensics was never enabled.  Call after
    /// [`MemorySystem::drain`] so end-of-run flush activations are included.
    pub fn take_forensics(&mut self) -> Option<CellForensics> {
        self.forensics_drain_journal();
        self.forensics.as_deref_mut().map(ForensicsLog::finish)
    }

    fn forensics_tick(&mut self, now: u64) {
        if let Some(log) = self.forensics.as_deref_mut() {
            log.tick(now);
        }
    }

    /// Moves journalled cache events (strikes, metadata consequences) into
    /// the forensics log.  Called after every access and injection so event
    /// activation cycles equal the triggering access's memory clock.
    fn forensics_drain_journal(&mut self) {
        if let Some(log) = self.forensics.as_deref_mut() {
            for side in &mut self.cores {
                for event in side.dl1.drain_journal() {
                    log.apply(event);
                }
            }
        }
    }

    /// Classifies pending data faults at `address` against the decode a load
    /// observed (first-activation-wins).
    fn forensics_read(&mut self, address: u32, value: u32, outcome: Outcome) {
        if let Some(log) = self.forensics.as_deref_mut() {
            if log.pending_at(address) {
                log.activate_data(
                    address,
                    ActivationKind::Read,
                    DataObservation {
                        value,
                        uncorrectable: outcome.is_uncorrectable(),
                        corrected: outcome.is_corrected(),
                        kept_mask: 0xF,
                    },
                );
            }
        }
    }

    /// Classifies pending data faults a store is about to merge into, using
    /// a non-destructive probe of the word *before* the write re-encodes it.
    /// Bytes the store overwrites cannot carry SDC; a full-word overwrite
    /// masks the fault outright.
    fn forensics_store_probe(&mut self, core: usize, address: u32, byte_mask: u8) {
        let Some(log) = self.forensics.as_deref_mut() else {
            return;
        };
        if !log.pending_at(address) {
            return;
        }
        let Some((value, outcome)) = self.cores[core].dl1.probe_decoded(address) else {
            // Not resident: the store miss path (allocate or forward) never
            // touches the struck copy; the fill hook settles the record.
            return;
        };
        let kept_mask = !byte_mask & 0xF;
        let observation = if kept_mask == 0 {
            DataObservation {
                value,
                uncorrectable: false,
                corrected: false,
                kept_mask: 0,
            }
        } else {
            DataObservation {
                value,
                uncorrectable: outcome.is_uncorrectable(),
                corrected: outcome.is_corrected(),
                kept_mask,
            }
        };
        log.activate_data(address, ActivationKind::Write, observation);
    }

    /// Settles pending data faults a DL1 fill is about to displace: faults in
    /// a dirty victim activate on the writeback drain (probed *before* the
    /// eviction decodes and discards the line); faults in a clean victim
    /// evaporate; stale records inside the filled line's range (their struck
    /// incarnation left the cache clean earlier) are masked by the fresh
    /// data.
    fn forensics_evict_probe(&mut self, core: usize, address: u32) {
        let line_bytes = self.config.dl1.line_bytes;
        let dl1 = &self.cores[core].dl1;
        let fill_base = dl1.line_base(address);
        let Some(log) = self.forensics.as_deref_mut() else {
            return;
        };
        if !log.has_pending_data() {
            return;
        }
        if let Some(victim_base) = dl1.victim_probe(address) {
            let dirty = dl1.coherence_state(victim_base).is_dirty();
            for pending_address in log.pending_in_line(victim_base, line_bytes) {
                if !dirty {
                    log.evaporate_data(pending_address);
                    continue;
                }
                if let Some((value, outcome)) = dl1.probe_decoded(pending_address) {
                    log.activate_data(
                        pending_address,
                        ActivationKind::WritebackDrain,
                        DataObservation {
                            value,
                            uncorrectable: outcome.is_uncorrectable(),
                            corrected: outcome.is_corrected(),
                            kept_mask: 0xF,
                        },
                    );
                }
            }
        }
        for pending_address in log.pending_in_line(fill_base, line_bytes) {
            log.evaporate_data(pending_address);
        }
    }

    /// Classifies pending data faults in dirty lines the end-of-run flush is
    /// about to drain.  Faults in clean or non-resident locations stay
    /// latent and close as masked when the log finishes.
    fn forensics_flush_probe(&mut self, core: usize) {
        let Some(log) = self.forensics.as_deref_mut() else {
            return;
        };
        let dl1 = &self.cores[core].dl1;
        for pending_address in log.pending_data_addresses() {
            if !dl1.coherence_state(pending_address).is_dirty() {
                continue;
            }
            if let Some((value, outcome)) = dl1.probe_decoded(pending_address) {
                log.activate_data(
                    pending_address,
                    ActivationKind::WritebackDrain,
                    DataObservation {
                        value,
                        uncorrectable: outcome.is_uncorrectable(),
                        corrected: outcome.is_corrected(),
                        kept_mask: 0xF,
                    },
                );
            }
        }
    }

    /// Attaches a set of seed overlays striking core 0's DL1, which this
    /// hierarchy then carries for the run: every access, fill, drain and
    /// commit of core 0 updates them, and another core's access to a line
    /// where a seed holds live words escapes that seed (see
    /// [`crate::overlay`]).  The hierarchy itself stays fault-free.
    pub fn attach_overlays(&mut self, mut overlays: SeedOverlays) {
        overlays.fit_lines(self.config.dl1.line_bytes);
        self.overlays = Some(Box::new(overlays));
    }

    /// Detaches and returns the seed overlays, if any were attached, with
    /// their checksum deltas settled against the memory image as it
    /// stands: take them after every core's [`MemorySystem::drain`].
    pub fn take_overlays(&mut self) -> Option<SeedOverlays> {
        let mut overlays = *self.overlays.take()?;
        overlays.settle(&self.memory);
        Some(overlays)
    }

    /// Offers the seed overlays the injection opportunities of `count`
    /// instructions `core` committed in a row, exactly as `count` single
    /// commits would; only core 0's commits count.  A no-op without
    /// overlays.
    #[inline]
    pub fn commit_overlays(&mut self, core: usize, count: u64) {
        if let Some(overlays) = self.overlays.as_deref_mut() {
            overlays.commit(core, count, &self.cores[core].dl1);
        }
    }

    /// Attaches a trace recorder, which this hierarchy then owns for the
    /// run: it emits line fills and writebacks into it (kept at full
    /// detail), and its pipelines emit through [`MemorySystem::recorder`].
    pub fn attach_recorder(&mut self, recorder: TraceRecorder) {
        self.recorder = Some(Box::new(recorder));
    }

    /// Detaches and returns the trace recorder, if one was attached.
    pub fn take_recorder(&mut self) -> Option<TraceRecorder> {
        self.recorder.take().map(|recorder| *recorder)
    }

    /// The attached trace recorder, if any: the pipeline emits its fetch,
    /// access, stall and commit events through it.
    #[inline]
    pub fn recorder(&mut self) -> Option<&mut TraceRecorder> {
        self.recorder.as_deref_mut()
    }

    /// The hierarchy configuration.
    #[must_use]
    pub fn config(&self) -> &HierarchyConfig {
        &self.config
    }

    /// Installs bus interference standing in for off-model cores' traffic.
    pub fn set_bus_interference(&mut self, interference: Interference) {
        self.bus.set_interference(interference);
    }

    /// Pre-sizes main memory for a data image of about `words` words.
    pub fn reserve_memory(&mut self, words: usize) {
        self.memory.reserve(words);
    }

    /// Pre-loads a word into main memory (program data image).
    pub fn preload_word(&mut self, address: u32, value: u32) {
        self.memory.poke_word(address, value);
    }

    /// Reads a word from main memory without touching caches or counters
    /// (for checking final results).
    #[must_use]
    pub fn peek_memory(&self, address: u32) -> u32 {
        self.memory.peek_word(address)
    }

    /// Reads the architecturally current value of the aligned word at
    /// `address` — any dirty DL1 copy (`M`/`Sm`/`O`) first, then any DL1
    /// copy, then the L2, then memory — without updating any statistics or
    /// timing state.  Used by result-checking code.
    #[must_use]
    pub fn peek_coherent(&self, address: u32) -> u32 {
        let dirty = self
            .cores
            .iter()
            .filter(|side| side.dl1.coherence_state(address).is_dirty());
        for side in dirty.chain(&self.cores) {
            if let Some(value) = side.dl1.peek_word(address) {
                return value;
            }
        }
        if let Some(value) = self.l2.peek_word(address) {
            return value;
        }
        self.memory.peek_word(address)
    }

    /// Performs `core`'s load of the aligned word containing `address` at
    /// cycle `now`.
    pub fn load(&mut self, core: usize, address: u32, now: u64) -> LoadResponse {
        if self.forensics.is_some() {
            self.forensics_tick(now);
        }
        let response = self.load_inner(core, address, now);
        if self.forensics.is_some() {
            self.forensics_drain_journal();
        }
        if let Some(overlays) = self.overlays.as_deref_mut() {
            overlays.load(core, &self.cores[core].dl1, address, response.value);
        }
        response
    }

    fn load_inner(&mut self, core: usize, address: u32, now: u64) -> LoadResponse {
        if let Some(hit) = self.cores[core].dl1.read_word(address) {
            if hit.outcome.is_usable() {
                if self.forensics.is_some() {
                    self.forensics_read(address, hit.value, hit.outcome);
                }
                return LoadResponse {
                    value: hit.value,
                    dl1_hit: true,
                    extra_cycles: 0,
                    outcome: hit.outcome,
                };
            }
            // The load observed the uncorrectable word: classify before the
            // recovery path invalidates and refills the line.
            if self.forensics.is_some() {
                self.forensics_read(address, hit.value, hit.outcome);
            }
            // Uncorrectable error in the DL1.  Clean lines (always the case in
            // a write-through DL1, and any unmodified line in a write-back
            // one) still have a valid copy below: invalidate and refetch.
            if !hit.dirty {
                self.cores[core].recovered_by_refetch += 1;
                self.cores[core].dl1.invalidate(address);
                let (value, extra) = self.read_refill(core, address, now);
                return LoadResponse {
                    value,
                    dl1_hit: false,
                    extra_cycles: extra,
                    outcome: hit.outcome,
                };
            }
            // A dirty write-back line holds the only copy: data is lost.
            self.cores[core].unrecoverable_errors += 1;
            return LoadResponse {
                value: hit.value,
                dl1_hit: true,
                extra_cycles: 0,
                outcome: hit.outcome,
            };
        }
        // DL1 miss: blocking refill from L2 (or memory).
        let (value, extra) = self.read_refill(core, address, now);
        LoadResponse {
            value,
            dl1_hit: false,
            extra_cycles: extra,
            outcome: Outcome::Clean,
        }
    }

    /// Fetches the line holding `address` with a plain read and installs it
    /// in the protocol's read-fill state, returning the requested word and
    /// the stall penalty.
    fn read_refill(&mut self, core: usize, address: u32, now: u64) -> (u32, u32) {
        let base = self.cores[core].dl1.line_base(address);
        let (line, extra, sharers) = self.fetch_line(core, base, now, false);
        let value = line[((address & (self.config.dl1.line_bytes - 1)) >> 2) as usize];
        let state = self.protocol.table().read_fill_state(sharers);
        self.fill_dl1(core, address, &line, now, state);
        (value, extra)
    }

    /// Performs `core`'s store of `value` (bytes selected by `byte_mask`) to
    /// the aligned word containing `address` at cycle `now`.
    pub fn store(
        &mut self,
        core: usize,
        address: u32,
        value: u32,
        byte_mask: u8,
        now: u64,
    ) -> StoreResponse {
        if self.forensics.is_some() {
            self.forensics_tick(now);
            self.forensics_store_probe(core, address, byte_mask);
        }
        if let Some(overlays) = self.overlays.as_deref_mut() {
            overlays.store(core, &self.cores[core].dl1, address, byte_mask);
        }
        let response = self.store_inner(core, address, value, byte_mask, now);
        if self.forensics.is_some() {
            self.forensics_drain_journal();
        }
        response
    }

    fn store_inner(
        &mut self,
        core: usize,
        address: u32,
        value: u32,
        byte_mask: u8,
        now: u64,
    ) -> StoreResponse {
        if self.config.dl1.write_policy == WritePolicy::WriteThrough {
            // Update the DL1 copy if present (stays clean), and always
            // propagate over the bus to the L2.
            let dl1_hit = self.cores[core]
                .dl1
                .write_word_masked(address, value, byte_mask);
            let extra = self.store_to_l2(core, address, value, byte_mask, now);
            return StoreResponse {
                dl1_hit,
                extra_cycles: extra,
            };
        }
        let mut upgrade_extra = 0;
        // The N = 1 rule: the shared-line write action needs another DL1.
        if self.cores.len() > 1 {
            let held = self.cores[core].dl1.coherence_state(address);
            match self.protocol.table().local_write_action(held) {
                LocalWriteAction::Silent => {}
                LocalWriteAction::Invalidate => {
                    // BusUpgr: broadcast the write intent before modifying.
                    // Any remote owner's copy is identical to ours (it
                    // supplied us on our fill), so the supplied words can be
                    // dropped.
                    upgrade_extra =
                        self.config.bus_latency + self.bus_transaction(core, now, false);
                    let base = self.cores[core].dl1.line_base(address);
                    self.snoop_remote(core, base, true);
                    self.coherence.upgrades += 1;
                }
                LocalWriteAction::Update => {
                    // Dragon BusUpd: merge the written bytes into every remote
                    // copy instead of invalidating it.
                    let extra = self.broadcast_update(core, address, value, byte_mask, now);
                    return StoreResponse {
                        dl1_hit: true,
                        extra_cycles: extra,
                    };
                }
            }
        }
        if self.cores[core]
            .dl1
            .write_word_masked(address, value, byte_mask)
        {
            return StoreResponse {
                dl1_hit: true,
                extra_cycles: upgrade_extra,
            };
        }
        // Write miss.
        let extra = match self.config.dl1.allocate_policy {
            AllocatePolicy::WriteAllocate if self.protocol.table().uses_update_bus() => {
                // Dragon fetches with a plain read (surviving copies move to
                // `Sc`), then broadcasts the written word into them.
                let base = self.cores[core].dl1.line_base(address);
                let (line, extra, sharers) = self.fetch_line(core, base, now, false);
                let state = self.protocol.table().read_fill_state(sharers);
                self.fill_dl1(core, address, &line, now, state);
                if sharers {
                    extra + self.broadcast_update(core, address, value, byte_mask, now)
                } else {
                    self.write_filled(core, address, value, byte_mask, LineState::Modified);
                    extra
                }
            }
            AllocatePolicy::WriteAllocate => {
                let base = self.cores[core].dl1.line_base(address);
                let (line, extra, _) = self.fetch_line(core, base, now, true);
                self.fill_dl1(core, address, &line, now, LineState::Exclusive);
                let wrote = self.cores[core]
                    .dl1
                    .write_word_masked(address, value, byte_mask);
                debug_assert!(wrote, "line was just filled");
                extra
            }
            AllocatePolicy::NoWriteAllocate => {
                self.store_to_l2(core, address, value, byte_mask, now)
            }
        };
        StoreResponse {
            dl1_hit: false,
            extra_cycles: extra,
        }
    }

    /// Writes into `core`'s resident copy of `address` and sets its state.
    fn write_filled(
        &mut self,
        core: usize,
        address: u32,
        value: u32,
        byte_mask: u8,
        state: LineState,
    ) {
        let dl1 = &mut self.cores[core].dl1;
        let wrote = dl1.write_word_masked(address, value, byte_mask);
        debug_assert!(wrote, "the line is resident");
        dl1.set_coherence_state(address, state);
    }

    /// Arbitrates for the bus on `core`'s behalf — one transaction, a
    /// round trip or a one-way (posted) transfer — and returns the
    /// arbitration wait in cycles.
    fn bus_transaction(&mut self, core: usize, now: u64, round_trip: bool) -> u32 {
        let grant = if round_trip {
            self.bus.round_trip(now)
        } else {
            self.bus.one_way(now)
        };
        let stats = &mut self.cores[core].stats;
        stats.bus_transactions += 1;
        stats.bus_wait_cycles += grant.wait_cycles;
        u32::try_from(grant.wait_cycles).unwrap_or(u32::MAX)
    }

    /// Snoops every DL1 except `core`'s for the line at `base` — a remote
    /// read (`exclusive == false`) or a write intent.  A dirty owner
    /// supplies the line: under MESI the supplied words are reflected into
    /// the L2, so the requester's refill reads fresh data; under
    /// Dragon/MOESI the owner keeps the writeback obligation and the words
    /// travel cache-to-cache only (returned to the caller; the L2 and memory
    /// stay stale).  Returns whether any remote copy survives, and the
    /// directly-supplied line if any.
    fn snoop_remote(
        &mut self,
        core: usize,
        base: u32,
        exclusive: bool,
    ) -> (bool, Option<LineWords>) {
        let mut sharers = false;
        let mut supplied_direct = None;
        for other in 0..self.cores.len() {
            if other == core {
                continue;
            }
            self.cores[core].stats.snoop_lookups += 1;
            self.coherence.snoop_lookups += 1;
            let result = self.cores[other].dl1.snoop(base, exclusive);
            if !result.had_line {
                continue;
            }
            if let Some(words) = result.supplied {
                if self.protocol.table().supplies_through_l2() {
                    // Cache-to-cache intervention: the dirty owner refreshes
                    // the L2 on the same bus transaction (no extra
                    // arbitration).
                    self.write_line_into_l2(core, base, &words);
                } else {
                    supplied_direct = Some(words);
                }
                self.cores[core].stats.interventions += 1;
                self.coherence.interventions += 1;
            }
            if exclusive {
                self.cores[core].stats.invalidations_sent += 1;
                self.cores[other].stats.invalidations_received += 1;
                self.coherence.invalidations += 1;
            } else {
                sharers = true;
            }
        }
        (sharers, supplied_direct)
    }

    /// Broadcasts a Dragon bus update (BusUpd) for `core`'s write to its
    /// resident copy of `address`: one bus grant, then every remote copy
    /// merges the written bytes in place and moves to `SharedClean`.  The
    /// writer performs the write and holds `SharedModified` while copies
    /// remain (`Modified` otherwise).  Returns the stall cost.
    fn broadcast_update(
        &mut self,
        core: usize,
        address: u32,
        value: u32,
        byte_mask: u8,
        now: u64,
    ) -> u32 {
        let cost = self.config.bus_latency + self.bus_transaction(core, now, false);
        let mut sharers = false;
        for other in 0..self.cores.len() {
            if other == core {
                continue;
            }
            self.cores[core].stats.snoop_lookups += 1;
            self.coherence.snoop_lookups += 1;
            if self.cores[other]
                .dl1
                .apply_update(address, value, byte_mask, LineState::SharedClean)
            {
                sharers = true;
                self.cores[core].stats.bus_updates_sent += 1;
                self.coherence.bus_updates += 1;
            }
        }
        let state = if sharers {
            LineState::SharedModified
        } else {
            LineState::Modified
        };
        self.write_filled(core, address, value, byte_mask, state);
        cost
    }

    /// Fetches a whole DL1 line for `core` from the L2 (refilling the L2 from
    /// memory if needed) after snooping the other DL1s, returning the line
    /// data, the stall penalty and whether remote copies remain.
    fn fetch_line(
        &mut self,
        core: usize,
        base: u32,
        now: u64,
        exclusive: bool,
    ) -> (LineWords, u32, bool) {
        let words = self.config.dl1.words_per_line();
        let mut extra = 2 * self.config.bus_latency + self.config.l2_latency;
        extra += self.bus_transaction(core, now, true);

        let (sharers, supplied) = self.snoop_remote(core, base, exclusive);
        if let Some(line) = supplied {
            // Dragon/MOESI cache-to-cache supply: the owner's copy travels
            // directly on this transaction; the L2 and memory stay stale
            // until the owner writes back.  No memory latency is paid.
            return (line, extra, sharers);
        }

        if !self.l2.probe(base) {
            // L2 miss: refill the L2 line from main memory first.
            extra += self.config.memory_latency;
            if let Some(recorder) = &mut self.recorder {
                recorder.record_line_fill(MemLevel::L2, self.l2.line_base(base));
            }
            self.allocate_l2(core, base);
        }

        let line = self.l2.read_line_words(base, words).unwrap_or_else(|| {
            // The DL1 line straddles an L2 line boundary only if the DL1
            // line is larger than the L2 line, which the configurations
            // forbid; fall back to per-word reads defensively.
            (0..words)
                .map(|i| {
                    let word_address = base + 4 * i;
                    match self.l2.read_word(word_address) {
                        Some(hit) => hit.value,
                        None => {
                            self.cores[core].stats.memory_accesses += 1;
                            self.memory.read_word(word_address)
                        }
                    }
                })
                .collect()
        });
        (line, extra, sharers)
    }

    /// Installs a fetched line in `core`'s DL1 in `state`, writing back any
    /// dirty victim to the L2 (posted, so it does not add to the requesting
    /// access's latency).
    fn fill_dl1(&mut self, core: usize, address: u32, line: &[u32], now: u64, state: LineState) {
        if self.forensics.is_some() {
            self.forensics_evict_probe(core, address);
        }
        if let Some(overlays) = self.overlays.as_deref_mut() {
            overlays.evict(core, &self.cores[core].dl1, address);
        }
        if let Some(recorder) = &mut self.recorder {
            recorder.record_line_fill(MemLevel::Dl1, self.cores[core].dl1.line_base(address));
        }
        if let Some(evicted) = self.cores[core].dl1.fill(address, line) {
            if evicted.dirty {
                self.writeback_to_l2(core, &evicted, now);
            }
        }
        if state != LineState::Exclusive {
            // `Cache::fill` installs Exclusive; downgrade when remote copies
            // survive.
            self.cores[core].dl1.set_coherence_state(address, state);
        }
    }

    fn writeback_to_l2(&mut self, core: usize, evicted: &EvictedLine, now: u64) {
        if let Some(recorder) = &mut self.recorder {
            recorder.record_writeback(MemLevel::Dl1, evicted.base_address);
        }
        self.bus_transaction(core, now, false);
        self.write_line_into_l2(core, evicted.base_address, &evicted.words);
    }

    /// Writes a DL1 line into the L2, allocating the enclosing L2 line first
    /// if needed (inclusive-style allocate).
    fn write_line_into_l2(&mut self, core: usize, base: u32, words: &[u32]) {
        if !self.l2.probe(base) {
            self.allocate_l2(core, base);
        }
        for (i, &word) in words.iter().enumerate() {
            self.l2.write_word(base + 4 * i as u32, word);
        }
    }

    /// Reads the L2 line holding `address` from main memory into the L2 on
    /// `core`'s behalf, writing back a dirty L2 victim.
    fn allocate_l2(&mut self, core: usize, address: u32) {
        self.cores[core].stats.memory_accesses += 1;
        let l2_base = self.l2.line_base(address);
        let line = self
            .memory
            .read_line(l2_base, self.config.l2.words_per_line());
        if let Some(victim) = self.l2.fill(l2_base, &line) {
            if victim.dirty {
                self.memory.write_line(victim.base_address, &victim.words);
            }
        }
    }

    /// Propagates a write-through / no-allocate store to the L2, returning
    /// the occupancy cost in cycles.  The write intent invalidates remote
    /// copies under every protocol (the SMP platforms are write-back, so
    /// only one-core configurations reach this path in practice).
    fn store_to_l2(
        &mut self,
        core: usize,
        address: u32,
        value: u32,
        byte_mask: u8,
        now: u64,
    ) -> u32 {
        let wait = self.bus_transaction(core, now, false);
        let base = self.cores[core].dl1.line_base(address);
        self.snoop_remote(core, base, true);
        let mut extra = self.config.bus_latency + self.config.l2_latency;
        extra += wait;
        if !self.l2.write_word_masked(address, value, byte_mask) {
            // L2 write miss: allocate (the L2 is write-back/write-allocate).
            extra += self.config.memory_latency;
            self.allocate_l2(core, address);
            let wrote = self.l2.write_word_masked(address, value, byte_mask);
            debug_assert!(wrote, "L2 line was just filled");
        }
        extra
    }

    /// Flushes `core`'s dirty DL1 lines into the L2, then the L2 into memory,
    /// so the memory image holds the final architectural values, and returns
    /// that image's checksum.
    pub fn drain(&mut self, core: usize) -> u64 {
        if self.forensics.is_some() {
            self.forensics_flush_probe(core);
        }
        if let Some(overlays) = self.overlays.as_deref_mut() {
            overlays.drain(core, &self.cores[core].dl1);
        }
        // Line by line: the DL1 and the L2 flush independently of each
        // other's state, so interleaving the writebacks changes nothing.
        let mut cursor = 0;
        while let Some(line) = self.cores[core].dl1.flush_next_dirty(&mut cursor) {
            self.writeback_to_l2(core, &line, 0);
        }
        let mut cursor = 0;
        while let Some(line) = self.l2.flush_next_dirty(&mut cursor) {
            if let Some(recorder) = &mut self.recorder {
                recorder.record_writeback(MemLevel::L2, line.base_address);
            }
            self.memory.write_line(line.base_address, &line.words);
        }
        if self.forensics.is_some() {
            self.forensics_drain_journal();
        }
        self.memory.checksum()
    }

    /// Injects a bit-flip plan into `core`'s DL1 word at `address`, if
    /// resident.
    pub fn inject_dl1_fault_at(&mut self, core: usize, address: u32, plan: &FlipPlan) -> bool {
        let struck = self.cores[core].dl1.inject_fault(address, plan);
        if self.forensics.is_some() {
            self.forensics_drain_journal();
        }
        struck
    }

    /// Injects a random fault into `core`'s DL1 following the campaign's
    /// target and strike pattern, returning the struck address (or `None`
    /// if the DL1 holds nothing to strike).  Data strikes hit a random
    /// resident word's data/check bits; metadata strikes (see
    /// [`FaultTarget`]) flip a coherence-state bit or tag bit of a random
    /// resident line.
    pub fn inject_random_dl1_fault(
        &mut self,
        core: usize,
        injector: &mut ErrorInjector,
        config: &FaultCampaignConfig,
    ) -> Option<u32> {
        // Each arm takes its own snapshot: hoisted above the match, it
        // measured ~8 % slower on a forensic smoke grid striking every 7
        // commits (release build).
        let dl1 = &mut self.cores[core].dl1;
        let struck = match config.target {
            FaultTarget::Data => {
                dl1.valid_slots(&mut self.strike_slots);
                let strike = draw_data_strike(dl1, &self.strike_slots, injector, config);
                strike.map(|(address, plan)| {
                    dl1.inject_fault(address, &plan);
                    address
                })
            }
            FaultTarget::State | FaultTarget::Tag => {
                dl1.valid_slots(&mut self.strike_slots);
                dl1.inject_meta_fault(&self.strike_slots, injector, config.target)
            }
        };
        if self.forensics.is_some() {
            self.forensics_drain_journal();
        }
        struck
    }

    /// `core`'s accumulated statistics (its DL1, the shared L2, and the bus,
    /// memory and coherence traffic it caused).
    #[must_use]
    pub fn core_stats(&self, core: usize) -> MemStats {
        let side = &self.cores[core];
        let mut stats = side.stats;
        stats.dl1 = *side.dl1.stats();
        stats.l2 = *self.l2.stats();
        stats
    }

    /// Uncorrectable errors in `core`'s DL1 that hit dirty data
    /// (unrecoverable).
    #[must_use]
    pub fn core_unrecoverable_errors(&self, core: usize) -> u64 {
        self.cores[core].unrecoverable_errors
    }

    /// Uncorrectable errors in `core`'s DL1 recovered by refetching from
    /// the L2.
    #[must_use]
    pub fn core_recovered_by_refetch(&self, core: usize) -> u64 {
        self.cores[core].recovered_by_refetch
    }

    /// System-wide coherence counters.
    #[must_use]
    pub fn coherence_stats(&self) -> CoherenceStats {
        self.coherence
    }

    /// `core`'s DL1 (inspection in tests / campaigns).
    #[must_use]
    pub fn dl1(&self, core: usize) -> &Cache {
        &self.cores[core].dl1
    }

    /// The shared L2.
    #[must_use]
    pub fn l2(&self) -> &Cache {
        &self.l2
    }

    /// Total bus transactions issued so far.
    #[must_use]
    pub fn bus_transactions(&self) -> u64 {
        self.bus.transactions()
    }

    /// The checksum of the main-memory image as it stands (call after every
    /// core drained for the final state).
    #[must_use]
    pub fn memory_checksum(&self) -> u64 {
        self.memory.checksum()
    }
}

/// Draws a data strike against `dl1`, whose valid lines `slots` holds
/// ([`Cache::valid_slots`]), without applying it: a random resident word
/// — counting lines in set-major order and the words of a line in address
/// order — and the flips the campaign's strike pattern lands on it, or
/// `None` when the DL1 holds nothing to strike.  Injection into the cache
/// ([`MemorySystem::inject_random_dl1_fault`]) and the seed overlays both
/// draw through it, so they make the same random draws.
pub(crate) fn draw_data_strike(
    dl1: &Cache,
    slots: &[usize],
    injector: &mut ErrorInjector,
    config: &FaultCampaignConfig,
) -> Option<(u32, FlipPlan)> {
    let words = u64::from(dl1.config().words_per_line());
    let resident = slots.len() as u64 * words;
    let k = (resident > 0).then(|| injector.next_below(resident))?;
    let address = dl1.slot_word_address(slots[(k / words) as usize], k % words);
    let check_bits = dl1.config().protection.check_bits();
    let plan = match config.pattern {
        FaultPattern::SingleBit => {
            injector.random_event(32, check_bits.max(1), config.double_fraction)
        }
        FaultPattern::Adjacent2 | FaultPattern::Adjacent4 => {
            injector.random_adjacent(32, config.pattern.cluster_bits())
        }
    };
    Some((address, plan))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CacheConfig;
    use laec_ecc::CodeKind;

    fn wb_system() -> MemorySystem {
        MemorySystem::new(HierarchyConfig::ngmp_write_back())
    }

    fn wt_system() -> MemorySystem {
        MemorySystem::new(HierarchyConfig::ngmp_write_through())
    }

    #[test]
    fn cold_load_misses_then_hits() {
        let mut system = wb_system();
        system.preload_word(0x1000, 0xAABB_CCDD);
        let miss = system.load(0, 0x1000, 0);
        assert!(!miss.dl1_hit);
        assert_eq!(miss.value, 0xAABB_CCDD);
        assert_eq!(miss.extra_cycles, system.config().memory_penalty());
        let hit = system.load(0, 0x1000, 100);
        assert!(hit.dl1_hit);
        assert_eq!(hit.extra_cycles, 0);
        assert_eq!(hit.value, 0xAABB_CCDD);
        // Second access to the same line, different word: spatial locality.
        let hit = system.load(0, 0x1004, 101);
        assert!(hit.dl1_hit);
    }

    #[test]
    fn l2_hit_is_cheaper_than_memory() {
        let mut system = wb_system();
        system.preload_word(0x2000, 7);
        let first = system.load(0, 0x2000, 0);
        assert_eq!(first.extra_cycles, system.config().memory_penalty());
        // Evict the DL1 line by touching enough conflicting lines (DL1 has
        // 128 sets * 32 B = 4 KB per way; 4 ways -> 5 conflicting lines).
        for i in 1..=4 {
            system.load(0, 0x2000 + i * 4096, 10 * u64::from(i));
        }
        assert!(!system.dl1(0).probe(0x2000));
        let refetch = system.load(0, 0x2000, 1000);
        assert!(!refetch.dl1_hit);
        assert_eq!(refetch.value, 7);
        assert_eq!(refetch.extra_cycles, system.config().l2_hit_penalty());
    }

    #[test]
    fn write_back_store_hits_are_local_and_dirty() {
        let mut system = wb_system();
        system.preload_word(0x3000, 1);
        system.load(0, 0x3000, 0);
        let bus_before = system.bus_transactions();
        let response = system.store(0, 0x3000, 99, 0xF, 10);
        assert!(response.dl1_hit);
        assert_eq!(response.extra_cycles, 0);
        assert_eq!(
            system.bus_transactions(),
            bus_before,
            "WB store hit stays on-core"
        );
        assert_eq!(system.dl1(0).dirty_lines(), 1);
        assert_eq!(system.load(0, 0x3000, 20).value, 99);
    }

    #[test]
    fn write_back_store_miss_allocates() {
        let mut system = wb_system();
        let response = system.store(0, 0x4000, 5, 0xF, 0);
        assert!(!response.dl1_hit);
        assert!(response.extra_cycles >= system.config().l2_hit_penalty());
        assert!(system.dl1(0).probe(0x4000));
        assert_eq!(system.load(0, 0x4000, 50).value, 5);
    }

    #[test]
    fn write_through_store_always_uses_the_bus() {
        let mut system = wt_system();
        system.preload_word(0x5000, 0);
        system.load(0, 0x5000, 0);
        let bus_before = system.bus_transactions();
        let response = system.store(0, 0x5000, 42, 0xF, 10);
        assert!(response.dl1_hit, "the DL1 copy is updated");
        assert!(
            response.extra_cycles > 0,
            "and the store still travels to the L2"
        );
        assert_eq!(system.bus_transactions(), bus_before + 1);
        assert_eq!(system.dl1(0).dirty_lines(), 0, "WT lines are never dirty");
        // The L2 received the store.
        assert!(system.l2().probe(0x5000));
    }

    #[test]
    fn wt_traffic_exceeds_wb_traffic_for_store_loops() {
        let mut wb = wb_system();
        let mut wt = wt_system();
        for i in 0..64u32 {
            let address = 0x6000 + 4 * (i % 16);
            wb.store(0, address, i, 0xF, u64::from(i));
            wt.store(0, address, i, 0xF, u64::from(i));
        }
        assert!(
            wt.bus_transactions() > 4 * wb.bus_transactions(),
            "every WT store crosses the bus ({} vs {})",
            wt.bus_transactions(),
            wb.bus_transactions()
        );
    }

    #[test]
    fn dirty_eviction_writes_back_and_preserves_data() {
        let mut system = wb_system();
        system.store(0, 0x7000, 0xDEAD, 0xF, 0);
        // Evict by filling the set with conflicting lines.
        for i in 1..=4u32 {
            system.load(0, 0x7000 + i * 4096, u64::from(i) * 10);
        }
        assert!(!system.dl1(0).probe(0x7000));
        // The dirty value survived in the L2.
        assert_eq!(system.load(0, 0x7000, 1000).value, 0xDEAD);
    }

    #[test]
    fn sub_word_stores_merge() {
        let mut system = wb_system();
        system.preload_word(0x8000, 0x1122_3344);
        system.load(0, 0x8000, 0);
        system.store(0, 0x8000, 0x0000_00FF, 0b0001, 1);
        assert_eq!(system.load(0, 0x8000, 2).value, 0x1122_33FF);
        system.store(0, 0x8000, 0xAA00_0000, 0b1000, 3);
        assert_eq!(system.load(0, 0x8000, 4).value, 0xAA22_33FF);
    }

    #[test]
    fn drain_to_memory_reaches_main_memory() {
        let mut system = wb_system();
        system.store(0, 0x9000, 77, 0xF, 0);
        assert_eq!(system.peek_memory(0x9000), 0, "still only in the DL1");
        let checksum = system.drain(0);
        assert_eq!(system.peek_memory(0x9000), 77);
        assert_ne!(checksum, MainMemory::new(0).checksum());
    }

    #[test]
    fn peek_coherent_sees_newest_copy_without_stats_noise() {
        let mut system = wb_system();
        system.preload_word(0xA000, 5);
        assert_eq!(system.peek_coherent(0xA000), 5);
        system.store(0, 0xA000, 6, 0xF, 0);
        let stats_before = system.core_stats(0);
        assert_eq!(system.peek_coherent(0xA000), 6);
        let stats_after = system.core_stats(0);
        assert_eq!(stats_before.dl1.read_hits, stats_after.dl1.read_hits);
    }

    #[test]
    fn injected_single_fault_in_wb_dl1_is_corrected() {
        let mut system = wb_system();
        system.preload_word(0xB000, 0x1234_5678);
        system.load(0, 0xB000, 0);
        assert!(system.inject_dl1_fault_at(0, 0xB000, &FlipPlan::single_data(7)));
        let hit = system.load(0, 0xB000, 10);
        assert_eq!(hit.value, 0x1234_5678);
        assert!(hit.outcome.is_error() && hit.outcome.is_usable());
        assert_eq!(system.core_unrecoverable_errors(0), 0);
    }

    #[test]
    fn double_fault_on_dirty_wb_data_is_unrecoverable() {
        let mut system = wb_system();
        system.store(0, 0xC000, 1, 0xF, 0);
        assert!(system.inject_dl1_fault_at(0, 0xC000, &FlipPlan::double_data(0, 1)));
        let hit = system.load(0, 0xC000, 10);
        assert!(hit.outcome.is_uncorrectable());
        assert_eq!(system.core_unrecoverable_errors(0), 1);
    }

    #[test]
    fn parity_error_in_wt_dl1_recovers_from_l2() {
        let mut system = wt_system();
        system.preload_word(0xD000, 0xFEED);
        system.load(0, 0xD000, 0);
        // Parity detects but cannot correct; the WT DL1 refetches from L2.
        assert!(system.inject_dl1_fault_at(0, 0xD000, &FlipPlan::single_data(3)));
        let reload = system.load(0, 0xD000, 10);
        assert_eq!(reload.value, 0xFEED, "clean copy restored from the L2");
        assert!(!reload.dl1_hit);
        assert!(reload.extra_cycles > 0, "recovery costs a refetch");
        assert_eq!(system.core_recovered_by_refetch(0), 1);
        assert_eq!(system.core_unrecoverable_errors(0), 0);
        // And the refetched line is clean again.
        assert_eq!(system.load(0, 0xD000, 20).outcome, Outcome::Clean);
    }

    #[test]
    fn random_fault_injection_targets_resident_words() {
        let mut system = wb_system();
        let mut injector = ErrorInjector::new(1);
        let config = FaultCampaignConfig::single_bit(1, 1);
        assert!(system
            .inject_random_dl1_fault(0, &mut injector, &config)
            .is_none());
        system.load(0, 0xE000, 0);
        let address = system
            .inject_random_dl1_fault(0, &mut injector, &config)
            .expect("a resident word exists");
        assert_eq!(
            address & !31,
            0xE000 & !31,
            "strike lands in the resident line"
        );
    }

    #[test]
    fn adjacent_mbu2_on_clean_secded_line_recovers_by_refetch() {
        // A 2-adjacent MBU defeats SEC-DED *correction* (detected double),
        // but the struck line is clean, so the hierarchy invalidates and
        // refetches it — data survives at a latency cost.
        let mut system = wb_system();
        system.preload_word(0xE100, 0x0BAD_F00D);
        system.load(0, 0xE100, 0);
        let mut injector = ErrorInjector::new(7);
        let config = FaultCampaignConfig::with_pattern(7, 1, FaultPattern::Adjacent2);
        for round in 0..20u64 {
            let struck = system
                .inject_random_dl1_fault(0, &mut injector, &config)
                .expect("line is resident");
            let read = system.load(0, struck, 10 * (round + 1));
            assert!(read.outcome.is_uncorrectable(), "double must be detected");
            if struck == 0xE100 {
                assert_eq!(read.value, 0x0BAD_F00D, "refetch restores the data");
            }
        }
        assert_eq!(system.core_recovered_by_refetch(0), 20);
        assert_eq!(system.core_unrecoverable_errors(0), 0);
    }

    #[test]
    fn adjacent_mbu2_on_dirty_secded_line_is_unrecoverable() {
        let mut system = wb_system();
        system.store(0, 0xE200, 0xFACE, 0xF, 0);
        let mut injector = ErrorInjector::new(9);
        let config = FaultCampaignConfig::with_pattern(9, 1, FaultPattern::Adjacent2);
        // The DL1 holds exactly one (dirty) line, so the strike hits it.
        system
            .inject_random_dl1_fault(0, &mut injector, &config)
            .expect("line is resident");
        // The strike may land in any of the line's words; read them all.
        for i in 0..8u32 {
            let _ = system.load(0, (0xE200 & !31) + 4 * i, 100 + u64::from(i));
        }
        assert_eq!(system.core_unrecoverable_errors(0), 1, "dirty data is lost");
    }

    #[test]
    fn unprotected_dl1_lets_faults_through_silently() {
        let mut config = HierarchyConfig::ngmp_write_back();
        config.dl1 = CacheConfig {
            protection: CodeKind::None,
            ..config.dl1
        };
        let mut system = MemorySystem::new(config);
        system.preload_word(0xF000, 100);
        system.load(0, 0xF000, 0);
        system.inject_dl1_fault_at(0, 0xF000, &FlipPlan::single_data(0));
        let hit = system.load(0, 0xF000, 10);
        assert_eq!(hit.outcome, Outcome::Clean, "no code, no detection");
        assert_eq!(hit.value, 101, "silent corruption");
    }

    #[test]
    fn dl1_lines_wider_than_l2_lines_refill_through_the_fallback_path() {
        // A DL1 line that straddles two L2 lines cannot use the batched
        // L2 line read; the refill must fall back to per-word reads (with
        // memory backfill) instead of indexing past the L2 line.
        let mut config = HierarchyConfig::ngmp_write_back();
        config.dl1.line_bytes = 64;
        config.l2.line_bytes = 32;
        let mut system = MemorySystem::new(config);
        for i in 0..16u32 {
            system.preload_word(0x4000 + 4 * i, 100 + i);
        }
        let response = system.load(0, 0x4020, 0);
        assert!(!response.dl1_hit);
        assert_eq!(response.value, 108, "word 8 of the 64 B DL1 line");
        for i in 0..16u32 {
            assert_eq!(
                system.load(0, 0x4000 + 4 * i, 10 + u64::from(i)).value,
                100 + i
            );
        }
    }

    #[test]
    fn bus_interference_inflates_miss_latency() {
        let mut quiet = wb_system();
        let mut noisy = wb_system();
        noisy.set_bus_interference(Interference::every_request(8));
        quiet.preload_word(0x1_0000, 1);
        noisy.preload_word(0x1_0000, 1);
        let q = quiet.load(0, 0x1_0000, 0);
        let n = noisy.load(0, 0x1_0000, 0);
        assert_eq!(n.extra_cycles, q.extra_cycles + 8);
    }

    #[test]
    fn shared_line_writes_broadcast_only_when_another_dl1_exists() {
        // On one core a `Shared` line can only come from a state-bit
        // strike; with no copy to invalidate, the store stays on-core.
        let mut one = wb_system();
        one.load(0, 0x3000, 0);
        one.cores[0]
            .dl1
            .set_coherence_state(0x3000, LineState::Shared);
        let bus_before = one.bus_transactions();
        assert_eq!(one.store(0, 0x3000, 1, 0xF, 10).extra_cycles, 0);
        assert_eq!(one.bus_transactions(), bus_before);
        assert_eq!(one.coherence_stats(), CoherenceStats::default());

        // The same store on a two-core system broadcasts the upgrade.
        let config = HierarchyConfig::ngmp_write_back();
        let mut two = MemorySystem::with_cores(config, 2, ProtocolKind::Mesi);
        two.load(0, 0x3000, 0);
        two.cores[0]
            .dl1
            .set_coherence_state(0x3000, LineState::Shared);
        let bus_before = two.bus_transactions();
        let response = two.store(0, 0x3000, 1, 0xF, 10);
        assert_eq!(response.extra_cycles, config.bus_latency);
        assert_eq!(two.bus_transactions(), bus_before + 1);
        assert_eq!(two.coherence_stats().upgrades, 1);
        // The refill and the upgrade each probed core 1's DL1.
        assert_eq!(two.coherence_stats().snoop_lookups, 2);
    }
}
