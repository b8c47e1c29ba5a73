//! The cycle-accurate in-order pipeline simulator.
//!
//! The simulator processes dynamic instructions strictly in program order and
//! computes, for each one, the cycle at which it enters every pipeline stage.
//! An instruction occupies stage *s* from its entry into *s* until its entry
//! into the next stage; the structural rule "an instruction may enter a stage
//! only after its predecessor has left it" together with the per-stage
//! constraints below reproduces the stall behaviour of the NGMP pipeline the
//! paper describes:
//!
//! * **operands** — an instruction's Execute work happens in the last cycle
//!   it occupies Execute and needs all its source operands bypassable by
//!   then (load-use and ECC-induced stalls appear here),
//! * **memory** — the Memory stage occupancy grows with DL1 miss service,
//!   with the Extra-Cycle scheme's second hit cycle, and with the
//!   speculate-and-flush recovery penalty,
//! * **write buffer** — loads wait for the store buffer to drain; stores
//!   stall when it is full until it is completely empty (paper §III.B),
//! * **control flow** — taken branches redirect the fetch stream after they
//!   resolve in Execute.
//!
//! Functionally, instructions execute with full [`laec_isa::semantics`], so
//! every scheme produces bit-identical architectural state — only timing
//! differs — and fault-injection campaigns can check end-to-end correctness.

use std::collections::VecDeque;

use laec_isa::{semantics, Instruction, Program, Reg, RegisterFile, NUM_REGS};
use laec_mem::{FaultCampaign, MemorySystem, SeedOverlays};
use laec_trace::{StallKind, TraceRecorder, TraceSummary};

use crate::chronogram::{Chronogram, TraceEntry};
use crate::config::PipelineConfig;
use crate::hazards::{decide_lookahead, LookaheadBlock, PreviousInstruction};
use crate::scheme::EccScheme;
use crate::stage::Stage;
use crate::stats::PipelineStats;

/// Everything a finished run reports.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// Performance counters.
    pub stats: PipelineStats,
    /// Final architectural register file.
    pub registers: [u32; NUM_REGS],
    /// Checksum of the final memory image (after draining all dirty cache
    /// state), identical across ECC schemes for the same program unless an
    /// uncorrectable error corrupted data.
    pub memory_checksum: u64,
    /// Chronogram of the first traced instructions (empty unless enabled).
    pub chronogram: Chronogram,
    /// `true` if the run stopped at the instruction cap rather than at `halt`.
    pub hit_instruction_limit: bool,
    /// Uncorrectable errors on dirty write-back DL1 data (data loss).
    pub unrecoverable_errors: u64,
    /// Uncorrectable errors recovered by refetching from the L2 (WT/parity).
    pub recovered_by_refetch: u64,
    /// Dirty DL1 lines silently dropped because a metadata strike (MESI
    /// state / tag bits) hid their dirtiness — silent data corruption the
    /// data array's ECC cannot see.
    pub lost_writebacks: u64,
    /// Loads served wrong data because of corrupted DL1 metadata (aliased
    /// tag hits, refetches of stale lower-level copies).
    pub stale_metadata_reads: u64,
    /// Metadata (state/tag) faults injected during the run.
    pub meta_faults_injected: u64,
    /// Per-fault lifecycle records (strike → activation → outcome), present
    /// only when [`Simulator::enable_forensics`] was called before the run.
    /// [`Core::finalize`] leaves it `None`: the records belong to the
    /// hierarchy, which closes them after every core drained.
    pub forensics: Option<laec_mem::CellForensics>,
}

impl SimResult {
    /// The trace-header summary of this run — the pipeline-side statistics a
    /// trace replay reuses instead of re-simulating the pipeline.
    #[must_use]
    pub fn trace_summary(&self) -> TraceSummary {
        TraceSummary {
            cycles: self.stats.cycles,
            instructions: self.stats.instructions,
            loads: self.stats.loads,
            load_hits: self.stats.load_hits,
            stores: self.stats.stores,
            lookahead_loads: self.stats.lookahead_loads,
            hit_instruction_limit: self.hit_instruction_limit,
            registers_fingerprint: 0, // callers fingerprint `registers`
            memory_checksum: self.memory_checksum,
        }
    }
}

/// Stage-entry slots per instruction: the deepest pipeline's stage count.
const MAX_STAGES: usize = Stage::WITH_ECC_STAGE.len();

/// Positions of the stages `step` addresses directly.  Both stage tables
/// ([`Stage::BASELINE`] and [`Stage::WITH_ECC_STAGE`]) share them: the ECC
/// stage sits after Memory, so a scheme changes only the pipeline's depth.
const REGISTER_ACCESS: usize = 2;
const EXECUTE: usize = 3;
const MEMORY: usize = 4;

/// Timing footprint of the previously processed dynamic instruction.  Before
/// the first instruction it is all zeroes: no stage is occupied (every
/// structural constraint reads 0) and the summary names no load and no
/// destination, which lets every look-ahead through.
#[derive(Debug, Clone, Copy, Default)]
struct PrevTiming {
    /// Entry cycle per stage, then the cycle it left the last stage: only
    /// the first `Core::depth + 1` slots are meaningful.
    entry: [u64; MAX_STAGES + 1],
    summary: PreviousInstruction,
}

/// One core's pipeline: the program, architectural and timing state, and
/// statistics of one core, plus its core index.  It owns no memory: every
/// step borrows the hierarchy the core issues into, so the uniprocessor
/// [`Simulator`] and `laec_smp`'s N-core system drive the same type.
#[derive(Debug)]
pub struct Core {
    /// The core index every access, strike and drain names.
    index: usize,
    config: PipelineConfig,
    /// The scheme's pipeline depth (7 or 8 stages), looked up once: the
    /// scheme never changes mid-run.
    depth: usize,
    program: Program,
    regs: RegisterFile,
    stats: PipelineStats,
    chronogram: Chronogram,
    fault_campaign: Option<FaultCampaign>,
    /// Cycle at whose end each architectural register's newest value becomes
    /// bypassable.
    reg_ready: [u64; NUM_REGS],
    prev: PrevTiming,
    redirect_cycle: u64,
    /// Completion cycles of stores still draining from the write buffer.
    wb_completions: VecDeque<u64>,
    /// Cycle at which the write-buffer drain engine frees up.
    wb_free_at: u64,
    /// The dependent-load window over the two newest instructions, newest
    /// first: an instruction's destination while it is a load whose value
    /// no later instruction has used yet, else `None`.
    unconsumed_loads: [Option<Reg>; 2],
    pc: u32,
    halted: bool,
    hit_instruction_limit: bool,
    last_retire: u64,
}

/// The uniprocessor: one [`Core`] over the one-core [`MemorySystem`] it
/// owns — the paper's platform.
#[derive(Debug)]
pub struct Simulator {
    core: Core,
    mem: MemorySystem,
}

impl Simulator {
    /// Creates a simulator for `program` under `config`, loading the
    /// program's data image into main memory.
    #[must_use]
    pub fn new(program: Program, config: PipelineConfig) -> Self {
        let mut mem = MemorySystem::new(config.hierarchy);
        mem.reserve_memory(program.data().len());
        for &(address, value) in program.data() {
            mem.preload_word(address, value);
        }
        if let Some(interference) = config.bus_interference {
            mem.set_bus_interference(interference);
        }
        Simulator {
            core: Core::new(0, program, config),
            mem,
        }
    }

    /// Records the run: the hierarchy owns `recorder`, the pipeline emits
    /// its fetch, access, stall and commit events into it and the hierarchy
    /// its line fills and writebacks (see `laec_trace`).
    pub fn attach_recorder(&mut self, recorder: TraceRecorder) {
        self.mem.attach_recorder(recorder);
    }

    /// Detaches the recorder after the run, if one was attached.  Call
    /// after [`Simulator::execute`], so the end-of-run drain is recorded.
    pub fn take_recorder(&mut self) -> Option<TraceRecorder> {
        self.mem.take_recorder()
    }

    /// Carries `overlays` through the run: each seed is evaluated against
    /// this (fault-free) run's hierarchy (see `laec_mem::overlay`).
    pub fn attach_overlays(&mut self, overlays: SeedOverlays) {
        self.mem.attach_overlays(overlays);
    }

    /// Detaches the seed overlays after the run, if any were attached,
    /// settled against the final memory image.  Call after
    /// [`Simulator::execute`].
    pub fn take_overlays(&mut self) -> Option<SeedOverlays> {
        self.mem.take_overlays()
    }

    /// Convenience: build, run and return the result in one call.
    #[must_use]
    pub fn run(program: Program, config: PipelineConfig) -> SimResult {
        let mut simulator = Simulator::new(program, config);
        simulator.execute()
    }

    /// Turns on per-fault lifecycle forensics in the hierarchy.  Call
    /// before the run; the records come back in [`SimResult::forensics`].
    pub fn enable_forensics(&mut self) {
        self.mem.enable_forensics();
    }

    /// Pre-fills the DL1 with the lines containing `addresses` (without
    /// counting the accesses), so short chronogram examples start from a warm
    /// cache like the paper's figures assume.
    pub fn prefill_dl1(&mut self, addresses: &[u32]) {
        for &address in addresses {
            let _ = self.mem.load(0, address, 0);
        }
        self.mem.reset_stats();
    }

    /// Pre-sets an architectural register before the run (test/example setup).
    pub fn preset_register(&mut self, reg: Reg, value: u32) {
        self.core.regs.write(reg, value);
    }

    /// Runs the program to completion (or to the instruction cap) and
    /// produces the result, with the forensics records taken after the
    /// drain.
    pub fn execute(&mut self) -> SimResult {
        while self.core.step_one(&mut self.mem) {}
        let mut result = self.core.finalize(&mut self.mem);
        result.forensics = self.mem.take_forensics();
        result
    }
}

impl Core {
    /// Creates core `index`'s pipeline for `program` under `config`.  The
    /// program's data image must already be in the hierarchy the core will
    /// step with.
    #[must_use]
    pub fn new(index: usize, program: Program, config: PipelineConfig) -> Self {
        let fault_campaign = config.fault_campaign.map(FaultCampaign::new);
        let chronogram = Chronogram::new(config.trace_instructions);
        Core {
            index,
            depth: config.scheme.stages().len(),
            program,
            regs: RegisterFile::new(),
            stats: PipelineStats::new(),
            chronogram,
            fault_campaign,
            reg_ready: [0; NUM_REGS],
            prev: PrevTiming::default(),
            redirect_cycle: 1,
            wb_completions: VecDeque::new(),
            wb_free_at: 0,
            unconsumed_loads: [None; 2],
            pc: 0,
            halted: false,
            hit_instruction_limit: false,
            last_retire: 0,
            config,
        }
    }

    /// Executes one dynamic instruction against `mem`, returning `false`
    /// once the core is done (halted, fell off the program, or hit the
    /// instruction cap).  `laec_smp`'s deterministic cycle interleaver
    /// steps its cores one instruction at a time through this.
    pub fn step_one(&mut self, mem: &mut MemorySystem) -> bool {
        if self.halted {
            return false;
        }
        if self.stats.instructions >= self.config.max_instructions {
            self.hit_instruction_limit = true;
            return false;
        }
        let Some(&instruction) = self.program.get(self.pc as usize) else {
            // Fell off the end of the program: treat as an implicit halt.
            self.halted = true;
            return false;
        };
        self.step(mem, instruction);
        !self.halted
    }

    /// The core's local clock: the retirement cycle of the newest retired
    /// instruction.  `laec_smp` always advances the core whose clock is
    /// furthest behind (ties broken by core id), which interleaves the
    /// cores' cycles deterministically.
    #[must_use]
    pub fn local_cycle(&self) -> u64 {
        self.last_retire
    }

    /// Seals the run: drains this core's dirty state through `mem` and
    /// packages the result.  The result carries no forensics: the records
    /// are the hierarchy's, taken once after every core drained.
    pub fn finalize(&mut self, mem: &mut MemorySystem) -> SimResult {
        let core = self.index;
        let baseline_mem = self.stats.mem.write_buffer_enqueues;
        let mut stats = self.stats;
        stats.cycles = self.last_retire;
        stats.mem = mem.core_stats(core);
        stats.mem.write_buffer_enqueues = baseline_mem.max(stats.stores);
        let memory_checksum = mem.drain(core);
        let dl1 = mem.dl1(core);
        SimResult {
            stats,
            registers: self.regs.snapshot(),
            memory_checksum,
            chronogram: self.chronogram.clone(),
            hit_instruction_limit: self.hit_instruction_limit,
            unrecoverable_errors: mem.core_unrecoverable_errors(core),
            recovered_by_refetch: mem.core_recovered_by_refetch(core),
            lost_writebacks: dl1.lost_writebacks(),
            stale_metadata_reads: dl1.stale_reads(),
            meta_faults_injected: dl1.meta_faults_injected(),
            forensics: None,
        }
    }

    /// Processes one dynamic instruction: timing, function and statistics.
    fn step(&mut self, mem: &mut MemorySystem, instruction: Instruction) {
        let n = self.depth;
        let uses = instruction.uses();
        let def = instruction.def();
        let is_load = instruction.is_load();
        let is_store = instruction.is_store();

        // --- structural timing skeleton (fetch through execute) ------------
        // Slot `n` holds the cycle the instruction leaves the last stage.
        let mut entry = [0u64; MAX_STAGES + 1];
        entry[0] = self.structural(0).max(self.redirect_cycle).max(1);
        for s in 1..=EXECUTE {
            entry[s] = (entry[s - 1] + 1).max(self.structural(s));
        }
        if let Some(recorder) = mem.recorder() {
            recorder.record_fetch(self.pc, entry[0]);
        }

        // --- dependent-load statistic (Table II row 2) ----------------------
        // A load is "dependent" if an instruction at dynamic distance 1 or 2
        // uses its destination.
        for unconsumed in &mut self.unconsumed_loads {
            if unconsumed.is_some_and(|def| uses.contains(def)) {
                *unconsumed = None;
                self.stats.dependent_loads += 1;
            }
        }

        // --- LAEC look-ahead decision ---------------------------------------
        let mut lookahead = false;
        if self.config.scheme.supports_look_ahead() && is_load {
            let address_ready = instruction
                .address_uses()
                .iter()
                .map(|r| self.reg_ready[usize::from(r)])
                .max()
                .unwrap_or(0);
            let ra_work_cycle = entry[EXECUTE].saturating_sub(1);
            let decision = decide_lookahead(
                &instruction,
                &self.prev.summary,
                address_ready,
                ra_work_cycle,
            );
            lookahead = decision.anticipated;
            match decision.blocked {
                None => self.stats.lookahead_loads += 1,
                Some(LookaheadBlock::DataHazard) => self.stats.lookahead_blocked_data_hazard += 1,
                Some(LookaheadBlock::ResourceHazard) => {
                    self.stats.lookahead_blocked_resource_hazard += 1;
                }
                Some(LookaheadBlock::OperandNotReady) => {
                    self.stats.lookahead_blocked_operand_not_ready += 1;
                }
            }
        }

        // --- memory-stage entry: operand, write-buffer constraints ----------
        let mut memory_entry = (entry[EXECUTE] + 1).max(self.structural(MEMORY));
        let natural_memory_entry = memory_entry;

        // Operand readiness: Execute work happens at `memory_entry - 1` and
        // needs every source bypassable by the end of the previous cycle.
        // Anticipated loads consume their address register in Register Access
        // instead (eligibility already guaranteed readiness there).
        if !lookahead {
            for reg in uses.iter() {
                memory_entry = memory_entry.max(self.reg_ready[usize::from(reg)] + 2);
            }
        }
        self.stats.operand_stall_cycles += memory_entry - natural_memory_entry;
        if memory_entry > natural_memory_entry {
            if let Some(recorder) = mem.recorder() {
                recorder.record_stall(
                    StallKind::Operand,
                    natural_memory_entry,
                    memory_entry - natural_memory_entry,
                );
            }
        }

        // Write-buffer interaction (paper §III.B).
        let before_wb = memory_entry;
        if is_load {
            if self.wb_free_at > memory_entry {
                memory_entry = self.wb_free_at;
                self.stats.write_buffer_drain_stall_cycles += memory_entry - before_wb;
                if let Some(recorder) = mem.recorder() {
                    recorder.record_stall(
                        StallKind::WriteBufferDrain,
                        before_wb,
                        memory_entry - before_wb,
                    );
                }
            }
        } else if is_store {
            self.retire_drained_stores(memory_entry);
            if self.wb_completions.len() >= self.config.hierarchy.write_buffer_entries as usize {
                memory_entry = memory_entry.max(self.wb_free_at);
                self.stats.write_buffer_full_stall_cycles += memory_entry - before_wb;
                if memory_entry > before_wb {
                    if let Some(recorder) = mem.recorder() {
                        recorder.record_stall(
                            StallKind::WriteBufferFull,
                            before_wb,
                            memory_entry - before_wb,
                        );
                    }
                }
                self.wb_completions.clear();
            }
        }
        entry[MEMORY] = memory_entry;

        // --- execution: memory access, architectural update, control flow --
        let mut memory_duration = 1u64;
        let mut load_hit = false;
        let mut next_pc = self.pc + 1;
        match instruction {
            Instruction::Load {
                width,
                rd,
                base,
                offset,
            } => {
                self.stats.loads += 1;
                let address = semantics::effective_address(self.regs.read(base), offset);
                let response = mem.load(self.index, address & !3, memory_entry);
                if let Some(recorder) = mem.recorder() {
                    recorder.record_mem_read(
                        address & !3,
                        memory_entry,
                        response.value,
                        response.dl1_hit,
                        response.extra_cycles,
                    );
                }
                load_hit = response.dl1_hit;
                if load_hit {
                    self.stats.load_hits += 1;
                } else {
                    self.stats.load_misses += 1;
                }
                memory_duration += u64::from(response.extra_cycles);
                if self.config.scheme.doubles_memory_stage() && load_hit {
                    memory_duration += 1;
                }
                if let EccScheme::SpeculateFlush { flush_penalty } = self.config.scheme {
                    if response.outcome.is_error() {
                        memory_duration += u64::from(flush_penalty);
                        self.stats.flush_cycles += u64::from(flush_penalty);
                    }
                }
                let value = semantics::extract_loaded(response.value, address, width);
                self.regs.write(rd, value);
            }
            Instruction::Store {
                width,
                src,
                base,
                offset,
            } => {
                self.stats.stores += 1;
                let address = semantics::effective_address(self.regs.read(base), offset);
                let value = self.regs.read(src);
                let (merged, mask) = store_word_and_mask(address, width, value);
                let drain_start = self.wb_free_at.max(memory_entry);
                if let Some(recorder) = mem.recorder() {
                    recorder.record_mem_write(address & !3, drain_start, merged, mask);
                }
                let response = mem.store(self.index, address & !3, merged, mask, drain_start);
                let occupancy = 1 + u64::from(response.extra_cycles);
                self.wb_free_at = drain_start + occupancy;
                // Every older entry still queued completes after
                // `memory_entry`, and so does this one: nothing retires yet.
                self.wb_completions.push_back(self.wb_free_at);
            }
            Instruction::Alu {
                op,
                rd,
                rs1,
                operand,
            } => {
                let a = self.regs.read(rs1);
                let b = match operand {
                    laec_isa::Operand::Reg(rs2) => self.regs.read(rs2),
                    laec_isa::Operand::Imm(imm) => imm as u32,
                };
                self.regs.write(rd, semantics::eval_alu(op, a, b));
            }
            Instruction::Nop => {}
            Instruction::Branch {
                cond,
                rs1,
                rs2,
                target,
            } => {
                self.stats.branches += 1;
                let taken = semantics::eval_cond(cond, self.regs.read(rs1), self.regs.read(rs2));
                if taken {
                    self.stats.taken_control += 1;
                    next_pc = target;
                    self.redirect_fetch(memory_entry, entry[0]);
                }
            }
            Instruction::Jump { target } => {
                self.stats.taken_control += 1;
                next_pc = target;
                self.redirect_fetch(entry[REGISTER_ACCESS] + 1, entry[0]);
            }
            Instruction::Call { target, link } => {
                self.stats.taken_control += 1;
                self.regs.write(link, self.pc + 1);
                next_pc = target;
                self.redirect_fetch(entry[REGISTER_ACCESS] + 1, entry[0]);
            }
            Instruction::JumpReg { target } => {
                self.stats.taken_control += 1;
                next_pc = self.regs.read(target);
                self.redirect_fetch(memory_entry, entry[0]);
            }
            Instruction::Halt => {
                self.halted = true;
            }
        }
        self.stats.memory_occupancy_stall_cycles += memory_duration - 1;

        // --- remaining stages ------------------------------------------------
        entry[MEMORY + 1] = (memory_entry + memory_duration).max(self.structural(MEMORY + 1));
        for s in (MEMORY + 2)..n {
            entry[s] = (entry[s - 1] + 1).max(self.structural(s));
        }
        entry[n] = entry[n - 1] + 1;
        self.last_retire = self.last_retire.max(entry[n - 1]);

        // --- destination readiness (bypass network) --------------------------
        if let Some(def) = def {
            let ready = if is_load {
                self.load_result_ready(&entry, load_hit, lookahead)
            } else {
                // ALU results (and call link values) come out of Execute.
                memory_entry - 1
            };
            self.reg_ready[usize::from(def)] = ready;
        }

        // --- bookkeeping -------------------------------------------------------
        if self.config.trace_instructions > 0 && !self.chronogram.is_full() {
            let stages = self.config.scheme.stages().iter().copied();
            self.chronogram.push(TraceEntry {
                seq: self.stats.instructions,
                index: self.pc,
                text: instruction.to_string(),
                stages: stages.zip(entry).collect(),
                retired: entry[n],
                lookahead,
            });
        }
        if let Some(recorder) = mem.recorder() {
            recorder.record_commit();
        }
        if let Some(campaign) = &mut self.fault_campaign {
            if campaign.maybe_inject(mem, self.index).is_some() {
                self.stats.faults_injected += 1;
            }
        }
        mem.commit_overlays(self.index, 1);
        self.unconsumed_loads = [def.filter(|_| is_load), self.unconsumed_loads[0]];
        self.prev = PrevTiming {
            entry,
            summary: PreviousInstruction {
                is_load,
                anticipated: lookahead,
                def,
            },
        };
        self.stats.instructions += 1;
        self.pc = next_pc;
    }

    /// Cycle at whose end the loaded value becomes bypassable, per scheme
    /// (see the crate-level derivation and the paper's Figs. 2–5, 7).
    fn load_result_ready(&self, entry: &[u64], hit: bool, lookahead: bool) -> u64 {
        let end_of_memory = entry[MEMORY + 1] - 1;
        match self.config.scheme {
            EccScheme::NoEcc | EccScheme::ExtraCycle | EccScheme::SpeculateFlush { .. } => {
                end_of_memory
            }
            EccScheme::ExtraStage | EccScheme::Laec => {
                let ecc = MEMORY + 1;
                debug_assert!(ecc + 1 < self.depth, "ECC pipelines have a stage after ECC");
                if hit && !lookahead {
                    // Checked data leaves the dedicated ECC stage.
                    entry[ecc + 1] - 1
                } else {
                    // Misses arrive already checked from the L2; anticipated
                    // hits finish their check in the Memory stage.
                    end_of_memory
                }
            }
        }
    }

    /// Structural constraint: entry into stage `s` must wait until the
    /// previous instruction has left it.
    fn structural(&self, s: usize) -> u64 {
        self.prev.entry[s + 1]
    }

    /// Applies a front-end redirect after taken control flow resolving at
    /// `resolve_entry` (the Memory-stage entry of the branch); `fetch_cycle`
    /// is the branch's own fetch cycle.
    fn redirect_fetch(&mut self, resolve_entry: u64, fetch_cycle: u64) {
        let target_fetch = resolve_entry.saturating_sub(u64::from(self.config.branch_overlap));
        let sequential_fetch = fetch_cycle + 1;
        if target_fetch > sequential_fetch {
            self.stats.control_bubble_cycles += target_fetch - sequential_fetch;
        }
        self.redirect_cycle = self.redirect_cycle.max(target_fetch);
    }

    /// Drops write-buffer entries that have finished draining by `now`.
    fn retire_drained_stores(&mut self, now: u64) {
        while let Some(&completion) = self.wb_completions.front() {
            if completion <= now {
                self.wb_completions.pop_front();
            } else {
                break;
            }
        }
    }
}

/// Positions `value` within its aligned word and builds the byte-enable mask
/// for a store of the given width.
fn store_word_and_mask(address: u32, width: laec_isa::MemWidth, value: u32) -> (u32, u8) {
    use laec_isa::MemWidth;
    match width {
        MemWidth::Word => (value, 0xF),
        MemWidth::Half => {
            let shift = (address & 0x2) * 8;
            (
                (value & 0xFFFF) << shift,
                0b0011 << ((address & 0x2) / 2 * 2),
            )
        }
        MemWidth::Byte => {
            let shift = (address & 0x3) * 8;
            ((value & 0xFF) << shift, 1 << (address & 0x3))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use laec_isa::{AluOp, MemWidth, Operand};

    /// The paper's running example: a load followed by a consumer of the
    /// loaded value (Figs. 2, 3, 4, 7a), preceded by enough independent
    /// instructions that the cache is warm and the pipeline full.
    fn figure_program(producer_before_load: bool) -> Program {
        let r = Reg::new;
        let mut code = vec![
            // r1 holds the base address of a warm line.
            Instruction::Alu {
                op: AluOp::Add,
                rd: r(1),
                rs1: Reg::ZERO,
                operand: Operand::Imm(0x100),
            },
            Instruction::Nop,
            Instruction::Nop,
            Instruction::Nop,
        ];
        if producer_before_load {
            // Fig. 7(b): the instruction right before the load produces r1.
            code.push(Instruction::Alu {
                op: AluOp::Add,
                rd: r(1),
                rs1: r(1),
                operand: Operand::Imm(0),
            });
        } else {
            code.push(Instruction::Alu {
                op: AluOp::Add,
                rd: r(9),
                rs1: r(4),
                operand: Operand::Imm(1),
            });
        }
        code.extend([
            // r3 = load(r1 + 0)
            Instruction::Load {
                width: MemWidth::Word,
                rd: r(3),
                base: r(1),
                offset: 0,
            },
            // r5 = r3 + r4 (distance-1 consumer)
            Instruction::Alu {
                op: AluOp::Add,
                rd: r(5),
                rs1: r(3),
                operand: Operand::Reg(r(4)),
            },
            Instruction::Halt,
        ]);
        Program::new("figure", code).with_data_word(0x100, 77)
    }

    fn run_figure(scheme: EccScheme, producer_before_load: bool) -> SimResult {
        let config = PipelineConfig::for_scheme(scheme).with_trace(16);
        let mut simulator = Simulator::new(figure_program(producer_before_load), config);
        simulator.prefill_dl1(&[0x100]);
        simulator.execute()
    }

    fn consumer_exe_cycles(result: &SimResult) -> u64 {
        let entry = result
            .chronogram
            .entries()
            .iter()
            .find(|e| e.text.contains("r5, r3, r4"))
            .expect("consumer traced");
        entry.cycles_in(Stage::Execute)
    }

    fn load_entry(result: &SimResult) -> &TraceEntry {
        result
            .chronogram
            .entries()
            .iter()
            .find(|e| e.text.starts_with("ld r3"))
            .expect("load traced")
    }

    #[test]
    fn both_stage_tables_share_the_stage_positions_step_uses() {
        for stages in [&Stage::BASELINE[..], &Stage::WITH_ECC_STAGE[..]] {
            assert_eq!(stages[REGISTER_ACCESS], Stage::RegisterAccess);
            assert_eq!(stages[EXECUTE], Stage::Execute);
            assert_eq!(stages[MEMORY], Stage::Memory);
        }
        assert_eq!(Stage::WITH_ECC_STAGE[MEMORY + 1], Stage::EccCheck);
    }

    #[test]
    fn prefill_traffic_is_not_counted() {
        let program = Program::assemble(
            r#"
                addi r1, r0, 0x100
                ld   r2, [r1 + 0]
                halt
            "#,
        )
        .unwrap();
        let mut simulator = Simulator::new(program, PipelineConfig::laec());
        simulator.prefill_dl1(&[0x100]);
        let result = simulator.execute();
        assert_eq!(
            result.stats.load_hits, 1,
            "the load hits the prefilled line"
        );
        let mem = result.stats.mem;
        assert_eq!(
            (
                mem.dl1.read_misses,
                mem.bus_transactions,
                mem.memory_accesses
            ),
            (0, 0, 0)
        );
    }

    #[test]
    fn figure2_baseline_consumer_stalls_one_cycle() {
        let result = run_figure(EccScheme::NoEcc, false);
        assert_eq!(consumer_exe_cycles(&result), 2, "Fig. 2: Exe Exe");
        assert_eq!(result.registers[5], 77, "functional result");
    }

    #[test]
    fn figure3_extra_cycle_consumer_stalls_two_cycles() {
        let result = run_figure(EccScheme::ExtraCycle, false);
        assert_eq!(consumer_exe_cycles(&result), 3, "Fig. 3: Exe Exe Exe");
        assert_eq!(load_entry(&result).cycles_in(Stage::Memory), 2, "M M");
    }

    #[test]
    fn figure4_extra_stage_consumer_stalls_two_cycles() {
        let result = run_figure(EccScheme::ExtraStage, false);
        assert_eq!(consumer_exe_cycles(&result), 3, "Fig. 4: Exe Exe Exe");
        assert_eq!(load_entry(&result).cycles_in(Stage::Memory), 1);
        assert_eq!(load_entry(&result).cycles_in(Stage::EccCheck), 1);
    }

    #[test]
    fn figure5_extra_stage_without_dependency_has_no_stall() {
        // Replace the consumer with an independent instruction.
        let r = Reg::new;
        let program = Program::new(
            "fig5",
            vec![
                Instruction::Alu {
                    op: AluOp::Add,
                    rd: r(1),
                    rs1: Reg::ZERO,
                    operand: Operand::Imm(0x100),
                },
                Instruction::Nop,
                Instruction::Load {
                    width: MemWidth::Word,
                    rd: r(3),
                    base: r(1),
                    offset: 0,
                },
                Instruction::Alu {
                    op: AluOp::Add,
                    rd: r(5),
                    rs1: r(6),
                    operand: Operand::Reg(r(4)),
                },
                Instruction::Halt,
            ],
        )
        .with_data_word(0x100, 1);
        let config = PipelineConfig::for_scheme(EccScheme::ExtraStage).with_trace(8);
        let mut simulator = Simulator::new(program, config);
        simulator.prefill_dl1(&[0x100]);
        let result = simulator.execute();
        let consumer = result
            .chronogram
            .entries()
            .iter()
            .find(|e| e.text.contains("r5, r6, r4"))
            .unwrap();
        assert_eq!(consumer.cycles_in(Stage::Execute), 1, "Fig. 5: no stall");
    }

    #[test]
    fn figure7a_laec_lookahead_matches_baseline() {
        let result = run_figure(EccScheme::Laec, false);
        assert_eq!(
            consumer_exe_cycles(&result),
            2,
            "Fig. 7(a): Exe Exe, like no-ECC"
        );
        assert!(load_entry(&result).lookahead, "the load was anticipated");
        assert_eq!(result.stats.lookahead_loads, 1);
        assert_eq!(result.registers[5], 77);
    }

    #[test]
    fn figure7b_laec_blocked_by_address_producer() {
        let result = run_figure(EccScheme::Laec, true);
        assert_eq!(consumer_exe_cycles(&result), 3, "Fig. 7(b): Exe Exe Exe");
        assert!(!load_entry(&result).lookahead);
        assert_eq!(result.stats.lookahead_blocked_data_hazard, 1);
    }

    #[test]
    fn schemes_are_functionally_identical() {
        // A small loop writing and reading memory: every scheme must produce
        // the same registers and the same final memory image.
        let program = Program::assemble(
            r#"
                addi r1, r0, 0x200
                addi r2, r0, 16
            loop:
                st   r2, [r1 + 0]
                ld   r3, [r1 + 0]
                add  r4, r4, r3
                addi r1, r1, 4
                subi r2, r2, 1
                bne  r2, r0, loop
                halt
            "#,
        )
        .unwrap();
        let mut reference: Option<([u32; NUM_REGS], u64)> = None;
        for scheme in [
            EccScheme::NoEcc,
            EccScheme::ExtraCycle,
            EccScheme::ExtraStage,
            EccScheme::Laec,
            EccScheme::SpeculateFlush { flush_penalty: 5 },
        ] {
            let result = Simulator::run(program.clone(), PipelineConfig::for_scheme(scheme));
            assert!(!result.hit_instruction_limit);
            match &reference {
                None => reference = Some((result.registers, result.memory_checksum)),
                Some((regs, checksum)) => {
                    assert_eq!(&result.registers, regs, "{scheme} diverged architecturally");
                    assert_eq!(
                        result.memory_checksum, *checksum,
                        "{scheme} memory diverged"
                    );
                }
            }
        }
        // 16 iterations summing 16,15,...,1 = 136.
        assert_eq!(reference.unwrap().0[4], 136);
    }

    #[test]
    fn scheme_ordering_matches_the_paper() {
        // A loop mixing a load with a distance-1 consumer (stalls Extra-Stage
        // and Extra-Cycle, not LAEC) and a load whose consumer is three
        // instructions away (free for Extra-Stage, but Extra-Cycle still pays
        // its structural second Memory cycle):
        // no-ECC <= LAEC < Extra-Stage < Extra-Cycle (paper §III.E, §IV).
        let program = Program::assemble(
            r#"
                addi r1, r0, 0x400
                addi r2, r0, 256
            loop:
                ld   r3, [r1 + 0]
                add  r4, r4, r3
                ld   r5, [r1 + 4]
                addi r1, r1, 8
                subi r2, r2, 1
                add  r4, r4, r5
                bne  r2, r0, loop
                halt
            "#,
        )
        .unwrap();
        let cycles = |scheme| {
            Simulator::run(program.clone(), PipelineConfig::for_scheme(scheme))
                .stats
                .cycles
        };
        let no_ecc = cycles(EccScheme::NoEcc);
        let laec = cycles(EccScheme::Laec);
        let extra_stage = cycles(EccScheme::ExtraStage);
        let extra_cycle = cycles(EccScheme::ExtraCycle);
        assert!(no_ecc <= laec, "no-ECC {no_ecc} vs LAEC {laec}");
        assert!(
            laec < extra_stage,
            "LAEC {laec} vs Extra-Stage {extra_stage}"
        );
        assert!(
            extra_stage < extra_cycle,
            "Extra-Stage {extra_stage} vs Extra-Cycle {extra_cycle}"
        );
        assert!(
            extra_cycle > no_ecc,
            "ECC protection must cost something here"
        );
    }

    #[test]
    fn store_heavy_loop_exercises_write_buffer_backpressure() {
        let program = Program::assemble(
            r#"
                addi r1, r0, 0x800
                addi r2, r0, 64
            loop:
                st   r2, [r1 + 0]
                st   r2, [r1 + 4]
                st   r2, [r1 + 8]
                st   r2, [r1 + 12]
                addi r1, r1, 16
                subi r2, r2, 1
                bne  r2, r0, loop
                halt
            "#,
        )
        .unwrap();
        let mut config = PipelineConfig::for_scheme(EccScheme::NoEcc);
        config.hierarchy = laec_mem::HierarchyConfig::ngmp_write_through();
        config.hierarchy.dl1.protection = laec_ecc::CodeKind::None;
        let wt = Simulator::run(program.clone(), config);
        let wb = Simulator::run(program, PipelineConfig::for_scheme(EccScheme::NoEcc));
        assert!(
            wt.stats.write_buffer_full_stall_cycles > 0,
            "WT stores overwhelm the buffer"
        );
        assert!(
            wt.stats.cycles > wb.stats.cycles,
            "write-through is slower on store-heavy code ({} vs {})",
            wt.stats.cycles,
            wb.stats.cycles
        );
        assert!(wt.stats.mem.bus_transactions > wb.stats.mem.bus_transactions);
    }

    #[test]
    fn loads_wait_for_the_write_buffer_to_drain() {
        let program = Program::assemble(
            r#"
                addi r1, r0, 0x300
                st   r1, [r1 + 0]
                ld   r2, [r1 + 0]
                halt
            "#,
        )
        .unwrap();
        let result = Simulator::run(program, PipelineConfig::for_scheme(EccScheme::NoEcc));
        assert_eq!(
            result.registers[2], 0x300,
            "the load sees the store's value"
        );
    }

    #[test]
    fn instruction_limit_stops_infinite_loops() {
        let program = Program::assemble("loop: jmp loop\n").unwrap();
        let config = PipelineConfig::for_scheme(EccScheme::NoEcc).with_max_instructions(500);
        let result = Simulator::run(program, config);
        assert!(result.hit_instruction_limit);
        assert_eq!(result.stats.instructions, 500);
    }

    #[test]
    fn dependent_load_statistic_counts_distance_one_and_two() {
        let program = Program::assemble(
            r#"
                addi r1, r0, 0x100
                ld   r3, [r1 + 0]     # consumer at distance 1
                add  r4, r3, r1
                ld   r5, [r1 + 4]     # consumer at distance 2
                nop
                add  r6, r5, r1
                ld   r7, [r1 + 8]     # no consumer within distance 2
                nop
                nop
                add  r8, r7, r1
                halt
            "#,
        )
        .unwrap();
        let result = Simulator::run(program, PipelineConfig::for_scheme(EccScheme::NoEcc));
        assert_eq!(result.stats.loads, 3);
        assert_eq!(result.stats.dependent_loads, 2);
    }

    #[test]
    fn laec_fault_injection_preserves_results() {
        let program = Program::assemble(
            r#"
                addi r1, r0, 0x600
                addi r2, r0, 128
            init:
                st   r2, [r1 + 0]
                addi r1, r1, 4
                subi r2, r2, 1
                bne  r2, r0, init
                addi r1, r0, 0x600
                addi r2, r0, 128
            sum:
                ld   r3, [r1 + 0]
                add  r4, r4, r3
                addi r1, r1, 4
                subi r2, r2, 1
                bne  r2, r0, sum
                halt
            "#,
        )
        .unwrap();
        let clean = Simulator::run(program.clone(), PipelineConfig::laec());
        // The interval keeps strikes sparse enough that two never accumulate in
        // the same word before it is read back (and scrubbed); the injector is
        // deterministic, so this test is reproducible.
        let faulty_config = PipelineConfig::laec()
            .with_fault_campaign(laec_mem::FaultCampaignConfig::single_bit(0xF00D, 250));
        let faulty = Simulator::run(program, faulty_config);
        assert!(faulty.stats.faults_injected >= 3);
        // Single-bit strikes are always absorbed.  Should two strikes of the
        // campaign ever accumulate in the same dirty word before it is read
        // back, SEC-DED must still *detect* the resulting double error — it is
        // never allowed to pass silently.
        if faulty.unrecoverable_errors == 0 {
            assert_eq!(
                faulty.registers, clean.registers,
                "SECDED absorbed every strike"
            );
            assert_eq!(faulty.memory_checksum, clean.memory_checksum);
        } else {
            assert!(faulty.stats.mem.dl1.ecc.uncorrectable() > 0);
        }
        assert!(
            faulty.stats.mem.dl1.ecc.corrected() + faulty.stats.mem.dl1.ecc.uncorrectable() > 0,
            "injected strikes must be observed at read-back"
        );
    }

    #[test]
    fn no_ecc_fault_injection_can_corrupt_results() {
        // The same campaign against the unprotected baseline is not guaranteed
        // to preserve results; what matters is that the protected scheme above
        // is, and that here nothing is ever *detected* (no ECC to notice).
        let program = Program::assemble(
            r#"
                addi r1, r0, 0x600
                addi r2, r0, 64
            init:
                st   r2, [r1 + 0]
                addi r1, r1, 4
                subi r2, r2, 1
                bne  r2, r0, init
                halt
            "#,
        )
        .unwrap();
        let config = PipelineConfig::no_ecc()
            .with_fault_campaign(laec_mem::FaultCampaignConfig::single_bit(3, 10));
        let result = Simulator::run(program, config);
        assert!(result.stats.faults_injected > 0);
        assert!(result.stats.mem.dl1.ecc.corrected() == 0);
    }

    #[test]
    fn half_and_byte_stores_merge_correctly() {
        let program = Program::assemble(
            r#"
                addi r1, r0, 0x700
                addi r2, r0, 0x7F
                stb  r2, [r1 + 1]
                addi r3, r0, -2
                sth  r3, [r1 + 2]
                ld   r4, [r1 + 0]
                halt
            "#,
        )
        .unwrap();
        let result = Simulator::run(program, PipelineConfig::laec());
        assert_eq!(result.registers[4], 0xFFFE_7F00);
    }
}
