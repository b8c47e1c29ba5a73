//! LAEC look-ahead eligibility (paper §III.A and §III.E).
//!
//! A load can be anticipated by one cycle — address computed in the
//! Register-Access stage, DL1 accessed in Execute, ECC checked in Memory —
//! only when doing so cannot produce a wrong access or a port conflict:
//!
//! 1. **No resource hazard** — the immediately preceding instruction is not a
//!    load that itself executes *without* look-ahead (such a load occupies
//!    the DL1 read port in its Memory stage, the same cycle the anticipated
//!    load would need it in its Execute stage).
//! 2. **No data hazard** — the immediately preceding instruction does not
//!    produce any of the load's address registers (its result cannot be
//!    bypassed one cycle early).
//!
//! We additionally require that the address registers are actually
//! bypassable by the load's Register-Access work cycle (they might have been
//! produced by an older, still-in-flight load under the Extra-Stage timing).
//! The paper's two conditions imply this in the common case; making it
//! explicit keeps the model conservative — LAEC never speculates and never
//! needs a flush (paper §III.A: "LAEC avoids mispredictions by anticipating
//! address calculation only when it is guaranteed that such anticipation will
//! deliver correct results").

use laec_isa::Instruction;

/// Why a look-ahead was not performed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LookaheadBlock {
    /// The previous instruction produces one of the load's address registers
    /// (paper condition 2).
    DataHazard,
    /// The previous instruction is a non-anticipated load that would use the
    /// DL1 port in the same cycle (paper condition 1).
    ResourceHazard,
    /// An address register is produced by an older in-flight instruction
    /// whose result is not bypassable one cycle early.
    OperandNotReady,
}

/// Outcome of the look-ahead decision for one load.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LookaheadDecision {
    /// `true` when the load is executed one cycle early.
    pub anticipated: bool,
    /// The blocking reason when `anticipated` is `false`.
    pub blocked: Option<LookaheadBlock>,
}

impl LookaheadDecision {
    /// A positive decision.
    #[must_use]
    pub fn go() -> Self {
        LookaheadDecision {
            anticipated: true,
            blocked: None,
        }
    }

    /// A negative decision with its reason.
    #[must_use]
    pub fn blocked(reason: LookaheadBlock) -> Self {
        LookaheadDecision {
            anticipated: false,
            blocked: Some(reason),
        }
    }
}

/// Summary of the immediately preceding dynamic instruction, as far as the
/// look-ahead decision is concerned.  The default — no load, no
/// destination — stands for "no previous instruction" at the start of a
/// program, and blocks nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PreviousInstruction {
    /// `true` if it was a load.
    pub is_load: bool,
    /// `true` if it was a load executed with look-ahead.
    pub anticipated: bool,
    /// Destination register it writes, if any (`None` for stores, branches,
    /// writes to `r0`, …).
    pub def: Option<laec_isa::Reg>,
}

/// Decides whether `load` can be anticipated.
///
/// * `previous` — the immediately preceding *dynamic* instruction
///   ([`PreviousInstruction::default`] at the start of the program, when
///   anticipation is always safe),
/// * `address_ready_cycle` — the cycle at whose end the last producer of the
///   load's address registers makes its value bypassable,
/// * `ra_work_cycle` — the cycle in which the load would perform its
///   Register-Access work if anticipated and not otherwise stalled.
#[must_use]
pub fn decide_lookahead(
    load: &Instruction,
    previous: &PreviousInstruction,
    address_ready_cycle: u64,
    ra_work_cycle: u64,
) -> LookaheadDecision {
    debug_assert!(load.is_load(), "look-ahead only applies to loads");
    if let Some(def) = previous.def {
        if load.address_uses().contains(def) {
            return LookaheadDecision::blocked(LookaheadBlock::DataHazard);
        }
    }
    if previous.is_load && !previous.anticipated {
        return LookaheadDecision::blocked(LookaheadBlock::ResourceHazard);
    }
    if address_ready_cycle >= ra_work_cycle {
        return LookaheadDecision::blocked(LookaheadBlock::OperandNotReady);
    }
    LookaheadDecision::go()
}

#[cfg(test)]
mod tests {
    use super::*;
    use laec_isa::{AluOp, Instruction, MemWidth, Operand, Reg};

    fn load(base: u8) -> Instruction {
        Instruction::Load {
            width: MemWidth::Word,
            rd: Reg::new(3),
            base: Reg::new(base),
            offset: 0,
        }
    }

    fn alu(rd: u8) -> Instruction {
        Instruction::Alu {
            op: AluOp::Add,
            rd: Reg::new(rd),
            rs1: Reg::new(7),
            operand: Operand::Imm(1),
        }
    }

    /// The summary the pipeline keeps of `instruction`, executed with
    /// look-ahead iff `anticipated`.
    fn summary_of(instruction: &Instruction, anticipated: bool) -> PreviousInstruction {
        PreviousInstruction {
            is_load: instruction.is_load(),
            anticipated,
            def: instruction.def(),
        }
    }

    #[test]
    fn first_instruction_can_always_anticipate() {
        let decision = decide_lookahead(&load(1), &PreviousInstruction::default(), 0, 10);
        assert!(decision.anticipated);
        assert_eq!(decision.blocked, None);
    }

    #[test]
    fn data_hazard_blocks_when_previous_produces_the_base() {
        // Fig. 7(b): `r1 = r4 + r6; r3 = load(r1 + r2)` — no look-ahead.
        let previous = summary_of(&alu(1), false);
        let decision = decide_lookahead(&load(1), &previous, 0, 10);
        assert_eq!(decision.blocked, Some(LookaheadBlock::DataHazard));
    }

    #[test]
    fn unrelated_previous_producer_does_not_block() {
        // Fig. 7(a): the previous instruction writes a register the load does
        // not use for its address.
        let previous = summary_of(&alu(9), false);
        let decision = decide_lookahead(&load(1), &previous, 0, 10);
        assert!(decision.anticipated);
    }

    #[test]
    fn preceding_plain_load_is_a_resource_hazard() {
        let previous = summary_of(&load(5), false);
        let decision = decide_lookahead(&load(1), &previous, 0, 10);
        assert_eq!(decision.blocked, Some(LookaheadBlock::ResourceHazard));
    }

    #[test]
    fn preceding_anticipated_load_is_not_a_resource_hazard() {
        // Back-to-back anticipated loads pipeline cleanly: the earlier load
        // uses the DL1 port one cycle before the later one needs it.
        let previous = summary_of(&load(5), true);
        let decision = decide_lookahead(&load(1), &previous, 0, 10);
        assert!(decision.anticipated);
    }

    #[test]
    fn preceding_load_that_feeds_the_address_is_a_data_hazard_first() {
        // `r3 = load(...); r5 = load(r3 + 0)`: both hazards apply; the data
        // hazard is reported (it is the stronger condition).
        let producer = Instruction::Load {
            width: MemWidth::Word,
            rd: Reg::new(3),
            base: Reg::new(1),
            offset: 0,
        };
        let previous = summary_of(&producer, true);
        let decision = decide_lookahead(&load(3), &previous, 0, 10);
        assert_eq!(decision.blocked, Some(LookaheadBlock::DataHazard));
    }

    #[test]
    fn stale_operand_blocks_anticipation() {
        // The base register is produced by an older load whose value only
        // becomes available at cycle 12; RA work would happen at cycle 10.
        let previous = summary_of(&alu(9), false);
        let decision = decide_lookahead(&load(1), &previous, 12, 10);
        assert_eq!(decision.blocked, Some(LookaheadBlock::OperandNotReady));
        // Once the value is ready strictly before the RA work cycle, go.
        let decision = decide_lookahead(&load(1), &previous, 9, 10);
        assert!(decision.anticipated);
    }

    #[test]
    fn absolute_addressing_needs_no_operands() {
        // Base r0: no address registers at all, so only the resource hazard
        // can block.
        let previous = summary_of(&alu(1), false);
        let decision = decide_lookahead(&load(0), &previous, 0, 1);
        assert!(decision.anticipated);
    }
}
