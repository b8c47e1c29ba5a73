//! The instruction set: typed instruction representation and the def/use
//! queries the pipeline's hazard logic is built on.

use std::fmt;

use crate::reg::{Reg, RegSet};

/// Width of a memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum MemWidth {
    /// 8-bit access.
    Byte,
    /// 16-bit access.
    Half,
    /// 32-bit access.
    #[default]
    Word,
}

impl MemWidth {
    /// Size of the access in bytes.
    #[must_use]
    pub fn bytes(self) -> u32 {
        match self {
            MemWidth::Byte => 1,
            MemWidth::Half => 2,
            MemWidth::Word => 4,
        }
    }
}

/// Integer ALU operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AluOp {
    /// Addition (wrapping).
    Add,
    /// Subtraction (wrapping).
    Sub,
    /// Bitwise AND.
    And,
    /// Bitwise OR.
    Or,
    /// Bitwise XOR.
    Xor,
    /// Logical shift left (by the low 5 bits of the second operand).
    Sll,
    /// Logical shift right.
    Srl,
    /// Arithmetic shift right.
    Sra,
    /// Signed multiplication (low 32 bits).
    Mul,
    /// Set-if-less-than, signed (result 0 or 1).
    Slt,
    /// Set-if-less-than, unsigned (result 0 or 1).
    Sltu,
}

impl AluOp {
    /// All operations, for exhaustive tests and random program generation.
    #[must_use]
    pub fn all() -> &'static [AluOp] {
        &[
            AluOp::Add,
            AluOp::Sub,
            AluOp::And,
            AluOp::Or,
            AluOp::Xor,
            AluOp::Sll,
            AluOp::Srl,
            AluOp::Sra,
            AluOp::Mul,
            AluOp::Slt,
            AluOp::Sltu,
        ]
    }

    /// Mnemonic used by the assembler/disassembler (register form).
    #[must_use]
    pub fn mnemonic(self) -> &'static str {
        match self {
            AluOp::Add => "add",
            AluOp::Sub => "sub",
            AluOp::And => "and",
            AluOp::Or => "or",
            AluOp::Xor => "xor",
            AluOp::Sll => "sll",
            AluOp::Srl => "srl",
            AluOp::Sra => "sra",
            AluOp::Mul => "mul",
            AluOp::Slt => "slt",
            AluOp::Sltu => "sltu",
        }
    }
}

/// Branch conditions, evaluated over two register operands.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Cond {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Signed less-than.
    Lt,
    /// Signed greater-or-equal.
    Ge,
    /// Unsigned less-than.
    Ltu,
    /// Unsigned greater-or-equal.
    Geu,
}

impl Cond {
    /// All conditions.
    #[must_use]
    pub fn all() -> &'static [Cond] {
        &[Cond::Eq, Cond::Ne, Cond::Lt, Cond::Ge, Cond::Ltu, Cond::Geu]
    }

    /// Branch mnemonic (e.g. `beq`).
    #[must_use]
    pub fn mnemonic(self) -> &'static str {
        match self {
            Cond::Eq => "beq",
            Cond::Ne => "bne",
            Cond::Lt => "blt",
            Cond::Ge => "bge",
            Cond::Ltu => "bltu",
            Cond::Geu => "bgeu",
        }
    }
}

/// Second source operand of an ALU operation: a register or a 16-bit
/// sign-extended immediate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Operand {
    /// Register operand.
    Reg(Reg),
    /// Immediate operand (sign-extended from 16 bits at encode time).
    Imm(i32),
}

impl Operand {
    /// The register, if this is a register operand.
    #[must_use]
    pub fn as_reg(self) -> Option<Reg> {
        match self {
            Operand::Reg(reg) => Some(reg),
            Operand::Imm(_) => None,
        }
    }
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand::Reg(reg) => write!(f, "{reg}"),
            Operand::Imm(imm) => write!(f, "{imm}"),
        }
    }
}

/// One machine instruction.
///
/// Branch/jump targets are *instruction indices* into the owning
/// [`Program`](crate::Program) (the instruction memory is word-addressed with
/// 4-byte instructions; index `i` lives at byte address `4 * i`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Instruction {
    /// Register/immediate ALU operation: `rd = op(rs1, operand)`.
    Alu {
        /// Operation.
        op: AluOp,
        /// Destination register.
        rd: Reg,
        /// First source register.
        rs1: Reg,
        /// Second source operand.
        operand: Operand,
    },
    /// Load: `rd = mem[rs(base) + offset]`.
    Load {
        /// Access width.
        width: MemWidth,
        /// Destination register.
        rd: Reg,
        /// Base address register.
        base: Reg,
        /// Byte offset added to the base register.
        offset: i16,
    },
    /// Store: `mem[rs(base) + offset] = src`.
    Store {
        /// Access width.
        width: MemWidth,
        /// Register holding the value to store.
        src: Reg,
        /// Base address register.
        base: Reg,
        /// Byte offset added to the base register.
        offset: i16,
    },
    /// Conditional branch to instruction index `target` if `cond(rs1, rs2)`.
    Branch {
        /// Condition.
        cond: Cond,
        /// First compared register.
        rs1: Reg,
        /// Second compared register.
        rs2: Reg,
        /// Target instruction index.
        target: u32,
    },
    /// Unconditional jump to instruction index `target`.
    Jump {
        /// Target instruction index.
        target: u32,
    },
    /// Jump to `target`, writing the return index (current + 1) to `link`.
    Call {
        /// Target instruction index.
        target: u32,
        /// Link register receiving the return instruction index.
        link: Reg,
    },
    /// Indirect jump to the instruction index held in `target` (returns).
    JumpReg {
        /// Register holding the target instruction index.
        target: Reg,
    },
    /// No operation.
    Nop,
    /// Stop the program.
    Halt,
}

impl Instruction {
    /// Destination register written by this instruction, if any.
    #[must_use]
    pub fn def(&self) -> Option<Reg> {
        match *self {
            Instruction::Alu { rd, .. } | Instruction::Load { rd, .. } => {
                (!rd.is_zero()).then_some(rd)
            }
            Instruction::Call { link, .. } => (!link.is_zero()).then_some(link),
            _ => None,
        }
    }

    /// Source registers read by this instruction (up to two; `r0` excluded
    /// because it never creates a dependence).
    #[must_use]
    pub fn uses(&self) -> RegSet {
        let mut used = RegSet::EMPTY;
        let mut push = |reg: Reg| {
            if !reg.is_zero() {
                used.insert(reg);
            }
        };
        match *self {
            Instruction::Alu { rs1, operand, .. } => {
                push(rs1);
                if let Operand::Reg(rs2) = operand {
                    push(rs2);
                }
            }
            Instruction::Load { base, .. } => push(base),
            Instruction::Store { src, base, .. } => {
                push(src);
                push(base);
            }
            Instruction::Branch { rs1, rs2, .. } => {
                push(rs1);
                push(rs2);
            }
            Instruction::JumpReg { target } => push(target),
            Instruction::Jump { .. }
            | Instruction::Call { .. }
            | Instruction::Nop
            | Instruction::Halt => {}
        }
        used
    }

    /// Registers used to form a memory *address* (the load/store base).
    ///
    /// LAEC's data-hazard test (paper §III.A condition 2) only cares about
    /// the address registers of the load: the loaded-value consumer hazard is
    /// handled separately by the pipeline's bypass/stall logic.
    #[must_use]
    pub fn address_uses(&self) -> RegSet {
        let mut used = RegSet::EMPTY;
        if let Instruction::Load { base, .. } | Instruction::Store { base, .. } = *self {
            if !base.is_zero() {
                used.insert(base);
            }
        }
        used
    }

    /// `true` for loads.
    #[must_use]
    pub fn is_load(&self) -> bool {
        matches!(self, Instruction::Load { .. })
    }

    /// `true` for stores.
    #[must_use]
    pub fn is_store(&self) -> bool {
        matches!(self, Instruction::Store { .. })
    }

    /// `true` for any memory access.
    #[must_use]
    pub fn is_mem(&self) -> bool {
        self.is_load() || self.is_store()
    }

    /// `true` for control-flow instructions (branches, jumps, calls, returns).
    #[must_use]
    pub fn is_control(&self) -> bool {
        matches!(
            self,
            Instruction::Branch { .. }
                | Instruction::Jump { .. }
                | Instruction::Call { .. }
                | Instruction::JumpReg { .. }
        )
    }

    /// `true` for the halt instruction.
    #[must_use]
    pub fn is_halt(&self) -> bool {
        matches!(self, Instruction::Halt)
    }

    /// `true` if `self` reads the register written by `producer`
    /// (read-after-write dependence).
    #[must_use]
    pub fn depends_on(&self, producer: &Instruction) -> bool {
        match producer.def() {
            Some(def) => self.uses().contains(def),
            None => false,
        }
    }

    /// `true` if `self`'s *address* registers depend on the register written
    /// by `producer` — the hazard that blocks LAEC's look-ahead when
    /// `producer` is the immediately preceding instruction.
    #[must_use]
    pub fn address_depends_on(&self, producer: &Instruction) -> bool {
        match producer.def() {
            Some(def) => self.address_uses().contains(def),
            None => false,
        }
    }
}

impl fmt::Display for Instruction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Instruction::Alu {
                op,
                rd,
                rs1,
                operand,
            } => match operand {
                Operand::Reg(_) => write!(f, "{} {rd}, {rs1}, {operand}", op.mnemonic()),
                Operand::Imm(_) => write!(f, "{}i {rd}, {rs1}, {operand}", op.mnemonic()),
            },
            Instruction::Load {
                width,
                rd,
                base,
                offset,
            } => {
                let m = match width {
                    MemWidth::Byte => "ldb",
                    MemWidth::Half => "ldh",
                    MemWidth::Word => "ld",
                };
                write!(f, "{m} {rd}, [{base} + {offset}]")
            }
            Instruction::Store {
                width,
                src,
                base,
                offset,
            } => {
                let m = match width {
                    MemWidth::Byte => "stb",
                    MemWidth::Half => "sth",
                    MemWidth::Word => "st",
                };
                write!(f, "{m} {src}, [{base} + {offset}]")
            }
            Instruction::Branch {
                cond,
                rs1,
                rs2,
                target,
            } => write!(f, "{} {rs1}, {rs2}, @{target}", cond.mnemonic()),
            Instruction::Jump { target } => write!(f, "jmp @{target}"),
            Instruction::Call { target, link } => write!(f, "call @{target}, {link}"),
            Instruction::JumpReg { target } => write!(f, "jr {target}"),
            Instruction::Nop => f.write_str("nop"),
            Instruction::Halt => f.write_str("halt"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reg(i: u8) -> Reg {
        Reg::new(i)
    }

    fn regs(set: RegSet) -> Vec<Reg> {
        set.iter().collect()
    }

    #[test]
    fn mem_width_bytes() {
        assert_eq!(MemWidth::Byte.bytes(), 1);
        assert_eq!(MemWidth::Half.bytes(), 2);
        assert_eq!(MemWidth::Word.bytes(), 4);
    }

    #[test]
    fn def_and_uses_for_alu() {
        let add = Instruction::Alu {
            op: AluOp::Add,
            rd: reg(3),
            rs1: reg(1),
            operand: Operand::Reg(reg(2)),
        };
        assert_eq!(add.def(), Some(reg(3)));
        assert_eq!(regs(add.uses()), vec![reg(1), reg(2)]);
        let addi = Instruction::Alu {
            op: AluOp::Add,
            rd: reg(3),
            rs1: reg(1),
            operand: Operand::Imm(5),
        };
        assert_eq!(regs(addi.uses()), vec![reg(1)]);
    }

    #[test]
    fn r0_never_creates_dependences() {
        let to_zero = Instruction::Alu {
            op: AluOp::Add,
            rd: Reg::ZERO,
            rs1: reg(1),
            operand: Operand::Imm(1),
        };
        assert_eq!(to_zero.def(), None);
        let from_zero = Instruction::Load {
            width: MemWidth::Word,
            rd: reg(2),
            base: Reg::ZERO,
            offset: 16,
        };
        assert!(from_zero.uses().is_empty());
        assert!(from_zero.address_uses().is_empty());
    }

    #[test]
    fn duplicate_source_registers_are_deduplicated() {
        let add = Instruction::Alu {
            op: AluOp::Add,
            rd: reg(3),
            rs1: reg(4),
            operand: Operand::Reg(reg(4)),
        };
        assert_eq!(regs(add.uses()), vec![reg(4)]);
        let st = Instruction::Store {
            width: MemWidth::Word,
            src: reg(7),
            base: reg(7),
            offset: 0,
        };
        assert_eq!(regs(st.uses()), vec![reg(7)]);
    }

    #[test]
    fn load_store_classification_and_uses() {
        let ld = Instruction::Load {
            width: MemWidth::Word,
            rd: reg(5),
            base: reg(6),
            offset: -4,
        };
        assert!(ld.is_load() && ld.is_mem() && !ld.is_store());
        assert_eq!(ld.def(), Some(reg(5)));
        assert_eq!(regs(ld.address_uses()), vec![reg(6)]);
        let st = Instruction::Store {
            width: MemWidth::Half,
            src: reg(2),
            base: reg(3),
            offset: 8,
        };
        assert!(st.is_store() && st.is_mem() && !st.is_load());
        assert_eq!(st.def(), None);
        assert_eq!(regs(st.uses()), vec![reg(2), reg(3)]);
    }

    #[test]
    fn control_flow_classification() {
        let br = Instruction::Branch {
            cond: Cond::Eq,
            rs1: reg(1),
            rs2: reg(2),
            target: 10,
        };
        assert!(br.is_control());
        assert_eq!(br.def(), None);
        assert_eq!(regs(br.uses()), vec![reg(1), reg(2)]);
        let call = Instruction::Call {
            target: 4,
            link: reg(31),
        };
        assert!(call.is_control());
        assert_eq!(call.def(), Some(reg(31)));
        let jr = Instruction::JumpReg { target: reg(31) };
        assert_eq!(regs(jr.uses()), vec![reg(31)]);
        assert!(Instruction::Jump { target: 0 }.is_control());
        assert!(!Instruction::Nop.is_control());
        assert!(Instruction::Halt.is_halt());
    }

    #[test]
    fn raw_dependence_detection() {
        let producer = Instruction::Alu {
            op: AluOp::Add,
            rd: reg(1),
            rs1: reg(2),
            operand: Operand::Imm(4),
        };
        let load = Instruction::Load {
            width: MemWidth::Word,
            rd: reg(3),
            base: reg(1),
            offset: 0,
        };
        let consumer = Instruction::Alu {
            op: AluOp::Add,
            rd: reg(5),
            rs1: reg(3),
            operand: Operand::Reg(reg(4)),
        };
        assert!(load.depends_on(&producer));
        assert!(load.address_depends_on(&producer));
        assert!(consumer.depends_on(&load));
        assert!(!consumer.address_depends_on(&load));
        assert!(!producer.depends_on(&load));
    }

    #[test]
    fn display_round_trips_mnemonics() {
        let ld = Instruction::Load {
            width: MemWidth::Word,
            rd: reg(3),
            base: reg(1),
            offset: 8,
        };
        assert_eq!(ld.to_string(), "ld r3, [r1 + 8]");
        let addi = Instruction::Alu {
            op: AluOp::Add,
            rd: reg(1),
            rs1: reg(0),
            operand: Operand::Imm(-3),
        };
        assert_eq!(addi.to_string(), "addi r1, r0, -3");
        assert_eq!(Instruction::Nop.to_string(), "nop");
        assert_eq!(
            Instruction::Branch {
                cond: Cond::Ne,
                rs1: reg(1),
                rs2: reg(0),
                target: 2
            }
            .to_string(),
            "bne r1, r0, @2"
        );
    }

    #[test]
    fn enumerations_are_complete() {
        assert_eq!(AluOp::all().len(), 11);
        assert_eq!(Cond::all().len(), 6);
        assert_eq!(Operand::Reg(reg(1)).as_reg(), Some(reg(1)));
        assert_eq!(Operand::Imm(3).as_reg(), None);
    }
}
