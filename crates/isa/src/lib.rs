//! A SPARC-V8-flavoured embedded RISC instruction set for the LAEC study.
//!
//! The LAEC paper evaluates on a cycle-accurate model of the NGMP (quad-core
//! LEON4, SPARC V8).  Neither the SPARC toolchain output of the EEMBC
//! Automotive suite nor the SoCLib model are available, so this crate defines
//! a small load/store ISA with the properties that matter for the study —
//! 32 general-purpose registers, register+offset addressing, single-register
//! ALU results, conditional branches — together with:
//!
//! * a typed, in-memory [`Instruction`] representation with def/use helpers
//!   the hazard logic in `laec-pipeline` consumes,
//! * precise functional [`semantics`] so kernels compute real results
//!   (fault-injection campaigns can check architectural state bit-for-bit),
//! * a fixed 32-bit binary [`encoding`] (so instruction caches hold real
//!   bytes and the encode/decode path is testable),
//! * a text [`assembler`] and a typed [`ProgramBuilder`]
//!   for writing workloads, and
//! * [`Program`], the unit the simulator executes.
//!
//! # Example
//!
//! ```
//! use laec_isa::{AluOp, Instruction, Program, Reg};
//!
//! # fn main() -> Result<(), laec_isa::AssembleError> {
//! let program = Program::assemble(
//!     r#"
//!         addi r1, r0, 40
//!         addi r2, r0, 2
//!     loop:
//!         add  r3, r1, r2
//!         subi r1, r1, 1
//!         bne  r1, r0, loop
//!         halt
//!     "#,
//! )?;
//! assert_eq!(program.len(), 6);
//! assert!(matches!(program.instruction(2),
//!     Instruction::Alu { op: AluOp::Add, rd, .. } if *rd == Reg::new(3)));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod assembler;
pub mod encoding;
pub mod instruction;
pub mod program;
pub mod reg;
pub mod semantics;

pub use assembler::AssembleError;
pub use encoding::{decode, encode, DecodeError};
pub use instruction::{AluOp, Cond, Instruction, MemWidth, Operand};
pub use program::{Program, ProgramBuilder};
pub use reg::{Reg, RegSet, RegisterFile, NUM_REGS};
pub use semantics::{eval_alu, eval_cond, sign_extend};
