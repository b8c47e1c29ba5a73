//! Cycle-accurate in-order pipeline model with the paper's DL1-ECC schemes.
//!
//! This crate is the primary contribution of the reproduction: an NGMP-like
//! (LEON4-class) single-issue, in-order, 7/8-stage pipeline model that runs
//! real programs from [`laec_isa`] against the memory hierarchy of
//! [`laec_mem`] under five DL1 error-correction deployment schemes:
//!
//! | scheme | paper | behaviour |
//! |--------|-------|-----------|
//! | [`EccScheme::NoEcc`] | baseline | loads deliver at end of Memory |
//! | [`EccScheme::ExtraCycle`] | §III.C | two-cycle Memory stage on DL1 load hits |
//! | [`EccScheme::ExtraStage`] | §III.D | dedicated ECC stage after Memory |
//! | [`EccScheme::Laec`] | §III.E | look-ahead: address in RA, DL1 in Exe, ECC in M when safe |
//! | [`EccScheme::SpeculateFlush`] | §II.B(4) | deliver unchecked, flush on error (ablation) |
//!
//! The [`Simulator`] — one [`Core`] over the one-core hierarchy it owns —
//! reproduces the stall patterns of the paper's chronograms (Figures 2–5
//! and 7) exactly — see the unit tests in [`simulator`] — and produces the
//! statistics behind Table II and Figure 8.  A [`Core`] borrows its
//! hierarchy for each step, so `laec_smp` steps N of them over one shared
//! hierarchy.
//!
//! # Example
//!
//! ```
//! use laec_isa::Program;
//! use laec_pipeline::{EccScheme, PipelineConfig, Simulator};
//!
//! # fn main() -> Result<(), laec_isa::AssembleError> {
//! let program = Program::assemble(
//!     r#"
//!         addi r1, r0, 0x100
//!         ld   r2, [r1 + 0]
//!         add  r3, r2, r1
//!         halt
//!     "#,
//! )?;
//! let laec = Simulator::run(program.clone(), PipelineConfig::laec());
//! let ideal = Simulator::run(program, PipelineConfig::no_ecc());
//! assert!(laec.stats.cycles >= ideal.stats.cycles);
//! assert_eq!(laec.registers, ideal.registers);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chronogram;
pub mod config;
pub mod hazards;
pub mod scheme;
pub mod simulator;
pub mod stage;
pub mod stats;

pub use chronogram::{Chronogram, TraceEntry};
pub use config::PipelineConfig;
pub use hazards::{decide_lookahead, LookaheadBlock, LookaheadDecision, PreviousInstruction};
pub use scheme::{EccScheme, ParseSchemeError};
pub use simulator::{Core, SimResult, Simulator};
pub use stage::Stage;
pub use stats::PipelineStats;
