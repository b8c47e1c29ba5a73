//! Evaluation workloads for the LAEC study.
//!
//! The paper evaluates on the EEMBC Automotive 1.1 suite, which is
//! proprietary.  This crate substitutes it with two workload families (the
//! substitution is documented in the repository's `EXPERIMENTS.md`):
//!
//! * [`suite::eembc_suite`] — sixteen synthetic workloads, one per EEMBC
//!   benchmark, generated from profiles calibrated against the paper's
//!   Table II statistics (fraction of loads, DL1 hit rate, dependent-load
//!   fraction) plus the §IV.A qualitative statements about which benchmarks
//!   block the LAEC look-ahead; these drive the Table II and Figure 8
//!   reproductions,
//! * [`suite::kernel_suite`] — hand-written kernels (vector sum, matrix
//!   multiply, FIR filter, table lookup, pointer chase, bit counting, cache
//!   buster) that compute checkable results and exercise real control flow,
//!   used by the examples, integration tests and fault-injection campaigns.
//!
//! # Example
//!
//! ```
//! use laec_workloads::{eembc_suite, GeneratorConfig};
//!
//! let suite = eembc_suite(&GeneratorConfig::smoke());
//! assert_eq!(suite.len(), 16);
//! assert_eq!(suite[10].name, "matrix");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod generator;
pub mod kernels;
pub mod profile;
pub mod smp;
pub mod suite;

pub use generator::{generate, GeneratorConfig, HIT_REGION_BASE, MISS_REGION_BASE};
pub use profile::{average_profile, eembc_profiles, profile_by_name, WorkloadProfile};
pub use smp::{
    background_traffic, false_sharing, parallel_reduction, producer_consumer, smp_kernel,
    smp_suite, SmpWorkload, SMP_KERNEL_NAMES,
};
pub use suite::{eembc_suite, eembc_workload, kernel_suite, Workload, KERNEL_NAMES};
