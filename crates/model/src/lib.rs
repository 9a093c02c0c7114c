//! Data model for modular (core-based) system-on-chip test architecture
//! optimization.
//!
//! This crate is the foundation of the `soctam` workspace, a reproduction of
//! Xu, Zhang and Chakrabarty, *"SOC Test Architecture Optimization for Signal
//! Integrity Faults on Core-External Interconnects"*, DAC 2007. It provides:
//!
//! * [`CoreSpec`] — the per-core test-set parameters the ITC'02 benchmark
//!   format carries (terminal counts, internal scan chains, InTest pattern
//!   count);
//! * [`Soc`] — an ordered collection of wrapped cores with a global
//!   *terminal space* that assigns every wrapper output cell (WOC) a unique
//!   [`TerminalId`], which the SI pattern machinery indexes into;
//! * [`parser`] — a tolerant reader/writer for the ITC'02 `.soc` exchange
//!   format, so real benchmark files can be loaded;
//! * [`benchmarks`] — embedded benchmark SOCs (`d695`, `p34392`, `p93791`
//!   reconstructions; see `DESIGN.md` for the substitution rationale);
//! * [`synth`] — a seeded random SOC generator for stress tests.
//!
//! # Example
//!
//! ```
//! use soctam_model::{Benchmark, CoreId};
//!
//! let soc = Benchmark::P93791.soc();
//! assert_eq!(soc.num_cores(), 32);
//! let first = soc.core(CoreId::new(0));
//! assert!(first.woc_count() > 0);
//! ```

pub mod benchmarks;
mod core_spec;
mod diag;
mod error;
mod ids;
pub mod parser;
mod soc;
pub mod synth;
pub mod topology;

pub use benchmarks::Benchmark;
pub use core_spec::CoreSpec;
pub use diag::{Diagnostic, Diagnostics};
pub use error::ModelError;
pub use ids::{BusLineId, CoreId, TerminalId};
pub use soc::Soc;
