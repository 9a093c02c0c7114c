//! Bit-level tester-program generation and cycle-accurate simulation.
//!
//! Everything else in this workspace computes test times *analytically*
//! (closed-form wrapper formulas, per-pattern shift costs). This crate is
//! the independent cross-check: it builds the actual per-rail tester
//! program — the bit streams an ATE would drive down each TestRail — by
//! **simulating the shifting cycle by cycle**, and reports how long each
//! phase really took.
//!
//! The headline invariant, enforced by tests across benchmarks and random
//! SOCs: the simulated cycle counts equal the analytic
//! [`Evaluator`](soctam_tam::Evaluator) results **exactly** — the
//! closed-form model and the bit-level machine agree.
//!
//! # Example
//!
//! ```
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! use soctam_compaction::{compact_two_dimensional, CompactionConfig};
//! use soctam_model::Benchmark;
//! use soctam_patterns::{RandomPatternConfig, SiPatternSet};
//! use soctam_tam::TestRailArchitecture;
//! use soctam_tester::simulate;
//!
//! let soc = Benchmark::D695.soc();
//! let raw = SiPatternSet::random(&soc, &RandomPatternConfig::new(500))?;
//! let compacted = compact_two_dimensional(&soc, &raw, &CompactionConfig::new(2))?;
//! let arch = TestRailArchitecture::single_rail(&soc, 8)?;
//! let report = simulate(&soc, &arch, compacted.groups(), false)?;
//! assert_eq!(report.t_total(), report.t_in + report.t_si);
//! assert!(report.bits_driven > 0);
//! # Ok(())
//! # }
//! ```

mod error;
mod program;

pub use error::TesterError;
pub use program::{simulate, RailStream, SimulationReport};
