//! A multilevel k-way hypergraph partitioner.
//!
//! The DAC'07 paper formulates its horizontal SI test compaction as a
//! hypergraph partitioning problem and reuses the hMetis package. hMetis is
//! proprietary and unavailable here, so this crate implements the same
//! algorithm family from scratch:
//!
//! 1. **Coarsening** — heavy-edge vertex matching contracts the hypergraph
//!    until it is small;
//! 2. **Initial partitioning** — randomized greedy region growing on the
//!    coarsest level, best of several seeds;
//! 3. **Uncoarsening + FM refinement** — the Fiduccia–Mattheyses pass with
//!    rollback to the best prefix, at every level;
//! 4. **k-way** — recursive bisection with proportional weight targets.
//!
//! The objective is the weighted cut (total weight of hyperedges spanning
//! more than one part) under a vertex-weight balance constraint.
//!
//! # Example
//!
//! ```
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! use soctam_hypergraph::{HypergraphBuilder, PartitionConfig};
//!
//! // Two naturally separable clusters {0,1,2} and {3,4,5} plus one
//! // straddling edge.
//! let mut b = HypergraphBuilder::new();
//! for _ in 0..6 {
//!     b.add_vertex(1);
//! }
//! b.add_edge(10, &[0, 1, 2])?;
//! b.add_edge(10, &[3, 4, 5])?;
//! b.add_edge(1, &[2, 3])?;
//! let hg = b.build();
//! let partition = hg.partition(&PartitionConfig::new(2))?;
//! assert_eq!(partition.cut_weight(&hg), 1);
//! # Ok(())
//! # }
//! ```

mod bisect;
mod coarsen;
mod error;
mod fm;
mod graph;
mod partition;

pub use error::HypergraphError;
pub use graph::{Hypergraph, HypergraphBuilder};
pub use partition::{Partition, PartitionConfig};
