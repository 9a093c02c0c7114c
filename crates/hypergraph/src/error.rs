//! Error type for hypergraph construction and partitioning.

use std::error::Error;
use std::fmt;

/// Errors produced by hypergraph construction and partitioning.
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum HypergraphError {
    /// A hyperedge referenced a vertex that does not exist (yet).
    PinOutOfRange {
        /// The offending vertex index.
        vertex: u32,
        /// Number of vertices currently in the builder.
        vertices: usize,
    },
    /// A hyperedge must contain at least one pin.
    EmptyEdge,
    /// A partition must have at least one part.
    ZeroParts,
    /// More parts were requested than there are vertices.
    PartsExceedVertices {
        /// Requested part count.
        parts: u32,
        /// Available vertex count.
        vertices: usize,
    },
    /// A partition assignment placed a vertex in a part that does not exist.
    PartOutOfRange {
        /// The vertex with the offending assignment.
        vertex: u32,
        /// The part it was assigned to.
        part: u32,
        /// Number of parts in the partition.
        parts: u32,
    },
    /// The imbalance tolerance must be non-negative and finite.
    InvalidImbalance {
        /// The offending value.
        imbalance: f64,
    },
}

impl fmt::Display for HypergraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HypergraphError::PinOutOfRange { vertex, vertices } => {
                write!(f, "pin {vertex} out of range for {vertices} vertices")
            }
            HypergraphError::EmptyEdge => write!(f, "hyperedge has no pins"),
            HypergraphError::ZeroParts => write!(f, "partition needs at least one part"),
            HypergraphError::PartsExceedVertices { parts, vertices } => {
                write!(f, "{parts} parts requested for only {vertices} vertices")
            }
            HypergraphError::PartOutOfRange {
                vertex,
                part,
                parts,
            } => {
                write!(
                    f,
                    "vertex {vertex} assigned to part {part}, but the partition has only {parts} parts"
                )
            }
            HypergraphError::InvalidImbalance { imbalance } => {
                write!(
                    f,
                    "imbalance tolerance {imbalance} is not a finite non-negative number"
                )
            }
        }
    }
}

impl Error for HypergraphError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let err = HypergraphError::PartsExceedVertices {
            parts: 8,
            vertices: 3,
        };
        assert!(err.to_string().contains('8'));
        assert!(err.to_string().contains('3'));
    }

    #[test]
    fn part_out_of_range_names_vertex_part_and_parts() {
        let err = HypergraphError::PartOutOfRange {
            vertex: 1,
            part: 5,
            parts: 2,
        };
        assert_eq!(
            err.to_string(),
            "vertex 1 assigned to part 5, but the partition has only 2 parts"
        );
    }
}
