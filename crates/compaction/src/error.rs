//! Error type for the compaction pipeline.

use std::error::Error;
use std::fmt;

use soctam_hypergraph::HypergraphError;
use soctam_patterns::PatternError;

/// Errors produced by the two-dimensional compaction pipeline.
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum CompactionError {
    /// A pattern was invalid for the SOC (forwarded from validation).
    Pattern(PatternError),
    /// Core partitioning failed (forwarded from the hypergraph crate).
    Partition(HypergraphError),
    /// The partition count is outside `1..=cores`.
    PartitionsOutOfRange {
        /// Requested partition count.
        partitions: u32,
        /// Cores available.
        cores: usize,
    },
    /// The exact cover is only feasible for small sets.
    SetTooLargeForExactCover {
        /// Patterns in the set.
        patterns: usize,
        /// Maximum supported by [`crate::compact_optimal`].
        limit: usize,
    },
    /// A deterministic failpoint fired (see `soctam_exec::fault`).
    FaultInjected {
        /// Name of the failpoint site that fired.
        site: String,
    },
}

impl fmt::Display for CompactionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompactionError::Pattern(e) => write!(f, "invalid pattern: {e}"),
            CompactionError::Partition(e) => write!(f, "core partitioning failed: {e}"),
            CompactionError::PartitionsOutOfRange { partitions, cores } => write!(
                f,
                "{partitions} partitions requested for {cores} cores; valid range is 1..={cores}"
            ),
            CompactionError::SetTooLargeForExactCover { patterns, limit } => write!(
                f,
                "exact clique cover supports at most {limit} patterns, got {patterns}"
            ),
            CompactionError::FaultInjected { site } => {
                write!(f, "injected fault at failpoint `{site}`")
            }
        }
    }
}

impl Error for CompactionError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CompactionError::Pattern(e) => Some(e),
            CompactionError::Partition(e) => Some(e),
            _ => None,
        }
    }
}

impl From<PatternError> for CompactionError {
    fn from(e: PatternError) -> Self {
        CompactionError::Pattern(e)
    }
}

impl From<HypergraphError> for CompactionError {
    fn from(e: HypergraphError) -> Self {
        CompactionError::Partition(e)
    }
}

impl From<soctam_exec::FaultError> for CompactionError {
    fn from(fault: soctam_exec::FaultError) -> Self {
        CompactionError::FaultInjected {
            site: fault.site().to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sources_chain() {
        let err = CompactionError::from(PatternError::InvalidConfig {
            message: "x".into(),
        });
        assert!(err.source().is_some());
        assert!(err.to_string().contains("invalid pattern"));
    }
}
