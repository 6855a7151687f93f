//! Typed errors for the batch alignment entry points.

use std::fmt;

/// Why a batch alignment request could not run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AlignError {
    /// The read batch was empty.
    EmptyBatch,
    /// Zero worker threads were requested.
    NoThreads,
    /// One chunk held more reads than its fault-stream tokens can key
    /// apart from the next chunk's ([`EPOCH_STRIDE`](crate::EPOCH_STRIDE)).
    ChunkTooLong {
        /// Reads in the chunk.
        reads: usize,
        /// The most reads one chunk may hold.
        max: usize,
    },
}

impl fmt::Display for AlignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AlignError::EmptyBatch => write!(f, "batch must contain at least one read"),
            AlignError::NoThreads => write!(f, "at least one worker thread required"),
            AlignError::ChunkTooLong { reads, max } => {
                write!(f, "chunk of {reads} reads exceeds the {max}-read maximum")
            }
        }
    }
}

impl std::error::Error for AlignError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_render_human_messages() {
        assert_eq!(
            AlignError::EmptyBatch.to_string(),
            "batch must contain at least one read"
        );
        assert_eq!(
            AlignError::NoThreads.to_string(),
            "at least one worker thread required"
        );
        assert_eq!(
            AlignError::ChunkTooLong {
                reads: 65_537,
                max: 65_536
            }
            .to_string(),
            "chunk of 65537 reads exceeds the 65536-read maximum"
        );
    }
}
