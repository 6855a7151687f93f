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
    /// A read is longer than the shard overlap can guarantee to cover:
    /// a hit starting near the end of a shard's owned window would run
    /// past the shard's slice and be silently missed. The overlap must
    /// be at least `read_len + max_diffs`.
    ReadExceedsShardOverlap {
        /// Length of the offending read (bases).
        read_len: usize,
        /// The largest read length the shard overlap covers
        /// (`overlap - max_diffs`).
        budget: usize,
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
            AlignError::ReadExceedsShardOverlap { read_len, budget } => write!(
                f,
                "read of {read_len} bases exceeds the shard overlap budget \
                 ({budget} bases max); rebuild the artifact with a larger \
                 --shard-overlap"
            ),
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
        let e = AlignError::ReadExceedsShardOverlap {
            read_len: 200,
            budget: 125,
        };
        assert!(e.to_string().contains("200 bases"));
        assert!(e.to_string().contains("125 bases max"));
    }
}
