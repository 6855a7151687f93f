//! SAM-format output (beyond-paper extension).
//!
//! "Most genomic pipelines rely on the alignment of sequencing reads"
//! (§I) — and those pipelines consume SAM. This module renders platform
//! outcomes as SAM records so downstream tooling can be driven directly
//! from the simulator (see the `pimalign` CLI binary).

use std::fmt::Write as _;

use bioseq::quality::QualityString;
use bioseq::DnaSeq;

use crate::aligner::{AlignmentOutcome, MappedStrand};

/// SAM FLAG bits used by this writer.
pub mod flags {
    /// Segment unmapped.
    pub const UNMAPPED: u16 = 0x4;
    /// Sequence reverse-complemented in the alignment.
    pub const REVERSE: u16 = 0x10;
}

/// One SAM alignment line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SamRecord {
    /// Query (read) name.
    pub qname: String,
    /// Bitwise flags.
    pub flag: u16,
    /// Reference name (`*` when unmapped).
    pub rname: String,
    /// 1-based leftmost mapping position (0 when unmapped).
    pub pos: usize,
    /// Mapping quality.
    pub mapq: u8,
    /// CIGAR string (`*` when unmapped).
    pub cigar: String,
    /// Read sequence (as aligned: reverse-complemented for reverse hits).
    pub seq: String,
    /// Quality string (`*` when absent).
    pub qual: String,
    /// Edit distance of a mapped read (`NM:i:` tag): 0 for an exact hit,
    /// otherwise the fewest differences the read aligns with — the
    /// inexact stage accepts a hit at the smallest budget that has one.
    pub edit_distance: Option<u8>,
}

impl SamRecord {
    /// Renders the record as one SAM line (no trailing newline).
    pub fn to_line(&self) -> String {
        let mut line = String::new();
        write!(
            line,
            "{}\t{}\t{}\t{}\t{}\t{}\t*\t0\t0\t{}\t{}",
            self.qname, self.flag, self.rname, self.pos, self.mapq, self.cigar, self.seq, self.qual
        )
        .expect("write to String");
        if let Some(nm) = self.edit_distance {
            write!(line, "\tNM:i:{nm}").expect("write to String");
        }
        line
    }
}

/// The SAM header for a single-reference alignment run.
pub fn header(reference_name: &str, reference_len: usize) -> String {
    format!(
        "@HD\tVN:1.6\tSO:unknown\n@SQ\tSN:{reference_name}\tLN:{reference_len}\n@PG\tID:pim-aligner\tPN:pim-aligner\n"
    )
}

/// Mapping quality from hit multiplicity: a unique hit is confident
/// (Q60); two equally good hits leave ~50 % error probability (Q3); more
/// are unresolvable (Q0).
pub fn mapq_for(hit_count: usize) -> u8 {
    match hit_count {
        0 => 0,
        1 => 60,
        2 => 3,
        _ => 0,
    }
}

/// Builds the SAM record for one aligned read.
///
/// The primary position is the first (lowest) hit; multiplicity feeds
/// [`mapq_for`]. Substitution-only differences stay inside a single `M`
/// run per the SAM specification (`M` = alignment match *or* mismatch);
/// the edit distance is carried in `NM:i:`.
pub fn record_for(
    qname: &str,
    reference_name: &str,
    read: &DnaSeq,
    quality: Option<&QualityString>,
    outcome: &AlignmentOutcome,
    strand: MappedStrand,
) -> SamRecord {
    match outcome {
        AlignmentOutcome::Unmapped => SamRecord {
            qname: qname.to_owned(),
            flag: flags::UNMAPPED,
            rname: "*".to_owned(),
            pos: 0,
            mapq: 0,
            cigar: "*".to_owned(),
            seq: read.to_string(),
            qual: quality.map_or_else(|| "*".to_owned(), QualityString::to_fastq),
            edit_distance: None,
        },
        AlignmentOutcome::Exact { positions } | AlignmentOutcome::Inexact { positions, .. } => {
            let diffs = match outcome {
                AlignmentOutcome::Inexact { diffs, .. } => *diffs,
                _ => 0,
            };
            let mut flag = 0u16;
            // SAM stores SEQ/QUAL in reference orientation: a 0x10 record
            // carries the reverse complement of the read as sequenced,
            // with the quality string reversed to match.
            let (seq, qual) = match strand {
                MappedStrand::Forward => (
                    read.to_string(),
                    quality.map_or_else(|| "*".to_owned(), QualityString::to_fastq),
                ),
                MappedStrand::Reverse => {
                    flag |= flags::REVERSE;
                    (
                        read.reverse_complement().to_string(),
                        quality.map_or_else(|| "*".to_owned(), |q| q.reversed().to_fastq()),
                    )
                }
            };
            SamRecord {
                qname: qname.to_owned(),
                flag,
                rname: reference_name.to_owned(),
                pos: positions.first().map_or(0, |p| p + 1),
                mapq: mapq_for(positions.len()),
                cigar: format!("{}M", read.len()),
                seq,
                qual,
                edit_distance: Some(diffs),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn read() -> DnaSeq {
        "ACGTACGT".parse().unwrap()
    }

    #[test]
    fn exact_unique_hit_record() {
        let outcome = AlignmentOutcome::Exact {
            positions: vec![41],
        };
        let r = record_for("r1", "chr1", &read(), None, &outcome, MappedStrand::Forward);
        assert_eq!(r.flag, 0);
        assert_eq!(r.pos, 42, "SAM positions are 1-based");
        assert_eq!(r.mapq, 60);
        assert_eq!(r.cigar, "8M");
        assert_eq!(r.edit_distance, Some(0));
        let line = r.to_line();
        assert!(line.starts_with("r1\t0\tchr1\t42\t60\t8M\t*\t0\t0\tACGTACGT\t*"));
        assert!(line.ends_with("NM:i:0"));
    }

    #[test]
    fn multi_hit_lowers_mapq() {
        let outcome = AlignmentOutcome::Exact {
            positions: vec![10, 50, 90],
        };
        let r = record_for("r2", "chr1", &read(), None, &outcome, MappedStrand::Forward);
        assert_eq!(r.pos, 11);
        assert_eq!(r.mapq, 0);
    }

    #[test]
    fn inexact_carries_edit_distance() {
        let outcome = AlignmentOutcome::Inexact {
            positions: vec![7],
            diffs: 2,
        };
        let r = record_for("r3", "chr1", &read(), None, &outcome, MappedStrand::Reverse);
        assert_eq!(r.flag & flags::REVERSE, flags::REVERSE);
        assert_eq!(r.edit_distance, Some(2));
        assert!(r.to_line().contains("NM:i:2"));
    }

    #[test]
    fn reverse_record_reverse_complements_seq_and_reverses_qual() {
        use bioseq::quality::Phred;
        // Non-palindromic read so the orientation bug is visible.
        let read: DnaSeq = "AAACCG".parse().unwrap();
        assert_ne!(read.reverse_complement(), read);
        let quality: QualityString = (10..16).map(Phred::new).collect();
        let outcome = AlignmentOutcome::Exact { positions: vec![4] };
        let r = record_for(
            "r5",
            "chr1",
            &read,
            Some(&quality),
            &outcome,
            MappedStrand::Reverse,
        );
        assert_eq!(r.flag & flags::REVERSE, flags::REVERSE);
        assert_eq!(r.seq, "CGGTTT", "SEQ must be the reverse complement");
        assert_eq!(
            r.qual,
            quality.reversed().to_fastq(),
            "QUAL must be reversed"
        );
        // Forward records are untouched.
        let f = record_for(
            "r5",
            "chr1",
            &read,
            Some(&quality),
            &outcome,
            MappedStrand::Forward,
        );
        assert_eq!(f.seq, "AAACCG");
        assert_eq!(f.qual, quality.to_fastq());
    }

    #[test]
    fn unmapped_record_keeps_read_orientation() {
        // An unmapped read has no alignment orientation: SEQ stays as
        // sequenced even though the both-strands path tried the reverse
        // complement too.
        let read: DnaSeq = "AAACCG".parse().unwrap();
        let r = record_for(
            "r6",
            "chr1",
            &read,
            None,
            &AlignmentOutcome::Unmapped,
            MappedStrand::Forward,
        );
        assert_eq!(r.seq, "AAACCG");
        assert_eq!(r.flag, flags::UNMAPPED);
    }

    #[test]
    fn unmapped_record_uses_stars() {
        let r = record_for(
            "r4",
            "chr1",
            &read(),
            None,
            &AlignmentOutcome::Unmapped,
            MappedStrand::Forward,
        );
        assert_eq!(r.flag, flags::UNMAPPED);
        assert_eq!(r.rname, "*");
        assert_eq!(r.pos, 0);
        assert_eq!(r.cigar, "*");
        assert_eq!(r.edit_distance, None);
    }

    #[test]
    fn header_names_reference() {
        let h = header("chrT", 1234);
        assert!(h.contains("SN:chrT"));
        assert!(h.contains("LN:1234"));
        assert!(h.lines().all(|l| l.starts_with('@')));
    }

    #[test]
    fn mapq_scale() {
        assert_eq!(mapq_for(1), 60);
        assert_eq!(mapq_for(2), 3);
        assert_eq!(mapq_for(7), 0);
        assert_eq!(mapq_for(0), 0);
    }
}
