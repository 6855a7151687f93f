//! The correctness checker behind `ops_failed`: every SAM record is held
//! against the read it answers and the reference it points into.

use bioseq::DnaSeq;
use swalign::banded_edit_distance;

use crate::gen::{reverse_complement, Read, REF_NAME};
use crate::spec::MAX_DIFFS;

/// What checking one SAM file found.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SamVerdict {
    /// Reads the SAM was checked against.
    pub reads: usize,
    /// Records with the unmapped flag clear.
    pub mapped: usize,
    /// Mapped records whose POS is the generator's truth position.
    pub at_truth: usize,
    /// Reads whose record is missing, malformed, or points at a locus more
    /// than `MAX_DIFFS` edits from the read.
    pub failed: usize,
    /// Why the first failed read failed.
    pub first_failure: Option<String>,
}

/// Read bases a CIGAR accounts for: M, I, S, = and X consume the read.
/// `None` for a malformed CIGAR.
pub fn cigar_read_len(cigar: &str) -> Option<usize> {
    let mut total = 0usize;
    let mut run = 0usize;
    let mut saw_digit = false;
    for c in cigar.bytes() {
        if c.is_ascii_digit() {
            run = run.checked_mul(10)?.checked_add(usize::from(c - b'0'))?;
            saw_digit = true;
            continue;
        }
        if !saw_digit {
            return None;
        }
        match c {
            b'M' | b'I' | b'S' | b'=' | b'X' => total = total.checked_add(run)?,
            b'D' | b'N' | b'H' | b'P' => {}
            _ => return None,
        }
        run = 0;
        saw_digit = false;
    }
    (!saw_digit && !cigar.is_empty()).then_some(total)
}

/// `true` when `seq` lies within `MAX_DIFFS` edits of some reference
/// window starting at `pos0` (an indel makes the window one or two bases
/// shorter or longer than the read).
fn locus_within_budget(genome: &[u8], pos0: usize, seq: &[u8]) -> bool {
    if genome.get(pos0..pos0 + seq.len()) == Some(seq) {
        return true;
    }
    let Ok(read) = std::str::from_utf8(seq).unwrap_or("").parse::<DnaSeq>() else {
        return false;
    };
    let spans = seq.len().saturating_sub(MAX_DIFFS).max(1)..=seq.len() + MAX_DIFFS;
    spans.into_iter().any(|span| {
        genome
            .get(pos0..pos0 + span)
            .and_then(|w| std::str::from_utf8(w).ok()?.parse::<DnaSeq>().ok())
            .is_some_and(|window| banded_edit_distance(&window, &read, MAX_DIFFS).is_some())
    })
}

/// Checks one record line against its read; `Ok(Some(pos0))` for a good
/// mapped record, `Ok(None)` for a good unmapped one.
fn check_record(line: &str, read: &Read, genome: &[u8]) -> Result<Option<usize>, String> {
    let f: Vec<&str> = line.split('\t').collect();
    if f.len() < 11 {
        return Err(format!("{} fields, SAM needs 11", f.len()));
    }
    if f[0] != read.id {
        return Err(format!("QNAME {} where {} was expected", f[0], read.id));
    }
    let flag: u16 = f[1].parse().map_err(|_| format!("FLAG {:?}", f[1]))?;
    let seq = f[9].as_bytes();
    let as_given = if flag & 0x10 != 0 {
        reverse_complement(seq)
    } else {
        seq.to_vec()
    };
    if as_given != read.seq {
        return Err("SEQ is not the read".to_owned());
    }
    if flag & 0x4 != 0 {
        return Ok(None);
    }
    if f[2] != REF_NAME {
        return Err(format!("RNAME {:?}", f[2]));
    }
    let pos1: usize = f[3].parse().map_err(|_| format!("POS {:?}", f[3]))?;
    if pos1 == 0 {
        return Err("mapped record with POS 0".to_owned());
    }
    // M + S + I (+ = + X) must account for every read base.
    if cigar_read_len(f[5]) != Some(seq.len()) {
        return Err(format!("CIGAR {:?} for a {}-base read", f[5], seq.len()));
    }
    if !locus_within_budget(genome, pos1 - 1, seq) {
        return Err(format!(
            "POS {pos1} is more than {MAX_DIFFS} edits from the read"
        ));
    }
    Ok(Some(pos1 - 1))
}

/// Checks a whole SAM document against the reads it should answer, in
/// order.
pub fn check_sam(sam: &str, reads: &[Read], genome: &[u8]) -> SamVerdict {
    let mut verdict = SamVerdict {
        reads: reads.len(),
        ..SamVerdict::default()
    };
    let mut records = sam.lines().filter(|l| !l.starts_with('@'));
    for read in reads {
        let outcome = match records.next() {
            Some(line) => check_record(line, read, genome),
            None => Err("record missing".to_owned()),
        };
        match outcome {
            Ok(Some(pos0)) => {
                verdict.mapped += 1;
                // A reverse-strand read's window starts where the forward
                // window does; an indel near the start may shift it.
                if pos0 == read.pos {
                    verdict.at_truth += 1;
                }
            }
            Ok(None) => {}
            Err(why) => {
                verdict.failed += 1;
                verdict
                    .first_failure
                    .get_or_insert_with(|| format!("{}: {why}", read.id));
            }
        }
    }
    if records.next().is_some() {
        verdict.failed += 1;
        verdict
            .first_failure
            .get_or_insert_with(|| "more records than reads".to_owned());
    }
    verdict
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;
    use crate::spec::{Profile, ReadSpec};

    #[test]
    fn cigar_identity_counts_read_consuming_ops() {
        assert_eq!(cigar_read_len("100M"), Some(100));
        assert_eq!(cigar_read_len("5S90M2I3M"), Some(100));
        assert_eq!(cigar_read_len("50M2D50M"), Some(100));
        assert_eq!(cigar_read_len("10=1X9="), Some(20));
        assert_eq!(cigar_read_len("*"), None);
        assert_eq!(cigar_read_len(""), None);
        assert_eq!(cigar_read_len("M"), None);
        assert_eq!(cigar_read_len("10M5"), None);
        assert_eq!(cigar_read_len("10Q"), None);
    }

    fn sam_line(r: &gen::Read, flag: u16, pos1: usize, cigar: &str) -> String {
        let seq = String::from_utf8(r.seq.clone()).unwrap();
        format!(
            "{}\t{flag}\t{REF_NAME}\t{pos1}\t60\t{cigar}\t*\t0\t0\t{seq}\t*\tNM:i:0",
            r.id
        )
    }

    #[test]
    fn verdict_separates_good_wrong_locus_malformed_and_missing() {
        let genome = gen::genome(5_000, 3);
        let spec = ReadSpec {
            count: 4,
            len: 60,
            profile: Profile::Clean,
            both_strands: false,
        };
        let reads = gen::reads(&genome, &spec, 3, "t");
        let far = (reads[1].pos + 1_000) % 4_000 + 1;
        let sam = [
            "@HD\tVN:1.6".to_owned(),
            sam_line(&reads[0], 0, reads[0].pos + 1, "60M"),
            sam_line(&reads[1], 0, far, "60M"),
            sam_line(&reads[2], 0, reads[2].pos + 1, "59M"),
        ]
        .join("\n");
        let v = check_sam(&sam, &reads, &genome);
        assert_eq!((v.reads, v.mapped, v.at_truth, v.failed), (4, 1, 1, 3));
        assert!(v.first_failure.unwrap().starts_with("r1: POS"));
    }

    #[test]
    fn a_read_with_two_edits_passes_and_an_unmapped_record_is_not_a_failure() {
        let genome = gen::genome(5_000, 4);
        let mut seq = genome[100..160].to_vec();
        seq[10] = if seq[10] == b'A' { b'C' } else { b'A' };
        seq.remove(40); // one deletion: the read now spans 61 reference bases
        seq.push(genome[160]);
        let read = gen::Read {
            id: "r0".to_owned(),
            seq,
            qual: vec![b'I'; 60],
            pos: 100,
            reverse: false,
            diffs: 2,
        };
        let ok = sam_line(&read, 0, 101, "60M");
        assert_eq!(
            check_sam(&ok, std::slice::from_ref(&read), &genome).failed,
            0
        );
        let seq = String::from_utf8(read.seq.clone()).unwrap();
        let unmapped = format!("r0\t4\t*\t0\t0\t*\t*\t0\t0\t{seq}\t*");
        let v = check_sam(&unmapped, std::slice::from_ref(&read), &genome);
        assert_eq!((v.mapped, v.failed), (0, 0));
    }
}
