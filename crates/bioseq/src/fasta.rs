//! Minimal FASTA reading and writing.
//!
//! Supports the subset of FASTA used by the workspace: `>`-headed records
//! whose sequences contain only `A/C/G/T` (case-insensitive), possibly
//! wrapped over multiple lines.
//!
//! # Examples
//!
//! ```
//! use bioseq::fasta;
//!
//! # fn main() -> Result<(), bioseq::ParseSeqError> {
//! let text = ">chr1 toy\nTGCTA\n>chr2\nACGT\nACGT\n";
//! let records = fasta::parse(text)?;
//! assert_eq!(records.len(), 2);
//! assert_eq!(records[0].id(), "chr1");
//! assert_eq!(records[1].seq().to_string(), "ACGTACGT");
//!
//! let round_trip = fasta::to_string(&records);
//! assert_eq!(fasta::parse(&round_trip)?, records);
//!
//! // The same records, read line by line from any buffered source.
//! assert_eq!(fasta::read(text.as_bytes())?, records);
//! # Ok(())
//! # }
//! ```

use std::fmt::Write as _;
use std::io::BufRead;

use crate::{PackedSeq, ParseSeqError};

/// One FASTA record: an identifier, an optional description, and a
/// sequence, held 2-bit packed as the platform stores a reference.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    id: String,
    description: Option<String>,
    seq: PackedSeq,
}

impl Record {
    /// Creates a record from parts. The `id` must not contain whitespace.
    ///
    /// # Panics
    ///
    /// Panics if `id` contains whitespace (it would not survive a
    /// write/parse round trip).
    pub fn new(id: impl Into<String>, description: Option<String>, seq: PackedSeq) -> Self {
        let id = id.into();
        assert!(
            !id.chars().any(char::is_whitespace),
            "FASTA record id must not contain whitespace"
        );
        Record {
            id,
            description,
            seq,
        }
    }

    /// The record identifier (first whitespace-delimited token of the
    /// header).
    pub fn id(&self) -> &str {
        &self.id
    }

    /// The rest of the header line, if any.
    pub fn description(&self) -> Option<&str> {
        self.description.as_deref()
    }

    /// The sequence.
    pub fn seq(&self) -> &PackedSeq {
        &self.seq
    }

    /// Consumes the record, returning its sequence.
    pub fn into_seq(self) -> PackedSeq {
        self.seq
    }
}

/// Parses a FASTA-formatted string into records.
///
/// # Errors
///
/// As [`read`].
pub fn parse(text: &str) -> Result<Vec<Record>, ParseSeqError> {
    read(text.as_bytes())
}

/// Reads FASTA records line by line, each sequence packed as its lines
/// arrive: no more than one line of text is held at a time.
///
/// # Errors
///
/// Returns [`ParseSeqError`] when the input cannot be read as UTF-8 text,
/// does not start with a `>` header, a record has an empty header, or a
/// sequence line contains a non-ACGT character.
pub fn read<R: BufRead>(mut input: R) -> Result<Vec<Record>, ParseSeqError> {
    let mut records: Vec<Record> = Vec::new();
    let mut line = String::new();
    loop {
        line.clear();
        let n = input
            .read_line(&mut line)
            .map_err(|e| ParseSeqError::format(format!("I/O error: {e}")))?;
        if n == 0 {
            return Ok(records);
        }
        let line = line.trim_end();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix('>') {
            let mut parts = rest.splitn(2, char::is_whitespace);
            let id = parts
                .next()
                .filter(|s| !s.is_empty())
                .ok_or_else(|| ParseSeqError::format("empty FASTA header"))?;
            let description = parts
                .next()
                .map(|s| s.trim().to_owned())
                .filter(|s| !s.is_empty());
            records.push(Record {
                id: id.to_owned(),
                description,
                seq: PackedSeq::new(),
            });
        } else {
            let record = records.last_mut().ok_or_else(|| {
                ParseSeqError::format("sequence data before the first '>' header")
            })?;
            record.seq.extend_from_str(line)?;
        }
    }
}

/// Serialises records to FASTA text, wrapping sequence lines at 70 columns.
pub fn to_string(records: &[Record]) -> String {
    let mut out = String::new();
    for r in records {
        match &r.description {
            Some(d) => writeln!(out, ">{} {}", r.id, d).expect("write to String"),
            None => writeln!(out, ">{}", r.id).expect("write to String"),
        }
        let s = r.seq.to_string();
        for chunk in s.as_bytes().chunks(70) {
            out.push_str(std::str::from_utf8(chunk).expect("ASCII"));
            out.push('\n');
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_single_record() {
        let recs = parse(">ref example genome\nTGCTA\n").unwrap();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].id(), "ref");
        assert_eq!(recs[0].description(), Some("example genome"));
        assert_eq!(recs[0].seq().to_string(), "TGCTA");
    }

    #[test]
    fn parse_multiline_sequence() {
        let recs = parse(">r\nACGT\nTTTT\nGG\n").unwrap();
        assert_eq!(recs[0].seq().to_string(), "ACGTTTTTGG");
    }

    #[test]
    fn parse_rejects_leading_sequence() {
        assert!(parse("ACGT\n>r\nACGT\n").is_err());
    }

    #[test]
    fn parse_rejects_bad_base() {
        assert!(parse(">r\nACGN\n").is_err());
    }

    #[test]
    fn parse_rejects_empty_header() {
        assert!(parse(">\nACGT\n").is_err());
    }

    #[test]
    fn blank_lines_are_skipped() {
        let recs = parse("\n>r\n\nACGT\n\n").unwrap();
        assert_eq!(recs[0].seq().to_string(), "ACGT");
    }

    #[test]
    fn write_parse_round_trip_with_wrapping() {
        let long: PackedSeq = "ACGT".repeat(50).parse().unwrap();
        let recs = vec![
            Record::new("a", Some("first".into()), long),
            Record::new("b", None, "TTT".parse().unwrap()),
        ];
        let text = to_string(&recs);
        assert!(text.lines().all(|l| l.len() <= 71));
        assert_eq!(parse(&text).unwrap(), recs);
    }

    #[test]
    #[should_panic(expected = "whitespace")]
    fn record_id_rejects_whitespace() {
        let _ = Record::new("bad id", None, PackedSeq::new());
    }
}
