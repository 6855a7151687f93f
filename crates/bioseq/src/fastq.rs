//! Minimal FASTQ reading and writing.
//!
//! Four-line records (`@id`, sequence, `+`, quality) with Sanger-offset
//! qualities — the format the ART-style read simulator emits.
//!
//! # Examples
//!
//! ```
//! use bioseq::fastq;
//!
//! # fn main() -> Result<(), bioseq::ParseSeqError> {
//! let text = "@read1\nACGT\n+\nIIII\n";
//! let records = fastq::parse(text)?;
//! assert_eq!(records[0].id(), "read1");
//! assert_eq!(records[0].seq().to_string(), "ACGT");
//! assert_eq!(fastq::to_string(&records), text);
//! # Ok(())
//! # }
//! ```

use std::error::Error;
use std::fmt;
use std::fmt::Write as _;
use std::io::BufRead;

use crate::quality::QualityString;
use crate::{DnaSeq, ParseSeqError};

/// A [`ParseSeqError`] located in a FASTQ stream: which record broke and
/// where its header line started.
///
/// Streaming consumers (`pimalign`, `pimserve`) surface this as a
/// diagnostic precise enough to open the file at the offending byte, so
/// a truncated or corrupted record mid-stream is a clean error instead
/// of a panic or a silently short batch.
///
/// # Examples
///
/// ```
/// use bioseq::fastq::Reader;
///
/// // Second record is truncated after its sequence line.
/// let text = "@a\nAC\n+\nII\n@b\nGT\n";
/// let err = Reader::new(text.as_bytes())
///     .collect::<Result<Vec<_>, _>>()
///     .unwrap_err();
/// assert_eq!(err.record_number(), 2);
/// assert_eq!(err.byte_offset(), 11); // the '@b' header line
/// assert!(err.to_string().contains("record 2"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamError {
    record_number: u64,
    byte_offset: u64,
    source: ParseSeqError,
}

impl StreamError {
    /// 1-based ordinal of the record that failed to parse.
    pub fn record_number(&self) -> u64 {
        self.record_number
    }

    /// Byte offset (from the start of the stream) of the failing
    /// record's header line.
    pub fn byte_offset(&self) -> u64 {
        self.byte_offset
    }

    /// The underlying parse error, discarding the stream position.
    pub fn into_parse_error(self) -> ParseSeqError {
        self.source
    }
}

impl fmt::Display for StreamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "FASTQ record {} (byte offset {}): {}",
            self.record_number, self.byte_offset, self.source
        )
    }
}

impl Error for StreamError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        Some(&self.source)
    }
}

/// One FASTQ record: identifier, sequence, and per-base qualities.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    id: String,
    seq: DnaSeq,
    quality: QualityString,
}

impl Record {
    /// Creates a record from parts.
    ///
    /// # Panics
    ///
    /// Panics if the sequence and quality lengths differ, or if `id`
    /// contains whitespace.
    pub fn new(id: impl Into<String>, seq: DnaSeq, quality: QualityString) -> Self {
        let id = id.into();
        assert!(
            !id.chars().any(char::is_whitespace),
            "FASTQ record id must not contain whitespace"
        );
        assert_eq!(
            seq.len(),
            quality.len(),
            "sequence and quality lengths must match"
        );
        Record { id, seq, quality }
    }

    /// The record identifier.
    pub fn id(&self) -> &str {
        &self.id
    }

    /// The sequence.
    pub fn seq(&self) -> &DnaSeq {
        &self.seq
    }

    /// The per-base quality scores.
    pub fn quality(&self) -> &QualityString {
        &self.quality
    }

    /// Consumes the record, returning `(id, sequence, qualities)`.
    pub fn into_parts(self) -> (String, DnaSeq, QualityString) {
        (self.id, self.seq, self.quality)
    }
}

/// A streaming FASTQ reader over any [`BufRead`] source.
///
/// Yields one [`Record`] at a time without materialising the whole file,
/// so arbitrarily large inputs align in bounded memory (see the
/// `pimalign` CLI's chunked mode). Iteration stops at the first error.
///
/// # Examples
///
/// ```
/// use bioseq::fastq::Reader;
///
/// let text = "@a\nAC\n+\nII\n@b\nGT\n+\nII\n";
/// let ids: Vec<String> = Reader::new(text.as_bytes())
///     .map(|r| r.unwrap().id().to_owned())
///     .collect();
/// assert_eq!(ids, ["a", "b"]);
/// ```
#[derive(Debug)]
pub struct Reader<R: BufRead> {
    input: R,
    line: String,
    failed: bool,
    /// Bytes consumed from the stream so far (terminators included).
    bytes_consumed: u64,
    /// Records successfully emitted so far.
    records_emitted: u64,
    /// Offset of the header line of the record currently being parsed.
    record_start: u64,
}

impl<R: BufRead> Reader<R> {
    /// Wraps a buffered source.
    pub fn new(input: R) -> Reader<R> {
        Reader {
            input,
            line: String::new(),
            failed: false,
            bytes_consumed: 0,
            records_emitted: 0,
            record_start: 0,
        }
    }

    /// Locates a parse error at the record currently being read.
    fn locate(&self, source: ParseSeqError) -> StreamError {
        StreamError {
            record_number: self.records_emitted + 1,
            byte_offset: self.record_start,
            source,
        }
    }

    /// Reads the next line (without the terminator); `None` at EOF.
    fn next_line(&mut self) -> Result<Option<String>, ParseSeqError> {
        self.line.clear();
        let n = self
            .input
            .read_line(&mut self.line)
            .map_err(|e| ParseSeqError::format(format!("I/O error: {e}")))?;
        self.bytes_consumed += n as u64;
        if n == 0 {
            return Ok(None);
        }
        Ok(Some(self.line.trim_end_matches(['\n', '\r']).to_owned()))
    }

    /// Parses the next record; `Ok(None)` at end of input.
    ///
    /// # Errors
    ///
    /// Returns [`StreamError`] — the record ordinal and byte offset plus
    /// the underlying [`ParseSeqError`] — on I/O failure, structural
    /// problems (truncated record, missing `@`/`+`, length mismatch) or
    /// invalid sequence/quality characters.
    pub fn next_record(&mut self) -> Result<Option<Record>, StreamError> {
        match self.next_record_inner() {
            Ok(r) => {
                if r.is_some() {
                    self.records_emitted += 1;
                }
                Ok(r)
            }
            Err(e) => Err(self.locate(e)),
        }
    }

    fn next_record_inner(&mut self) -> Result<Option<Record>, ParseSeqError> {
        let header = loop {
            self.record_start = self.bytes_consumed;
            match self.next_line()? {
                None => return Ok(None),
                Some(l) if l.trim().is_empty() => continue,
                Some(l) => break l,
            }
        };
        let id = header
            .strip_prefix('@')
            .ok_or_else(|| ParseSeqError::format("FASTQ record must start with '@'"))?
            .split_whitespace()
            .next()
            .filter(|s| !s.is_empty())
            .ok_or_else(|| ParseSeqError::format("empty FASTQ header"))?
            .to_owned();
        let seq_line = self
            .next_line()?
            .ok_or_else(|| ParseSeqError::format("truncated FASTQ record: missing sequence"))?;
        let plus = self
            .next_line()?
            .ok_or_else(|| ParseSeqError::format("truncated FASTQ record: missing '+'"))?;
        if !plus.starts_with('+') {
            return Err(ParseSeqError::format(
                "FASTQ separator line must start with '+'",
            ));
        }
        let qual_line = self
            .next_line()?
            .ok_or_else(|| ParseSeqError::format("truncated FASTQ record: missing quality"))?;
        let seq: DnaSeq = seq_line.parse()?;
        let quality = QualityString::from_fastq(&qual_line)
            .ok_or_else(|| ParseSeqError::format("invalid quality character"))?;
        if seq.len() != quality.len() {
            return Err(ParseSeqError::format("sequence and quality lengths differ"));
        }
        Ok(Some(Record { id, seq, quality }))
    }

    /// Reads up to `n` records (fewer at end of input; empty = EOF).
    ///
    /// # Errors
    ///
    /// Returns the first [`StreamError`] encountered.
    pub fn next_chunk(&mut self, n: usize) -> Result<Vec<Record>, StreamError> {
        let mut chunk = Vec::with_capacity(n.min(1_024));
        while chunk.len() < n {
            match self.next_record()? {
                Some(record) => chunk.push(record),
                None => break,
            }
        }
        Ok(chunk)
    }
}

impl<R: BufRead> Iterator for Reader<R> {
    type Item = Result<Record, StreamError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.failed {
            return None;
        }
        match self.next_record() {
            Ok(Some(record)) => Some(Ok(record)),
            Ok(None) => None,
            Err(e) => {
                self.failed = true;
                Some(Err(e))
            }
        }
    }
}

/// Parses FASTQ text into records.
///
/// # Errors
///
/// Returns [`ParseSeqError`] on structural problems (truncated record,
/// missing `@`/`+`, length mismatch) or invalid sequence/quality characters.
pub fn parse(text: &str) -> Result<Vec<Record>, ParseSeqError> {
    Reader::new(text.as_bytes())
        .collect::<Result<_, _>>()
        .map_err(StreamError::into_parse_error)
}

/// Serialises records to FASTQ text.
pub fn to_string(records: &[Record]) -> String {
    let mut out = String::new();
    for r in records {
        // `fmt::Write` into a `String` never fails, and neither the
        // `String`s' nor the `DnaSeq`'s `Display` raises an error of its
        // own.
        writeln!(out, "@{}\n{}\n+\n{}", r.id, r.seq, r.quality.to_fastq())
            .expect("writing to a String cannot fail");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quality::Phred;

    fn sample() -> Record {
        Record::new(
            "r1",
            "ACGT".parse().unwrap(),
            vec![Phred::new(40); 4].into(),
        )
    }

    #[test]
    fn round_trip() {
        let recs = vec![sample()];
        let text = to_string(&recs);
        assert_eq!(parse(&text).unwrap(), recs);
    }

    #[test]
    fn parse_multiple_records() {
        let text = "@a\nAC\n+\nII\n@b\nGT\n+\nII\n";
        let recs = parse(text).unwrap();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[1].id(), "b");
    }

    #[test]
    fn header_description_is_dropped_from_id() {
        let recs = parse("@read1 simulated from chr1:100\nAC\n+\nII\n").unwrap();
        assert_eq!(recs[0].id(), "read1");
    }

    #[test]
    fn rejects_missing_at() {
        assert!(parse("read1\nAC\n+\nII\n").is_err());
    }

    #[test]
    fn rejects_length_mismatch() {
        assert!(parse("@r\nACG\n+\nII\n").is_err());
    }

    #[test]
    fn rejects_truncation() {
        assert!(parse("@r\nACG\n+\n").is_err());
        assert!(parse("@r\nACG\n").is_err());
        assert!(parse("@r\n").is_err());
    }

    #[test]
    #[should_panic(expected = "lengths must match")]
    fn constructor_validates_lengths() {
        let _ = Record::new("r", "ACGT".parse().unwrap(), QualityString::new());
    }

    #[test]
    fn streaming_reader_matches_parse() {
        let text = "@a\nAC\n+\nII\n\n@b simulated\nGT\n+\nII\n";
        let streamed: Vec<Record> = Reader::new(text.as_bytes())
            .collect::<Result<_, _>>()
            .unwrap();
        assert_eq!(streamed, parse(text).unwrap());
    }

    #[test]
    fn streaming_reader_chunks_in_order() {
        let text = to_string(
            &(0..10)
                .map(|i| {
                    Record::new(
                        format!("r{i}"),
                        "ACGT".parse().unwrap(),
                        vec![Phred::new(40); 4].into(),
                    )
                })
                .collect::<Vec<_>>(),
        );
        let mut reader = Reader::new(text.as_bytes());
        let c1 = reader.next_chunk(4).unwrap();
        let c2 = reader.next_chunk(4).unwrap();
        let c3 = reader.next_chunk(4).unwrap();
        let c4 = reader.next_chunk(4).unwrap();
        assert_eq!(c1.len(), 4);
        assert_eq!(c2.len(), 4);
        assert_eq!(c3.len(), 2, "trailing partial chunk");
        assert!(c4.is_empty(), "EOF yields an empty chunk");
        let ids: Vec<&str> = c1.iter().chain(&c2).chain(&c3).map(Record::id).collect();
        assert_eq!(ids, (0..10).map(|i| format!("r{i}")).collect::<Vec<_>>());
    }

    #[test]
    fn streaming_reader_stops_at_first_error() {
        let text = "@a\nAC\n+\nII\n@bad\nACGN\n+\nIIII\n@c\nGT\n+\nII\n";
        let mut reader = Reader::new(text.as_bytes());
        assert!(reader.next().unwrap().is_ok());
        assert!(reader.next().unwrap().is_err());
        assert!(reader.next().is_none(), "iteration fuses after an error");
    }

    #[test]
    fn stream_error_reports_record_and_offset() {
        // 3 good records (12 bytes each), then one truncated mid-record.
        let text = "@r1\nACGT\n+\nIIII\n@r2\nACGT\n+\nIIII\n@r3\nACGT\n+\nIIII\n@r4\nAC\n+\n";
        let mut reader = Reader::new(text.as_bytes());
        for _ in 0..3 {
            assert!(reader.next_record().unwrap().is_some());
        }
        let err = reader.next_record().unwrap_err();
        assert_eq!(err.record_number(), 4);
        assert_eq!(err.byte_offset(), 48, "offset of the '@r4' header");
        let msg = err.to_string();
        assert!(msg.contains("record 4"), "{msg}");
        assert!(msg.contains("byte offset 48"), "{msg}");
        assert!(msg.contains("missing quality"), "{msg}");
    }

    #[test]
    fn stream_error_offset_skips_blank_lines() {
        // Blank separator lines must not be attributed to the record.
        let text = "@a\nAC\n+\nII\n\n\nbroken\nAC\n+\nII\n";
        let err = Reader::new(text.as_bytes())
            .collect::<Result<Vec<_>, _>>()
            .unwrap_err();
        assert_eq!(err.record_number(), 2);
        assert_eq!(err.byte_offset(), 13, "offset of the 'broken' header");
    }

    #[test]
    fn stream_error_on_bad_character_keeps_source() {
        let text = "@a\nACGN\n+\nIIII\n";
        let err = Reader::new(text.as_bytes()).next_record().unwrap_err();
        assert_eq!(err.record_number(), 1);
        assert_eq!(err.byte_offset(), 0);
        assert_eq!(err.clone().into_parse_error().bad_character(), Some('N'));
        use std::error::Error as _;
        assert!(err.source().is_some(), "source chain preserved");
    }

    #[test]
    fn stream_error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<StreamError>();
    }

    #[test]
    fn streaming_reader_handles_crlf() {
        let text = "@a\r\nAC\r\n+\r\nII\r\n";
        let recs: Vec<Record> = Reader::new(text.as_bytes())
            .collect::<Result<_, _>>()
            .unwrap();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].seq().to_string(), "AC");
    }
}
