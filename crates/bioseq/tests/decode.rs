//! The byte-table decoder against the character-by-character decode it
//! replaced, and hostile bytes through every entry point that decodes:
//! `DnaSeq::from_str`, `DnaSeq::from_ascii`, `fasta::parse` and
//! `fastq::Reader`.

use bioseq::quality::{Phred, QualityString};
use bioseq::{fasta, fastq, Base, DnaSeq, ParseSeqError};
use proptest::prelude::*;

/// One character the way every decoder read it before the table: the
/// base, or the offender as the error names it (ASCII upper-cased).
fn decode_char(c: char) -> Result<Base, char> {
    match c.to_ascii_uppercase() {
        'A' => Ok(Base::A),
        'C' => Ok(Base::C),
        'G' => Ok(Base::G),
        'T' => Ok(Base::T),
        other => Err(other),
    }
}

fn decode_chars(chars: impl Iterator<Item = char>) -> Result<DnaSeq, char> {
    chars.map(decode_char).collect()
}

/// A decode result reduced to what the oracle states: the sequence, or
/// the character the error names.
fn named(result: Result<DnaSeq, ParseSeqError>) -> Result<DnaSeq, char> {
    result.map_err(|e| e.bad_character().expect("a decode error names a character"))
}

/// Mostly bases, one item in eight something a sequence line must not
/// hold: lower-case and upper-case ambiguity codes, CR LF, a bare CR, a
/// blank, a NUL, a two-byte and a three-byte UTF-8 character.
fn biased_text(max_items: usize) -> impl Strategy<Value = String> {
    const GOOD: [&str; 8] = ["A", "C", "G", "T", "a", "c", "g", "t"];
    const BAD: [&str; 8] = ["N", "n", "\r\n", "\r", " ", "\0", "é", "\u{fffd}"];
    proptest::collection::vec(0usize..64, 0..max_items).prop_map(|picks| {
        picks
            .into_iter()
            .map(|i| if i < 56 { GOOD[i % 8] } else { BAD[i - 56] })
            .collect()
    })
}

fn arbitrary_bytes(max_len: usize) -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(any::<u8>(), 0..max_len)
}

/// `from_ascii` and `from_str` against the oracle on the same bytes.
fn check_seq_decoders(bytes: &[u8]) -> Result<(), TestCaseError> {
    prop_assert_eq!(
        named(DnaSeq::from_ascii(bytes)),
        decode_chars(bytes.iter().map(|&b| b as char))
    );
    let text = String::from_utf8_lossy(bytes);
    prop_assert_eq!(named(text.parse()), decode_chars(text.chars()));
    Ok(())
}

#[test]
fn the_first_offender_is_named_as_before() {
    let offender = |text: &str| named(text.parse()).unwrap_err();
    assert_eq!(offender("acgtn"), 'N', "lower case is upper-cased");
    assert_eq!(offender("AC\r\nGT"), '\r');
    assert_eq!(
        offender("ACéN"),
        'é',
        "a whole character, not its first byte"
    );
    assert_eq!(offender("AC\0G"), '\0');
    // Bytes have no characters: a UTF-8 lead byte is named as Latin-1.
    assert_eq!(
        named(DnaSeq::from_ascii("ACé".as_bytes())).unwrap_err(),
        '\u{c3}'
    );
    assert_eq!(named("acgtACGT".parse()), decode_chars("acgtACGT".chars()));
}

#[test]
fn a_failed_extend_appends_nothing() {
    let mut seq: DnaSeq = "GATTACA".parse().unwrap();
    let err = seq.extend_from_ascii(b"ACGTNACGT").unwrap_err();
    assert_eq!(err.bad_character(), Some('N'));
    assert_eq!(seq.to_string(), "GATTACA");
    seq.extend_from_ascii(b"acgt").unwrap();
    assert_eq!(seq.to_string(), "GATTACAACGT");
}

proptest! {
    #[test]
    fn seq_decoders_agree_with_the_char_decode(
        biased in biased_text(40),
        arbitrary in arbitrary_bytes(64),
    ) {
        check_seq_decoders(biased.as_bytes())?;
        check_seq_decoders(&arbitrary)?;
        // A good prefix moves the offender off byte 0.
        check_seq_decoders(&[b"GATTACA", &arbitrary[..]].concat())?;
    }

    #[test]
    fn fasta_parse_agrees_with_the_char_decode(
        first in biased_text(30),
        second in biased_text(30),
    ) {
        // Sequence lines never start with '>' here; the mutator below
        // covers records appearing and vanishing.
        let text = format!(">r1 desc\n{first}\n>r2\n{second}\n");
        let expected: Result<Vec<DnaSeq>, char> = [&first, &second]
            .into_iter()
            .map(|body| {
                decode_chars(body.lines().flat_map(|line| line.trim_end().chars()))
            })
            .collect();
        let parsed = fasta::parse(&text)
            .map(|records| records.iter().map(|r| r.seq().to_dna_seq()).collect::<Vec<_>>())
            .map_err(|e| e.bad_character().expect("only bad characters can fail here"));
        prop_assert_eq!(parsed, expected);
    }

    #[test]
    fn fastq_reader_agrees_with_the_char_decode(body in biased_text(30)) {
        // One line of the biased text, as the second record of a stream.
        let line = body.split('\n').next().unwrap_or("");
        let expected = decode_chars(line.trim_end_matches('\r').chars());
        let quality = "I".repeat(expected.as_ref().map_or(0, DnaSeq::len));
        let good = "@good\nACGT\n+\nIIII\n";
        let text = format!("{good}@r\n{line}\n+\n{quality}\n");
        let mut reader = fastq::Reader::new(text.as_bytes());
        prop_assert!(reader.next_record().unwrap().is_some());
        match (reader.next_record(), expected) {
            (Ok(Some(record)), Ok(seq)) => prop_assert_eq!(record.seq(), &seq),
            (Err(e), Err(offender)) => {
                prop_assert_eq!(e.record_number(), 2);
                prop_assert_eq!(e.byte_offset(), good.len() as u64);
                prop_assert_eq!(e.into_parse_error().bad_character(), Some(offender));
            }
            (got, expected) => prop_assert!(false, "reader {got:?}, char decode {expected:?}"),
        }
    }
}

/// One mutation of a byte stream: cut it short, flip one bit, or copy a
/// slice of it over another place.
fn mutate(bytes: &mut Vec<u8>, kind: u8, at: usize, other: usize, len: usize) {
    if bytes.is_empty() {
        return;
    }
    let at = at % bytes.len();
    match kind {
        0 => bytes.truncate(at),
        1 => bytes[at] ^= 1 << (other % 8),
        _ => {
            let from = other % bytes.len();
            let piece = bytes[from..bytes.len().min(from + len)].to_vec();
            bytes.splice(at..at, piece);
        }
    }
}

fn arb_seqs() -> impl Strategy<Value = Vec<DnaSeq>> {
    let seq = proptest::collection::vec(0u8..4, 0..150)
        .prop_map(|v| v.into_iter().map(|r| Base::from_rank(r as usize)).collect());
    proptest::collection::vec(seq, 1..5)
}

proptest! {
    /// Mutated documents parse to a typed error or to records, never to
    /// a panic, and never to more bases than there were bytes.
    #[test]
    fn mutated_fasta_and_fastq_never_panic(
        seqs in arb_seqs(),
        kind in 0u8..3,
        at in any::<usize>(),
        other in any::<usize>(),
        len in 0usize..200,
    ) {
        let fasta_records: Vec<fasta::Record> = seqs
            .iter()
            .enumerate()
            .map(|(i, seq)| fasta::Record::new(format!("r{i}"), None, seq.to_packed()))
            .collect();
        let mut bytes = fasta::to_string(&fasta_records).into_bytes();
        mutate(&mut bytes, kind, at, other, len);
        // The reader takes bytes as they come; a line that is not UTF-8
        // is an error like any other.
        if let Ok(records) = fasta::read(bytes.as_slice()) {
            let bases: usize = records.iter().map(|r| r.seq().len()).sum();
            prop_assert!(bases <= bytes.len());
        }

        let fastq_records: Vec<fastq::Record> = seqs
            .into_iter()
            .enumerate()
            .map(|(i, seq)| {
                let quality: QualityString = vec![Phred::new(40); seq.len()].into();
                fastq::Record::new(format!("r{i}"), seq, quality)
            })
            .collect();
        let mut bytes = fastq::to_string(&fastq_records).into_bytes();
        mutate(&mut bytes, kind, at, other, len);
        // The reader stops at its first (typed) error.
        let bases: usize = fastq::Reader::new(&bytes[..])
            .flatten()
            .map(|record| record.seq().len())
            .sum();
        prop_assert!(bases <= bytes.len());
    }
}
