//! Property tests on the sequence substrate's invariants.

use bioseq::quality::{Phred, QualityString};
use bioseq::{fasta, fastq, Base, DnaSeq, PackedSeq};
use proptest::prelude::*;

fn arb_seq(max_len: usize) -> impl Strategy<Value = DnaSeq> {
    proptest::collection::vec(0u8..4, 0..max_len)
        .prop_map(|v| v.into_iter().map(|r| Base::from_rank(r as usize)).collect())
}

proptest! {
    #[test]
    fn packed_round_trip(seq in arb_seq(600)) {
        let packed: PackedSeq = seq.to_packed();
        // Four to a byte from the slice, and base by base.
        prop_assert_eq!(&packed, &seq.iter().copied().collect::<PackedSeq>());
        prop_assert_eq!(packed.to_dna_seq(), seq);
    }

    #[test]
    fn packed_uses_quarter_the_bytes(seq in arb_seq(600)) {
        let packed = seq.to_packed();
        prop_assert_eq!(packed.as_bytes().len(), seq.len().div_ceil(4));
    }

    #[test]
    fn reverse_complement_involution(seq in arb_seq(300)) {
        prop_assert_eq!(seq.reverse_complement().reverse_complement(), seq);
    }

    #[test]
    fn reverse_complement_reverses_order(seq in arb_seq(300)) {
        let rc = seq.reverse_complement();
        prop_assert_eq!(rc.len(), seq.len());
        for (i, b) in seq.iter().enumerate() {
            prop_assert_eq!(rc[seq.len() - 1 - i], b.complement());
        }
    }

    #[test]
    fn display_parse_round_trip(seq in arb_seq(300)) {
        let text = seq.to_string();
        prop_assert_eq!(text.parse::<DnaSeq>().unwrap(), seq);
    }

    #[test]
    fn fasta_round_trip(seq in arb_seq(400)) {
        let records = vec![fasta::Record::new("r1", Some("prop".into()), seq.to_packed())];
        let text = fasta::to_string(&records);
        prop_assert_eq!(fasta::parse(&text).unwrap(), records);
    }

    #[test]
    fn fastq_round_trip(seq in arb_seq(200), qshift in 0u8..40) {
        let quality: QualityString =
            (0..seq.len()).map(|i| Phred::new((i as u8).wrapping_add(qshift) % 94)).collect();
        let records = vec![fastq::Record::new("r1", seq, quality)];
        let text = fastq::to_string(&records);
        prop_assert_eq!(fastq::parse(&text).unwrap(), records);
    }

    #[test]
    fn hamming_distance_is_a_metric(a in arb_seq(100)) {
        // d(a, a) = 0 and symmetry with a mutated copy.
        prop_assert_eq!(a.hamming_distance(&a), 0);
        if !a.is_empty() {
            let mut bases = a.clone().into_bases();
            let k = bases.len() / 2;
            bases[k] = bases[k].complement();
            let b = DnaSeq::from_bases(bases);
            prop_assert_eq!(a.hamming_distance(&b), b.hamming_distance(&a));
            prop_assert_eq!(a.hamming_distance(&b), 1);
        }
    }

    #[test]
    fn phred_ascii_round_trip(q in 0u8..94) {
        let p = Phred::new(q);
        prop_assert_eq!(Phred::from_ascii(p.to_ascii()), Some(p));
    }
}
