//! K-mer iteration over DNA sequences.
//!
//! K-mers are how the repeat-rich genome generator's tests measure repeat
//! content.

use crate::{Base, DnaSeq};

/// A fixed-length window (k ≤ 32) packed into a `u64` two bits per base,
/// using the lexicographic rank so that the numeric order of packed k-mers
/// equals their lexicographic order.
///
/// # Examples
///
/// ```
/// use bioseq::DnaSeq;
/// use bioseq::kmer::Kmer;
///
/// # fn main() -> Result<(), bioseq::ParseSeqError> {
/// let seq: DnaSeq = "ACGT".parse()?;
/// let k = Kmer::from_bases(seq.as_slice()).unwrap();
/// assert_eq!(k.k(), 4);
/// assert_eq!(k.to_dna_seq().to_string(), "ACGT");
/// // AA.. < ACGT numerically because packing follows lexicographic rank.
/// let aaaa = Kmer::from_bases("AAAA".parse::<DnaSeq>()?.as_slice()).unwrap();
/// assert!(aaaa.packed() < k.packed());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Kmer {
    packed: u64,
    k: u8,
}

impl Kmer {
    /// Largest supported k.
    pub const MAX_K: usize = 32;

    /// Packs `bases` into a k-mer.
    ///
    /// Returns `None` when `bases` is empty or longer than [`Kmer::MAX_K`].
    pub fn from_bases(bases: &[Base]) -> Option<Kmer> {
        if bases.is_empty() || bases.len() > Self::MAX_K {
            return None;
        }
        let mut packed = 0u64;
        for &b in bases {
            packed = (packed << 2) | b.rank() as u64;
        }
        Some(Kmer {
            packed,
            k: bases.len() as u8,
        })
    }

    /// The window length.
    pub fn k(&self) -> usize {
        self.k as usize
    }

    /// The packed 2-bit representation (lexicographic-rank encoding).
    pub fn packed(&self) -> u64 {
        self.packed
    }

    /// Unpacks back into a sequence.
    pub fn to_dna_seq(&self) -> DnaSeq {
        let mut bases = Vec::with_capacity(self.k());
        for i in (0..self.k()).rev() {
            let rank = ((self.packed >> (2 * i)) & 0b11) as usize;
            bases.push(Base::from_rank(rank));
        }
        DnaSeq::from_bases(bases)
    }

    /// The reverse complement k-mer.
    pub fn reverse_complement(&self) -> Kmer {
        let seq = self.to_dna_seq().reverse_complement();
        Kmer::from_bases(seq.as_slice()).expect("same k")
    }

    /// The canonical form: the lexicographically smaller of the k-mer and
    /// its reverse complement. Strand-independent, as used for repeat
    /// detection.
    pub fn canonical(&self) -> Kmer {
        let rc = self.reverse_complement();
        if rc.packed < self.packed {
            rc
        } else {
            *self
        }
    }
}

/// Iterator over all k-length windows of a sequence, produced by
/// [`kmers`].
#[derive(Debug, Clone)]
pub struct Kmers<'a> {
    bases: &'a [Base],
    k: usize,
    pos: usize,
}

impl Iterator for Kmers<'_> {
    type Item = Kmer;

    fn next(&mut self) -> Option<Kmer> {
        if self.pos + self.k > self.bases.len() {
            return None;
        }
        let k = Kmer::from_bases(&self.bases[self.pos..self.pos + self.k])?;
        self.pos += 1;
        Some(k)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = (self.bases.len() + 1).saturating_sub(self.pos + self.k);
        (rem, Some(rem))
    }
}

impl ExactSizeIterator for Kmers<'_> {}

/// Iterates over every k-length window of `seq`.
///
/// # Panics
///
/// Panics if `k` is zero or greater than [`Kmer::MAX_K`].
///
/// # Examples
///
/// ```
/// use bioseq::DnaSeq;
/// use bioseq::kmer::kmers;
///
/// # fn main() -> Result<(), bioseq::ParseSeqError> {
/// let s: DnaSeq = "ACGTA".parse()?;
/// let all: Vec<String> = kmers(&s, 3).map(|k| k.to_dna_seq().to_string()).collect();
/// assert_eq!(all, ["ACG", "CGT", "GTA"]);
/// # Ok(())
/// # }
/// ```
pub fn kmers(seq: &DnaSeq, k: usize) -> Kmers<'_> {
    assert!(
        (1..=Kmer::MAX_K).contains(&k),
        "k must be in 1..={}",
        Kmer::MAX_K
    );
    Kmers {
        bases: seq.as_slice(),
        k,
        pos: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_unpack_round_trip() {
        let s: DnaSeq = "GATTACAGATTACA".parse().unwrap();
        let k = Kmer::from_bases(s.as_slice()).unwrap();
        assert_eq!(k.to_dna_seq(), s);
    }

    #[test]
    fn rejects_empty_and_oversize() {
        assert!(Kmer::from_bases(&[]).is_none());
        let long = vec![Base::A; 33];
        assert!(Kmer::from_bases(&long).is_none());
    }

    #[test]
    fn packed_order_is_lexicographic() {
        let a = Kmer::from_bases("AC".parse::<DnaSeq>().unwrap().as_slice()).unwrap();
        let b = Kmer::from_bases("AG".parse::<DnaSeq>().unwrap().as_slice()).unwrap();
        let c = Kmer::from_bases("CA".parse::<DnaSeq>().unwrap().as_slice()).unwrap();
        assert!(a.packed() < b.packed() && b.packed() < c.packed());
    }

    #[test]
    fn canonical_is_strand_independent() {
        let s: DnaSeq = "ACGTT".parse().unwrap();
        let k = Kmer::from_bases(s.as_slice()).unwrap();
        assert_eq!(k.canonical(), k.reverse_complement().canonical());
    }

    #[test]
    fn window_iteration_counts() {
        let s: DnaSeq = "ACGTACGT".parse().unwrap();
        assert_eq!(kmers(&s, 3).count(), 6);
        assert_eq!(kmers(&s, 8).count(), 1);
        assert_eq!(kmers(&s, 3).len(), 6);
    }

    #[test]
    fn window_shorter_than_k_yields_nothing() {
        let s: DnaSeq = "AC".parse().unwrap();
        assert_eq!(kmers(&s, 3).count(), 0);
    }

    #[test]
    #[should_panic(expected = "k must be in")]
    fn zero_k_panics() {
        let s: DnaSeq = "ACGT".parse().unwrap();
        let _ = kmers(&s, 0);
    }
}
