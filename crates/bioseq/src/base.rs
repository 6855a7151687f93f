//! The DNA alphabet.

use std::fmt;

use crate::ParseSeqError;

/// One DNA nucleotide.
///
/// Two orderings matter in this workspace and they are *different*:
///
/// * the **lexicographic rank** (`A < C < G < T`) drives the FM-index
///   (`Count`, `Occ`, suffix sorting) — see [`Base::rank`];
/// * the **hardware binary code** from the paper's Fig. 6a
///   (`T = 0b00`, `G = 0b01`, `A = 0b10`, `C = 0b11`) is the 2-bit pattern
///   written into the SOT-MRAM BWT zone — see [`Base::code`].
///
/// The `derive`d `Ord` follows the lexicographic (biological) order.
///
/// # Examples
///
/// ```
/// use bioseq::Base;
///
/// assert!(Base::A < Base::C && Base::C < Base::G && Base::G < Base::T);
/// assert_eq!(Base::T.code(), 0b00);
/// assert_eq!(Base::C.code(), 0b11);
/// assert_eq!(Base::A.complement(), Base::T);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum Base {
    /// Adenine.
    A,
    /// Cytosine.
    C,
    /// Guanine.
    G,
    /// Thymine.
    T,
}

/// All four bases in lexicographic order. Handy for exhaustive loops such as
/// the inexact-search branch over candidate bases (Algorithm 2, line 13).
pub const BASES: [Base; 4] = [Base::A, Base::C, Base::G, Base::T];

impl Base {
    /// All four bases in lexicographic order (associated-constant form of
    /// `BASES`).
    pub const ALL: [Base; 4] = BASES;

    /// Lexicographic rank: `A → 0`, `C → 1`, `G → 2`, `T → 3`.
    ///
    /// This is the rank used throughout the FM-index (the `Count` array is
    /// indexed by it).
    #[inline]
    pub const fn rank(self) -> usize {
        self as usize
    }

    /// Inverse of [`Base::rank`].
    ///
    /// # Panics
    ///
    /// Panics if `rank > 3`.
    #[inline]
    pub const fn from_rank(rank: usize) -> Base {
        match rank {
            0 => Base::A,
            1 => Base::C,
            2 => Base::G,
            3 => Base::T,
            _ => panic!("base rank out of range (expected 0..=3)"),
        }
    }

    /// The paper's 2-bit hardware encoding (Fig. 6a):
    /// `T = 0b00`, `G = 0b01`, `A = 0b10`, `C = 0b11`.
    ///
    /// This is the bit pattern stored in the sub-array BWT zone and in the
    /// computational-reference (`CRef`) rows.
    #[inline]
    pub const fn code(self) -> u8 {
        match self {
            Base::T => 0b00,
            Base::G => 0b01,
            Base::A => 0b10,
            Base::C => 0b11,
        }
    }

    /// Inverse of [`Base::code`] (only the low two bits are inspected).
    #[inline]
    pub const fn from_code(code: u8) -> Base {
        match code & 0b11 {
            0b00 => Base::T,
            0b01 => Base::G,
            0b10 => Base::A,
            _ => Base::C,
        }
    }

    /// Watson–Crick complement (`A↔T`, `C↔G`).
    #[inline]
    pub const fn complement(self) -> Base {
        match self {
            Base::A => Base::T,
            Base::T => Base::A,
            Base::C => Base::G,
            Base::G => Base::C,
        }
    }

    /// Upper-case ASCII letter for this base.
    #[inline]
    pub const fn to_char(self) -> char {
        match self {
            Base::A => 'A',
            Base::C => 'C',
            Base::G => 'G',
            Base::T => 'T',
        }
    }

    /// Parses an ASCII letter (case-insensitive).
    ///
    /// # Errors
    ///
    /// Returns [`ParseSeqError`] for anything other than `A`, `C`, `G`, `T`
    /// (ambiguity codes such as `N` are rejected; the read simulator never
    /// produces them and the 2-bit hardware encoding cannot represent them).
    pub fn from_char(c: char) -> Result<Base, ParseSeqError> {
        u8::try_from(c)
            .ok()
            .and_then(Base::from_ascii)
            .ok_or_else(|| ParseSeqError::bad_char(c.to_ascii_uppercase()))
    }

    /// The base an ASCII byte spells (case-insensitive), `None` for any
    /// other byte: one load from [`DECODE`], the workspace's one decoder
    /// of sequence text.
    #[inline]
    pub(crate) fn from_ascii(byte: u8) -> Option<Base> {
        DECODE[byte as usize]
    }
}

/// ASCII → base, indexed by byte. Everything but `ACGTacgt` is `None`.
const DECODE: [Option<Base>; 256] = {
    let mut table = [None; 256];
    let mut rank = 0;
    while rank < 4 {
        let base = BASES[rank];
        let upper = base.to_char() as u8;
        table[upper as usize] = Some(base);
        table[upper.to_ascii_lowercase() as usize] = Some(base);
        rank += 1;
    }
    table
};

impl fmt::Display for Base {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Base::A => "A",
            Base::C => "C",
            Base::G => "G",
            Base::T => "T",
        })
    }
}

impl TryFrom<char> for Base {
    type Error = ParseSeqError;

    fn try_from(c: char) -> Result<Self, Self::Error> {
        Base::from_char(c)
    }
}

impl TryFrom<u8> for Base {
    type Error = ParseSeqError;

    fn try_from(b: u8) -> Result<Self, Self::Error> {
        Base::from_char(b as char)
    }
}

impl From<Base> for char {
    fn from(b: Base) -> char {
        b.to_char()
    }
}

/// A symbol of the *indexed* text: a base or the end-of-sequence sentinel
/// `$`, which sorts before every base (as in the paper's BW-matrix example
/// where `$` heads the first column).
///
/// # Examples
///
/// ```
/// use bioseq::{Base, Symbol};
///
/// assert!(Symbol::Sentinel < Symbol::Base(Base::A));
/// assert_eq!(Symbol::Base(Base::G).to_char(), 'G');
/// assert_eq!(Symbol::Sentinel.to_char(), '$');
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Symbol {
    /// The end-of-text marker `$` (lexicographically smallest).
    Sentinel,
    /// An ordinary nucleotide.
    Base(Base),
}

impl Symbol {
    /// Rank in the extended alphabet: `$ → 0`, `A → 1`, `C → 2`, `G → 3`,
    /// `T → 4`.
    #[inline]
    pub const fn rank(self) -> usize {
        match self {
            Symbol::Sentinel => 0,
            Symbol::Base(b) => b.rank() + 1,
        }
    }

    /// Inverse of [`Symbol::rank`].
    ///
    /// # Panics
    ///
    /// Panics if `rank > 4`.
    #[inline]
    pub const fn from_rank(rank: usize) -> Symbol {
        match rank {
            0 => Symbol::Sentinel,
            r => Symbol::Base(Base::from_rank(r - 1)),
        }
    }

    /// The base inside, or `None` for the sentinel.
    #[inline]
    pub const fn base(self) -> Option<Base> {
        match self {
            Symbol::Sentinel => None,
            Symbol::Base(b) => Some(b),
        }
    }

    /// ASCII display character (`$` for the sentinel).
    #[inline]
    pub const fn to_char(self) -> char {
        match self {
            Symbol::Sentinel => '$',
            Symbol::Base(b) => b.to_char(),
        }
    }
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_char())
    }
}

impl From<Base> for Symbol {
    fn from(b: Base) -> Symbol {
        Symbol::Base(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rank_round_trip() {
        for b in BASES {
            assert_eq!(Base::from_rank(b.rank()), b);
        }
    }

    #[test]
    fn code_round_trip() {
        for b in BASES {
            assert_eq!(Base::from_code(b.code()), b);
        }
    }

    #[test]
    fn code_matches_paper_fig6a() {
        assert_eq!(Base::T.code(), 0b00);
        assert_eq!(Base::G.code(), 0b01);
        assert_eq!(Base::A.code(), 0b10);
        assert_eq!(Base::C.code(), 0b11);
    }

    #[test]
    fn codes_are_distinct() {
        let mut seen = [false; 4];
        for b in BASES {
            let c = b.code() as usize;
            assert!(!seen[c], "duplicate code {c:#04b}");
            seen[c] = true;
        }
    }

    #[test]
    fn complement_is_involution() {
        for b in BASES {
            assert_eq!(b.complement().complement(), b);
            assert_ne!(b.complement(), b);
        }
    }

    #[test]
    fn complement_pairs_per_base_pairing_rule() {
        // Paper §I: "the bases on two strands follow the complementary base
        // pairing rule: A-T and C-G".
        assert_eq!(Base::A.complement(), Base::T);
        assert_eq!(Base::C.complement(), Base::G);
    }

    #[test]
    fn char_round_trip_case_insensitive() {
        for b in BASES {
            assert_eq!(Base::from_char(b.to_char()).unwrap(), b);
            assert_eq!(
                Base::from_char(b.to_char().to_ascii_lowercase()).unwrap(),
                b
            );
        }
    }

    #[test]
    fn invalid_char_is_rejected() {
        assert!(Base::from_char('N').is_err());
        assert!(Base::from_char('$').is_err());
        assert!(Base::from_char('x').is_err());
    }

    #[test]
    fn lexicographic_order_is_acgt() {
        let mut sorted = BASES;
        sorted.sort();
        assert_eq!(sorted, [Base::A, Base::C, Base::G, Base::T]);
    }

    #[test]
    fn sentinel_sorts_first() {
        let mut symbols: Vec<Symbol> = BASES.iter().copied().map(Symbol::from).collect();
        symbols.push(Symbol::Sentinel);
        symbols.sort();
        assert_eq!(symbols[0], Symbol::Sentinel);
    }

    #[test]
    fn symbol_rank_round_trip() {
        for r in 0..=4 {
            assert_eq!(Symbol::from_rank(r).rank(), r);
        }
    }

    #[test]
    fn symbol_base_accessor() {
        assert_eq!(Symbol::Sentinel.base(), None);
        assert_eq!(Symbol::Base(Base::G).base(), Some(Base::G));
    }
}
