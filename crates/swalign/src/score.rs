//! Alignment scoring parameters.

/// Scoring scheme for the dynamic-programming aligners.
///
/// Every aligner in this crate is linear-gap: `gap_open` is the per-base
/// gap cost and `gap_extend` is not read.
///
/// # Examples
///
/// ```
/// use swalign::Scoring;
///
/// let s = Scoring::new(2, -1, -3, -1);
/// assert_eq!(s.match_score, 2);
/// assert_eq!(s.score_pair(true), 2);
/// assert_eq!(s.score_pair(false), -1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Scoring {
    /// Score awarded for a matching base pair (positive).
    pub match_score: i16,
    /// Score for a mismatching pair (negative).
    pub mismatch: i16,
    /// Cost of opening a gap (negative; per-base cost for linear-gap
    /// aligners).
    pub gap_open: i16,
    /// Cost of extending a gap by one base (negative; an affine scheme's
    /// second parameter, which no aligner here reads).
    pub gap_extend: i16,
}

impl Scoring {
    /// Creates a scheme, validating the sign conventions.
    ///
    /// # Panics
    ///
    /// Panics if `match_score <= 0`, or any penalty is positive.
    pub fn new(match_score: i16, mismatch: i16, gap_open: i16, gap_extend: i16) -> Scoring {
        assert!(match_score > 0, "match score must be positive");
        assert!(mismatch <= 0, "mismatch penalty must be non-positive");
        assert!(gap_open <= 0, "gap-open penalty must be non-positive");
        assert!(gap_extend <= 0, "gap-extend penalty must be non-positive");
        Scoring {
            match_score,
            mismatch,
            gap_open,
            gap_extend,
        }
    }

    /// The score of aligning one pair of bases.
    #[inline]
    pub fn score_pair(&self, is_match: bool) -> i32 {
        if is_match {
            self.match_score as i32
        } else {
            self.mismatch as i32
        }
    }
}

impl Default for Scoring {
    /// The classic `+1 / −1 / −2` scheme with `−1` gap extension.
    fn default() -> Scoring {
        Scoring::new(1, -1, -2, -1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_scheme() {
        let s = Scoring::default();
        assert_eq!(
            (s.match_score, s.mismatch, s.gap_open, s.gap_extend),
            (1, -1, -2, -1)
        );
    }

    #[test]
    #[should_panic(expected = "match score must be positive")]
    fn zero_match_rejected() {
        let _ = Scoring::new(0, -1, -1, -1);
    }

    #[test]
    #[should_panic(expected = "non-positive")]
    fn positive_penalty_rejected() {
        let _ = Scoring::new(1, 1, -1, -1);
    }

    #[test]
    fn score_pair_dispatch() {
        let s = Scoring::new(3, -2, -5, -1);
        assert_eq!(s.score_pair(true), 3);
        assert_eq!(s.score_pair(false), -2);
    }
}
