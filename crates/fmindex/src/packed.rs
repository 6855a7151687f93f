//! Fixed-width unsigned fields packed into `u64` words: how the seed
//! table's boundaries and the sampled suffix array's values are held, each
//! at the width its largest value needs.

/// `len` fields of `width` bits, field `i` in bits `[i·width, (i+1)·width)`
/// of the concatenated words, low bits first; a field may straddle two
/// words, and the bits past the last field are zero.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct PackedFields {
    width: u32,
    words: Vec<u64>,
}

/// The bits a field needs to hold every value up to `max`: 0 for `max = 0`.
pub(crate) fn bits_for(max: u64) -> u32 {
    u64::BITS - max.leading_zeros()
}

/// Words that `len` fields of `width` bits fill.
pub(crate) fn words_for(len: usize, width: u32) -> usize {
    len.saturating_mul(width as usize).div_ceil(64)
}

impl PackedFields {
    /// Packs `values`, each below `2^width`.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if a value does not fit `width` bits, and
    /// if `width > 32`.
    pub(crate) fn pack(width: u32, values: impl IntoIterator<Item = u32>) -> PackedFields {
        assert!(width <= 32, "a field of {width} bits is wider than a value");
        let values = values.into_iter();
        let mut words = Vec::with_capacity(words_for(values.size_hint().0, width));
        let (mut word, mut used) = (0u64, 0u32);
        for v in values {
            debug_assert!(
                u64::from(v) >> width == 0,
                "{v} needs more than {width} bits"
            );
            if width == 0 {
                continue;
            }
            word |= u64::from(v) << used;
            used += width;
            if used >= 64 {
                words.push(word);
                used -= 64;
                // The bits of `v` that did not fit, or none.
                word = if used == 0 {
                    0
                } else {
                    u64::from(v) >> (width - used)
                };
            }
        }
        if used > 0 {
            words.push(word);
        }
        PackedFields { width, words }
    }

    /// Takes `words` as the packing of `len` fields of `width` bits.
    ///
    /// # Errors
    ///
    /// Describes a width over 32 bits, a word count other than
    /// [`words_for`]`(len, width)`, or a set bit past the last field.
    pub(crate) fn from_words(
        width: u32,
        words: Vec<u64>,
        len: usize,
    ) -> Result<PackedFields, String> {
        if width > 32 {
            return Err(format!("are {width} bits wide"));
        }
        if words.len() != words_for(len, width) {
            return Err(format!(
                "fill {} words where {len} of {width} bits fill {}",
                words.len(),
                words_for(len, width)
            ));
        }
        let tail = (len * width as usize) % 64;
        if tail != 0 && words.last().is_some_and(|&w| w >> tail != 0) {
            return Err("set a padding bit past the last value".into());
        }
        Ok(PackedFields { width, words })
    }

    /// Field `i`.
    ///
    /// # Panics
    ///
    /// Panics if field `i` lies past the words.
    #[inline]
    pub(crate) fn get(&self, i: usize) -> u32 {
        if self.width == 0 {
            return 0;
        }
        let bit = i * self.width as usize;
        let (w, shift) = (bit / 64, (bit % 64) as u32);
        let mut field = self.words[w] >> shift;
        if shift + self.width > 64 {
            field |= self.words[w + 1] << (64 - shift);
        }
        (field & ((1u64 << self.width) - 1)) as u32
    }

    /// Bits a field.
    pub(crate) fn width(&self) -> u32 {
        self.width
    }

    /// The packed words.
    pub(crate) fn words(&self) -> &[u64] {
        &self.words
    }

    /// The packed words, given up.
    pub(crate) fn into_words(self) -> Vec<u64> {
        self.words
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn bits_for_is_the_bit_length() {
        for (max, bits) in [
            (0, 0),
            (1, 1),
            (2, 2),
            (255, 8),
            (256, 9),
            (u64::from(u32::MAX), 32),
        ] {
            assert_eq!(bits_for(max), bits, "{max}");
        }
    }

    #[test]
    fn zero_width_fields_hold_nothing() {
        let fields = PackedFields::pack(0, [0; 5]);
        assert!(fields.words().is_empty());
        assert_eq!(fields.get(4), 0);
        assert_eq!(PackedFields::from_words(0, Vec::new(), 5), Ok(fields));
    }

    #[test]
    fn unsound_words_are_described() {
        let fields = PackedFields::pack(3, [7, 1, 5]);
        assert_eq!(fields.words(), [0b101_001_111]);
        let err = |width, words: Vec<u64>| PackedFields::from_words(width, words, 3).unwrap_err();
        assert!(err(33, vec![0; 2]).contains("33 bits"));
        assert!(err(3, vec![0; 2]).contains("fill 2 words where 3 of 3 bits fill 1"));
        assert!(err(3, vec![1 << 9]).contains("padding"));
        assert!(PackedFields::from_words(3, vec![1 << 8], 3).is_ok());
    }

    proptest! {
        /// Every field reads back, at every width, across word edges, and
        /// the words reload as they were packed.
        #[test]
        fn fields_read_back(width in 0u32..=32, seeds in proptest::collection::vec(any::<u32>(), 0..200)) {
            let mask = if width == 32 { u32::MAX } else { (1u32 << width) - 1 };
            let values: Vec<u32> = seeds.iter().map(|v| v & mask).collect();
            let fields = PackedFields::pack(width, values.iter().copied());
            prop_assert_eq!(fields.words().len(), words_for(values.len(), width));
            for (i, &v) in values.iter().enumerate() {
                prop_assert_eq!(fields.get(i), v, "field {}", i);
            }
            let reloaded = PackedFields::from_words(width, fields.words().to_vec(), values.len());
            prop_assert_eq!(reloaded, Ok(fields));
        }
    }
}
