//! A compact bit vector used for configuration frames and readback data.
//!
//! The configuration memory of a Virtex device is a large array of bits
//! addressed frame-by-frame; [`BitVec`] is the payload type for one frame.
//! It is deliberately small and dependency-free.

use std::fmt;

/// A fixed-length vector of bits backed by `u64` words.
///
/// ```
/// use rtm_fpga::bits::BitVec;
/// let mut bv = BitVec::zeros(100);
/// bv.set(99, true);
/// assert!(bv.get(99));
/// assert_eq!(bv.count_ones(), 1);
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct BitVec {
    len: usize,
    words: Vec<u64>,
}

impl BitVec {
    /// Creates a bit vector of `len` zero bits.
    pub fn zeros(len: usize) -> Self {
        BitVec {
            len,
            words: vec![0; len.div_ceil(64)],
        }
    }

    /// A vector of `len` bits over `words`, LSB-first as
    /// [`BitVec::words`] returns them.
    ///
    /// # Panics
    ///
    /// Panics if `words` is not `len.div_ceil(64)` long.
    pub(crate) fn from_words(len: usize, words: &[u64]) -> Self {
        assert_eq!(words.len(), len.div_ceil(64), "{len} bits need whole words");
        debug_assert!(
            set_positions(words.iter().copied()).all(|i| i < len),
            "bits past the length must be zero"
        );
        BitVec {
            len,
            words: words.to_vec(),
        }
    }

    /// The backing words, LSB-first; bits at or past the length are zero.
    pub(crate) fn words(&self) -> &[u64] {
        &self.words
    }

    /// Creates a bit vector from an iterator of bools.
    pub fn from_bools<I: IntoIterator<Item = bool>>(iter: I) -> Self {
        let bools: Vec<bool> = iter.into_iter().collect();
        let mut bv = BitVec::zeros(bools.len());
        for (i, b) in bools.iter().enumerate() {
            bv.set(i, *b);
        }
        bv
    }

    /// Number of bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the vector holds no bits.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Reads bit `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= len`.
    pub fn get(&self, idx: usize) -> bool {
        assert!(idx < self.len, "bit index {idx} out of range {}", self.len);
        (self.words[idx / 64] >> (idx % 64)) & 1 == 1
    }

    /// Writes bit `idx`, returning the previous value.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= len`.
    pub fn set(&mut self, idx: usize, value: bool) -> bool {
        assert!(idx < self.len, "bit index {idx} out of range {}", self.len);
        let word = &mut self.words[idx / 64];
        let mask = 1u64 << (idx % 64);
        let old = *word & mask != 0;
        if value {
            *word |= mask;
        } else {
            *word &= !mask;
        }
        old
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Number of bit positions at which `self` and `other` differ.
    ///
    /// This is the quantity the relocation engine audits: writing a frame
    /// whose diff with the resident frame is zero produces **no transient**
    /// on the device (paper §2).
    ///
    /// # Panics
    ///
    /// Panics if lengths differ.
    pub fn hamming(&self, other: &BitVec) -> usize {
        assert_eq!(
            self.len, other.len,
            "hamming distance requires equal lengths"
        );
        self.words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| (a ^ b).count_ones() as usize)
            .sum()
    }

    /// Indices of bits that differ from `other`.
    ///
    /// # Panics
    ///
    /// Panics if lengths differ.
    pub fn diff_indices(&self, other: &BitVec) -> Vec<usize> {
        assert_eq!(self.len, other.len, "diff requires equal lengths");
        diff_words(&self.words, &other.words)
    }

    /// Iterator over all bits, LSB-first.
    pub fn iter(&self) -> Iter<'_> {
        Iter { bv: self, idx: 0 }
    }

    /// Packs the bits into 32-bit big-endian configuration words
    /// (bit 0 of the vector maps to the MSB of word 0, matching the
    /// shift order of the configuration logic).
    pub fn to_config_words(&self) -> Vec<u32> {
        let n_words = self.len.div_ceil(32);
        let mut out = vec![0u32; n_words];
        for i in 0..self.len {
            if self.get(i) {
                out[i / 32] |= 1 << (31 - (i % 32));
            }
        }
        out
    }

    /// Rebuilds a bit vector of length `len` from configuration words
    /// produced by [`BitVec::to_config_words`].
    pub fn from_config_words(words: &[u32], len: usize) -> Self {
        let mut bv = BitVec::zeros(len);
        for i in 0..len {
            let w = words.get(i / 32).copied().unwrap_or(0);
            bv.set(i, (w >> (31 - (i % 32))) & 1 == 1);
        }
        bv
    }
}

/// Positions of the set bits of `words`, bit `i` of word `w` being
/// position `64 * w + i`, in ascending order.
pub(crate) fn set_positions(words: impl IntoIterator<Item = u64>) -> impl Iterator<Item = usize> {
    words.into_iter().enumerate().flat_map(|(w, mut word)| {
        std::iter::from_fn(move || {
            (word != 0).then(|| {
                let bit = word.trailing_zeros() as usize;
                word &= word - 1;
                64 * w + bit
            })
        })
    })
}

/// Positions at which two equally long word slices differ, in
/// ascending order.
pub(crate) fn diff_words(a: &[u64], b: &[u64]) -> Vec<usize> {
    debug_assert_eq!(a.len(), b.len(), "diff requires equal lengths");
    set_positions(a.iter().zip(b).map(|(x, y)| x ^ y)).collect()
}

impl fmt::Debug for BitVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BitVec[{}; {} ones]", self.len, self.count_ones())
    }
}

impl FromIterator<bool> for BitVec {
    fn from_iter<I: IntoIterator<Item = bool>>(iter: I) -> Self {
        BitVec::from_bools(iter)
    }
}

/// Iterator over the bits of a [`BitVec`], produced by [`BitVec::iter`].
#[derive(Debug, Clone)]
pub struct Iter<'a> {
    bv: &'a BitVec,
    idx: usize,
}

impl Iterator for Iter<'_> {
    type Item = bool;

    fn next(&mut self) -> Option<bool> {
        if self.idx >= self.bv.len {
            return None;
        }
        let b = self.bv.get(self.idx);
        self.idx += 1;
        Some(b)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.bv.len - self.idx;
        (rem, Some(rem))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_has_no_ones() {
        let bv = BitVec::zeros(130);
        assert_eq!(bv.len(), 130);
        assert_eq!(bv.count_ones(), 0);
        assert!(!bv.get(129));
    }

    #[test]
    fn set_get_roundtrip_across_word_boundary() {
        let mut bv = BitVec::zeros(70);
        assert!(!bv.set(63, true));
        assert!(!bv.set(64, true));
        assert!(bv.get(63));
        assert!(bv.get(64));
        assert!(!bv.get(62));
        assert!(bv.set(63, false));
        assert!(!bv.get(63));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn get_out_of_range_panics() {
        BitVec::zeros(8).get(8);
    }

    #[test]
    fn hamming_counts_differences() {
        let mut a = BitVec::zeros(100);
        let mut b = BitVec::zeros(100);
        a.set(0, true);
        a.set(99, true);
        b.set(99, true);
        assert_eq!(a.hamming(&b), 1);
        assert_eq!(a.hamming(&a), 0);
    }

    #[test]
    fn diff_indices_match_hamming() {
        let mut a = BitVec::zeros(70);
        let mut b = BitVec::zeros(70);
        for i in [0usize, 5, 64, 69] {
            a.set(i, true);
        }
        b.set(5, true);
        let d = a.diff_indices(&b);
        assert_eq!(d, vec![0, 64, 69]);
        assert_eq!(d.len(), a.hamming(&b));
    }

    #[test]
    fn config_word_roundtrip() {
        let mut bv = BitVec::zeros(75);
        for i in (0..75).step_by(7) {
            bv.set(i, true);
        }
        let words = bv.to_config_words();
        assert_eq!(words.len(), 3);
        let back = BitVec::from_config_words(&words, 75);
        assert_eq!(bv, back);
    }

    #[test]
    fn from_bools_and_iter() {
        let pattern = [true, false, true, true, false];
        let bv: BitVec = pattern.iter().copied().collect();
        let back: Vec<bool> = bv.iter().collect();
        assert_eq!(back, pattern);
    }
}
