//! Dense bitsets over point indices.
//!
//! The streaming set operations run on the 4-wide unrolled word-block
//! kernels of [`crate::kernels`] (the stable-Rust shape LLVM
//! auto-vectorizes), with this module keeping the bit-level semantics:
//! length checks and the canonical-tail invariant (bits at and above
//! `len` stay zero).

use crate::kernels;
use std::fmt;
use std::ops::{BitAndAssign, BitOrAssign};

/// A fixed-length dense bitset, used to represent the set of points of a
/// generated system satisfying a formula.
///
/// # Example
///
/// ```
/// use eba_kripke::Bitset;
///
/// let mut s = Bitset::new_false(10);
/// s.set(3, true);
/// assert!(s.get(3));
/// assert_eq!(s.count_ones(), 1);
/// s.invert();
/// assert_eq!(s.count_ones(), 9);
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Bitset {
    words: Vec<u64>,
    len: usize,
}

impl Bitset {
    /// Creates a bitset of `len` bits, all `false`.
    #[must_use]
    pub fn new_false(len: usize) -> Self {
        Bitset {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// Creates a bitset of `len` bits, all `true`.
    #[must_use]
    pub fn new_true(len: usize) -> Self {
        let mut s = Bitset {
            words: vec![u64::MAX; len.div_ceil(64)],
            len,
        };
        s.clear_tail();
        s
    }

    fn clear_tail(&mut self) {
        let tail = self.len % 64;
        if tail != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << tail) - 1;
            }
        }
    }

    /// Number of bits.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the bitset has zero bits.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Reads bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    #[must_use]
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bit index {i} out of range {}", self.len);
        self.words[i / 64] >> (i % 64) & 1 == 1
    }

    /// Writes bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    pub fn set(&mut self, i: usize, value: bool) {
        assert!(i < self.len, "bit index {i} out of range {}", self.len);
        let mask = 1u64 << (i % 64);
        if value {
            self.words[i / 64] |= mask;
        } else {
            self.words[i / 64] &= !mask;
        }
    }

    /// Number of `true` bits.
    #[must_use]
    pub fn count_ones(&self) -> usize {
        kernels::count_ones(&self.words)
    }

    /// Approximate resident heap bytes of the backing word vector.
    #[must_use]
    pub fn approx_bytes(&self) -> usize {
        self.words.len() * std::mem::size_of::<u64>()
    }

    /// Whether every bit is `true`.
    #[must_use]
    pub fn all(&self) -> bool {
        if self.len == 0 {
            return true;
        }
        let tail = self.len % 64;
        let full = if tail == 0 {
            self.words.len()
        } else {
            self.words.len() - 1
        };
        self.words[..full].iter().all(|&w| w == u64::MAX)
            && (tail == 0 || self.words[full] == (1u64 << tail) - 1)
    }

    /// Whether any bit is `true`.
    #[must_use]
    pub fn any(&self) -> bool {
        kernels::any(&self.words)
    }

    /// Flips every bit in place.
    pub fn invert(&mut self) {
        kernels::not_assign(&mut self.words);
        self.clear_tail();
    }

    /// The index of the first `true` bit, if any.
    #[must_use]
    pub fn first_one(&self) -> Option<usize> {
        for (k, &w) in self.words.iter().enumerate() {
            if w != 0 {
                return Some(k * 64 + w.trailing_zeros() as usize);
            }
        }
        None
    }

    /// The index of the first `false` bit, if any.
    #[must_use]
    pub fn first_zero(&self) -> Option<usize> {
        for (k, &w) in self.words.iter().enumerate() {
            if w != u64::MAX {
                let idx = k * 64 + w.trailing_ones() as usize;
                if idx < self.len {
                    return Some(idx);
                }
            }
        }
        None
    }

    /// Iterates over the indices of `true` bits in increasing order.
    pub fn ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(k, &w)| {
            let mut w = w;
            std::iter::from_fn(move || {
                if w == 0 {
                    None
                } else {
                    let bit = w.trailing_zeros() as usize;
                    w &= w - 1;
                    Some(k * 64 + bit)
                }
            })
        })
    }

    /// Iterates over the indices of `false` bits in increasing order,
    /// word-parallel: whole `u64::MAX` words are skipped in one compare
    /// and set bits are found with `trailing_zeros` on the complement.
    pub fn zeros(&self) -> impl Iterator<Item = usize> + '_ {
        let len = self.len;
        self.words.iter().enumerate().flat_map(move |(k, &w)| {
            // Complement, masking bits past `len` in the tail word so they
            // do not show up as spurious zeros.
            let mut w = !w;
            let tail = len.saturating_sub(k * 64);
            if tail < 64 {
                w &= (1u64 << tail) - 1;
            }
            std::iter::from_fn(move || {
                if w == 0 {
                    None
                } else {
                    let bit = w.trailing_zeros() as usize;
                    w &= w - 1;
                    Some(k * 64 + bit)
                }
            })
        })
    }

    /// Sets every bit in `start..end` to `true`, whole words at a time.
    ///
    /// # Panics
    ///
    /// Panics if `start > end` or `end > len`.
    pub fn set_range(&mut self, start: usize, end: usize) {
        assert!(start <= end && end <= self.len, "range out of bounds");
        if start == end {
            return;
        }
        let (first, last) = (start / 64, (end - 1) / 64);
        let head = !0u64 << (start % 64);
        let tail = !0u64 >> (63 - (end - 1) % 64);
        if first == last {
            self.words[first] |= head & tail;
        } else {
            self.words[first] |= head;
            for w in &mut self.words[first + 1..last] {
                *w = u64::MAX;
            }
            self.words[last] |= tail;
        }
    }

    /// Mutable access to the backing words. Callers must keep the
    /// canonical-tail invariant: bits at and above `len` stay zero.
    pub(crate) fn words_mut(&mut self) -> &mut [u64] {
        &mut self.words
    }

    /// In-place `self &= (¬antecedent ∨ consequent)` — intersects `self`
    /// with the pointwise implication `antecedent → consequent`. This is
    /// the word-level form of one conjunct of `E_S φ`: a point survives
    /// unless the processor is in scope there (`antecedent`) and fails to
    /// believe (`¬consequent`).
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn and_implication(&mut self, antecedent: &Bitset, consequent: &Bitset) {
        assert_eq!(self.len, antecedent.len);
        assert_eq!(self.len, consequent.len);
        kernels::and_implication(&mut self.words, &antecedent.words, &consequent.words);
        // `&=` cannot set bits, so canonical inputs stay canonical; the
        // clear keeps that true even for a non-canonical `self`.
        self.clear_tail();
    }

    /// In-place `self |= (a ∧ b)` — unions the pointwise conjunction into
    /// `self`. This is the word-level form of one disjunct of `S_S φ`:
    /// a point joins when the processor is in scope (`a`) and believes
    /// (`b`).
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn or_conjunction(&mut self, a: &Bitset, b: &Bitset) {
        assert_eq!(self.len, a.len);
        assert_eq!(self.len, b.len);
        kernels::or_conjunction(&mut self.words, &a.words, &b.words);
    }

    /// In-place `self ∧= ¬other` — removes every index set in `other`.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn and_not(&mut self, other: &Bitset) {
        assert_eq!(self.len, other.len);
        kernels::andnot_assign(&mut self.words, &other.words);
        // `&=` cannot set bits, so canonical inputs stay canonical; the
        // clear keeps that true even for a non-canonical `self`.
        self.clear_tail();
    }

    /// Whether `self ⊆ other` (as sets of `true` indices).
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    #[must_use]
    pub fn is_subset(&self, other: &Bitset) -> bool {
        assert_eq!(self.len, other.len);
        kernels::is_subset(&self.words, &other.words)
    }
}

impl BitAndAssign<&Bitset> for Bitset {
    fn bitand_assign(&mut self, rhs: &Bitset) {
        assert_eq!(self.len, rhs.len);
        kernels::and_assign(&mut self.words, &rhs.words);
    }
}

impl BitOrAssign<&Bitset> for Bitset {
    fn bitor_assign(&mut self, rhs: &Bitset) {
        assert_eq!(self.len, rhs.len);
        kernels::or_assign(&mut self.words, &rhs.words);
    }
}

impl fmt::Debug for Bitset {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Bitset[{}; {} ones]", self.len, self.count_ones())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_false_and_true() {
        let f = Bitset::new_false(100);
        assert_eq!(f.count_ones(), 0);
        assert!(!f.any());
        let t = Bitset::new_true(100);
        assert_eq!(t.count_ones(), 100);
        assert!(t.all());
    }

    #[test]
    fn set_get() {
        let mut s = Bitset::new_false(70);
        s.set(0, true);
        s.set(69, true);
        assert!(s.get(0) && s.get(69) && !s.get(35));
        s.set(0, false);
        assert!(!s.get(0));
        assert_eq!(s.count_ones(), 1);
    }

    #[test]
    fn invert_respects_tail() {
        let mut s = Bitset::new_false(65);
        s.invert();
        assert_eq!(s.count_ones(), 65);
        assert!(s.all());
    }

    #[test]
    fn first_one_and_zero() {
        let mut s = Bitset::new_false(130);
        assert_eq!(s.first_one(), None);
        assert_eq!(s.first_zero(), Some(0));
        s.set(128, true);
        assert_eq!(s.first_one(), Some(128));
        let mut t = Bitset::new_true(130);
        assert_eq!(t.first_zero(), None);
        t.set(129, false);
        assert_eq!(t.first_zero(), Some(129));
    }

    #[test]
    fn ones_iterator() {
        let mut s = Bitset::new_false(200);
        for i in [3, 64, 150] {
            s.set(i, true);
        }
        assert_eq!(s.ones().collect::<Vec<_>>(), vec![3, 64, 150]);
    }

    #[test]
    fn boolean_ops() {
        let mut a = Bitset::new_false(10);
        a.set(1, true);
        a.set(2, true);
        let mut b = Bitset::new_false(10);
        b.set(2, true);
        b.set(3, true);
        let mut and = a.clone();
        and &= &b;
        assert_eq!(and.ones().collect::<Vec<_>>(), vec![2]);
        let mut or = a.clone();
        or |= &b;
        assert_eq!(or.ones().collect::<Vec<_>>(), vec![1, 2, 3]);
        assert!(and.is_subset(&a));
        assert!(!a.is_subset(&b));
    }

    #[test]
    fn and_implication_matches_bitwise_definition() {
        // 70 bits so the tail word is partial: and_implication's `!a`
        // must not resurrect tail bits.
        let mut scope = Bitset::new_false(70);
        let mut believes = Bitset::new_false(70);
        for i in 0..70 {
            if i % 2 == 0 {
                scope.set(i, true);
            }
            if i % 3 == 0 {
                believes.set(i, true);
            }
        }
        let mut out = Bitset::new_true(70);
        out.and_implication(&scope, &believes);
        for i in 0..70 {
            assert_eq!(out.get(i), !scope.get(i) || believes.get(i), "bit {i}");
        }
        // Canonical tail: equality with a reconstructed bitset holds.
        let mut expect = Bitset::new_false(70);
        for i in 0..70 {
            expect.set(i, !scope.get(i) || believes.get(i));
        }
        assert_eq!(out, expect);
    }

    #[test]
    fn or_conjunction_matches_bitwise_definition() {
        let mut scope = Bitset::new_false(70);
        let mut believes = Bitset::new_false(70);
        for i in 0..70 {
            if i % 2 == 1 {
                scope.set(i, true);
            }
            if i % 5 == 0 {
                believes.set(i, true);
            }
        }
        let mut out = Bitset::new_false(70);
        out.or_conjunction(&scope, &believes);
        for i in 0..70 {
            assert_eq!(out.get(i), scope.get(i) && believes.get(i), "bit {i}");
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn get_out_of_range_panics() {
        let s = Bitset::new_false(3);
        let _ = s.get(3);
    }

    #[test]
    fn zeros_iterator_respects_tail() {
        // 130 bits: two full words plus a 2-bit tail, so the complement
        // must not leak phantom zeros past `len`.
        let mut s = Bitset::new_true(130);
        for i in [0, 63, 64, 129] {
            s.set(i, false);
        }
        assert_eq!(s.zeros().collect::<Vec<_>>(), vec![0, 63, 64, 129]);
        let t = Bitset::new_true(130);
        assert_eq!(t.zeros().count(), 0);
        let f = Bitset::new_false(70);
        assert_eq!(f.zeros().count(), 70);
    }

    #[test]
    fn set_range_matches_per_bit_fill() {
        for (start, end) in [(0, 0), (0, 64), (3, 7), (60, 70), (0, 200), (63, 129)] {
            let mut fast = Bitset::new_false(200);
            fast.set_range(start, end);
            let mut slow = Bitset::new_false(200);
            for i in start..end {
                slow.set(i, true);
            }
            assert_eq!(fast, slow, "range {start}..{end}");
        }
    }

    #[test]
    fn all_is_word_exact() {
        for len in [0, 1, 63, 64, 65, 128, 130] {
            let t = Bitset::new_true(len);
            assert!(t.all(), "all-true of length {len}");
            if len > 0 {
                let mut missing = Bitset::new_true(len);
                missing.set(len - 1, false);
                assert!(!missing.all(), "length {len} with last bit clear");
            }
        }
    }
}
