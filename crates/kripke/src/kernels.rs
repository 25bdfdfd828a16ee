//! Word-block `u64` kernels for the dense set types.
//!
//! [`Bitset`](crate::Bitset) and the `ViewSet`s behind
//! [`StateSets`](crate::StateSets) spend their hot loops streaming over
//! `u64` word vectors. Two loop shapes coexist here, each used where it
//! measurably wins (`cargo bench -p eba-bench --bench parallel_scaling`,
//! `word_kernels` group):
//!
//! * **Plain zip loops** for the pure boolean maps (`or`/`and`/`andnot`/
//!   implication/conjunction). LLVM already auto-vectorizes a
//!   side-effect-free slice zip to full-width SIMD; a hand-unrolled
//!   4-lane body pins the loop to the written shape and benches ~1.7×
//!   *slower* than the straight loop, so the maps stay simple.
//! * **4-wide unrolled blocks with a scalar tail** for the reductions and
//!   early-exit predicates (`count_ones`, `is_subset`, `any`), which a
//!   per-word `all`/`any` chain compiles to branch-per-word code. One
//!   combined test per block (and four independent popcount accumulators)
//!   is worth ~1.6× on `is_subset` over megabit sets.
//!
//! Every kernel is a pure word-lane operation — bit semantics (including
//! the callers' canonical-tail invariants) are entirely the callers'
//! concern, so these are `pub(crate)` plumbing, not API.

/// Words per unrolled block (reductions and early-exit predicates).
const LANES: usize = 4;

/// Applies `f` lane-wise: `dst[i] = f(dst[i], src[i])`.
///
/// Callers guarantee `dst.len() == src.len()`. Kept as a plain zip loop
/// on purpose — see the module docs.
#[inline(always)]
fn zip_map_into<F: Fn(u64, u64) -> u64>(dst: &mut [u64], src: &[u64], f: F) {
    debug_assert_eq!(dst.len(), src.len());
    for (dw, &sw) in dst.iter_mut().zip(src) {
        *dw = f(*dw, sw);
    }
}

/// Applies `f` lane-wise over three streams: `dst[i] = f(dst[i], a[i], b[i])`.
///
/// Callers guarantee equal lengths. Plain zip loop on purpose — see the
/// module docs.
#[inline(always)]
fn zip3_map_into<F: Fn(u64, u64, u64) -> u64>(dst: &mut [u64], a: &[u64], b: &[u64], f: F) {
    debug_assert_eq!(dst.len(), a.len());
    debug_assert_eq!(dst.len(), b.len());
    for ((dw, &aw), &bw) in dst.iter_mut().zip(a).zip(b) {
        *dw = f(*dw, aw, bw);
    }
}

/// `dst[i] |= src[i]`.
#[inline]
pub(crate) fn or_assign(dst: &mut [u64], src: &[u64]) {
    zip_map_into(dst, src, |d, s| d | s);
}

/// `dst[i] &= src[i]`.
#[inline]
pub(crate) fn and_assign(dst: &mut [u64], src: &[u64]) {
    zip_map_into(dst, src, |d, s| d & s);
}

/// `dst[i] &= !src[i]`.
#[inline]
pub(crate) fn andnot_assign(dst: &mut [u64], src: &[u64]) {
    zip_map_into(dst, src, |d, s| d & !s);
}

/// `dst[i] &= !a[i] | c[i]` — intersect with the pointwise implication.
#[inline]
pub(crate) fn and_implication(dst: &mut [u64], a: &[u64], c: &[u64]) {
    zip3_map_into(dst, a, c, |d, aw, cw| d & (!aw | cw));
}

/// `dst[i] |= a[i] & b[i]` — union in the pointwise conjunction.
#[inline]
pub(crate) fn or_conjunction(dst: &mut [u64], a: &[u64], b: &[u64]) {
    zip3_map_into(dst, a, b, |d, aw, bw| d | (aw & bw));
}

/// `dst[i] = !dst[i]`.
#[inline]
pub(crate) fn not_assign(dst: &mut [u64]) {
    for dw in dst {
        *dw = !*dw;
    }
}

/// Total popcount of `words`, accumulated in four independent lanes so
/// the adds pipeline.
#[inline]
pub(crate) fn count_ones(words: &[u64]) -> usize {
    let mut chunks = words.chunks_exact(LANES);
    let mut acc = [0usize; LANES];
    for c in &mut chunks {
        acc[0] += c[0].count_ones() as usize;
        acc[1] += c[1].count_ones() as usize;
        acc[2] += c[2].count_ones() as usize;
        acc[3] += c[3].count_ones() as usize;
    }
    let mut total = acc[0] + acc[1] + acc[2] + acc[3];
    for &w in chunks.remainder() {
        total += w.count_ones() as usize;
    }
    total
}

/// Whether `a[i] & !b[i] == 0` for every lane (`a ⊆ b` word-wise), with
/// one early-exit test per unrolled block.
///
/// Callers guarantee `a.len() == b.len()`.
#[inline]
pub(crate) fn is_subset(a: &[u64], b: &[u64]) -> bool {
    debug_assert_eq!(a.len(), b.len());
    let mut ac = a.chunks_exact(LANES);
    let mut bc = b.chunks_exact(LANES);
    for (av, bv) in (&mut ac).zip(&mut bc) {
        let stray = (av[0] & !bv[0]) | (av[1] & !bv[1]) | (av[2] & !bv[2]) | (av[3] & !bv[3]);
        if stray != 0 {
            return false;
        }
    }
    ac.remainder()
        .iter()
        .zip(bc.remainder())
        .all(|(&aw, &bw)| aw & !bw == 0)
}

/// Whether any word is non-zero, one early-exit test per unrolled block.
#[inline]
pub(crate) fn any(words: &[u64]) -> bool {
    let mut chunks = words.chunks_exact(LANES);
    for c in &mut chunks {
        if c[0] | c[1] | c[2] | c[3] != 0 {
            return true;
        }
    }
    chunks.remainder().iter().any(|&w| w != 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic word soup long enough to exercise blocks and tails.
    fn soup(seed: u64, len: usize) -> Vec<u64> {
        let mut state = seed;
        (0..len)
            .map(|_| {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                state
            })
            .collect()
    }

    /// Every kernel agrees with its one-word-at-a-time definition across
    /// lengths that cover empty, sub-block, exact-block, and tailed runs.
    #[test]
    fn kernels_match_scalar_reference() {
        for len in [0, 1, 3, 4, 5, 8, 17, 64] {
            let a = soup(0xA5A5, len);
            let b = soup(0x5A5A, len);
            let c = soup(0x1234, len);

            let mut out = a.clone();
            or_assign(&mut out, &b);
            assert!(out.iter().zip(&a).zip(&b).all(|((&o, &x), &y)| o == x | y));

            let mut out = a.clone();
            and_assign(&mut out, &b);
            assert!(out.iter().zip(&a).zip(&b).all(|((&o, &x), &y)| o == x & y));

            let mut out = a.clone();
            andnot_assign(&mut out, &b);
            assert!(out.iter().zip(&a).zip(&b).all(|((&o, &x), &y)| o == x & !y));

            let mut out = a.clone();
            and_implication(&mut out, &b, &c);
            assert!(out
                .iter()
                .zip(&a)
                .zip(&b)
                .zip(&c)
                .all(|(((&o, &x), &y), &z)| o == x & (!y | z)));

            let mut out = a.clone();
            or_conjunction(&mut out, &b, &c);
            assert!(out
                .iter()
                .zip(&a)
                .zip(&b)
                .zip(&c)
                .all(|(((&o, &x), &y), &z)| o == x | (y & z)));

            let mut out = a.clone();
            not_assign(&mut out);
            assert!(out.iter().zip(&a).all(|(&o, &x)| o == !x));

            let scalar: usize = a.iter().map(|w| w.count_ones() as usize).sum();
            assert_eq!(count_ones(&a), scalar);

            assert_eq!(any(&a), a.iter().any(|&w| w != 0));
            assert!(any(&a) || len == 0);

            let mut sub = a.clone();
            and_assign(&mut sub, &b);
            assert!(is_subset(&sub, &a));
            assert!(is_subset(&sub, &b));
            assert_eq!(
                is_subset(&a, &b),
                a.iter().zip(&b).all(|(&x, &y)| x & !y == 0)
            );
        }
        assert!(!any(&[0, 0, 0, 0, 0]));
        assert!(is_subset(&[], &[]));
    }
}
