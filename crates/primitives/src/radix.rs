//! LSD radix sort — the third GPU sorting primitive §4 names
//! ("bitonic sort, merge sort, and radix sort").
//!
//! A GPU LSD radix sort processes `bits/digit_bits` passes; each pass
//! is a count → exclusive-scan → scatter pipeline executed by the
//! whole thread block with a barrier between the three stages. We
//! execute the identical pass structure sequentially (the stages are
//! data-parallel within a pass, so results match), and
//! [`crate::CostModel::radix_sort_cycles`] charges the corresponding
//! lock-step schedule.
//!
//! Radix sort orders by an unsigned rank, so it applies to keys that
//! expose one — [`RadixKey`] — covering the integer key types the
//! paper's evaluation uses (30/32-bit keys in four 8-bit passes, 64-bit
//! app priorities in eight).

/// A key with a radix (unsigned integer) representation whose order
/// matches `Ord`.
pub trait RadixKey: Copy {
    /// Bits in the rank actually used (passes = ceil(bits / 8)).
    const RANK_BITS: u32;
    /// Order-preserving unsigned rank.
    fn rank(&self) -> u64;
}

impl RadixKey for u32 {
    const RANK_BITS: u32 = 32;
    fn rank(&self) -> u64 {
        *self as u64
    }
}

impl RadixKey for u64 {
    const RANK_BITS: u32 = 64;
    fn rank(&self) -> u64 {
        *self
    }
}

impl RadixKey for i32 {
    const RANK_BITS: u32 = 32;
    fn rank(&self) -> u64 {
        (*self as u32 ^ 0x8000_0000) as u64
    }
}

impl RadixKey for i64 {
    const RANK_BITS: u32 = 64;
    fn rank(&self) -> u64 {
        *self as u64 ^ 0x8000_0000_0000_0000
    }
}

const DIGIT_BITS: u32 = 8;
const BUCKETS: usize = 1 << DIGIT_BITS;
/// Digit histograms kept per call: enough for the widest (64-bit) rank.
const MAX_PASSES: usize = (u64::BITS / DIGIT_BITS) as usize;

/// Number of count/scan/scatter passes for a key type.
pub fn radix_passes<T: RadixKey>() -> u32 {
    T::RANK_BITS.div_ceil(DIGIT_BITS)
}

#[inline(always)]
fn digit(rank: u64, pass: usize) -> usize {
    (rank >> (pass as u32 * DIGIT_BITS)) as u8 as usize
}

/// Stable LSD radix sort by `RadixKey` rank, ping-ponging through the
/// caller's `scratch` — the allocation-free kernel behind
/// [`radix_sort_by_key`] and the heap's INSERT staging sort.
///
/// One read pass builds the histogram of every digit at once (the
/// count stage of all passes fused); the scan and scatter stages then
/// run once per digit. A digit that is the same for every element would
/// scatter into a single bucket, i.e. copy the input unchanged, so it
/// is skipped: keys that share their high bytes pay only for the
/// digits that vary.
///
/// `scratch` is grown to `data.len()` when shorter (contents are never
/// read, only overwritten), so a caller that keeps it at capacity
/// makes the sort allocation-free, as with [`crate::sort_split()`].
pub fn radix_sort_by_key_with<T, K, F>(data: &mut [T], scratch: &mut Vec<T>, key_of: F)
where
    T: Copy,
    K: RadixKey,
    F: Fn(&T) -> K,
{
    let n = data.len();
    if n <= 1 {
        return;
    }
    // Counters are `u32` to halve the histogram footprint.
    assert!(n <= u32::MAX as usize, "radix sort of more than u32::MAX elements");
    let passes = radix_passes::<K>() as usize;
    // Stage 1 (block-parallel on a GPU), every digit in one pass.
    let mut counts = [[0u32; BUCKETS]; MAX_PASSES];
    for item in data.iter() {
        let r = key_of(item).rank();
        for (p, c) in counts[..passes].iter_mut().enumerate() {
            c[digit(r, p)] += 1;
        }
    }
    if scratch.len() < n {
        scratch.resize(n, data[0]);
    }
    let buf = &mut scratch[..n];
    let first = key_of(&data[0]).rank();
    let mut in_buf = false;
    for (p, offsets) in counts[..passes].iter_mut().enumerate() {
        if offsets[digit(first, p)] as usize == n {
            continue;
        }
        // Stage 2: exclusive prefix scan of the histogram, in place.
        let mut acc = 0;
        for o in offsets.iter_mut() {
            let c = *o;
            *o = acc;
            acc += c;
        }
        // Stage 3: stable scatter.
        let (src, dst): (&[T], &mut [T]) =
            if in_buf { (&*buf, &mut *data) } else { (&*data, &mut *buf) };
        for item in src {
            let d = digit(key_of(item).rank(), p);
            dst[offsets[d] as usize] = *item;
            offsets[d] += 1;
        }
        in_buf = !in_buf;
    }
    if in_buf {
        data.copy_from_slice(buf);
    }
}

/// Stable LSD radix sort by `RadixKey` rank, with a fresh scratch
/// buffer per call (see [`radix_sort_by_key_with`]).
pub fn radix_sort_by_key<T, K, F>(data: &mut [T], key_of: F)
where
    T: Copy,
    K: RadixKey,
    F: Fn(&T) -> K,
{
    radix_sort_by_key_with(data, &mut Vec::new(), key_of);
}

/// Convenience: sort a slice of radix keys directly.
pub fn radix_sort<K: RadixKey + Ord>(data: &mut [K]) {
    radix_sort_by_key(data, |k| *k);
}

/// Merge sort built from the merge-path primitive: `log2(n)` rounds of
/// pairwise merges, each round fully data-parallel across a thread
/// block (§4's "merge sort" option).
pub fn merge_sort<T: Ord + Copy>(data: &mut [T]) {
    let n = data.len();
    if n <= 1 {
        return;
    }
    let mut width = 1usize;
    let mut src: Vec<T> = data.to_vec();
    let mut dst: Vec<T> = data.to_vec();
    while width < n {
        // One round: merge adjacent sorted runs of `width`.
        let mut start = 0;
        while start < n {
            let mid = (start + width).min(n);
            let end = (start + 2 * width).min(n);
            crate::merge_path::merge_into(&src[start..mid], &src[mid..end], &mut dst[start..end]);
            start = end;
        }
        std::mem::swap(&mut src, &mut dst);
        width *= 2;
    }
    data.copy_from_slice(&src);
}

/// Number of pairwise-merge rounds for `n` elements.
pub fn merge_sort_rounds(n: usize) -> u32 {
    if n <= 1 {
        0
    } else {
        usize::BITS - (n - 1).leading_zeros()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn radix_matches_std_sort() {
        let mut rng = StdRng::seed_from_u64(1);
        for n in [0usize, 1, 2, 7, 100, 1000] {
            let mut v: Vec<u32> = (0..n).map(|_| rng.gen()).collect();
            let mut expect = v.clone();
            expect.sort_unstable();
            radix_sort(&mut v);
            assert_eq!(v, expect, "n={n}");
        }
    }

    #[test]
    fn radix_signed_keys() {
        let mut v: Vec<i32> = vec![5, -3, 0, i32::MIN, i32::MAX, -3];
        radix_sort(&mut v);
        assert_eq!(v, vec![i32::MIN, -3, -3, 0, 5, i32::MAX]);
        let mut w: Vec<i64> = vec![9, -9, 0];
        radix_sort(&mut w);
        assert_eq!(w, vec![-9, 0, 9]);
    }

    #[test]
    fn radix_is_stable() {
        // Sort (key, tag) pairs by key only; equal keys keep tag order.
        let mut v: Vec<(u32, u32)> = vec![(2, 0), (1, 1), (2, 2), (1, 3), (2, 4)];
        radix_sort_by_key(&mut v, |&(k, _)| k);
        assert_eq!(v, vec![(1, 1), (1, 3), (2, 0), (2, 2), (2, 4)]);
    }

    #[test]
    fn radix_with_reuses_a_warm_scratch() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut scratch: Vec<u32> = Vec::with_capacity(512);
        let ptr = scratch.as_ptr();
        for n in [512usize, 7, 300, 512] {
            let mut v: Vec<u32> = (0..n).map(|_| rng.gen()).collect();
            let mut expect = v.clone();
            expect.sort_unstable();
            radix_sort_by_key_with(&mut v, &mut scratch, |k| *k);
            assert_eq!(v, expect, "n={n}");
            assert_eq!((scratch.as_ptr(), scratch.capacity()), (ptr, 512), "scratch reallocated");
        }
    }

    #[test]
    fn radix_with_shared_digits() {
        // A narrow window straddling a high-byte boundary, and keys
        // sharing everything but the top byte (three skipped digits).
        let mut v: Vec<u32> =
            (0..1000u32).map(|i| 0x00FF_FF00 + i.wrapping_mul(7919) % 600).collect();
        let mut w: Vec<u32> = (0..256u32).rev().map(|i| i << 24 | 0x00AB_CDEF).collect();
        let (mut ev, mut ew) = (v.clone(), w.clone());
        ev.sort_unstable();
        ew.sort_unstable();
        radix_sort(&mut v);
        radix_sort(&mut w);
        assert_eq!((v, w), (ev, ew));
    }

    #[test]
    fn radix_u64_full_width() {
        let mut v: Vec<u64> = vec![u64::MAX, 0, 1 << 40, 1 << 20, u64::MAX - 1];
        radix_sort(&mut v);
        assert_eq!(v, vec![0, 1 << 20, 1 << 40, u64::MAX - 1, u64::MAX]);
    }

    #[test]
    fn merge_sort_matches_std() {
        let mut rng = StdRng::seed_from_u64(2);
        for n in [0usize, 1, 3, 64, 100, 1023] {
            let mut v: Vec<u32> = (0..n).map(|_| rng.gen()).collect();
            let mut expect = v.clone();
            expect.sort_unstable();
            merge_sort(&mut v);
            assert_eq!(v, expect, "n={n}");
        }
    }

    #[test]
    fn round_and_pass_counts() {
        assert_eq!(radix_passes::<u32>(), 4);
        assert_eq!(radix_passes::<u64>(), 8);
        assert_eq!(merge_sort_rounds(1), 0);
        assert_eq!(merge_sort_rounds(2), 1);
        assert_eq!(merge_sort_rounds(1024), 10);
        assert_eq!(merge_sort_rounds(1000), 10);
    }
}
