//! The paper's `SORT_SPLIT` node operation (§4):
//!
//! ```text
//! (X[1:Ma], Y[1:Mb]) <- SORT_SPLIT(Z, Na, W, Nb, Ma)
//!   s.t. (X, Y) = sorted(Z, W)
//!        Ma + Mb = Na + Nb,  max X <= min Y,
//!        X sorted ascending, Y sorted ascending
//! ```
//!
//! i.e. merge two sorted batches and split the result: `X` receives the
//! `Ma` smallest elements, `Y` the remaining `Mb` largest, both sorted.
//! On the GPU this is one merge-path merge in shared memory followed by a
//! partitioned write-out; here we merge into a scratch buffer and copy
//! the two halves back.
//!
//! The common case ("if the range is not specified") operates on two full
//! nodes of capacity `K` with `Ma = K` — [`sort_split_full`]. Two more
//! forms return the same result for the crossing shapes the heapify
//! loops produce: [`sort_split_full_branchless`] for random interleaves
//! and [`sort_split_full_in_place`] for narrow crossings and near-swaps.

use crate::merge_path::merge_into_vec;

/// Outcome sizes of a [`sort_split`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SortSplitResult {
    /// Number of elements written to the small side (`Ma`).
    pub ma: usize,
    /// Number of elements written to the large side (`Mb`).
    pub mb: usize,
}

/// `SORT_SPLIT` over the valid prefixes of two buffers, writing the `Ma`
/// smallest elements back into `z[..ma]` and the `Mb = Na + Nb - ma`
/// largest into `w[..mb]`.
///
/// * `z[..na]` and `w[..nb]` must each be sorted ascending.
/// * `ma <= na + nb`, `ma <= z.len()`, and `na + nb - ma <= w.len()`
///   (the outputs must fit the buffers).
/// * `scratch` is caller-provided to keep the hot path allocation-free;
///   its capacity grows as needed (a warm scratch never reallocates,
///   and the merge writes into it without zero-initializing).
///
/// Returns the output sizes.
pub fn sort_split<T: Ord + Copy>(
    z: &mut [T],
    na: usize,
    w: &mut [T],
    nb: usize,
    ma: usize,
    scratch: &mut Vec<T>,
) -> SortSplitResult {
    assert!(na <= z.len() && nb <= w.len(), "valid prefix exceeds buffer");
    let total = na + nb;
    assert!(ma <= total, "cannot take more smallest elements than exist");
    let mb = total - ma;
    assert!(ma <= z.len(), "small side does not fit");
    assert!(mb <= w.len(), "large side does not fit");
    debug_assert!(z[..na].windows(2).all(|p| p[0] <= p[1]), "Z not sorted");
    debug_assert!(w[..nb].windows(2).all(|p| p[0] <= p[1]), "W not sorted");

    merge_into_vec(&z[..na], &w[..nb], scratch);

    z[..ma].copy_from_slice(&scratch[..ma]);
    w[..mb].copy_from_slice(&scratch[ma..total]);
    SortSplitResult { ma, mb }
}

/// `SORT_SPLIT` between two *full* batches of equal capacity — the common
/// case in the heapify loops (Alg. 1 line 33, Alg. 3 lines 10/12): `a`
/// keeps the smallest `a.len()` elements, `b` the largest `b.len()`.
pub fn sort_split_full<T: Ord + Copy>(a: &mut [T], b: &mut [T], scratch: &mut Vec<T>) {
    let na = a.len();
    debug_assert!(a.windows(2).all(|p| p[0] <= p[1]), "A not sorted");
    debug_assert!(b.windows(2).all(|p| p[0] <= p[1]), "B not sorted");
    merge_into_vec(a, b, scratch);
    a.copy_from_slice(&scratch[..na]);
    b.copy_from_slice(&scratch[na..]);
}

/// Branch-free [`sort_split_full`]: same contract, bit-identical result
/// (`a` keeps the `a.len()` smallest, `a` wins ties), built for runs
/// whose keys interleave at random.
///
/// The merge-path cut `(i, j)` at diagonal `a.len()` splits the job
/// into two independent merges, one per output half:
/// `a' = merge(a[..i], b[..j])` and `b' = merge(a[i..], b[j..])` — the
/// same decomposition a thread block uses to give each thread its own
/// output range. Both merges run in one loop, so their
/// load→compare→advance dependency chains overlap, and each step
/// picks its element with `core::hint::select_unpredictable` and
/// advances both cursors arithmetically: no branch depends on key
/// order. Steps run in bursts as long as every input still holds that
/// many elements; once a run is exhausted, the rest of its merge is a
/// bulk copy.
///
/// On a random interleave the branchy [`sort_split_full`] mispredicts
/// about every other element; on long single-run stretches (the
/// insert-path shape) it predicts well and wins. Callers route by
/// shape (`bgpq::soa`).
///
/// `cut` is the merge-path cut at diagonal `a.len()`, which the
/// router has already probed (see [`sort_split_full_in_place`]). Both
/// inputs are staged into `scratch` (no zero-fill; a warm scratch of
/// `a.len() + b.len()` capacity never reallocates), and the two merges
/// write straight back into `a` and `b`.
pub fn sort_split_full_branchless<T: Ord + Copy>(
    a: &mut [T],
    b: &mut [T],
    cut: (usize, usize),
    scratch: &mut Vec<T>,
) {
    let na = a.len();
    debug_assert!(a.windows(2).all(|p| p[0] <= p[1]), "A not sorted");
    debug_assert!(b.windows(2).all(|p| p[0] <= p[1]), "B not sorted");
    assert_full_cut(a, b, cut);
    let (i, j) = cut;
    scratch.clear();
    scratch.extend_from_slice(a);
    scratch.extend_from_slice(b);
    let (sa, sb) = scratch.split_at(na);
    let mut lo = Chain::new(&sa[..i], &sb[..j], a);
    let mut hi = Chain::new(&sa[i..], &sb[j..], b);
    loop {
        let steps = lo.steps_left().min(hi.steps_left());
        if steps == 0 {
            break;
        }
        for _ in 0..steps {
            // SAFETY: each step advances exactly one cursor of each
            // chain by one, so `steps` steps keep every cursor below
            // its run's length (`steps_left`).
            unsafe {
                lo.step();
                hi.step();
            }
        }
    }
    lo.finish();
    hi.finish();
}

/// In-place [`sort_split_full`] with work proportional to the crossing:
/// same contract, bit-identical result. `cut` is the merge-path cut
/// `(i, j)` at diagonal `a.len()` (`merge_path_search(a, b, a.len())`),
/// which splits the outputs into `a' = merge(a[..i], b[..j])` and
/// `b' = merge(a[i..], b[j..])`. The caller passes it because it probes
/// the cut anyway to pick a route; a cut that is not the merge-path
/// cut panics (an O(1) check).
///
/// * **Narrow crossing** (`j ≤ i`, or unequal lengths): stash the `j`
///   displaced entries `a[i..]`, merge `b[..j]` into `a` *backward*
///   (elements of `a` below `b[0]` never move), then the stash into `b`
///   *forward* (elements of `b` above `max(a)` never move).
/// * **Near-swap** (`i < j`, equal lengths): the mirror image. Swap the
///   nodes, stash the `i` displaced entries of the old `b[j..]`, and
///   resolve the rest with the same two merges, tie rule reversed
///   (the in-place runs now hold the old `b`/`a` sides). This is the
///   parent/child split of DELETEMIN_HEAPIFY, where the parent came
///   down from above and holds larger keys than the child.
///
/// Either way every entry between the cut and the first insertion
/// point moves one step at a time (plus the swap), so the route pays
/// off only on narrow crossings that sit next to the cut; callers
/// probe the cut first and route wide ones to the streaming kernels.
/// `stash` grows to `min(i, j)` entries.
pub fn sort_split_full_in_place<T: Ord + Copy>(
    a: &mut [T],
    b: &mut [T],
    cut: (usize, usize),
    stash: &mut Vec<T>,
) {
    assert_full_cut(a, b, cut);
    let (i, j) = cut;
    stash.clear();
    if j <= i || a.len() != b.len() {
        // len(a[i..]) == a.len() - i == j: exactly the stash the
        // forward merge needs to stay ahead of its write cursor.
        stash.extend_from_slice(&a[i..]);
        merge_prefixes_in_place::<_, true>(a, i, &b[..j]);
        merge_suffixes_in_place::<_, false>(b, j, stash);
    } else {
        // After the swap `a` holds the old `b` and vice versa:
        // a' = merge(b[..i], a[..j]) and b' = merge(b[i..], stash),
        // the old-`a` entries (now in `b`) winning ties.
        stash.extend_from_slice(&b[j..]);
        a.swap_with_slice(b);
        merge_prefixes_in_place::<_, false>(a, j, &b[..i]);
        merge_suffixes_in_place::<_, true>(b, i, stash);
    }
}

/// Panics unless `(i, j)` is the merge-path cut at diagonal `a.len()`
/// of sorted `a` and `b`. The two cross-diagonal comparisons define the
/// stable cut (`a` wins ties): what stays in the small half of `a`
/// precedes what leaves `b`, and what enters from `b` is strictly below
/// what leaves `a`.
fn assert_full_cut<T: Ord>(a: &[T], b: &[T], (i, j): (usize, usize)) {
    assert!(i + j == a.len() && j <= b.len(), "cut off the diagonal");
    assert!(i == 0 || j == b.len() || a[i - 1] <= b[j], "not the merge-path cut");
    assert!(j == 0 || i == a.len() || b[j - 1] < a[i], "not the merge-path cut");
}

/// Merge `bs` with `a[..i]` into `a[..]` (`a.len() == i + bs.len()`),
/// writing *backward* from the top. `RUN_FIRST` says whether the
/// in-place run `a[..i]` precedes `bs` on ties (it is the `a` side of
/// the stable merge) or follows it.
///
/// In place without scratch: the write cursor `w` descends from
/// `a.len()` while the read cursor `ra` descends from `i`, and
/// `w - ra` equals the unconsumed part of `bs` — strictly positive
/// until `bs` drains, at which point `a[..ra]` is already in its final
/// position and the loop stops. Descending emit order places the
/// tie-losing instance *above* an equal tie-winning one: a run element
/// equal to `be` moves up past it only when the run loses ties.
fn merge_prefixes_in_place<T: Ord + Copy, const RUN_FIRST: bool>(a: &mut [T], i: usize, bs: &[T]) {
    debug_assert_eq!(a.len(), i + bs.len());
    let (mut w, mut ra) = (a.len(), i);
    for &be in bs.iter().rev() {
        while ra > 0 && if RUN_FIRST { a[ra - 1] > be } else { a[ra - 1] >= be } {
            w -= 1;
            a[w] = a[ra - 1];
            ra -= 1;
        }
        w -= 1;
        a[w] = be;
    }
    debug_assert!(w == ra, "prefix must land in place");
}

/// Merge `ys` (length `j`) with `x[j..]` into `x[..]` in place,
/// writing forward. `RUN_FIRST` says whether the in-place run `x[j..]`
/// precedes `ys` on ties (it is the `a` side of the stable merge) or
/// follows it.
///
/// Safe without scratch because the write cursor trails the `x` read
/// cursor by exactly `j - (ys consumed)`, which stays positive until
/// `ys` is drained — at which point the remaining `x[rx..]` tail is
/// already in its final position, so the loop stops there.
fn merge_suffixes_in_place<T: Ord + Copy, const RUN_FIRST: bool>(x: &mut [T], j: usize, ys: &[T]) {
    debug_assert_eq!(ys.len(), j);
    let (mut w, mut rx) = (0usize, j);
    for &ye in ys {
        while rx < x.len() && if RUN_FIRST { x[rx] <= ye } else { x[rx] < ye } {
            x[w] = x[rx];
            w += 1;
            rx += 1;
        }
        x[w] = ye;
        w += 1;
    }
    debug_assert!(w == rx, "tail must land in place");
}

/// One of the two independent merges of [`sort_split_full_branchless`]:
/// `out = merge(a, b)`, `a` winning ties.
struct Chain<'s, 'o, T> {
    a: &'s [T],
    b: &'s [T],
    out: &'o mut [T],
    i: usize,
    j: usize,
}

impl<'s, 'o, T: Ord + Copy> Chain<'s, 'o, T> {
    fn new(a: &'s [T], b: &'s [T], out: &'o mut [T]) -> Self {
        assert_eq!(out.len(), a.len() + b.len(), "output size mismatch");
        Self { a, b, out, i: 0, j: 0 }
    }

    /// Steps that cannot run out of either run: each step takes one
    /// element from one of them.
    #[inline(always)]
    fn steps_left(&self) -> usize {
        (self.a.len() - self.i).min(self.b.len() - self.j)
    }

    /// Emit one merged element; no branch depends on key order.
    /// Unchecked indexing: with bounds checks the sibling split of
    /// `perfbench heap-large` took 9.6 µs per call instead of 8.5
    /// (EXPERIMENTS.md E15).
    ///
    /// # Safety
    /// `self.steps_left() > 0`.
    #[inline(always)]
    unsafe fn step(&mut self) {
        // SAFETY: the caller guarantees i < a.len() and j < b.len(),
        // hence i + j < a.len() + b.len() == out.len() (`new`).
        let take_a = unsafe {
            let av = *self.a.get_unchecked(self.i);
            let bv = *self.b.get_unchecked(self.j);
            let take_a = av <= bv;
            *self.out.get_unchecked_mut(self.i + self.j) =
                core::hint::select_unpredictable(take_a, av, bv);
            take_a
        };
        self.i += take_a as usize;
        self.j += !take_a as usize;
    }

    /// Run this chain alone until a run drains, then bulk-copy the
    /// other run's tail.
    fn finish(mut self) {
        while self.steps_left() > 0 {
            for _ in 0..self.steps_left() {
                // SAFETY: at most `steps_left` steps (see `step`).
                unsafe { self.step() };
            }
        }
        let (a, b, i, j) = (self.a, self.b, self.i, self.j);
        let o = i + j;
        self.out[o..o + a.len() - i].copy_from_slice(&a[i..]);
        self.out[o + a.len() - i..].copy_from_slice(&b[j..]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_postconditions_hold() {
        // Z = [1,4,9], W = [2,3,5,8], Ma = 2 (so Mb = 5 must fit in W).
        let mut z = [1u32, 4, 9, 0, 0];
        let mut w = [2u32, 3, 5, 8, 0];
        let mut scratch = Vec::new();
        let r = sort_split(&mut z, 3, &mut w, 4, 2, &mut scratch);
        assert_eq!(r, SortSplitResult { ma: 2, mb: 5 });
        assert_eq!(&z[..2], &[1, 2]);
        assert_eq!(&w[..5], &[3, 4, 5, 8, 9]);
    }

    #[test]
    fn full_node_split() {
        let mut a = [5u32, 6, 7, 8];
        let mut b = [1u32, 2, 3, 4];
        let mut scratch = Vec::new();
        sort_split_full(&mut a, &mut b, &mut scratch);
        assert_eq!(a, [1, 2, 3, 4]);
        assert_eq!(b, [5, 6, 7, 8]);
    }

    #[test]
    fn ma_zero_and_ma_total() {
        let mut z = [1u32, 3];
        let mut w = [2u32, 4, 0, 0];
        let mut scratch = Vec::new();
        let r = sort_split(&mut z, 2, &mut w, 2, 0, &mut scratch);
        assert_eq!((r.ma, r.mb), (0, 4));
        assert_eq!(&w[..4], &[1, 2, 3, 4]);

        let mut z2 = [5u32, 7, 0, 0];
        let mut w2 = [6u32, 8];
        let r2 = sort_split(&mut z2, 2, &mut w2, 2, 4, &mut scratch);
        assert_eq!((r2.ma, r2.mb), (4, 0));
        assert_eq!(&z2[..4], &[5, 6, 7, 8]);
    }

    #[test]
    #[should_panic(expected = "small side does not fit")]
    fn overflow_small_side_panics() {
        let mut z = [1u32, 2];
        let mut w = [3u32, 4];
        let mut scratch = Vec::new();
        sort_split(&mut z, 2, &mut w, 2, 3, &mut scratch);
    }

    #[test]
    fn unequal_sizes() {
        let mut a = [10u32, 20, 30, 40, 50, 60];
        let mut b = [15u32, 35];
        let mut scratch = Vec::new();
        sort_split_full(&mut a, &mut b, &mut scratch);
        assert_eq!(a, [10, 15, 20, 30, 35, 40]);
        assert_eq!(b, [50, 60]);
    }

    /// Both cut-taking kernels reject every cut next to the true one,
    /// ties included (the true cut of two all-equal runs keeps all of
    /// `a`).
    #[test]
    fn cut_taking_kernels_reject_a_wrong_cut() {
        for (a0, b0) in [([1u32, 3, 5, 7], [2u32, 4, 6, 8]), ([5; 4], [5; 4])] {
            let (i, j) = crate::merge_path::merge_path_search(&a0, &b0, 4);
            assert_full_cut(&a0, &b0, (i, j));
            let wrong = [(i + 1, j.wrapping_sub(1)), (i.wrapping_sub(1), j + 1)];
            for cut in wrong.into_iter().filter(|&(i, j)| i <= 4 && j <= 4) {
                for kernel in 0..2 {
                    let (mut a, mut b) = (a0, b0);
                    let caught = std::panic::catch_unwind(move || {
                        let mut s = Vec::new();
                        if kernel == 0 {
                            sort_split_full_in_place(&mut a, &mut b, cut, &mut s);
                        } else {
                            sort_split_full_branchless(&mut a, &mut b, cut, &mut s);
                        }
                    });
                    assert!(caught.is_err(), "kernel {kernel} accepted cut {cut:?}");
                }
            }
        }
    }
}
