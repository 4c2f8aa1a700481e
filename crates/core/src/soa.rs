//! SoA kernel routing — vector `SORT_SPLIT` over `(key, value)` nodes.
//!
//! The paper's GPU nodes hold bare keys, so its kernels sort keys
//! directly. Our nodes carry an `Entry<K, V>` payload, which the AVX2
//! kernels in `primitives::simd` cannot move as one lane. This module
//! bridges the two with a split key-lane / value-permutation layout:
//!
//! 1. **Stage** both sorted source runs contiguously into the
//!    operation's merge scratch (`orig`) — the entries never move again
//!    until the final gather.
//! 2. **Partition** the output with Merge Path (`merge_path_partition`)
//!    into chunks of at most [`SOA_CHUNK`] entries. A chunk whose input
//!    comes entirely from one run is a *pure* chunk: the merged output
//!    is just that input, so it is emitted as a bulk `copy_from_slice`
//!    and never touches a vector register. Heapify merges are dominated
//!    by long single-run stretches, which is where the speedup lives.
//! 3. **Pack** each mixed chunk's keys as `KeyIdxLane`s — the key's
//!    32-bit order-embedding (`KeyType::to_lane32`) in the high half,
//!    the entry's staged index in the low half — and merge them with
//!    the in-register bitonic network. Because `a`-side indices are
//!    strictly below `b`-side indices, lane order *is* the stable merge
//!    order (`a` wins ties), matching `merge_path_search` exactly.
//! 4. **Gather** whole entries out of `orig` by lane index, so values
//!    follow their keys without ever being packed.
//!
//! Routing: a call takes this path only when the key type embeds into a
//! 32-bit lane (`K::HAS_LANE32`), runtime dispatch resolved to a vector
//! ISA (`simd::vector_enabled()`, which also honours
//! `BGPQ_FORCE_SCALAR`), and the merge is big enough to amortize
//! packing ([`SOA_MIN_TOTAL`]). Everything else falls through to the
//! scalar `primitives::sort_split` path, which doubles as the
//! differential oracle in the test suites.
//!
//! The full-split shape (both runs the same length, A keeps the small
//! half — every heapify split is this shape) is routed by the shape of
//! its crossing before any kernel runs. A Merge Path probe at diagonal
//! `a.len()` gives the cut `(i, j)`: `j` B entries belong in the small
//! half and `i` A entries stay there. `j == 0` means the runs are
//! already split — a no-op, and the common case once a subtree has
//! settled. A *narrow* crossing (`j ≤ a.len() /`
//! [`INPLACE_MAX_CROSS_FRAC`]) is resolved in place, with
//! `O(crossing)` moves when the crossing sits next to the cut; so is a
//! *near-swap* (`i` under the same bound) of the parent/child split,
//! where the parent came down from above (`sort_split_parent_child`).
//! Wide crossings take the streaming merge + split write-back above,
//! which wins once most of both runs must move — except the sibling
//! split of word-sized entries, whose keys interleave at random: it
//! takes the branch-free two-chain kernel (`sort_split_siblings`,
//! E15).

use crate::scratch::LaneScratch;
use pq_api::{Entry, KeyType, ValueType};
use primitives::simd::{self, KeyIdxLane};
use primitives::{merge_into, merge_path_partition, merge_path_search, SortSplitResult};

/// Output entries per Merge Path chunk. Bounds the lane buffers in
/// [`LaneScratch`] and sets the pure-chunk granularity: larger chunks
/// amortize partitioning but detect fewer pure stretches. 64 catches
/// the sparse-crossing merges that dominate steady state (root vs a
/// random batch crosses only where the batch undercuts the root max)
/// while keeping the partition's binary searches under 1% of the work.
pub(crate) const SOA_CHUNK: usize = 64;

/// Merges smaller than this skip chunking entirely — partition
/// overhead beats any pure-chunk savings on short runs.
const SOA_MIN_TOTAL: usize = 64;

/// Entries at or below this size move as one machine word and stay off
/// the lane kernel: the pack + merge + gather round trip costs more
/// than moving the entry itself (on `heap-large`'s sibling splits the
/// lane route measured 14.5 µs per call, the branchy merge 10.4 and
/// the branch-free kernel 8.7 — E15). Wider payloads shift the balance
/// toward the lane kernel (scalar moves grow with the entry, the packed
/// lane does not). The same bound picks the entries whose sibling
/// splits take the branch-free kernel ([`sort_split_siblings`]).
const LANE_ENTRY_BYTES: usize = 8;

/// Whether a merge of `total` entries should take the staged vector
/// path. Word-sized entries stay on the scalar primitives outright
/// (see [`LANE_ENTRY_BYTES`]).
#[inline]
fn soa_eligible<K: KeyType, V: ValueType>(total: usize) -> bool {
    K::HAS_LANE32
        && core::mem::size_of::<Entry<K, V>>() > LANE_ENTRY_BYTES
        && total >= SOA_MIN_TOTAL
        && simd::vector_enabled()
}

/// Emit the stable merge of `orig[ar]` and `orig[br]` into `dst`
/// (`a` wins ties), chunked so single-run stretches become bulk copies
/// and only genuinely interleaved chunks pay for the vector kernel.
fn emit_merge<K: KeyType, V: ValueType>(
    orig: &[Entry<K, V>],
    ar: core::ops::Range<usize>,
    br: core::ops::Range<usize>,
    dst: &mut [Entry<K, V>],
    lanes: &mut LaneScratch,
) {
    let a = &orig[ar.clone()];
    let b = &orig[br.clone()];
    debug_assert_eq!(dst.len(), a.len() + b.len());
    let lane_worthy = core::mem::size_of::<Entry<K, V>>() > LANE_ENTRY_BYTES;
    merge_path_partition(a, b, SOA_CHUNK, |d, ia, jb| {
        let out = &mut dst[d];
        if jb.is_empty() {
            out.copy_from_slice(&a[ia]);
        } else if ia.is_empty() {
            out.copy_from_slice(&b[jb]);
        } else if !lane_worthy {
            merge_into(&a[ia], &b[jb], out);
        } else {
            let n = ia.len() + jb.len();
            lanes.a.clear();
            lanes.a.extend(
                a[ia.clone()]
                    .iter()
                    .zip(ar.start + ia.start..)
                    .map(|(e, gi)| KeyIdxLane::pack(e.key.to_lane32(), gi as u32)),
            );
            lanes.b.clear();
            lanes.b.extend(
                b[jb.clone()]
                    .iter()
                    .zip(br.start + jb.start..)
                    .map(|(e, gi)| KeyIdxLane::pack(e.key.to_lane32(), gi as u32)),
            );
            let merged = &mut lanes.out[..n];
            simd::merge_into(&lanes.a, &lanes.b, merged);
            for (slot, lane) in out.iter_mut().zip(merged.iter()) {
                // SAFETY: every lane index was packed above from a
                // position inside `orig`'s staged runs.
                *slot = *unsafe { orig.get_unchecked(lane.idx() as usize) };
            }
        }
    });
}

/// `SORT_SPLIT` with the same contract as `primitives::sort_split`, but
/// routed: eligible merges run the staged/chunked/pack-gather vector
/// path, everything else the scalar primitive.
pub(crate) fn sort_split_entries<K: KeyType, V: ValueType>(
    z: &mut [Entry<K, V>],
    na: usize,
    w: &mut [Entry<K, V>],
    nb: usize,
    ma: usize,
    orig: &mut Vec<Entry<K, V>>,
    lanes: &mut LaneScratch,
) -> SortSplitResult {
    let total = na + nb;
    assert!(ma <= total, "cannot take more smallest elements than exist");
    let mb = total - ma;
    // Disjoint fast path shared by both routes: when the split point
    // coincides with the run boundary and every `z` key is at most
    // every `w` key, both halves already hold their output.
    if ma == na && (na == 0 || nb == 0 || z[na - 1] <= w[0]) {
        return SortSplitResult { ma, mb };
    }
    if !soa_eligible::<K, V>(total) {
        return primitives::sort_split(z, na, w, nb, ma, orig);
    }
    assert!(na <= z.len() && nb <= w.len(), "valid prefix exceeds buffer");
    assert!(ma <= z.len(), "small side does not fit");
    assert!(mb <= w.len(), "large side does not fit");
    debug_assert!(z[..na].windows(2).all(|p| p[0] <= p[1]), "Z not sorted");
    debug_assert!(w[..nb].windows(2).all(|p| p[0] <= p[1]), "W not sorted");

    orig.clear();
    orig.extend_from_slice(&z[..na]);
    orig.extend_from_slice(&w[..nb]);
    let orig_ref: &[Entry<K, V>] = orig;
    let (i, j) = merge_path_search(&orig_ref[..na], &orig_ref[na..], ma);
    emit_merge(orig_ref, 0..i, na..na + j, &mut z[..ma], lanes);
    emit_merge(orig_ref, i..na, na + j..total, &mut w[..mb], lanes);
    SortSplitResult { ma, mb }
}

/// `SORT_SPLIT` between two full batches (`primitives::sort_split_full`
/// contract: `a` keeps the `a.len()` smallest, `a` wins ties), routed
/// by the shape of the crossing — the INSERT_HEAPIFY split. The two
/// DELETEMIN_HEAPIFY splits have their own entry points
/// ([`sort_split_siblings`], [`sort_split_parent_child`]).
pub(crate) fn sort_split_full_entries<K: KeyType, V: ValueType>(
    a: &mut [Entry<K, V>],
    b: &mut [Entry<K, V>],
    orig: &mut Vec<Entry<K, V>>,
    lanes: &mut LaneScratch,
) {
    split_full(a, b, orig, lanes, Site::Insert);
}

/// [`sort_split_full_entries`] for the sibling split of
/// DELETEMIN_HEAPIFY (Alg. 3 line 10). Siblings head independent
/// subtrees, so on a wide crossing their keys interleave at random and
/// the branchy streaming merge mispredicts about every other element.
/// Word-sized entries take the branch-free two-chain kernel
/// (`primitives::sort_split_full_branchless`) there instead. Wider
/// entries keep their route: for `astar`'s 24-byte entries the wide
/// sibling split is 0.3% of the run, too little to measure a route
/// change against (E15).
pub(crate) fn sort_split_siblings<K: KeyType, V: ValueType>(
    a: &mut [Entry<K, V>],
    b: &mut [Entry<K, V>],
    orig: &mut Vec<Entry<K, V>>,
    lanes: &mut LaneScratch,
) {
    split_full(a, b, orig, lanes, Site::Siblings);
}

/// [`sort_split_full_entries`] for the parent/child split of
/// DELETEMIN_HEAPIFY (Alg. 3 line 12). The parent came down from above
/// and holds larger keys than the child, so the split is mostly a
/// near-swap: few parent entries stay, and they sit next to the cut.
/// Those take the in-place mirror route.
pub(crate) fn sort_split_parent_child<K: KeyType, V: ValueType>(
    a: &mut [Entry<K, V>],
    b: &mut [Entry<K, V>],
    orig: &mut Vec<Entry<K, V>>,
    lanes: &mut LaneScratch,
) {
    split_full(a, b, orig, lanes, Site::ParentChild);
}

/// Which heapify split a full split is. Each produces its own crossing
/// shapes, so each gets only the routes measured to win on it (E15).
#[derive(Clone, Copy, PartialEq, Eq)]
enum Site {
    Insert,
    Siblings,
    ParentChild,
}

/// The full-split router. The merge-path cut `(i, j)` at `a.len()`
/// splits the outputs into `a' = merge(a[..i], b[..j])` and
/// `b' = merge(a[i..], b[j..])`; its size and the call site pick the
/// route:
///
/// * `j == 0` — already split, a no-op.
/// * **Narrow crossing** (`j ≤ a.len() /` [`INPLACE_MAX_CROSS_FRAC`],
///   every site) or **near-swap** (parent/child only: equal lengths,
///   `i` under the same bound): `primitives::sort_split_full_in_place`,
///   `O(crossing)` moves when the crossing sits next to the cut, as it
///   does there (plus one node swap for the near-swap). Its moves
///   follow the crossing's spread, not its size, so the near-swap
///   route stays off the insert path, where it was not measured.
/// * **Wide crossing**: the sibling split of word-sized entries takes
///   the branch-free two-chain kernel; everything else the streaming
///   merge + split write-back, which wins once most entries must move
///   and the runs are long (E11, E15).
///
/// Routing depends only on key values and the call site, so both
/// BGPQ_FORCE_SCALAR modes take identical paths, and results and sim
/// histories cannot diverge.
///
/// Inlined into each entry point, so each call site compiles only its
/// own routes. Out of line, one router shared by all three sites read
/// `astar`'s `insert_p50_us` 3.8% worse than the parent (2 of 8 pairs
/// better), inlined 0.2% (4 of 8) — E15.
#[inline(always)]
fn split_full<K: KeyType, V: ValueType>(
    a: &mut [Entry<K, V>],
    b: &mut [Entry<K, V>],
    orig: &mut Vec<Entry<K, V>>,
    lanes: &mut LaneScratch,
    site: Site,
) {
    debug_assert!(a.windows(2).all(|p| p[0] <= p[1]), "A not sorted");
    debug_assert!(b.windows(2).all(|p| p[0] <= p[1]), "B not sorted");
    let n = a.len();
    let (i, j) = merge_path_search(a, b, n);
    let bound = n / INPLACE_MAX_CROSS_FRAC;
    let near_swap = site == Site::ParentChild && n == b.len() && i <= bound;
    let word = core::mem::size_of::<Entry<K, V>>() <= LANE_ENTRY_BYTES;
    if j == 0 {
        // Already split: every a key is at most every b key.
    } else if j <= bound || near_swap {
        primitives::sort_split_full_in_place(a, b, (i, j), orig);
    } else if site == Site::Siblings && word {
        primitives::sort_split_full_branchless(a, b, (i, j), orig);
    } else {
        sort_split_entries(a, n, b, b.len(), n, orig, lanes);
    }
}

/// The in-place route of [`split_full`] is taken only when the
/// crossing is at most `1/this` of the node.
const INPLACE_MAX_CROSS_FRAC: usize = 8;

/// Routed in-place absorb merge: `dst[..na]` (sorted) is merged with
/// `add` (sorted) into `dst[..na + add.len()]`, `dst` winning ties —
/// the pBuffer-absorb step of INSERT. The scalar route stashes the
/// `dst` prefix in `orig` first (as the pre-SoA code did); the vector
/// route stages both runs there anyway, so it comes for free.
pub(crate) fn merge_absorb<K: KeyType, V: ValueType>(
    dst: &mut [Entry<K, V>],
    na: usize,
    add: &[Entry<K, V>],
    orig: &mut Vec<Entry<K, V>>,
    lanes: &mut LaneScratch,
) {
    let nb = add.len();
    let total = na + nb;
    debug_assert!(dst.len() >= total);
    orig.clear();
    orig.extend_from_slice(&dst[..na]);
    if !soa_eligible::<K, V>(total) {
        merge_into(&orig[..na], add, &mut dst[..total]);
        return;
    }
    orig.extend_from_slice(add);
    emit_merge(orig, 0..na, na..total, &mut dst[..total], lanes);
}

/// The full-split proptest inputs, shared with the primitives crate's
/// differential tests.
#[cfg(test)]
#[path = "../../primitives/tests/split_gen/mod.rs"]
mod split_gen;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::soa::split_gen::{split_params, split_runs};
    use proptest::prelude::*;

    fn scratch() -> (Vec<Entry<u32, u32>>, LaneScratch) {
        (Vec::new(), LaneScratch::new())
    }

    fn run(start: u32, step: u32, n: usize, tag: u32) -> Vec<Entry<u32, u32>> {
        (0..n as u32).map(|i| Entry::new(start + i * step, tag + i)).collect()
    }

    #[test]
    fn routed_split_matches_scalar_primitive() {
        let (mut orig, mut lanes) = scratch();
        for (na, nb, ma) in
            [(0, 0, 0), (1, 0, 1), (7, 9, 7), (128, 128, 128), (300, 200, 300), (200, 400, 150)]
        {
            let mb = na + nb - ma;
            let mut z = run(0, 3, na, 1000);
            z.resize(na.max(ma), Entry::sentinel());
            let mut w = run(1, 2, nb, 5000);
            w.resize(nb.max(mb), Entry::sentinel());
            let mut z2 = z.clone();
            let mut w2 = w.clone();
            let mut s = Vec::new();
            let r1 = sort_split_entries(&mut z, na, &mut w, nb, ma, &mut orig, &mut lanes);
            let r2 = primitives::sort_split(&mut z2, na, &mut w2, nb, ma, &mut s);
            assert_eq!((r1.ma, r1.mb), (r2.ma, r2.mb));
            assert_eq!(&z[..r1.ma], &z2[..r1.ma], "na={na} nb={nb} ma={ma}");
            assert_eq!(&w[..r1.mb], &w2[..r1.mb], "na={na} nb={nb} ma={ma}");
        }
    }

    #[test]
    fn gather_preserves_payloads_and_tie_order() {
        let (mut orig, mut lanes) = scratch();
        // All keys equal: output must be a-run payloads then b-run
        // payloads, in original order (stability).
        let n = 96;
        let mut a: Vec<Entry<u32, u32>> = (0..n).map(|i| Entry::new(7, i)).collect();
        let mut b: Vec<Entry<u32, u32>> = (0..n).map(|i| Entry::new(7, 1000 + i)).collect();
        sort_split_full_entries(&mut a, &mut b, &mut orig, &mut lanes);
        let vals: Vec<u32> = a.iter().chain(b.iter()).map(|e| e.value).collect();
        let want: Vec<u32> = (0..n).chain(1000..1000 + n).collect();
        assert_eq!(vals, want);
    }

    #[test]
    fn absorb_matches_merge_into() {
        let (mut orig, mut lanes) = scratch();
        for (na, nb) in [(0, 5), (80, 80), (200, 56), (3, 250)] {
            let mut dst = run(0, 2, na, 0);
            dst.resize(na + nb, Entry::sentinel());
            let add = run(1, 2, nb, 9000);
            let mut want = vec![Entry::sentinel(); na + nb];
            let stash: Vec<_> = dst[..na].to_vec();
            merge_into(&stash, &add, &mut want);
            merge_absorb(&mut dst, na, &add, &mut orig, &mut lanes);
            assert_eq!(dst, want, "na={na} nb={nb}");
        }
    }

    /// Distinct inputs per timing cell: a branchy merge timed on one
    /// repeated input lets the branch predictor learn its take sequence
    /// and reads several times too fast (EXPERIMENTS.md E11).
    const TIMING_PAIRS: usize = 64;

    /// A sorted run of `n` entries whose keys climb from a random start
    /// below `step` by random steps of mean `step` (1..=2·step−1).
    fn climbing_run(rng: &mut u32, n: usize, step: u32, tag: u32) -> Vec<Entry<u32, u32>> {
        let mut next = || {
            *rng = rng.wrapping_mul(1664525).wrapping_add(1013904223);
            *rng >> 8
        };
        let mut key = next() % step;
        (0..n as u32)
            .map(|i| {
                key += 1 + next() % (2 * step - 1);
                Entry::new(key, tag + i)
            })
            .collect()
    }

    // Not a correctness test: `cargo test -p bgpq --release soa_timing
    // -- --ignored --nocapture` prints per-route ns/entry on the two
    // patterns that bracket the hot path (sparse crossings, full
    // interleave), for tuning SOA_CHUNK / SOA_MIN_TOTAL. Each pattern
    // cycles through `TIMING_PAIRS` distinct input pairs.
    #[test]
    #[ignore]
    fn soa_timing() {
        let (mut orig, mut lanes) = scratch();
        let k = 1024;
        for (name, astep, bstep) in [("interleaved", 2u32, 2u32), ("sparse", 1, 97)] {
            let mut rng = 1u32;
            let pairs: Vec<_> = (0..TIMING_PAIRS)
                .map(|_| (climbing_run(&mut rng, k, astep, 0), climbing_run(&mut rng, k, bstep, 0)))
                .collect();
            for route in ["routed", "scalar"] {
                let (mut z, mut w) = pairs[0].clone();
                let t0 = std::time::Instant::now();
                let reps = 20_000;
                for rep in 0..reps {
                    let (z0, w0) = &pairs[rep % TIMING_PAIRS];
                    z.copy_from_slice(z0);
                    w.copy_from_slice(w0);
                    if route == "routed" {
                        sort_split_entries(&mut z, k, &mut w, k, k, &mut orig, &mut lanes);
                    } else {
                        primitives::sort_split(&mut z, k, &mut w, k, k, &mut orig);
                    }
                }
                let ns = t0.elapsed().as_secs_f64() * 1e9 / (reps * 2 * k) as f64;
                println!("{name:12} {route:7} {ns:.3} ns/entry");
            }
        }
    }

    #[test]
    fn inplace_full_split_matches_primitive() {
        let (mut orig, mut lanes) = scratch();
        let k = 128;
        // Patterns: interleaved, disjoint both ways, all-equal keys
        // (pure tie-order check), duplicate-heavy, single-crossing.
        type KeyFn = Box<dyn Fn(u32) -> u32>;
        let cases: [(KeyFn, KeyFn); 6] = [
            (Box::new(|i| 2 * i), Box::new(|i| 2 * i + 1)),
            (Box::new(|i| i), Box::new(|i| i + 1000)),
            (Box::new(|i| i + 1000), Box::new(|i| i)),
            (Box::new(|_| 7), Box::new(|_| 7)),
            (Box::new(|i| i / 4), Box::new(|i| i / 3)),
            (Box::new(|i| i), Box::new(|i| i + 120)),
        ];
        for (ci, (fa, fb)) in cases.iter().enumerate() {
            let mk = |f: &dyn Fn(u32) -> u32, tag: u32| -> Vec<Entry<u32, u32>> {
                let mut v: Vec<Entry<u32, u32>> =
                    (0..k as u32).map(|i| Entry::new(f(i), tag + i)).collect();
                v.sort_by_key(|e| e.key);
                v
            };
            let (mut a, mut b) = (mk(fa, 0), mk(fb, 10_000));
            let (mut a2, mut b2) = (a.clone(), b.clone());
            sort_split_full_entries(&mut a, &mut b, &mut orig, &mut lanes);
            let mut s = Vec::new();
            primitives::sort_split_full(&mut a2, &mut b2, &mut s);
            assert_eq!(a, a2, "small side mismatch, case {ci}");
            assert_eq!(b, b2, "large side mismatch, case {ci}");
        }
    }

    #[test]
    fn inplace_full_split_unequal_sizes() {
        let (mut orig, mut lanes) = scratch();
        let mut a = vec![
            Entry::<u32, u32>::new(10, 0),
            Entry::new(20, 1),
            Entry::new(30, 2),
            Entry::new(40, 3),
            Entry::new(50, 4),
            Entry::new(60, 5),
        ];
        let mut b = vec![Entry::<u32, u32>::new(15, 10), Entry::new(35, 11)];
        sort_split_full_entries(&mut a, &mut b, &mut orig, &mut lanes);
        let keys: Vec<u32> = a.iter().map(|e| e.key).collect();
        assert_eq!(keys, [10, 15, 20, 30, 35, 40]);
        let keys: Vec<u32> = b.iter().map(|e| e.key).collect();
        assert_eq!(keys, [50, 60]);
    }

    // Not a correctness test: `cargo test -p bgpq --release
    // inplace_timing -- --ignored --nocapture` compares the in-place
    // crossing-bounded full split against the merge-to-scratch
    // primitive on a full random interleave (its worst case) and a
    // narrow crossing (its best case). Each pattern cycles through
    // `TIMING_PAIRS` distinct input pairs.
    #[test]
    #[ignore]
    fn inplace_timing() {
        let (mut orig, mut lanes) = scratch();
        let k = 1024;
        let mk = |seed: u32, base: u32| -> Vec<Entry<u32, u32>> {
            let mut s = seed;
            let mut v: Vec<Entry<u32, u32>> = (0..k as u32)
                .map(|i| {
                    s = s.wrapping_mul(1664525).wrapping_add(1013904223);
                    Entry::new(base + (s >> 8) % 100_000, i)
                })
                .collect();
            v.sort_by_key(|e| e.key);
            v
        };
        for (name, b_base) in [("interleaved", 0), ("narrow-cross", 95_000)] {
            let pairs: Vec<_> = (0..TIMING_PAIRS as u32)
                .map(|p| (mk(2 * p + 1, 0), mk(2 * p + 2, b_base)))
                .collect();
            let mut s = Vec::new();
            for route in ["in-place", "primitive"] {
                let (mut a, mut b) = pairs[0].clone();
                let reps = 20_000;
                let t0 = std::time::Instant::now();
                for rep in 0..reps {
                    let (a0, b0) = &pairs[rep % TIMING_PAIRS];
                    a.copy_from_slice(a0);
                    b.copy_from_slice(b0);
                    if route == "in-place" {
                        sort_split_full_entries(&mut a, &mut b, &mut orig, &mut lanes);
                    } else {
                        primitives::sort_split_full(&mut a, &mut b, &mut s);
                    }
                }
                let ns = t0.elapsed().as_secs_f64() * 1e9 / (reps * 2 * k) as f64;
                println!("{name:12} {route:9} {ns:.3} ns/entry");
            }
        }
    }

    #[test]
    fn disjoint_fast_path_is_a_noop() {
        let (mut orig, mut lanes) = scratch();
        let mut a = run(0, 1, 128, 0);
        let mut b = run(1000, 1, 128, 500);
        let (a0, b0) = (a.clone(), b.clone());
        sort_split_full_entries(&mut a, &mut b, &mut orig, &mut lanes);
        assert_eq!(a, a0);
        assert_eq!(b, b0);
        assert!(orig.is_empty(), "fast path must not stage");
    }

    /// Every routed entry point equals `primitives::sort_split_full` on
    /// the whole `(key, payload)` sequence.
    fn check_routed<V>(a: Vec<Entry<u32, V>>, b: Vec<Entry<u32, V>>) -> TestCaseResult
    where
        V: ValueType + PartialEq + core::fmt::Debug,
    {
        let pairs = |x: &[Entry<u32, V>]| x.iter().map(|e| (e.key, e.value)).collect::<Vec<_>>();
        let (mut ea, mut eb) = (a.clone(), b.clone());
        primitives::sort_split_full(&mut ea, &mut eb, &mut Vec::new());
        let mut lanes = LaneScratch::new();
        type Route<V> = fn(
            &mut [Entry<u32, V>],
            &mut [Entry<u32, V>],
            &mut Vec<Entry<u32, V>>,
            &mut LaneScratch,
        );
        let routes: [(&str, Route<V>); 3] = [
            ("insert", sort_split_full_entries),
            ("siblings", sort_split_siblings),
            ("parent/child", sort_split_parent_child),
        ];
        for (name, route) in routes {
            let (mut ra, mut rb) = (a.clone(), b.clone());
            route(&mut ra, &mut rb, &mut Vec::new(), &mut lanes);
            prop_assert_eq!(pairs(&ra), pairs(&ea), "{} small side", name);
            prop_assert_eq!(pairs(&rb), pairs(&eb), "{} large side", name);
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn routed_full_splits_match_primitive_word_entries(p in split_params()) {
            let (a, b) = split_runs(p, |t| t);
            check_routed(a, b)?;
        }

        #[test]
        fn routed_full_splits_match_primitive_wide_entries(p in split_params()) {
            let (a, b) = split_runs(p, |t| [t as u64, !(t as u64)]);
            check_routed(a, b)?;
        }
    }
}
