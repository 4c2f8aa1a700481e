//! Property-based tests for the data-parallel primitives: the network
//! and merge-path schedules must agree with the standard library on every
//! input, the radix kernel must equal a stable sort, and `SORT_SPLIT`
//! must satisfy the paper's formal postconditions.

use pq_api::{Entry, KeyType};
use primitives::simd::{self, KeyIdxLane};
use primitives::{
    bitonic_sort, bitonic_sort_padded, bitonic_sort_scalar, merge_into, merge_into_scalar,
    merge_into_vec, merge_path_search, parallel_merge, radix_sort_by_key_with, sort_split,
    sort_split_full, sort_split_full_branchless, sort_split_full_in_place,
};
use proptest::prelude::*;
use split_gen::{split_params, split_runs};

mod split_gen;

fn sorted_vec(max_len: usize) -> impl Strategy<Value = Vec<u32>> {
    proptest::collection::vec(any::<u32>(), 0..max_len).prop_map(|mut v| {
        v.sort_unstable();
        v
    })
}

/// Sorted runs drawn from a tiny key domain (lots of duplicates) with an
/// optional tail of `u32::MAX` sentinels — the padding shape the heap's
/// partial buffer and staged insert batches produce.
fn sorted_with_sentinels(max_len: usize) -> impl Strategy<Value = Vec<u32>> {
    (proptest::collection::vec(0u32..64, 0..max_len), 0usize..8).prop_map(|(mut v, pad)| {
        v.extend(std::iter::repeat_n(u32::MAX, pad));
        v.sort_unstable();
        v
    })
}

/// Payload-carrying element whose ordering looks only at the key — lets
/// the differential tests observe tie-breaking (stability), which the
/// plain `u32` properties cannot.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Keyed {
    key: u32,
    tag: u32,
}

impl PartialOrd for Keyed {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Keyed {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key.cmp(&other.key)
    }
}

fn sorted_keyed(max_len: usize, side: u32) -> impl Strategy<Value = Vec<Keyed>> {
    proptest::collection::vec(0u32..16, 0..max_len).prop_map(move |mut keys| {
        keys.sort_unstable();
        keys.iter()
            .enumerate()
            .map(|(i, &key)| Keyed { key, tag: side * 1_000_000 + i as u32 })
            .collect()
    })
}

proptest! {
    #[test]
    fn bitonic_equals_std_sort(mut v in proptest::collection::vec(any::<u32>(), 0..257)) {
        // Pad to a power of two inside bitonic_sort_padded.
        let mut expect = v.clone();
        expect.sort_unstable();
        bitonic_sort_padded(&mut v, u32::MAX);
        prop_assert_eq!(v, expect);
    }

    #[test]
    fn bitonic_pow2_is_permutation(v in (0u32..=8).prop_flat_map(|e| {
            proptest::collection::vec(any::<u32>(), 1usize << e)
        })) {
        let mut sorted = v.clone();
        bitonic_sort(&mut sorted);
        let mut expect = v;
        expect.sort_unstable();
        prop_assert_eq!(sorted, expect);
    }

    #[test]
    fn merge_path_search_is_a_valid_split(a in sorted_vec(64), b in sorted_vec(64), frac in 0.0f64..=1.0) {
        let diag = ((a.len() + b.len()) as f64 * frac) as usize;
        let (i, j) = merge_path_search(&a, &b, diag);
        prop_assert_eq!(i + j, diag);
        // Path validity: everything consumed is <= everything not yet consumed.
        if i > 0 && j < b.len() {
            prop_assert!(a[i - 1] <= b[j]);
        }
        if j > 0 && i < a.len() {
            prop_assert!(b[j - 1] <= a[i]);
        }
    }

    #[test]
    fn parallel_merge_equals_std(a in sorted_vec(128), b in sorted_vec(128), p in 1usize..64) {
        let mut out = vec![0u32; a.len() + b.len()];
        parallel_merge(&a, &b, &mut out, p);
        let mut expect: Vec<u32> = a.iter().chain(b.iter()).copied().collect();
        expect.sort_unstable();
        prop_assert_eq!(out, expect);
    }

    #[test]
    fn merge_into_equals_std(a in sorted_vec(128), b in sorted_vec(128)) {
        let mut out = vec![0u32; a.len() + b.len()];
        merge_into(&a, &b, &mut out);
        let mut expect: Vec<u32> = a.iter().chain(b.iter()).copied().collect();
        expect.sort_unstable();
        prop_assert_eq!(out, expect);
    }

    #[test]
    fn sort_split_postconditions(za in sorted_vec(64), wb in sorted_vec(64), frac in 0.0f64..=1.0) {
        let (na, nb) = (za.len(), wb.len());
        let total = na + nb;
        let ma = (total as f64 * frac) as usize;
        // Buffers sized to fit both outcomes.
        let mut z = za.clone();
        z.resize(na.max(ma), 0);
        let mut w = wb.clone();
        w.resize(nb.max(total - ma), 0);
        let mut scratch = Vec::new();
        let r = sort_split(&mut z, na, &mut w, nb, ma, &mut scratch);

        prop_assert_eq!(r.ma + r.mb, total);
        prop_assert_eq!(r.ma, ma);
        let x = &z[..r.ma];
        let y = &w[..r.mb];
        // Both sorted.
        prop_assert!(x.windows(2).all(|p| p[0] <= p[1]));
        prop_assert!(y.windows(2).all(|p| p[0] <= p[1]));
        // Split point: max X <= min Y.
        if !x.is_empty() && !y.is_empty() {
            prop_assert!(x[x.len() - 1] <= y[0]);
        }
        // Multiset preservation.
        let mut got: Vec<u32> = x.iter().chain(y.iter()).copied().collect();
        got.sort_unstable();
        let mut expect: Vec<u32> = za.iter().chain(wb.iter()).copied().collect();
        expect.sort_unstable();
        prop_assert_eq!(got, expect);
    }

    // ---- Differential suite: fast kernels vs retained scalar oracles ----

    #[test]
    fn merge_into_matches_scalar_oracle(
        a in sorted_with_sentinels(96),
        b in sorted_with_sentinels(96),
    ) {
        let mut fast = vec![0u32; a.len() + b.len()];
        let mut slow = fast.clone();
        merge_into(&a, &b, &mut fast);
        merge_into_scalar(&a, &b, &mut slow);
        prop_assert_eq!(fast, slow);
    }

    #[test]
    fn merge_into_preserves_tie_order_of_oracle(
        a in sorted_keyed(80, 1),
        b in sorted_keyed(80, 2),
    ) {
        // Payloads make tie resolution observable: with only 16 distinct
        // keys the merge is mostly ties, and the unrolled kernel must
        // break every one exactly like the oracle (a first, then input
        // order).
        let zero = Keyed { key: 0, tag: 0 };
        let mut fast = vec![zero; a.len() + b.len()];
        let mut slow = fast.clone();
        merge_into(&a, &b, &mut fast);
        merge_into_scalar(&a, &b, &mut slow);
        prop_assert_eq!(fast, slow);
    }

    #[test]
    fn merge_into_vec_matches_scalar_oracle_and_stays_warm(
        a in sorted_with_sentinels(96),
        b in sorted_with_sentinels(96),
        c in sorted_with_sentinels(96),
    ) {
        let mut out = Vec::new();
        merge_into_vec(&a, &b, &mut out);
        let mut slow = vec![0u32; a.len() + b.len()];
        merge_into_scalar(&a, &b, &mut slow);
        prop_assert_eq!(&out, &slow);

        // Re-merging something no larger into the warm vector must not
        // reallocate (the zero-allocation hot path relies on this).
        let cap = out.capacity();
        merge_into_vec(&b, &c, &mut out);
        let mut slow2 = vec![0u32; b.len() + c.len()];
        merge_into_scalar(&b, &c, &mut slow2);
        prop_assert_eq!(&out, &slow2);
        if b.len() + c.len() <= cap {
            prop_assert_eq!(out.capacity(), cap);
        }
    }

    #[test]
    fn bitonic_matches_scalar_oracle(v in (0u32..=8).prop_flat_map(|e| {
            proptest::collection::vec(0u32..32, 1usize << e)
        })) {
        let mut fast = v.clone();
        let mut slow = v;
        bitonic_sort(&mut fast);
        bitonic_sort_scalar(&mut slow);
        prop_assert_eq!(fast, slow);
    }

    #[test]
    fn sort_split_matches_oracle_merge(
        za in sorted_with_sentinels(64),
        wb in sorted_with_sentinels(64),
        frac in 0.0f64..=1.0,
    ) {
        let (na, nb) = (za.len(), wb.len());
        let total = na + nb;
        let ma = (total as f64 * frac) as usize;
        let mut z = za.clone();
        z.resize(na.max(ma), 0);
        let mut w = wb.clone();
        w.resize(nb.max(total - ma), 0);
        let mut scratch = Vec::new();
        sort_split(&mut z, na, &mut w, nb, ma, &mut scratch);

        // Oracle: scalar merge, then split at ma.
        let mut merged = vec![0u32; total];
        merge_into_scalar(&za, &wb, &mut merged);
        prop_assert_eq!(&z[..ma], &merged[..ma]);
        prop_assert_eq!(&w[..total - ma], &merged[ma..]);
    }

    #[test]
    fn sort_split_full_postconditions(a in sorted_vec(64), b in sorted_vec(64)) {
        let mut x = a.clone();
        let mut y = b.clone();
        let mut scratch = Vec::new();
        sort_split_full(&mut x, &mut y, &mut scratch);
        prop_assert!(x.windows(2).all(|p| p[0] <= p[1]));
        prop_assert!(y.windows(2).all(|p| p[0] <= p[1]));
        if !x.is_empty() && !y.is_empty() {
            prop_assert!(x[x.len() - 1] <= y[0]);
        }
        let mut got: Vec<u32> = x.iter().chain(y.iter()).copied().collect();
        got.sort_unstable();
        let mut expect: Vec<u32> = a.iter().chain(b.iter()).copied().collect();
        expect.sort_unstable();
        prop_assert_eq!(got, expect);
    }

    // ---- Differential suite: dispatched SIMD kernels vs scalar oracles ----
    //
    // These run against whatever `simd::dispatch_mode()` resolves to in
    // this process (AVX2 on capable hosts, scalar otherwise) and compare
    // output element-for-element with the retained scalar oracles. The
    // CI leg that sets `BGPQ_FORCE_SCALAR=1` re-runs the same properties
    // with the dispatcher pinned to scalar, so both kernel families get
    // the full suite. The mode is deliberately NOT toggled inside test
    // bodies — the dispatch cache is process-global and the test harness
    // is multi-threaded.

    #[test]
    fn simd_merge_u32_matches_scalar_oracle(
        a in sorted_with_sentinels(200),
        b in sorted_with_sentinels(200),
    ) {
        // Lengths are arbitrary, so tails shorter than a vector width
        // (16 u32 lanes) and fully unaligned splits are routine here.
        let mut fast = vec![0u32; a.len() + b.len()];
        let mut slow = fast.clone();
        simd::merge_into(&a, &b, &mut fast);
        merge_into_scalar(&a, &b, &mut slow);
        prop_assert_eq!(fast, slow);
    }

    #[test]
    fn simd_merge_u64_matches_scalar_oracle(
        a in sorted_with_sentinels(160),
        b in sorted_with_sentinels(160),
    ) {
        let a: Vec<u64> = a.iter().map(|&k| k as u64).collect();
        let b: Vec<u64> = b.iter().map(|&k| k as u64).collect();
        let mut fast = vec![0u64; a.len() + b.len()];
        let mut slow = fast.clone();
        simd::merge_into(&a, &b, &mut fast);
        merge_into_scalar(&a, &b, &mut slow);
        prop_assert_eq!(fast, slow);
    }

    #[test]
    fn simd_bitonic_u32_matches_scalar_oracle(v in (0u32..=10).prop_flat_map(|e| {
            proptest::collection::vec(0u32..32, 1usize << e)
        })) {
        // Tiny key domain: the network's compare-exchange wiring is
        // exercised almost entirely on duplicate keys.
        let mut fast = v.clone();
        let mut slow = v;
        simd::bitonic_sort(&mut fast);
        bitonic_sort_scalar(&mut slow);
        prop_assert_eq!(fast, slow);
    }

    #[test]
    fn simd_bitonic_u64_matches_std_sort(v in (0u32..=9).prop_flat_map(|e| {
            proptest::collection::vec(any::<u64>(), 1usize << e)
        })) {
        let mut fast = v.clone();
        let mut expect = v;
        simd::bitonic_sort(&mut fast);
        expect.sort_unstable();
        prop_assert_eq!(fast, expect);
    }

    #[test]
    fn simd_sort_split_matches_oracle_merge(
        za in sorted_with_sentinels(96),
        wb in sorted_with_sentinels(96),
        frac in 0.0f64..=1.0,
    ) {
        let (na, nb) = (za.len(), wb.len());
        let total = na + nb;
        let ma = (total as f64 * frac) as usize;
        let mut z = za.clone();
        z.resize(na.max(ma), 0);
        let mut w = wb.clone();
        w.resize(nb.max(total - ma), 0);
        let mut scratch = Vec::new();
        let r = simd::sort_split(&mut z, na, &mut w, nb, ma, &mut scratch);

        prop_assert_eq!(r.ma, ma);
        prop_assert_eq!(r.mb, total - ma);
        let mut merged = vec![0u32; total];
        merge_into_scalar(&za, &wb, &mut merged);
        prop_assert_eq!(&z[..ma], &merged[..ma]);
        prop_assert_eq!(&w[..total - ma], &merged[ma..]);
    }

    #[test]
    fn simd_sort_split_full_matches_scalar_primitive(
        a in sorted_with_sentinels(128),
        b in sorted_with_sentinels(128),
    ) {
        let mut fx = a.clone();
        let mut fy = b.clone();
        let mut scratch = Vec::new();
        simd::sort_split_full(&mut fx, &mut fy, &mut scratch);

        let mut sx = a;
        let mut sy = b;
        let mut sscratch = Vec::new();
        sort_split_full(&mut sx, &mut sy, &mut sscratch);
        prop_assert_eq!(fx, sx);
        prop_assert_eq!(fy, sy);
    }

    #[test]
    fn simd_lane_merge_is_stable_by_construction(
        a in sorted_keyed(120, 1),
        b in sorted_keyed(120, 2),
    ) {
        // The SoA gather order rests on this property: packing keys in
        // the high 32 bits and source positions in the low 32 makes the
        // plain u64 lane merge reproduce a *stable* keyed merge (a-side
        // before b-side on ties, input order within a side), because
        // a-side lanes carry strictly smaller indices than b-side lanes.
        let la: Vec<KeyIdxLane> =
            a.iter().enumerate().map(|(i, e)| KeyIdxLane::pack(e.key, i as u32)).collect();
        let lb: Vec<KeyIdxLane> = b
            .iter()
            .enumerate()
            .map(|(i, e)| KeyIdxLane::pack(e.key, (a.len() + i) as u32))
            .collect();
        let mut lanes = vec![KeyIdxLane::default(); la.len() + lb.len()];
        simd::merge_into(&la, &lb, &mut lanes);

        // Oracle: the stable scalar merge of the payload-carrying
        // elements. Tags encode side and input order, so equality here
        // pins every tie-break, not just the key sequence.
        let zero = Keyed { key: 0, tag: 0 };
        let mut oracle = vec![zero; a.len() + b.len()];
        merge_into_scalar(&a, &b, &mut oracle);
        for (lane, expect) in lanes.iter().zip(&oracle) {
            prop_assert_eq!(lane.key_lane(), expect.key);
            let idx = lane.idx() as usize;
            let from_a = idx < a.len();
            prop_assert_eq!(from_a, expect.tag < 2_000_000);
            let src = if from_a { a[idx] } else { b[idx - a.len()] };
            prop_assert_eq!(src.tag, expect.tag);
        }
    }

    #[test]
    fn simd_lane_sort_orders_ties_by_index(v in (0u32..=8).prop_flat_map(|e| {
            proptest::collection::vec(0u32..8, 1usize << e)
        })) {
        let lanes: Vec<KeyIdxLane> =
            v.iter().enumerate().map(|(i, &k)| KeyIdxLane::pack(k, i as u32)).collect();
        let mut fast = lanes.clone();
        simd::bitonic_sort(&mut fast);
        // Packed comparison == (key, original position): the network
        // output must equal a *stable* sort of the keys.
        let mut expect = lanes;
        expect.sort(); // stdlib sort is stable; full-u64 Ord makes it total anyway
        prop_assert_eq!(&fast, &expect);
        for w in fast.windows(2) {
            if w[0].key_lane() == w[1].key_lane() {
                prop_assert!(w[0].idx() < w[1].idx());
            }
        }
    }
}

/// Raw 64-bit draws for the lane-key radix property, in one of four
/// shapes; each key type takes them by truncating cast, so the signed
/// types see negative keys and every type sees both full-range and
/// narrow inputs.
fn radix_raw_keys() -> impl Strategy<Value = Vec<u64>> {
    let n = 0usize..=4096;
    prop_oneof![
        // Full range: every digit varies.
        proptest::collection::vec(any::<u64>(), n.clone()),
        // Tiny domain around zero: long runs of duplicates, both signs.
        proptest::collection::vec((0u64..16).prop_map(|x| x.wrapping_sub(8)), n.clone()),
        // One shared high part; only the low byte varies.
        (any::<u64>(), proptest::collection::vec(0u64..256, n.clone()))
            .prop_map(|(base, low)| low.into_iter().map(|x| (base & !0xFF) | x).collect()),
        // A narrow window at an arbitrary offset, often across a
        // high-byte boundary.
        (any::<u64>(), proptest::collection::vec(0u64..1 << 12, n))
            .prop_map(|(base, off)| off.into_iter().map(|x| base.wrapping_add(x)).collect()),
    ]
}

/// The radix kernel by `to_lane32` against the standard library's
/// stable sort: same keys, and equal keys in input order. `sentinels`
/// `MAX_KEY` entries lead the input (the padding the heap stages);
/// `junk` stale entries sit in the scratch buffer beforehand.
fn check_radix_lane<K: KeyType>(
    keys: impl IntoIterator<Item = K>,
    sentinels: usize,
    junk: usize,
) -> Result<(), TestCaseError> {
    let input: Vec<Entry<K, u32>> = std::iter::repeat_n(K::MAX_KEY, sentinels)
        .chain(keys)
        .enumerate()
        .map(|(i, k)| Entry::new(k, i as u32))
        .collect();
    let mut expect = input.clone();
    expect.sort_by_key(|e| e.key);
    let mut got = input;
    let mut scratch = vec![Entry::new(K::MIN_KEY, u32::MAX); junk];
    radix_sort_by_key_with(&mut got, &mut scratch, |e| e.key.to_lane32());
    let pairs = |v: &[Entry<K, u32>]| v.iter().map(|e| (e.key, e.value)).collect::<Vec<_>>();
    prop_assert_eq!(pairs(&got), pairs(&expect));
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn radix_lane_u8_matches_stable_sort(raw in radix_raw_keys(), s in 0usize..4, j in 0usize..64) {
        check_radix_lane(raw.into_iter().map(|x| x as u8), s, j)?;
    }

    #[test]
    fn radix_lane_u16_matches_stable_sort(raw in radix_raw_keys(), s in 0usize..4, j in 0usize..64) {
        check_radix_lane(raw.into_iter().map(|x| x as u16), s, j)?;
    }

    #[test]
    fn radix_lane_u32_matches_stable_sort(raw in radix_raw_keys(), s in 0usize..4, j in 0usize..64) {
        check_radix_lane(raw.into_iter().map(|x| x as u32), s, j)?;
    }

    #[test]
    fn radix_lane_i8_matches_stable_sort(raw in radix_raw_keys(), s in 0usize..4, j in 0usize..64) {
        check_radix_lane(raw.into_iter().map(|x| x as i8), s, j)?;
    }

    #[test]
    fn radix_lane_i16_matches_stable_sort(raw in radix_raw_keys(), s in 0usize..4, j in 0usize..64) {
        check_radix_lane(raw.into_iter().map(|x| x as i16), s, j)?;
    }

    #[test]
    fn radix_lane_i32_matches_stable_sort(raw in radix_raw_keys(), s in 0usize..4, j in 0usize..64) {
        check_radix_lane(raw.into_iter().map(|x| x as i32), s, j)?;
    }
}

// ---- Full-split routes vs the streaming `sort_split_full` ----
//
// The heapify loops route each full split by its crossing shape
// (`bgpq::soa`): the branch-free two-chain kernel and the in-place
// narrow / near-swap (mirror) route must each return exactly the
// stable split, payloads included.

/// Every full-split route equals `sort_split_full` on the whole
/// `(key, payload)` sequence of both outputs.
fn check_full_split_routes<V>(a: Vec<Entry<u32, V>>, b: Vec<Entry<u32, V>>) -> TestCaseResult
where
    V: pq_api::ValueType + PartialEq + std::fmt::Debug,
{
    let pairs = |x: &[Entry<u32, V>]| x.iter().map(|e| (e.key, e.value)).collect::<Vec<_>>();
    let (mut ea, mut eb) = (a.clone(), b.clone());
    sort_split_full(&mut ea, &mut eb, &mut Vec::new());

    let cut = merge_path_search(&a, &b, a.len());
    let (mut fa, mut fb) = (a.clone(), b.clone());
    sort_split_full_branchless(&mut fa, &mut fb, cut, &mut Vec::new());
    prop_assert_eq!(pairs(&fa), pairs(&ea), "branch-free small side");
    prop_assert_eq!(pairs(&fb), pairs(&eb), "branch-free large side");

    let (mut ia, mut ib) = (a, b);
    sort_split_full_in_place(&mut ia, &mut ib, cut, &mut Vec::new());
    prop_assert_eq!(pairs(&ia), pairs(&ea), "in-place small side, cut {:?}", cut);
    prop_assert_eq!(pairs(&ib), pairs(&eb), "in-place large side, cut {:?}", cut);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn full_split_routes_match_streaming_word_entries(p in split_params()) {
        let (a, b) = split_runs(p, |t| t);
        check_full_split_routes(a, b)?;
    }

    #[test]
    fn full_split_routes_match_streaming_wide_entries(p in split_params()) {
        let (a, b) = split_runs(p, |t| [t as u64, !(t as u64)]);
        check_full_split_routes(a, b)?;
    }
}
