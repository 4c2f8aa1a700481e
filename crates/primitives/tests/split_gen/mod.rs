//! Inputs of the full-split differential proptests, shared by this
//! crate's `proptests.rs` and the `bgpq` crate's `soa` unit tests (which
//! include this file by path), so both suites cover the same shapes.

use pq_api::{Entry, ValueType};
use proptest::prelude::*;

/// Run lengths of the full-split tests: every small length, the
/// lengths around a 64-entry chunk, and the heap's large nodes.
fn split_len() -> impl Strategy<Value = usize> {
    prop_oneof![1usize..=16, Just(63usize), Just(64), Just(512), Just(1024)]
}

/// `((na, nb), domain, shift, seed)`: `nb == 0` means `nb = na`. Keys
/// are drawn from `domain` values (1..=4 is duplicate-heavy) and `b`'s
/// range is shifted by `domain * shift / 16`: `|shift| ≥ 16` is
/// disjoint in either direction, `|shift|` near 12..=15 puts the cut
/// on either side of `k/8` from either end (positive: narrow
/// crossing, negative: near-swap), small `|shift|` interleaves.
pub fn split_params() -> impl Strategy<Value = ((usize, usize), u32, i32, u64)> {
    (
        (split_len(), prop_oneof![Just(0usize), split_len()]),
        prop_oneof![1u32..=4, Just(16u32), Just(1 << 20)],
        -18i32..=18,
        any::<u64>(),
    )
}

/// The two sorted input runs of one full split.
pub type Runs<V> = (Vec<Entry<u32, V>>, Vec<Entry<u32, V>>);

/// Two sorted runs for [`split_params`]; each entry's payload is
/// `value(tag)` with a tag distinct per entry and side, so tie order
/// is observable.
pub fn split_runs<V: ValueType>(
    ((na, nb), dom, shift, seed): ((usize, usize), u32, i32, u64),
    value: impl Fn(u32) -> V,
) -> Runs<V> {
    let nb = if nb == 0 { na } else { nb };
    let mut x = seed | 1;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        (x >> 32) as u32
    };
    let base = 2 * dom as i64;
    let off = dom as i64 * shift as i64 / 16;
    let mut run = |n: usize, lo: i64, tag: u32| {
        let mut keys: Vec<u32> = (0..n).map(|_| (lo + (next() % dom) as i64) as u32).collect();
        keys.sort_unstable();
        keys.into_iter().zip(tag..).map(|(k, t)| Entry::new(k, value(t))).collect::<Vec<_>>()
    };
    (run(na, base, 0), run(nb, base + off, 1 << 20))
}
