//! Property-based tests: arbitrary operation sequences against the
//! reference model, across node capacities and ablation settings.

use bgpq::{BgpqOptions, CpuBgpq, RADIX_STAGE_MIN};
use pq_api::{BatchPriorityQueue, Entry};
use proptest::prelude::*;
use std::collections::BinaryHeap;

#[derive(Debug, Clone)]
enum Op {
    Insert(Vec<u32>),
    Delete(usize),
}

fn ops_strategy(k: usize, len: usize) -> impl Strategy<Value = Vec<Op>> {
    let op = prop_oneof![
        proptest::collection::vec(any::<u32>().prop_map(|x| x % (1 << 30)), 1..=k)
            .prop_map(Op::Insert),
        (1..=k).prop_map(Op::Delete),
    ];
    proptest::collection::vec(op, 1..len)
}

/// Operations at node capacity `k` whose insert batches straddle
/// [`RADIX_STAGE_MIN`]: a few small batches (pdqsort staging) among
/// batches just below and at or above the threshold (radix staging),
/// keys either wide or from a tiny domain full of duplicates.
fn ops_across_radix_threshold(k: usize, len: usize) -> impl Strategy<Value = Vec<Op>> {
    assert!(RADIX_STAGE_MIN <= k, "k = {k} never reaches radix staging");
    let size = prop_oneof![1usize..=8, (RADIX_STAGE_MIN - 4)..=k];
    let keys = size.prop_flat_map(|n| {
        prop_oneof![
            proptest::collection::vec(any::<u32>().prop_map(|x| x % (1 << 30)), n),
            proptest::collection::vec(0u32..64, n),
        ]
    });
    let op = prop_oneof![keys.prop_map(Op::Insert), (1..=k).prop_map(Op::Delete)];
    proptest::collection::vec(op, 1..len)
}

/// Operations at node capacity `k` that build a heap several levels
/// deep, so DELETEMIN_HEAPIFY runs its sibling and parent/child splits
/// on every crossing shape: mostly full insert batches with keys from
/// a duplicate-heavy domain (64 or 1024 values) or a wide one, and
/// full or partial deletes.
fn ops_deep_duplicates(k: usize, len: usize) -> impl Strategy<Value = Vec<Op>> {
    let keys = || {
        prop_oneof![
            proptest::collection::vec(0u32..64, k),
            proptest::collection::vec(0u32..1024, k),
            proptest::collection::vec(any::<u32>().prop_map(|x| x % (1 << 30)), k),
            proptest::collection::vec(0u32..64, 1..=k),
        ]
    };
    let op = prop_oneof![
        keys().prop_map(Op::Insert),
        keys().prop_map(Op::Insert),
        Just(Op::Delete(k)),
        (1..=k).prop_map(Op::Delete),
    ];
    proptest::collection::vec(op, 8..len)
}

/// Payload the model expects back with key `x`: checks that the
/// staging sorts move each value together with its key.
fn payload(x: u32) -> u32 {
    x.rotate_left(7) ^ 0x5A5A_5A5A
}

fn run_against_model(k: usize, opts: BgpqOptions, ops: &[Op]) -> Result<(), TestCaseError> {
    let q: CpuBgpq<u32, u32> = CpuBgpq::new(opts);
    let mut model: BinaryHeap<std::cmp::Reverse<u32>> = BinaryHeap::new();
    let mut out = Vec::new();
    for op in ops {
        match op {
            Op::Insert(keys) => {
                let items: Vec<Entry<u32, u32>> =
                    keys.iter().map(|&x| Entry::new(x, payload(x))).collect();
                q.insert_batch(&items);
                for &x in keys {
                    model.push(std::cmp::Reverse(x));
                }
            }
            Op::Delete(n) => {
                out.clear();
                let got = q.delete_min_batch(&mut out, (*n).min(k));
                let mut expect = Vec::new();
                for _ in 0..(*n).min(k) {
                    match model.pop() {
                        Some(std::cmp::Reverse(x)) => expect.push(x),
                        None => break,
                    }
                }
                prop_assert_eq!(got, expect.len());
                let got_keys: Vec<u32> = out.iter().map(|e| e.key).collect();
                prop_assert_eq!(got_keys, expect);
                prop_assert!(
                    out.iter().all(|e| e.value == payload(e.key)),
                    "payload split from key"
                );
            }
        }
        prop_assert_eq!(BatchPriorityQueue::<u32, u32>::len(&q), model.len());
    }
    q.inner().check_invariants();
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn matches_model_k4(ops in ops_strategy(4, 120)) {
        run_against_model(4, BgpqOptions { node_capacity: 4, max_nodes: 512, ..Default::default() }, &ops)?;
    }

    #[test]
    fn matches_model_k8_no_buffer(ops in ops_strategy(8, 80)) {
        let o = BgpqOptions {
            node_capacity: 8,
            max_nodes: 512,
            use_partial_buffer: false,
            ..Default::default()
        };
        run_against_model(8, o, &ops)?;
    }

    #[test]
    fn matches_model_k5_odd_capacity(ops in ops_strategy(5, 100)) {
        run_against_model(5, BgpqOptions { node_capacity: 5, max_nodes: 512, ..Default::default() }, &ops)?;
    }

    #[test]
    fn matches_model_k1(ops in ops_strategy(1, 80)) {
        run_against_model(1, BgpqOptions { node_capacity: 1, max_nodes: 512, ..Default::default() }, &ops)?;
    }

    #[test]
    fn matches_model_k512_across_radix_threshold(ops in ops_across_radix_threshold(512, 24)) {
        run_against_model(512, BgpqOptions { node_capacity: 512, max_nodes: 512, ..Default::default() }, &ops)?;
    }

    #[test]
    fn matches_model_k1024_duplicate_heavy(ops in ops_deep_duplicates(1024, 40)) {
        run_against_model(1024, BgpqOptions { node_capacity: 1024, max_nodes: 64, ..Default::default() }, &ops)?;
    }

    #[test]
    fn history_always_linearizes(ops in ops_strategy(4, 60)) {
        let q: CpuBgpq<u32, ()> = CpuBgpq::new(BgpqOptions {
            node_capacity: 4,
            max_nodes: 512,
            ..Default::default()
        }).with_history();
        let mut out = Vec::new();
        for op in &ops {
            match op {
                Op::Insert(keys) => {
                    let items: Vec<Entry<u32, ()>> =
                        keys.iter().map(|&x| Entry::new(x, ())).collect();
                    q.insert_batch(&items);
                }
                Op::Delete(n) => {
                    out.clear();
                    q.delete_min_batch(&mut out, (*n).min(4));
                }
            }
        }
        let events = q.inner().take_history();
        prop_assert!(bgpq::check_history(&events).is_none());
    }
}
