//! The buffered sticky shard front end-to-end: crash drills with
//! parked keys, the documented rank-error bound for buffered pops,
//! exact emptiness when keys hide in per-worker buffers, backpressure,
//! and conservation on the simulator.
//!
//! The buffered front stages inserts and serves deletes from per-worker
//! buffers (DESIGN.md "Buffered relaxed front"), so these guarantees
//! need their own drills beyond `sharded.rs`:
//!
//! * **No silent loss through buffers** — staged keys whose home shard
//!   crashes re-route to survivors and are accounted in
//!   `QualityStats::buffer_reroutes`; a full drain recovers every key,
//!   and under concurrent single-key traffic every injected fault at
//!   every injection point leaves books that balance.
//! * **Bounded relaxation** — a buffered pop's rank error is at most
//!   `S - 1` (the serving shard itself never counts: the refill took
//!   its `k` smallest), versus `S - c` for the unbuffered front.
//!   Buffering and stickiness change the *frequency* of sampling, not
//!   the magnitude of the bound.
//! * **Exact emptiness** — `len` and drains observe keys parked in any
//!   worker's buffers, including buffers of threads that exited without
//!   flushing.
//! * **Typed backpressure** — full shards park the un-inserted tail
//!   and refuse the next flush with `Full`, never a wedge or a loss.

use bgpq::BgpqOptions;
use bgpq_runtime::{CpuPlatform, CpuWorker, FaultAction, FaultPlan, InjectionPoint, SimPlatform};
use bgpq_shard::{BufferPolicy, CpuShardedBgpq, ShardedBgpq, ShardedOptions};
use gpu_sim::{launch, GpuConfig};
use pq_api::{Entry, KeyType, QueueError};
use proptest::prelude::*;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

fn buffered_router(
    shards: usize,
    sample: usize,
    k: usize,
    policy: BufferPolicy,
) -> ShardedBgpq<u32, u32, CpuPlatform> {
    let queue = BgpqOptions { node_capacity: k, max_nodes: 1 << 10, ..Default::default() };
    let platforms = (0..shards).map(|_| CpuPlatform::new(queue.max_nodes + 1)).collect();
    ShardedBgpq::with_platforms(
        platforms,
        ShardedOptions::new(shards, sample, queue).with_buffering(policy),
    )
}

/// Crash drill: a shard dies while worker buffers hold staged keys for
/// it. The flush must redistribute to survivors — zero silent loss —
/// and when the home shard was already quarantined at flush time the
/// re-routed keys are counted in `buffer_reroutes`.
#[test]
fn crash_with_staged_keys_reroutes_and_loses_nothing() {
    let queue = BgpqOptions { node_capacity: 4, max_nodes: 256, ..Default::default() };
    let plan = Arc::new(FaultPlan::new().with_rule(
        InjectionPoint::MidInsertHeapify,
        1,
        FaultAction::Panic,
    ));
    let platforms: Vec<CpuPlatform> = (0..3)
        .map(|i| {
            let p = CpuPlatform::new(queue.max_nodes + 1);
            if i == 0 {
                p.with_faults(plan.clone())
            } else {
                p
            }
        })
        .collect();
    let policy = BufferPolicy::new().with_insert_capacity(16).with_refill_width(4);
    let q: ShardedBgpq<u32, u32, CpuPlatform> = ShardedBgpq::with_platforms(
        platforms,
        ShardedOptions::new(3, 2, queue).with_buffering(policy),
    );
    let mut w = CpuWorker::new();

    // Seed the survivors so the drained multiset is non-trivial.
    for i in 0..8u32 {
        q.try_insert(&mut w, 1, &[Entry::new(100 + i, 0)]).unwrap();
    }

    // Worker 0 stages keys; its home shard is shard 0.
    let staged: Vec<Entry<u32, u32>> = (0..6u32).map(|i| Entry::new(i, i)).collect();
    q.buffered_try_insert(&mut w, 0, &staged).unwrap();
    assert_eq!(q.buffered_len(), 6);

    // Crash shard 0 out from under the buffer: raw inserts until the
    // injected heapify panic fires and poisons the heap. These keys
    // (900+) all target the doomed shard, so none of them survive into
    // the drain books — staged keys are the ones that must.
    let r = catch_unwind(AssertUnwindSafe(|| {
        for i in 0..32u32 {
            q.shard(0).insert(&mut w, &[Entry::new(900 + 2 * i, 0), Entry::new(901 + 2 * i, 0)]);
        }
    }));
    assert!(r.is_err(), "injected panic must fire");
    assert!(q.shard(0).is_poisoned());

    // Flush while the breaker is still closed: try_insert discovers
    // the poison, quarantines shard 0 and redistributes in-line.
    assert_eq!(q.flush_slot(&mut w, 0).unwrap(), 6);
    assert!(q.is_quarantined(0));
    assert_eq!(q.buffered_len(), 0);

    // Stage more keys for the now-quarantined home shard; this flush
    // takes the pre-quarantined path and must count the re-route.
    let staged2: Vec<Entry<u32, u32>> = (50..54u32).map(|i| Entry::new(i, i)).collect();
    q.buffered_try_insert(&mut w, 0, &staged2).unwrap();
    assert_eq!(q.flush_slot(&mut w, 0).unwrap(), 4);
    assert_eq!(q.quality().buffer_reroutes, 4);

    // Full-drain books: every key that entered through the front is
    // recovered (the two keys of the *crashed raw insert* died with
    // the shard — they never linearized — but nothing staged is lost).
    let mut out = Vec::new();
    q.drain(&mut w, &mut out);
    let mut got: Vec<u32> = out.iter().map(|e| e.key).collect();
    got.sort_unstable();
    let mut expect: Vec<u32> = (0..6u32).chain(50..54).chain(100..108).collect();
    expect.sort_unstable();
    assert_eq!(got, expect, "zero silent key loss through worker buffers");
    assert!(q.is_empty());
    assert_eq!(q.check_invariants(), 0);
}

/// Keys parked by a thread that exited without flushing are still
/// reachable: another worker's delete harvests them, and emptiness is
/// only reported once they are served.
#[test]
fn exited_threads_parked_keys_are_harvested() {
    let policy = BufferPolicy::new().with_insert_capacity(64).with_refill_width(8);
    let q = Arc::new(CpuShardedBgpq::<u32, u32>::new(
        ShardedOptions::new(
            2,
            1,
            BgpqOptions { node_capacity: 8, max_nodes: 256, ..Default::default() },
        )
        .with_buffering(policy),
    ));
    let qc = q.clone();
    std::thread::spawn(move || {
        // Stays below capacity: everything parks in this thread's slot
        // and the thread exits without flushing.
        let items: Vec<Entry<u32, u32>> = (0..20u32).map(|i| Entry::new(i, i)).collect();
        qc.try_insert_batch(&items).unwrap();
    })
    .join()
    .unwrap();
    assert_eq!(q.len(), 20, "parked keys are visible after their owner exited");

    let mut got = Vec::new();
    let mut out = Vec::new();
    while q.try_delete_min_batch(&mut out, 4).unwrap() > 0 {
        got.append(&mut out);
    }
    let mut keys: Vec<u32> = got.iter().map(|e| e.key).collect();
    keys.sort_unstable();
    assert_eq!(keys, (0..20u32).collect::<Vec<_>>());
    assert!(q.is_empty());
}

/// Backpressure: shards too small for the traffic never wedge the
/// buffered front or lose a key. An over-capacity batch whose chunks
/// start failing commits (`Ok`) and parks its tail in the stage; the
/// next flush is refused with a typed `Full` that keeps every unflushed
/// key staged; once a delete frees room a retry flushes them. `len`
/// stays exact throughout (router docs of `buffered_try_insert`).
#[test]
fn full_shards_park_the_tail_and_refuse_the_flush_typed() {
    let queue = BgpqOptions { node_capacity: 2, max_nodes: 3, ..Default::default() };
    let platforms = (0..2).map(|_| CpuPlatform::new(queue.max_nodes + 1)).collect();
    let policy = BufferPolicy::new().with_insert_capacity(4).with_refill_width(2);
    let q: ShardedBgpq<u32, u32, CpuPlatform> = ShardedBgpq::with_platforms(
        platforms,
        ShardedOptions::new(2, 2, queue).with_buffering(policy),
    );
    let mut w = CpuWorker::new();
    let keys: Vec<Entry<u32, u32>> = (0..40u32).map(|i| Entry::new(i, i)).collect();

    q.buffered_try_insert(&mut w, 0, &keys).expect("an over-capacity batch commits");
    let parked = q.buffered_len();
    assert!(parked > 4, "the un-inserted tail parks past capacity B (parked {parked})");
    assert!(parked < keys.len(), "the chunks that fit landed in the shards");
    assert_eq!(q.len(), keys.len());

    // The next flush surfaces the backpressure and keeps the keys.
    assert!(matches!(q.flush_slot(&mut w, 0), Err(QueueError::Full { .. })));
    assert_eq!(q.buffered_len(), parked, "a refused flush keeps every unflushed key staged");
    assert_eq!(q.len(), keys.len());
    // A new insert that would have to flush first is refused cleanly:
    // none of its keys is taken.
    assert!(matches!(
        q.buffered_try_insert(&mut w, 0, &[Entry::new(1000, 1000)]),
        Err(QueueError::Full { .. })
    ));
    assert_eq!(q.len(), keys.len());

    // Another worker's deletes free room until a retried flush fits.
    let mut rng = 7u64;
    let mut popped = Vec::new();
    let mut out = Vec::new();
    let mut flushed = false;
    for _ in 0..keys.len() {
        out.clear();
        let got = q.buffered_try_delete_min(&mut w, 1, &mut rng, &mut out, 2).unwrap();
        assert!(got > 0, "full shards cannot be empty");
        popped.extend(out.iter().map(|e| e.key));
        assert_eq!(q.len(), keys.len() - popped.len());
        match q.flush_slot(&mut w, 0) {
            Ok(_) => {
                flushed = true;
                break;
            }
            Err(QueueError::Full { .. }) => {}
            Err(e) => panic!("unexpected flush error: {e}"),
        }
        assert_eq!(q.len(), keys.len() - popped.len());
    }
    assert!(flushed, "freed room must let the retried flush through");
    assert_eq!(q.len(), keys.len() - popped.len());

    // No key lost or duplicated across the whole episode.
    let mut rest = Vec::new();
    q.drain(&mut w, &mut rest);
    popped.extend(rest.iter().map(|e| e.key));
    popped.sort_unstable();
    assert_eq!(popped, (0..40u32).collect::<Vec<_>>());
    assert!(q.is_empty());
}

/// One buffered-front crash drill: four threads of single-key traffic
/// (3 inserts : 1 delete) through the buffered entry points that
/// `CpuShardedBgpq` forwards to, over four shards of which shard 0's
/// platform fires `action` at the `nth` hit of `point`, behind a 75 ms
/// lock watchdog. The injected panic unwinds through the front to the
/// submitting thread, which counts the op as refused and carries on.
///
/// Reaching the books at all is the no-hang claim; then they must
/// balance (`assert_books_balance`).
fn buffered_drill(point: InjectionPoint, nth: u64, action: FaultAction) {
    let queue = BgpqOptions { node_capacity: 4, max_nodes: 1 << 10, ..Default::default() };
    let plan = Arc::new(FaultPlan::new().with_rule(point, nth, action));
    let platforms = (0..4)
        .map(|i| {
            let p = CpuPlatform::new(queue.max_nodes + 1).with_watchdog(Duration::from_millis(75));
            if i == 0 {
                p.with_faults(plan.clone())
            } else {
                p
            }
        })
        .collect();
    let policy =
        BufferPolicy::new().with_insert_capacity(8).with_refill_width(8).with_stickiness(4);
    let q: ShardedBgpq<u32, u32, CpuPlatform> = ShardedBgpq::with_platforms(
        platforms,
        ShardedOptions::new(4, 2, queue).with_buffering(policy),
    );

    let books: Vec<(Vec<u32>, Vec<u32>)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..4u32)
            .map(|t| {
                let q = &q;
                s.spawn(move || {
                    let (mut accepted, mut popped) = (Vec::new(), Vec::new());
                    let mut w = CpuWorker::new();
                    let worker = t as usize;
                    let mut rng = 0x5EED + u64::from(t);
                    let mut out = Vec::new();
                    for i in 0..400u32 {
                        let r = if i % 4 != 3 {
                            let key = t * 1_000_000 + i;
                            let e = [Entry::new(key, key)];
                            catch_unwind(AssertUnwindSafe(|| {
                                q.buffered_try_insert(&mut w, worker, &e)
                            }))
                            .map(|r| r.map(|()| accepted.push(key)))
                        } else {
                            out.clear();
                            catch_unwind(AssertUnwindSafe(|| {
                                q.buffered_try_delete_min(&mut w, worker, &mut rng, &mut out, 1)
                            }))
                            .map(|r| r.map(|_| popped.extend(out.iter().map(|e| e.key))))
                        };
                        match r {
                            Ok(Ok(())) | Ok(Err(QueueError::Full { .. })) => {}
                            // No live shard remains.
                            Ok(Err(QueueError::Poisoned)) => break,
                            Ok(Err(e)) => panic!("{point:?}/{action:?}: unexpected error {e}"),
                            // The injected panic: the op was refused.
                            Err(_) => {}
                        }
                    }
                    (accepted, popped)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("drill thread")).collect()
    });

    if !matches!(point, InjectionPoint::MarkedSpin | InjectionPoint::SalvageWalk) {
        assert!(
            plan.fired_count() >= 1,
            "{point:?}/{action:?}: drill load never reached the injection point"
        );
    }

    assert_books_balance(&q, &books, &format!("{point:?}/{action:?}"));
}

/// The books of a drill: after `quiesce_all` (which must leave nothing
/// parked) and a drain, every accepted key must be popped, drained,
/// stranded in a quarantined shard (walked out by salvage) or reported
/// lost by that salvage — and no key may come back twice or uninvited.
/// `books` holds each worker's accepted and popped keys.
fn assert_books_balance(
    q: &ShardedBgpq<u32, u32, CpuPlatform>,
    books: &[(Vec<u32>, Vec<u32>)],
    label: &str,
) {
    let mut w = CpuWorker::new();
    q.quiesce_all(&mut w).expect("survivors take every parked key back");
    assert_eq!(q.buffered_len(), 0, "{label}: quiesce leaves nothing parked");
    let mut returned = Vec::new();
    q.drain(&mut w, &mut returned);
    let mut reported_lost = 0;
    for i in 0..q.num_shards() {
        if q.is_quarantined(i) {
            let report = bgpq_recover::salvage_heap(q.shard(i), &mut w, &mut returned);
            assert!(report.conserves());
            reported_lost += report.keys_lost;
        }
    }
    assert!(returned.iter().all(|e| e.key == e.value), "payloads travel with their keys");

    let mut balance: HashMap<u32, i64> = HashMap::new();
    let mut accepted_total = 0usize;
    for (accepted, popped) in books {
        accepted_total += accepted.len();
        for &k in accepted {
            *balance.entry(k).or_default() += 1;
        }
        for &k in popped {
            *balance.entry(k).or_default() -= 1;
        }
    }
    for e in &returned {
        *balance.entry(e.key).or_default() -= 1;
    }
    let invented: Vec<u32> = balance.iter().filter(|&(_, &n)| n < 0).map(|(&k, _)| k).collect();
    assert!(invented.is_empty(), "{label}: keys returned twice or uninvited: {invented:?}");
    let missing = balance.values().sum::<i64>() as usize;
    assert!(
        missing <= reported_lost,
        "{label}: {missing} of {accepted_total} accepted keys vanished, \
         salvage reported only {reported_lost} lost"
    );
}

#[test]
fn buffered_panic_drills_at_every_injection_point() {
    for point in InjectionPoint::ALL {
        let nth = match point {
            InjectionPoint::MidInsertHeapify | InjectionPoint::MidDeleteHeapify => 5,
            InjectionPoint::MarkedSpin | InjectionPoint::SalvageWalk => 1,
            _ => 40,
        };
        buffered_drill(point, nth, FaultAction::Panic);
    }
}

#[test]
fn buffered_stall_drills_at_every_injection_point() {
    // 150 ms stall against a 75 ms watchdog: waiters time out and the
    // router quarantines the stalled shard; the stalled thread resumes
    // into a front that moved on.
    for point in InjectionPoint::ALL {
        let nth = match point {
            InjectionPoint::MidInsertHeapify | InjectionPoint::MidDeleteHeapify => 5,
            InjectionPoint::MarkedSpin | InjectionPoint::SalvageWalk => 1,
            _ => 40,
        };
        buffered_drill(point, nth, FaultAction::Stall { units: 150_000 });
    }
}

/// Quiesce drill: shard 0 panics while `quiesce_all` returns a worker's
/// deletion buffer to it. The keys not yet reinserted must stay parked
/// (and counted) so the retried quiesce returns them — none may be
/// stranded in refill scratch that the next refill clears.
#[test]
fn quiesce_unwind_keeps_deletion_buffer_keys_parked() {
    // S = 2, k = 4, refill width 16: 32 keys on shard 0, one buffered
    // pop restocks worker 0's deletion buffer with 16 and serves 1.
    let setup = |plan: &Arc<FaultPlan>| {
        let queue = BgpqOptions { node_capacity: 4, max_nodes: 256, ..Default::default() };
        let platforms = (0..2)
            .map(|i| {
                let p = CpuPlatform::new(queue.max_nodes + 1);
                if i == 0 {
                    p.with_faults(plan.clone())
                } else {
                    p
                }
            })
            .collect();
        let policy = BufferPolicy::new().with_insert_capacity(8).with_refill_width(16);
        let q: ShardedBgpq<u32, u32, CpuPlatform> = ShardedBgpq::with_platforms(
            platforms,
            ShardedOptions::new(2, 2, queue).with_buffering(policy),
        );
        let mut w = CpuWorker::new();
        let keys: Vec<Entry<u32, u32>> = (0..32u32).map(|i| Entry::new(i, i)).collect();
        for chunk in keys.chunks(4) {
            q.try_insert(&mut w, 0, chunk).unwrap();
        }
        let (mut rng, mut out) = (3u64, Vec::new());
        assert_eq!(q.buffered_try_delete_min(&mut w, 0, &mut rng, &mut out, 1).unwrap(), 1);
        assert_eq!(q.buffered_len(), 15);
        let accepted: Vec<u32> = keys.iter().map(|e| e.key).collect();
        let popped: Vec<u32> = out.iter().map(|e| e.key).collect();
        (q, vec![(accepted, popped)])
    };

    // A counting twin finds the first lock acquisition on shard 0 that
    // belongs to the quiesce; the drill panics exactly there.
    let counting = Arc::new(FaultPlan::new().with_rule(
        InjectionPoint::PreLockAcquire,
        u64::MAX,
        FaultAction::Panic,
    ));
    drop(setup(&counting));
    let nth = counting.hits(InjectionPoint::PreLockAcquire) + 1;
    let plan = Arc::new(FaultPlan::new().with_rule(
        InjectionPoint::PreLockAcquire,
        nth,
        FaultAction::Panic,
    ));
    let (q, books) = setup(&plan);

    let mut w = CpuWorker::new();
    assert!(catch_unwind(AssertUnwindSafe(|| q.quiesce_all(&mut w))).is_err());
    assert_eq!(plan.fired_count(), 1, "the panic fired inside quiesce_all");
    assert_eq!(q.buffered_len(), 15, "unreturned keys stay parked and counted");
    assert_books_balance(&q, &books, "quiesce unwind");
}

/// Conservation through the buffered front on the simulator: four
/// blocks run single-key inserts and deletes in virtual time, the last
/// block to finish quiesces every slot and drains, and the inserted and
/// popped multisets balance exactly.
#[test]
fn sim_buffered_single_ops_conserve_every_key() {
    let cfg = GpuConfig::new(4, 32).with_fuzz_seed(13);
    let queue = BgpqOptions { node_capacity: 4, max_nodes: 1 << 10, ..Default::default() };
    let policy =
        BufferPolicy::new().with_insert_capacity(8).with_refill_width(8).with_stickiness(3);
    let opts = ShardedOptions::new(3, 2, queue).with_buffering(policy);
    let per_block = 60u32;
    let inserted = Mutex::new(Vec::new());
    let popped = Mutex::new(Vec::new());
    let finished = AtomicUsize::new(0);

    let (_report, q) = launch(
        cfg,
        |sched| {
            let platforms = (0..opts.shards)
                .map(|_| SimPlatform::new(sched, queue.max_nodes + 1, cfg.cost, cfg.block_dim))
                .collect();
            ShardedBgpq::<u32, u32, SimPlatform>::with_platforms(platforms, opts)
        },
        |ctx, q: &ShardedBgpq<u32, u32, SimPlatform>| {
            let bid = ctx.block_id();
            let w = ctx.worker();
            let mut rng = 0x5EED + bid as u64;
            let (mut ins, mut got, mut out) = (Vec::new(), Vec::new(), Vec::new());
            for i in 0..per_block {
                let key = bid as u32 * 10_000 + i;
                q.buffered_try_insert(w, bid, &[Entry::new(key, key)]).expect("healthy sim");
                ins.push(key);
                if i % 2 == 1 {
                    out.clear();
                    q.buffered_try_delete_min(w, bid, &mut rng, &mut out, 1).expect("healthy sim");
                    got.extend(out.iter().map(|e| e.key));
                }
            }
            inserted.lock().unwrap().extend(ins);
            popped.lock().unwrap().extend(got);
            // The last block out runs the quiescent cleanup.
            if finished.fetch_add(1, Ordering::SeqCst) + 1 == cfg.num_blocks {
                q.quiesce_all(w).expect("quiesce");
                assert_eq!(q.buffered_len(), 0, "quiesced slots leave nothing parked");
                out.clear();
                q.drain(w, &mut out);
                popped.lock().unwrap().extend(out.iter().map(|e| e.key));
            }
        },
    );

    let fs = q.front_stats().snapshot();
    assert!(fs.buffer_flushes > 0 && fs.buffer_refills > 0, "single ops went through the buffers");
    let mut inserted = inserted.into_inner().unwrap();
    let mut popped = popped.into_inner().unwrap();
    assert_eq!(inserted.len(), 4 * per_block as usize);
    inserted.sort_unstable();
    popped.sort_unstable();
    assert_eq!(popped, inserted, "inserted and popped multisets balance exactly");
    assert!(q.is_empty());
    assert_eq!(q.check_invariants(), 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Documented bound (router docs "Buffered mode"): at quiescent
    /// single-consumer replay, a buffered pop's rank error — the number
    /// of shards advertising a smaller root-min than the key served —
    /// is at most `S - 1`, for any stickiness and buffer width. The
    /// unbuffered twin on the identical key stream stays within its
    /// tighter `S - c`.
    #[test]
    fn buffered_pop_rank_error_stays_within_s_minus_1(
        (shards, sample) in (2usize..=5).prop_flat_map(|s| (Just(s), 1usize..=s)),
        keys in prop::collection::vec(0u32..10_000, 1..300),
        width in 1usize..=24,
        stickiness in 1u32..=6,
        seed in 1u64..u64::MAX,
    ) {
        let policy = BufferPolicy::new()
            .with_insert_capacity(16)
            .with_refill_width(width)
            .with_stickiness(stickiness);
        let q = buffered_router(shards, sample, 8, policy);
        let plain = {
            let queue =
                BgpqOptions { node_capacity: 8, max_nodes: 1 << 10, ..Default::default() };
            let platforms =
                (0..shards).map(|_| CpuPlatform::new(queue.max_nodes + 1)).collect();
            ShardedBgpq::<u32, u32, CpuPlatform>::with_platforms(
                platforms,
                ShardedOptions::new(shards, sample, queue),
            )
        };
        let mut w = CpuWorker::new();
        for (i, chunk) in keys.chunks(8).enumerate() {
            let items: Vec<Entry<u32, u32>> =
                chunk.iter().map(|&k| Entry::new(k, 0)).collect();
            q.try_insert(&mut w, i, &items).unwrap();
            plain.try_insert(&mut w, i, &items).unwrap();
        }

        // Buffered replay, one pop at a time, measuring the rank error
        // against the live hints at the moment of each pop.
        let mut rng = seed;
        let mut out = Vec::new();
        let mut drained = 0usize;
        loop {
            out.clear();
            let got = q.buffered_try_delete_min(&mut w, 0, &mut rng, &mut out, 1).unwrap();
            if got == 0 {
                break;
            }
            drained += got;
            let bits = out[0].key.to_ordered_bits();
            let err = (0..shards)
                .filter(|&i| q.shard(i).min_hint_bits() < bits)
                .count();
            prop_assert!(
                err < shards,
                "buffered pop rank error {} exceeds S-1 = {}", err, shards - 1
            );
        }
        prop_assert_eq!(drained, keys.len());
        prop_assert!(q.is_empty());

        // Unbuffered twin: identical stream, tighter bound.
        let mut rng = seed;
        let mut out = Vec::new();
        let mut plain_drained = 0usize;
        loop {
            let got = plain.try_delete_min(&mut w, &mut rng, &mut out, 8).unwrap();
            if got == 0 {
                break;
            }
            plain_drained += got;
        }
        prop_assert_eq!(plain_drained, keys.len());
        let bound = (shards - sample) as u64;
        prop_assert!(
            plain.quality().rank_error_max <= bound,
            "unbuffered twin exceeded its S-c bound: {} > {}",
            plain.quality().rank_error_max, bound
        );
    }

    /// Exact emptiness extended to buffers: after any interleaving of
    /// buffered inserts, buffered deletes and explicit flushes, `len`
    /// equals the model count at every step and the final drain misses
    /// nothing parked in a buffer.
    #[test]
    fn emptiness_is_exact_with_parked_keys(
        ops in prop::collection::vec(
            prop_oneof![
                // (op, payload): 0 = insert `payload % 7 + 1` keys,
                // 1 = delete up to `payload % 5 + 1`, 2 = flush.
                (Just(0usize), any::<u32>()),
                (Just(1usize), any::<u32>()),
                (Just(2usize), any::<u32>()),
            ],
            1..120,
        ),
        capacity in 1usize..=24,
        seed in 1u64..u64::MAX,
    ) {
        let policy = BufferPolicy::new()
            .with_insert_capacity(capacity)
            .with_refill_width(8)
            .with_stickiness(3);
        let q = buffered_router(3, 2, 4, policy);
        let mut w = CpuWorker::new();
        let mut rng = seed;
        let mut live = 0usize;
        let mut next_key = 0u32;
        let mut out = Vec::new();
        for (op, payload) in ops {
            match op {
                0 => {
                    let n = (payload % 7 + 1) as usize;
                    let items: Vec<Entry<u32, u32>> = (0..n)
                        .map(|_| {
                            next_key += 1;
                            Entry::new(next_key, 0)
                        })
                        .collect();
                    q.buffered_try_insert(&mut w, 0, &items).unwrap();
                    live += n;
                }
                1 => {
                    out.clear();
                    let want = (payload % 5 + 1) as usize;
                    let got =
                        q.buffered_try_delete_min(&mut w, 0, &mut rng, &mut out, want).unwrap();
                    live -= got;
                }
                _ => {
                    q.flush_slot(&mut w, 0).unwrap();
                }
            }
            prop_assert_eq!(q.len(), live, "len must count parked keys at every step");
        }
        // Final drain through the buffered path recovers exactly the
        // model's survivors.
        let mut drained = 0usize;
        loop {
            out.clear();
            let got = q.buffered_try_delete_min(&mut w, 0, &mut rng, &mut out, 4).unwrap();
            if got == 0 {
                break;
            }
            drained += got;
        }
        prop_assert_eq!(drained, live);
        prop_assert!(q.is_empty());
        prop_assert_eq!(q.check_invariants(), 0);
    }
}
