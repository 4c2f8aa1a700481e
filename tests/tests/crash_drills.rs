//! Crash drills: deterministic fault injection at every [`InjectionPoint`]
//! with both a panic and a stall, on both platforms.
//!
//! Each drill asserts the failure-model contract (DESIGN.md "Failure
//! model"):
//!
//! * **No deadlock** — the drill terminates; a stalled/dead lock holder
//!   is either waited out (sim hand-off) or timed out (CPU watchdog).
//! * **No key loss among committed operations** — the multiset of keys
//!   returned by linearized DELETEMINs is contained in the multiset
//!   inserted by linearized INSERTs, and when the queue survives
//!   unpoisoned, draining recovers the difference exactly.
//! * **Truncated histories linearize** — events are recorded at each
//!   operation's linearization point, so a crash after that point leaves
//!   the committed operation visible and `check_history` must still
//!   accept the prefix that actually committed.
//! * **Fail-stop visibility** — a worker dying mid-critical-section
//!   poisons the queue; every later operation refuses with
//!   `QueueError::Poisoned` instead of touching torn state.

use bgpq::{check_history, Bgpq, BgpqOptions, CpuBgpq, HistoryEvent, HistoryOp};
use bgpq_runtime::{CpuPlatform, FaultAction, FaultPlan, InjectionPoint, SimPlatform};
use gpu_sim::{launch, GpuConfig};
use pq_api::{Entry, QueueError};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Duration;

/// Key multiset of all linearized inserts and deletes in `events`.
fn committed_multisets(events: &[HistoryEvent<u32>]) -> (HashMap<u32, i64>, HashMap<u32, i64>) {
    let mut inserted: HashMap<u32, i64> = HashMap::new();
    let mut deleted: HashMap<u32, i64> = HashMap::new();
    for e in events {
        match &e.op {
            HistoryOp::Insert { keys } => {
                for &k in keys {
                    *inserted.entry(k).or_default() += 1;
                }
            }
            HistoryOp::DeleteMin { keys, .. } => {
                for &k in keys {
                    *deleted.entry(k).or_default() += 1;
                }
            }
        }
    }
    (inserted, deleted)
}

/// Assert `deleted ⊆ inserted` as multisets; return the difference size.
fn assert_conservation(inserted: &HashMap<u32, i64>, deleted: &HashMap<u32, i64>) -> i64 {
    for (k, &n) in deleted {
        let have = inserted.get(k).copied().unwrap_or(0);
        assert!(
            n <= have,
            "key {k} deleted {n} times but inserted only {have} times — keys were fabricated"
        );
    }
    let ins: i64 = inserted.values().sum();
    let del: i64 = deleted.values().sum();
    ins - del
}

/// One CPU drill: four threads of mixed traffic against a queue whose
/// platform fires `action` on the `nth` hit of `point`. Threads use the
/// `try_*` APIs and stop on `Poisoned`; the injected panic itself is
/// contained per thread.
fn cpu_drill(point: InjectionPoint, nth: u64, action: FaultAction) {
    let opts = BgpqOptions { node_capacity: 4, max_nodes: 1 << 10, ..Default::default() };
    let plan = Arc::new(FaultPlan::new().with_rule(point, nth, action));
    let platform = CpuPlatform::new(opts.max_nodes + 1)
        .with_watchdog(Duration::from_millis(75))
        .with_faults(plan.clone());
    let q: CpuBgpq<u32, u32> = CpuBgpq::on_platform(platform, opts).with_history();

    std::thread::scope(|s| {
        for t in 0..4u32 {
            let q = &q;
            s.spawn(move || {
                let _ = catch_unwind(AssertUnwindSafe(|| {
                    // Insert-heavy mix (3:1, two keys per insert, k per
                    // delete): the heap must actually grow a multi-level
                    // lock path, or the heapify injection points are
                    // never reached.
                    let mut out = Vec::new();
                    for i in 0..300u32 {
                        let key = t * 1_000_000 + i;
                        if i % 4 != 3 {
                            match q.try_insert_batch(&[
                                Entry::new(key, t),
                                Entry::new(key + 500_000, t),
                            ]) {
                                Ok(()) | Err(QueueError::Full { .. }) => {}
                                Err(QueueError::Poisoned) => break,
                                Err(QueueError::LockTimeout { .. }) => {}
                            }
                        } else {
                            out.clear();
                            match q.try_delete_min_batch(&mut out, 4) {
                                Ok(_) | Err(QueueError::Full { .. }) => {}
                                Err(QueueError::Poisoned) => break,
                                Err(QueueError::LockTimeout { .. }) => {}
                            }
                        }
                    }
                }));
            });
        }
    });
    // Reaching this line at all is the no-deadlock claim: every blocked
    // acquisition was bounded by the watchdog.

    if point != InjectionPoint::MarkedSpin {
        assert!(
            plan.fired_count() >= 1,
            "{point:?}/{action:?}: drill load never reached the injection point"
        );
    }

    let events = q.inner().take_history();
    if let Some(v) = check_history(&events) {
        panic!(
            "{point:?}/{action:?}: truncated history does not linearize at seq {}: {}",
            v.seq, v.detail
        );
    }
    let (inserted, deleted) = committed_multisets(&events);
    let outstanding = assert_conservation(&inserted, &deleted);

    if q.inner().is_poisoned() {
        assert!(q.inner().stats().snapshot().poison_events >= 1);
        // Fail-stop: the poisoned queue refuses promptly, without
        // blocking and without emitting keys.
        let mut out = Vec::new();
        assert!(matches!(q.try_delete_min_batch(&mut out, 1), Err(QueueError::Poisoned)));
        assert!(matches!(q.try_insert_batch(&[Entry::new(1, 0)]), Err(QueueError::Poisoned)));
        assert!(out.is_empty());
    } else {
        // Healthy survivor: draining recovers exactly the outstanding
        // keys of the committed history.
        let mut rest = Vec::new();
        while q.try_delete_min_batch(&mut rest, 4).expect("healthy queue") > 0 {}
        assert_eq!(rest.len() as i64, outstanding, "{point:?}/{action:?}: drain size mismatch");
        let mut remaining = inserted.clone();
        for e in &rest {
            *remaining.entry(e.key).or_default() -= 1;
        }
        for (k, &n) in &deleted {
            *remaining.entry(*k).or_default() -= n;
        }
        assert!(
            remaining.values().all(|&n| n == 0),
            "{point:?}/{action:?}: drained keys are not the inserted-minus-deleted multiset"
        );
        q.inner().check_invariants();
    }
}

#[test]
fn cpu_panic_drill_every_injection_point() {
    for (point, nth) in [
        (InjectionPoint::PreLockAcquire, 201),
        (InjectionPoint::PostLockAcquire, 201),
        (InjectionPoint::PreLockRelease, 200),
        (InjectionPoint::MidInsertHeapify, 5),
        (InjectionPoint::MidDeleteHeapify, 5),
        // MarkedSpin needs an engineered collaboration; the dedicated
        // drill in fault_collaboration.rs covers it. Here it simply
        // must not break anything if it never fires.
        (InjectionPoint::MarkedSpin, 1),
    ] {
        cpu_drill(point, nth, FaultAction::Panic);
    }
}

#[test]
fn cpu_stall_drill_every_injection_point() {
    // 150 ms stall against a 75 ms watchdog: waiters must time out (or
    // poison mid-op) rather than hang, and the stalled thread resumes
    // into a world that moved on.
    for (point, nth) in [
        (InjectionPoint::PreLockAcquire, 201),
        (InjectionPoint::PostLockAcquire, 201),
        (InjectionPoint::PreLockRelease, 200),
        (InjectionPoint::MidInsertHeapify, 5),
        (InjectionPoint::MidDeleteHeapify, 5),
        (InjectionPoint::MarkedSpin, 1),
    ] {
        cpu_drill(point, nth, FaultAction::Stall { units: 150_000 });
    }
}

type SimQueue = Arc<Bgpq<u32, u32, SimPlatform>>;

/// One simulator drill: six blocks of mixed traffic, deterministic
/// schedule, fault at a virtual-time-exact step. The queue is stashed
/// through an `Arc` so the aftermath is inspectable even when the
/// injected panic unwinds out of `launch`.
fn sim_drill(point: InjectionPoint, nth: u64, action: FaultAction) {
    let cfg = GpuConfig::new(6, 32).with_fuzz_seed(7);
    let opts = BgpqOptions { node_capacity: 2, max_nodes: 4096, ..Default::default() };
    let plan = Arc::new(FaultPlan::new().with_rule(point, nth, action));
    let stash: std::sync::Mutex<Option<SimQueue>> = std::sync::Mutex::new(None);

    let run = catch_unwind(AssertUnwindSafe(|| {
        launch(
            cfg,
            |sched| {
                let p = SimPlatform::new(sched, opts.max_nodes + 1, cfg.cost, cfg.block_dim)
                    .with_faults(plan.clone());
                let q: SimQueue = Arc::new(Bgpq::with_platform(p, opts).with_history());
                *stash.lock().unwrap() = Some(q.clone());
                q
            },
            |ctx, q: &SimQueue| {
                let bid = ctx.block_id() as u32;
                let mut out = Vec::new();
                // Net-growth mix so the heap develops real depth and the
                // heapify injection points are exercised.
                for i in 0..40u32 {
                    let key = bid * 1_000_000 + i;
                    if q.try_insert(
                        ctx.worker(),
                        &[Entry::new(key, bid), Entry::new(key + 500_000, bid)],
                    )
                    .is_err()
                    {
                        return; // graceful fail-stop: survivors exit cleanly
                    }
                    if i % 2 == 1 {
                        out.clear();
                        if q.try_delete_min(ctx.worker(), &mut out, 2).is_err() {
                            return;
                        }
                    }
                }
            },
        );
    }));

    let q = stash.lock().unwrap().take().expect("setup closure ran");
    if point != InjectionPoint::MarkedSpin {
        assert!(
            plan.fired_count() >= 1,
            "{point:?}/{action:?}: sim drill load never reached the injection point"
        );
    }
    match action {
        FaultAction::Panic if plan.fired_count() > 0 => {
            assert!(run.is_err(), "{point:?}: injected panic must propagate out of launch");
        }
        _ => assert!(run.is_ok(), "{point:?}/{action:?}: non-panic drill must complete"),
    }

    let events = q.take_history();
    if let Some(v) = check_history(&events) {
        panic!(
            "{point:?}/{action:?}: sim history does not linearize at seq {}: {}",
            v.seq, v.detail
        );
    }
    let (inserted, deleted) = committed_multisets(&events);
    let outstanding = assert_conservation(&inserted, &deleted);
    if !q.is_poisoned() {
        assert_eq!(q.len() as i64, outstanding, "{point:?}/{action:?}: length drift");
        q.check_invariants();
    } else {
        assert!(q.stats().snapshot().poison_events >= 1);
    }
}

#[test]
fn sim_panic_drill_every_injection_point() {
    for (point, nth) in [
        (InjectionPoint::PreLockAcquire, 40),
        (InjectionPoint::PostLockAcquire, 40),
        (InjectionPoint::PreLockRelease, 40),
        (InjectionPoint::MidInsertHeapify, 3),
        (InjectionPoint::MidDeleteHeapify, 3),
        (InjectionPoint::MarkedSpin, 1),
    ] {
        sim_drill(point, nth, FaultAction::Panic);
    }
}

#[test]
fn sim_stall_drill_every_injection_point() {
    // A sim stall is a huge virtual-time jump: waiters spin in virtual
    // time (escalating to the long backoff) but the bound must not trip
    // and the run must complete with an intact history.
    for (point, nth) in [
        (InjectionPoint::PreLockAcquire, 40),
        (InjectionPoint::PostLockAcquire, 40),
        (InjectionPoint::PreLockRelease, 40),
        (InjectionPoint::MidInsertHeapify, 3),
        (InjectionPoint::MidDeleteHeapify, 3),
        (InjectionPoint::MarkedSpin, 1),
    ] {
        sim_drill(point, nth, FaultAction::Stall { units: 1_000_000 });
    }
}

#[test]
fn sim_panic_drills_are_deterministic() {
    // Same seed, same plan ⇒ the same operation dies at the same
    // virtual-time step: both runs commit the identical history.
    let run = || {
        let cfg = GpuConfig::new(4, 32).with_fuzz_seed(11);
        let opts = BgpqOptions { node_capacity: 2, max_nodes: 1024, ..Default::default() };
        let plan = Arc::new(FaultPlan::new().with_rule(
            InjectionPoint::MidInsertHeapify,
            2,
            FaultAction::Panic,
        ));
        let stash: std::sync::Mutex<Option<SimQueue>> = std::sync::Mutex::new(None);
        let _ = catch_unwind(AssertUnwindSafe(|| {
            launch(
                cfg,
                |sched| {
                    let p = SimPlatform::new(sched, opts.max_nodes + 1, cfg.cost, cfg.block_dim)
                        .with_faults(plan.clone());
                    let q: SimQueue = Arc::new(Bgpq::with_platform(p, opts).with_history());
                    *stash.lock().unwrap() = Some(q.clone());
                    q
                },
                |ctx, q: &SimQueue| {
                    let bid = ctx.block_id() as u32;
                    let mut out = Vec::new();
                    for i in 0..20u32 {
                        if q.try_insert(ctx.worker(), &[Entry::new(bid * 100 + i, 0)]).is_err() {
                            return;
                        }
                        out.clear();
                        if q.try_delete_min(ctx.worker(), &mut out, 1).is_err() {
                            return;
                        }
                    }
                },
            );
        }));
        let q = stash.lock().unwrap().take().unwrap();
        q.take_history()
    };
    let h1 = run();
    let h2 = run();
    assert_eq!(h1, h2, "fault drills on the simulator must be reproducible");
    assert!(!h1.is_empty());
}

#[test]
fn sharded_front_quarantines_crashed_shard_and_serves_on() {
    use bgpq_shard::{ShardedBgpq, ShardedOptions};

    // Shard 1 carries a fault plan that kills its first delete heapify;
    // shards 0 and 2 are healthy. After the crash the router must
    // quarantine shard 1 and keep serving from the survivors.
    let queue = BgpqOptions { node_capacity: 2, max_nodes: 128, ..Default::default() };
    let plan = Arc::new(FaultPlan::new().with_rule(
        InjectionPoint::MidDeleteHeapify,
        1,
        FaultAction::Panic,
    ));
    let platforms: Vec<CpuPlatform> = (0..3)
        .map(|i| {
            let p = CpuPlatform::new(queue.max_nodes + 1).with_watchdog(Duration::from_millis(75));
            if i == 1 {
                p.with_faults(plan.clone())
            } else {
                p
            }
        })
        .collect();
    let q: ShardedBgpq<u32, u32, CpuPlatform> =
        ShardedBgpq::with_platforms(platforms, ShardedOptions::new(3, 3, queue));
    let mut w = bgpq_runtime::CpuWorker::new();

    // Fill every shard, then hammer deletes until the fault fires on
    // shard 1. Because deletes route by best hint, the faulty shard is
    // hit eventually; its panic is contained by the drill thread.
    for a in 0..3usize {
        for i in 0..32u32 {
            q.try_insert(
                &mut w,
                a,
                &[Entry::new(a as u32 * 1000 + i, 0), Entry::new(a as u32 * 1000 + i + 500, 0)],
            )
            .unwrap();
        }
    }
    let total = q.len();
    let drained = std::thread::scope(|s| {
        s.spawn(|| {
            let mut w = bgpq_runtime::CpuWorker::new();
            let mut rng = 17u64;
            let mut out = Vec::new();
            let mut n = 0usize;
            loop {
                let r = catch_unwind(AssertUnwindSafe(|| {
                    let mut tmp = Vec::new();
                    let got = q.try_delete_min(&mut w, &mut rng, &mut tmp, 2);
                    (got, tmp)
                }));
                match r {
                    Ok((Ok(0), _)) => break,
                    Ok((Ok(got), tmp)) => {
                        n += got;
                        out.extend(tmp);
                    }
                    Ok((Err(_), _)) => break,
                    Err(_) => {} // shard 1's injected panic; keep going
                }
            }
            n
        })
        .join()
        .unwrap()
    });

    assert!(plan.fired_count() >= 1, "the delete-heapify fault must have fired");
    assert!(q.is_quarantined(1), "crashed shard must be quarantined");
    assert_eq!(q.quarantined_count(), 1);
    assert!(q.quality().quarantines >= 1);
    // Survivor shards drained fully; shard 1's keys are the casualty,
    // so strictly fewer than `total` came back but both live shards hit
    // empty cleanly (try_delete_min returned Ok(0), not an error).
    assert!(drained < total);
    assert_eq!(q.len(), 0, "live shards are empty");
    q.check_invariants();
    // Inserts keep working, redistributed away from the dead shard.
    q.try_insert(&mut w, 1, &[Entry::new(7, 7)]).expect("redistributed insert");
    assert_eq!(q.len(), 1);
}
