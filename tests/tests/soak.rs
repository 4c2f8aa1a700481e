//! Long-running soak tests — `#[ignore]`d by default; run explicitly:
//!
//! ```text
//! cargo test -p integration-tests --test soak -- --ignored
//! ```

use bgpq::{check_history, BgpqOptions, CpuBgpq};
use pq_api::{BatchPriorityQueue, Entry};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Hours-scale workload compressed to a minute: millions of mixed ops
/// across threads, with the full linearizability check at the end.
#[test]
#[ignore = "soak test: ~1 minute; run with --ignored"]
fn soak_mixed_concurrent_linearizes() {
    let q: CpuBgpq<u32, u32> =
        CpuBgpq::new(BgpqOptions { node_capacity: 64, max_nodes: 1 << 14, ..Default::default() })
            .with_history();
    std::thread::scope(|s| {
        for t in 0..8u64 {
            let q = &q;
            s.spawn(move || {
                let mut rng = StdRng::seed_from_u64(t);
                let mut out = Vec::new();
                for _ in 0..20_000 {
                    if rng.gen_bool(0.55) {
                        let n = rng.gen_range(1..=64usize);
                        let items: Vec<Entry<u32, u32>> =
                            (0..n).map(|_| Entry::new(rng.gen_range(0..1 << 30), 0)).collect();
                        q.insert_batch(&items);
                    } else {
                        out.clear();
                        q.delete_min_batch(&mut out, rng.gen_range(1..=64));
                    }
                }
            });
        }
    });
    let events = q.inner().take_history();
    eprintln!("soak: {} operations recorded", events.len());
    if let Some(v) = check_history(&events) {
        panic!("violation at seq {}: {}", v.seq, v.detail);
    }
    q.inner().check_invariants();
}

/// The same mixed concurrent workload, but each round runs under a
/// seeded fault schedule (panics, stalls, delays at random injection
/// points). Threads use the `try_*` APIs and contain injected panics;
/// whatever prefix of operations committed must still linearize, and a
/// round that survives unpoisoned must conserve the key multiset.
#[test]
#[ignore = "soak test: fault-schedule soak, ~1 minute; run with --ignored"]
fn soak_fault_schedule_survives_and_linearizes() {
    use bgpq_runtime::{CpuPlatform, FaultPlan};
    use pq_api::QueueError;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::Arc;
    use std::time::Duration;

    for round in 0..24u64 {
        let opts = BgpqOptions { node_capacity: 16, max_nodes: 1 << 12, ..Default::default() };
        // Stalls from `seeded` top out at ~5.5 ms, well under the
        // watchdog: they perturb timing without tripping timeouts;
        // panics exercise poisoning.
        let plan = Arc::new(FaultPlan::seeded(round, 6, 2_000));
        let platform = CpuPlatform::new(opts.max_nodes + 1)
            .with_watchdog(Duration::from_millis(100))
            .with_faults(plan);
        let q: CpuBgpq<u32, u32> = CpuBgpq::on_platform(platform, opts).with_history();
        std::thread::scope(|s| {
            for t in 0..8u32 {
                let q = &q;
                s.spawn(move || {
                    let _ = catch_unwind(AssertUnwindSafe(|| {
                        let mut rng = StdRng::seed_from_u64(round << 8 | t as u64);
                        let mut out = Vec::new();
                        for _ in 0..4_000 {
                            let r = if rng.gen_bool(0.55) {
                                let n = rng.gen_range(1..=16usize);
                                let items: Vec<Entry<u32, u32>> = (0..n)
                                    .map(|_| Entry::new(rng.gen_range(0..1 << 30), 0))
                                    .collect();
                                q.try_insert_batch(&items).map(|()| 0)
                            } else {
                                out.clear();
                                q.try_delete_min_batch(&mut out, rng.gen_range(1..=16))
                            };
                            match r {
                                Ok(_) | Err(QueueError::Full { .. }) => {}
                                Err(QueueError::Poisoned) => break,
                                Err(QueueError::LockTimeout { .. }) => {}
                            }
                        }
                    }));
                });
            }
        });
        let events = q.inner().take_history();
        if let Some(v) = check_history(&events) {
            panic!("round {round}: violation at seq {}: {}", v.seq, v.detail);
        }
        let mut balance: i64 = 0;
        for e in &events {
            match &e.op {
                bgpq::HistoryOp::Insert { keys } => balance += keys.len() as i64,
                bgpq::HistoryOp::DeleteMin { keys, .. } => balance -= keys.len() as i64,
            }
        }
        if !q.inner().is_poisoned() {
            assert_eq!(q.inner().len() as i64, balance, "round {round}: key leak");
            q.inner().check_invariants();
        }
    }
}

/// Deep schedule-fuzz sweep on the simulator (hundreds of seeds).
#[test]
#[ignore = "soak test: ~2 minutes; run with --ignored"]
fn soak_fuzz_sweep_linearizes() {
    use bgpq::Bgpq;
    use bgpq_runtime::SimPlatform;
    use gpu_sim::{launch, GpuConfig};
    for seed in 0..200u64 {
        let cfg = GpuConfig::new(6, 64).with_fuzz_seed(seed);
        let opts = BgpqOptions { node_capacity: 2, max_nodes: 8192, ..Default::default() };
        let (_, q) = launch(
            cfg,
            |sched| {
                let p = SimPlatform::new(sched, opts.max_nodes + 1, cfg.cost, cfg.block_dim);
                Bgpq::<u32, (), _>::with_platform(p, opts).with_history()
            },
            |ctx, q| {
                let bid = ctx.block_id() as u32;
                let mut out = Vec::new();
                for i in 0..30u32 {
                    q.insert(ctx.worker(), &[Entry::new(i * 16 + bid, ())]);
                    out.clear();
                    q.delete_min(ctx.worker(), &mut out, 1);
                }
            },
        );
        let events = q.take_history();
        if let Some(v) = check_history(&events) {
            panic!("seed {seed}: violation at seq {}: {}", v.seq, v.detail);
        }
        q.check_invariants();
    }
}
