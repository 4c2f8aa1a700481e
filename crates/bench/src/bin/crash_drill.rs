//! Crash-drill harness: run the fault matrix (every injection point ×
//! panic/stall, CPU platform and simulator) outside the test runner and
//! report what each drill did to the queue — poisoned or survived, how
//! many lock timeouts and spin escalations the watchdog and the MARKED
//! wait loop absorbed, and whether the committed history stayed
//! linearizable.
//!
//! Usage: `crash_drill [--threads N] [--ops N] [--watchdog-ms N]`

use bench::harness::Cli;
use bench::report::{results_dir, Table};
use bgpq::{check_history, Bgpq, BgpqOptions, CpuBgpq, HistoryEvent, HistoryOp};
use bgpq_runtime::{CpuPlatform, FaultAction, FaultPlan, InjectionPoint, SimPlatform};
use gpu_sim::{launch, GpuConfig};
use pq_api::{Entry, QueueError};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Duration;

struct Args {
    threads: usize,
    ops: usize,
    watchdog_ms: u64,
}

fn parse() -> Args {
    let mut cli = Cli::from_env();
    let args = Args {
        threads: cli.flag("--threads", 4, 1),
        ops: cli.flag("--ops", 400, 1),
        watchdog_ms: cli.flag("--watchdog-ms", 75, 1) as u64,
    };
    cli.finish();
    args
}

/// Balance of committed keys: inserted − deleted, and whether the
/// truncated history linearizes.
fn audit(events: &[HistoryEvent<u32>]) -> (i64, &'static str) {
    let mut balance = 0i64;
    for e in events {
        match &e.op {
            HistoryOp::Insert { keys } => balance += keys.len() as i64,
            HistoryOp::DeleteMin { keys, .. } => balance -= keys.len() as i64,
        }
    }
    let verdict = if check_history(events).is_none() { "linearizable" } else { "VIOLATION" };
    (balance, verdict)
}

fn action_name(action: FaultAction) -> &'static str {
    match action {
        FaultAction::Panic => "panic",
        FaultAction::Stall { .. } => "stall",
        FaultAction::Delay { .. } => "delay",
    }
}

fn cpu_drill(args: &Args, point: InjectionPoint, nth: u64, action: FaultAction, t: &mut Table) {
    let opts = BgpqOptions { node_capacity: 4, max_nodes: 1 << 10, ..Default::default() };
    let plan = Arc::new(FaultPlan::new().with_rule(point, nth, action));
    let platform = CpuPlatform::new(opts.max_nodes + 1)
        .with_watchdog(Duration::from_millis(args.watchdog_ms))
        .with_faults(plan.clone());
    let q: CpuBgpq<u32, u32> = CpuBgpq::on_platform(platform, opts).with_history();

    std::thread::scope(|s| {
        for th in 0..args.threads as u32 {
            let q = &q;
            let ops = args.ops;
            s.spawn(move || {
                let _ = catch_unwind(AssertUnwindSafe(|| {
                    let mut out = Vec::new();
                    for i in 0..ops as u32 {
                        let key = th * 1_000_000 + i;
                        let r = if i % 4 != 3 {
                            q.try_insert_batch(&[
                                Entry::new(key, th),
                                Entry::new(key + 500_000, th),
                            ])
                            .map(|()| 0)
                        } else {
                            out.clear();
                            q.try_delete_min_batch(&mut out, 4)
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
    let (balance, verdict) = audit(&events);
    let snap = q.inner().stats().snapshot();
    let outcome = if q.inner().is_poisoned() { "poisoned" } else { "survived" };
    t.row(vec![
        "cpu".into(),
        format!("{point:?}"),
        action_name(action).into(),
        format!("{}", plan.fired_count()),
        outcome.into(),
        format!("{}", snap.lock_timeouts),
        format!("{}", snap.spin_escalations),
        format!("{}", events.len()),
        format!("{balance}"),
        verdict.into(),
    ]);
}

fn sim_drill(point: InjectionPoint, nth: u64, action: FaultAction, t: &mut Table) {
    type SimQueue = Arc<Bgpq<u32, u32, SimPlatform>>;
    let cfg = GpuConfig::new(6, 32).with_fuzz_seed(7);
    let opts = BgpqOptions { node_capacity: 2, max_nodes: 4096, ..Default::default() };
    let plan = Arc::new(FaultPlan::new().with_rule(point, nth, action));
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
                for i in 0..40u32 {
                    let key = bid * 1_000_000 + i;
                    if q.try_insert(
                        ctx.worker(),
                        &[Entry::new(key, bid), Entry::new(key + 500_000, bid)],
                    )
                    .is_err()
                    {
                        return;
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

    let q = stash.lock().unwrap().take().expect("setup ran");
    let events = q.take_history();
    let (balance, verdict) = audit(&events);
    let snap = q.stats().snapshot();
    let outcome = if q.is_poisoned() { "poisoned" } else { "survived" };
    t.row(vec![
        "sim".into(),
        format!("{point:?}"),
        action_name(action).into(),
        format!("{}", plan.fired_count()),
        outcome.into(),
        format!("{}", snap.lock_timeouts),
        format!("{}", snap.spin_escalations),
        format!("{}", events.len()),
        format!("{balance}"),
        verdict.into(),
    ]);
}

fn main() {
    let args = parse();
    let mut t = Table::new(
        "crash_drill",
        &[
            "platform",
            "point",
            "action",
            "fired",
            "outcome",
            "lock_timeouts",
            "spin_escalations",
            "committed_ops",
            "key_balance",
            "history",
        ],
    );

    let cpu_matrix = [
        (InjectionPoint::PreLockAcquire, 201),
        (InjectionPoint::PostLockAcquire, 201),
        (InjectionPoint::PreLockRelease, 200),
        (InjectionPoint::MidInsertHeapify, 5),
        (InjectionPoint::MidDeleteHeapify, 5),
        (InjectionPoint::MarkedSpin, 1),
    ];
    for (point, nth) in cpu_matrix {
        cpu_drill(&args, point, nth, FaultAction::Panic, &mut t);
        cpu_drill(
            &args,
            point,
            nth,
            FaultAction::Stall { units: 2 * 1000 * args.watchdog_ms },
            &mut t,
        );
    }

    let sim_matrix = [
        (InjectionPoint::PreLockAcquire, 40),
        (InjectionPoint::PostLockAcquire, 40),
        (InjectionPoint::PreLockRelease, 40),
        (InjectionPoint::MidInsertHeapify, 3),
        (InjectionPoint::MidDeleteHeapify, 3),
        (InjectionPoint::MarkedSpin, 1),
    ];
    for (point, nth) in sim_matrix {
        sim_drill(point, nth, FaultAction::Panic, &mut t);
        sim_drill(point, nth, FaultAction::Stall { units: 1_000_000 }, &mut t);
    }

    t.print();
    if let Ok(path) = t.write_csv(&results_dir()) {
        eprintln!("wrote {}", path.display());
    }
}
