//! Per-kernel microbench: scalar vs SIMD node primitives, and the
//! full-split routes of the heapify loops.
//!
//! Times the three data-parallel kernels (`merge_into`, `bitonic_sort`,
//! `sort_split`) through the `primitives::simd` dispatch layer at both
//! dispatch modes, over a sweep of run lengths, and reports ns/key and
//! the scalar→SIMD speedup per (kernel, n) cell. This isolates the raw
//! kernel gain from the heap-level effects that `perfbench heap-large`
//! measures end to end (lock overlap, pure-chunk bulk copies,
//! prefetch).
//!
//! Inputs are fully interleaved random runs — the vector kernels' worst
//! case (no pure chunks to shortcut), so the table reports the floor of
//! the SIMD advantage, not cherry-picked stretches. Every cell cycles
//! through [`PAIRS`] distinct inputs: repeating one input lets the
//! branch predictor learn its take sequence and flatters every branchy
//! kernel several-fold.
//!
//! A second table times the heap's INSERT staging sort on
//! `Entry<u32, u32>` batches of random 30-bit keys: pdqsort
//! (`sort_unstable`) against the allocation-free LSD radix kernel
//! (`primitives::radix_sort_by_key_with`). Its crossover sets the batch
//! size from which `bgpq` stages lane-keyed batches with radix sort.
//!
//! A third table times the full-split routes (`Entry<u32, u32>`,
//! k = 1024) on the three crossing shapes the heapify loops produce:
//! `interleaved` (the delete-heapify sibling split), `run-structured`
//! (long single-run stretches, as on the insert path) and `near-swap`
//! (the parent/child split: all but k/128 entries change sides, next to
//! the cut). Routes:
//! the branchy streaming `sort_split_full`, the branch-free two-chain
//! `sort_split_full_branchless` and the in-place
//! `sort_split_full_in_place` (mirror form on the near-swap). Every
//! trial times the routes in turn, so host drift hits all alike.
//!
//! Results land in `bench_results/kernels.csv`,
//! `bench_results/full_split.csv` and `BENCH_kernels.json`.
//!
//! Usage: `kernels [--scale small|medium|full]` (3 trials per cell at
//! small scale, 7 otherwise).

use bench::harness::{median_of, Cli, Obj};
use bench::report::{results_dir, Table};
use bench::Scale;
use pq_api::Entry;
use primitives::simd::{self, DispatchMode};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::time::Instant;
use workloads::{generate_keys, KeyDist};

/// Run lengths to sweep; 1024 is the acceptance point (the node
/// capacity of `perfbench heap-large`).
const SIZES: [usize; 6] = [64, 128, 256, 512, 1024, 4096];
const KERNELS: [&str; 3] = ["merge", "sort", "sort_split"];

/// Distinct inputs each cell cycles through.
const PAIRS: usize = 64;

/// Node capacity of the `full_split` table.
const SPLIT_K: usize = 1024;
const SHAPES: [&str; 3] = ["interleaved", "run-structured", "near-swap"];
const ROUTES: [&str; 3] = ["branchy", "branch-free", "in-place"];

type E = Entry<u32, u32>;

fn sorted_run(n: usize, seed: u64) -> Vec<u32> {
    let mut v = generate_keys(n, KeyDist::Random, seed);
    v.sort_unstable();
    v
}

/// [`PAIRS`] independent sorted runs of length `n`.
fn sorted_runs(n: usize, seed: u64) -> Vec<Vec<u32>> {
    (0..PAIRS as u64).map(|p| sorted_run(n, seed * 1000 + p)).collect()
}

/// ns/key of one trial: `body(rep)` performs one call moving
/// `n_keys_per_call` keys, repeated so the trial spans a few
/// milliseconds.
fn trial_ns(n_keys_per_call: usize, body: &mut impl FnMut(usize)) -> f64 {
    let reps = (4_000_000 / n_keys_per_call).max(8);
    let t0 = Instant::now();
    for rep in 0..reps {
        body(rep);
    }
    t0.elapsed().as_secs_f64() * 1e9 / (reps * n_keys_per_call) as f64
}

/// Median-of-trials ns/key for one (kernel, mode, n) cell.
fn time_cell(trials: usize, n_keys_per_call: usize, mut body: impl FnMut(usize)) -> f64 {
    median_of(trials, || trial_ns(n_keys_per_call, &mut body), |&ns| ns)
}

fn bench_merge(trials: usize, n: usize) -> f64 {
    let (a, b) = (sorted_runs(n, 31), sorted_runs(n, 32));
    let mut out = vec![0u32; 2 * n];
    time_cell(trials, 2 * n, |rep| {
        let p = rep % PAIRS;
        simd::merge_into(black_box(&a[p]), black_box(&b[p]), black_box(&mut out));
    })
}

fn bench_sort(trials: usize, n: usize) -> f64 {
    let base: Vec<Vec<u32>> =
        (0..PAIRS as u64).map(|p| generate_keys(n, KeyDist::Random, 33_000 + p)).collect();
    let mut buf = vec![0u32; n];
    time_cell(trials, n, |rep| {
        buf.copy_from_slice(&base[rep % PAIRS]);
        simd::bitonic_sort(black_box(&mut buf));
    })
}

fn bench_sort_split(trials: usize, n: usize) -> f64 {
    let (z0, w0) = (sorted_runs(n, 34), sorted_runs(n, 35));
    let (mut z, mut w) = (vec![0u32; n], vec![0u32; n]);
    let mut scratch = Vec::new();
    time_cell(trials, 2 * n, |rep| {
        let p = rep % PAIRS;
        z.copy_from_slice(&z0[p]);
        w.copy_from_slice(&w0[p]);
        simd::sort_split(black_box(&mut z), n, black_box(&mut w), n, n, &mut scratch);
    })
}

/// Fisher–Yates shuffle.
fn shuffle<T>(v: &mut [T], rng: &mut StdRng) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.gen_range(0..=i));
    }
}

/// One full-split input of `shape`: `2k` sorted random keys, each
/// labelled `a` or `b` (exactly `k` each), payload = origin index.
/// `interleaved` labels at random; `run-structured` in alternating
/// runs of 1..=128; `near-swap` puts `k/128` of `a`'s entries in the
/// small half and the rest in the large half, all next to the cut.
fn split_pair(shape: &str, k: usize, rng: &mut StdRng) -> (Vec<E>, Vec<E>) {
    let mut keys: Vec<u32> = (0..2 * k).map(|_| rng.gen_range(0..1u32 << 30)).collect();
    keys.sort_unstable();
    let mut in_a = vec![false; 2 * k];
    match shape {
        "interleaved" => {
            in_a[..k].fill(true);
            shuffle(&mut in_a, rng);
        }
        "run-structured" => {
            // Alternating runs, each side capped so the other can still
            // reach `k`; positions left at the end belong to `b`.
            let (mut pos, mut na, mut side) = (0, 0, true);
            while na < k {
                let cap = if side { k - na } else { k - (pos - na) };
                let take = rng.gen_range(1usize..=128).min(cap);
                in_a[pos..pos + take].fill(side);
                na += if side { take } else { 0 };
                (pos, side) = (pos + take, !side);
            }
        }
        "near-swap" => {
            // The crossing is local, as in the heap: the `a` entries
            // that stay sit among the top `2·small` of the small half,
            // the `b` entries that move among the bottom of the large.
            let small = k / 128;
            let w = 2 * small;
            in_a[k - w..k - small].fill(true);
            shuffle(&mut in_a[k - w..k], rng);
            in_a[k + small..].fill(true);
            shuffle(&mut in_a[k..k + w], rng);
        }
        _ => unreachable!(),
    }
    let (mut a, mut b) = (Vec::with_capacity(k), Vec::with_capacity(k));
    for (idx, (&key, &side)) in keys.iter().zip(&in_a).enumerate() {
        let e = Entry::new(key, idx as u32);
        if side {
            a.push(e);
        } else {
            b.push(e);
        }
    }
    debug_assert_eq!((a.len(), b.len()), (k, k));
    (a, b)
}

/// ns/key of each route in [`ROUTES`] on one shape; every trial times
/// the routes in turn, and the trial with the median branchy time is
/// kept.
fn bench_full_split(trials: usize, shape: &str) -> [f64; 3] {
    let k = SPLIT_K;
    let mut rng = StdRng::seed_from_u64(37);
    let pairs: Vec<(Vec<E>, Vec<E>)> = (0..PAIRS).map(|_| split_pair(shape, k, &mut rng)).collect();
    let cuts: Vec<(usize, usize)> =
        pairs.iter().map(|(a, b)| primitives::merge_path_search(a, b, k)).collect();
    let (mut a, mut b) = (vec![Entry::sentinel(); k], vec![Entry::sentinel(); k]);
    let mut scratch = Vec::with_capacity(2 * k);
    let mut route = |r: usize, rep: usize| {
        let p = rep % PAIRS;
        a.copy_from_slice(&pairs[p].0);
        b.copy_from_slice(&pairs[p].1);
        let (a, b) = (black_box(&mut a[..]), black_box(&mut b[..]));
        match r {
            0 => primitives::sort_split_full(a, b, &mut scratch),
            1 => primitives::sort_split_full_branchless(a, b, cuts[p], &mut scratch),
            _ => primitives::sort_split_full_in_place(a, b, cuts[p], &mut scratch),
        }
    };
    median_of(
        trials,
        || core::array::from_fn(|r| trial_ns(2 * k, &mut |rep| route(r, rep))),
        |t: &[f64; 3]| t[0],
    )
}

/// pdqsort vs radix ns/key for one staging batch of `n` entries. The
/// two sorts alternate within each trial, so host load drifts hit both
/// alike; the trial with the median speedup is reported.
fn bench_staging(trials: usize, n: usize) -> (f64, f64) {
    let base: Vec<Entry<u32, u32>> = generate_keys(n, KeyDist::Random, 36)
        .into_iter()
        .enumerate()
        .map(|(i, k)| Entry::new(k, i as u32))
        .collect();
    let (mut pdq_buf, mut radix_buf) = (base.clone(), base.clone());
    let mut scratch = Vec::with_capacity(n);
    let mut pdq = |_| {
        pdq_buf.copy_from_slice(&base);
        black_box(&mut pdq_buf[..]).sort_unstable();
    };
    let mut radix = |_| {
        radix_buf.copy_from_slice(&base);
        primitives::radix_sort_by_key_with(black_box(&mut radix_buf[..]), &mut scratch, |e| e.key);
    };
    median_of(trials, || (trial_ns(n, &mut pdq), trial_ns(n, &mut radix)), |&(p, r)| p / r)
}

fn bench_kernel(kernel: &str, trials: usize, n: usize) -> f64 {
    match kernel {
        "merge" => bench_merge(trials, n),
        "sort" => bench_sort(trials, n),
        "sort_split" => bench_sort_split(trials, n),
        _ => unreachable!(),
    }
}

fn main() {
    let mut cli = Cli::from_env();
    let trials = if cli.scale() == Scale::Small { 3 } else { 7 };
    cli.finish();

    // Capture both modes regardless of the environment: pin scalar,
    // measure, then release the pin and measure whatever the host
    // dispatches to (scalar again if AVX2 is absent or the env forces
    // it — the JSON records which).
    simd::set_forced_scalar(true);
    assert_eq!(simd::dispatch_mode(), DispatchMode::Scalar);
    let mut scalar = Vec::new();
    for &kernel in &KERNELS {
        for &n in &SIZES {
            scalar.push((kernel, n, bench_kernel(kernel, trials, n)));
        }
    }
    simd::set_forced_scalar(false);
    let vector_mode = simd::dispatch_mode();
    let mut vector = Vec::new();
    for &kernel in &KERNELS {
        for &n in &SIZES {
            vector.push((kernel, n, bench_kernel(kernel, trials, n)));
        }
    }

    let mut t = Table::new("kernels", &["kernel", "n", "scalar ns/key", "simd ns/key", "speedup"]);
    let mut cells = Vec::new();
    let mut at_1024 = Obj::default();
    for ((kernel, n, s_ns), (_, _, v_ns)) in scalar.iter().zip(vector.iter()) {
        let speedup = s_ns / v_ns;
        t.row(vec![
            kernel.to_string(),
            n.to_string(),
            format!("{s_ns:.3}"),
            format!("{v_ns:.3}"),
            format!("{speedup:.2}"),
        ]);
        cells.push(
            Obj::default()
                .str("kernel", kernel)
                .val("n", *n)
                .num("scalar_ns_per_key", *s_ns, 3)
                .num("simd_ns_per_key", *v_ns, 3)
                .num("speedup", speedup, 3),
        );
        if *n == 1024 {
            at_1024 = at_1024.num(kernel, speedup, 3);
        }
    }

    let mut st = Table::new("staging_sort", &["n", "pdqsort ns/key", "radix ns/key", "speedup"]);
    let mut staging = Vec::new();
    for &n in &SIZES {
        let (pdq, radix) = bench_staging(trials, n);
        st.row(vec![
            n.to_string(),
            format!("{pdq:.3}"),
            format!("{radix:.3}"),
            format!("{:.2}", pdq / radix),
        ]);
        staging.push(
            Obj::default()
                .val("n", n)
                .num("pdqsort_ns_per_key", pdq, 3)
                .num("radix_ns_per_key", radix, 3)
                .num("speedup", pdq / radix, 3),
        );
    }

    let mut ft = Table::new(
        "full_split",
        &["shape", "branchy ns/key", "branch-free ns/key", "in-place ns/key"],
    );
    let mut full_split = Vec::new();
    for &shape in &SHAPES {
        let ns = bench_full_split(trials, shape);
        let mut row = vec![shape.to_string()];
        row.extend(ns.iter().map(|v| format!("{v:.3}")));
        ft.row(row);
        let mut cell = Obj::default().str("shape", shape).val("k", SPLIT_K);
        for (route, v) in ROUTES.iter().zip(ns) {
            cell = cell.num(route, v, 3);
        }
        full_split.push(cell);
    }

    t.print();
    st.print();
    ft.print();
    let dir = results_dir();
    let p = t.write_csv(&dir).expect("write csv");
    st.write_csv(&dir).expect("write csv");
    ft.write_csv(&dir).expect("write csv");
    eprintln!("wrote {} (vector mode {vector_mode:?})", p.display());
    Obj::default()
        .str("bench", "kernels")
        .str("vector_mode", format!("{vector_mode:?}"))
        .arr("cells", cells)
        .obj("speedup_at_1024", at_1024)
        .arr("staging_sort", staging)
        .arr("full_split_ns_per_key", full_split)
        .write("BENCH_kernels.json");
}
