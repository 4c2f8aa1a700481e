//! Per-kernel microbench: scalar vs SIMD node primitives.
//!
//! Times the three data-parallel kernels (`merge_into`, `bitonic_sort`,
//! `sort_split`) through the `primitives::simd` dispatch layer at both
//! dispatch modes, over a sweep of run lengths, and reports ns/key and
//! the scalar→SIMD speedup per (kernel, n) cell. This isolates the raw
//! kernel gain from the heap-level effects measured by `hotpath` (lock
//! overlap, pure-chunk bulk copies, prefetch).
//!
//! Inputs are fully interleaved random runs — the vector kernels' worst
//! case (no pure chunks to shortcut), so the table reports the floor of
//! the SIMD advantage, not cherry-picked stretches.
//!
//! A second table times the heap's INSERT staging sort on
//! `Entry<u32, u32>` batches of random 30-bit keys: pdqsort
//! (`sort_unstable`) against the allocation-free LSD radix kernel
//! (`primitives::radix_sort_by_key_with`). Its crossover sets the batch
//! size from which `bgpq` stages lane-keyed batches with radix sort.
//!
//! Results land in `bench_results/kernels.csv` and `BENCH_kernels.json`.
//!
//! Usage: `kernels [--scale small|medium|full]` (3 trials per cell at
//! small scale, 7 otherwise).

use bench::harness::{median_of, Cli, Obj};
use bench::report::{results_dir, Table};
use bench::Scale;
use pq_api::Entry;
use primitives::simd::{self, DispatchMode};
use std::hint::black_box;
use std::time::Instant;
use workloads::{generate_keys, KeyDist};

/// Run lengths to sweep; 1024 is the acceptance point (node capacity
/// used by the hotpath bench).
const SIZES: [usize; 6] = [64, 128, 256, 512, 1024, 4096];
const KERNELS: [&str; 3] = ["merge", "sort", "sort_split"];

fn sorted_run(n: usize, seed: u64) -> Vec<u32> {
    let mut v = generate_keys(n, KeyDist::Random, seed);
    v.sort_unstable();
    v
}

/// ns/key of one trial: `body` performs one call moving
/// `n_keys_per_call` keys, repeated so the trial spans a few
/// milliseconds.
fn trial_ns(n_keys_per_call: usize, body: &mut impl FnMut()) -> f64 {
    let reps = (4_000_000 / n_keys_per_call).max(8);
    let t0 = Instant::now();
    for _ in 0..reps {
        body();
    }
    t0.elapsed().as_secs_f64() * 1e9 / (reps * n_keys_per_call) as f64
}

/// Median-of-trials ns/key for one (kernel, mode, n) cell.
fn time_cell(trials: usize, n_keys_per_call: usize, mut body: impl FnMut()) -> f64 {
    median_of(trials, || trial_ns(n_keys_per_call, &mut body), |&ns| ns)
}

fn bench_merge(trials: usize, n: usize) -> f64 {
    let a = sorted_run(n, 31);
    let b = sorted_run(n, 32);
    let mut out = vec![0u32; 2 * n];
    time_cell(trials, 2 * n, || {
        simd::merge_into(black_box(&a), black_box(&b), black_box(&mut out));
    })
}

fn bench_sort(trials: usize, n: usize) -> f64 {
    let base = generate_keys(n, KeyDist::Random, 33);
    let mut buf = base.clone();
    time_cell(trials, n, || {
        buf.copy_from_slice(&base);
        simd::bitonic_sort(black_box(&mut buf));
    })
}

fn bench_sort_split(trials: usize, n: usize) -> f64 {
    let z0 = sorted_run(n, 34);
    let w0 = sorted_run(n, 35);
    let mut z = z0.clone();
    let mut w = w0.clone();
    let mut scratch = Vec::new();
    time_cell(trials, 2 * n, || {
        z.copy_from_slice(&z0);
        w.copy_from_slice(&w0);
        simd::sort_split(black_box(&mut z), n, black_box(&mut w), n, n, &mut scratch);
    })
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
    let mut pdq = || {
        pdq_buf.copy_from_slice(&base);
        black_box(&mut pdq_buf[..]).sort_unstable();
    };
    let mut radix = || {
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

    t.print();
    st.print();
    let dir = results_dir();
    let p = t.write_csv(&dir).expect("write csv");
    st.write_csv(&dir).expect("write csv");
    eprintln!("wrote {} (vector mode {vector_mode:?})", p.display());
    Obj::default()
        .str("bench", "kernels")
        .str("vector_mode", format!("{vector_mode:?}"))
        .arr("cells", cells)
        .obj("speedup_at_1024", at_1024)
        .arr("staging_sort", staging)
        .write("BENCH_kernels.json");
}
