//! The command-line contract every bench binary shares: a flag it does
//! not declare, or a value flag given last with no value, exits with
//! code 2 and a usage line before any work starts.

use std::process::Command;

const BINS: [&str; 9] = [
    env!("CARGO_BIN_EXE_ablation"),
    env!("CARGO_BIN_EXE_crash_drill"),
    env!("CARGO_BIN_EXE_fig6"),
    env!("CARGO_BIN_EXE_inspect"),
    env!("CARGO_BIN_EXE_kernels"),
    env!("CARGO_BIN_EXE_memory"),
    env!("CARGO_BIN_EXE_recover"),
    env!("CARGO_BIN_EXE_shard_sweep"),
    env!("CARGO_BIN_EXE_table2"),
];

fn assert_usage_error(bin: &str, args: &[&str]) {
    // Run where a bin that wrongly starts work cannot touch the
    // checkout's bench_results/ or BENCH_*.json.
    let out = Command::new(bin).args(args).current_dir(std::env::temp_dir()).output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{bin} {args:?}: {stderr}");
    assert!(stderr.contains("usage: "), "{bin} {args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{bin} {args:?} did work before failing");
}

#[test]
fn unknown_flag_exits_2() {
    for bin in BINS {
        assert_usage_error(bin, &["--bogus"]);
    }
}

#[test]
fn value_flag_without_value_exits_2() {
    for bin in BINS {
        assert_usage_error(bin, &["--scale"]);
    }
}
