//! # bgpq-explore — systematic schedule exploration and linearizability
//! model checking for BGPQ on the deterministic simulator
//!
//! The `gpu-sim` scheduler runs exactly one agent at a time and, under a
//! [`gpu_sim::ScheduleController`], asks an external strategy which
//! ready agent runs at every contended yield point. That turns the
//! simulator into a stateless model checker: enumerate schedules,
//! execute each one for real, and judge every run with the repo's
//! correctness oracles —
//!
//! * **linearizability** ([`bgpq::check_history`]): the recorded
//!   root-lock linearization order must be a legal sequential history
//!   consistent with real time;
//! * **key conservation**: deletes return only keys that were inserted,
//!   even on crash-truncated histories;
//! * **collaboration protocol** ([`bgpq::check_collaboration`]): the
//!   §4.3 TARGET/MARKED handshake never leaves its state machine;
//! * **quiescent invariants**: heap shape, node sort order, and size
//!   accounting after a clean run.
//!
//! Three exploration modes ([`explore`], [`random_walks`], [`replay`]):
//! exhaustive DFS with a bounded preemption budget (iterative context
//! bounding) and sleep-set partial-order reduction, weighted random
//! walks for larger configurations, and bit-for-bit replay of a
//! serialized schedule. A failing schedule is [`fn@shrink`]-minimized
//! (greedy override deletion) and written as a `.sched` artifact
//! ([`SchedFile`]) that the `explore` CLI's `replay` subcommand
//! reproduces exactly.
//!
//! Beyond the single shared queue, specs can drive the *multi-queue
//! front* under the same oracles ([`spec::FrontSpec`]): the
//! `bgpq-shard` router with its circuit breaker and salvage
//! re-admission, additionally checked by strict front-level accounting
//! ([`Violation::FrontAccounting`]).

pub mod dfs;
pub mod run;
pub mod shrink;
pub mod spec;
pub mod strategy;

pub use dfs::{explore, random_walks, Counterexample, ExploreConfig, ExploreReport};
pub use run::{install_quiet_panic_hook, replay, run_schedule, RunOutcome, Violation};
pub use shrink::shrink;
pub use spec::{mutation_name, parse_mutation, FrontSpec, SchedFile, WorkOp, WorkloadSpec};
pub use strategy::{
    default_pick, is_override, overrides_of, OverrideStrategy, PrefixStrategy, RandomWalkStrategy,
};

/// The CLI's one-line exploration summary, also used by CI greps:
/// explored-vs-pruned counts and wall clock, then the verdict.
pub fn summary_line(report: &ExploreReport, elapsed: std::time::Duration) -> String {
    let verdict = match (&report.counterexample, report.exhausted) {
        (Some(cx), _) => format!(
            "VIOLATION ({}) after {} decision(s), {} override(s)",
            cx.violation,
            cx.decisions,
            cx.overrides.len()
        ),
        (None, true) => "exhausted: no violation".to_string(),
        (None, false) => "no violation found (not exhaustive)".to_string(),
    };
    format!(
        "explored {} run(s), pruned {} subtree(s), wall {:.2}s; {}",
        report.runs,
        report.pruned,
        elapsed.as_secs_f64(),
        verdict
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    /// CI greps this line (`exhausted: no violation` gates the
    /// budget-3 sweep); the format is a contract, pinned exactly.
    #[test]
    fn summary_line_format_is_pinned() {
        let clean = ExploreReport { runs: 16292, pruned: 7, exhausted: true, counterexample: None };
        assert_eq!(
            summary_line(&clean, Duration::from_millis(3812)),
            "explored 16292 run(s), pruned 7 subtree(s), wall 3.81s; exhausted: no violation"
        );

        let capped = ExploreReport { exhausted: false, ..clean.clone() };
        assert_eq!(
            summary_line(&capped, Duration::ZERO),
            "explored 16292 run(s), pruned 7 subtree(s), wall 0.00s; \
             no violation found (not exhaustive)"
        );

        let caught = ExploreReport {
            runs: 6,
            pruned: 5,
            exhausted: false,
            counterexample: Some(Counterexample {
                overrides: vec![(1, 1), (4, 0)],
                violation: Violation::FrontAccounting("quiescent len 0 != balance 1".into()),
                decisions: 9,
            }),
        };
        assert_eq!(
            summary_line(&caught, Duration::from_millis(10)),
            "explored 6 run(s), pruned 5 subtree(s), wall 0.01s; VIOLATION (front accounting: \
             quiescent len 0 != balance 1) after 9 decision(s), 2 override(s)"
        );
    }
}
