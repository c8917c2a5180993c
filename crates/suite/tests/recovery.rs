//! Crash-equivalent verdicts: killing an analysis helper thread
//! mid-run and recovering from the last epoch-boundary checkpoint must
//! be invisible in the verdict — every suite case classifies exactly as
//! it does fault-free — and exhausting the respawn budget must end in a
//! structured abort, never a hang.

use rma_monitor::{Algorithm, AnalyzerCfg, Delivery, OnRace, RmaAnalyzer};
use rma_must::{Completeness, MustCfg, MustRma, OnRace as MustOnRace};
use rma_sim::{FaultKind, FaultPlan, Monitor, WorldCfg};
use rma_suite::case::SUITE_RANKS;
use rma_suite::generate_suite;
use rma_suite::run::{run_case_with_cfg, run_case_with_monitor};
use std::sync::Arc;
use std::time::Duration;

fn must_cfg(max_respawns: u32) -> MustCfg {
    MustCfg {
        on_race: MustOnRace::Collect,
        max_respawns,
        quiescence_deadline: Duration::from_secs(5),
    }
}

/// A fault plan that reliably fires on every suite case: two kills on
/// rank 1, triggered early enough to land inside the case body.
fn kill_plan() -> FaultPlan {
    FaultPlan { rank: 1, at_event: 5, kind: FaultKind::KillWorker { times: 2 } }
}

fn faulted_cfg() -> WorldCfg {
    WorldCfg {
        fault: Some(kill_plan()),
        watchdog_ms: 10_000,
        ..WorldCfg::with_ranks(SUITE_RANKS)
    }
}

/// The tentpole acceptance bar: for **every** generated case, a MUST run
/// whose analysis worker is killed twice mid-epoch recovers to the exact
/// fault-free verdict, analyzed to completion.
#[test]
fn must_keeps_all_verdicts_under_worker_kills() {
    let cases = generate_suite();
    let mut fired = 0usize;
    for spec in &cases {
        let baseline = Arc::new(MustRma::with_cfg(SUITE_RANKS, must_cfg(3)));
        let out = run_case_with_monitor(spec, baseline.clone() as Arc<dyn Monitor>);
        assert!(out.is_clean(), "{}: baseline not clean: {out:?}", spec.name());
        let want = !baseline.races().is_empty();

        let probe = Arc::new(MustRma::with_cfg(SUITE_RANKS, must_cfg(3)));
        let out = run_case_with_cfg(spec, probe.clone() as Arc<dyn Monitor>, faulted_cfg());
        assert!(out.is_clean(), "{}: faulted run not clean: {out:?}", spec.name());
        let (races, completeness) = probe.races_checked();
        assert_eq!(
            completeness,
            Completeness::Complete,
            "{}: recovered run did not analyze to completion",
            spec.name()
        );
        assert_eq!(
            !races.is_empty(),
            want,
            "{}: verdict changed under recovery (respawns={})",
            spec.name(),
            probe.respawns()
        );
        if probe.respawns() > 0 {
            fired += 1;
        }
    }
    // The plan must actually exercise recovery, not just ride along.
    assert!(fired > cases.len() / 2, "kills fired on only {fired}/{} cases", cases.len());
}

/// Same bar for the RMA-Analyzer's receiver-thread architecture, on the
/// locally-synchronized subset of the suite (one epoch, `lock_all`).
#[test]
fn analyzer_messages_keeps_verdicts_under_receiver_kills() {
    let cases = generate_suite();
    let mut fired = 0usize;
    for spec in cases.iter().step_by(7) {
        let mk = || {
            Arc::new(RmaAnalyzer::new(AnalyzerCfg {
                algorithm: Algorithm::FragMerge,
                on_race: OnRace::Collect,
                delivery: Delivery::Messages,
                node_budget: None,
                max_respawns: 3,
                batch_size: 1,
            }))
        };
        let baseline = mk();
        let out = run_case_with_monitor(spec, baseline.clone() as Arc<dyn Monitor>);
        assert!(out.is_clean(), "{}: baseline not clean: {out:?}", spec.name());
        let want = !baseline.races().is_empty();

        let probe = mk();
        let out = run_case_with_cfg(spec, probe.clone() as Arc<dyn Monitor>, faulted_cfg());
        assert!(out.is_clean(), "{}: faulted run not clean: {out:?}", spec.name());
        assert_eq!(
            !probe.races().is_empty(),
            want,
            "{}: verdict changed under receiver recovery (respawns={})",
            spec.name(),
            probe.respawns()
        );
        if probe.respawns() > 0 {
            fired += 1;
        }
    }
    assert!(fired > 0, "no receiver kill fired across the subset");
}

/// Beyond the respawn budget the loss is a *structured* abort: every
/// rank unwinds with the detector's quiescence panic — never a hang
/// (this test runs under `timeout` in CI) and never an unexplained
/// panic.
#[test]
fn must_beyond_budget_aborts_structurally() {
    let cases = generate_suite();
    let spec = &cases[0];
    let probe = Arc::new(MustRma::with_cfg(SUITE_RANKS, must_cfg(0)));
    let cfg = WorldCfg {
        fault: Some(FaultPlan { rank: 1, at_event: 5, kind: FaultKind::KillWorker { times: 1 } }),
        watchdog_ms: 10_000,
        ..WorldCfg::with_ranks(SUITE_RANKS)
    };
    let out = run_case_with_cfg(spec, probe.clone() as Arc<dyn Monitor>, cfg);
    assert!(!out.is_clean(), "budget-0 kill must not end clean");
    assert!(out.deadlock.is_none(), "budget exhaustion must never deadlock: {out:?}");
    assert!(!out.panics.is_empty(), "expected structured panics: {out:?}");
    for (rank, msg) in &out.panics {
        assert!(
            msg.contains("MUST analysis worker"),
            "unexplained panic on {rank:?}: {msg}"
        );
    }
    assert_eq!(probe.respawns(), 0);
}

/// Analyzer counterpart: a receiver killed with no budget left surfaces
/// the structured "receiver died" abort on the faulted rank.
#[test]
fn analyzer_beyond_budget_aborts_structurally() {
    let cases = generate_suite();
    let spec = &cases[0];
    let probe = Arc::new(RmaAnalyzer::new(AnalyzerCfg {
        algorithm: Algorithm::FragMerge,
        on_race: OnRace::Collect,
        delivery: Delivery::Messages,
        node_budget: None,
        max_respawns: 0,
        batch_size: 1,
    }));
    let cfg = WorldCfg {
        fault: Some(FaultPlan { rank: 1, at_event: 5, kind: FaultKind::KillWorker { times: 1 } }),
        watchdog_ms: 10_000,
        ..WorldCfg::with_ranks(SUITE_RANKS)
    };
    let out = run_case_with_cfg(spec, probe.clone() as Arc<dyn Monitor>, cfg);
    assert!(!out.is_clean(), "budget-0 kill must not end clean");
    assert!(out.deadlock.is_none(), "budget exhaustion must never deadlock: {out:?}");
    assert!(!out.panics.is_empty(), "expected structured panics: {out:?}");
    for (rank, msg) in &out.panics {
        assert!(
            msg.contains("RMA-Analyzer receiver"),
            "unexplained panic on {rank:?}: {msg}"
        );
    }
    assert_eq!(probe.respawns(), 0);
}
