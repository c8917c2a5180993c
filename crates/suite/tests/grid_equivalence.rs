//! Verdict-equivalence campaign over the analyzer configuration grid:
//! every one of the 240 suite cases must produce its ground-truth
//! race-or-not verdict under every combination of notification batching
//! (`batch_size` ∈ {1, 8, 64}) and transport (`Direct`/`Messages`).
//!
//! Batching only *delays* per-(origin, target) notification delivery
//! until a synchronization point and the transports differ only in
//! threading — neither may change what the detector reports. The
//! baseline is the suite's ground truth itself (the contribution pins
//! 0 FP / 0 FN in `verdicts.rs`); the tree reference against the
//! production engine over the same 240 cases is `rma-trace`'s
//! `replay_fidelity`.

use rma_monitor::{Algorithm, AnalyzerCfg, Delivery, OnRace, RmaAnalyzer};
use rma_sim::Monitor;
use rma_suite::{generate_suite, run_case_with_monitor, CaseSpec};
use std::sync::Arc;

fn flagged(spec: &CaseSpec, cfg: AnalyzerCfg) -> bool {
    let mon = Arc::new(RmaAnalyzer::new(cfg));
    let out = run_case_with_monitor(spec, mon.clone() as Arc<dyn Monitor>);
    assert!(
        out.is_clean(),
        "{} under {cfg:?}: {:?} {:?}",
        spec.name(),
        out.aborts,
        out.panics
    );
    !mon.races().is_empty()
}

fn assert_grid_point(delivery: Delivery, batch_size: usize) {
    let cfg = AnalyzerCfg {
        algorithm: Algorithm::FragMerge,
        on_race: OnRace::Collect,
        delivery,
        node_budget: None,
        max_respawns: 3,
        batch_size,
    };
    let cases = generate_suite();
    assert_eq!(cases.len(), 240);
    for spec in &cases {
        assert_eq!(
            flagged(spec, cfg),
            spec.races(),
            "{}: verdict diverges from ground truth under {delivery:?}/batch={batch_size}",
            spec.name()
        );
    }
}

#[test]
fn direct_batch1() {
    assert_grid_point(Delivery::Direct, 1);
}

#[test]
fn direct_batch8() {
    assert_grid_point(Delivery::Direct, 8);
}

#[test]
fn direct_batch64() {
    assert_grid_point(Delivery::Direct, 64);
}

#[test]
fn messages_batch1() {
    assert_grid_point(Delivery::Messages, 1);
}

#[test]
fn messages_batch8() {
    assert_grid_point(Delivery::Messages, 8);
}

#[test]
fn messages_batch64() {
    assert_grid_point(Delivery::Messages, 64);
}
