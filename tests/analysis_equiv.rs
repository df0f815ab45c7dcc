//! Differential evidence for the control-automaton may-access mode
//! (`MayAccessMode::Automaton`): the per-location future-access sets the
//! solo havoc extraction computes, plugged into ample-set selection,
//! against the hand-written `may_access` hooks (`MayAccessMode::Declared`,
//! the oracle).
//!
//! The two modes explore **different but equally sound** reduced graphs:
//! a sharper future set lets more processes qualify as ample singletons,
//! so the automaton may legally visit fewer states (and never an unsound
//! subset — every verdict must agree). That dictates the assertion
//! shape:
//!
//! * without partial-order reduction the future sets are never consulted,
//!   so every count must match **exactly**;
//! * with POR, verdicts must agree, and on the families whose declared
//!   hooks are location-insensitive (bakery's whole-array footprint, the
//!   splitter's whole-protocol set) the automaton must prune at least as
//!   much — strictly more on the named configurations below;
//! * liveness verdicts (starvation-free + bypass bound, or starvable)
//!   must be mode-invariant even where graph counts are not.

mod common;

use std::hash::Hash;

use cfc::core::{op_result_domain, Footprint, Layout, OpResult, Process, ProcessId, Step};
use cfc::mutex::mutation::{
    BakeryMutation, PetersonMutation, TasSpinMutation, TournamentMutation,
};
use cfc::mutex::{
    Bakery, DetectionAlgorithm, LamportFast, MutexAlgorithm, MutexClient, PetersonTwo, Splitter,
    TasSpin, Tournament,
};
use cfc::naming::{NamingAlgorithm, TafTree, TasScan};
use cfc::verify::{
    check_detection_safety, check_mutex_progress, check_mutex_safety, check_mutex_starvation,
    check_naming_lockout, check_naming_progress, check_naming_uniqueness, lint_model,
    ControlAutomaton, ExploreConfig, ExploreStats, FindingKind, LivenessReport, LivenessVerdict,
    MayAccessMode,
};

fn counts(s: &ExploreStats) -> (usize, u64, usize, u64, u64) {
    (
        s.states,
        s.transitions,
        s.terminals,
        s.states_pruned_por,
        s.orbits_merged,
    )
}

fn liveness_verdict(r: &LivenessReport) -> String {
    match &r.verdict {
        LivenessVerdict::StarvationFree { bypass, .. } => format!("free bypass={bypass:?}"),
        LivenessVerdict::Starvable(w) => format!("starvable cycle={}", w.lasso.cycle.len()),
    }
}

/// Runs one safety check under both may-access modes across every
/// reduction variant; exact equality without POR, sound agreement with.
fn assert_modes_agree<F>(label: &str, run: F)
where
    F: Fn(ExploreConfig) -> ExploreStats,
{
    for (variant, cfg) in common::labeled_variants(200_000) {
        let declared = run(cfg);
        let automaton = run(cfg.with_may_access(MayAccessMode::Automaton));
        if cfg.por {
            // Different ample choices, both sound: the graphs may differ,
            // but an automaton run may never *lose* reduction power.
            assert!(
                automaton.states <= declared.states,
                "{label} [{variant}]: automaton visited more states \
                 ({} vs {})",
                automaton.states,
                declared.states
            );
            assert!(automaton.states > 0, "{label} [{variant}]: empty exploration");
        } else {
            // The future sets are never consulted: bit-for-bit identical.
            assert_eq!(
                counts(&automaton),
                counts(&declared),
                "{label} [{variant}]: automaton mode must be inert without POR"
            );
        }
    }
}

#[test]
fn modes_agree_on_mutex_safety() {
    assert_modes_agree("peterson", |cfg| {
        check_mutex_safety(&PetersonTwo::new(), 2, cfg).unwrap()
    });
    assert_modes_agree("bakery", |cfg| {
        check_mutex_safety(&Bakery::new(2), 1, cfg).unwrap()
    });
    assert_modes_agree("tournament", |cfg| {
        check_mutex_safety(&Tournament::new(3, 1), 1, cfg).unwrap()
    });
}

#[test]
fn modes_agree_on_naming_and_detection() {
    assert_modes_agree("tas-scan", |cfg| {
        check_naming_uniqueness(&TasScan::new(3), 1, cfg).unwrap()
    });
    assert_modes_agree("taf-tree", |cfg| {
        check_naming_uniqueness(&TafTree::new(4).unwrap(), 0, cfg).unwrap()
    });
    assert_modes_agree("splitter", |cfg| {
        check_detection_safety(&Splitter::new(3), cfg).unwrap()
    });
}

/// The acceptance configurations: families whose declared hooks are
/// deliberately location-insensitive, where the automaton's per-location
/// future sets must buy **strictly** more pruning.
#[test]
fn automaton_strictly_sharpens_bakery_and_splitter() {
    let strict = [
        ("bakery n=3", {
            let cfg = common::por_only(400_000);
            let run = |c: ExploreConfig| check_mutex_safety(&Bakery::new(3), 1, c).unwrap();
            (run(cfg), run(cfg.with_may_access(MayAccessMode::Automaton)))
        }),
        ("splitter n=3", {
            let cfg = common::por_only(200_000);
            let run = |c: ExploreConfig| check_detection_safety(&Splitter::new(3), c).unwrap();
            (run(cfg), run(cfg.with_may_access(MayAccessMode::Automaton)))
        }),
    ];
    for (label, (declared, automaton)) in strict {
        assert!(
            automaton.states < declared.states,
            "{label}: automaton future sets must strictly shrink the reduced \
             graph ({} vs {} states)",
            automaton.states,
            declared.states
        );
    }
}

#[test]
fn modes_agree_on_progress_graphs() {
    for (variant, cfg) in common::labeled_variants(60_000) {
        for label in ["peterson", "bakery", "tas-scan"] {
            let run = |c: ExploreConfig| match label {
                "peterson" => check_mutex_progress(&PetersonTwo::new(), 2, c).unwrap(),
                "bakery" => check_mutex_progress(&Bakery::new(2), 1, c).unwrap(),
                _ => check_naming_progress(&TasScan::new(3), 1, c).unwrap(),
            };
            let declared = run(cfg);
            let automaton = run(cfg.with_may_access(MayAccessMode::Automaton));
            if cfg.por {
                assert!(
                    automaton.states <= declared.states,
                    "{label} [{variant}]: automaton progress graph grew \
                     ({} vs {})",
                    automaton.states,
                    declared.states
                );
            } else {
                assert_eq!(
                    (declared.states, declared.transitions, declared.terminals),
                    (automaton.states, automaton.transitions, automaton.terminals),
                    "{label} [{variant}]: automaton mode must be inert without POR"
                );
            }
        }
    }
}

/// Liveness is the deepest consumer: per-victim graphs, Tarjan, witness
/// re-derivation. The *verdict* — starvation-free with its exact bypass
/// bound, or starvable — must be identical whichever ample sets shaped
/// the graph.
#[test]
fn modes_agree_on_liveness_verdicts() {
    for (variant, cfg) in common::labeled_variants(60_000) {
        for label in ["peterson", "lamport", "taf-tree"] {
            let run = |c: ExploreConfig| match label {
                "peterson" => check_mutex_starvation(&PetersonTwo::new(), c).unwrap(),
                "lamport" => check_mutex_starvation(&LamportFast::new(2), c).unwrap(),
                _ => check_naming_lockout(&TafTree::new(4).unwrap(), 0, c).unwrap(),
            };
            let declared = run(cfg);
            let automaton = run(cfg.with_may_access(MayAccessMode::Automaton));
            assert_eq!(
                liveness_verdict(&declared),
                liveness_verdict(&automaton),
                "{label} [{variant}]: liveness verdict depends on the may-access mode"
            );
        }
    }
}

/// The seven-player single-bit tournament at tournament scale: the
/// automaton mode must agree with the declared oracle on a reduced graph
/// far past what the fast suites visit, and still win on pruning.
#[test]
#[ignore = "large automaton differential; run via cargo test --release -- --ignored"]
fn exhaustive_tournament_seven_automaton() {
    let alg = Tournament::new(7, 1);
    // The automaton-reduced graph alone holds ~74.9M states (and the
    // declared one slightly more), so the budget must match the 80M the
    // un-reduced tournament-7 run in tests/exploration.rs uses — the
    // original 40M exhausted before either traversal completed.
    let cfg = common::por_only(80_000_000);
    let declared = check_mutex_safety(&alg, 1, cfg).unwrap();
    let automaton =
        check_mutex_safety(&alg, 1, cfg.with_may_access(MayAccessMode::Automaton)).unwrap();
    assert!(
        automaton.states <= declared.states,
        "automaton lost reduction power at scale ({} vs {})",
        automaton.states,
        declared.states
    );
    assert!(automaton.states > 100_000, "unexpectedly small exploration");
}

// ---------------------------------------------------------------------
// The congruence lint against an exhaustive reference.
// ---------------------------------------------------------------------

/// Every congruence violation of `p`'s automaton, found the exhaustive
/// way: re-step every location's representative over its whole havoc
/// domain and compare *every* successor's footprint with its location's
/// — no shortcut for successors that take the representative's own
/// step. Returned in the order the lint reports them (by location, then
/// discovery), as `(location, "offender <footprint>")`.
fn reference_incongruence<P>(layout: &Layout, p: &P) -> Vec<(u32, String)>
where
    P: Process + Clone + Eq + Hash,
{
    let Ok(auto) = ControlAutomaton::extract(layout, p) else {
        return Vec::new();
    };
    let mut found: Vec<(u32, Footprint)> = Vec::new();
    for id in 0..auto.len() as u32 {
        let rep = auto.representative(id);
        let results = match rep.current() {
            Step::Halt => continue,
            Step::Internal => vec![OpResult::None],
            Step::Op(op) => op_result_domain(&op, layout).expect("extracted, so enumerable"),
        };
        for result in results {
            let mut succ = rep.clone();
            succ.advance(result);
            let to = auto.location_of(&succ).expect("every successor is interned");
            let fp = Footprint::of_step(&succ.current(), layout);
            if fp != *auto.footprint(to) && !found.iter().any(|(l, f)| *l == to && *f == fp) {
                found.push((to, fp));
            }
        }
    }
    found.sort_by_key(|(l, _)| *l);
    found
        .into_iter()
        .map(|(l, fp)| (l, format!("offender {fp:?}")))
        .collect()
}

/// Lints `procs` and asserts every process's `IncongruentLocation`
/// findings are exactly the reference's; returns the findings count.
fn lint_against_reference<P>(label: &str, layout: &Layout, procs: &[P]) -> usize
where
    P: Process + Clone + Eq + Hash,
{
    let report = lint_model(layout, procs);
    for (pi, p) in procs.iter().enumerate() {
        let lint: Vec<_> = report
            .findings
            .iter()
            .filter(|f| f.process == pi && f.kind == FindingKind::IncongruentLocation)
            .collect();
        let reference = reference_incongruence(layout, p);
        assert_eq!(
            lint.len(),
            reference.len(),
            "{label} process {pi}: {lint:?} vs {reference:?}"
        );
        for (f, (loc, offender)) in lint.iter().zip(&reference) {
            assert_eq!(f.location, *loc, "{label} process {pi}");
            assert!(f.detail.ends_with(offender.as_str()), "{label} process {pi}: {f}");
        }
    }
    report.findings.len()
}

/// Mutex clients `0..n`, one trip, one critical-section step each.
fn clients<A: MutexAlgorithm>(alg: &A, n: u32) -> Vec<MutexClient<A::Lock>> {
    (0..n).map(|i| alg.client_with_cs(ProcessId::new(i), 1, 1)).collect()
}

/// The lint's findings on every family of `examples/lint_models.rs` and
/// on the hook and algorithm mutants of `tests/checker_mutations.rs`
/// equal the exhaustive reference's, and their counts are pinned: the
/// congruence check's shortcut (equal steps, so equal footprints) must
/// never change what the lint reports.
#[test]
fn lint_findings_match_the_exhaustive_congruence_reference() {
    let peterson = PetersonTwo::new();
    let bakery = Bakery::new(3);
    let tournament = Tournament::new(3, 1);
    let scan = TasScan::new(4);
    let taf = TafTree::new(4).expect("power-of-two size");
    let splitter = Splitter::new(3);
    let splitters: Vec<_> = (0..3).map(|i| splitter.process(ProcessId::new(i))).collect();
    let families = [
        lint_against_reference("peterson-two", &peterson.layout(), &clients(&peterson, 2)),
        lint_against_reference("bakery", &bakery.layout(), &clients(&bakery, 3)),
        lint_against_reference("tournament", &tournament.layout(), &clients(&tournament, 3)),
        lint_against_reference("tas-scan", &scan.layout(), &scan.processes()),
        lint_against_reference("taf-tree", &taf.layout(), &taf.processes()),
        lint_against_reference("splitter", &splitter.layout(), &splitters),
    ];
    assert_eq!(families, [0; 6], "every modeled family lints clean");

    let mut mutants = Vec::new();
    for m in [
        BakeryMutation::DropDoorway,
        BakeryMutation::FcfsOffByOne,
        BakeryMutation::SkipExitReset,
        BakeryMutation::UnderReportScan,
    ] {
        let alg = Bakery::new(3).with_mutation(m);
        mutants.push(lint_against_reference(&format!("{m:?}"), &alg.layout(), &clients(&alg, 3)));
    }
    for m in [PetersonMutation::TurnWriteFirst, PetersonMutation::ExitWrongFlag] {
        let alg = PetersonTwo::new().with_mutation(m);
        mutants.push(lint_against_reference(&format!("{m:?}"), &alg.layout(), &clients(&alg, 2)));
    }
    let alg = Tournament::new(4, 1).with_mutation(TournamentMutation::SkipRootLevel);
    mutants.push(lint_against_reference("skip-root", &alg.layout(), &clients(&alg, 4)));
    let alg = TasSpin::new(2).with_mutation(TasSpinMutation::InvertedTest);
    mutants.push(lint_against_reference("inverted-tas", &alg.layout(), &clients(&alg, 2)));
    // Only the under-reported scan lies in a hook (twelve uncovered
    // future accesses); the algorithm mutants keep honest hooks.
    assert_eq!(mutants, [0, 0, 0, 12, 0, 0, 0, 0]);
}
