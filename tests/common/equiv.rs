//! The engine-against-reference comparison shared by the suites that
//! hold the engine to the independent [`reference`] checker
//! (`packed_equiv`, `index_equiv`, `reference_equiv`).
//!
//! * **Exact counts.** With no reduction, the safety DFS and the
//!   progress BFS must report exactly the reference's states,
//!   transitions and terminals. A codec that merged two states, or an
//!   index probe that missed one, changes a count.
//! * **Verdicts.** Every reduced variant must reach the reference's
//!   verdict. A violation it reports must replay to a state the
//!   reference marks as violating (for progress: as stuck), with an
//!   output multiset the reference reaches among its violating states.

use std::fmt::Debug;
use std::hash::Hash;

use super::reference::{self, State};
use super::{budget, reduced_variants};
use cfc::core::{Memory, Process, ProcessId, Section, Status, Value};
use cfc::mutex::{DetectionAlgorithm, MutexAlgorithm, MutexClient};
use cfc::naming::NamingAlgorithm;
use cfc::verify::{
    check_detection_progress, check_detection_safety, check_mutex_progress, check_mutex_safety,
    check_naming_progress, check_naming_uniqueness, replay, ExploreConfig, ExploreError,
    ExploreStats, ProgressStats, ScheduleStep,
};

/// The budget of every compared run, reference included.
pub const MAX_STATES: usize = 200_000;

/// Replays an engine schedule and returns the reached state in the
/// reference's terms.
pub fn replayed_state<P: Process + Clone>(
    memory: &Memory,
    procs: &[P],
    crashes: u32,
    schedule: &[ScheduleStep],
) -> State<P> {
    let r = replay(memory.clone(), procs.to_vec(), schedule).expect("schedules replay");
    let crashed = schedule
        .iter()
        .filter(|s| matches!(s, ScheduleStep::Crash(_)))
        .count() as u32;
    State {
        procs: r.procs,
        values: r.memory.snapshot().to_vec(),
        status: r.status,
        crashes_left: crashes - crashed,
    }
}

/// Checks one safety property against the reference. `violates` states
/// the property over reference states (the engine's state check, plus
/// its terminal check on quiescent states); `run` runs the engine's
/// check under a given configuration.
pub fn assert_safety_matches<P>(
    label: &str,
    memory: &Memory,
    procs: Vec<P>,
    crashes: u32,
    expect_safe: bool,
    violates: impl Fn(&State<P>) -> bool,
    run: impl Fn(ExploreConfig) -> Result<ExploreStats, ExploreError>,
) where
    P: Process + Clone + Eq + Hash + Debug,
{
    let reference = reference::search(memory, procs.clone(), crashes, MAX_STATES);
    let violating = reference.output_multisets(&violates);
    assert_eq!(
        violating.is_empty(),
        expect_safe,
        "{label}: reference verdict"
    );
    let check = |variant: &str, result: Result<ExploreStats, ExploreError>| match result {
        Ok(stats) => {
            assert!(
                expect_safe,
                "{label} [{variant}]: engine missed the violation"
            );
            Some(stats)
        }
        Err(ExploreError::Violation(v)) => {
            assert!(!expect_safe, "{label} [{variant}]: engine reported {v}");
            let reached = replayed_state(memory, &procs, crashes, &v.schedule);
            assert!(
                violates(&reached),
                "{label} [{variant}]: replay reaches no violation"
            );
            assert!(
                violating.contains(&reached.outputs()),
                "{label} [{variant}]: outputs {:?} not among the reference's {violating:?}",
                reached.outputs()
            );
            None
        }
        Err(other) => panic!("{label} [{variant}]: {other}"),
    };
    if let Some(base) = check("baseline", run(budget(MAX_STATES))) {
        assert_eq!(
            (base.states, base.transitions, base.terminals),
            (
                reference.states.len(),
                reference.transitions,
                reference.terminals
            ),
            "{label}: un-reduced safety counts differ from the reference"
        );
    }
    for (variant, cfg) in reduced_variants(MAX_STATES) {
        check(variant, run(cfg));
    }
}

/// Checks one progress (quiescence-reachability) run against the
/// reference: the un-reduced graph must match its counts exactly — and
/// on a violation, its stuck-state count — and every reduced variant
/// its verdict, with any reported schedule reaching a stuck state.
pub fn assert_progress_matches<P>(
    label: &str,
    memory: &Memory,
    procs: Vec<P>,
    crashes: u32,
    expect_progress: bool,
    run: impl Fn(ExploreConfig) -> Result<ProgressStats, ExploreError>,
) where
    P: Process + Clone + Eq + Hash + Debug,
{
    let reference = reference::search(memory, procs.clone(), crashes, MAX_STATES);
    assert_eq!(
        reference.stuck.is_empty(),
        expect_progress,
        "{label}: reference verdict"
    );
    let check = |variant: &str, result: Result<ProgressStats, ExploreError>| match result {
        Ok(stats) => {
            assert!(
                expect_progress,
                "{label} [{variant}]: engine missed the stuck states"
            );
            Some(stats)
        }
        Err(ExploreError::Violation(v)) => {
            assert!(!expect_progress, "{label} [{variant}]: engine reported {v}");
            let reached = replayed_state(memory, &procs, crashes, &v.schedule);
            assert!(
                reference
                    .stuck
                    .iter()
                    .any(|&i| reference.states[i] == reached),
                "{label} [{variant}]: schedule does not reach a stuck state"
            );
            if variant == "baseline" {
                let counts = format!(
                    "({} of {} states cannot finish)",
                    reference.stuck.len(),
                    reference.states.len()
                );
                assert!(
                    v.message.contains(&counts),
                    "{label}: {v} vs reference {counts}"
                );
            }
            None
        }
        Err(other) => panic!("{label} [{variant}]: {other}"),
    };
    if let Some(base) = check("baseline", run(budget(MAX_STATES))) {
        assert_eq!(
            (base.states, base.transitions, base.terminals),
            (
                reference.states.len(),
                reference.transitions,
                reference.terminals
            ),
            "{label}: un-reduced progress counts differ from the reference"
        );
    }
    for (variant, cfg) in reduced_variants(MAX_STATES) {
        check(variant, run(cfg));
    }
}

pub fn mutex_violates<P: Process>(s: &State<P>) -> bool {
    let in_cs = s
        .procs
        .iter()
        .filter(|p| p.section() == Some(Section::Critical))
        .count();
    in_cs > 1 || (s.quiescent() && s.status.iter().any(|st| *st != Status::Done))
}

pub fn naming_violates<P: Process>(s: &State<P>) -> bool {
    let n = s.procs.len() as u64;
    let names: Vec<u64> = s
        .procs
        .iter()
        .filter_map(|p| p.output())
        .map(|v| v.raw())
        .collect();
    let mut distinct = names.clone();
    distinct.sort_unstable();
    distinct.dedup();
    let clash = distinct.len() < names.len() || names.iter().any(|&v| v == 0 || v > n);
    let undecided = s
        .procs
        .iter()
        .zip(&s.status)
        .any(|(p, st)| *st != Status::Crashed && p.output().is_none());
    clash || (s.quiescent() && undecided)
}

pub fn detection_violates<P: Process>(s: &State<P>) -> bool {
    s.procs
        .iter()
        .filter(|p| p.output() == Some(Value::ONE))
        .count()
        > 1
}

pub fn mutex_clients<A: MutexAlgorithm>(
    alg: &A,
    trips: u32,
    cs: bool,
) -> Vec<MutexClient<A::Lock>> {
    (0..alg.n() as u32)
        .map(|i| {
            let pid = ProcessId::new(i);
            if cs {
                alg.client_with_cs(pid, trips, 1)
            } else {
                alg.client(pid, trips)
            }
        })
        .collect()
}

pub fn detection_procs<A: DetectionAlgorithm>(alg: &A) -> Vec<A::Proc> {
    (0..alg.n() as u32)
        .map(|i| alg.process(ProcessId::new(i)))
        .collect()
}

/// Safety of a crash-free mutex family with `trips` trips per client.
pub fn mutex_safety<A>(label: &str, alg: &A, trips: u32)
where
    A: MutexAlgorithm,
    A::Lock: Clone + Eq + Hash + Debug,
{
    assert_safety_matches(
        label,
        &alg.memory().unwrap(),
        mutex_clients(alg, trips, true),
        0,
        true,
        mutex_violates,
        |cfg| check_mutex_safety(alg, trips, cfg),
    );
}

/// Name uniqueness (and termination) under up to `crashes` crashes.
pub fn naming_safety<A>(label: &str, alg: &A, crashes: u32, expect_safe: bool)
where
    A: NamingAlgorithm,
    A::Proc: Clone + Eq + Hash + Debug,
{
    assert_safety_matches(
        label,
        &alg.memory().unwrap(),
        alg.processes(),
        crashes,
        expect_safe,
        naming_violates,
        |cfg| check_naming_uniqueness(alg, crashes, cfg),
    );
}

/// At most one winner of a detection family under up to `crashes`
/// crashes.
pub fn detection_safety<A>(label: &str, alg: &A, crashes: u32)
where
    A: DetectionAlgorithm,
    A::Proc: Clone + Eq + Hash + Debug,
{
    assert_safety_matches(
        label,
        &alg.memory().unwrap(),
        detection_procs(alg),
        crashes,
        true,
        detection_violates,
        |cfg| check_detection_safety(alg, cfg.with_max_crashes(crashes)),
    );
}

/// Progress of a crash-free mutex family whose clients all finish.
pub fn mutex_progress<A>(label: &str, alg: &A, trips: u32)
where
    A: MutexAlgorithm,
    A::Lock: Clone + Eq + Hash + Debug,
{
    assert_progress_matches(
        label,
        &alg.memory().unwrap(),
        mutex_clients(alg, trips, false),
        0,
        true,
        |cfg| check_mutex_progress(alg, trips, cfg),
    );
}

/// Progress of a naming family under up to `crashes` crashes.
pub fn naming_progress<A>(label: &str, alg: &A, crashes: u32)
where
    A: NamingAlgorithm,
    A::Proc: Clone + Eq + Hash + Debug,
{
    assert_progress_matches(
        label,
        &alg.memory().unwrap(),
        alg.processes(),
        crashes,
        true,
        |cfg| check_naming_progress(alg, crashes, cfg),
    );
}

/// Progress of a detection family under up to `crashes` crashes.
pub fn detection_progress<A>(label: &str, alg: &A, crashes: u32)
where
    A: DetectionAlgorithm,
    A::Proc: Clone + Eq + Hash + Debug,
{
    assert_progress_matches(
        label,
        &alg.memory().unwrap(),
        detection_procs(alg),
        crashes,
        true,
        |cfg| check_detection_progress(alg, cfg.with_max_crashes(crashes)),
    );
}
