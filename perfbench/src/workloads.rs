//! The two workloads: which checks each runs, with which verdict
//! expected, and which native locks it times.

use std::hash::Hash;
use std::time::Instant;

use cfc_core::{Memory, Process, ProcessId, Section, Value};
use cfc_mutex::{Bakery, LamportFast, MutexAlgorithm, MutexClient, Tournament};
use cfc_naming::{NamingAlgorithm, TafTree};
use cfc_verify::{
    check_mutex_progress, check_mutex_safety, check_mutex_starvation, check_naming_lockout,
    validate_bypass, validate_lasso, ExploreConfig, ExploreError, LivenessReport, LivenessSpec,
    MayAccessMode, StoreFootprint,
};

use crate::layers::{probe_fn, Model, ProbeFn, Probes};
use crate::native;

/// A named workload of the benchmark.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Safety DFS under dynamic partial-order reduction, and the
    /// progress BFS with edge recording and back-propagation.
    SafetyProgress,
    /// Liveness checks under symmetry reduction, and uncontended native
    /// lock/unlock latency at every slot count.
    LivenessNative,
}

/// Every workload with its command-line name.
pub const WORKLOADS: [(&str, Workload); 2] = [
    ("safety-progress", Workload::SafetyProgress),
    ("liveness-native", Workload::LivenessNative),
];

/// The counts a check must reproduce exactly, run after run and with
/// telemetry attached or not.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    /// Distinct states.
    pub states: u64,
    /// Transitions taken.
    pub transitions: u64,
    /// Successors pruned by ample sets.
    pub pruned: u64,
    /// Transitions skipped by sleep sets.
    pub slept: u64,
    /// Successors merged into an orbit representative.
    pub merged: u64,
}

/// The result of one check call.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// The reproducible counts.
    pub counts: Counts,
    /// Store, index and edge bytes.
    pub footprint: StoreFootprint,
    /// Wall time the check reports for itself.
    pub wall_ns: u64,
    /// Wall time of the call as the benchmark sees it from outside.
    pub call_ns: u64,
    /// Time spent re-validating the returned witness (outside the call).
    pub validate_ns: u64,
    /// Why the check failed, if it did.
    pub failure: Option<String>,
}

impl Outcome {
    fn error(e: &ExploreError, call_ns: u64) -> Self {
        Outcome {
            call_ns,
            failure: Some(format!("check returned an error: {e}")),
            ..Outcome::default()
        }
    }
}

/// One check of a workload: the call itself and the model-level
/// timings on states of the system it checks.
pub struct Check {
    /// A short label for diagnostics.
    pub name: &'static str,
    /// Runs the check once.
    pub run: Box<dyn Fn() -> Outcome>,
    /// Samples states of the checked system and times layer calls.
    pub probe: ProbeFn,
}

/// Everything a workload needs before its first timed call.
pub struct Setup {
    /// The checks, run in order once per round.
    pub checks: Vec<Check>,
    /// The native locks.
    pub native: native::Bench,
    /// Sweeps over the native locks after each round.
    pub sweeps_per_round: usize,
    /// Which model-level timings the traced pass takes.
    pub probes: Probes,
    /// Whether the traced pass times `OpenIndex` at the workload's size.
    pub time_index: bool,
    /// Whether the traced pass times the edge arena at the workload's size.
    pub time_csr: bool,
}

/// What a liveness check must conclude.
#[derive(Clone, Copy, Debug)]
enum Expect {
    /// Starvation-free with this bypass bound, witnessed or not.
    Free {
        bypass: Option<u64>,
        witnessed: bool,
    },
    /// Starvable, with a lasso.
    Starvable,
}

impl Workload {
    /// Parses a command-line workload name.
    pub fn parse(name: &str) -> Option<Self> {
        WORKLOADS.iter().find(|(n, _)| *n == name).map(|(_, w)| *w)
    }

    /// Builds the workload's models, initial states and locks.
    pub fn setup(self) -> Setup {
        let plain = ExploreConfig::default();
        let por = ExploreConfig { por: true, ..plain };
        let sym = ExploreConfig {
            symmetry: true,
            ..plain
        };
        let dpor = por.with_may_access(MayAccessMode::Dynamic);
        match self {
            Workload::SafetyProgress => Setup {
                checks: vec![
                    safety("tournament-5", Tournament::new(5, 1), dpor),
                    safety("bakery-3", Bakery::new(3), dpor),
                    progress("tournament-5-progress", Tournament::new(5, 1), por),
                ],
                // A small probe of the 1024-slot locks, spread over the
                // run, so the lock latencies exist on both workloads.
                native: native::Bench::new(&[1024]),
                sweeps_per_round: 2,
                probes: Probes {
                    analysis: true,
                    codec: true,
                    ..Probes::default()
                },
                time_index: true,
                time_csr: true,
            },
            Workload::LivenessNative => Setup {
                checks: vec![
                    lockout(
                        "taf-tree-8",
                        TafTree::new(8).expect("8 is a power of two"),
                        sym,
                        Expect::Free {
                            bypass: Some(7),
                            witnessed: true,
                        },
                    ),
                    starvation(
                        "tournament-4",
                        Tournament::new(4, 1),
                        sym,
                        Expect::Free {
                            bypass: None,
                            witnessed: false,
                        },
                    ),
                    starvation("lamport-2", LamportFast::new(2), sym, Expect::Starvable),
                    starvation(
                        "bakery-2",
                        Bakery::new(2),
                        sym,
                        Expect::Free {
                            bypass: Some(2),
                            witnessed: true,
                        },
                    ),
                ],
                native: native::Bench::new(&[2, 64, 1024]),
                sweeps_per_round: 4,
                probes: Probes {
                    sym: true,
                    ..Probes::default()
                },
                time_index: false,
                time_csr: true,
            },
        }
    }
}

fn pid(i: usize) -> ProcessId {
    ProcessId::new(i as u32)
}

fn mutex_model<A: MutexAlgorithm>(
    alg: &A,
    client: impl Fn(ProcessId) -> MutexClient<A::Lock>,
) -> Model<MutexClient<A::Lock>> {
    Model {
        memory: alg.memory().expect("the algorithm's layout is well formed"),
        procs: (0..alg.n()).map(|i| client(pid(i))).collect(),
        symmetry: alg.symmetry(),
    }
}

/// `check_mutex_safety` with single-trip clients; expected safe.
fn safety<A>(name: &'static str, alg: A, config: ExploreConfig) -> Check
where
    A: MutexAlgorithm + 'static,
    A::Lock: Clone + Eq + Hash + 'static,
{
    // The same clients check_mutex_safety builds: one trip, one
    // critical-section step.
    let model = mutex_model(&alg, |p| alg.client_with_cs(p, 1, 1));
    Check {
        name,
        run: Box::new(move || {
            let start = Instant::now();
            let result = check_mutex_safety(&alg, 1, config);
            let call_ns = elapsed_ns(start);
            match result {
                Ok(s) => Outcome {
                    counts: Counts {
                        states: s.states as u64,
                        transitions: s.transitions,
                        pruned: s.states_pruned_por,
                        slept: s.transitions_slept,
                        merged: s.orbits_merged,
                    },
                    footprint: s.footprint,
                    wall_ns: s.wall_ns,
                    call_ns,
                    ..Outcome::default()
                },
                Err(e) => Outcome::error(&e, call_ns),
            }
        }),
        probe: probe_fn(model),
    }
}

/// `check_mutex_progress` with single-trip clients; expected
/// deadlock-free.
fn progress<A>(name: &'static str, alg: A, config: ExploreConfig) -> Check
where
    A: MutexAlgorithm + 'static,
    A::Lock: Clone + Eq + Hash + 'static,
{
    let model = mutex_model(&alg, |p| alg.client(p, 1));
    Check {
        name,
        run: Box::new(move || {
            let start = Instant::now();
            let result = check_mutex_progress(&alg, 1, config);
            let call_ns = elapsed_ns(start);
            match result {
                Ok(s) => Outcome {
                    counts: Counts {
                        states: s.states as u64,
                        transitions: s.transitions,
                        pruned: s.states_pruned_por,
                        slept: 0,
                        merged: s.orbits_merged,
                    },
                    footprint: s.footprint,
                    wall_ns: s.wall_ns,
                    call_ns,
                    ..Outcome::default()
                },
                Err(e) => Outcome::error(&e, call_ns),
            }
        }),
        probe: probe_fn(model),
    }
}

/// `check_mutex_starvation` over cycling clients, judged against
/// `expect`, with its witness re-validated.
fn starvation<A>(name: &'static str, alg: A, config: ExploreConfig, expect: Expect) -> Check
where
    A: MutexAlgorithm + 'static,
    A::Lock: Clone + Eq + Hash + 'static,
{
    let model = mutex_model(&alg, |p| alg.client_cycling(p, 1));
    let (memory, clients) = (model.memory.clone(), model.procs.clone());
    Check {
        name,
        run: Box::new(move || {
            let start = Instant::now();
            let result = check_mutex_starvation(&alg, config);
            let call_ns = elapsed_ns(start);
            let normalizer = alg.liveness_normalizer();
            let spec = LivenessSpec {
                pending: &|c: &MutexClient<A::Lock>| c.section() == Some(Section::Entry),
                engaged: &|c: &MutexClient<A::Lock>| c.engaged(),
                served: &|before: &MutexClient<A::Lock>, after: &MutexClient<A::Lock>| {
                    before.section() != Some(Section::Critical)
                        && after.section() == Some(Section::Critical)
                },
                normalize: normalizer
                    .as_deref()
                    .map(|f| f as &dyn Fn(&mut [MutexClient<A::Lock>], &mut [Value])),
            };
            liveness_outcome(result, call_ns, expect, &memory, &clients, &spec)
        }),
        probe: probe_fn(model),
    }
}

/// `check_naming_lockout` without crashes, judged against `expect`, with
/// its witness re-validated.
fn lockout<A>(name: &'static str, alg: A, config: ExploreConfig, expect: Expect) -> Check
where
    A: NamingAlgorithm + 'static,
    A::Proc: Clone + Eq + Hash + 'static,
{
    let model = Model {
        memory: alg.memory().expect("the algorithm's layout is well formed"),
        procs: alg.processes(),
        symmetry: alg.symmetry(),
    };
    let (memory, procs) = (model.memory.clone(), model.procs.clone());
    Check {
        name,
        run: Box::new(move || {
            let start = Instant::now();
            let result = check_naming_lockout(&alg, 0, config);
            let call_ns = elapsed_ns(start);
            let spec = LivenessSpec {
                pending: &|p: &A::Proc| p.output().is_none(),
                engaged: &|p: &A::Proc| p.output().is_none(),
                served: &|before: &A::Proc, after: &A::Proc| {
                    before.output().is_none() && after.output().is_some()
                },
                normalize: None,
            };
            liveness_outcome(result, call_ns, expect, &memory, &procs, &spec)
        }),
        probe: probe_fn(model),
    }
}

/// Judges a liveness report: the verdict must match `expect`, and the
/// witness it carries must re-validate against the un-reduced semantics.
fn liveness_outcome<P>(
    result: Result<LivenessReport, ExploreError>,
    call_ns: u64,
    expect: Expect,
    memory: &Memory,
    procs: &[P],
    spec: &LivenessSpec<'_, P>,
) -> Outcome
where
    P: Process + Clone + Eq + Hash,
{
    let report = match result {
        Ok(report) => report,
        Err(e) => return Outcome::error(&e, call_ns),
    };
    let s = report.stats;
    let start = Instant::now();
    let validated = match (report.witness(), report.bypass_witness()) {
        (Some(lasso), _) => validate_lasso(memory, procs, lasso, spec),
        (None, Some(bypass)) => validate_bypass(memory, procs, bypass, spec),
        (None, None) => Ok(()),
    };
    let validate_ns = elapsed_ns(start);
    let verdict = match expect {
        Expect::Free { bypass, witnessed } => {
            let got = (report.bypass(), report.bypass_witness().is_some());
            (got == (Some(bypass), witnessed))
                .then_some(())
                .ok_or_else(|| {
                    format!("expected free/{bypass:?}/witnessed={witnessed}, got {got:?}")
                })
        }
        Expect::Starvable => report
            .witness()
            .map(|_| ())
            .ok_or_else(|| "expected starvable, got starvation-free".to_string()),
    };
    Outcome {
        counts: Counts {
            states: s.states as u64,
            transitions: s.transitions,
            pruned: s.states_pruned_por,
            slept: 0,
            merged: s.orbits_merged,
        },
        footprint: s.footprint,
        wall_ns: s.wall_ns,
        call_ns,
        validate_ns,
        failure: verdict
            .and(validated.map_err(|e| format!("witness does not re-validate: {e}")))
            .err(),
    }
}

fn elapsed_ns(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}
