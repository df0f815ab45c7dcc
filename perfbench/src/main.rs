//! The repository benchmark.
//!
//! ```text
//! cfc-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` is the untraced pass: it repeats the workload's rounds
//! for `--seconds` and prints the end-to-end metrics. `--trace 1` is the
//! traced pass: it times public calls per layer on seeded sampled
//! states, then alternates untraced and `Recorder`-traced rounds,
//! checking that both report identical counts, and prints the
//! per-layer metrics. Either way the last line of standard output is
//! one JSON object `{"correct", "attempted", "failed", "metrics"}`.
//! The seed drives only the sampled states; the checks themselves are
//! the same on every seed.

mod layers;
mod native;
mod report;
mod spans;
mod workloads;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use cfc_verify::{with_telemetry, Phase, Recorder, Telemetry};

use crate::layers::{time_csr, time_index, CallSamples};
use crate::report::{median, peak_rss_mib, print_result, quantile, share, Metrics, Rng};
use crate::spans::{self_times, PhaseTimes};
use crate::workloads::{Counts, Outcome, Setup, Workload};

/// Set-ups timed at the start of an untraced run and again after each
/// round, so the samples span the whole run.
const SETUP_REPS: usize = 5;

/// Checks the command line and holds its values.
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let at = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(at + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let name = value("--workload")?;
    let workload = Workload::parse(name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    let seed = value("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("cfc-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut tally = Tally::default();
    let metrics = if args.trace {
        traced_pass(&args, &mut tally)
    } else {
        untraced_pass(&args, &mut tally)
    };
    if !metrics.all_finite() {
        tally.fail("a metric is not a finite number".into());
    }
    for failure in &tally.failures {
        eprintln!("cfc-perfbench: FAILED: {failure}");
    }
    print_result(tally.failed == 0, tally.attempted, tally.failed, &metrics);
    ExitCode::SUCCESS
}

/// Attempted and failed checks and batches, with the failure reasons.
#[derive(Debug, Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Tally {
    fn fail(&mut self, why: String) {
        self.failed += 1;
        self.failures.push(why);
    }
}

/// Runs every check of `setup` once, counting attempts and failures.
fn run_round(setup: &Setup, tally: &mut Tally) -> Vec<Outcome> {
    setup
        .checks
        .iter()
        .map(|check| {
            let outcome = (check.run)();
            tally.attempted += 1;
            if let Some(why) = &outcome.failure {
                tally.fail(format!("{}: {why}", check.name));
            }
            outcome
        })
        .collect()
}

fn counts(round: &[Outcome]) -> Vec<Counts> {
    round.iter().map(|o| o.counts).collect()
}

fn total(round: &[Outcome], f: impl Fn(&Outcome) -> u64) -> u64 {
    round.iter().map(f).sum()
}

/// Fails the tally unless `round` reproduces `reference`'s counts.
fn expect_counts(tally: &mut Tally, reference: &[Counts], round: &[Outcome], what: &str) {
    tally.attempted += 1;
    if counts(round) != reference {
        tally.fail(format!(
            "{what} counts {:?} differ from the first round's {reference:?}",
            counts(round)
        ));
    }
}

fn seconds_of(ns: u64) -> f64 {
    ns as f64 / 1e9
}

fn ms_of(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// One traced round: its phase self-times, its wall as seen from
/// outside the check calls, and the witness re-validation time.
#[derive(Clone, Debug, Default)]
struct TracedRound {
    times: PhaseTimes,
    traced_ns: u64,
    validate_ns: u64,
}

/// The end-to-end metrics, from rounds with no telemetry attached.
///
/// Check walls are the median over every round of the run, and lock
/// latencies the 10th percentile of batches. The machine's speed drifts
/// over minutes with neighbour load, and a run's fastest round depends
/// on whether a fast spell fell inside it; on a recorded 10-minute
/// trace the median over 55-second windows spread about half as much
/// as the fastest round did. `setup_s` is the median of set-ups spread
/// over the whole run.
fn untraced_pass(args: &Args, tally: &mut Tally) -> Metrics {
    let mut setup_s = Vec::new();
    let time_setups = |setup_s: &mut Vec<f64>| {
        let mut last = None;
        for _ in 0..SETUP_REPS {
            let start = Instant::now();
            let setup = args.workload.setup();
            setup_s.push(start.elapsed().as_secs_f64());
            last = Some(setup);
        }
        last.expect("SETUP_REPS is nonzero")
    };
    let mut setup = time_setups(&mut setup_s);

    let budget = Duration::from_secs_f64(args.seconds);
    let start = Instant::now();
    // Per check, its wall time in every round.
    let mut walls: Vec<Vec<f64>> = vec![Vec::new(); setup.checks.len()];
    let mut reference: Option<Vec<Outcome>> = None;
    // Read after the first round, so it reflects the checks rather than
    // how many timing samples the run went on to keep.
    let mut peak_rss = 0.0;
    let mut round_time = Duration::ZERO;
    while reference.is_none() || start.elapsed() + round_time <= budget {
        let round_start = Instant::now();
        let round = run_round(&setup, tally);
        for (wall, outcome) in walls.iter_mut().zip(&round) {
            wall.push(seconds_of(outcome.wall_ns));
        }
        match &reference {
            Some(first) => expect_counts(tally, &counts(first), &round, "untraced round"),
            None => {
                reference = Some(round);
                peak_rss = peak_rss_mib();
            }
        }
        for _ in 0..setup.sweeps_per_round {
            setup.native.sweep();
        }
        time_setups(&mut setup_s);
        round_time = round_start.elapsed();
    }
    tally.attempted += setup.native.attempted;
    for _ in 0..setup.native.failed {
        tally.fail("a native batch's critical-section counter ended off".into());
    }

    let first = reference.expect("at least one round ran");
    let states = total(&first, |o| o.counts.states);
    let wall_s: f64 = walls.iter().map(|w| median(w)).sum();
    let mut m = Metrics::default();
    m.put("setup_s", median(&setup_s), "s");
    m.put("wall_s", wall_s, "s");
    m.put("states_per_s", share(states as f64, wall_s), "1/s");
    m.put("states", states as f64, "count");
    m.put(
        "transitions",
        total(&first, |o| o.counts.transitions) as f64,
        "count",
    );
    m.put(
        "bytes_per_state",
        share(
            total(&first, |o| o.footprint.total_bytes()) as f64,
            states as f64,
        ),
        "B/state",
    );
    m.put("peak_rss_mib", peak_rss, "MiB");
    m.put(
        "pass_ratio",
        1.0 - share(tally.failed as f64, tally.attempted as f64),
        "ratio",
    );
    // The bakery's 1024-slot scan is left to the per-layer metrics: its
    // batch times swung between 1 and 4 µs with neighbour load, too
    // widely for any end-to-end bound.
    for timed in setup.native.locks.iter().filter(|t| t.slots() == 1024) {
        if timed.lock_name() != "bakery" {
            m.put(
                format!("{}_ns_p10", timed.lock_name()),
                quantile(&timed.batch_ns, 0.1),
                "ns",
            );
        }
    }
    m
}

/// The per-layer metrics, from call timings and traced rounds.
fn traced_pass(args: &Args, tally: &mut Tally) -> Metrics {
    let budget = Duration::from_secs_f64(args.seconds);
    let start = Instant::now();
    let mut setup = args.workload.setup();
    let mut calls = CallSamples::default();
    for (k, check) in setup.checks.iter().enumerate() {
        let mut rng = Rng::new(args.seed, k as u64);
        tally.attempted += 1;
        if let Err(e) = (check.probe)(setup.probes, &mut rng, &mut calls) {
            tally.fail(format!("{}: sampling: {e}", check.name));
        }
    }

    let mut reference: Option<Vec<Outcome>> = None;
    let (mut plain_walls, mut traced_walls) = (Vec::new(), Vec::new());
    let mut per_round: Vec<TracedRound> = Vec::new();
    let mut round_time = Duration::ZERO;
    while reference.is_none() || start.elapsed() + round_time <= budget {
        let round_start = Instant::now();
        let recorder = Recorder::new();
        let telemetry = Telemetry::new().with_sink(recorder.clone());
        let traced_round =
            |tally: &mut Tally| with_telemetry(&telemetry, || run_round(&setup, tally));
        // Alternate which pass goes first, so warm-up favours neither.
        let (plain, traced) = if plain_walls.len() % 2 == 0 {
            (run_round(&setup, tally), traced_round(tally))
        } else {
            let traced = traced_round(tally);
            (run_round(&setup, tally), traced)
        };
        // Passivity, checked from outside: the traced round must report
        // exactly the untraced round's counts.
        let reference = reference.get_or_insert_with(|| plain.clone());
        let reference = counts(reference);
        expect_counts(tally, &reference, &plain, "untraced round");
        expect_counts(tally, &reference, &traced, "traced round");

        let traced_ns = total(&traced, |o| o.call_ns);
        plain_walls.push(total(&plain, |o| o.call_ns) as f64);
        traced_walls.push(traced_ns as f64);
        tally.attempted += 1;
        match self_times(&recorder.take()) {
            Ok(times) if times.total_self_ns() <= traced_ns => per_round.push(TracedRound {
                times,
                traced_ns,
                validate_ns: total(&traced, |o| o.validate_ns),
            }),
            Ok(_) => tally.fail("phase self-times exceed the traced wall".into()),
            Err(e) => tally.fail(format!("unbalanced telemetry: {e}")),
        }
        for _ in 0..setup.sweeps_per_round {
            setup.native.sweep();
        }
        round_time = round_start.elapsed();
    }
    tally.attempted += setup.native.attempted;
    for _ in 0..setup.native.failed {
        tally.fail("a native batch's critical-section counter ended off".into());
    }

    let first = reference.expect("at least one round ran");
    let states = total(&first, |o| o.counts.states);
    let transitions = total(&first, |o| o.counts.transitions);
    let mut rng = Rng::new(args.seed, u64::MAX);
    if setup.time_index {
        time_index(states as usize, &mut rng, &mut calls);
    }
    if setup.time_csr {
        time_csr(
            states as usize,
            transitions as usize,
            8,
            &mut rng,
            &mut calls,
        );
    }

    // Phase metrics all come from one round, the median by traced wall,
    // so that its phase self-times plus the unaccounted remainder add up
    // to its traced wall exactly.
    per_round.sort_by_key(|r| r.traced_ns);
    let mid = per_round
        .get(per_round.len().saturating_sub(1) / 2)
        .cloned()
        .unwrap_or_default();
    let t = &mid.times;
    let self_ms = |p: Phase| ms_of(t.self_ns(p));
    let mut m = Metrics::default();
    m.put(
        "explore.safety_dfs_ns_per_state",
        t.ns_per_state(Phase::SafetyDfs),
        "ns",
    );
    m.put(
        "explore.progress_bfs_ns_per_state",
        t.ns_per_state(Phase::ProgressBfs),
        "ns",
    );
    m.put(
        "explore.back_propagation_ms",
        self_ms(Phase::BackPropagation),
        "ms",
    );
    m.put(
        "explore.progress_check_self_ms",
        self_ms(Phase::ProgressCheck),
        "ms",
    );
    m.put(
        "liveness.graph_ns_per_state",
        t.ns_per_state(Phase::LivenessGraph),
        "ns",
    );
    m.put("liveness.scc_ms", self_ms(Phase::SccAnalysis), "ms");
    m.put(
        "liveness.witness_ms",
        self_ms(Phase::WitnessValidation),
        "ms",
    );
    m.put(
        "liveness.check_self_ms",
        self_ms(Phase::LivenessCheck),
        "ms",
    );
    m.put("liveness.validate_ms", ms_of(mid.validate_ns), "ms");
    m.put(
        "analysis.extract_automaton_ms",
        self_ms(Phase::ExtractAutomaton),
        "ms",
    );
    m.put("telemetry.traced_wall_ms", ms_of(mid.traced_ns), "ms");
    m.put("telemetry.phase_self_ms", ms_of(t.total_self_ns()), "ms");
    m.put(
        "telemetry.unaccounted_ms",
        ms_of(mid.traced_ns - t.total_self_ns()),
        "ms",
    );
    m.put(
        "telemetry.trace_overhead",
        share(median(&traced_walls), median(&plain_walls)),
        "ratio",
    );

    let sum = |f: &dyn Fn(&Outcome) -> u64| total(&first, f) as f64;
    m.put(
        "reduction.pruned_share",
        share(
            sum(&|o| o.counts.pruned),
            sum(&|o| o.counts.pruned + o.counts.transitions),
        ),
        "ratio",
    );
    m.put(
        "dynamic.slept_share",
        share(
            sum(&|o| o.counts.slept),
            sum(&|o| o.counts.slept + o.counts.transitions),
        ),
        "ratio",
    );
    m.put(
        "sym.merge_share",
        share(
            sum(&|o| o.counts.merged),
            sum(&|o| o.counts.merged + o.counts.states),
        ),
        "ratio",
    );
    m.put(
        "store.arena_bytes",
        sum(&|o| o.footprint.arena_bytes),
        "bytes",
    );
    m.put(
        "index.index_bytes",
        sum(&|o| o.footprint.index_bytes),
        "bytes",
    );
    m.put("csr.edge_bytes", sum(&|o| o.footprint.edge_bytes), "bytes");

    for (name, unit) in [
        ("memory.apply_ns", "ns"),
        ("memory.rebuild_ns", "ns"),
        ("process.step_ns", "ns"),
        ("process.clone_ns", "ns"),
        ("sym.canonical_key_ns", "ns"),
        ("codec.encode_ns", "ns"),
        ("index.find_ns", "ns"),
        ("index.insert_ns", "ns"),
        ("csr.push_ns", "ns"),
        ("csr.reverse_ns_per_edge", "ns"),
        ("analysis.future_lookup_ns", "ns"),
        ("dynamic.trace_causality_ns_per_event", "ns"),
    ] {
        m.put(name, calls.median(name), unit);
    }
    // One build per model: the workload's total build cost.
    m.put(
        "analysis.future_build_ms",
        calls.sum("analysis.future_build_ms"),
        "ms",
    );

    // Locks a workload does not allocate read 0.
    let mut batches = 0usize;
    for lock in ["lamport_fast", "peterson_tree", "bakery"] {
        for slots in [2, 64, 1024] {
            let timed = setup
                .native
                .locks
                .iter()
                .find(|t| t.lock_name() == lock && t.slots() == slots);
            let samples = timed.map_or(&[][..], |t| &t.batch_ns[..]);
            batches = batches.max(samples.len());
            m.put(
                format!("native.{lock}_{slots}_ns_p50"),
                quantile(samples, 0.5),
                "ns",
            );
            m.put(
                format!("native.{lock}_{slots}_ns_p99"),
                quantile(samples, 0.99),
                "ns",
            );
        }
    }
    m.put("native.batches_per_lock", batches as f64, "count");
    m
}
