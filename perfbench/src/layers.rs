//! Public-call timings per layer, on a seeded sample of reachable states.
//!
//! Random walks over each workload's models (driven by
//! `Executor::step_process` and the workload seed) produce the states;
//! every timing then repeats one public call [`REPS`] times on a
//! sampled state and records nanoseconds per call. Index and edge
//! timings run on synthetic keys and edges sized to the workload's own
//! state and transition counts.

use std::hash::Hash;
use std::hint::black_box;
use std::time::Instant;

use cfc_core::{
    Executor, LayoutCodec, Memory, OpResult, Process, ProcessId, RegisterId, StateCodec,
    StateWriter, Status, Step, SymmetryGroup,
};
use cfc_verify::csr::{EdgeArena, GEdge};
use cfc_verify::{canonical_key, trace_causality, FutureIndex, OpenIndex, ScheduleStep};

use crate::report::{median, Rng};

/// Random walks per model.
const WALKS: usize = 8;
/// Step cap per walk (cycling clients never quiesce).
const WALK_STEPS: usize = 300;
/// Sampled states per model.
const SAMPLES: usize = 64;
/// Calls per timed repetition.
const REPS: usize = 64;
/// Timed passes of the index, edge and automaton builds (median kept).
const BUILD_PASSES: usize = 3;

/// A system as the checks see it: initial memory, initial processes,
/// and the declared symmetry group.
#[derive(Debug)]
pub struct Model<P> {
    /// The initial shared memory.
    pub memory: Memory,
    /// The initial processes.
    pub procs: Vec<P>,
    /// The symmetry group the checks canonicalize under.
    pub symmetry: SymmetryGroup,
}

/// Which model-level timings a workload takes on top of the
/// memory/process ones every workload takes.
#[derive(Clone, Copy, Debug, Default)]
pub struct Probes {
    /// `canonical_key`.
    pub sym: bool,
    /// `LayoutCodec::encode`.
    pub codec: bool,
    /// `FutureIndex::build` / `future_of` and `trace_causality`.
    pub analysis: bool,
}

/// Per-metric samples, in first-recorded order.
#[derive(Debug, Default)]
pub struct CallSamples {
    entries: Vec<(&'static str, Vec<f64>)>,
}

impl CallSamples {
    /// Records one sample of `name`.
    pub fn add(&mut self, name: &'static str, value: f64) {
        match self.entries.iter_mut().find(|(n, _)| *n == name) {
            Some((_, v)) => v.push(value),
            None => self.entries.push((name, vec![value])),
        }
    }

    /// The sum of `name`'s samples.
    pub fn sum(&self, name: &str) -> f64 {
        self.entries
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| v.iter().sum())
    }

    /// The median of `name`'s samples, 0 when it has none.
    pub fn median(&self, name: &str) -> f64 {
        self.entries
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| median(v))
    }
}

/// The model-level timings of one check, boxed over its process type.
pub type ProbeFn = Box<dyn Fn(Probes, &mut Rng, &mut CallSamples) -> Result<(), String>>;

/// Boxes [`probe`] over `model`.
pub fn probe_fn<P>(model: Model<P>) -> ProbeFn
where
    P: Process + Clone + Eq + Hash + 'static,
{
    Box::new(move |probes, rng, out| probe(&model, probes, rng, out))
}

/// One global state reached by a walk.
struct Visited<P> {
    procs: Vec<P>,
    status: Vec<Status>,
    memory: Memory,
}

/// One seeded random walk: every state it passes and its schedule.
fn walk<P: Process + Clone>(
    model: &Model<P>,
    rng: &mut Rng,
) -> Result<(Vec<Visited<P>>, Vec<ScheduleStep>), String> {
    let n = model.procs.len();
    let mut exec = Executor::new(model.memory.clone(), model.procs.clone());
    let mut states = Vec::new();
    let mut schedule = Vec::new();
    for _ in 0..WALK_STEPS {
        let runnable = exec.runnable();
        if runnable.is_empty() {
            break;
        }
        let pid = runnable[rng.below(runnable.len())];
        exec.step_process(pid)
            .map_err(|e| format!("walk step of {pid} failed: {e}"))?;
        schedule.push(ScheduleStep::Step(pid));
        let pids = (0..n as u32).map(ProcessId::new);
        states.push(Visited {
            procs: pids.clone().map(|p| exec.process(p).clone()).collect(),
            status: pids.map(|p| exec.status(p)).collect(),
            memory: exec.memory().clone(),
        });
    }
    Ok((states, schedule))
}

/// Nanoseconds per call of `f` over [`REPS`] calls.
fn per_call(mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    for _ in 0..REPS {
        f();
    }
    start.elapsed().as_nanos() as f64 / REPS as f64
}

/// Times `f` once, in milliseconds, returning its result too.
fn timed_ms<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_nanos() as f64 / 1e6)
}

/// Samples states of `model` and times the memory, process and (per
/// `probes`) symmetry, codec and analysis calls on them.
///
/// # Errors
///
/// Returns a description of a walk step or memory operation that failed.
pub fn probe<P>(
    model: &Model<P>,
    probes: Probes,
    rng: &mut Rng,
    out: &mut CallSamples,
) -> Result<(), String>
where
    P: Process + Clone + Eq + Hash,
{
    let mut states = Vec::new();
    let mut schedules = Vec::new();
    for _ in 0..WALKS {
        let (visited, schedule) = walk(model, rng)?;
        states.extend(visited);
        schedules.push(schedule);
    }
    if states.is_empty() {
        return Err("random walks reached no state".into());
    }
    let codec = LayoutCodec::new(model.memory.layout());
    let future = probes.analysis.then(|| {
        let mut build_ms = Vec::new();
        let mut index = None;
        for _ in 0..BUILD_PASSES {
            let (built, ms) = timed_ms(|| FutureIndex::build(model.memory.layout(), &model.procs));
            build_ms.push(ms);
            index = Some(built);
        }
        out.add("analysis.future_build_ms", median(&build_ms));
        index.expect("at least one build pass")
    });

    for _ in 0..SAMPLES {
        let st = &states[rng.below(states.len())];
        let movers: Vec<usize> = (0..st.procs.len())
            .filter(|&i| st.status[i] == Status::Running && st.procs[i].current() != Step::Halt)
            .collect();
        if !movers.is_empty() {
            let i = movers[rng.below(movers.len())];
            let step = st.procs[i].current();
            let result = match &step {
                Step::Op(op) => {
                    let mut copies: Vec<Memory> = vec![st.memory.clone(); REPS];
                    let mut copies = copies.iter_mut();
                    out.add(
                        "memory.apply_ns",
                        per_call(|| {
                            let m = copies.next().expect("one copy per call");
                            let _ = black_box(m.apply(op));
                        }),
                    );
                    st.memory
                        .clone()
                        .apply(op)
                        .map_err(|e| format!("sampled op {op:?} failed: {e}"))?
                }
                _ => OpResult::None,
            };
            let mut copies: Vec<P> = vec![st.procs[i].clone(); REPS];
            let mut copies = copies.iter_mut();
            out.add(
                "process.step_ns",
                per_call(|| {
                    let p = copies.next().expect("one copy per call");
                    black_box(p.current());
                    p.advance(result.clone());
                }),
            );
            let mut clones: Vec<P> = Vec::with_capacity(REPS);
            out.add(
                "process.clone_ns",
                per_call(|| clones.push(st.procs[i].clone())),
            );
            if let Some(index) = &future {
                out.add(
                    "analysis.future_lookup_ns",
                    per_call(|| {
                        black_box(index.future_of(black_box(&st.procs[i])));
                    }),
                );
            }
        }
        let values = st.memory.snapshot();
        out.add(
            "memory.rebuild_ns",
            per_call(|| {
                let mut m = model.memory.clone();
                for (r, v) in values.iter().enumerate() {
                    m.poke(RegisterId::new(r as u32), *v);
                }
                black_box(m.snapshot());
            }),
        );
        if probes.sym {
            out.add(
                "sym.canonical_key_ns",
                per_call(|| {
                    black_box(canonical_key(
                        &st.procs,
                        &st.status,
                        &st.memory,
                        &model.symmetry,
                    ));
                }),
            );
        }
        if probes.codec {
            let values = values.to_vec();
            out.add(
                "codec.encode_ns",
                per_call(|| {
                    let mut w = StateWriter::new();
                    codec.encode(&values, &mut w);
                    black_box(w.finish());
                }),
            );
        }
    }

    if probes.analysis {
        for schedule in schedules.iter().filter(|s| !s.is_empty()) {
            let (memory, procs) = (model.memory.clone(), model.procs.clone());
            let start = Instant::now();
            let causality = trace_causality(memory, procs, schedule, None)
                .map_err(|e| format!("trace_causality failed: {e}"))?;
            let ns = start.elapsed().as_nanos() as f64;
            black_box(&causality);
            out.add(
                "dynamic.trace_causality_ns_per_event",
                ns / schedule.len() as f64,
            );
        }
    }
    Ok(())
}

/// Times `OpenIndex::insert` while filling an index to `len` ids and
/// `OpenIndex::find` of every id, over seeded random digests.
pub fn time_index(len: usize, rng: &mut Rng, out: &mut CallSamples) {
    let keys: Vec<u64> = (0..len).map(|_| rng.next_u64()).collect();
    let per_op = |ns: u128| ns as f64 / len.max(1) as f64;
    for _ in 0..BUILD_PASSES {
        let mut index = OpenIndex::new();
        let start = Instant::now();
        for (id, &key) in keys.iter().enumerate() {
            index.insert(key, id as u32, |id| keys[id as usize]);
        }
        out.add("index.insert_ns", per_op(start.elapsed().as_nanos()));
        let start = Instant::now();
        for &key in &keys {
            black_box(index.find(key, |id| keys[id as usize] == key));
        }
        out.add("index.find_ns", per_op(start.elapsed().as_nanos()));
    }
}

/// Times `EdgeArena::push` (with one `seal` per node) and
/// `EdgeArena::reversed` on a seeded random graph of `nodes` nodes and
/// `edges` edges from `procs` processes.
pub fn time_csr(nodes: usize, edges: usize, procs: u32, rng: &mut Rng, out: &mut CallSamples) {
    if nodes == 0 || edges == 0 {
        return;
    }
    let list: Vec<GEdge> = (0..edges)
        .map(|_| GEdge {
            to: rng.below(nodes) as u32,
            pid: rng.below(procs.max(1) as usize) as u32,
            crash: false,
            served: rng.next_u64() & 1 == 1,
        })
        .collect();
    let (base, extra) = (edges / nodes, edges % nodes);
    for _ in 0..BUILD_PASSES {
        let mut arena = EdgeArena::new(None);
        let mut next = list.iter();
        let start = Instant::now();
        for v in 0..nodes {
            for _ in 0..base + usize::from(v < extra) {
                arena.push(*next.next().expect("degrees sum to the edge count"));
            }
            arena.seal();
        }
        out.add(
            "csr.push_ns",
            start.elapsed().as_nanos() as f64 / edges as f64,
        );
        let start = Instant::now();
        let reversed = arena.reversed(nodes);
        out.add(
            "csr.reverse_ns_per_edge",
            start.elapsed().as_nanos() as f64 / edges as f64,
        );
        black_box(reversed.len());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfc_mutex::{Bakery, MutexAlgorithm};

    #[test]
    fn one_seed_gives_one_sample() {
        let alg = Bakery::new(3);
        let model = Model {
            memory: alg.memory().unwrap(),
            procs: (0..3).map(|i| alg.client(ProcessId::new(i), 1)).collect(),
            symmetry: alg.symmetry(),
        };
        let schedules = |seed| {
            let mut rng = Rng::new(seed, 0);
            (0..WALKS)
                .map(|_| walk(&model, &mut rng).unwrap().1)
                .collect::<Vec<_>>()
        };
        assert_eq!(schedules(3), schedules(3));
        assert_ne!(schedules(3), schedules(4));
    }
}
