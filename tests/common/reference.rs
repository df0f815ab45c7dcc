//! An independent reference checker for the differential walls.
//!
//! A plain breadth-first search over every interleaving (and crash
//! pattern) of a small system, with no reduction, no packing and no
//! shared code with the engine in `cfc::verify`: states are hashed whole
//! into a `HashMap`, successors come straight from the public
//! [`Process`] / [`Memory::apply_in`] / [`Status`] API, and "can reach
//! quiescence" is a backward closure over recorded predecessor lists.
//!
//! The transition relation is the paper's interleaving model as the
//! engine documents it: from a state, every `Running` process may take
//! its next step (`Halt` marks it `Done`, `Internal` advances it, an
//! operation applies to the register image), and while crashes remain
//! the adversary may instead crash any `Running` process. A state with
//! no `Running` process is quiescent (a terminal).

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::hash::Hash;

use cfc::core::{Memory, OpResult, Process, Status, Step, Value};

/// One global state: process local states, register values, statuses
/// and the remaining crash budget.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct State<P> {
    pub procs: Vec<P>,
    pub values: Vec<Value>,
    pub status: Vec<Status>,
    pub crashes_left: u32,
}

impl<P: Process> State<P> {
    /// No process is still running.
    pub fn quiescent(&self) -> bool {
        !self.status.contains(&Status::Running)
    }

    /// The multiset of decided outputs.
    pub fn outputs(&self) -> BTreeMap<u64, usize> {
        super::output_multiset(&self.procs)
    }
}

/// Everything the reference search reached.
#[derive(Debug)]
pub struct Reference<P> {
    /// Every reachable state, in discovery order (the initial state
    /// first).
    pub states: Vec<State<P>>,
    /// Transitions out of every reachable state (steps plus crashes).
    pub transitions: u64,
    /// Quiescent states.
    pub terminals: usize,
    /// Indices into `states` of the states from which no path reaches
    /// a quiescent state.
    pub stuck: Vec<usize>,
}

impl<P: Process> Reference<P> {
    /// The output multisets of the reached states that satisfy `pred`.
    pub fn output_multisets(
        &self,
        pred: impl Fn(&State<P>) -> bool,
    ) -> BTreeSet<BTreeMap<u64, usize>> {
        self.states
            .iter()
            .filter(|s| pred(s))
            .map(State::outputs)
            .collect()
    }
}

/// Every successor of `state`: for each running process in pid order,
/// its crash (while crashes remain), then its step.
fn successors<P: Process + Clone>(memory: &Memory, state: &State<P>) -> Vec<State<P>> {
    let mut out = Vec::new();
    for i in 0..state.procs.len() {
        if state.status[i] != Status::Running {
            continue;
        }
        if state.crashes_left > 0 {
            let mut crashed = state.clone();
            crashed.status[i] = Status::Crashed;
            crashed.crashes_left -= 1;
            out.push(crashed);
        }
        let mut next = state.clone();
        match next.procs[i].current() {
            Step::Halt => next.status[i] = Status::Done,
            Step::Internal => next.procs[i].advance(OpResult::None),
            Step::Op(op) => {
                let result = memory
                    .apply_in(&mut next.values, &op)
                    .expect("the model issues only valid operations");
                next.procs[i].advance(result);
            }
        }
        out.push(next);
    }
    out
}

/// Searches every state reachable from `procs` over `memory`'s initial
/// register image with up to `max_crashes` crashes.
///
/// # Panics
///
/// Panics once more than `max_states` states are reached, so a model
/// that outgrows the reference fails loudly instead of exhausting
/// memory.
pub fn search<P>(
    memory: &Memory,
    procs: Vec<P>,
    max_crashes: u32,
    max_states: usize,
) -> Reference<P>
where
    P: Process + Clone + Eq + Hash,
{
    let root = State {
        status: vec![Status::Running; procs.len()],
        values: memory.snapshot().to_vec(),
        procs,
        crashes_left: max_crashes,
    };
    let mut ids: HashMap<State<P>, usize> = HashMap::new();
    let mut states = vec![root.clone()];
    ids.insert(root, 0);
    let mut preds: Vec<Vec<usize>> = vec![Vec::new()];
    let mut transitions = 0u64;
    let mut cursor = 0;
    while cursor < states.len() {
        for next in successors(memory, &states[cursor]) {
            transitions += 1;
            let id = match ids.get(&next) {
                Some(&id) => id,
                None => {
                    let id = states.len();
                    assert!(
                        id < max_states,
                        "reference search outgrew {max_states} states"
                    );
                    ids.insert(next.clone(), id);
                    states.push(next);
                    preds.push(Vec::new());
                    id
                }
            };
            preds[id].push(cursor);
        }
        cursor += 1;
    }

    // Backward closure from the quiescent states.
    let mut can_finish: Vec<bool> = states.iter().map(State::quiescent).collect();
    let terminals = can_finish.iter().filter(|&&q| q).count();
    let mut work: Vec<usize> = (0..states.len()).filter(|&i| can_finish[i]).collect();
    while let Some(s) = work.pop() {
        for &p in &preds[s] {
            if !can_finish[p] {
                can_finish[p] = true;
                work.push(p);
            }
        }
    }
    let stuck = (0..states.len()).filter(|&i| !can_finish[i]).collect();
    Reference {
        states,
        transitions,
        terminals,
        stuck,
    }
}
