//! The shared state-graph engine and the **unified traversal driver**
//! behind every exhaustive checker.
//!
//! All three search drivers in this crate — the DFS safety explorer
//! ([`crate::explore::explore`]), the BFS progress checker
//! ([`crate::explore::check_progress`]), and the fair-cycle liveness
//! builder in [`crate::liveness`] — walk the same state graph: global
//! states (process local states, register values, liveness statuses,
//! remaining crash budget) connected by process steps and crash
//! transitions. This module owns everything they share so the graph
//! semantics cannot drift apart:
//!
//! * [`Node`] — the global-state representation and its successor
//!   function ([`expand_step`], crash branching inside [`Engine::expand`]);
//! * canonicalization under a [`SymmetryGroup`] ([`canonicalize`],
//!   [`state_fingerprint`]) for symmetry-reduced visited keys;
//! * ample-set selection for partial-order reduction, parameterized by
//!   [`AmpleMode`]: the safety explorer needs the full C1–C3 conditions,
//!   while progress checking can drop the invisibility condition C2
//!   (quiescence is a property of the graph, not of the per-state
//!   observation) and instead relies on the *fresh-successor* proviso —
//!   see the soundness notes on [`AmpleMode::Progress`];
//! * [`GraphBuilder`] — the traversal driver, with one entry point per
//!   search. [`GraphBuilder::run_dfs`] is the safety DFS: it memoizes
//!   concrete states keyed canonically at pop time, invokes per-state
//!   checks, and always runs under [`AmpleMode::Safety`].
//!   [`GraphBuilder::build_graph`] is the BFS behind progress and
//!   liveness: it interns one canonical representative per orbit and
//!   returns the labeled [`BuiltGraph`]; the [`GraphProperty`] it is
//!   handed fixes the ample mode, the telemetry phase, the normalizer,
//!   and the service labels. Symmetry, reductions, the crash budget, and
//!   every limit come from the [`ExploreConfig`]. The interning
//!   discipline, crash branching, budget accounting, and reduction
//!   bookkeeping live here exactly once, over the one packed visited
//!   store of `crate::store`;
//! * witness re-derivation ([`Engine::derive_stem`],
//!   [`Engine::derive_path`]) — the one routine that turns a path of
//!   canonical graph nodes back into a concrete, replayable schedule,
//!   for progress stuck states, liveness lassos, and bypass witnesses
//!   alike.

use std::cell::OnceCell;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::rc::Rc;

use cfc_core::{
    Footprint, Memory, OpResult, Process, ProcessId, RegisterSet, Status, Step, SymmetryGroup,
    Value,
};

use crate::analysis::{FutureIndex, MayAccessMode};
pub(crate) use crate::csr::GEdge;
use crate::csr::{EdgeArena, ReversedCsr};
use crate::dynamic::{observed_conflict, sleep_sets_active, SleepTable};
use crate::explore::{ExploreConfig, ExploreError, ScheduleStep, StateView, Violation};
use crate::store::{NodeStore, VisitOutcome};
use crate::telemetry::{self, Phase, Sample, StoreFootprint, Telemetry};

/// A global state of the explored system.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub(crate) struct Node<P> {
    /// Process local states, indexed by pid.
    pub(crate) procs: Vec<P>,
    /// The shared-register values (the memory image).
    pub(crate) values: Vec<Value>,
    /// Per-process liveness statuses.
    pub(crate) status: Vec<Status>,
    /// How many crash transitions the adversary may still inject.
    pub(crate) crashes_left: u32,
}

/// The fingerprint used to canonically order interchangeable processes:
/// the process's own [`Process::fingerprint`] if it provides one, a hash
/// of its full state otherwise, mixed with its liveness status.
pub(crate) fn state_fingerprint<P: Process + Hash>(p: &P, status: Status) -> u64 {
    let mut h = DefaultHasher::new();
    match p.fingerprint() {
        Some(fp) => fp.hash(&mut h),
        None => p.hash(&mut h),
    }
    status.hash(&mut h);
    h.finish()
}

pub(crate) fn full_hash<T: Hash>(t: &T) -> u64 {
    let mut h = DefaultHasher::new();
    t.hash(&mut h);
    h.finish()
}

/// The orbit representative of a node: within every symmetry class, the
/// (local state, status) pairs are rearranged into fingerprint order.
///
/// Sorting is *stable*, so fingerprint collisions between distinct local
/// states can only forfeit a merge, never create an unsound one: two
/// nodes canonicalize equally iff they are genuine class-respecting
/// permutations of one another.
pub(crate) fn canonicalize<P: Process + Clone + Hash>(
    node: &Node<P>,
    group: &SymmetryGroup,
) -> Node<P> {
    let mut canon = node.clone();
    for class in group.classes() {
        let mut order: Vec<usize> = class.clone();
        // Each fingerprint is computed once (SipHash is not cheap), and
        // the sort is stable: ties keep their class order.
        order.sort_by_cached_key(|&i| state_fingerprint(&node.procs[i], node.status[i]));
        for (&dst, &src) in class.iter().zip(order.iter()) {
            if dst != src {
                canon.procs[dst] = node.procs[src].clone();
                canon.status[dst] = node.status[src];
            }
        }
    }
    canon
}

/// Computes the successor of `node` when process `i` takes its next step.
pub(crate) fn expand_step<P: Process + Clone>(
    node: &Node<P>,
    i: usize,
    template: &Memory,
) -> Result<Node<P>, ExploreError> {
    let mut next = node.clone();
    match next.procs[i].current() {
        Step::Halt => next.status[i] = Status::Done,
        Step::Internal => next.procs[i].advance(OpResult::None),
        Step::Op(op) => {
            // Runtime analog of the static hook lint (`crate::analysis`):
            // the executed step must be covered by the declared
            // `may_access` at the pre-state. Debug builds only — this
            // catches hook drift the solo analysis cannot see, such as a
            // normalizer rewriting a process into a control point its
            // hook never anticipated.
            #[cfg(debug_assertions)]
            {
                let mut declared = RegisterSet::new();
                if node.procs[i].may_access(&mut declared) {
                    let fp = Footprint::of_op(&op, template.layout());
                    debug_assert!(
                        fp.reads.is_subset(&declared) && fp.writes.is_subset(&declared),
                        "process {i}: step footprint {fp:?} escapes its declared may_access set"
                    );
                }
            }
            let result = template
                .apply_in(&mut next.values, &op)
                .map_err(ExploreError::Memory)?;
            next.procs[i].advance(result);
        }
    }
    Ok(next)
}

/// The successor of `node` when the adversary crashes process `i`.
fn crash_successor<P: Clone>(node: &Node<P>, i: usize) -> Node<P> {
    let mut next = node.clone();
    next.status[i] = Status::Crashed;
    next.crashes_left -= 1;
    next
}

/// A borrowed state normalizer (see `cfc_mutex::StateNormalizer` for the
/// owned form and the bisimulation contract).
pub(crate) type NormalizerFn<'a, P> = &'a dyn Fn(&mut [P], &mut [Value]);

/// A borrowed service predicate over the stepping process's
/// `(before, after)` local states.
pub(crate) type ServedFn<'a, P> = &'a dyn Fn(&P, &P) -> bool;

/// Applies `normalizer`, if there is one, to `node` in place.
fn normalize<P>(normalizer: Option<NormalizerFn<'_, P>>, node: &mut Node<P>) {
    if let Some(f) = normalizer {
        f(&mut node.procs, &mut node.values);
    }
}

/// Which property the search preserves — this decides how aggressive the
/// ample-set selection may be.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum AmpleMode {
    /// Per-state observations (sections and outputs) must be preserved up
    /// to stuttering: the classical conditions C1 (independence), C2
    /// (invisibility), and C3 (cycle proviso) all apply. Used by the DFS
    /// safety explorer.
    Safety,
    /// Only *reachability of quiescence* must be preserved, in both
    /// directions. The invisibility condition C2 is dropped — quiescence
    /// is a property of the graph shape, not of sections or outputs, so a
    /// visible step is as good an ample candidate as an invisible one.
    ///
    /// Soundness (sketch; the full argument is in the README):
    ///
    /// * *No false alarms.* Ample sets here are singletons, and C1 makes
    ///   the ample step independent of every step any other running
    ///   process can ever take, so it commutes with any path to
    ///   quiescence: if a state can quiesce in the full graph, its single
    ///   ample successor still can, by induction on the path length.
    /// * *No missed violations.* The fresh-successor proviso (the ample
    ///   successor must never have been seen) guarantees every cycle of
    ///   the reduced graph contains a fully expanded state, so no enabled
    ///   transition is deferred forever: any full-graph run can be
    ///   mimicked, up to commuting deferred ample steps past it, by a
    ///   reduced run reaching a state from which the original state's
    ///   fate (stuck or not) is unchanged.
    Progress,
    /// Fair infinite behaviors (lassos) must be preserved: the liveness
    /// checker hunts cycles in which a pending process is overtaken
    /// forever, observing sections, outputs, **and statuses** at every
    /// state of the loop. Invisibility is therefore *strict* — unlike
    /// [`AmpleMode::Safety`], a `Halt` step does not qualify (it changes
    /// the stepping process's status, which the fairness analysis reads)
    /// — and the cycle-closing condition C3 is kept verbatim: an ample
    /// successor must be fresh, so every cycle of the reduced graph
    /// contains a fully expanded state and no process's steps (in
    /// particular, no self-looping spin of a starved victim) are pruned
    /// from every state of a cycle. Fair lassos reported on the reduced
    /// graph are re-derived concretely and validated step by step, so a
    /// `Starvable` verdict never rests on the reduction; a
    /// starvation-free verdict additionally leans on the differential
    /// suite in `tests/liveness.rs` (see the README's "when to trust a
    /// verdict" notes).
    Liveness,
}

/// The successors of one node, as chosen by the engine.
#[derive(Debug)]
pub(crate) enum Expansion<P> {
    /// Partial-order reduction proved one process sufficient: its single
    /// successor stands for the whole enabled set.
    Ample {
        /// The process that stepped.
        pid: ProcessId,
        /// Its successor state.
        succ: Node<P>,
        /// The canonical form of `succ`, already computed for the
        /// fresh-successor proviso when symmetry reduction is on — so
        /// callers that intern canonically need not recanonicalize.
        canon: Option<Node<P>>,
    },
    /// Full expansion: for every runnable process, its step successor —
    /// preceded by its crash successor whenever crashes remain.
    Full(Vec<(ScheduleStep, Node<P>)>),
}

/// The result of an ample selection: the winning candidate's process
/// index paired with its successor's canonical form (already computed
/// for the fresh-successor proviso when symmetry reduction is on), or
/// `None` when the state must be fully expanded.
type AmpleChoice<P> = Option<(usize, Option<Node<P>>)>;

/// One process's future accesses at the state under selection,
/// resolved once per state.
#[derive(Default)]
struct FutureSets {
    /// Whether an over-approximation is known at all (an unknown one
    /// disqualifies every candidate that would need it).
    known: bool,
    /// The union of every register the process may still access.
    set: RegisterSet,
    /// Whether `split` holds the automaton's read/write split (dynamic
    /// mode, when the future index resolves the process).
    has_split: bool,
    split: Footprint,
}

/// Reused per-state scratch of the ample selection: future-access sets
/// and the successors computed while testing candidates (handed to the
/// full expansion on fallback, so no transition is computed twice).
struct AmpleScratch<P> {
    may: Vec<FutureSets>,
    succ: Vec<Option<Node<P>>>,
}

impl<P> AmpleScratch<P> {
    fn new(n: usize) -> Self {
        AmpleScratch {
            may: (0..n).map(|_| FutureSets::default()).collect(),
            succ: (0..n).map(|_| None).collect(),
        }
    }
}

/// The shared state-graph engine: owns the memory template, the symmetry
/// group, the reduction configuration, and the ample-selection scratch.
pub(crate) struct Engine<P> {
    template: Memory,
    /// The memory handed to per-state checks, reloaded from each state's
    /// register values in turn.
    view: Memory,
    symmetry: SymmetryGroup,
    config: ExploreConfig,
    use_sym: bool,
    scratch: AmpleScratch<P>,
    /// Per-location future-access sets from the solo control automata,
    /// installed by the traversal entry points when the configuration
    /// asks for [`MayAccessMode::Automaton`]; `None` means ample
    /// selection consults the declared `may_access` hooks only.
    future: Option<FutureIndex<P>>,
}

impl<P: Process + Clone + Eq + Hash> Engine<P> {
    /// Builds an engine for `n` processes over `memory`.
    ///
    /// # Panics
    ///
    /// Panics if `symmetry` is defined over a different process count.
    pub(crate) fn new(memory: Memory, symmetry: SymmetryGroup, config: ExploreConfig, n: usize) -> Self {
        assert_eq!(
            symmetry.n(),
            n,
            "symmetry group is over {} processes, system has {n}",
            symmetry.n()
        );
        let use_sym = config.symmetry && !symmetry.is_trivial();
        Engine {
            view: memory.clone(),
            template: memory,
            symmetry,
            config,
            use_sym,
            scratch: AmpleScratch::new(n),
            future: None,
        }
    }

    /// Extracts and installs the future-access index of `procs`, in its
    /// own telemetry span, when the configuration asks for
    /// automaton-derived future sets — both the static
    /// [`MayAccessMode::Automaton`] and the dynamic mode build on the same
    /// per-location index. Meaningful only with partial-order reduction
    /// on; a graph build clears `por` for a normalizer before calling.
    fn install_future_index(&mut self, tel: &Telemetry, procs: &[P]) {
        if self.config.por && self.config.may_access != MayAccessMode::Declared {
            let span = tel.span(Phase::ExtractAutomaton);
            let index = FutureIndex::build(self.template.layout(), procs);
            span.finish(Sample {
                states: index.len() as u64,
                ..Sample::default()
            });
            self.future = Some(index);
        }
    }

    /// The initial node: all processes running, the template memory image,
    /// the configured crash budget.
    pub(crate) fn root(&self, procs: Vec<P>) -> Node<P> {
        Node {
            status: vec![Status::Running; procs.len()],
            values: self.template.snapshot().to_vec(),
            procs,
            crashes_left: self.config.max_crashes,
        }
    }

    /// The memory template (layout + atomicity) states are expanded over.
    pub(crate) fn template(&self) -> &Memory {
        &self.template
    }

    /// Whether symmetry reduction is effective (enabled and non-trivial).
    pub(crate) fn use_sym(&self) -> bool {
        self.use_sym
    }

    /// A [`Memory`] carrying `node`'s register values (valid until the
    /// next call).
    pub(crate) fn memory_of(&mut self, node: &Node<P>) -> &Memory {
        self.view.load_snapshot(&node.values);
        &self.view
    }

    /// The canonical (orbit-representative) form of `node` — `node`
    /// itself, cloned, when symmetry reduction is off.
    pub(crate) fn canonical_of(&self, node: &Node<P>) -> Node<P> {
        if self.use_sym {
            canonicalize(node, &self.symmetry)
        } else {
            node.clone()
        }
    }

    /// Whether the concrete node `concrete` falls into the orbit whose
    /// canonical representative is `canon`.
    pub(crate) fn matches_canonical(&self, concrete: &Node<P>, canon: &Node<P>) -> bool {
        if self.use_sym {
            canonicalize(concrete, &self.symmetry) == *canon
        } else {
            concrete == canon
        }
    }

    /// The successor of `cur` under one scheduling decision, normalized
    /// like every successor the graph build interns.
    pub(crate) fn successor(
        &self,
        cur: &Node<P>,
        step: ScheduleStep,
        normalizer: Option<NormalizerFn<'_, P>>,
    ) -> Result<Node<P>, ExploreError> {
        let mut next = match step {
            ScheduleStep::Step(p) => expand_step(cur, p.index(), &self.template)?,
            ScheduleStep::Crash(p) => crash_successor(cur, p.index()),
        };
        normalize(normalizer, &mut next);
        Ok(next)
    }

    /// The first scheduling decision out of the concrete state `cur`
    /// whose successor falls into the orbit of `target`: the hinted
    /// process first, then every runnable process in pid order, each
    /// step tried before its crash.
    fn derive_step(
        &self,
        cur: &Node<P>,
        target: &Node<P>,
        hint: Option<usize>,
        normalizer: Option<NormalizerFn<'_, P>>,
    ) -> Result<(ScheduleStep, Node<P>), ExploreError> {
        let n = cur.status.len();
        let order = hint
            .into_iter()
            .chain((0..n).filter(|&i| Some(i) != hint))
            .filter(|&i| cur.status[i].runnable());
        for i in order {
            let pid = ProcessId::new(i as u32);
            let crash = (cur.crashes_left > 0).then_some(ScheduleStep::Crash(pid));
            for step in std::iter::once(ScheduleStep::Step(pid)).chain(crash) {
                let succ = self.successor(cur, step, normalizer)?;
                if self.matches_canonical(&succ, target) {
                    return Ok((step, succ));
                }
            }
        }
        unreachable!("every edge of the canonical quotient has a concrete witness")
    }

    /// Re-derives the concrete run that follows `hops` — `(node, pid
    /// hint)` pairs of `g` — from the concrete state `cur`, appending
    /// its decisions to `schedule` and returning the state it reaches.
    ///
    /// Because `g` stores canonical representatives, an edge `a → b`
    /// only promises that *some* step of *some* member of orbit `a`
    /// lands in orbit `b`; each hop therefore takes the first concrete
    /// step (or crash) whose successor falls into the next orbit. One
    /// always exists, because permuting a symmetry class is an
    /// automorphism of the transition relation. This is the only place
    /// a graph path becomes a schedule: progress stuck states, liveness
    /// lassos, and bypass witnesses are all re-derived through it.
    ///
    /// # Errors
    ///
    /// A memory error while stepping a concrete state.
    pub(crate) fn derive_path(
        &self,
        g: &BuiltGraph<P>,
        normalizer: Option<NormalizerFn<'_, P>>,
        mut cur: Node<P>,
        hops: impl IntoIterator<Item = (u32, Option<usize>)>,
        schedule: &mut Vec<ScheduleStep>,
    ) -> Result<Node<P>, ExploreError> {
        for (target, hint) in hops {
            let (step, next) = self.derive_step(&cur, &g.node(target), hint, normalizer)?;
            schedule.push(step);
            cur = next;
        }
        Ok(cur)
    }

    /// Re-derives a concrete schedule from the initial state of `procs`
    /// to (an orbit sibling of) node `id` of `g`, along the creator
    /// tree, returning the schedule and the concrete state it reaches.
    ///
    /// # Errors
    ///
    /// A memory error while stepping a concrete state.
    pub(crate) fn derive_stem(
        &self,
        g: &BuiltGraph<P>,
        normalizer: Option<NormalizerFn<'_, P>>,
        procs: Vec<P>,
        id: u32,
    ) -> Result<(Vec<ScheduleStep>, Node<P>), ExploreError> {
        // Creator ids strictly decrease, so the chain ends at the root.
        let mut chain = vec![id];
        while let Some(&v) = chain.last().filter(|&&v| v != 0) {
            chain.push(g.first_pred[v as usize]);
        }
        let mut root = self.root(procs);
        normalize(normalizer, &mut root);
        let mut stem = Vec::with_capacity(chain.len() - 1);
        let hops = chain.iter().rev().skip(1).map(|&v| (v, None));
        let end = self.derive_path(g, normalizer, root, hops, &mut stem)?;
        Ok((stem, end))
    }

    /// Computes the successors of `node` (whose runnable processes are
    /// `runnable`): a single ample successor when partial-order reduction
    /// applies, the full enabled set (crash transitions first) otherwise.
    ///
    /// `visited` answers whether a (canonical) node has already been seen;
    /// the ample conditions consult it for the cycle/fresh-successor
    /// proviso. Crash branching disables the reduction at any state that
    /// can still crash (a crash commutes with nothing its victim would
    /// do).
    pub(crate) fn expand<F>(
        &mut self,
        node: &Node<P>,
        runnable: &[usize],
        mode: AmpleMode,
        visited: F,
    ) -> Result<Expansion<P>, ExploreError>
    where
        F: Fn(&Node<P>) -> bool,
    {
        if self.config.por && node.crashes_left == 0 && runnable.len() > 1 {
            if let Some((i, canon)) = self.select_ample(node, runnable, mode, &visited)? {
                let succ = self.scratch.succ[i].take().expect("ample successor cached");
                for s in self.scratch.succ.iter_mut() {
                    *s = None;
                }
                return Ok(Expansion::Ample {
                    pid: ProcessId::new(i as u32),
                    succ,
                    canon,
                });
            }
        }
        let crashing = node.crashes_left > 0;
        let mut out = Vec::with_capacity(runnable.len() * if crashing { 2 } else { 1 });
        for &i in runnable {
            if crashing {
                let next = crash_successor(node, i);
                out.push((ScheduleStep::Crash(ProcessId::new(i as u32)), next));
            }
            // Reuse any successor the ample selection already computed for
            // this candidate instead of recomputing it.
            let next = match self.scratch.succ[i].take() {
                Some(cached) => cached,
                None => expand_step(node, i, &self.template)?,
            };
            out.push((ScheduleStep::Step(ProcessId::new(i as u32)), next));
        }
        Ok(Expansion::Full(out))
    }

    /// Selects an ample process at `node`, leaving its (already computed)
    /// successor in the scratch, or returns `None` when the state must be
    /// fully expanded.
    ///
    /// A candidate `i` is ample when its next step is
    /// 1. independent of every step any *other* running process can ever
    ///    take — trivially so for local (`Internal`/`Halt`) steps, and via
    ///    disjointness of the op footprint from the others'
    ///    [`Process::may_access`] over-approximations otherwise (an
    ///    unknown over-approximation disqualifies the candidate);
    /// 2. under [`AmpleMode::Safety`] only, invisible: the stepping
    ///    process's section and output are unchanged (halting changes
    ///    only the liveness status, which `state_check` must not read
    ///    under reduction — see the `explore` module docs);
    /// 3. fresh: its successor has not been visited yet. For the DFS this
    ///    is the classical C3 cycle proviso; for the BFS progress graph
    ///    it is the strengthened fresh-successor proviso — either way,
    ///    every cycle of the reduced graph contains a fully expanded
    ///    state, so no transition is ignored forever.
    fn select_ample<F>(
        &mut self,
        node: &Node<P>,
        runnable: &[usize],
        mode: AmpleMode,
        visited: &F,
    ) -> Result<AmpleChoice<P>, ExploreError>
    where
        F: Fn(&Node<P>) -> bool,
    {
        // Future-access over-approximations, computed once per state into
        // the reused scratch buffers. Under `MayAccessMode::Automaton`
        // the per-location sets of the solo control automata take
        // precedence (sharper and known for more states); any state the
        // index cannot resolve falls back to the declared hook. Dynamic
        // mode also keeps the read/write split of the same index entry.
        let future = self.future.as_ref();
        let dynamic = self.config.may_access == MayAccessMode::Dynamic;
        for &j in runnable {
            let f = &mut self.scratch.may[j];
            f.set.clear();
            f.has_split = false;
            f.known = match future.and_then(|idx| idx.entry_of(&node.procs[j])) {
                Some(entry) => {
                    f.set.union_with(&entry.union);
                    if dynamic {
                        f.split.reads.clear();
                        f.split.reads.union_with(&entry.split.reads);
                        f.split.writes.clear();
                        f.split.writes.union_with(&entry.split.writes);
                        f.has_split = true;
                    }
                    true
                }
                None => node.procs[j].may_access(&mut f.set),
            };
        }
        let layout = self.template.layout();
        'candidates: for &i in runnable {
            let step = node.procs[i].current();
            // Condition 1: independence with all concurrent futures.
            if let Step::Op(op) = &step {
                let fp = Footprint::of_op(op, layout);
                for &j in runnable {
                    if j == i {
                        continue;
                    }
                    // Dynamic mode sharpens C1 where the automaton keeps
                    // the read/write split of the future fixpoint: the
                    // candidate's step must be *independent* of every
                    // future access of `j` — a merely shared future
                    // *read* no longer disqualifies. Sound because
                    // independence against the union of a process's
                    // future footprints implies pairwise independence
                    // with each future step.
                    let f = &self.scratch.may[j];
                    let independent = if f.has_split {
                        fp.independent(&f.split)
                    } else {
                        f.known && !fp.touches(&f.set)
                    };
                    if !independent {
                        continue 'candidates;
                    }
                }
            }
            // Successors computed here are kept in the scratch: if no
            // ample candidate survives, the full expansion reuses them
            // instead of recomputing.
            let succ = expand_step(node, i, &self.template)?;
            let succ = self.scratch.succ[i].insert(succ);
            // Condition 2: invisibility of the step — required whenever
            // per-state observations must be preserved. Safety checks
            // never read liveness statuses under reduction, so `Halt`
            // steps are exempt there; the liveness analysis reads them,
            // so under `Liveness` a `Halt` step is visible by definition.
            let visible = |succ: &Node<P>| {
                succ.procs[i].section() != node.procs[i].section()
                    || succ.procs[i].output() != node.procs[i].output()
            };
            match mode {
                AmpleMode::Safety if !matches!(step, Step::Halt) && visible(succ) => {
                    continue 'candidates;
                }
                AmpleMode::Liveness if matches!(step, Step::Halt) || visible(succ) => {
                    continue 'candidates;
                }
                _ => {}
            }
            // Condition 3: the cycle / fresh-successor proviso. The
            // canonical form computed here rides along with the winner so
            // canonically-interning callers need not recompute it.
            if self.use_sym {
                let canon = canonicalize(succ, &self.symmetry);
                if visited(&canon) {
                    continue 'candidates;
                }
                return Ok(Some((i, Some(canon))));
            }
            if visited(succ) {
                continue 'candidates;
            }
            return Ok(Some((i, None)));
        }
        Ok(None)
    }
}

// ---------------------------------------------------------------------
// The unified traversal driver.
// ---------------------------------------------------------------------

/// The property a [`GraphBuilder::build_graph`] traversal serves. It
/// fixes what differs between the two graph-building checkers: the
/// ample-set conditions, the telemetry phase, the normalizer, and the
/// service labels on edges.
pub(crate) enum GraphProperty<'a, P> {
    /// Possibility of progress ([`crate::explore::check_progress`]):
    /// [`AmpleMode::Progress`], [`Phase::ProgressBfs`], no normalizer, no
    /// service labels.
    Progress,
    /// Fair-cycle liveness ([`crate::liveness`]): [`AmpleMode::Liveness`],
    /// [`Phase::LivenessGraph`], service labels on edges, and an optional
    /// behavioral-quotient normalizer.
    Liveness {
        /// Applied to the root and to every successor before interning
        /// (see `cfc_mutex::StateNormalizer` for the bisimulation
        /// contract). Partial-order reduction is force-disabled while one
        /// is active — the ample bookkeeping cannot see through the
        /// abstraction — and re-derived schedules replay *modulo* the
        /// quotient: same sections, outputs, and statuses, not
        /// necessarily byte-equal register values.
        normalizer: Option<NormalizerFn<'a, P>>,
        /// The service predicate `(before, after)` on the stepping
        /// process, recorded on forward edges ([`GEdge::served`]).
        served: ServedFn<'a, P>,
    },
}

/// The canonical state graph a BFS traversal produces: one interned
/// representative per orbit (held packed in the [`NodeStore`]), labeled
/// forward edges in CSR form, the creator tree, and terminal flags.
pub(crate) struct BuiltGraph<P> {
    /// Canonical orbit representatives in discovery (BFS) order, one
    /// single-copy record per orbit; decode on demand via
    /// [`BuiltGraph::node`].
    pub(crate) store: NodeStore<P>,
    /// Labeled forward edges in CSR form, packed 6 bytes each in a
    /// spillable arena.
    pub(crate) edges: EdgeArena,
    /// The node that first generated each node (`u32::MAX` at the root);
    /// always strictly smaller than its child, so creator chains
    /// terminate at the root — the predecessor tree schedules are
    /// reconstructed from.
    pub(crate) first_pred: Vec<u32>,
    /// Whether the node is quiescent (no process runnable).
    pub(crate) terminal: Vec<bool>,
    /// Memoized reversed adjacency (built on first use; the historical
    /// implementation re-allocated a `Vec<Vec<u32>>` per call, doubling
    /// peak edge memory every time the progress checker asked).
    rev: OnceCell<ReversedCsr>,
}

impl<P> BuiltGraph<P> {
    /// The number of interned nodes.
    pub(crate) fn len(&self) -> usize {
        self.first_pred.len()
    }

    /// The reversed adjacency of the recorded forward edges, memoized,
    /// in the exact order the historical progress checker accumulated
    /// its reversed edges: predecessors appear in discovery order, and
    /// the first predecessor of every non-root node is its creator.
    pub(crate) fn reversed(&self) -> &ReversedCsr {
        self.rev.get_or_init(|| self.edges.reversed(self.len()))
    }
}

impl<P: Process + Clone + Eq + Hash> BuiltGraph<P> {
    /// Decodes node `id` out of the store (an owned copy; the packed
    /// backend materializes states transiently).
    pub(crate) fn node(&self, id: u32) -> Node<P> {
        self.store.node(id)
    }
}

impl<P> std::fmt::Debug for BuiltGraph<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BuiltGraph")
            .field("nodes", &self.len())
            .field("edges", &self.edges.total_edges())
            .finish()
    }
}

/// Statistics of one [`GraphBuilder`] traversal, in the shared shape the
/// public stat types (`ExploreStats`, `ProgressStats`, `LivenessStats`)
/// are projected from.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct TraversalStats {
    pub(crate) states: usize,
    pub(crate) transitions: u64,
    pub(crate) terminals: usize,
    pub(crate) states_pruned_por: u64,
    pub(crate) orbits_merged: u64,
    /// Transitions skipped by dynamic sleep sets (safety DFS under
    /// [`MayAccessMode::Dynamic`] only; zero everywhere else).
    pub(crate) transitions_slept: u64,
    /// Store/index/edge bytes and spill counts (`edge_bytes` is zero
    /// for the DFS, which records no graph).
    pub(crate) footprint: StoreFootprint,
    /// Wall time of the traversal, measured by the telemetry clock
    /// (ambient, so tests can inject a deterministic one).
    pub(crate) wall_ns: u64,
}

impl TraversalStats {
    /// These counters as a telemetry sample, at the given frontier length
    /// and DFS depth (both 0 for a final sample).
    pub(crate) fn sample(&self, frontier: u64, depth: u64) -> Sample {
        Sample {
            states: self.states as u64,
            transitions: self.transitions,
            frontier,
            depth,
            states_pruned_por: self.states_pruned_por,
            orbits_merged: self.orbits_merged,
            transitions_slept: self.transitions_slept,
            footprint: self.footprint,
        }
    }

    /// Adds another traversal's counters into these (the liveness checker
    /// sums its per-victim graph builds).
    pub(crate) fn accumulate(&mut self, other: &TraversalStats) {
        self.states += other.states;
        self.transitions += other.transitions;
        self.terminals += other.terminals;
        self.states_pruned_por += other.states_pruned_por;
        self.orbits_merged += other.orbits_merged;
        self.transitions_slept += other.transitions_slept;
        self.footprint.accumulate(&other.footprint);
        self.wall_ns += other.wall_ns;
    }
}

/// The footprint of a traversal's visited store plus what rides beside
/// it: the DFS sleep table (counted as index bytes) or the BFS edges.
fn footprint<P>(
    store: &NodeStore<P>,
    sleep_bytes: u64,
    edges: Option<&EdgeArena>,
) -> StoreFootprint {
    StoreFootprint {
        arena_bytes: store.arena_bytes(),
        index_bytes: store.index_bytes() + sleep_bytes,
        edge_bytes: edges.map_or(0, EdgeArena::heap_bytes),
        spilled_buckets: store.spilled_buckets() + edges.map_or(0, EdgeArena::spilled_segs),
    }
}

/// One link of a DFS schedule, shared structurally between stack entries:
/// the historical per-entry `Vec<ScheduleStep>` clone cost O(depth) per
/// *pushed successor* (O(depth²) memory across one expansion chain); a
/// parent pointer costs O(1) and materializes only on violation.
struct PathLink {
    step: ScheduleStep,
    /// Steps from the root (parent depth + 1): telemetry snapshots
    /// report the current DFS path depth without walking the chain.
    depth: u32,
    parent: Option<Rc<PathLink>>,
}

impl Drop for PathLink {
    // Unlink iteratively: the default recursive drop would overflow the
    // call stack on search paths millions of steps deep.
    fn drop(&mut self) {
        let mut cur = self.parent.take();
        while let Some(rc) = cur {
            match Rc::try_unwrap(rc) {
                Ok(mut link) => cur = link.parent.take(),
                Err(_) => break,
            }
        }
    }
}

/// Filters a sleep mask after a step with footprint `taken` fires at
/// `node`: every sleeping process whose next step races with the taken
/// step wakes up (its deferred step no longer commutes past the trace).
/// Bits of processes that are not runnable are dropped defensively —
/// they cannot arise, since a process's status only changes on its own
/// steps and crash budgets disable sleeping.
fn wake_conflicting<P: Process + Clone>(
    mask: u32,
    node: &Node<P>,
    layout: &cfc_core::Layout,
    taken: &Footprint,
    drop_races: Option<cfc_core::RegisterId>,
) -> u32 {
    let mut out = 0u32;
    let mut rest = mask;
    while rest != 0 {
        let p = rest.trailing_zeros() as usize;
        rest &= rest - 1;
        if p < node.procs.len()
            && node.status[p].runnable()
            && !observed_conflict(
                &Footprint::of_step(&node.procs[p].current(), layout),
                taken,
                drop_races,
            )
        {
            out |= 1 << p;
        }
    }
    out
}

/// Materializes the schedule a path link encodes, root-first.
fn materialize_path(link: &Option<Rc<PathLink>>) -> Vec<ScheduleStep> {
    let mut out = Vec::new();
    let mut cur = link.as_deref();
    while let Some(l) = cur {
        out.push(l.step);
        cur = l.parent.as_deref();
    }
    out.reverse();
    out
}

/// The unified traversal driver: an [`Engine`] running the one canonical
/// search loop every checker in this crate is a client of. Symmetry,
/// reductions, the crash budget, and every limit come from the engine's
/// [`ExploreConfig`]; each entry point fixes the rest.
pub(crate) struct GraphBuilder<P> {
    engine: Engine<P>,
}

impl<P: Process + Clone + Eq + Hash> GraphBuilder<P> {
    /// Builds a driver for `n` processes over `memory`, keying visited
    /// states canonically under `symmetry` when `config.symmetry` is on.
    ///
    /// # Panics
    ///
    /// Panics if `symmetry` is over a different process count.
    pub(crate) fn new(
        memory: Memory,
        config: ExploreConfig,
        symmetry: SymmetryGroup,
        n: usize,
    ) -> Self {
        GraphBuilder {
            engine: Engine::new(memory, symmetry, config, n),
        }
    }

    /// The underlying engine — for witness re-derivation against the
    /// graph this builder produced.
    pub(crate) fn engine(&self) -> &Engine<P> {
        &self.engine
    }

    /// The safety DFS: a depth-first traversal with per-state property
    /// checks under [`AmpleMode::Safety`], byte-identical to the
    /// historical search order: states are memoized at pop time (keyed
    /// canonically under the symmetry group), `state_check` runs in every
    /// reachable state, `terminal_check` in every quiescent one, and
    /// violations carry the schedule that reached them.
    ///
    /// # Errors
    ///
    /// The first violation found, state-budget exhaustion, or a memory
    /// error.
    pub(crate) fn run_dfs<FS, FT>(
        &mut self,
        procs: Vec<P>,
        mut state_check: FS,
        mut terminal_check: FT,
    ) -> Result<TraversalStats, ExploreError>
    where
        FS: FnMut(&StateView<'_, P>) -> Result<(), String>,
        FT: FnMut(&StateView<'_, P>) -> Result<(), String>,
    {
        let n = procs.len();
        let engine = &mut self.engine;
        let tel = telemetry::runtime(engine.config.progress);
        let mut span = tel.span(Phase::SafetyDfs);
        engine.install_future_index(&tel, &procs);
        // Sleep-set pruning rides only on the safety DFS under dynamic
        // mode, concretely (no symmetry), crash-free, and within mask
        // width — see `crate::dynamic` for why each boundary is
        // load-bearing.
        let sleep_on = sleep_sets_active(
            engine.config.por,
            engine.config.may_access == MayAccessMode::Dynamic,
            engine.use_sym(),
            engine.config.max_crashes,
            n,
        );
        let drop_races = engine.config.drop_races_on;
        let mut sleep = SleepTable::new();
        let root = engine.root(procs);

        // Visited canonical states, held single-copy in the packed store.
        // With symmetry on, each entry also tracks the identity of the
        // concrete state that first reached it — that lets the
        // orbit-merge counter tell a merge with a permuted sibling apart
        // from a plain revisit, by exact comparison (a hash could
        // collide and miscount).
        let mut visited: NodeStore<P> = NodeStore::new(
            engine.config.spill_budget_bytes,
            engine.template().layout(),
            &root,
            engine.use_sym(),
        );
        let mut stats = TraversalStats::default();
        // DFS stack: (node, schedule-so-far, sleep mask). Schedules share
        // structure through parent links — one O(1) link per pushed
        // successor — and are materialized only to report a violation.
        // The mask (bit per pid; always 0 when sleeping is off) names the
        // processes whose next step out of this node is covered by an
        // already-pushed sibling branch.
        let mut stack: Vec<(Node<P>, Option<Rc<PathLink>>, u32)> = vec![(root, None, 0)];

        while let Some((node, path, mut mask)) = stack.pop() {
            let (id, outcome) = if engine.use_sym() {
                let canon = engine.canonical_of(&node);
                visited.visit(&canon, Some(&node))
            } else {
                visited.visit(&node, None)
            };
            // A revisit normally ends the branch. With sleeping on, a
            // revisit that sleeps *fewer* processes than every earlier
            // visit covered must re-expand the state (without re-counting
            // or re-checking it) — the stored mask shrinks strictly each
            // time, so this terminates.
            let fresh = match outcome {
                VisitOutcome::Fresh => {
                    if sleep_on {
                        sleep.record_fresh(id, mask);
                    }
                    true
                }
                VisitOutcome::RevisitSame | VisitOutcome::RevisitMerged => {
                    if outcome == VisitOutcome::RevisitMerged {
                        stats.orbits_merged += 1;
                    }
                    if !sleep_on {
                        continue;
                    }
                    match sleep.revisit(id, mask) {
                        None => continue,
                        Some(narrowed) => {
                            mask = narrowed;
                            false
                        }
                    }
                }
            };
            if fresh {
                stats.states += 1;
                if stats.states > engine.config.max_states {
                    return Err(ExploreError::StateBudget(stats.states));
                }
                span.tick(|| Sample {
                    footprint: footprint(&visited, sleep.heap_bytes() as u64, None),
                    ..stats.sample(
                        stack.len() as u64,
                        path.as_ref().map_or(0, |l| l.depth as u64),
                    )
                });

                let mem = engine.memory_of(&node);
                let view = StateView {
                    procs: &node.procs,
                    status: &node.status,
                    memory: mem,
                };
                if let Err(message) = state_check(&view) {
                    return Err(ExploreError::Violation(Box::new(Violation {
                        schedule: materialize_path(&path),
                        message,
                    })));
                }
            }

            let runnable: Vec<usize> =
                (0..n).filter(|&i| node.status[i].runnable()).collect();
            if runnable.is_empty() {
                // Terminals have no transitions to re-cover; count and
                // check them on the first visit only.
                if fresh {
                    stats.terminals += 1;
                    let mem = engine.memory_of(&node);
                    let view = StateView {
                        procs: &node.procs,
                        status: &node.status,
                        memory: mem,
                    };
                    if let Err(message) = terminal_check(&view) {
                        return Err(ExploreError::Violation(Box::new(Violation {
                            schedule: materialize_path(&path),
                            message,
                        })));
                    }
                }
                continue;
            }

            let depth = path.as_ref().map_or(0, |l| l.depth) + 1;
            match engine.expand(&node, &runnable, AmpleMode::Safety, |key| visited.contains(key))? {
                Expansion::Ample { pid, succ, .. } => {
                    stats.states_pruned_por += runnable.len() as u64 - 1;
                    if sleep_on && mask & (1 << pid.index()) != 0 {
                        // The single ample transition is asleep: a
                        // sibling branch of some ancestor already covers
                        // it, so this branch ends here.
                        stats.transitions_slept += 1;
                        continue;
                    }
                    stats.transitions += 1;
                    let child_mask = if sleep_on {
                        let layout = engine.template().layout();
                        let fp = Footprint::of_step(&node.procs[pid.index()].current(), layout);
                        wake_conflicting(mask, &node, layout, &fp, drop_races)
                    } else {
                        0
                    };
                    let link = Rc::new(PathLink {
                        step: ScheduleStep::Step(pid),
                        depth,
                        parent: path,
                    });
                    stack.push((succ, Some(link), child_mask));
                }
                Expansion::Full(succs) => {
                    if sleep_on {
                        // Crash budget is zero under sleeping, so the
                        // successor list is exactly one step per runnable
                        // process, in `runnable` order.
                        debug_assert_eq!(succs.len(), runnable.len());
                        let layout = engine.template().layout();
                        let fps: Vec<Footprint> = runnable
                            .iter()
                            .map(|&i| Footprint::of_step(&node.procs[i].current(), layout))
                            .collect();
                        for (k, (step, succ)) in succs.into_iter().enumerate() {
                            let pid_bit = 1u32 << runnable[k];
                            if mask & pid_bit != 0 {
                                stats.transitions_slept += 1;
                                continue;
                            }
                            stats.transitions += 1;
                            // Inherited sleepers stay asleep unless the
                            // taken step races with their next step...
                            let mut child_mask =
                                wake_conflicting(mask, &node, layout, &fps[k], drop_races);
                            // ...and every awake sibling explored before
                            // this branch (pushed later — the stack pops
                            // in reverse) whose step is independent of
                            // the taken one goes to sleep: its successor
                            // here is reachable, via commutation, from
                            // the sibling's subtree.
                            for (k2, &j) in runnable.iter().enumerate().skip(k + 1) {
                                let bit = 1u32 << j;
                                if mask & bit == 0
                                    && !observed_conflict(&fps[k2], &fps[k], drop_races)
                                {
                                    child_mask |= bit;
                                }
                            }
                            let link = Rc::new(PathLink {
                                step,
                                depth,
                                parent: path.clone(),
                            });
                            stack.push((succ, Some(link), child_mask));
                        }
                    } else {
                        for (step, succ) in succs {
                            stats.transitions += 1;
                            let link = Rc::new(PathLink {
                                step,
                                depth,
                                parent: path.clone(),
                            });
                            stack.push((succ, Some(link), 0));
                        }
                    }
                }
            }
        }
        stats.footprint = footprint(&visited, sleep.heap_bytes() as u64, None);
        stats.wall_ns = span.finish(stats.sample(0, 0));
        Ok(stats)
    }

    /// The graph build behind the progress and liveness checkers: a
    /// breadth-first traversal interning one canonical representative
    /// per orbit and recording labeled forward edges, byte-identical to
    /// the historical search order: the same interning discipline
    /// (single-copy store keyed by digest buckets), crash branching,
    /// ample selection, budget accounting, and reduction bookkeeping.
    /// `property` fixes the ample mode, the telemetry phase, the
    /// normalizer, and the service labels.
    ///
    /// # Errors
    ///
    /// State-budget exhaustion or a memory error. Property evaluation is
    /// the *client's* job — the builder returns the graph and stats.
    pub(crate) fn build_graph(
        &mut self,
        procs: Vec<P>,
        property: GraphProperty<'_, P>,
    ) -> Result<(BuiltGraph<P>, TraversalStats), ExploreError> {
        let n = procs.len();
        let (mode, phase, normalizer, served_hook) = match property {
            GraphProperty::Progress => (AmpleMode::Progress, Phase::ProgressBfs, None, None),
            GraphProperty::Liveness { normalizer, served } => {
                (AmpleMode::Liveness, Phase::LivenessGraph, normalizer, Some(served))
            }
        };
        let engine = &mut self.engine;
        // A normalizer suspends partial-order reduction: the ample
        // bookkeeping cannot see through the abstraction (asserted by the
        // driver edge-case suite).
        engine.config.por &= normalizer.is_none();
        let tel = telemetry::runtime(engine.config.progress);
        let mut span = tel.span(phase);
        let mut stats = TraversalStats::default();
        engine.install_future_index(&tel, &procs);
        let mut root = engine.root(procs);
        normalize(normalizer, &mut root);
        let root_canon = engine.canonical_of(&root);

        let spill_budget = engine.config.spill_budget_bytes;
        let max_states = engine.config.max_states;
        let mut store: NodeStore<P> =
            NodeStore::new(spill_budget, engine.template().layout(), &root_canon, false);
        let (root_id, root_fresh) = store.intern(&root_canon);
        debug_assert!(root_fresh && root_id == 0, "the root interns first");
        let mut g = BuiltGraph {
            store,
            edges: EdgeArena::new(spill_budget),
            first_pred: vec![u32::MAX],
            terminal: vec![false],
            rev: OnceCell::new(),
        };
        // The budget is inclusive: a graph of exactly `max_states` nodes
        // completes; the first intern beyond it aborts immediately.
        if g.store.len() > max_states {
            return Err(ExploreError::StateBudget(g.store.len()));
        }

        let mut cursor = 0usize;
        while cursor < g.store.len() {
            span.tick(|| Sample {
                states: g.store.len() as u64,
                footprint: footprint(&g.store, 0, Some(&g.edges)),
                ..stats.sample((g.store.len() - cursor) as u64, 0)
            });
            let current = g.store.node(cursor as u32);
            let runnable: Vec<usize> = (0..n)
                .filter(|&i| current.status[i].runnable())
                .collect();
            if runnable.is_empty() {
                g.terminal[cursor] = true;
                stats.terminals += 1;
                g.edges.seal();
                cursor += 1;
                continue;
            }
            let expansion =
                engine.expand(&current, &runnable, mode, |key| g.store.contains(key))?;
            // Successors paired with their canonical form, when the ample
            // selection already computed it for the fresh-successor
            // proviso. (The ample path precomputes it only when no
            // normalizer rewrites the successor afterwards — POR is off
            // with one active — so a cached form is always still valid.)
            let succs = match expansion {
                Expansion::Ample { pid, succ, canon } => {
                    stats.states_pruned_por += runnable.len() as u64 - 1;
                    vec![(ScheduleStep::Step(pid), succ, canon)]
                }
                Expansion::Full(list) => list
                    .into_iter()
                    .map(|(step, succ)| (step, succ, None))
                    .collect(),
            };
            for (step, mut succ, canon) in succs {
                stats.transitions += 1;
                normalize(normalizer, &mut succ);
                let (pid, crash) = match step {
                    ScheduleStep::Step(p) => (p.index() as u32, false),
                    ScheduleStep::Crash(p) => (p.index() as u32, true),
                };
                let p = pid as usize;
                let served =
                    !crash && served_hook.is_some_and(|f| f(&current.procs[p], &succ.procs[p]));
                let (canon, permuted) = match canon {
                    Some(canon) => {
                        let permuted = canon != succ;
                        (canon, permuted)
                    }
                    None if engine.use_sym() => {
                        let canon = engine.canonical_of(&succ);
                        let permuted = canon != succ;
                        (canon, permuted)
                    }
                    None => (succ, false),
                };
                let (to, fresh) = g.store.intern(&canon);
                if fresh {
                    g.first_pred.push(cursor as u32);
                    g.terminal.push(false);
                    if g.store.len() > max_states {
                        return Err(ExploreError::StateBudget(g.store.len()));
                    }
                } else if permuted {
                    stats.orbits_merged += 1;
                }
                // The CSR arena appends at its open node, which is
                // exactly the cursor: edges are recorded only while
                // expanding it, and the seal below closes its range.
                g.edges.push(GEdge {
                    to,
                    pid,
                    crash,
                    served,
                });
            }
            g.edges.seal();
            cursor += 1;
        }
        stats.states = g.store.len();
        stats.footprint = footprint(&g.store, 0, Some(&g.edges));
        stats.wall_ns = span.finish(stats.sample(0, 0));
        Ok((g, stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfc_core::{Layout, Op, RegisterId};

    /// A process bumping its own counter `laps` times, tracking a lap
    /// count in otherwise-dead local state the normalizer can fold.
    #[derive(Clone, Debug, PartialEq, Eq, Hash)]
    struct Bumper {
        reg: RegisterId,
        laps: u8,
        done: u8,
        /// Dead scratch: remembers the last value read, though nothing
        /// ever branches on it — exactly the shape a normalizer erases.
        scratch: u64,
        pc: u8,
    }

    impl Process for Bumper {
        fn current(&self) -> Step {
            if self.done == self.laps {
                return Step::Halt;
            }
            match self.pc {
                0 => Step::Op(Op::Read(self.reg)),
                _ => Step::Op(Op::Write(self.reg, Value::new(1))),
            }
        }
        fn advance(&mut self, result: OpResult) {
            if self.pc == 0 {
                self.scratch = result.value().raw() + u64::from(self.done) * 1000;
                self.pc = 1;
            } else {
                self.pc = 0;
                self.done += 1;
            }
        }
        fn may_access(&self, out: &mut RegisterSet) -> bool {
            out.insert(self.reg);
            true
        }
    }

    /// Two bumpers, each on a register of its own.
    fn bumper_system(laps: u8) -> (Memory, Vec<Bumper>) {
        let mut layout = Layout::new();
        let regs = [layout.register("r0", 2, 0), layout.register("r1", 2, 0)];
        let memory = Memory::new(layout, 2).unwrap();
        let procs = regs
            .into_iter()
            .map(|reg| Bumper {
                reg,
                laps,
                done: 0,
                scratch: 0,
                pc: 0,
            })
            .collect();
        (memory, procs)
    }

    /// Builds the graph of `procs` under `property`, without symmetry.
    fn build(
        memory: Memory,
        procs: Vec<Bumper>,
        config: ExploreConfig,
        property: GraphProperty<'_, Bumper>,
    ) -> (BuiltGraph<Bumper>, TraversalStats) {
        let n = procs.len();
        GraphBuilder::new(memory, config, SymmetryGroup::trivial(n), n)
            .build_graph(procs, property)
            .unwrap()
    }

    /// The POR-pruned transitions of the two-bumper liveness graph.
    fn liveness_pruned(normalizer: Option<NormalizerFn<'_, Bumper>>) -> u64 {
        let (memory, procs) = bumper_system(1);
        let served = |_: &Bumper, _: &Bumper| false;
        let config = ExploreConfig {
            por: true,
            ..ExploreConfig::default()
        };
        let property = GraphProperty::Liveness {
            normalizer,
            served: &served,
        };
        build(memory, procs, config, property).1.states_pruned_por
    }

    /// A normalizer force-disables partial-order reduction: the ample
    /// bookkeeping cannot see through the abstraction, so the driver
    /// must not prune even when the config asks for POR.
    #[test]
    fn normalizer_disables_partial_order_reduction() {
        let normalizer = |procs: &mut [Bumper], _values: &mut [Value]| {
            for p in procs {
                p.scratch = 0;
            }
        };
        assert_eq!(liveness_pruned(Some(&normalizer)), 0, "POR must be suspended");
        // Without the normalizer the same build does prune: each bumper
        // touches only its own register, so its reads are ample.
        assert!(liveness_pruned(None) > 0);
    }

    /// One-process systems degenerate cleanly: a single chain of states,
    /// no crash branching at zero budget, one terminal.
    #[test]
    fn single_process_graph_is_a_chain() {
        let (memory, mut procs) = bumper_system(1);
        procs.truncate(1);
        let (g, stats) = build(memory, procs, ExploreConfig::default(), GraphProperty::Progress);
        assert_eq!(stats.terminals, 1);
        assert!((0..g.len()).all(|v| g.edges.degree(v) <= 1));
        assert!((0..g.len()).flat_map(|v| g.edges.edges(v)).all(|e| !e.crash));
    }

    /// The memoized reversal equals a fresh nested-Vec reversal — same
    /// predecessors, same per-node order — and the creator-tree
    /// invariants schedule re-derivation depends on hold: creators come
    /// first among predecessors, and creator ids decrease toward the
    /// root.
    #[test]
    fn memoized_reversal_preserves_creator_first_order() {
        let (memory, procs) = bumper_system(2);
        let config = ExploreConfig::default().with_max_crashes(1);
        let (g, _) = build(memory, procs, config, GraphProperty::Progress);
        assert!(
            (0..g.len()).flat_map(|v| g.edges.edges(v)).any(|e| e.crash),
            "crash transitions must be explored"
        );
        // Nested-Vec reference, the historical implementation.
        let mut reference: Vec<Vec<u32>> = vec![Vec::new(); g.len()];
        for v in 0..g.len() {
            for e in g.edges.edges(v) {
                reference[e.to as usize].push(v as u32);
            }
        }
        let rev = g.reversed();
        assert_eq!(rev.len(), g.len());
        for (v, expect) in reference.iter().enumerate() {
            assert_eq!(rev.preds(v), expect.as_slice(), "node {v}");
            if v > 0 && !rev.preds(v).is_empty() {
                assert_eq!(rev.preds(v)[0], g.first_pred[v], "creator first");
            }
        }
        assert_eq!(g.first_pred[0], u32::MAX);
        for (id, &pred) in g.first_pred.iter().enumerate().skip(1) {
            assert!((pred as usize) < id, "creator ids decrease toward the root");
        }
        // Memoized: the second call returns the same allocation.
        assert!(std::ptr::eq(g.reversed(), rev));
    }

    /// Without symmetry every orbit is a single state, so the stem
    /// re-derived to each node — crash edges included — reaches exactly
    /// that node.
    #[test]
    fn derived_stems_reach_their_nodes() {
        let (memory, procs) = bumper_system(1);
        let config = ExploreConfig::default().with_max_crashes(1);
        let mut builder = GraphBuilder::new(memory, config, SymmetryGroup::trivial(2), 2);
        let (g, _) = builder
            .build_graph(procs.clone(), GraphProperty::Progress)
            .unwrap();
        for id in 0..g.len() as u32 {
            let (stem, end) = builder
                .engine()
                .derive_stem(&g, None, procs.clone(), id)
                .unwrap();
            assert_eq!(end, g.node(id), "node {id} via {stem:?}");
        }
    }
}
