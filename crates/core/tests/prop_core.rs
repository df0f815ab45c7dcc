//! Property-based tests for the core execution model.

use cfc_core::metrics::process_complexity;
use cfc_core::{
    run_schedule, run_sequential, run_solo, BitOp, ExecConfig, FaultPlan, Layout, Memory,
    MemoryError, Op, OpResult, Process, ProcessId, RegisterId, Step, Value, WordId,
};
use proptest::prelude::*;

/// A process that executes a fixed script of operations against a memory of
/// `regs` registers, recording every returned value.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
struct Scripted {
    script: Vec<Op>,
    pc: usize,
    returns: Vec<Option<Value>>,
}

impl Scripted {
    fn new(script: Vec<Op>) -> Self {
        Scripted {
            script,
            pc: 0,
            returns: Vec::new(),
        }
    }
}

impl Process for Scripted {
    fn current(&self) -> Step {
        match self.script.get(self.pc) {
            Some(op) => Step::Op(op.clone()),
            None => Step::Halt,
        }
    }

    fn advance(&mut self, result: OpResult) {
        self.returns.push(match result {
            OpResult::Value(v) => Some(v),
            _ => None,
        });
        self.pc += 1;
    }
}

fn arb_bitop() -> impl Strategy<Value = BitOp> {
    prop::sample::select(BitOp::ALL.to_vec())
}

fn arb_op(regs: u32, width: u32) -> impl Strategy<Value = Op> {
    let reg = (0..regs).prop_map(RegisterId::new);
    prop_oneof![
        reg.clone().prop_map(Op::Read),
        (reg.clone(), 0u64..1 << width).prop_map(|(r, v)| Op::Write(r, Value::new(v))),
        (reg, arb_bitop()).prop_map(move |(r, b)| if width == 1 {
            Op::Bit(r, b)
        } else {
            Op::Read(r)
        }),
    ]
}

fn memory_with(regs: u32, width: u32) -> (Memory, Layout) {
    let mut layout = Layout::new();
    layout.array("r", regs as usize, width, 0);
    let memory = Memory::new(layout.clone(), width).unwrap();
    (memory, layout)
}

proptest! {
    /// Every register value always fits its declared width, whatever the
    /// operation sequence.
    #[test]
    fn values_stay_in_width(
        width in 1u32..8,
        ops in prop::collection::vec(arb_op(4, 7), 0..40),
    ) {
        let (memory, layout) = memory_with(4, width.max(7));
        // Re-mask ops against actual width by running them; memory masks on
        // write, so stored values must always fit.
        let (_, _, memory) = run_solo(memory, Scripted::new(ops)).unwrap();
        for r in layout.register_ids() {
            prop_assert!(memory.get(r).fits(layout.width(r).max(width)));
        }
    }

    /// Register complexity never exceeds step complexity, and bit accesses
    /// never fall below step count (every access touches >= 1 bit).
    #[test]
    fn register_leq_step_complexity(
        ops in prop::collection::vec(arb_op(5, 1), 0..60),
    ) {
        let (memory, layout) = memory_with(5, 1);
        let (trace, _, _) = run_solo(memory, Scripted::new(ops)).unwrap();
        let c = process_complexity(&trace, &layout, ProcessId::new(0));
        prop_assert!(c.registers <= c.steps);
        prop_assert!(c.read_registers <= c.registers);
        prop_assert!(c.write_registers <= c.registers);
        prop_assert!(c.bit_accesses >= c.steps);
        prop_assert_eq!(c.steps, c.read_steps + c.write_steps + c.rmw_steps);
    }

    /// The executor is deterministic: the same processes and schedule give
    /// the same trace.
    #[test]
    fn execution_is_deterministic(
        ops_a in prop::collection::vec(arb_op(3, 1), 1..20),
        ops_b in prop::collection::vec(arb_op(3, 1), 1..20),
        schedule in prop::collection::vec(0u32..2, 0..60),
    ) {
        let (memory, _) = memory_with(3, 1);
        let procs = vec![Scripted::new(ops_a), Scripted::new(ops_b)];
        let order: Vec<ProcessId> = schedule.iter().map(|&i| ProcessId::new(i)).collect();

        let run = |mem: Memory, ps: Vec<Scripted>| {
            run_schedule(
                mem,
                ps,
                cfc_core::FixedOrder::then_fair(order.clone()),
                FaultPlan::new(),
                ExecConfig::default(),
            )
            .unwrap()
        };
        let a = run(memory.clone(), procs.clone());
        let b = run(memory, procs);
        prop_assert_eq!(a.trace(), b.trace());
        prop_assert_eq!(a.memory().snapshot(), b.memory().snapshot());
    }

    /// Dual ops on complemented initial bits produce complemented results
    /// (the model-duality lemma of Section 3.2, at the memory level).
    #[test]
    fn duality_at_memory_level(
        ops in prop::collection::vec(arb_bitop(), 1..30),
        init in any::<bool>(),
    ) {
        let mut layout = Layout::new();
        let b = layout.bit("b", init);
        let mut m = Memory::new(layout, 1).unwrap();

        let mut dual_layout = Layout::new();
        let db = dual_layout.bit("b", !init);
        let mut dm = Memory::new(dual_layout, 1).unwrap();

        for op in ops {
            let r = m.apply(&Op::Bit(b, op)).unwrap();
            let dr = dm.apply(&Op::Bit(db, op.dual())).unwrap();
            match (r, dr) {
                (OpResult::None, OpResult::None) => {}
                (OpResult::Value(v), OpResult::Value(dv)) => {
                    prop_assert_eq!(v.bit(), !dv.bit());
                }
                other => prop_assert!(false, "result shape mismatch: {:?}", other),
            }
            prop_assert_eq!(m.get(b).bit(), !dm.get(db).bit());
        }
    }

    /// A solo run of process 0 equals process 0's portion of a sequential
    /// run (contention-free semantics are consistent).
    #[test]
    fn solo_matches_sequential_prefix(
        ops in prop::collection::vec(arb_op(3, 1), 1..25),
        ops_other in prop::collection::vec(arb_op(3, 1), 1..25),
    ) {
        let (memory, _) = memory_with(3, 1);
        let (solo_trace, solo_proc, _) =
            run_solo(memory.clone(), Scripted::new(ops.clone())).unwrap();
        let (seq_trace, _, procs) = run_sequential(
            memory,
            vec![Scripted::new(ops), Scripted::new(ops_other)],
        )
        .unwrap();
        prop_assert_eq!(&solo_proc.returns, &procs[0].returns);
        let solo_accesses: Vec<_> = solo_trace.accesses_by(ProcessId::new(0)).collect();
        let seq_accesses: Vec<_> = seq_trace.accesses_by(ProcessId::new(0)).collect();
        prop_assert_eq!(solo_accesses, seq_accesses);
    }

    /// Crashed processes stop exactly at their crash point.
    #[test]
    fn crashes_stop_processes(
        ops in prop::collection::vec(arb_op(2, 1), 5..30),
        crash_at in 0u64..10,
    ) {
        let (memory, _) = memory_with(2, 1);
        let n_ops = ops.len() as u64;
        let exec = run_schedule(
            memory,
            vec![Scripted::new(ops)],
            cfc_core::RoundRobin::new(),
            FaultPlan::new().with_crash(ProcessId::new(0), crash_at),
            ExecConfig::default(),
        ).unwrap();
        prop_assert_eq!(exec.steps_taken(ProcessId::new(0)), crash_at.min(n_ops));
    }
}

/// Registers of [`mixed_memory`] (two more ids, 5 and 6, are unknown).
const MIXED_REGS: u32 = 5;

/// A layout mixing every register shape `apply` distinguishes: a free
/// bit, a bit packed with a 4-bit register, a lone 3-bit register and a
/// 2-bit register packed with it. Words 0 and 1 exist; word 2 does not.
fn mixed_memory() -> Memory {
    let mut layout = Layout::new();
    layout.bit("b0", false);
    let b1 = layout.bit("b1", true);
    let x = layout.register("x", 4, 9);
    let y = layout.register("y", 3, 5);
    let z = layout.register("z", 2, 1);
    layout.pack(&[b1, x]).unwrap();
    layout.pack(&[y, z]).unwrap();
    Memory::new(layout, 5).unwrap()
}

/// Any operation over [`mixed_memory`], valid or not: register ids past
/// the layout, values past every width, bit operations on wide
/// registers, unknown words and foreign word fields all occur.
fn arb_any_op() -> impl Strategy<Value = Op> {
    let reg = (0..MIXED_REGS + 2).prop_map(RegisterId::new);
    let value = (0u64..40).prop_map(Value::new);
    prop_oneof![
        reg.clone().prop_map(Op::Read),
        (reg.clone(), value.clone()).prop_map(|(r, v)| Op::Write(r, v)),
        (reg.clone(), arb_bitop()).prop_map(|(r, b)| Op::Bit(r, b)),
        (0u32..3).prop_map(|w| Op::ReadWord(WordId::new(w))),
        (0u32..3, prop::collection::vec((reg, value), 0..4))
            .prop_map(|(w, fields)| Op::WriteWord(WordId::new(w), fields)),
    ]
}

/// Steps `memory` with [`Memory::apply`] and a copy of its image with
/// [`Memory::apply_in`] on an untouched template, asserting both agree
/// on every result, error and resulting value, and that a rejected
/// operation changes nothing. Returns the errors seen.
fn apply_in_agrees(mut memory: Memory, ops: &[Op]) -> Vec<MemoryError> {
    let template = mixed_memory();
    let initial = template.snapshot().to_vec();
    let mut image = memory.snapshot().to_vec();
    let mut errors = Vec::new();
    for op in ops {
        let before = image.clone();
        let expected = memory.apply(op);
        let got = template.apply_in(&mut image, op);
        assert_eq!(got, expected, "{op:?}");
        assert_eq!(image.as_slice(), memory.snapshot(), "{op:?}");
        if let Err(e) = got {
            assert_eq!(
                image, before,
                "rejected {op:?} must leave the image untouched"
            );
            errors.push(e);
        }
    }
    assert_eq!(
        template.snapshot(),
        initial.as_slice(),
        "apply_in must not touch self"
    );
    errors
}

proptest! {
    /// `apply_in` on an external image is `apply` on a memory: same
    /// results, same errors, same resulting values, from arbitrary
    /// starting values.
    #[test]
    fn apply_in_matches_apply(
        init in prop::collection::vec(0u64..32, 5..6),
        ops in prop::collection::vec(arb_any_op(), 0..60),
    ) {
        let mut memory = mixed_memory();
        for (i, v) in init.iter().enumerate() {
            memory.poke(RegisterId::new(i as u32), Value::new(*v));
        }
        apply_in_agrees(memory, &ops);
    }
}

/// Every error `apply` can raise, raised identically by `apply_in` —
/// including a packed write rejected after some fields would have fit.
#[test]
fn apply_in_matches_apply_on_every_error_kind() {
    let [b0, b1, x, y, z] = [0, 1, 2, 3, 4].map(RegisterId::new);
    let ghost = RegisterId::new(6);
    let ops = [
        Op::Write(x, Value::new(16)),
        Op::Bit(y, BitOp::TestAndSet),
        Op::WriteWord(WordId::new(0), vec![(b1, Value::ONE), (y, Value::ZERO)]),
        Op::WriteWord(WordId::new(1), vec![(y, Value::new(2)), (z, Value::new(4))]),
        Op::Read(ghost),
        Op::Bit(ghost, BitOp::Flip),
        Op::ReadWord(WordId::new(2)),
        Op::Write(b0, Value::ONE),
        Op::ReadWord(WordId::new(1)),
    ];
    let errors = apply_in_agrees(mixed_memory(), &ops);
    let kinds: Vec<&str> = errors
        .iter()
        .map(|e| match e {
            MemoryError::ValueTooWide { .. } => "too-wide",
            MemoryError::NotABit { .. } => "not-a-bit",
            MemoryError::FieldNotInWord { .. } => "foreign-field",
            MemoryError::UnknownRegister(_) => "unknown-register",
            MemoryError::UnknownWord(_) => "unknown-word",
            _ => "other",
        })
        .collect();
    assert_eq!(
        kinds,
        [
            "too-wide",
            "not-a-bit",
            "foreign-field",
            "too-wide",
            "unknown-register",
            "unknown-register",
            "unknown-word",
        ]
    );
}
