//! Uncontended `lock(0)`/`unlock(0)` latency of the native locks, timed
//! in fixed-size batches on one thread.

use std::hint::black_box;
use std::time::Instant;

use cfc_native::{BakeryMutex, FastMutex, PetersonTree, SlottedMutex};

/// Lock/unlock pairs per timed batch.
pub const PAIRS_PER_BATCH: u64 = 256;

/// Batches per lock per sweep.
const BATCHES_PER_SWEEP: usize = 20;

/// The three native locks whose uncontended paths the paper prices at
/// Θ(1), Θ(log n) and Θ(n) steps.
#[derive(Debug)]
enum Lock {
    LamportFast(FastMutex),
    PetersonTree(PetersonTree),
    Bakery(BakeryMutex),
}

impl Lock {
    fn name(&self) -> &'static str {
        match self {
            Lock::LamportFast(_) => "lamport_fast",
            Lock::PetersonTree(_) => "peterson_tree",
            Lock::Bakery(_) => "bakery",
        }
    }
}

/// One lock at one slot count, with every batch time it has produced.
#[derive(Debug)]
pub struct Timed {
    lock: Lock,
    slots: usize,
    /// Nanoseconds per lock/unlock pair, one entry per batch.
    pub batch_ns: Vec<f64>,
}

impl Timed {
    /// The lock's name without the slot count.
    pub fn lock_name(&self) -> &'static str {
        self.lock.name()
    }

    /// The slot count.
    pub fn slots(&self) -> usize {
        self.slots
    }
}

/// A set of allocated locks and the batches run on them so far.
#[derive(Debug)]
pub struct Bench {
    /// The locks, in sweep order.
    pub locks: Vec<Timed>,
    /// Batches attempted, over all locks.
    pub attempted: u64,
    /// Batches whose critical-section counter ended off its expected
    /// value.
    pub failed: u64,
}

impl Bench {
    /// Allocates each of the three locks at every slot count in `slot_counts`.
    pub fn new(slot_counts: &[usize]) -> Self {
        let mut locks = Vec::new();
        for make in [
            (|n| Lock::LamportFast(FastMutex::new(n))) as fn(usize) -> Lock,
            |n| Lock::PetersonTree(PetersonTree::new(n)),
            |n| Lock::Bakery(BakeryMutex::new(n)),
        ] {
            for &slots in slot_counts {
                locks.push(Timed {
                    lock: make(slots),
                    slots,
                    batch_ns: Vec::new(),
                });
            }
        }
        Bench {
            locks,
            attempted: 0,
            failed: 0,
        }
    }

    /// Runs one sweep: [`BATCHES_PER_SWEEP`] batches on every lock in turn.
    pub fn sweep(&mut self) {
        for timed in &mut self.locks {
            for _ in 0..BATCHES_PER_SWEEP {
                let (ns, ok) = match &timed.lock {
                    Lock::LamportFast(m) => batch(m),
                    Lock::PetersonTree(m) => batch(m),
                    Lock::Bakery(m) => batch(m),
                };
                timed.batch_ns.push(ns);
                self.attempted += 1;
                self.failed += u64::from(!ok);
            }
        }
    }
}

/// Times one batch of uncontended pairs on slot 0; `ok` is false if the
/// counter bumped inside the critical section ends off its expected
/// value.
fn batch<M: SlottedMutex>(m: &M) -> (f64, bool) {
    let mut counter = 0u64;
    let start = Instant::now();
    for _ in 0..PAIRS_PER_BATCH {
        m.lock(0);
        counter = black_box(counter) + 1;
        m.unlock(0);
    }
    let ns = start.elapsed().as_nanos() as f64 / PAIRS_PER_BATCH as f64;
    (ns, counter == PAIRS_PER_BATCH)
}
