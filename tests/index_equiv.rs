//! The open-addressed digest index on the larger crash-free instances,
//! whose searches cross many doublings of the table: the engine's
//! un-reduced counts must equal those of the reference checker
//! (`tests/common/reference.rs`), and every reduced variant must reach
//! its verdicts (see `tests/common/equiv.rs`). A probe that missed a
//! resident state would intern it twice; one that matched the wrong
//! record would merge two states. Either changes a count.
//!
//! The index resolves every digest hit by comparing record bytes, also
//! when the record has been spilled to disk: the un-reduced spilled run
//! must match the reference exactly too.
//!
//! `packed_equiv.rs` runs the same comparison on small instances and
//! `reference_equiv.rs` under crashes.

mod common;

use cfc::mutex::{Bakery, LamportFast, MutexAlgorithm, Tournament};
use cfc::naming::TasScan;
use cfc::verify::check_mutex_safety;
use common::budget;
use common::equiv::{
    mutex_clients, mutex_progress, mutex_safety, naming_progress, naming_safety, MAX_STATES,
};
use common::reference;

#[test]
fn open_and_chained_agree_on_mutex_safety() {
    mutex_safety("bakery-3", &Bakery::new(3), 1);
    mutex_safety("lamport-3", &LamportFast::new(3), 1);
    mutex_safety("tournament-4", &Tournament::new(4, 1), 1);
}

#[test]
fn open_and_chained_agree_on_naming_and_detection() {
    naming_safety("tas-scan-4", &TasScan::new(4), 0, true);
}

#[test]
fn open_and_chained_agree_on_progress_graphs() {
    mutex_progress("bakery-3", &Bakery::new(3), 1);
    mutex_progress("lamport-3", &LamportFast::new(3), 1);
    mutex_progress("tournament-3", &Tournament::new(3, 1), 1);
    mutex_progress("tournament-4", &Tournament::new(4, 1), 1);
    naming_progress("tas-scan-4", &TasScan::new(4), 0);
}

/// Un-reduced and with every filled segment spilled (budget 0), the
/// search still matches the reference exactly.
#[test]
fn open_index_is_exact_across_the_spill_tier() {
    let alg = LamportFast::new(3);
    let clients = mutex_clients(&alg, 1, true);
    let reference = reference::search(&alg.memory().unwrap(), clients, 0, MAX_STATES);
    let spilled = check_mutex_safety(&alg, 1, budget(MAX_STATES).with_spill_budget(0)).unwrap();
    assert!(
        spilled.footprint.spilled_buckets > 0,
        "budget 0 spilled nothing"
    );
    assert_eq!(
        (spilled.states, spilled.transitions, spilled.terminals),
        (
            reference.states.len(),
            reference.transitions,
            reference.terminals
        ),
        "spilled un-reduced counts differ from the reference"
    );
}
