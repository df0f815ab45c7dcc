//! The packed arena store against whole states: on the small crash-free
//! instances — one family packing its processes through the
//! `pack_state` hooks, others interning them into 32-bit slots — the
//! engine's un-reduced counts must equal those of the reference checker
//! (`tests/common/reference.rs`), which keeps every state whole in a
//! hash set, and every reduced variant must reach its verdicts (see
//! `tests/common/equiv.rs`). A record that decoded or compared wrongly
//! would merge or split states and change a count.
//!
//! The spill tier, which reads records back from disk for the same byte
//! comparison, must not change a single count either.
//!
//! `index_equiv.rs` runs the same comparison on larger instances and
//! `reference_equiv.rs` under crashes.

mod common;

use cfc::mutex::{Bakery, LamportFast, PetersonTwo, Splitter, Tournament};
use cfc::naming::{TafTree, TasScan};
use cfc::verify::{check_mutex_safety, ExploreStats};
use common::equiv::{
    detection_progress, detection_safety, mutex_progress, mutex_safety, naming_progress,
    naming_safety,
};

#[test]
fn packed_and_boxed_agree_on_mutex_safety() {
    mutex_safety("peterson", &PetersonTwo::new(), 2);
    mutex_safety("bakery", &Bakery::new(2), 1);
    mutex_safety("tournament", &Tournament::new(3, 1), 1);
}

#[test]
fn packed_and_boxed_agree_on_naming_and_detection() {
    naming_safety("tas-scan", &TasScan::new(3), 0, true);
    naming_safety("taf-tree", &TafTree::new(4).unwrap(), 0, true);
    detection_safety("splitter", &Splitter::new(3), 0);
}

#[test]
fn packed_and_boxed_agree_on_progress_graphs() {
    mutex_progress("peterson", &PetersonTwo::new(), 2);
    mutex_progress("bakery", &Bakery::new(2), 1);
    naming_progress("taf-tree", &TafTree::new(4).unwrap(), 0);
    detection_progress("splitter", &Splitter::new(3), 0);
}

/// Forcing the spill tier (budget 0: every filled segment goes to disk)
/// must not change a single count — spilled records are read back for
/// the same exact byte comparison — and must actually spill.
#[test]
fn spilling_preserves_counts_and_reports_spilled_segments() {
    let counts = |s: &ExploreStats| {
        (
            s.states,
            s.transitions,
            s.terminals,
            s.states_pruned_por,
            s.orbits_merged,
        )
    };
    let base_cfg = common::por_only(25_000);
    let resident = check_mutex_safety(&LamportFast::new(3), 1, base_cfg).unwrap();
    // Precondition for a meaningful test: the arena must outgrow at
    // least a couple of 64 KiB segments, so that "budget 0" has full
    // segments to evict. If a layout change shrinks the encoding below
    // this, grow the instance rather than weakening the assertion.
    assert!(
        resident.footprint.arena_bytes > 128 * 1024,
        "arena too small to exercise spilling ({} bytes); use a larger instance",
        resident.footprint.arena_bytes
    );
    let spilled =
        check_mutex_safety(&LamportFast::new(3), 1, base_cfg.with_spill_budget(0)).unwrap();
    assert_eq!(
        counts(&resident),
        counts(&spilled),
        "spilling changed search counts"
    );
    assert!(
        spilled.footprint.spilled_buckets > 0,
        "budget 0 spilled nothing"
    );
    assert_eq!(
        resident.footprint.spilled_buckets, 0,
        "unbudgeted run must not spill"
    );
}
