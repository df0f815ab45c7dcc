//! The engine against an independent reference checker
//! (`tests/common/reference.rs`: a plain breadth-first search over
//! whole hashed states, sharing no code with the engine) under crashes,
//! which the reference branches on like any other move.
//!
//! * **Exact counts.** With no reduction, the safety DFS and the
//!   progress BFS must report exactly the reference's states,
//!   transitions and terminals; on a progress violation, its count of
//!   states that cannot finish too.
//! * **Verdicts.** Every reduced variant must reach the reference's
//!   verdict. A violation it reports must replay to a state the
//!   reference marks as violating (for progress: as stuck), with an
//!   output multiset the reference reaches among its violating states.
//!   A planted uniqueness bug pins the violating side.
//!
//! `packed_equiv.rs` and `index_equiv.rs` run the same comparison
//! (`tests/common/equiv.rs`) on the crash-free instances. The remaining
//! tests pin the store's representation: records stay within absolute
//! byte bounds, and the open index within its bytes-per-state envelope.

mod common;

use cfc::mutex::{MutexAlgorithm, PetersonTwo, Splitter, Tournament};
use cfc::naming::{TafTree, TasScan};
use cfc::verify::{check_mutex_progress, check_mutex_safety};
use common::budget;
use common::equiv::{
    assert_progress_matches, detection_progress, detection_safety, mutex_clients, naming_progress,
    naming_safety,
};
use common::MutatedTasScan;

#[test]
fn engine_matches_the_reference_on_naming_and_detection_under_crashes() {
    for crashes in [1, 2] {
        naming_safety(
            &format!("tas-scan/{crashes}"),
            &TasScan::new(3),
            crashes,
            true,
        );
        naming_safety(
            &format!("tas-scan-4/{crashes}"),
            &TasScan::new(4),
            crashes,
            true,
        );
        naming_safety(
            &format!("taf-tree/{crashes}"),
            &TafTree::new(4).unwrap(),
            crashes,
            true,
        );
        detection_safety(&format!("splitter/{crashes}"), &Splitter::new(3), crashes);
    }
}

#[test]
fn engine_matches_the_reference_on_progress_graphs_under_crashes() {
    // A client crashed inside its critical section wedges the other:
    // the stuck-state count itself is compared.
    let peterson = PetersonTwo::new();
    assert_progress_matches(
        "peterson/crash",
        &peterson.memory().unwrap(),
        mutex_clients(&peterson, 1, false),
        1,
        false,
        |cfg| check_mutex_progress(&peterson, 1, cfg.with_max_crashes(1)),
    );
    for crashes in [1, 2] {
        naming_progress(&format!("tas-scan/{crashes}"), &TasScan::new(4), crashes);
        naming_progress(
            &format!("taf-tree/{crashes}"),
            &TafTree::new(4).unwrap(),
            crashes,
        );
        detection_progress(&format!("splitter/{crashes}"), &Splitter::new(3), crashes);
    }
}

/// The planted uniqueness bug: the reference reaches duplicate names,
/// and every variant's reported violation replays to one of the
/// reference's violating output multisets.
#[test]
fn planted_violation_replays_to_a_reference_violating_multiset() {
    for seed in 0..3 {
        for crashes in [0, 1] {
            let label = format!("mutated-tas-scan seed {seed}/{crashes}");
            naming_safety(&label, &MutatedTasScan::new(4, seed), crashes, false);
        }
    }
}

/// The representation's size bar, as absolute bytes per state: the
/// record sizes measured when these bounds replaced the relative bar
/// against the boxed store (186 and 347 B/state there) — one family
/// packing its processes through the `pack_state` hooks, one interning
/// them into 32-bit slots.
#[test]
fn packed_store_meets_absolute_record_size_bounds() {
    for (label, stats, bound) in [
        (
            "peterson (hook-packed processes)",
            check_mutex_safety(&PetersonTwo::new(), 2, budget(2_000)).unwrap(),
            27,
        ),
        (
            "tournament (interned processes)",
            check_mutex_safety(&Tournament::new(3, 1), 1, budget(60_000)).unwrap(),
            14,
        ),
    ] {
        assert!(stats.states > 0, "{label}: empty exploration");
        assert!(
            stats.footprint.arena_bytes <= bound * stats.states as u64,
            "{label}: {} arena bytes over {} states exceed {bound} B/state",
            stats.footprint.arena_bytes,
            stats.states
        );
    }
}

/// The open index's overhead stays inside the envelope its growth
/// policy allows.
#[test]
fn open_index_overhead_meets_the_envelope() {
    let open = check_mutex_safety(&Tournament::new(4, 1), 1, common::por_only(120_000)).unwrap();
    // Doubling at a 7/8 load factor bounds the table at 16/7 slots per
    // state right after a growth — 64/7 ≈ 9.15 B/state worst case, ~4.6
    // at the 7/8 steady state.
    let per_state = open.footprint.index_bytes as f64 / open.states as f64;
    assert!(
        per_state <= 64.0 / 7.0 + 0.1,
        "open index overhead {per_state:.2} B/state exceeds the doubling-table worst case"
    );
}
