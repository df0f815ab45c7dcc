//! Phase self-times from the events a telemetry `Recorder` captured.
//!
//! The drivers emit balanced, LIFO-nested `SpanStart`/`SpanEnd` pairs,
//! so nesting is recovered from stream order alone: a span's self time
//! is its duration minus the durations of the spans directly inside it.

use cfc_verify::{Phase, TelemetryEvent};

/// Every phase the drivers emit, in a fixed order.
pub const PHASES: [Phase; 10] = [
    Phase::SafetyDfs,
    Phase::ProgressCheck,
    Phase::ProgressBfs,
    Phase::BackPropagation,
    Phase::LivenessCheck,
    Phase::LivenessGraph,
    Phase::SccAnalysis,
    Phase::WitnessValidation,
    Phase::ExtractAutomaton,
    Phase::Lint,
];

fn slot(phase: Phase) -> usize {
    PHASES
        .iter()
        .position(|p| *p == phase)
        .expect("PHASES lists every phase")
}

/// Self time and attributed states per phase, summed over all spans.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PhaseTimes {
    self_ns: [u64; PHASES.len()],
    states: [u64; PHASES.len()],
}

impl PhaseTimes {
    /// Self nanoseconds of `phase`.
    pub fn self_ns(&self, phase: Phase) -> u64 {
        self.self_ns[slot(phase)]
    }

    /// States attributed to `phase`'s spans.
    pub fn states(&self, phase: Phase) -> u64 {
        self.states[slot(phase)]
    }

    /// Self nanoseconds of all phases together.
    pub fn total_self_ns(&self) -> u64 {
        self.self_ns.iter().sum()
    }

    /// Self nanoseconds per attributed state of `phase` (0 with no states).
    pub fn ns_per_state(&self, phase: Phase) -> f64 {
        crate::report::share(self.self_ns(phase) as f64, self.states(phase) as f64)
    }
}

/// Folds a recorded event stream into per-phase self times.
///
/// # Errors
///
/// Returns a description of the first unbalanced or mis-nested span.
pub fn self_times(events: &[TelemetryEvent]) -> Result<PhaseTimes, String> {
    // Open spans: (phase, nanoseconds covered by direct children).
    let mut open: Vec<(Phase, u64)> = Vec::new();
    let mut times = PhaseTimes::default();
    for event in events {
        match event {
            TelemetryEvent::SpanStart { phase, .. } => open.push((*phase, 0)),
            TelemetryEvent::SpanEnd {
                phase,
                elapsed_ns,
                states,
                ..
            } => {
                let (opened, children) = open
                    .pop()
                    .ok_or_else(|| format!("{phase} ended without a start"))?;
                if opened != *phase {
                    return Err(format!("{phase} ended inside open {opened}"));
                }
                let own = elapsed_ns
                    .checked_sub(children)
                    .ok_or_else(|| format!("{phase} children outlast the span"))?;
                times.self_ns[slot(*phase)] += own;
                times.states[slot(*phase)] += states;
                if let Some(parent) = open.last_mut() {
                    parent.1 += elapsed_ns;
                }
            }
            _ => {}
        }
    }
    match open.last() {
        Some((phase, _)) => Err(format!("{phase} never ended")),
        None => Ok(times),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn start(phase: Phase) -> TelemetryEvent {
        TelemetryEvent::SpanStart { phase, at_ns: 0 }
    }

    fn end(phase: Phase, elapsed_ns: u64, states: u64) -> TelemetryEvent {
        TelemetryEvent::SpanEnd {
            phase,
            at_ns: 0,
            elapsed_ns,
            states,
            transitions: 0,
        }
    }

    #[test]
    fn children_are_subtracted_from_their_parent_only() {
        let events = [
            start(Phase::ProgressCheck),
            start(Phase::ProgressBfs),
            start(Phase::ExtractAutomaton),
            end(Phase::ExtractAutomaton, 10, 0),
            end(Phase::ProgressBfs, 70, 7),
            start(Phase::BackPropagation),
            end(Phase::BackPropagation, 20, 0),
            end(Phase::ProgressCheck, 100, 7),
        ];
        let t = self_times(&events).unwrap();
        assert_eq!(t.self_ns(Phase::ExtractAutomaton), 10);
        assert_eq!(t.self_ns(Phase::ProgressBfs), 60);
        assert_eq!(t.self_ns(Phase::BackPropagation), 20);
        assert_eq!(t.self_ns(Phase::ProgressCheck), 10);
        assert_eq!(t.total_self_ns(), 100);
        assert_eq!(t.ns_per_state(Phase::ProgressBfs), 60.0 / 7.0);
    }

    #[test]
    fn unbalanced_streams_are_rejected() {
        assert!(self_times(&[start(Phase::SafetyDfs)]).is_err());
        assert!(self_times(&[end(Phase::SafetyDfs, 1, 0)]).is_err());
        assert!(self_times(&[start(Phase::SafetyDfs), end(Phase::Lint, 1, 0)]).is_err());
    }
}
