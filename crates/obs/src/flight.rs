//! The solve flight recorder: a bounded ring of recent [`SolveRecord`]s
//! for post-hoc debugging (which structure, which variant, which plan
//! generation, and where the nanoseconds went — without re-running the
//! workload).

use crate::event::SolveRecord;
use std::collections::VecDeque;
use std::sync::Mutex;

pub(crate) struct FlightRecorder {
    ring: Mutex<VecDeque<SolveRecord>>,
    capacity: usize,
}

impl FlightRecorder {
    pub(crate) fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Self {
            ring: Mutex::new(VecDeque::with_capacity(capacity)),
            capacity,
        }
    }

    pub(crate) fn push(&self, record: SolveRecord) {
        let mut ring = match self.ring.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        if ring.len() == self.capacity {
            ring.pop_front();
        }
        ring.push_back(record);
    }

    /// Retained records, oldest first.
    pub(crate) fn snapshot(&self) -> Vec<SolveRecord> {
        match self.ring.lock() {
            Ok(g) => g.iter().copied().collect(),
            Err(poisoned) => poisoned.into_inner().iter().copied().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{FpId, ObsVariant, PlanProvenance, SolveOutcome};

    fn record(i: u64) -> SolveRecord {
        SolveRecord {
            fp: FpId(i, i),
            variant: ObsVariant::Doacross,
            provenance: PlanProvenance::PlanCached,
            generation: i,
            total_ns: i * 10,
            inspector_ns: 0,
            executor_ns: i * 10,
            post_ns: 0,
            iterations: 100,
            workers: 4,
            stalls: 0,
            wait_polls: i,
            barrier_crossings: 0,
            pool: Some(0),
            outcome: SolveOutcome::Ok,
        }
    }

    #[test]
    fn keeps_the_most_recent_capacity_records() {
        let fr = FlightRecorder::new(3);
        for i in 0..8 {
            fr.push(record(i));
        }
        let snap = fr.snapshot();
        assert_eq!(snap.len(), 3);
        assert_eq!(snap[0].generation, 5);
        assert_eq!(snap[2].generation, 7);
    }
}
