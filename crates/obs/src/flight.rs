//! The solve flight recorder: a bounded ring of recent [`SolveRecord`]s
//! for post-hoc debugging (which structure, which variant, which plan
//! generation, and where the nanoseconds went — without re-running the
//! workload), plus the parallel [`VerifyRing`] holding the latest
//! plan-soundness verdict per fingerprint.

use crate::event::{SolveRecord, VerifyRecord};
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

/// The flight recorder's parallel verification ring: bounded, and keyed
/// by fingerprint — re-verifying a structure replaces its previous
/// verdict instead of duplicating it, so the ring reads as "the latest
/// soundness verdict for each recently verified structure".
pub(crate) struct VerifyRing {
    ring: Mutex<VecDeque<VerifyRecord>>,
    capacity: usize,
}

impl VerifyRing {
    pub(crate) fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Self {
            ring: Mutex::new(VecDeque::with_capacity(capacity)),
            capacity,
        }
    }

    pub(crate) fn push(&self, record: VerifyRecord) {
        let mut ring = match self.ring.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        if let Some(pos) = ring.iter().position(|r| r.fp == record.fp) {
            ring.remove(pos);
        } else if ring.len() == self.capacity {
            ring.pop_front();
        }
        ring.push_back(record);
    }

    /// Retained records, oldest verdict first.
    pub(crate) fn snapshot(&self) -> Vec<VerifyRecord> {
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

    fn verify(fp: u64, sound: bool, flow: u64) -> VerifyRecord {
        VerifyRecord {
            fp: FpId(fp, fp),
            variant: ObsVariant::Doacross,
            sound,
            references: flow,
            flow_edges: flow,
            anti_edges: 0,
            intra_refs: 0,
            unwritten_refs: 0,
            output_pairs: 0,
        }
    }

    #[test]
    fn verify_ring_keeps_the_latest_verdict_per_fingerprint() {
        let ring = VerifyRing::new(3);
        ring.push(verify(1, true, 10));
        ring.push(verify(2, true, 20));
        ring.push(verify(1, false, 0)); // re-verdict replaces, not duplicates
        let snap = ring.snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[0].fp, FpId(2, 2));
        assert_eq!(snap[1].fp, FpId(1, 1));
        assert!(!snap[1].sound);

        ring.push(verify(3, true, 30));
        ring.push(verify(4, true, 40)); // capacity 3: oldest (fp 2) drops
        let snap = ring.snapshot();
        assert_eq!(snap.len(), 3);
        assert!(snap.iter().all(|r| r.fp != FpId(2, 2)));
    }
}
