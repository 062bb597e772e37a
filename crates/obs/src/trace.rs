//! The bounded trace ring.
//!
//! One fixed-capacity ring of whole [`TracedEvent`] records, a plain field
//! of the handle's one locked state: a push numbers its events and appends
//! them under the lock every emit already holds, and drops the oldest
//! record when full — counted, never silent. Every thread shares the whole
//! capacity, and what the ring keeps is always the newest run of sequence
//! numbers, without holes.

use crate::event::{TraceEvent, TracedEvent};
use std::collections::VecDeque;

/// Events the ring retains.
const TRACE_CAPACITY: usize = 4096;

pub(crate) struct TraceRing {
    /// The retained events, oldest first.
    pub(crate) events: VecDeque<TracedEvent>,
    pub(crate) dropped: u64,
    /// The next event's sequence number: the count ever pushed.
    pub(crate) pushed: u64,
}

impl TraceRing {
    pub(crate) fn new() -> Self {
        Self {
            events: VecDeque::with_capacity(TRACE_CAPACITY),
            dropped: 0,
            pushed: 0,
        }
    }

    /// Appends `events`, in order, under consecutive sequence numbers.
    pub(crate) fn push(&mut self, at_ns: u64, events: &[TraceEvent]) {
        for &event in events {
            if self.events.len() == TRACE_CAPACITY {
                self.events.pop_front();
                self.dropped += 1;
            }
            let seq = self.pushed;
            self.pushed += 1;
            self.events.push_back(TracedEvent { seq, at_ns, event });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::FpId;

    #[test]
    fn drops_oldest_when_full() {
        let mut ring = TraceRing::new();
        let pushes = TRACE_CAPACITY as u64 + 6;
        for i in 0..pushes {
            ring.push(i, &[TraceEvent::CacheHit { fp: FpId(i, 0) }]);
        }
        assert_eq!(ring.events.len(), TRACE_CAPACITY);
        assert_eq!(ring.events[0].seq, 6);
        assert_eq!(ring.events[TRACE_CAPACITY - 1].seq, pushes - 1);
        assert_eq!(ring.dropped, 6);
        assert_eq!(ring.pushed, pushes);
    }

    #[test]
    fn one_push_takes_consecutive_numbers_in_order() {
        let mut ring = TraceRing::new();
        let (hit, miss) = (
            TraceEvent::CacheHit { fp: FpId(1, 0) },
            TraceEvent::CacheMiss { fp: FpId(2, 0) },
        );
        ring.push(5, &[hit]);
        ring.push(7, &[miss, hit]);
        let seen: Vec<(u64, u64, TraceEvent)> = ring
            .events
            .iter()
            .map(|e| (e.seq, e.at_ns, e.event))
            .collect();
        assert_eq!(seen, [(0, 5, hit), (1, 7, miss), (2, 7, hit)]);
        assert_eq!(ring.pushed, 3);
    }

    #[test]
    fn snapshot_is_seq_ordered_across_threads() {
        // Shared the way the handle shares it: one ring behind one lock.
        let ring = std::sync::Arc::new(std::sync::Mutex::new(TraceRing::new()));
        let handles: Vec<_> = (0..4u64)
            .map(|t| {
                let ring = ring.clone();
                std::thread::spawn(move || {
                    for i in 0..8 {
                        let event = TraceEvent::CacheMiss { fp: FpId(t, i) };
                        ring.lock().unwrap().push(i, &[event]);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let ring = ring.lock().unwrap();
        let snap: Vec<TracedEvent> = ring.events.iter().copied().collect();
        assert_eq!(snap.len(), 32);
        assert!(snap.windows(2).all(|w| w[0].seq + 1 == w[1].seq));
        assert_eq!(ring.dropped, 0);
    }
}
