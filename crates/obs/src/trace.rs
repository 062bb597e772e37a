//! The bounded, sharded trace ring.
//!
//! Producers append whole [`TracedEvent`] records under a per-shard lock;
//! shards are assigned per thread (round-robin at first touch), so under
//! the engine's worker threads each shard is effectively single-writer
//! and the lock is uncontended. Each shard is a fixed-capacity ring that
//! drops its oldest record when full; drops are counted under the same
//! lock, never silent. The capacity is split evenly across the shards, so
//! a single thread's events are bounded by one shard's share of it.
//! Snapshots lock shards one at a time and merge by sequence number, so a
//! reader never blocks more than one producer at once.

use crate::event::{TraceEvent, TracedEvent};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};

/// Round-robin thread → shard assignment, stable for a thread's lifetime.
static NEXT_THREAD_SLOT: AtomicUsize = AtomicUsize::new(0);
thread_local! {
    static THREAD_SLOT: usize = NEXT_THREAD_SLOT.fetch_add(1, Ordering::Relaxed);
}

/// One shard's retained events, oldest first, and how many it dropped.
struct Shard {
    events: VecDeque<TracedEvent>,
    dropped: u64,
}

pub(crate) struct TraceRing {
    shards: Box<[Mutex<Shard>]>,
    /// Capacity per shard; total capacity is `shards.len() * per_shard`.
    per_shard: usize,
    seq: AtomicU64,
}

impl TraceRing {
    /// `capacity` is the total ring capacity; it is split evenly across
    /// `shards` (rounded up, minimum 1 per shard).
    pub(crate) fn new(capacity: usize, shards: usize) -> Self {
        let shards = shards.max(1).next_power_of_two();
        let per_shard = capacity.div_ceil(shards).max(1);
        let shards = (0..shards)
            .map(|_| {
                Mutex::new(Shard {
                    events: VecDeque::with_capacity(per_shard),
                    dropped: 0,
                })
            })
            .collect();
        Self {
            shards,
            per_shard,
            seq: AtomicU64::new(0),
        }
    }

    fn lock(shard: &Mutex<Shard>) -> MutexGuard<'_, Shard> {
        shard.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Appends `events`, in order, under consecutive global sequence
    /// numbers: one reservation and one shard lock however many there are.
    pub(crate) fn push(&self, at_ns: u64, events: &[TraceEvent]) {
        let first = self.seq.fetch_add(events.len() as u64, Ordering::Relaxed);
        let shard = THREAD_SLOT.with(|s| *s) & (self.shards.len() - 1);
        let mut shard = Self::lock(&self.shards[shard]);
        for (seq, &event) in (first..).zip(events) {
            if shard.events.len() == self.per_shard {
                shard.events.pop_front();
                shard.dropped += 1;
            }
            shard.events.push_back(TracedEvent { seq, at_ns, event });
        }
    }

    /// Total events ever pushed.
    pub(crate) fn pushed(&self) -> u64 {
        self.seq.load(Ordering::Relaxed)
    }

    /// Events dropped to bound the ring, summed over the shards.
    pub(crate) fn dropped(&self) -> u64 {
        self.shards.iter().map(|s| Self::lock(s).dropped).sum()
    }

    /// Snapshot of the retained events, oldest first (by sequence number).
    pub(crate) fn snapshot(&self) -> Vec<TracedEvent> {
        let mut out = Vec::new();
        for shard in self.shards.iter() {
            out.extend(Self::lock(shard).events.iter().copied());
        }
        out.sort_unstable_by_key(|e| e.seq);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::FpId;

    #[test]
    fn drops_oldest_when_full() {
        let ring = TraceRing::new(4, 1);
        for i in 0..10 {
            ring.push(i, &[TraceEvent::CacheHit { fp: FpId(i, 0) }]);
        }
        let snap = ring.snapshot();
        assert_eq!(snap.len(), 4);
        assert_eq!(snap[0].seq, 6);
        assert_eq!(snap[3].seq, 9);
        assert_eq!(ring.dropped(), 6);
        assert_eq!(ring.pushed(), 10);
    }

    #[test]
    fn one_push_takes_consecutive_numbers_in_order() {
        let ring = TraceRing::new(8, 1);
        let (hit, miss) = (
            TraceEvent::CacheHit { fp: FpId(1, 0) },
            TraceEvent::CacheMiss { fp: FpId(2, 0) },
        );
        ring.push(5, &[hit]);
        ring.push(7, &[miss, hit]);
        let snap = ring.snapshot();
        let seen: Vec<(u64, u64, TraceEvent)> =
            snap.iter().map(|e| (e.seq, e.at_ns, e.event)).collect();
        assert_eq!(seen, [(0, 5, hit), (1, 7, miss), (2, 7, hit)]);
        assert_eq!(ring.pushed(), 3);
    }

    #[test]
    fn snapshot_is_seq_ordered_across_threads() {
        // Capacity generous enough that no shard drops even if every
        // thread lands on the same shard (32 events < 32 per-shard cap).
        let ring = std::sync::Arc::new(TraceRing::new(128, 4));
        let handles: Vec<_> = (0..4u64)
            .map(|t| {
                let ring = ring.clone();
                std::thread::spawn(move || {
                    for i in 0..8 {
                        ring.push(i, &[TraceEvent::CacheMiss { fp: FpId(t, i) }]);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let snap = ring.snapshot();
        assert_eq!(snap.len(), 32);
        assert!(snap.windows(2).all(|w| w[0].seq < w[1].seq));
    }
}
