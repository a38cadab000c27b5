//! A per-thread recycling pool for frame buffers.
//!
//! Encode loops (the RNIC responder, the switch channels, the E1 traffic
//! nodes) each build thousands of frames per simulated millisecond, and the
//! buffer of a consumed frame is usually free again a few events later. The
//! pool closes that loop: [`take`] hands back a previously-recycled `Vec`
//! (cleared, capacity retained) instead of a fresh allocation, and
//! [`recycle`] recovers the backing buffer of a [`Payload`] whose last owner
//! is done with it — without copying, via [`Payload::recover_vec`].
//!
//! Recycling is strictly best-effort. A payload still shared with another
//! clone simply isn't recovered, and the free list is bounded in both entry
//! count and per-buffer capacity so a burst of jumbo frames cannot pin
//! memory forever. The [`hit_count`]/[`miss_count`] counters feed the
//! scheduler-stats report of the perf harness (`simperf --sched-stats`).
//!
//! The free list and its counters are per thread: the parallel engine's
//! workers each recycle into their own list and never contend for a lock.
//! A buffer taken on one thread and recycled on another simply moves to
//! the second thread's list.

use crate::bytes::{count, Payload, WireCounts};
use std::cell::RefCell;

/// Upper bound on free-list entries; beyond it, returned buffers are
/// dropped (quiescent simulations should not pin a whole run's frames).
const MAX_POOLED: usize = 1024;

/// Buffers above this capacity are never pooled — a rare jumbo allocation
/// must not turn into a permanently-retained one.
const MAX_POOLED_CAPACITY: usize = 64 * 1024;

thread_local! {
    static FREE: RefCell<Vec<Vec<u8>>> = const { RefCell::new(Vec::new()) };
}

/// Take a buffer from this thread's pool (cleared, capacity retained), or
/// a fresh empty `Vec` when the pool is dry.
pub fn take() -> Vec<u8> {
    match FREE.with_borrow_mut(Vec::pop) {
        Some(mut buf) => {
            count(|c| c.pool_hits += 1);
            buf.clear();
            buf
        }
        None => {
            count(|c| c.pool_misses += 1);
            Vec::new()
        }
    }
}

/// Return a buffer to the pool. Zero-capacity and oversized buffers are
/// dropped, as is everything past the free-list bound.
pub fn give(buf: Vec<u8>) {
    if buf.capacity() == 0 || buf.capacity() > MAX_POOLED_CAPACITY {
        return;
    }
    FREE.with_borrow_mut(|free| {
        if free.len() < MAX_POOLED {
            free.push(buf);
        }
    });
}

/// Recover `payload`'s backing buffer into the pool if this was its sole
/// owner; a no-op (not an error) when the buffer is still shared.
pub fn recycle(payload: Payload) {
    if let Some(buf) = payload.recover_vec() {
        give(buf);
    }
}

/// Pool hits (a [`take`] served from the free list) on this thread.
pub fn hit_count() -> u64 {
    WireCounts::now().pool_hits
}

/// Pool misses (a [`take`] that had to allocate) on this thread.
pub fn miss_count() -> u64 {
    WireCounts::now().pool_misses
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_give_roundtrip_reuses_capacity() {
        let mut b = take();
        b.extend_from_slice(&[1, 2, 3, 4]);
        let cap = b.capacity();
        give(b);
        let hits0 = hit_count();
        let b2 = take();
        assert_eq!(hit_count(), hits0 + 1);
        assert!(b2.is_empty(), "pooled buffers come back cleared");
        assert!(b2.capacity() >= cap, "capacity survives the pool");
    }

    #[test]
    fn recycle_recovers_sole_owner_only() {
        // Shared payload: not recovered.
        let p = Payload::from_vec(vec![9; 64]);
        let clone = p.clone();
        recycle(p);
        let hits0 = hit_count();
        drop(clone);
        // Sole owner, even when windowed: recovered.
        let p = Payload::from_vec(vec![7; 128]);
        let window = p.slice(10..20);
        drop(p);
        recycle(window);
        let b = take();
        assert_eq!(hit_count(), hits0 + 1);
        assert!(b.capacity() >= 128, "full backing buffer recovered");
    }

    #[test]
    fn oversized_and_empty_buffers_are_not_pooled() {
        // Drain the free list so the next take is a deterministic miss.
        FREE.with_borrow_mut(Vec::clear);
        give(Vec::new());
        give(Vec::with_capacity(MAX_POOLED_CAPACITY + 1));
        let misses0 = miss_count();
        let _ = take();
        assert_eq!(miss_count(), misses0 + 1, "neither buffer was pooled");
    }
}
