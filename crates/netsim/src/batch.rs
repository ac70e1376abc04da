//! Batched-dispatch diagnostics.
//!
//! The event loop always drains equal-timestamp runs as one batch (see
//! [`crate::Simulation::step_batch`]); the `(time, seq)` pop order that
//! makes this result-identical to single-stepping is pinned by the
//! queue-vs-reference-heap property in `tests/properties.rs`.
//!
//! Batch-size statistics are process-global relaxed atomics (the
//! `intang_packet::wire::pool_stats` pattern): they are scheduling-
//! dependent diagnostics, reported only by the benches — never in a
//! `MetricsSheet`, which must stay byte-identical however events group.

use std::sync::atomic::{AtomicU64, Ordering};

/// Batch-size histogram buckets: sizes 1, 2–3, 4–7, … (powers of two),
/// last bucket open-ended.
pub const HIST_BUCKETS: usize = 8;

static BATCHES: AtomicU64 = AtomicU64::new(0);
static BATCHED_EVENTS: AtomicU64 = AtomicU64::new(0);
static HIST: [AtomicU64; HIST_BUCKETS] = [const { AtomicU64::new(0) }; HIST_BUCKETS];

/// Histogram bucket for a batch of `n` events (`n >= 1`).
pub fn bucket(n: u64) -> usize {
    (63 - n.leading_zeros() as usize).min(HIST_BUCKETS - 1)
}

/// Fold one simulation's batch accounting into the process-wide totals
/// (called on `Simulation` drop; per-sim counts are plain integers so the
/// event loop itself touches no atomics).
pub fn note_run(batches: u64, events: u64, hist: &[u64; HIST_BUCKETS]) {
    if batches == 0 {
        return;
    }
    BATCHES.fetch_add(batches, Ordering::Relaxed);
    BATCHED_EVENTS.fetch_add(events, Ordering::Relaxed);
    for (slot, &n) in HIST.iter().zip(hist) {
        if n > 0 {
            slot.fetch_add(n, Ordering::Relaxed);
        }
    }
}

/// Process-wide batch statistics since start (or the last [`reset_stats`]):
/// `(batches, events, histogram)`.
pub fn stats() -> (u64, u64, [u64; HIST_BUCKETS]) {
    let mut hist = [0u64; HIST_BUCKETS];
    for (out, slot) in hist.iter_mut().zip(&HIST) {
        *out = slot.load(Ordering::Relaxed);
    }
    (BATCHES.load(Ordering::Relaxed), BATCHED_EVENTS.load(Ordering::Relaxed), hist)
}

/// Zero the process-wide statistics (bench isolation between workloads).
pub fn reset_stats() {
    BATCHES.store(0, Ordering::Relaxed);
    BATCHED_EVENTS.store(0, Ordering::Relaxed);
    for slot in &HIST {
        slot.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_log2() {
        assert_eq!(bucket(1), 0);
        assert_eq!(bucket(2), 1);
        assert_eq!(bucket(3), 1);
        assert_eq!(bucket(4), 2);
        assert_eq!(bucket(7), 2);
        assert_eq!(bucket(8), 3);
        assert_eq!(bucket(1 << 40), HIST_BUCKETS - 1);
    }

    #[test]
    fn note_run_accumulates() {
        let (b0, e0, _) = stats();
        let mut hist = [0u64; HIST_BUCKETS];
        hist[0] = 2;
        hist[1] = 1;
        note_run(3, 4, &hist);
        let (b1, e1, h1) = stats();
        assert_eq!(b1 - b0, 3);
        assert_eq!(e1 - e0, 4);
        assert!(h1[0] >= 2 && h1[1] >= 1);
    }
}
