//! The event queue: a hierarchical timing wheel over a node arena, with
//! FIFO tie-breaking.
//!
//! **Ordering.** Two tiers, shaped by the simulator's delay distribution:
//!
//! * **Front tier** — all events inside the cursor's current 4096 µs
//!   *epoch* (the level-0 span) are keyed in a small binary min-heap by
//!   `(time, insertion-seq)`. Simulated deadlines cluster at the
//!   link-latency scale (~1 ms), so the overwhelming majority of events
//!   spend their whole life here, at contiguous-array heap speed — a slot
//!   array at 1 µs granularity pays a cache miss per touched slot, which
//!   benches (`queue/*`) showed is slower than the heap at simulation
//!   queue sizes (tens of events).
//! * **Upper tiers** — five classic wheel levels of 64 slots (6 bits per
//!   level, 2^42 µs ≈ 52-day horizon) absorb far deadlines with O(1)
//!   pushes and per-level occupancy bitmaps, so retransmit timeouts and
//!   expiry timers never bloat the front heap. Anything beyond the
//!   horizon waits in an overflow list and migrates in when the cursor
//!   catches up.
//!
//! The epoch only advances when the front heap is empty (a cascade or an
//! overflow migration), which is what makes the split sound: every front
//! event precedes every upper-level event, and upper levels are totally
//! ordered among themselves by the shared cursor prefix.
//!
//! **Storage.** Every queued event lives in one cell of a node arena (a
//! `Vec` of 64-byte nodes). Free cells form a singly linked free list, and
//! each upper slot and the overflow are list heads threaded through the
//! same `u32` links, so an upper slot costs four bytes whether or not it
//! ever held anything. The front heap holds only compact `(time, seq,
//! node)` keys. A push takes a free cell (or appends one), a pop returns
//! its cell to the free list, and a cascade relinks nodes into their new
//! slot or pushes their key into the front heap without moving the
//! events. The arena therefore grows to the *peak number of pending
//! events* and no further. Capacity must follow live state: a long-lived
//! world (a 100k-flow metropolis keeps ~128k events pending for tens of
//! simulated seconds) sweeps its deadlines across every slot, so storage
//! sized per slot would hold the sum of every slot's busiest moment —
//! several times the pending count. [`EventQueue::storage_capacity`]
//! exposes the arena size.
//!
//! The arena and the front heap's buffer are recycled through a
//! thread-local pool across `EventQueue` lifetimes (a simulation is built
//! per trial), so queue construction and steady-state operation stay off
//! the allocator.
//!
//! Pop order is **exactly** `(time, insertion-seq)` — identical to the old
//! heap, including pushes scheduled in the past (they clamp to the cursor's
//! epoch and pop immediately, still ordered by their original timestamp).
//! Golden traces and the determinism suite depend on this;
//! `tests/properties.rs` drives a randomized interleaving against a
//! reference heap to lock it in.

use crate::element::Direction;
use crate::time::Instant;
use crate::trace::TraceId;
use intang_packet::Wire;
use std::collections::BinaryHeap;

/// Something scheduled to happen.
#[derive(Debug)]
pub enum Event {
    /// Deliver `wire`, traveling in `dir`, to element `elem`. `cause` is
    /// the trace id of the emission that put the packet in flight (lineage
    /// threading; `None` when tracing is off or the packet was injected).
    Deliver {
        elem: usize,
        dir: Direction,
        wire: Wire,
        cause: Option<TraceId>,
    },
    /// Fire element `elem`'s timer with `token`.
    Timer { elem: usize, token: u64 },
}

/// List terminator for arena links.
const NIL: u32 = u32::MAX;

/// One arena cell: a queued event and its list link, or a free cell.
#[derive(Debug)]
struct Node {
    at: Instant,
    seq: u64,
    /// `None` while the cell sits on the free list.
    event: Option<Event>,
    /// Next cell in this node's upper-slot list, the overflow list or the
    /// free list (`NIL` ends each). Unused while the node is in the front.
    next: u32,
}

/// Front-heap key: min-heap by `(at, seq)` (comparison reversed for
/// `std`'s max-heap); `node` names the arena cell holding the event.
#[derive(Debug, Clone, Copy)]
struct FrontKey {
    at: Instant,
    seq: u64,
    node: u32,
}

impl PartialEq for FrontKey {
    fn eq(&self, other: &Self) -> bool {
        (self.at, self.seq) == (other.at, other.seq)
    }
}
impl Eq for FrontKey {}
impl PartialOrd for FrontKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for FrontKey {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// The front tier spans one `1 << L0_BITS` µs epoch of the cursor.
const L0_BITS: usize = 12;
/// Bits per upper wheel level; each upper level has 64 slots.
const LEVEL_BITS: usize = 6;
const SLOTS: usize = 1 << LEVEL_BITS;
/// Upper levels above the front tier.
const UP_LEVELS: usize = 5;
/// Times within `wheel_now + 2^HORIZON_BITS` µs live in the wheel proper.
const HORIZON_BITS: u32 = (L0_BITS + LEVEL_BITS * UP_LEVELS) as u32;
const TOTAL_SLOTS: usize = UP_LEVELS * SLOTS;

/// Deterministic event queue: pops strictly in `(time, insertion order)`.
#[derive(Debug)]
pub struct EventQueue {
    /// Keys of the current-epoch events, popped directly.
    front: BinaryHeap<FrontKey>,
    /// Every queued event, plus free cells (recycled via the thread-local
    /// storage pool).
    nodes: Vec<Node>,
    /// Head of the free-cell list.
    free: u32,
    /// Cells on the free list.
    free_len: usize,
    /// `TOTAL_SLOTS` upper-level list heads, level-major.
    heads: [u32; TOTAL_SLOTS],
    /// Per-upper-level occupancy bitmap: bit `s` set ⇔
    /// `heads[u * SLOTS + s]` is non-empty.
    occ_up: [u64; UP_LEVELS],
    /// The wheel cursor: a lower bound on every event time in the wheel
    /// (monotone; only ever advanced to popped times / cascade slot bases).
    /// Its bits above `L0_BITS` name the front epoch.
    wheel_now: u64,
    /// Events currently in upper-level slots (excludes front and overflow).
    upper_len: usize,
    /// Head of the list of events beyond the wheel horizon, unordered;
    /// migrated in when the wheel drains. Every overflow time exceeds
    /// every wheel time.
    overflow: u32,
    overflow_len: usize,
    /// Earliest `(at, seq)` in the overflow, maintained on push.
    overflow_min: Option<(Instant, u64)>,
    next_seq: u64,
    len: usize,
    /// Deliver events currently queued (packets in flight, excluding
    /// timers) — a gauge for the telemetry time-series.
    deliver_len: usize,
}

impl Default for EventQueue {
    fn default() -> Self {
        EventQueue::new()
    }
}

/// Retired queue storage: the node arena plus the front heap's buffer,
/// both emptied but capacity-warm.
type RetiredStorage = (Vec<Node>, Vec<FrontKey>);

std::thread_local! {
    /// Retired (arena, front-buffer) storage. A simulation is built per
    /// trial; recycling keeps queue construction off the allocator.
    static STORAGE_POOL: std::cell::RefCell<Vec<RetiredStorage>> = const { std::cell::RefCell::new(Vec::new()) };
}

/// Max retired storages kept per thread (sims rarely nest deeper).
const STORAGE_POOL_CAP: usize = 4;

impl Drop for EventQueue {
    fn drop(&mut self) {
        // Drop any still-queued events (a mid-run queue may hold some),
        // then hand the storage back.
        let mut nodes = std::mem::take(&mut self.nodes);
        nodes.clear();
        let mut front_buf = std::mem::take(&mut self.front).into_vec();
        front_buf.clear();
        if nodes.capacity() > 0 {
            let _ = STORAGE_POOL.try_with(|pool| {
                let mut pool = pool.borrow_mut();
                if pool.len() < STORAGE_POOL_CAP {
                    pool.push((nodes, front_buf));
                }
            });
        }
    }
}

impl EventQueue {
    /// An empty queue on recycled storage when this thread has some.
    pub fn new() -> Self {
        let (nodes, front_buf) = STORAGE_POOL
            .try_with(|pool| pool.borrow_mut().pop())
            .ok()
            .flatten()
            .unwrap_or_default();
        EventQueue::with_storage(nodes, front_buf)
    }

    /// An empty queue on freshly allocated storage, bypassing the pool —
    /// for tests that compare fresh against recycled storage.
    #[doc(hidden)]
    pub fn with_fresh_storage() -> Self {
        EventQueue::with_storage(Vec::new(), Vec::new())
    }

    fn with_storage(nodes: Vec<Node>, front_buf: Vec<FrontKey>) -> Self {
        debug_assert!(nodes.is_empty() && front_buf.is_empty());
        EventQueue {
            front: BinaryHeap::from(front_buf),
            nodes,
            free: NIL,
            free_len: 0,
            heads: [NIL; TOTAL_SLOTS],
            occ_up: [0; UP_LEVELS],
            wheel_now: 0,
            upper_len: 0,
            overflow: NIL,
            overflow_len: 0,
            overflow_min: None,
            next_seq: 0,
            len: 0,
            deliver_len: 0,
        }
    }

    pub fn push(&mut self, at: Instant, event: Event) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.len += 1;
        if matches!(event, Event::Deliver { .. }) {
            self.deliver_len += 1;
        }
        let node = Node {
            at,
            seq,
            event: Some(event),
            next: NIL,
        };
        let idx = if self.free != NIL {
            let idx = self.free;
            self.free = self.nodes[idx as usize].next;
            self.free_len -= 1;
            self.nodes[idx as usize] = node;
            idx
        } else {
            let idx = u32::try_from(self.nodes.len())
                .ok()
                .filter(|&i| i != NIL)
                .expect("event arena exceeds u32 cells");
            self.nodes.push(node);
            idx
        };
        self.insert(idx);
    }

    /// Place cell `idx` into the front heap, an upper-level slot, or the
    /// overflow. Past-due times clamp to the cursor (current epoch), where
    /// the front heap's `(at, seq)` order still yields them first.
    fn insert(&mut self, idx: u32) {
        let node = &self.nodes[idx as usize];
        let (at, seq) = (node.at, node.seq);
        let t = at.0.max(self.wheel_now);
        let masked = t ^ self.wheel_now;
        if masked >> L0_BITS == 0 {
            // Same epoch as the cursor: the common, cascade-free case.
            self.front.push(FrontKey { at, seq, node: idx });
            return;
        }
        let head = if masked >> HORIZON_BITS != 0 {
            if self.overflow_min.is_none_or(|m| (at, seq) < m) {
                self.overflow_min = Some((at, seq));
            }
            self.overflow_len += 1;
            &mut self.overflow
        } else {
            // The highest differing bit picks the upper level; within it,
            // the time's own 6-bit block picks the slot.
            let up = ((63 - masked.leading_zeros()) as usize - L0_BITS) / LEVEL_BITS;
            let slot = ((t >> (L0_BITS + up * LEVEL_BITS)) & (SLOTS - 1) as u64) as usize;
            self.occ_up[up] |= 1 << slot;
            self.upper_len += 1;
            &mut self.heads[up * SLOTS + slot]
        };
        self.nodes[idx as usize].next = *head;
        *head = idx;
    }

    /// Return cell `idx` to the free list and hand out its event.
    fn release(&mut self, idx: u32) -> Event {
        let node = &mut self.nodes[idx as usize];
        let event = node.event.take().expect("front keys name live cells");
        node.next = self.free;
        self.free = idx;
        self.free_len += 1;
        self.len -= 1;
        if matches!(event, Event::Deliver { .. }) {
            self.deliver_len -= 1;
        }
        event
    }

    /// Refill the wheel from overflow once it drains. Sound because every
    /// overflow time is strictly beyond every wheel time (they differ from
    /// the cursor above the horizon bit), so migration can never reorder.
    fn migrate_overflow(&mut self) {
        debug_assert!(self.front.is_empty() && self.upper_len == 0 && self.overflow != NIL);
        let (min_at, _) = self.overflow_min.take().expect("overflow non-empty");
        self.wheel_now = self.wheel_now.max(min_at.0);
        let mut cur = std::mem::replace(&mut self.overflow, NIL);
        self.overflow_len = 0;
        while cur != NIL {
            // Read the link before `insert` relinks the cell.
            let next = self.nodes[cur as usize].next;
            self.insert(cur);
            cur = next;
        }
    }

    /// Bring the earliest queued event into the front heap and return its
    /// time: cascade upper-level slots (and migrate the overflow) until the
    /// front is non-empty. A settled queue pops without further cascades,
    /// so the event loop settles once per batch instead of scanning the
    /// earliest upper slot to peek and relinking it again to pop.
    ///
    /// Settling may move the cursor past times that are later pushed (an
    /// event loop settles, finds the head beyond its deadline and returns
    /// to a caller that schedules more). Such pushes clamp into the front
    /// epoch like any past-due push, so pop order stays exactly `(time,
    /// seq)`.
    pub fn settle(&mut self) -> Option<Instant> {
        if self.len == 0 {
            return None;
        }
        loop {
            if let Some(key) = self.front.peek() {
                // The front min is the global min: upper levels and
                // overflow hold strictly-later epochs only.
                return Some(key.at);
            }
            if self.upper_len == 0 {
                self.migrate_overflow();
            } else {
                self.cascade();
            }
        }
    }

    /// Advance the cursor to the earliest occupied upper slot's base time
    /// and relink its cells — each lands in the (new) front epoch or a
    /// strictly lower upper level. Upper levels are totally ordered: every
    /// level-u event precedes every level-(u+1) event (shared cursor prefix
    /// above block u).
    fn cascade(&mut self) {
        let up = (0..UP_LEVELS).find(|&u| self.occ_up[u] != 0).expect("upper_len > 0");
        let slot = self.occ_up[up].trailing_zeros() as usize;
        let shift = L0_BITS + up * LEVEL_BITS;
        let base = (self.wheel_now & (!0u64 << (shift + LEVEL_BITS))) | ((slot as u64) << shift);
        debug_assert!(base > self.wheel_now);
        self.wheel_now = base;
        let mut cur = std::mem::replace(&mut self.heads[up * SLOTS + slot], NIL);
        self.occ_up[up] &= !(1 << slot);
        while cur != NIL {
            let next = self.nodes[cur as usize].next;
            self.upper_len -= 1;
            self.insert(cur);
            cur = next;
        }
    }

    pub fn pop(&mut self) -> Option<(Instant, Event)> {
        self.settle()?;
        let key = self.front.pop().expect("a settled queue has a front");
        self.wheel_now = self.wheel_now.max(key.at.0);
        Some((key.at, self.release(key.node)))
    }

    /// Drain the entire run of events sharing the minimal timestamp into
    /// `out` (appended in exact `(time, insertion-seq)` pop order); returns
    /// the run length. Equivalent to calling [`EventQueue::pop`] until the
    /// head time changes — but after the first pop locates the minimum, the
    /// rest of the run drains straight off the front heap: same-time events
    /// share the cursor's epoch, and upper levels / overflow hold strictly
    /// later epochs only, so no cascade checks are needed mid-run.
    pub fn pop_batch(&mut self, out: &mut Vec<(Instant, Event)>) -> usize {
        let Some((at, event)) = self.pop() else {
            return 0;
        };
        out.push((at, event));
        let mut n = 1;
        while self.front.peek().is_some_and(|key| key.at == at) {
            let key = self.front.pop().expect("peeked non-empty");
            out.push((at, self.release(key.node)));
            n += 1;
        }
        n
    }

    pub fn peek_time(&self) -> Option<Instant> {
        if let Some(key) = self.front.peek() {
            return Some(key.at);
        }
        if self.upper_len > 0 {
            let up = (0..UP_LEVELS).find(|&u| self.occ_up[u] != 0).expect("upper_len > 0");
            let slot = self.occ_up[up].trailing_zeros() as usize;
            let mut cur = self.heads[up * SLOTS + slot];
            let mut min = Instant(u64::MAX);
            while cur != NIL {
                let node = &self.nodes[cur as usize];
                min = min.min(node.at);
                cur = node.next;
            }
            return Some(min);
        }
        self.overflow_min.map(|(at, _)| at)
    }

    pub fn len(&self) -> usize {
        self.len
    }

    /// Deliver events currently queued — packets in flight, excluding
    /// timers (see [`intang_telemetry::series::GaugeId::InflightPackets`]).
    pub fn deliver_len(&self) -> usize {
        self.deliver_len
    }

    /// Arena cells the queue's storage can hold without reallocating. Every
    /// queued event occupies exactly one cell, so this tracks the peak
    /// number of pending events (within `Vec`'s growth factor), never the
    /// history of which slots were used.
    pub fn storage_capacity(&self) -> usize {
        self.nodes.capacity()
    }

    /// Simcheck probe: every queued event must sit in exactly one of the
    /// front heap, an upper-level slot, or the overflow; every arena cell
    /// must be either live or free; and the bookkeeping totals must agree.
    /// Returns a description of the imbalance, or `None` when coherent.
    /// O(1).
    pub fn structural_imbalance(&self) -> Option<String> {
        let held = self.front.len() + self.upper_len + self.overflow_len;
        if held != self.len {
            return Some(format!(
                "event queue holds {held} events (front {} + upper {} + overflow {}) but len says {}",
                self.front.len(),
                self.upper_len,
                self.overflow_len,
                self.len
            ));
        }
        (self.len + self.free_len != self.nodes.len()).then(|| {
            format!(
                "event arena has {} cells but {} live + {} free",
                self.nodes.len(),
                self.len,
                self.free_len
            )
        })
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn token_of(e: Event) -> u64 {
        match e {
            Event::Timer { token, .. } => token,
            _ => unreachable!(),
        }
    }

    fn drain(q: &mut EventQueue) -> Vec<(u64, u64)> {
        std::iter::from_fn(|| q.pop()).map(|(at, e)| (at.0, token_of(e))).collect()
    }

    #[test]
    fn pops_in_time_then_fifo_order() {
        let mut q = EventQueue::new();
        q.push(Instant(10), Event::Timer { elem: 0, token: 1 });
        q.push(Instant(5), Event::Timer { elem: 0, token: 2 });
        q.push(Instant(10), Event::Timer { elem: 0, token: 3 });
        let order: Vec<u64> = drain(&mut q).into_iter().map(|(_, t)| t).collect();
        assert_eq!(order, vec![2, 1, 3], "time order, then insertion order");
    }

    #[test]
    fn peek_time() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek_time(), None);
        q.push(Instant(7), Event::Timer { elem: 1, token: 0 });
        assert_eq!(q.peek_time(), Some(Instant(7)));
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn cascades_across_levels() {
        let mut q = EventQueue::new();
        // One event per wheel level, pushed in reverse time order.
        let times = [1u64 << 32, 1 << 20, 1 << 13, 70, 3];
        for (i, &t) in times.iter().enumerate() {
            q.push(Instant(t), Event::Timer { elem: 0, token: i as u64 });
        }
        assert_eq!(q.peek_time(), Some(Instant(3)));
        let mut sorted = times.to_vec();
        sorted.sort_unstable();
        assert_eq!(drain(&mut q).into_iter().map(|(at, _)| at).collect::<Vec<_>>(), sorted);
    }

    #[test]
    fn past_due_push_pops_first_in_time_order() {
        let mut q = EventQueue::new();
        q.push(Instant(100), Event::Timer { elem: 0, token: 0 });
        assert_eq!(q.pop().unwrap().0, Instant(100));
        // The cursor sits at 100; these land in its epoch but must still
        // pop by (time, seq).
        q.push(Instant(40), Event::Timer { elem: 0, token: 1 });
        q.push(Instant(7), Event::Timer { elem: 0, token: 2 });
        q.push(Instant(40), Event::Timer { elem: 0, token: 3 });
        q.push(Instant(100), Event::Timer { elem: 0, token: 4 });
        assert_eq!(q.peek_time(), Some(Instant(7)));
        assert_eq!(drain(&mut q), vec![(7, 2), (40, 1), (40, 3), (100, 4)]);
    }

    #[test]
    fn overflow_beyond_horizon_migrates_back() {
        let far = 1u64 << 43; // past the 2^42 µs horizon
        let mut q = EventQueue::new();
        q.push(Instant(far + 1), Event::Timer { elem: 0, token: 0 });
        q.push(Instant(5), Event::Timer { elem: 0, token: 1 });
        q.push(Instant(far), Event::Timer { elem: 0, token: 2 });
        assert_eq!(q.peek_time(), Some(Instant(5)));
        assert_eq!(drain(&mut q), vec![(5, 1), (far, 2), (far + 1, 0)]);
        assert!(q.is_empty());
    }

    #[test]
    fn epoch_boundary_keeps_order() {
        // Events straddling a 4096 µs epoch edge: the later one waits in
        // an upper level and cascades into the front only after the epoch
        // advances.
        let mut q = EventQueue::new();
        q.push(Instant(4_095), Event::Timer { elem: 0, token: 0 });
        q.push(Instant(4_097), Event::Timer { elem: 0, token: 1 });
        q.push(Instant(4_096), Event::Timer { elem: 0, token: 2 });
        assert_eq!(drain(&mut q), vec![(4_095, 0), (4_096, 2), (4_097, 1)]);
    }

    #[test]
    fn pop_batch_drains_equal_time_runs_in_seq_order() {
        let mut q = EventQueue::new();
        q.push(Instant(10), Event::Timer { elem: 0, token: 0 });
        q.push(Instant(5), Event::Timer { elem: 0, token: 1 });
        q.push(Instant(10), Event::Timer { elem: 0, token: 2 });
        q.push(Instant(10), Event::Timer { elem: 0, token: 3 });
        q.push(Instant(4_200), Event::Timer { elem: 0, token: 4 }); // next epoch
        let mut out = Vec::new();
        assert_eq!(q.pop_batch(&mut out), 1, "lone minimum");
        assert_eq!(q.pop_batch(&mut out), 3, "the t=10 run drains together");
        assert_eq!(q.pop_batch(&mut out), 1, "upper-level event after cascade");
        assert_eq!(q.pop_batch(&mut out), 0);
        let seen: Vec<(u64, u64)> = out.into_iter().map(|(at, e)| (at.0, token_of(e))).collect();
        assert_eq!(seen, vec![(5, 1), (10, 0), (10, 2), (10, 3), (4_200, 4)]);
        assert!(q.is_empty());
        assert!(q.structural_imbalance().is_none());
    }

    #[test]
    fn pop_batch_only_takes_the_current_minimum_run() {
        // Same-time events pushed *after* a batch was drained form their own
        // later batch (higher seq), exactly like repeated single pops.
        let mut q = EventQueue::new();
        q.push(Instant(10), Event::Timer { elem: 0, token: 0 });
        let mut out = Vec::new();
        assert_eq!(q.pop_batch(&mut out), 1);
        q.push(Instant(10), Event::Timer { elem: 0, token: 1 });
        q.push(Instant(10), Event::Timer { elem: 0, token: 2 });
        assert_eq!(q.pop_batch(&mut out), 2, "new same-time pushes drain next");
        let seen: Vec<u64> = out.into_iter().map(|(_, e)| token_of(e)).collect();
        assert_eq!(seen, vec![0, 1, 2]);
    }

    #[test]
    fn deliver_len_tracks_only_deliver_events() {
        let mut q = EventQueue::new();
        q.push(Instant(1), Event::Timer { elem: 0, token: 0 });
        q.push(
            Instant(2),
            Event::Deliver {
                elem: 0,
                dir: Direction::ToServer,
                wire: vec![1, 2, 3].into(),
                cause: None,
            },
        );
        q.push(
            Instant(2),
            Event::Deliver {
                elem: 0,
                dir: Direction::ToServer,
                wire: vec![4].into(),
                cause: None,
            },
        );
        assert_eq!(q.deliver_len(), 2);
        assert_eq!(q.len(), 3);
        q.pop(); // timer
        assert_eq!(q.deliver_len(), 2);
        let mut out = Vec::new();
        assert_eq!(q.pop_batch(&mut out), 2, "both delivers share t=2");
        assert_eq!(q.deliver_len(), 0);
        assert!(q.is_empty());
    }

    /// Run a metro-shaped schedule on `q` and return its peak `len()`:
    /// an arrival every millisecond for 40 s of simulated time, each
    /// pushing +50 µs and +1 ms deliveries, a +1 s retransmit timer and a
    /// +30 s expiry, with every event popped as time advances.
    fn metro_schedule(q: &mut EventQueue) -> usize {
        const ARRIVAL: u64 = 0;
        q.push(Instant(0), Event::Timer { elem: 0, token: ARRIVAL });
        let (mut peak, mut last) = (0, 0);
        while let Some((at, ev)) = q.pop() {
            assert!(at.0 >= last, "time order");
            last = at.0;
            if token_of(ev) == ARRIVAL && at.0 < 40_000_000 {
                q.push(Instant(at.0 + 1_000), Event::Timer { elem: 0, token: ARRIVAL });
                for delay in [50, 1_000, 1_000_000, 30_000_000] {
                    q.push(Instant(at.0 + delay), Event::Timer { elem: 0, token: 1 });
                }
            }
            peak = peak.max(q.len());
            if at.0 % 997 == 0 {
                assert_eq!(q.structural_imbalance(), None);
            }
        }
        assert_eq!(q.structural_imbalance(), None);
        peak
    }

    #[test]
    fn storage_follows_peak_pending_not_history() {
        let mut q = EventQueue::with_fresh_storage();
        let peak = metro_schedule(&mut q);
        let cap = q.storage_capacity();
        assert!(peak > 30_000, "the +30 s expiries pile up: peak {peak}");
        assert!(cap <= 2 * peak, "arena capacity {cap} for a peak of {peak} pending");
        drop(q);
        // The retired arena comes back from this thread's pool and must
        // absorb an identical run without growing.
        let mut again = EventQueue::new();
        assert_eq!(metro_schedule(&mut again), peak);
        assert_eq!(again.storage_capacity(), cap, "recycled storage grew");
    }

    #[test]
    fn structural_probe_checks_arena_bookkeeping() {
        let mut q = EventQueue::new();
        for t in [5, 9_000, 1 << 43] {
            q.push(Instant(t), Event::Timer { elem: 0, token: t });
        }
        q.pop();
        assert_eq!(q.structural_imbalance(), None);
        q.free_len += 1;
        assert!(q.structural_imbalance().is_some_and(|d| d.contains("arena")));
        q.free_len -= 1;
        q.overflow_len -= 1;
        assert!(q.structural_imbalance().is_some_and(|d| d.contains("overflow 0")));
    }

    #[test]
    fn arena_cells_stay_one_cache_line() {
        assert!(std::mem::size_of::<Node>() <= 64);
    }

    #[test]
    fn interleaved_push_pop_keeps_global_order() {
        let mut q = EventQueue::new();
        q.push(Instant(50), Event::Timer { elem: 0, token: 0 });
        q.push(Instant(10), Event::Timer { elem: 0, token: 1 });
        assert_eq!(q.pop().unwrap().0, Instant(10));
        q.push(Instant(20), Event::Timer { elem: 0, token: 2 });
        q.push(Instant(50), Event::Timer { elem: 0, token: 3 });
        assert_eq!(drain(&mut q), vec![(20, 2), (50, 0), (50, 3)]);
    }
}
