//! The simulator's event queue: a timing-wheel (calendar-queue) scheduler.
//!
//! Events are ordered by `(time, sequence)` where `sequence` is a strictly
//! increasing insertion counter: two events scheduled for the same instant
//! fire in the order they were scheduled. This tie-break is what makes whole
//! simulation runs reproducible bit-for-bit.
//!
//! # Design
//!
//! The queue is a single-level timing wheel in the style of Varghese &
//! Lauck's calendar queues, chosen over a `BinaryHeap` because the
//! simulator's schedule horizon is short and dense: almost every event is a
//! network delivery or protocol tick landing within a few virtual
//! milliseconds of "now", so `O(1)` bucket insertion beats `O(log n)`
//! sift-down on the hot path. Four structures cooperate:
//!
//! - **`ready`** — events at exactly the current cursor time, in seq order.
//!   Popping the head is the common fast path.
//! - **the wheel** — [`WHEEL_SLOTS`] buckets of one virtual microsecond
//!   each. An event with `0 < time - cursor < WHEEL_SLOTS` lives in slot
//!   `time % WHEEL_SLOTS`. Because every resident delta is smaller than one
//!   revolution, a slot holds events of **exactly one** timestamp, and
//!   because the insertion seq only grows, each slot's list is sorted by
//!   seq *by construction* — no per-slot sorting, ever. A 1-bit-per-slot
//!   occupancy bitmap (plus a 1-bit-per-word summary) finds the next
//!   non-empty slot in a handful of word scans.
//! - **`far`** — a `BinaryHeap` for events at or beyond one wheel
//!   revolution (timers, workload arrivals scheduled far ahead, and every
//!   delivery a saturated link's backlog pushes past 8.192 ms). Far events
//!   are *not* cascaded into the wheel as the cursor approaches — they are
//!   merged (by seq) with the wheel slot of the same timestamp at pop time,
//!   which is what preserves the FIFO tie-break exactly.
//! - **`past`** — a `BinaryHeap` for events scheduled strictly before the
//!   cursor. The simulation driver never does this, but the queue stays a
//!   faithful stable priority queue even for pathological schedules.
//!
//! `ready` and every wheel slot are `(head, tail)` lists of cells in one
//! pool: a cell holds one event and a parallel `next` vector links it to
//! the one after it. Appending is O(1), so is handing a slot to `ready`
//! when the cursor reaches it, and a far event joins a slot's run by being
//! linked in at its seq. A pop unlinks `ready`'s head and pushes the cell
//! onto a LIFO free list, so the next schedule writes the cell the last
//! pop vacated, still in cache. The pool grows only when no cell is free:
//! its length is the peak number of events the wheel and `ready` held at
//! once, whatever the slots they were spread over.
//!
//! Pop order is **identical** to the previous `BinaryHeap` implementation
//! for every schedule; the property tests at the bottom of this module
//! hold the two in lock-step.
//!
//! # Examples
//!
//! Same-time events pop in the order they were scheduled:
//!
//! ```
//! use bcastdb_sim::{EventKind, EventQueue, SimTime, SiteId};
//!
//! let mut q: EventQueue<&str, ()> = EventQueue::new();
//! let at = |us| SimTime::from_micros(us);
//! let msg = |s: &'static str| EventKind::Deliver {
//!     from: SiteId(0),
//!     to: SiteId(1),
//!     msg: s,
//! };
//! q.schedule(at(20), msg("late"));
//! q.schedule(at(10), msg("first"));
//! q.schedule(at(10), msg("second"));
//! assert_eq!(q.peek_time(), Some(at(10)));
//! let order: Vec<_> = std::iter::from_fn(|| q.pop())
//!     .map(|e| (e.time.as_micros(), e.seq))
//!     .collect();
//! assert_eq!(order, vec![(10, 1), (10, 2), (20, 0)]);
//! ```

use crate::{SimTime, SiteId};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Number of one-microsecond slots in the timing wheel (one revolution).
///
/// 8192 µs covers the LAN latency/tick horizon the experiments schedule
/// into; anything further out (long failure-detector timeouts, workload
/// arrivals injected at absolute times, deliveries queued behind a
/// saturated link) takes the `far` heap path, which is exactly the old
/// binary-heap behavior.
const WHEEL_SLOTS: usize = 8192;
const WHEEL_MASK: u64 = WHEEL_SLOTS as u64 - 1;
/// Occupancy bitmap words (64 slots per word).
const OCC_WORDS: usize = WHEEL_SLOTS / 64;
/// The end of a cell list.
const NIL: u32 = u32::MAX;

/// What an [`Event`] does when it fires.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EventKind<M, T> {
    /// Deliver a network message to `to`.
    Deliver {
        /// Originating site.
        from: SiteId,
        /// Destination site.
        to: SiteId,
        /// Application payload.
        msg: M,
    },
    /// Fire a local timer at `at`.
    Timer {
        /// Site whose timer fires.
        at: SiteId,
        /// Application-defined timer tag.
        tag: T,
    },
}

/// A scheduled occurrence in virtual time.
#[derive(Debug, Clone)]
pub struct Event<M, T> {
    /// When the event fires.
    pub time: SimTime,
    /// Insertion sequence number; breaks ties at equal `time`.
    pub seq: u64,
    /// The action to perform.
    pub kind: EventKind<M, T>,
}

impl<M, T> PartialEq for Event<M, T> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<M, T> Eq for Event<M, T> {}

impl<M, T> PartialOrd for Event<M, T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<M, T> Ord for Event<M, T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest event is on top
        // (the `far` and `past` heaps rely on this).
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A list of pool cells linked through [`EventQueue`]'s `next`: a wheel
/// slot's events or `ready`, in seq order. Empty iff `head` is `NIL`.
#[derive(Debug, Clone, Copy)]
struct Cells {
    head: u32,
    tail: u32,
}

const EMPTY: Cells = Cells {
    head: NIL,
    tail: NIL,
};

impl Cells {
    /// Appends cell `c`, whose link is `NIL`.
    fn push(&mut self, next: &mut [u32], c: u32) {
        match self.tail {
            NIL => self.head = c,
            tail => next[tail as usize] = c,
        }
        self.tail = c;
    }
}

/// A stable min-priority queue of [`Event`]s.
///
/// Pops strictly in `(time, seq)` order: earliest firing time first, and
/// among events scheduled for the same instant, scheduling order (FIFO).
/// The module-level docs in `crates/sim/src/event.rs` (and DESIGN.md §13)
/// describe the internal wheel/heap layout.
#[derive(Debug)]
pub struct EventQueue<M, T> {
    /// One cell per event in the wheel or `ready`, `(seq, kind)`; a free
    /// cell is `None`. Never shrinks.
    pool: Vec<Option<(u64, EventKind<M, T>)>>,
    /// `next[c]`: the cell after `c` in its slot's list, in `ready` or in
    /// the free list; `NIL` at the end.
    next: Vec<u32>,
    /// Head of the free list, most recently vacated cell first.
    free: u32,
    /// Wheel buckets. Each occupied slot lists events of exactly one
    /// timestamp, recoverable from the slot index and the cursor, and is
    /// seq-sorted by construction.
    slots: Vec<Cells>,
    /// One occupancy bit per slot.
    occ: [u64; OCC_WORDS],
    /// One bit per occupancy word (any-set summary for fast scans).
    summary: u128,
    /// The current batch timestamp in µs: every event in `ready` fires at
    /// exactly this time, every wheel/far event strictly after it.
    cursor: u64,
    /// Events at time == `cursor`, in seq order; popped from the head.
    ready: Cells,
    /// Events at or beyond one wheel revolution, in `(time, seq)` order.
    far: BinaryHeap<Event<M, T>>,
    /// Events scheduled strictly before the cursor (pathological case).
    past: BinaryHeap<Event<M, T>>,
    next_seq: u64,
    len: usize,
    /// Lifetime schedule counts by placement (wheel/ready, far, past) —
    /// cheap always-on counters feeding [`EventQueue::wheel_stats`].
    sched_near: u64,
    sched_far: u64,
    sched_past: u64,
}

/// Where the events of a queue's lifetime landed, plus the live residency
/// of each structure. `near` counts the wheel/ready fast path; `far` the
/// beyond-one-revolution heap; `past` the pathological behind-the-cursor
/// heap. The PR-5 performance model assumes `near` dominates — the metrics
/// subsystem samples these so a workload that quietly falls off the fast
/// path shows up in the data.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WheelStats {
    /// Events scheduled onto the wheel or the ready queue (fast path).
    pub sched_near: u64,
    /// Events scheduled at or beyond one wheel revolution (far heap).
    pub sched_far: u64,
    /// Events scheduled strictly before the cursor (past heap).
    pub sched_past: u64,
    /// Events currently in the ready queue.
    pub ready_len: usize,
    /// Events currently in the far heap.
    pub far_len: usize,
    /// Events currently in the past heap.
    pub past_len: usize,
}

impl<M, T> Default for EventQueue<M, T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M, T> EventQueue<M, T> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Creates an empty queue pre-sized for roughly `cap` pending events,
    /// so the steady state of a workload that stays under that bound never
    /// reallocates. Ordering semantics are identical to
    /// [`EventQueue::new`] — capacity never affects pop order.
    pub fn with_capacity(cap: usize) -> Self {
        EventQueue {
            pool: Vec::with_capacity(cap),
            next: Vec::with_capacity(cap),
            free: NIL,
            slots: vec![EMPTY; WHEEL_SLOTS],
            occ: [0; OCC_WORDS],
            summary: 0,
            cursor: 0,
            ready: EMPTY,
            // Absolute-time workload arrivals land here in bulk.
            far: BinaryHeap::with_capacity(cap),
            past: BinaryHeap::new(),
            next_seq: 0,
            len: 0,
            sched_near: 0,
            sched_far: 0,
            sched_past: 0,
        }
    }

    /// Schedules `kind` to fire at `time`. Events at equal times fire in
    /// scheduling order.
    pub fn schedule(&mut self, time: SimTime, kind: EventKind<M, T>) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.len += 1;
        let t = time.as_micros();
        if t > self.cursor {
            let delta = t - self.cursor;
            if delta < WHEEL_SLOTS as u64 {
                let idx = (t & WHEEL_MASK) as usize;
                let c = self.alloc(seq, kind);
                self.slots[idx].push(&mut self.next, c);
                self.occ[idx >> 6] |= 1u64 << (idx & 63);
                self.summary |= 1u128 << (idx >> 6);
                self.sched_near += 1;
            } else {
                self.far.push(Event { time, seq, kind });
                self.sched_far += 1;
            }
        } else if t == self.cursor {
            // Fires at the instant currently being drained: this seq is
            // larger than everything already in `ready`, so appending
            // keeps `ready` seq-sorted.
            let c = self.alloc(seq, kind);
            self.ready.push(&mut self.next, c);
            self.sched_near += 1;
        } else {
            self.past.push(Event { time, seq, kind });
            self.sched_past += 1;
        }
    }

    /// Removes and returns the earliest event, if any.
    pub fn pop(&mut self) -> Option<Event<M, T>> {
        // Past events (time < cursor) precede everything resident in the
        // wheel or `ready` (time >= cursor).
        if let Some(ev) = self.past.pop() {
            self.len -= 1;
            return Some(ev);
        }
        if self.ready.head == NIL && !self.advance() {
            return None;
        }
        let c = self.ready.head;
        self.ready.head = std::mem::replace(&mut self.next[c as usize], self.free);
        if self.ready.head == NIL {
            self.ready.tail = NIL;
        }
        self.free = c;
        let (seq, kind) = self.pool[c as usize].take().expect("a listed cell is full");
        self.len -= 1;
        Some(Event {
            time: SimTime::from_micros(self.cursor),
            seq,
            kind,
        })
    }

    /// Returns the firing time of the earliest event without removing it.
    pub fn peek_time(&self) -> Option<SimTime> {
        if let Some(ev) = self.past.peek() {
            return Some(ev.time);
        }
        if self.ready.head != NIL {
            return Some(SimTime::from_micros(self.cursor));
        }
        let wheel_t = self.next_occupied().map(|(_, t)| t);
        let far_t = self.far.peek().map(|e| e.time.as_micros());
        match (wheel_t, far_t) {
            (None, None) => None,
            (a, b) => Some(SimTime::from_micros(
                a.unwrap_or(u64::MAX).min(b.unwrap_or(u64::MAX)),
            )),
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True iff no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Lifetime placement counts and live per-structure residency.
    pub fn wheel_stats(&self) -> WheelStats {
        let link = |c: u32| Some(c).filter(|&c| c != NIL);
        let ready = std::iter::successors(link(self.ready.head), |&c| link(self.next[c as usize]));
        WheelStats {
            sched_near: self.sched_near,
            sched_far: self.sched_far,
            sched_past: self.sched_past,
            ready_len: ready.count(),
            far_len: self.far.len(),
            past_len: self.past.len(),
        }
    }

    /// Stores `(seq, kind)` in the most recently vacated cell, or a new
    /// one when none is free, and returns the cell with its link `NIL`.
    fn alloc(&mut self, seq: u64, kind: EventKind<M, T>) -> u32 {
        let c = self.free;
        if c == NIL {
            self.pool.push(Some((seq, kind)));
            self.next.push(NIL);
            return u32::try_from(self.pool.len() - 1).expect("under 2^32 pending events");
        }
        self.free = std::mem::replace(&mut self.next[c as usize], NIL);
        self.pool[c as usize] = Some((seq, kind));
        c
    }

    /// Moves the next timestamp's events into `ready` and advances the
    /// cursor to it. Returns `false` when the queue is empty.
    fn advance(&mut self) -> bool {
        debug_assert!(self.ready.head == NIL && self.past.is_empty());
        let wheel = self.next_occupied();
        let far_t = self.far.peek().map(|e| e.time.as_micros());
        match (wheel, far_t) {
            (None, None) => false,
            (Some((idx, tw)), None) => {
                self.cursor = tw;
                self.move_slot_to_ready(idx);
                true
            }
            (None, Some(tf)) => {
                self.cursor = tf;
                self.move_far_to_ready(tf);
                true
            }
            (Some((idx, tw)), Some(tf)) => {
                self.cursor = tw.min(tf);
                match tw.cmp(&tf) {
                    Ordering::Less => self.move_slot_to_ready(idx),
                    Ordering::Greater => self.move_far_to_ready(tf),
                    // A far event caught up with a wheel slot at the same
                    // timestamp: the two runs go out in seq order.
                    Ordering::Equal => self.merge_slot_and_far(idx, tf),
                }
                true
            }
        }
    }

    /// Finds the occupied slot closest after the cursor, returning its
    /// index and absolute timestamp. Read-only (shared by `peek_time`).
    fn next_occupied(&self) -> Option<(usize, u64)> {
        if self.summary == 0 {
            return None;
        }
        // Scanning slot indices upward from the cursor's position (and
        // wrapping once) visits resident deltas in increasing order,
        // because every resident delta is below one revolution.
        let start = ((self.cursor as usize) + 1) & (WHEEL_SLOTS - 1);
        let idx = self
            .scan_range(start, WHEEL_SLOTS)
            .or_else(|| self.scan_range(0, start))?;
        let delta = (idx as u64).wrapping_sub(self.cursor) & WHEEL_MASK;
        debug_assert_ne!(delta, 0, "slot at the cursor's own index occupied");
        Some((idx, self.cursor + delta))
    }

    /// Lowest occupied slot index in `[from, to)`, via the bitmaps.
    fn scan_range(&self, from: usize, to: usize) -> Option<usize> {
        if from >= to {
            return None;
        }
        let first_w = from >> 6;
        let last_w = (to - 1) >> 6;
        // Words with any occupied slot, restricted to [first_w, last_w].
        let mut sum = (self.summary >> first_w) << first_w;
        if last_w < OCC_WORDS - 1 {
            sum &= (1u128 << (last_w + 1)) - 1;
        }
        while sum != 0 {
            let w = sum.trailing_zeros() as usize;
            let mut word = self.occ[w];
            if w == first_w {
                word &= !0u64 << (from & 63);
            }
            if w == last_w && (to & 63) != 0 {
                word &= (1u64 << (to & 63)) - 1;
            }
            if word != 0 {
                return Some((w << 6) + word.trailing_zeros() as usize);
            }
            sum &= sum - 1;
        }
        None
    }

    fn clear_bit(&mut self, idx: usize) {
        let w = idx >> 6;
        self.occ[w] &= !(1u64 << (idx & 63));
        if self.occ[w] == 0 {
            self.summary &= !(1u128 << w);
        }
    }

    /// Hands slot `idx`'s list (one timestamp, seq-sorted) to `ready`.
    fn move_slot_to_ready(&mut self, idx: usize) {
        self.ready = std::mem::replace(&mut self.slots[idx], EMPTY);
        self.clear_bit(idx);
    }

    /// Moves every far event at exactly time `t` into `ready`. The heap
    /// yields equal-time events in seq order, so `ready` stays sorted.
    fn move_far_to_ready(&mut self, t: u64) {
        while self.far.peek().is_some_and(|e| e.time.as_micros() == t) {
            let e = self.far.pop().expect("peeked");
            let c = self.alloc(e.seq, e.kind);
            self.ready.push(&mut self.next, c);
        }
    }

    /// Hands the far events at time `t`, then slot `idx`'s list, to
    /// `ready`. That is seq order: a far event was scheduled while the
    /// cursor was a revolution or more before `t`, every slot event once it
    /// was less, and the cursor only moves forward.
    fn merge_slot_and_far(&mut self, idx: usize, t: u64) {
        self.move_far_to_ready(t);
        let run = std::mem::replace(&mut self.slots[idx], EMPTY);
        self.next[self.ready.tail as usize] = run.head;
        self.ready.tail = run.tail;
        self.clear_bit(idx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn deliver(n: usize) -> EventKind<u32, ()> {
        EventKind::Deliver {
            from: SiteId(0),
            to: SiteId(n),
            msg: n as u32,
        }
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_micros(30), deliver(3));
        q.schedule(SimTime::from_micros(10), deliver(1));
        q.schedule(SimTime::from_micros(20), deliver(2));
        let order: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|e| e.time.as_micros())
            .collect();
        assert_eq!(order, vec![10, 20, 30]);
    }

    #[test]
    fn equal_times_pop_in_insertion_order() {
        let mut q = EventQueue::new();
        for i in 0..10 {
            q.schedule(SimTime::from_micros(5), deliver(i));
        }
        let order: Vec<usize> = std::iter::from_fn(|| q.pop())
            .map(|e| match e.kind {
                EventKind::Deliver { to, .. } => to.0,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn peek_time_reports_earliest() {
        let mut q: EventQueue<u32, ()> = EventQueue::new();
        assert_eq!(q.peek_time(), None);
        q.schedule(SimTime::from_micros(9), deliver(0));
        q.schedule(SimTime::from_micros(4), deliver(1));
        assert_eq!(q.peek_time(), Some(SimTime::from_micros(4)));
    }

    #[test]
    fn len_and_is_empty_track_contents() {
        let mut q: EventQueue<u32, ()> = EventQueue::new();
        assert!(q.is_empty());
        q.schedule(SimTime::ZERO, deliver(0));
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(q.is_empty());
    }

    #[test]
    fn timers_and_messages_interleave_correctly() {
        let mut q: EventQueue<u32, u8> = EventQueue::new();
        q.schedule(
            SimTime::from_micros(2),
            EventKind::Timer {
                at: SiteId(1),
                tag: 7,
            },
        );
        q.schedule(
            SimTime::from_micros(1),
            EventKind::Deliver {
                from: SiteId(0),
                to: SiteId(1),
                msg: 42,
            },
        );
        assert!(matches!(
            q.pop().unwrap().kind,
            EventKind::Deliver { msg: 42, .. }
        ));
        assert!(matches!(
            q.pop().unwrap().kind,
            EventKind::Timer { tag: 7, .. }
        ));
    }

    #[test]
    fn events_beyond_one_revolution_take_the_far_path() {
        let mut q = EventQueue::new();
        let far = WHEEL_SLOTS as u64 * 3 + 17;
        q.schedule(SimTime::from_micros(far), deliver(2));
        q.schedule(SimTime::from_micros(5), deliver(1));
        assert_eq!(q.peek_time(), Some(SimTime::from_micros(5)));
        assert_eq!(q.pop().unwrap().time.as_micros(), 5);
        assert_eq!(q.peek_time(), Some(SimTime::from_micros(far)));
        assert_eq!(q.pop().unwrap().time.as_micros(), far);
        assert!(q.pop().is_none());
    }

    #[test]
    fn far_event_merges_with_wheel_slot_in_seq_order() {
        let mut q = EventQueue::new();
        let t = WHEEL_SLOTS as u64 + 100;
        // seq 0 goes far (beyond one revolution from cursor 0)...
        q.schedule(SimTime::from_micros(t), deliver(0));
        // ...advance the cursor so the same timestamp now fits the wheel.
        q.schedule(SimTime::from_micros(200), deliver(9));
        assert_eq!(q.pop().unwrap().time.as_micros(), 200);
        // seq 2 lands in the wheel slot for `t`.
        q.schedule(SimTime::from_micros(t), deliver(2));
        let order: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|e| e.seq).collect();
        assert_eq!(order, vec![0, 2], "far/wheel tie must interleave by seq");
    }

    #[test]
    fn scheduling_at_the_current_instant_fires_after_pending_ties() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_micros(7), deliver(0));
        q.schedule(SimTime::from_micros(7), deliver(1));
        assert_eq!(q.pop().unwrap().seq, 0);
        // The queue is now mid-batch at t=7; a new same-instant event
        // fires after the remaining tie.
        q.schedule(SimTime::from_micros(7), deliver(2));
        assert_eq!(q.pop().unwrap().seq, 1);
        assert_eq!(q.pop().unwrap().seq, 2);
        assert!(q.pop().is_none());
    }

    #[test]
    fn events_before_the_cursor_still_pop_first() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_micros(50), deliver(0));
        assert_eq!(q.pop().unwrap().time.as_micros(), 50);
        // Pathological: schedule before the cursor. A stable priority
        // queue must still serve it ahead of later times.
        q.schedule(SimTime::from_micros(10), deliver(1));
        q.schedule(SimTime::from_micros(60), deliver(2));
        assert_eq!(q.pop().unwrap().time.as_micros(), 10);
        assert_eq!(q.peek_time(), Some(SimTime::from_micros(60)));
        assert_eq!(q.pop().unwrap().time.as_micros(), 60);
    }

    #[test]
    fn wheel_wraps_across_revolutions() {
        let mut q = EventQueue::new();
        let mut expect = Vec::new();
        // March the cursor through several revolutions with short hops.
        let mut t = 0u64;
        for i in 0..(WHEEL_SLOTS * 3 / 100) {
            t += 100 + (i as u64 % 7);
            q.schedule(SimTime::from_micros(t), deliver(i));
            expect.push(t);
        }
        let got: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|e| e.time.as_micros())
            .collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn wheel_stats_classify_schedules() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_micros(50), deliver(0)); // near
        q.schedule(SimTime::from_micros(WHEEL_SLOTS as u64 + 9), deliver(1)); // far
        assert_eq!(q.pop().unwrap().time.as_micros(), 50);
        q.schedule(SimTime::from_micros(10), deliver(2)); // past (cursor = 50)
        let s = q.wheel_stats();
        assert_eq!((s.sched_near, s.sched_far, s.sched_past), (1, 1, 1));
        assert_eq!((s.far_len, s.past_len), (1, 1));
    }

    #[test]
    fn a_schedule_takes_the_cell_the_last_pop_vacated() {
        let mut q = EventQueue::new();
        for t in 1..=3 {
            q.schedule(SimTime::from_micros(t), deliver(t as usize));
        }
        // Cells 0, 1, 2 in time order; the two pops vacate 0, then 1.
        assert_eq!(q.pop().unwrap().seq, 0);
        assert_eq!(q.pop().unwrap().seq, 1);
        q.schedule(SimTime::from_micros(9), deliver(9));
        assert_eq!(q.pool.len(), 3, "a free cell was there to take");
        assert_eq!(q.pool[1].as_ref().map(|&(seq, _)| seq), Some(3));
        assert!(q.pool[0].is_none());
    }

    /// Reference implementation: the previous `BinaryHeap` scheduler. It
    /// also remembers which events were scheduled a revolution or more
    /// ahead of the clock, so where the wheel keeps each pending event can
    /// be derived from it.
    #[derive(Default)]
    struct RefQueue {
        heap: BinaryHeap<Event<u32, ()>>,
        went_far: Vec<bool>,
        /// Most events pending at once.
        peak: usize,
    }

    impl RefQueue {
        fn schedule(&mut self, now: u64, t: u64) {
            let seq = self.went_far.len() as u64;
            self.went_far.push(t >= now + WHEEL_SLOTS as u64);
            let (time, kind) = (SimTime::from_micros(t), deliver(seq as usize));
            self.heap.push(Event { time, seq, kind });
            self.peak = self.peak.max(self.heap.len());
        }

        /// `(ready, far, past)` lengths with the clock at `now`: an event
        /// before it was scheduled behind the cursor, one at it is ready,
        /// and one after it sits where it was scheduled.
        fn residency(&self, now: u64) -> (usize, usize, usize) {
            let mut r = (0, 0, 0);
            for e in &self.heap {
                match e.time.as_micros().cmp(&now) {
                    Ordering::Less => r.2 += 1,
                    Ordering::Equal => r.0 += 1,
                    Ordering::Greater => r.1 += self.went_far[e.seq as usize] as usize,
                }
            }
            r
        }
    }

    /// The wheel and the reference driven in lock-step. `now` mirrors the
    /// simulation clock, the latest time popped, which is the wheel's
    /// cursor.
    #[derive(Default)]
    struct Lockstep {
        wheel: EventQueue<u32, ()>,
        heap: RefQueue,
        now: u64,
    }

    impl Lockstep {
        fn schedule(&mut self, t: u64) {
            let seq = self.heap.went_far.len();
            self.wheel.schedule(SimTime::from_micros(t), deliver(seq));
            self.heap.schedule(self.now, t);
        }

        /// Pops both; false once both are empty.
        fn pop(&mut self) -> Result<bool, TestCaseError> {
            prop_assert_eq!(
                self.wheel.peek_time(),
                self.heap.heap.peek().map(|e| e.time)
            );
            let a = self.wheel.pop().map(|e| (e.time.as_micros(), e.seq));
            let b = self.heap.heap.pop().map(|e| (e.time.as_micros(), e.seq));
            prop_assert_eq!(a, b);
            if let Some((t, _)) = a {
                self.now = self.now.max(t);
            }
            Ok(a.is_some())
        }

        /// The pending count and where each event sits agree with the
        /// reference, and the pool holds no more cells than were ever
        /// pending at once.
        fn check(&self) -> Result<(), TestCaseError> {
            prop_assert_eq!(self.wheel.len(), self.heap.heap.len());
            let s = self.wheel.wheel_stats();
            let residency = (s.ready_len, s.far_len, s.past_len);
            prop_assert_eq!(residency, self.heap.residency(self.now));
            prop_assert!(self.wheel.pool.len() <= self.heap.peak);
            Ok(())
        }
    }

    use proptest::prelude::*;

    /// One step of an interleaved schedule/pop workload. Times mix three
    /// regimes so the wheel, far-heap, merge, and past paths all trigger:
    /// near offsets (wheel), offsets beyond a revolution (far), and
    /// absolute times that may land before the cursor (past).
    #[derive(Debug, Clone)]
    enum Op {
        ScheduleNear(u16),
        ScheduleFar(u32),
        ScheduleAbs(u32),
        Pop,
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        // Near schedules and pops are listed repeatedly to bias the
        // (unweighted) union toward the hot wheel path while still
        // exercising far, absolute/past, and drain transitions.
        prop_oneof![
            (0u16..2048).prop_map(Op::ScheduleNear),
            (0u16..2048).prop_map(Op::ScheduleNear),
            (0u16..2048).prop_map(Op::ScheduleNear),
            (0u16..64).prop_map(Op::ScheduleNear),
            (0u32..60_000).prop_map(Op::ScheduleFar),
            (0u32..30_000).prop_map(Op::ScheduleAbs),
            Just(Op::Pop),
            Just(Op::Pop),
            Just(Op::Pop),
        ]
    }

    /// Runs `ops`, then drains both queues, checking after every step.
    fn lockstep(ops: &[Op]) -> Result<(), TestCaseError> {
        let mut run = Lockstep::default();
        for op in ops {
            match *op {
                Op::ScheduleNear(d) => run.schedule(run.now + d as u64),
                Op::ScheduleFar(d) => run.schedule(run.now + WHEEL_SLOTS as u64 + d as u64),
                Op::ScheduleAbs(t) => run.schedule(t as u64),
                Op::Pop => {
                    run.pop()?;
                }
            }
            run.check()?;
        }
        while run.pop()? {
            run.check()?;
        }
        prop_assert!(run.wheel.is_empty());
        Ok(())
    }

    proptest! {
        /// The wheel queue and the heap reference pop identical
        /// `(time, seq)` streams for arbitrary interleaved workloads,
        /// including same-timestamp bursts, and agree after every step on
        /// the pending count and where each event sits.
        #[test]
        fn wheel_matches_heap_reference(ops in proptest::collection::vec(op_strategy(), 1..300)) {
            lockstep(&ops)?;
        }

        /// Same-timestamp bursts pop strictly in scheduling order no
        /// matter which internal structure each event landed in.
        #[test]
        fn bursts_stay_fifo(burst in 1usize..64, t in 0u64..20_000) {
            let mut q: EventQueue<u32, ()> = EventQueue::new();
            for i in 0..burst {
                q.schedule(SimTime::from_micros(t), deliver(i));
            }
            let seqs: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|e| e.seq).collect();
            prop_assert_eq!(seqs, (0..burst as u64).collect::<Vec<_>>());
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 10_000, ..ProptestConfig::default() })]

        /// The same property over 10 000 workloads of up to 2 000 steps
        /// (release: `cargo test --release -p bcastdb-sim _10k -- --ignored`).
        #[test]
        #[ignore]
        fn wheel_matches_heap_reference_10k(ops in proptest::collection::vec(op_strategy(), 1..2000)) {
            lockstep(&ops)?;
        }
    }

    /// A million schedule/pop cycles at 300 pending over hundreds of
    /// revolutions, with same-instant bursts and far events that wheel
    /// events later join: the pops match the reference throughout, and
    /// the pool stops at the most events ever pending.
    #[test]
    fn a_long_run_keeps_the_pool_at_its_peak() {
        let mut rng = crate::DetRng::new(37);
        let mut run = Lockstep::default();
        for _ in 0..300 {
            run.schedule(rng.gen_range(1..2_700));
        }
        let (mut last, mut far_at, mut merges, mut ties) = (0, u64::MAX, 0, 0);
        for cycle in 0..1_000_000u32 {
            let now = run.now;
            let t = match rng.gen_range(0..100) {
                // A burst: several events at the instant just scheduled.
                0..=11 if last > now => last,
                // Far ahead; a later near event at the same time merges.
                12 => {
                    far_at = now + WHEEL_SLOTS as u64 + rng.gen_range(0..2_000);
                    far_at
                }
                13..=15 if far_at > now && far_at - now < WHEEL_SLOTS as u64 => {
                    merges += 1;
                    far_at
                }
                _ => now + rng.gen_range(1..2_700),
            };
            run.schedule(t);
            last = t;
            assert!(run.pop().unwrap());
            ties += (run.now == now) as u32;
            if cycle % 1_000 == 0 {
                run.check().unwrap();
            }
        }
        assert_eq!(run.heap.peak, 301);
        assert!(run.wheel.pool.len() <= 301);
        assert!(run.now > 100 * WHEEL_SLOTS as u64, "{} µs", run.now);
        assert!(
            merges > 1_000 && ties > 10_000,
            "{merges} merges, {ties} ties"
        );
        while run.pop().unwrap() {}
    }
}
