//! The time-ordered pending queue, shared by both engines.
//!
//! Pending items are totally ordered by `(time, sequence number)`. The
//! sequence number is assigned by the queue's owner at scheduling time,
//! from a counter that only grows, so two items scheduled for the same
//! instant fire in the order they were scheduled — this is what makes
//! the simulation deterministic: there are no ties left for a hash map
//! or thread scheduler to break.
//!
//! # One sorted `Vec`, latest first
//!
//! [`PendingQueue`] keeps its items in a `Vec` sorted by `(time, seq)`
//! in descending order, so the next item to fire is the last one:
//! popping it is a `Vec::pop`, and inserting scans back from the end to
//! the first item that fires later. A GALS system has only a handful of
//! events in flight, and most new events land at or near the back. For
//! such queues the short scan and shift cost less than a binary heap's
//! sifts. A deep queue moves its latest arrivals to a second `Vec`
//! (see [`PendingQueue`]), so they do not shift the whole queue.
//!
//! The compiled engine in `synchro_tokens` owns its sequence counter and
//! queues typed events in a [`PendingQueue`] of its own. The event
//! kernel schedules through `EventQueue`, which owns the kernel's
//! counter and puts a same-instant FIFO in front of its queue.
//!
//! # Same-instant fast path
//!
//! Discrete-event workloads are bursty: a clock edge or a delta storm
//! schedules many events *at the current instant*, and the kernel drains
//! them before simulated time advances. Sequence numbers are monotonic,
//! so same-instant arrivals are already FIFO: `EventQueue::pop_at`
//! activates a FIFO *bucket* for its timestamp, and every subsequent
//! `EventQueue::schedule` at that exact instant is an `O(1)`
//! `push_back` that never scans the sorted queue.
//!
//! Ordering invariant: any queued event at the bucket's instant was
//! scheduled *before* the bucket was activated (smaller sequence number
//! — activation happens only once the instant is being drained, and
//! later schedules go to the bucket), so `pop_at` drains the queue's
//! same-instant events before touching the bucket.

use crate::component::ComponentId;
use crate::kernel::SignalId;
use crate::time::SimTime;
use crate::value::Value;
use std::cmp::Reverse;
use std::collections::VecDeque;
use std::mem;

/// A scheduled item: what fires, when, and its scheduling order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pending<K> {
    /// The instant it fires at.
    pub time: SimTime,
    /// The owner's sequence number, unique per item: equal-time items
    /// fire in `seq` order.
    pub seq: u64,
    /// What it does when it fires.
    pub kind: K,
}

/// Pending items sorted by `(time, seq)`: the next item to fire is the
/// last of `items`. Past `SPILL` items, an item that fires after all of
/// them goes to `later` instead, which holds the queue's latest items
/// earliest first and takes over once `items` drains.
#[derive(Debug, Clone)]
pub struct PendingQueue<K> {
    /// Latest first; every item fires before every item of `later`.
    items: Vec<Pending<K>>,
    /// Earliest first.
    later: Vec<Pending<K>>,
    /// No item of `items` fires later, and none of `later` earlier
    /// (meaningful while `later` is not empty).
    later_from: SimTime,
}

/// How long `items` grows before items that fire after all of it go to
/// `later`, so a deep queue's latest arrivals are pushes, not shifts of
/// the whole queue.
const SPILL: usize = 32;

impl<K> Default for PendingQueue<K> {
    fn default() -> Self {
        PendingQueue::with_capacity(0)
    }
}

impl<K> PendingQueue<K> {
    /// An empty queue with room for `n` items.
    pub fn with_capacity(n: usize) -> Self {
        PendingQueue {
            items: Vec::with_capacity(n),
            later: Vec::new(),
            later_from: SimTime::ZERO,
        }
    }

    /// Queues `kind` at `time` under `seq`, which must be larger than
    /// every queued item's. The item then fires after everything due at
    /// or before `time`, so equal-time items keep scheduling order. Most
    /// items land near the back of `items`, so the scan is short.
    #[inline]
    pub fn insert(&mut self, time: SimTime, seq: u64, kind: K) {
        let item = Pending { time, seq, kind };
        if self.later.is_empty() && self.items.len() < SPILL {
            self.insert_item(item);
        } else {
            self.insert_deep(item);
        }
    }

    /// [`insert`](Self::insert) once the queue is deep: an item that
    /// fires after all of `items` goes to `later`.
    #[inline(never)]
    fn insert_deep(&mut self, item: Pending<K>) {
        let time = item.time;
        let spills = if self.later.is_empty() {
            self.items[0].time <= time
        } else {
            time >= self.later_from
        };
        if !spills {
            return self.insert_item(item);
        }
        if self.later.is_empty() {
            self.later_from = time;
        }
        let mut pos = self.later.len();
        while pos > 0 && self.later[pos - 1].time > time {
            pos -= 1;
        }
        self.later.insert(pos, item);
    }

    /// Inserts into `items`, scanning back from the next item to fire.
    #[inline(always)]
    fn insert_item(&mut self, item: Pending<K>) {
        let mut pos = self.items.len();
        while pos > 0 && self.items[pos - 1].time <= item.time {
            pos -= 1;
        }
        debug_assert!(
            self.items
                .get(pos)
                .is_none_or(|p| p.time < item.time || p.seq < item.seq),
            "seq {} is not fresh",
            item.seq
        );
        self.items.insert(pos, item);
    }

    /// When the next item fires.
    #[inline]
    pub fn next_time(&self) -> Option<SimTime> {
        self.items.last().map(|p| p.time)
    }

    /// Pops the next item if it fires at or before `upto`.
    #[inline]
    pub fn pop_due(&mut self, upto: SimTime) -> Option<Pending<K>> {
        let next = self.items.pop_if(|p| p.time <= upto);
        if self.items.is_empty() && !self.later.is_empty() {
            self.take_later();
        }
        next
    }

    /// Moves `later` into an empty `items`.
    #[inline(never)]
    fn take_later(&mut self) {
        mem::swap(&mut self.items, &mut self.later);
        self.items.reverse();
    }

    /// Keeps only the items `keep` accepts, in order.
    pub fn retain(&mut self, mut keep: impl FnMut(&Pending<K>) -> bool) {
        self.items.retain(&mut keep);
        self.later.retain(keep);
        if self.items.is_empty() {
            mem::swap(&mut self.items, &mut self.later);
            self.items.reverse();
        }
    }

    /// Every pending item in firing order: earliest first.
    pub fn iter(&self) -> impl Iterator<Item = &Pending<K>> {
        self.items.iter().rev().chain(&self.later)
    }

    /// The same items in the same order, each kind mapped by `f`.
    pub fn map<L>(&self, mut f: impl FnMut(&K) -> L) -> PendingQueue<L> {
        let mut map = |items: &[Pending<K>]| -> Vec<Pending<L>> {
            items
                .iter()
                .map(|p| Pending {
                    time: p.time,
                    seq: p.seq,
                    kind: f(&p.kind),
                })
                .collect()
        };
        PendingQueue {
            items: map(&self.items),
            later: map(&self.later),
            later_from: self.later_from,
        }
    }

    /// Replaces the contents with `items`, given in any order, each
    /// keeping its `seq` (a checkpoint's pending events). Reuses the
    /// queue's buffer.
    pub fn restore(&mut self, items: impl IntoIterator<Item = Pending<K>>) {
        self.items.clear();
        self.later.clear();
        self.items.extend(items);
        self.items
            .sort_unstable_by_key(|p| Reverse((p.time, p.seq)));
    }

    /// How many items are pending.
    pub fn len(&self) -> usize {
        self.items.len() + self.later.len()
    }

    /// Whether nothing is pending (`later` is empty whenever `items`
    /// is).
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }
}

/// What a kernel event does when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum EventKind {
    /// Set a signal to a value (transport delay semantics).
    Drive { sig: SignalId, value: Value },
    /// Wake a component with `Wake::Timer(tag)`.
    Timer { comp: ComponentId, tag: u64 },
}

pub(crate) type Event = Pending<EventKind>;

/// The kernel's pending events, with a same-instant FIFO bucket in
/// front of the sorted queue, and the sequence counter they are
/// scheduled under.
#[derive(Debug, Default)]
pub(crate) struct EventQueue {
    pending: PendingQueue<EventKind>,
    /// FIFO of events at `bucket_time`, in scheduling order.
    bucket: VecDeque<Event>,
    /// The instant the bucket collects for (valid while draining that
    /// instant; stale once `pop_at` moves to a new time).
    bucket_time: Option<SimTime>,
    next_seq: u64,
    scheduled_total: u64,
}

impl EventQueue {
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules an event, assigning the next sequence number.
    #[inline]
    pub fn schedule(&mut self, time: SimTime, kind: EventKind) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.scheduled_total += 1;
        if self.bucket_time == Some(time) {
            // Same-instant burst: FIFO order == seq order.
            self.bucket.push_back(Pending { time, seq, kind });
        } else {
            self.pending.insert(time, seq, kind);
        }
    }

    /// The timestamp of the earliest pending event.
    #[inline]
    pub fn next_time(&self) -> Option<SimTime> {
        let queued = self.pending.next_time();
        match self.bucket_time.filter(|_| !self.bucket.is_empty()) {
            Some(b) => Some(queued.map_or(b, |q| q.min(b))),
            None => queued,
        }
    }

    /// Pops the earliest event if it fires at exactly `time`.
    ///
    /// Also activates the same-instant bucket for `time`, so events
    /// scheduled at `time` from now on skip the sorted queue.
    #[inline]
    pub fn pop_at(&mut self, time: SimTime) -> Option<Event> {
        if self.bucket.is_empty() {
            self.bucket_time = Some(time);
        } else if self.bucket_time.is_some_and(|bt| bt < time) {
            // Earlier-timed bucket entries exist; nothing fires at `time`.
            return None;
        }
        // Queued events at `time` predate any bucket events at `time`
        // (smaller sequence numbers), so they fire first.
        if self.pending.next_time() == Some(time) {
            return self.pending.pop_due(time);
        }
        if self.bucket_time == Some(time) {
            return self.bucket.pop_front();
        }
        None
    }

    /// Every pending event, sorted by `(time, seq)` — i.e. exactly the
    /// order they would fire in. Used by kernel checkpointing; the queue
    /// is left untouched.
    pub fn pending_sorted(&self) -> Vec<Event> {
        let mut evs: Vec<Event> = self.pending.iter().chain(&self.bucket).copied().collect();
        evs.sort_unstable_by_key(|e| (e.time, e.seq));
        evs
    }

    /// Replaces the queue contents from a checkpoint, given in any
    /// order. All events go into the sorted queue with the bucket idle;
    /// every restored event keeps its original sequence number.
    pub fn restore(&mut self, events: &[Event], next_seq: u64, scheduled_total: u64) {
        self.pending.restore(events.iter().copied());
        self.bucket.clear();
        self.bucket_time = None;
        self.next_seq = next_seq;
        self.scheduled_total = scheduled_total;
    }

    /// The sequence number the next scheduled event would receive.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    #[allow(dead_code)]
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty() && self.bucket.is_empty()
    }

    pub fn len(&self) -> usize {
        self.pending.len() + self.bucket.len()
    }

    /// Total number of events ever scheduled (for run statistics).
    pub fn scheduled_total(&self) -> u64 {
        self.scheduled_total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;
    use crate::time::SimDuration;

    fn timer(comp: u32, tag: u64) -> EventKind {
        EventKind::Timer {
            comp: ComponentId::from_raw(comp),
            tag,
        }
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        let t = |n| SimTime::ZERO + SimDuration::ns(n);
        q.schedule(t(5), timer(0, 0));
        q.schedule(t(1), timer(0, 1));
        q.schedule(t(3), timer(0, 2));
        assert_eq!(q.next_time(), Some(t(1)));
        assert_eq!(q.pop_at(t(1)).unwrap().kind, timer(0, 1));
        assert_eq!(q.next_time(), Some(t(3)));
        assert!(q.pop_at(t(1)).is_none());
        assert_eq!(q.pop_at(t(3)).unwrap().kind, timer(0, 2));
        assert_eq!(q.pop_at(t(5)).unwrap().kind, timer(0, 0));
        assert!(q.is_empty());
    }

    #[test]
    fn same_time_fires_in_schedule_order() {
        let mut q = EventQueue::new();
        let t = SimTime::ZERO + SimDuration::ns(1);
        for tag in 0..100 {
            q.schedule(t, timer(0, tag));
        }
        for tag in 0..100 {
            assert_eq!(q.pop_at(t).unwrap().kind, timer(0, tag));
        }
    }

    #[test]
    fn counts_scheduled_events() {
        let mut q = EventQueue::new();
        assert_eq!(q.scheduled_total(), 0);
        q.schedule(SimTime::ZERO, timer(0, 0));
        q.schedule(SimTime::ZERO, timer(0, 1));
        assert_eq!(q.scheduled_total(), 2);
        assert_eq!(q.len(), 2);
        q.pop_at(SimTime::ZERO);
        assert_eq!(q.scheduled_total(), 2, "popping must not change the total");
    }

    #[test]
    fn bucket_interleaves_with_heap_in_seq_order() {
        // Events scheduled at `t` before the instant is drained sit in
        // the sorted queue; events scheduled at `t` *while draining* go
        // to the bucket. Global order must still be pure scheduling
        // order.
        let mut q = EventQueue::new();
        let t = SimTime::ZERO + SimDuration::ns(2);
        q.schedule(t, timer(0, 0));
        q.schedule(t, timer(0, 1));
        assert_eq!(q.pop_at(t).unwrap().kind, timer(0, 0)); // activates bucket
        q.schedule(t, timer(0, 2)); // -> bucket
        q.schedule(t, timer(0, 3)); // -> bucket
        assert_eq!(q.pop_at(t).unwrap().kind, timer(0, 1)); // queue first
        assert_eq!(q.pop_at(t).unwrap().kind, timer(0, 2));
        q.schedule(t, timer(0, 4));
        assert_eq!(q.pop_at(t).unwrap().kind, timer(0, 3));
        assert_eq!(q.pop_at(t).unwrap().kind, timer(0, 4));
        assert!(q.pop_at(t).is_none());
        assert!(q.is_empty());
    }

    #[test]
    fn bucket_drains_before_later_instants() {
        let mut q = EventQueue::new();
        let t = |n| SimTime::ZERO + SimDuration::ns(n);
        q.schedule(t(1), timer(0, 0));
        assert_eq!(q.pop_at(t(1)).unwrap().kind, timer(0, 0));
        // Bucket now active at t=1; schedule both a same-instant and a
        // future event.
        q.schedule(t(1), timer(0, 1));
        q.schedule(t(5), timer(0, 2));
        assert_eq!(q.next_time(), Some(t(1)));
        // Asking for the future instant while earlier bucket events are
        // pending must yield nothing.
        assert!(q.pop_at(t(5)).is_none());
        assert_eq!(q.pop_at(t(1)).unwrap().kind, timer(0, 1));
        assert_eq!(q.next_time(), Some(t(5)));
        assert_eq!(q.pop_at(t(5)).unwrap().kind, timer(0, 2));
        assert!(q.is_empty());
    }

    #[test]
    fn stale_bucket_time_does_not_misroute() {
        let mut q = EventQueue::new();
        let t = |n| SimTime::ZERO + SimDuration::ns(n);
        q.schedule(t(1), timer(0, 0));
        assert_eq!(q.pop_at(t(1)).unwrap().kind, timer(0, 0));
        // Bucket is empty but bucket_time == t(1). A later-instant pop
        // re-activates the bucket for its own time.
        q.schedule(t(3), timer(0, 1));
        assert_eq!(q.pop_at(t(3)).unwrap().kind, timer(0, 1));
        q.schedule(t(3), timer(0, 2));
        assert_eq!(q.pop_at(t(3)).unwrap().kind, timer(0, 2));
        assert!(q.is_empty());
    }

    /// A reference queue: every pending item in a list, the minimum
    /// `(time, seq)` found by a full sort.
    fn reference_pop(reference: &mut Vec<Pending<u64>>, upto: SimTime) -> Option<Pending<u64>> {
        reference.sort_by_key(|p| (p.time, p.seq));
        if reference.first().is_some_and(|p| p.time <= upto) {
            Some(reference.remove(0))
        } else {
            None
        }
    }

    /// A kernel event as the reference's `u64` item.
    fn as_item(e: Event) -> Pending<u64> {
        let EventKind::Timer { tag, .. } = e.kind else {
            panic!("only timers are scheduled");
        };
        Pending {
            time: e.time,
            seq: e.seq,
            kind: tag,
        }
    }

    /// Drives a bare [`PendingQueue`] and the kernel's [`EventQueue`]
    /// in lockstep against [`reference_pop`]: schedules at the instant
    /// being drained and a little later, pops, checkpoint round trips
    /// (in shuffled order), and on odd seeds queues deep enough to use
    /// `later`, then a preload, a retain and a map.
    #[test]
    fn matches_a_reference_sort_under_random_schedules() {
        for seed in 0..40 {
            let deep = seed % 2 == 1;
            let (schedules, horizon) = if deep { (6, 64) } else { (4, 8) };
            let mut rng = SimRng::seed_from_u64(seed);
            let mut q = PendingQueue::default();
            let mut k = EventQueue::new();
            let mut reference = Vec::new();
            let mut seq = 0u64;
            let mut now = SimTime::ZERO;
            let mut schedule = |q: &mut PendingQueue<u64>,
                                k: &mut EventQueue,
                                reference: &mut Vec<Pending<u64>>,
                                at: SimTime,
                                kind: u64| {
                q.insert(at, seq, kind);
                k.schedule(at, timer(0, kind));
                reference.push(Pending {
                    time: at,
                    seq,
                    kind,
                });
                seq += 1;
            };
            for step in 0..600 {
                match rng.below(10) {
                    op if op <= schedules => {
                        let at = if rng.below(3) == 0 {
                            now
                        } else {
                            now + SimDuration::fs(rng.below(horizon))
                        };
                        let kind = rng.next_u64();
                        schedule(&mut q, &mut k, &mut reference, at, kind);
                    }
                    // Pop one item due by `now` or a little later; the
                    // kernel pops at the instant it drains.
                    op if op <= 8 => {
                        let upto = now + SimDuration::fs(rng.below(3));
                        let want = reference_pop(&mut reference, upto);
                        assert_eq!(q.pop_due(upto), want, "seed {seed} step {step}");
                        if let Some(p) = want {
                            assert_eq!(k.pop_at(p.time).map(as_item), want);
                            now = p.time;
                        }
                    }
                    // Round-trip the pending set through a checkpoint.
                    _ => {
                        let mut sorted = reference.clone();
                        sorted.sort_by_key(|p| (p.time, p.seq));
                        let saved: Vec<_> = q.iter().copied().collect();
                        assert_eq!(saved, sorted, "seed {seed} step {step}");
                        let events = k.pending_sorted();
                        let items: Vec<_> = events.iter().copied().map(as_item).collect();
                        assert_eq!(items, sorted, "seed {seed} step {step}");
                        let mut shuffled = events;
                        for i in (1..shuffled.len()).rev() {
                            shuffled.swap(i, rng.below(i as u64 + 1) as usize);
                        }
                        let (next_seq, total) = (k.next_seq(), k.scheduled_total());
                        k.restore(&shuffled, next_seq, total);
                        q.restore(shuffled.into_iter().map(as_item));
                        assert_eq!(q.iter().copied().collect::<Vec<_>>(), saved);
                    }
                }
                assert_eq!((q.len(), k.len()), (reference.len(), reference.len()));
                let earliest = reference.iter().map(|p| p.time).min();
                assert_eq!(q.next_time(), earliest, "seed {seed} step {step}");
                assert_eq!(k.next_time(), earliest, "seed {seed} step {step}");
            }
            if deep {
                // A preload: each item later than everything queued.
                for i in 0..2 * SPILL as u64 {
                    let at = now + SimDuration::fs(1000 + i / 2);
                    schedule(&mut q, &mut k, &mut reference, at, i);
                }
                assert!(!q.later.is_empty(), "seed {seed}: nothing spilled");
                // A retain keeps the rest in firing order, and a map
                // keeps every item in place.
                q.retain(|p| p.kind % 3 != 0);
                let mapped = q.map(|k| !k);
                assert!(q
                    .iter()
                    .zip(mapped.iter())
                    .all(|(a, b)| (a.time, a.seq, !a.kind) == (b.time, b.seq, b.kind)));
                assert_eq!(mapped.len(), q.len());
            }
            let mut kept = reference.clone();
            kept.retain(|p| !deep || p.kind % 3 != 0);
            while let Some(p) = q.pop_due(SimTime::MAX) {
                assert_eq!(Some(p), reference_pop(&mut kept, SimTime::MAX));
            }
            assert!(kept.is_empty());
            while let Some(t) = k.next_time() {
                let got = k.pop_at(t).map(as_item);
                assert_eq!(got, reference_pop(&mut reference, t), "seed {seed}");
            }
            assert!(reference.is_empty());
        }
    }
}
