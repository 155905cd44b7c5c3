//! Event schedulers: the calendar queue and the reference binary heap.
//!
//! The simulator's future-event set is a priority queue ordered by
//! `(time, seq)` — delivery time with insertion order as the total-order
//! tie-break. Two interchangeable implementations live here behind the
//! [`Scheduler`] trait:
//!
//! * [`HeapScheduler`] — the original `BinaryHeap`, O(log n) per
//!   operation. Kept as the differential-testing reference: CI runs the
//!   golden-counter suite under both schedulers and diffs the outputs.
//! * [`CalendarScheduler`] — a calendar queue (Brown 1988): events hash
//!   into time-bucketed "days" of a power-of-two width, giving O(1)
//!   amortized enqueue/dequeue for the simulator's workload, where
//!   delivery times cluster around `now + T`. The bucket count and day
//!   width resize on occupancy drift; both are deterministic functions
//!   of the queue contents, never of wall-clock state.
//!
//! **Determinism contract**: both schedulers pop the exact minimum by
//! `(time, seq)` — not merely *a* minimum-time event — so a replay
//! produces the identical event order under either implementation. The
//! calendar queue guarantees this by scanning the current day's bucket
//! for the smallest `(time, seq)` key rather than trusting intra-bucket
//! order (which `swap_remove` scrambles harmlessly).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// An item with the `(time, seq)` scheduling key.
///
/// Implementors must order their `Ord` exactly by `(time(), seq())` —
/// [`HeapScheduler`] sorts by `Ord` while [`CalendarScheduler`] sorts by
/// the key pair, and the two must agree for differential testing to be
/// meaningful.
pub trait Timed {
    /// Scheduled virtual time.
    fn time(&self) -> u64;
    /// Insertion-order tie-break (unique per item).
    fn seq(&self) -> u64;
}

/// Which event-scheduler implementation the simulator uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulerKind {
    /// The reference `BinaryHeap` scheduler.
    Heap,
    /// The calendar-queue scheduler (default).
    Calendar,
    /// The hierarchical timer wheel (the large-N scheduler).
    Wheel,
}

impl SchedulerKind {
    /// Parses `"heap"` / `"calendar"` / `"wheel"`; `None` for anything
    /// else.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "heap" => Some(SchedulerKind::Heap),
            "calendar" => Some(SchedulerKind::Calendar),
            "wheel" => Some(SchedulerKind::Wheel),
            _ => None,
        }
    }

    /// The name [`SchedulerKind::parse`] accepts for this kind.
    pub fn label(self) -> &'static str {
        match self {
            SchedulerKind::Heap => "heap",
            SchedulerKind::Calendar => "calendar",
            SchedulerKind::Wheel => "wheel",
        }
    }

    /// Reads the `QMX_SCHEDULER` environment variable (`heap`,
    /// `calendar`, or `wheel`), defaulting to
    /// [`SchedulerKind::Calendar`] when unset. This is how CI runs the
    /// *entire* golden-counter test suite under every scheduler without
    /// code changes.
    ///
    /// # Panics
    ///
    /// Panics on an unrecognized value — a typo in a CI matrix must fail
    /// loudly, not silently fall back to the default.
    pub fn from_env() -> Self {
        match std::env::var("QMX_SCHEDULER") {
            Ok(v) => Self::parse(&v).unwrap_or_else(|| {
                panic!("QMX_SCHEDULER must be 'heap', 'calendar', or 'wheel', got '{v}'")
            }),
            Err(_) => SchedulerKind::Calendar,
        }
    }
}

impl Default for SchedulerKind {
    /// [`SchedulerKind::from_env`], so one environment variable switches
    /// every default-configured simulator in the process.
    fn default() -> Self {
        Self::from_env()
    }
}

/// A future-event set ordered by `(time, seq)`.
pub trait Scheduler<T: Timed + Ord> {
    /// Inserts one item.
    fn push(&mut self, item: T);
    /// Removes and returns the minimum item by `(time, seq)`.
    fn pop(&mut self) -> Option<T>;
    /// Number of queued items.
    fn len(&self) -> usize;
    /// Whether the queue is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// Inserts a batch in one pass (one heapify / bucket-fill plus a
    /// single resize check, instead of per-item occupancy bookkeeping).
    fn bulk_load(&mut self, items: Vec<T>);
}

/// The reference scheduler: a min-heap over the item's `Ord`.
#[derive(Debug)]
pub struct HeapScheduler<T> {
    heap: BinaryHeap<Reverse<T>>,
}

impl<T: Ord> HeapScheduler<T> {
    /// Creates an empty heap with room for `capacity` items.
    pub fn with_capacity(capacity: usize) -> Self {
        HeapScheduler {
            heap: BinaryHeap::with_capacity(capacity),
        }
    }
}

impl<T: Timed + Ord> Scheduler<T> for HeapScheduler<T> {
    fn push(&mut self, item: T) {
        self.heap.push(Reverse(item));
    }

    fn pop(&mut self) -> Option<T> {
        self.heap.pop().map(|Reverse(item)| item)
    }

    fn len(&self) -> usize {
        self.heap.len()
    }

    fn bulk_load(&mut self, items: Vec<T>) {
        if self.heap.is_empty() {
            // O(n) heapify instead of n * O(log n) sift-ups.
            self.heap = items.into_iter().map(Reverse).collect::<Vec<_>>().into();
        } else {
            // `BinaryHeap::extend` already rebuilds in bulk when the
            // batch is large relative to the existing heap.
            self.heap.extend(items.into_iter().map(Reverse));
        }
    }
}

/// Fewest buckets the calendar ever shrinks to.
const MIN_BUCKETS: usize = 8;
/// Initial day width as a power-of-two exponent: 2^10 = 1024 ticks,
/// matching the repo-wide mean message delay `T = 1000` that delivery
/// times cluster around. Resizes re-derive it from the live contents.
const DEFAULT_SHIFT: u32 = 10;
/// Minimum pops in the sampling window before the mean inter-pop gap is
/// trusted over the span-per-item estimate at a resize.
const GAP_SAMPLE_MIN: u64 = 16;
/// Before any pops exist the day width is estimated as the mean
/// span-per-item over this divisor: queued items are mostly *arrivals*,
/// and each arrival spawns a handful of messages, so the eventual
/// inter-pop gap is a few times denser than the load.
const SPAN_WIDTH_DIVISOR: u64 = 4;
/// Bucket-count memory cap, in buckets per queued item. The bucket ring
/// ideally covers the whole day span (no aliasing); a long sparse tail
/// may not be worth covering, and an aliased far item only costs one
/// scan step per lap that visits its bucket.
const BUCKETS_PER_ITEM_CAP: usize = 2;
/// Minimum pops between scan-cost retunes, amortizing the O(len +
/// nbuckets) rebucket.
const RETUNE_MIN_POPS: u64 = 128;
/// Scan-cost retune threshold: rebucket when pops average more than
/// this many scanned items each since the last resize.
const RETUNE_SCAN_FACTOR: u64 = 8;

/// The calendar-queue scheduler.
///
/// Time is divided into *days* of `2^shift` ticks; day `d` hashes to
/// bucket `d % nbuckets` (both powers of two, so day extraction is a
/// shift and bucket selection a mask). A pop scans forward from the
/// cursor day: because each day maps to exactly one bucket, the first
/// day whose bucket holds an in-day item holds the global minimum, and
/// taking the smallest `(time, seq)` within that bucket reproduces heap
/// order exactly. If a whole lap (one visit to every bucket) finds
/// nothing in-day, the queue is sparse relative to the cursor; the scan
/// has then seen every item, so it extracts the global minimum directly
/// and jumps the cursor to it.
///
/// Storage is a slot arena, not per-bucket vectors: items live in one
/// flat `slots` array, each bucket is the head of an intrusive singly
/// linked chain through the parallel `next` array, and freed slots are
/// recycled through a free list. Steady state allocates nothing — a
/// push reuses a slot and links it in O(1); an extract unlinks and
/// pushes the slot onto the free list — and the whole structure is a
/// handful of flat arrays, so the scan's empty-day check reads 4
/// contiguous bytes instead of chasing a heap-allocated vector.
///
/// Sizing (re-derived at every resize, deterministically — the inputs
/// are the queue contents and its pop history, both identical across
/// replays):
///
/// * **Day width** — the mean inter-pop gap over the window since the
///   last resize (Brown's rule: the width should track the dense
///   cluster the cursor walks through, not the far tail); before any
///   pops exist, a density-corrected span-per-item estimate.
/// * **Bucket count** — enough buckets to cover every day in the live
///   span (no aliasing), capped at `BUCKETS_PER_ITEM_CAP` per item.
/// * **Triggers** — the length doubling or halving (×4 band in each
///   direction) since the last resize, plus a scan-cost retune when
///   pops average more than `RETUNE_SCAN_FACTOR` scanned items over a
///   `RETUNE_MIN_POPS` window and the sampled gap disagrees with the
///   current width. The wide band means a length oscillating around a
///   fixed working set never thrashes the table.
#[derive(Debug)]
pub struct CalendarScheduler<T> {
    /// Per-bucket chain head into `slots`; [`NONE`] marks an empty day.
    heads: Vec<u32>,
    /// Next slot in the bucket chain, parallel to `slots`.
    next: Vec<u32>,
    /// The arena. `None` slots are on the free list.
    slots: Vec<Option<T>>,
    /// Recycled slot indices.
    free: Vec<u32>,
    /// Day width = `2^shift` ticks.
    shift: u32,
    /// `heads.len() - 1`; the bucket count is a power of two.
    mask: u64,
    /// Cursor: never greater than the minimum queued item's day.
    day: u64,
    len: usize,
    /// `len` at the last resize: the growth/shrink triggers fire when
    /// the length doubles or halves from this point, independent of the
    /// bucket count (which tracks the day span, not the length).
    resize_len: usize,
    /// Pops since the last resize (gap sampling window).
    pops_since: u64,
    /// Items scanned by pops since the last resize (retune trigger).
    scanned_since: u64,
    /// Time of the last popped item (pop times are nondecreasing).
    last_pop: u64,
    /// `last_pop` at the moment of the last resize: the sampling
    /// window's origin for the mean inter-pop gap.
    gap_t0: u64,
}

/// Chain terminator / empty bucket marker.
const NONE: u32 = u32::MAX;

impl<T: Timed + Ord> CalendarScheduler<T> {
    /// Creates an empty calendar sized for roughly `capacity` items.
    pub fn with_capacity(capacity: usize) -> Self {
        let nbuckets = (capacity / 2).max(MIN_BUCKETS).next_power_of_two();
        CalendarScheduler {
            heads: vec![NONE; nbuckets],
            next: Vec::with_capacity(capacity),
            slots: Vec::with_capacity(capacity),
            free: Vec::new(),
            shift: DEFAULT_SHIFT,
            mask: nbuckets as u64 - 1,
            day: 0,
            len: 0,
            resize_len: nbuckets,
            pops_since: 0,
            scanned_since: 0,
            last_pop: 0,
            gap_t0: 0,
        }
    }

    /// Inserts without the occupancy check (`push` and `bulk_load` share
    /// it; only they differ in when the check runs).
    fn insert(&mut self, item: T) {
        let d = item.time() >> self.shift;
        // An item behind the cursor would be invisible to the in-day
        // scan; pulling the cursor back is always safe (it only costs
        // scan steps) and keeps the cursor-≤-minimum-day invariant.
        if self.len == 0 || d < self.day {
            self.day = d;
        }
        let b = (d & self.mask) as usize;
        let slot = match self.free.pop() {
            Some(s) => {
                self.slots[s as usize] = Some(item);
                s
            }
            None => {
                self.slots.push(Some(item));
                self.next.push(NONE);
                (self.slots.len() - 1) as u32
            }
        };
        self.next[slot as usize] = self.heads[b];
        self.heads[b] = slot;
        self.len += 1;
    }

    /// The mean inter-pop gap over the current sampling window, rounded
    /// up to a power of two — the day width Brown's rule would pick.
    /// `None` until the window holds enough pops to trust.
    fn sampled_width(&self) -> Option<u64> {
        (self.pops_since >= GAP_SAMPLE_MIN && self.last_pop > self.gap_t0).then(|| {
            ((self.last_pop - self.gap_t0) / self.pops_since)
                .max(1)
                .next_power_of_two()
        })
    }

    fn resize(&mut self) {
        // Items stay in their arena slots; only the chains are rebuilt,
        // so a resize is two flat passes and allocates nothing beyond
        // ring growth.
        let mut lo = u64::MAX;
        let mut hi = 0u64;
        for item in self.slots.iter().flatten() {
            lo = lo.min(item.time());
            hi = hi.max(item.time());
        }
        let nbuckets = if self.len == 0 {
            self.day = 0;
            MIN_BUCKETS
        } else {
            // Day width: the mean inter-pop gap when the sampling window
            // has data (Brown's rule — it tracks the *dense cluster* the
            // cursor is walking through, not the far tail), else a
            // density-corrected span estimate. An over-wide day makes
            // every pop rescan the whole live cluster, so err narrow:
            // an empty day costs one contiguous bucket-header check.
            let width = self.sampled_width().unwrap_or_else(|| {
                ((hi - lo) / self.len as u64 / SPAN_WIDTH_DIVISOR)
                    .max(1)
                    .next_power_of_two()
            });
            self.shift = width.trailing_zeros();
            self.day = lo >> self.shift;
            // Cover every day in the live span (aliasing-free) up to the
            // memory cap; past the cap, far items alias harmlessly into
            // the ring.
            let days = ((hi - lo) >> self.shift) as usize + 1;
            days.min(BUCKETS_PER_ITEM_CAP * self.len)
                .max(MIN_BUCKETS)
                .next_power_of_two()
        };
        self.mask = nbuckets as u64 - 1;
        self.heads.clear();
        self.heads.resize(nbuckets, NONE);
        for idx in 0..self.slots.len() {
            if let Some(item) = &self.slots[idx] {
                let b = ((item.time() >> self.shift) & self.mask) as usize;
                self.next[idx] = self.heads[b];
                self.heads[b] = idx as u32;
            }
        }
        self.resize_len = self.len;
        self.pops_since = 0;
        self.scanned_since = 0;
        self.gap_t0 = self.last_pop;
    }

    /// Unlinks `slot` (whose predecessor in its chain is `prev`, or
    /// [`NONE`] if it is the head of `bucket`) and returns its item.
    fn extract(&mut self, bucket: usize, slot: u32, prev: u32) -> T {
        let item = self.slots[slot as usize]
            .take()
            .expect("linked slot is occupied");
        let after = self.next[slot as usize];
        if prev == NONE {
            self.heads[bucket] = after;
        } else {
            self.next[prev as usize] = after;
        }
        self.free.push(slot);
        self.len -= 1;
        // The popped item was the global minimum, so its day is a valid
        // cursor for everything that remains.
        self.day = item.time() >> self.shift;
        self.last_pop = item.time();
        self.pops_since += 1;
        if self.heads.len() > MIN_BUCKETS && self.len * 4 < self.resize_len {
            self.resize();
        } else if self.pops_since >= RETUNE_MIN_POPS
            && self.scanned_since > RETUNE_SCAN_FACTOR * self.pops_since
        {
            // Pops are scanning too many items per dequeue: the day
            // width no longer fits the live cluster (e.g. the initial
            // width guessed before any pops existed, or a workload whose
            // event density shifted). Rebucket with a fresh gap-derived
            // width — but only if that width actually differs, so a
            // workload that genuinely cannot meet the scan budget resets
            // the window instead of rebucketing in vain every
            // `RETUNE_MIN_POPS`.
            if self.sampled_width() != Some(1 << self.shift) {
                self.resize();
            } else {
                self.pops_since = 0;
                self.scanned_since = 0;
                self.gap_t0 = self.last_pop;
            }
        }
        item
    }
}

impl<T: Timed + Ord> Scheduler<T> for CalendarScheduler<T> {
    fn push(&mut self, item: T) {
        self.insert(item);
        if self.len > 4 * self.resize_len.max(MIN_BUCKETS) {
            self.resize();
        }
    }

    fn pop(&mut self) -> Option<T> {
        if self.len == 0 {
            return None;
        }
        let nbuckets = self.heads.len();
        let shift = self.shift;
        let mask = self.mask;
        // Global minimum seen so far, as a fused 128-bit (time, seq) key
        // (one comparison instead of a lexicographic pair) plus its
        // (bucket, slot, predecessor): after a full fruitless lap this
        // has seen every queued item. Chains are not modified during the
        // scan, so recorded predecessors stay valid.
        let mut fb_key = u128::MAX;
        let mut fb = (0usize, NONE, NONE);
        for lap in 0..nbuckets {
            let day = self.day + lap as u64;
            let b = (day & mask) as usize;
            let mut idx = self.heads[b];
            if idx == NONE {
                continue;
            }
            let mut best_key = u128::MAX;
            let mut best = (NONE, NONE);
            let mut prev = NONE;
            let mut scanned = 0u64;
            while idx != NONE {
                let item = self.slots[idx as usize]
                    .as_ref()
                    .expect("linked slot is occupied");
                let key = ((item.time() as u128) << 64) | item.seq() as u128;
                scanned += 1;
                if item.time() >> shift == day {
                    if key < best_key {
                        best_key = key;
                        best = (idx, prev);
                    }
                } else if key < fb_key {
                    fb_key = key;
                    fb = (b, idx, prev);
                }
                prev = idx;
                idx = self.next[idx as usize];
            }
            self.scanned_since += scanned;
            if best.0 != NONE {
                // Days before this one held nothing (each day maps to
                // exactly one bucket, all already scanned), so the
                // smallest (time, seq) of this day is the global min.
                return Some(self.extract(b, best.0, best.1));
            }
        }
        // Sparse queue: everything lives beyond one lap of the cursor.
        // The lap visited every bucket, so the fallback is the global
        // minimum; extract it and let the cursor jump to its day.
        debug_assert_ne!(fb.1, NONE, "non-empty queue scanned fully");
        let (b, slot, prev) = fb;
        Some(self.extract(b, slot, prev))
    }

    fn len(&self) -> usize {
        self.len
    }

    fn bulk_load(&mut self, items: Vec<T>) {
        for item in items {
            self.insert(item);
        }
        if self.len > self.resize_len.max(MIN_BUCKETS) {
            // One rebucket for the whole batch, re-deriving width and
            // ring size from the loaded contents (instead of log(batch)
            // doubling passes).
            self.resize();
        }
    }
}

/// The simulator's event queue: one of the two [`Scheduler`]s, selected
/// by [`SchedulerKind`] at construction. An enum rather than a boxed
/// trait object so the per-event hot path stays statically dispatched.
#[derive(Debug)]
pub enum EventQueue<T> {
    /// Reference binary heap.
    Heap(HeapScheduler<T>),
    /// Calendar queue.
    Calendar(CalendarScheduler<T>),
    /// Hierarchical timer wheel.
    Wheel(crate::timer_wheel::WheelScheduler<T>),
}

impl<T: Timed + Ord> EventQueue<T> {
    /// Creates the selected scheduler, empty: its storage grows with use.
    pub fn new(kind: SchedulerKind) -> Self {
        match kind {
            SchedulerKind::Heap => EventQueue::Heap(HeapScheduler::with_capacity(0)),
            SchedulerKind::Calendar => EventQueue::Calendar(CalendarScheduler::with_capacity(0)),
            SchedulerKind::Wheel => {
                EventQueue::Wheel(crate::timer_wheel::WheelScheduler::with_capacity(0))
            }
        }
    }

    /// Items the scheduler's storage holds before it reallocates.
    #[cfg(test)]
    pub(crate) fn capacity(&self) -> usize {
        match self {
            EventQueue::Heap(q) => q.heap.capacity(),
            EventQueue::Calendar(q) => q.slots.capacity(),
            EventQueue::Wheel(q) => q.capacity(),
        }
    }
}

impl<T: Timed + Ord> Scheduler<T> for EventQueue<T> {
    fn push(&mut self, item: T) {
        match self {
            EventQueue::Heap(q) => q.push(item),
            EventQueue::Calendar(q) => q.push(item),
            EventQueue::Wheel(q) => q.push(item),
        }
    }

    fn pop(&mut self) -> Option<T> {
        match self {
            EventQueue::Heap(q) => q.pop(),
            EventQueue::Calendar(q) => q.pop(),
            EventQueue::Wheel(q) => q.pop(),
        }
    }

    fn len(&self) -> usize {
        match self {
            EventQueue::Heap(q) => q.len(),
            EventQueue::Calendar(q) => q.len(),
            EventQueue::Wheel(q) => q.len(),
        }
    }

    fn bulk_load(&mut self, items: Vec<T>) {
        match self {
            EventQueue::Heap(q) => q.bulk_load(items),
            EventQueue::Calendar(q) => q.bulk_load(items),
            EventQueue::Wheel(q) => q.bulk_load(items),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
    struct Item {
        time: u64,
        seq: u64,
    }

    impl Timed for Item {
        fn time(&self) -> u64 {
            self.time
        }
        fn seq(&self) -> u64 {
            self.seq
        }
    }

    fn drain<S: Scheduler<Item>>(q: &mut S) -> Vec<Item> {
        let mut out = Vec::new();
        while let Some(it) = q.pop() {
            out.push(it);
        }
        out
    }

    #[test]
    fn kind_parsing_round_trips() {
        for kind in [
            SchedulerKind::Heap,
            SchedulerKind::Calendar,
            SchedulerKind::Wheel,
        ] {
            assert_eq!(SchedulerKind::parse(kind.label()), Some(kind));
        }
        assert_eq!(SchedulerKind::parse("splay"), None);
    }

    #[test]
    fn calendar_drains_in_time_seq_order() {
        let mut q = CalendarScheduler::with_capacity(8);
        // Same time twice: seq must break the tie; plus out-of-order
        // inserts across several days.
        for (time, seq) in [(500, 1), (500, 2), (3, 3), (70_000, 4), (1024, 5), (500, 6)] {
            q.push(Item { time, seq });
        }
        let order: Vec<(u64, u64)> = drain(&mut q).iter().map(|i| (i.time, i.seq)).collect();
        assert_eq!(
            order,
            vec![(3, 3), (500, 1), (500, 2), (500, 6), (1024, 5), (70_000, 4)]
        );
    }

    /// The load-bearing property: under a workload shaped like the
    /// simulator's (pops interleaved with pushes at ever-later times),
    /// both schedulers emit the byte-identical sequence.
    #[test]
    fn calendar_matches_heap_differentially() {
        let mut rng = StdRng::seed_from_u64(0xCA1E5DA2);
        let mut heap = HeapScheduler::with_capacity(16);
        let mut cal = CalendarScheduler::with_capacity(16);
        let mut now = 0u64;
        let mut seq = 0u64;
        let mut queued = 0usize;
        for _ in 0..20_000 {
            // Bias towards pushes while small, pops while large, so the
            // queue sweeps through growth and shrink resizes.
            let push = queued < 4 || (queued < 600 && rng.gen_bool(0.55));
            if push {
                seq += 1;
                // Mostly clustered near now + T, occasionally far out
                // (timer-like), occasionally at exactly `now` (tie-heavy).
                let dt = match rng.gen_range(0..10) {
                    0 => 0,
                    1..=7 => rng.gen_range(800..1200),
                    8 => rng.gen_range(0..100),
                    _ => rng.gen_range(50_000..500_000),
                };
                let item = Item {
                    time: now + dt,
                    seq,
                };
                heap.push(item);
                cal.push(item);
                queued += 1;
            } else {
                let a = heap.pop();
                let b = cal.pop();
                assert_eq!(a, b, "schedulers diverged");
                now = a.expect("queued > 0").time;
                queued -= 1;
            }
        }
        assert_eq!(drain(&mut heap), drain(&mut cal));
    }

    #[test]
    fn bulk_load_matches_sequential_pushes() {
        let mut rng = StdRng::seed_from_u64(7);
        let items: Vec<Item> = (1..=5_000)
            .map(|seq| Item {
                time: rng.gen_range(0..200_000),
                seq,
            })
            .collect();
        for kind in [SchedulerKind::Heap, SchedulerKind::Calendar] {
            let mut pushed = EventQueue::new(kind);
            let mut loaded = EventQueue::new(kind);
            for &it in &items {
                pushed.push(it);
            }
            loaded.bulk_load(items.clone());
            assert_eq!(loaded.len(), items.len());
            assert_eq!(drain(&mut pushed), drain(&mut loaded), "{kind:?}");
        }
    }

    #[test]
    fn bulk_load_on_top_of_existing_items_keeps_order() {
        for kind in [SchedulerKind::Heap, SchedulerKind::Calendar] {
            let mut q = EventQueue::new(kind);
            q.push(Item { time: 900, seq: 1 });
            q.push(Item { time: 100, seq: 2 });
            q.bulk_load((3..200).map(|seq| Item { time: seq * 7, seq }).collect());
            let drained = drain(&mut q);
            assert_eq!(drained.len(), 199);
            let mut sorted = drained.clone();
            sorted.sort();
            assert_eq!(drained, sorted, "{kind:?}");
        }
    }

    #[test]
    fn sparse_queue_jumps_across_empty_laps() {
        // Items many laps apart: every pop after the first takes the
        // fallback path (full lap, then a cursor jump).
        let mut q = CalendarScheduler::with_capacity(8);
        for (i, t) in [0u64, 10_000_000, 90_000_000, 91_000_000]
            .iter()
            .enumerate()
        {
            q.push(Item {
                time: *t,
                seq: i as u64,
            });
        }
        let times: Vec<u64> = drain(&mut q).iter().map(|i| i.time).collect();
        assert_eq!(times, vec![0, 10_000_000, 90_000_000, 91_000_000]);
    }

    #[test]
    fn push_behind_cursor_is_still_found_first() {
        // After a pop at a late time the cursor sits on that day; a push
        // at an earlier (but ≥ last-popped) time must pull it back.
        let mut q = CalendarScheduler::with_capacity(8);
        q.push(Item { time: 5, seq: 1 });
        q.push(Item {
            time: 80_000_000,
            seq: 2,
        });
        assert_eq!(q.pop().map(|i| i.seq), Some(1));
        assert_eq!(q.pop().map(|i| i.seq), Some(2)); // cursor jumped far
        q.push(Item {
            time: 80_000_001,
            seq: 4,
        });
        q.push(Item {
            time: 80_000_000,
            seq: 3,
        }); // same tick as the cursor, earlier day after resizes
        assert_eq!(q.pop().map(|i| i.seq), Some(3));
        assert_eq!(q.pop().map(|i| i.seq), Some(4));
        assert!(q.pop().is_none());
    }

    /// Pins the growth trigger at its exact length-band boundary: with the
    /// initial `resize_len` of 8 (capacity-8 construction), the 32nd push
    /// sits *on* the `4 × resize_len` band and must not resize; the 33rd
    /// crosses it and must.
    #[test]
    fn growth_resize_fires_exactly_past_the_length_band() {
        let mut q = CalendarScheduler::with_capacity(8);
        for seq in 0..32u64 {
            q.push(Item {
                time: seq * 100,
                seq,
            });
        }
        assert_eq!(q.resize_len, 8, "on-band push must not resize");
        assert_eq!(q.heads.len(), 8);
        q.push(Item {
            time: 3_200,
            seq: 32,
        });
        assert_eq!(q.resize_len, 33, "first past-band push must resize");
        assert!(
            q.heads.len() > MIN_BUCKETS,
            "growth re-derives the ring from the live span"
        );
        // Contents survive the rebucket in exact (time, seq) order.
        let drained = drain(&mut q);
        assert_eq!(drained.len(), 33);
        let mut sorted = drained.clone();
        sorted.sort();
        assert_eq!(drained, sorted);
    }

    /// Pins the shrink trigger at its exact quarter-band boundary: after a
    /// growth resize pinned `resize_len` at 33, popping down to 9 items
    /// (9 × 4 = 36 ≥ 33) must not resize, while the pop to 8 items
    /// (8 × 4 = 32 < 33) must.
    #[test]
    fn shrink_resize_fires_exactly_below_the_quarter_band() {
        let mut q = CalendarScheduler::with_capacity(8);
        for seq in 0..40u64 {
            q.push(Item {
                time: seq * 100,
                seq,
            });
        }
        assert_eq!(q.resize_len, 33, "growth resize happened while filling");
        while q.len() > 9 {
            q.pop().expect("queue is non-empty");
        }
        assert_eq!(q.resize_len, 33, "on-band pop must not resize");
        q.pop().expect("queue is non-empty");
        assert_eq!(q.len(), 8);
        assert_eq!(q.resize_len, 8, "first below-band pop must resize");
        let drained = drain(&mut q);
        assert_eq!(drained.len(), 8);
        let mut sorted = drained.clone();
        sorted.sort();
        assert_eq!(drained, sorted);
    }

    /// Exercises the scan-cost retune: a bulk load whose span estimate is
    /// stretched by one far outlier picks a day width ~1024× the true
    /// inter-pop gap, so every pop rescans the dense cluster. After
    /// `RETUNE_MIN_POPS` pops the sampled gap (1 tick) disagrees with
    /// the width and the retune must rebucket to the narrow width.
    #[test]
    fn scan_cost_retune_rebuckets_to_the_sampled_gap() {
        let mut q = CalendarScheduler::with_capacity(8);
        let mut items: Vec<Item> = (0..999u64).map(|seq| Item { time: seq, seq }).collect();
        items.push(Item {
            time: 4_000_000,
            seq: 999,
        });
        q.bulk_load(items);
        // The outlier stretched the span: ~4M / 1000 items / 4 → 1024.
        assert_eq!(1u64 << q.shift, 1024, "bulk load guessed a wide day");
        for _ in 0..(RETUNE_MIN_POPS - 1) {
            q.pop().expect("queue is non-empty");
        }
        assert_eq!(1u64 << q.shift, 1024, "no retune before the window fills");
        assert!(
            q.scanned_since > RETUNE_SCAN_FACTOR * q.pops_since,
            "the wide day must be visibly over scan budget (scanned {} in {} pops)",
            q.scanned_since,
            q.pops_since,
        );
        q.pop().expect("queue is non-empty");
        assert_eq!(
            1u64 << q.shift,
            1,
            "retune adopts the sampled 1-tick inter-pop gap"
        );
        // And the retuned queue still drains in exact order.
        let drained = drain(&mut q);
        assert_eq!(drained.len(), 1000 - RETUNE_MIN_POPS as usize);
        let mut sorted = drained.clone();
        sorted.sort();
        assert_eq!(drained, sorted);
    }

    /// The retune's no-op branch: when pops scan heavily but the sampled
    /// gap already *equals* the current width (the workload genuinely
    /// cannot meet the scan budget), the window resets instead of
    /// rebucketing in vain.
    #[test]
    fn retune_resets_window_when_sampled_width_already_matches() {
        let mut q = CalendarScheduler::with_capacity(8);
        // Mean inter-pop gap of 1 tick (matching width 1 after the first
        // retune), but many same-day ties so pops keep scanning chains.
        let items: Vec<Item> = (0..2_000u64)
            .map(|seq| Item { time: seq / 4, seq })
            .collect();
        q.bulk_load(items);
        let mut last = None;
        while let Some(it) = q.pop() {
            if let Some(prev) = last {
                assert!(prev < it, "order broken around retunes");
            }
            last = Some(it);
        }
    }

    #[test]
    fn growth_and_shrink_resizes_preserve_contents() {
        let mut q = CalendarScheduler::with_capacity(8);
        // Push far past the growth threshold...
        for seq in 0..10_000u64 {
            q.push(Item {
                time: (seq * 37) % 1_000_000,
                seq,
            });
        }
        assert_eq!(q.len(), 10_000);
        // ...then drain through every shrink back down to MIN_BUCKETS.
        let drained = drain(&mut q);
        assert_eq!(drained.len(), 10_000);
        let mut sorted = drained.clone();
        sorted.sort();
        assert_eq!(drained, sorted);
    }
}
