//! The arbiter's priority queue of pending CS requests (`req_queue`).
//!
//! Each arbiter queues the requests it cannot grant immediately. The queue is
//! ordered by request priority (the [`Timestamp`] order: smaller is higher
//! priority); the head is the next request in line for this arbiter's
//! permission. Fault handling (§6) additionally needs removal of arbitrary
//! entries (a failed site's request), so the queue is a sorted,
//! duplicate-free `VecDeque` searched by binary search rather than a binary
//! heap. Arbiter queues are short (a few hundred entries at most even under
//! heavy contention at `N = 10⁴`), so one flat buffer per arbiter beats a
//! tree's per-node allocations on both memory and speed.
//!
//! # Growth policy
//!
//! The buffer follows the queue's length within a quarter: a full queue
//! grows by `max(4, len / 4)` slots instead of doubling, a removal that
//! leaves more than `max(4, len / 4)` free slots shrinks the buffer to
//! half that slack, and a drained queue gives its buffer back. Doubling
//! would leave up to half of every peak-sized buffer unused; at
//! `N = 10⁴` the arbiters' queues are the largest block of memory, and
//! most of them peak and drain within one burst.

use crate::clock::Timestamp;
use crate::protocol::SiteId;
use std::collections::VecDeque;
use std::fmt;

/// Priority queue of request timestamps with arbitrary removal.
///
/// ```
/// use qmx_core::{ReqQueue, SiteId, Timestamp};
/// let mut q = ReqQueue::new();
/// q.insert(Timestamp::new(5, SiteId(1)));
/// q.insert(Timestamp::new(3, SiteId(2)));
/// assert_eq!(q.head(), Some(Timestamp::new(3, SiteId(2))));
/// assert_eq!(q.pop(), Some(Timestamp::new(3, SiteId(2))));
/// assert_eq!(q.len(), 1);
/// ```
#[derive(Clone, Default, PartialEq, Eq)]
pub struct ReqQueue {
    /// Ascending and duplicate-free: the head is at the front.
    set: VecDeque<Timestamp>,
}

impl ReqQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts a request. Returns `false` if it was already queued.
    pub fn insert(&mut self, ts: Timestamp) -> bool {
        match self.set.binary_search(&ts) {
            Ok(_) => false,
            Err(pos) => {
                if self.set.len() == self.set.capacity() {
                    self.set.reserve_exact(slack(self.set.len()));
                }
                self.set.insert(pos, ts);
                true
            }
        }
    }

    /// The highest-priority pending request, if any.
    pub fn head(&self) -> Option<Timestamp> {
        self.set.front().copied()
    }

    /// Removes and returns the highest-priority pending request.
    pub fn pop(&mut self) -> Option<Timestamp> {
        let head = self.set.pop_front();
        self.fit();
        head
    }

    /// Removes a specific request. Returns `true` if it was present.
    pub fn remove(&mut self, ts: &Timestamp) -> bool {
        let Ok(pos) = self.set.binary_search(ts) else {
            return false;
        };
        self.set.remove(pos);
        self.fit();
        true
    }

    /// Removes every request issued by `site` (fault handling), returning
    /// the removed timestamps in priority order.
    pub fn remove_site(&mut self, site: SiteId) -> Vec<Timestamp> {
        let mut victims = Vec::new();
        self.set.retain(|t| {
            let keep = t.site != site;
            if !keep {
                victims.push(*t);
            }
            keep
        });
        self.fit();
        victims
    }

    /// Whether the queue contains a request from `site`.
    pub fn contains_site(&self, site: SiteId) -> bool {
        self.set.iter().any(|t| t.site == site)
    }

    /// Whether this exact request is queued.
    pub fn contains(&self, ts: &Timestamp) -> bool {
        self.set.binary_search(ts).is_ok()
    }

    /// Number of queued requests.
    pub fn len(&self) -> usize {
        self.set.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.set.is_empty()
    }

    /// Iterates queued requests in priority order.
    pub fn iter(&self) -> impl Iterator<Item = &Timestamp> {
        self.set.iter()
    }

    /// Removes all entries.
    pub fn clear(&mut self) {
        self.set = VecDeque::new();
    }

    /// Trims the buffer after a removal (see the module's growth policy).
    /// A drained queue gives its buffer back: at large `N` most arbiters
    /// sit idle after a burst, and each would otherwise keep its peak
    /// capacity.
    fn fit(&mut self) {
        let len = self.set.len();
        if len == 0 {
            self.set = VecDeque::new();
        } else if self.set.capacity() > len + slack(len) {
            self.set.shrink_to(len + slack(len) / 2);
        }
    }
}

/// The most free slots a queue of `len` entries keeps, and what a full
/// one grows by.
fn slack(len: usize) -> usize {
    (len / 4).max(4)
}

// Prints exactly like the derived `BTreeSet`-backed form it replaced,
// `ReqQueue { set: {..} }`: the model checker fingerprints protocol state
// through `Debug`.
impl fmt::Debug for ReqQueue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        struct Set<'a>(&'a VecDeque<Timestamp>);
        impl fmt::Debug for Set<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.debug_set().entries(self.0).finish()
            }
        }
        f.debug_struct("ReqQueue")
            .field("set", &Set(&self.set))
            .finish()
    }
}

impl Extend<Timestamp> for ReqQueue {
    fn extend<I: IntoIterator<Item = Timestamp>>(&mut self, iter: I) {
        for ts in iter {
            self.insert(ts);
        }
    }
}

impl FromIterator<Timestamp> for ReqQueue {
    fn from_iter<I: IntoIterator<Item = Timestamp>>(iter: I) -> Self {
        let mut v: Vec<Timestamp> = iter.into_iter().collect();
        v.sort_unstable();
        v.dedup();
        let mut q = ReqQueue { set: v.into() };
        q.fit();
        q
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::test_runner::TestRng;

    fn ts(seq: u64, site: u32) -> Timestamp {
        Timestamp::new(seq, SiteId(site))
    }

    #[test]
    fn head_is_highest_priority() {
        let mut q = ReqQueue::new();
        q.insert(ts(9, 0));
        q.insert(ts(2, 5));
        q.insert(ts(2, 3));
        assert_eq!(q.head(), Some(ts(2, 3)));
    }

    #[test]
    fn pop_drains_in_priority_order() {
        let mut q: ReqQueue = [ts(4, 1), ts(1, 9), ts(4, 0)].into_iter().collect();
        assert_eq!(q.pop(), Some(ts(1, 9)));
        assert_eq!(q.pop(), Some(ts(4, 0)));
        assert_eq!(q.pop(), Some(ts(4, 1)));
        assert_eq!(q.pop(), None);
        assert!(q.is_empty());
    }

    #[test]
    fn duplicate_insert_is_ignored() {
        let mut q = ReqQueue::new();
        assert!(q.insert(ts(1, 1)));
        assert!(!q.insert(ts(1, 1)));
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn remove_specific_and_by_site() {
        let mut q: ReqQueue = [ts(1, 1), ts(2, 2), ts(3, 1)].into_iter().collect();
        assert!(q.remove(&ts(2, 2)));
        assert!(!q.remove(&ts(2, 2)));
        assert!(q.contains_site(SiteId(1)));
        let removed = q.remove_site(SiteId(1));
        assert_eq!(removed, vec![ts(1, 1), ts(3, 1)]);
        assert!(q.is_empty());
        assert!(!q.contains_site(SiteId(1)));
    }

    #[test]
    fn iter_and_clear() {
        let mut q: ReqQueue = [ts(2, 0), ts(1, 0)].into_iter().collect();
        let order: Vec<u64> = q.iter().map(|t| t.seq.0).collect();
        assert_eq!(order, vec![1, 2]);
        q.clear();
        assert!(q.is_empty());
    }

    #[test]
    fn extend_merges() {
        let mut q = ReqQueue::new();
        q.extend([ts(5, 1), ts(4, 2)]);
        assert_eq!(q.len(), 2);
        assert!(q.contains(&ts(4, 2)));
    }

    #[test]
    fn drained_queue_gives_its_buffer_back() {
        let mut q: ReqQueue = (0..40).map(|i| ts(i, 1)).collect();
        q.remove(&ts(3, 1));
        while q.pop().is_some() {}
        assert_eq!(q.set.capacity(), 0);
        q.extend([ts(1, 2), ts(2, 2)]);
        assert_eq!(q.remove_site(SiteId(2)), vec![ts(1, 2), ts(2, 2)]);
        assert_eq!(q.set.capacity(), 0);
        q.insert(ts(1, 3));
        assert!(q.remove(&ts(1, 3)));
        assert_eq!(q.set.capacity(), 0);
    }

    #[test]
    fn buffer_follows_the_length_within_a_quarter() {
        let mut q = ReqQueue::new();
        let within = |q: &ReqQueue| q.set.capacity() <= q.len() + (q.len() / 4).max(4);
        for i in 0..200 {
            q.insert(ts(i, 1));
            assert!(within(&q), "{} slots for {}", q.set.capacity(), q.len());
        }
        // Doubling would hold 256 slots here.
        assert!(q.set.capacity() <= 250, "{} slots", q.set.capacity());
        for i in 0..199 {
            assert!(q.remove(&ts(i, 1)));
            assert!(within(&q), "{} slots for {}", q.set.capacity(), q.len());
        }
        assert_eq!(q.pop(), Some(ts(199, 1)));
        assert_eq!(q.set.capacity(), 0);
    }

    /// The `BTreeSet`-backed queue this type replaced, as a reference
    /// model: same name and field, so its derived `Debug` is the text the
    /// model checker fingerprinted before.
    mod model {
        use crate::clock::Timestamp;
        use std::collections::BTreeSet;

        #[derive(Debug, Default)]
        pub(super) struct ReqQueue {
            pub(super) set: BTreeSet<Timestamp>,
        }
    }

    #[test]
    fn debug_matches_the_ordered_set_form() {
        let q: ReqQueue = [ts(3, 2), ts(1, 7), ts(3, 1)].into_iter().collect();
        // Recorded from the `BTreeSet`-backed queue.
        assert_eq!(format!("{:?}", ReqQueue::new()), "ReqQueue { set: {} }");
        assert_eq!(
            format!("{q:?}"),
            "ReqQueue { set: {Timestamp { seq: SeqNum(1), site: SiteId(7) }, \
             Timestamp { seq: SeqNum(3), site: SiteId(1) }, \
             Timestamp { seq: SeqNum(3), site: SiteId(2) }} }"
        );
        let m = model::ReqQueue {
            set: q.iter().copied().collect(),
        };
        assert_eq!(format!("{q:#?}"), format!("{m:#?}"));
    }

    #[derive(Debug, Clone, Copy)]
    enum Op {
        Insert(Timestamp),
        Remove(Timestamp),
        Pop,
        RemoveSite(SiteId),
        ContainsSite(SiteId),
        Extend(Timestamp, Timestamp),
        Rebuild,
    }

    /// Random op scripts over a small timestamp domain, so inserts collide
    /// and removals hit.
    struct Script;

    impl Strategy for Script {
        type Value = Vec<Op>;

        fn generate(&self, rng: &mut TestRng) -> Vec<Op> {
            let stamp = (1u64..6, 0u32..5).prop_map(|(seq, site)| ts(seq, site));
            let len = (0usize..80).generate(rng);
            (0..len)
                .map(|_| match (0u8..7).generate(rng) {
                    0 => Op::Insert(stamp.generate(rng)),
                    1 => Op::Remove(stamp.generate(rng)),
                    2 => Op::Pop,
                    3 => Op::RemoveSite(SiteId((0u32..5).generate(rng))),
                    4 => Op::ContainsSite(SiteId((0u32..5).generate(rng))),
                    5 => Op::Extend(stamp.generate(rng), stamp.generate(rng)),
                    _ => Op::Rebuild,
                })
                .collect()
        }
    }

    proptest! {
        /// Every operation agrees with a `BTreeSet<Timestamp>` model, and
        /// so does the `Debug` text after each step. The buffer stays
        /// within a quarter of the length (at least 4 slots) of free
        /// space, and a drained queue holds none.
        #[test]
        fn matches_an_ordered_set_model(script in Script) {
            let mut q = ReqQueue::new();
            let mut m = model::ReqQueue::default();
            for op in script {
                match op {
                    Op::Insert(t) => prop_assert_eq!(q.insert(t), m.set.insert(t)),
                    Op::Remove(t) => prop_assert_eq!(q.remove(&t), m.set.remove(&t)),
                    Op::Pop => prop_assert_eq!(q.pop(), m.set.pop_first()),
                    Op::RemoveSite(site) => {
                        let expect: Vec<Timestamp> =
                            m.set.iter().filter(|t| t.site == site).copied().collect();
                        m.set.retain(|t| t.site != site);
                        prop_assert_eq!(q.remove_site(site), expect);
                    }
                    Op::ContainsSite(site) => prop_assert_eq!(
                        q.contains_site(site),
                        m.set.iter().any(|t| t.site == site)
                    ),
                    Op::Extend(a, b) => {
                        q.extend([a, b]);
                        m.set.extend([a, b]);
                    }
                    Op::Rebuild => {
                        // `from_iter` over unsorted input with duplicates.
                        q = m.set.iter().rev().chain(m.set.iter()).copied().collect();
                    }
                }
                prop_assert_eq!(q.len(), m.set.len());
                prop_assert_eq!(q.head(), m.set.first().copied());
                prop_assert!(q.iter().eq(m.set.iter()));
                for t in &m.set {
                    prop_assert!(q.contains(t));
                }
                prop_assert_eq!(format!("{q:?}"), format!("{m:?}"));
                let (len, cap) = (q.len(), q.set.capacity());
                if len == 0 {
                    prop_assert_eq!(cap, 0);
                } else {
                    prop_assert!(cap <= len + (len / 4).max(4), "{} slots for {}", cap, len);
                }
            }
        }
    }
}
