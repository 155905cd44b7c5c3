//! A dense bitset over [`SiteId`]s for the protocol hot path.
//!
//! The delay-optimal state machine spends most of its time asking "is this
//! site in that set?" — quorum membership, reply accounting, suspicion
//! checks. `BTreeSet<SiteId>` answers that with a pointer-chasing tree
//! walk and an allocation per mutation; [`SiteSet`] answers with one shift
//! and mask into a few inline `u64` words. Site ids are small dense
//! integers (assigned `0..n` by every driver in this workspace), so a
//! bitset is the natural representation; `BTreeSet` remains at API
//! boundaries where callers observe ordered iteration over arbitrary sets.

use crate::protocol::SiteId;
use std::collections::BTreeSet;
use std::fmt;

/// Bits per storage word.
const WORD_BITS: usize = 64;

/// Words kept inline before spilling to the heap. Four words cover
/// `n = 256` sites — far beyond every experiment in this repo — without
/// any allocation.
const INLINE_WORDS: usize = 4;

/// A set of [`SiteId`]s backed by `u64` bit words.
///
/// Semantically equivalent to `BTreeSet<SiteId>` (iteration is in
/// ascending id order), but membership tests, inserts and removals are
/// O(1) word operations and the common small-universe case stores
/// everything inline.
#[derive(Clone, Eq)]
pub struct SiteSet {
    /// Inline storage for the first `INLINE_WORDS * 64` site ids.
    inline: [u64; INLINE_WORDS],
    /// Overflow words for ids ≥ `INLINE_WORDS * 64`, indexed from word
    /// `INLINE_WORDS`. Empty until a large id is inserted.
    spill: Vec<u64>,
    /// Number of sites present. Stored, not counted: at `N = 10⁵` the
    /// words of a set holding a quorum span 1.5 k words, and the requester
    /// asks for its reply count on every reply.
    len: usize,
}

impl SiteSet {
    /// Creates an empty set.
    #[must_use]
    pub const fn new() -> Self {
        SiteSet {
            inline: [0; INLINE_WORDS],
            spill: Vec::new(),
            len: 0,
        }
    }

    #[inline]
    fn word_of(site: SiteId) -> usize {
        site.index() / WORD_BITS
    }

    #[inline]
    fn mask_of(site: SiteId) -> u64 {
        1u64 << (site.index() % WORD_BITS)
    }

    #[inline]
    fn word(&self, w: usize) -> u64 {
        if w < INLINE_WORDS {
            self.inline[w]
        } else {
            self.spill.get(w - INLINE_WORDS).copied().unwrap_or(0)
        }
    }

    #[inline]
    fn word_mut(&mut self, w: usize) -> &mut u64 {
        if w < INLINE_WORDS {
            &mut self.inline[w]
        } else {
            let idx = w - INLINE_WORDS;
            if idx >= self.spill.len() {
                self.spill.resize(idx + 1, 0);
            }
            &mut self.spill[idx]
        }
    }

    fn words(&self) -> usize {
        INLINE_WORDS + self.spill.len()
    }

    /// Inserts a site; returns `true` if it was not already present.
    pub fn insert(&mut self, site: SiteId) -> bool {
        let w = self.word_mut(Self::word_of(site));
        let mask = Self::mask_of(site);
        let fresh = *w & mask == 0;
        *w |= mask;
        self.len += usize::from(fresh);
        fresh
    }

    /// Removes a site; returns `true` if it was present.
    pub fn remove(&mut self, site: SiteId) -> bool {
        let w = Self::word_of(site);
        if w >= self.words() {
            return false;
        }
        let word = self.word_mut(w);
        let mask = Self::mask_of(site);
        let had = *word & mask != 0;
        *word &= !mask;
        self.len -= usize::from(had);
        had
    }

    /// Membership test.
    #[inline]
    #[must_use]
    pub fn contains(&self, site: SiteId) -> bool {
        self.word(Self::word_of(site)) & Self::mask_of(site) != 0
    }

    /// Number of sites in the set.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when no site is present.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Removes every site.
    pub fn clear(&mut self) {
        self.inline = [0; INLINE_WORDS];
        self.spill.clear();
        self.len = 0;
    }

    /// Iterates sites in ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = SiteId> + '_ {
        (0..self.words()).flat_map(move |w| {
            let mut bits = self.word(w);
            std::iter::from_fn(move || {
                if bits == 0 {
                    return None;
                }
                let b = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                Some(SiteId((w * WORD_BITS + b) as u32))
            })
        })
    }

    /// Words of heap capacity the set holds (0 until an id ≥ 256 was
    /// inserted).
    #[cfg(test)]
    pub(crate) fn spill_capacity(&self) -> usize {
        self.spill.capacity()
    }

    /// Copies the set into an ordered `BTreeSet` for API boundaries that
    /// observe ordered-set semantics (e.g. [`crate::QuorumSource`]).
    #[must_use]
    pub fn to_btree(&self) -> BTreeSet<SiteId> {
        self.iter().collect()
    }
}

// Set equality, not representation equality: `remove` zeroes a spill
// word but keeps it, so a missing word compares like a zero one.
impl PartialEq for SiteSet {
    fn eq(&self, other: &Self) -> bool {
        let (long, short) = if self.spill.len() >= other.spill.len() {
            (&self.spill, &other.spill)
        } else {
            (&other.spill, &self.spill)
        };
        let (head, tail) = long.split_at(short.len());
        self.len == other.len
            && self.inline == other.inline
            && head == short.as_slice()
            && tail.iter().all(|&w| w == 0)
    }
}

impl Default for SiteSet {
    fn default() -> Self {
        SiteSet::new()
    }
}

impl FromIterator<SiteId> for SiteSet {
    fn from_iter<I: IntoIterator<Item = SiteId>>(iter: I) -> Self {
        let mut s = SiteSet::new();
        s.extend(iter);
        // Growing one insert at a time doubles the spill's capacity; a
        // collected set is usually a long-lived quorum, so trim the spill
        // to the words in use (153 instead of 256 for a grid quorum at
        // N = 10⁴). No-op, and no allocation, for an unspilled set.
        s.spill.shrink_to_fit();
        s
    }
}

impl Extend<SiteId> for SiteSet {
    fn extend<I: IntoIterator<Item = SiteId>>(&mut self, iter: I) {
        for site in iter {
            self.insert(site);
        }
    }
}

// Debug prints exactly like the `BTreeSet` it replaced — ordered
// `{S0, S3}` — because the model checker fingerprints protocol state via
// `Debug` and golden fingerprints must not depend on the representation.
impl fmt::Debug for SiteSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(id: u32) -> SiteId {
        SiteId(id)
    }

    #[test]
    fn insert_remove_contains_len() {
        let mut set = SiteSet::new();
        assert!(set.is_empty());
        assert!(set.insert(s(3)));
        assert!(!set.insert(s(3)), "double insert reports not-fresh");
        assert!(set.insert(s(0)));
        assert!(set.contains(s(3)));
        assert!(set.contains(s(0)));
        assert!(!set.contains(s(1)));
        assert_eq!(set.len(), 2);
        assert!(set.remove(s(3)));
        assert!(!set.remove(s(3)), "double remove reports absent");
        assert!(!set.contains(s(3)));
        assert_eq!(set.len(), 1);
        set.clear();
        assert!(set.is_empty());
        assert_eq!(set.len(), 0);
    }

    #[test]
    fn stored_len_matches_the_words() {
        let mut set = SiteSet::new();
        let mut x = 7u64;
        for _ in 0..2_000 {
            // LCG over ids 0..600, half of them in the spill.
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            let id = s(((x >> 33) % 600) as u32);
            if (x >> 20) & 1 == 0 {
                set.insert(id);
            } else {
                set.remove(id);
            }
            assert_eq!(set.len(), set.iter().count());
            assert_eq!(set.is_empty(), set.iter().next().is_none());
        }
        let collected: SiteSet = set.iter().collect();
        assert_eq!(collected.len(), set.len());
    }

    #[test]
    fn iteration_is_ordered() {
        let set: SiteSet = [s(64), s(2), s(130), s(7), s(65)].into_iter().collect();
        let ids: Vec<u32> = set.iter().map(|x| x.0).collect();
        assert_eq!(ids, vec![2, 7, 64, 65, 130]);
        assert_eq!(set.to_btree().len(), 5);
    }

    #[test]
    fn spill_words_beyond_inline_range() {
        let mut set = SiteSet::new();
        let big = s((INLINE_WORDS * WORD_BITS) as u32 + 10);
        assert!(!set.contains(big));
        assert!(!set.remove(big), "removing from absent spill is a no-op");
        assert!(set.insert(big));
        assert!(set.contains(big));
        assert_eq!(set.len(), 1);
        assert_eq!(set.iter().next(), Some(big));
        assert!(set.remove(big));
        assert!(set.is_empty());
    }

    #[test]
    fn equality_ignores_spill_capacity() {
        // A set whose spill was allocated and then emptied equals one
        // that never spilled: removing a spilled bit zeroes the word but
        // keeps it.
        let mut a = SiteSet::new();
        a.insert(s(300));
        a.remove(s(300));
        let b = SiteSet::new();
        assert_eq!(format!("{a:?}"), "{}");
        assert_eq!(a, b);
        assert_eq!(b, a);
        // Same members, spills of different lengths.
        let mut c: SiteSet = [s(3), s(290)].into_iter().collect();
        c.insert(s(900));
        c.remove(s(900));
        let d: SiteSet = [s(3), s(290)].into_iter().collect();
        assert_eq!(c, d);
        assert_eq!(d, c);
        // Different members still differ, in the inline words, in the
        // shared spill words and in a longer spill.
        assert_ne!(d, [s(4), s(290)].into_iter().collect::<SiteSet>());
        assert_ne!(d, [s(3), s(291)].into_iter().collect::<SiteSet>());
        assert_ne!(d, [s(3), s(290), s(900)].into_iter().collect::<SiteSet>());
        assert_ne!(a, [s(300)].into_iter().collect::<SiteSet>());
    }

    #[test]
    fn collect_trims_the_spill_to_the_highest_id() {
        // Ids up to word 156 need 153 words of spill; inserting them in
        // ascending order one at a time doubles the capacity to 256.
        let top = ((INLINE_WORDS + 152) * WORD_BITS) as u32;
        let mut ids: Vec<SiteId> = (0..=top).rev().step_by(7).map(s).collect();
        ids.reverse();
        let set: SiteSet = ids.iter().copied().collect();
        assert_eq!(set.spill_capacity(), 153);
        assert_eq!(set.len(), ids.len());
        let mut grown = SiteSet::new();
        grown.extend(ids.iter().copied());
        assert_eq!(grown, set, "same words as one insert at a time");
        let small: SiteSet = [s(3), s(200)].into_iter().collect();
        assert_eq!(small.spill_capacity(), 0, "inline ids never spill");
    }

    #[test]
    fn debug_matches_btreeset_shape() {
        let set: SiteSet = [s(2), s(0)].into_iter().collect();
        let bt: BTreeSet<SiteId> = [s(2), s(0)].into_iter().collect();
        assert_eq!(format!("{set:?}"), format!("{bt:?}"));
    }
}
