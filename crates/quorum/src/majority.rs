//! Majority voting quorums (Thomas; reference \[18\] of the paper).
//!
//! Any `⌊N/2⌋ + 1` sites form a quorum: two majorities always intersect.
//! Highest resilience (tolerates any `⌈N/2⌉ − 1` failures) but `O(N)`
//! message complexity — the opposite end of the trade-off from grid/FPP.
//!
//! Site `i` takes the majority window starting at itself
//! (`{i, i+1, …} mod N`) so load spreads evenly.

use crate::coterie::QuorumSystem;
use qmx_core::{QuorumSource, SiteId};
use std::collections::BTreeSet;

/// Size of a majority among `n` sites.
pub fn majority_size(n: usize) -> usize {
    n / 2 + 1
}

/// Builds the rotating-window majority quorum system over `n` sites.
///
/// ```
/// use qmx_quorum::majority::majority_system;
/// let sys = majority_system(7);
/// assert_eq!(sys.max_quorum_size(), 4); // floor(7/2) + 1
/// ```
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn majority_system(n: usize) -> QuorumSystem {
    assert!(n > 0, "need at least one site");
    let m = majority_size(n);
    let quorums = (0..n)
        .map(|s| (0..m).map(|k| SiteId(((s + k) % n) as u32)).collect())
        .collect();
    QuorumSystem::new(n, quorums)
}

/// A [`QuorumSource`] that returns any majority of the *live* sites'
/// universe: the first `⌊N/2⌋+1` live sites starting from the requester.
/// Returns `None` once half or more of the sites are down (a majority of
/// the original universe must stay live for safety).
#[derive(Debug, Clone)]
pub struct MajorityQuorumSource {
    n: usize,
}

impl MajorityQuorumSource {
    /// Creates a source over `n` sites.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "need at least one site");
        MajorityQuorumSource { n }
    }
}

impl QuorumSource for MajorityQuorumSource {
    fn quorum_avoiding(&self, site: SiteId, down: &BTreeSet<SiteId>) -> Option<Vec<SiteId>> {
        let m = majority_size(self.n);
        let mut q: Vec<SiteId> = Vec::with_capacity(m);
        for k in 0..self.n {
            let cand = SiteId(((site.index() + k) % self.n) as u32);
            if !down.contains(&cand) {
                q.push(cand);
                if q.len() == m {
                    q.sort_unstable();
                    return Some(q);
                }
            }
        }
        None
    }

    fn box_clone(&self) -> Box<dyn QuorumSource> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn majority_sizes() {
        assert_eq!(majority_size(1), 1);
        assert_eq!(majority_size(2), 2);
        assert_eq!(majority_size(5), 3);
        assert_eq!(majority_size(6), 4);
    }

    #[test]
    fn system_is_valid_coterie() {
        for n in [1usize, 2, 3, 7, 10, 15] {
            let sys = majority_system(n);
            assert!(sys.verify_intersection().is_ok(), "n={n}");
            assert_eq!(sys.max_quorum_size(), majority_size(n), "n={n}");
            assert_eq!(sys.self_inclusion_rate(), 1.0, "n={n}");
        }
    }

    #[test]
    fn windows_rotate() {
        let sys = majority_system(5);
        assert_eq!(sys.quorum_of(SiteId(3)), &[SiteId(0), SiteId(3), SiteId(4)]);
    }

    #[test]
    fn source_tolerates_minority_failures() {
        let src = MajorityQuorumSource::new(5);
        let down: BTreeSet<SiteId> = [SiteId(1), SiteId(2)].into_iter().collect();
        let q = src.quorum_avoiding(SiteId(0), &down).unwrap();
        assert_eq!(q, vec![SiteId(0), SiteId(3), SiteId(4)]);
        let down: BTreeSet<SiteId> = [SiteId(1), SiteId(2), SiteId(3)].into_iter().collect();
        assert!(src.quorum_avoiding(SiteId(0), &down).is_none());
    }
}
