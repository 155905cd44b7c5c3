//! Agrawal–El Abbadi tree quorums (reference \[1\] of the paper).
//!
//! Sites `0..N` (`N = 2^d − 1`) form a complete binary tree laid out
//! heap-style (children of `i` are `2i+1`, `2i+2`). A quorum is obtained by
//! walking from the root to a leaf; when a node on the path is unavailable,
//! it is *substituted* by **two** root-to-leaf paths through both of its
//! children. With no failures the quorum size is `log₂(N+1)`; as sites fail
//! the quorum degrades gracefully up to majority-like sizes (worst case
//! `⌈(N+1)/2⌉` leaves).
//!
//! This is the canonical *reconstructible* coterie for the paper's §6
//! fault-tolerance scheme, so [`TreeQuorumSource`] implements
//! [`QuorumSource`] for use with `DelayOptimal::with_quorum_source`.

use crate::coterie::QuorumSystem;
use qmx_core::{QuorumSource, SiteId};
use std::collections::BTreeSet;

/// Error constructing a tree quorum.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TreeError {
    /// `N` is not `2^d − 1` for some `d ≥ 1`.
    NotFullTree(usize),
    /// No quorum exists that avoids the failed sites.
    NoLiveQuorum,
}

impl std::fmt::Display for TreeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TreeError::NotFullTree(n) => {
                write!(f, "tree quorums need N = 2^d - 1 sites, got {n}")
            }
            TreeError::NoLiveQuorum => write!(f, "no live quorum exists"),
        }
    }
}

impl std::error::Error for TreeError {}

fn is_full_tree(n: usize) -> bool {
    n >= 1 && (n + 1).is_power_of_two()
}

/// Recursive quorum collection. `steer` biases which child is tried first
/// at each level (bit `depth` of `steer`), spreading load across sites.
fn collect(
    node: usize,
    n: usize,
    down: &BTreeSet<SiteId>,
    steer: u64,
    depth: u32,
    out: &mut Vec<SiteId>,
) -> bool {
    if node >= n {
        // Walked past a leaf: vacuous success (parent was a leaf).
        return true;
    }
    let left = 2 * node + 1;
    let right = 2 * node + 2;
    let is_leaf = left >= n;
    let alive = !down.contains(&SiteId(node as u32));
    if alive {
        out.push(SiteId(node as u32));
        if is_leaf {
            return true;
        }
        // Follow one root-to-leaf path; try the steered child first.
        let (first, second) = if (steer >> depth) & 1 == 0 {
            (left, right)
        } else {
            (right, left)
        };
        let mark = out.len();
        if collect(first, n, down, steer, depth + 1, out) {
            return true;
        }
        out.truncate(mark);
        if collect(second, n, down, steer, depth + 1, out) {
            return true;
        }
        out.truncate(mark - 1); // remove `node` too
        false
    } else {
        if is_leaf {
            return false;
        }
        // Substitute the failed node with paths through BOTH children.
        let mark = out.len();
        if collect(left, n, down, steer, depth + 1, out)
            && collect(right, n, down, steer, depth + 1, out)
        {
            true
        } else {
            out.truncate(mark);
            false
        }
    }
}

/// Computes one tree quorum over `n` sites avoiding `down`, biased by
/// `steer` (typically the requesting site id, to spread load).
///
/// # Errors
///
/// [`TreeError::NotFullTree`] if `n` is not `2^d − 1`;
/// [`TreeError::NoLiveQuorum`] if failures disconnect every quorum.
pub fn tree_quorum(
    n: usize,
    down: &BTreeSet<SiteId>,
    steer: u64,
) -> Result<Vec<SiteId>, TreeError> {
    if !is_full_tree(n) {
        return Err(TreeError::NotFullTree(n));
    }
    let mut out = Vec::new();
    if collect(0, n, down, steer, 0, &mut out) {
        out.sort_unstable();
        out.dedup();
        Ok(out)
    } else {
        Err(TreeError::NoLiveQuorum)
    }
}

/// Builds the failure-free tree quorum system (each site steers by its own
/// id, so different sites get different root-to-leaf paths).
///
/// ```
/// use qmx_quorum::tree::tree_system;
/// let sys = tree_system(15).expect("15 = 2^4 - 1");
/// assert_eq!(sys.max_quorum_size(), 4); // log2(N+1)
/// ```
///
/// # Errors
///
/// [`TreeError::NotFullTree`] if `n` is not `2^d − 1`.
pub fn tree_system(n: usize) -> Result<QuorumSystem, TreeError> {
    let empty = BTreeSet::new();
    let quorums = (0..n)
        .map(|s| tree_quorum(n, &empty, s as u64))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(QuorumSystem::new(n, quorums))
}

/// A [`QuorumSource`] that reconstructs tree quorums around failed sites,
/// for the §6 fault-tolerant protocol.
#[derive(Debug, Clone)]
pub struct TreeQuorumSource {
    n: usize,
}

impl TreeQuorumSource {
    /// Creates a source over `n = 2^d − 1` sites.
    ///
    /// # Errors
    ///
    /// [`TreeError::NotFullTree`] if `n` is not `2^d − 1`.
    pub fn new(n: usize) -> Result<Self, TreeError> {
        if is_full_tree(n) {
            Ok(TreeQuorumSource { n })
        } else {
            Err(TreeError::NotFullTree(n))
        }
    }
}

impl QuorumSource for TreeQuorumSource {
    fn quorum_avoiding(&self, site: SiteId, down: &BTreeSet<SiteId>) -> Option<Vec<SiteId>> {
        tree_quorum(self.n, down, site.0 as u64).ok()
    }

    fn box_clone(&self) -> Box<dyn QuorumSource> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn down(ids: &[u32]) -> BTreeSet<SiteId> {
        ids.iter().map(|&i| SiteId(i)).collect()
    }

    #[test]
    fn rejects_non_full_tree_sizes() {
        assert_eq!(tree_system(6).unwrap_err(), TreeError::NotFullTree(6));
        assert!(TreeQuorumSource::new(4).is_err());
        assert_eq!(
            TreeError::NotFullTree(6).to_string(),
            "tree quorums need N = 2^d - 1 sites, got 6"
        );
    }

    #[test]
    fn failure_free_quorum_is_a_root_leaf_path() {
        // N = 7, depth 3: path length log2(8) = 3.
        let q = tree_quorum(7, &BTreeSet::new(), 0).unwrap();
        assert_eq!(q, vec![SiteId(0), SiteId(1), SiteId(3)]);
        let q = tree_quorum(7, &BTreeSet::new(), 0b11).unwrap();
        assert_eq!(q, vec![SiteId(0), SiteId(2), SiteId(6)]);
    }

    #[test]
    fn tree_system_is_a_valid_coterie() {
        for n in [1usize, 3, 7, 15, 31, 63] {
            let sys = tree_system(n).unwrap();
            assert!(sys.verify_intersection().is_ok(), "n={n}");
            let depth = (n + 1).trailing_zeros() as usize;
            assert_eq!(sys.max_quorum_size(), depth, "n={n}");
        }
    }

    #[test]
    fn root_failure_substitutes_two_paths() {
        let q = tree_quorum(7, &down(&[0]), 0).unwrap();
        // Both subtrees contribute a path: {1,3} and {2,5or6}... steered
        // left-first: {1,3,2,5}.
        assert_eq!(q, vec![SiteId(1), SiteId(2), SiteId(3), SiteId(5)]);
    }

    #[test]
    fn interior_failure_widens_quorum() {
        let q = tree_quorum(7, &down(&[1]), 0).unwrap();
        // Node 1 replaced by paths through both its children 3 and 4.
        assert_eq!(q, vec![SiteId(0), SiteId(3), SiteId(4)]);
    }

    #[test]
    fn quorums_avoiding_failures_still_intersect() {
        // Any two quorums constructed under (possibly different) failure
        // sets must intersect — that is what keeps the FT protocol safe.
        let scenarios = [
            down(&[]),
            down(&[0]),
            down(&[1]),
            down(&[2]),
            down(&[0, 1]),
            down(&[3, 4]),
            down(&[1, 6]),
        ];
        let mut quorums = Vec::new();
        for d in &scenarios {
            for steer in 0..8u64 {
                if let Ok(q) = tree_quorum(15, d, steer) {
                    quorums.push(q);
                }
            }
        }
        for (i, a) in quorums.iter().enumerate() {
            for b in &quorums[i + 1..] {
                assert!(
                    a.iter().any(|x| b.contains(x)),
                    "quorums {a:?} and {b:?} do not intersect"
                );
            }
        }
    }

    #[test]
    fn leaf_failures_exhaust_quorums() {
        // All leaves down: no quorum can terminate.
        let err = tree_quorum(7, &down(&[3, 4, 5, 6]), 0).unwrap_err();
        assert_eq!(err, TreeError::NoLiveQuorum);
        assert_eq!(err.to_string(), "no live quorum exists");
    }

    #[test]
    fn quorum_source_reconstructs() {
        let src = TreeQuorumSource::new(7).unwrap();
        let q0 = src.quorum_avoiding(SiteId(0), &BTreeSet::new()).unwrap();
        assert_eq!(q0.len(), 3);
        let q1 = src.quorum_avoiding(SiteId(0), &down(&[q0[1].0])).unwrap();
        assert!(!q1.contains(&q0[1]));
        assert!(src
            .quorum_avoiding(SiteId(0), &down(&[3, 4, 5, 6]))
            .is_none());
    }

    #[test]
    fn single_node_tree() {
        let q = tree_quorum(1, &BTreeSet::new(), 0).unwrap();
        assert_eq!(q, vec![SiteId(0)]);
        assert!(tree_quorum(1, &down(&[0]), 0).is_err());
    }
}
