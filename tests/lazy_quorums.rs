//! Lazy quorum sources vs. materialized coteries.
//!
//! The large-N engine never builds a `QuorumSystem` — each site pulls its
//! `O(√N)` quorum from a [`GridQuorumSource`] / [`FppQuorumSource`] on
//! demand. These tests pin the contract that makes that substitution safe:
//!
//! 1. at small `N` (where materializing is cheap) the lazy quorum is
//!    **element-for-element identical** to the eager system's, for every
//!    site — so swapping the representations can never change a replay;
//! 2. at large `N` (10⁴, far beyond what the eager path is asked to
//!    handle) sampled pairs of lazily generated quorums still satisfy the
//!    paper's §2 Intersection Property.

use std::collections::BTreeSet;

use proptest::prelude::*;
use qmx_core::{QuorumSource, SiteId};
use qmx_quorum::fpp::{fpp_sites, fpp_system};
use qmx_quorum::grid::grid_system;
use qmx_quorum::{FppQuorumSource, GridQuorumSource};

/// Sorted site lists share an element?
fn intersects(a: &[SiteId], b: &[SiteId]) -> bool {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => return true,
        }
    }
    false
}

proptest! {
    /// Lazy grid quorums equal the materialized coterie's at every site.
    #[test]
    fn grid_lazy_matches_eager(n in 1usize..200) {
        let sys = grid_system(n);
        let lazy = GridQuorumSource::new(n);
        for s in 0..n {
            let site = SiteId(s as u32);
            let q = lazy
                .quorum_avoiding(site, &BTreeSet::new())
                .expect("no failures: quorum must exist");
            prop_assert_eq!(q.as_slice(), sys.quorum_of(site), "n={} site={}", n, s);
        }
    }

    /// Lazy FPP quorums equal the materialized coterie's at every site,
    /// including the greedy distinct-representative line assignment.
    #[test]
    fn fpp_lazy_matches_eager(qi in 0usize..6) {
        let q = [2usize, 3, 5, 7, 11, 13][qi];
        let sys = fpp_system(q).unwrap();
        let lazy = FppQuorumSource::new(q).unwrap();
        for s in 0..sys.n() {
            let site = SiteId(s as u32);
            let quorum = lazy
                .quorum_avoiding(site, &BTreeSet::new())
                .expect("no failures: quorum must exist");
            prop_assert_eq!(quorum.as_slice(), sys.quorum_of(site), "q={} site={}", q, s);
        }
    }

    /// With a handful of failed sites, a reconstructed grid quorum avoids
    /// them and still intersects every intact site's quorum.
    #[test]
    fn grid_lazy_reconstruction_is_safe(
        n in 9usize..150,
        dead in proptest::collection::btree_set(0u32..150, 1..4),
    ) {
        let down: BTreeSet<SiteId> =
            dead.into_iter().filter(|&d| (d as usize) < n).map(SiteId).collect();
        let lazy = GridQuorumSource::new(n);
        let quorums: Vec<Vec<SiteId>> = (0..n)
            .filter(|s| !down.contains(&SiteId(*s as u32)))
            .filter_map(|s| lazy.quorum_avoiding(SiteId(s as u32), &down))
            .collect();
        for q in &quorums {
            prop_assert!(q.iter().all(|m| !down.contains(m)), "quorum uses a dead site");
        }
        for a in &quorums {
            for b in &quorums {
                prop_assert!(intersects(a, b), "disjoint quorums {:?} {:?}", a, b);
            }
        }
    }
}

/// At `N = 10⁴` the coterie is never materialized; deterministically
/// sampled pairs of lazily generated quorums must still intersect.
#[test]
fn sampled_pairs_intersect_at_n_10k() {
    let n = 10_000usize;
    let grid = GridQuorumSource::new(n);
    // q = 97 is prime: N = 9507 sites, quorum size 98.
    let fpp_q = 97usize;
    let fpp_n = fpp_sites(fpp_q);
    let fpp = FppQuorumSource::new(fpp_q).unwrap();

    // Fixed-seed LCG so the sampled pairs are identical run to run.
    let mut state = 0x5EED_CAFE_F00D_1234u64;
    let mut next = move |bound: usize| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 33) % bound as u64) as usize
    };
    let empty = BTreeSet::new();
    for _ in 0..2_000 {
        let (a, b) = (next(n), next(n));
        let qa = grid.quorum_avoiding(SiteId(a as u32), &empty).unwrap();
        let qb = grid.quorum_avoiding(SiteId(b as u32), &empty).unwrap();
        assert!(intersects(&qa, &qb), "grid quorums of {a} and {b} disjoint");
        assert_eq!(qa.len(), grid_quorum_len(n, a), "grid quorum size O(√N)");

        let (a, b) = (next(fpp_n), next(fpp_n));
        let qa = fpp.quorum_avoiding(SiteId(a as u32), &empty).unwrap();
        let qb = fpp.quorum_avoiding(SiteId(b as u32), &empty).unwrap();
        assert!(intersects(&qa, &qb), "fpp quorums of {a} and {b} disjoint");
        assert_eq!(qa.len(), fpp_q + 1, "fpp quorum size q+1");
    }
}

/// Expected size of site `s`'s grid quorum: its row's cells plus its
/// column's cells, minus the shared cell.
fn grid_quorum_len(n: usize, s: usize) -> usize {
    let c = (n as f64).sqrt().ceil() as usize;
    let (row, col) = (s / c, s % c);
    let row_len = (0..c).filter(|j| row * c + j < n).count();
    let col_len = (0..n.div_ceil(c)).filter(|i| i * c + col < n).count();
    row_len + col_len - 1
}
