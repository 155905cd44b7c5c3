//! Wheel coteries (Marcus–Agrawala style hub-and-spokes).
//!
//! One site is the **hub**; the rest are **spokes**. The coterie is
//!
//! * `{hub, sᵢ}` for every spoke `sᵢ` (size 2!), plus
//! * the **rim** `{s₁, …, s_{N−1}}` (all spokes, used when the hub is
//!   down).
//!
//! Intersection: two hub quorums share the hub; a hub quorum and the rim
//! share the spoke. The wheel has the *smallest possible* quorum size for
//! `N > 3` but concentrates every CS round on the hub — the extreme
//! opposite of the symmetric grid/FPP designs, worth having in the
//! comparison suite for exactly that reason.

use crate::coterie::QuorumSystem;
use qmx_core::SiteId;

/// Builds the wheel quorum system over `n` sites with site 0 as the hub.
/// Spoke `i` uses `{hub, i}`; the hub itself uses `{hub, 1}` (any single
/// spoke suffices). For `n == 1` the singleton coterie is returned.
///
/// ```
/// use qmx_quorum::wheel::wheel_system;
/// let sys = wheel_system(50);
/// assert_eq!(sys.max_quorum_size(), 2); // the minimum possible for N > 3
/// ```
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn wheel_system(n: usize) -> QuorumSystem {
    assert!(n > 0, "need at least one site");
    if n == 1 {
        return QuorumSystem::new(1, vec![vec![SiteId(0)]]);
    }
    let hub = SiteId(0);
    let quorums = (0..n)
        .map(|s| {
            if s == 0 {
                vec![hub, SiteId(1)]
            } else {
                vec![hub, SiteId(s as u32)]
            }
        })
        .collect();
    QuorumSystem::new(n, quorums)
}

/// The rim quorum (all spokes): the fallback when the hub fails. Not part
/// of the per-site assignment (the assignment stays at size 2) but usable
/// through the §6 reconstruction hook.
pub fn rim(n: usize) -> Vec<SiteId> {
    (1..n).map(|s| SiteId(s as u32)).collect()
}

/// A [`qmx_core::QuorumSource`] that hands out hub quorums while the hub
/// is alive and the rim after the hub fails (minus any dead spokes it can
/// do nothing about: the rim requires *all* spokes).
#[derive(Debug, Clone)]
pub struct WheelQuorumSource {
    n: usize,
}

impl WheelQuorumSource {
    /// Creates a source over `n ≥ 2` sites (site 0 is the hub).
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    pub fn new(n: usize) -> Self {
        assert!(n >= 2, "a wheel needs a hub and at least one spoke");
        WheelQuorumSource { n }
    }
}

impl qmx_core::QuorumSource for WheelQuorumSource {
    fn quorum_avoiding(
        &self,
        site: SiteId,
        down: &std::collections::BTreeSet<SiteId>,
    ) -> Option<Vec<SiteId>> {
        let hub = SiteId(0);
        if !down.contains(&hub) {
            // Prefer {hub, self}; the hub pairs with the first live spoke.
            let spoke = if site != hub && !down.contains(&site) {
                site
            } else {
                (1..self.n as u32).map(SiteId).find(|s| !down.contains(s))?
            };
            Some(if spoke == hub {
                vec![hub]
            } else {
                let mut q = vec![hub, spoke];
                q.sort_unstable();
                q
            })
        } else {
            // Hub down: the rim, which requires every spoke alive.
            let r = rim(self.n);
            r.iter().all(|s| !down.contains(s)).then_some(r)
        }
    }

    fn box_clone(&self) -> Box<dyn qmx_core::QuorumSource> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qmx_core::QuorumSource;
    use std::collections::BTreeSet;

    #[test]
    fn wheel_is_a_valid_coterie() {
        for n in [1usize, 2, 5, 9, 33] {
            let sys = wheel_system(n);
            assert!(sys.verify_intersection().is_ok(), "n={n}");
        }
    }

    #[test]
    fn quorum_size_is_two() {
        let sys = wheel_system(10);
        assert_eq!(sys.max_quorum_size(), 2);
        assert_eq!(sys.mean_quorum_size(), 2.0);
    }

    #[test]
    fn rim_intersects_every_hub_quorum() {
        let n = 7;
        let sys = wheel_system(n);
        let r = rim(n);
        for s in 0..n {
            let q = sys.quorum_of(SiteId(s as u32));
            assert!(q.iter().any(|m| r.contains(m)), "site {s}");
        }
    }

    #[test]
    fn source_switches_to_rim_when_hub_dies() {
        let src = WheelQuorumSource::new(5);
        let none = BTreeSet::new();
        assert_eq!(
            src.quorum_avoiding(SiteId(3), &none),
            Some(vec![SiteId(0), SiteId(3)])
        );
        let mut down = BTreeSet::new();
        down.insert(SiteId(0));
        assert_eq!(
            src.quorum_avoiding(SiteId(3), &down),
            Some(vec![SiteId(1), SiteId(2), SiteId(3), SiteId(4)])
        );
        // Hub AND a spoke down: no rim either.
        down.insert(SiteId(2));
        assert_eq!(src.quorum_avoiding(SiteId(3), &down), None);
    }

    #[test]
    fn source_avoids_dead_spokes_while_hub_lives() {
        let src = WheelQuorumSource::new(4);
        let mut down = BTreeSet::new();
        down.insert(SiteId(2));
        // Site 2 itself is dead; a live requester still pairs with the hub.
        assert_eq!(
            src.quorum_avoiding(SiteId(1), &down),
            Some(vec![SiteId(0), SiteId(1)])
        );
        // The dead site's "own" quorum would substitute another spoke.
        assert_eq!(
            src.quorum_avoiding(SiteId(2), &down),
            Some(vec![SiteId(0), SiteId(1)])
        );
    }
}
