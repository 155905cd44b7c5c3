//! Finite-projective-plane quorums (Maekawa's optimal construction).
//!
//! For a prime `q`, the projective plane `PG(2, q)` has `N = q² + q + 1`
//! points and as many lines; every line contains `q + 1` points, every two
//! lines meet in exactly one point, and every two points lie on exactly one
//! line. Taking lines as quorums yields the size-optimal symmetric coterie
//! with `K = q + 1 ≈ √N`.
//!
//! Points and lines are both represented by normalized homogeneous triples
//! over `GF(q)`; point `p` lies on line `l` iff `p · l ≡ 0 (mod q)`. Site
//! `i` is the `i`-th point; its quorum is a line *through* `i` (chosen by a
//! greedy system of distinct representatives), so `i ∈ req_set(i)` as
//! Maekawa's algorithm expects.

use crate::coterie::QuorumSystem;
use qmx_core::{QuorumSource, SiteId};
use std::collections::BTreeSet;
use std::sync::Arc;

/// Error constructing a projective plane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FppError {
    /// The order is not a prime (prime powers are not supported).
    NotPrime(usize),
}

impl std::fmt::Display for FppError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FppError::NotPrime(q) => write!(f, "projective plane order {q} is not prime"),
        }
    }
}

impl std::error::Error for FppError {}

fn is_prime(q: usize) -> bool {
    if q < 2 {
        return false;
    }
    let mut d = 2;
    while d * d <= q {
        if q.is_multiple_of(d) {
            return false;
        }
        d += 1;
    }
    true
}

/// Normalized homogeneous triples of `PG(2, q)`: the first non-zero
/// coordinate is 1. There are exactly `q² + q + 1` of them.
fn points(q: u64) -> Vec<[u64; 3]> {
    let mut pts = Vec::new();
    // (1, y, z)
    for y in 0..q {
        for z in 0..q {
            pts.push([1, y, z]);
        }
    }
    // (0, 1, z)
    for z in 0..q {
        pts.push([0, 1, z]);
    }
    // (0, 0, 1)
    pts.push([0, 0, 1]);
    pts
}

fn dot(a: &[u64; 3], b: &[u64; 3], q: u64) -> u64 {
    (a[0] * b[0] + a[1] * b[1] + a[2] * b[2]) % q
}

/// Builds the FPP quorum system of prime order `q` over `N = q² + q + 1`
/// sites: site `i`'s quorum is a line through point `i`.
///
/// ```
/// use qmx_quorum::fpp::fpp_system;
/// let fano = fpp_system(2).expect("2 is prime"); // the Fano plane
/// assert_eq!(fano.n(), 7);
/// assert_eq!(fano.max_quorum_size(), 3);
/// ```
///
/// # Errors
///
/// Returns [`FppError::NotPrime`] if `q` is not prime.
pub fn fpp_system(q: usize) -> Result<QuorumSystem, FppError> {
    if !is_prime(q) {
        return Err(FppError::NotPrime(q));
    }
    let qq = q as u64;
    let pts = points(qq);
    let n = pts.len();
    // Lines are the same triples by duality; line `l` = set of points with
    // p·l = 0.
    let line_members: Vec<Vec<SiteId>> = pts
        .iter()
        .map(|l| {
            (0..n)
                .filter(|&p| dot(&pts[p], l, qq) == 0)
                .map(|p| SiteId(p as u32))
                .collect()
        })
        .collect();
    // Assign each point a distinct line through it (greedy SDR; each point
    // lies on q+1 lines and each line carries q+1 points, so a perfect
    // matching exists and greedy-with-retry finds one for the sizes we
    // support — fall back to any incident line if the greedy pass misses).
    let mut line_of_point: Vec<Option<usize>> = vec![None; n];
    let mut line_used: Vec<bool> = vec![false; n];
    for (p, slot) in line_of_point.iter_mut().enumerate() {
        for (li, members) in line_members.iter().enumerate() {
            if !line_used[li] && members.contains(&SiteId(p as u32)) {
                line_used[li] = true;
                *slot = Some(li);
                break;
            }
        }
    }
    let quorums: Vec<Vec<SiteId>> = (0..n)
        .map(|p| {
            let li = line_of_point[p].unwrap_or_else(|| {
                // Fallback: any line through p (self-inclusion preserved,
                // line may be shared with another site).
                line_members
                    .iter()
                    .position(|m| m.contains(&SiteId(p as u32)))
                    .expect("every point lies on q+1 lines")
            });
            line_members[li].clone()
        })
        .collect();
    Ok(QuorumSystem::new(n, quorums))
}

/// Number of sites an order-`q` plane supports.
pub fn fpp_sites(q: usize) -> usize {
    q * q + q + 1
}

/// The normalized triple of point (or, by duality, line) `idx`, matching
/// the enumeration order of [`points`].
fn triple(idx: usize, q: u64) -> [u64; 3] {
    let (qq, i) = ((q * q) as usize, idx as u64);
    if idx < qq {
        [1, i / q, i % q]
    } else if idx < qq + q as usize {
        [0, 1, i - qq as u64]
    } else {
        [0, 0, 1]
    }
}

/// `x⁻¹ mod q` by Fermat's little theorem (`q` prime, `x ≠ 0`).
fn inv(x: u64, q: u64) -> u64 {
    let (mut base, mut exp, mut acc) = (x % q, q - 2, 1u64);
    while exp > 0 {
        if exp & 1 == 1 {
            acc = acc * base % q;
        }
        base = base * base % q;
        exp >>= 1;
    }
    acc
}

/// The `q + 1` point indices of line `[a, b, c]`, in ascending order,
/// computed parametrically in `O(q)` — solving `a·x + b·y + c·z ≡ 0` per
/// point family rather than testing all `q² + q + 1` points.
fn line_points(line: [u64; 3], q: u64) -> Vec<u32> {
    let [a, b, c] = line;
    let mut pts: Vec<u32> = Vec::with_capacity(q as usize + 1);
    // Family (1, y, z), index y·q + z: a + b·y + c·z ≡ 0.
    if c != 0 {
        let cinv = inv(c, q);
        for y in 0..q {
            let z = (q - (a + b * y % q) % q) % q * cinv % q;
            pts.push((y * q + z) as u32);
        }
    } else if b != 0 {
        let y = (q - a % q) % q * inv(b, q) % q;
        for z in 0..q {
            pts.push((y * q + z) as u32);
        }
    }
    // Family (0, 1, z), index q² + z: b + c·z ≡ 0.
    if c != 0 {
        let z = (q - b % q) % q * inv(c, q) % q;
        pts.push((q * q + z) as u32);
    } else if b == 0 {
        for z in 0..q {
            pts.push((q * q + z) as u32);
        }
    }
    // Point (0, 0, 1), index q² + q: on the line iff c ≡ 0.
    if c == 0 {
        pts.push((q * q + q) as u32);
    }
    pts.sort_unstable();
    pts
}

/// Lazy FPP quorums: yields one site's `q + 1 ≈ √N` quorum on demand in
/// `O(q)` instead of materializing all `N = q² + q + 1` lines.
///
/// Construction precomputes only the greedy line assignment (`O(N·q)`
/// time, one `u32` per site) — the same system of distinct representatives
/// [`fpp_system`] builds, so with no failed sites the result is
/// element-for-element identical to its `quorum_of`. With failures it
/// tries the site's other `q` incident lines in ascending index order
/// (any line is a valid quorum: two lines of a projective plane always
/// meet), reporting the site inaccessible only when every line through it
/// contains a down site.
#[derive(Debug, Clone)]
pub struct FppQuorumSource {
    q: u64,
    /// Greedy SDR line assignment, shared: cloning the source (one clone
    /// per site at large `N`) must not duplicate the `O(N)` table.
    assigned: Arc<Vec<u32>>,
}

impl FppQuorumSource {
    /// Creates a lazy source for the plane of prime order `q`
    /// (`N = q² + q + 1` sites).
    ///
    /// # Errors
    ///
    /// Returns [`FppError::NotPrime`] if `q` is not prime.
    pub fn new(q: usize) -> Result<Self, FppError> {
        if !is_prime(q) {
            return Err(FppError::NotPrime(q));
        }
        let qq = q as u64;
        let n = fpp_sites(q);
        // Same greedy SDR as `fpp_system`: scanning a point's incident
        // lines in ascending index order is equivalent to scanning all
        // lines in index order and testing membership — the dual of
        // `line_points` enumerates exactly those incident lines.
        let mut assigned: Vec<u32> = Vec::with_capacity(n);
        let mut used = vec![false; n];
        for p in 0..n {
            let incident = line_points(triple(p, qq), qq);
            let li = incident
                .iter()
                .copied()
                .find(|&li| !used[li as usize])
                .unwrap_or(incident[0]);
            used[li as usize] = true;
            assigned.push(li);
        }
        Ok(FppQuorumSource {
            q: qq,
            assigned: Arc::new(assigned),
        })
    }

    /// Number of sites the source covers.
    pub fn n(&self) -> usize {
        self.assigned.len()
    }
}

impl QuorumSource for FppQuorumSource {
    fn quorum_avoiding(&self, site: SiteId, down: &BTreeSet<SiteId>) -> Option<Vec<SiteId>> {
        let q = self.q;
        let primary = self.assigned[site.index()];
        let incident = line_points(triple(site.index(), q), q);
        std::iter::once(primary)
            .chain(incident.into_iter().filter(move |&li| li != primary))
            .map(|li| line_points(triple(li as usize, q), q))
            .find(|members| !members.iter().any(|&p| down.contains(&SiteId(p))))
            .map(|members| members.into_iter().map(SiteId).collect())
    }

    fn box_clone(&self) -> Box<dyn QuorumSource> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_composite_order() {
        assert_eq!(fpp_system(4), Err(FppError::NotPrime(4)));
        assert_eq!(fpp_system(1), Err(FppError::NotPrime(1)));
        assert!(fpp_system(6).is_err());
    }

    #[test]
    fn fano_plane_q2() {
        // q = 2: the Fano plane, N = 7, K = 3.
        let sys = fpp_system(2).unwrap();
        assert_eq!(sys.n(), 7);
        assert_eq!(sys.mean_quorum_size(), 3.0);
        assert!(sys.verify_intersection().is_ok());
        assert!(sys.verify_minimality().is_ok());
        assert_eq!(sys.self_inclusion_rate(), 1.0);
    }

    #[test]
    fn planes_of_prime_orders_are_valid_coteries() {
        for q in [3usize, 5, 7] {
            let sys = fpp_system(q).unwrap();
            assert_eq!(sys.n(), fpp_sites(q), "q={q}");
            assert_eq!(sys.max_quorum_size(), q + 1, "q={q}");
            assert!(sys.verify_intersection().is_ok(), "q={q}");
            assert_eq!(sys.self_inclusion_rate(), 1.0, "q={q}");
        }
    }

    #[test]
    fn quorum_size_is_sqrt_n_asymptotically() {
        let sys = fpp_system(11).unwrap();
        let n = sys.n() as f64; // 133
        assert!((sys.mean_quorum_size() - n.sqrt()).abs() < 1.0);
    }

    #[test]
    fn error_displays() {
        assert_eq!(
            FppError::NotPrime(9).to_string(),
            "projective plane order 9 is not prime"
        );
    }

    #[test]
    fn lazy_source_matches_eager_system() {
        for q in [2usize, 3, 5, 7, 11] {
            let sys = fpp_system(q).unwrap();
            let lazy = FppQuorumSource::new(q).unwrap();
            assert_eq!(lazy.n(), sys.n());
            for s in 0..sys.n() {
                let site = SiteId(s as u32);
                let quorum = lazy
                    .quorum_avoiding(site, &BTreeSet::new())
                    .expect("no failures: quorum must exist");
                assert_eq!(quorum.as_slice(), sys.quorum_of(site), "q={q} site={s}");
            }
        }
    }

    #[test]
    fn lazy_source_rejects_composite_order() {
        assert!(matches!(
            FppQuorumSource::new(6),
            Err(FppError::NotPrime(6))
        ));
    }

    #[test]
    fn lazy_source_switches_to_another_incident_line() {
        let lazy = FppQuorumSource::new(3).unwrap(); // N = 13, lines of 4
        for s in 0..13u32 {
            let site = SiteId(s);
            let original = lazy.quorum_avoiding(site, &BTreeSet::new()).unwrap();
            // Fail one non-self member of the assigned line: the source
            // must fall back to a different line still through `site`.
            let dead = *original.iter().find(|&&m| m != site).unwrap();
            let down: BTreeSet<SiteId> = [dead].into_iter().collect();
            let alt = lazy.quorum_avoiding(site, &down).unwrap();
            assert!(alt.contains(&site), "incident lines pass through site");
            assert!(!alt.contains(&dead));
            assert_ne!(alt, original);
        }
    }

    #[test]
    fn lazy_source_reports_inaccessible_when_every_line_is_hit() {
        // Fano plane: site 0 lies on 3 lines; failing one distinct
        // non-self point per line makes all of them unusable.
        let lazy = FppQuorumSource::new(2).unwrap();
        let site = SiteId(0);
        let mut down = BTreeSet::new();
        // Greedily poison lines until the site becomes inaccessible; q+1
        // = 3 failures always suffice (one per incident line).
        for _ in 0..3 {
            match lazy.quorum_avoiding(site, &down) {
                Some(q) => {
                    down.insert(*q.iter().find(|&&m| m != site).unwrap());
                }
                None => break,
            }
        }
        assert_eq!(lazy.quorum_avoiding(site, &down), None);
    }
}
