//! Maekawa-style grid quorums: `quorum(s) = row(s) ∪ column(s)`.
//!
//! Sites `0..N` are arranged row-major in a `r × c` grid with `c = ⌈√N⌉`
//! and `r = ⌈N/c⌉`; the final row may be partial. A site's quorum is every
//! site in its row plus every site in its column, giving `≈ 2√N − 1`
//! members.
//!
//! Intersection holds even for the truncated grid: for sites `a = (i₁,j₁)`
//! and `b = (i₂,j₂)` with `i₁ ≤ i₂`, the cell `(i₁,j₂)` exists because
//! `i₁·c + j₂ ≤ i₂·c + j₂ < N`, and it lies in `a`'s row and `b`'s column.

use crate::coterie::QuorumSystem;
use qmx_core::{QuorumSource, SiteId};
use std::collections::BTreeSet;

/// Builds the grid quorum system over `n` sites.
///
/// ```
/// use qmx_quorum::grid::grid_system;
/// let sys = grid_system(16); // 4x4 grid
/// assert_eq!(sys.max_quorum_size(), 7); // row + column - self
/// assert!(sys.verify_intersection().is_ok());
/// ```
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn grid_system(n: usize) -> QuorumSystem {
    assert!(n > 0, "need at least one site");
    let c = (n as f64).sqrt().ceil() as usize;
    let quorums = (0..n)
        .map(|s| {
            let (row, col) = (s / c, s % c);
            let mut q: Vec<SiteId> = Vec::new();
            // Row members.
            for j in 0..c {
                let id = row * c + j;
                if id < n {
                    q.push(SiteId(id as u32));
                }
            }
            // Column members.
            for i in 0..n.div_ceil(c) {
                let id = i * c + col;
                if id < n {
                    q.push(SiteId(id as u32));
                }
            }
            q
        })
        .collect();
    QuorumSystem::new(n, quorums)
}

/// Lazy grid quorums: yields one site's `O(√N)` quorum on demand without
/// materializing the `N × 2√N` coterie, so the large-N engine can run
/// `N = 10⁵` sites in `O(N·√N)` total quorum memory only for the sites
/// that actually request.
///
/// With no failed sites the result is element-for-element identical to
/// [`grid_system`]'s `quorum_of` (sorted, duplicate-free row ∪ column).
/// With failures it implements the §6 reconstruction rule: any live row
/// plus any live column is again a grid quorum. Reconstruction restricts
/// the row choice to *complete* rows (every cell of the truncated grid
/// present): the pairwise-intersection proof needs the crossing cell
/// `(min row, other's column)` to exist, which a complete row guarantees
/// against every column; a site's *own* (possibly partial) row is always
/// safe because a partial row is necessarily the last one, so any other
/// quorum's row lies above it and crosses this site's column instead.
#[derive(Debug, Clone)]
pub struct GridQuorumSource {
    n: usize,
    c: usize,
}

impl GridQuorumSource {
    /// Creates a lazy source over `n` sites arranged in a `⌈n/c⌉ × c` grid,
    /// `c = ⌈√n⌉`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "need at least one site");
        let c = (n as f64).sqrt().ceil() as usize;
        GridQuorumSource { n, c }
    }

    /// Cells of row `i` that exist in the truncated grid.
    fn row_cells(&self, i: usize) -> impl Iterator<Item = usize> + Clone + '_ {
        (0..self.c)
            .map(move |j| i * self.c + j)
            .filter(|&s| s < self.n)
    }

    /// Cells of column `j` that exist in the truncated grid.
    fn col_cells(&self, j: usize) -> impl Iterator<Item = usize> + Clone + '_ {
        (0..self.n.div_ceil(self.c))
            .map(move |i| i * self.c + j)
            .filter(|&s| s < self.n)
    }

    fn row_live(&self, i: usize, down: &BTreeSet<SiteId>) -> bool {
        self.row_cells(i).all(|s| !down.contains(&SiteId(s as u32)))
    }

    fn col_live(&self, j: usize, down: &BTreeSet<SiteId>) -> bool {
        self.col_cells(j).all(|s| !down.contains(&SiteId(s as u32)))
    }

    /// Sorted, duplicate-free `row(i) ∪ col(j)`: the column's cells above
    /// row `i`, the row (which holds the crossing cell), then the column's
    /// cells below it. Allocated at its exact size, since a requester
    /// keeps its quorum for the rest of the run.
    fn quorum(&self, i: usize, j: usize) -> Vec<SiteId> {
        let cells = self
            .col_cells(j)
            .take(i)
            .chain(self.row_cells(i))
            .chain(self.col_cells(j).skip(i + 1));
        let mut q = Vec::with_capacity(cells.clone().count());
        q.extend(cells.map(|s| SiteId(s as u32)));
        q
    }
}

impl QuorumSource for GridQuorumSource {
    fn quorum_avoiding(&self, site: SiteId, down: &BTreeSet<SiteId>) -> Option<Vec<SiteId>> {
        let (row, col) = (site.index() / self.c, site.index() % self.c);
        // Fast path: the site's own row and column (exactly what
        // `grid_system` assigns) — always intersection-safe, even when the
        // own row is the partial last one.
        if self.row_live(row, down) && self.col_live(col, down) {
            return Some(self.quorum(row, col));
        }
        // §6 reconstruction: first live *complete* row (any row when the
        // grid has a single row) plus first live column.
        let rows = self.n.div_ceil(self.c);
        let live_row = (0..rows)
            .find(|&i| (rows == 1 || (i + 1) * self.c <= self.n) && self.row_live(i, down))?;
        let live_col = (0..self.c.min(self.n)).find(|&j| self.col_live(j, down))?;
        Some(self.quorum(live_row, live_col))
    }

    fn box_clone(&self) -> Box<dyn QuorumSource> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_square_quorum_size_is_2_sqrt_minus_1() {
        for n in [4usize, 9, 16, 25, 49] {
            let sys = grid_system(n);
            let k = 2 * (n as f64).sqrt() as usize - 1;
            assert_eq!(sys.max_quorum_size(), k, "n={n}");
            assert_eq!(sys.mean_quorum_size(), k as f64, "n={n}");
        }
    }

    #[test]
    fn every_site_is_in_its_own_quorum() {
        for n in [1usize, 5, 12, 25, 40] {
            let sys = grid_system(n);
            assert_eq!(sys.self_inclusion_rate(), 1.0, "n={n}");
        }
    }

    #[test]
    fn intersection_holds_for_all_n_up_to_60() {
        for n in 1..=60 {
            let sys = grid_system(n);
            assert!(sys.verify_intersection().is_ok(), "n={n}");
        }
    }

    #[test]
    fn single_site_grid() {
        let sys = grid_system(1);
        assert_eq!(sys.quorum_of(SiteId(0)), &[SiteId(0)]);
    }

    #[test]
    fn truncated_grid_example() {
        // n=7, c=3: grid rows [0,1,2],[3,4,5],[6]. Site 6 = (2,0).
        let sys = grid_system(7);
        assert_eq!(sys.quorum_of(SiteId(6)), &[SiteId(0), SiteId(3), SiteId(6)]);
    }

    #[test]
    fn lazy_source_matches_eager_system() {
        for n in 1..=60usize {
            let sys = grid_system(n);
            let lazy = GridQuorumSource::new(n);
            for s in 0..n {
                let site = SiteId(s as u32);
                let q = lazy
                    .quorum_avoiding(site, &BTreeSet::new())
                    .expect("no failures: quorum must exist");
                assert_eq!(q.as_slice(), sys.quorum_of(site), "n={n} site={s}");
            }
        }
    }

    #[test]
    fn lazy_quorums_are_allocated_at_their_exact_size() {
        let mut down = BTreeSet::new();
        for n in [1usize, 7, 12, 60, 10_000] {
            let lazy = GridQuorumSource::new(n);
            for s in (0..n).step_by(n.div_ceil(97)) {
                let q = lazy
                    .quorum_avoiding(SiteId(s as u32), &down)
                    .expect("no failures: quorum must exist");
                assert_eq!(q.capacity(), q.len(), "n={n} site={s}");
            }
        }
        // Reconstruction around a failure too.
        down.insert(SiteId(5));
        let q = GridQuorumSource::new(12)
            .quorum_avoiding(SiteId(5), &down)
            .expect("a live row and column exist");
        assert_eq!(q.capacity(), q.len());
    }

    #[test]
    fn lazy_source_reconstructs_around_failures() {
        // n=12, c=4: rows [0..4),[4..8),[8..12). Kill site 5: every quorum
        // using row 1 or column 1 must re-route.
        let lazy = GridQuorumSource::new(12);
        let down: BTreeSet<SiteId> = [SiteId(5)].into_iter().collect();
        for s in 0..12u32 {
            if s == 5 {
                continue;
            }
            let q = lazy
                .quorum_avoiding(SiteId(s), &down)
                .expect("a live row and column exist");
            assert!(!q.contains(&SiteId(5)), "site={s} picked the dead site");
        }
        // Reconstructed quorums pairwise intersect (and intersect intact
        // own-row quorums).
        let mut quorums = Vec::new();
        for s in 0..12u32 {
            if s != 5 {
                quorums.push(lazy.quorum_avoiding(SiteId(s), &down).unwrap());
            }
        }
        for a in &quorums {
            for b in &quorums {
                assert!(
                    crate::coterie::intersects(a, b),
                    "{a:?} and {b:?} are disjoint"
                );
            }
        }
    }

    #[test]
    fn lazy_source_reports_inaccessible_when_no_row_survives() {
        // n=4, c=2: rows {0,1},{2,3}. Kill 0 and 3: no live row remains.
        let lazy = GridQuorumSource::new(4);
        let down: BTreeSet<SiteId> = [SiteId(0), SiteId(3)].into_iter().collect();
        assert_eq!(lazy.quorum_avoiding(SiteId(1), &down), None);
    }
}
