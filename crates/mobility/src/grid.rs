//! Uniform spatial grid over a [`Deployment`].
//!
//! The world's hot loop asks one question thousands of times per
//! simulated second: *which APs are near the client right now?* A
//! linear scan answers it in O(all sites); for the dense multi-cell
//! deployments the roadmap targets (≥1,000 sites) that scan dominates
//! wall-clock time. [`SpatialGrid`] buckets sites into square cells of
//! side `cell_m` so a radius query only visits the handful of cells
//! overlapping the query disk.
//!
//! Determinism contract: [`SpatialGrid::within`] returns site ids in
//! ascending id order — exactly the order a linear scan over
//! `deployment.sites` would visit them — so replacing a scan with a
//! grid query never perturbs the sequence of RNG draws made while
//! iterating the result.

use crate::deployment::Deployment;
use crate::geometry::Position;
use spider_simcore::FxHashMap;

/// A uniform grid index over AP sites.
///
/// Build one with [`Deployment::grid`]; query with [`SpatialGrid::within`].
/// The grid borrows nothing: it stores `(id, position)` pairs, so it
/// stays valid for the lifetime of the world that captured the
/// deployment's site data at construction.
#[derive(Debug, Clone)]
pub struct SpatialGrid {
    cell_m: f64,
    /// Sites bucketed by integer cell coordinate; each bucket is sorted
    /// by site id.
    cells: FxHashMap<(i64, i64), Vec<(usize, Position)>>,
    len: usize,
}

impl SpatialGrid {
    /// Build a grid with the given cell side length (metres) over a set
    /// of `(id, position)` sites.
    pub fn build(sites: impl IntoIterator<Item = (usize, Position)>, cell_m: f64) -> SpatialGrid {
        assert!(
            cell_m.is_finite() && cell_m > 0.0,
            "grid cell size must be positive, got {cell_m}"
        );
        let mut cells: FxHashMap<(i64, i64), Vec<(usize, Position)>> = FxHashMap::default();
        let mut len = 0;
        for (id, pos) in sites {
            cells
                .entry(Self::cell_of(pos, cell_m))
                .or_default()
                .push((id, pos));
            len += 1;
        }
        #[allow(
            clippy::iter_over_hash_type,
            reason = "sorts each bucket in place; no bucket sees another"
        )]
        for bucket in cells.values_mut() {
            bucket.sort_by_key(|&(id, _)| id);
        }
        SpatialGrid { cell_m, cells, len }
    }

    fn cell_of(pos: Position, cell_m: f64) -> (i64, i64) {
        (
            (pos.x / cell_m).floor() as i64,
            (pos.y / cell_m).floor() as i64,
        )
    }

    /// The cell side length in metres.
    pub fn cell_m(&self) -> f64 {
        self.cell_m
    }

    /// Number of indexed sites.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the grid holds no sites.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Collect the ids of every site within `radius_m` of `pos` into
    /// `out` (cleared first), in ascending id order.
    ///
    /// The distance test is inclusive (`d <= radius_m`), matching the
    /// linear scans this replaces.
    pub fn within_into(&self, pos: Position, radius_m: f64, out: &mut Vec<usize>) {
        out.clear();
        // NaN radii fall into the same arm as negative ones.
        if self.len == 0 || radius_m < 0.0 || radius_m.is_nan() {
            return;
        }
        let lo = Self::cell_of(
            Position::new(pos.x - radius_m, pos.y - radius_m),
            self.cell_m,
        );
        let hi = Self::cell_of(
            Position::new(pos.x + radius_m, pos.y + radius_m),
            self.cell_m,
        );
        for cx in lo.0..=hi.0 {
            for cy in lo.1..=hi.1 {
                if let Some(bucket) = self.cells.get(&(cx, cy)) {
                    for &(id, p) in bucket {
                        if pos.distance_to(p) <= radius_m {
                            out.push(id);
                        }
                    }
                }
            }
        }
        // Cells are visited in row-major order, so ids arrive grouped by
        // cell, not globally sorted; restore the linear-scan order.
        out.sort_unstable();
    }

    /// Ids of every site within `radius_m` of `pos`, ascending.
    pub fn within(&self, pos: Position, radius_m: f64) -> Vec<usize> {
        let mut out = Vec::new();
        self.within_into(pos, radius_m, &mut out);
        out
    }
}

impl Deployment {
    /// Build a [`SpatialGrid`] over this deployment's sites with cell
    /// side `cell_m`. A cell size near the query radius (the radio
    /// horizon) keeps queries to at most a 3×3 cell neighbourhood.
    pub fn grid(&self, cell_m: f64) -> SpatialGrid {
        SpatialGrid::build(self.sites.iter().map(|s| (s.id, s.position)), cell_m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deployment::RoadsideParams;
    use spider_simcore::check::check;

    /// Reference implementation: the linear scan the grid replaces.
    fn linear_within(dep: &Deployment, pos: Position, radius_m: f64) -> Vec<usize> {
        dep.sites
            .iter()
            .filter(|s| pos.distance_to(s.position) <= radius_m)
            .map(|s| s.id)
            .collect()
    }

    #[test]
    fn empty_grid_answers_empty() {
        let grid = SpatialGrid::build(std::iter::empty(), 100.0);
        assert!(grid.is_empty());
        assert!(grid.within(Position::ORIGIN, 1_000.0).is_empty());
    }

    #[test]
    fn boundary_distance_is_inclusive() {
        let grid = SpatialGrid::build([(0, Position::new(100.0, 0.0))], 50.0);
        assert_eq!(grid.within(Position::ORIGIN, 100.0), vec![0]);
        assert!(grid.within(Position::ORIGIN, 99.999).is_empty());
    }

    #[test]
    fn negative_coordinates_bucket_correctly() {
        // A site just left of the origin must land in cell (-1, -1),
        // not be truncated into cell (0, 0).
        let grid = SpatialGrid::build([(0, Position::new(-1.0, -1.0))], 100.0);
        assert_eq!(grid.within(Position::ORIGIN, 5.0), vec![0]);
        assert_eq!(grid.within(Position::new(-150.0, -150.0), 250.0), vec![0]);
    }

    #[test]
    fn results_are_in_ascending_id_order() {
        // Sites scattered so they land in different cells in an order
        // unrelated to id.
        let sites = vec![
            (3, Position::new(90.0, 0.0)),
            (0, Position::new(-90.0, 0.0)),
            (2, Position::new(0.0, 90.0)),
            (1, Position::new(0.0, -90.0)),
        ];
        let grid = SpatialGrid::build(sites, 60.0);
        assert_eq!(grid.within(Position::ORIGIN, 100.0), vec![0, 1, 2, 3]);
    }

    /// On random roadside deployments and random query points, the grid
    /// agrees exactly (membership and order) with the linear scan,
    /// across cell sizes smaller and larger than the query radius.
    #[test]
    fn grid_query_equals_linear_scan_on_random_deployments() {
        check(
            "grid_query_equals_linear_scan_on_random_deployments",
            20,
            |g| {
                let params = RoadsideParams {
                    road_length_m: 4_000.0,
                    density_per_km: 40.0,
                    ..Default::default()
                };
                let dep = Deployment::poisson_roadside(g.rng(), &params);
                for &cell_m in &[35.0, 130.0, 700.0] {
                    let grid = dep.grid(cell_m);
                    assert_eq!(grid.len(), dep.len());
                    for q in 0..40 {
                        let pos = Position::new(g.f64(-200.0..4_200.0), g.f64(-100.0..100.0));
                        let radius = g.f64(0.0..400.0);
                        assert_eq!(
                            grid.within(pos, radius),
                            linear_within(&dep, pos, radius),
                            "cell {cell_m} query {q}"
                        );
                    }
                }
            },
        );
    }
}
