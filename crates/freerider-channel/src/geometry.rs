//! 2D deployment geometry: positions, wall segments, and geometric path
//! loss.
//!
//! The calibrated paper experiments use the 1D threshold model in
//! [`crate::pathloss::FloorPlan`] (fitted to Fig. 9's hallway); this
//! module provides the general 2D machinery for deployment-scale
//! simulation (`freerider-net`): walls are line segments with a
//! penetration loss, and a link's extra attenuation is the sum over walls
//! its line-of-sight crosses.

use crate::pathloss::PathLoss;

/// A point in the deployment plane, metres.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Point {
    /// x coordinate, metres.
    pub x: f64,
    /// y coordinate, metres.
    pub y: f64,
}

impl Point {
    /// Creates a point.
    pub const fn new(x: f64, y: f64) -> Self {
        Point { x, y }
    }

    /// Euclidean distance to another point.
    pub fn distance(&self, other: &Point) -> f64 {
        (self.x - other.x).hypot(self.y - other.y)
    }
}

/// A wall: a line segment with a penetration loss.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Wall {
    /// One endpoint.
    pub a: Point,
    /// The other endpoint.
    pub b: Point,
    /// Penetration loss in dB.
    pub loss_db: f64,
}

impl Wall {
    /// Creates a wall.
    pub fn new(a: Point, b: Point, loss_db: f64) -> Self {
        Wall { a, b, loss_db }
    }

    /// Whether the segment `p`→`q` crosses this wall.
    pub fn crosses(&self, p: Point, q: Point) -> bool {
        segments_intersect(p, q, self.a, self.b)
    }
}

/// Proper segment intersection (shared endpoints / collinear touching
/// count as crossing — a ray grazing a wall still penetrates it).
fn segments_intersect(p1: Point, p2: Point, p3: Point, p4: Point) -> bool {
    fn orient(a: Point, b: Point, c: Point) -> f64 {
        (b.x - a.x) * (c.y - a.y) - (b.y - a.y) * (c.x - a.x)
    }
    fn on_segment(a: Point, b: Point, c: Point) -> bool {
        c.x >= a.x.min(b.x) - 1e-12
            && c.x <= a.x.max(b.x) + 1e-12
            && c.y >= a.y.min(b.y) - 1e-12
            && c.y <= a.y.max(b.y) + 1e-12
    }
    let d1 = orient(p3, p4, p1);
    let d2 = orient(p3, p4, p2);
    let d3 = orient(p1, p2, p3);
    let d4 = orient(p1, p2, p4);
    if ((d1 > 0.0 && d2 < 0.0) || (d1 < 0.0 && d2 > 0.0))
        && ((d3 > 0.0 && d4 < 0.0) || (d3 < 0.0 && d4 > 0.0))
    {
        return true;
    }
    (d1.abs() < 1e-12 && on_segment(p3, p4, p1))
        || (d2.abs() < 1e-12 && on_segment(p3, p4, p2))
        || (d3.abs() < 1e-12 && on_segment(p1, p2, p3))
        || (d4.abs() < 1e-12 && on_segment(p1, p2, p4))
}

/// A 2D site: a propagation model plus walls.
#[derive(Debug, Clone, PartialEq)]
pub struct Site {
    /// The distance-dependent loss model.
    pub path_loss: PathLoss,
    /// The walls.
    pub walls: Vec<Wall>,
}

impl Site {
    /// An open site with the given propagation model.
    pub fn open(path_loss: PathLoss) -> Self {
        Site {
            path_loss,
            walls: Vec::new(),
        }
    }

    /// Adds a wall (builder style).
    pub fn with_wall(mut self, wall: Wall) -> Self {
        self.walls.push(wall);
        self
    }

    /// Total loss in dB between two points: log-distance plus every wall
    /// the direct path crosses.
    pub fn loss_db(&self, from: Point, to: Point) -> f64 {
        let d = from.distance(&to);
        let walls: f64 = self
            .walls
            .iter()
            .filter(|w| w.crosses(from, to))
            .map(|w| w.loss_db)
            .sum();
        self.path_loss.loss_db(d) + walls
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(x: f64, y: f64) -> Point {
        Point::new(x, y)
    }

    #[test]
    fn distances() {
        assert!((p(0.0, 0.0).distance(&p(3.0, 4.0)) - 5.0).abs() < 1e-12);
        assert_eq!(p(1.0, 1.0).distance(&p(1.0, 1.0)), 0.0);
    }

    #[test]
    fn crossing_detection() {
        let wall = Wall::new(p(0.0, -1.0), p(0.0, 1.0), 5.0);
        assert!(wall.crosses(p(-1.0, 0.0), p(1.0, 0.0)));
        assert!(!wall.crosses(p(-1.0, 2.0), p(1.0, 2.0)));
        assert!(!wall.crosses(p(1.0, 0.0), p(2.0, 0.0)));
        // Parallel, non-crossing.
        assert!(!wall.crosses(p(0.5, -1.0), p(0.5, 1.0)));
        // Endpoint touch counts as crossing.
        assert!(wall.crosses(p(0.0, 0.0), p(1.0, 0.0)));
    }

    #[test]
    fn site_loss_accumulates_walls() {
        let site = Site::open(PathLoss::new(35.0, 2.0))
            .with_wall(Wall::new(p(5.0, -10.0), p(5.0, 10.0), 6.0))
            .with_wall(Wall::new(p(8.0, -10.0), p(8.0, 10.0), 4.0));
        let a = p(0.0, 0.0);
        // Through no walls.
        let l0 = site.loss_db(a, p(4.0, 0.0));
        assert!((l0 - (35.0 + 20.0 * 4.0f64.log10())).abs() < 1e-9);
        // Through one wall.
        let l1 = site.loss_db(a, p(6.0, 0.0));
        assert!((l1 - (35.0 + 20.0 * 6.0f64.log10() + 6.0)).abs() < 1e-9);
        // Through both.
        let l2 = site.loss_db(a, p(9.0, 0.0));
        assert!((l2 - (35.0 + 20.0 * 9.0f64.log10() + 10.0)).abs() < 1e-9);
    }

    #[test]
    fn oblique_paths() {
        let site = Site::open(PathLoss::new(40.0, 2.0)).with_wall(Wall::new(
            p(2.0, 0.0),
            p(2.0, 3.0),
            7.0,
        ));
        let walls_db =
            |a: Point, b: Point| site.loss_db(a, b) - site.path_loss.loss_db(a.distance(&b));
        // A diagonal path over the top of the wall misses it.
        assert!(walls_db(p(0.0, 4.0), p(4.0, 5.0)).abs() < 1e-9);
        // A diagonal through it hits.
        assert!((walls_db(p(0.0, 1.0), p(4.0, 2.0)) - 7.0).abs() < 1e-9);
    }
}
