//! 2-D geometry in metres.

use std::ops::{Add, Mul, Sub};

/// A position (or displacement) in metres on a flat 2-D plane.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Position {
    /// East coordinate in metres.
    pub x: f64,
    /// North coordinate in metres.
    pub y: f64,
}

impl Position {
    /// The origin.
    pub const ORIGIN: Position = Position { x: 0.0, y: 0.0 };

    /// Construct from coordinates.
    pub const fn new(x: f64, y: f64) -> Position {
        Position { x, y }
    }

    /// Euclidean distance to another position.
    pub fn distance_to(&self, other: Position) -> f64 {
        self.distance_sq_to(other).sqrt()
    }

    /// Squared Euclidean distance to another position. Range checks and
    /// the flat region of the loss model compare against squared bounds,
    /// skipping the `sqrt` on the per-frame hot path.
    pub fn distance_sq_to(&self, other: Position) -> f64 {
        (self.x - other.x).powi(2) + (self.y - other.y).powi(2)
    }

    /// Vector length.
    pub fn norm(&self) -> f64 {
        (self.x * self.x + self.y * self.y).sqrt()
    }

    /// Unit vector in this direction (origin maps to origin).
    pub fn normalised(&self) -> Position {
        let n = self.norm();
        if n == 0.0 {
            Position::ORIGIN
        } else {
            Position::new(self.x / n, self.y / n)
        }
    }

    /// Dot product.
    pub fn dot(&self, other: Position) -> f64 {
        self.x * other.x + self.y * other.y
    }
}

impl Add for Position {
    type Output = Position;
    fn add(self, rhs: Position) -> Position {
        Position::new(self.x + rhs.x, self.y + rhs.y)
    }
}

impl Sub for Position {
    type Output = Position;
    fn sub(self, rhs: Position) -> Position {
        Position::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl Mul<f64> for Position {
    type Output = Position;
    fn mul(self, k: f64) -> Position {
        Position::new(self.x * k, self.y * k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spider_simcore::check::check;

    #[test]
    fn distances() {
        let a = Position::new(0.0, 0.0);
        let b = Position::new(3.0, 4.0);
        assert_eq!(a.distance_to(b), 5.0);
        assert_eq!(b.distance_to(a), 5.0);
        assert_eq!(a.distance_to(a), 0.0);
    }

    #[test]
    fn vector_ops() {
        let v = Position::new(3.0, 4.0);
        assert_eq!(v.norm(), 5.0);
        let u = v.normalised();
        assert!((u.norm() - 1.0).abs() < 1e-12);
        assert_eq!(Position::ORIGIN.normalised(), Position::ORIGIN);
        assert_eq!(v.dot(Position::new(1.0, 0.0)), 3.0);
        assert_eq!((v + v) * 0.5, v);
        assert_eq!(v - v, Position::ORIGIN);
    }

    #[test]
    fn triangle() {
        check("triangle", 256, |g| {
            let mut point = || Position::new(g.f64(-1e3..1e3), g.f64(-1e3..1e3));
            let (a, b, c) = (point(), point(), point());
            assert!(
                a.distance_to(c) <= a.distance_to(b) + b.distance_to(c) + 1e-9,
                "{a:?} {b:?} {c:?}"
            );
        });
    }
}
