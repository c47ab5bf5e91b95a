//! Planar geometry for node placement and radio range computation.

/// A position on the simulation plane, in meters.
///
/// # Examples
///
/// ```
/// use kalis_netsim::geometry::Position;
///
/// let a = Position::new(0.0, 0.0);
/// let b = Position::new(3.0, 4.0);
/// assert_eq!(a.distance_to(b), 5.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Position {
    /// X coordinate in meters.
    pub x: f64,
    /// Y coordinate in meters.
    pub y: f64,
}

impl Position {
    /// The origin.
    pub(crate) const ORIGIN: Position = Position { x: 0.0, y: 0.0 };

    /// Build a position.
    pub fn new(x: f64, y: f64) -> Self {
        Position { x, y }
    }

    /// Euclidean distance to `other`, in meters.
    pub fn distance_to(self, other: Position) -> f64 {
        ((self.x - other.x).powi(2) + (self.y - other.y).powi(2)).sqrt()
    }

    /// Move `fraction` (0..=1) of the way towards `target`.
    pub(crate) fn lerp(self, target: Position, fraction: f64) -> Position {
        Position {
            x: self.x + (target.x - self.x) * fraction,
            y: self.y + (target.y - self.y) * fraction,
        }
    }

    /// Translate by a velocity applied for `dt_secs`.
    pub(crate) fn translate(self, vx: f64, vy: f64, dt_secs: f64) -> Position {
        Position {
            x: self.x + vx * dt_secs,
            y: self.y + vy * dt_secs,
        }
    }
}

impl core::fmt::Display for Position {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "({:.1}, {:.1})", self.x, self.y)
    }
}

impl From<(f64, f64)> for Position {
    fn from((x, y): (f64, f64)) -> Self {
        Position::new(x, y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distance_is_symmetric() {
        let a = Position::new(1.0, 2.0);
        let b = Position::new(-3.0, 7.5);
        assert!((a.distance_to(b) - b.distance_to(a)).abs() < 1e-12);
    }

    #[test]
    fn distance_to_self_is_zero() {
        let a = Position::new(5.0, -5.0);
        assert_eq!(a.distance_to(a), 0.0);
    }

    #[test]
    fn lerp_endpoints() {
        let a = Position::new(0.0, 0.0);
        let b = Position::new(10.0, 20.0);
        assert_eq!(a.lerp(b, 0.0), a);
        assert_eq!(a.lerp(b, 1.0), b);
        let mid = a.lerp(b, 0.5);
        assert_eq!(mid, Position::new(5.0, 10.0));
    }

    #[test]
    fn translate_applies_velocity() {
        let a = Position::ORIGIN.translate(1.0, -2.0, 3.0);
        assert_eq!(a, Position::new(3.0, -6.0));
    }
}
