//! Mobility models. The Mobility Awareness sensing module in Kalis infers
//! static vs mobile behaviour from RSSI changes; these models generate the
//! ground truth it is scored against.

use rand::Rng;

use crate::geometry::Position;

/// How a node moves over time.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum MobilityModel {
    /// The node never moves.
    Static,
    /// Constant-velocity straight-line motion (meters/second).
    Linear {
        /// X velocity in m/s.
        vx: f64,
        /// Y velocity in m/s.
        vy: f64,
    },
    /// Random waypoint inside a rectangle: pick a random target, move to
    /// it at `speed`, repeat.
    RandomWaypoint {
        /// Movement speed in m/s.
        speed: f64,
        /// Rectangle min corner.
        min: (f64, f64),
        /// Rectangle max corner.
        max: (f64, f64),
    },
}

impl MobilityModel {
    /// Whether this model ever changes position.
    pub(crate) fn is_mobile(&self) -> bool {
        !matches!(self, MobilityModel::Static)
    }
}

/// Per-node mobility state that persists across updates.
#[derive(Debug, Clone, Default)]
pub struct MobilityState {
    waypoint: Option<Position>,
}

impl MobilityState {
    /// Advance `position` by `dt_secs` under `model`, using `rng` for
    /// waypoint selection.
    pub fn step<R: Rng + ?Sized>(
        &mut self,
        model: MobilityModel,
        position: Position,
        dt_secs: f64,
        rng: &mut R,
    ) -> Position {
        match model {
            MobilityModel::Static => position,
            MobilityModel::Linear { vx, vy } => position.translate(vx, vy, dt_secs),
            MobilityModel::RandomWaypoint { speed, min, max } => {
                let target = *self.waypoint.get_or_insert_with(|| {
                    Position::new(rng.gen_range(min.0..=max.0), rng.gen_range(min.1..=max.1))
                });
                let dist = position.distance_to(target);
                let step = speed * dt_secs;
                if dist <= step || dist == 0.0 {
                    self.waypoint = None;
                    target
                } else {
                    position.lerp(target, step / dist)
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn static_never_moves() {
        let mut state = MobilityState::default();
        let mut rng = StdRng::seed_from_u64(1);
        let p = Position::new(3.0, 4.0);
        assert_eq!(state.step(MobilityModel::Static, p, 10.0, &mut rng), p);
        assert!(!MobilityModel::Static.is_mobile());
    }

    #[test]
    fn linear_moves_at_velocity() {
        let mut state = MobilityState::default();
        let mut rng = StdRng::seed_from_u64(1);
        let model = MobilityModel::Linear { vx: 1.0, vy: 2.0 };
        let p = state.step(model, Position::ORIGIN, 2.0, &mut rng);
        assert_eq!(p, Position::new(2.0, 4.0));
        assert!(model.is_mobile());
    }

    #[test]
    fn waypoint_stays_in_bounds_and_eventually_reaches_targets() {
        let model = MobilityModel::RandomWaypoint {
            speed: 2.0,
            min: (0.0, 0.0),
            max: (10.0, 10.0),
        };
        let mut state = MobilityState::default();
        let mut rng = StdRng::seed_from_u64(5);
        let mut pos = Position::new(5.0, 5.0);
        let mut moved = 0usize;
        for _ in 0..500 {
            let next = state.step(model, pos, 0.5, &mut rng);
            if next.distance_to(pos) > 0.0 {
                moved += 1;
            }
            pos = next;
            assert!((-0.001..=10.001).contains(&pos.x));
            assert!((-0.001..=10.001).contains(&pos.y));
        }
        assert!(moved > 100, "random waypoint should keep moving");
    }

    #[test]
    fn waypoint_step_never_overshoots() {
        let model = MobilityModel::RandomWaypoint {
            speed: 100.0, // huge speed: must clamp to the target
            min: (0.0, 0.0),
            max: (1.0, 1.0),
        };
        let mut state = MobilityState::default();
        let mut rng = StdRng::seed_from_u64(2);
        let pos = state.step(model, Position::new(0.5, 0.5), 1.0, &mut rng);
        assert!((0.0..=1.0).contains(&pos.x) && (0.0..=1.0).contains(&pos.y));
    }
}
