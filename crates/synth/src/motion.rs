//! Motion models for simulated actors and moving occluders.
//!
//! A [`MotionModel`] maps a local frame counter `0..n` to a sequence of
//! centre positions. Models that have a stochastic component (random walk,
//! stop-and-go) draw from the RNG passed to [`MotionModel::positions`], so
//! the world is fully determined by the scenario seed.

use rand::Rng;
use rand_distr::{Distribution, Normal};
use tm_types::Point;

/// How an actor's centre moves over its lifetime.
#[derive(Debug, Clone, PartialEq)]
pub enum MotionModel {
    /// Constant-velocity straight-line motion — highway cars, purposeful
    /// pedestrians.
    Linear {
        /// Centre position at local frame 0.
        start: Point,
        /// Per-frame displacement in x.
        vx: f64,
        /// Per-frame displacement in y.
        vy: f64,
    },
    /// Piecewise-linear motion through a list of waypoints at constant
    /// speed — pedestrians crossing a plaza, vehicles turning.
    Waypoints {
        /// Waypoints visited in order; must contain at least one point.
        points: Vec<Point>,
        /// Distance covered per frame along the polyline.
        speed: f64,
    },
    /// Gaussian random walk around a drift line — loitering pedestrians.
    RandomWalk {
        /// Centre position at local frame 0.
        start: Point,
        /// Per-frame drift in x.
        drift_x: f64,
        /// Per-frame drift in y.
        drift_y: f64,
        /// Standard deviation of the per-frame Gaussian jitter.
        sigma: f64,
    },
    /// Constant-velocity motion interrupted by periodic stops — vehicles
    /// at traffic lights, pedestrians pausing at shop windows.
    StopAndGo {
        /// Centre position at local frame 0.
        start: Point,
        /// Per-frame displacement in x while moving.
        vx: f64,
        /// Per-frame displacement in y while moving.
        vy: f64,
        /// Move for this many frames...
        go_frames: u64,
        /// ...then stand still for this many frames, repeating.
        stop_frames: u64,
    },
    /// No motion at all — parked cars, fixed installations.
    Parked {
        /// The fixed centre position.
        at: Point,
    },
}

impl MotionModel {
    /// Convenience constructor for [`MotionModel::Linear`].
    pub fn linear(start: Point, vx: f64, vy: f64) -> Self {
        MotionModel::Linear { start, vx, vy }
    }

    /// Convenience constructor for [`MotionModel::Parked`].
    pub fn parked(at: Point) -> Self {
        MotionModel::Parked { at }
    }

    /// The centre position at each of `n` local frames.
    ///
    /// Stochastic models consume randomness from `rng`; deterministic
    /// models ignore it. Always returns exactly `n` points.
    pub fn positions<R: Rng + ?Sized>(&self, n: u64, rng: &mut R) -> Vec<Point> {
        let n = n as usize;
        match self {
            MotionModel::Linear { start, vx, vy } => (0..n)
                .map(|i| start.offset(*vx * i as f64, *vy * i as f64))
                .collect(),
            MotionModel::Parked { at } => vec![*at; n],
            MotionModel::Waypoints { points, speed } => waypoint_positions(points, *speed, n),
            MotionModel::RandomWalk {
                start,
                drift_x,
                drift_y,
                sigma,
            } => {
                let normal = Normal::new(0.0, sigma.max(0.0)).expect("sigma is finite");
                let mut pos = *start;
                let mut out = Vec::with_capacity(n);
                for _ in 0..n {
                    out.push(pos);
                    pos = pos.offset(drift_x + normal.sample(rng), drift_y + normal.sample(rng));
                }
                out
            }
            MotionModel::StopAndGo {
                start,
                vx,
                vy,
                go_frames,
                stop_frames,
            } => {
                let cycle = (go_frames + stop_frames).max(1);
                let mut pos = *start;
                let mut out = Vec::with_capacity(n);
                for i in 0..n as u64 {
                    out.push(pos);
                    if i % cycle < *go_frames {
                        pos = pos.offset(*vx, *vy);
                    }
                }
                out
            }
        }
    }
}

/// Walks the waypoint polyline at constant speed, clamping at the final
/// waypoint once the path is exhausted.
fn waypoint_positions(points: &[Point], speed: f64, n: usize) -> Vec<Point> {
    match points {
        [] => vec![Point::default(); n],
        [only] => vec![*only; n],
        _ => {
            let mut out = Vec::with_capacity(n);
            let mut seg = 0usize; // current segment start index
            let mut along = 0.0; // distance travelled inside current segment
            for _ in 0..n {
                // Advance past zero-length / exhausted segments.
                while seg + 1 < points.len() {
                    let seg_len = points[seg].distance(&points[seg + 1]);
                    if along < seg_len || seg_len == 0.0 && along <= 0.0 {
                        break;
                    }
                    along -= seg_len;
                    seg += 1;
                }
                if seg + 1 >= points.len() {
                    out.push(*points.last().expect("non-empty"));
                } else {
                    let seg_len = points[seg].distance(&points[seg + 1]);
                    let t = if seg_len > 0.0 { along / seg_len } else { 0.0 };
                    out.push(points[seg].lerp(&points[seg + 1], t));
                    along += speed.max(0.0);
                }
            }
            out
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(7)
    }

    #[test]
    fn linear_advances_by_velocity() {
        let m = MotionModel::linear(Point::new(0.0, 10.0), 2.0, -1.0);
        let p = m.positions(3, &mut rng());
        assert_eq!(
            p,
            vec![
                Point::new(0.0, 10.0),
                Point::new(2.0, 9.0),
                Point::new(4.0, 8.0),
            ]
        );
    }

    #[test]
    fn parked_never_moves() {
        let m = MotionModel::parked(Point::new(5.0, 5.0));
        let p = m.positions(4, &mut rng());
        assert!(p.iter().all(|&q| q == Point::new(5.0, 5.0)));
        assert_eq!(p.len(), 4);
    }

    #[test]
    fn waypoints_interpolate_and_clamp() {
        let m = MotionModel::Waypoints {
            points: vec![Point::new(0.0, 0.0), Point::new(10.0, 0.0)],
            speed: 4.0,
        };
        let p = m.positions(6, &mut rng());
        assert_eq!(p[0], Point::new(0.0, 0.0));
        assert_eq!(p[1], Point::new(4.0, 0.0));
        assert_eq!(p[2], Point::new(8.0, 0.0));
        // Past the end: clamp at the final waypoint.
        assert_eq!(p[3], Point::new(10.0, 0.0));
        assert_eq!(p[5], Point::new(10.0, 0.0));
    }

    #[test]
    fn waypoints_cross_segment_boundaries() {
        let m = MotionModel::Waypoints {
            points: vec![
                Point::new(0.0, 0.0),
                Point::new(3.0, 0.0),
                Point::new(3.0, 10.0),
            ],
            speed: 2.0,
        };
        let p = m.positions(4, &mut rng());
        assert_eq!(p[2], Point::new(3.0, 1.0)); // 4 along: 3 on seg 0, 1 on seg 1
        assert_eq!(p[3], Point::new(3.0, 3.0));
    }

    #[test]
    fn empty_and_single_waypoints_are_safe() {
        let empty = MotionModel::Waypoints {
            points: vec![],
            speed: 1.0,
        };
        assert_eq!(empty.positions(2, &mut rng()).len(), 2);
        let single = MotionModel::Waypoints {
            points: vec![Point::new(1.0, 2.0)],
            speed: 1.0,
        };
        assert!(single
            .positions(3, &mut rng())
            .iter()
            .all(|&q| q == Point::new(1.0, 2.0)));
    }

    #[test]
    fn random_walk_is_seed_deterministic() {
        let m = MotionModel::RandomWalk {
            start: Point::new(0.0, 0.0),
            drift_x: 1.0,
            drift_y: 0.0,
            sigma: 2.0,
        };
        let a = m.positions(50, &mut StdRng::seed_from_u64(3));
        let b = m.positions(50, &mut StdRng::seed_from_u64(3));
        assert_eq!(a, b);
        // Drift dominates in expectation.
        assert!(a.last().unwrap().x > 10.0);
    }

    #[test]
    fn random_walk_zero_sigma_is_linear() {
        let m = MotionModel::RandomWalk {
            start: Point::new(0.0, 0.0),
            drift_x: 1.5,
            drift_y: 0.5,
            sigma: 0.0,
        };
        let p = m.positions(3, &mut rng());
        assert_eq!(p[2], Point::new(3.0, 1.0));
    }

    #[test]
    fn stop_and_go_pauses() {
        let m = MotionModel::StopAndGo {
            start: Point::new(0.0, 0.0),
            vx: 1.0,
            vy: 0.0,
            go_frames: 2,
            stop_frames: 2,
        };
        let p = m.positions(7, &mut rng());
        let xs: Vec<f64> = p.iter().map(|q| q.x).collect();
        assert_eq!(xs, vec![0.0, 1.0, 2.0, 2.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn positions_length_always_matches() {
        for m in [
            MotionModel::linear(Point::default(), 1.0, 1.0),
            MotionModel::parked(Point::default()),
            MotionModel::Waypoints {
                points: vec![Point::default()],
                speed: 1.0,
            },
        ] {
            assert_eq!(m.positions(0, &mut rng()).len(), 0);
            assert_eq!(m.positions(17, &mut rng()).len(), 17);
        }
    }
}
