//! Scene configuration and the simulation driver.

use crate::ground_truth::{GroundTruth, GtFrame, GtInstance};
use crate::motion::MotionModel;
use crate::occlusion::{union_coverage, GlareEvent, Occluder};
use rand::rngs::StdRng;
use rand::SeedableRng;
use tm_types::{BBox, ClassId, FrameIdx, GtObjectId};

/// Camera / video parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SceneConfig {
    /// Viewport width in pixels.
    pub width: f64,
    /// Viewport height in pixels.
    pub height: f64,
    /// Number of frames to simulate.
    pub n_frames: u64,
    /// Frames per second of the notional camera (used only for reporting).
    pub fps: f64,
}

impl SceneConfig {
    /// Creates a config with the default 30 fps camera.
    pub fn new(width: f64, height: f64, n_frames: u64) -> Self {
        Self {
            width,
            height,
            n_frames,
            fps: 30.0,
        }
    }

    /// The camera viewport as a box at the origin.
    pub fn viewport(&self) -> BBox {
        BBox::new(0.0, 0.0, self.width, self.height)
    }
}

/// A ground-truth actor: one physical object with an identity, size,
/// lifetime and motion.
#[derive(Debug, Clone, PartialEq)]
pub struct ActorSpec {
    /// The actor's true identity.
    pub id: GtObjectId,
    /// Object class.
    pub class: ClassId,
    /// Box width in pixels.
    pub width: f64,
    /// Box height in pixels.
    pub height: f64,
    /// First frame the actor exists in the world.
    pub enter: FrameIdx,
    /// First frame after the actor leaves (exclusive).
    pub exit: FrameIdx,
    /// Motion of the actor's centre.
    pub motion: MotionModel,
}

impl ActorSpec {
    /// Creates an actor spec.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        id: GtObjectId,
        class: ClassId,
        width: f64,
        height: f64,
        enter: FrameIdx,
        exit: FrameIdx,
        motion: MotionModel,
    ) -> Self {
        Self {
            id,
            class,
            width,
            height,
            enter,
            exit,
            motion,
        }
    }

    /// Lifetime length in frames (clipped to the video).
    pub fn lifetime(&self, n_frames: u64) -> u64 {
        self.exit
            .get()
            .min(n_frames)
            .saturating_sub(self.enter.get())
    }
}

/// A complete scene description: camera, actors, occluders, glare, seed.
///
/// [`Scenario::simulate`] is deterministic: the same scenario (including
/// `seed`) always yields the same [`GroundTruth`].
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Camera / video parameters.
    pub config: SceneConfig,
    /// The ground-truth actors.
    pub actors: Vec<ActorSpec>,
    /// Foreground occluders.
    pub occluders: Vec<Occluder>,
    /// Lighting degradation events.
    pub glare: Vec<GlareEvent>,
    /// Master seed for all stochastic motion.
    pub seed: u64,
}

impl Scenario {
    /// Creates an empty scenario.
    pub fn new(config: SceneConfig, seed: u64) -> Self {
        Self {
            config,
            actors: Vec::new(),
            occluders: Vec::new(),
            glare: Vec::new(),
            seed,
        }
    }

    /// Adds an actor.
    pub fn push_actor(&mut self, actor: ActorSpec) -> &mut Self {
        self.actors.push(actor);
        self
    }

    /// Adds an occluder.
    pub fn push_occluder(&mut self, occluder: Occluder) -> &mut Self {
        self.occluders.push(occluder);
        self
    }

    /// Adds a glare event.
    pub fn push_glare(&mut self, glare: GlareEvent) -> &mut Self {
        self.glare.push(glare);
        self
    }

    /// Runs the world simulation, producing exact per-frame ground truth.
    ///
    /// Depth model: an object whose box bottom edge is lower on screen
    /// (larger `y2`) is closer to the camera and occludes objects behind
    /// it — the standard assumption for a street-level camera. Dedicated
    /// occluders are always foreground.
    pub fn simulate(&self) -> GroundTruth {
        let n = self.config.n_frames;
        let viewport = self.config.viewport();

        // Materialize every actor's full (unclipped) box at every frame of
        // its lifetime. Seeding: each entity derives its own RNG from the
        // master seed and its index, so adding an actor never perturbs the
        // motion of existing ones.
        let mut actor_boxes: Vec<Vec<Option<BBox>>> = Vec::with_capacity(self.actors.len());
        for (idx, a) in self.actors.iter().enumerate() {
            let mut rng = StdRng::seed_from_u64(
                self.seed
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add(a.id.get())
                    .wrapping_add(idx as u64),
            );
            let mut per_frame = vec![None; n as usize];
            let start = a.enter.get().min(n);
            let end = a.exit.get().min(n);
            if start < end {
                let centres = a.motion.positions(end - start, &mut rng);
                for (i, c) in centres.iter().enumerate() {
                    per_frame[(start + i as u64) as usize] =
                        Some(BBox::from_center(c.x, c.y, a.width, a.height));
                }
            }
            actor_boxes.push(per_frame);
        }

        // Materialize occluder boxes per frame.
        let mut occ_boxes: Vec<Vec<Option<BBox>>> = Vec::with_capacity(self.occluders.len());
        for (idx, o) in self.occluders.iter().enumerate() {
            let mut rng = StdRng::seed_from_u64(
                self.seed
                    .wrapping_mul(0xD1B5_4A32_D192_ED03)
                    .wrapping_add(idx as u64),
            );
            occ_boxes.push(o.boxes_per_frame(n, &mut rng));
        }

        let mut frames = Vec::with_capacity(n as usize);
        let mut covers: Vec<BBox> = Vec::new();
        for f in 0..n {
            let fi = f as usize;
            let frame = FrameIdx(f);
            let mut instances = Vec::new();
            for (ai, a) in self.actors.iter().enumerate() {
                let Some(full) = actor_boxes[ai][fi] else {
                    continue;
                };
                // Gather everything in front of this actor that overlaps it.
                covers.clear();
                covers.extend(occ_boxes.iter().filter_map(|per_frame| per_frame[fi]));
                for (bi, _) in self.actors.iter().enumerate() {
                    if bi == ai {
                        continue;
                    }
                    if let Some(other) = actor_boxes[bi][fi] {
                        if other.y2() > full.y2() {
                            covers.push(other);
                        }
                    }
                }
                covers.retain(|c| c.intersection_area(&full) > 0.0);
                let occluded = union_coverage(&full, &covers);

                // Truncation by the camera frame.
                let visible_bbox = full.clip_to(&viewport);
                let truncation = visible_bbox.map_or(0.0, |v| {
                    if full.area() > 0.0 {
                        v.area() / full.area()
                    } else {
                        0.0
                    }
                });

                let visibility = ((1.0 - occluded) * truncation).clamp(0.0, 1.0);
                let glare = self
                    .glare
                    .iter()
                    .map(|g| g.severity_at(frame, &full))
                    .fold(0.0f64, f64::max);

                instances.push(GtInstance {
                    actor: a.id,
                    class: a.class,
                    full_bbox: full,
                    visible_bbox,
                    visibility,
                    glare,
                });
            }
            frames.push(GtFrame { frame, instances });
        }

        GroundTruth::new(self.config, frames)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tm_types::{ids::classes, Point};

    fn walker(id: u64, y: f64, enter: u64, exit: u64) -> ActorSpec {
        ActorSpec::new(
            GtObjectId(id),
            classes::PEDESTRIAN,
            40.0,
            100.0,
            FrameIdx(enter),
            FrameIdx(exit),
            MotionModel::linear(Point::new(50.0, y), 5.0, 0.0),
        )
    }

    #[test]
    fn simulate_is_deterministic() {
        let mut s = Scenario::new(SceneConfig::new(1000.0, 800.0, 50), 9);
        s.push_actor(ActorSpec::new(
            GtObjectId(0),
            classes::PEDESTRIAN,
            30.0,
            80.0,
            FrameIdx(0),
            FrameIdx(50),
            MotionModel::RandomWalk {
                start: Point::new(100.0, 400.0),
                drift_x: 2.0,
                drift_y: 0.0,
                sigma: 1.0,
            },
        ));
        assert_eq!(s.simulate(), s.simulate());
    }

    #[test]
    fn actor_lifetime_is_respected() {
        let mut s = Scenario::new(SceneConfig::new(1000.0, 800.0, 20), 0);
        s.push_actor(walker(1, 400.0, 5, 15));
        let gt = s.simulate();
        assert!(gt.frames()[4].instances.is_empty());
        assert_eq!(gt.frames()[5].instances.len(), 1);
        assert_eq!(gt.frames()[14].instances.len(), 1);
        assert!(gt.frames()[15].instances.is_empty());
    }

    #[test]
    fn static_occluder_reduces_visibility() {
        let mut s = Scenario::new(SceneConfig::new(1000.0, 800.0, 60), 0);
        s.push_actor(walker(1, 400.0, 0, 60));
        // A pillar fully covering the actor's path around x=200.
        s.push_occluder(Occluder::static_box(BBox::new(160.0, 300.0, 120.0, 250.0)));
        let gt = s.simulate();
        // At frame 0 the actor (centre x=50) is clear of the pillar.
        assert!(gt.frames()[0].instances[0].visibility > 0.9);
        // Around frame 30 (centre x=200) it is fully behind the pillar.
        let vis_mid = gt.frames()[30].instances[0].visibility;
        assert!(vis_mid < 0.1, "visibility behind pillar was {vis_mid}");
        // It re-emerges later.
        assert!(gt.frames()[59].instances[0].visibility > 0.9);
    }

    #[test]
    fn nearer_actor_occludes_farther_one() {
        let mut s = Scenario::new(SceneConfig::new(1000.0, 800.0, 10), 0);
        // Far actor (smaller bottom y).
        s.push_actor(ActorSpec::new(
            GtObjectId(1),
            classes::PEDESTRIAN,
            40.0,
            100.0,
            FrameIdx(0),
            FrameIdx(10),
            MotionModel::parked(Point::new(500.0, 300.0)),
        ));
        // Near actor directly in front (same centre, larger bottom y).
        s.push_actor(ActorSpec::new(
            GtObjectId(2),
            classes::PEDESTRIAN,
            60.0,
            140.0,
            FrameIdx(0),
            FrameIdx(10),
            MotionModel::parked(Point::new(500.0, 330.0)),
        ));
        let gt = s.simulate();
        let inst = &gt.frames()[0].instances;
        let far = inst.iter().find(|i| i.actor == GtObjectId(1)).unwrap();
        let near = inst.iter().find(|i| i.actor == GtObjectId(2)).unwrap();
        assert!(
            far.visibility < 0.35,
            "far actor visibility {}",
            far.visibility
        );
        assert!(
            near.visibility > 0.9,
            "near actor visibility {}",
            near.visibility
        );
    }

    #[test]
    fn truncation_at_frame_edge() {
        let mut s = Scenario::new(SceneConfig::new(1000.0, 800.0, 3), 0);
        // Actor centred on the left edge: half the box is out of frame.
        s.push_actor(ActorSpec::new(
            GtObjectId(1),
            classes::PEDESTRIAN,
            40.0,
            100.0,
            FrameIdx(0),
            FrameIdx(3),
            MotionModel::parked(Point::new(0.0, 400.0)),
        ));
        let gt = s.simulate();
        let i = &gt.frames()[0].instances[0];
        assert!((i.visibility - 0.5).abs() < 1e-9);
        assert!(i.visible_bbox.is_some());
    }

    #[test]
    fn actor_fully_out_of_frame_has_zero_visibility() {
        let mut s = Scenario::new(SceneConfig::new(1000.0, 800.0, 3), 0);
        s.push_actor(ActorSpec::new(
            GtObjectId(1),
            classes::PEDESTRIAN,
            40.0,
            100.0,
            FrameIdx(0),
            FrameIdx(3),
            MotionModel::parked(Point::new(-500.0, 400.0)),
        ));
        let gt = s.simulate();
        let i = &gt.frames()[0].instances[0];
        assert_eq!(i.visibility, 0.0);
        assert!(i.visible_bbox.is_none());
    }

    #[test]
    fn glare_is_recorded_on_instances() {
        let mut s = Scenario::new(SceneConfig::new(1000.0, 800.0, 10), 0);
        s.push_actor(ActorSpec::new(
            GtObjectId(1),
            classes::PEDESTRIAN,
            40.0,
            100.0,
            FrameIdx(0),
            FrameIdx(10),
            MotionModel::parked(Point::new(500.0, 400.0)),
        ));
        s.push_glare(GlareEvent::new(
            BBox::new(0.0, 0.0, 1000.0, 800.0),
            FrameIdx(3),
            FrameIdx(6),
            0.7,
        ));
        let gt = s.simulate();
        assert_eq!(gt.frames()[2].instances[0].glare, 0.0);
        assert!((gt.frames()[3].instances[0].glare - 0.7).abs() < 1e-12);
        assert_eq!(gt.frames()[6].instances[0].glare, 0.0);
    }

    #[test]
    fn adding_an_actor_does_not_perturb_existing_motion() {
        let mk = |extra: bool| {
            let mut s = Scenario::new(SceneConfig::new(1000.0, 800.0, 30), 5);
            s.push_actor(ActorSpec::new(
                GtObjectId(0),
                classes::PEDESTRIAN,
                30.0,
                80.0,
                FrameIdx(0),
                FrameIdx(30),
                MotionModel::RandomWalk {
                    start: Point::new(100.0, 700.0),
                    drift_x: 1.0,
                    drift_y: 0.0,
                    sigma: 2.0,
                },
            ));
            if extra {
                s.push_actor(walker(1, 100.0, 0, 30));
            }
            s.simulate()
        };
        let base = mk(false);
        let extended = mk(true);
        for f in 0..30 {
            let a = base.frames()[f]
                .instances
                .iter()
                .find(|i| i.actor == GtObjectId(0))
                .unwrap();
            let b = extended.frames()[f]
                .instances
                .iter()
                .find(|i| i.actor == GtObjectId(0))
                .unwrap();
            assert_eq!(a.full_bbox, b.full_bbox, "frame {f}");
        }
    }
}
