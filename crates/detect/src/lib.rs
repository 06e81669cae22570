//! # tm-detect
//!
//! A detection simulator that turns exact [`tm_synth::GroundTruth`] into the
//! noisy per-frame [`Detection`] streams a CNN detector would produce.
//!
//! The failure modes that matter for the paper are reproduced explicitly:
//!
//! * **Occlusion-driven miss streaks** — detection probability collapses
//!   once visibility drops below a threshold, so an actor passing behind an
//!   occluder goes undetected for a contiguous run of frames. When that run
//!   exceeds a tracker's patience (`max_age`), the track is terminated and
//!   the actor re-appears under a new TID: the paper's *track
//!   fragmentation*.
//! * **Glare-driven misses** — inside a glare event, detection probability
//!   drops further, producing the "object glaze" fragmentation cause the
//!   paper describes.
//! * **Localization noise** — detected boxes jitter around the true visible
//!   box in position and size.
//! * **False positives** — spurious boxes appear at a configurable rate.
//!
//! Everything is seeded and deterministic.
//!
//! ```
//! use tm_detect::{Detector, DetectorConfig};
//! use tm_synth::{Scenario, SceneConfig, ActorSpec, MotionModel};
//! use tm_types::{ids::classes, FrameIdx, GtObjectId, Point};
//!
//! let mut scenario = Scenario::new(SceneConfig::new(1000.0, 800.0, 60), 7);
//! scenario.push_actor(ActorSpec::new(
//!     GtObjectId(0), classes::PEDESTRIAN, 40.0, 100.0,
//!     FrameIdx(0), FrameIdx(60),
//!     MotionModel::linear(Point::new(100.0, 400.0), 4.0, 0.0),
//! ));
//! let gt = scenario.simulate();
//! let dets = Detector::new(DetectorConfig::default()).detect(&gt, 99);
//! assert_eq!(dets.len(), 60);
//! ```

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use rand_distr::{Distribution, Normal};
use tm_synth::GroundTruth;
use tm_types::{BBox, Detection, FrameIdx, Result, TmError};

/// Tunable error characteristics of the simulated detector.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DetectorConfig {
    /// Detection probability for a fully visible, glare-free object.
    pub detect_prob: f64,
    /// Visibility below which the object is essentially undetectable.
    pub min_visibility: f64,
    /// Visibility above which detection probability reaches `detect_prob`;
    /// probability ramps linearly between `min_visibility` and this value.
    pub full_visibility: f64,
    /// Multiplier applied to the detection probability under full glare
    /// (interpolated linearly in glare severity). `0.1` means a fully
    /// glared object is detected at 10% of its normal probability.
    pub glare_detect_factor: f64,
    /// Std-dev of centre jitter, as a fraction of box size (per axis).
    pub pos_jitter: f64,
    /// Std-dev of width/height jitter, as a fraction of box size.
    pub size_jitter: f64,
    /// Expected number of false-positive boxes per frame.
    pub fp_rate: f64,
    /// Std-dev of the confidence noise around the visibility-driven mean.
    pub conf_noise: f64,
}

impl Default for DetectorConfig {
    /// A good modern detector: high recall on visible objects, quick decay
    /// under occlusion — calibrated so trackers fragment at realistic rates.
    fn default() -> Self {
        Self {
            detect_prob: 0.98,
            min_visibility: 0.25,
            full_visibility: 0.6,
            glare_detect_factor: 0.08,
            pos_jitter: 0.03,
            size_jitter: 0.04,
            fp_rate: 0.03,
            conf_noise: 0.05,
        }
    }
}

impl DetectorConfig {
    /// Validates the configuration domain.
    pub fn validate(&self) -> Result<()> {
        if !(0.0..=1.0).contains(&self.detect_prob) {
            return Err(TmError::invalid("detect_prob", "must be in [0,1]"));
        }
        if self.min_visibility > self.full_visibility {
            return Err(TmError::invalid(
                "min_visibility",
                "must not exceed full_visibility",
            ));
        }
        if self.fp_rate < 0.0 {
            return Err(TmError::invalid("fp_rate", "must be non-negative"));
        }
        Ok(())
    }

    /// Detection probability for an object with the given visibility and
    /// glare severity.
    pub fn detection_probability(&self, visibility: f64, glare: f64) -> f64 {
        let ramp = if visibility <= self.min_visibility {
            0.0
        } else if visibility >= self.full_visibility {
            1.0
        } else {
            (visibility - self.min_visibility) / (self.full_visibility - self.min_visibility)
        };
        let glare_factor = 1.0 + (self.glare_detect_factor - 1.0) * glare.clamp(0.0, 1.0);
        (self.detect_prob * ramp * glare_factor).clamp(0.0, 1.0)
    }
}

/// The detection simulator.
#[derive(Debug, Clone)]
pub struct Detector {
    config: DetectorConfig,
}

impl Detector {
    /// Creates a detector with the given error characteristics.
    pub fn new(config: DetectorConfig) -> Self {
        Self { config }
    }

    /// The detector's configuration.
    pub fn config(&self) -> &DetectorConfig {
        &self.config
    }

    /// Runs detection over a full ground-truth video, returning one
    /// detection list per frame. Deterministic in `(ground truth, seed)`.
    pub fn detect(&self, gt: &GroundTruth, seed: u64) -> Vec<Vec<Detection>> {
        let mut rng = StdRng::seed_from_u64(seed);
        let viewport = gt.config().viewport();
        let pos_noise = Normal::new(0.0, 1.0).expect("unit normal");
        gt.frames()
            .iter()
            .map(|frame| {
                let mut dets = Vec::new();
                for inst in &frame.instances {
                    let Some(vb) = inst.visible_bbox else {
                        continue;
                    };
                    let p = self
                        .config
                        .detection_probability(inst.visibility, inst.glare);
                    if !rng.random_bool(p) {
                        continue;
                    }
                    // Jitter the visible box.
                    let jw = vb.w * self.config.size_jitter * pos_noise.sample(&mut rng);
                    let jh = vb.h * self.config.size_jitter * pos_noise.sample(&mut rng);
                    let jx = vb.w * self.config.pos_jitter * pos_noise.sample(&mut rng);
                    let jy = vb.h * self.config.pos_jitter * pos_noise.sample(&mut rng);
                    let c = vb.center();
                    let noisy = BBox::from_center(
                        c.x + jx,
                        c.y + jy,
                        (vb.w + jw).max(1.0),
                        (vb.h + jh).max(1.0),
                    );
                    let Some(clipped) = noisy.clip_to(&viewport) else {
                        continue;
                    };
                    let conf_mean = 0.55 + 0.45 * inst.visibility - 0.25 * inst.glare;
                    let conf = conf_mean + self.config.conf_noise * pos_noise.sample(&mut rng);
                    dets.push(Detection::of_actor(
                        frame.frame,
                        clipped,
                        conf,
                        inst.class,
                        inst.visibility,
                        inst.actor,
                    ));
                }
                self.add_false_positives(frame.frame, &viewport, &mut dets, &mut rng);
                dets
            })
            .collect()
    }

    /// Appends Poisson-ish false positives (Bernoulli splitting of the rate
    /// into two trials keeps the tail short while matching the mean).
    fn add_false_positives(
        &self,
        frame: FrameIdx,
        viewport: &BBox,
        dets: &mut Vec<Detection>,
        rng: &mut StdRng,
    ) {
        let mut remaining = self.config.fp_rate;
        while remaining > 0.0 {
            let p = remaining.min(1.0);
            remaining -= p;
            if !rng.random_bool(p) {
                continue;
            }
            let w = rng.random_range(20.0..80.0);
            let h = rng.random_range(40.0..160.0);
            let x = rng.random_range(0.0..(viewport.w - w).max(1.0));
            let y = rng.random_range(0.0..(viewport.h - h).max(1.0));
            let conf = rng.random_range(0.3..0.6);
            dets.push(Detection::false_positive(
                frame,
                BBox::new(x, y, w, h),
                conf,
                tm_types::ids::classes::PEDESTRIAN,
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tm_synth::{ActorSpec, MotionModel, Occluder, Scenario, SceneConfig};
    use tm_types::{ids::classes, GtObjectId, Point};

    fn simple_gt(n_frames: u64) -> GroundTruth {
        let mut s = Scenario::new(SceneConfig::new(1000.0, 800.0, n_frames), 3);
        s.push_actor(ActorSpec::new(
            GtObjectId(0),
            classes::PEDESTRIAN,
            40.0,
            100.0,
            FrameIdx(0),
            FrameIdx(n_frames),
            MotionModel::linear(Point::new(100.0, 400.0), 4.0, 0.0),
        ));
        s.simulate()
    }

    #[test]
    fn default_config_is_valid() {
        DetectorConfig::default().validate().unwrap();
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let c = DetectorConfig {
            detect_prob: 1.5,
            ..DetectorConfig::default()
        };
        assert!(c.validate().is_err());
        let c = DetectorConfig {
            min_visibility: 0.9,
            full_visibility: 0.5,
            ..DetectorConfig::default()
        };
        assert!(c.validate().is_err());
        let c = DetectorConfig {
            fp_rate: -1.0,
            ..DetectorConfig::default()
        };
        assert!(c.validate().is_err());
    }

    #[test]
    fn detection_probability_ramp() {
        let c = DetectorConfig::default();
        assert_eq!(c.detection_probability(0.0, 0.0), 0.0);
        assert_eq!(c.detection_probability(0.25, 0.0), 0.0);
        assert!((c.detection_probability(1.0, 0.0) - c.detect_prob).abs() < 1e-12);
        // Mid-ramp is strictly between.
        let mid = c.detection_probability(0.425, 0.0);
        assert!(mid > 0.0 && mid < c.detect_prob);
        // Glare scales it down.
        assert!(c.detection_probability(1.0, 1.0) < 0.1 * c.detect_prob + 1e-9);
    }

    #[test]
    fn detect_is_deterministic() {
        let gt = simple_gt(100);
        let d = Detector::new(DetectorConfig::default());
        assert_eq!(d.detect(&gt, 5), d.detect(&gt, 5));
    }

    #[test]
    fn visible_actor_is_detected_most_frames() {
        let gt = simple_gt(200);
        let cfg = DetectorConfig {
            fp_rate: 0.0,
            ..DetectorConfig::default()
        };
        let frames = Detector::new(cfg).detect(&gt, 1);
        let hits = frames.iter().filter(|f| !f.is_empty()).count();
        assert!(hits > 180, "only {hits}/200 frames had detections");
        // All detections attribute to the single actor.
        assert!(frames
            .iter()
            .flatten()
            .all(|d| d.provenance == Some(GtObjectId(0))));
    }

    #[test]
    fn occluded_stretch_produces_miss_streak() {
        let mut s = Scenario::new(SceneConfig::new(1000.0, 800.0, 120), 3);
        s.push_actor(ActorSpec::new(
            GtObjectId(0),
            classes::PEDESTRIAN,
            40.0,
            100.0,
            FrameIdx(0),
            FrameIdx(120),
            MotionModel::linear(Point::new(50.0, 400.0), 5.0, 0.0),
        ));
        // Pillar fully covering x in [250, 400] at the actor's height.
        s.push_occluder(Occluder::static_box(BBox::new(250.0, 300.0, 150.0, 250.0)));
        let gt = s.simulate();
        let cfg = DetectorConfig {
            fp_rate: 0.0,
            ..DetectorConfig::default()
        };
        let frames = Detector::new(cfg).detect(&gt, 1);
        // While the actor centre is deep behind the pillar (x in [290,360],
        // i.e. frames 48..62) detections must vanish.
        let mid: usize = (48..62).map(|f| frames[f].len()).sum();
        assert_eq!(mid, 0, "detections while fully occluded");
        // But it is detected before and after.
        assert!(frames[..40].iter().filter(|f| !f.is_empty()).count() > 30);
        assert!(frames[80..].iter().filter(|f| !f.is_empty()).count() > 30);
    }

    #[test]
    fn false_positive_rate_is_respected() {
        let gt = simple_gt(2000);
        let cfg = DetectorConfig {
            fp_rate: 0.25,
            ..DetectorConfig::default()
        };
        let frames = Detector::new(cfg).detect(&gt, 9);
        let fps: usize = frames
            .iter()
            .flatten()
            .filter(|d| !d.is_true_positive())
            .count();
        let rate = fps as f64 / 2000.0;
        assert!((rate - 0.25).abs() < 0.05, "fp rate {rate}");
    }

    #[test]
    fn detections_stay_inside_viewport() {
        let gt = simple_gt(300);
        let frames = Detector::new(DetectorConfig::default()).detect(&gt, 2);
        let vp = gt.config().viewport();
        for d in frames.iter().flatten() {
            assert!(d.bbox.x >= vp.x - 1e-9 && d.bbox.x2() <= vp.x2() + 1e-9);
            assert!(d.bbox.y >= vp.y - 1e-9 && d.bbox.y2() <= vp.y2() + 1e-9);
        }
    }

    #[test]
    fn confidence_tracks_visibility() {
        let gt = simple_gt(300);
        let cfg = DetectorConfig {
            fp_rate: 0.0,
            ..DetectorConfig::default()
        };
        let frames = Detector::new(cfg).detect(&gt, 2);
        let mean: f64 = {
            let confs: Vec<f64> = frames.iter().flatten().map(|d| d.confidence).collect();
            confs.iter().sum::<f64>() / confs.len() as f64
        };
        // Fully visible actor → confidence near 1.
        assert!(mean > 0.9, "mean confidence {mean}");
    }
}
