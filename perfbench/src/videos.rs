//! Seeded video generation shared by the two batch workloads.

use crate::mix;
use tm_datasets::{crowd_scenario, DatasetSpec};
use tm_detect::Detector;
use tm_reid::AppearanceModel;
use tm_types::{Detection, TrackSet};

/// One generated video: the program sees only `detections`.
pub struct Video {
    /// Length in frames.
    pub n_frames: u64,
    /// Ground-truth tracks, for scoring.
    pub gt: TrackSet,
    /// Simulated detections, the program's input.
    pub detections: Vec<Vec<Detection>>,
    /// The ReID simulator for this video.
    pub model: AppearanceModel,
}

/// `suites` instances of `spec`'s videos, every scene, detector and
/// appearance seed re-derived from the workload seed. Several instances
/// average out how much work one seed's scenes happen to hold.
pub fn generate(spec: &DatasetSpec, seed: u64, suites: usize) -> Vec<Video> {
    let n = spec.videos.len();
    (0..suites * n)
        .map(|j| {
            let mut v = spec.videos[j % n].clone();
            let s = mix(seed, 1 + j as u64);
            v.scene.seed = s;
            v.det_seed = mix(s, 0xDE7EC7);
            v.appearance.seed = mix(s, 0xA11CE);
            let gt = crowd_scenario(&v.scene).simulate();
            Video {
                n_frames: gt.n_frames(),
                gt: gt.gt_tracks(0.1),
                detections: Detector::new(v.detector).detect(&gt, v.det_seed),
                model: AppearanceModel::new(v.appearance),
            }
        })
        .collect()
}
