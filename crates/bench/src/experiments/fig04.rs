//! Fig. 4 — baseline runtime and accumulated track pairs as the video
//! length grows (PathTrack-style scenes, L = 2000).
//!
//! Demonstrates why BL cannot scale: both the pair count and the (simulated)
//! runtime grow steeply and in lockstep with the video length.

use crate::experiments::ExpConfig;
use crate::harness::VideoRun;
use tm_core::Baseline;
use tm_datasets::{pathtrack, prepare};
use tm_reid::{CostModel, Device};
use tm_track::TrackerKind;

crate::json_struct! {
    /// One point of the scaling series.
    #[derive(Debug, Clone)]
    pub struct ScalingPoint {
        /// Video length in frames.
        pub n_frames: u64,
        /// Track pairs accumulated across windows.
        pub n_pairs: usize,
        /// Simulated BL runtime in seconds.
        pub runtime_s: f64,
    }
}

/// Computes the scaling series.
pub fn fig04(cfg: &ExpConfig) -> Vec<ScalingPoint> {
    let lengths: Vec<u64> = if cfg.quick {
        vec![1_000, 2_000]
    } else {
        vec![2_000, 4_000, 6_000, 8_000, 10_000]
    };
    let base = pathtrack();
    tm_par::par_map(&lengths, |&n_frames| {
        // Scale the cast with the length so scene density stays fixed
        // (a longer video sees proportionally more passers-by).
        let mut spec = base.videos[0].clone();
        spec.scene.n_frames = n_frames;
        spec.scene.n_actors = (40 * n_frames / 3600).max(8) as usize;
        let run = VideoRun::new(prepare(&spec, TrackerKind::Tracktor), base.window_len);
        let outcome = crate::harness::run_selector(
            std::slice::from_ref(&run),
            &Baseline,
            crate::experiments::sweep::K,
            CostModel::calibrated(),
            Device::Cpu,
        );
        ScalingPoint {
            n_frames,
            n_pairs: run.n_pairs(),
            runtime_s: outcome.runtime_s,
        }
    })
}
