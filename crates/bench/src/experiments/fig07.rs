//! Fig. 7 — Runtime and REC of TMerge-B (B = 10) as τ_max grows, on
//! MOT-17, with the BL-B total runtime as the reference line.

use crate::experiments::{sweep::K, ExpConfig};
use crate::harness::{run_selector, DatasetRun};
use tm_core::{Baseline, TMerge, TMergeConfig};
use tm_datasets::mot17;
use tm_reid::{CostModel, Device};
use tm_track::TrackerKind;

crate::json_struct! {
    /// One τ_max point.
    #[derive(Debug, Clone)]
    pub struct TauPoint {
        /// The iteration budget.
        pub tau_max: u64,
        /// Recall achieved.
        pub rec: f64,
        /// Simulated runtime in seconds (all videos).
        pub runtime_s: f64,
        /// Feature-cache hit rate (the reuse effect the paper credits for the
        /// flattening runtime).
        pub hit_rate: f64,
    }

    /// The figure's data: the TMerge-B series plus the BL-B reference.
    #[derive(Debug, Clone)]
    pub struct Fig07 {
        /// TMerge-B (B = 10) points.
        pub points: Vec<TauPoint>,
        /// Total BL-B runtime on the same videos (the paper reports 2762 s).
        pub bl_b_runtime_s: f64,
        /// BL-B recall (the ceiling TMerge approaches).
        pub bl_rec: f64,
    }
}

/// Computes the τ_max sweep.
pub fn fig07(cfg: &ExpConfig) -> Fig07 {
    let spec = cfg.limit(mot17(), 7);
    let ds = DatasetRun::prepare(&spec, TrackerKind::Tracktor, None);
    let device = Device::Gpu { batch: 10 };
    let cost = CostModel::calibrated();
    let taus: Vec<u64> = if cfg.quick {
        vec![1_000, 10_000]
    } else {
        vec![500, 1_000, 2_000, 5_000, 10_000, 20_000, 50_000, 100_000]
    };
    let points = tm_par::par_map(&taus, |&tau| {
        // Re-run per point with a fresh session (hit-rate diagnostics
        // need per-point stats, so no trial averaging here; REC noise
        // across videos is already averaged).
        let tm = TMerge::new(TMergeConfig {
            tau_max: tau,
            seed: cfg.seed,
            ..TMergeConfig::default()
        });
        let out = run_selector(&ds.runs, &tm, K, cost, device);
        TauPoint {
            tau_max: tau,
            rec: out.rec,
            runtime_s: out.runtime_s,
            hit_rate: out.hit_rate(),
        }
    });
    let bl = run_selector(&ds.runs, &Baseline, K, cost, device);
    Fig07 {
        points,
        bl_b_runtime_s: bl.runtime_s,
        bl_rec: bl.rec,
    }
}
