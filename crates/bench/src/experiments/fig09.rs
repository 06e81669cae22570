//! Fig. 9 — sensitivity to the window length `L` on PathTrack.
//!
//! With `L < 2·L_max` (L_max = 1000 for the PathTrack-like suite) some
//! polyonymous pairs never co-occur in any window's pair set (Eq. 1) and
//! can never be found, depressing REC for both BL and TMerge; for
//! `L ≥ 2·L_max` both algorithms are insensitive to `L`.

use crate::experiments::{sweep::K, ExpConfig};
use crate::harness::{run_selector, DatasetRun};
use tm_core::{Baseline, TMerge, TMergeConfig};
use tm_datasets::pathtrack;
use tm_reid::{CostModel, Device};
use tm_track::TrackerKind;

crate::json_struct! {
    /// REC of both algorithms at one window length.
    #[derive(Debug, Clone)]
    pub struct WindowLenPoint {
        /// The window length `L`.
        pub window_len: u64,
        /// BL recall.
        pub bl_rec: f64,
        /// TMerge recall.
        pub tmerge_rec: f64,
        /// Total pairs formed at this `L` (diagnostic).
        pub n_pairs: usize,
    }
}

/// Computes the `L` sensitivity series.
pub fn fig09(cfg: &ExpConfig) -> Vec<WindowLenPoint> {
    let spec = cfg.limit(pathtrack(), if cfg.quick { 2 } else { 4 });
    let lens: Vec<u64> = if cfg.quick {
        vec![1_000, 2_000]
    } else {
        vec![1_000, 1_500, 2_000, 3_000, 4_000]
    };
    let cost = CostModel::calibrated();
    tm_par::par_map(&lens, |&window_len| {
        let ds = DatasetRun::prepare(&spec, TrackerKind::Tracktor, Some(window_len));
        let bl = run_selector(&ds.runs, &Baseline, K, cost, Device::Cpu);
        let tm = TMerge::new(TMergeConfig {
            tau_max: 10_000,
            seed: cfg.seed,
            ..TMergeConfig::default()
        });
        let tmerge = run_selector(&ds.runs, &tm, K, cost, Device::Cpu);
        WindowLenPoint {
            window_len,
            bl_rec: bl.rec,
            tmerge_rec: tmerge.rec,
            n_pairs: ds.runs.iter().map(|r| r.n_pairs()).sum(),
        }
    })
}
