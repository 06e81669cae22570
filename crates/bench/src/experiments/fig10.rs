//! Fig. 10 — sensitivity to the BetaInit threshold `thr_S` (REC–FPS on
//! MOT-17 for thr_S ∈ {off, 100, 200, 300}).

use crate::experiments::{sweep::averaged_outcome, ExpConfig};
use crate::harness::{CurvePoint, DatasetRun};
use std::collections::BTreeMap;
use tm_core::{TMerge, TMergeConfig};
use tm_datasets::mot17;
use tm_reid::{CostModel, Device};
use tm_track::TrackerKind;

crate::json_struct! {
    /// REC–FPS curves keyed by the `thr_S` label.
    #[derive(Debug, Clone)]
    pub struct Fig10 {
        /// `thr_S` label → points.
        pub curves: BTreeMap<String, Vec<CurvePoint>>,
    }
}

/// Computes the thr_S sensitivity curves.
pub fn fig10(cfg: &ExpConfig) -> Fig10 {
    let spec = cfg.limit(mot17(), 7);
    let ds = DatasetRun::prepare(&spec, TrackerKind::Tracktor, None);
    let cost = CostModel::calibrated();
    let settings: Vec<(String, Option<f64>)> = vec![
        ("off".into(), None),
        ("thr_S=100".into(), Some(100.0)),
        ("thr_S=200".into(), Some(200.0)),
        ("thr_S=300".into(), Some(300.0)),
    ];
    // All (thr_S, τ) combinations fan out together; each setting's points
    // are collected in grid order.
    let taus = cfg.tau_grid();
    let per_setting = tm_par::par_map(&settings, |(_, thr_s)| {
        tm_par::par_map(&taus, |&tau| {
            let out = averaged_outcome(&ds, cost, Device::Cpu, cfg.trials, cfg.seed, &|seed| {
                Box::new(TMerge::new(TMergeConfig {
                    tau_max: tau,
                    thr_s: *thr_s,
                    seed,
                    ..TMergeConfig::default()
                }))
            });
            CurvePoint {
                param: format!("tau={tau}"),
                outcome: out,
            }
        })
    });
    let mut curves = BTreeMap::new();
    for ((label, _), points) in settings.iter().zip(per_setting) {
        curves.insert(label.clone(), points);
    }
    Fig10 { curves }
}
