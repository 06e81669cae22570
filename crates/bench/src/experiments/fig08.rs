//! Fig. 8 — ablation study: TMerge vs. TMerge without BetaInit vs. TMerge
//! without ULB (REC–FPS curves on MOT-17).

use crate::experiments::{sweep::averaged_outcome, ExpConfig};
use crate::harness::{CurvePoint, DatasetRun};
use std::collections::BTreeMap;
use tm_core::{TMerge, TMergeConfig};
use tm_datasets::mot17;
use tm_reid::{CostModel, Device};
use tm_track::TrackerKind;

crate::json_struct! {
    /// The ablation curves, keyed by variant name.
    #[derive(Debug, Clone)]
    pub struct Fig08 {
        /// Variant → REC–FPS points.
        pub curves: BTreeMap<String, Vec<CurvePoint>>,
    }
}

/// The three variants of the figure.
pub fn variants() -> Vec<(&'static str, TMergeConfig)> {
    let base = TMergeConfig::default();
    vec![
        ("TMerge", base),
        (
            "TMerge w/o BetaInit",
            TMergeConfig {
                thr_s: None,
                ..base
            },
        ),
        (
            "TMerge w/o ULB",
            TMergeConfig {
                use_ulb: false,
                ..base
            },
        ),
    ]
}

/// Computes the ablation curves.
pub fn fig08(cfg: &ExpConfig) -> Fig08 {
    let spec = cfg.limit(mot17(), 7);
    let ds = DatasetRun::prepare(&spec, TrackerKind::Tracktor, None);
    let cost = CostModel::calibrated();
    let mut curves = BTreeMap::new();
    let taus = cfg.tau_grid();
    for (name, variant) in variants() {
        let points = tm_par::par_map(&taus, |&tau| {
            let out = averaged_outcome(&ds, cost, Device::Cpu, cfg.trials, cfg.seed, &|seed| {
                Box::new(TMerge::new(TMergeConfig {
                    tau_max: tau,
                    seed,
                    ..variant
                }))
            });
            CurvePoint {
                param: format!("tau={tau}"),
                outcome: out,
            }
        });
        curves.insert(name.to_string(), points);
    }
    Fig08 { curves }
}
