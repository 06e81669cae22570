//! Degraded-mode merging.
//!
//! Real ingestion survives ReID outages. When the backend keeps failing
//! past the retry budget, the merging layer must not stall the stream or
//! panic — it keeps windows moving on the evidence that *never* needs the
//! model: the spatio-temporal layout of the tracks. Decisions made that way
//! are conservative and explicitly tagged [`DecisionMode::Degraded`]; when
//! the backend recovers, stashed windows are re-scored with real ReID
//! before their merges are committed for good.
//!
//! The pieces here are deliberately small and deterministic:
//!
//! * [`RobustnessConfig`] — retry policy and the degraded gating
//!   thresholds, bundled so pipelines and streams share one knob set.
//! * [`degraded_candidates`] — the fallback selector: spatial/temporal
//!   gating plus a distance ranking, no model calls, no RNG.
//!
//! The circuit breaker, the stash and the recovery rule that act on them
//! live in one unit every walk owns, `exec::Recovery`.

use crate::score::PairBoxes;
use crate::selector::top_m_by_score;
use tm_reid::RetryPolicy;
use tm_types::{Result, TrackPair, TrackSet};

/// Gating thresholds for degraded (ReID-less) candidate selection.
///
/// A pair survives the gate only when the chronologically earlier track's
/// last box and the later track's first box are close in space **and**
/// properly ordered and close in time. Both thresholds are deliberately
/// tighter than BetaInit's `thr_S = 200` px prior: with no appearance
/// evidence to overrule a bad prior, the gate must be conservative.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DegradedConfig {
    /// Maximum endpoint distance `DisS` in pixels.
    pub max_spatial_px: f64,
    /// Maximum (strictly positive) endpoint gap `DisT` in frames.
    pub max_temporal_gap: i64,
}

impl Default for DegradedConfig {
    fn default() -> Self {
        Self {
            max_spatial_px: 100.0,
            max_temporal_gap: 150,
        }
    }
}

/// Everything the fault-tolerant paths need to know, with defaults that
/// match production behaviour (retries on, conservative degraded gating).
/// The circuit breaker has no knob: it opens on the first window that
/// still fails after the session's retries.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RobustnessConfig {
    /// Retry/backoff policy installed on the ReID session.
    pub retry: RetryPolicy,
    /// Degraded-mode gating thresholds.
    pub degraded: DegradedConfig,
}

/// How a window's candidates were decided.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecisionMode {
    /// The configured selector ran with real ReID evidence.
    Normal,
    /// The ReID backend was down; candidates come from spatio-temporal
    /// gating only and are provisional until re-verified.
    Degraded,
}

/// Robustness counters for one pipeline/stream run. All zero on a
/// fault-free run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RobustnessReport {
    /// Windows decided without ReID evidence.
    pub degraded_windows: u64,
    /// Degraded windows later re-scored with real ReID.
    pub reverified_windows: u64,
    /// Times the circuit breaker tripped open.
    pub breaker_trips: u64,
    /// Backend attempts that were retried (mirror of
    /// [`tm_reid::ReidStats::retries`]).
    pub retries: u64,
    /// Faulted backend attempts (mirror of
    /// [`tm_reid::ReidStats::backend_faults`]).
    pub backend_faults: u64,
}

/// Selects up to `m` candidates from `pairs` using **only** spatio-temporal
/// evidence: pairs pass the [`DegradedConfig`] gate and are ranked by
/// ascending endpoint distance `DisS` (ties broken by pair order). No model
/// is consulted and nothing is charged to the simulated clock — the backend
/// is down, after all.
pub fn degraded_candidates(
    pairs: &[TrackPair],
    tracks: &TrackSet,
    m: usize,
    cfg: &DegradedConfig,
) -> Result<Vec<TrackPair>> {
    if m == 0 || pairs.is_empty() {
        return Ok(Vec::new());
    }
    let mut scored: Vec<(TrackPair, f64)> = Vec::new();
    for &p in pairs {
        let pb = PairBoxes::resolve(p, tracks)?;
        let (Some(dis_s), Some(dis_t)) = (pb.spatial_distance(), pb.temporal_distance()) else {
            continue; // an empty track carries no endpoint evidence
        };
        if dis_s <= cfg.max_spatial_px && dis_t > 0 && dis_t <= cfg.max_temporal_gap {
            scored.push((p, dis_s));
        }
    }
    Ok(top_m_by_score(&scored, m))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tm_types::{ids::classes, BBox, FrameIdx, Track, TrackBox, TrackId};

    fn track(id: u64, start: u64, n: usize, x0: f64) -> Track {
        Track::with_boxes(
            TrackId(id),
            classes::PEDESTRIAN,
            (0..n)
                .map(|i| {
                    TrackBox::new(
                        FrameIdx(start + i as u64),
                        BBox::new(x0 + i as f64 * 2.0, 100.0, 40.0, 80.0),
                    )
                })
                .collect(),
        )
    }

    fn pair(a: u64, b: u64) -> TrackPair {
        TrackPair::new(TrackId(a), TrackId(b)).unwrap()
    }

    #[test]
    fn gate_passes_close_sequential_fragments_only() {
        let tracks = TrackSet::from_tracks(vec![
            track(1, 0, 10, 0.0),    // ends frame 9 at x≈18
            track(2, 20, 10, 30.0),  // starts frame 20 nearby → passes
            track(3, 20, 10, 900.0), // spatially far → gated out
            track(4, 500, 10, 30.0), // temporal gap 490 → gated out
            track(5, 5, 10, 30.0),   // overlaps in time (DisT ≤ 0) → out
        ]);
        let pairs = vec![pair(1, 2), pair(1, 3), pair(1, 4), pair(1, 5)];
        let got = degraded_candidates(&pairs, &tracks, 4, &DegradedConfig::default()).unwrap();
        assert_eq!(got, vec![pair(1, 2)]);
    }

    #[test]
    fn ranking_is_by_spatial_distance_and_m_caps() {
        let tracks = TrackSet::from_tracks(vec![
            track(1, 0, 10, 0.0),
            track(2, 20, 10, 80.0), // farther
            track(3, 20, 10, 30.0), // closer
        ]);
        let pairs = vec![pair(1, 2), pair(1, 3)];
        let got = degraded_candidates(&pairs, &tracks, 2, &DegradedConfig::default()).unwrap();
        assert_eq!(got, vec![pair(1, 3), pair(1, 2)]);
        let got = degraded_candidates(&pairs, &tracks, 1, &DegradedConfig::default()).unwrap();
        assert_eq!(got, vec![pair(1, 3)]);
    }

    #[test]
    fn unknown_track_is_an_error_not_a_panic() {
        let tracks = TrackSet::from_tracks(vec![track(1, 0, 5, 0.0)]);
        let pairs = vec![pair(1, 99)];
        assert!(degraded_candidates(&pairs, &tracks, 1, &DegradedConfig::default()).is_err());
    }
}
