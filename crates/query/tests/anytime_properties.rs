//! Property battery for anytime query-driven merging (DESIGN.md §17).
//!
//! Four invariant families pin the anytime contract:
//!
//! * **Interval soundness** — the exact full-budget answer cardinality
//!   lies inside *every* intermediate `[lo, hi]` of the full run.
//! * **Monotone tightening** — `lo` never decreases and `hi` never
//!   increases along a trajectory, at any budget; a full run converges
//!   exactly (`lo == hi == estimate`).
//! * **Estimate consistency** — at any exhausted budget, the reported
//!   estimate equals `evaluate()` on the mapping implied by the run's
//!   accepted pairs (the anytime layer never invents rows).
//! * **TID-permutation commutativity** — VoI weights depend on geometry
//!   only: renaming every track commutes with hint computation.

use proptest::prelude::*;
use std::collections::HashMap;
use tm_core::{merge_mapping, PipelineConfig, SelectorKind, TMergeConfig};
use tm_query::{evaluate, voi_hints, AnytimeConfig, AnytimeQuery, Query};
use tm_reid::{AppearanceConfig, AppearanceModel};
use tm_types::{ids::classes, BBox, FrameIdx, Track, TrackBox, TrackId, TrackPair, TrackSet};

/// One actor: lifetime `[start, start + len]`, split into `frags`
/// contiguous predicted fragments (mirrors `tests/properties.rs`).
type ActorSpec = (u64, u64, usize);

fn actor_strategy() -> impl Strategy<Value = Vec<ActorSpec>> {
    proptest::collection::vec((0u64..100, 20u64..300, 1usize..5), 1..6)
}

fn track(id: u64, first: u64, last: u64) -> Track {
    Track::with_boxes(
        TrackId(id),
        classes::PEDESTRIAN,
        vec![
            TrackBox::new(FrameIdx(first), BBox::new(0.0, 0.0, 10.0, 10.0)),
            TrackBox::new(FrameIdx(last), BBox::new(0.0, 0.0, 10.0, 10.0)),
        ],
    )
}

/// The fragmented predicted track set; fragment `j` of actor `i` is track
/// `100 * (i + 1) + j`.
fn world(actors: &[ActorSpec]) -> TrackSet {
    let mut pred = Vec::new();
    for (i, &(start, len, frags)) in actors.iter().enumerate() {
        let actor = i as u64 + 1;
        let frags = frags as u64;
        for j in 0..frags {
            let lo = start + j * len / frags;
            let hi = if j + 1 == frags {
                start + len
            } else {
                start + (j + 1) * len / frags - 1
            };
            pred.push(track(100 * actor + j, lo, hi));
        }
    }
    TrackSet::from_tracks(pred)
}

fn n_frames(actors: &[ActorSpec]) -> u64 {
    actors.iter().map(|&(s, l, _)| s + l + 1).max().unwrap_or(1)
}

fn driver(budget: Option<u64>, stop: bool, reweight: bool) -> AnytimeQuery {
    AnytimeQuery::new(
        PipelineConfig {
            window_len: 100,
            k: 0.4,
            selector: SelectorKind::TMerge(TMergeConfig::default()),
            ..PipelineConfig::default()
        },
        AnytimeConfig {
            budget,
            stop_on_convergence: stop,
            reweight_arms: reweight,
        },
    )
}

fn queries() -> [Query; 3] {
    [
        Query::Count { min_frames: 120 },
        Query::CoOccurrence {
            group_size: 2,
            min_frames: 40,
        },
        Query::RegionTransit {
            region: BBox::new(0.0, 0.0, 50.0, 50.0),
            min_frames: 2,
        },
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// (a) The exact full-budget answer lies inside every intermediate
    /// interval, and (b') the full run converges exactly.
    #[test]
    fn full_budget_answer_inside_every_intermediate_interval(
        actors in actor_strategy(), qi in 0usize..3,
    ) {
        let pred = world(&actors);
        let frames = n_frames(&actors);
        let model = AppearanceModel::new(AppearanceConfig::default());
        let query = queries()[qi];
        let ans = driver(None, false, true)
            .run(&pred, frames, &model, query)
            .unwrap();
        let exact = ans.estimate as f64;
        for p in &ans.trajectory {
            prop_assert!(
                p.lo <= exact && exact <= p.hi,
                "final answer {exact} escaped intermediate interval [{}, {}]",
                p.lo, p.hi
            );
        }
        prop_assert!(ans.converged, "full run must converge");
        prop_assert_eq!(ans.lo, exact);
        prop_assert_eq!(ans.hi, exact);
    }

    /// (b) Intervals tighten monotonically at every budget, and the
    /// estimate always sits inside the current interval.
    #[test]
    fn intervals_tighten_monotonically(
        actors in actor_strategy(), qi in 0usize..3, budget in 0u64..4000,
    ) {
        let pred = world(&actors);
        let frames = n_frames(&actors);
        let model = AppearanceModel::new(AppearanceConfig::default());
        let query = queries()[qi];
        let ans = driver(Some(budget), false, true)
            .run(&pred, frames, &model, query)
            .unwrap();
        let mut prev: Option<(f64, f64)> = None;
        for p in &ans.trajectory {
            prop_assert!(p.lo <= p.hi, "inverted interval [{}, {}]", p.lo, p.hi);
            prop_assert!(
                p.lo <= p.estimate as f64 && (p.estimate as f64) <= p.hi,
                "estimate {} escaped [{}, {}]", p.estimate, p.lo, p.hi
            );
            if let Some((lo, hi)) = prev {
                prop_assert!(p.lo >= lo, "lo regressed {lo} -> {}", p.lo);
                prop_assert!(p.hi <= hi, "hi widened {hi} -> {}", p.hi);
            }
            prev = Some((p.lo, p.hi));
        }
    }

    /// (c) At an exhausted budget the reported estimate and answer are
    /// exactly `evaluate()` on the accepted mapping — no extrapolation.
    #[test]
    fn estimate_equals_evaluate_on_final_mapping(
        actors in actor_strategy(), qi in 0usize..3, budget in 0u64..2000,
    ) {
        let pred = world(&actors);
        let frames = n_frames(&actors);
        let model = AppearanceModel::new(AppearanceConfig::default());
        let query = queries()[qi];
        let ans = driver(Some(budget), false, true)
            .run(&pred, frames, &model, query)
            .unwrap();
        let mapping = merge_mapping(&ans.accepted);
        let direct = evaluate(&pred.relabeled(&mapping), query);
        prop_assert_eq!(ans.estimate, direct.len() as u64);
        prop_assert_eq!(ans.answer, direct);
    }

    /// (d) VoI weights commute with TID permutation: weights read geometry
    /// and component structure, never the numeric ids.
    #[test]
    fn voi_hints_commute_with_tid_permutation(
        actors in actor_strategy(), qi in 0usize..3,
    ) {
        let pred = world(&actors);
        let query = queries()[qi];
        let pi: HashMap<TrackId, TrackId> =
            pred.iter().map(|t| (t.id, TrackId(t.id.get() * 7 + 3))).collect();
        let renamed = pred.relabeled(&pi);

        // Same-class all-pairs universe on both sides.
        let ids: Vec<TrackId> = pred.iter().map(|t| t.id).collect();
        let mut pairs = Vec::new();
        for (i, &a) in ids.iter().enumerate() {
            for &b in &ids[i + 1..] {
                pairs.push(TrackPair::new(a, b).unwrap());
            }
        }
        let renamed_pairs: Vec<TrackPair> = pairs
            .iter()
            .map(|p| TrackPair::new(pi[&p.lo()], pi[&p.hi()]).unwrap())
            .collect();

        let direct = voi_hints(&pred, query, &pairs);
        let mapped = voi_hints(&renamed, query, &renamed_pairs);
        for (p, rp) in pairs.iter().zip(&renamed_pairs) {
            prop_assert_eq!(
                direct.weight(p),
                mapped.weight(rp),
                "weight of {} changed under permutation", p
            );
        }
    }
}

/// A budget too large to ever bind is the same run as no budget at all:
/// the per-window share must not overflow on its way to `τ_max`.
#[test]
fn huge_budget_matches_unbudgeted_run() {
    let actors = [(0, 250, 3), (20, 200, 2), (40, 260, 4), (10, 180, 2)];
    let pred = world(&actors);
    let frames = n_frames(&actors);
    let model = AppearanceModel::new(AppearanceConfig::default());
    for query in queries() {
        let unbudgeted = driver(None, false, true)
            .run(&pred, frames, &model, query)
            .unwrap();
        let huge = driver(Some(1 << 63), false, true)
            .run(&pred, frames, &model, query)
            .unwrap();
        assert_eq!(huge.accepted, unbudgeted.accepted, "{query:?}");
        assert_eq!(huge.inferences_spent, unbudgeted.inferences_spent);
        assert_eq!(huge.estimate, unbudgeted.estimate);
        assert_eq!(
            (huge.lo.to_bits(), huge.hi.to_bits()),
            (unbudgeted.lo.to_bits(), unbudgeted.hi.to_bits())
        );
    }
}
