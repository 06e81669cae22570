//! Query definitions and evaluation over a [`TrackSet`].

use tm_types::{BBox, TrackId, TrackSet};

/// A declarative query over track metadata.
///
/// `PartialEq` only (not `Eq`): [`Query::RegionTransit`] carries an
/// [`BBox`] whose `f64` coordinates rule out total equality.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Query {
    /// Objects (tracks) that remain visible across **more than**
    /// `min_frames` frames (§V-H's *Count* query; 200 in the paper's
    /// example).
    Count {
        /// Duration threshold in frames.
        min_frames: u64,
    },
    /// Clips longer than `min_frames` in which the same `group_size`
    /// objects appear jointly (§V-H's *Co-occurring Objects*; 3 objects
    /// over 50 frames in the paper's example).
    CoOccurrence {
        /// Number of objects that must appear together.
        group_size: usize,
        /// Minimum joint-appearance length in frames.
        min_frames: u64,
    },
    /// Objects whose trajectory intersects `region` in at least
    /// `min_frames` observed frames (the spatially constrained extension
    /// class of [`crate::region`]).
    RegionTransit {
        /// The spatial region of interest (frame coordinates).
        region: BBox,
        /// Minimum dwell time in observed frames.
        min_frames: u64,
    },
}

/// A query result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryAnswer {
    /// The tracks satisfying a [`Query::Count`].
    Count(Vec<TrackId>),
    /// The track groups satisfying a [`Query::CoOccurrence`], each sorted
    /// ascending.
    CoOccurrence(Vec<Vec<TrackId>>),
    /// The tracks satisfying a [`Query::RegionTransit`].
    RegionTransit(Vec<TrackId>),
}

impl QueryAnswer {
    /// Number of result rows.
    pub fn len(&self) -> usize {
        match self {
            QueryAnswer::Count(v) => v.len(),
            QueryAnswer::CoOccurrence(v) => v.len(),
            QueryAnswer::RegionTransit(v) => v.len(),
        }
    }

    /// True when the result is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Evaluates a query.
pub fn evaluate(tracks: &TrackSet, query: Query) -> QueryAnswer {
    match query {
        Query::Count { min_frames } => QueryAnswer::Count(count_query(tracks, min_frames)),
        Query::CoOccurrence {
            group_size,
            min_frames,
        } => QueryAnswer::CoOccurrence(co_occurrence_query(tracks, group_size, min_frames)),
        Query::RegionTransit { region, min_frames } => QueryAnswer::RegionTransit(
            crate::region::region_transit_query(tracks, &region, min_frames),
        ),
    }
}

/// Tracks spanning more than `min_frames` frames, sorted by id.
pub fn count_query(tracks: &TrackSet, min_frames: u64) -> Vec<TrackId> {
    let mut out: Vec<TrackId> = tracks
        .iter()
        .filter(|t| t.span() > min_frames)
        .map(|t| t.id)
        .collect();
    out.sort();
    out
}

/// Groups of `group_size` distinct tracks whose lifetime intervals jointly
/// overlap for at least `min_frames` frames, each group sorted, the list
/// sorted lexicographically.
///
/// Joint appearance is evaluated on lifetime intervals
/// `[first_frame, last_frame]` — a track is considered present between its
/// first and last observation even across short detection holes, matching
/// how a clip-retrieval query treats an object that momentarily ducks
/// behind another.
pub fn co_occurrence_query(
    tracks: &TrackSet,
    group_size: usize,
    min_frames: u64,
) -> Vec<Vec<TrackId>> {
    if group_size == 0 {
        return Vec::new();
    }
    // Candidates must individually span enough frames.
    let mut spans: Vec<(TrackId, u64, u64)> = tracks
        .iter()
        .filter_map(|t| {
            let (f, l) = (t.first_frame()?, t.last_frame()?);
            (t.span() >= min_frames).then_some((t.id, f.get(), l.get()))
        })
        .collect();
    spans.sort();

    let mut out: Vec<Vec<TrackId>> = Vec::new();
    let mut group: Vec<usize> = Vec::new();
    // Depth-first enumeration with interval-intersection pruning: extend a
    // partial group only while the running intersection stays ≥ min_frames.
    struct Dfs<'a> {
        spans: &'a [(TrackId, u64, u64)],
        group_size: usize,
        min_frames: u64,
    }
    impl Dfs<'_> {
        fn extend(
            &self,
            start: usize,
            window: (u64, u64),
            group: &mut Vec<usize>,
            out: &mut Vec<Vec<TrackId>>,
        ) {
            if group.len() == self.group_size {
                out.push(group.iter().map(|&i| self.spans[i].0).collect());
                return;
            }
            for i in start..self.spans.len() {
                let (_, f, l) = self.spans[i];
                let nlo = window.0.max(f);
                let nhi = window.1.min(l);
                if nhi < nlo || nhi - nlo + 1 < self.min_frames {
                    continue;
                }
                group.push(i);
                self.extend(i + 1, (nlo, nhi), group, out);
                group.pop();
            }
        }
    }
    Dfs {
        spans: &spans,
        group_size,
        min_frames,
    }
    .extend(0, (0, u64::MAX), &mut group, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use tm_types::{ids::classes, BBox, FrameIdx, Track, TrackBox};

    fn track(id: u64, first: u64, last: u64) -> Track {
        Track::with_boxes(
            TrackId(id),
            classes::PEDESTRIAN,
            // Sparse observations: only the endpoints (span semantics).
            vec![
                TrackBox::new(FrameIdx(first), BBox::new(0.0, 0.0, 10.0, 10.0)),
                TrackBox::new(FrameIdx(last), BBox::new(0.0, 0.0, 10.0, 10.0)),
            ],
        )
    }

    #[test]
    fn count_query_uses_strict_threshold() {
        // Spans: 201, 200, 199 frames.
        let ts = TrackSet::from_tracks(vec![track(1, 0, 200), track(2, 0, 199), track(3, 0, 198)]);
        assert_eq!(count_query(&ts, 200), vec![TrackId(1)]);
        assert_eq!(count_query(&ts, 100).len(), 3);
    }

    #[test]
    fn fragmentation_hides_count_results() {
        // One actor visible 0..=300 but fragmented at frame 150.
        let fragmented = TrackSet::from_tracks(vec![track(1, 0, 150), track(2, 151, 300)]);
        assert!(count_query(&fragmented, 200).is_empty());
        // Merged, it qualifies.
        let mut map = std::collections::HashMap::new();
        map.insert(TrackId(2), TrackId(1));
        let merged = fragmented.relabeled(&map);
        assert_eq!(count_query(&merged, 200), vec![TrackId(1)]);
    }

    #[test]
    fn co_occurrence_finds_overlapping_triples() {
        let ts = TrackSet::from_tracks(vec![
            track(1, 0, 100),
            track(2, 20, 120),
            track(3, 40, 140),
            track(4, 95, 200), // overlaps the others < 50 frames jointly
        ]);
        let groups = co_occurrence_query(&ts, 3, 50);
        assert_eq!(groups, vec![vec![TrackId(1), TrackId(2), TrackId(3)]]);
    }

    #[test]
    fn co_occurrence_pairs_and_identity_cases() {
        let ts = TrackSet::from_tracks(vec![track(1, 0, 100), track(2, 50, 160)]);
        assert_eq!(
            co_occurrence_query(&ts, 2, 51),
            vec![vec![TrackId(1), TrackId(2)]]
        );
        assert!(co_occurrence_query(&ts, 2, 52).is_empty());
        assert!(co_occurrence_query(&ts, 0, 10).is_empty());
        // group_size 1 degenerates to the duration predicate.
        assert_eq!(co_occurrence_query(&ts, 1, 101).len(), 2);
    }

    #[test]
    fn evaluate_dispatches() {
        let ts = TrackSet::from_tracks(vec![track(1, 0, 300)]);
        assert_eq!(
            evaluate(&ts, Query::Count { min_frames: 200 }),
            QueryAnswer::Count(vec![TrackId(1)])
        );
        let a = evaluate(
            &ts,
            Query::CoOccurrence {
                group_size: 2,
                min_frames: 10,
            },
        );
        assert!(a.is_empty());
    }

    #[test]
    fn evaluate_dispatches_region_transit() {
        // Both observed boxes sit at (0,0,10,10); the region covers them,
        // so dwell == 2 observed frames.
        let ts = TrackSet::from_tracks(vec![track(1, 0, 300)]);
        let inside = Query::RegionTransit {
            region: BBox::new(0.0, 0.0, 20.0, 20.0),
            min_frames: 2,
        };
        assert_eq!(
            evaluate(&ts, inside),
            QueryAnswer::RegionTransit(vec![TrackId(1)])
        );
        let strict = Query::RegionTransit {
            region: BBox::new(0.0, 0.0, 20.0, 20.0),
            min_frames: 3,
        };
        let a = evaluate(&ts, strict);
        assert!(a.is_empty());
        assert_eq!(a, QueryAnswer::RegionTransit(Vec::new()));
        // Far-away region: no dwell at all.
        let outside = Query::RegionTransit {
            region: BBox::new(500.0, 500.0, 5.0, 5.0),
            min_frames: 1,
        };
        assert!(evaluate(&ts, outside).is_empty());
    }
}
