//! Half-overlapping windows over a video (§II of the paper).
//!
//! The video is partitioned into windows of `L` frames that overlap their
//! predecessor by `L/2`, so window `c` starts at frame `c·L/2`. With
//! `L ≥ 2·L_max` (the longest GT track), no GT track can span more than two
//! consecutive windows, which is what makes the pair set of Eq. (1)
//! complete: every possible polyonymous pair co-exists in some window or in
//! two neighbouring ones.

use tm_types::{FrameIdx, Result, TmError};

/// One window `W_c`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Window {
    /// The window index `c` (0-based).
    pub index: usize,
    /// First frame of the window (inclusive).
    pub start: FrameIdx,
    /// One past the last frame of the window (exclusive, clipped to the
    /// video length).
    pub end: FrameIdx,
    /// One past the last frame of the window's *first half* (exclusive) —
    /// the span whose tracks form `T_c`.
    pub half_end: FrameIdx,
}

impl Window {
    /// Window length in frames.
    pub fn len(&self) -> u64 {
        self.end.get() - self.start.get()
    }

    /// True for zero-length windows (possible only past the video end).
    pub fn is_empty(&self) -> bool {
        self.end <= self.start
    }
}

/// Splits a video of `n_frames` frames into half-overlapping windows of
/// length `window_len` (the paper's `L`, which must be even and positive).
///
/// Every frame of the video is covered by at least one window's first half,
/// and consecutive windows overlap by exactly `L/2` frames.
///
/// ```
/// use tm_core::windows;
/// let ws = windows(5000, 2000).unwrap();
/// assert_eq!(ws[0].start.get(), 0);
/// assert_eq!(ws[1].start.get(), 1000); // half-overlap
/// assert!(windows(5000, 999).is_err()); // L must be even
/// ```
pub fn windows(n_frames: u64, window_len: u64) -> Result<Vec<Window>> {
    if window_len == 0 {
        return Err(TmError::invalid("window_len", "must be positive"));
    }
    if !window_len.is_multiple_of(2) {
        return Err(TmError::invalid(
            "window_len",
            "must be even (windows half-overlap)",
        ));
    }
    let half = window_len / 2;
    let mut out = Vec::new();
    let mut start = 0u64;
    let mut index = 0usize;
    while start < n_frames || (index == 0 && n_frames == 0) {
        let end = (start + window_len).min(n_frames);
        let half_end = (start + half).min(n_frames);
        out.push(Window {
            index,
            start: FrameIdx(start),
            end: FrameIdx(end),
            half_end: FrameIdx(half_end),
        });
        if n_frames == 0 {
            break;
        }
        start += half;
        index += 1;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_bad_lengths() {
        assert!(windows(100, 0).is_err());
        assert!(windows(100, 7).is_err());
    }

    #[test]
    fn windows_half_overlap() {
        let ws = windows(5000, 2000).unwrap();
        assert_eq!(ws[0].start, FrameIdx(0));
        assert_eq!(ws[0].end, FrameIdx(2000));
        assert_eq!(ws[0].half_end, FrameIdx(1000));
        assert_eq!(ws[1].start, FrameIdx(1000));
        assert_eq!(ws[1].end, FrameIdx(3000));
        // Overlap between consecutive windows is exactly L/2.
        for pair in ws.windows(2) {
            let overlap = pair[0].end.get().saturating_sub(pair[1].start.get());
            if pair[1].end.get() - pair[1].start.get() == 2000 {
                assert_eq!(overlap, 1000);
            }
        }
    }

    #[test]
    fn every_frame_in_some_first_half() {
        let n = 5300;
        let ws = windows(n, 2000).unwrap();
        let mut covered = vec![false; n as usize];
        for w in &ws {
            for f in w.start.get()..w.half_end.get() {
                covered[f as usize] = true;
            }
        }
        assert!(
            covered.iter().all(|&c| c),
            "some frame missed all first halves"
        );
    }

    #[test]
    fn short_video_single_window() {
        let ws = windows(500, 2000).unwrap();
        assert_eq!(ws.len(), 1);
        assert_eq!(ws[0].end, FrameIdx(500));
        assert_eq!(ws[0].half_end, FrameIdx(500));
        assert_eq!(ws[0].len(), 500);
    }

    #[test]
    fn exact_multiple_has_no_trailing_empty_window() {
        let ws = windows(2000, 2000).unwrap();
        // Windows start at 0 and 1000; next would start at 2000 (= n) and
        // must not exist.
        assert_eq!(ws.len(), 2);
        assert!(ws.iter().all(|w| !w.is_empty()));
    }

    #[test]
    fn zero_frames_yields_one_empty_window() {
        let ws = windows(0, 2000).unwrap();
        assert_eq!(ws.len(), 1);
        assert!(ws[0].is_empty());
    }
}
