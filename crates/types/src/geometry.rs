//! Planar geometry: points and axis-aligned bounding boxes.
//!
//! All computer-vision layers of the workspace (world simulation, detection,
//! tracking, ReID spatial priors, metrics) operate on the [`BBox`] type
//! defined here. Boxes use the image convention: origin at the top-left,
//! `y` grows downwards.

/// A point in frame coordinates (pixels).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Point {
    /// Horizontal coordinate, grows rightwards.
    pub x: f64,
    /// Vertical coordinate, grows downwards (image convention).
    pub y: f64,
}

impl Point {
    /// Creates a point from its two coordinates.
    pub const fn new(x: f64, y: f64) -> Self {
        Self { x, y }
    }

    /// Euclidean distance to another point.
    ///
    /// This is the distance used for the paper's *spatial distance*
    /// `DisS_{i,j}` between track end-points (BetaInit, Algorithm 3).
    pub fn distance(&self, other: &Point) -> f64 {
        (self.x - other.x).hypot(self.y - other.y)
    }

    /// Component-wise addition.
    pub fn offset(&self, dx: f64, dy: f64) -> Point {
        Point::new(self.x + dx, self.y + dy)
    }

    /// Linear interpolation between `self` (t = 0) and `other` (t = 1).
    pub fn lerp(&self, other: &Point, t: f64) -> Point {
        Point::new(
            self.x + (other.x - self.x) * t,
            self.y + (other.y - self.y) * t,
        )
    }
}

/// An axis-aligned bounding box in frame coordinates.
///
/// Stored as top-left corner plus extent. Construction helpers keep the
/// extent non-negative; degenerate (zero-area) boxes are allowed and behave
/// sensibly in [`BBox::iou`] (overlap 0 with everything, including
/// themselves).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct BBox {
    /// Left edge.
    pub x: f64,
    /// Top edge.
    pub y: f64,
    /// Width (non-negative).
    pub w: f64,
    /// Height (non-negative).
    pub h: f64,
}

impl BBox {
    /// Creates a box from its top-left corner and extent.
    ///
    /// Negative extents are clamped to zero so downstream area/overlap
    /// arithmetic never sees a negative dimension.
    pub fn new(x: f64, y: f64, w: f64, h: f64) -> Self {
        Self {
            x,
            y,
            w: w.max(0.0),
            h: h.max(0.0),
        }
    }

    /// Creates a box from its centre point and extent.
    pub fn from_center(cx: f64, cy: f64, w: f64, h: f64) -> Self {
        let w = w.max(0.0);
        let h = h.max(0.0);
        Self {
            x: cx - w / 2.0,
            y: cy - h / 2.0,
            w,
            h,
        }
    }

    /// Creates a box from two corner points (any opposing pair).
    pub fn from_corners(a: Point, b: Point) -> Self {
        let x0 = a.x.min(b.x);
        let y0 = a.y.min(b.y);
        Self::new(x0, y0, (a.x - b.x).abs(), (a.y - b.y).abs())
    }

    /// Right edge (`x + w`).
    pub fn x2(&self) -> f64 {
        self.x + self.w
    }

    /// Bottom edge (`y + h`).
    pub fn y2(&self) -> f64 {
        self.y + self.h
    }

    /// Centre point — `Φ(b)` in the paper's notation.
    pub fn center(&self) -> Point {
        Point::new(self.x + self.w / 2.0, self.y + self.h / 2.0)
    }

    /// Box area (`w · h`).
    pub fn area(&self) -> f64 {
        self.w * self.h
    }

    /// Aspect ratio `w / h`; `None` for a zero-height box.
    pub fn aspect(&self) -> Option<f64> {
        (self.h > 0.0).then(|| self.w / self.h)
    }

    /// True if the box has zero area.
    pub fn is_empty(&self) -> bool {
        self.w <= 0.0 || self.h <= 0.0
    }

    /// Intersection rectangle with another box, if the boxes overlap.
    pub fn intersection(&self, other: &BBox) -> Option<BBox> {
        let x0 = self.x.max(other.x);
        let y0 = self.y.max(other.y);
        let x1 = self.x2().min(other.x2());
        let y1 = self.y2().min(other.y2());
        (x1 > x0 && y1 > y0).then(|| BBox::new(x0, y0, x1 - x0, y1 - y0))
    }

    /// Area of the intersection with another box (0 when disjoint).
    pub fn intersection_area(&self, other: &BBox) -> f64 {
        self.intersection(other).map_or(0.0, |b| b.area())
    }

    /// Intersection-over-union in `[0, 1]`.
    ///
    /// The standard association measure used by the tracking substrate
    /// (SORT and friends) and by the CLEAR-MOT correspondence.
    pub fn iou(&self, other: &BBox) -> f64 {
        let inter = self.intersection_area(other);
        if inter <= 0.0 {
            return 0.0;
        }
        let union = self.area() + other.area() - inter;
        if union <= 0.0 {
            0.0
        } else {
            inter / union
        }
    }

    /// Fraction of `self`'s area covered by `other`, in `[0, 1]`.
    ///
    /// Used by the detection simulator to decide how much of an actor an
    /// occluder hides.
    pub fn coverage_by(&self, other: &BBox) -> f64 {
        let a = self.area();
        if a <= 0.0 {
            return 0.0;
        }
        (self.intersection_area(other) / a).clamp(0.0, 1.0)
    }

    /// Smallest box enclosing both `self` and `other`.
    pub fn union_rect(&self, other: &BBox) -> BBox {
        let x0 = self.x.min(other.x);
        let y0 = self.y.min(other.y);
        let x1 = self.x2().max(other.x2());
        let y1 = self.y2().max(other.y2());
        BBox::new(x0, y0, x1 - x0, y1 - y0)
    }

    /// True when `p` lies inside the box (edges inclusive).
    pub fn contains(&self, p: &Point) -> bool {
        p.x >= self.x && p.x <= self.x2() && p.y >= self.y && p.y <= self.y2()
    }

    /// Clips the box to a viewport, returning `None` when nothing remains.
    ///
    /// The camera model uses this to truncate boxes that leave the frame.
    pub fn clip_to(&self, viewport: &BBox) -> Option<BBox> {
        self.intersection(viewport)
    }

    /// Translates the box by `(dx, dy)`.
    pub fn translate(&self, dx: f64, dy: f64) -> BBox {
        BBox::new(self.x + dx, self.y + dy, self.w, self.h)
    }

    /// Scales width and height about the centre by `factor` (≥ 0).
    pub fn scale_about_center(&self, factor: f64) -> BBox {
        let c = self.center();
        BBox::from_center(c.x, c.y, self.w * factor.max(0.0), self.h * factor.max(0.0))
    }

    /// The SORT observation vector `[cx, cy, s, r]`: centre, scale (area)
    /// and aspect ratio. `r` falls back to 1.0 for degenerate boxes.
    pub fn to_cxcysr(&self) -> [f64; 4] {
        let c = self.center();
        [c.x, c.y, self.area(), self.aspect().unwrap_or(1.0)]
    }

    /// Inverse of [`BBox::to_cxcysr`].
    ///
    /// Non-positive scale or ratio yields a degenerate (zero-extent) box at
    /// the given centre rather than NaNs.
    pub fn from_cxcysr(z: [f64; 4]) -> BBox {
        let [cx, cy, s, r] = z;
        if s <= 0.0 || r <= 0.0 {
            return BBox::from_center(cx, cy, 0.0, 0.0);
        }
        let w = (s * r).sqrt();
        let h = s / w;
        BBox::from_center(cx, cy, w, h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(x: f64, y: f64, w: f64, h: f64) -> BBox {
        BBox::new(x, y, w, h)
    }

    #[test]
    fn point_distance_is_euclidean() {
        assert_eq!(Point::new(0.0, 0.0).distance(&Point::new(3.0, 4.0)), 5.0);
        assert_eq!(Point::new(1.0, 1.0).distance(&Point::new(1.0, 1.0)), 0.0);
    }

    #[test]
    fn point_lerp_endpoints_and_midpoint() {
        let a = Point::new(0.0, 10.0);
        let c = Point::new(10.0, 0.0);
        assert_eq!(a.lerp(&c, 0.0), a);
        assert_eq!(a.lerp(&c, 1.0), c);
        assert_eq!(a.lerp(&c, 0.5), Point::new(5.0, 5.0));
    }

    #[test]
    fn bbox_new_clamps_negative_extent() {
        let bx = b(0.0, 0.0, -5.0, 3.0);
        assert_eq!(bx.w, 0.0);
        assert!(bx.is_empty());
    }

    #[test]
    fn bbox_center_and_area() {
        let bx = b(10.0, 20.0, 4.0, 6.0);
        assert_eq!(bx.center(), Point::new(12.0, 23.0));
        assert_eq!(bx.area(), 24.0);
    }

    #[test]
    fn from_center_round_trips() {
        let bx = BBox::from_center(50.0, 60.0, 10.0, 20.0);
        assert_eq!(bx.center(), Point::new(50.0, 60.0));
        assert_eq!((bx.w, bx.h), (10.0, 20.0));
    }

    #[test]
    fn from_corners_orders_any_pair() {
        let bx = BBox::from_corners(Point::new(5.0, 9.0), Point::new(1.0, 2.0));
        assert_eq!((bx.x, bx.y, bx.w, bx.h), (1.0, 2.0, 4.0, 7.0));
    }

    #[test]
    fn identical_boxes_have_iou_one() {
        let bx = b(0.0, 0.0, 10.0, 10.0);
        assert!((bx.iou(&bx) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn disjoint_boxes_have_iou_zero() {
        assert_eq!(b(0.0, 0.0, 1.0, 1.0).iou(&b(5.0, 5.0, 1.0, 1.0)), 0.0);
    }

    #[test]
    fn touching_boxes_have_iou_zero() {
        // Sharing only an edge: zero-area intersection.
        assert_eq!(b(0.0, 0.0, 1.0, 1.0).iou(&b(1.0, 0.0, 1.0, 1.0)), 0.0);
    }

    #[test]
    fn half_overlap_iou() {
        // Two 2x2 boxes overlapping in a 1x2 strip: inter 2, union 6.
        let a = b(0.0, 0.0, 2.0, 2.0);
        let c = b(1.0, 0.0, 2.0, 2.0);
        assert!((a.iou(&c) - 2.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn empty_box_iou_with_itself_is_zero() {
        let e = b(3.0, 3.0, 0.0, 0.0);
        assert_eq!(e.iou(&e), 0.0);
    }

    #[test]
    fn coverage_by_full_and_partial() {
        let inner = b(2.0, 2.0, 2.0, 2.0);
        let outer = b(0.0, 0.0, 10.0, 10.0);
        assert_eq!(inner.coverage_by(&outer), 1.0);
        assert_eq!(outer.coverage_by(&inner), 4.0 / 100.0);
    }

    #[test]
    fn union_rect_encloses_both() {
        let a = b(0.0, 0.0, 1.0, 1.0);
        let c = b(5.0, 7.0, 2.0, 1.0);
        let u = a.union_rect(&c);
        assert_eq!((u.x, u.y, u.x2(), u.y2()), (0.0, 0.0, 7.0, 8.0));
    }

    #[test]
    fn contains_is_edge_inclusive() {
        let bx = b(0.0, 0.0, 2.0, 2.0);
        assert!(bx.contains(&Point::new(0.0, 0.0)));
        assert!(bx.contains(&Point::new(2.0, 2.0)));
        assert!(!bx.contains(&Point::new(2.0001, 1.0)));
    }

    #[test]
    fn clip_to_viewport() {
        let v = b(0.0, 0.0, 100.0, 100.0);
        let partly = b(-10.0, -10.0, 20.0, 20.0);
        let clipped = partly.clip_to(&v).unwrap();
        assert_eq!(
            (clipped.x, clipped.y, clipped.w, clipped.h),
            (0.0, 0.0, 10.0, 10.0)
        );
        assert!(b(200.0, 200.0, 5.0, 5.0).clip_to(&v).is_none());
    }

    #[test]
    fn cxcysr_round_trip() {
        let bx = b(10.0, 20.0, 30.0, 15.0);
        let back = BBox::from_cxcysr(bx.to_cxcysr());
        assert!((back.x - bx.x).abs() < 1e-9);
        assert!((back.y - bx.y).abs() < 1e-9);
        assert!((back.w - bx.w).abs() < 1e-9);
        assert!((back.h - bx.h).abs() < 1e-9);
    }

    #[test]
    fn cxcysr_degenerate_is_safe() {
        let bx = BBox::from_cxcysr([5.0, 5.0, 0.0, 1.0]);
        assert!(bx.is_empty());
        assert_eq!(bx.center(), Point::new(5.0, 5.0));
    }

    #[test]
    fn scale_about_center_keeps_center() {
        let bx = b(0.0, 0.0, 4.0, 8.0);
        let s = bx.scale_about_center(0.5);
        assert_eq!(s.center(), bx.center());
        assert_eq!((s.w, s.h), (2.0, 4.0));
    }
}
