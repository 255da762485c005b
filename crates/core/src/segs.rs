//! [`SegmentSet`]: a normalized set of disjoint time segments.
//!
//! This is the workhorse of the crate. A job's schedule (Definition 2.1(a))
//! is a `SegmentSet` inside its window; a machine's busy time is the union of
//! its jobs' `SegmentSet`s; the idle timeline that the Leftmost Schedule
//! Algorithm searches is the complement of a `SegmentSet` within a window.
//!
//! Invariant ("normal form"): segments are non-empty, sorted by start, and
//! pairwise *non-touching* (`a.end < b.start` for consecutive `a`, `b`).
//! Touching segments are coalesced on construction, so `segments().len() - 1`
//! is exactly the number of preemptions a job with this schedule suffers.

use crate::time::{Interval, Time};

/// A normalized (sorted, disjoint, coalesced) set of time segments.
///
/// ```
/// use pobp_core::{Interval, SegmentSet};
///
/// // Touching segments coalesce; order does not matter.
/// let s = SegmentSet::from_intervals([
///     Interval::new(5, 9),
///     Interval::new(0, 3),
///     Interval::new(3, 5),
/// ]);
/// assert_eq!(s.count(), 1);
/// assert_eq!(s.total_len(), 9);
/// let idle = s.complement_within(&Interval::new(-2, 12));
/// assert_eq!(idle.segments(), &[Interval::new(-2, 0), Interval::new(9, 12)]);
/// ```
#[derive(Clone, PartialEq, Eq, Default)]
pub struct SegmentSet {
    segs: Vec<Interval>,
}

impl std::fmt::Debug for SegmentSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.segs.iter()).finish()
    }
}

impl SegmentSet {
    /// The empty set.
    #[inline]
    pub fn new() -> Self {
        SegmentSet { segs: Vec::new() }
    }

    /// A set holding a single interval (or empty, if the interval is empty).
    pub fn singleton(iv: Interval) -> Self {
        if iv.is_empty() {
            Self::new()
        } else {
            SegmentSet { segs: vec![iv] }
        }
    }

    /// Builds a normalized set from arbitrary (possibly overlapping,
    /// touching, unsorted, empty) intervals.
    ///
    /// Input already in normal form that fills its collected vector exactly
    /// (an exact-size `Vec` of non-empty intervals passed in whole) becomes
    /// the set's storage as it is, with no sort and no second allocation.
    /// Any other input is sorted and coalesced into a vector of its own, so
    /// no set keeps the spare capacity of a growing collection.
    pub fn from_intervals<I: IntoIterator<Item = Interval>>(ivs: I) -> Self {
        let mut v: Vec<Interval> = ivs.into_iter().filter(|i| !i.is_empty()).collect();
        if v.len() == v.capacity() && v.windows(2).all(|w| w[0].end < w[1].start) {
            return SegmentSet { segs: v };
        }
        v.sort_unstable_by_key(|i| (i.start, i.end));
        let mut out: Vec<Interval> = Vec::with_capacity(v.len());
        for iv in v {
            match out.last_mut() {
                // Coalesce overlapping *and* touching segments.
                Some(last) if iv.start <= last.end => last.end = last.end.max(iv.end),
                _ => out.push(iv),
            }
        }
        SegmentSet { segs: out }
    }

    /// The segments in normal form (sorted, disjoint, non-touching).
    #[inline]
    pub fn segments(&self) -> &[Interval] {
        &self.segs
    }

    /// Number of segments in normal form.
    #[inline]
    pub fn count(&self) -> usize {
        self.segs.len()
    }

    /// Whether the set covers no ticks.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.segs.is_empty()
    }

    /// Total number of ticks covered (`Σ |g|` of Definition 2.1(a)).
    pub fn total_len(&self) -> Time {
        self.segs.iter().map(Interval::len).sum()
    }

    /// Earliest covered tick, if any.
    pub fn min_start(&self) -> Option<Time> {
        self.segs.first().map(|s| s.start)
    }

    /// Tick just past the latest covered tick, if any.
    pub fn max_end(&self) -> Option<Time> {
        self.segs.last().map(|s| s.end)
    }

    /// The smallest interval containing the whole set, if non-empty.
    pub fn span(&self) -> Option<Interval> {
        match (self.min_start(), self.max_end()) {
            (Some(s), Some(e)) => Some(Interval::new(s, e)),
            _ => None,
        }
    }

    /// Whether `t` is covered.
    pub fn contains_point(&self, t: Time) -> bool {
        // Binary search on start; candidate is the last segment with start <= t.
        match self.segs.partition_point(|s| s.start <= t) {
            0 => false,
            i => self.segs[i - 1].contains_point(t),
        }
    }

    /// Whether every tick of `iv` is covered.
    pub fn covers(&self, iv: &Interval) -> bool {
        if iv.is_empty() {
            return true;
        }
        match self.segs.partition_point(|s| s.start <= iv.start) {
            0 => false,
            i => self.segs[i - 1].contains(iv),
        }
    }

    /// Whether the set shares at least one tick with `iv`.
    pub fn intersects(&self, iv: &Interval) -> bool {
        if iv.is_empty() {
            return false;
        }
        let i = self.segs.partition_point(|s| s.end <= iv.start);
        self.segs.get(i).is_some_and(|s| s.overlaps(iv))
    }

    /// Whether the set shares at least one tick with `other`.
    pub fn intersects_set(&self, other: &SegmentSet) -> bool {
        // Merge-scan; both sides are sorted.
        let (mut i, mut j) = (0, 0);
        while i < self.segs.len() && j < other.segs.len() {
            if self.segs[i].overlaps(&other.segs[j]) {
                return true;
            }
            if self.segs[i].end <= other.segs[j].end {
                i += 1;
            } else {
                j += 1;
            }
        }
        false
    }

    /// Set union.
    pub fn union(&self, other: &SegmentSet) -> SegmentSet {
        // Merge two sorted lists, then coalesce in one pass.
        let mut merged: Vec<Interval> = Vec::with_capacity(self.segs.len() + other.segs.len());
        let (mut i, mut j) = (0, 0);
        while i < self.segs.len() || j < other.segs.len() {
            let take_left = match (self.segs.get(i), other.segs.get(j)) {
                (Some(a), Some(b)) => a.start <= b.start,
                (Some(_), None) => true,
                _ => false,
            };
            let iv = if take_left {
                i += 1;
                self.segs[i - 1]
            } else {
                j += 1;
                other.segs[j - 1]
            };
            match merged.last_mut() {
                // Coalesce overlapping and touching segments.
                Some(last) if iv.start <= last.end => last.end = last.end.max(iv.end),
                _ => merged.push(iv),
            }
        }
        SegmentSet { segs: merged }
    }

    /// Set intersection.
    pub fn intersect_set(&self, other: &SegmentSet) -> SegmentSet {
        let mut out = Vec::new();
        let (mut i, mut j) = (0, 0);
        while i < self.segs.len() && j < other.segs.len() {
            if let Some(iv) = self.segs[i].intersect(&other.segs[j]) {
                out.push(iv);
            }
            if self.segs[i].end <= other.segs[j].end {
                i += 1;
            } else {
                j += 1;
            }
        }
        SegmentSet { segs: out }
    }

    /// Restriction of the set to `window` (intersection with one interval).
    pub fn clip(&self, window: &Interval) -> SegmentSet {
        let mut out = Vec::new();
        let start = self.segs.partition_point(|s| s.end <= window.start);
        for s in &self.segs[start..] {
            if s.start >= window.end {
                break;
            }
            if let Some(iv) = s.intersect(window) {
                out.push(iv);
            }
        }
        SegmentSet { segs: out }
    }

    /// Set difference `self \ other`.
    pub fn subtract(&self, other: &SegmentSet) -> SegmentSet {
        let mut out = Vec::new();
        let mut j = 0;
        for &s in &self.segs {
            let mut cur = s.start;
            // Skip blockers entirely before this segment.
            while j < other.segs.len() && other.segs[j].end <= s.start {
                j += 1;
            }
            let mut jj = j;
            while jj < other.segs.len() && other.segs[jj].start < s.end {
                let b = other.segs[jj];
                if b.start > cur {
                    out.push(Interval::new(cur, b.start.min(s.end)));
                }
                cur = cur.max(b.end);
                if cur >= s.end {
                    break;
                }
                jj += 1;
            }
            if cur < s.end {
                out.push(Interval::new(cur, s.end));
            }
        }
        SegmentSet { segs: out }
    }

    /// Complement of the set within `window`: the *idle* segments of a busy
    /// timeline, clipped to a job's `[r_j, d_j)` window.
    pub fn complement_within(&self, window: &Interval) -> SegmentSet {
        SegmentSet::singleton(*window).subtract(self)
    }

    /// Adds one interval in place (keeping normal form).
    pub fn insert(&mut self, iv: Interval) {
        if iv.is_empty() {
            return;
        }
        // Find the range of existing segments that overlap or touch `iv`.
        let lo = self.segs.partition_point(|s| s.end < iv.start);
        let hi = self.segs.partition_point(|s| s.start <= iv.end);
        if lo == hi {
            self.segs.insert(lo, iv);
        } else {
            let start = iv.start.min(self.segs[lo].start);
            let end = iv.end.max(self.segs[hi - 1].end);
            self.segs.splice(lo..hi, std::iter::once(Interval::new(start, end)));
        }
    }

    /// Removes one interval in place.
    pub fn remove(&mut self, iv: Interval) {
        if iv.is_empty() || self.segs.is_empty() {
            return;
        }
        *self = self.subtract(&SegmentSet::singleton(iv));
    }

    /// The leftmost covered sub-interval of length exactly `len` that starts
    /// no earlier than `from`, staying within a single segment.
    ///
    /// Used by the en-bloc (k = 0) scheduler: "find the leftmost idle slot
    /// that fits the whole job".
    pub fn leftmost_fit(&self, len: Time, from: Time) -> Option<Interval> {
        debug_assert!(len > 0);
        for s in &self.segs {
            let start = s.start.max(from);
            if start + len <= s.end {
                return Some(Interval::with_len(start, len));
            }
        }
        None
    }

    /// Iterates over the segments.
    pub fn iter(&self) -> std::slice::Iter<'_, Interval> {
        self.segs.iter()
    }
}

impl FromIterator<Interval> for SegmentSet {
    fn from_iter<I: IntoIterator<Item = Interval>>(iter: I) -> Self {
        SegmentSet::from_intervals(iter)
    }
}

impl<'a> IntoIterator for &'a SegmentSet {
    type Item = &'a Interval;
    type IntoIter = std::slice::Iter<'a, Interval>;
    fn into_iter(self) -> Self::IntoIter {
        self.segs.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ss(pairs: &[(Time, Time)]) -> SegmentSet {
        SegmentSet::from_intervals(pairs.iter().map(|&(a, b)| Interval::new(a, b)))
    }

    #[test]
    fn construction_normalizes() {
        let s = ss(&[(5, 9), (0, 3), (3, 5), (20, 20), (15, 18)]);
        // [0,3) and [3,5) and [5,9) coalesce; empty [20,20) dropped.
        assert_eq!(s.segments(), &[Interval::new(0, 9), Interval::new(15, 18)]);
        assert_eq!(s.total_len(), 12);
        assert_eq!(s.count(), 2);
    }

    #[test]
    fn construction_overlapping() {
        let s = ss(&[(0, 10), (2, 4), (8, 15), (14, 16)]);
        assert_eq!(s.segments(), &[Interval::new(0, 16)]);
    }

    #[test]
    fn empty_set_properties() {
        let s = SegmentSet::new();
        assert!(s.is_empty());
        assert_eq!(s.total_len(), 0);
        assert_eq!(s.span(), None);
        assert!(!s.contains_point(0));
        assert!(!s.intersects(&Interval::new(0, 100)));
        assert!(s.covers(&Interval::new(3, 3))); // empty interval trivially covered
    }

    #[test]
    fn point_queries() {
        let s = ss(&[(0, 3), (10, 12)]);
        assert!(s.contains_point(0));
        assert!(s.contains_point(2));
        assert!(!s.contains_point(3));
        assert!(!s.contains_point(9));
        assert!(s.contains_point(10));
        assert!(s.contains_point(11));
        assert!(!s.contains_point(12));
    }

    #[test]
    fn covers_and_intersects() {
        let s = ss(&[(0, 5), (10, 20)]);
        assert!(s.covers(&Interval::new(1, 4)));
        assert!(s.covers(&Interval::new(10, 20)));
        assert!(!s.covers(&Interval::new(4, 11)));
        assert!(s.intersects(&Interval::new(4, 11)));
        assert!(!s.intersects(&Interval::new(5, 10)));
        assert!(s.intersects(&Interval::new(5, 11)));
    }

    #[test]
    fn union_and_intersection() {
        let a = ss(&[(0, 5), (10, 15)]);
        let b = ss(&[(3, 12), (14, 20)]);
        assert_eq!(a.union(&b), ss(&[(0, 20)]));
        assert_eq!(a.intersect_set(&b), ss(&[(3, 5), (10, 12), (14, 15)]));
        assert!(a.intersects_set(&b));
        let c = ss(&[(5, 10), (15, 16)]);
        assert!(!a.intersects_set(&c));
        assert_eq!(a.union(&c), ss(&[(0, 16)]));
        assert!(a.intersect_set(&c).is_empty());
    }

    #[test]
    fn union_with_empty() {
        let a = ss(&[(0, 5)]);
        assert_eq!(a.union(&SegmentSet::new()), a);
        assert_eq!(SegmentSet::new().union(&a), a);
    }

    #[test]
    fn subtract_cases() {
        let a = ss(&[(0, 10)]);
        assert_eq!(a.subtract(&ss(&[(3, 5)])), ss(&[(0, 3), (5, 10)]));
        assert_eq!(a.subtract(&ss(&[(0, 10)])), SegmentSet::new());
        assert_eq!(a.subtract(&ss(&[(-5, 2), (8, 20)])), ss(&[(2, 8)]));
        assert_eq!(a.subtract(&ss(&[(10, 20)])), a);
        let b = ss(&[(0, 4), (6, 10), (12, 16)]);
        assert_eq!(b.subtract(&ss(&[(2, 13)])), ss(&[(0, 2), (13, 16)]));
    }

    #[test]
    fn complement_within_window() {
        let busy = ss(&[(2, 4), (6, 8)]);
        let idle = busy.complement_within(&Interval::new(0, 10));
        assert_eq!(idle, ss(&[(0, 2), (4, 6), (8, 10)]));
        // Window entirely busy.
        assert!(busy.complement_within(&Interval::new(2, 4)).is_empty());
        // Window entirely idle.
        assert_eq!(
            busy.complement_within(&Interval::new(20, 25)),
            ss(&[(20, 25)])
        );
    }

    #[test]
    fn clip_window() {
        let s = ss(&[(0, 5), (10, 15), (20, 25)]);
        assert_eq!(s.clip(&Interval::new(3, 22)), ss(&[(3, 5), (10, 15), (20, 22)]));
        assert_eq!(s.clip(&Interval::new(5, 10)), SegmentSet::new());
    }

    #[test]
    fn insert_coalesces() {
        let mut s = ss(&[(0, 3), (10, 12)]);
        s.insert(Interval::new(5, 7));
        assert_eq!(s, ss(&[(0, 3), (5, 7), (10, 12)]));
        s.insert(Interval::new(3, 5)); // touches both sides
        assert_eq!(s, ss(&[(0, 7), (10, 12)]));
        s.insert(Interval::new(6, 11)); // bridges
        assert_eq!(s, ss(&[(0, 12)]));
        s.insert(Interval::new(4, 4)); // empty no-op
        assert_eq!(s, ss(&[(0, 12)]));
    }

    #[test]
    fn insert_before_everything() {
        let mut s = ss(&[(10, 12)]);
        s.insert(Interval::new(0, 2));
        assert_eq!(s, ss(&[(0, 2), (10, 12)]));
    }

    #[test]
    fn remove_in_place() {
        let mut s = ss(&[(0, 10)]);
        s.remove(Interval::new(4, 6));
        assert_eq!(s, ss(&[(0, 4), (6, 10)]));
        s.remove(Interval::new(0, 100));
        assert!(s.is_empty());
    }

    #[test]
    fn leftmost_fit_scans_segments() {
        let idle = ss(&[(0, 2), (5, 8), (12, 30)]);
        assert_eq!(idle.leftmost_fit(2, 0), Some(Interval::new(0, 2)));
        assert_eq!(idle.leftmost_fit(3, 0), Some(Interval::new(5, 8)));
        assert_eq!(idle.leftmost_fit(4, 0), Some(Interval::new(12, 16)));
        assert_eq!(idle.leftmost_fit(4, 13), Some(Interval::new(13, 17)));
        assert_eq!(idle.leftmost_fit(19, 0), None);
        assert_eq!(idle.leftmost_fit(3, 6), Some(Interval::new(12, 15)));
    }

    #[test]
    fn span_and_extremes() {
        let s = ss(&[(3, 5), (10, 12)]);
        assert_eq!(s.min_start(), Some(3));
        assert_eq!(s.max_end(), Some(12));
        assert_eq!(s.span(), Some(Interval::new(3, 12)));
    }

    #[test]
    fn from_iterator_collects() {
        let s: SegmentSet = vec![Interval::new(0, 2), Interval::new(2, 4)].into_iter().collect();
        assert_eq!(s, ss(&[(0, 4)]));
    }
}
