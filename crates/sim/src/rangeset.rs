//! A set of disjoint byte ranges.
//!
//! Receivers use this to track which bytes of a message have arrived (and so
//! which arriving bytes are new vs. duplicates), and senders use it to track
//! acknowledged data. Ranges are half-open `[start, end)`.

use std::ops::Range;

/// Set of disjoint, coalesced half-open byte ranges.
///
/// The ranges are a sorted run list searched by bisection. Up to one run is
/// kept inline, so a ledger that only ever grows in order never allocates;
/// the list moves to the heap when a second run appears and stays there.
#[derive(Debug, Clone, Default)]
pub struct RangeSet {
    runs: Runs,
    total: u64,
}

/// The runs: ascending, disjoint, non-empty and non-adjacent.
#[derive(Debug, Clone)]
enum Runs {
    /// No run (`start == end`) or one.
    One((u64, u64)),
    /// Any number, once a second run has appeared.
    Many(Vec<(u64, u64)>),
}

impl Default for Runs {
    fn default() -> Runs {
        Runs::One((0, 0))
    }
}

impl Runs {
    #[inline]
    fn as_slice(&self) -> &[(u64, u64)] {
        match self {
            Runs::One(r) if r.0 < r.1 => std::slice::from_ref(r),
            Runs::One(_) => &[],
            Runs::Many(v) => v,
        }
    }

    /// Replace the runs at indices `at` with `with` (at most two runs).
    #[inline]
    fn splice(&mut self, at: Range<usize>, with: &[(u64, u64)]) {
        match self {
            Runs::Many(v) if at.len() == with.len() => v[at].copy_from_slice(with),
            Runs::Many(v) => {
                v.splice(at, with.iter().copied());
            }
            Runs::One(r) => {
                let old = [*r];
                let old = &old[..usize::from(r.0 < r.1)];
                let len = old.len() - at.len() + with.len();
                if len > 1 {
                    let mut v = Vec::with_capacity(4);
                    v.extend_from_slice(&old[..at.start]);
                    v.extend_from_slice(with);
                    v.extend_from_slice(&old[at.end..]);
                    *self = Runs::Many(v);
                } else if let Some(&w) = with.first() {
                    *r = w;
                } else if len == 0 {
                    *r = (0, 0);
                }
            }
        }
    }
}

impl RangeSet {
    /// An empty set.
    pub fn new() -> RangeSet {
        RangeSet::default()
    }

    /// Insert `[start, end)`, returning the number of bytes newly covered
    /// (0 when the range was already fully present — i.e. a duplicate).
    ///
    /// Duplicates change nothing, and extending a run (in-order data)
    /// rewrites it in place: neither touches the allocator.
    pub fn insert(&mut self, start: u64, end: u64) -> u64 {
        if start >= end {
            return 0;
        }
        let runs = self.runs.as_slice();
        // The runs that overlap or touch `[start, end)`: from the first that
        // ends at or after `start` to the last that starts at or before `end`.
        let i = runs.partition_point(|r| r.1 < start);
        let j = i + runs[i..].partition_point(|r| r.0 <= end);
        let mut merged = (start, end);
        let mut absorbed = 0;
        for &(s, e) in &runs[i..j] {
            merged = (merged.0.min(s), merged.1.max(e));
            absorbed += e - s;
        }
        let added = (merged.1 - merged.0) - absorbed;
        if added > 0 {
            self.runs.splice(i..j, &[merged]);
            self.total += added;
        }
        added
    }

    /// Whether `[start, end)` is fully covered.
    pub fn contains(&self, start: u64, end: u64) -> bool {
        if start >= end {
            return true;
        }
        let runs = self.runs.as_slice();
        // Only the first run reaching `end` can cover the range.
        let i = runs.partition_point(|r| r.1 < end);
        runs.get(i).is_some_and(|r| r.0 <= start)
    }

    /// Total bytes covered.
    pub fn covered(&self) -> u64 {
        self.total
    }

    /// Gaps (missing sub-ranges) within `[0, upto)`, in order.
    pub fn gaps(&self, upto: u64) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        let mut cursor = 0u64;
        for &(s, e) in self.runs.as_slice() {
            if s >= upto {
                break;
            }
            if s > cursor {
                out.push((cursor, s.min(upto)));
            }
            cursor = cursor.max(e);
        }
        if cursor < upto {
            out.push((cursor, upto));
        }
        out
    }

    /// The runs that overlap `[start, end)` (which must not be empty).
    #[inline]
    fn overlapping(&self, start: u64, end: u64) -> (usize, &[(u64, u64)]) {
        let runs = self.runs.as_slice();
        let i = runs.partition_point(|r| r.1 <= start);
        let n = runs[i..].partition_point(|r| r.0 < end);
        (i, &runs[i..i + n])
    }

    /// Number of covered bytes within `[start, end)`.
    pub fn covered_in(&self, start: u64, end: u64) -> u64 {
        if start >= end {
            return 0;
        }
        let (_, runs) = self.overlapping(start, end);
        runs.iter().map(|&(s, e)| e.min(end) - s.max(start)).sum()
    }

    /// First uncovered sub-range within `[start, end)`, if any.
    pub fn first_uncovered_in(&self, start: u64, end: u64) -> Option<(u64, u64)> {
        if start >= end {
            return None;
        }
        let (_, mut runs) = self.overlapping(start, end);
        let mut cursor = start;
        // A run covering `start` moves the cursor to its end; the next one
        // (runs never touch) begins strictly after that.
        if let Some(&(s, e)) = runs.first() {
            if s <= cursor {
                cursor = e;
                runs = &runs[1..];
            }
        }
        if cursor >= end {
            return None;
        }
        Some((cursor, runs.first().map_or(end, |r| r.0)))
    }

    /// Length of the prefix `[0, n)` fully covered (the cumulative ACK point).
    pub fn contiguous_prefix(&self) -> u64 {
        match self.runs.as_slice().first() {
            Some(&(0, e)) => e,
            _ => 0,
        }
    }

    /// Remove `[start, end)`, returning the number of bytes actually
    /// uncovered (0 when nothing in the range was present). The inverse of
    /// [`RangeSet::insert`]: senders use it to retire acknowledged data that
    /// later proves stale (e.g. a receiver resetting its reassembly state).
    pub fn remove(&mut self, start: u64, end: u64) -> u64 {
        if start >= end {
            return 0;
        }
        let (i, runs) = self.overlapping(start, end);
        let (Some(&(first, _)), Some(&(_, last))) = (runs.first(), runs.last()) else {
            return 0;
        };
        let removed: u64 = runs.iter().map(|&(s, e)| e.min(end) - s.max(start)).sum();
        let j = i + runs.len();
        // What survives: the head of the first run and the tail of the last.
        let mut keep = [(0, 0); 2];
        let mut n = 0;
        if first < start {
            keep[n] = (first, start);
            n += 1;
        }
        if last > end {
            keep[n] = (end, last);
            n += 1;
        }
        self.runs.splice(i..j, &keep[..n]);
        self.total -= removed;
        removed
    }

    /// The stored disjoint, coalesced ranges in ascending order.
    pub fn ranges(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.runs.as_slice().iter().copied()
    }

    /// Number of stored disjoint ranges (for tests).
    pub fn fragments(&self) -> usize {
        self.runs.as_slice().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inserts_count_new_bytes_once() {
        let mut rs = RangeSet::new();
        assert_eq!(rs.insert(0, 10), 10);
        assert_eq!(rs.insert(0, 10), 0, "duplicate adds nothing");
        assert_eq!(rs.insert(5, 15), 5, "overlap counts only the new part");
        assert_eq!(rs.covered(), 15);
        assert_eq!(rs.fragments(), 1);
    }

    #[test]
    fn adjacent_ranges_coalesce() {
        let mut rs = RangeSet::new();
        rs.insert(0, 10);
        rs.insert(10, 20);
        assert_eq!(rs.fragments(), 1);
        assert!(rs.contains(0, 20));
    }

    #[test]
    fn disjoint_ranges_and_gaps() {
        let mut rs = RangeSet::new();
        rs.insert(10, 20);
        rs.insert(30, 40);
        assert_eq!(rs.gaps(50), vec![(0, 10), (20, 30), (40, 50)]);
        assert_eq!(rs.contiguous_prefix(), 0);
        rs.insert(0, 10);
        assert_eq!(rs.contiguous_prefix(), 20);
    }

    #[test]
    fn insert_bridging_many_ranges() {
        let mut rs = RangeSet::new();
        rs.insert(0, 5);
        rs.insert(10, 15);
        rs.insert(20, 25);
        // Bridge everything.
        assert_eq!(rs.insert(3, 22), 10);
        assert_eq!(rs.fragments(), 1);
        assert!(rs.contains(0, 25));
        assert_eq!(rs.covered(), 25);
    }

    #[test]
    fn contains_partial_is_false() {
        let mut rs = RangeSet::new();
        rs.insert(0, 10);
        assert!(!rs.contains(5, 15));
        assert!(rs.contains(2, 8));
        assert!(rs.contains(7, 7), "empty range trivially contained");
    }

    #[test]
    fn gaps_clip_to_upto() {
        let mut rs = RangeSet::new();
        rs.insert(5, 100);
        assert_eq!(rs.gaps(10), vec![(0, 5)]);
        assert_eq!(rs.gaps(3), vec![(0, 3)]);
    }

    #[test]
    fn covered_in_counts_partial_overlaps() {
        let mut rs = RangeSet::new();
        rs.insert(10, 20);
        rs.insert(30, 40);
        assert_eq!(rs.covered_in(0, 50), 20);
        assert_eq!(rs.covered_in(15, 35), 10);
        assert_eq!(rs.covered_in(12, 18), 6);
        assert_eq!(rs.covered_in(20, 30), 0);
        assert_eq!(rs.covered_in(40, 40), 0);
    }

    #[test]
    fn first_uncovered_walks_holes() {
        let mut rs = RangeSet::new();
        rs.insert(0, 10);
        rs.insert(20, 30);
        assert_eq!(rs.first_uncovered_in(0, 40), Some((10, 20)));
        assert_eq!(rs.first_uncovered_in(25, 40), Some((30, 40)));
        assert_eq!(rs.first_uncovered_in(0, 10), None);
        assert_eq!(rs.first_uncovered_in(5, 15), Some((10, 15)));
        assert_eq!(rs.first_uncovered_in(12, 18), Some((12, 18)));
        let empty = RangeSet::new();
        assert_eq!(empty.first_uncovered_in(3, 7), Some((3, 7)));
        assert_eq!(empty.first_uncovered_in(7, 7), None);
    }

    #[test]
    fn empty_insert_is_noop() {
        let mut rs = RangeSet::new();
        assert_eq!(rs.insert(5, 5), 0);
        assert_eq!(rs.covered(), 0);
        assert_eq!(rs.fragments(), 0);
    }

    #[test]
    fn remove_splits_straddled_range() {
        let mut rs = RangeSet::new();
        rs.insert(0, 100);
        assert_eq!(rs.remove(40, 60), 20);
        assert_eq!(rs.covered(), 80);
        assert_eq!(rs.ranges().collect::<Vec<_>>(), vec![(0, 40), (60, 100)]);
        assert!(!rs.contains(40, 41));
        assert!(rs.contains(0, 40));
        assert!(rs.contains(60, 100));
    }

    #[test]
    fn remove_spanning_many_ranges() {
        let mut rs = RangeSet::new();
        rs.insert(0, 10);
        rs.insert(20, 30);
        rs.insert(40, 50);
        // Clips the first, swallows the second, clips the third.
        assert_eq!(rs.remove(5, 45), 20);
        assert_eq!(rs.ranges().collect::<Vec<_>>(), vec![(0, 5), (45, 50)]);
        assert_eq!(rs.covered(), 10);
    }

    #[test]
    fn remove_exact_range_and_misses() {
        let mut rs = RangeSet::new();
        rs.insert(10, 20);
        assert_eq!(rs.remove(0, 10), 0, "adjacent-left removes nothing");
        assert_eq!(rs.remove(20, 30), 0, "adjacent-right removes nothing");
        assert_eq!(rs.remove(15, 15), 0, "empty range removes nothing");
        assert_eq!(rs.remove(10, 20), 10, "exact overlap removes all");
        assert_eq!(rs.fragments(), 0);
        assert_eq!(rs.covered(), 0);
    }

    /// Byte-per-byte reference model over a small universe.
    struct Naive {
        v: Vec<bool>,
    }

    impl Naive {
        fn new(n: usize) -> Naive {
            Naive { v: vec![false; n] }
        }
        fn insert(&mut self, s: u64, e: u64) -> u64 {
            let mut added = 0;
            for i in s..e {
                if !self.v[i as usize] {
                    self.v[i as usize] = true;
                    added += 1;
                }
            }
            added
        }
        fn remove(&mut self, s: u64, e: u64) -> u64 {
            let mut removed = 0;
            for i in s..e {
                if self.v[i as usize] {
                    self.v[i as usize] = false;
                    removed += 1;
                }
            }
            removed
        }
        fn ranges(&self) -> Vec<(u64, u64)> {
            let mut out: Vec<(u64, u64)> = Vec::new();
            for (i, &b) in self.v.iter().enumerate() {
                if b {
                    match out.last_mut() {
                        Some(last) if last.1 == i as u64 => last.1 += 1,
                        _ => out.push((i as u64, i as u64 + 1)),
                    }
                }
            }
            out
        }
        fn covered_in(&self, s: u64, e: u64) -> u64 {
            (s..e).filter(|&i| self.v[i as usize]).count() as u64
        }
    }

    /// The coalescing representation invariant: ranges ascend, are disjoint,
    /// non-empty, non-adjacent, and sum to `covered()`.
    fn check_invariants(rs: &RangeSet) {
        let mut prev_end: Option<u64> = None;
        let mut sum = 0;
        for (s, e) in rs.ranges() {
            assert!(s < e, "empty stored range [{s}, {e})");
            if let Some(p) = prev_end {
                assert!(s > p, "ranges out of order or adjacent: prev end {p}, next start {s}");
            }
            sum += e - s;
            prev_end = Some(e);
        }
        assert_eq!(sum, rs.covered(), "covered() disagrees with stored ranges");
    }

    #[test]
    fn random_op_sequences_match_naive_model() {
        const UNIVERSE: u64 = 257;
        for seed in 0..32u64 {
            let mut rng = crate::rng::SimRng::seed_from_u64(0xC0FFEE ^ seed);
            let mut rs = RangeSet::new();
            let mut model = Naive::new(UNIVERSE as usize);
            for _ in 0..400 {
                let a = rng.below(UNIVERSE);
                let b = rng.below(UNIVERSE);
                // Bias toward small, often-adjacent ranges; keep some empty
                // (a == b) and inverted-ish pairs resolved by min/max.
                let (s, e) = (a.min(b), a.max(b).min(a.min(b) + rng.below(24)));
                match rng.below(4) {
                    0 => assert_eq!(rs.remove(s, e), model.remove(s, e), "remove [{s}, {e})"),
                    _ => assert_eq!(rs.insert(s, e), model.insert(s, e), "insert [{s}, {e})"),
                }
                check_invariants(&rs);
            }
            // Full-state agreement, including iteration order.
            assert_eq!(rs.ranges().collect::<Vec<_>>(), model.ranges(), "seed {seed}");
            // Spot-check queries against the model.
            for _ in 0..50 {
                let a = rng.below(UNIVERSE);
                let b = rng.below(UNIVERSE);
                let (s, e) = (a.min(b), a.max(b));
                assert_eq!(rs.covered_in(s, e), model.covered_in(s, e));
                assert_eq!(rs.contains(s, e), model.covered_in(s, e) == e - s);
                if s < e {
                    let gap = rs.first_uncovered_in(s, e);
                    match gap {
                        None => assert_eq!(model.covered_in(s, e), e - s),
                        Some((gs, ge)) => {
                            assert!(gs >= s && ge <= e && gs < ge);
                            assert_eq!(model.covered_in(gs, ge), 0);
                            assert_eq!(model.covered_in(s, gs), gs - s);
                        }
                    }
                }
            }
            let upto = rng.range_u64(1, UNIVERSE);
            let gaps = rs.gaps(upto);
            let mut uncovered = 0;
            for &(s, e) in &gaps {
                assert!(s < e && e <= upto);
                assert_eq!(model.covered_in(s, e), 0, "gap [{s}, {e}) not empty in model");
                uncovered += e - s;
            }
            assert_eq!(uncovered, upto - model.covered_in(0, upto));
        }
    }
}
