//! Automatically inferred indices on date attributes (Section 3.2.3).
//!
//! LegoBase groups the tuples of every date attribute by *year* at load time,
//! "forming a two-dimensional array where each bucket holds all tuples of a
//! particular year". A range predicate then checks one representative per
//! bucket (Fig. 12b): fully-covered years are emitted without any per-tuple
//! comparison, other years are skipped wholesale, and only boundary years
//! fall back to per-tuple checks.

use crate::date::Date;

/// One year bucket intersecting a queried date range: an offset range into
/// [`DateYearIndex::row_ids`], plus whether the year is fully covered.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RangeSegment {
    /// First offset into the row-id store (inclusive).
    pub start: usize,
    /// One past the last offset.
    pub end: usize,
    /// `true` when every row of the bucket matches without a date check.
    pub full: bool,
}

/// Year-bucketed index over a date column, in CSR layout.
#[derive(Clone, Debug)]
pub struct DateYearIndex {
    first_year: i32,
    /// `offsets[y - first_year] .. offsets[y - first_year + 1]` delimits the
    /// bucket of year `y` inside `rows`.
    offsets: Vec<u32>,
    /// Row ids grouped by year (order within a year preserved).
    rows: Vec<u32>,
}

impl DateYearIndex {
    /// Builds the index from raw day counts (the storage representation of
    /// a date column).
    pub fn build(days: &[i32]) -> DateYearIndex {
        if days.is_empty() {
            return DateYearIndex { first_year: 0, offsets: vec![0], rows: Vec::new() };
        }
        let years: Vec<i32> = days.iter().map(|&d| Date(d).year()).collect();
        let first_year = *years.iter().min().expect("non-empty");
        let last_year = *years.iter().max().expect("non-empty");
        let nyears = (last_year - first_year + 1) as usize;
        let mut offsets = vec![0u32; nyears + 1];
        for &y in &years {
            offsets[(y - first_year) as usize + 1] += 1;
        }
        for i in 0..nyears {
            offsets[i + 1] += offsets[i];
        }
        let mut cursor = offsets.clone();
        let mut rows = vec![0u32; days.len()];
        for (row, &y) in years.iter().enumerate() {
            let b = (y - first_year) as usize;
            rows[cursor[b] as usize] = row as u32;
            cursor[b] += 1;
        }
        DateYearIndex { first_year, offsets, rows }
    }

    fn year_range(&self) -> std::ops::Range<i32> {
        self.first_year..self.first_year + (self.offsets.len() as i32 - 1)
    }

    fn bucket(&self, year: i32) -> &[u32] {
        let idx = (year - self.first_year) as usize;
        let lo = self.offsets[idx] as usize;
        let hi = self.offsets[idx + 1] as usize;
        &self.rows[lo..hi]
    }

    /// The row ids grouped by year (the backing store [`Self::range_segments`]
    /// offsets index into).
    pub fn row_ids(&self) -> &[u32] {
        &self.rows
    }

    /// The year buckets intersecting `[lo, hi]`, as offset ranges into
    /// [`Self::row_ids`] plus a flag telling whether the bucket's year is
    /// *fully* covered by the range (no per-tuple comparison needed) or is a
    /// boundary year (each row's date must still be checked).
    ///
    /// Consuming the segments in order — and the rows within each segment in
    /// order — visits candidate rows in exactly the order
    /// [`Self::scan_range`] emits them, which is what lets the morsel-driven
    /// parallel scan partition an index scan and still concatenate a
    /// bit-identical selection vector.
    pub fn range_segments(&self, lo: Date, hi: Date) -> Vec<RangeSegment> {
        self.segments(lo, hi).collect()
    }

    /// How many rows the year buckets intersecting `[lo, hi]` hold — an
    /// upper bound on the rows the range keeps, counted without allocating.
    pub fn range_candidates(&self, lo: Date, hi: Date) -> usize {
        self.segments(lo, hi).map(|s| s.end - s.start).sum()
    }

    fn segments(&self, lo: Date, hi: Date) -> impl Iterator<Item = RangeSegment> + '_ {
        let years = if lo > hi { 0..0 } else { lo.year()..hi.year() + 1 };
        self.year_range().filter(move |y| years.contains(y)).filter_map(move |year| {
            let idx = (year - self.first_year) as usize;
            let full = Date::from_ymd(year, 1, 1) >= lo && Date::from_ymd(year, 12, 31) <= hi;
            let (start, end) = (self.offsets[idx] as usize, self.offsets[idx + 1] as usize);
            (start < end).then_some(RangeSegment { start, end, full })
        })
    }

    /// Visits every row whose date lies in `[lo, hi]` (inclusive), skipping
    /// non-matching years entirely and skipping the per-tuple comparison for
    /// fully-covered years. `days` must be the column the index was built on.
    pub fn scan_range(&self, days: &[i32], lo: Date, hi: Date, mut emit: impl FnMut(u32)) {
        for seg in self.range_segments(lo, hi) {
            let bucket = &self.rows[seg.start..seg.end];
            if seg.full {
                // Fully covered: no per-tuple comparison at all.
                for &row in bucket {
                    emit(row);
                }
            } else {
                for &row in bucket {
                    let d = days[row as usize];
                    if d >= lo.0 && d <= hi.0 {
                        emit(row);
                    }
                }
            }
        }
    }

    /// Number of rows per year, for inspection/statistics.
    pub fn bucket_sizes(&self) -> Vec<(i32, usize)> {
        self.year_range().map(|y| (y, self.bucket(y).len())).collect()
    }

    /// Approximate resident bytes (Fig. 20 accounting).
    pub fn approx_bytes(&self) -> usize {
        self.offsets.capacity() * 4 + self.rows.capacity() * 4
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn column() -> Vec<i32> {
        // Dates spread over 1992–1998, deliberately unsorted.
        let mut days = Vec::new();
        for (y, m, d) in [
            (1995, 6, 15),
            (1992, 1, 1),
            (1998, 12, 31),
            (1995, 1, 1),
            (1993, 7, 4),
            (1995, 12, 31),
            (1996, 2, 29),
            (1992, 11, 30),
        ] {
            days.push(Date::from_ymd(y, m, d).0);
        }
        days
    }

    fn scan_naive(days: &[i32], lo: Date, hi: Date) -> Vec<u32> {
        days.iter()
            .enumerate()
            .filter(|(_, &d)| d >= lo.0 && d <= hi.0)
            .map(|(i, _)| i as u32)
            .collect()
    }

    #[test]
    fn range_scan_matches_naive_filter() {
        let days = column();
        let idx = DateYearIndex::build(&days);
        let cases = [
            (Date::from_ymd(1995, 1, 1), Date::from_ymd(1995, 12, 31)), // exact year
            (Date::from_ymd(1994, 6, 1), Date::from_ymd(1996, 6, 1)),   // straddles years
            (Date::from_ymd(1992, 1, 1), Date::from_ymd(1998, 12, 31)), // everything
            (Date::from_ymd(1999, 1, 1), Date::from_ymd(1999, 12, 31)), // nothing
            (Date::from_ymd(1995, 6, 15), Date::from_ymd(1995, 6, 15)), // point
        ];
        for (lo, hi) in cases {
            let mut got = Vec::new();
            idx.scan_range(&days, lo, hi, |r| got.push(r));
            got.sort_unstable();
            assert_eq!(got, scan_naive(&days, lo, hi), "range {lo}..{hi}");
        }
    }

    #[test]
    fn empty_and_inverted_ranges() {
        let days = column();
        let idx = DateYearIndex::build(&days);
        let mut got = Vec::new();
        idx.scan_range(&days, Date::from_ymd(1996, 1, 1), Date::from_ymd(1995, 1, 1), |r| {
            got.push(r)
        });
        assert!(got.is_empty());

        let empty = DateYearIndex::build(&[]);
        empty.scan_range(&[], Date::from_ymd(1995, 1, 1), Date::from_ymd(1996, 1, 1), |_| {
            panic!("no rows expected")
        });
    }

    #[test]
    fn segments_replay_scan_range_order() {
        let days = column();
        let idx = DateYearIndex::build(&days);
        let (lo, hi) = (Date::from_ymd(1993, 6, 1), Date::from_ymd(1996, 6, 1));
        // Consuming segments in order must reproduce scan_range exactly,
        // including emission order.
        let mut via_segments = Vec::new();
        for seg in idx.range_segments(lo, hi) {
            for &row in &idx.row_ids()[seg.start..seg.end] {
                if seg.full || (days[row as usize] >= lo.0 && days[row as usize] <= hi.0) {
                    via_segments.push(row);
                }
            }
        }
        let mut via_scan = Vec::new();
        idx.scan_range(&days, lo, hi, |r| via_scan.push(r));
        assert_eq!(via_segments, via_scan);
        // 1994 and 1995 lie strictly inside the range: fully covered.
        let segs = idx.range_segments(lo, hi);
        assert!(segs.iter().any(|s| s.full));
        // Inverted range: no segments.
        assert!(idx.range_segments(hi, lo).is_empty());
        // The candidate count is the segments' total length.
        let lengths: usize = segs.iter().map(|s| s.end - s.start).sum();
        assert_eq!(idx.range_candidates(lo, hi), lengths);
        assert_eq!(idx.range_candidates(hi, lo), 0);
        assert_eq!(idx.range_candidates(Date(i32::MIN / 2), Date(i32::MAX / 2)), days.len());
    }

    #[test]
    fn buckets_cover_all_rows() {
        let days = column();
        let idx = DateYearIndex::build(&days);
        let total: usize = idx.bucket_sizes().iter().map(|(_, n)| n).sum();
        assert_eq!(total, days.len());
        assert!(idx.approx_bytes() > 0);
    }
}
