//! Loading-time statistics.
//!
//! [`TableStatistics`] carries the *optimizer* statistics — per-table row
//! counts and per-column distinct counts and `[min, max]` bounds for every
//! attribute type — collected in one pass at load time and served through
//! [`Catalog::stats`](crate::Catalog::stats).
//! The cost-based optimizer in `legobase-engine` derives all of its
//! cardinality estimates from them.

use crate::column::{Column, ColumnTable};
use crate::date::Date;
use crate::fnv::fnv1a;
use crate::value::Value;
use std::cmp::Ordering;
use std::sync::Arc;

/// Default bucket count for collected equi-depth histograms: fine enough to
/// resolve TPC-H's date-range predicates to a few percent, small enough that
/// a whole catalog of histograms stays a few kilobytes.
pub const HISTOGRAM_BUCKETS: usize = 64;

/// Register-index bits of the distinct-count sketch (2^12 = 4096 registers,
/// a standard-error of roughly 1.6%).
const SKETCH_BITS: u32 = 12;

/// One-dimensional equi-depth histogram over an orderable attribute.
///
/// Built positionally from the sorted multiset of non-NULL values: bucket
/// boundaries sit at positions `i·n/B` of the sorted array, so every bucket
/// holds `⌊n/B⌋` or `⌈n/B⌉` rows (within one of the ideal depth) by
/// construction. Duplicate-heavy attributes produce *degenerate* buckets
/// whose two bounds coincide — those carry the point mass of heavy hitters,
/// which is how equi-depth histograms encode skew without a separate
/// most-common-values list.
#[derive(Clone, Debug, PartialEq)]
pub struct Histogram {
    /// Bucket boundaries in ascending order, `buckets + 1` entries; the
    /// first is the column minimum and the last the column maximum.
    pub bounds: Vec<f64>,
    /// Rows per bucket, parallel to the `bounds` windows.
    pub counts: Vec<u64>,
}

impl Histogram {
    /// Builds an equi-depth histogram with at most `buckets` buckets from an
    /// unsorted multiset of value ranks. Returns `None` when there is no
    /// data to summarize.
    pub fn build(mut ranks: Vec<f64>, buckets: usize) -> Option<Histogram> {
        if ranks.is_empty() || buckets == 0 {
            return None;
        }
        ranks.sort_by(|a, b| a.partial_cmp(b).expect("histogram ranks are never NaN"));
        let n = ranks.len();
        let b = buckets.min(n);
        let mut bounds = Vec::with_capacity(b + 1);
        let mut counts = Vec::with_capacity(b);
        bounds.push(ranks[0]);
        for i in 1..=b {
            let hi = i * n / b;
            let lo = (i - 1) * n / b;
            bounds.push(ranks[hi - 1]);
            counts.push((hi - lo) as u64);
        }
        Some(Histogram { bounds, counts })
    }

    /// Total number of rows the histogram summarizes.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Estimated fraction of rows with value `< x` (`≤ x` when `inclusive`),
    /// by linear interpolation inside the straddled bucket. Degenerate
    /// buckets (equal bounds) count fully or not at all — their point mass
    /// never interpolates.
    pub fn fraction_below(&self, x: f64, inclusive: bool) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        let mut below = 0.0;
        for (w, &count) in self.bounds.windows(2).zip(&self.counts) {
            let (lo, hi) = (w[0], w[1]);
            if hi < x || (inclusive && hi == x) {
                below += count as f64;
            } else if lo < x && x < hi {
                below += count as f64 * (x - lo) / (hi - lo);
            }
        }
        below / total as f64
    }

    /// Estimated selectivity of `lo ≤ value ≤ hi` (either end may be
    /// unbounded). The full range estimates exactly 1.
    pub fn range_selectivity(&self, lo: Option<f64>, hi: Option<f64>) -> f64 {
        let above = match hi {
            Some(h) => self.fraction_below(h, true),
            None => 1.0,
        };
        let below = match lo {
            Some(l) => self.fraction_below(l, false),
            None => 0.0,
        };
        (above - below).clamp(0.0, 1.0)
    }

    /// Point mass of `value = x` when the histogram resolves it: the summed
    /// weight of degenerate buckets pinned at `x`. Returns `None` when no
    /// degenerate bucket matches, i.e. the value is not a resolved heavy
    /// hitter and the caller should fall back to a uniform `1/ndv` guess.
    pub fn point_mass(&self, x: f64) -> Option<f64> {
        let total = self.total();
        if total == 0 {
            return None;
        }
        let mut mass = 0.0;
        let mut hit = false;
        for (w, &count) in self.bounds.windows(2).zip(&self.counts) {
            if w[0] == x && w[1] == x {
                mass += count as f64;
                hit = true;
            }
        }
        hit.then_some(mass / total as f64)
    }
}

/// Probabilistic distinct-count sketch (hyperloglog with 2^12 registers).
///
/// Each inserted value is hashed once; the register keyed by the hash's top
/// bits keeps the longest run of leading zeros seen in the rest. The
/// harmonic-mean estimate is asymptotically within ~1.6% of the true
/// distinct count — far inside the 15% the optimizer budgets for — and the
/// whole sketch is 4 KiB of plain bytes, so it serializes into the column
/// archive unchanged.
#[derive(Clone, PartialEq, Eq)]
pub struct DistinctSketch {
    registers: Vec<u8>,
}

impl std::fmt::Debug for DistinctSketch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DistinctSketch").field("estimate", &self.estimate()).finish()
    }
}

impl Default for DistinctSketch {
    fn default() -> DistinctSketch {
        DistinctSketch::new()
    }
}

impl DistinctSketch {
    /// An empty sketch.
    pub fn new() -> DistinctSketch {
        DistinctSketch { registers: vec![0; 1 << SKETCH_BITS] }
    }

    /// Rebuilds a sketch from serialized registers (the archive reader).
    /// Returns `None` if the register count does not match this build.
    pub fn from_registers(registers: Vec<u8>) -> Option<DistinctSketch> {
        (registers.len() == 1 << SKETCH_BITS).then_some(DistinctSketch { registers })
    }

    /// The raw registers (for serialization).
    pub fn registers(&self) -> &[u8] {
        &self.registers
    }

    /// Observes one value.
    pub fn insert(&mut self, v: &Value) {
        let h = value_hash(v);
        let idx = (h >> (64 - SKETCH_BITS)) as usize;
        let rest = h << SKETCH_BITS;
        let rho = (rest.leading_zeros() + 1).min(64 - SKETCH_BITS + 1) as u8;
        if rho > self.registers[idx] {
            self.registers[idx] = rho;
        }
    }

    /// Estimated number of distinct values observed.
    pub fn estimate(&self) -> f64 {
        let m = self.registers.len() as f64;
        let alpha = 0.7213 / (1.0 + 1.079 / m);
        let sum: f64 = self.registers.iter().map(|&r| (-(r as f64)).exp2()).sum();
        let raw = alpha * m * m / sum;
        let zeros = self.registers.iter().filter(|&&r| r == 0).count();
        if raw <= 2.5 * m && zeros > 0 {
            // Linear-counting correction for small cardinalities.
            m * (m / zeros as f64).ln()
        } else {
            raw
        }
    }
}

/// Stable 64-bit hash of a value: FNV-1a over the value's bytes, finished
/// with a splitmix64 avalanche so low-entropy inputs (sequential keys) still
/// spread over all register indices.
fn value_hash(v: &Value) -> u64 {
    let mut h = match v {
        Value::Null => fnv1a(&[0]),
        Value::Int(i) => fnv1a(&i.to_le_bytes()),
        Value::Float(f) => fnv1a(&f.to_bits().to_le_bytes()),
        Value::Str(s) => fnv1a(s.as_bytes()),
        Value::Date(d) => fnv1a(&d.0.to_le_bytes()),
        Value::Bool(b) => fnv1a(&[*b as u8 + 2]),
    };
    // splitmix64 finalizer.
    h ^= h >> 30;
    h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^ (h >> 31)
}

/// Maps an orderable value onto the histogram's numeric rank axis. Strings
/// have no meaningful linear rank, so string columns carry no histogram.
pub fn value_rank(v: &Value) -> Option<f64> {
    match v {
        Value::Int(i) => Some(*i as f64),
        Value::Float(f) => Some(*f),
        Value::Date(d) => Some(d.0 as f64),
        Value::Bool(b) => Some(*b as u8 as f64),
        Value::Str(_) | Value::Null => None,
    }
}

/// Optimizer statistics of one attribute, any type: distinct count plus
/// `[min, max]` bounds under the storage total order (`None` for columns
/// that are entirely NULL).
#[derive(Clone, Debug, PartialEq)]
pub struct ColumnStats {
    /// Exact (when collected) or estimated (when analytic) distinct count of
    /// non-NULL values.
    pub distinct: usize,
    /// Smallest non-NULL value.
    pub min: Option<Value>,
    /// Largest non-NULL value.
    pub max: Option<Value>,
    /// Equi-depth histogram over the value distribution (orderable scalar
    /// columns only; `None` for strings and for analytic statistics).
    /// Shared, so the optimizer's per-scan estimates never copy buckets.
    pub histogram: Option<Arc<Histogram>>,
    /// Distinct-count sketch (collected statistics only).
    pub sketch: Option<DistinctSketch>,
}

impl ColumnStats {
    /// Analytic constructor for formula-derived statistics (no distribution
    /// summaries — those only exist where real data was scanned).
    pub fn new(distinct: usize, min: Option<Value>, max: Option<Value>) -> ColumnStats {
        ColumnStats { distinct, min, max, histogram: None, sketch: None }
    }
}

/// The statistics of one plain column: `cmp` is the storage total order on
/// its native values, `value` their generic form. A sketch only remembers
/// the largest hash rank per register, so observing each distinct value
/// once leaves it in the same state as observing every row.
fn summarize<T>(
    values: &[T],
    cmp: impl Fn(&T, &T) -> Ordering,
    value: impl Fn(&T) -> Value,
) -> ColumnStats {
    let mut distinct: Vec<&T> = values.iter().collect();
    distinct.sort_unstable_by(|a, b| cmp(a, b));
    distinct.dedup_by(|a, b| cmp(a, b) == Ordering::Equal);
    let mut sketch = DistinctSketch::new();
    for v in &distinct {
        sketch.insert(&value(v));
    }
    // Strings have no rank, and the pass over them ends at the first.
    let ranks = values.iter().map_while(|v| value_rank(&value(v))).collect();
    ColumnStats {
        distinct: distinct.len(),
        min: distinct.first().map(|v| value(v)),
        max: distinct.last().map(|v| value(v)),
        histogram: Histogram::build(ranks, HISTOGRAM_BUCKETS).map(Arc::new),
        sketch: Some(sketch),
    }
}

/// Optimizer statistics of one relation: row count plus one
/// [`ColumnStats`] per attribute, in schema order.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TableStatistics {
    /// Number of rows.
    pub rows: usize,
    /// Per-attribute statistics, in schema order.
    pub columns: Vec<ColumnStats>,
}

impl TableStatistics {
    /// Collects exact statistics over a relation's plain columns: per
    /// column the distinct values under the storage total order (their
    /// count and extremes become NDV and `[min, max]`), an equi-depth
    /// [`Histogram`] for every orderable column and a [`DistinctSketch`]
    /// for every column. Panics on a column that is not in its plain layout.
    pub fn collect(table: &ColumnTable) -> TableStatistics {
        let columns = table
            .columns
            .iter()
            .map(|column| match column {
                Column::I64(v) => summarize(v, i64::cmp, |&x| Value::Int(x)),
                Column::F64(v) => summarize(v, f64::total_cmp, |&x| Value::Float(x)),
                Column::Date(v) => summarize(v, i32::cmp, |&x| Value::Date(Date(x))),
                Column::Bool(v) => summarize(v, bool::cmp, |&x| Value::Bool(x)),
                Column::Str(v) => summarize(v, String::cmp, |x| Value::Str(x.clone())),
                other => panic!(
                    "statistics are collected over plain columns, found {}",
                    other.kind_name()
                ),
            })
            .collect();
        TableStatistics { rows: table.len, columns }
    }

    /// Analytic constructor (e.g. from the TPC-H scale-factor formulas).
    pub fn analytic(rows: usize, columns: Vec<ColumnStats>) -> TableStatistics {
        TableStatistics { rows, columns }
    }

    /// The statistics of one column, if present.
    pub fn column(&self, idx: usize) -> Option<&ColumnStats> {
        self.columns.get(idx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Schema, Type};

    fn table(rows: &[(i64, &str)]) -> ColumnTable {
        let mut t =
            ColumnTable::with_capacity(Schema::of(&[("k", Type::Int), ("s", Type::Str)]), 4);
        for &(k, s) in rows {
            t.push([Value::Int(k), Value::from(s)]);
        }
        t
    }

    #[test]
    fn table_statistics_one_pass() {
        let stats = TableStatistics::collect(&table(&[(5, "b"), (9, "a"), (5, "b"), (7, "c")]));
        assert_eq!(stats.rows, 4);
        assert_eq!(stats.columns[0].distinct, 3);
        assert_eq!(stats.columns[0].min, Some(Value::Int(5)));
        assert_eq!(stats.columns[0].max, Some(Value::Int(9)));
        assert_eq!(stats.columns[1].distinct, 3);
        assert_eq!(stats.columns[1].min, Some(Value::from("a")));
        assert_eq!(stats.columns[1].max, Some(Value::from("c")));
        assert_eq!(stats.column(2), None);
        // No rows: no bounds, no histogram, an empty sketch.
        let empty = TableStatistics::collect(&table(&[]));
        assert_eq!((empty.rows, empty.columns[0].distinct), (0, 0));
        assert_eq!((&empty.columns[0].min, &empty.columns[0].histogram), (&None, &None));
    }

    #[test]
    fn equi_depth_histogram_buckets_and_ranges() {
        // 100 uniform values in [0, 99]: every bucket holds exactly depth
        // rows and interpolation recovers range fractions.
        let h = Histogram::build((0..100).map(f64::from).collect(), 10).unwrap();
        assert_eq!(h.counts, vec![10; 10]);
        assert_eq!(h.total(), 100);
        assert!(h.bounds.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(h.range_selectivity(None, None), 1.0);
        assert_eq!(h.range_selectivity(Some(0.0), Some(99.0)), 1.0);
        let half = h.range_selectivity(Some(0.0), Some(49.0));
        assert!((half - 0.5).abs() < 0.06, "half-range estimated {half}");
        assert_eq!(h.range_selectivity(Some(200.0), None), 0.0);
        assert!(Histogram::build(vec![], 8).is_none());
        assert!(Histogram::build(vec![1.0], 0).is_none());
    }

    #[test]
    fn histogram_point_mass_resolves_heavy_hitters() {
        // 90% of the column is the value 7 — degenerate buckets pin it.
        let mut ranks = vec![7.0; 90];
        ranks.extend((0..10).map(f64::from));
        let h = Histogram::build(ranks, 10).unwrap();
        let mass = h.point_mass(7.0).expect("heavy hitter resolved");
        assert!((mass - 0.9).abs() < 0.1, "point mass estimated {mass}");
        assert_eq!(h.point_mass(1234.5), None);
    }

    #[test]
    fn sketch_estimates_distinct_counts() {
        let mut s = DistinctSketch::new();
        for i in 0..5000i64 {
            s.insert(&Value::Int(i % 1000));
        }
        let est = s.estimate();
        assert!((est - 1000.0).abs() / 1000.0 < 0.15, "NDV estimated {est}");
        // Serialization round-trip preserves the registers bit-for-bit.
        let back = DistinctSketch::from_registers(s.registers().to_vec()).unwrap();
        assert_eq!(back, s);
        assert!(DistinctSketch::from_registers(vec![0; 3]).is_none());
        assert_eq!(DistinctSketch::new().estimate(), 0.0);
    }

    #[test]
    fn collect_attaches_distribution_summaries() {
        let stats = TableStatistics::collect(&table(&[(5, "x"), (9, "x"), (5, "x"), (7, "x")]));
        let k = &stats.columns[0];
        let h = k.histogram.as_ref().expect("int column has a histogram");
        assert_eq!(h.total(), 4);
        assert_eq!(h.range_selectivity(None, None), 1.0);
        let ndv = k.sketch.as_ref().expect("sketch collected").estimate();
        assert!((ndv - 3.0).abs() < 1.0, "small NDV exact-ish, got {ndv}");
        // Strings: sketch but no histogram.
        let s = &stats.columns[1];
        assert!(s.histogram.is_none());
        assert!(s.sketch.is_some());
        // The analytic constructor carries no summaries.
        assert!(ColumnStats::new(3, None, None).histogram.is_none());
    }
}
