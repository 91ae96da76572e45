//! The per-query specialization report.
//!
//! In the paper, the SC transformation pipeline decides — per query — which
//! data structures to materialize at load time: which relations to partition
//! on which keys, which date attributes to index, which string attributes to
//! dictionary-encode (and with which dictionary kind), and which attributes
//! can be dropped entirely. [`Specialization`] is that decision record; the
//! `legobase-sc` crate produces it by running the transformation pipeline
//! over the plan-derived IR, and [`crate::db`] consumes it when loading.

use legobase_storage::DictKind;
use std::collections::HashMap;

/// A dictionary-encoding decision for one string attribute.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DictSpec {
    /// Relation owning the attribute.
    pub table: String,
    /// Attribute index.
    pub column: usize,
    /// Dictionary flavor (Table II).
    pub kind: DictKind,
}

/// One partitioned structure to build at load time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PartitionSpec {
    /// Relation to partition/index.
    pub table: String,
    /// Key attribute index.
    pub column: usize,
}

/// How the specialized kernels read one encoded column (PR 10): the
/// `Encode` transformer prices the scan side of the representation choice
/// and records the cheapest strategy that covers every use of the column.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum UnpackStrategy {
    /// Every use is a literal comparison or a pre-resolvable dictionary
    /// test: block filters batch-unpack each morsel and compare against the
    /// pre-encoded literal (or per-distinct truth table); per-row fallbacks
    /// compare pre-encoded raw offsets in place. The decoded column is
    /// never materialized either way.
    WordCompare,
    /// Predicate-only uses on a single scan that need decoded values
    /// (column-vs-column, arithmetic): batch-unpack each morsel into a
    /// per-worker scratch buffer, fused with the filter — the decoded column
    /// is never materialized.
    FusedUnpack,
    /// The column's decoded values dominate (group keys, aggregates, join
    /// keys, or predicates across multiple scans of the table): the loader
    /// keeps the column **plain** — packed residency would only buy back a
    /// decode cache of the same size and a per-access unpack tax. The safe
    /// default.
    #[default]
    ScratchUnpack,
}

impl UnpackStrategy {
    /// Short name used in reports and diagnostics.
    pub fn name(self) -> &'static str {
        match self {
            UnpackStrategy::WordCompare => "word-compare",
            UnpackStrategy::FusedUnpack => "fused-unpack",
            UnpackStrategy::ScratchUnpack => "scratch-unpack",
        }
    }
}

/// Everything the loader needs to specialize the physical database for one
/// query.
#[derive(Clone, Debug)]
pub struct Specialization {
    /// Foreign-key (or composite-primary-key) 2D partitions.
    pub fk_partitions: Vec<PartitionSpec>,
    /// Single-attribute primary-key 1D arrays.
    pub pk_indexes: Vec<PartitionSpec>,
    /// Date attributes to index by year.
    pub date_indexes: Vec<PartitionSpec>,
    /// String attributes to dictionary-encode.
    pub dictionaries: Vec<DictSpec>,
    /// The base tables the query scans, each with the attributes it
    /// references (filled in by the `ColumnStore` transformer for
    /// unused-field removal; empty where that analysis did not run). Tables
    /// absent from the map are not used by the query at all: the generic
    /// engines load the row form of exactly the tables present.
    pub used_columns: HashMap<String, Vec<usize>>,
    /// Morsel-driven parallelism degree chosen for this query by the
    /// `Parallelize` transformer (1 = serial). Like every other field, this
    /// is a specialization *decision*: the compiler derives it from the plan
    /// and the requested [`Settings`](crate::settings::Settings), and the
    /// specialized executor obeys it.
    pub parallelism: usize,
    /// Number of join operators (hash, lowered, or partitioned) the
    /// `Parallelize` transformer cleared for the morsel-parallel partitioned
    /// build / fused probe. `0` means this query's joins — if any — run
    /// serial even when [`Specialization::parallelism`] is > 1.
    pub parallel_joins: usize,
    /// Number of sort operators cleared for the morsel-parallel local-sort +
    /// deterministic k-way merge path (`0` = sorts run serial).
    pub parallel_sorts: usize,
    /// Base-table columns the `Encode` transformer cleared for encoded
    /// storage (frame-of-reference bit-packed ints/dates, bit-packed
    /// dictionary codes). The loader re-encodes exactly these columns after
    /// the partition/index/dictionary builds; kernels then scan them without
    /// decompressing. Empty = the query runs entirely on plain columns.
    pub encoded_columns: Vec<PartitionSpec>,
    /// Per-column scan strategy for the cleared columns (PR 10). Columns
    /// cleared without an explicit strategy default to
    /// [`UnpackStrategy::ScratchUnpack`], which is always correct.
    pub unpack_strategies: HashMap<(String, usize), UnpackStrategy>,
}

impl Default for Specialization {
    fn default() -> Specialization {
        Specialization {
            fk_partitions: Vec::new(),
            pk_indexes: Vec::new(),
            date_indexes: Vec::new(),
            dictionaries: Vec::new(),
            used_columns: HashMap::new(),
            parallelism: 1,
            parallel_joins: 0,
            parallel_sorts: 0,
            encoded_columns: Vec::new(),
            unpack_strategies: HashMap::new(),
        }
    }
}

impl Specialization {
    /// True when an FK partition on `(table, column)` was requested.
    pub fn has_fk_partition(&self, table: &str, column: usize) -> bool {
        self.fk_partitions.iter().any(|p| p.table == table && p.column == column)
    }

    /// True when a PK index on `(table, column)` was requested.
    pub fn has_pk_index(&self, table: &str, column: usize) -> bool {
        self.pk_indexes.iter().any(|p| p.table == table && p.column == column)
    }

    /// True when a date index on `(table, column)` was requested.
    pub fn has_date_index(&self, table: &str, column: usize) -> bool {
        self.date_indexes.iter().any(|p| p.table == table && p.column == column)
    }

    /// The dictionary kind chosen for `(table, column)`, if any.
    pub fn dict_kind(&self, table: &str, column: usize) -> Option<DictKind> {
        self.dictionaries.iter().find(|d| d.table == table && d.column == column).map(|d| d.kind)
    }

    fn push_unique(list: &mut Vec<PartitionSpec>, table: &str, column: usize) {
        if !list.iter().any(|p| p.table == table && p.column == column) {
            list.push(PartitionSpec { table: table.to_string(), column });
        }
    }

    /// Requests a foreign-key partition (Section 3.2.1).
    pub fn add_fk_partition(&mut self, table: &str, column: usize) {
        Self::push_unique(&mut self.fk_partitions, table, column);
    }

    /// Requests a primary-key 1D index (Section 3.2.1).
    pub fn add_pk_index(&mut self, table: &str, column: usize) {
        Self::push_unique(&mut self.pk_indexes, table, column);
    }

    /// Requests a date-year index (Section 3.2.3).
    pub fn add_date_index(&mut self, table: &str, column: usize) {
        Self::push_unique(&mut self.date_indexes, table, column);
    }

    /// Clears `(table, column)` for encoded (packed) storage with the
    /// default (always-correct) scratch-unpack scan strategy.
    pub fn add_encoded_column(&mut self, table: &str, column: usize) {
        self.add_encoded_column_with(table, column, UnpackStrategy::ScratchUnpack);
    }

    /// Clears `(table, column)` for encoded storage and records the scan
    /// strategy the kernels should use for it. Re-clearing an already-cleared
    /// column *downgrades* toward safety: a column that any use forces to
    /// scratch-unpack stays scratch-unpack.
    pub fn add_encoded_column_with(
        &mut self,
        table: &str,
        column: usize,
        strategy: UnpackStrategy,
    ) {
        Self::push_unique(&mut self.encoded_columns, table, column);
        let slot = self.unpack_strategies.entry((table.to_string(), column)).or_insert(strategy);
        // Safety order: WordCompare < FusedUnpack < ScratchUnpack.
        let rank = |s: UnpackStrategy| match s {
            UnpackStrategy::WordCompare => 0,
            UnpackStrategy::FusedUnpack => 1,
            UnpackStrategy::ScratchUnpack => 2,
        };
        if rank(strategy) > rank(*slot) {
            *slot = strategy;
        }
    }

    /// True when `(table, column)` was cleared for encoded storage.
    pub fn has_encoded_column(&self, table: &str, column: usize) -> bool {
        self.encoded_columns.iter().any(|p| p.table == table && p.column == column)
    }

    /// The scan strategy recorded for a cleared column (`None` when the
    /// column was not cleared at all).
    pub fn unpack_strategy(&self, table: &str, column: usize) -> Option<UnpackStrategy> {
        if !self.has_encoded_column(table, column) {
            return None;
        }
        Some(self.unpack_strategies.get(&(table.to_string(), column)).copied().unwrap_or_default())
    }

    /// Registers (or upgrades) a dictionary decision. Kind upgrades follow
    /// capability order: `Normal < Ordered` and `Normal < WordToken` — a
    /// column needing both equality and prefix operations gets `Ordered`.
    pub fn add_dictionary(&mut self, table: &str, column: usize, kind: DictKind) {
        if let Some(existing) =
            self.dictionaries.iter_mut().find(|d| d.table == table && d.column == column)
        {
            if existing.kind == DictKind::Normal {
                existing.kind = kind;
            }
        } else {
            self.dictionaries.push(DictSpec { table: table.to_string(), column, kind });
        }
    }
}

#[cfg(test)]
impl Specialization {
    /// This report, marked as scanning every TPC-H relation — what a
    /// generic-engine load needs when one loaded database serves a test's
    /// many hand-written plans.
    pub(crate) fn scanning_all_tables(mut self) -> Specialization {
        for table in legobase_tpch::TABLES {
            self.used_columns.entry(table.to_string()).or_default();
        }
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dedup_and_lookup() {
        let mut s = Specialization::default();
        s.add_fk_partition("lineitem", 0);
        s.add_fk_partition("lineitem", 0);
        s.add_pk_index("orders", 0);
        s.add_date_index("lineitem", 10);
        assert_eq!(s.fk_partitions.len(), 1);
        assert!(s.has_fk_partition("lineitem", 0));
        assert!(!s.has_fk_partition("lineitem", 1));
        assert!(s.has_pk_index("orders", 0));
        assert!(s.has_date_index("lineitem", 10));
        // The default decision is serial execution, joins and sorts included.
        assert_eq!(s.parallelism, 1);
        assert_eq!(s.parallel_joins, 0);
        assert_eq!(s.parallel_sorts, 0);
    }

    #[test]
    fn unpack_strategies_record_and_downgrade_toward_safety() {
        let mut s = Specialization::default();
        assert_eq!(s.unpack_strategy("lineitem", 10), None);
        s.add_encoded_column_with("lineitem", 10, UnpackStrategy::WordCompare);
        assert_eq!(s.unpack_strategy("lineitem", 10), Some(UnpackStrategy::WordCompare));
        // A second, heavier use downgrades toward the safe strategy…
        s.add_encoded_column_with("lineitem", 10, UnpackStrategy::ScratchUnpack);
        assert_eq!(s.unpack_strategy("lineitem", 10), Some(UnpackStrategy::ScratchUnpack));
        // …and never upgrades back.
        s.add_encoded_column_with("lineitem", 10, UnpackStrategy::FusedUnpack);
        assert_eq!(s.unpack_strategy("lineitem", 10), Some(UnpackStrategy::ScratchUnpack));
        // The plain clearing API defaults to scratch-unpack.
        s.add_encoded_column("lineitem", 11);
        assert_eq!(s.unpack_strategy("lineitem", 11), Some(UnpackStrategy::ScratchUnpack));
        assert_eq!(s.encoded_columns.len(), 2);
        assert_eq!(UnpackStrategy::FusedUnpack.name(), "fused-unpack");
    }

    #[test]
    fn dictionary_kind_upgrade() {
        let mut s = Specialization::default();
        s.add_dictionary("part", 4, DictKind::Normal);
        assert_eq!(s.dict_kind("part", 4), Some(DictKind::Normal));
        s.add_dictionary("part", 4, DictKind::Ordered);
        assert_eq!(s.dict_kind("part", 4), Some(DictKind::Ordered));
        // An Ordered dictionary is not downgraded.
        s.add_dictionary("part", 4, DictKind::Normal);
        assert_eq!(s.dict_kind("part", 4), Some(DictKind::Ordered));
        assert_eq!(s.dict_kind("part", 5), None);
    }
}
