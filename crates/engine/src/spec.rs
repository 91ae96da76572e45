//! The per-query specialization report.
//!
//! In the paper, the SC transformation pipeline decides — per query — which
//! data structures to materialize at load time: which relations to partition
//! on which keys, which date attributes to index, which string attributes to
//! dictionary-encode (and with which dictionary kind), and which attributes
//! can be dropped entirely. [`Specialization`] is that decision record; the
//! `legobase-sc` crate produces it from each transformer's `decide`, which
//! reads the physical plan (no IR is built), and [`crate::db`] consumes it
//! when loading. It holds only what the loader reads: how parallel a query
//! runs is the request's degree, not a decision recorded here.

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

/// Everything the loader needs to specialize the physical database for one
/// query.
#[derive(Clone, Debug, Default)]
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
    /// Base-table columns the `Encode` transformer chose to pack
    /// (frame-of-reference bit-packed ints/dates, bit-packed dictionary
    /// codes): the columns no use reads decoded values of repeatedly. The
    /// loader takes exactly these packed; kernels scan them without
    /// decompressing. Empty = the query runs entirely on plain columns.
    pub packed_columns: Vec<PartitionSpec>,
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

    /// Packs `(table, column)` (DESIGN.md §3e).
    pub fn add_packed_column(&mut self, table: &str, column: usize) {
        Self::push_unique(&mut self.packed_columns, table, column);
    }

    /// True when `(table, column)` was chosen for packed storage.
    pub fn has_packed_column(&self, table: &str, column: usize) -> bool {
        self.packed_columns.iter().any(|p| p.table == table && p.column == column)
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
    }

    /// A column cleared for bit-packing twice is recorded once; an
    /// uncleared column stays plain.
    #[test]
    fn packed_columns_record_each_column_once() {
        let mut s = Specialization::default();
        assert!(!s.has_packed_column("lineitem", 10));
        s.add_packed_column("lineitem", 10);
        s.add_packed_column("lineitem", 10);
        assert_eq!(s.packed_columns.len(), 1);
        assert!(s.has_packed_column("lineitem", 10));
        assert!(!s.has_packed_column("lineitem", 11));
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
