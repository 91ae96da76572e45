//! Data loading for both representation families.
//!
//! Loading is where LegoBase pays for its optimizations (Fig. 21): building
//! partitions, date indices, and dictionaries all happen here, off the query
//! critical path. The paper pays that once per query; a served system pays
//! it once per *dataset*: the base data is typed columns, and everything
//! derived from them — a column's decoded vector, its other layouts,
//! dictionaries, partitions, indexes, the row tuples the generic engines
//! scan — lives in one long-lived [`BaseStore`], built lazily on first
//! demand and handed out as `Arc`s. The loaders below are *assembly* — they obey the
//! specialization report exactly (used columns only, the dictionary kind
//! and packed layout the compiler chose, structures skipped when their key
//! column is pruned) and fill the loaded database with handles. Both report
//! wall-clock duration and the bytes the query references so the bench
//! harness can regenerate Figs. 20 and 21.

use crate::settings::{EngineKind, Settings};
use crate::spec::Specialization;
use legobase_storage::column::ColumnTable;
use legobase_storage::dateindex::DateYearIndex;
use legobase_storage::partition::{ForeignKeyPartition, PrimaryKeyIndex};
use legobase_storage::{Column, DictKind, RowTable, Type};
use legobase_tpch::{TpchData, TABLES};
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Physical layout of a base column held by the [`BaseStore`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Layout {
    /// The dense native vector of the attribute's type.
    Plain,
    /// Dictionary codes plus the dictionary of the given kind.
    Dict(DictKind),
    /// Frame-of-reference bit-packed ints or day counts — the
    /// archive-mapped words when the database was mapped from a v3 archive.
    Packed,
    /// Bit-packed codes of the dictionary of the given kind.
    DictPacked(DictKind),
}

/// What a [`BaseStore`] slot holds.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum StructureKind {
    /// A base column in one layout.
    Column(Layout),
    /// The 2D partition on a foreign key (§3.2.1).
    FkPartition,
    /// The 1D array on a primary key (§3.2.1).
    PkIndex,
    /// The year index on a date attribute (§3.2.3).
    DateIndex,
    /// The whole relation as row tuples (keyed with column 0) — what the
    /// generic engines scan, and nothing else asks for.
    Rows,
}

/// Identity of one structure derived from the base data.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct StructureKey {
    /// Base relation.
    pub table: String,
    /// Attribute index.
    pub column: usize,
    /// Which structure over that attribute.
    pub kind: StructureKind,
}

impl fmt::Display for StructureKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}] ", self.table, self.column)?;
        match self.kind {
            StructureKind::Column(Layout::Plain) => f.write_str("plain"),
            StructureKind::Column(Layout::Dict(k)) => write!(f, "dict({k:?})"),
            StructureKind::Column(Layout::Packed) => f.write_str("packed"),
            StructureKind::Column(Layout::DictPacked(k)) => write!(f, "packed dict({k:?})"),
            StructureKind::FkPartition => f.write_str("fk-partition"),
            StructureKind::PkIndex => f.write_str("pk-index"),
            StructureKind::DateIndex => f.write_str("date-index"),
            StructureKind::Rows => f.write_str("rows"),
        }
    }
}

/// One structure a query needs, with whether the store already held it —
/// what tells a cold miss (this request built it) from a slow one.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StructureUse {
    /// The structure.
    pub key: StructureKey,
    /// True when the store held it before this request asked.
    pub resident: bool,
}

#[derive(Clone)]
enum Structure {
    Column(Column),
    Fk(Arc<ForeignKeyPartition>),
    Pk(Arc<PrimaryKeyIndex>),
    Date(Arc<DateYearIndex>),
    Rows(Arc<RowTable>),
}

/// A point-in-time snapshot of a [`BaseStore`]'s counters and contents.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Structures built since the store was created (or last cleared).
    pub builds: u64,
    /// Requests answered by a structure that was already built.
    pub hits: u64,
    /// Structures currently held.
    pub slots: u64,
    /// Heap bytes of the held structures (mapped archive words excluded).
    pub resident_bytes: u64,
    /// The structures currently held (`slots` of them, in no order).
    pub resident: Vec<StructureKey>,
}

/// The one long-lived home of everything derived from the immutable base
/// data: columns per `(table, column, layout)` — the plain layout included,
/// which for an archive-opened database is where a column is first decoded
/// — FK partitions, PK indexes and date-year indexes per `(table, column)`,
/// and the row form per table.
///
/// Each slot is built at most once, lazily on first demand and outside the
/// map lock: two sessions missing on the same column wait for one build
/// instead of both paying, and a build that panics leaves its slot empty
/// (the next request retries) and the store usable. Every structure is a
/// pure function of the base data, so a statistics refresh invalidates
/// nothing, and the store is bounded by the dataset in its four layouts, so
/// nothing is evicted. A store must only ever be asked about one dataset.
#[derive(Default)]
pub struct BaseStore {
    slots: Mutex<HashMap<StructureKey, Arc<OnceLock<Structure>>>>,
    builds: AtomicU64,
    hits: AtomicU64,
    resident_bytes: AtomicU64,
}

impl BaseStore {
    /// An empty store.
    pub fn new() -> BaseStore {
        BaseStore::default()
    }

    /// Snapshot of the counters.
    pub fn stats(&self) -> StoreStats {
        let resident: Vec<StructureKey> = (self.lock().iter())
            .filter(|(_, cell)| cell.get().is_some())
            .map(|(key, _)| key.clone())
            .collect();
        StoreStats {
            builds: self.builds.load(Ordering::Relaxed),
            hits: self.hits.load(Ordering::Relaxed),
            slots: resident.len() as u64,
            resident_bytes: self.resident_bytes.load(Ordering::Relaxed),
            resident,
        }
    }

    /// True when the structure is already built.
    pub fn is_resident(&self, key: &StructureKey) -> bool {
        self.lock().get(key).is_some_and(|cell| cell.get().is_some())
    }

    /// Drops every structure and zeroes the counters, so the next load is
    /// cold (how the figures time the paper's per-query load). Loaded
    /// queries keep the handles they hold.
    pub fn clear(&self) {
        self.lock().clear();
        for counter in [&self.builds, &self.hits, &self.resident_bytes] {
            counter.store(0, Ordering::Relaxed);
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, HashMap<StructureKey, Arc<OnceLock<Structure>>>> {
        self.slots.lock().expect("the slot map is never held across a build")
    }

    /// The structure behind `key`, built from `data` if no one has yet,
    /// plus whether it was already resident.
    fn get(&self, data: &TpchData, key: &StructureKey) -> (Structure, bool) {
        let cell = Arc::clone(self.lock().entry(key.clone()).or_default());
        let mut resident = true;
        let structure = cell.get_or_init(|| {
            resident = false;
            let (structure, bytes) = self.build(data, key);
            self.builds.fetch_add(1, Ordering::Relaxed);
            self.resident_bytes.fetch_add(bytes as u64, Ordering::Relaxed);
            structure
        });
        if resident {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        (structure.clone(), resident)
    }

    fn column(&self, data: &TpchData, table: &str, column: usize, layout: Layout) -> Column {
        let key = StructureKey { table: table.into(), column, kind: StructureKind::Column(layout) };
        match self.get(data, &key).0 {
            Structure::Column(c) => c,
            _ => unreachable!("column keys hold columns"),
        }
    }

    /// Hands every structure [`required_structures`] lists for the query to
    /// `place` (with its `(table, column)`), and returns the list with
    /// which of them were already resident.
    fn fetch(
        &self,
        data: &TpchData,
        spec: &Specialization,
        settings: &Settings,
        mut place: impl FnMut((String, usize), Structure),
    ) -> Vec<StructureUse> {
        required_structures(data, spec, settings)
            .into_iter()
            .map(|key| {
                let (structure, resident) = self.get(data, &key);
                place((key.table.clone(), key.column), structure);
                StructureUse { key, resident }
            })
            .collect()
    }

    /// The slot builders — the only place a base structure is derived.
    /// Returns the structure and the heap bytes it adds to the store (a slot
    /// that aliases another layout's payload adds only what is new).
    fn build(&self, data: &TpchData, key: &StructureKey) -> (Structure, usize) {
        let (table, column) = (key.table.as_str(), key.column);
        // Encoding that does not pay keeps the plain payload (shared, so the
        // slot adds nothing).
        let encoded = |plain: Column, shared: usize| match plain.encode() {
            Some(enc) => {
                let bytes = enc.approx_bytes() - shared;
                (Structure::Column(enc), bytes)
            }
            None => (Structure::Column(plain), 0),
        };
        let plain = || self.column(data, table, column, Layout::Plain);
        let whole = |col: Column| {
            let bytes = col.approx_bytes();
            (Structure::Column(col), bytes)
        };
        match key.kind {
            // The base representation itself: the generator's vector, or the
            // archive payload decoded now that someone needs it.
            StructureKind::Column(Layout::Plain) => whole(data.plain_column(table, column)),
            StructureKind::Column(Layout::Dict(kind)) => {
                whole(data.dict_column(table, column, kind))
            }
            StructureKind::Column(Layout::Packed) => {
                // Mapped archive loads (PR 10): when the archive already
                // holds this column frame-of-reference packed, adopt the
                // zero-copy words instead of decoding and re-encoding. The
                // archive writer and `encode` derive the same
                // base/max/width/words, so results are bit-identical.
                let mapped = data
                    .mapped_packed(table, column)
                    .filter(|mp| mp.len() == data.rows(table))
                    .and_then(|mp| match data.catalog.table(table).schema.ty(column) {
                        Type::Int => Some(Column::I64Packed(Arc::clone(mp))),
                        Type::Date => Some(Column::DatePacked(Arc::clone(mp))),
                        _ => None,
                    });
                match mapped {
                    Some(col) => whole(col),
                    None => encoded(plain(), 0),
                }
            }
            StructureKind::Column(Layout::DictPacked(kind)) => {
                let dict = self.column(data, table, column, Layout::Dict(kind));
                let shared = match &dict {
                    Column::Dict(_, d) => d.approx_bytes(),
                    _ => 0,
                };
                encoded(dict, shared)
            }
            StructureKind::FkPartition => {
                let part = ForeignKeyPartition::build(plain().as_i64());
                let bytes = part.approx_bytes();
                (Structure::Fk(Arc::new(part)), bytes)
            }
            StructureKind::PkIndex => {
                let index = PrimaryKeyIndex::build(plain().as_i64());
                let bytes = index.approx_bytes();
                (Structure::Pk(Arc::new(index)), bytes)
            }
            StructureKind::DateIndex => {
                let index = DateYearIndex::build(plain().as_date());
                let bytes = index.approx_bytes();
                (Structure::Date(Arc::new(index)), bytes)
            }
            StructureKind::Rows => {
                let rows = data.row_table(table);
                let bytes = rows.approx_bytes();
                (Structure::Rows(Arc::new(rows)), bytes)
            }
        }
    }
}

/// The structures a query's loaded database consists of, decided entirely
/// by the specialization report under the given settings:
///
/// * `string_dict` → dictionary-encode the attributes the report lists;
/// * `field_removal` → only referenced attributes (specialized engine);
/// * `partitioning` → FK partitions and PK 1D arrays;
/// * `date_indices` → year indices;
/// * `encoding` → packed layout for the report's packed columns (every
///   other column stays plain: its uses read decoded values, so packed
///   residency would only buy a decode cache of the same size back).
///
/// Structures whose key column was removed as unused are skipped: a query
/// that never references an attribute cannot join or filter through it.
/// The generic engines need the row form of the relations the plan scans
/// and the partitioning structures.
pub fn required_structures(
    data: &TpchData,
    spec: &Specialization,
    settings: &Settings,
) -> Vec<StructureKey> {
    let specialized = settings.engine == EngineKind::Specialized;
    let used = |table: &str, column: usize| {
        !(specialized && settings.field_removal)
            || spec.used_columns.get(table).is_some_and(|u| u.contains(&column))
    };
    let mut keys = Vec::new();
    let mut push = |table: &str, column: usize, kind: StructureKind| {
        keys.push(StructureKey { table: table.to_string(), column, kind });
    };
    if specialized {
        for name in TABLES {
            for (idx, field) in data.catalog.table(name).schema.fields.iter().enumerate() {
                if !used(name, idx) {
                    continue;
                }
                let dict = spec
                    .dictionaries
                    .iter()
                    .find(|d| settings.string_dict && d.table == name && d.column == idx)
                    .map(|d| d.kind);
                let packed = settings.encoding && spec.has_packed_column(name, idx);
                let layout = match (field.ty, dict, packed) {
                    (Type::Str, Some(kind), true) => Layout::DictPacked(kind),
                    (Type::Str, Some(kind), false) => Layout::Dict(kind),
                    (Type::Int | Type::Date, _, true) => Layout::Packed,
                    _ => Layout::Plain,
                };
                push(name, idx, StructureKind::Column(layout));
            }
        }
    } else {
        for name in TABLES.into_iter().filter(|t| spec.used_columns.contains_key(*t)) {
            push(name, 0, StructureKind::Rows);
        }
    }
    if settings.partitioning {
        for p in spec.fk_partitions.iter().filter(|p| used(&p.table, p.column)) {
            push(&p.table, p.column, StructureKind::FkPartition);
        }
        for p in spec.pk_indexes.iter().filter(|p| used(&p.table, p.column)) {
            push(&p.table, p.column, StructureKind::PkIndex);
        }
    }
    if specialized && settings.date_indices {
        for p in spec.date_indexes.iter().filter(|p| used(&p.table, p.column)) {
            push(&p.table, p.column, StructureKind::DateIndex);
        }
    }
    keys
}

/// Loading outcome metadata.
#[derive(Clone, Copy, Debug, Default)]
pub struct LoadReport {
    /// Wall-clock time this load spent (Fig. 21): assembly plus whatever
    /// structures it was the first to ask for.
    pub duration: Duration,
    /// Approximate bytes of the structures this query references (Fig. 20)
    /// — shared with every other query that references them, not a private
    /// copy.
    pub approx_bytes: usize,
}

/// The generic (row-layout) database used by the Volcano and push engines.
pub struct GenericDb {
    /// Row-layout relations (generic engines): the store's row form of the
    /// relations the plan scans.
    pub tables: HashMap<String, Arc<RowTable>>,
    /// Foreign-key partitions over raw rows, keyed by `(table, column)`.
    pub fk_partitions: HashMap<(String, usize), Arc<ForeignKeyPartition>>,
    /// Primary-key 1D indexes, keyed by `(table, column)`.
    pub pk_indexes: HashMap<(String, usize), Arc<PrimaryKeyIndex>>,
    /// The store structures this load asked for.
    pub structures: Vec<StructureUse>,
    /// Load timing and memory accounting.
    pub report: LoadReport,
}

impl GenericDb {
    /// Takes the row form of the relations the plan scans from the store,
    /// and row-level partitions when `settings.partitioning` requests them
    /// (the TPC-H/C configuration).
    pub fn load(
        data: &TpchData,
        store: &BaseStore,
        spec: &Specialization,
        settings: &Settings,
    ) -> GenericDb {
        let start = Instant::now();
        let mut db = GenericDb {
            tables: HashMap::new(),
            fk_partitions: HashMap::new(),
            pk_indexes: HashMap::new(),
            structures: Vec::new(),
            report: LoadReport::default(),
        };
        db.structures = store.fetch(data, spec, settings, |at, structure| match structure {
            Structure::Rows(t) => drop(db.tables.insert(at.0, t)),
            Structure::Fk(p) => drop(db.fk_partitions.insert(at, p)),
            Structure::Pk(p) => drop(db.pk_indexes.insert(at, p)),
            _ => unreachable!("generic engines need rows and partitioning structures only"),
        });
        db.report = LoadReport { duration: start.elapsed(), approx_bytes: db.approx_bytes() };
        db
    }

    /// Looks a loaded relation up by name (panics if absent).
    pub fn table(&self, name: &str) -> &RowTable {
        self.tables.get(name).unwrap_or_else(|| panic!("unknown table `{name}`"))
    }

    /// Approximate bytes of the structures this database references.
    pub fn approx_bytes(&self) -> usize {
        self.tables.values().map(|t| t.approx_bytes()).sum::<usize>()
            + self.fk_partitions.values().map(|p| p.approx_bytes()).sum::<usize>()
            + self.pk_indexes.values().map(|p| p.approx_bytes()).sum::<usize>()
    }
}

/// The specialized (columnar) database used by the specialized executor.
pub struct SpecializedDb {
    /// Column-layout relations (specialized engine).
    pub tables: HashMap<String, ColumnTable>,
    /// Foreign-key partitions (Section 3.2.1).
    pub fk_partitions: HashMap<(String, usize), Arc<ForeignKeyPartition>>,
    /// Primary-key 1D indexes (Section 3.2.1).
    pub pk_indexes: HashMap<(String, usize), Arc<PrimaryKeyIndex>>,
    /// Date-year indexes (Section 3.2.3).
    pub date_indexes: HashMap<(String, usize), Arc<DateYearIndex>>,
    /// The store structures this load asked for.
    pub structures: Vec<StructureUse>,
    /// Load timing and memory accounting.
    pub report: LoadReport,
}

impl SpecializedDb {
    /// Assembles the columnar database of one query from the store: exactly
    /// the structures [`required_structures`] lists for its specialization
    /// report, each an `Arc` clone — so a load whose structures are all
    /// resident costs the same at any row count.
    pub fn load(
        data: &TpchData,
        store: &BaseStore,
        spec: &Specialization,
        settings: &Settings,
    ) -> SpecializedDb {
        let start = Instant::now();
        let tables = TABLES
            .into_iter()
            .map(|name| {
                let schema = data.catalog.table(name).schema.clone();
                let columns = vec![Column::Absent; schema.len()];
                (name.to_string(), ColumnTable { schema, len: data.rows(name), columns })
            })
            .collect();
        let mut db = SpecializedDb {
            tables,
            fk_partitions: HashMap::new(),
            pk_indexes: HashMap::new(),
            date_indexes: HashMap::new(),
            structures: Vec::new(),
            report: LoadReport::default(),
        };
        db.structures = store.fetch(data, spec, settings, |at, structure| match structure {
            Structure::Column(c) => {
                db.tables.get_mut(&at.0).expect("keys name base tables").columns[at.1] = c;
            }
            Structure::Fk(p) => drop(db.fk_partitions.insert(at, p)),
            Structure::Pk(p) => drop(db.pk_indexes.insert(at, p)),
            Structure::Date(p) => drop(db.date_indexes.insert(at, p)),
            Structure::Rows(_) => unreachable!("the specialized engine never asks for rows"),
        });
        db.report = LoadReport { duration: start.elapsed(), approx_bytes: db.approx_bytes() };
        db
    }

    /// Looks a loaded relation up by name (panics if absent).
    pub fn table(&self, name: &str) -> &ColumnTable {
        self.tables.get(name).unwrap_or_else(|| panic!("unknown table `{name}`"))
    }

    /// Approximate bytes of the structures this database references.
    pub fn approx_bytes(&self) -> usize {
        self.tables.values().map(ColumnTable::approx_bytes).sum::<usize>()
            + self.fk_partitions.values().map(|p| p.approx_bytes()).sum::<usize>()
            + self.pk_indexes.values().map(|p| p.approx_bytes()).sum::<usize>()
            + self.date_indexes.values().map(|p| p.approx_bytes()).sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::settings::Config;
    use legobase_storage::DictKind;

    fn data() -> TpchData {
        TpchData::generate(0.002)
    }

    fn sample_spec() -> Specialization {
        let mut s = Specialization::default();
        s.add_fk_partition("lineitem", 0);
        s.add_pk_index("orders", 0);
        s.add_date_index("lineitem", 10);
        s.add_dictionary("lineitem", 14, DictKind::Normal);
        s.used_columns.insert("lineitem".into(), vec![0, 5, 6, 10, 14]);
        s.used_columns.insert("orders".into(), vec![0, 4]);
        s
    }

    #[test]
    fn generic_load_respects_partitioning_flag() {
        let d = data();
        let spec = sample_spec();
        let no_part = GenericDb::load(&d, &BaseStore::new(), &spec, &Config::Dbx.settings());
        assert!(no_part.fk_partitions.is_empty() && no_part.pk_indexes.is_empty());
        let part = GenericDb::load(&d, &BaseStore::new(), &spec, &Config::TpchC.settings());
        assert_eq!(part.fk_partitions.len(), 1);
        assert_eq!(part.pk_indexes.len(), 1);
        assert!(part.report.approx_bytes > no_part.report.approx_bytes);
        assert_eq!(part.table("orders").len(), d.rows("orders"));
        // Rows exist for the relations the report names, and only those.
        let mut loaded: Vec<&str> = part.tables.keys().map(String::as_str).collect();
        loaded.sort_unstable();
        assert_eq!(loaded, ["lineitem", "orders"]);
        assert_eq!(part.table("lineitem").rows, d.row_table("lineitem").rows);
    }

    #[test]
    fn specialized_load_builds_requested_structures() {
        let d = data();
        let spec = sample_spec();
        let db = SpecializedDb::load(&d, &BaseStore::new(), &spec, &Config::OptC.settings());
        assert!(db.fk_partitions.contains_key(&("lineitem".to_string(), 0)));
        assert!(db.pk_indexes.contains_key(&("orders".to_string(), 0)));
        assert!(db.date_indexes.contains_key(&("lineitem".to_string(), 10)));
        // Field removal: unreferenced lineitem columns absent.
        let li = db.table("lineitem");
        assert!(matches!(li.column(1), legobase_storage::Column::Absent));
        assert!(matches!(li.column(14), legobase_storage::Column::Dict(..)));
        // Unreferenced tables keep no columns at all.
        assert!(db
            .table("region")
            .columns
            .iter()
            .all(|c| matches!(c, legobase_storage::Column::Absent)));
    }

    #[test]
    fn field_removal_shrinks_memory() {
        let d = data();
        let spec = sample_spec();
        let full = SpecializedDb::load(&d, &BaseStore::new(), &spec, &Config::StrDictC.settings());
        let pruned = SpecializedDb::load(&d, &BaseStore::new(), &spec, &Config::OptC.settings());
        assert!(pruned.report.approx_bytes < full.report.approx_bytes);
    }

    /// The report's packed columns load packed, every other column plain.
    /// Packed layout means smaller footprint and identical values; floats
    /// stay plain; the `LEGOBASE_ENCODING=0`-style settings ablation keeps
    /// everything raw.
    #[test]
    fn encoding_step_packs_cleared_columns() {
        let d = data();
        let mut spec = sample_spec();
        for c in [0usize, 5, 6, 10, 14] {
            spec.add_packed_column("lineitem", c);
        }
        let raw = SpecializedDb::load(
            &d,
            &BaseStore::new(),
            &spec,
            &Config::OptC.settings().with(|s| s.encoding = false),
        );
        let enc = SpecializedDb::load(&d, &BaseStore::new(), &spec, &Config::OptC.settings());
        assert!(enc.report.approx_bytes < raw.report.approx_bytes);
        let (rt, et) = (raw.table("lineitem"), enc.table("lineitem"));
        assert!(matches!(et.column(0), legobase_storage::Column::I64Packed(_)));
        assert!(matches!(et.column(10), legobase_storage::Column::DatePacked(_)));
        assert!(matches!(et.column(14), legobase_storage::Column::DictPacked(..)));
        assert!(matches!(et.column(5), legobase_storage::Column::F64(_))); // floats stay raw
        assert!(matches!(rt.column(0), legobase_storage::Column::I64(_)));
        // A column the report does not pack stays plain.
        assert!(matches!(enc.table("orders").column(0), legobase_storage::Column::I64(_)));
        for c in [0usize, 10, 14] {
            for r in 0..rt.len {
                assert_eq!(rt.column(c).value_at(r), et.column(c).value_at(r), "col {c} row {r}");
            }
        }
        // The date index built over the (now packed) column still exists.
        assert!(enc.date_indexes.contains_key(&("lineitem".to_string(), 10)));
    }

    /// One attribute asked for in every layout: five coexisting slots, each
    /// built once, all decoding to the same values — the specialization
    /// report *selects* among them, it does not rebuild them.
    #[test]
    fn layouts_of_one_column_coexist_with_equal_values() {
        let d = data();
        let store = BaseStore::new();
        let shipmode = 14;
        let layouts = [
            Layout::Plain,
            Layout::Dict(DictKind::Normal),
            Layout::Dict(DictKind::Ordered),
            Layout::Dict(DictKind::WordToken),
            Layout::DictPacked(DictKind::Normal),
        ];
        let cols: Vec<Column> =
            layouts.iter().map(|&l| store.column(&d, "lineitem", shipmode, l)).collect();
        assert_eq!(store.stats().slots, 5);
        assert_eq!(store.stats().builds, 5);
        let kinds: Vec<&str> = cols.iter().map(Column::kind_name).collect();
        assert_eq!(kinds, ["Str", "Dict", "Dict", "Dict", "DictPacked"]);
        for r in 0..d.rows("lineitem") {
            let expect = cols[0].value_at(r);
            assert!(cols.iter().all(|c| c.value_at(r) == expect), "row {r}");
        }
        // The packed slot shares the dictionary of the Dict slot it encodes.
        match (&cols[1], &cols[4]) {
            (Column::Dict(_, a), Column::DictPacked(_, b)) => assert!(Arc::ptr_eq(a, b)),
            other => panic!("unexpected layouts {other:?}"),
        }
        // Ints: plain and packed side by side; a second request is a hit on
        // the same payload.
        let plain = store.column(&d, "lineitem", 0, Layout::Plain);
        let packed = store.column(&d, "lineitem", 0, Layout::Packed);
        assert!(matches!(packed, Column::I64Packed(_)));
        assert!((0..plain.len()).all(|r| plain.value_at(r) == packed.value_at(r)));
        let before = store.stats();
        match (&plain, store.column(&d, "lineitem", 0, Layout::Plain)) {
            (Column::I64(a), Column::I64(b)) => assert!(Arc::ptr_eq(a, &b)),
            other => panic!("unexpected layouts {other:?}"),
        }
        let after = store.stats();
        assert_eq!((after.builds, after.hits), (before.builds, before.hits + 1));
        assert!(after.resident_bytes > 0);
    }

    /// Two loads of one report share every payload; the second builds
    /// nothing and says so.
    #[test]
    fn second_load_is_all_handles() {
        let d = data();
        let spec = sample_spec();
        let store = BaseStore::new();
        let first = SpecializedDb::load(&d, &store, &spec, &Config::OptC.settings());
        let builds = store.stats().builds;
        let second = SpecializedDb::load(&d, &store, &spec, &Config::OptC.settings());
        assert_eq!(store.stats().builds, builds);
        assert!(first.structures.iter().all(|s| !s.resident));
        assert!(second.structures.iter().all(|s| s.resident));
        assert_eq!(first.report.approx_bytes, second.report.approx_bytes);
        match (first.table("lineitem").column(5), second.table("lineitem").column(5)) {
            (Column::F64(a), Column::F64(b)) => assert!(Arc::ptr_eq(a, b)),
            other => panic!("unexpected layouts {other:?}"),
        }
        let key = ("lineitem".to_string(), 0);
        assert!(Arc::ptr_eq(&first.fk_partitions[&key], &second.fk_partitions[&key]));
        // Dropping both loaded forms leaves the store's copy alive.
        drop((first, second));
        assert_eq!(store.stats().builds, builds);
        assert!(store.stats().slots > 0);
        store.clear();
        assert_eq!(store.stats(), StoreStats::default());
    }

    /// A build that panics (an FK partition asked over a float attribute)
    /// unwinds to the caller, leaves its slot empty and the store usable:
    /// the retry panics the same way instead of deadlocking or reading a
    /// poisoned lock, and well-formed loads before and after succeed.
    #[test]
    fn panicking_build_poisons_nothing() {
        let d = data();
        let store = BaseStore::new();
        let mut bad = sample_spec();
        bad.add_fk_partition("lineitem", 5);
        for _ in 0..2 {
            let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                SpecializedDb::load(&d, &store, &bad, &Config::OptC.settings())
            }))
            .err()
            .expect("partitioning a float attribute must panic");
            let message = err.downcast_ref::<String>().expect("string payload");
            assert!(message.contains("expected I64 column, found F64"), "{message}");
        }
        let bad_key =
            StructureKey { table: "lineitem".into(), column: 5, kind: StructureKind::FkPartition };
        assert!(!store.is_resident(&bad_key));
        let good = SpecializedDb::load(&d, &store, &sample_spec(), &Config::OptC.settings());
        assert!(good.fk_partitions.contains_key(&("lineitem".to_string(), 0)));
        assert!(good.structures.iter().any(|s| !s.resident), "the panic cut the first load short");
        assert_eq!(store.stats().builds, store.stats().slots);
    }
}
