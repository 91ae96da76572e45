//! Columnar layout: the result of the `ColumnStore` transformer (Section 3.3).
//!
//! The transformer converts an *array of records* (row layout) into a *record
//! of arrays* (column layout). [`ColumnTable`] is that record of arrays:
//! every attribute is a dense native vector, string attributes optionally
//! dictionary-encoded. Unused attributes can simply be dropped at conversion
//! time (unused-field removal, Section 3.6.1) — the corresponding column is
//! never materialized.

use crate::date::Date;
use crate::dict::{DictKind, StringDictionary};
use crate::packed::{PackedCursor, PackedInts};
use crate::row::RowTable;
use crate::schema::{Schema, Type};
use crate::value::Value;
use std::fmt;
use std::sync::Arc;

/// One attribute stored as a dense native vector.
///
/// The payload vectors are reference-counted so that query intermediates
/// (chunks in the specialized executor) can share base-table columns without
/// copying, and so compiled kernels can capture exactly the vector they read.
#[derive(Clone, Debug)]
pub enum Column {
    /// Integer column.
    I64(Arc<Vec<i64>>),
    /// Float column.
    F64(Arc<Vec<f64>>),
    /// Dates stored as raw day counts so scans compare plain `i32`s.
    Date(Arc<Vec<i32>>),
    /// Plain (non-dictionary) strings.
    Str(Arc<Vec<String>>),
    /// Dictionary-encoded strings: per-row codes plus the shared dictionary.
    Dict(Arc<Vec<u32>>, Arc<StringDictionary>),
    /// Boolean column.
    Bool(Arc<Vec<bool>>),
    /// Frame-of-reference bit-packed integers (PR 7): kernels scan the packed
    /// words directly, comparing pre-encoded literals against raw offsets.
    I64Packed(Arc<PackedInts>),
    /// Bit-packed day counts — dates span tiny ranges, so this is the
    /// highest-leverage encoding on TPC-H.
    DatePacked(Arc<PackedInts>),
    /// Dictionary strings whose codes are themselves bit-packed: predicates
    /// still evaluate on codes (never the strings), now at `log2(|dict|)`
    /// bits per row instead of 32.
    DictPacked(Arc<PackedInts>, Arc<StringDictionary>),
    /// A dropped column (unused-field removal): schema position is kept so
    /// attribute indices remain stable, but no data is materialized.
    Absent,
}

/// Typed error for the sealed accessor layer: callers that used to
/// pattern-match raw `Arc<Vec<_>>` payloads (and panic, or silently read a
/// zero length, on [`Column::Absent`]) now get a diagnosable error instead.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ColumnError {
    /// The column was removed by unused-field elimination.
    Absent,
    /// The column's physical layout does not match the requested reader.
    TypeMismatch {
        /// The reader the caller asked for.
        expected: &'static str,
        /// The column's actual layout.
        found: &'static str,
    },
}

impl fmt::Display for ColumnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ColumnError::Absent => {
                write!(f, "access to a column removed by unused-field elimination")
            }
            ColumnError::TypeMismatch { expected, found } => {
                write!(f, "expected {expected} column, found {found}")
            }
        }
    }
}

impl std::error::Error for ColumnError {}

/// Typed cursor over an integer column, plain or packed. The enum dispatch
/// happens once per kernel compilation; `get` is a branch plus either an
/// indexed load or a two-word bit extract.
#[derive(Clone, Copy, Debug)]
pub enum I64Reader<'a> {
    /// Uncompressed payload.
    Plain(&'a [i64]),
    /// Frame-of-reference packed payload.
    Packed(&'a PackedInts),
}

impl I64Reader<'_> {
    /// The value at `row`.
    #[inline]
    pub fn get(&self, row: usize) -> i64 {
        match self {
            I64Reader::Plain(v) => v[row],
            I64Reader::Packed(p) => p.get(row),
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            I64Reader::Plain(v) => v.len(),
            I64Reader::Packed(p) => p.len(),
        }
    }

    /// True when the column holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Typed cursor over a date column (day counts), plain or packed.
#[derive(Clone, Copy, Debug)]
pub enum DateReader<'a> {
    /// Uncompressed day counts.
    Plain(&'a [i32]),
    /// Frame-of-reference packed day counts, read through a prepared
    /// [`PackedCursor`] so scattered probes (date-index candidate filtering)
    /// pay no per-call setup.
    Packed(PackedCursor<'a>),
}

impl DateReader<'_> {
    /// The day count at `row`.
    #[inline]
    pub fn get(&self, row: usize) -> i32 {
        match self {
            DateReader::Plain(v) => v[row],
            DateReader::Packed(c) => c.get(row) as i32,
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            DateReader::Plain(v) => v.len(),
            DateReader::Packed(c) => c.len(),
        }
    }

    /// True when the column holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Typed cursor over dictionary codes, plain or packed.
#[derive(Clone, Copy, Debug)]
pub enum CodeReader<'a> {
    /// Uncompressed 32-bit codes.
    Plain(&'a [u32]),
    /// Bit-packed codes.
    Packed(&'a PackedInts),
}

impl CodeReader<'_> {
    /// The dictionary code at `row`.
    #[inline]
    pub fn get(&self, row: usize) -> u32 {
        match self {
            CodeReader::Plain(v) => v[row],
            CodeReader::Packed(p) => p.get(row) as u32,
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            CodeReader::Plain(v) => v.len(),
            CodeReader::Packed(p) => p.len(),
        }
    }

    /// True when the column holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Column {
    /// Gathers attribute `idx` of a row-layout table into a dense native
    /// vector — the one rows→columns copy of the system. String attributes
    /// are dictionary-encoded when `dict` names a kind (ignored for every
    /// other type).
    pub fn from_rows(table: &RowTable, idx: usize, dict: Option<DictKind>) -> Column {
        let rows = &table.rows;
        match (table.schema.fields[idx].ty, dict) {
            (Type::Int, _) => Column::I64(Arc::new(rows.iter().map(|r| r[idx].as_int()).collect())),
            (Type::Float, _) => {
                Column::F64(Arc::new(rows.iter().map(|r| r[idx].as_float()).collect()))
            }
            (Type::Date, _) => {
                Column::Date(Arc::new(rows.iter().map(|r| r[idx].as_date().0).collect()))
            }
            (Type::Bool, _) => {
                Column::Bool(Arc::new(rows.iter().map(|r| r[idx].as_bool()).collect()))
            }
            (Type::Str, None) => {
                Column::Str(Arc::new(rows.iter().map(|r| r[idx].as_str().to_string()).collect()))
            }
            (Type::Str, Some(kind)) => {
                let dict = StringDictionary::build(kind, rows.iter().map(|r| r[idx].as_str()));
                let codes = rows
                    .iter()
                    .map(|r| dict.code(r[idx].as_str()).expect("value seen during build"))
                    .collect();
                Column::Dict(Arc::new(codes), Arc::new(dict))
            }
        }
    }

    /// Number of values.
    ///
    /// [`Column::Absent`] reports 0 for backward compatibility; callers that
    /// must distinguish "empty" from "removed" use [`Column::try_len`].
    pub fn len(&self) -> usize {
        self.try_len().unwrap_or(0)
    }

    /// Number of values, or a typed error for a removed column (the `Absent`
    /// blind spot: `len() == 0` silently conflates pruned with empty).
    pub fn try_len(&self) -> Result<usize, ColumnError> {
        match self {
            Column::I64(v) => Ok(v.len()),
            Column::F64(v) => Ok(v.len()),
            Column::Date(v) => Ok(v.len()),
            Column::Str(v) => Ok(v.len()),
            Column::Dict(v, _) => Ok(v.len()),
            Column::Bool(v) => Ok(v.len()),
            Column::I64Packed(p) => Ok(p.len()),
            Column::DatePacked(p) => Ok(p.len()),
            Column::DictPacked(p, _) => Ok(p.len()),
            Column::Absent => Err(ColumnError::Absent),
        }
    }

    /// True when the column holds no values.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Typed accessors: the optimized engine works on these slices directly,
    /// which is the Rust rendering of the paper's generated C loops.
    pub fn as_i64(&self) -> &[i64] {
        match self {
            Column::I64(v) => v,
            other => panic!("expected I64 column, found {}", other.kind_name()),
        }
    }

    /// The float data (panics on other layouts).
    pub fn as_f64(&self) -> &[f64] {
        match self {
            Column::F64(v) => v,
            other => panic!("expected F64 column, found {}", other.kind_name()),
        }
    }

    /// The date day-counts (panics on other layouts).
    pub fn as_date(&self) -> &[i32] {
        match self {
            Column::Date(v) => v,
            other => panic!("expected Date column, found {}", other.kind_name()),
        }
    }

    /// The raw strings (panics on other layouts).
    pub fn as_str(&self) -> &[String] {
        match self {
            Column::Str(v) => v,
            other => panic!("expected Str column, found {}", other.kind_name()),
        }
    }

    /// The dictionary codes and their dictionary (panics otherwise).
    pub fn as_dict(&self) -> (&[u32], &StringDictionary) {
        match self {
            Column::Dict(v, d) => (v, d),
            other => panic!("expected Dict column, found {}", other.kind_name()),
        }
    }

    /// Name of the physical layout (diagnostics and typed errors).
    pub fn kind_name(&self) -> &'static str {
        match self {
            Column::I64(_) => "I64",
            Column::F64(_) => "F64",
            Column::Date(_) => "Date",
            Column::Str(_) => "Str",
            Column::Dict(..) => "Dict",
            Column::Bool(_) => "Bool",
            Column::I64Packed(_) => "I64Packed",
            Column::DatePacked(_) => "DatePacked",
            Column::DictPacked(..) => "DictPacked",
            Column::Absent => "Absent",
        }
    }

    /// Typed cursor over an integer column (plain or packed).
    pub fn i64_reader(&self) -> Result<I64Reader<'_>, ColumnError> {
        match self {
            Column::I64(v) => Ok(I64Reader::Plain(v)),
            Column::I64Packed(p) => Ok(I64Reader::Packed(p)),
            Column::Absent => Err(ColumnError::Absent),
            other => Err(ColumnError::TypeMismatch { expected: "I64", found: other.kind_name() }),
        }
    }

    /// Typed cursor over a date column (plain or packed).
    pub fn date_reader(&self) -> Result<DateReader<'_>, ColumnError> {
        match self {
            Column::Date(v) => Ok(DateReader::Plain(v)),
            Column::DatePacked(p) => Ok(DateReader::Packed(p.cursor())),
            Column::Absent => Err(ColumnError::Absent),
            other => Err(ColumnError::TypeMismatch { expected: "Date", found: other.kind_name() }),
        }
    }

    /// Typed cursor over dictionary codes plus the shared dictionary
    /// (plain or packed codes).
    pub fn dict_reader(&self) -> Result<(CodeReader<'_>, &StringDictionary), ColumnError> {
        match self {
            Column::Dict(v, d) => Ok((CodeReader::Plain(v), d)),
            Column::DictPacked(p, d) => Ok((CodeReader::Packed(p), d)),
            Column::Absent => Err(ColumnError::Absent),
            other => Err(ColumnError::TypeMismatch { expected: "Dict", found: other.kind_name() }),
        }
    }

    /// Reads one cell back into the generic representation (used at pipeline
    /// boundaries, e.g. when producing final results).
    pub fn value_at(&self, row: usize) -> Value {
        match self {
            Column::I64(v) => Value::Int(v[row]),
            Column::F64(v) => Value::Float(v[row]),
            Column::Date(v) => Value::Date(Date(v[row])),
            Column::Str(v) => Value::Str(v[row].clone()),
            Column::Dict(v, d) => Value::Str(d.decode(v[row]).to_string()),
            Column::Bool(v) => Value::Bool(v[row]),
            Column::I64Packed(p) => Value::Int(p.get(row)),
            Column::DatePacked(p) => Value::Date(Date(p.get(row) as i32)),
            Column::DictPacked(p, d) => Value::Str(d.decode(p.get(row) as u32).to_string()),
            Column::Absent => panic!("access to a column removed by unused-field elimination"),
        }
    }

    /// Approximate heap footprint in bytes.
    pub fn approx_bytes(&self) -> usize {
        match self {
            Column::I64(v) => v.capacity() * 8,
            Column::F64(v) => v.capacity() * 8,
            Column::Date(v) => v.capacity() * 4,
            Column::Str(v) => v.iter().map(|s| s.capacity() + 24).sum(),
            Column::Dict(v, d) => v.capacity() * 4 + d.approx_bytes(),
            Column::Bool(v) => v.capacity(),
            Column::I64Packed(p) => p.approx_bytes(),
            Column::DatePacked(p) => p.approx_bytes(),
            Column::DictPacked(p, d) => p.approx_bytes() + d.approx_bytes(),
            Column::Absent => 0,
        }
    }

    /// The encoding chooser: re-encodes this column into its packed variant
    /// when packing pays for itself, or returns `None` to keep the current
    /// layout. The decision is a function of the values alone — base and
    /// width come from the data, never from catalog statistics — so the
    /// same column always encodes the same way.
    pub fn encode(&self) -> Option<Column> {
        // A span that needs (nearly) full width cannot profit from packing:
        // it would save a few percent and pay two-word extracts for it.
        let pays =
            |p: &PackedInts, plain_bytes: usize| p.width() <= 56 && p.approx_bytes() < plain_bytes;
        match self {
            Column::I64(v) => {
                let p = PackedInts::from_values(v);
                pays(&p, v.capacity() * 8).then(|| Column::I64Packed(Arc::new(p)))
            }
            Column::Date(v) => {
                let days: Vec<i64> = v.iter().map(|&d| d as i64).collect();
                let p = PackedInts::from_values(&days);
                pays(&p, v.capacity() * 4).then(|| Column::DatePacked(Arc::new(p)))
            }
            Column::Dict(codes, dict) => {
                let wide: Vec<i64> = codes.iter().map(|&c| c as i64).collect();
                let p = PackedInts::from_values(&wide);
                pays(&p, codes.capacity() * 4)
                    .then(|| Column::DictPacked(Arc::new(p), Arc::clone(dict)))
            }
            _ => None,
        }
    }

    /// The inverse of [`Column::encode`]: materializes the plain layout.
    /// Encoded variants decode to fresh vectors; plain variants clone the
    /// `Arc` (no copy). Used by gather paths that build new columns and by
    /// the equivalence tests.
    pub fn decode(&self) -> Column {
        match self {
            Column::I64Packed(p) => Column::I64(Arc::new(p.iter().collect())),
            Column::DatePacked(p) => Column::Date(Arc::new(p.iter().map(|v| v as i32).collect())),
            Column::DictPacked(p, d) => {
                Column::Dict(Arc::new(p.iter().map(|v| v as u32).collect()), Arc::clone(d))
            }
            other => other.clone(),
        }
    }
}

/// Per-attribute conversion policy when building a [`ColumnTable`].
#[derive(Clone, Debug, Default)]
pub struct ColumnSpec {
    /// Attributes to dictionary-encode, with the dictionary kind chosen by the
    /// `StringDictionary` transformer.
    pub dictionaries: Vec<(usize, DictKind)>,
    /// Attributes referenced by the query; everything else becomes
    /// [`Column::Absent`]. `None` keeps all attributes.
    pub used: Option<Vec<usize>>,
}

/// A table in columnar layout (record of arrays).
#[derive(Clone, Debug)]
pub struct ColumnTable {
    /// Relation schema (absent columns keep their field entry).
    pub schema: Schema,
    /// Row count.
    pub len: usize,
    /// One column per schema field (`Absent` when pruned).
    pub columns: Vec<Column>,
}

impl ColumnTable {
    /// Converts a row-layout table, applying dictionary encoding and
    /// unused-field removal according to `spec`.
    pub fn from_rows(table: &RowTable, spec: &ColumnSpec) -> ColumnTable {
        let keep = |idx: usize| spec.used.as_ref().is_none_or(|u| u.contains(&idx));
        let columns = (0..table.schema.len())
            .map(|idx| {
                if !keep(idx) {
                    return Column::Absent;
                }
                let dict = spec.dictionaries.iter().find(|(i, _)| *i == idx).map(|(_, k)| *k);
                Column::from_rows(table, idx, dict)
            })
            .collect();
        ColumnTable { schema: table.schema.clone(), len: table.len(), columns }
    }

    /// The column at `idx`.
    pub fn column(&self, idx: usize) -> &Column {
        &self.columns[idx]
    }

    /// Column lookup by attribute name.
    pub fn by_name(&self, name: &str) -> &Column {
        &self.columns[self.schema.col(name)]
    }

    /// Approximate heap footprint in bytes.
    pub fn approx_bytes(&self) -> usize {
        self.columns.iter().map(Column::approx_bytes).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Field;

    fn sample() -> RowTable {
        let schema = Schema::new(vec![
            Field::new("k", Type::Int),
            Field::new("p", Type::Float),
            Field::new("mode", Type::Str),
            Field::new("d", Type::Date),
        ]);
        let mut t = RowTable::new(schema);
        for i in 0..10i64 {
            t.push(vec![
                Value::Int(i),
                Value::Float(i as f64 * 1.5),
                Value::from(if i % 2 == 0 { "MAIL" } else { "SHIP" }),
                Value::Date(Date::from_ymd(1995, 1, 1 + i as u32)),
            ]);
        }
        t
    }

    #[test]
    fn conversion_roundtrip() {
        let rows = sample();
        let ct = ColumnTable::from_rows(&rows, &ColumnSpec::default());
        assert_eq!(ct.len, 10);
        for (r, row) in rows.rows.iter().enumerate() {
            for (c, expected) in row.iter().enumerate().take(rows.schema.len()) {
                assert_eq!(&ct.columns[c].value_at(r), expected);
            }
        }
        assert_eq!(ct.by_name("k").as_i64()[3], 3);
        assert_eq!(ct.by_name("d").as_date().len(), 10);
    }

    #[test]
    fn dictionary_encoding() {
        let rows = sample();
        let spec = ColumnSpec { dictionaries: vec![(2, DictKind::Normal)], used: None };
        let ct = ColumnTable::from_rows(&rows, &spec);
        let (codes, dict) = ct.by_name("mode").as_dict();
        assert_eq!(dict.len(), 2);
        for (r, row) in rows.rows.iter().enumerate() {
            assert_eq!(dict.decode(codes[r]), row[2].as_str());
        }
    }

    #[test]
    fn unused_field_removal() {
        let rows = sample();
        let spec = ColumnSpec { dictionaries: vec![], used: Some(vec![0, 3]) };
        let ct = ColumnTable::from_rows(&rows, &spec);
        assert!(matches!(ct.columns[1], Column::Absent));
        assert!(matches!(ct.columns[2], Column::Absent));
        assert!(
            ct.approx_bytes()
                < ColumnTable::from_rows(&rows, &ColumnSpec::default()).approx_bytes()
        );
    }

    #[test]
    #[should_panic(expected = "unused-field elimination")]
    fn absent_access_panics() {
        let rows = sample();
        let spec = ColumnSpec { dictionaries: vec![], used: Some(vec![0]) };
        let ct = ColumnTable::from_rows(&rows, &spec);
        ct.columns[1].value_at(0);
    }

    #[test]
    fn absent_reports_typed_errors() {
        let col = Column::Absent;
        assert_eq!(col.try_len(), Err(ColumnError::Absent));
        assert!(matches!(col.i64_reader(), Err(ColumnError::Absent)));
        assert!(matches!(col.date_reader(), Err(ColumnError::Absent)));
        assert!(matches!(col.dict_reader(), Err(ColumnError::Absent)));
        // Mismatched layouts name both sides.
        let f = Column::F64(Arc::new(vec![1.0]));
        assert_eq!(
            f.i64_reader().unwrap_err(),
            ColumnError::TypeMismatch { expected: "I64", found: "F64" }
        );
    }

    #[test]
    fn encode_roundtrips_through_readers() {
        let rows = sample();
        let spec = ColumnSpec { dictionaries: vec![(2, DictKind::Normal)], used: None };
        let ct = ColumnTable::from_rows(&rows, &spec);
        for col in &ct.columns {
            let Some(enc) = col.encode() else { continue };
            assert!(enc.approx_bytes() < col.approx_bytes(), "{} must shrink", col.kind_name());
            assert_eq!(enc.len(), col.len());
            for r in 0..col.len() {
                assert_eq!(enc.value_at(r), col.value_at(r), "row {r}");
            }
            // decode() restores the plain layout bit-identically.
            let dec = enc.decode();
            assert_eq!(dec.kind_name(), col.kind_name());
            for r in 0..col.len() {
                assert_eq!(dec.value_at(r), col.value_at(r));
            }
        }
        // The sample's int/date/dict columns all encode.
        assert!(ct.columns[0].encode().is_some());
        assert!(ct.columns[2].encode().is_some());
        assert!(ct.columns[3].encode().is_some());
    }

    #[test]
    fn readers_agree_with_plain_access() {
        let rows = sample();
        let spec = ColumnSpec { dictionaries: vec![(2, DictKind::Normal)], used: None };
        let ct = ColumnTable::from_rows(&rows, &spec);
        let k = &ct.columns[0];
        let ek = k.encode().unwrap();
        let (kr, ekr) = (k.i64_reader().unwrap(), ek.i64_reader().unwrap());
        let d = &ct.columns[3];
        let ed = d.encode().unwrap();
        let (dr, edr) = (d.date_reader().unwrap(), ed.date_reader().unwrap());
        let m = &ct.columns[2];
        let em = m.encode().unwrap();
        let ((mr, dict), (emr, edict)) = (m.dict_reader().unwrap(), em.dict_reader().unwrap());
        assert_eq!(dict.len(), edict.len());
        for r in 0..ct.len {
            assert_eq!(kr.get(r), ekr.get(r));
            assert_eq!(dr.get(r), edr.get(r));
            assert_eq!(mr.get(r), emr.get(r));
        }
    }
}
