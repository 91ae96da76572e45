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
    /// Dictionary-encodes a plain string column: per-row codes plus the
    /// dictionary of `kind` built over its values (panics on other layouts).
    pub fn dict_encoded(&self, kind: DictKind) -> Column {
        Column::dict_of(kind, self.as_str().iter().map(String::as_str))
    }

    /// Dictionary-encodes the strings `values` yields, in two passes: the
    /// dictionary of `kind` over all of them, then one code per value.
    pub fn dict_of<'a>(kind: DictKind, values: impl Iterator<Item = &'a str> + Clone) -> Column {
        let dict = StringDictionary::build(kind, values.clone());
        let codes = values.map(|s| dict.code(s).expect("value seen during build")).collect();
        Column::Dict(Arc::new(codes), Arc::new(dict))
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
    /// An empty relation of `schema`, every attribute in its plain layout
    /// with room for `rows` rows — what the data generator pushes into, so
    /// base data is columnar from its first value on.
    pub fn with_capacity(schema: Schema, rows: usize) -> ColumnTable {
        fn empty<T>(rows: usize) -> Arc<Vec<T>> {
            Arc::new(Vec::with_capacity(rows))
        }
        let columns = schema
            .fields
            .iter()
            .map(|f| match f.ty {
                Type::Int => Column::I64(empty(rows)),
                Type::Float => Column::F64(empty(rows)),
                Type::Date => Column::Date(empty(rows)),
                Type::Str => Column::Str(empty(rows)),
                Type::Bool => Column::Bool(empty(rows)),
            })
            .collect();
        ColumnTable { schema, len: 0, columns }
    }

    /// Gives back what `with_capacity` and the pushed strings reserved beyond
    /// their contents, so a finished relation weighs (and reports,
    /// [`Column::approx_bytes`]) exactly what its decoded archive form does.
    pub fn shrink_to_fit(&mut self) {
        for column in &mut self.columns {
            match column {
                Column::I64(v) => Arc::make_mut(v).shrink_to_fit(),
                Column::F64(v) => Arc::make_mut(v).shrink_to_fit(),
                Column::Date(v) => Arc::make_mut(v).shrink_to_fit(),
                Column::Bool(v) => Arc::make_mut(v).shrink_to_fit(),
                Column::Str(v) => {
                    let strings = Arc::make_mut(v);
                    strings.iter_mut().for_each(String::shrink_to_fit);
                    strings.shrink_to_fit();
                }
                _ => {}
            }
        }
    }

    /// Appends one row, one value per attribute in schema order, to a
    /// relation under construction. Panics on a value of the wrong type
    /// (NULL included: base data has none) and on a column that is not
    /// plain or is already shared.
    pub fn push(&mut self, row: impl IntoIterator<Item = Value>) {
        fn end<T>(v: &mut Arc<Vec<T>>) -> &mut Vec<T> {
            Arc::get_mut(v).expect("a relation under construction is not shared")
        }
        let mut row = row.into_iter();
        for (column, field) in self.columns.iter_mut().zip(&self.schema.fields) {
            match (column, row.next()) {
                (Column::I64(c), Some(Value::Int(v))) => end(c).push(v),
                (Column::F64(c), Some(Value::Float(v))) => end(c).push(v),
                (Column::Date(c), Some(Value::Date(v))) => end(c).push(v.0),
                (Column::Str(c), Some(Value::Str(v))) => end(c).push(v),
                (Column::Bool(c), Some(Value::Bool(v))) => end(c).push(v),
                (_, v) => panic!("`{}` is a {} attribute, row holds {v:?}", field.name, field.ty),
            }
        }
        debug_assert!(row.next().is_none(), "row arity mismatch");
        self.len += 1;
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

    /// Ten rows; `mode` dictionary-encoded when `dict` names a kind.
    fn sample(dict: Option<DictKind>) -> (Vec<crate::Tuple>, ColumnTable) {
        let schema = Schema::new(vec![
            Field::new("k", Type::Int),
            Field::new("p", Type::Float),
            Field::new("mode", Type::Str),
            Field::new("d", Type::Date),
        ]);
        let rows: Vec<crate::Tuple> = (0..10i64)
            .map(|i| {
                vec![
                    Value::Int(i),
                    Value::Float(i as f64 * 1.5),
                    Value::from(if i % 2 == 0 { "MAIL" } else { "SHIP" }),
                    Value::Date(Date::from_ymd(1995, 1, 1 + i as u32)),
                ]
            })
            .collect();
        let mut ct = ColumnTable::with_capacity(schema, rows.len());
        for row in &rows {
            ct.push(row.iter().cloned());
        }
        if let Some(kind) = dict {
            ct.columns[2] = ct.columns[2].dict_encoded(kind);
        }
        (rows, ct)
    }

    #[test]
    fn pushed_rows_read_back() {
        let (rows, ct) = sample(None);
        assert_eq!(ct.len, 10);
        for (r, row) in rows.iter().enumerate() {
            for (c, expected) in row.iter().enumerate() {
                assert_eq!(&ct.columns[c].value_at(r), expected);
            }
        }
        assert_eq!(ct.by_name("k").as_i64()[3], 3);
        assert_eq!(ct.by_name("d").as_date().len(), 10);
    }

    #[test]
    #[should_panic(expected = "`p` is a FLOAT attribute, row holds Some(Null)")]
    fn pushing_a_null_panics() {
        let (_, mut ct) = sample(None);
        ct.push([Value::Int(1), Value::Null, Value::from("x"), Value::Date(Date(0))]);
    }

    #[test]
    fn dictionary_encoding() {
        let (rows, ct) = sample(Some(DictKind::Normal));
        let (codes, dict) = ct.by_name("mode").as_dict();
        assert_eq!(dict.len(), 2);
        for (r, row) in rows.iter().enumerate() {
            assert_eq!(dict.decode(codes[r]), row[2].as_str());
        }
        assert!(ct.approx_bytes() < sample(None).1.approx_bytes());
    }

    #[test]
    #[should_panic(expected = "unused-field elimination")]
    fn absent_access_panics() {
        Column::Absent.value_at(0);
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
        let (_, ct) = sample(Some(DictKind::Normal));
        for col in &ct.columns {
            let Some(enc) = col.encode() else { continue };
            assert!(enc.approx_bytes() < col.approx_bytes(), "{} must shrink", col.kind_name());
            assert_eq!(enc.len(), col.len());
            for r in 0..col.len() {
                assert_eq!(enc.value_at(r), col.value_at(r), "row {r}");
            }
        }
        // The sample's int/date/dict columns all encode.
        assert!(ct.columns[0].encode().is_some());
        assert!(ct.columns[2].encode().is_some());
        assert!(ct.columns[3].encode().is_some());
    }

    #[test]
    fn readers_agree_with_plain_access() {
        let (_, ct) = sample(Some(DictKind::Normal));
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
