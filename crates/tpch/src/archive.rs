//! The persistent column archive (`.lbca`).
//!
//! `dbgen` runs are deterministic but not free — at SF 0.1 the generator is
//! already the dominant cost of a cold benchmark run. The archive persists a
//! generated database in a dependency-free columnar format so later runs
//! (and CI, which caches the file as an artifact) open it instead of
//! regenerating.
//!
//! Layout (LBCA v3, the only version read or written; all integers
//! little-endian):
//!
//! ```text
//! magic "LBCA" | version u32 | scale_factor f64 | table_count u32
//! per table:   name (u16 len + bytes) | row_count u64 | col_count u32
//! per column:  tag u8 | payload_len u64 | zero pad to 8-byte file offset
//!              | payload | fnv1a(payload) u64
//! after the last table, one stats block per table (TABLES order):
//!              payload_len u64 | payload | fnv1a(payload) u64
//! ```
//!
//! Integer and date columns store the same frame-of-reference bit-packed
//! form the engine scans ([`legobase_storage::PackedInts`]) whenever packing
//! shrinks them; the tag per column records the choice. The stats blocks
//! carry the optimizer statistics — row counts, per-column distinct counts
//! and bounds, equi-depth histograms, distinct sketches — so an opened
//! archive serves the same estimates as a fresh `dbgen` run without a pass
//! over the data.
//!
//! **Opening is map + validate + release.** [`read_mapped`] `mmap`s the
//! file ([`read`] reads it onto the heap), verifies every checksum and then
//! every payload —
//! lengths against row counts, UTF-8, boolean bytes, packed headers and
//! value domains, the statistics' structure — so whatever is wrong with a
//! file is a typed [`ArchiveError`] at open, never a panic, a first-query
//! failure or silently stale estimates. No value is decoded: the database
//! keeps, per column, where its payload lies, and the engine's store decodes
//! it into a plain vector (or dictionary-encodes it) when a query first
//! needs it. A mapped file's pages are handed back to the kernel once
//! validated and once decoded, so an opened archive does not stay resident;
//! packed words the engine scans in place fault back in on first use.
//!
//! Every column payload sits at an 8-byte file offset behind deterministic
//! zero padding (the pad length follows from the cursor position alone, so
//! writer and reader agree without storing it), and packed payloads pad
//! their 17-byte header to 24 bytes — the packed words therefore sit 8-byte
//! aligned in the file, and a mapped open hands the engine [`PackedInts`]
//! that borrow them from the page cache and are never copied. A mapping
//! failure falls back to [`read`]; misaligned or truncated payloads are
//! typed errors, never unaligned reads. Archives of the two earlier
//! versions exist nowhere and are refused with [`ArchiveError::BadVersion`].

use crate::gen::{BaseColumn, BaseTable, TpchData};
use crate::schema::{catalog, TABLES};
// The format's checksum is FNV-1a over each payload (byte-order independent).
use legobase_storage::{
    fnv1a, Column, ColumnStats, Date, DictKind, DistinctSketch, Histogram, Mapping, PackedInts,
    TableStatistics, Type, Value,
};
use std::fmt;
use std::ops::Range;
use std::path::Path;
use std::sync::Arc;

/// File magic: "LegoBase Column Archive".
pub const MAGIC: [u8; 4] = *b"LBCA";
/// The format version (statistics blocks, 8-byte-aligned mappable payloads).
pub const VERSION: u32 = 3;
/// Bytes of a packed payload's header (`base i64 | max i64 | width u8`,
/// zero-padded so the words after it stay 8-byte aligned).
const PACKED_HEADER: usize = 24;

/// Everything that can go wrong writing or reading an archive.
#[derive(Debug)]
pub enum ArchiveError {
    /// Filesystem failure.
    Io(std::io::Error),
    /// The file does not start with [`MAGIC`].
    BadMagic,
    /// The file's version is not [`VERSION`].
    BadVersion(u32),
    /// The file ends before its structure says it should.
    Truncated,
    /// A checksum mismatch or malformed payload.
    Corrupt(String),
    /// The file's tables do not match the compiled-in TPC-H catalog.
    SchemaMismatch(String),
    /// The database holds a value the format cannot represent.
    Unsupported(String),
}

impl fmt::Display for ArchiveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArchiveError::Io(e) => write!(f, "archive I/O: {e}"),
            ArchiveError::BadMagic => write!(f, "not a LegoBase column archive (bad magic)"),
            ArchiveError::BadVersion(v) => {
                write!(f, "unsupported archive version {v} (expected {VERSION})")
            }
            ArchiveError::Truncated => write!(f, "archive truncated"),
            ArchiveError::Corrupt(m) => write!(f, "archive corrupt: {m}"),
            ArchiveError::SchemaMismatch(m) => write!(f, "archive schema mismatch: {m}"),
            ArchiveError::Unsupported(m) => write!(f, "archive cannot represent: {m}"),
        }
    }
}

impl std::error::Error for ArchiveError {}

impl From<std::io::Error> for ArchiveError {
    fn from(e: std::io::Error) -> ArchiveError {
        ArchiveError::Io(e)
    }
}

// Per-column encoding tags.
const TAG_I64_RAW: u8 = 0;
const TAG_I64_PACKED: u8 = 1;
const TAG_F64: u8 = 2;
const TAG_DATE_RAW: u8 = 3;
const TAG_DATE_PACKED: u8 = 4;
const TAG_STR: u8 = 5;
const TAG_BOOL: u8 = 6;

// ---------------------------------------------------------------------------
// Writing
// ---------------------------------------------------------------------------

/// Serializes a database to the archive byte format.
pub fn to_bytes(data: &TpchData) -> Result<Vec<u8>, ArchiveError> {
    let mut out = Vec::new();
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&data.scale_factor.to_le_bytes());
    out.extend_from_slice(&(TABLES.len() as u32).to_le_bytes());
    // TABLES order keeps the bytes deterministic for a given database.
    for &name in &TABLES {
        let arity = data.catalog.table(name).schema.len();
        out.extend_from_slice(&(name.len() as u16).to_le_bytes());
        out.extend_from_slice(name.as_bytes());
        out.extend_from_slice(&(data.rows(name) as u64).to_le_bytes());
        out.extend_from_slice(&(arity as u32).to_le_bytes());
        for c in 0..arity {
            let (tag, payload) = encode_column(name, c, &data.plain_column(name, c))?;
            out.push(tag);
            out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
            // Zero-pad so every payload starts on an 8-byte file offset
            // (the pad length is a pure function of the cursor position,
            // so the reader re-derives it without a stored length; it
            // verifies the pad bytes are zero for determinism).
            while out.len() % 8 != 0 {
                out.push(0);
            }
            put_checked(&mut out, &payload);
        }
    }
    for &name in &TABLES {
        // Generated and opened databases both carry statistics; one whose
        // catalog was swapped for a bare one cannot be archived.
        let stats = data.catalog.stats(name).ok_or_else(|| {
            ArchiveError::Unsupported(format!("`{name}` has no statistics to archive"))
        })?;
        let payload = encode_stats(stats);
        out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        put_checked(&mut out, &payload);
    }
    Ok(out)
}

/// Appends a payload and its checksum.
fn put_checked(out: &mut Vec<u8>, payload: &[u8]) {
    out.extend_from_slice(payload);
    out.extend_from_slice(&fnv1a(payload).to_le_bytes());
}

// Tags of the stats block's serialized `Value` bounds.
const VAL_NONE: u8 = 0;
const VAL_INT: u8 = 1;
const VAL_FLOAT: u8 = 2;
const VAL_STR: u8 = 3;
const VAL_DATE: u8 = 4;
const VAL_BOOL: u8 = 5;

fn encode_value(out: &mut Vec<u8>, v: Option<&Value>) {
    match v {
        None | Some(Value::Null) => out.push(VAL_NONE),
        Some(Value::Int(i)) => {
            out.push(VAL_INT);
            out.extend_from_slice(&i.to_le_bytes());
        }
        Some(Value::Float(f)) => {
            out.push(VAL_FLOAT);
            out.extend_from_slice(&f.to_bits().to_le_bytes());
        }
        Some(Value::Str(s)) => {
            out.push(VAL_STR);
            out.extend_from_slice(&(s.len() as u32).to_le_bytes());
            out.extend_from_slice(s.as_bytes());
        }
        Some(Value::Date(d)) => {
            out.push(VAL_DATE);
            out.extend_from_slice(&d.0.to_le_bytes());
        }
        Some(Value::Bool(b)) => {
            out.push(VAL_BOOL);
            out.push(*b as u8);
        }
    }
}

/// Serializes one table's [`TableStatistics`] into a stats-block payload.
fn encode_stats(stats: &TableStatistics) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&(stats.rows as u64).to_le_bytes());
    out.extend_from_slice(&(stats.columns.len() as u32).to_le_bytes());
    for col in &stats.columns {
        out.extend_from_slice(&(col.distinct as u64).to_le_bytes());
        encode_value(&mut out, col.min.as_ref());
        encode_value(&mut out, col.max.as_ref());
        match &col.histogram {
            Some(h) => {
                out.push(1);
                out.extend_from_slice(&(h.bounds.len() as u32).to_le_bytes());
                for b in &h.bounds {
                    out.extend_from_slice(&b.to_bits().to_le_bytes());
                }
                for c in &h.counts {
                    out.extend_from_slice(&c.to_le_bytes());
                }
            }
            None => out.push(0),
        }
        match &col.sketch {
            Some(s) => {
                out.push(1);
                out.extend_from_slice(&(s.registers().len() as u32).to_le_bytes());
                out.extend_from_slice(s.registers());
            }
            None => out.push(0),
        }
    }
    out
}

/// Writes the archive file for a database.
pub fn write(data: &TpchData, path: &Path) -> Result<(), ArchiveError> {
    Ok(std::fs::write(path, to_bytes(data)?)?)
}

fn encode_column(name: &str, c: usize, column: &Column) -> Result<(u8, Vec<u8>), ArchiveError> {
    Ok(match column {
        Column::I64(vals) => pack_or_raw(vals, 8, TAG_I64_PACKED, TAG_I64_RAW, || {
            le_bytes(vals, |v| v.to_le_bytes())
        }),
        Column::Date(days) => {
            let vals: Vec<i64> = days.iter().map(|&d| d as i64).collect();
            pack_or_raw(&vals, 4, TAG_DATE_PACKED, TAG_DATE_RAW, || {
                le_bytes(days, |d| d.to_le_bytes())
            })
        }
        Column::F64(vals) => (TAG_F64, le_bytes(vals, |v| v.to_bits().to_le_bytes())),
        Column::Str(vals) => {
            let mut payload = Vec::with_capacity(vals.iter().map(|s| 4 + s.len()).sum());
            for s in vals.iter() {
                let len = u32::try_from(s.len()).map_err(|_| {
                    ArchiveError::Unsupported(format!(
                        "`{name}` column {c} holds a string of {} bytes",
                        s.len()
                    ))
                })?;
                payload.extend_from_slice(&len.to_le_bytes());
                payload.extend_from_slice(s.as_bytes());
            }
            (TAG_STR, payload)
        }
        Column::Bool(vals) => (TAG_BOOL, vals.iter().map(|&b| b as u8).collect()),
        other => unreachable!("base columns are plain, found {}", other.kind_name()),
    })
}

/// A raw payload: every value's little-endian bytes, back to back.
fn le_bytes<T, const N: usize>(vals: &[T], bytes: impl Fn(&T) -> [u8; N]) -> Vec<u8> {
    let mut payload = Vec::with_capacity(vals.len() * N);
    for v in vals {
        payload.extend_from_slice(&bytes(v));
    }
    payload
}

/// Packs `vals` frame-of-reference when that beats `raw_width` bytes per
/// value; otherwise calls `raw` for the plain payload. The 17-byte packed
/// header (`base i64 | max i64 | width u8`) is padded with 7 zero bytes so
/// the words land on an 8-byte file offset relative to the (aligned) payload
/// start — the property [`read_mapped`] needs to borrow them in place.
fn pack_or_raw(
    vals: &[i64],
    raw_width: usize,
    packed_tag: u8,
    raw_tag: u8,
    raw: impl FnOnce() -> Vec<u8>,
) -> (u8, Vec<u8>) {
    let p = PackedInts::from_values(vals);
    if !vals.is_empty() && PACKED_HEADER + p.words().len() * 8 < vals.len() * raw_width {
        let mut payload = Vec::with_capacity(PACKED_HEADER + p.words().len() * 8);
        payload.extend_from_slice(&p.base().to_le_bytes());
        payload.extend_from_slice(&p.max().to_le_bytes());
        payload.push(p.width());
        payload.extend_from_slice(&[0u8; 7]);
        for w in p.words() {
            payload.extend_from_slice(&w.to_le_bytes());
        }
        (packed_tag, payload)
    } else {
        (raw_tag, raw())
    }
}

// ---------------------------------------------------------------------------
// Reading
// ---------------------------------------------------------------------------

/// A bounds-checked little-endian cursor over the archive bytes.
#[derive(Clone)]
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], ArchiveError> {
        let end = self.pos.checked_add(n).ok_or(ArchiveError::Truncated)?;
        if end > self.bytes.len() {
            return Err(ArchiveError::Truncated);
        }
        let s = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, ArchiveError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, ArchiveError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, ArchiveError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, ArchiveError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn i64(&mut self) -> Result<i64, ArchiveError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn f64(&mut self) -> Result<f64, ArchiveError> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// The file header: magic and version checked, then the scale factor
    /// and the table count.
    fn file_header(&mut self) -> Result<(f64, usize), ArchiveError> {
        if self.take(4)? != MAGIC {
            return Err(ArchiveError::BadMagic);
        }
        let version = self.u32()?;
        if version != VERSION {
            return Err(ArchiveError::BadVersion(version));
        }
        Ok((self.f64()?, self.u32()? as usize))
    }

    /// A table record's head: its (known) name, row count and column count.
    fn table_header(&mut self) -> Result<(String, usize, usize), ArchiveError> {
        let name_len = self.u16()? as usize;
        let name = std::str::from_utf8(self.take(name_len)?)
            .map_err(|_| ArchiveError::Corrupt("non-UTF-8 table name".into()))?
            .to_string();
        if !TABLES.contains(&name.as_str()) {
            return Err(ArchiveError::SchemaMismatch(format!("unknown table `{name}`")));
        }
        Ok((name, self.u64()? as usize, self.u32()? as usize))
    }

    /// A `payload | checksum` pair, checksum verified; `what` names it in
    /// the error.
    fn checked(&mut self, len: usize, what: impl Fn() -> String) -> Result<&'a [u8], ArchiveError> {
        let payload = self.take(len)?;
        if fnv1a(payload) != self.u64()? {
            return Err(ArchiveError::Corrupt(format!("checksum mismatch in {}", what())));
        }
        Ok(payload)
    }

    /// A column record: its tag, the file offset of its payload, and the
    /// payload (pad bytes and checksum verified).
    fn column(&mut self, table: &str, c: usize) -> Result<(u8, usize, &'a [u8]), ArchiveError> {
        let tag = self.u8()?;
        let payload_len = self.u64()? as usize;
        // Deterministic zero pad up to the next 8-byte file offset. The
        // checksum covers only the payload, so the reader pins the pad
        // bytes itself: a nonzero pad is corruption.
        let pad = (8 - self.pos % 8) % 8;
        if self.take(pad)?.iter().any(|&b| b != 0) {
            return Err(ArchiveError::Corrupt(format!(
                "nonzero alignment pad before `{table}` column {c}"
            )));
        }
        let payload_off = self.pos;
        Ok((tag, payload_off, self.checked(payload_len, || format!("`{table}` column {c}"))?))
    }

    /// One table's statistics block.
    fn stats_block(&mut self, table: &str) -> Result<&'a [u8], ArchiveError> {
        let payload_len = self.u64()? as usize;
        self.checked(payload_len, || format!("`{table}` statistics block"))
    }

    fn finish(&self) -> Result<(), ArchiveError> {
        if self.pos != self.bytes.len() {
            return Err(ArchiveError::Corrupt("trailing bytes after last table".into()));
        }
        Ok(())
    }
}

/// The bytes of an opened archive: mapped from the file, or read onto the
/// heap. Every archived column keeps its file alive through one of these.
enum Source {
    Mapped(Arc<Mapping>),
    Read(Vec<u8>),
}

impl Source {
    fn bytes(&self) -> &[u8] {
        match self {
            Source::Mapped(map) => map.bytes(),
            Source::Read(bytes) => bytes,
        }
    }

    /// Hands the pages of `range` back to the kernel once they are validated
    /// or decoded ([`Mapping::release`]); a heap copy keeps its bytes.
    fn release(&self, range: Range<usize>) {
        if let Source::Mapped(map) = self {
            map.release(range);
        }
    }
}

/// Opens an archive file read onto the heap with a single `fs::read`.
pub fn read(path: &Path) -> Result<TpchData, ArchiveError> {
    open(Source::Read(std::fs::read(path)?))
}

/// Opens an archive by `mmap`ing it read-only: nothing is copied at open,
/// columns are decoded from the mapping on first use, and the words of its
/// bit-packed columns never are — [`TpchData::mapped_packed`] serves them to
/// the engine, which substitutes them for its own re-encode, so a mapped
/// open and a [`read`] give bit-identical query results. Any mapping
/// failure — filesystem without mmap, exotic platform, empty file —
/// silently degrades to [`read`] (DESIGN.md §3e).
pub fn read_mapped(path: &Path) -> Result<TpchData, ArchiveError> {
    match Mapping::map_file(path) {
        Ok(map) => open(Source::Mapped(Arc::new(map))),
        Err(_) => read(path),
    }
}

/// Opens the archive byte format from memory (a heap copy, nothing mapped).
pub fn from_bytes(bytes: &[u8]) -> Result<TpchData, ArchiveError> {
    open(Source::Read(bytes.to_vec()))
}

/// The one reader: structure, checksums and — in [`validate_column`] —
/// every payload byte a later decode will trust, each page of a mapped
/// file released once validated. Kept per column: its tag, where its
/// payload lies and, for a packed column of a mapped file, the zero-copy
/// view of its words.
fn open(source: Source) -> Result<TpchData, ArchiveError> {
    let source = Arc::new(source);
    let mapping = match &*source {
        Source::Mapped(map) => Some(map),
        Source::Read(_) => None,
    };
    let mut cur = Cursor { bytes: source.bytes(), pos: 0 };
    let (scale_factor, table_count) = cur.file_header()?;
    if table_count != TABLES.len() {
        return Err(ArchiveError::SchemaMismatch(format!(
            "{table_count} tables, expected {}",
            TABLES.len()
        )));
    }
    let mut cat = catalog();
    let mut tables: Vec<BaseTable> = Vec::with_capacity(table_count);
    for _ in 0..table_count {
        let (name, rows, col_count) = cur.table_header()?;
        let schema = &cat.table(&name).schema;
        if col_count != schema.len() {
            return Err(ArchiveError::SchemaMismatch(format!(
                "`{name}` has {col_count} columns, expected {}",
                schema.len()
            )));
        }
        let mut columns = Vec::with_capacity(col_count);
        for c in 0..col_count {
            let (tag, payload_off, payload) = cur.column(&name, c)?;
            let src = mapping.map(|m| (m, payload_off));
            let packed = validate_column(&name, c, schema.ty(c), tag, payload, rows, src)?;
            // Everything before the cursor is validated and never read by
            // the open again. The whole prefix goes, not just this record:
            // faulting the next record in maps back a neighbourhood of pages
            // (the kernel's fault-around), the tail of this one included.
            source.release(0..cur.pos);
            columns.push(BaseColumn::Archived(ArchivedColumn {
                source: Arc::clone(&source),
                tag,
                payload: payload_off..payload_off + payload.len(),
                rows,
                packed,
            }));
        }
        tables.push(BaseTable { name, rows, columns });
    }
    // The statistics travelled with the data — decode, validate, and serve
    // them without a collection pass.
    for &name in &TABLES {
        let payload = cur.stats_block(name)?;
        let table = tables.iter().find(|t| t.name == name).ok_or_else(|| {
            ArchiveError::SchemaMismatch(format!("table `{name}` missing from archive"))
        })?;
        cat.set_stats(name, decode_stats(name, payload, table.rows, table.columns.len())?);
        source.release(0..cur.pos);
    }
    cur.finish()?;
    Ok(TpchData { catalog: cat, scale_factor, tables })
}

/// Where a packed payload may be borrowed from: the file mapping and the
/// column payload's byte offset inside it.
type PackedSrc<'a> = Option<(&'a Arc<Mapping>, usize)>;

/// Checks one column payload exactly as strictly as decoding it would —
/// the tag against the attribute type, the length against the row count,
/// UTF-8, boolean bytes, packed headers and value domains — in one pass
/// that materializes nothing. Returns the zero-copy view of a packed
/// column's words when the file is mapped.
fn validate_column(
    name: &str,
    c: usize,
    ty: Type,
    tag: u8,
    payload: &[u8],
    rows: usize,
    src: PackedSrc<'_>,
) -> Result<Option<Arc<PackedInts>>, ArchiveError> {
    let corrupt = |m: &str| ArchiveError::Corrupt(format!("`{name}` column {c}: {m}"));
    let fixed_width = |width: usize| match rows.checked_mul(width) {
        Some(len) if len == payload.len() => Ok(()),
        Some(len) if len < payload.len() => Err(corrupt(OVERLONG)),
        _ => Err(ArchiveError::Truncated),
    };
    match (ty, tag) {
        (Type::Int, TAG_I64_RAW) | (Type::Float, TAG_F64) => fixed_width(8)?,
        (Type::Date, TAG_DATE_RAW) => fixed_width(4)?,
        (Type::Bool, TAG_BOOL) => {
            fixed_width(1)?;
            if let Some(b) = payload.iter().find(|&&b| b > 1) {
                return Err(corrupt(&format!("byte {b} is not a boolean")));
            }
        }
        (Type::Str, TAG_STR) => {
            let mut cur = Cursor { bytes: payload, pos: 0 };
            for _ in 0..rows {
                let len = cur.u32()? as usize;
                std::str::from_utf8(cur.take(len)?).map_err(|_| corrupt("non-UTF-8 string"))?;
            }
            if cur.pos != payload.len() {
                return Err(corrupt(OVERLONG));
            }
        }
        (Type::Int, TAG_I64_PACKED) | (Type::Date, TAG_DATE_PACKED) => {
            let packed = read_packed(payload, rows, src, &corrupt)?;
            if ty == Type::Date && packed.iter().any(|v| i32::try_from(v).is_err()) {
                return Err(corrupt("day count out of i32 range"));
            }
            return Ok(src.map(|_| Arc::new(packed)));
        }
        _ => return Err(corrupt(&format!("tag {tag} does not store a {ty} column"))),
    }
    Ok(None)
}

const OVERLONG: &str = "payload longer than its row count";

/// One attribute of an opened archive: where its validated payload lies in
/// the file's bytes, decoded into a plain column on demand.
pub(crate) struct ArchivedColumn {
    source: Arc<Source>,
    tag: u8,
    payload: Range<usize>,
    rows: usize,
    /// The zero-copy view of a packed column's words (mapped files only).
    pub(crate) packed: Option<Arc<PackedInts>>,
}

const VALID: &str = "payload validated when the archive was opened";

impl ArchivedColumn {
    /// The attribute's plain column, its payload's pages released once it
    /// is built. [`validate_column`] accepted every byte read here when the
    /// archive was opened, so nothing can fail — short of the mapped file
    /// changing underfoot, which the format does not defend against
    /// (DESIGN.md §3e).
    pub(crate) fn decode(&self) -> Column {
        let column = self.decode_payload();
        self.source.release(self.payload.clone());
        column
    }

    /// A string attribute dictionary-encoded straight from its payload's
    /// `&str`s (no plain column on the way), then the payload released.
    pub(crate) fn dict_encoded(&self, kind: DictKind) -> Column {
        assert_eq!(self.tag, TAG_STR, "only string attributes are dictionary-encoded");
        let column = Column::dict_of(kind, self.strs());
        self.source.release(self.payload.clone());
        column
    }

    /// The values of a string payload, borrowed in place.
    fn strs(&self) -> impl Iterator<Item = &str> + Clone {
        let mut cur = Cursor { bytes: &self.source.bytes()[self.payload.clone()], pos: 0 };
        (0..self.rows).map(move |_| {
            let len = cur.u32().expect(VALID) as usize;
            std::str::from_utf8(cur.take(len).expect(VALID)).expect(VALID)
        })
    }

    fn decode_payload(&self) -> Column {
        let payload = &self.source.bytes()[self.payload.clone()];
        let packed = || match &self.packed {
            Some(p) => Arc::clone(p),
            None => Arc::new(
                read_packed(payload, self.rows, None, &|m| ArchiveError::Corrupt(m.into()))
                    .expect(VALID),
            ),
        };
        fn le<T, const N: usize>(payload: &[u8], value: impl Fn([u8; N]) -> T) -> Arc<Vec<T>> {
            Arc::new(
                payload.chunks_exact(N).map(|b| value(b.try_into().expect("N bytes"))).collect(),
            )
        }
        match self.tag {
            TAG_I64_RAW => Column::I64(le(payload, i64::from_le_bytes)),
            TAG_F64 => Column::F64(le(payload, f64::from_le_bytes)),
            TAG_DATE_RAW => Column::Date(le(payload, i32::from_le_bytes)),
            TAG_I64_PACKED => {
                let mut values = vec![0; self.rows];
                packed().unpack_range(0, &mut values);
                Column::I64(Arc::new(values))
            }
            TAG_DATE_PACKED => Column::Date(Arc::new(packed().iter().map(|v| v as i32).collect())),
            TAG_STR => Column::Str(Arc::new(self.strs().map(str::to_string).collect())),
            TAG_BOOL => Column::Bool(Arc::new(payload.iter().map(|&b| b != 0).collect())),
            tag => unreachable!("tag {tag} was refused when the archive was opened"),
        }
    }
}

fn decode_value(
    cur: &mut Cursor<'_>,
    corrupt: &impl Fn(&str) -> ArchiveError,
) -> Result<Option<Value>, ArchiveError> {
    Ok(match cur.u8()? {
        VAL_NONE => None,
        VAL_INT => Some(Value::Int(cur.i64()?)),
        VAL_FLOAT => Some(Value::Float(cur.f64()?)),
        VAL_STR => {
            let len = cur.u32()? as usize;
            let s = std::str::from_utf8(cur.take(len)?)
                .map_err(|_| corrupt("non-UTF-8 string bound"))?;
            Some(Value::Str(s.to_string()))
        }
        VAL_DATE => Some(Value::Date(Date(cur.u32()? as i32))),
        VAL_BOOL => Some(Value::Bool(cur.u8()? != 0)),
        t => return Err(corrupt(&format!("unknown value tag {t}"))),
    })
}

/// Decodes and validates one table's statistics-block payload. Every
/// structural error — a row count disagreeing with the column data, a
/// histogram whose bounds and counts don't line up, unsorted or non-finite
/// bounds, a sketch with the wrong register count — is a typed
/// [`ArchiveError::Corrupt`].
fn decode_stats(
    name: &str,
    payload: &[u8],
    rows: usize,
    cols: usize,
) -> Result<TableStatistics, ArchiveError> {
    let corrupt = |m: &str| ArchiveError::Corrupt(format!("`{name}` statistics: {m}"));
    let mut cur = Cursor { bytes: payload, pos: 0 };
    let stat_rows = cur.u64()? as usize;
    if stat_rows != rows {
        return Err(corrupt(&format!("claims {stat_rows} rows, table holds {rows}")));
    }
    let col_count = cur.u32()? as usize;
    if col_count != cols {
        return Err(corrupt(&format!("claims {col_count} columns, schema has {cols}")));
    }
    let mut columns = Vec::with_capacity(col_count);
    for c in 0..col_count {
        let col_corrupt = |m: &str| corrupt(&format!("column {c}: {m}"));
        let distinct = cur.u64()? as usize;
        let min = decode_value(&mut cur, &col_corrupt)?;
        let max = decode_value(&mut cur, &col_corrupt)?;
        let histogram = match cur.u8()? {
            0 => None,
            1 => {
                let n_bounds = cur.u32()? as usize;
                if n_bounds < 2 {
                    return Err(col_corrupt("histogram needs at least two bounds"));
                }
                let mut bounds = Vec::with_capacity(n_bounds);
                for _ in 0..n_bounds {
                    bounds.push(cur.f64()?);
                }
                if bounds.iter().any(|b| !b.is_finite()) {
                    return Err(col_corrupt("non-finite histogram bound"));
                }
                if bounds.windows(2).any(|w| w[0] > w[1]) {
                    return Err(col_corrupt("histogram bounds unsorted"));
                }
                let mut counts = Vec::with_capacity(n_bounds - 1);
                for _ in 0..n_bounds - 1 {
                    counts.push(cur.u64()?);
                }
                Some(Arc::new(Histogram { bounds, counts }))
            }
            t => return Err(col_corrupt(&format!("bad histogram marker {t}"))),
        };
        let sketch = match cur.u8()? {
            0 => None,
            1 => {
                let len = cur.u32()? as usize;
                let registers = cur.take(len)?.to_vec();
                Some(
                    DistinctSketch::from_registers(registers)
                        .ok_or_else(|| col_corrupt("sketch register count mismatch"))?,
                )
            }
            t => return Err(col_corrupt(&format!("bad sketch marker {t}"))),
        };
        columns.push(ColumnStats { distinct, min, max, histogram, sketch });
    }
    if cur.pos != payload.len() {
        return Err(corrupt("trailing bytes after last column"));
    }
    Ok(TableStatistics { rows, columns })
}

/// Reads a frame-of-reference payload: header pad, word count against the
/// row count, the header through [`PackedInts`]' own constructors (which
/// reject tampered widths), and every value against the declared maximum.
/// With a live mapping the words are borrowed in place at `payload_off + 24`
/// — bounds and 8-byte alignment checked first, so a file that lies about
/// its layout is a typed corruption, not undefined behavior — otherwise
/// they are copied out of `payload`.
fn read_packed(
    payload: &[u8],
    rows: usize,
    src: PackedSrc<'_>,
    corrupt: &impl Fn(&str) -> ArchiveError,
) -> Result<PackedInts, ArchiveError> {
    let mut cur = Cursor { bytes: payload, pos: 0 };
    let base = cur.i64()?;
    let max = cur.i64()?;
    let width = cur.u8()?;
    // 7 zero bytes pad the 17-byte header to 24 so the words that follow
    // stay 8-byte aligned relative to the aligned payload start.
    if cur.take(7)?.iter().any(|&b| b != 0) {
        return Err(corrupt("nonzero pad in packed header"));
    }
    let n_words = PackedInts::words_for(rows, width);
    let words = cur.take(n_words.checked_mul(8).ok_or(ArchiveError::Truncated)?)?;
    if cur.pos != payload.len() {
        return Err(corrupt(OVERLONG));
    }
    let packed = match src {
        Some((map, payload_off)) => {
            let at = payload_off + PACKED_HEADER;
            if map.u64_slice(at, n_words).is_none() {
                return Err(corrupt("packed words misaligned or out of mapped bounds"));
            }
            PackedInts::from_parts_mapped(base, max, width, rows, Arc::clone(map), at)
        }
        None => {
            let words =
                words.chunks_exact(8).map(|w| u64::from_le_bytes(w.try_into().expect("8 bytes")));
            PackedInts::from_parts(base, max, width, rows, words.collect())
        }
    }
    .ok_or_else(|| corrupt("invalid frame-of-reference header"))?;
    if packed.iter().any(|v| v > packed.max()) {
        return Err(corrupt("packed value above declared maximum"));
    }
    Ok(packed)
}

// ---------------------------------------------------------------------------
// Inspection (the `tpch info` CLI)
// ---------------------------------------------------------------------------

/// Per-column metadata reported by [`inspect`].
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnInfo {
    /// Column name from the compiled-in catalog.
    pub name: String,
    /// Human-readable encoding tag (`i64-packed`, `f64`, `str`, ...).
    pub encoding: &'static str,
    /// Frame-of-reference bit width — packed columns only.
    pub bit_width: Option<u8>,
    /// Bytes the column's payload occupies in the file.
    pub payload_bytes: usize,
    /// Bytes a mapped load serves zero-copy from the page cache (the packed
    /// words); 0 for raw columns.
    pub mappable_bytes: usize,
}

/// Per-table metadata reported by [`inspect`].
#[derive(Debug, Clone, PartialEq)]
pub struct TableInfo {
    /// Table name.
    pub name: String,
    /// Row count the archive declares.
    pub rows: usize,
    /// Per-column encodings, in schema order.
    pub columns: Vec<ColumnInfo>,
}

/// Archive-level metadata reported by [`inspect`].
#[derive(Debug, Clone, PartialEq)]
pub struct ArchiveInfo {
    /// Format version.
    pub version: u32,
    /// TPC-H scale factor the archive was generated at.
    pub scale_factor: f64,
    /// Total file size.
    pub file_bytes: usize,
    /// Per-table breakdowns, in file order.
    pub tables: Vec<TableInfo>,
}

impl ArchiveInfo {
    /// Total bytes a mapped load serves zero-copy.
    pub fn mappable_bytes(&self) -> usize {
        self.tables.iter().flat_map(|t| &t.columns).map(|c| c.mappable_bytes).sum()
    }

    /// Total bytes a load must materialize on the heap regardless of
    /// mapping (raw payloads plus packed headers).
    pub fn resident_bytes(&self) -> usize {
        self.tables
            .iter()
            .flat_map(|t| &t.columns)
            .map(|c| c.payload_bytes - c.mappable_bytes)
            .sum()
    }
}

/// The structure of an archive file — version, encodings, bit widths,
/// payload sizes — read off an open (which refuses a corrupt file exactly
/// as [`read_mapped`] does) without decoding a value.
pub fn inspect(path: &Path) -> Result<ArchiveInfo, ArchiveError> {
    Ok(describe(&read_mapped(path)?, std::fs::metadata(path)?.len() as usize))
}

/// [`inspect`] over in-memory bytes.
pub fn inspect_bytes(bytes: &[u8]) -> Result<ArchiveInfo, ArchiveError> {
    Ok(describe(&from_bytes(bytes)?, bytes.len()))
}

fn describe(data: &TpchData, file_bytes: usize) -> ArchiveInfo {
    let column = |field: &legobase_storage::Field, column: &BaseColumn| {
        let BaseColumn::Archived(a) = column else {
            unreachable!("an opened archive holds archived columns")
        };
        let packed = a.tag == TAG_I64_PACKED || a.tag == TAG_DATE_PACKED;
        ColumnInfo {
            name: field.name.clone(),
            encoding: match a.tag {
                TAG_I64_RAW => "i64",
                TAG_I64_PACKED => "i64-packed",
                TAG_F64 => "f64",
                TAG_DATE_RAW => "date",
                TAG_DATE_PACKED => "date-packed",
                TAG_STR => "str",
                _ => "bool",
            },
            bit_width: packed.then(|| a.source.bytes()[a.payload.start + 16]),
            payload_bytes: a.payload.len(),
            mappable_bytes: if packed { a.payload.len() - PACKED_HEADER } else { 0 },
        }
    };
    let tables = data
        .tables
        .iter()
        .map(|t| TableInfo {
            name: t.name.clone(),
            rows: t.rows,
            columns: (data.catalog.table(&t.name).schema.fields.iter())
                .zip(&t.columns)
                .map(|(field, c)| column(field, c))
                .collect(),
        })
        .collect();
    ArchiveInfo { version: VERSION, scale_factor: data.scale_factor, file_bytes, tables }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> TpchData {
        TpchData::generate(0.002)
    }

    #[test]
    fn round_trip_is_lossless() {
        let data = tiny();
        let bytes = to_bytes(&data).expect("serialize");
        let back = from_bytes(&bytes).expect("parse");
        assert_eq!(back.scale_factor, data.scale_factor);
        for &name in &TABLES {
            assert_eq!(data.rows(name), back.rows(name), "{name} row count");
            assert_eq!(data.row_table(name).rows, back.row_table(name).rows, "{name} rows");
        }
        // The persisted statistics decode to exactly what the generator
        // attached — histograms and sketches included.
        for &name in &TABLES {
            let (a, b) = (
                data.catalog.stats(name).expect("generated stats"),
                back.catalog.stats(name).expect("loaded stats"),
            );
            assert_eq!(a, b, "{name} statistics");
        }
    }

    #[test]
    fn archive_beats_raw_row_bytes() {
        let data = tiny();
        let bytes = to_bytes(&data).expect("serialize");
        let rows: usize = TABLES.iter().map(|t| data.row_table(t).approx_bytes()).sum();
        assert!(bytes.len() < rows, "archive ({}) vs the data as rows ({rows})", bytes.len());
    }

    #[test]
    fn rejects_bad_magic_and_version() {
        let mut bytes = to_bytes(&tiny()).expect("serialize");
        let mut wrong = bytes.clone();
        wrong[0] = b'X';
        assert!(matches!(from_bytes(&wrong), Err(ArchiveError::BadMagic)));
        bytes[4] = 99;
        assert!(matches!(from_bytes(&bytes), Err(ArchiveError::BadVersion(_))));
    }

    #[test]
    fn rejects_truncation_and_payload_corruption() {
        let bytes = to_bytes(&tiny()).expect("serialize");
        assert!(matches!(
            from_bytes(&bytes[..bytes.len() - 3]),
            Err(ArchiveError::Truncated | ArchiveError::Corrupt(_))
        ));
        // Flip one byte in the middle of the first table's payloads: the
        // checksum (or, for a header byte, the FoR validation) must catch it.
        let mut corrupt = bytes.clone();
        let mid = bytes.len() / 3;
        corrupt[mid] ^= 0x40;
        assert!(
            matches!(
                from_bytes(&corrupt),
                Err(ArchiveError::Corrupt(_)
                    | ArchiveError::Truncated
                    | ArchiveError::SchemaMismatch(_))
            ),
            "a flipped byte must not parse cleanly"
        );
    }

    /// The payload checks `open` runs, on the shapes no TPC-H column takes
    /// (booleans, raw dates) and on hostile sizes: the same typed errors the
    /// eager decoder gave, found without materializing anything — and what
    /// passes decodes.
    #[test]
    fn validation_is_as_strict_as_decoding() {
        let check = |ty, tag, payload: &[u8], rows| {
            validate_column("t", 0, ty, tag, payload, rows, None).map(|packed| packed.is_none())
        };
        let corrupt = |r: Result<bool, ArchiveError>, what: &str| match r {
            Err(ArchiveError::Corrupt(m)) => assert!(m.contains(what), "{m}"),
            other => panic!("expected Corrupt({what}), got {other:?}"),
        };
        assert!(check(Type::Bool, TAG_BOOL, &[0, 1, 1], 3).expect("three booleans"));
        corrupt(check(Type::Bool, TAG_BOOL, &[0, 2, 1], 3), "byte 2 is not a boolean");
        corrupt(check(Type::Bool, TAG_BOOL, &[0, 1, 1, 0], 3), OVERLONG);
        assert!(matches!(check(Type::Bool, TAG_BOOL, &[0, 1], 3), Err(ArchiveError::Truncated)));
        corrupt(check(Type::Bool, TAG_F64, &[0; 24], 3), "tag 2 does not store a BOOL column");
        assert!(check(Type::Date, TAG_DATE_RAW, &[0; 12], 3).expect("three raw dates"));
        corrupt(check(Type::Date, TAG_DATE_RAW, &[0; 13], 3), OVERLONG);
        // A row count no payload could back is short, not an overflow or an
        // allocation.
        let huge = usize::MAX / 2;
        assert!(matches!(
            check(Type::Int, TAG_I64_RAW, &[0; 8], huge),
            Err(ArchiveError::Truncated)
        ));
        assert!(matches!(check(Type::Str, TAG_STR, &[0; 8], huge), Err(ArchiveError::Truncated)));
        // Packed day counts must fit the date type.
        let (_, wide) = pack_or_raw(&[0, 1 << 40], 100, TAG_DATE_PACKED, TAG_DATE_RAW, Vec::new);
        corrupt(check(Type::Date, TAG_DATE_PACKED, &wide, 2), "day count out of i32 range");

        let decode = |tag, payload: &[u8], rows| {
            let source = Arc::new(Source::Read(payload.to_vec()));
            ArchivedColumn { source, tag, payload: 0..payload.len(), rows, packed: None }.decode()
        };
        assert_eq!(decode(TAG_BOOL, &[0, 1, 1], 3).value_at(2), Value::Bool(true));
        let days: Vec<u8> = [9_000i32, -1].iter().flat_map(|d| d.to_le_bytes()).collect();
        assert_eq!(decode(TAG_DATE_RAW, &days, 2).value_at(1), Value::Date(Date(-1)));
        let (tag, narrow) = pack_or_raw(&[7, 9, 8], 100, TAG_DATE_PACKED, TAG_DATE_RAW, Vec::new);
        assert!(check(Type::Date, tag, &narrow, 3).expect("three packed dates"));
        assert_eq!(decode(tag, &narrow, 3).value_at(1), Value::Date(Date(9)));
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join("legobase-archive-test");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("tpch-sf0.002.lbca");
        let data = tiny();
        write(&data, &path).expect("write");
        let back = read(&path).expect("read");
        assert_eq!(back.row_table("lineitem").rows, data.row_table("lineitem").rows);
        std::fs::remove_file(&path).ok();
    }

    /// There is one format: a header announcing either earlier version is
    /// refused, typed, by every reader — before anything else is parsed.
    #[test]
    fn older_versions_are_refused_by_every_reader() {
        let dir = std::env::temp_dir().join("legobase-archive-old-version-test");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let mut bytes = to_bytes(&tiny()).expect("serialize");
        for v in [1u32, 2] {
            bytes[4..8].copy_from_slice(&v.to_le_bytes());
            let path = dir.join(format!("tpch-v{v}.lbca"));
            std::fs::write(&path, &bytes).expect("write");
            let refused = |e: Option<ArchiveError>, reader: &str| match e {
                Some(ArchiveError::BadVersion(got)) => assert_eq!(got, v, "{reader}"),
                Some(e) => panic!("{reader} on v{v}: expected BadVersion, got {e}"),
                None => panic!("{reader} accepted a v{v} header"),
            };
            refused(from_bytes(&bytes).err(), "from_bytes");
            refused(read(&path).err(), "read");
            refused(read_mapped(&path).err(), "read_mapped");
            refused(inspect_bytes(&bytes).err(), "inspect_bytes");
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn mapped_load_is_bit_identical() {
        let dir = std::env::temp_dir().join("legobase-archive-mmap-test");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("tpch-sf0.002.lbca");
        let data = tiny();
        write(&data, &path).expect("write");
        let plain = read(&path).expect("read");
        let mapped = read_mapped(&path).expect("read_mapped");
        assert!(mapped.mapped_bytes() > 0, "a v3 load should borrow packed words zero-copy");
        assert_eq!(plain.mapped_bytes(), 0, "the plain path owns everything");
        for &name in &TABLES {
            assert_eq!(plain.row_table(name).rows, mapped.row_table(name).rows, "{name} rows");
            assert_eq!(plain.catalog.stats(name), mapped.catalog.stats(name), "{name} stats");
        }
        // The borrowed words decode to exactly the values the eager path
        // materialized — the substitution the engine performs is lossless.
        let li = plain.row_table("lineitem");
        let mut checked = 0;
        for c in 0..li.schema.len() {
            if let Some(p) = mapped.mapped_packed("lineitem", c) {
                assert!(p.is_mapped());
                for (r, v) in p.iter().enumerate().take(64) {
                    match &li.rows[r][c] {
                        Value::Int(i) => assert_eq!(v, *i),
                        Value::Date(d) => assert_eq!(v, d.0 as i64),
                        other => panic!("mapped column {c} holds {other:?}"),
                    }
                }
                checked += 1;
            }
        }
        assert!(checked > 0, "lineitem should have at least one mapped packed column");
        std::fs::remove_file(&path).ok();
    }

    /// The mapping of an opened archive.
    fn mapping(data: &TpchData) -> &Arc<Mapping> {
        match &data.tables[0].columns[0] {
            BaseColumn::Archived(ArchivedColumn { source, .. }) => match &**source {
                Source::Mapped(map) => map,
                Source::Read(_) => panic!("the archive was read onto the heap"),
            },
            BaseColumn::Plain(_) => panic!("generated data maps nothing"),
        }
    }

    /// `Rss` and `KernelPageSize` of the `/proc/self/smaps` entry of the
    /// mapping starting at `at`, in bytes.
    #[cfg(target_os = "linux")]
    fn smaps_rss(at: *const u8) -> (usize, usize) {
        let smaps = std::fs::read_to_string("/proc/self/smaps").expect("smaps");
        let head = format!("{:x}-", at as usize);
        let mut lines = smaps.lines().skip_while(|l| !l.starts_with(&head)).skip(1);
        let kb = |key: &str| -> usize {
            let line = lines.clone().find(|l| l.starts_with(key)).expect("field in the entry");
            line.split_whitespace().nth(1).and_then(|v| v.parse::<usize>().ok()).expect("kB") * 1024
        };
        let (rss, page) = (kb("Rss:"), kb("KernelPageSize:"));
        lines.next().expect("the mapping has an smaps entry");
        (rss, page)
    }

    /// An open leaves at most the partial pages at the ends of every payload
    /// resident (plus the statistics blocks, decoded at open), and decoding
    /// a column or dictionary-encoding one hands its pages back too.
    #[test]
    #[cfg(target_os = "linux")]
    fn released_payloads_stay_out_of_memory() {
        let dir = std::env::temp_dir().join("legobase-archive-release-test");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("tpch-sf0.01.lbca");
        let generated = TpchData::generate(0.01);
        write(&generated, &path).expect("write");
        let data = read_mapped(&path).expect("read_mapped");
        let at = mapping(&data).bytes().as_ptr();
        let (rss, page) = smaps_rss(at);
        let payloads: usize = data.tables.iter().map(|t| t.columns.len()).sum::<usize>();
        let stats: usize =
            TABLES.iter().map(|t| encode_stats(data.catalog.stats(t).expect("stats")).len()).sum();
        let bound = 2 * page * (payloads + TABLES.len()) + stats;
        assert!(bound < mapping(&data).len() / 4, "bound {bound} would not show a whole file");
        assert!(rss <= bound, "{rss} bytes resident after open, bound {bound}");

        // Together `lineitem`'s float columns and its comments are several
        // times the bound: kept resident, either step would exceed it.
        let schema = &data.catalog.table("lineitem").schema;
        for c in (0..schema.len()).filter(|&c| schema.ty(c) == Type::Float) {
            let decoded = data.plain_column("lineitem", c);
            assert_eq!(decoded.as_f64(), generated.plain_column("lineitem", c).as_f64());
            let (rss, _) = smaps_rss(at);
            assert!(rss <= bound, "{rss} bytes resident after decoding column {c}, bound {bound}");
        }
        let comment = schema.index_of("l_comment").expect("l_comment");
        let codes = data.dict_column("lineitem", comment, DictKind::WordToken);
        assert_eq!(codes.len(), data.rows("lineitem"));
        let (rss, _) = smaps_rss(at);
        assert!(rss <= bound, "{rss} bytes resident after a dictionary encode, bound {bound}");
        std::fs::remove_file(&path).ok();
    }

    /// Codes and dictionary of `Column::Dict`, comparable.
    fn dict_parts(column: &Column) -> (Vec<u32>, Vec<String>) {
        let Column::Dict(codes, dict) = column else { panic!("not a dictionary column") };
        let strings = (0..dict.len() as u32).map(|c| dict.decode(c).to_string()).collect();
        (codes.to_vec(), strings)
    }

    /// `dict_column` is `plain_column(..).dict_encoded(kind)`, codes and
    /// dictionary, for every string attribute and kind, whether the data is
    /// mapped, read onto the heap or generated.
    #[test]
    fn dict_column_equals_encoding_the_plain_column() {
        let dir = std::env::temp_dir().join("legobase-archive-dict-test");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("tpch-sf0.002.lbca");
        let generated = tiny();
        write(&generated, &path).expect("write");
        let (mapped, heap) = (read_mapped(&path).expect("mapped"), read(&path).expect("read"));
        assert!(mapped.mapped_bytes() > 0 && heap.mapped_bytes() == 0);
        let mut checked = 0;
        for data in [&mapped, &heap, &generated] {
            for &table in &TABLES {
                let schema = &data.catalog.table(table).schema;
                for c in (0..schema.len()).filter(|&c| schema.ty(c) == Type::Str) {
                    for kind in [DictKind::Normal, DictKind::Ordered, DictKind::WordToken] {
                        let direct = data.dict_column(table, c, kind);
                        let via_plain = data.plain_column(table, c).dict_encoded(kind);
                        assert_eq!(dict_parts(&direct), dict_parts(&via_plain), "{table}.{c}");
                        checked += 1;
                    }
                }
            }
        }
        assert!(checked > 3 * 3 * 10, "{checked} encodings compared");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_nonzero_alignment_pad() {
        let mut bytes = to_bytes(&tiny()).expect("serialize");
        // File header (20) + first table record (2 + "region" + 8 + 4) +
        // first column's tag and payload_len (9) = the pad position.
        let pos = 20 + 2 + TABLES[0].len() + 12 + 9;
        assert_ne!(pos % 8, 0, "test assumes the first payload needs padding");
        assert_eq!(bytes[pos], 0, "writer pads with zeros");
        bytes[pos] = 1;
        assert!(matches!(from_bytes(&bytes), Err(ArchiveError::Corrupt(_))));
        assert!(matches!(inspect_bytes(&bytes), Err(ArchiveError::Corrupt(_))));
    }

    #[test]
    fn inspect_reports_structure() {
        let data = tiny();
        let bytes = to_bytes(&data).expect("serialize");
        let info = inspect_bytes(&bytes).expect("inspect");
        assert_eq!(info.version, VERSION);
        assert_eq!(info.scale_factor, data.scale_factor);
        assert_eq!(info.file_bytes, bytes.len());
        assert_eq!(info.tables.len(), TABLES.len());
        let li = info.tables.iter().find(|t| t.name == "lineitem").expect("lineitem");
        assert_eq!(li.rows, data.rows("lineitem"));
        let packed: Vec<_> =
            li.columns.iter().filter(|c| c.encoding.ends_with("-packed")).collect();
        assert!(!packed.is_empty(), "lineitem should hold packed columns");
        for c in &packed {
            assert!(c.bit_width.is_some(), "{} reports no width", c.name);
            assert_eq!(c.mappable_bytes, c.payload_bytes - 24, "{} words", c.name);
        }
        assert!(info.mappable_bytes() > 0);
        assert!(info.resident_bytes() > 0);
        let total: usize =
            info.tables.iter().flat_map(|t| &t.columns).map(|c| c.payload_bytes).sum();
        assert_eq!(info.mappable_bytes() + info.resident_bytes(), total);
    }

    #[test]
    fn error_display_is_readable() {
        assert!(ArchiveError::BadMagic.to_string().contains("magic"));
        assert!(ArchiveError::BadVersion(7).to_string().contains('7'));
        assert!(ArchiveError::Corrupt("x".into()).to_string().contains("corrupt"));
    }
}
