//! The persistent column archive (`.lbca`).
//!
//! `dbgen` runs are deterministic but not free — at SF 0.1 the generator is
//! already the dominant cost of a cold benchmark run. The archive persists a
//! generated database in a dependency-free columnar format so later runs
//! (and CI, which caches the file as an artifact) load with a single
//! `fs::read` instead of regenerating.
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
//! shrinks them — the encoding tag per column records the choice, and the
//! reader rejects tampered headers and payloads with typed
//! [`ArchiveError`]s (checksums are verified *before* any payload is
//! parsed).
//!
//! The stats blocks carry the optimizer statistics — row counts, per-column
//! distinct counts and bounds, equi-depth histograms, and distinct sketches
//! — so a loaded archive serves the same estimates as a fresh `dbgen` run
//! without a collection pass over the data. A corrupt stats block is a typed
//! [`ArchiveError::Corrupt`], never a panic, and never a silent fall-back to
//! stale estimates.
//!
//! Every column payload sits at an 8-byte file offset behind deterministic
//! zero padding (the pad length follows from the cursor position alone, so
//! writer and reader agree without storing it), and packed payloads pad
//! their 17-byte header to 24 bytes — the packed words therefore sit 8-byte
//! aligned in the file. [`read_mapped`] exploits this: it `mmap`s the
//! archive and hands the engine [`PackedInts`] that borrow the packed words
//! straight from the page cache (zero copies, zero decode until a kernel
//! asks). A mapping failure falls back to the ordinary read+decode path;
//! misaligned or truncated payloads are typed [`ArchiveError`]s, never
//! panics or unaligned reads. Archives of the two earlier versions (no
//! stats block; unaligned payloads) exist nowhere and are refused with
//! [`ArchiveError::BadVersion`].

use crate::gen::TpchData;
use crate::schema::{catalog, TABLES};
use legobase_storage::{
    ColumnStats, Date, DistinctSketch, Histogram, Mapping, PackedInts, RowTable, TableStatistics,
    Type, Value,
};
use std::collections::HashMap;
use std::fmt;
use std::path::Path;
use std::sync::Arc;

/// File magic: "LegoBase Column Archive".
pub const MAGIC: [u8; 4] = *b"LBCA";
/// The format version (statistics blocks, 8-byte-aligned mappable payloads).
pub const VERSION: u32 = 3;
/// Oldest version the reader accepts: there is one format.
pub const MIN_VERSION: u32 = VERSION;
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

/// FNV-1a over a byte slice — the format's checksum (dependency-free and
/// byte-order independent).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

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
        let table = data.table(name);
        out.extend_from_slice(&(name.len() as u16).to_le_bytes());
        out.extend_from_slice(name.as_bytes());
        out.extend_from_slice(&(table.len() as u64).to_le_bytes());
        out.extend_from_slice(&(table.schema.len() as u32).to_le_bytes());
        for c in 0..table.schema.len() {
            let (tag, payload) = encode_column(name, table, c)?;
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
        let stats = match data.catalog.stats(name) {
            Some(s) => s.clone(),
            // The archive always carries statistics; collect on the
            // spot if this database was assembled without them.
            None => TableStatistics::collect(data.table(name)),
        };
        let payload = encode_stats(&stats);
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

fn encode_column(name: &str, table: &RowTable, c: usize) -> Result<(u8, Vec<u8>), ArchiveError> {
    let col = || format!("{name}.{}", table.schema.fields[c].name);
    let mismatch = |v: &Value| {
        ArchiveError::Unsupported(format!("{} holds {v:?}, not a {}", col(), table.schema.ty(c)))
    };
    match table.schema.ty(c) {
        Type::Int => {
            let mut vals = Vec::with_capacity(table.len());
            for row in &table.rows {
                match &row[c] {
                    Value::Int(v) => vals.push(*v),
                    other => return Err(mismatch(other)),
                }
            }
            Ok(pack_or_raw(&vals, 8, TAG_I64_PACKED, TAG_I64_RAW, || {
                let mut payload = Vec::with_capacity(vals.len() * 8);
                for v in &vals {
                    payload.extend_from_slice(&v.to_le_bytes());
                }
                payload
            }))
        }
        Type::Date => {
            let mut vals = Vec::with_capacity(table.len());
            for row in &table.rows {
                match &row[c] {
                    Value::Date(d) => vals.push(d.0 as i64),
                    other => return Err(mismatch(other)),
                }
            }
            Ok(pack_or_raw(&vals, 4, TAG_DATE_PACKED, TAG_DATE_RAW, || {
                let mut payload = Vec::with_capacity(vals.len() * 4);
                for v in &vals {
                    payload.extend_from_slice(&(*v as i32).to_le_bytes());
                }
                payload
            }))
        }
        Type::Float => {
            let mut payload = Vec::with_capacity(table.len() * 8);
            for row in &table.rows {
                match &row[c] {
                    Value::Float(v) => payload.extend_from_slice(&v.to_bits().to_le_bytes()),
                    other => return Err(mismatch(other)),
                }
            }
            Ok((TAG_F64, payload))
        }
        Type::Str => {
            let mut payload = Vec::new();
            for row in &table.rows {
                match &row[c] {
                    Value::Str(s) => {
                        payload.extend_from_slice(&(s.len() as u32).to_le_bytes());
                        payload.extend_from_slice(s.as_bytes());
                    }
                    other => return Err(mismatch(other)),
                }
            }
            Ok((TAG_STR, payload))
        }
        Type::Bool => {
            let mut payload = Vec::with_capacity(table.len());
            for row in &table.rows {
                match &row[c] {
                    Value::Bool(b) => payload.push(*b as u8),
                    other => return Err(mismatch(other)),
                }
            }
            Ok((TAG_BOOL, payload))
        }
    }
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

/// Reads an archive file back into a database with a single `fs::read`. The
/// archive serves the statistics it carries (histograms and sketches
/// included), so the catalog matches a freshly generated database bit for
/// bit.
pub fn read(path: &Path) -> Result<TpchData, ArchiveError> {
    from_bytes(&std::fs::read(path)?)
}

/// Reads an archive by `mmap`ing it read-only: the packed words of the
/// archive's bit-packed columns are *borrowed* from the page cache instead
/// of copied — [`TpchData::mapped_packed`] serves them to the engine, which
/// substitutes them for its own re-encode, so a mapped load and a plain
/// [`read`] produce bit-identical query results.
///
/// Fallback discipline (DESIGN.md §3e): any mapping failure — filesystem
/// without mmap, exotic platform, empty file — silently degrades to the
/// read+decode path. Corruption — truncated words, a misaligned payload,
/// nonzero alignment padding — is a typed [`ArchiveError`], never a panic
/// or an unaligned access.
pub fn read_mapped(path: &Path) -> Result<TpchData, ArchiveError> {
    match Mapping::map_file(path) {
        Ok(map) => {
            let map = Arc::new(map);
            from_bytes_impl(map.bytes(), Some(&map))
        }
        Err(_) => read(path),
    }
}

/// Parses the archive byte format (heap-owned columns, nothing mapped).
pub fn from_bytes(bytes: &[u8]) -> Result<TpchData, ArchiveError> {
    from_bytes_impl(bytes, None)
}

/// The shared parser. When `mapping` is present, every bit-packed column
/// additionally yields a zero-copy [`PackedInts`] borrowing its words from
/// the mapping at their 8-byte-aligned file offset; the row values are
/// still decoded eagerly so the row-oriented loader pipeline is unchanged.
fn from_bytes_impl(bytes: &[u8], mapping: Option<&Arc<Mapping>>) -> Result<TpchData, ArchiveError> {
    let mut cur = Cursor { bytes, pos: 0 };
    let (scale_factor, table_count) = cur.file_header()?;
    if table_count != TABLES.len() {
        return Err(ArchiveError::SchemaMismatch(format!(
            "{table_count} tables, expected {}",
            TABLES.len()
        )));
    }
    let mut cat = catalog();
    let mut tables = HashMap::new();
    let mut mapped: HashMap<(String, usize), Arc<PackedInts>> = HashMap::new();
    for _ in 0..table_count {
        let (name, rows, col_count) = cur.table_header()?;
        let schema = cat.table(&name).schema.clone();
        if col_count != schema.len() {
            return Err(ArchiveError::SchemaMismatch(format!(
                "`{name}` has {col_count} columns, expected {}",
                schema.len()
            )));
        }
        let mut columns: Vec<Vec<Value>> = Vec::with_capacity(col_count);
        for c in 0..col_count {
            let (tag, payload_off, payload) = cur.column(&name, c)?;
            let map = mapping.map(|m| (m, payload_off));
            let (vals, mp) = decode_column(&name, c, schema.ty(c), tag, payload, rows, map)?;
            if let Some(mp) = mp {
                mapped.insert((name.clone(), c), mp);
            }
            columns.push(vals);
        }
        let mut table = RowTable::with_capacity(schema, rows);
        for r in 0..rows {
            table.push(columns.iter().map(|col| col[r].clone()).collect());
        }
        tables.insert(name, table);
    }
    // The statistics travelled with the data — decode, validate, and serve
    // them without a collection pass.
    for &name in &TABLES {
        let payload = cur.stats_block(name)?;
        let table = tables.get(name).ok_or_else(|| {
            ArchiveError::SchemaMismatch(format!("table `{name}` missing from archive"))
        })?;
        let stats = decode_stats(name, payload, table.len(), table.schema.len())?;
        cat.set_stats(name, stats);
    }
    cur.finish()?;
    Ok(TpchData::from_parts(cat, scale_factor, tables).with_mapped(mapped))
}

/// Where a packed payload may be borrowed from: the file mapping and the
/// column payload's byte offset inside it.
type PackedSrc<'a> = Option<(&'a Arc<Mapping>, usize)>;

fn decode_column(
    name: &str,
    c: usize,
    ty: Type,
    tag: u8,
    payload: &[u8],
    rows: usize,
    src: PackedSrc<'_>,
) -> Result<(Vec<Value>, Option<Arc<PackedInts>>), ArchiveError> {
    let corrupt = |m: &str| ArchiveError::Corrupt(format!("`{name}` column {c}: {m}"));
    let wrong_tag = || corrupt(&format!("tag {tag} does not store a {ty} column"));
    let mut cur = Cursor { bytes: payload, pos: 0 };
    let mut mapped = None;
    let mut out = Vec::with_capacity(rows);
    match (ty, tag) {
        (Type::Int, TAG_I64_RAW) => {
            for _ in 0..rows {
                out.push(Value::Int(cur.i64()?));
            }
        }
        (Type::Int, TAG_I64_PACKED) => {
            let (mp, vals) = read_packed(&mut cur, rows, src, &corrupt)?;
            mapped = mp;
            for v in vals {
                out.push(Value::Int(v));
            }
        }
        (Type::Date, TAG_DATE_RAW) => {
            for _ in 0..rows {
                out.push(Value::Date(Date(cur.u32()? as i32)));
            }
        }
        (Type::Date, TAG_DATE_PACKED) => {
            let (mp, vals) = read_packed(&mut cur, rows, src, &corrupt)?;
            mapped = mp;
            for v in vals {
                let d = i32::try_from(v).map_err(|_| corrupt("day count out of i32 range"))?;
                out.push(Value::Date(Date(d)));
            }
        }
        (Type::Float, TAG_F64) => {
            for _ in 0..rows {
                out.push(Value::Float(cur.f64()?));
            }
        }
        (Type::Str, TAG_STR) => {
            for _ in 0..rows {
                let len = cur.u32()? as usize;
                let s =
                    std::str::from_utf8(cur.take(len)?).map_err(|_| corrupt("non-UTF-8 string"))?;
                out.push(Value::Str(s.to_string()));
            }
        }
        (Type::Bool, TAG_BOOL) => {
            for _ in 0..rows {
                match cur.u8()? {
                    0 => out.push(Value::Bool(false)),
                    1 => out.push(Value::Bool(true)),
                    b => return Err(corrupt(&format!("byte {b} is not a boolean"))),
                }
            }
        }
        _ => return Err(wrong_tag()),
    }
    if cur.pos != payload.len() {
        return Err(corrupt("payload longer than its row count"));
    }
    Ok((out, mapped))
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
                Some(Histogram { bounds, counts })
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

/// Reads a frame-of-reference payload, re-validating the header through
/// [`PackedInts::from_parts`] (which rejects tampered widths and word
/// counts) before decoding. With a live mapping, also constructs the
/// zero-copy [`PackedInts`] whose words live at
/// `payload_off + 24` in the mapped file — [`PackedInts::from_parts_mapped`]
/// re-checks bounds and 8-byte alignment, so a file that lies about its
/// layout is a typed corruption, not undefined behavior.
fn read_packed(
    cur: &mut Cursor<'_>,
    rows: usize,
    src: PackedSrc<'_>,
    corrupt: &impl Fn(&str) -> ArchiveError,
) -> Result<(Option<Arc<PackedInts>>, Vec<i64>), ArchiveError> {
    let base = cur.i64()?;
    let max = cur.i64()?;
    let width = cur.u8()?;
    // 7 zero bytes pad the 17-byte header to 24 so the words that follow
    // stay 8-byte aligned relative to the aligned payload start.
    if cur.take(7)?.iter().any(|&b| b != 0) {
        return Err(corrupt("nonzero pad in packed header"));
    }
    let words_pos = cur.pos;
    let n_words = PackedInts::words_for(rows, width);
    let mut words = Vec::with_capacity(n_words);
    for _ in 0..n_words {
        words.push(cur.u64()?);
    }
    let p = PackedInts::from_parts(base, max, width, rows, words)
        .ok_or_else(|| corrupt("invalid frame-of-reference header"))?;
    let vals: Vec<i64> = p.iter().collect();
    if vals.iter().any(|&v| v > p.max()) {
        return Err(corrupt("packed value above declared maximum"));
    }
    let mapped = match src {
        Some((m, payload_off)) => Some(Arc::new(
            PackedInts::from_parts_mapped(
                base,
                max,
                width,
                rows,
                Arc::clone(m),
                payload_off + words_pos,
            )
            .ok_or_else(|| corrupt("packed words misaligned or out of mapped bounds"))?,
        )),
        None => None,
    };
    Ok((mapped, vals))
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

/// Reads just the structure of an archive file — versions, encodings, bit
/// widths, payload sizes — verifying checksums but decoding no values.
pub fn inspect(path: &Path) -> Result<ArchiveInfo, ArchiveError> {
    inspect_bytes(&std::fs::read(path)?)
}

/// [`inspect`] over in-memory bytes.
pub fn inspect_bytes(bytes: &[u8]) -> Result<ArchiveInfo, ArchiveError> {
    let mut cur = Cursor { bytes, pos: 0 };
    let (scale_factor, table_count) = cur.file_header()?;
    let cat = catalog();
    let mut tables = Vec::with_capacity(table_count);
    for _ in 0..table_count {
        let (name, rows, col_count) = cur.table_header()?;
        let schema = &cat.table(&name).schema;
        let mut columns = Vec::with_capacity(col_count);
        for c in 0..col_count {
            let (tag, _, payload) = cur.column(&name, c)?;
            let packed = tag == TAG_I64_PACKED || tag == TAG_DATE_PACKED;
            if packed && payload.len() < PACKED_HEADER {
                return Err(ArchiveError::Corrupt(format!(
                    "packed payload of `{name}` column {c} shorter than its header"
                )));
            }
            let encoding = match tag {
                TAG_I64_RAW => "i64",
                TAG_I64_PACKED => "i64-packed",
                TAG_F64 => "f64",
                TAG_DATE_RAW => "date",
                TAG_DATE_PACKED => "date-packed",
                TAG_STR => "str",
                TAG_BOOL => "bool",
                t => {
                    return Err(ArchiveError::Corrupt(format!(
                        "unknown encoding tag {t} in `{name}` column {c}"
                    )))
                }
            };
            columns.push(ColumnInfo {
                name: schema.fields.get(c).map_or_else(|| format!("column{c}"), |f| f.name.clone()),
                encoding,
                bit_width: packed.then(|| payload[16]),
                payload_bytes: payload.len(),
                mappable_bytes: if packed { payload.len() - PACKED_HEADER } else { 0 },
            });
        }
        tables.push(TableInfo { name, rows, columns });
    }
    // Stats blocks are skipped but still checksum-verified, so `inspect` on
    // a corrupt file fails the same way `read` would.
    for &name in &TABLES {
        cur.stats_block(name)?;
    }
    cur.finish()?;
    Ok(ArchiveInfo { version: VERSION, scale_factor, file_bytes: bytes.len(), tables })
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
            let (a, b) = (data.table(name), back.table(name));
            assert_eq!(a.schema, b.schema, "{name} schema");
            assert_eq!(a.rows, b.rows, "{name} rows");
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
        assert!(
            bytes.len() < data.approx_bytes(),
            "archive ({}) should be smaller than the row data ({})",
            bytes.len(),
            data.approx_bytes()
        );
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

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join("legobase-archive-test");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("tpch-sf0.002.lbca");
        let data = tiny();
        write(&data, &path).expect("write");
        let back = read(&path).expect("read");
        assert_eq!(back.table("lineitem").rows, data.table("lineitem").rows);
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
            assert_eq!(plain.table(name).rows, mapped.table(name).rows, "{name} rows");
            assert_eq!(plain.catalog.stats(name), mapped.catalog.stats(name), "{name} stats");
        }
        // The borrowed words decode to exactly the values the eager path
        // materialized — the substitution the engine performs is lossless.
        let li = plain.table("lineitem");
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
        assert_eq!(li.rows, data.table("lineitem").len());
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
