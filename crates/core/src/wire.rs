//! `legobase-wire-v3`: the dependency-free binary protocol of the TCP front
//! door (DESIGN.md §3f).
//!
//! Everything on the wire is a **frame**:
//!
//! ```text
//! u8  kind        (1=Request 2=ResponseHeader 3=ResultBatch 4=ResponseEnd 5=Error)
//! u32 len         (payload bytes, little-endian, ≤ MAX_FRAME)
//! [len bytes]     payload
//! u64 checksum    ([`checksum`] of the payload, little-endian)
//! ```
//!
//! preceded by one 8-byte **handshake** exchange: the client sends
//! [`MAGIC`]` + u32 version`, the server answers `MAGIC + version` on
//! agreement or `"LBER" + its version` on mismatch and closes. A flipped bit
//! anywhere in a payload is a typed [`WireError::Corrupt`], never a
//! mis-parsed result. Version 2 changed the checksum (v1 used byte-serial
//! FNV-1a); version 3 dropped the two join/sort parallel flags from a
//! request's settings block. An older peer is refused at the handshake.
//!
//! Every message is one write: [`write_frame`] hands the whole frame to its
//! writer in one `write_all` and does not flush, so a caller that buffers
//! (the server writes each response through one `BufWriter`) decides when
//! bytes leave. [`read_frame`] grows the payload buffer as bytes arrive, so
//! a length prefix alone never reserves more than one 64 KiB I/O buffer.
//!
//! The payload codecs are plain length-prefixed little-endian serialization
//! of the query API types ([`QueryRequest`] in,
//! [`QueryResponse`](crate::QueryResponse) pieces out). Two deliberate
//! limits keep the protocol small:
//!
//! * plan-kind requests do not cross the wire — render them to dialect SQL
//!   first with [`QueryRequest::rendered`] (round-trip proven for the whole
//!   workload);
//! * the optimizer report and single-shot run detail stay server-side —
//!   the header carries timings, cache flags, and the result schema only,
//!   so result-batch bytes are scheduling-independent and bit-comparable
//!   across surfaces.
//!
//! Every decoder returns a typed [`WireError`]; nothing in this module
//! panics on remote bytes.

use crate::request::{QueryError, QueryKind, QueryRequest};
use legobase_engine::settings::EngineKind;
use legobase_engine::Settings;
use legobase_sql::{Span, SqlError};
use legobase_storage::{Date, Field, Schema, Tuple, Type, Value};
use std::fmt;
use std::io::{Read, Write};
use std::time::Duration;

/// Protocol magic: the first four bytes either peer sends.
pub const MAGIC: [u8; 4] = *b"LBWP";
/// Handshake reply magic on version mismatch.
pub const MISMATCH: [u8; 4] = *b"LBER";
/// Protocol version spoken by this build.
pub const VERSION: u32 = 3;
/// Hard ceiling on a frame payload; larger length prefixes are rejected
/// before any allocation ([`WireError::Oversized`]).
pub const MAX_FRAME: u32 = 64 << 20;
/// Bytes of the read buffer and the write buffer of each peer, and the most
/// [`read_frame`] reserves for a payload before its bytes arrive.
pub(crate) const IO_BUFFER: usize = 64 << 10;

/// Frame kinds of `legobase-wire-v3`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum FrameKind {
    /// Client → server: one serialized [`QueryRequest`].
    Request = 1,
    /// Server → client: timings, cache flags, result schema, row count.
    ResponseHeader = 2,
    /// Server → client: a chunk of result rows.
    ResultBatch = 3,
    /// Server → client: the result stream is complete.
    ResponseEnd = 4,
    /// Server → client: a typed error ([`QueryError`] or a protocol
    /// complaint); the query produced no result.
    Error = 5,
}

impl FrameKind {
    fn from_u8(b: u8) -> Result<FrameKind, WireError> {
        Ok(match b {
            1 => FrameKind::Request,
            2 => FrameKind::ResponseHeader,
            3 => FrameKind::ResultBatch,
            4 => FrameKind::ResponseEnd,
            5 => FrameKind::Error,
            other => return Err(WireError::Corrupt(format!("unknown frame kind {other}"))),
        })
    }
}

/// Why a wire operation failed. Transport problems (including a peer that
/// disconnected mid-frame, which surfaces as an unexpected-EOF
/// [`WireError::Io`]) are separate from protocol problems, and both are
/// separate from the remote's *typed* query errors, which arrive as
/// [`QueryError`] through the error frame.
#[derive(Debug)]
pub enum WireError {
    /// The underlying socket failed (or the peer hung up mid-frame).
    Io(std::io::Error),
    /// The peer's handshake did not start with [`MAGIC`].
    BadMagic,
    /// The peers speak different protocol versions.
    VersionMismatch {
        /// The version the other side announced.
        peer: u32,
    },
    /// A frame announced a payload larger than [`MAX_FRAME`].
    Oversized {
        /// The announced payload length.
        len: u32,
    },
    /// The bytes arrived but do not decode: checksum mismatch, unknown
    /// tags, short payloads, trailing garbage.
    Corrupt(String),
    /// The remote server rejected the conversation at the protocol level
    /// (e.g. it could not decode our request frame) with this message.
    Remote(String),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "wire I/O error: {e}"),
            WireError::BadMagic => f.write_str("peer is not speaking legobase-wire (bad magic)"),
            WireError::VersionMismatch { peer } => {
                write!(f, "protocol version mismatch: peer speaks v{peer}, this build v{VERSION}")
            }
            WireError::Oversized { len } => {
                write!(f, "frame announces {len} payload bytes (limit {MAX_FRAME})")
            }
            WireError::Corrupt(msg) => write!(f, "corrupt frame: {msg}"),
            WireError::Remote(msg) => write!(f, "remote protocol error: {msg}"),
        }
    }
}

impl std::error::Error for WireError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WireError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> WireError {
        WireError::Io(e)
    }
}

/// FNV-1a over `bytes`. No longer the frame checksum (that is [`checksum`]
/// since v2); kept for callers that fingerprint bytes with the same function
/// the column archive uses.
pub use legobase_storage::fnv1a;

const CHECK_K1: u64 = 0x9e37_79b9_7f4a_7c15;
const CHECK_K2: u64 = 0xc2b2_ae3d_27d4_eb4f;
const CHECK_SEEDS: [u64; 4] =
    [0x243f_6a88_85a3_08d3, 0x1319_8a2e_0370_7344, 0xa409_3822_299f_31d0, 0x082e_fa98_ec4e_6c89];

/// Folds one word into a checksum lane. For a fixed word this is a bijection
/// of the lane (add, rotate, multiply by an odd constant), and for a fixed
/// lane a bijection of the word — so changing any one word always changes
/// the lane, and every later step carries that change to the result.
#[inline(always)]
fn check_round(lane: u64, word: u64) -> u64 {
    lane.wrapping_add(word.wrapping_mul(CHECK_K2)).rotate_left(31).wrapping_mul(CHECK_K1)
}

#[inline(always)]
fn le_word(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().expect("an 8-byte slice"))
}

/// The frame checksum of `legobase-wire-v3`: four independent lanes over the
/// payload's little-endian `u64` words (word `i` goes to lane `i % 4`), then
/// the length, the four lanes, the words left over and the zero-padded byte
/// tail folded into one value through the same round, and a final
/// avalanche. Every step is a bijection of the state it updates, so a
/// payload that differs from another in a single word — any number of bits
/// in one aligned 8 bytes — always gets a different checksum; the four
/// lanes keep four multiplies in flight where byte-serial FNV-1a has one
/// per byte.
pub fn checksum(bytes: &[u8]) -> u64 {
    let mut lanes = CHECK_SEEDS;
    let mut blocks = bytes.chunks_exact(32);
    for block in &mut blocks {
        for (i, lane) in lanes.iter_mut().enumerate() {
            *lane = check_round(*lane, le_word(block, 8 * i));
        }
    }
    let mut h = (bytes.len() as u64).wrapping_mul(CHECK_K1);
    for lane in lanes {
        h = check_round(h, lane);
    }
    let mut words = blocks.remainder().chunks_exact(8);
    for word in &mut words {
        h = check_round(h, le_word(word, 0));
    }
    let tail = words.remainder();
    if !tail.is_empty() {
        let mut last = [0u8; 8];
        last[..tail.len()].copy_from_slice(tail);
        h = check_round(h, u64::from_le_bytes(last));
    }
    h ^= h >> 33;
    h = h.wrapping_mul(CHECK_K2);
    h ^= h >> 29;
    h = h.wrapping_mul(CHECK_K1);
    h ^ (h >> 32)
}

/// Writes one frame — kind, length, payload, checksum — as one contiguous
/// `write_all`, and does not flush: a buffered caller flushes once per
/// message.
pub fn write_frame(w: &mut impl Write, kind: FrameKind, payload: &[u8]) -> std::io::Result<()> {
    write_frame_with(w, kind, payload.len(), |out| out.extend_from_slice(payload))
}

/// Writes a result-batch frame, the rows encoded straight into the frame.
pub(crate) fn write_batch(w: &mut impl Write, rows: &[Tuple]) -> std::io::Result<()> {
    write_frame_with(w, FrameKind::ResultBatch, 0, |out| put_batch(out, rows))
}

/// [`write_frame`] with the payload appended to the frame buffer by
/// `encode` (`capacity` is a hint of its size), so no payload is copied.
fn write_frame_with(
    w: &mut impl Write,
    kind: FrameKind,
    capacity: usize,
    encode: impl FnOnce(&mut Vec<u8>),
) -> std::io::Result<()> {
    let mut frame = Vec::with_capacity(5 + capacity + 8);
    frame.push(kind as u8);
    frame.extend_from_slice(&[0; 4]);
    encode(&mut frame);
    let len = frame.len() - 5;
    debug_assert!(len as u64 <= MAX_FRAME as u64);
    frame[1..5].copy_from_slice(&(len as u32).to_le_bytes());
    let sum = checksum(&frame[5..]);
    frame.extend_from_slice(&sum.to_le_bytes());
    w.write_all(&frame)
}

/// Reads one frame, verifying length bound and checksum. A peer that hangs
/// up mid-frame surfaces as `WireError::Io(UnexpectedEof)`. The payload
/// buffer starts at no more than 64 KiB and grows only as bytes arrive, so
/// a length prefix cannot make the reader hold memory its peer never sends.
pub fn read_frame(r: &mut impl Read) -> Result<(FrameKind, Vec<u8>), WireError> {
    let mut kind = [0u8; 1];
    r.read_exact(&mut kind)?;
    let kind = FrameKind::from_u8(kind[0])?;
    let mut len = [0u8; 4];
    r.read_exact(&mut len)?;
    let len = u32::from_le_bytes(len);
    if len > MAX_FRAME {
        return Err(WireError::Oversized { len });
    }
    let len = len as usize;
    let mut payload = Vec::new();
    while payload.len() < len {
        // Grow by what has arrived so far, at least one I/O buffer: the
        // buffer never holds more than twice the bytes received, or one
        // I/O buffer past them.
        let have = payload.len();
        let step = (len - have).min(have.max(IO_BUFFER));
        payload.reserve_exact(step);
        payload.resize(have + step, 0);
        r.read_exact(&mut payload[have..])?;
    }
    let mut sum = [0u8; 8];
    r.read_exact(&mut sum)?;
    let expect = u64::from_le_bytes(sum);
    let got = checksum(&payload);
    if got != expect {
        return Err(WireError::Corrupt(format!(
            "payload checksum mismatch (expected {expect:#018x}, computed {got:#018x})"
        )));
    }
    Ok((kind, payload))
}

/// The 8 handshake bytes: a magic and a version.
fn handshake_bytes(magic: [u8; 4]) -> [u8; 8] {
    let mut out = [0u8; 8];
    out[..4].copy_from_slice(&magic);
    out[4..].copy_from_slice(&VERSION.to_le_bytes());
    out
}

/// Client side of the 8-byte handshake: announce, then check the echo.
pub fn client_handshake(stream: &mut (impl Read + Write)) -> Result<(), WireError> {
    stream.write_all(&handshake_bytes(MAGIC))?;
    stream.flush()?;
    let mut reply = [0u8; 8];
    stream.read_exact(&mut reply)?;
    let peer = u32::from_le_bytes([reply[4], reply[5], reply[6], reply[7]]);
    match [reply[0], reply[1], reply[2], reply[3]] {
        m if m == MAGIC && peer == VERSION => Ok(()),
        m if m == MAGIC => Err(WireError::VersionMismatch { peer }),
        m if m == MISMATCH => Err(WireError::VersionMismatch { peer }),
        _ => Err(WireError::BadMagic),
    }
}

/// Server side of the handshake: validate the announcement, echo on
/// agreement, reply [`MISMATCH`] (and err) on a version we do not speak.
pub fn server_handshake(stream: &mut (impl Read + Write)) -> Result<(), WireError> {
    let mut hello = [0u8; 8];
    stream.read_exact(&mut hello)?;
    if [hello[0], hello[1], hello[2], hello[3]] != MAGIC {
        return Err(WireError::BadMagic);
    }
    let peer = u32::from_le_bytes([hello[4], hello[5], hello[6], hello[7]]);
    let agreed = peer == VERSION;
    stream.write_all(&handshake_bytes(if agreed { MAGIC } else { MISMATCH }))?;
    stream.flush()?;
    if agreed {
        Ok(())
    } else {
        Err(WireError::VersionMismatch { peer })
    }
}

// ---------------------------------------------------------------------------
// Payload codecs: length-prefixed little-endian, decoded through a bounds-
// checked cursor — remote bytes can be garbage, so every read is fallible.

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Cursor<'a> {
        Cursor { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| WireError::Corrupt("payload shorter than its encoding".into()))?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn bool(&mut self) -> Result<bool, WireError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(WireError::Corrupt(format!("bad bool byte {other}"))),
        }
    }

    fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn i32(&mut self) -> Result<i32, WireError> {
        Ok(i32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn i64(&mut self) -> Result<i64, WireError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn str(&mut self) -> Result<String, WireError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| WireError::Corrupt("string payload is not UTF-8".into()))
    }

    fn finish(self) -> Result<(), WireError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(WireError::Corrupt(format!(
                "{} trailing bytes after payload",
                self.buf.len() - self.pos
            )))
        }
    }
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

fn put_settings(out: &mut Vec<u8>, s: &Settings) {
    out.push(match s.engine {
        EngineKind::Volcano => 0,
        EngineKind::Push => 1,
        EngineKind::Specialized => 2,
    });
    for flag in [
        s.compiled_exprs,
        s.partitioning,
        s.date_indices,
        s.hashmap_lowering,
        s.string_dict,
        s.column_store,
        s.code_motion,
        s.field_removal,
        s.interop_fusion,
        s.optimize,
        s.encoding,
        s.feedback,
    ] {
        out.push(flag as u8);
    }
    out.extend_from_slice(&(s.parallelism as u64).to_le_bytes());
}

fn take_settings(c: &mut Cursor<'_>) -> Result<Settings, WireError> {
    let engine = match c.u8()? {
        0 => EngineKind::Volcano,
        1 => EngineKind::Push,
        2 => EngineKind::Specialized,
        other => return Err(WireError::Corrupt(format!("bad engine tag {other}"))),
    };
    let mut s = Settings::baseline();
    s.engine = engine;
    s.compiled_exprs = c.bool()?;
    s.partitioning = c.bool()?;
    s.date_indices = c.bool()?;
    s.hashmap_lowering = c.bool()?;
    s.string_dict = c.bool()?;
    s.column_store = c.bool()?;
    s.code_motion = c.bool()?;
    s.field_removal = c.bool()?;
    s.interop_fusion = c.bool()?;
    s.optimize = c.bool()?;
    s.encoding = c.bool()?;
    s.feedback = c.bool()?;
    s.parallelism = (c.u64()? as usize).max(1);
    Ok(s)
}

/// Serializes a SQL-kind [`QueryRequest`] into a request-frame payload.
///
/// Plan-kind requests are not representable on the wire (the plan algebra is
/// an in-process type); convert with [`QueryRequest::rendered`] first — the
/// error here is typed, not a panic.
pub fn encode_request(req: &QueryRequest) -> Result<Vec<u8>, WireError> {
    let QueryKind::Sql(text) = req.kind() else {
        return Err(WireError::Corrupt(
            "plan-kind requests do not cross the wire; render to SQL with \
             QueryRequest::rendered first"
                .into(),
        ));
    };
    let mut out = Vec::with_capacity(64 + text.len());
    put_str(&mut out, text);
    put_settings(&mut out, req.settings());
    out.push(req.explain() as u8);
    match req.memory_budget() {
        Some(b) => {
            out.push(1);
            out.extend_from_slice(&(b as u64).to_le_bytes());
        }
        None => out.push(0),
    }
    match req.deadline() {
        Some(d) => {
            out.push(1);
            out.extend_from_slice(&(d.as_nanos().min(u64::MAX as u128) as u64).to_le_bytes());
        }
        None => out.push(0),
    }
    Ok(out)
}

/// Decodes a request-frame payload back into a [`QueryRequest`].
pub fn decode_request(payload: &[u8]) -> Result<QueryRequest, WireError> {
    let mut c = Cursor::new(payload);
    let text = c.str()?;
    let settings = take_settings(&mut c)?;
    let explain = c.bool()?;
    let mut req = QueryRequest::sql(text).with_settings(settings).with_explain(explain);
    if c.bool()? {
        req = req.with_memory_budget(c.u64()? as usize);
    }
    if c.bool()? {
        req = req.with_deadline(Duration::from_nanos(c.u64()?));
    }
    c.finish()?;
    Ok(req)
}

/// What a response-header frame carries: everything about the response
/// except the rows (which stream behind it in result-batch frames) and the
/// in-process-only fields (optimizer report, run detail).
#[derive(Debug, Clone, PartialEq)]
pub struct ResponseHeader {
    /// Result schema (batch frames carry bare values; this names and types
    /// them).
    pub schema: Schema,
    /// Total result rows the batches will deliver.
    pub rows: u64,
    /// Server-side execution duration.
    pub exec_time: Duration,
    /// Server-side total duration (admission to result).
    pub total_time: Duration,
    /// The plan came from the session's plan cache.
    pub plan_cached: bool,
    /// The loaded form came from the session's prepared cache.
    pub prepared_cached: bool,
    /// Explain requests: the plan rendered to dialect SQL.
    pub explanation: Option<String>,
}

fn type_tag(ty: Type) -> u8 {
    match ty {
        Type::Int => 0,
        Type::Float => 1,
        Type::Str => 2,
        Type::Date => 3,
        Type::Bool => 4,
    }
}

fn tag_type(tag: u8) -> Result<Type, WireError> {
    Ok(match tag {
        0 => Type::Int,
        1 => Type::Float,
        2 => Type::Str,
        3 => Type::Date,
        4 => Type::Bool,
        other => return Err(WireError::Corrupt(format!("bad type tag {other}"))),
    })
}

/// Serializes a [`ResponseHeader`].
pub fn encode_header(h: &ResponseHeader) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&(h.schema.len() as u16).to_le_bytes());
    for f in &h.schema.fields {
        put_str(&mut out, &f.name);
        out.push(type_tag(f.ty));
    }
    out.extend_from_slice(&h.rows.to_le_bytes());
    out.extend_from_slice(&(h.exec_time.as_nanos().min(u64::MAX as u128) as u64).to_le_bytes());
    out.extend_from_slice(&(h.total_time.as_nanos().min(u64::MAX as u128) as u64).to_le_bytes());
    out.push(h.plan_cached as u8);
    out.push(h.prepared_cached as u8);
    match &h.explanation {
        Some(sql) => {
            out.push(1);
            put_str(&mut out, sql);
        }
        None => out.push(0),
    }
    out
}

/// Decodes a [`ResponseHeader`].
pub fn decode_header(payload: &[u8]) -> Result<ResponseHeader, WireError> {
    let mut c = Cursor::new(payload);
    let nfields = c.u16()? as usize;
    let mut fields = Vec::with_capacity(nfields);
    for _ in 0..nfields {
        let name = c.str()?;
        let ty = tag_type(c.u8()?)?;
        fields.push(Field { name, ty });
    }
    let rows = c.u64()?;
    let exec_time = Duration::from_nanos(c.u64()?);
    let total_time = Duration::from_nanos(c.u64()?);
    let plan_cached = c.bool()?;
    let prepared_cached = c.bool()?;
    let explanation = if c.bool()? { Some(c.str()?) } else { None };
    c.finish()?;
    Ok(ResponseHeader {
        schema: Schema { fields },
        rows,
        exec_time,
        total_time,
        plan_cached,
        prepared_cached,
        explanation,
    })
}

fn put_value(out: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Null => out.push(0),
        Value::Int(i) => {
            out.push(1);
            out.extend_from_slice(&i.to_le_bytes());
        }
        // Floats travel as raw IEEE bits: the decode is bit-exact, which is
        // what makes loopback results byte-comparable to in-process ones.
        Value::Float(x) => {
            out.push(2);
            out.extend_from_slice(&x.to_bits().to_le_bytes());
        }
        Value::Str(s) => {
            out.push(3);
            put_str(out, s);
        }
        Value::Date(d) => {
            out.push(4);
            out.extend_from_slice(&d.0.to_le_bytes());
        }
        Value::Bool(b) => {
            out.push(5);
            out.push(*b as u8);
        }
    }
}

fn take_value(c: &mut Cursor<'_>) -> Result<Value, WireError> {
    Ok(match c.u8()? {
        0 => Value::Null,
        1 => Value::Int(c.i64()?),
        2 => Value::Float(f64::from_bits(c.u64()?)),
        3 => Value::Str(c.str()?),
        4 => Value::Date(Date(c.i32()?)),
        5 => Value::Bool(c.bool()?),
        other => return Err(WireError::Corrupt(format!("bad value tag {other}"))),
    })
}

/// Serializes a batch of result rows (all of equal arity).
pub fn encode_batch(rows: &[Tuple]) -> Vec<u8> {
    let mut out = Vec::new();
    put_batch(&mut out, rows);
    out
}

fn put_batch(out: &mut Vec<u8>, rows: &[Tuple]) {
    let arity = rows.first().map_or(0, Vec::len);
    out.extend_from_slice(&(rows.len() as u32).to_le_bytes());
    out.extend_from_slice(&(arity as u16).to_le_bytes());
    for row in rows {
        debug_assert_eq!(row.len(), arity);
        for v in row {
            put_value(out, v);
        }
    }
}

/// Decodes a batch of result rows.
pub fn decode_batch(payload: &[u8]) -> Result<Vec<Tuple>, WireError> {
    let mut c = Cursor::new(payload);
    let nrows = c.u32()? as usize;
    let arity = c.u16()? as usize;
    // An adversarial count cannot force a huge allocation: every decoded
    // value consumes at least one payload byte, so cap up front.
    if nrows.saturating_mul(arity.max(1)) > payload.len() {
        return Err(WireError::Corrupt("batch announces more values than payload bytes".into()));
    }
    let mut rows = Vec::with_capacity(nrows);
    for _ in 0..nrows {
        let mut row = Vec::with_capacity(arity);
        for _ in 0..arity {
            row.push(take_value(&mut c)?);
        }
        rows.push(row);
    }
    c.finish()?;
    Ok(rows)
}

const ERR_SQL: u8 = 0;
const ERR_OVER_BUDGET: u8 = 1;
const ERR_SHUTTING_DOWN: u8 = 2;
const ERR_PANICKED: u8 = 3;
const ERR_DEADLINE: u8 = 4;
const ERR_PROTOCOL: u8 = 255;

/// Serializes a [`QueryError`] into an error-frame payload. Every variant
/// maps to its own code with every field carried — spans included — so the
/// client-side decode is lossless.
pub fn encode_error(e: &QueryError) -> Vec<u8> {
    let mut out = Vec::new();
    match e {
        QueryError::Sql(e) => {
            out.push(ERR_SQL);
            out.extend_from_slice(&(e.span.start as u64).to_le_bytes());
            out.extend_from_slice(&(e.span.end as u64).to_le_bytes());
            put_str(&mut out, &e.message);
        }
        QueryError::OverBudget { estimated_bytes, budget_bytes, query } => {
            out.push(ERR_OVER_BUDGET);
            out.extend_from_slice(&(*estimated_bytes as u64).to_le_bytes());
            out.extend_from_slice(&(*budget_bytes as u64).to_le_bytes());
            put_str(&mut out, query);
        }
        QueryError::ShuttingDown => out.push(ERR_SHUTTING_DOWN),
        QueryError::QueryPanicked { query, message } => {
            out.push(ERR_PANICKED);
            put_str(&mut out, query);
            put_str(&mut out, message);
        }
        QueryError::DeadlineExceeded { query, deadline, elapsed } => {
            out.push(ERR_DEADLINE);
            put_str(&mut out, query);
            out.extend_from_slice(
                &(deadline.as_nanos().min(u64::MAX as u128) as u64).to_le_bytes(),
            );
            out.extend_from_slice(&(elapsed.as_nanos().min(u64::MAX as u128) as u64).to_le_bytes());
        }
    }
    out
}

/// Serializes a server-side protocol complaint (the server could not decode
/// the request) into an error-frame payload.
pub fn encode_protocol_error(msg: &str) -> Vec<u8> {
    let mut out = vec![ERR_PROTOCOL];
    put_str(&mut out, msg);
    out
}

/// Decodes an error-frame payload. Typed query errors come back as
/// `Ok(QueryError)` with no variant collapsed; a protocol complaint comes
/// back as [`WireError::Remote`].
pub fn decode_error(payload: &[u8]) -> Result<QueryError, WireError> {
    let mut c = Cursor::new(payload);
    let e = match c.u8()? {
        ERR_SQL => {
            let start = c.u64()? as usize;
            let end = c.u64()? as usize;
            let message = c.str()?;
            QueryError::Sql(SqlError { message, span: Span { start, end } })
        }
        ERR_OVER_BUDGET => {
            let estimated_bytes = c.u64()? as usize;
            let budget_bytes = c.u64()? as usize;
            let query = c.str()?;
            QueryError::OverBudget { estimated_bytes, budget_bytes, query }
        }
        ERR_SHUTTING_DOWN => QueryError::ShuttingDown,
        ERR_PANICKED => {
            let query = c.str()?;
            let message = c.str()?;
            QueryError::QueryPanicked { query, message }
        }
        ERR_DEADLINE => {
            let query = c.str()?;
            let deadline = Duration::from_nanos(c.u64()?);
            let elapsed = Duration::from_nanos(c.u64()?);
            QueryError::DeadlineExceeded { query, deadline, elapsed }
        }
        ERR_PROTOCOL => {
            let msg = c.str()?;
            c.finish()?;
            return Err(WireError::Remote(msg));
        }
        other => return Err(WireError::Corrupt(format!("bad error code {other}"))),
    };
    c.finish()?;
    Ok(e)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // Published FNV-1a 64-bit test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    /// The frame checksum is part of the protocol: a change that moves any
    /// of these values needs a new [`VERSION`].
    #[test]
    fn checksum_matches_reference_vectors() {
        let counting: Vec<u8> = (0..=255).collect();
        for (input, sum) in [
            (&b""[..], 0x7a4d_cf3a_8b87_2842),
            (b"a", 0xd78f_10a2_0b34_a0d2),
            (b"foobar", 0xbdcd_2ffb_6de8_cfdf),
            (b"legobase-wire-v2 frame checksum!", 0x5ca8_3673_9a23_ca2d),
            (&counting[..], 0x4778_c72d_d3a2_49bf),
            (&counting[..199], 0xa8a9_08e1_dc91_e9f0),
        ] {
            assert_eq!(checksum(input), sum, "checksum of {} bytes", input.len());
        }
    }

    /// Deterministic filler bytes (an LCG), so corruption tests run on
    /// payloads that look like data rather than zeros.
    fn filler(n: usize) -> Vec<u8> {
        let mut x = 0x2545_f491_4f6c_dd1du64;
        (0..n)
            .map(|_| {
                x = x
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                (x >> 56) as u8
            })
            .collect()
    }

    fn corrupt_at(frame: &[u8], byte: usize, mask: u8) -> bool {
        let mut bad = frame.to_vec();
        bad[byte] ^= mask;
        matches!(read_frame(&mut bad.as_slice()), Err(WireError::Corrupt(_)))
    }

    #[test]
    fn every_single_bit_flip_of_a_payload_is_corrupt() {
        let mut frame = Vec::new();
        write_frame(&mut frame, FrameKind::ResultBatch, &filler(4096)).unwrap();
        // Payload and checksum bytes: everything after kind and length.
        for byte in 5..frame.len() {
            for bit in 0..8 {
                assert!(corrupt_at(&frame, byte, 1 << bit), "flip of bit {bit} in byte {byte}");
            }
        }
        // Any change confined to one aligned word is caught too.
        for word in 0..4096 / 8 {
            let mut bad = frame.clone();
            for b in &mut bad[5 + 8 * word..5 + 8 * word + 8] {
                *b = !*b;
            }
            assert!(matches!(read_frame(&mut bad.as_slice()), Err(WireError::Corrupt(_))));
        }
    }

    #[test]
    fn flips_at_both_ends_of_a_row_export_payload_are_corrupt() {
        // The size of the benchmark's row-export reply (x1), with a byte
        // tail so the last word is a partial one.
        let len = 133_123;
        let mut frame = Vec::new();
        write_frame(&mut frame, FrameKind::ResultBatch, &filler(len)).unwrap();
        for byte in (5..13).chain(5 + len - 8..5 + len) {
            for bit in 0..8 {
                assert!(corrupt_at(&frame, byte, 1 << bit), "flip of bit {bit} in byte {byte}");
            }
        }
    }

    /// One in-memory end of a connection: reads `input`, records writes.
    struct Duplex<'a> {
        input: &'a [u8],
        output: Vec<u8>,
    }

    impl Read for Duplex<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.input.read(buf)
        }
    }

    impl Write for Duplex<'_> {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.output.write(buf)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_v1_peer_gets_lber_and_a_typed_mismatch() {
        let mut v1_hello = MAGIC.to_vec();
        v1_hello.extend_from_slice(&1u32.to_le_bytes());
        // A v1 client meets this server: refused with LBER + our version.
        let mut conn = Duplex { input: &v1_hello, output: Vec::new() };
        assert!(matches!(server_handshake(&mut conn), Err(WireError::VersionMismatch { peer: 1 })));
        assert_eq!(&conn.output[..4], b"LBER");
        assert_eq!(conn.output[4..], VERSION.to_le_bytes());
        // This client meets a v1 server echoing its own version.
        let mut conn = Duplex { input: &v1_hello, output: Vec::new() };
        assert!(matches!(client_handshake(&mut conn), Err(WireError::VersionMismatch { peer: 1 })));
        assert_eq!(conn.output, handshake_bytes(MAGIC));
    }

    #[test]
    fn frame_roundtrip_and_checksum_detection() {
        let mut buf = Vec::new();
        write_frame(&mut buf, FrameKind::ResultBatch, b"payload bytes").unwrap();
        let (kind, payload) = read_frame(&mut buf.as_slice()).unwrap();
        assert_eq!(kind, FrameKind::ResultBatch);
        assert_eq!(payload, b"payload bytes");
        // Flip one payload bit: typed corruption, not a mis-parse.
        let mut bad = buf.clone();
        bad[7] ^= 0x40;
        assert!(matches!(read_frame(&mut bad.as_slice()), Err(WireError::Corrupt(_))));
        // Truncate mid-frame: unexpected EOF through the Io variant.
        let cut = &buf[..buf.len() - 3];
        assert!(matches!(read_frame(&mut &*cut), Err(WireError::Io(_))));
    }

    #[test]
    fn oversized_frames_rejected_before_allocation() {
        let mut buf = vec![FrameKind::Request as u8];
        buf.extend_from_slice(&(MAX_FRAME + 1).to_le_bytes());
        assert!(matches!(
            read_frame(&mut buf.as_slice()),
            Err(WireError::Oversized { len }) if len == MAX_FRAME + 1
        ));
    }

    #[test]
    fn request_roundtrips_with_every_field() {
        use legobase_engine::Config;
        let req = QueryRequest::sql("SELECT count(*) AS n FROM lineitem")
            .with_config(Config::StrDictC)
            .with_explain(true)
            .with_memory_budget(123 << 20)
            .with_deadline(Duration::from_millis(250));
        let back = decode_request(&encode_request(&req).unwrap()).unwrap();
        assert!(
            matches!(back.kind(), QueryKind::Sql(s) if s == "SELECT count(*) AS n FROM lineitem")
        );
        assert_eq!(back.settings(), req.settings());
        assert!(back.explain());
        assert_eq!(back.memory_budget(), Some(123 << 20));
        assert_eq!(back.deadline(), Some(Duration::from_millis(250)));
    }

    #[test]
    fn plan_requests_refuse_the_wire() {
        let catalog = legobase_tpch::TpchData::generate(0.001).catalog;
        let req = QueryRequest::plan(legobase_queries::query(&catalog, 6));
        assert!(matches!(encode_request(&req), Err(WireError::Corrupt(_))));
        // Rendered to SQL, the same request crosses fine.
        let rendered = req.rendered(&catalog);
        assert!(encode_request(&rendered).is_ok());
    }

    #[test]
    fn value_batches_roundtrip_bit_exact() {
        let rows: Vec<Tuple> = vec![
            vec![
                Value::Null,
                Value::Int(-7),
                Value::Float(std::f64::consts::PI),
                Value::Str("BUILDING".into()),
                Value::Date(Date(9_496)),
                Value::Bool(true),
            ],
            vec![
                Value::Int(i64::MIN),
                Value::Float(-0.0),
                Value::Float(f64::NAN),
                Value::Str(String::new()),
                Value::Date(Date(-1)),
                Value::Bool(false),
            ],
        ];
        let encoded = encode_batch(&rows);
        let back = decode_batch(&encoded).unwrap();
        assert_eq!(back.len(), 2);
        // Bit-exactness is stronger than Value::eq (which treats Int(42) ==
        // Float(42.0) and NaN != NaN): compare the re-encoding bytes.
        assert_eq!(encode_batch(&back), encoded);
    }

    #[test]
    fn header_roundtrips() {
        let h = ResponseHeader {
            schema: Schema::of(&[("n", Type::Int), ("avg_price", Type::Float)]),
            rows: 42,
            exec_time: Duration::from_micros(1234),
            total_time: Duration::from_micros(5678),
            plan_cached: true,
            prepared_cached: false,
            explanation: Some("SELECT 1".into()),
        };
        assert_eq!(decode_header(&encode_header(&h)).unwrap(), h);
    }

    /// Every QueryError variant survives the wire with every field intact —
    /// the lossless-error satellite, at the codec level.
    #[test]
    fn errors_roundtrip_losslessly() {
        let cases = vec![
            QueryError::Sql(SqlError {
                message: "no table `lineitm`".into(),
                span: Span { start: 14, end: 21 },
            }),
            QueryError::OverBudget {
                estimated_bytes: 1 << 30,
                budget_bytes: 1 << 20,
                query: "q".into(),
            },
            QueryError::ShuttingDown,
            QueryError::QueryPanicked { query: "Q6".into(), message: "boom".into() },
            QueryError::DeadlineExceeded {
                query: "Q1".into(),
                deadline: Duration::from_millis(5),
                elapsed: Duration::from_millis(7),
            },
        ];
        for e in cases {
            let back = decode_error(&encode_error(&e)).unwrap();
            match (&e, &back) {
                (QueryError::Sql(a), QueryError::Sql(b)) => {
                    assert_eq!(a.message, b.message);
                    assert_eq!(a.span, b.span);
                }
                (
                    QueryError::OverBudget { estimated_bytes: a1, budget_bytes: a2, query: a3 },
                    QueryError::OverBudget { estimated_bytes: b1, budget_bytes: b2, query: b3 },
                ) => assert_eq!((a1, a2, a3), (b1, b2, b3)),
                (QueryError::ShuttingDown, QueryError::ShuttingDown) => {}
                (
                    QueryError::QueryPanicked { query: a1, message: a2 },
                    QueryError::QueryPanicked { query: b1, message: b2 },
                ) => assert_eq!((a1, a2), (b1, b2)),
                (
                    QueryError::DeadlineExceeded { query: a1, deadline: a2, elapsed: a3 },
                    QueryError::DeadlineExceeded { query: b1, deadline: b2, elapsed: b3 },
                ) => assert_eq!((a1, a2, a3), (b1, b2, b3)),
                (a, b) => panic!("variant changed across the wire: {a:?} -> {b:?}"),
            }
        }
        // Protocol complaints come back through the wire-error channel.
        assert!(matches!(
            decode_error(&encode_protocol_error("bad request frame")),
            Err(WireError::Remote(m)) if m == "bad request frame"
        ));
    }

    #[test]
    fn decoders_reject_trailing_garbage() {
        let mut p = encode_header(&ResponseHeader {
            schema: Schema::of(&[("n", Type::Int)]),
            rows: 0,
            exec_time: Duration::ZERO,
            total_time: Duration::ZERO,
            plan_cached: false,
            prepared_cached: false,
            explanation: None,
        });
        p.push(0xEE);
        assert!(matches!(decode_header(&p), Err(WireError::Corrupt(_))));
    }
}
