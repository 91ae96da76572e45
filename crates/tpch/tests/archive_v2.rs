//! The archive as the base data's persistent form. The optimizer statistics
//! — histograms and distinct sketches included — survive a write→read round
//! trip; the generator's columns, a read archive's and a mapped archive's
//! decode to the same vectors; the bytes the writer produces are pinned;
//! and everything that can be wrong with a file — a corrupt statistics
//! block or any column payload a later decode would trust — is a typed
//! [`ArchiveError`] *when the archive is opened*, never a panic at the
//! first query and never silently stale estimates.

use legobase_storage::Column;
use legobase_tpch::archive::{self, ArchiveError, MAGIC, VERSION};
use legobase_tpch::{catalog, TpchData, TABLES};

const SCALE: f64 = 0.002;

/// The archive format's checksum.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ b as u64).wrapping_mul(0x0100_0000_01b3))
}

/// Writes `bytes` to a temp file and opens it with both file readers.
fn open_both(tag: &str, bytes: &[u8]) -> [Result<TpchData, ArchiveError>; 2] {
    let dir = std::env::temp_dir().join("legobase-archive-v2");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join(format!("{tag}-{}.lbca", std::process::id()));
    std::fs::write(&path, bytes).expect("write");
    let opened = [archive::read(&path), archive::read_mapped(&path)];
    std::fs::remove_file(&path).ok();
    opened
}

/// Element-wise equality of two plain columns (floats by bit pattern).
fn same_column(a: &Column, b: &Column) -> bool {
    match (a, b) {
        (Column::I64(a), Column::I64(b)) => a == b,
        (Column::F64(a), Column::F64(b)) => {
            a.len() == b.len() && a.iter().zip(b.iter()).all(|(x, y)| x.to_bits() == y.to_bits())
        }
        (Column::Date(a), Column::Date(b)) => a == b,
        (Column::Str(a), Column::Str(b)) => a == b,
        (Column::Bool(a), Column::Bool(b)) => a == b,
        _ => false,
    }
}

/// One representation, three ways to come by it: every `(table, column)`
/// of a generated database, of its archive read onto the heap and of its
/// archive mapped decodes to the same plain vector — and the bytes the
/// writer produced for it are the ones the parent of the columnar rewrite
/// produced (length and FNV-1a recorded there), which pins every value and
/// the row order.
#[test]
fn generated_read_and_mapped_columns_are_equal_and_the_bytes_are_pinned() {
    let generated = TpchData::generate(0.01);
    let bytes = archive::to_bytes(&generated).expect("serialize");
    assert_eq!((bytes.len(), fnv1a(&bytes)), (10_605_700, 0x537b_fc3b_1cee_633f));
    let [read, mapped] = open_both("oracle", &bytes).map(|r| r.expect("a valid archive opens"));
    assert!(mapped.mapped_bytes() > 0 && read.mapped_bytes() == 0);
    let cat = catalog();
    for &name in &TABLES {
        assert_eq!(
            (read.rows(name), mapped.rows(name)),
            (generated.rows(name), generated.rows(name))
        );
        for c in 0..cat.table(name).schema.len() {
            let want = generated.plain_column(name, c);
            assert_eq!(want.len(), generated.rows(name), "{name}[{c}]");
            // … and weighs the same, so memory accounting cannot tell a
            // generated system from an opened one.
            assert_eq!(want.approx_bytes(), read.plain_column(name, c).approx_bytes());
            assert!(same_column(&want, &read.plain_column(name, c)), "{name}[{c}] read");
            assert!(same_column(&want, &mapped.plain_column(name, c)), "{name}[{c}] mapped");
        }
    }
    // Re-serializing an opened archive decodes and re-encodes every column.
    assert!(archive::to_bytes(&mapped).expect("serialize") == bytes);
}

/// One column record of an archive: where its tag byte and its payload lie.
struct ColumnAt {
    table: String,
    encoding: &'static str,
    tag: usize,
    payload: std::ops::Range<usize>,
}

/// Every column record, walked by the sizes `inspect_bytes` reports, and
/// where the records end (the statistics blocks follow).
fn column_records(bytes: &[u8]) -> (Vec<ColumnAt>, usize) {
    let info = archive::inspect_bytes(bytes).expect("inspect");
    let mut pos = 4 + 4 + 8 + 4;
    let mut records = Vec::new();
    for t in &info.tables {
        pos += 2 + t.name.len() + 8 + 4;
        for c in &t.columns {
            let start = (pos + 1 + 8).next_multiple_of(8);
            records.push(ColumnAt {
                table: t.name.clone(),
                encoding: c.encoding,
                tag: pos,
                payload: start..start + c.payload_bytes,
            });
            pos = start + c.payload_bytes + 8;
        }
    }
    (records, pos)
}

/// Recomputes the checksum behind a payload that was edited in place, so
/// the edit reaches payload validation instead of the checksum.
fn reseal(bytes: &mut [u8], payload: &std::ops::Range<usize>) {
    let sum = fnv1a(&bytes[payload.clone()]);
    bytes[payload.end..payload.end + 8].copy_from_slice(&sum.to_le_bytes());
}

/// Payloads whose checksum is right and whose content is not — a tag that
/// does not store the attribute's type, a non-UTF-8 string, a row count the
/// payloads run short of or past, a packed value above its declared
/// maximum — are refused by every reader at open, with the typed error the
/// eager decoder used to give. Nothing is left for a first query to find.
#[test]
fn corrupt_payloads_fail_at_open_not_at_first_query() {
    let bytes = archive::to_bytes(&TpchData::generate(SCALE)).expect("serialize");
    let (records, _) = column_records(&bytes);
    let first = |encoding: &str| {
        records.iter().find(|r| r.table == "lineitem" && r.encoding == encoding).expect(encoding)
    };
    let refused = |tag: &str, bytes: &[u8], expect: &dyn Fn(&ArchiveError) -> bool| {
        let mut readers = vec![archive::from_bytes(bytes)];
        readers.extend(open_both(tag, bytes));
        for (reader, opened) in ["from_bytes", "read", "read_mapped"].iter().zip(readers) {
            match opened {
                Err(e) => assert!(expect(&e), "{tag} via {reader}: unexpected error {e}"),
                Ok(_) => panic!("{tag} via {reader}: opened cleanly"),
            }
        }
    };
    let corrupt_saying = |what: &'static str| move |e: &ArchiveError| matches!(e, ArchiveError::Corrupt(m) if m.contains(what));

    // A string column announced as floats.
    let mut bad_tag = bytes.clone();
    bad_tag[first("str").tag] = 2;
    refused("bad-tag", &bad_tag, &corrupt_saying("does not store"));
    let mut unknown_tag = bytes.clone();
    unknown_tag[first("f64").tag] = 99;
    refused("unknown-tag", &unknown_tag, &corrupt_saying("does not store"));

    // A byte that is not UTF-8 inside the first string (after its length).
    let mut non_utf8 = bytes.clone();
    let strings = first("str");
    non_utf8[strings.payload.start + 4] = 0xff;
    reseal(&mut non_utf8, &strings.payload);
    refused("non-utf8", &non_utf8, &corrupt_saying("non-UTF-8"));

    // The row count is outside every checksum: one row fewer and the
    // payloads run past it, one more and they run short.
    // (It sits before the table's first column record: `rows u64 | arity u32 | tag`.)
    let rows_at = records.iter().find(|r| r.table == "lineitem").expect("lineitem").tag - 12;
    let rows = u64::from_le_bytes(bytes[rows_at..rows_at + 8].try_into().unwrap());
    let mut overlong = bytes.clone();
    overlong[rows_at..rows_at + 8].copy_from_slice(&(rows - 1).to_le_bytes());
    refused("overlong", &overlong, &corrupt_saying("longer than its row count"));
    let mut short = bytes.clone();
    short[rows_at..rows_at + 8].copy_from_slice(&(rows + 1).to_le_bytes());
    refused("short", &short, &|e| matches!(e, ArchiveError::Truncated));

    // A packed header whose declared maximum its own values exceed, and one
    // whose width no longer matches its span.
    let packed = first("i64-packed");
    let max_at = packed.payload.start + 8;
    let base = i64::from_le_bytes(bytes[packed.payload.start..max_at].try_into().unwrap());
    let mut lying_header = bytes.clone();
    lying_header[max_at..max_at + 8].copy_from_slice(&base.to_le_bytes());
    reseal(&mut lying_header, &packed.payload);
    refused("packed-header", &lying_header, &corrupt_saying("frame-of-reference"));
}

/// Histograms and sketches written by v2 decode bit-identically, without a
/// re-collection pass masking a broken stats block.
#[test]
fn v2_round_trips_histograms_and_sketches() {
    let data = TpchData::generate(SCALE);
    let bytes = archive::to_bytes(&data).expect("serialize v2");
    assert_eq!(u32::from_le_bytes(bytes[4..8].try_into().unwrap()), VERSION);
    let back = archive::from_bytes(&bytes).expect("parse v2");
    let mut saw_histogram = false;
    let mut saw_sketch = false;
    for &name in &TABLES {
        let a = data.catalog.stats(name).expect("generated stats");
        let b = back.catalog.stats(name).expect("loaded stats");
        assert_eq!(a, b, "{name}: loaded statistics differ from generated");
        saw_histogram |= b.columns.iter().any(|c| c.histogram.is_some());
        saw_sketch |= b.columns.iter().any(|c| c.sketch.is_some());
    }
    assert!(saw_histogram, "no histogram survived the round trip");
    assert!(saw_sketch, "no sketch survived the round trip");
}

/// Every way a stats block can rot — flipped payload byte (checksum),
/// truncated tail, inconsistent histogram structure — comes back as a typed
/// error, never a panic.
#[test]
fn corrupt_stats_blocks_are_typed_errors() {
    let data = TpchData::generate(SCALE);
    let bytes = archive::to_bytes(&data).expect("serialize");
    assert_eq!(&bytes[..4], &MAGIC);

    // The stats blocks occupy everything past the last table record — one
    // `len | payload | checksum` per table, ending exactly at the file's end.
    let (_, tail) = column_records(&bytes);
    let mut end = tail;
    for _ in &TABLES {
        end += 8 + u64::from_le_bytes(bytes[end..end + 8].try_into().unwrap()) as usize + 8;
    }
    assert_eq!(end, bytes.len(), "the tail is the {} statistics blocks", TABLES.len());

    // Corrupt a byte inside it and the checksum must refuse before any
    // parsing.
    let mut flipped = bytes.clone();
    let mid = tail + (flipped.len() - tail) / 2;
    flipped[mid] ^= 0x01;
    match archive::from_bytes(&flipped) {
        Err(ArchiveError::Corrupt(m)) => {
            assert!(m.contains("statistics") || m.contains("checksum"), "unhelpful: {m}")
        }
        Err(e) => panic!("expected Corrupt, got: {e}"),
        Ok(_) => panic!("flipped stats byte parsed cleanly"),
    }

    // A truncated stats block is typed too.
    assert!(matches!(
        archive::from_bytes(&bytes[..bytes.len() - 9]),
        Err(ArchiveError::Truncated | ArchiveError::Corrupt(_))
    ));

    // And extra trailing bytes after the last block never pass silently.
    let mut padded = bytes.clone();
    padded.extend_from_slice(&[0u8; 4]);
    assert!(matches!(archive::from_bytes(&padded), Err(ArchiveError::Corrupt(_))));
}

/// Versions other than `VERSION` are rejected up front.
#[test]
fn unknown_versions_rejected() {
    let data = TpchData::generate(SCALE);
    let mut bytes = archive::to_bytes(&data).expect("v2");
    bytes[4..8].copy_from_slice(&(VERSION + 1).to_le_bytes());
    assert!(matches!(archive::from_bytes(&bytes), Err(ArchiveError::BadVersion(_))));
    bytes[4..8].copy_from_slice(&0u32.to_le_bytes());
    assert!(matches!(archive::from_bytes(&bytes), Err(ArchiveError::BadVersion(0))));
}
