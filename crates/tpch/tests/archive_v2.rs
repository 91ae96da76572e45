//! The archive's statistics blocks (PR 8): the optimizer statistics —
//! histograms and distinct sketches included — survive a write→read round
//! trip, and a corrupt statistics block is a typed [`ArchiveError`], never a
//! panic and never silently stale estimates.

use legobase_tpch::archive::{self, ArchiveError, MAGIC, VERSION};
use legobase_tpch::{TpchData, TABLES};

const SCALE: f64 = 0.002;

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

/// Where the statistics blocks start: the file header, then every table
/// record walked by the sizes `inspect_bytes` reports.
fn stats_tail_start(bytes: &[u8]) -> usize {
    let info = archive::inspect_bytes(bytes).expect("inspect");
    let mut pos = 4 + 4 + 8 + 4;
    for t in &info.tables {
        pos += 2 + t.name.len() + 8 + 4;
        for c in &t.columns {
            pos = (pos + 1 + 8).next_multiple_of(8) + c.payload_bytes + 8;
        }
    }
    pos
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
    let tail = stats_tail_start(&bytes);
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
