//! Frame-of-reference bit-packed integer storage.
//!
//! The encoded column variants (PR 7) all bottom out here: values are stored
//! as unsigned offsets from the column minimum (*frame of reference*), each
//! offset occupying exactly `width` bits inside a dense `Vec<u64>`. Kernels
//! scan the packed words directly — range predicates pre-encode their literal
//! via [`PackedInts::encode`] and compare raw offsets, so a filter over an
//! encoded column never materializes the decoded vector.
//!
//! The layout is deliberately boring: little-endian bit order inside each
//! word, values may straddle a word boundary (read via a two-word fetch),
//! `width == 0` means every value equals `base` and no words are stored.
//!
//! Batch decoding (PR 10) removes the per-element decode tax for kernels
//! that need the values (not just raw comparisons): [`PackedInts::unpack_range`]
//! decodes whole morsels word-at-a-time — 64 values per `width`-word block,
//! monomorphized per width so each block body is a fully unrolled,
//! autovectorizable loop. Residual per-row reads go through the branchless
//! ≤56-bit fast path in [`PackedInts::get_raw`] or a [`PackedCursor`]. There
//! is no whole-column decode cache: columns whose decoded values dominate
//! stay plain at load instead (DESIGN.md §3e).
//!
//! The word payload is either owned heap memory or a borrowed view into a
//! read-only file mapping ([`crate::mapped::Mapping`]): an LBCA v3 archive
//! aligns its packed payloads so [`PackedInts::from_parts_mapped`] can serve
//! scans straight from the page cache with zero copies.

use crate::mapped::Mapping;
use std::sync::Arc;

/// The word payload: owned, or borrowed zero-copy from a file mapping.
#[derive(Clone, Debug)]
enum Words {
    Owned(Vec<u64>),
    Mapped {
        map: Arc<Mapping>,
        /// Byte offset of the first word inside the mapping (8-byte aligned,
        /// verified at construction).
        offset: usize,
        count: usize,
    },
}

impl Words {
    #[inline]
    fn as_slice(&self) -> &[u64] {
        match self {
            Words::Owned(v) => v,
            Words::Mapped { map, offset, count } => map
                .u64_slice(*offset, *count)
                .expect("alignment and bounds verified when the mapped view was constructed"),
        }
    }
}

/// Frame-of-reference bit-packed integers: `value = base + offset`, each
/// offset stored in `width` bits.
#[derive(Clone, Debug)]
pub struct PackedInts {
    base: i64,
    max: i64,
    width: u8,
    len: usize,
    words: Words,
}

/// Equality is over the logical content (header + words), whether the words
/// are owned or mapped.
impl PartialEq for PackedInts {
    fn eq(&self, other: &PackedInts) -> bool {
        self.base == other.base
            && self.max == other.max
            && self.width == other.width
            && self.len == other.len
            && self.words.as_slice() == other.words.as_slice()
    }
}

impl Eq for PackedInts {}

/// Decodes full 64-value blocks for one compile-time width: each block reads
/// exactly `W` words and writes exactly 64 values, with every index a
/// constant after unrolling — the autovectorizable inner loop of
/// [`PackedInts::unpack_range`].
#[inline]
fn unpack_block<const W: usize>(words: &[u64], base: i64, out: &mut [i64]) {
    let words: &[u64; W] = words.try_into().expect("block carries exactly W words");
    let out: &mut [i64; 64] = out.try_into().expect("block decodes exactly 64 values");
    let mask = if W == 64 { u64::MAX } else { (1u64 << W) - 1 };
    for (i, slot) in out.iter_mut().enumerate() {
        let bit = i * W;
        let (wi, sh) = (bit / 64, bit % 64);
        let mut raw = words[wi] >> sh;
        if sh + W > 64 {
            raw |= words[wi + 1] << (64 - sh);
        }
        *slot = base.wrapping_add((raw & mask) as i64);
    }
}

/// Width-dispatched block decoding: `words` holds `blocks * width` words,
/// `out` holds `blocks * 64` values. Monomorphized per width through the
/// macro so every canonical width class gets its own specialized loop.
fn unpack_blocks(width: u8, words: &[u64], base: i64, out: &mut [i64]) {
    macro_rules! arms {
        ($($w:literal)+) => {
            match width as usize {
                $( $w => {
                    for (bw, bo) in words.chunks_exact($w).zip(out.chunks_exact_mut(64)) {
                        unpack_block::<$w>(bw, base, bo);
                    }
                } )+
                _ => unreachable!("width 0 and width > 64 never reach the block path"),
            }
        };
    }
    arms!(1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20 21 22 23 24 25 26 27 28 29 30 31 32
          33 34 35 36 37 38 39 40 41 42 43 44 45 46 47 48 49 50 51 52 53 54 55 56 57 58 59 60 61
          62 63 64);
}

impl PackedInts {
    /// Packs a slice of values. The frame of reference (`base`) is the
    /// minimum and the bit width is the smallest that represents
    /// `max - min`. Offsets use wrapping arithmetic so the full `i64`
    /// domain round-trips (an all-domain column simply packs at width 64).
    pub fn from_values(values: &[i64]) -> PackedInts {
        let (mut min, mut max) = (i64::MAX, i64::MIN);
        for &v in values {
            min = min.min(v);
            max = max.max(v);
        }
        if values.is_empty() {
            (min, max) = (0, 0);
        }
        let span = max.wrapping_sub(min) as u64;
        let width = (64 - span.leading_zeros()) as u8;
        let mut packed = PackedInts {
            base: min,
            max,
            width,
            len: values.len(),
            words: Words::Owned(vec![0u64; Self::words_for(values.len(), width)]),
        };
        for (i, &v) in values.iter().enumerate() {
            packed.set_raw(i, v.wrapping_sub(min) as u64);
        }
        packed
    }

    /// Reassembles a packed column from its serialized parts (the archive
    /// loader). Returns `None` when the parts are inconsistent — truncated
    /// word payloads must surface as corruption, not a later panic.
    pub fn from_parts(
        base: i64,
        max: i64,
        width: u8,
        len: usize,
        words: Vec<u64>,
    ) -> Option<PackedInts> {
        Self::check_parts(base, max, width, len, words.len())?;
        Some(PackedInts { base, max, width, len, words: Words::Owned(words) })
    }

    /// Like [`PackedInts::from_parts`], but the words are borrowed zero-copy
    /// from `offset` bytes into a read-only file mapping instead of copied to
    /// the heap. Returns `None` for the same header inconsistencies, and
    /// additionally when the word range is out of the mapping's bounds or not
    /// 8-byte aligned — a misaligned v3 payload is a corruption, never UB.
    pub fn from_parts_mapped(
        base: i64,
        max: i64,
        width: u8,
        len: usize,
        map: Arc<Mapping>,
        offset: usize,
    ) -> Option<PackedInts> {
        let count = Self::check_parts_counted(base, max, width, len)?;
        map.u64_slice(offset, count)?;
        Some(PackedInts { base, max, width, len, words: Words::Mapped { map, offset, count } })
    }

    fn check_parts(base: i64, max: i64, width: u8, len: usize, n_words: usize) -> Option<()> {
        (Self::check_parts_counted(base, max, width, len)? == n_words).then_some(())
    }

    /// Header validation shared by both constructors; returns the canonical
    /// word count.
    fn check_parts_counted(base: i64, max: i64, width: u8, len: usize) -> Option<usize> {
        if width > 64 {
            return None;
        }
        // The width is canonical — exactly what from_values derives from the
        // declared [base, max] span — so a tampered header cannot claim a
        // domain its offsets do not fit.
        let span = max.wrapping_sub(base) as u64;
        if (64 - span.leading_zeros()) as u8 != width {
            return None;
        }
        Some(Self::words_for(len, width))
    }

    /// Number of `u64` words needed to hold `len` values at `width` bits
    /// (the archive reader sizes its reads with this).
    pub fn words_for(len: usize, width: u8) -> usize {
        (len * width as usize).div_ceil(64)
    }

    #[inline]
    fn mask(&self) -> u64 {
        if self.width == 64 {
            u64::MAX
        } else {
            (1u64 << self.width) - 1
        }
    }

    fn set_raw(&mut self, i: usize, raw: u64) {
        let w = self.width as usize;
        if w == 0 {
            return;
        }
        let Words::Owned(words) = &mut self.words else {
            unreachable!("only from_values writes, and it always owns its words")
        };
        let bit = i * w;
        let (word, shift) = (bit / 64, bit % 64);
        words[word] |= raw << shift;
        if shift + w > 64 {
            words[word + 1] |= raw >> (64 - shift);
        }
    }

    /// The raw `width`-bit offset at row `i` (no frame-of-reference add).
    /// This is what encoding-aware kernels compare against a pre-encoded
    /// literal.
    ///
    /// Random access is on the hot path of date-index candidate filtering
    /// and selective gathers, so widths up to 56 bits take a branch-light
    /// route: any value narrower than 57 bits spans at most 8 consecutive
    /// bytes, so a single unaligned little-endian `u64` load at the value's
    /// byte offset replaces the two-word straddle dance. The load must stay
    /// inside the word buffer (the last few values of a column may not have
    /// 8 readable bytes behind them), so those fall back to the exact
    /// two-word path — a perfectly predicted branch everywhere but the
    /// buffer tail.
    #[inline]
    pub fn get_raw(&self, i: usize) -> u64 {
        debug_assert!(i < self.len);
        let w = self.width as usize;
        if w == 0 {
            return 0;
        }
        let words = self.words.as_slice();
        let bit = i * w;
        if w <= 56 {
            let byte = bit >> 3;
            if byte + 8 <= words.len() * 8 {
                // In-bounds for the byte range checked above; `u64` tolerates
                // unaligned reads via `read_unaligned`.
                let raw = unsafe {
                    (words.as_ptr().cast::<u8>().add(byte).cast::<u64>()).read_unaligned()
                };
                return (u64::from_le(raw) >> (bit & 7)) & self.mask();
            }
        }
        let (word, shift) = (bit / 64, bit % 64);
        let mut raw = words[word] >> shift;
        if shift + w > 64 {
            raw |= words[word + 1] << (64 - shift);
        }
        raw & self.mask()
    }

    /// The decoded value at row `i`.
    #[inline]
    pub fn get(&self, i: usize) -> i64 {
        self.base.wrapping_add(self.get_raw(i) as i64)
    }

    /// A borrowed random-access cursor with the per-call setup (word-slice
    /// resolution, mask derivation) hoisted out of the read loop — the shape
    /// per-row consumers like the date-index candidate filter want when they
    /// probe many scattered rows.
    pub fn cursor(&self) -> PackedCursor<'_> {
        PackedCursor {
            words: self.words.as_slice(),
            width: self.width as usize,
            mask: self.mask(),
            base: self.base,
            len: self.len,
        }
    }

    /// Batch-decodes `out.len()` values starting at row `start` into `out`.
    /// A scalar head aligns to a 64-value block boundary, full blocks run
    /// through the width-monomorphized word-at-a-time loop (64 values per
    /// `width` words), and a scalar tail finishes non-multiple-of-64
    /// remainders. Output is element-for-element identical to per-row
    /// [`PackedInts::get`].
    pub fn unpack_range(&self, start: usize, out: &mut [i64]) {
        let end = start.checked_add(out.len()).expect("range end overflows");
        assert!(end <= self.len, "unpack_range {start}..{end} out of bounds (len {})", self.len);
        if self.width == 0 {
            out.fill(self.base);
            return;
        }
        let w = self.width as usize;
        let mut i = start;
        let mut o = 0;
        // Head: scalar-decode up to the first 64-value block boundary.
        while o < out.len() && !i.is_multiple_of(64) {
            out[o] = self.get(i);
            i += 1;
            o += 1;
        }
        // Body: whole blocks of 64 values — each spans exactly `w` words.
        let blocks = (out.len() - o) / 64;
        if blocks > 0 {
            let words = self.words.as_slice();
            let first = (i / 64) * w;
            unpack_blocks(
                self.width,
                &words[first..first + blocks * w],
                self.base,
                &mut out[o..o + blocks * 64],
            );
            i += blocks * 64;
            o += blocks * 64;
        }
        // Tail: scalar remainder.
        while o < out.len() {
            out[o] = self.get(i);
            i += 1;
            o += 1;
        }
    }

    /// Pre-encodes a comparison literal: the raw offset this value would
    /// pack to, or `None` when it lies outside `[base, max]` (the caller
    /// clamps the predicate to constant true/false per operator).
    #[inline]
    pub fn encode(&self, v: i64) -> Option<u64> {
        if v < self.base || v > self.max {
            None
        } else {
            Some(v.wrapping_sub(self.base) as u64)
        }
    }

    /// Number of values.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no values are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The frame of reference (column minimum).
    pub fn base(&self) -> i64 {
        self.base
    }

    /// The column maximum (upper end of the encodable domain).
    pub fn max(&self) -> i64 {
        self.max
    }

    /// Bits per stored offset (0 for a constant column).
    pub fn width(&self) -> u8 {
        self.width
    }

    /// The packed word payload (archive serialization).
    pub fn words(&self) -> &[u64] {
        self.words.as_slice()
    }

    /// Decoded values in row order.
    pub fn iter(&self) -> impl Iterator<Item = i64> + '_ {
        (0..self.len).map(|i| self.get(i))
    }

    /// True when the words are borrowed from a file mapping rather than
    /// owned heap memory.
    pub fn is_mapped(&self) -> bool {
        matches!(self.words, Words::Mapped { .. })
    }

    /// Resident heap footprint in bytes. Mapped words are
    /// page-cache-borrowed, not resident: they report 0 here and their size
    /// under [`PackedInts::mapped_bytes`].
    pub fn approx_bytes(&self) -> usize {
        match &self.words {
            Words::Owned(v) => v.capacity() * 8,
            Words::Mapped { .. } => 0,
        }
    }

    /// Bytes served zero-copy from a file mapping (0 for owned words).
    pub fn mapped_bytes(&self) -> usize {
        match &self.words {
            Words::Owned(_) => 0,
            Words::Mapped { count, .. } => count * 8,
        }
    }
}

/// Borrowed random-access view over a [`PackedInts`] with the per-call setup
/// hoisted (see [`PackedInts::cursor`]). Element-for-element identical to
/// [`PackedInts::get`].
#[derive(Clone, Copy, Debug)]
pub struct PackedCursor<'a> {
    words: &'a [u64],
    width: usize,
    mask: u64,
    base: i64,
    len: usize,
}

impl PackedCursor<'_> {
    /// The decoded value at row `i` — same fast-path discipline as
    /// [`PackedInts::get_raw`]: one unaligned little-endian load for widths
    /// up to 56 bits, the exact two-word path near the buffer tail.
    #[inline]
    pub fn get(&self, i: usize) -> i64 {
        debug_assert!(i < self.len);
        if self.width == 0 {
            return self.base;
        }
        let bit = i * self.width;
        let raw = if self.width <= 56 && (bit >> 3) + 8 <= self.words.len() * 8 {
            // SAFETY: the byte range is in bounds per the check above;
            // `read_unaligned` tolerates any alignment.
            let raw = unsafe {
                (self.words.as_ptr().cast::<u8>().add(bit >> 3).cast::<u64>()).read_unaligned()
            };
            u64::from_le(raw) >> (bit & 7)
        } else {
            let (word, shift) = (bit / 64, bit % 64);
            let mut raw = self.words[word] >> shift;
            if shift + self.width > 64 {
                raw |= self.words[word + 1] << (64 - shift);
            }
            raw
        };
        self.base.wrapping_add((raw & self.mask) as i64)
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the column holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_small() {
        let vals = vec![100, 103, 100, 107, 101];
        let p = PackedInts::from_values(&vals);
        assert_eq!(p.base(), 100);
        assert_eq!(p.width(), 3);
        assert_eq!(p.iter().collect::<Vec<_>>(), vals);
    }

    #[test]
    fn constant_column_has_width_zero() {
        let p = PackedInts::from_values(&[42; 1000]);
        assert_eq!(p.width(), 0);
        assert!(p.words().is_empty());
        assert_eq!(p.get(999), 42);
        assert_eq!(p.get_raw(500), 0);
    }

    #[test]
    fn straddling_reads() {
        // Width 13 guarantees values straddle word boundaries.
        let vals: Vec<i64> = (0..500).map(|i| (i * 17) % 8000).collect();
        let p = PackedInts::from_values(&vals);
        assert_eq!(p.width(), 13);
        for (i, &v) in vals.iter().enumerate() {
            assert_eq!(p.get(i), v, "row {i}");
        }
    }

    #[test]
    fn full_domain_packs_at_width_64() {
        let vals = vec![i64::MIN, 0, i64::MAX, -1, 1];
        let p = PackedInts::from_values(&vals);
        assert_eq!(p.width(), 64);
        assert_eq!(p.iter().collect::<Vec<_>>(), vals);
    }

    #[test]
    fn negative_values() {
        let vals = vec![-50, -7, -50, -1, -23];
        let p = PackedInts::from_values(&vals);
        assert_eq!(p.base(), -50);
        assert_eq!(p.iter().collect::<Vec<_>>(), vals);
    }

    #[test]
    fn encode_literal() {
        let p = PackedInts::from_values(&[10, 20, 30]);
        assert_eq!(p.encode(10), Some(0));
        assert_eq!(p.encode(30), Some(20));
        assert_eq!(p.encode(9), None);
        assert_eq!(p.encode(31), None);
    }

    #[test]
    fn empty_input() {
        let p = PackedInts::from_values(&[]);
        assert_eq!(p.len(), 0);
        assert!(p.is_empty());
        assert_eq!(p.width(), 0);
    }

    #[test]
    fn from_parts_rejects_wrong_word_count() {
        let p = PackedInts::from_values(&[1, 2, 3, 4]);
        let mut words = p.words().to_vec();
        words.push(0);
        assert!(PackedInts::from_parts(p.base(), p.max(), p.width(), p.len(), words).is_none());
        assert!(PackedInts::from_parts(0, 0, 65, 0, vec![]).is_none());
    }

    #[test]
    fn every_width_roundtrips() {
        // One value per possible offset width 1..=64 (the proptest suite
        // covers random fills; this pins the exact boundary arithmetic).
        for width in 1..=64u32 {
            let hi = if width == 64 { u64::MAX } else { (1u64 << width) - 1 };
            let vals: Vec<i64> =
                (0..130u64).map(|i| (hi.wrapping_mul(i).wrapping_add(i) & hi) as i64).collect();
            let p = PackedInts::from_values(&vals);
            assert!(p.width() as u32 <= width, "width {width}");
            for (i, &v) in vals.iter().enumerate() {
                assert_eq!(p.get(i), v, "width {width} row {i}");
            }
        }
    }

    /// Deterministic value fill exercising the full offset domain of a width.
    fn fill(width: u32, n: usize) -> Vec<i64> {
        let hi = if width == 64 { u64::MAX } else { (1u64 << width) - 1 };
        (0..n as u64).map(|i| (hi.wrapping_mul(i).wrapping_add(i * 31 + 7) & hi) as i64).collect()
    }

    #[test]
    fn unpack_range_matches_get_for_every_width() {
        for width in [1u32, 2, 3, 7, 8, 13, 31, 32, 33, 63, 64] {
            // 3 blocks plus a non-multiple-of-64 tail.
            let vals = fill(width, 64 * 3 + 17);
            let p = PackedInts::from_values(&vals);
            let mut out = vec![0i64; vals.len()];
            p.unpack_range(0, &mut out);
            assert_eq!(out, vals, "width {width}");
        }
    }

    /// Batch decoding equals per-row `get` at every width, over random starts
    /// and lengths: whole blocks, heads and tails, and ranges ending at the
    /// column's last value.
    #[test]
    fn unpack_range_matches_get_at_random_ranges_for_every_width() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move |below: usize| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 33) as usize % below
        };
        for width in 1..=64u32 {
            let mut vals = fill(width, 64 * 9 + next(64));
            // Both ends of the width's domain, so it packs at exactly `width`.
            (vals[3], vals[5]) = match width {
                64 => (i64::MIN, i64::MAX),
                _ => (0, i64::MAX >> (63 - width)),
            };
            let p = PackedInts::from_values(&vals);
            assert_eq!(p.width() as u32, width);
            let expect: Vec<i64> = (0..vals.len()).map(|i| p.get(i)).collect();
            assert_eq!(expect, vals, "width {width}");
            let mut ranges: Vec<(usize, usize)> = (0..40)
                .map(|_| {
                    let start = next(vals.len());
                    (start, next(vals.len() - start + 1))
                })
                .collect();
            // The whole column, and ranges ending at its last value.
            ranges.push((0, vals.len()));
            ranges.extend([1, 64, 65, 130].map(|len| (vals.len() - len, len)));
            for (start, len) in ranges {
                let mut out = vec![0i64; len];
                p.unpack_range(start, &mut out);
                assert_eq!(
                    out,
                    &expect[start..start + len],
                    "width {width} start {start} len {len}"
                );
            }
        }
    }

    #[test]
    fn unpack_range_handles_unaligned_starts_and_odd_lengths() {
        let vals = fill(7, 64 * 4 + 9);
        let p = PackedInts::from_values(&vals);
        // Starts and lengths chosen to hit: head-only, head+block+tail,
        // block-only, tail-only, and morsel boundaries straddling u64 words.
        for start in [0usize, 1, 9, 63, 64, 65, 100, 127, 128, 200] {
            for len in [0usize, 1, 17, 63, 64, 65, 128, 130] {
                if start + len > vals.len() {
                    continue;
                }
                let mut out = vec![0i64; len];
                p.unpack_range(start, &mut out);
                assert_eq!(out, &vals[start..start + len], "start {start} len {len}");
            }
        }
    }

    #[test]
    fn unpack_range_width_zero_fills_the_constant() {
        let p = PackedInts::from_values(&[42; 300]);
        let mut out = vec![0i64; 150];
        p.unpack_range(75, &mut out);
        assert!(out.iter().all(|&v| v == 42));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn unpack_range_rejects_out_of_bounds() {
        let p = PackedInts::from_values(&[1, 2, 3]);
        let mut out = vec![0i64; 4];
        p.unpack_range(0, &mut out);
    }

    #[test]
    fn negative_bases_batch_decode_correctly() {
        let vals: Vec<i64> = (0..200).map(|i| -5000 + (i * 37) % 900).collect();
        let p = PackedInts::from_values(&vals);
        let mut out = vec![0i64; vals.len()];
        p.unpack_range(0, &mut out);
        assert_eq!(out, vals);
    }

    #[cfg(unix)]
    #[test]
    fn mapped_words_read_identically_and_report_zero_resident() {
        let vals = fill(13, 777);
        let p = PackedInts::from_values(&vals);
        // Serialize the words to a file with the v3 payload discipline:
        // 8-byte-aligned word start.
        let dir = std::env::temp_dir().join("legobase-packed-mapped-test");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("words.bin");
        let mut bytes = vec![0u8; 8]; // 8 bytes of header padding keeps alignment
        for w in p.words() {
            bytes.extend_from_slice(&w.to_le_bytes());
        }
        std::fs::write(&path, &bytes).expect("write");
        let map = Arc::new(Mapping::map_file(&path).expect("map"));
        let m =
            PackedInts::from_parts_mapped(p.base(), p.max(), p.width(), p.len(), map.clone(), 8)
                .expect("aligned mapped parts");
        assert!(m.is_mapped() && !p.is_mapped());
        assert_eq!(m.approx_bytes(), 0);
        assert_eq!(m.mapped_bytes(), p.words().len() * 8);
        assert_eq!(m, p, "mapped and owned forms are equal");
        assert_eq!(m.iter().collect::<Vec<_>>(), vals);
        // Misaligned or out-of-bounds mapped views are rejected, not UB.
        assert!(PackedInts::from_parts_mapped(
            p.base(),
            p.max(),
            p.width(),
            p.len(),
            map.clone(),
            7
        )
        .is_none());
        assert!(PackedInts::from_parts_mapped(
            p.base(),
            p.max(),
            p.width(),
            p.len(),
            map,
            bytes.len()
        )
        .is_none());
        std::fs::remove_file(&path).ok();
    }
}
