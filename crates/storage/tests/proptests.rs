//! Property tests for the storage substrate: every specialized structure is
//! compared against its obvious `std` model under random operation
//! sequences, which is exactly the guarantee the paper's lowering
//! transformers assume ("the lowered structure behaves like the generic
//! one").

use legobase_storage::dateindex::DateYearIndex;
use legobase_storage::dict::{DictKind, StringDictionary};
use legobase_storage::partition::{ForeignKeyPartition, PrimaryKeyIndex};
use legobase_storage::specialized::{ChainedArrayMap, ChainedMultiMap};
use legobase_storage::Date;
use proptest::prelude::*;
use std::collections::{HashMap, HashSet};

proptest! {
    /// The lowered chained-array map behaves like `HashMap` for
    /// get_or_insert_with + get under arbitrary (colliding) key sequences.
    #[test]
    fn chained_map_equals_hashmap_model(
        ops in proptest::collection::vec((0u64..64, -100i64..100), 1..200),
        probes in proptest::collection::vec(0u64..80, 0..50),
    ) {
        let mut lowered: ChainedArrayMap<i64> = ChainedArrayMap::with_capacity(16);
        let mut model: HashMap<u64, i64> = HashMap::new();
        for (k, v) in ops {
            *lowered.get_or_insert_with(k, || 0) += v;
            *model.entry(k).or_insert(0) += v;
        }
        prop_assert_eq!(lowered.len(), model.len());
        for (k, v) in lowered.iter() {
            prop_assert_eq!(model.get(&k), Some(v));
        }
        for p in probes {
            prop_assert_eq!(lowered.get(p), model.get(&p));
        }
    }

    /// The chained multi-map returns exactly the bindings of a
    /// `HashMap<_, Vec<_>>` model (as sets — chain order is reversed).
    #[test]
    fn multimap_equals_model(
        inserts in proptest::collection::vec((0u64..32, 0u32..1000), 0..150),
        probes in proptest::collection::vec(0u64..40, 1..30),
    ) {
        let mut mm = ChainedMultiMap::with_capacity(8);
        let mut model: HashMap<u64, Vec<u32>> = HashMap::new();
        for (k, row) in inserts {
            mm.insert(k, row);
            model.entry(k).or_default().push(row);
        }
        for p in probes {
            let mut got = Vec::new();
            mm.for_each_match(p, |r| got.push(r));
            got.sort_unstable();
            let mut want = model.get(&p).cloned().unwrap_or_default();
            want.sort_unstable();
            prop_assert_eq!(got, want);
        }
    }

    /// Ordered dictionaries preserve lexicographic order on codes, and
    /// prefix ranges match `str::starts_with` exactly.
    #[test]
    fn ordered_dictionary_preserves_order(
        values in proptest::collection::vec("[a-d]{0,6}", 1..60),
        prefix in "[a-d]{0,3}",
    ) {
        let dict = StringDictionary::build(DictKind::Ordered, values.iter().map(String::as_str));
        for a in &values {
            for b in &values {
                let (ca, cb) = (dict.code(a).unwrap(), dict.code(b).unwrap());
                prop_assert_eq!(a.cmp(b), ca.cmp(&cb), "codes must mirror string order");
            }
        }
        let range = dict.prefix_range(&prefix);
        for code in 0..dict.len() as u32 {
            let in_range = range.is_some_and(|(lo, hi)| code >= lo && code <= hi);
            prop_assert_eq!(in_range, dict.decode(code).starts_with(prefix.as_str()));
        }
    }

    /// Word-token dictionaries agree with a direct word-sequence scan.
    #[test]
    fn word_token_dictionary_matches_scan(
        values in proptest::collection::vec("([a-c]{1,3} ){0,5}[a-c]{1,3}", 1..40),
        w1 in "[a-c]{1,3}",
        w2 in "[a-c]{1,3}",
    ) {
        let dict = StringDictionary::build(DictKind::WordToken, values.iter().map(String::as_str));
        let (c1, c2) = (dict.word_code(&w1), dict.word_code(&w2));
        for v in &values {
            let code = dict.code(v).unwrap();
            let got = match (c1, c2) {
                (Some(c1), Some(c2)) => dict.contains_word_seq(code, c1, c2),
                _ => false,
            };
            // Model: w1 occurs, then w2 strictly later.
            let words: Vec<&str> = v.split(' ').filter(|w| !w.is_empty()).collect();
            let want = words
                .iter()
                .position(|w| **w == *w1.as_str())
                .is_some_and(|i| words[i + 1..].iter().any(|w| **w == *w2.as_str()));
            prop_assert_eq!(got, want, "value {:?}", v);
        }
    }

    /// FK partitions return exactly the row sets of a hash-grouping model,
    /// including out-of-range probes.
    #[test]
    fn fk_partition_equals_grouping(
        keys in proptest::collection::vec(-20i64..20, 0..120),
        probes in proptest::collection::vec(-30i64..30, 1..40),
    ) {
        let part = ForeignKeyPartition::build(&keys);
        let mut model: HashMap<i64, Vec<u32>> = HashMap::new();
        for (row, &k) in keys.iter().enumerate() {
            model.entry(k).or_default().push(row as u32);
        }
        for p in probes {
            let got: Vec<u32> = part.bucket(p).to_vec();
            let want = model.get(&p).cloned().unwrap_or_default();
            prop_assert_eq!(got, want);
        }
    }

    /// PK indexes invert the key column exactly.
    #[test]
    fn pk_index_inverts_column(mut keys in proptest::collection::vec(-500i64..500, 1..100)) {
        keys.sort_unstable();
        keys.dedup();
        let idx = PrimaryKeyIndex::build(&keys);
        for (row, &k) in keys.iter().enumerate() {
            prop_assert_eq!(idx.lookup(k), Some(row as u32));
        }
        for probe in [-501, 501, 0, 250] {
            let want = keys.iter().position(|&k| k == probe).map(|r| r as u32);
            prop_assert_eq!(idx.lookup(probe), want);
        }
    }

    /// Date-index range scans return exactly the rows a naive filter does,
    /// for arbitrary date columns and ranges.
    #[test]
    fn date_index_equals_naive_filter(
        days in proptest::collection::vec(8000i32..11000, 0..120),
        lo in 7900i32..11100,
        width in 0i32..1500,
    ) {
        let idx = DateYearIndex::build(&days);
        let (lo, hi) = (Date(lo), Date(lo + width));
        let mut got: Vec<u32> = Vec::new();
        idx.scan_range(&days, lo, hi, |r| got.push(r));
        got.sort_unstable();
        let want: Vec<u32> = days
            .iter()
            .enumerate()
            .filter(|(_, &d)| d >= lo.0 && d <= hi.0)
            .map(|(i, _)| i as u32)
            .collect();
        prop_assert_eq!(got, want);
    }

    /// Date round-trips hold for the whole supported range.
    #[test]
    fn date_roundtrip(day in -200_000i32..200_000) {
        let (y, m, d) = Date(day).ymd();
        prop_assert_eq!(Date::from_ymd(y, m, d), Date(day));
    }

    /// `Value` ordering is antisymmetric and transitive (the engines sort
    /// and group with it).
    #[test]
    fn value_total_order(
        a in arb_value(),
        b in arb_value(),
        c in arb_value(),
    ) {
        use std::cmp::Ordering;
        prop_assert_eq!(a.cmp(&b), b.cmp(&a).reverse());
        if a.cmp(&b) != Ordering::Greater && b.cmp(&c) != Ordering::Greater {
            prop_assert_ne!(a.cmp(&c), Ordering::Greater);
        }
    }
}

fn arb_value() -> impl Strategy<Value = legobase_storage::Value> {
    use legobase_storage::Value as V;
    prop_oneof![
        Just(V::Null),
        any::<bool>().prop_map(V::Bool),
        (-1000i64..1000).prop_map(V::Int),
        (-100.0f64..100.0).prop_map(V::Float),
        (8000i32..11000).prop_map(|d| V::Date(Date(d))),
        "[a-z]{0,5}".prop_map(V::Str),
    ]
}

/// Dictionary determinism: identical value sequences yield identical
/// dictionaries regardless of duplication pattern.
#[test]
fn dictionary_codes_depend_only_on_distinct_order() {
    let a = StringDictionary::build(DictKind::Normal, ["x", "y", "x", "z"]);
    let b = StringDictionary::build(DictKind::Normal, ["x", "y", "z", "y", "x"]);
    for s in ["x", "y", "z"] {
        assert_eq!(a.code(s), b.code(s));
    }
    let distinct: HashSet<u32> = (0..a.len() as u32).collect();
    assert_eq!(distinct.len(), 3);
}

proptest! {
    /// Frame-of-reference packing round-trips random fills at every offset
    /// width 1..=64, and pre-encoded literals agree with the frame of
    /// reference (PR 7 encoded columns).
    #[test]
    fn packed_ints_roundtrip_every_width(
        width in 1u32..=64,
        seeds in proptest::collection::vec(any::<u64>(), 1..200),
        base in -1_000_000i64..1_000_000,
    ) {
        use legobase_storage::PackedInts;
        let hi = if width == 64 { u64::MAX } else { (1u64 << width) - 1 };
        // Saturate toward the width's domain so every width is exercised,
        // including offsets that straddle word boundaries.
        let vals: Vec<i64> = seeds
            .iter()
            .map(|s| if width == 64 { *s as i64 } else { base.wrapping_add((s & hi) as i64) })
            .collect();
        let p = PackedInts::from_values(&vals);
        prop_assert!(u32::from(p.width()) <= width, "width {} > requested {width}", p.width());
        for (i, &v) in vals.iter().enumerate() {
            prop_assert_eq!(p.get(i), v, "row {}", i);
            prop_assert_eq!(p.encode(v), Some(v.wrapping_sub(p.base()) as u64));
        }
        if p.base() > i64::MIN {
            prop_assert_eq!(p.encode(p.base() - 1), None);
        }
        if p.max() < i64::MAX {
            prop_assert_eq!(p.encode(p.max() + 1), None);
        }
        // Serialized parts reassemble into the same column.
        let back = PackedInts::from_parts(p.base(), p.max(), p.width(), p.len(), p.words().to_vec());
        prop_assert_eq!(back.as_ref(), Some(&p));
    }

    /// Batch unpacking equals per-element `get` exactly: arbitrary ranges
    /// (morsel boundaries straddling u64 words, non-multiple-of-64 tails)
    /// at the ISSUE's edge widths {1, 7, 63, 64}, plus a random width, plus
    /// width-0 constant columns — and the memoized whole-column decode
    /// agrees too (PR 10 batch unpack kernels).
    #[test]
    fn batch_unpack_equals_per_element_get(
        width_sel in 0usize..5,
        rand_width in 1u32..=64,
        seeds in proptest::collection::vec(any::<u64>(), 1..400),
        start_frac in 0.0f64..1.0,
        len_frac in 0.0f64..1.0,
        constant in -5000i64..5000,
    ) {
        use legobase_storage::PackedInts;
        let width = [1u32, 7, 63, 64, rand_width][width_sel];
        let hi = if width == 64 { u64::MAX } else { (1u64 << width) - 1 };
        let vals: Vec<i64> = seeds.iter().map(|s| (s & hi) as i64).collect();
        let p = PackedInts::from_values(&vals);
        let start = (start_frac * vals.len() as f64) as usize;
        let len = ((len_frac * (vals.len() - start) as f64) as usize).min(vals.len() - start);
        let mut out = vec![0i64; len];
        p.unpack_range(start, &mut out);
        for (k, &got) in out.iter().enumerate() {
            prop_assert_eq!(got, p.get(start + k), "width {} row {}", width, start + k);
        }
        let mut whole = vec![0i64; vals.len()];
        p.unpack_range(0, &mut whole);
        prop_assert_eq!(&whole, &vals);
        // Width-0 constant columns batch-fill the base.
        let c = PackedInts::from_values(&vec![constant; seeds.len()]);
        prop_assert_eq!(c.width(), 0);
        let mut cout = vec![0i64; len];
        c.unpack_range(start, &mut cout);
        prop_assert!(cout.iter().all(|&v| v == constant));
    }

    /// Every encodable column layout (int, date, dictionary codes) survives
    /// encode → read-back and encode → decode bit-identically.
    #[test]
    fn column_encodings_preserve_values(
        ints in proptest::collection::vec(-5000i64..5000, 64..200),
        days in proptest::collection::vec(8000i32..11000, 64..200),
        words in proptest::collection::vec("[a-c]{1,3}", 64..200),
    ) {
        use legobase_storage::Column;
        use std::sync::Arc;
        let dict = StringDictionary::build(DictKind::Normal, words.iter().map(String::as_str));
        let codes: Vec<u32> = words.iter().map(|w| dict.code(w).unwrap()).collect();
        let cols = [
            Column::I64(Arc::new(ints)),
            Column::Date(Arc::new(days)),
            Column::Dict(Arc::new(codes), Arc::new(dict)),
        ];
        for col in &cols {
            let enc = col.encode().expect("small domains must encode");
            prop_assert!(enc.approx_bytes() < col.approx_bytes());
            for r in 0..col.len() {
                prop_assert_eq!(enc.value_at(r), col.value_at(r), "row {}", r);
            }
        }
    }
}
