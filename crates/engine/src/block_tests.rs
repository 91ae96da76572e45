//! Block ≡ row oracles for the operators that run on blocks besides the
//! aggregate fold (`fold_tests.rs`, whose random chunks these reuse): over
//! seeded random data every block path must reproduce its per-row reference
//! **element for element** —
//!
//! * the block selection ≡ `interp::eval_pred` row by row, over random
//!   predicates × layouts × chunk shapes × degrees, compiled and interpreted
//!   (every dictionary kind: per-code flags, ordered prefix ranges, token
//!   word sequences; plain strings; `CASE`, `YEAR`, `IS NULL`);
//! * the typed pair residual ≡ `interp::eval_pred` on the concatenated row;
//! * the direct-array / key-bitset build side ≡ the chained table's pair
//!   sequence (and a reference built from generic values) for all four join kinds,
//!   including duplicate build keys and probe keys outside the domain;
//! * the typed sort comparator ≡ a stable sort of gathered `Value` tuples,
//!   ties and NULLs included.
//!
//! (Generic-key grouping ≡ the `Vec<Value>` map is two more groupings in
//! `fold_tests.rs`.)

use crate::expr::{CmpOp, Expr};
use crate::fold_tests::{
    chunk, Layout, Selection, BIG, D, I, K, O, ORDERED, S, T, TOKENS, W, WT, X, Y,
};
use crate::interp;
use crate::kernel::{Chunk, JoinKeys, PairPred};
use crate::plan::{JoinKind, SortOrder};
use crate::settings::Config;
use crate::specialized::{hash_build, join_pairs, select_chunk, sort_chunk, Build};
use legobase_storage::morsel::MORSEL_ROWS;
use legobase_storage::{Date, Value};
use proptest::prelude::*;
use proptest::test_runner::TestRng;
use std::collections::HashMap;

const OPS: [CmpOp; 6] = [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge];
const WORDS: [&str; 6] = ["AIR", "MAIL", "RAIL", "SHIP", "AAA", "ZZZ"]; // the last two: in no dictionary

fn pick<'a, V>(rng: &mut TestRng, from: &'a [V]) -> &'a V {
    &from[rng.below(from.len() as u64) as usize]
}

fn cmp(rng: &mut TestRng, a: Expr, b: Expr) -> Expr {
    let (a, b) = if rng.below(4) == 0 { (b, a) } else { (a, b) }; // literal on the left too
    Expr::Cmp(*pick(rng, &OPS), Box::new(a), Box::new(b))
}

/// A random predicate over the columns of `fold_tests::chunk`: comparisons
/// over int / date / float / dictionary / plain-string columns against
/// literals (inside and outside the column's domain or dictionary) and
/// against each other, arithmetic, `IN`, the LIKE family over every
/// dictionary kind and plain strings, NULL tests, `YEAR`, `CASE`, and
/// `AND` / `OR` / `NOT` above them.
fn predicate(rng: &mut TestRng, depth: u32) -> Expr {
    if depth > 0 && rng.below(3) > 0 {
        let a = predicate(rng, depth - 1);
        return match rng.below(3) {
            0 => Expr::and(a, predicate(rng, depth - 1)),
            1 => Expr::or(a, predicate(rng, depth - 1)),
            _ => Expr::not(a),
        };
    }
    let w = *pick(rng, &WORDS);
    let n = rng.below(1 << 40);
    match rng.below(18) {
        0 => cmp(rng, Expr::col(K), Expr::lit((n % 7) as i64 - 1)),
        1 => cmp(rng, Expr::col(W), Expr::lit((n % 12_000_000) as i64)),
        2 => {
            let day = Date::from_ymd(1991 + (n % 9) as i32, 1 + (n / 9 % 12) as u32, 1);
            cmp(rng, Expr::col(D), Expr::lit(day))
        }
        3 => cmp(rng, Expr::col(X), Expr::lit(((n % 2_000_000) as f64 - 1e6) / 7.0)),
        4 => cmp(rng, Expr::col(I), Expr::lit((n % 2000) as f64 - 1000.5)), // int vs float
        5 => cmp(rng, Expr::col(K), Expr::col(I)),
        6 => cmp(rng, Expr::col(X), Expr::col(Y)),
        7 => cmp(rng, Expr::col(I), Expr::col(X)),
        8 => cmp(
            rng,
            Expr::mul(Expr::col(X), Expr::sub(Expr::lit(1i64), Expr::col(Y))),
            Expr::lit((n % 100_000) as f64),
        ),
        9 => cmp(rng, Expr::col(S), Expr::lit(w)),
        10 => cmp(rng, Expr::col(T), Expr::lit(w)),
        11 => {
            let col = *pick(rng, &[S, T]);
            Expr::in_list(Expr::col(col), vec![w.into(), (*pick(rng, &WORDS)).into()])
        }
        12 => Expr::in_list(Expr::col(K), vec![Value::Int(1), Value::Int((n % 9) as i64)]),
        13 => match n % 4 {
            0 => Expr::starts_with(Expr::col(*pick(rng, &[S, T])), &w[..2]),
            1 => Expr::ends_with(Expr::col(*pick(rng, &[S, T])), &w[1..]),
            2 => Expr::contains(Expr::col(*pick(rng, &[S, T])), &w[1..3]),
            _ => Expr::word_seq(Expr::col(T), w, "X"),
        },
        14 => Expr::is_null(Expr::col(*pick(rng, &[X, I, K, T, O]))),
        // Ordered dictionary: prefixes that cover one value, several
        // neighbours (`PROMO` holds `PROMOTED`), none, or all.
        15 => match n % 4 {
            0 => {
                let prefixes = ["PROMO", "PROMOTED ", "S", "SMALL TIN", "ST", "A", "Z", ""];
                Expr::starts_with(Expr::col(O), pick::<&str>(rng, &prefixes))
            }
            1 => {
                let lit = Expr::lit(format!("{} TIN", pick(rng, &ORDERED.0)));
                cmp(rng, Expr::col(O), lit)
            }
            2 => Expr::ends_with(Expr::col(O), pick::<&str>(rng, &ORDERED.1)),
            _ => Expr::in_list(Expr::col(O), vec!["SMALL TIN".into(), "PROMO STEEL".into()]),
        },
        // Word-token dictionary: ordered word pairs, a word twice, a word
        // that occurs in no value.
        16 => {
            let (w1, w2) = (*pick(rng, &TOKENS), *pick(rng, &TOKENS));
            match n % 4 {
                0 | 1 => Expr::word_seq(Expr::col(WT), w1, w2),
                2 => Expr::word_seq(Expr::col(WT), w1, "absent"),
                _ => Expr::contains(Expr::col(WT), &format!("{w1} {w2}")),
            }
        }
        _ => match n % 3 {
            0 => cmp(rng, Expr::year(Expr::col(D)), Expr::lit(1992 + (n / 3 % 7) as i64)),
            1 => Expr::lit(n & 8 == 0),
            _ => cmp(
                rng,
                Expr::case(Expr::lt(Expr::col(I), Expr::lit(0i64)), Expr::col(X), Expr::lit(0.0)),
                Expr::lit(0.0),
            ),
        },
    }
}

/// Logical-row sizes around the block and morsel boundaries.
const SIZES: [usize; 7] = [0, 1, 1023, 1024, 1025, MORSEL_ROWS + 1, 2 * MORSEL_ROWS + 1025];
const SELECTIONS: [Selection; 3] = [Selection::None, Selection::Ascending, Selection::Buckets];
const LAYOUTS: [Layout; 3] = [Layout::Plain, Layout::Packed, Layout::Nullable];

fn row_of(chunk: &Chunk, p: usize) -> Vec<Value> {
    (0..chunk.cols.len()).map(|c| chunk.value_at(c, p)).collect()
}

proptest! {
    // One case each walks a whole matrix; `PROPTEST_SEED` varies the data.
    #![proptest_config(ProptestConfig::with_cases(1))]

    #[test]
    fn block_selection_equals_per_row_kernels(seed in any::<u64>()) {
        let mut rng = TestRng::from_seed(seed);
        for rows in SIZES {
            for selection in SELECTIONS {
                for layout in LAYOUTS {
                    let chunk = chunk(&mut rng, rows, layout, selection);
                    for _ in 0..12 {
                        let e = predicate(&mut rng, 3);
                        let expected: Vec<u32> = (0..chunk.len())
                            .map(|i| chunk.phys(i))
                            .filter(|&p| interp::eval_pred(&e, &row_of(&chunk, p)))
                            .map(|p| p as u32)
                            .collect();
                        for config in [Config::OptC, Config::OptScala] {
                            for degree in [1, 2, 4] {
                                let settings = config.settings().with_parallelism(degree);
                                let got = select_chunk(&settings, &chunk, &e);
                                prop_assert!(
                                    got == expected,
                                    "{e} over {rows} rows {selection:?} {layout:?} {config:?} \
                                     degree {degree}: {} rows selected, expected {}",
                                    got.len(),
                                    expected.len()
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn typed_pair_residual_equals_interpreter(seed in any::<u64>()) {
        let mut rng = TestRng::from_seed(seed);
        for layout in LAYOUTS {
            let left = chunk(&mut rng, 300, layout, Selection::None);
            let right = chunk(&mut rng, 200, layout, Selection::Ascending);
            let r = |c: usize| Expr::col(left.cols.len() + c);
            // Shapes the typed kernel takes (on non-nullable inputs) and
            // shapes that keep the interpreter; `X`, `I` and `T` carry NULLs
            // under the nullable layout.
            let residuals = [
                Expr::ne(r(W), Expr::col(W)),
                Expr::lt(Expr::col(BIG), r(BIG)),
                Expr::ge(r(D), Expr::col(D)),
                Expr::gt(Expr::col(Y), r(Y)),
                Expr::le(r(K), Expr::col(Y)), // int vs float
                Expr::gt(r(W), Expr::lit(5_000_000i64)),
                Expr::lt(Expr::lit(0.05), Expr::col(Y)),
                Expr::and(Expr::ne(r(K), Expr::col(K)), Expr::le(Expr::col(D), r(D))),
                Expr::lt(Expr::col(X), r(X)),
                Expr::eq(r(I), Expr::col(K)),
                Expr::eq(Expr::col(S), r(S)),
                Expr::lt(Expr::col(T), r(T)),
                Expr::or(Expr::eq(r(K), Expr::col(K)), Expr::gt(r(Y), Expr::col(Y))),
                Expr::lt(Expr::col(D), r(W)), // a date orders against no number
            ];
            for e in residuals {
                let pred = PairPred::compile(&e, &left, &right);
                for _ in 0..400 {
                    let (lp, rp) = (rng.below(300) as usize, right.phys(rng.below(200) as usize));
                    let mut row = row_of(&left, lp);
                    row.extend(row_of(&right, rp));
                    prop_assert_eq!(
                        pred.test(lp, rp),
                        interp::eval_pred(&e, &row),
                        "{} on ({}, {}) under {:?}", &e, lp, rp, layout
                    );
                }
            }
        }
    }

    #[test]
    fn direct_build_sides_equal_chained_tables(seed in any::<u64>()) {
        let mut rng = TestRng::from_seed(seed);
        let direct = Config::OptC.settings();
        let chained = direct.with(|s| s.code_motion = false);
        // (probe rows, build rows): single blocks, and a probe side and a
        // build side large enough to split into morsels.
        for (lrows, rrows) in [(0, 40), (700, 0), (1025, 300), (2 * MORSEL_ROWS + 9, 1500), (900, MORSEL_ROWS + 7)] {
            for layout in [Layout::Plain, Layout::Packed] {
                let left = chunk(&mut rng, lrows, layout, Selection::Buckets);
                let right = chunk(&mut rng, rrows, layout, Selection::Ascending);
                let r = |c: usize| Expr::col(left.cols.len() + c);
                // (probe keys, build keys, whether the dense structure must
                // apply): `K` has 5 values (heavy duplicates); `I` spans 2001
                // — dense only above 250 build rows — and mostly misses
                // `K`'s domain; `W` is sparse (dense only by accident on a
                // handful of rows); two keys never go direct.
                let key_sets: [(&[usize], &[usize], Option<bool>); 6] = [
                    (&[I], &[K], Some(true)),
                    (&[K], &[K], Some(true)),
                    (&[I], &[I], (rrows >= 251).then_some(true)),
                    (&[D], &[D], (rrows >= 320).then_some(true)), // 84 dates over 7 years
                    (&[W], &[W], (rrows > 16).then_some(false)),
                    (&[K, D], &[K, D], Some(false)),
                ];
                let residuals = [
                    None,
                    Some(Expr::ne(r(W), Expr::col(W))),
                    Some(Expr::lt(Expr::col(T), r(T))),
                ];
                for (lkeys, rkeys, dense) in key_sets {
                    // A handful of distinct keys over morsels of rows is
                    // ~10^6 pairs per run; a block of it says the same.
                    if lkeys[0] != I && lkeys[0] != W && lrows * rrows > 400_000 {
                        continue;
                    }
                    let keys = JoinKeys::new(lkeys, &left).zip(JoinKeys::new(rkeys, &right));
                    let keys = keys.expect("coded keys");
                    for residual in &residuals {
                        let res = residual.as_ref().map(|e| PairPred::compile(e, &left, &right));
                        for kind in [JoinKind::Inner, JoinKind::LeftOuter, JoinKind::Semi, JoinKind::Anti] {
                            let key_only = res.is_none() && matches!(kind, JoinKind::Semi | JoinKind::Anti);
                            let build = hash_build(&direct, &right, &keys.1, rkeys, key_only);
                            let used = match build {
                                Build::Direct(_) => "direct",
                                Build::Bits(..) => "bits",
                                Build::Chained(_) => "chained",
                                _ => "other",
                            };
                            let want = dense.map(|dense| match (dense, key_only) {
                                (true, true) => "bits",
                                (true, false) => "direct",
                                _ => "chained",
                            });
                            prop_assert!(
                                want.is_none_or(|w| w == used),
                                "{lkeys:?} x {rkeys:?}, {rrows} build rows: {used}, expected {want:?}"
                            );
                            let reference = reference_pairs(&left, &right, lkeys, rkeys, kind, residual.as_ref());
                            for settings in [direct, chained] {
                                for degree in [1, 2, 4] {
                                    let settings = settings.with_parallelism(degree);
                                    let got = join_pairs(
                                        &settings, &left, &right, Some(&keys), lkeys, rkeys, kind, res.as_ref(),
                                    );
                                    prop_assert!(
                                        got == reference,
                                        "{kind:?} {lkeys:?} x {rkeys:?} residual {residual:?} {layout:?} \
                                         {lrows} x {rrows} rows, code_motion {} degree {degree}: \
                                         {} pairs, expected {}",
                                        settings.code_motion,
                                        got.len(),
                                        reference.len()
                                    );
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn typed_sort_equals_value_sort(seed in any::<u64>()) {
        use SortOrder::{Asc, Desc};
        let mut rng = TestRng::from_seed(seed);
        let key_sets: [&[(usize, SortOrder)]; 7] = [
            &[(K, Asc)],                       // five values: ties everywhere
            &[(X, Desc)],
            &[(S, Asc), (I, Desc)],            // dictionary strings order by text
            &[(T, Desc), (D, Asc), (K, Asc)],
            &[(I, Asc), (X, Desc)],            // NULLs under the nullable layout
            &[(D, Desc), (Y, Asc)],
            &[(BIG, Asc), (W, Desc)],
        ];
        for rows in SIZES {
            for selection in SELECTIONS {
                for layout in LAYOUTS {
                    let chunk = chunk(&mut rng, rows, layout, selection);
                    for keys in key_sets {
                        // Gathered key tuples by physical row, then the
                        // stable sort `Value::cmp` defines.
                        let tuples: Vec<Vec<Value>> = (0..chunk.total)
                            .map(|p| keys.iter().map(|&(c, _)| chunk.value_at(c, p)).collect())
                            .collect();
                        let mut expected: Vec<u32> =
                            (0..chunk.len()).map(|i| chunk.phys(i) as u32).collect();
                        expected.sort_by(|&a, &b| {
                            let (ta, tb) = (&tuples[a as usize], &tuples[b as usize]);
                            keys.iter().zip(ta.iter().zip(tb)).fold(
                                std::cmp::Ordering::Equal,
                                |ord, (&(_, dir), (x, y))| {
                                    ord.then_with(|| if dir == Desc { y.cmp(x) } else { x.cmp(y) })
                                },
                            )
                        });
                        for degree in [1, 2, 4] {
                            let settings = Config::OptC.settings().with_parallelism(degree);
                            prop_assert!(
                                sort_chunk(&settings, &chunk, keys) == expected,
                                "{keys:?} over {rows} rows {selection:?} {layout:?} degree {degree}"
                            );
                        }
                    }
                }
            }
        }
    }
}

/// The pair sequence of a lowered hash join, from generic values: probe rows
/// in logical order, each against the build rows of equal key newest first
/// (the chain order of `ChainedMultiMap`).
fn reference_pairs(
    left: &Chunk,
    right: &Chunk,
    lkeys: &[usize],
    rkeys: &[usize],
    kind: JoinKind,
    residual: Option<&Expr>,
) -> Vec<(u32, u32)> {
    let key = |chunk: &Chunk, cols: &[usize], p: usize| -> Vec<Value> {
        cols.iter().map(|&c| chunk.value_at(c, p)).collect()
    };
    let mut build: HashMap<Vec<Value>, Vec<usize>> = HashMap::new();
    for rp in (0..right.len()).rev().map(|i| right.phys(i)) {
        build.entry(key(right, rkeys, rp)).or_default().push(rp);
    }
    let mut pairs = Vec::new();
    for lp in (0..left.len()).map(|i| left.phys(i)) {
        let candidates = build.get(&key(left, lkeys, lp)).map_or(&[][..], |c| &c[..]);
        let mut matches = candidates.iter().copied().filter(|&rp| {
            residual.is_none_or(|e| {
                let mut row = row_of(left, lp);
                row.extend(row_of(right, rp));
                interp::eval_pred(e, &row)
            })
        });
        match kind {
            JoinKind::Inner => pairs.extend(matches.map(|rp| (lp as u32, rp as u32))),
            JoinKind::LeftOuter => {
                let before = pairs.len();
                pairs.extend(matches.map(|rp| (lp as u32, rp as u32)));
                if pairs.len() == before {
                    pairs.push((lp as u32, u32::MAX));
                }
            }
            JoinKind::Semi | JoinKind::Anti => {
                if matches.next().is_some() == (kind == JoinKind::Semi) {
                    pairs.push((lp as u32, u32::MAX));
                }
            }
        }
    }
    pairs
}
