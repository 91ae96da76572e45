//! The correctness oracle of the reproduction: every TPC-H query must
//! produce identical results under **every** engine configuration of
//! Table III, from the interpreted Volcano baseline to the fully specialized
//! executor. Since the configurations share no execution code paths beyond
//! the plan representation, agreement across all eight is strong evidence
//! that each optimization is semantics-preserving end to end
//! (compilation → specialization → loading → execution).

use legobase::{Config, LegoBase, QueryRequest, Settings};

const SCALE: f64 = 0.002;
const EPS: f64 = 1e-6;

fn check_queries(range: impl Iterator<Item = usize>) {
    let system = LegoBase::generate(SCALE);
    for n in range {
        let reference =
            system.query(&QueryRequest::plan(system.plan(n)).with_config(Config::Dbx)).unwrap();
        // Highly selective queries (exact part-type matches, >300-quantity
        // orders, …) can legitimately return nothing at tiny scale factors.
        let may_be_empty = matches!(n, 2 | 8 | 16 | 17 | 18 | 19 | 20 | 21);
        assert!(
            !reference.result.is_empty() || may_be_empty,
            "Q{n}: reference produced no rows at SF {SCALE}"
        );
        for config in Config::ALL {
            if config == Config::Dbx {
                continue;
            }
            let got =
                system.query(&QueryRequest::plan(system.plan(n)).with_config(config)).unwrap();
            assert!(
                got.result.approx_eq(&reference.result, EPS),
                "Q{n} under {config:?} diverges from the Volcano reference: {}",
                got.result.diff(&reference.result, EPS).unwrap_or_default()
            );
        }
    }
}

#[test]
fn q1_to_q6_all_configs_agree() {
    check_queries(1..=6);
}

#[test]
fn q7_to_q12_all_configs_agree() {
    check_queries(7..=12);
}

#[test]
fn q13_to_q17_all_configs_agree() {
    check_queries(13..=17);
}

#[test]
fn q18_to_q22_all_configs_agree() {
    check_queries(18..=22);
}

/// Results must also be insensitive to the generator seed (no accidental
/// dependence on data layout).
#[test]
fn q6_agrees_across_seeds() {
    for seed in [1u64, 99, 424242] {
        let data = legobase::tpch::TpchGenerator { scale_factor: SCALE, seed }.generate();
        let system = LegoBase::from_data(data);
        let a = system.query(&QueryRequest::plan(system.plan(6)).with_config(Config::Dbx)).unwrap();
        let b =
            system.query(&QueryRequest::plan(system.plan(6)).with_config(Config::OptC)).unwrap();
        assert!(
            b.result.approx_eq(&a.result, EPS),
            "seed {seed}: {}",
            b.result.diff(&a.result, EPS).unwrap_or_default()
        );
    }
}

/// Morsel-driven parallel execution is a pure performance feature: for every
/// TPC-H query, every parallelism degree must reproduce the serial result —
/// with joins and sorts parallelized too (partitioned build/probe, merge
/// sort), not only the scan pipelines. Serial-vs-parallel comparisons allow
/// only floating-point reassociation noise (1e-9 relative, far tighter than
/// the cross-engine oracle; joins and sorts are exact); results across
/// degrees ≥ 2 must be **bit-identical** (fixed morsel boundaries + ordered
/// merges — the determinism contract of DESIGN.md §3).
fn check_parallel(range: impl Iterator<Item = usize>) {
    let system = LegoBase::generate(SCALE);
    // Under a CI-wide LEGOBASE_PARALLELISM override, the "serial" baseline
    // below would itself be overridden, so the serial-vs-parallel leg is
    // skipped there (the override leg's purpose is running the *whole*
    // suite parallel-enabled; the tight comparison runs in the default leg).
    // Only a parseable degree > 1 actually overrides — an empty or invalid
    // value (e.g. the metrics CI job's empty matrix cell) leaves the
    // baseline serial and checkable.
    let env_override = system.env().parallelism.is_some_and(|n| n > 1);
    for n in range {
        // The result at a requested degree.
        let at_degree = |degree: usize| {
            let settings = Settings::optimized().with_parallelism(degree);
            system
                .query(&QueryRequest::plan(system.plan(n)).with_settings(settings))
                .expect("plan runs")
                .result
        };
        let serial = (!env_override).then(|| at_degree(1));
        let mut parallel_results = Vec::new();
        for degree in [2usize, 4] {
            let got = at_degree(degree);
            if let Some(serial) = &serial {
                assert!(
                    got.approx_eq(serial, 1e-9),
                    "Q{n} at degree {degree} diverges from serial: {}",
                    got.diff(serial, 1e-9).unwrap_or_default()
                );
            }
            parallel_results.push(got);
        }
        for other in &parallel_results[1..] {
            assert_eq!(
                parallel_results[0].sorted_rows(),
                other.sorted_rows(),
                "Q{n}: results must be bit-identical across parallelism degrees"
            );
        }
    }
}

#[test]
fn q1_to_q8_parallel_matches_serial() {
    check_parallel(1..=8);
}

#[test]
fn q9_to_q15_parallel_matches_serial() {
    check_parallel(9..=15);
}

#[test]
fn q16_to_q22_parallel_matches_serial() {
    check_parallel(16..=22);
}

/// Encoded (bit-packed / dictionary-coded) base columns are a pure
/// representation change: under **every** configuration of Table III, every
/// query must return bit-identical rows, in the same order, with encoding
/// on vs forced off. The specialized configurations also exercise the
/// scan-without-decompress kernels at parallelism 4 — packed reads must
/// compose with morsel boundaries.
fn check_encoded(range: impl Iterator<Item = usize>) {
    let system = LegoBase::generate(SCALE);
    // Under a CI-wide LEGOBASE_ENCODING=0 override, the "on" legs below are
    // themselves forced plain, so the non-vacuousness assertion (Opt/C must
    // pack columns) cannot hold there; the on≡off comparisons still run
    // (trivially, plain vs plain — the default leg proves the real thing).
    let env_override = system.env().encoding_off;
    let mut packing = 0;
    for n in range {
        // The result and the columns the compiler chose to pack.
        let under = |settings: Settings| {
            let out = system
                .query(&QueryRequest::plan(system.plan(n)).with_settings(settings))
                .expect("plan runs");
            (out.result, out.detail.expect("facade detail").compilation.spec.packed_columns)
        };
        for config in Config::ALL {
            let (on, packed) = under(config.settings());
            if config == Config::OptC {
                packing += usize::from(!packed.is_empty());
            }
            let (off, off_encoded) = under(config.settings().with(|s| s.encoding = false));
            assert!(
                on.0.rows == off.0.rows,
                "Q{n} under {config:?}: encoded result differs from plain: {}",
                on.diff(&off, 0.0).unwrap_or_default()
            );
            assert!(
                off_encoded.is_empty(),
                "Q{n} under {config:?}: the ablation must pack nothing"
            );
        }
        let par4 = Settings::optimized().with_parallelism(4);
        let (on4, _) = under(par4);
        let (off4, _) = under(par4.with(|s| s.encoding = false));
        assert_eq!(
            on4.sorted_rows(),
            off4.sorted_rows(),
            "Q{n}: encoded and plain runs diverge at parallelism 4"
        );
    }
    // Opt/C packs columns in most queries (all but Q7, Q18 and Q22, whose
    // every Int/Date/dictionary column is read decoded), so each range's
    // on-leg genuinely ran on packed columns.
    assert!(env_override || packing > 0, "Opt/C packed no column in this range");
}

#[test]
fn q1_to_q6_encoded_matches_plain() {
    check_encoded(1..=6);
}

#[test]
fn q7_to_q12_encoded_matches_plain() {
    check_encoded(7..=12);
}

#[test]
fn q13_to_q17_encoded_matches_plain() {
    check_encoded(13..=17);
}

#[test]
fn q18_to_q22_encoded_matches_plain() {
    check_encoded(18..=22);
}

/// The queries that are empty at the tiny default scale must be non-empty —
/// and still agree — at a larger scale.
#[test]
fn selective_queries_nonempty_at_larger_scale() {
    let system = LegoBase::generate(0.02);
    for n in [8usize, 17, 18, 19] {
        let reference =
            system.query(&QueryRequest::plan(system.plan(n)).with_config(Config::Dbx)).unwrap();
        assert!(!reference.result.is_empty(), "Q{n} still empty at SF 0.02");
        for config in [Config::TpchC, Config::OptC] {
            let got =
                system.query(&QueryRequest::plan(system.plan(n)).with_config(config)).unwrap();
            assert!(
                got.result.approx_eq(&reference.result, EPS),
                "Q{n} under {config:?}: {}",
                got.result.diff(&reference.result, EPS).unwrap_or_default()
            );
        }
    }
}
