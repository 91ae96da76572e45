//! Mapped archive loads are a pure representation change: a database
//! loaded through `archive::read_mapped` (v3 packed columns borrowed
//! zero-copy from the page cache, the encoded-column loader adopting them
//! instead of re-encoding) must return **bit-identical** rows to the same
//! archive loaded through the plain `archive::read` path — for every TPC-H
//! query, under every engine configuration of Table III, and at
//! parallelism 4. The writer's `from_values` and the loader's re-encode
//! derive the same frame-of-reference representation, so any divergence
//! here means the mapping layer corrupted or misread the words.

use legobase::tpch::archive;
use legobase::{Config, LegoBase, QueryRequest};

const SCALE: f64 = 0.002;

/// Loads the same freshly written v3 archive twice — once plain, once
/// mapped — and wraps both in system façades. The `tag` keeps the temp
/// files of concurrently running tests apart.
fn systems(tag: &str) -> (LegoBase, LegoBase) {
    let dir = std::env::temp_dir().join("legobase-mapped-equivalence");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join(format!("tpch-{tag}-{}.lbca", std::process::id()));
    let data = legobase::tpch::TpchData::generate(SCALE);
    archive::write(&data, &path).expect("write archive");
    let plain = archive::read(&path).expect("read");
    let mapped = archive::read_mapped(&path).expect("read_mapped");
    assert!(mapped.mapped_bytes() > 0, "a v3 load should borrow packed words zero-copy");
    assert_eq!(plain.mapped_bytes(), 0, "the plain path owns everything");
    // The mapping outlives the file on unix; unlinking here also proves no
    // code path re-opens the path behind the mapping's back.
    std::fs::remove_file(&path).ok();
    (LegoBase::from_data(plain), LegoBase::from_data(mapped))
}

fn check_mapped(tag: &str, range: impl Iterator<Item = usize>) {
    let (plain, mapped) = systems(tag);
    for n in range {
        for config in Config::ALL {
            let a = plain.query(&QueryRequest::plan(plain.plan(n)).with_config(config)).unwrap();
            let b = mapped.query(&QueryRequest::plan(mapped.plan(n)).with_config(config)).unwrap();
            assert!(
                a.result.0.rows == b.result.0.rows,
                "Q{n} under {config:?}: mapped load diverges from read load: {}",
                a.result.diff(&b.result, 0.0).unwrap_or_default()
            );
        }
        let par4 = legobase::Settings::optimized().with_parallelism(4);
        let a = plain.query(&QueryRequest::plan(plain.plan(n)).with_settings(par4)).unwrap();
        let b = mapped.query(&QueryRequest::plan(mapped.plan(n)).with_settings(par4)).unwrap();
        assert!(
            a.result.0.rows == b.result.0.rows,
            "Q{n}: mapped and read loads diverge at parallelism 4"
        );
    }
}

#[test]
fn q1_to_q6_mapped_matches_read() {
    check_mapped("q1-6", 1..=6);
}

#[test]
fn q7_to_q12_mapped_matches_read() {
    check_mapped("q7-12", 7..=12);
}

#[test]
fn q13_to_q17_mapped_matches_read() {
    check_mapped("q13-17", 13..=17);
}

#[test]
fn q18_to_q22_mapped_matches_read() {
    check_mapped("q18-22", 18..=22);
}
