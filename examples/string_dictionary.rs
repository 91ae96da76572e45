//! String dictionaries: mapping string operations to integer operations
//! (Section 3.4, Table II).
//!
//! LegoBase maintains one dictionary per string attribute. Equality checks
//! become integer comparisons; `startsWith`/`endsWith` need the *ordered*
//! dictionary (codes assigned in lexicographic order, so a prefix becomes a
//! `[start, end]` code range); `indexOfSlice` on words needs the
//! word-tokenizing dictionary.
//!
//! This example shows all three dictionary kinds directly against the
//! storage substrate, then measures the end-to-end effect on TPC-H Q12
//! (two `l_shipmode` equality checks and two `o_orderpriority` checks per
//! tuple) by comparing LegoBase(TPC-H/C) — strcmp-style comparisons — with
//! LegoBase(StrDict/C).
//!
//! ```text
//! cargo run --release -p legobase --example string_dictionary
//! ```

use legobase::storage::{DictKind, StringDictionary};
use legobase::{Config, LegoBase, QueryRequest};

fn main() {
    // ---- Table II, row by row, on a toy attribute -------------------------
    let values = ["MAIL", "SHIP", "TRUCK", "AIR", "RAIL", "MAIL", "SHIP"];

    // `equals` / `notEquals`: any dictionary kind; one integer compare.
    let normal = StringDictionary::build(DictKind::Normal, values.iter().copied());
    let mail = normal.code("MAIL").expect("seen at load time");
    println!("Normal dictionary: {} distinct values", normal.len());
    println!("  x == \"MAIL\"      →  code(x) == {mail}");

    // `startsWith`: ordered dictionary, code range.
    let ordered = StringDictionary::build(DictKind::Ordered, values.iter().copied());
    let (lo, hi) = ordered.prefix_range("S").expect("some value starts with S");
    println!("Ordered dictionary: codes follow lexicographic order");
    println!("  x.startsWith(\"S\") →  {lo} <= code(x) && code(x) <= {hi}");

    // `indexOfSlice` on words: word-tokenizing dictionary.
    let comments =
        ["special requests sleep", "regular deposits", "special requests haggle furiously"];
    let word = StringDictionary::build(DictKind::WordToken, comments.iter().copied());
    let w1 = word.word_code("special").expect("tokenized");
    let w2 = word.word_code("requests").expect("tokenized");
    let hits =
        comments.iter().filter(|c| word.contains_word_seq(word.code(c).unwrap(), w1, w2)).count();
    println!("Word-token dictionary: \"special requests\" appears in {hits}/3 comments");

    // ---- end-to-end: Q12 with and without dictionaries --------------------
    // The same engine configuration, differing only in the `string_dict`
    // flag (the paper's "shared codebase that only differs by the effect of
    // a single optimization").
    println!("\nTPC-H Q12 (shipmode/priority string tests on every tuple):");
    let system = LegoBase::generate(0.05);
    let with_dict = Config::StrDictC.settings();
    let without_dict = with_dict.with(|s| s.string_dict = false);
    // Each run loads cold (the store is emptied first), so the load times
    // below compare building plain string columns against building
    // dictionaries — not a cold load against a warm one.
    let q12 = QueryRequest::plan(system.plan(12));
    system.reset_store();
    let mut plain = system.query(&q12.clone().with_settings(without_dict)).expect("Q12 runs");
    system.reset_store();
    let mut dict = system.query(&q12.with_settings(with_dict)).expect("Q12 runs");
    let plain_detail = plain.detail.take().expect("the facade reports its load");
    let dict_detail = dict.detail.take().expect("the facade reports its load");

    assert!(
        dict.result.approx_eq(&plain.result, 1e-6),
        "dictionaries changed the result: {:?}",
        dict.result.diff(&plain.result, 1e-6)
    );

    println!("  without dictionaries (strcmp):     {:?}", plain.exec_time);
    println!("  with dictionaries (integer codes): {:?}", dict.exec_time);
    println!("  speedup: {:.2}x", plain.exec_time.as_secs_f64() / dict.exec_time.as_secs_f64());

    // The trade-off the paper calls out: loading pays for the dictionary.
    println!("  load time without dictionaries: {:?}", plain_detail.load_time);
    println!("  load time with dictionaries:    {:?}", dict_detail.load_time);

    let spec = &dict_detail.compilation.spec;
    println!("\ndictionaries chosen by the SC pipeline for Q12:");
    for d in &spec.dictionaries {
        println!("  {}.{}: {:?}", d.table, d.column, d.kind);
    }
    println!("\nresult:\n{}", dict.result.display(4));
}
