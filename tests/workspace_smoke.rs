//! Workspace wiring smoke test.
//!
//! The cheapest end-to-end guard for the manifests themselves: generate a
//! tiny TPC-H database through `legobase_tpch::gen` directly (exercising the
//! `tpch` → `storage` edge), hand it to the `legobase` facade (exercising
//! `core` → `sc`/`engine`/`queries`), and check that the interpreted Volcano
//! engine and the fully specialized executor agree. If any inter-crate
//! dependency edge or feature wiring regresses, this fails before the heavy
//! equivalence suites even build.

use legobase::engine::settings::EngineKind;
use legobase::{Config, LegoBase, QueryRequest};
use legobase_tpch::gen::TpchData;

#[test]
fn volcano_and_specialized_agree_on_generated_data() {
    let data = TpchData::generate(0.002);
    assert!(data.catalog.names().count() >= 8, "all eight TPC-H relations generated");

    let system = LegoBase::from_data(data);

    let volcano = Config::Dbx;
    let specialized = Config::OptC;
    assert_eq!(volcano.settings().engine, EngineKind::Volcano);
    assert_eq!(specialized.settings().engine, EngineKind::Specialized);

    for q in [1usize, 6] {
        let plan = QueryRequest::plan(system.plan(q));
        let baseline = system.query(&plan.clone().with_config(volcano)).unwrap();
        let optimized = system.query(&plan.with_config(specialized)).unwrap();
        assert!(
            optimized.result.approx_eq(&baseline.result, 1e-6),
            "Q{q}: volcano and specialized engines disagree:\n--- volcano ---\n{}\n--- specialized ---\n{}",
            baseline.result.display(10),
            optimized.result.display(10),
        );
        assert!(
            optimized.detail.is_some_and(|d| !d.compilation.c_source.is_empty()),
            "Q{q}: SC pipeline produced no C source"
        );
    }
}
