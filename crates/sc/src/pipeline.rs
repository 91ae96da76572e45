//! The transformation pipeline (Fig. 5b).
//!
//! Developers assemble transformers in an explicit order; cleanup passes
//! (parameter promotion + DCE + partial evaluation) are re-run after every
//! domain-specific phase, exactly as in the paper's pipeline listing. The
//! pipeline records a per-phase trace (the progressive lowering of Fig. 7)
//! and per-phase timings (the compilation-overhead experiment of Fig. 22).

use crate::build::build_ir;
use crate::cgen;
use crate::ir::Program;
use crate::rules::{TransformCtx, Transformer};
use crate::transform::{
    Cleanup, CodeMotionHoisting, ColumnStore, Encode, FieldPromotion, FineGrained, HashMapLowering,
    HorizontalFusion, PartitioningAndDateIndices, ScalaToCLowering, SingletonHashMapToValue,
    StringDictionary,
};
use legobase_engine::{EngineKind, QueryPlan, Settings, Specialization};
use legobase_storage::Catalog;
use std::time::{Duration, Instant};

/// An ordered list of transformers.
pub struct Pipeline {
    transformers: Vec<Box<dyn Transformer>>,
}

impl Pipeline {
    /// Creates an empty pipeline.
    pub fn new() -> Pipeline {
        Pipeline { transformers: Vec::new() }
    }

    /// `pipeline += transformer` (Fig. 5b).
    pub fn add(&mut self, t: impl Transformer + 'static) -> &mut Self {
        self.transformers.push(Box::new(t));
        self
    }

    /// Builds the LegoBase pipeline for a settings vector, mirroring the
    /// paper's listing: optional phases are included based on configuration
    /// flags, and the cleanup pass runs after each one.
    pub fn for_settings(settings: &Settings) -> Pipeline {
        let mut p = Pipeline::new();
        // OperatorInlining is the plan→IR translation itself (crate::build).
        p.add(SingletonHashMapToValue);
        p.add(Cleanup);
        if settings.compiled_exprs {
            // Fuse sibling loops over the same relation before the
            // data-structure phases specialize their bodies (footnote 18).
            p.add(HorizontalFusion);
        }
        if settings.partitioning || settings.date_indices {
            p.add(PartitioningAndDateIndices);
            p.add(Cleanup);
        }
        if settings.hashmap_lowering {
            p.add(HashMapLowering);
        }
        if settings.string_dict {
            p.add(StringDictionary);
        }
        if settings.column_store || settings.field_removal {
            p.add(ColumnStore);
            p.add(Cleanup);
        }
        if settings.encoding && settings.engine == EngineKind::Specialized {
            // Chooses the Int/Date/dictionary base columns to pack; runs
            // after StringDictionary so the dictionary decisions it
            // piggybacks on are final. Only the specialized executor
            // consumes packed columns.
            p.add(Encode);
        }
        if settings.code_motion {
            p.add(CodeMotionHoisting);
            p.add(Cleanup);
        }
        if settings.compiled_exprs {
            p.add(FineGrained);
            // Flatten repeated row-field reads to locals once the layout
            // transformers have settled the access form (Table IV:
            // "Flattening Nested Structs").
            p.add(FieldPromotion);
        }
        p.add(ScalaToCLowering);
        p.add(Cleanup);
        p
    }

    /// The ordered phase names (for display and tests).
    pub fn phase_names(&self) -> Vec<&'static str> {
        self.transformers.iter().map(|t| t.name()).collect()
    }

    /// The load/execution decisions alone: every transformer's `decide`, in
    /// pipeline order, over the plan — no IR is built, nothing is lowered,
    /// no C is emitted. Equal to [`Pipeline::run`]'s `spec` (the
    /// workspace's `specialize_pin` test holds the two together); this is
    /// what a served miss pays for SC.
    pub fn specialize(
        &self,
        query: &QueryPlan,
        catalog: &Catalog,
        settings: &Settings,
    ) -> Specialization {
        self.decide(query, catalog, settings, |_, _| {}).spec
    }

    /// Runs every `decide`, handing `timed` each transformer's index and
    /// decision time.
    fn decide<'a>(
        &self,
        query: &'a QueryPlan,
        catalog: &'a Catalog,
        settings: &'a Settings,
        mut timed: impl FnMut(usize, Duration),
    ) -> TransformCtx<'a> {
        // The relations the plan scans are recorded whatever the settings —
        // the generic engines' loader asks the store for exactly their row
        // forms; `ColumnStore` fills in the attribute lists.
        let mut spec = Specialization::default();
        for table in query.base_tables() {
            spec.used_columns.entry(table.to_string()).or_default();
        }
        let mut ctx = TransformCtx { catalog, settings, query, spec };
        for (i, t) in self.transformers.iter().enumerate() {
            let t0 = Instant::now();
            t.decide(&mut ctx);
            timed(i, t0.elapsed());
        }
        ctx
    }

    /// Runs the pipeline over a query.
    pub fn run(&self, query: &QueryPlan, catalog: &Catalog, settings: &Settings) -> CompileResult {
        self.run_observed(query, catalog, settings, |_, _| {})
    }

    /// Runs the pipeline, handing `on_phase` the program after every phase
    /// (`OperatorInlining` first): Fig. 7's stage walk, with no stage kept.
    /// The decisions are made first ([`Pipeline::specialize`]); then the
    /// plan is inlined and lowered under them and stringified to C. A
    /// phase's duration is its decision plus its IR pass.
    pub fn run_observed(
        &self,
        query: &QueryPlan,
        catalog: &Catalog,
        settings: &Settings,
        mut on_phase: impl FnMut(&PhaseTrace, &Program),
    ) -> CompileResult {
        let start = Instant::now();
        let mut decided = vec![Duration::ZERO; self.transformers.len()];
        let ctx = self.decide(query, catalog, settings, |i, d| decided[i] = d);
        let inline_start = Instant::now();
        let mut prog = build_ir(query, catalog);
        let mut trace = vec![PhaseTrace {
            name: "OperatorInlining",
            size: prog.size(),
            duration: inline_start.elapsed(),
        }];
        on_phase(&trace[0], &prog);
        for (t, decision) in self.transformers.iter().zip(decided) {
            let t0 = Instant::now();
            prog = t.run(prog, &ctx);
            trace.push(PhaseTrace {
                name: t.name(),
                size: prog.size(),
                duration: decision + t0.elapsed(),
            });
            on_phase(trace.last().expect("just pushed"), &prog);
        }
        let cgen_start = Instant::now();
        let c_source = cgen::emit_c(&prog, catalog);
        let cgen_time = cgen_start.elapsed();
        CompileResult {
            program: prog,
            spec: ctx.spec,
            trace,
            c_source,
            optimize_time: start.elapsed() - cgen_time,
            cgen_time,
        }
    }
}

impl Default for Pipeline {
    fn default() -> Self {
        Pipeline::for_settings(&Settings::optimized())
    }
}

/// One pipeline phase's outcome.
#[derive(Clone, Debug)]
pub struct PhaseTrace {
    /// Transformer name.
    pub name: &'static str,
    /// IR size after the phase.
    pub size: usize,
    /// Time spent in the phase.
    pub duration: Duration,
}

/// The output of compiling one query.
pub struct CompileResult {
    /// Final (lowest-level) program; the earlier stages are handed to
    /// [`Pipeline::run_observed`]'s hook, never kept.
    pub program: Program,
    /// Load/execution decisions for the specialized engine.
    pub spec: Specialization,
    /// Per-phase trace (sizes and timings).
    pub trace: Vec<PhaseTrace>,
    /// Generated C source.
    pub c_source: String,
    /// Time spent in SC optimization (Fig. 22's "SC Optimization" bar).
    pub optimize_time: Duration,
    /// Time spent stringifying C (part of the CLang bar in the paper).
    pub cgen_time: Duration,
}

/// Convenience: compiles `query` under `settings` with the standard
/// LegoBase pipeline.
pub fn compile(query: &QueryPlan, catalog: &Catalog, settings: &Settings) -> CompileResult {
    Pipeline::for_settings(settings).run(query, catalog, settings)
}

/// Convenience: the standard LegoBase pipeline's decisions for `query`
/// under `settings` — [`compile`]'s `spec` without the IR or the C.
pub fn specialize(query: &QueryPlan, catalog: &Catalog, settings: &Settings) -> Specialization {
    Pipeline::for_settings(settings).specialize(query, catalog, settings)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{AggStoreKind, Stmt};
    use legobase_engine::Config;

    fn catalog() -> Catalog {
        legobase_tpch::catalog()
    }

    #[test]
    fn pipeline_order_follows_settings() {
        let all = Pipeline::for_settings(&Settings::optimized());
        let names = all.phase_names();
        assert!(names.contains(&"PartitioningAndDateIndices"));
        assert!(names.contains(&"HashMapLowering"));
        assert!(names.contains(&"StringDictionary"));
        assert!(names.contains(&"ColumnStore"));
        let pos = |n: &str| names.iter().position(|x| *x == n).unwrap();
        assert!(pos("PartitioningAndDateIndices") < pos("HashMapLowering"));
        assert!(pos("HashMapLowering") < pos("StringDictionary"));
        // Encode piggybacks on the dictionary decisions, so it runs after.
        assert!(pos("StringDictionary") < pos("Encode"));
        assert_eq!(*names.last().unwrap(), "ParamPromDCEAndPartiallyEvaluate");
        // Loop fusion runs before the data-structure phases; field promotion
        // after the layout has settled.
        assert!(pos("HorizontalFusion") < pos("PartitioningAndDateIndices"));
        assert!(pos("ColumnStore") < pos("FieldPromotion"));

        // The parallel degree is the executor's, not a phase: the pipeline
        // is the same at every degree.
        let par = Pipeline::for_settings(&Settings::optimized().with_parallelism(4));
        assert_eq!(par.phase_names(), names);

        let naive = Pipeline::for_settings(&Config::NaiveC.settings());
        assert!(!naive.phase_names().contains(&"HashMapLowering"));
        // Encoding is a specialized-executor decision: the row engines never
        // see packed columns, and the LEGOBASE_ENCODING=0 ablation drops the
        // phase entirely.
        assert!(!naive.phase_names().contains(&"Encode"));
        let unencoded = Pipeline::for_settings(&Settings::optimized().with(|s| s.encoding = false));
        assert!(!unencoded.phase_names().contains(&"Encode"));
        // The interpreted variants skip the compiled-code passes entirely.
        let scala = Pipeline::for_settings(&Config::OptScala.settings());
        assert!(!scala.phase_names().contains(&"FieldPromotion"));
        assert!(!scala.phase_names().contains(&"HorizontalFusion"));
    }

    #[test]
    fn q6_lowered_to_single_value_and_date_index() {
        let cat = catalog();
        let q = legobase_queries::query(&cat, 6);
        let settings = Settings::optimized();
        let result = compile(&q, &cat, &settings);
        // Singleton aggregation collapsed to a single value.
        assert_eq!(
            result
                .program
                .count(|s| matches!(s, Stmt::AggMapNew { store: AggStoreKind::SingleValue, .. })),
            1
        );
        // The shipdate range scan goes through the date index.
        assert_eq!(result.program.count(|s| matches!(s, Stmt::DateIndexLoop { .. })), 1);
        assert!(result.spec.has_date_index("lineitem", 10));
        // The column layout replaced field accesses.
        let mut col_loads = 0;
        result.program.walk(&mut |s| {
            let mut count = |e: &crate::ir::Expr| {
                e.visit(&mut |x| {
                    if matches!(x, crate::ir::Expr::ColumnLoad { .. }) {
                        col_loads += 1;
                    }
                });
            };
            if let Stmt::AggUpdate { updates, .. } = s {
                for (_, e) in updates {
                    count(e);
                }
            }
        });
        assert!(col_loads > 0, "Q6 aggregation should read columns directly");
        // Unused-field removal keeps only the referenced lineitem columns.
        let used = &result.spec.used_columns["lineitem"];
        assert!(used.len() <= 5, "Q6 references 4 attributes, got {used:?}");
    }

    #[test]
    fn encode_clears_touched_int_date_and_dict_columns() {
        let cat = catalog();
        let q = legobase_queries::query(&cat, 1);
        let result = compile(&q, &cat, &Settings::optimized());
        let li = |name: &str| cat.table("lineitem").schema.col(name);
        // Q1's scanned attributes: the shipdate filter packs; the two
        // dictionary-coded group keys are read decoded per row and stay
        // plain; the float measures never pack.
        assert!(result.spec.has_packed_column("lineitem", li("l_shipdate")));
        assert!(!result.spec.has_packed_column("lineitem", li("l_returnflag")));
        assert!(!result.spec.has_packed_column("lineitem", li("l_linestatus")));
        assert!(!result.spec.has_packed_column("lineitem", li("l_extendedprice")));
        assert!(result.c_source.contains("encoded column scan: 1 column(s) packed"));

        // Q6 touches only lineitem; the shipdate filter packs, the float
        // measures (quantity, discount, extendedprice) never do.
        let q6 = legobase_queries::query(&cat, 6);
        let r6 = compile(&q6, &cat, &Settings::optimized());
        assert!(r6.spec.has_packed_column("lineitem", li("l_shipdate")));
        assert!(!r6.spec.has_packed_column("lineitem", li("l_quantity")));
        assert!(r6.spec.packed_columns.iter().all(|p| p.table == "lineitem"));

        // The ablation leaves the decision record empty.
        let off = compile(&q, &cat, &Settings::optimized().with(|s| s.encoding = false));
        assert!(off.spec.packed_columns.is_empty());
        assert!(!off.c_source.contains("encoded column scan"));
    }

    /// The Encode transformer prices each column's scan side: literal
    /// filters stay in the raw word domain and single-scan decoded
    /// predicates unpack inside the filter, so both pack; repeated decoded
    /// reads keep the column plain.
    #[test]
    fn unpack_strategies_price_the_scan_side() {
        let cat = catalog();
        let li = |name: &str| cat.table("lineitem").schema.col(name);
        // Q6: the shipdate filter compares against literals only — raw word
        // compares, never decoded.
        let r6 = compile(&legobase_queries::query(&cat, 6), &cat, &Settings::optimized());
        assert!(r6.spec.has_packed_column("lineitem", li("l_shipdate")));
        // Q1 groups on the dictionary-coded flags: repeated decoded reads.
        let r1 = compile(&legobase_queries::query(&cat, 1), &cat, &Settings::optimized());
        assert!(!r1.spec.has_packed_column("lineitem", li("l_returnflag")));
        // Q12 compares shipdate/commitdate/receiptdate to each other inside
        // one lineitem scan: the unpack happens inside the filter.
        let r12 = compile(&legobase_queries::query(&cat, 12), &cat, &Settings::optimized());
        for col in ["l_shipdate", "l_commitdate", "l_receiptdate"] {
            assert!(r12.spec.has_packed_column("lineitem", li(col)), "{col}");
        }
        // Q21 runs the receiptdate > commitdate filter across several
        // lineitem scans: each scan would unpack the same packed words, so
        // the columns stay plain.
        let r21 = compile(&legobase_queries::query(&cat, 21), &cat, &Settings::optimized());
        for col in ["l_receiptdate", "l_commitdate"] {
            assert!(!r21.spec.has_packed_column("lineitem", li(col)), "{col}");
        }
    }

    /// The degree is the executor's alone: SC's program, C and packed
    /// columns are the same at every requested degree.
    #[test]
    fn sc_output_is_the_same_at_every_degree() {
        let cat = catalog();
        for n in [1usize, 3, 6, 12] {
            let q = legobase_queries::query(&cat, n);
            let serial = compile(&q, &cat, &Settings::optimized());
            for degree in [2usize, 4, 8] {
                let par = compile(&q, &cat, &Settings::optimized().with_parallelism(degree));
                assert_eq!(par.c_source, serial.c_source, "Q{n} at degree {degree}");
                assert_eq!(par.program, serial.program, "Q{n} at degree {degree}");
                assert_eq!(par.spec.packed_columns, serial.spec.packed_columns);
            }
        }
    }

    /// No phase of SC reads the degree: the serial and the parallel
    /// pipelines run the same transformers, and neither marks the C.
    #[test]
    fn serial_and_parallel_requests_share_one_unmarked_pipeline() {
        let cat = catalog();
        let q = legobase_queries::query(&cat, 6);
        let serial = compile(&q, &cat, &Settings::optimized());
        let par = compile(&q, &cat, &Settings::optimized().with_parallelism(4));
        let phases = |r: &CompileResult| r.trace.iter().map(|t| t.name).collect::<Vec<_>>();
        assert_eq!(phases(&serial), phases(&par));
        for r in [&serial, &par] {
            assert!(!r.c_source.contains("morsel-driven"));
        }
    }

    #[test]
    fn q12_specialization_matches_paper_narrative() {
        let cat = catalog();
        let q = legobase_queries::query(&cat, 12);
        let result = compile(&q, &cat, &Settings::optimized());
        // Partitioning: the lineitem side of the join is partitioned on
        // l_orderkey (Section 3.2.1's Q12 walkthrough).
        assert!(result.spec.has_fk_partition("lineitem", 0), "{:?}", result.spec.fk_partitions);
        // Dictionaries on l_shipmode and o_orderpriority (Section 3.4).
        let li = cat.table("lineitem").schema.col("l_shipmode");
        let op = cat.table("orders").schema.col("o_orderpriority");
        assert!(result.spec.dict_kind("lineitem", li).is_some());
        assert!(result.spec.dict_kind("orders", op).is_some());
        // The receiptdate range is date-indexed.
        assert!(result
            .spec
            .has_date_index("lineitem", cat.table("lineitem").schema.col("l_receiptdate")));
    }

    #[test]
    fn trace_records_every_phase_and_shrinks_ir() {
        let cat = catalog();
        let q = legobase_queries::query(&cat, 3);
        let settings = Settings::optimized();
        let mut observed = Vec::new();
        let result = Pipeline::for_settings(&settings)
            .run_observed(&q, &cat, &settings, |t, p| observed.push((t.name, p.size())));
        assert!(result.trace.len() >= 8);
        assert_eq!(result.trace[0].name, "OperatorInlining");
        // Cleanup passes must not grow the program.
        for w in result.trace.windows(2) {
            if w[1].name == "ParamPromDCEAndPartiallyEvaluate" {
                assert!(w[1].size <= w[0].size, "cleanup grew the IR: {w:?}");
            }
        }
        // The hook sees every phase once, in order, with the program it left.
        let traced: Vec<_> = result.trace.iter().map(|t| (t.name, t.size)).collect();
        assert_eq!(observed, traced);
    }

    /// Fusion runs before date indexing; it must never merge a loop in a
    /// way that hides a date-index opportunity (the date rewrite matches a
    /// single-`If` body, which a fused body would not be).
    #[test]
    fn fusion_does_not_steal_date_indices() {
        let cat = catalog();
        let settings = Settings::optimized();
        for q in legobase_queries::all_queries(&cat) {
            let with_fusion = compile(&q, &cat, &settings);
            let mut p = Pipeline::new();
            p.add(crate::transform::SingletonHashMapToValue);
            p.add(crate::transform::Cleanup);
            p.add(crate::transform::PartitioningAndDateIndices);
            p.add(crate::transform::Cleanup);
            let without_fusion = p.run(&q, &cat, &settings);
            let count =
                |prog: &crate::ir::Program| prog.count(|s| matches!(s, Stmt::DateIndexLoop { .. }));
            assert_eq!(
                count(&with_fusion.program),
                count(&without_fusion.program),
                "{}: fusion changed the number of date-indexed loops",
                q.name
            );
        }
    }

    #[test]
    fn all_queries_compile_under_all_configs() {
        let cat = catalog();
        for q in legobase_queries::all_queries(&cat) {
            for cfg in legobase_engine::Config::ALL {
                let settings = cfg.settings();
                let result = compile(&q, &cat, &settings);
                assert!(!result.c_source.is_empty(), "{}: empty C for {cfg:?}", q.name);
                if settings.string_dict {
                    // No raw string op survives dictionary lowering in the IR.
                    let mut raw = 0;
                    result.program.walk(&mut |s| {
                        let mut count = |e: &crate::ir::Expr| {
                            e.visit(&mut |x| {
                                if matches!(x, crate::ir::Expr::StrOp(..)) {
                                    raw += 1;
                                }
                            });
                        };
                        if let Stmt::If { cond, .. } = s {
                            count(cond);
                        }
                    });
                    assert_eq!(raw, 0, "{}: raw string ops left under {cfg:?}", q.name);
                }
            }
        }
    }
}
