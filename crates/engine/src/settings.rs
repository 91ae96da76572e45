//! Optimization toggles and the named system configurations of Table III.
//!
//! `engine` picks the executor family, and each optimization field from
//! `compiled_exprs` to `interop_fusion` switches one entry of the SC
//! transformation pipeline (Fig. 5b) with its executor path. The other
//! four are requests: `parallelism` to the executor, `optimize` to the SQL
//! optimizer, `encoding` to the `Encode` transformer and `feedback` to the
//! catalog. The named [`Config`]s reproduce the systems compared in the
//! paper's evaluation (see DESIGN.md for the mapping rationale).

/// Which executor family runs the plan.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum EngineKind {
    /// Pull-based iterator engine over generic tuples (the DBX baseline).
    Volcano,
    /// Push-style engine over generic tuples (naive LegoBase / HyPer-style
    /// data flow).
    Push,
    /// The specialized executor standing in for LegoBase's generated C.
    Specialized,
}

/// The full optimization flag set.
///
/// `Hash` because the flag set is part of cache keys: the multi-tenant query
/// service keys its prepared-query cache on (SQL text, catalog version,
/// settings) — two sessions only share a loaded, compiled query when every
/// flag agrees.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub struct Settings {
    /// Which executor family runs the plan.
    pub engine: EngineKind,
    /// Expressions compiled to closures/kernels (operator inlining analog);
    /// `false` = per-tuple interpretation (DBX and the `*Scala` variants).
    pub compiled_exprs: bool,
    /// Data partitioning on primary/foreign keys (Section 3.2.1).
    pub partitioning: bool,
    /// Automatically inferred date indices (Section 3.2.3).
    pub date_indices: bool,
    /// Hash maps lowered to native chained arrays (Section 3.2.2).
    pub hashmap_lowering: bool,
    /// String dictionaries (Section 3.4).
    pub string_dict: bool,
    /// Column layout with late materialization (Section 3.3). When off, every
    /// intermediate result materializes all of its attributes.
    pub column_store: bool,
    /// Domain-specific code motion: hoisted allocations and pre-initialized
    /// aggregation stores (Section 3.5).
    pub code_motion: bool,
    /// Unused relational attributes are never loaded (Section 3.6.1).
    pub field_removal: bool,
    /// Inter-operator optimization: aggregation materialized directly inside
    /// the join hash table (Section 3.1, Fig. 9).
    pub interop_fusion: bool,
    /// Morsel-driven parallelism degree (worker threads) for the
    /// specialized engine: every operator whose input is large enough to
    /// split (scan→filter→pre-aggregate, join build and probe, sort) runs
    /// morsel-parallel at this degree (DESIGN.md §3). `1` = the paper's
    /// single-threaded execution and the default for every named
    /// [`Config`]; `LEGOBASE_PARALLELISM` overrides it. The generic engines
    /// ignore the knob.
    pub parallelism: usize,
    /// Runs the cost-based logical optimizer (predicate pushdown,
    /// cross-conjunct inference, join reordering — `crate::optimizer`) on
    /// plans arriving from the SQL frontend's naive lowering. Defaults to
    /// `true` for every named [`Config`]; hand-built plans are never
    /// rewritten (they are the oracle the optimizer is measured against).
    /// CI's off-leg sets the `LEGOBASE_OPTIMIZE=0` environment override.
    pub optimize: bool,
    /// Allows encoded base-table columns (frame-of-reference bit-packed
    /// ints/dates, bit-packed dictionary codes) that kernels scan without
    /// decompressing. Defaults to `true`; this is a *request* — the SC
    /// pipeline's `Encode` transformer decides per query which columns
    /// pack (the specialization report's `packed_columns`), and with the
    /// flag off the loader keeps every column plain. CI's off-leg sets
    /// `LEGOBASE_ENCODING=0`.
    pub encoding: bool,
    /// Closes the adaptive-estimation loop: after execution, observed
    /// cardinalities are absorbed back into the catalog
    /// ([`Catalog::absorb_actuals`](legobase_storage::Catalog::absorb_actuals))
    /// so repeated queries re-plan under corrected estimates. Defaults to
    /// `true`; `LEGOBASE_FEEDBACK=0` ablates the loop. Feedback only
    /// sharpens estimates — it never changes results, so the flag is safe
    /// to flip at any time.
    pub feedback: bool,
}

impl Settings {
    /// Everything off, Volcano engine: the interpreted row-store baseline.
    pub fn baseline() -> Settings {
        Settings {
            engine: EngineKind::Volcano,
            compiled_exprs: false,
            partitioning: false,
            date_indices: false,
            hashmap_lowering: false,
            string_dict: false,
            column_store: false,
            code_motion: false,
            field_removal: false,
            interop_fusion: false,
            parallelism: 1,
            optimize: true,
            encoding: true,
            feedback: true,
        }
    }

    /// Everything on, specialized engine: LegoBase(Opt/C).
    pub fn optimized() -> Settings {
        Settings {
            engine: EngineKind::Specialized,
            compiled_exprs: true,
            partitioning: true,
            date_indices: true,
            hashmap_lowering: true,
            string_dict: true,
            column_store: true,
            code_motion: true,
            field_removal: true,
            interop_fusion: true,
            parallelism: 1,
            optimize: true,
            encoding: true,
            feedback: true,
        }
    }

    /// Functional-update helper for ablations.
    pub fn with(mut self, f: impl FnOnce(&mut Settings)) -> Settings {
        f(&mut self);
        self
    }

    /// Requests a morsel-driven parallelism degree (clamped to ≥ 1).
    pub fn with_parallelism(self, degree: usize) -> Settings {
        self.with(|s| s.parallelism = degree.max(1))
    }
}

/// The named system configurations of Table III.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum Config {
    /// Commercial in-memory row store, no compilation.
    Dbx,
    /// HyPer's query compiler: push engine, operator inlining, partitioning.
    HyPerLike,
    /// LegoBase(Naive/C): push engine + inlining only.
    NaiveC,
    /// LegoBase(Naive/Scala): naive engine with interpreted dispatch.
    NaiveScala,
    /// LegoBase(TPC-H/C): naive + TPC-H-compliant data partitioning.
    TpchC,
    /// LegoBase(StrDict/C): TPC-H/C + string dictionaries.
    StrDictC,
    /// LegoBase(Opt/C): all optimizations.
    OptC,
    /// LegoBase(Opt/Scala): all optimizations, interpreted dispatch.
    OptScala,
}

impl Config {
    /// Every configuration, in Table III order.
    pub const ALL: [Config; 8] = [
        Config::Dbx,
        Config::HyPerLike,
        Config::NaiveC,
        Config::NaiveScala,
        Config::TpchC,
        Config::StrDictC,
        Config::OptC,
        Config::OptScala,
    ];

    /// The paper's display name for this configuration.
    pub fn name(&self) -> &'static str {
        match self {
            Config::Dbx => "DBX",
            Config::HyPerLike => "Compiler of HyPer",
            Config::NaiveC => "LegoBase(Naive/C)",
            Config::NaiveScala => "LegoBase(Naive/Scala)",
            Config::TpchC => "LegoBase(TPC-H/C)",
            Config::StrDictC => "LegoBase(StrDict/C)",
            Config::OptC => "LegoBase(Opt/C)",
            Config::OptScala => "LegoBase(Opt/Scala)",
        }
    }

    /// The optimization flag set of this configuration.
    pub fn settings(&self) -> Settings {
        use EngineKind::*;
        match self {
            Config::Dbx => Settings::baseline(),
            Config::NaiveC => Settings::baseline().with(|s| {
                s.engine = Push;
                s.compiled_exprs = true;
            }),
            Config::NaiveScala => Settings::baseline().with(|s| s.engine = Push),
            Config::TpchC => Settings::baseline().with(|s| {
                s.engine = Push;
                s.compiled_exprs = true;
                s.partitioning = true;
            }),
            Config::HyPerLike => Settings::baseline().with(|s| {
                s.engine = Specialized;
                s.compiled_exprs = true;
                s.partitioning = true;
                s.hashmap_lowering = true;
            }),
            Config::StrDictC => Settings::baseline().with(|s| {
                s.engine = Specialized;
                s.compiled_exprs = true;
                s.partitioning = true;
                s.hashmap_lowering = true;
                s.string_dict = true;
            }),
            Config::OptC => Settings::optimized(),
            Config::OptScala => Settings::optimized().with(|s| s.compiled_exprs = false),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn configs_follow_table_iii() {
        assert_eq!(Config::Dbx.settings().engine, EngineKind::Volcano);
        assert!(!Config::Dbx.settings().compiled_exprs);
        let naive = Config::NaiveC.settings();
        assert_eq!(naive.engine, EngineKind::Push);
        assert!(naive.compiled_exprs && !naive.partitioning);
        assert!(!Config::NaiveScala.settings().compiled_exprs);
        let tpch = Config::TpchC.settings();
        assert!(tpch.partitioning && !tpch.string_dict);
        let strdict = Config::StrDictC.settings();
        assert!(strdict.string_dict && !strdict.column_store);
        let opt = Config::OptC.settings();
        assert!(opt.column_store && opt.date_indices && opt.code_motion && opt.field_removal);
        let opt_scala = Config::OptScala.settings();
        assert!(opt_scala.column_store && !opt_scala.compiled_exprs);
    }

    /// Every named configuration stays single-threaded by default: the
    /// paper's evaluation is serial, and parallelism is an explicit opt-in.
    #[test]
    fn all_configs_default_to_serial() {
        for c in Config::ALL {
            assert_eq!(c.settings().parallelism, 1, "{c:?} must default to serial");
        }
        assert_eq!(Settings::optimized().with_parallelism(4).parallelism, 4);
        assert_eq!(Settings::optimized().with_parallelism(0).parallelism, 1);
    }

    /// The cost-based optimizer is on by default in every configuration —
    /// SQL text always benefits unless explicitly ablated.
    #[test]
    fn optimizer_defaults_on() {
        for c in Config::ALL {
            assert!(c.settings().optimize, "{c:?} must default to optimize");
        }
        assert!(!Settings::optimized().with(|s| s.optimize = false).optimize);
    }

    /// Encoding is a default-on request in every configuration — the SC
    /// pipeline decides per query, and `LEGOBASE_ENCODING=0` ablates.
    #[test]
    fn encoding_defaults_on() {
        for c in Config::ALL {
            assert!(c.settings().encoding, "{c:?} must default to encoding");
        }
        assert!(!Settings::optimized().with(|s| s.encoding = false).encoding);
    }

    /// Adaptive feedback is a default-on request in every configuration;
    /// `LEGOBASE_FEEDBACK=0` ablates the loop.
    #[test]
    fn feedback_defaults_on() {
        for c in Config::ALL {
            assert!(c.settings().feedback, "{c:?} must default to feedback");
        }
        assert!(!Settings::optimized().with(|s| s.feedback = false).feedback);
    }

    #[test]
    fn all_configs_named() {
        for c in Config::ALL {
            assert!(!c.name().is_empty());
        }
    }
}
