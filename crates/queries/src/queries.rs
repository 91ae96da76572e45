//! The 22 TPC-H queries as physical plans, using the spec's validation
//! parameter values.

use crate::builder::{jcol, Ctx, Node};
use legobase_engine::expr::AggKind::{Avg, Count, Max, Min, Sum};
use legobase_engine::plan::JoinKind::{Anti, Inner, LeftOuter, Semi};
use legobase_engine::plan::QueryPlan;
use legobase_engine::plan::SortOrder::{Asc, Desc};
use legobase_engine::Expr;
use legobase_storage::{Catalog, Date, Value};

/// The workload's query names, in order.
pub const QUERY_NAMES: [&str; 22] = [
    "Q1", "Q2", "Q3", "Q4", "Q5", "Q6", "Q7", "Q8", "Q9", "Q10", "Q11", "Q12", "Q13", "Q14", "Q15",
    "Q16", "Q17", "Q18", "Q19", "Q20", "Q21", "Q22",
];

/// Builds one query by number (1–22).
pub fn query(catalog: &Catalog, n: usize) -> QueryPlan {
    match n {
        1 => q1(catalog),
        2 => q2(catalog),
        3 => q3(catalog),
        4 => q4(catalog),
        5 => q5(catalog),
        6 => q6(catalog),
        7 => q7(catalog),
        8 => q8(catalog),
        9 => q9(catalog),
        10 => q10(catalog),
        11 => q11(catalog),
        12 => q12(catalog),
        13 => q13(catalog),
        14 => q14(catalog),
        15 => q15(catalog),
        16 => q16(catalog),
        17 => q17(catalog),
        18 => q18(catalog),
        19 => q19(catalog),
        20 => q20(catalog),
        21 => q21(catalog),
        22 => q22(catalog),
        _ => panic!("TPC-H defines queries 1–22, got {n}"),
    }
}

/// Builds the whole workload.
pub fn all_queries(catalog: &Catalog) -> Vec<QueryPlan> {
    (1..=22).map(|n| query(catalog, n)).collect()
}

fn date(y: i32, m: u32, d: u32) -> Expr {
    Expr::lit(Date::from_ymd(y, m, d))
}

/// `l_extendedprice * (1 - l_discount)` over a node.
fn revenue(n: &Node) -> Expr {
    Expr::mul(n.c("l_extendedprice"), Expr::sub(Expr::lit(1.0), n.c("l_discount")))
}

/// Q1 — pricing summary report.
fn q1(cat: &Catalog) -> QueryPlan {
    let c = Ctx::new(cat);
    let li = c.scan("lineitem");
    let disc_price = revenue(&li);
    let charge = Expr::mul(disc_price.clone(), Expr::add(Expr::lit(1.0), li.c("l_tax")));
    let out = li
        .clone()
        .filter(Expr::le(li.c("l_shipdate"), date(1998, 9, 2)))
        .agg(
            &["l_returnflag", "l_linestatus"],
            vec![
                (Sum, li.c("l_quantity"), "sum_qty"),
                (Sum, li.c("l_extendedprice"), "sum_base_price"),
                (Sum, disc_price, "sum_disc_price"),
                (Sum, charge, "sum_charge"),
                (Avg, li.c("l_quantity"), "avg_qty"),
                (Avg, li.c("l_extendedprice"), "avg_price"),
                (Avg, li.c("l_discount"), "avg_disc"),
                (Count, Expr::lit(1i64), "count_order"),
            ],
        )
        .sort(&[("l_returnflag", Asc), ("l_linestatus", Asc)]);
    c.build("Q1", out)
}

/// Q2 — minimum-cost supplier. The scalar subquery (min supply cost per part
/// across European suppliers) is a materialized stage.
fn q2(cat: &Catalog) -> QueryPlan {
    let mut c = Ctx::new(cat);
    let europe = |c: &Ctx| {
        c.scan("region").filter(Expr::eq(c.scan("region").c("r_name"), Expr::lit("EUROPE")))
    };
    // Stage: min ps_supplycost per part over European suppliers.
    let ps = c.scan("partsupp");
    let su = c.scan("supplier");
    let na = c.scan("nation");
    let chain = ps
        .join(su, &["ps_suppkey"], &["s_suppkey"], Inner)
        .join(na, &["s_nationkey"], &["n_nationkey"], Inner)
        .join(europe(&c), &["n_regionkey"], &["r_regionkey"], Inner);
    let mincost = chain
        .agg(&["ps_partkey"], vec![(Min, chain.c("ps_supplycost"), "min_cost")])
        .project(vec![(Expr::Col(0), "mc_partkey"), (Expr::Col(1), "min_cost")]);
    c.stage("mincost", mincost);

    let part = c.scan("part").filter(Expr::and(
        Expr::eq(c.scan("part").c("p_size"), Expr::lit(15i64)),
        Expr::ends_with(c.scan("part").c("p_type"), "BRASS"),
    ));
    let j = part
        .join(c.scan("partsupp"), &["p_partkey"], &["ps_partkey"], Inner)
        .join(c.scan("supplier"), &["ps_suppkey"], &["s_suppkey"], Inner)
        .join(c.scan("nation"), &["s_nationkey"], &["n_nationkey"], Inner)
        .join(europe(&c), &["n_regionkey"], &["r_regionkey"], Inner);
    let mc = c.scan("#mincost");
    let residual = Expr::eq(jcol(&j, &mc, "ps_supplycost"), jcol(&j, &mc, "min_cost"));
    let joined2 = j.join_residual(mc, &["p_partkey"], &["mc_partkey"], Inner, Some(residual));
    let out = joined2
        .project(vec![
            (joined2.c("s_acctbal"), "s_acctbal"),
            (joined2.c("s_name"), "s_name"),
            (joined2.c("n_name"), "n_name"),
            (joined2.c("p_partkey"), "p_partkey"),
            (joined2.c("p_mfgr"), "p_mfgr"),
            (joined2.c("s_address"), "s_address"),
            (joined2.c("s_phone"), "s_phone"),
            (joined2.c("s_comment"), "s_comment"),
        ])
        .sort(&[("s_acctbal", Desc), ("n_name", Asc), ("s_name", Asc), ("p_partkey", Asc)])
        .limit(100);
    c.build("Q2", out)
}

/// Q3 — shipping priority.
fn q3(cat: &Catalog) -> QueryPlan {
    let c = Ctx::new(cat);
    let cust = c
        .scan("customer")
        .filter(Expr::eq(c.scan("customer").c("c_mktsegment"), Expr::lit("BUILDING")));
    let ord =
        c.scan("orders").filter(Expr::lt(c.scan("orders").c("o_orderdate"), date(1995, 3, 15)));
    let li =
        c.scan("lineitem").filter(Expr::gt(c.scan("lineitem").c("l_shipdate"), date(1995, 3, 15)));
    let joined = cust.join(ord, &["c_custkey"], &["o_custkey"], Inner).join(
        li,
        &["o_orderkey"],
        &["l_orderkey"],
        Inner,
    );
    let out = joined
        .agg(
            &["l_orderkey", "o_orderdate", "o_shippriority"],
            vec![(Sum, revenue(&joined), "revenue")],
        )
        .sort(&[("revenue", Desc), ("o_orderdate", Asc)])
        .limit(10);
    let out = out.project(vec![
        (out.c("l_orderkey"), "l_orderkey"),
        (out.c("revenue"), "revenue"),
        (out.c("o_orderdate"), "o_orderdate"),
        (out.c("o_shippriority"), "o_shippriority"),
    ]);
    c.build("Q3", out)
}

/// Q4 — order priority checking (EXISTS → semi join).
fn q4(cat: &Catalog) -> QueryPlan {
    let c = Ctx::new(cat);
    let ord = c.scan("orders").filter(Expr::and(
        Expr::ge(c.scan("orders").c("o_orderdate"), date(1993, 7, 1)),
        Expr::lt(c.scan("orders").c("o_orderdate"), date(1993, 10, 1)),
    ));
    let li = c.scan("lineitem").filter(Expr::lt(
        c.scan("lineitem").c("l_commitdate"),
        c.scan("lineitem").c("l_receiptdate"),
    ));
    let out = ord
        .join(li, &["o_orderkey"], &["l_orderkey"], Semi)
        .agg(&["o_orderpriority"], vec![(Count, Expr::lit(1i64), "order_count")])
        .sort(&[("o_orderpriority", Asc)]);
    c.build("Q4", out)
}

/// Q5 — local supplier volume.
fn q5(cat: &Catalog) -> QueryPlan {
    let c = Ctx::new(cat);
    let ord = c.scan("orders").filter(Expr::and(
        Expr::ge(c.scan("orders").c("o_orderdate"), date(1994, 1, 1)),
        Expr::lt(c.scan("orders").c("o_orderdate"), date(1995, 1, 1)),
    ));
    let co = c.scan("customer").join(ord, &["c_custkey"], &["o_custkey"], Inner);
    let col = co.join(c.scan("lineitem"), &["o_orderkey"], &["l_orderkey"], Inner);
    let su = c.scan("supplier");
    let residual = Expr::eq(jcol(&col, &su, "c_nationkey"), jcol(&col, &su, "s_nationkey"));
    let cols = col.join_residual(su, &["l_suppkey"], &["s_suppkey"], Inner, Some(residual));
    let joined = cols.join(c.scan("nation"), &["s_nationkey"], &["n_nationkey"], Inner).join(
        c.scan("region").filter(Expr::eq(c.scan("region").c("r_name"), Expr::lit("ASIA"))),
        &["n_regionkey"],
        &["r_regionkey"],
        Inner,
    );
    let out = joined
        .agg(&["n_name"], vec![(Sum, revenue(&joined), "revenue")])
        .sort(&[("revenue", Desc)]);
    c.build("Q5", out)
}

/// Q6 — forecasting revenue change (the paper's Fig. 4a example).
fn q6(cat: &Catalog) -> QueryPlan {
    let c = Ctx::new(cat);
    let li = c.scan("lineitem");
    let out = li
        .clone()
        .filter(Expr::all(vec![
            Expr::ge(li.c("l_shipdate"), date(1994, 1, 1)),
            Expr::lt(li.c("l_shipdate"), date(1995, 1, 1)),
            Expr::ge(li.c("l_discount"), Expr::lit(0.05)),
            Expr::le(li.c("l_discount"), Expr::lit(0.07)),
            Expr::lt(li.c("l_quantity"), Expr::lit(24.0)),
        ]))
        .agg(&[], vec![(Sum, Expr::mul(li.c("l_extendedprice"), li.c("l_discount")), "revenue")]);
    c.build("Q6", out)
}

/// Q7 — volume shipping between two nations.
fn q7(cat: &Catalog) -> QueryPlan {
    let c = Ctx::new(cat);
    let n1 = c.scan("nation").project(vec![
        (c.scan("nation").c("n_nationkey"), "n1_key"),
        (c.scan("nation").c("n_name"), "supp_nation"),
    ]);
    let n2 = c.scan("nation").project(vec![
        (c.scan("nation").c("n_nationkey"), "n2_key"),
        (c.scan("nation").c("n_name"), "cust_nation"),
    ]);
    let li = c.scan("lineitem").filter(Expr::and(
        Expr::ge(c.scan("lineitem").c("l_shipdate"), date(1995, 1, 1)),
        Expr::le(c.scan("lineitem").c("l_shipdate"), date(1996, 12, 31)),
    ));
    let joined = c
        .scan("supplier")
        .join(li, &["s_suppkey"], &["l_suppkey"], Inner)
        .join(c.scan("orders"), &["l_orderkey"], &["o_orderkey"], Inner)
        .join(c.scan("customer"), &["o_custkey"], &["c_custkey"], Inner)
        .join(n1, &["s_nationkey"], &["n1_key"], Inner)
        .join(n2, &["c_nationkey"], &["n2_key"], Inner);
    let pair = |a: &str, b: &str, j: &Node| {
        Expr::and(
            Expr::eq(j.c("supp_nation"), Expr::lit(a)),
            Expr::eq(j.c("cust_nation"), Expr::lit(b)),
        )
    };
    let filtered = joined
        .clone()
        .filter(Expr::or(pair("FRANCE", "GERMANY", &joined), pair("GERMANY", "FRANCE", &joined)));
    let shaped = filtered.project(vec![
        (filtered.c("supp_nation"), "supp_nation"),
        (filtered.c("cust_nation"), "cust_nation"),
        (Expr::year(filtered.c("l_shipdate")), "l_year"),
        (revenue(&filtered), "volume"),
    ]);
    let out = shaped
        .agg(&["supp_nation", "cust_nation", "l_year"], vec![(Sum, shaped.c("volume"), "revenue")])
        .sort(&[("supp_nation", Asc), ("cust_nation", Asc), ("l_year", Asc)]);
    c.build("Q7", out)
}

/// Q8 — national market share.
fn q8(cat: &Catalog) -> QueryPlan {
    let c = Ctx::new(cat);
    let part = c
        .scan("part")
        .filter(Expr::eq(c.scan("part").c("p_type"), Expr::lit("ECONOMY ANODIZED STEEL")));
    let ord = c.scan("orders").filter(Expr::and(
        Expr::ge(c.scan("orders").c("o_orderdate"), date(1995, 1, 1)),
        Expr::le(c.scan("orders").c("o_orderdate"), date(1996, 12, 31)),
    ));
    let n1 = c.scan("nation").project(vec![
        (c.scan("nation").c("n_nationkey"), "n1_key"),
        (c.scan("nation").c("n_regionkey"), "n1_region"),
    ]);
    let n2 = c.scan("nation").project(vec![
        (c.scan("nation").c("n_nationkey"), "n2_key"),
        (c.scan("nation").c("n_name"), "supp_nation"),
    ]);
    let america =
        c.scan("region").filter(Expr::eq(c.scan("region").c("r_name"), Expr::lit("AMERICA")));
    let joined = part
        .join(c.scan("lineitem"), &["p_partkey"], &["l_partkey"], Inner)
        .join(c.scan("supplier"), &["l_suppkey"], &["s_suppkey"], Inner)
        .join(ord, &["l_orderkey"], &["o_orderkey"], Inner)
        .join(c.scan("customer"), &["o_custkey"], &["c_custkey"], Inner)
        .join(n1, &["c_nationkey"], &["n1_key"], Inner)
        .join(america, &["n1_region"], &["r_regionkey"], Inner)
        .join(n2, &["s_nationkey"], &["n2_key"], Inner);
    let shaped = joined.project(vec![
        (Expr::year(joined.c("o_orderdate")), "o_year"),
        (revenue(&joined), "volume"),
        (joined.c("supp_nation"), "nation"),
    ]);
    let brazil_volume = Expr::case(
        Expr::eq(shaped.c("nation"), Expr::lit("BRAZIL")),
        shaped.c("volume"),
        Expr::lit(0.0),
    );
    let agg = shaped
        .agg(&["o_year"], vec![(Sum, brazil_volume, "brazil"), (Sum, shaped.c("volume"), "total")]);
    let out = agg
        .project(vec![
            (agg.c("o_year"), "o_year"),
            (Expr::div(agg.c("brazil"), agg.c("total")), "mkt_share"),
        ])
        .sort(&[("o_year", Asc)]);
    c.build("Q8", out)
}

/// Q9 — product type profit measure.
fn q9(cat: &Catalog) -> QueryPlan {
    let c = Ctx::new(cat);
    let part = c.scan("part").filter(Expr::contains(c.scan("part").c("p_name"), "green"));
    let joined = part
        .join(c.scan("lineitem"), &["p_partkey"], &["l_partkey"], Inner)
        .join(c.scan("supplier"), &["l_suppkey"], &["s_suppkey"], Inner)
        .join(c.scan("partsupp"), &["l_suppkey", "l_partkey"], &["ps_suppkey", "ps_partkey"], Inner)
        .join(c.scan("orders"), &["l_orderkey"], &["o_orderkey"], Inner)
        .join(c.scan("nation"), &["s_nationkey"], &["n_nationkey"], Inner);
    let amount =
        Expr::sub(revenue(&joined), Expr::mul(joined.c("ps_supplycost"), joined.c("l_quantity")));
    let shaped = joined.project(vec![
        (joined.c("n_name"), "nation"),
        (Expr::year(joined.c("o_orderdate")), "o_year"),
        (amount, "amount"),
    ]);
    let out = shaped
        .agg(&["nation", "o_year"], vec![(Sum, shaped.c("amount"), "sum_profit")])
        .sort(&[("nation", Asc), ("o_year", Desc)]);
    c.build("Q9", out)
}

/// Q10 — returned item reporting.
fn q10(cat: &Catalog) -> QueryPlan {
    let c = Ctx::new(cat);
    let ord = c.scan("orders").filter(Expr::and(
        Expr::ge(c.scan("orders").c("o_orderdate"), date(1993, 10, 1)),
        Expr::lt(c.scan("orders").c("o_orderdate"), date(1994, 1, 1)),
    ));
    let li =
        c.scan("lineitem").filter(Expr::eq(c.scan("lineitem").c("l_returnflag"), Expr::lit("R")));
    let joined = c
        .scan("customer")
        .join(ord, &["c_custkey"], &["o_custkey"], Inner)
        .join(li, &["o_orderkey"], &["l_orderkey"], Inner)
        .join(c.scan("nation"), &["c_nationkey"], &["n_nationkey"], Inner);
    let out = joined
        .agg(
            &["c_custkey", "c_name", "c_acctbal", "c_phone", "n_name", "c_address", "c_comment"],
            vec![(Sum, revenue(&joined), "revenue")],
        )
        .sort(&[("revenue", Desc)])
        .limit(20);
    c.build("Q10", out)
}

/// Q11 — important stock identification (HAVING over a global scalar).
fn q11(cat: &Catalog) -> QueryPlan {
    let mut c = Ctx::new(cat);
    let germany =
        c.scan("nation").filter(Expr::eq(c.scan("nation").c("n_name"), Expr::lit("GERMANY")));
    let gps = c
        .scan("partsupp")
        .join(c.scan("supplier"), &["ps_suppkey"], &["s_suppkey"], Inner)
        .join(germany, &["s_nationkey"], &["n_nationkey"], Inner);
    c.stage("gps", gps);

    let value_expr = |n: &Node| Expr::mul(n.c("ps_supplycost"), n.c("ps_availqty"));
    let g = c.scan("#gps");
    let total = g.clone().agg(&[], vec![(Sum, value_expr(&g), "total")]);
    c.stage("total", total);

    let g = c.scan("#gps");
    let per_part = g.clone().agg(&["ps_partkey"], vec![(Sum, value_expr(&g), "value")]);
    let with_total = per_part.cross_join(c.scan("#total"));
    let out = with_total
        .clone()
        .filter(Expr::gt(
            with_total.c("value"),
            Expr::mul(with_total.c("total"), Expr::lit(0.0001)),
        ))
        .project(vec![(with_total.c("ps_partkey"), "ps_partkey"), (with_total.c("value"), "value")])
        .sort(&[("value", Desc)]);
    c.build("Q11", out)
}

/// Q12 — shipping modes and order priority (the paper's Fig. 8 example).
fn q12(cat: &Catalog) -> QueryPlan {
    let c = Ctx::new(cat);
    let li = c.scan("lineitem");
    let li = li.clone().filter(Expr::all(vec![
        Expr::ge(li.c("l_receiptdate"), date(1994, 1, 1)),
        Expr::lt(li.c("l_receiptdate"), date(1995, 1, 1)),
        Expr::in_list(li.c("l_shipmode"), vec![Value::from("MAIL"), Value::from("SHIP")]),
        Expr::lt(li.c("l_shipdate"), li.c("l_commitdate")),
        Expr::lt(li.c("l_commitdate"), li.c("l_receiptdate")),
    ]));
    let joined = c.scan("orders").join(li, &["o_orderkey"], &["l_orderkey"], Inner);
    let is_high = Expr::in_list(
        joined.c("o_orderpriority"),
        vec![Value::from("1-URGENT"), Value::from("2-HIGH")],
    );
    let out = joined
        .clone()
        .agg(
            &["l_shipmode"],
            vec![
                (
                    Sum,
                    Expr::case(is_high.clone(), Expr::lit(1i64), Expr::lit(0i64)),
                    "high_line_count",
                ),
                (Sum, Expr::case(is_high, Expr::lit(0i64), Expr::lit(1i64)), "low_line_count"),
            ],
        )
        .sort(&[("l_shipmode", Asc)]);
    c.build("Q12", out)
}

/// Q13 — customer distribution (left outer join + word-pattern filter).
fn q13(cat: &Catalog) -> QueryPlan {
    let c = Ctx::new(cat);
    let ord = c.scan("orders").filter(Expr::not(Expr::word_seq(
        c.scan("orders").c("o_comment"),
        "special",
        "requests",
    )));
    let joined = c.scan("customer").join(ord, &["c_custkey"], &["o_custkey"], LeftOuter);
    let per_cust =
        joined.clone().agg(&["c_custkey"], vec![(Count, joined.c("o_orderkey"), "c_count")]);
    let out = per_cust
        .agg(&["c_count"], vec![(Count, Expr::lit(1i64), "custdist")])
        .sort(&[("custdist", Desc), ("c_count", Desc)]);
    c.build("Q13", out)
}

/// Q14 — promotion effect.
fn q14(cat: &Catalog) -> QueryPlan {
    let c = Ctx::new(cat);
    let li = c.scan("lineitem").filter(Expr::and(
        Expr::ge(c.scan("lineitem").c("l_shipdate"), date(1995, 9, 1)),
        Expr::lt(c.scan("lineitem").c("l_shipdate"), date(1995, 10, 1)),
    ));
    let joined = li.join(c.scan("part"), &["l_partkey"], &["p_partkey"], Inner);
    let rev = revenue(&joined);
    let promo =
        Expr::case(Expr::starts_with(joined.c("p_type"), "PROMO"), rev.clone(), Expr::lit(0.0));
    let agg = joined.agg(&[], vec![(Sum, promo, "promo"), (Sum, rev, "total")]);
    let out = agg.project(vec![(
        Expr::div(Expr::mul(Expr::lit(100.0), agg.c("promo")), agg.c("total")),
        "promo_revenue",
    )]);
    c.build("Q14", out)
}

/// Q15 — top supplier (view → stage; ties broken by the max-revenue equality).
fn q15(cat: &Catalog) -> QueryPlan {
    let mut c = Ctx::new(cat);
    let li = c.scan("lineitem");
    let rev = li
        .clone()
        .filter(Expr::and(
            Expr::ge(li.c("l_shipdate"), date(1996, 1, 1)),
            Expr::lt(li.c("l_shipdate"), date(1996, 4, 1)),
        ))
        .agg(&["l_suppkey"], vec![(Sum, revenue(&li), "total_revenue")]);
    c.stage("revenue", rev);
    let max_rev =
        c.scan("#revenue").agg(&[], vec![(Max, c.scan("#revenue").c("total_revenue"), "max_rev")]);
    c.stage("maxrev", max_rev);

    let joined = c
        .scan("supplier")
        .join(c.scan("#revenue"), &["s_suppkey"], &["l_suppkey"], Inner)
        .cross_join(c.scan("#maxrev"));
    let out = joined
        .clone()
        .filter(Expr::eq(joined.c("total_revenue"), joined.c("max_rev")))
        .project(vec![
            (joined.c("s_suppkey"), "s_suppkey"),
            (joined.c("s_name"), "s_name"),
            (joined.c("s_address"), "s_address"),
            (joined.c("s_phone"), "s_phone"),
            (joined.c("total_revenue"), "total_revenue"),
        ])
        .sort(&[("s_suppkey", Asc)]);
    c.build("Q15", out)
}

/// Q16 — parts/supplier relationship (NOT EXISTS → anti join, COUNT DISTINCT).
fn q16(cat: &Catalog) -> QueryPlan {
    let c = Ctx::new(cat);
    let part = c.scan("part").filter(Expr::all(vec![
        Expr::ne(c.scan("part").c("p_brand"), Expr::lit("Brand#45")),
        Expr::not(Expr::starts_with(c.scan("part").c("p_type"), "MEDIUM POLISHED")),
        Expr::in_list(
            c.scan("part").c("p_size"),
            [49i64, 14, 23, 45, 19, 3, 36, 9].iter().map(|&v| Value::Int(v)).collect(),
        ),
    ]));
    let complainers = c.scan("supplier").filter(Expr::word_seq(
        c.scan("supplier").c("s_comment"),
        "Customer",
        "Complaints",
    ));
    let joined = part.join(c.scan("partsupp"), &["p_partkey"], &["ps_partkey"], Inner).join(
        complainers,
        &["ps_suppkey"],
        &["s_suppkey"],
        Anti,
    );
    let out = joined
        .clone()
        .project(vec![
            (joined.c("p_brand"), "p_brand"),
            (joined.c("p_type"), "p_type"),
            (joined.c("p_size"), "p_size"),
            (joined.c("ps_suppkey"), "ps_suppkey"),
        ])
        .distinct()
        .agg(&["p_brand", "p_type", "p_size"], vec![(Count, Expr::lit(1i64), "supplier_cnt")])
        .sort(&[("supplier_cnt", Desc), ("p_brand", Asc), ("p_type", Asc), ("p_size", Asc)]);
    c.build("Q16", out)
}

/// Q17 — small-quantity-order revenue (correlated scalar → per-part stage).
fn q17(cat: &Catalog) -> QueryPlan {
    let mut c = Ctx::new(cat);
    let li = c.scan("lineitem");
    let avgq = li
        .clone()
        .agg(&["l_partkey"], vec![(Avg, li.c("l_quantity"), "avg_qty")])
        .project(vec![(Expr::Col(0), "ap_partkey"), (Expr::Col(1), "avg_qty")]);
    c.stage("avgq", avgq);

    let part = c.scan("part").filter(Expr::and(
        Expr::eq(c.scan("part").c("p_brand"), Expr::lit("Brand#23")),
        Expr::eq(c.scan("part").c("p_container"), Expr::lit("MED BOX")),
    ));
    let j = part.join(c.scan("lineitem"), &["p_partkey"], &["l_partkey"], Inner);
    let aq = c.scan("#avgq");
    let residual =
        Expr::lt(jcol(&j, &aq, "l_quantity"), Expr::mul(Expr::lit(0.2), jcol(&j, &aq, "avg_qty")));
    let joined = j.join_residual(aq, &["p_partkey"], &["ap_partkey"], Inner, Some(residual));
    let agg = joined.clone().agg(&[], vec![(Sum, joined.c("l_extendedprice"), "total")]);
    let out = agg.project(vec![(Expr::div(agg.c("total"), Expr::lit(7.0)), "avg_yearly")]);
    c.build("Q17", out)
}

/// Q18 — large volume customers (HAVING via stage + semi join).
fn q18(cat: &Catalog) -> QueryPlan {
    let mut c = Ctx::new(cat);
    let li = c.scan("lineitem");
    let big = li
        .clone()
        .agg(&["l_orderkey"], vec![(Sum, li.c("l_quantity"), "sum_qty")])
        .filter(Expr::gt(Expr::Col(1), Expr::lit(300.0)))
        .project(vec![(Expr::Col(0), "big_orderkey")]);
    c.stage("bigorders", big);

    let ord = c.scan("orders").join(c.scan("#bigorders"), &["o_orderkey"], &["big_orderkey"], Semi);
    let joined = c.scan("customer").join(ord, &["c_custkey"], &["o_custkey"], Inner).join(
        c.scan("lineitem"),
        &["o_orderkey"],
        &["l_orderkey"],
        Inner,
    );
    let out = joined
        .clone()
        .agg(
            &["c_name", "c_custkey", "o_orderkey", "o_orderdate", "o_totalprice"],
            vec![(Sum, joined.c("l_quantity"), "sum_qty")],
        )
        .sort(&[("o_totalprice", Desc), ("o_orderdate", Asc)])
        .limit(100);
    c.build("Q18", out)
}

/// Q19 — discounted revenue (disjunctive join predicate).
fn q19(cat: &Catalog) -> QueryPlan {
    let c = Ctx::new(cat);
    let li = c.scan("lineitem");
    let li = li.clone().filter(Expr::and(
        Expr::in_list(li.c("l_shipmode"), vec![Value::from("AIR"), Value::from("REG AIR")]),
        Expr::eq(li.c("l_shipinstruct"), Expr::lit("DELIVER IN PERSON")),
    ));
    let joined = li.join(c.scan("part"), &["l_partkey"], &["p_partkey"], Inner);
    let bracket = |j: &Node, brand: &str, containers: [&str; 4], qlo: f64, qhi: f64, smax: i64| {
        Expr::all(vec![
            Expr::eq(j.c("p_brand"), Expr::lit(brand)),
            Expr::in_list(j.c("p_container"), containers.iter().map(|&s| Value::from(s)).collect()),
            Expr::ge(j.c("l_quantity"), Expr::lit(qlo)),
            Expr::le(j.c("l_quantity"), Expr::lit(qhi)),
            Expr::ge(j.c("p_size"), Expr::lit(1i64)),
            Expr::le(j.c("p_size"), Expr::lit(smax)),
        ])
    };
    let cond = Expr::or(
        bracket(&joined, "Brand#12", ["SM CASE", "SM BOX", "SM PACK", "SM PKG"], 1.0, 11.0, 5),
        Expr::or(
            bracket(
                &joined,
                "Brand#23",
                ["MED BAG", "MED BOX", "MED PKG", "MED PACK"],
                10.0,
                20.0,
                10,
            ),
            bracket(
                &joined,
                "Brand#34",
                ["LG CASE", "LG BOX", "LG PACK", "LG PKG"],
                20.0,
                30.0,
                15,
            ),
        ),
    );
    let filtered = joined.filter(cond);
    let out = filtered.clone().agg(&[], vec![(Sum, revenue(&filtered), "revenue")]);
    c.build("Q19", out)
}

/// Q20 — potential part promotion (nested IN subqueries → stages).
fn q20(cat: &Catalog) -> QueryPlan {
    let mut c = Ctx::new(cat);
    let li = c.scan("lineitem");
    let liqty = li
        .clone()
        .filter(Expr::and(
            Expr::ge(li.c("l_shipdate"), date(1994, 1, 1)),
            Expr::lt(li.c("l_shipdate"), date(1995, 1, 1)),
        ))
        .agg(&["l_partkey", "l_suppkey"], vec![(Sum, li.c("l_quantity"), "sq")]);
    c.stage("liqty", liqty);

    let forest = c.scan("part").filter(Expr::starts_with(c.scan("part").c("p_name"), "forest"));
    let ps = c.scan("partsupp").join(forest, &["ps_partkey"], &["p_partkey"], Semi);
    let lq = c.scan("#liqty");
    let residual =
        Expr::gt(jcol(&ps, &lq, "ps_availqty"), Expr::mul(Expr::lit(0.5), jcol(&ps, &lq, "sq")));
    let eligible = ps
        .join_residual(
            lq,
            &["ps_partkey", "ps_suppkey"],
            &["l_partkey", "l_suppkey"],
            Inner,
            Some(residual),
        )
        .project(vec![(Expr::Col(1), "e_suppkey")]);
    c.stage("eligible", eligible);

    let canada =
        c.scan("nation").filter(Expr::eq(c.scan("nation").c("n_name"), Expr::lit("CANADA")));
    let out = c
        .scan("supplier")
        .join(c.scan("#eligible"), &["s_suppkey"], &["e_suppkey"], Semi)
        .join(canada, &["s_nationkey"], &["n_nationkey"], Inner);
    let out = out
        .project(vec![(out.c("s_name"), "s_name"), (out.c("s_address"), "s_address")])
        .sort(&[("s_name", Asc)]);
    c.build("Q20", out)
}

/// Q21 — suppliers who kept orders waiting (EXISTS + NOT EXISTS with
/// inequality correlation → semi/anti joins with residuals).
fn q21(cat: &Catalog) -> QueryPlan {
    let c = Ctx::new(cat);
    let late = |c: &Ctx| {
        let li = c.scan("lineitem");
        let pred = Expr::gt(li.c("l_receiptdate"), li.c("l_commitdate"));
        li.filter(pred)
    };
    let saudi =
        c.scan("nation").filter(Expr::eq(c.scan("nation").c("n_name"), Expr::lit("SAUDI ARABIA")));
    let orders_f =
        c.scan("orders").filter(Expr::eq(c.scan("orders").c("o_orderstatus"), Expr::lit("F")));
    let l1 = c
        .scan("supplier")
        .join(saudi, &["s_nationkey"], &["n_nationkey"], Inner)
        .join(late(&c), &["s_suppkey"], &["l_suppkey"], Inner)
        .join(orders_f, &["l_orderkey"], &["o_orderkey"], Inner);

    // EXISTS another lineitem of the same order from a different supplier.
    let l2 = c.scan("lineitem").project(vec![
        (c.scan("lineitem").c("l_orderkey"), "l2_orderkey"),
        (c.scan("lineitem").c("l_suppkey"), "l2_suppkey"),
    ]);
    let res2 = Expr::ne(jcol(&l1, &l2, "l_suppkey"), jcol(&l1, &l2, "l2_suppkey"));
    let with_other = l1.join_residual(l2, &["l_orderkey"], &["l2_orderkey"], Semi, Some(res2));

    // NOT EXISTS another *late* lineitem from a different supplier.
    let l3 = late(&c).project(vec![
        (c.scan("lineitem").c("l_orderkey"), "l3_orderkey"),
        (c.scan("lineitem").c("l_suppkey"), "l3_suppkey"),
    ]);
    let res3 = Expr::ne(jcol(&with_other, &l3, "l_suppkey"), jcol(&with_other, &l3, "l3_suppkey"));
    let sole_blame =
        with_other.join_residual(l3, &["l_orderkey"], &["l3_orderkey"], Anti, Some(res3));

    let out = sole_blame
        .agg(&["s_name"], vec![(Count, Expr::lit(1i64), "numwait")])
        .sort(&[("numwait", Desc), ("s_name", Asc)])
        .limit(100);
    c.build("Q21", out)
}

/// Q22 — global sales opportunity (anti join + scalar average stage).
fn q22(cat: &Catalog) -> QueryPlan {
    let mut c = Ctx::new(cat);
    let codes: Vec<Value> =
        ["13", "31", "23", "29", "30", "18", "17"].iter().map(|&s| Value::from(s)).collect();
    let cust = c.scan("customer");
    let code_of = |n: &Node| Expr::substr(n.c("c_phone"), 1, 2);
    let avgbal = cust
        .clone()
        .filter(Expr::and(
            Expr::gt(cust.c("c_acctbal"), Expr::lit(0.0)),
            Expr::in_list(code_of(&cust), codes.clone()),
        ))
        .agg(&[], vec![(Avg, cust.c("c_acctbal"), "avg_bal")]);
    c.stage("avgbal", avgbal);

    let cust = c.scan("customer");
    let candidates = cust
        .clone()
        .filter(Expr::in_list(code_of(&cust), codes))
        .join(c.scan("orders"), &["c_custkey"], &["o_custkey"], Anti)
        .cross_join(c.scan("#avgbal"));
    let filtered =
        candidates.clone().filter(Expr::gt(candidates.c("c_acctbal"), candidates.c("avg_bal")));
    let shaped = filtered
        .project(vec![(code_of(&filtered), "cntrycode"), (filtered.c("c_acctbal"), "c_acctbal")]);
    let out = shaped
        .clone()
        .agg(
            &["cntrycode"],
            vec![(Count, Expr::lit(1i64), "numcust"), (Sum, shaped.c("c_acctbal"), "totacctbal")],
        )
        .sort(&[("cntrycode", Asc)]);
    c.build("Q22", out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use legobase_engine::plan::used_base_columns;

    #[test]
    fn all_queries_build_and_typecheck() {
        let cat = legobase_tpch::catalog();
        let queries = all_queries(&cat);
        assert_eq!(queries.len(), 22);
        for (i, q) in queries.iter().enumerate() {
            assert_eq!(q.name, QUERY_NAMES[i]);
            // Schema resolution must succeed for every stage and the root.
            let (_, root) = q.schemas(&|t: &str| cat.table(t).schema.clone());
            assert!(!root.is_empty(), "{}: empty output schema", q.name);
            assert!(q.size() >= 2, "{}: suspiciously small plan", q.name);
        }
    }

    #[test]
    fn used_columns_are_proper_subsets() {
        let cat = legobase_tpch::catalog();
        for q in all_queries(&cat) {
            let used = used_base_columns(&q, &|t: &str| cat.table(t).schema.len());
            assert!(!used.is_empty(), "{} uses no base tables?", q.name);
            for (table, cols) in &used {
                let arity = cat.table(table).schema.len();
                assert!(cols.iter().all(|&c| c < arity), "{}: bad column in {table}", q.name);
            }
        }
        // Q12 references 8 attributes (paper, Section 3.6.1) — ours includes
        // the join keys: lineitem + orders usage must be well below the 25
        // total attributes.
        let q12 = query(&cat, 12);
        let used = used_base_columns(&q12, &|t: &str| cat.table(t).schema.len());
        let total: usize = used.values().map(|s| s.len()).sum();
        assert!(total <= 10, "Q12 should touch few attributes, got {total}");
    }

    #[test]
    fn expected_query_shapes() {
        let cat = legobase_tpch::catalog();
        assert_eq!(query(&cat, 6).stages.len(), 0);
        assert_eq!(query(&cat, 2).stages.len(), 1);
        assert_eq!(query(&cat, 11).stages.len(), 2);
        assert_eq!(query(&cat, 15).stages.len(), 2);
        assert_eq!(query(&cat, 20).stages.len(), 2);
        // Q13 is the only outer join in the workload.
        let mut outer = 0;
        for q in all_queries(&cat) {
            for p in q.plans() {
                p.walk(&mut |n| {
                    if let legobase_engine::Plan::HashJoin { kind, .. } = n {
                        if *kind == LeftOuter {
                            outer += 1;
                        }
                    }
                });
            }
        }
        assert_eq!(outer, 1);
    }

    #[test]
    #[should_panic(expected = "TPC-H defines queries 1–22")]
    fn invalid_query_number() {
        query(&legobase_tpch::catalog(), 23);
    }
}
