//! Error-path coverage: every malformed input must come back as a spanned
//! [`SqlError`] — never a panic. A serving process parses untrusted text;
//! this suite is the contract that makes SQL requests safe to expose.

use legobase_sql::{plan, SqlError};
use proptest::prelude::*;

fn err(sql: &str) -> SqlError {
    let catalog = legobase_tpch::catalog();
    match plan(sql, &catalog) {
        Err(e) => e,
        Ok(_) => panic!("expected an error for: {sql}"),
    }
}

/// The span must point inside the text (so `render` can draw a caret).
fn assert_spanned(sql: &str, needle: &str) -> SqlError {
    let e = err(sql);
    assert!(
        e.message.contains(needle),
        "error for {sql:?} should mention {needle:?}, got: {}",
        e.message
    );
    assert!(e.span.start <= sql.len(), "span start out of range for {sql:?}: {e}");
    assert!(e.span.start <= e.span.end, "inverted span for {sql:?}: {e}");
    // And the rendered diagnostic names the line.
    assert!(e.render(sql).contains("error:"), "render failed for {sql:?}");
    e
}

#[test]
fn unknown_table_is_spanned() {
    let e = assert_spanned("SELECT x FROM nowhere", "unknown table");
    assert_eq!(&"SELECT x FROM nowhere"[e.span.start..e.span.end], "nowhere");
}

#[test]
fn unknown_column_is_spanned() {
    let sql = "SELECT l_nonsense FROM lineitem";
    let e = assert_spanned(sql, "unknown column");
    assert_eq!(&sql[e.span.start..e.span.end], "l_nonsense");
    assert_spanned("SELECT * FROM lineitem WHERE l_oops = 1", "unknown column");
    // A qualifier that matches no range variable reads as an unknown column.
    assert_spanned("SELECT bogus.l_orderkey FROM lineitem", "unknown column");
}

#[test]
fn ambiguous_column_is_reported() {
    // Both nation instances carry n_name.
    assert_spanned(
        "SELECT n_name FROM nation n1 JOIN nation n2 ON n1.n_nationkey = n2.n_nationkey",
        "ambiguous",
    );
}

#[test]
fn type_mismatches_are_reported() {
    assert_spanned("SELECT * FROM lineitem WHERE l_quantity = 'much'", "type mismatch");
    assert_spanned("SELECT * FROM lineitem WHERE l_shipdate > 7", "type mismatch");
    assert_spanned("SELECT l_comment + 1 AS x FROM lineitem", "numeric");
    assert_spanned("SELECT * FROM lineitem WHERE l_quantity LIKE 'x%'", "LIKE needs a string");
    assert_spanned("SELECT * FROM lineitem WHERE l_comment AND TRUE", "boolean");
    assert_spanned(
        "SELECT CASE WHEN l_quantity > 1.0 THEN 1 ELSE 'no' END AS x FROM lineitem",
        "same type",
    );
    assert_spanned("SELECT extract(year FROM l_comment) AS y FROM lineitem", "needs a date");
    assert_spanned("SELECT sum(l_comment) AS s FROM lineitem", "numeric");
}

/// Multi-WHEN `CASE` desugars to nested single-WHEN `Case` expressions, and
/// a branch-type mismatch anywhere in the chain is a spanned error.
#[test]
fn multi_when_case_lowers_and_typechecks() {
    use legobase_engine::{Expr, Plan};
    let catalog = legobase_tpch::catalog();
    let q = plan(
        "SELECT CASE WHEN l_quantity < 10.0 THEN 'small' \
         WHEN l_quantity < 30.0 THEN 'medium' ELSE 'large' END AS bucket \
         FROM lineitem",
        &catalog,
    )
    .expect("multi-WHEN CASE lowers");
    let Plan::Project { exprs, .. } = &q.root else { panic!("project expected: {:?}", q.root) };
    let Expr::Case(_, _, otherwise) = &exprs[0].0 else {
        panic!("case expected: {:?}", exprs[0].0)
    };
    assert!(
        matches!(otherwise.as_ref(), Expr::Case(..)),
        "second WHEN must nest into the ELSE branch: {otherwise:?}"
    );

    assert_spanned(
        "SELECT CASE WHEN l_quantity < 10.0 THEN 1 \
         WHEN l_quantity < 30.0 THEN 'oops' ELSE 0 END AS b FROM lineitem",
        "same type",
    );
    // A WHEN chain still requires ELSE and END.
    assert_spanned(
        "SELECT CASE WHEN l_quantity < 10.0 THEN 1 WHEN l_quantity < 30.0 THEN 2 END AS b \
         FROM lineitem",
        "expected `ELSE`",
    );
}

#[test]
fn unclosed_string_is_spanned() {
    let sql = "SELECT * FROM lineitem WHERE l_returnflag = 'R";
    let e = assert_spanned(sql, "unclosed string");
    assert_eq!(e.span.start, sql.find('\'').expect("quote present"));
}

#[test]
fn trailing_tokens_are_spanned() {
    let sql = "SELECT l_orderkey FROM lineitem LIMIT 5 garbage here";
    let e = assert_spanned(sql, "trailing tokens");
    assert_eq!(&sql[e.span.start..e.span.end], "garbage");
}

#[test]
fn structural_errors_are_reported() {
    assert_spanned("SELECT FROM lineitem", "expected a column name");
    assert_spanned("SELECT l_orderkey lineitem", "expected `FROM`");
    assert_spanned("SELECT * FROM lineitem WHERE", "expected an expression");
    assert_spanned("SELECT * FROM orders JOIN lineitem ON o_orderkey < l_orderkey", "equality");
    assert_spanned("SELECT * FROM lineitem WHERE l_comment LIKE 'a%b_c'", "LIKE pattern");
    assert_spanned("SELECT * FROM lineitem WHERE l_comment LIKE '%a%b%c%'", "LIKE pattern");
    assert_spanned("SELECT l_orderkey + 1 FROM lineitem", "alias");
    assert_spanned("SELECT sum(l_quantity) AS s FROM lineitem GROUP BY l_quantity + 1", "GROUP BY");
    assert_spanned("SELECT sum(sum(l_quantity)) AS s FROM lineitem", "nested");
    assert_spanned("SELECT l_orderkey FROM lineitem WHERE sum(l_quantity) > 1.0", "HAVING");
    assert_spanned(
        "SELECT * FROM supplier WHERE EXISTS (SELECT * FROM lineitem WHERE l_quantity > 0.0)",
        "correlate",
    );
    assert_spanned(
        "SELECT * FROM supplier WHERE s_acctbal > (SELECT s_acctbal FROM supplier)",
        "aggregate",
    );
    assert_spanned(
        "SELECT * FROM supplier WHERE s_suppkey IN (SELECT ps_suppkey, ps_partkey FROM partsupp)",
        "one column",
    );
    assert_spanned(
        "SELECT * FROM lineitem WHERE l_orderkey IN (SELECT o_orderkey FROM orders) OR l_linenumber = 1",
        "top-level",
    );
    assert_spanned("WITH lineitem AS (SELECT * FROM orders) SELECT * FROM lineitem", "shadows");
    // HAVING on a non-aggregating select must error, not silently vanish.
    assert_spanned("SELECT l_orderkey FROM lineitem HAVING l_orderkey > 5", "HAVING requires");
    // COUNT in a correlated scalar subquery would drop the COUNT = 0 rows.
    assert_spanned(
        "SELECT c_custkey FROM customer \
         WHERE 5 > (SELECT count(*) AS n FROM orders WHERE o_custkey = c_custkey)",
        "COUNT in a correlated scalar subquery",
    );
    assert_spanned("SELECT * FROM lineitem ORDER BY l_orderkey + 1", "ORDER BY");
    assert_spanned("SELECT l_orderkey FROM lineitem ORDER BY l_shipmode", "not in the select list");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Fuzz: random token soup must never panic the frontend — every
    /// outcome is `Ok` or a spanned `Err`.
    #[test]
    fn parser_never_panics_on_token_soup(
        words in proptest::collection::vec(
            proptest::sample::select(vec![
                "SELECT", "FROM", "WHERE", "GROUP", "BY", "ORDER", "LIMIT", "JOIN", "ON",
                "lineitem", "orders", "l_orderkey", "o_orderkey", "nope", "sum", "count",
                "(", ")", ",", "*", "+", "-", "/", "=", "<>", "<=", "'txt'", "'unclosed",
                "1", "2.5", "AND", "OR", "NOT", "IN", "LIKE", "EXISTS", "BETWEEN", "AS",
                "CASE", "WHEN", "THEN", "ELSE", "END", "DATE", "'1994-01-01'", ".", ";",
                "WITH", "DISTINCT", "HAVING", "DESC", "x", "__s1", "\u{1F980}",
            ]),
            0..24,
        ),
    ) {
        let catalog = legobase_tpch::catalog();
        let sql = words.join(" ");
        // Must return, not panic; span must stay inside the text.
        if let Err(e) = plan(&sql, &catalog) {
            prop_assert!(e.span.start <= sql.len());
            let _ = e.render(&sql);
        }
    }

    /// Fuzz: arbitrary byte-ish strings (including non-ASCII) never panic
    /// the lexer.
    #[test]
    fn lexer_never_panics_on_arbitrary_text(
        chars in proptest::collection::vec(
            proptest::sample::select("ab1 ._%'\"\\\n\t;()<>=!-漢🦀".chars().collect::<Vec<char>>()),
            0..64,
        ),
    ) {
        let catalog = legobase_tpch::catalog();
        let sql: String = chars.into_iter().collect();
        if let Err(e) = plan(&sql, &catalog) {
            prop_assert!(e.span.start <= sql.len());
            let _ = e.render(&sql);
        }
    }
}
