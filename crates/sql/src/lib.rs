#![warn(missing_docs)]
//! SQL text frontend for LegoBase-rs.
//!
//! The paper treats the physical plan as the input (§2.1); this crate adds
//! the missing layer in front of it, so queries arrive as *text* — the
//! text → AST → resolution → plan layering follows Vernoux's intermediate-
//! representation design for query languages, and stays strictly orthogonal
//! to the push-based execution underneath (Shaikhha et al.'s loop-fusion
//! study): the frontend produces an ordinary
//! [`QueryPlan`](legobase_engine::plan::QueryPlan) and every engine
//! configuration runs it unchanged.
//!
//! ```
//! let catalog = legobase_tpch::catalog();
//! let plan = legobase_sql::plan(
//!     "SELECT l_returnflag, count(*) AS n \
//!      FROM lineitem WHERE l_shipdate <= DATE '1998-09-02' \
//!      GROUP BY l_returnflag ORDER BY l_returnflag",
//!     &catalog,
//! ).unwrap();
//! assert_eq!(plan.root.size(), 4); // scan → select → agg → sort
//! ```
//!
//! # Pipeline
//!
//! 1. [`lexer`] — hand-written tokenizer with byte spans.
//! 2. [`parser`] — recursive descent into the typed [`ast`].
//! 3. [`lower`] — name resolution against the
//!    [`Catalog`](legobase_storage::Catalog) (plus `WITH` stages), type
//!    checking, and lowering into the physical algebra, reusing the
//!    plan-builder `Ctx` from `legobase_queries`.
//!
//! Every failure is a spanned [`SqlError`]; the frontend never panics on
//! malformed input.
//!
//! # Dialect
//!
//! The dialect covers what the TPC-H workload needs, mapped onto what the
//! engine can execute (see `lower` for the exact lowerings):
//!
//! * `SELECT [DISTINCT]` with expressions, multi-`WHEN`
//!   `CASE WHEN … THEN … [WHEN … THEN …]* ELSE … END`,
//!   `EXTRACT(YEAR FROM …)`, `SUBSTRING(s, start, len)`, and the five
//!   aggregates (plus `COUNT(DISTINCT c)`).
//! * `FROM` with explicit join syntax: `[INNER] JOIN`, `LEFT [OUTER] JOIN`,
//!   `SEMI JOIN`, `ANTI JOIN` (each `ON` needing at least one `left = right`
//!   equality), and `CROSS JOIN` for single-row stages. The lowering keeps
//!   the source join order and leaves `WHERE` un-pushed — a deliberately
//!   *naive canonical plan*; the cost-based optimizer in
//!   `legobase_engine::optimizer` (run by `LegoBase::query` on SQL requests) chooses the
//!   actual join order and predicate placement.
//! * `WHERE`/`HAVING` with `AND`/`OR`/`NOT`, `BETWEEN`, `IN` (value lists),
//!   `LIKE` patterns matching the §3.4 dictionary kinds (`'p%'`, `'%s'`,
//!   `'%infix%'`, `'%word1%word2%'`), `IS [NOT] NULL`.
//! * Subqueries as top-level conjuncts: `[NOT] EXISTS` (correlated by
//!   equality, extra correlated conditions become join residuals),
//!   `[NOT] IN (SELECT …)`, and scalar aggregate subqueries — correlated
//!   ones are decorrelated into grouped stages, exactly the flattening the
//!   hand-built plans perform.
//! * `WITH name AS (…)` common table expressions become materialized stages
//!   (`#name` buffers), the repo's representation of views (Q15).
//!
//! Known departures from full SQL, documented rather than silently wrong:
//! NULL comparisons follow the storage layer's total order (no three-valued
//! logic; only outer joins produce NULLs in TPC-H), and grouped selects must
//! reference group keys by name.

pub mod ast;
pub mod error;
pub mod lexer;
pub mod lower;
pub mod parser;
pub mod print;
pub mod tpch;

pub use error::{Result, Span, SqlError};
pub use lower::{plan, plan_named};
pub use print::plan_to_sql;
pub use tpch::{tpch_sql, TPCH_SQL};

/// Canonicalizes a SQL text into a plan-cache key: the token spellings
/// joined by single spaces, so whitespace layout and `--` comments never
/// cause a cache miss (`SELECT  1` and `select 1 -- note` only differ by
/// keyword case). Token *content* is preserved verbatim — identifiers stay
/// case-sensitive and string literals keep their exact bytes — so two texts
/// with the same cache key always lower to the same plan. Unlexable input
/// is returned verbatim: such a text will fail to parse identically on
/// every lookup, so any key works. The spans come from the lexer's own scan
/// ([`lexer::lex`] shares it), so no token is copied out on the way.
pub fn cache_text(sql: &str) -> String {
    let mut out = String::with_capacity(sql.len());
    for item in lexer::scan(sql) {
        let Ok((_, span)) = item else {
            return sql.to_string();
        };
        if !out.is_empty() {
            out.push(' ');
        }
        out.push_str(&sql[span.start..span.end]);
    }
    out
}

#[cfg(test)]
mod cache_text_tests {
    use super::cache_text;

    #[test]
    fn whitespace_and_comments_are_insignificant() {
        let a = cache_text("SELECT   l_returnflag\nFROM lineitem -- trailing note");
        let b = cache_text("SELECT l_returnflag FROM lineitem");
        assert_eq!(a, b);
        assert_eq!(a, "SELECT l_returnflag FROM lineitem");
    }

    #[test]
    fn content_differences_stay_distinct() {
        // Keyword case is content here (the parser is case-insensitive, but
        // distinct cache entries for `select` vs `SELECT` are merely
        // wasteful, never wrong); string literals and identifiers must
        // never be conflated.
        assert_ne!(cache_text("SELECT 'a  b'"), cache_text("SELECT 'a b'"));
        assert_ne!(cache_text("SELECT x FROM t"), cache_text("SELECT y FROM t"));
    }

    #[test]
    fn unlexable_text_round_trips() {
        let bad = "SELECT ? FROM t";
        assert_eq!(cache_text(bad), bad);
    }
}

#[cfg(test)]
mod cache_key_tests {
    use super::{cache_text, lexer, TPCH_SQL};

    /// The key as it was built from `lexer::lex`'s tokens: their source
    /// spellings joined by single spaces, or the text itself if it does not
    /// lex.
    fn token_join(sql: &str) -> String {
        match lexer::lex(sql) {
            Ok(tokens) => {
                let spellings = tokens.iter().filter(|t| t.tok != lexer::Tok::Eof);
                let spellings: Vec<&str> =
                    spellings.map(|t| &sql[t.span.start..t.span.end]).collect();
                spellings.join(" ")
            }
            Err(_) => sql.to_string(),
        }
    }

    #[test]
    fn keys_equal_the_token_join_of_every_tpch_text() {
        for (n, sql) in TPCH_SQL.iter().enumerate() {
            assert_eq!(cache_text(sql), token_join(sql), "Q{}", n + 1);
        }
        for sql in ["", "  -- only a comment", "SELECT 'it''s' -- x\n, 1.5", "SELECT 'open"] {
            assert_eq!(cache_text(sql), token_join(sql), "{sql:?}");
        }
    }
}
