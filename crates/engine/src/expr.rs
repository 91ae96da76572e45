//! The scalar expression language of the physical algebra.
//!
//! Expressions reference attributes positionally (`Col(i)`) against the
//! schema of the operator input they appear in; plan builders resolve names
//! to positions once, so execution never does string lookups.

use legobase_storage::{Schema, Type, Value};
use std::fmt;

/// Comparison operators.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpOp {
    /// The operator with operands swapped: `a op b` ⇔ `b op.flip() a`.
    pub fn flip(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Eq,
            CmpOp::Ne => CmpOp::Ne,
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
        }
    }
}

/// Arithmetic operators (numeric promotion follows SQL: any float operand
/// makes the result float).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ArithOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
}

/// A scalar expression.
#[derive(Clone, Debug, PartialEq)]
pub enum Expr {
    /// Attribute reference by position in the input schema.
    Col(usize),
    /// Literal constant.
    Lit(Value),
    /// Comparison, including string equality.
    Cmp(CmpOp, Box<Expr>, Box<Expr>),
    /// Arithmetic.
    Arith(ArithOp, Box<Expr>, Box<Expr>),
    /// Logical conjunction.
    And(Box<Expr>, Box<Expr>),
    /// Logical disjunction.
    Or(Box<Expr>, Box<Expr>),
    /// Logical negation.
    Not(Box<Expr>),
    /// `expr LIKE 'prefix%'`.
    StartsWith(Box<Expr>, String),
    /// `expr LIKE '%suffix'`.
    EndsWith(Box<Expr>, String),
    /// `expr LIKE '%needle%'`.
    Contains(Box<Expr>, String),
    /// `expr LIKE '%w1%w2%'` where both patterns are single words (Q13).
    ContainsWordSeq(Box<Expr>, String, String),
    /// `SUBSTRING(expr, start, len)` with 1-based `start` (Q22).
    Substr(Box<Expr>, usize, usize),
    /// `expr IN (v1, v2, …)`.
    InList(Box<Expr>, Vec<Value>),
    /// `CASE WHEN cond THEN a ELSE b END`.
    Case(Box<Expr>, Box<Expr>, Box<Expr>),
    /// `expr IS NULL` (outer-join results).
    IsNull(Box<Expr>),
    /// `EXTRACT(YEAR FROM date_expr)` (Q7/Q8/Q9).
    Year(Box<Expr>),
}

// The constructors deliberately mirror the paper's expression-builder names
// (`add`, `mul`, `not`, …); they are static factories, not operator-trait
// candidates, since plan expressions are built programmatically.
#[allow(clippy::should_implement_trait)]
impl Expr {
    /// Input column reference by position.
    pub fn col(i: usize) -> Expr {
        Expr::Col(i)
    }

    /// Literal constant.
    pub fn lit(v: impl Into<Value>) -> Expr {
        Expr::Lit(v.into())
    }

    /// Comparison with an explicit operator.
    pub fn cmp(op: CmpOp, a: Expr, b: Expr) -> Expr {
        Expr::Cmp(op, Box::new(a), Box::new(b))
    }

    /// `a = b`
    pub fn eq(a: Expr, b: Expr) -> Expr {
        Expr::cmp(CmpOp::Eq, a, b)
    }

    /// `a <> b`
    pub fn ne(a: Expr, b: Expr) -> Expr {
        Expr::cmp(CmpOp::Ne, a, b)
    }

    /// `a < b`
    pub fn lt(a: Expr, b: Expr) -> Expr {
        Expr::cmp(CmpOp::Lt, a, b)
    }

    /// `a <= b`
    pub fn le(a: Expr, b: Expr) -> Expr {
        Expr::cmp(CmpOp::Le, a, b)
    }

    /// `a > b`
    pub fn gt(a: Expr, b: Expr) -> Expr {
        Expr::cmp(CmpOp::Gt, a, b)
    }

    /// `a >= b`
    pub fn ge(a: Expr, b: Expr) -> Expr {
        Expr::cmp(CmpOp::Ge, a, b)
    }

    /// `a + b`
    pub fn add(a: Expr, b: Expr) -> Expr {
        Expr::Arith(ArithOp::Add, Box::new(a), Box::new(b))
    }

    /// `a - b`
    pub fn sub(a: Expr, b: Expr) -> Expr {
        Expr::Arith(ArithOp::Sub, Box::new(a), Box::new(b))
    }

    /// `a * b`
    pub fn mul(a: Expr, b: Expr) -> Expr {
        Expr::Arith(ArithOp::Mul, Box::new(a), Box::new(b))
    }

    /// `a / b`
    pub fn div(a: Expr, b: Expr) -> Expr {
        Expr::Arith(ArithOp::Div, Box::new(a), Box::new(b))
    }

    /// `a AND b`
    pub fn and(a: Expr, b: Expr) -> Expr {
        Expr::And(Box::new(a), Box::new(b))
    }

    /// Conjunction of a list (empty list = TRUE).
    pub fn all(mut preds: Vec<Expr>) -> Expr {
        match preds.len() {
            0 => Expr::lit(true),
            1 => preds.pop().expect("non-empty"),
            _ => {
                let first = preds.remove(0);
                preds.into_iter().fold(first, Expr::and)
            }
        }
    }

    /// `a OR b`
    pub fn or(a: Expr, b: Expr) -> Expr {
        Expr::Or(Box::new(a), Box::new(b))
    }

    /// `NOT a`
    pub fn not(a: Expr) -> Expr {
        Expr::Not(Box::new(a))
    }

    /// `a LIKE 'p%'`
    pub fn starts_with(a: Expr, p: &str) -> Expr {
        Expr::StartsWith(Box::new(a), p.to_string())
    }

    /// `a LIKE '%p'`
    pub fn ends_with(a: Expr, p: &str) -> Expr {
        Expr::EndsWith(Box::new(a), p.to_string())
    }

    /// `a LIKE '%p%'`
    pub fn contains(a: Expr, p: &str) -> Expr {
        Expr::Contains(Box::new(a), p.to_string())
    }

    /// `a LIKE '%w1 w2%'` on word boundaries (Q13's comment filter).
    pub fn word_seq(a: Expr, w1: &str, w2: &str) -> Expr {
        Expr::ContainsWordSeq(Box::new(a), w1.to_string(), w2.to_string())
    }

    /// `SUBSTRING(a, start, len)` (1-based start, as in SQL).
    pub fn substr(a: Expr, start: usize, len: usize) -> Expr {
        Expr::Substr(Box::new(a), start, len)
    }

    /// `a IN (v1, v2, …)`
    pub fn in_list(a: Expr, vals: Vec<Value>) -> Expr {
        Expr::InList(Box::new(a), vals)
    }

    /// `CASE WHEN cond THEN t ELSE f END`
    pub fn case(cond: Expr, then: Expr, otherwise: Expr) -> Expr {
        Expr::Case(Box::new(cond), Box::new(then), Box::new(otherwise))
    }

    /// `a IS NULL`
    pub fn is_null(a: Expr) -> Expr {
        Expr::IsNull(Box::new(a))
    }

    /// `EXTRACT(YEAR FROM a)`
    pub fn year(a: Expr) -> Expr {
        Expr::Year(Box::new(a))
    }

    /// Static result type against an input schema.
    pub fn ty(&self, schema: &Schema) -> Type {
        self.ty_of(&|i| schema.ty(i))
    }

    /// Static result type given the type of each input column.
    pub fn ty_of(&self, col_ty: &impl Fn(usize) -> Type) -> Type {
        match self {
            Expr::Col(i) => col_ty(*i),
            Expr::Lit(v) => match v {
                Value::Int(_) => Type::Int,
                Value::Float(_) => Type::Float,
                Value::Str(_) => Type::Str,
                Value::Date(_) => Type::Date,
                Value::Bool(_) => Type::Bool,
                Value::Null => Type::Bool, // NULL literal only used in booleans
            },
            Expr::Cmp(..)
            | Expr::And(..)
            | Expr::Or(..)
            | Expr::Not(_)
            | Expr::StartsWith(..)
            | Expr::EndsWith(..)
            | Expr::Contains(..)
            | Expr::ContainsWordSeq(..)
            | Expr::InList(..)
            | Expr::IsNull(_) => Type::Bool,
            Expr::Arith(_, a, b) => {
                if a.ty_of(col_ty) == Type::Int && b.ty_of(col_ty) == Type::Int {
                    Type::Int
                } else {
                    Type::Float
                }
            }
            Expr::Substr(..) => Type::Str,
            Expr::Case(_, t, _) => t.ty_of(col_ty),
            Expr::Year(_) => Type::Int,
        }
    }

    /// Collects all referenced column positions into `out`.
    pub fn collect_cols(&self, out: &mut Vec<usize>) {
        match self {
            Expr::Col(i) => {
                if !out.contains(i) {
                    out.push(*i);
                }
            }
            Expr::Lit(_) => {}
            Expr::Cmp(_, a, b) | Expr::Arith(_, a, b) | Expr::And(a, b) | Expr::Or(a, b) => {
                a.collect_cols(out);
                b.collect_cols(out);
            }
            Expr::Case(c, a, b) => {
                c.collect_cols(out);
                a.collect_cols(out);
                b.collect_cols(out);
            }
            Expr::Not(a)
            | Expr::StartsWith(a, _)
            | Expr::EndsWith(a, _)
            | Expr::Contains(a, _)
            | Expr::ContainsWordSeq(a, _, _)
            | Expr::Substr(a, _, _)
            | Expr::InList(a, _)
            | Expr::IsNull(a)
            | Expr::Year(a) => a.collect_cols(out),
        }
    }

    /// Rebuilds this node with `f` applied to every direct child
    /// expression; leaves (`Col`, `Lit`) are cloned. The one structural
    /// traversal shared by [`Expr::map_cols`] and the optimizer's
    /// projection substitution.
    pub fn map_children(&self, f: &impl Fn(&Expr) -> Expr) -> Expr {
        let m = |e: &Expr| Box::new(f(e));
        match self {
            Expr::Col(i) => Expr::Col(*i),
            Expr::Lit(v) => Expr::Lit(v.clone()),
            Expr::Cmp(op, a, b) => Expr::Cmp(*op, m(a), m(b)),
            Expr::Arith(op, a, b) => Expr::Arith(*op, m(a), m(b)),
            Expr::And(a, b) => Expr::And(m(a), m(b)),
            Expr::Or(a, b) => Expr::Or(m(a), m(b)),
            Expr::Not(a) => Expr::Not(m(a)),
            Expr::StartsWith(a, p) => Expr::StartsWith(m(a), p.clone()),
            Expr::EndsWith(a, p) => Expr::EndsWith(m(a), p.clone()),
            Expr::Contains(a, p) => Expr::Contains(m(a), p.clone()),
            Expr::ContainsWordSeq(a, w1, w2) => Expr::ContainsWordSeq(m(a), w1.clone(), w2.clone()),
            Expr::Substr(a, s, l) => Expr::Substr(m(a), *s, *l),
            Expr::InList(a, vs) => Expr::InList(m(a), vs.clone()),
            Expr::Case(c, a, b) => Expr::Case(m(c), m(a), m(b)),
            Expr::IsNull(a) => Expr::IsNull(m(a)),
            Expr::Year(a) => Expr::Year(m(a)),
        }
    }

    /// Rewrites every column reference through `f` (used when pushing
    /// expressions across projections).
    pub fn map_cols(&self, f: &impl Fn(usize) -> usize) -> Expr {
        match self {
            Expr::Col(i) => Expr::Col(f(*i)),
            other => other.map_children(&|e| e.map_cols(f)),
        }
    }
}

/// Aggregate function kinds.
#[derive(Clone, Debug, PartialEq)]
pub enum AggKind {
    /// `SUM(expr)`.
    Sum,
    /// `COUNT(*)` (when the spec's expression is a literal) or `COUNT(expr)`
    /// counting non-NULL values.
    Count,
    /// `AVG(expr)` — maintained as a (sum, count) pair.
    Avg,
    /// Minimum.
    Min,
    /// Maximum.
    Max,
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Col(i) => write!(f, "${i}"),
            Expr::Lit(v) => write!(f, "{v:?}"),
            Expr::Cmp(op, a, b) => write!(f, "({a} {op:?} {b})"),
            Expr::Arith(op, a, b) => write!(f, "({a} {op:?} {b})"),
            Expr::And(a, b) => write!(f, "({a} AND {b})"),
            Expr::Or(a, b) => write!(f, "({a} OR {b})"),
            Expr::Not(a) => write!(f, "(NOT {a})"),
            Expr::StartsWith(a, p) => write!(f, "startsWith({a}, {p:?})"),
            Expr::EndsWith(a, p) => write!(f, "endsWith({a}, {p:?})"),
            Expr::Contains(a, p) => write!(f, "contains({a}, {p:?})"),
            Expr::ContainsWordSeq(a, w1, w2) => write!(f, "wordSeq({a}, {w1:?}, {w2:?})"),
            Expr::Substr(a, s, l) => write!(f, "substr({a}, {s}, {l})"),
            Expr::InList(a, vs) => write!(f, "({a} IN {vs:?})"),
            Expr::Case(c, a, b) => write!(f, "case({c}, {a}, {b})"),
            Expr::IsNull(a) => write!(f, "isNull({a})"),
            Expr::Year(a) => write!(f, "year({a})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> Schema {
        Schema::of(&[("a", Type::Int), ("b", Type::Float), ("s", Type::Str), ("d", Type::Date)])
    }

    #[test]
    fn type_inference() {
        let s = schema();
        assert_eq!(Expr::col(0).ty(&s), Type::Int);
        assert_eq!(Expr::add(Expr::col(0), Expr::col(0)).ty(&s), Type::Int);
        assert_eq!(Expr::add(Expr::col(0), Expr::col(1)).ty(&s), Type::Float);
        assert_eq!(Expr::eq(Expr::col(0), Expr::lit(1i64)).ty(&s), Type::Bool);
        assert_eq!(Expr::substr(Expr::col(2), 1, 2).ty(&s), Type::Str);
        assert_eq!(Expr::year(Expr::col(3)).ty(&s), Type::Int);
        assert_eq!(Expr::case(Expr::lit(true), Expr::lit(1.0), Expr::lit(0.0)).ty(&s), Type::Float);
    }

    #[test]
    fn collect_and_map_cols() {
        let e =
            Expr::and(Expr::eq(Expr::col(2), Expr::lit("x")), Expr::lt(Expr::col(0), Expr::col(2)));
        let mut cols = Vec::new();
        e.collect_cols(&mut cols);
        cols.sort_unstable();
        assert_eq!(cols, vec![0, 2]);

        let shifted = e.map_cols(&|i| i + 10);
        let mut cols2 = Vec::new();
        shifted.collect_cols(&mut cols2);
        cols2.sort_unstable();
        assert_eq!(cols2, vec![10, 12]);
    }

    #[test]
    fn all_builds_balanced_conjunction() {
        assert_eq!(Expr::all(vec![]), Expr::lit(true));
        let one = Expr::lt(Expr::col(0), Expr::lit(5i64));
        assert_eq!(Expr::all(vec![one.clone()]), one);
        let e = Expr::all(vec![one.clone(), one.clone(), one.clone()]);
        let mut cols = Vec::new();
        e.collect_cols(&mut cols);
        assert_eq!(cols, vec![0]);
    }
}
