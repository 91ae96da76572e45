//! The SC intermediate representation.
//!
//! A deliberately small, typed IR that spans the abstraction levels of the
//! paper's progressive lowering (Fig. 7): at the top it describes inlined
//! operator code over generic collections (`MultiMapNew`, `AggLookup`,
//! `ScanLoop`); transformers progressively replace those nodes with lowered
//! forms (`PartitionLookupLoop`, `BucketArray*`, `DateIndexLoop`, dictionary
//! integer comparisons, record-of-arrays field loads) until every remaining
//! node has a direct C rendering.
//!
//! Unlike LMS-style staging, symbols are explicit (`Sym`) and programs are
//! plain data — the whole point of the reproduction is that the IR is a
//! value that rules pattern-match on.

use std::fmt;

/// An SSA-ish symbol.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Sym(pub u32);

impl fmt::Display for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x{}", self.0)
    }
}

/// IR types.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Ty {
    /// 64-bit integer (`long` in the C rendering).
    I64,
    /// 64-bit float (`double`).
    F64,
    /// Boolean (`int` in C).
    Bool,
    /// String (`char*` before dictionary lowering).
    Str,
    /// Calendar date as a day count (`int`).
    Date,
    /// A tuple/record of a named relation or intermediate.
    Row(String),
    /// No value (statement position).
    Unit,
}

impl fmt::Display for Ty {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Ty::I64 => write!(f, "long"),
            Ty::F64 => write!(f, "double"),
            Ty::Bool => write!(f, "int"),
            Ty::Str => write!(f, "char*"),
            Ty::Date => write!(f, "int"),
            Ty::Row(r) => write!(f, "struct {r}*"),
            Ty::Unit => write!(f, "void"),
        }
    }
}

/// Binary operators (arithmetic, comparison, logic).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// Short-circuit `&&`.
    And,
    /// Short-circuit `||`.
    Or,
    /// Non-short-circuit `&` — produced by the fine-grained `x && y → x & y`
    /// optimization (Section 3.6.3).
    BitAnd,
}

impl BinOp {
    /// True for the six comparison operators.
    pub fn is_comparison(&self) -> bool {
        matches!(self, BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge)
    }

    /// The operator's C token.
    pub fn c_token(&self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Eq => "==",
            BinOp::Ne => "!=",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::And => "&&",
            BinOp::Or => "||",
            BinOp::BitAnd => "&",
        }
    }
}

/// String operations before dictionary lowering (Table II, left column).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum StrFn {
    /// `equals` (C: `strcmp(x, y) == 0`).
    Eq,
    /// `notEquals` (C: `strcmp(x, y) != 0`).
    Ne,
    /// `startsWith` (C: `strncmp`).
    StartsWith,
    /// `endsWith`.
    EndsWith,
    /// `indexOfSlice` / substring containment (C: `strstr`).
    Contains,
    /// `indexOfSlice` on a two-word pattern.
    WordSeq,
}

/// IR expressions.
#[derive(Clone, PartialEq, Debug)]
pub enum Expr {
    /// Integer literal.
    Int(i64),
    /// Float literal.
    Float(f64),
    /// Boolean literal.
    Bool(bool),
    /// String literal.
    Str(String),
    /// A date literal as a day count.
    Date(i32),
    /// Reference to a bound symbol.
    Sym(Sym),
    /// Row-layout field access: `row.field`.
    Field(Sym, String),
    /// Column-layout field access: `table_field[idx]` — produced by the
    /// `ColumnStore` transformer from `Field`.
    ColumnLoad {
        /// Base relation owning the column vector.
        table: String,
        /// Attribute name.
        column: String,
        /// Row-index symbol.
        idx: Sym,
    },
    /// Binary operation.
    Bin(BinOp, Box<Expr>, Box<Expr>),
    /// Boolean negation.
    Not(Box<Expr>),
    /// String operation on the raw representation.
    StrOp(StrFn, Box<Expr>, String),
    /// Dictionary-lowered string operation: integer comparison of the code
    /// against a constant or range resolved at load time (Table II, right
    /// column).
    DictOp {
        /// The original string operation being lowered.
        op: StrFn,
        /// Expression producing the dictionary code.
        code: Box<Expr>,
        /// The original pattern, kept for code generation.
        lit: String,
    },
    /// Extract the year of a date value.
    YearOf(Box<Expr>),
    /// Opaque call (hash functions, library shims) — survives to C verbatim.
    Call(String, Vec<Expr>),
}

impl Expr {
    /// Shorthand for [`Expr::Sym`].
    pub fn sym(s: Sym) -> Expr {
        Expr::Sym(s)
    }

    /// Boxing constructor for [`Expr::Bin`].
    pub fn bin(op: BinOp, a: Expr, b: Expr) -> Expr {
        Expr::Bin(op, Box::new(a), Box::new(b))
    }

    /// Conjunction of many operands.
    pub fn conj(mut parts: Vec<Expr>) -> Expr {
        match parts.len() {
            0 => Expr::Bool(true),
            1 => parts.pop().expect("non-empty"),
            _ => {
                let first = parts.remove(0);
                parts.into_iter().fold(first, |a, b| Expr::bin(BinOp::And, a, b))
            }
        }
    }

    /// True if evaluating the expression has no side effects (everything in
    /// this IR is pure except `Call`).
    pub fn is_pure(&self) -> bool {
        match self {
            Expr::Call(..) => false,
            Expr::Bin(_, a, b) => a.is_pure() && b.is_pure(),
            Expr::Not(a) | Expr::YearOf(a) => a.is_pure(),
            Expr::StrOp(_, a, _) => a.is_pure(),
            Expr::DictOp { code, .. } => code.is_pure(),
            _ => true,
        }
    }

    /// Symbols referenced by this expression.
    pub fn syms(&self, out: &mut impl Extend<Sym>) {
        match self {
            Expr::Sym(s) | Expr::Field(s, _) => out.extend([*s]),
            Expr::ColumnLoad { idx, .. } => out.extend([*idx]),
            Expr::Bin(_, a, b) => {
                a.syms(out);
                b.syms(out);
            }
            Expr::Not(a) | Expr::YearOf(a) => a.syms(out),
            Expr::StrOp(_, a, _) => a.syms(out),
            Expr::DictOp { code, .. } => code.syms(out),
            Expr::Call(_, args) => {
                for a in args {
                    a.syms(out);
                }
            }
            _ => {}
        }
    }

    /// Visits every sub-expression (pre-order).
    pub fn visit<'a>(&'a self, f: &mut impl FnMut(&'a Expr)) {
        f(self);
        match self {
            Expr::Bin(_, a, b) => {
                a.visit(f);
                b.visit(f);
            }
            Expr::Not(a) | Expr::YearOf(a) => a.visit(f),
            Expr::StrOp(_, a, _) => a.visit(f),
            Expr::DictOp { code, .. } => code.visit(f),
            Expr::Call(_, args) => {
                for a in args {
                    a.visit(f);
                }
            }
            _ => {}
        }
    }

    /// Rewrites sub-expressions bottom-up through `f`, in place: children
    /// first, then `f` sees the node with its rewritten children, and a
    /// replacement is not visited again.
    pub fn rewrite(&mut self, f: &impl Fn(&Expr) -> Option<Expr>) {
        match self {
            Expr::Bin(_, a, b) => {
                a.rewrite(f);
                b.rewrite(f);
            }
            Expr::Not(a) | Expr::YearOf(a) => a.rewrite(f),
            Expr::StrOp(_, a, _) => a.rewrite(f),
            Expr::DictOp { code, .. } => code.rewrite(f),
            Expr::Call(_, args) => {
                for a in args {
                    a.rewrite(f);
                }
            }
            _ => {}
        }
        if let Some(replacement) = f(self) {
            *self = replacement;
        }
    }
}

/// The kind of an aggregation slot (used by `AggUpdate`).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AggOp {
    /// Sum of doubles.
    SumF,
    /// Sum of integers.
    SumI,
    /// Row count.
    Count,
    /// Minimum.
    Min,
    /// Maximum.
    Max,
}

/// IR statements. High-level collection nodes are progressively replaced by
/// lowered forms; the C backend only accepts the lowered subset.
#[derive(Clone, PartialEq, Debug)]
pub enum Stmt {
    /// `val sym = expr` — immutable binding.
    Let {
        /// Bound symbol.
        sym: Sym,
        /// Declared type.
        ty: Ty,
        /// Bound expression.
        value: Expr,
    },
    /// `var sym = expr` — mutable binding.
    Var {
        /// Bound symbol.
        sym: Sym,
        /// Declared type.
        ty: Ty,
        /// Initial value.
        init: Expr,
    },
    /// `sym = expr` — assignment to a `Var`.
    Assign {
        /// Assigned symbol.
        sym: Sym,
        /// New value.
        value: Expr,
    },
    /// Two-armed conditional.
    If {
        /// Branch condition.
        cond: Expr,
        /// Statements of the true branch.
        then_b: Vec<Stmt>,
        /// Statements of the false branch.
        else_b: Vec<Stmt>,
    },
    /// Sequential scan of a relation: `for (row <- table)`.
    ScanLoop {
        /// Row binder (fresh per loop).
        row: Sym,
        /// Relation (or `#stage` buffer) scanned.
        table: String,
        /// Loop body.
        body: Vec<Stmt>,
    },
    /// A tiled sequential scan (Section 3.6.3: "apply tiling to for loops
    /// whose range are known at compile time"). Produced from `ScanLoop`
    /// by the opt-in [`crate::transform::LoopTiling`] transformer; renders
    /// as a two-level blocked loop in C.
    TiledScanLoop {
        /// Row binder.
        row: Sym,
        /// Relation scanned.
        table: String,
        /// Block size.
        tile: usize,
        /// Loop body.
        body: Vec<Stmt>,
    },
    /// Year-bucketed scan: produced by the date-index transformer from a
    /// `ScanLoop` whose body starts with a date range check (Fig. 12).
    DateIndexLoop {
        /// Row binder.
        row: Sym,
        /// Indexed relation.
        table: String,
        /// Indexed date attribute.
        column: String,
        /// Lower day-count bound (inclusive).
        lo: i32,
        /// Upper day-count bound (inclusive).
        hi: i32,
        /// Loop body.
        body: Vec<Stmt>,
    },
    /// `val m = new MultiMap[K, Row]` — a join hash table; `key` records the
    /// provenance of the build key for the partitioning analysis.
    MultiMapNew {
        /// Map symbol.
        sym: Sym,
        /// Provenance of the build key.
        key: KeyMeta,
    },
    /// `m.addBinding(k, row)`
    MultiMapInsert {
        /// Target map.
        map: Sym,
        /// Insertion key.
        key: Expr,
        /// Inserted row symbol.
        row: Sym,
    },
    /// `m.get(k).foreach { row => body }`
    MultiMapLookup {
        /// Probed map.
        map: Sym,
        /// Probe key.
        key: Expr,
        /// Binder for each matching row.
        row: Sym,
        /// Per-match body.
        body: Vec<Stmt>,
    },
    /// Lowered join access: direct dereference of a load-time partition
    /// (Fig. 10). Replaces a `MultiMapNew`/`Insert`/`Lookup` triple.
    PartitionLookupLoop {
        /// Partitioned relation.
        table: String,
        /// Partition key attribute.
        column: String,
        /// Probe key.
        key: Expr,
        /// Binder for each row in the bucket.
        row: Sym,
        /// Per-match body.
        body: Vec<Stmt>,
    },
    /// Lowered hash structure: native bucket array with intrusive chaining
    /// (Fig. 11 / Fig. 7e).
    BucketArrayNew {
        /// Array symbol.
        sym: Sym,
        /// Entry struct name.
        entry: String,
        /// Pre-sizing from worst-case analysis / statistics.
        size_hint: SizeHint,
        /// Whether allocation was moved to load time (Section 3.5).
        hoisted: bool,
    },
    /// Chain a row into a bucket (intrusive `next` pointer).
    BucketArrayInsert {
        /// Target array.
        arr: Sym,
        /// Insertion key.
        key: Expr,
        /// Inserted row symbol.
        row: Sym,
    },
    /// Walk the chain of one bucket.
    BucketArrayLookup {
        /// Probed array.
        arr: Sym,
        /// Probe key.
        key: Expr,
        /// Binder for each chained row.
        row: Sym,
        /// Per-match body.
        body: Vec<Stmt>,
    },
    /// `val slots = hm.getOrElseUpdate(k, zeros); slots(i) ⊕= e`
    /// High-level aggregation update; `map` may name a `MultiMapNew` (generic)
    /// or `BucketArrayNew` (lowered) or a `SingleValue`/`DirectArray` result.
    AggUpdate {
        /// Aggregation store being updated.
        map: Sym,
        /// Group key.
        key: Expr,
        /// One `(operation, argument)` pair per aggregate slot.
        updates: Vec<(AggOp, Expr)>,
    },
    /// `new HashMap[K, Array[Double]]` aggregation store.
    AggMapNew {
        /// Store symbol.
        sym: Sym,
        /// Provenance of the group key.
        key: KeyMeta,
        /// Number of aggregate slots per group.
        naggs: usize,
        /// Physical realization after lowering.
        store: AggStoreKind,
        /// Whether initialization was moved to load time (Section 3.5.2).
        hoisted: bool,
    },
    /// Final iteration over groups: `hm.foreach { (k, aggs) => body }`.
    AggForeach {
        /// Iterated store.
        map: Sym,
        /// Binder for the group key.
        key_sym: Sym,
        /// Binder for the aggregate slots.
        aggs_sym: Sym,
        /// Per-group body.
        body: Vec<Stmt>,
    },
    /// Emit a result tuple (the `PrintOp` of Fig. 4a).
    Emit {
        /// Output expressions, one per result column.
        values: Vec<Expr>,
    },
    /// Sort the emitted buffer (terminal operators); keys are
    /// `(column, descending)` pairs.
    SortEmitted {
        /// Sort keys.
        keys: Vec<(usize, bool)>,
    },
    /// Truncate the emitted buffer.
    LimitEmitted {
        /// Maximum number of rows kept.
        n: usize,
    },
    /// Free-form comment kept in the generated C (stage banners).
    Comment(String),
}

/// Provenance of a collection key: which relation/column feeds it. This is
/// the information the partitioning analysis consumes (the paper gets it
/// from schema annotations; the plan→IR translation records it directly).
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct KeyMeta {
    /// Base relation feeding the key, when statically known.
    pub table: Option<String>,
    /// Attribute name within `table`.
    pub column: Option<String>,
}

/// How an aggregation store is realized after lowering (Section 3.2.2 and
/// 3.5.2).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AggStoreKind {
    /// Generic library hash map (GLib in the paper's unoptimized C).
    GenericHashMap,
    /// Chained native bucket array (HashMapLowering).
    LoweredArray,
    /// Dense pre-initialized array over a statically-known key domain
    /// (data-structure-initialization hoisting).
    DirectArray,
    /// Single global slot (SingletonHashMapToValue).
    SingleValue,
}

/// Pre-sizing information (worst-case analysis / statistics, Section 3.2.2).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SizeHint {
    /// No estimate available; the structure grows dynamically.
    Unknown,
    /// Exact or worst-case row estimate.
    Rows(usize),
}

/// A whole compiled query: a flat statement list (stages are delimited by
/// comments), plus the relations it touches.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct Program {
    /// Query name (becomes the C function name).
    pub name: String,
    /// Top-level statement list (stages delimited by comments).
    pub stmts: Vec<Stmt>,
    /// Fresh-symbol counter.
    pub next_sym: u32,
}

impl Program {
    /// Allocates a fresh, program-unique symbol.
    pub fn fresh(&mut self) -> Sym {
        let s = Sym(self.next_sym);
        self.next_sym += 1;
        s
    }

    /// Pre-order visit of every statement (including nested bodies).
    pub fn walk<'a>(&'a self, f: &mut impl FnMut(&'a Stmt)) {
        fn rec<'a>(stmts: &'a [Stmt], f: &mut impl FnMut(&'a Stmt)) {
            for s in stmts {
                f(s);
                for b in s.bodies() {
                    rec(b, f);
                }
            }
        }
        rec(&self.stmts, f);
    }

    /// Counts statements of any kind.
    pub fn size(&self) -> usize {
        let mut n = 0;
        self.walk(&mut |_| n += 1);
        n
    }

    /// Counts statements matching a predicate.
    pub fn count(&self, pred: impl Fn(&Stmt) -> bool) -> usize {
        let mut n = 0;
        self.walk(&mut |s| {
            if pred(s) {
                n += 1;
            }
        });
        n
    }
}

impl Stmt {
    /// Nested statement bodies of this node (an `If`'s two branches, a
    /// loop's body).
    pub fn bodies(&self) -> impl Iterator<Item = &Vec<Stmt>> {
        let (first, second) = match self {
            Stmt::If { then_b, else_b, .. } => (Some(then_b), Some(else_b)),
            Stmt::ScanLoop { body, .. }
            | Stmt::TiledScanLoop { body, .. }
            | Stmt::DateIndexLoop { body, .. }
            | Stmt::MultiMapLookup { body, .. }
            | Stmt::PartitionLookupLoop { body, .. }
            | Stmt::BucketArrayLookup { body, .. }
            | Stmt::AggForeach { body, .. } => (Some(body), None),
            _ => (None, None),
        };
        first.into_iter().chain(second)
    }

    /// [`Stmt::bodies`], mutably: traversals take a body with
    /// `mem::take`, rewrite it, and put it back — nothing is copied.
    pub fn bodies_mut(&mut self) -> impl Iterator<Item = &mut Vec<Stmt>> {
        let (first, second) = match self {
            Stmt::If { then_b, else_b, .. } => (Some(then_b), Some(else_b)),
            Stmt::ScanLoop { body, .. }
            | Stmt::TiledScanLoop { body, .. }
            | Stmt::DateIndexLoop { body, .. }
            | Stmt::MultiMapLookup { body, .. }
            | Stmt::PartitionLookupLoop { body, .. }
            | Stmt::BucketArrayLookup { body, .. }
            | Stmt::AggForeach { body, .. } => (Some(body), None),
            _ => (None, None),
        };
        first.into_iter().chain(second)
    }

    /// Visits this statement's own expressions (not those of its bodies).
    pub fn exprs(&self, f: &mut impl FnMut(&Expr)) {
        match self {
            Stmt::Let { value, .. }
            | Stmt::Var { init: value, .. }
            | Stmt::Assign { value, .. } => f(value),
            Stmt::If { cond, .. } => f(cond),
            Stmt::MultiMapInsert { key, .. }
            | Stmt::MultiMapLookup { key, .. }
            | Stmt::PartitionLookupLoop { key, .. }
            | Stmt::BucketArrayInsert { key, .. }
            | Stmt::BucketArrayLookup { key, .. } => f(key),
            Stmt::AggUpdate { key, updates, .. } => {
                f(key);
                for (_, e) in updates {
                    f(e);
                }
            }
            Stmt::Emit { values } => values.iter().for_each(f),
            _ => {}
        }
    }

    /// [`Stmt::exprs`], mutably: `s.exprs_mut(&mut |e| e.rewrite(rule))`
    /// rewrites the statement's expressions in place.
    pub fn exprs_mut(&mut self, f: &mut impl FnMut(&mut Expr)) {
        match self {
            Stmt::Let { value, .. }
            | Stmt::Var { init: value, .. }
            | Stmt::Assign { value, .. } => f(value),
            Stmt::If { cond, .. } => f(cond),
            Stmt::MultiMapInsert { key, .. }
            | Stmt::MultiMapLookup { key, .. }
            | Stmt::PartitionLookupLoop { key, .. }
            | Stmt::BucketArrayInsert { key, .. }
            | Stmt::BucketArrayLookup { key, .. } => f(key),
            Stmt::AggUpdate { key, updates, .. } => {
                f(key);
                for (_, e) in updates {
                    f(e);
                }
            }
            Stmt::Emit { values } => values.iter_mut().for_each(f),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Program {
        let mut p = Program { name: "t".into(), stmts: vec![], next_sym: 0 };
        let row = p.fresh();
        let acc = p.fresh();
        p.stmts = vec![
            Stmt::Var { sym: acc, ty: Ty::F64, init: Expr::Float(0.0) },
            Stmt::ScanLoop {
                row,
                table: "lineitem".into(),
                body: vec![Stmt::If {
                    cond: Expr::bin(
                        BinOp::Lt,
                        Expr::Field(row, "l_quantity".into()),
                        Expr::Float(24.0),
                    ),
                    then_b: vec![Stmt::Assign {
                        sym: acc,
                        value: Expr::bin(
                            BinOp::Add,
                            Expr::sym(acc),
                            Expr::Field(row, "l_extendedprice".into()),
                        ),
                    }],
                    else_b: vec![],
                }],
            },
            Stmt::Emit { values: vec![Expr::sym(acc)] },
        ];
        p
    }

    #[test]
    fn walk_and_count() {
        let p = sample();
        assert_eq!(p.size(), 5);
        assert_eq!(p.count(|s| matches!(s, Stmt::ScanLoop { .. })), 1);
        assert_eq!(p.count(|s| matches!(s, Stmt::Assign { .. })), 1);
    }

    #[test]
    fn expr_rewrite_bottom_up() {
        // Replace Float(24.0) with Float(25.0) everywhere.
        let mut out = Expr::bin(
            BinOp::Lt,
            Expr::Float(24.0),
            Expr::bin(BinOp::Add, Expr::Float(24.0), Expr::Float(1.0)),
        );
        out.rewrite(&|x| match x {
            Expr::Float(v) if *v == 24.0 => Some(Expr::Float(25.0)),
            _ => None,
        });
        let mut count = 0;
        fn count_f(e: &Expr, v: f64, n: &mut usize) {
            match e {
                Expr::Float(x) if *x == v => *n += 1,
                Expr::Bin(_, a, b) => {
                    count_f(a, v, n);
                    count_f(b, v, n);
                }
                _ => {}
            }
        }
        count_f(&out, 25.0, &mut count);
        assert_eq!(count, 2);
    }

    #[test]
    fn purity_and_syms() {
        let mut p = Program::default();
        let s = p.fresh();
        let e = Expr::bin(BinOp::Mul, Expr::sym(s), Expr::Field(s, "f".into()));
        assert!(e.is_pure());
        assert!(!Expr::Call("hash".into(), vec![]).is_pure());
        let mut syms = Vec::new();
        e.syms(&mut syms);
        assert_eq!(syms, vec![s, s]);
    }

    #[test]
    fn conj_folds() {
        assert_eq!(Expr::conj(vec![]), Expr::Bool(true));
        let one = Expr::Bool(false);
        assert_eq!(Expr::conj(vec![one.clone()]), one);
    }
}
