//! Typed execution kernels: the Rust rendering of the paper's generated C.
//!
//! The specialized executor works on [`Chunk`]s — columnar intermediates that
//! share base-table columns by reference. Expressions are compiled *against
//! the actual physical representation of their input* (plain strings vs.
//! dictionary codes, dates as raw day counts, …): this is where the string
//! dictionary lowering of Table II and the type-specialized comparisons of
//! the generated code happen.
//!
//! There is one expression compiler, `BlockExprs`: every predicate,
//! projection and aggregate argument becomes a register program evaluated a
//! block of rows at a time, each typed node one loop over the exact vectors
//! it reads — no `Value` boxing, no enum dispatch on types. Its one generic
//! node, `Interp` on every row, covers nullable inputs and the interpreted
//! mode (`compiled_exprs` off, Opt/Scala); a join residual that is not a
//! typed comparison evaluates through the same `Interp`.

use crate::expr::{AggKind, ArithOp, CmpOp, Expr};
use crate::interp;
use crate::plan::AggSpec;
use legobase_storage::specialized::{hash_u64, ChainedArrayMap};
use legobase_storage::{
    metrics, Column, DictKind, PackedInts, Schema, StringDictionary, Type, Value,
};
use std::collections::HashMap;
use std::sync::Arc;

/// Rows per block of the block-at-a-time paths: small enough that a handful
/// of scratch vectors stay in L1/L2, large enough to amortize the per-block
/// dispatch over the expression nodes and aggregates.
pub const BLOCK_ROWS: usize = 1024;

/// One block of physical row ids, in logical order.
pub enum Rows<'a> {
    /// A contiguous physical range (no selection vector).
    Range(std::ops::Range<usize>),
    /// Explicit physical ids (a slice of the selection vector).
    Ids(&'a [u32]),
}

impl Rows<'_> {
    /// Number of rows in the block.
    pub fn len(&self) -> usize {
        match self {
            Rows::Range(r) => r.len(),
            Rows::Ids(ids) => ids.len(),
        }
    }

    /// True when the block holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Physical id of the block's `i`-th row.
    #[inline]
    pub fn phys(&self, i: usize) -> usize {
        match self {
            Rows::Range(r) => r.start + i,
            Rows::Ids(ids) => ids[i] as usize,
        }
    }

    /// Calls `f(i, phys)` for every row of the block, in order.
    #[inline]
    pub fn for_each(&self, mut f: impl FnMut(usize, usize)) {
        match self {
            Rows::Range(r) => r.clone().enumerate().for_each(|(i, p)| f(i, p)),
            Rows::Ids(ids) => ids.iter().enumerate().for_each(|(i, &p)| f(i, p as usize)),
        }
    }
}

/// A columnar intermediate result.
///
/// `sel` maps logical row positions to physical indices in the columns
/// (`None` = identity). `base` records the base table this chunk is a
/// selection of, if any — partitioned joins and date indices only apply to
/// base-table accesses.
#[derive(Clone)]
pub struct Chunk {
    /// Output schema of the operator that produced this chunk.
    pub schema: Schema,
    /// One column per schema field.
    pub cols: Vec<Column>,
    /// Validity masks parallel to `cols`; `None` = no NULLs in that column.
    pub nulls: Vec<Option<Arc<Vec<bool>>>>,
    /// Optional selection vector (surviving physical row ids).
    pub sel: Option<Arc<Vec<u32>>>,
    /// Physical row count of the columns.
    pub total: usize,
    /// Name of the base table these columns belong to, when the chunk is a
    /// (possibly filtered) base-table scan.
    pub base: Option<String>,
}

impl Chunk {
    /// Logical row count.
    pub fn len(&self) -> usize {
        match &self.sel {
            Some(s) => s.len(),
            None => self.total,
        }
    }

    /// True when no rows survive.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Physical index of logical row `i`.
    #[inline(always)]
    pub fn phys(&self, i: usize) -> usize {
        match &self.sel {
            Some(s) => s[i] as usize,
            None => i,
        }
    }

    /// Hands the logical rows `range` to `f` in blocks of at most
    /// [`BLOCK_ROWS`] physical ids, in logical order — how every operator
    /// walks a chunk.
    pub fn for_each_block(&self, range: std::ops::Range<usize>, mut f: impl FnMut(Rows<'_>)) {
        match &self.sel {
            Some(s) => s[range].chunks(BLOCK_ROWS).for_each(|ids| f(Rows::Ids(ids))),
            None => {
                let mut start = range.start;
                while start < range.end {
                    let end = (start + BLOCK_ROWS).min(range.end);
                    f(Rows::Range(start..end));
                    start = end;
                }
            }
        }
    }

    /// Reads one cell (by *physical* row) back into the generic form.
    pub fn value_at(&self, col: usize, phys: usize) -> Value {
        value_from(&self.cols, &self.nulls, col, phys)
    }

    /// Materializes logical row `i` as a generic tuple (interpreted mode and
    /// result extraction).
    pub fn row_values(&self, i: usize) -> Vec<Value> {
        let p = self.phys(i);
        (0..self.cols.len())
            .map(|c| {
                if matches!(self.cols[c], Column::Absent) {
                    Value::Null
                } else {
                    self.value_at(c, p)
                }
            })
            .collect()
    }
}

/// Whether `a op b` holds given how `a` orders against `b`.
#[inline(always)]
fn ord_holds(op: CmpOp, ord: std::cmp::Ordering) -> bool {
    match op {
        CmpOp::Eq => ord.is_eq(),
        CmpOp::Ne => ord.is_ne(),
        CmpOp::Lt => ord.is_lt(),
        CmpOp::Le => ord.is_le(),
        CmpOp::Gt => ord.is_gt(),
        CmpOp::Ge => ord.is_ge(),
    }
}

/// A string predicate against literals. Over a dictionary it is decided
/// once per distinct value (or lowered further, see
/// [`BlockExprs::str_node`]); over plain strings once per row.
enum StrTest {
    /// `s op literal`.
    Cmp(CmpOp, String),
    StartsWith(String),
    EndsWith(String),
    Contains(String),
    /// `%w1%w2%` over whole words.
    WordSeq(String, String),
    /// Membership in the string members of an `IN` list.
    In(Vec<String>),
}

impl StrTest {
    fn holds(&self, s: &str) -> bool {
        match self {
            StrTest::Cmp(op, lit) => ord_holds(*op, s.cmp(lit)),
            StrTest::StartsWith(p) => s.starts_with(p.as_str()),
            StrTest::EndsWith(p) => s.ends_with(p.as_str()),
            StrTest::Contains(p) => s.contains(p.as_str()),
            StrTest::WordSeq(w1, w2) => interp::word_seq(s, w1, w2),
            StrTest::In(set) => set.iter().any(|m| m == s),
        }
    }
}

/// Reads one value out of a column set (by physical row).
fn value_from(cols: &[Column], nulls: &[Option<Arc<Vec<bool>>>], c: usize, p: usize) -> Value {
    if let Some(m) = &nulls[c] {
        if m[p] {
            return Value::Null;
        }
    }
    cols[c].value_at(p)
}

/// The one generic evaluation: an expression interpreted over a mini-tuple
/// of cells. The tuple spans the columns of one chunk (the block program's
/// per-row node) or of two (a join residual over the concatenated schema);
/// only the `read` positions are read in, the rest stay NULL — the cells the
/// expression references or, with `compiled_exprs` off, every present
/// column (Opt/Scala builds the whole tuple per evaluation).
pub(crate) struct Interp {
    expr: Expr,
    read: Vec<bool>,
    /// A compiled bare column: its one cell, no tuple.
    direct: Option<usize>,
    cols: Vec<Column>,
    nulls: Vec<Option<Arc<Vec<bool>>>>,
}

impl Interp {
    fn new(e: &Expr, chunks: &[&Chunk], compiled: bool) -> Interp {
        let cols: Vec<Column> = chunks.iter().flat_map(|c| c.cols.iter().cloned()).collect();
        let nulls = chunks.iter().flat_map(|c| c.nulls.iter().cloned()).collect();
        let read = if compiled {
            let (mut refs, mut read) = (Vec::new(), vec![false; cols.len()]);
            e.collect_cols(&mut refs);
            refs.into_iter().for_each(|c| read[c] = true);
            read
        } else {
            cols.iter().map(|c| !matches!(c, Column::Absent)).collect()
        };
        let direct = match e {
            Expr::Col(c) if compiled => Some(*c),
            _ => None,
        };
        Interp { expr: e.clone(), read, direct, cols, nulls }
    }

    /// The expression's value on the row whose tuple cell `c` lies at
    /// physical row `phys(c)` of its column.
    fn eval(&self, phys: impl Fn(usize) -> usize) -> Value {
        let cell = |c: usize| value_from(&self.cols, &self.nulls, c, phys(c));
        if let Some(c) = self.direct {
            return cell(c);
        }
        let row: Vec<Value> = self
            .read
            .iter()
            .enumerate()
            .map(|(c, &read)| if read { cell(c) } else { Value::Null })
            .collect();
        interp::eval(&self.expr, &row)
    }
}

// ---- block operands ----

/// An integer-valued block operand: one side of a block comparison, an
/// integer leaf of a block expression, a join key or a group-key column.
#[derive(Clone)]
pub(crate) enum IntSrc {
    /// Packed column: batch-unpacked one block at a time — never
    /// materialized whole.
    Unpack(Arc<PackedInts>),
    /// Plain integer column.
    I64(Arc<Vec<i64>>),
    /// Plain date column (day counts widen to `i64`).
    Date(Arc<Vec<i32>>),
    /// Dictionary codes.
    Dict(Arc<Vec<u32>>),
    /// Boolean column as 0/1.
    Bool(Arc<Vec<bool>>),
    /// Integer or date literal.
    Const(i64),
}

impl IntSrc {
    /// Value at physical row `p` (random access: join residuals, group-key
    /// verification).
    #[inline(always)]
    pub(crate) fn get(&self, p: usize) -> i64 {
        match self {
            IntSrc::Unpack(packed) => packed.get(p),
            IntSrc::I64(v) => v[p],
            IntSrc::Date(v) => v[p] as i64,
            IntSrc::Dict(v) => v[p] as i64,
            IntSrc::Bool(v) => v[p] as i64,
            IntSrc::Const(c) => *c,
        }
    }

    /// Loads the values of `rows` into `out` (`out.len() == rows.len()`): a
    /// contiguous copy / batch unpack for a range, a gather through the
    /// selection vector otherwise. Element-for-element what the per-row
    /// kernels read.
    fn load(&self, rows: &Rows<'_>, out: &mut [i64]) {
        match self {
            IntSrc::Unpack(p) => match rows {
                Rows::Range(r) => p.unpack_range(r.start, out),
                Rows::Ids(ids) => {
                    let cursor = p.cursor();
                    for (o, &r) in out.iter_mut().zip(*ids) {
                        *o = cursor.get(r as usize);
                    }
                }
            },
            IntSrc::I64(v) => load_col(v, rows, out, |x| x),
            IntSrc::Date(v) => load_col(v, rows, out, |x| x as i64),
            IntSrc::Dict(v) => load_col(v, rows, out, |x| x as i64),
            IntSrc::Bool(v) => load_col(v, rows, out, |x| x as i64),
            IntSrc::Const(c) => out.fill(*c),
        }
    }
}

/// Copies (range) or gathers (selection) one plain column's block into `out`.
#[inline]
fn load_col<T: Copy, U>(v: &[T], rows: &Rows<'_>, out: &mut [U], cast: impl Fn(T) -> U) {
    match rows {
        Rows::Range(r) => out.iter_mut().zip(&v[r.clone()]).for_each(|(o, &x)| *o = cast(x)),
        Rows::Ids(ids) => out.iter_mut().zip(*ids).for_each(|(o, &r)| *o = cast(v[r as usize])),
    }
}

/// The integer view of a non-nullable codeable column: integers verbatim,
/// dates as day counts, dictionary strings as codes, booleans as 0/1 — the
/// key code a join or an aggregation sees is the same over plain and packed
/// layouts. `None` for plain strings, floats and nullable columns.
fn key_src(col: usize, chunk: &Chunk) -> Option<IntSrc> {
    if chunk.nulls[col].is_some() {
        return None;
    }
    match chunk.cols[col].clone() {
        Column::I64(v) => Some(IntSrc::I64(v)),
        Column::Date(v) => Some(IntSrc::Date(v)),
        Column::Dict(codes, _) => Some(IntSrc::Dict(codes)),
        Column::Bool(v) => Some(IntSrc::Bool(v)),
        Column::I64Packed(p) | Column::DatePacked(p) | Column::DictPacked(p, _) => {
            Some(IntSrc::Unpack(p))
        }
        _ => None,
    }
}

/// A per-code test of a dictionary predicate (Table II).
enum CodeTest {
    /// Equality against one resolved dictionary code.
    Eq { code: i64, eq: bool },
    /// Truth table indexed by code (ordering, LIKE, membership).
    Flags(Vec<bool>),
    /// An ordered dictionary's `startsWith`: the codes `lo..=hi`.
    Range(i64, i64),
    /// A word-token dictionary's `%w1%w2%`: a scan of the code's word codes
    /// for `w1` followed by `w2`.
    WordSeq(Arc<StringDictionary>, u32, u32),
}

/// The conjuncts of a predicate, left to right.
pub(crate) fn conjuncts(e: &Expr) -> Vec<&Expr> {
    fn rec<'e>(e: &'e Expr, out: &mut Vec<&'e Expr>) {
        if let Expr::And(a, b) = e {
            rec(a, out);
            rec(b, out);
        } else {
            out.push(e);
        }
    }
    let mut out = Vec::new();
    rec(e, &mut out);
    out
}

// ---- block expressions ----

/// One reusable typed scratch vector of a [`BlockExprs`] program.
pub(crate) enum Reg {
    I(Vec<i64>),
    F(Vec<f64>),
    B(Vec<bool>),
    V(Vec<Value>),
}

impl Reg {
    fn i(&self) -> &[i64] {
        match self {
            Reg::I(v) => v,
            _ => unreachable!("register typed by the node that writes it"),
        }
    }

    fn f(&self) -> &[f64] {
        match self {
            Reg::F(v) => v,
            _ => unreachable!("register typed by the node that writes it"),
        }
    }

    fn b(&self) -> &[bool] {
        match self {
            Reg::B(v) => v,
            _ => unreachable!("register typed by the node that writes it"),
        }
    }

    fn v(&self) -> &[Value] {
        match self {
            Reg::V(v) => v,
            _ => unreachable!("register typed by the node that writes it"),
        }
    }
}

/// The register type the per-row node writes: `f64`, a mask, or generic
/// values (NULLs included).
#[derive(Clone, Copy)]
enum Out {
    F,
    B,
    V,
}

/// `Some((m, v))` makes a mask node the right operand of `m AND ..` (`v`
/// false) or `m OR ..` (`v` true): rows where mask `m` already holds `v`
/// keep it and are not tested.
type Short = Option<(usize, bool)>;

/// One node of a block program; node `k` writes register `k` and reads only
/// lower-numbered ones.
enum Node {
    /// Integer leaf: column load/gather/unpack, or a literal broadcast.
    Int(IntSrc),
    /// Float column: read in place over a physical range, gathered through
    /// a selection.
    F64(Arc<Vec<f64>>),
    /// Float literal broadcast.
    ConstF(f64),
    /// Integer register widened to `f64`.
    ToF(usize),
    /// `f64` arithmetic over two float registers: one slice loop.
    ArithF(ArithOp, usize, usize),
    /// Exact `i64` arithmetic (`+ - *`) over two integer registers.
    ArithI(ArithOp, usize, usize),
    /// `YEAR` of an integer register of day counts.
    Year(usize),
    /// `CASE`: float register `t` where mask `c` holds, `f` elsewhere.
    Select {
        c: usize,
        t: usize,
        f: usize,
    },
    /// Boolean literal broadcast.
    ConstB(bool),
    /// Comparison of two integer registers into a mask: one slice loop.
    CmpI(CmpOp, usize, usize),
    /// Comparison of two float registers into a mask.
    CmpF(CmpOp, usize, usize),
    /// Dictionary predicate (Table II) over a register of codes.
    Code(usize, CodeTest),
    /// `IN` over an integer register: membership in the list's integers.
    InI(usize, Vec<i64>),
    /// A string test over a plain-string column, one loop per block.
    Str {
        col: Arc<Vec<String>>,
        test: StrTest,
        short: Short,
    },
    /// `IS NULL` of a column: its NULL mask.
    IsNull(Arc<Vec<bool>>),
    /// Connectives over mask registers.
    And(usize, usize),
    Or(usize, usize),
    Not(usize),
    /// The one per-row node: [`Interp`] on every row, for nullable inputs,
    /// shapes no typed node covers, and every expression when
    /// `compiled_exprs` is off.
    Interp {
        interp: Box<Interp>,
        out: Out,
        short: Short,
    },
}

/// `out[i] = test(phys)` over the rows of a block, short-circuited under
/// `short` (see [`Short`]).
#[inline]
fn fill_mask(
    rows: &Rows<'_>,
    short: Short,
    done: &[Reg],
    out: &mut Vec<bool>,
    test: impl Fn(usize) -> bool,
) {
    out.resize(rows.len(), false);
    match short {
        None => rows.for_each(|i, p| out[i] = test(p)),
        Some((m, v)) => {
            let m = done[m].b();
            rows.for_each(|i, p| out[i] = if m[i] == v { v } else { test(p) });
        }
    }
}

/// Numeric expressions and predicates compiled together into one register
/// program that evaluates a block of rows at a time into typed scratch
/// vectors. The program is a DAG: structurally equal numeric subexpressions
/// — Q1's `l_extendedprice * (1 - l_discount)` inside `charge`, a column
/// read by three aggregates or two conjuncts — compile to one node and are
/// computed once per block. Typed nodes cover comparisons, arithmetic,
/// `YEAR`, `CASE`, string tests, `IN` and `IS NULL` over inputs that cannot
/// be NULL; everything else is the one per-row node, which computes what
/// [`interp::eval`] computes.
pub(crate) struct BlockExprs {
    nodes: Vec<Node>,
    /// `(expression, integer-typed?, register)` of every shared node.
    memo: Vec<(Expr, bool, usize)>,
}

impl BlockExprs {
    pub(crate) fn new() -> BlockExprs {
        BlockExprs { nodes: Vec::new(), memo: Vec::new() }
    }

    fn push(&mut self, node: Node) -> usize {
        self.nodes.push(node);
        self.nodes.len() - 1
    }

    fn shared(&mut self, e: &Expr, int: bool, node: Node) -> usize {
        let r = self.push(node);
        self.memo.push((e.clone(), int, r));
        r
    }

    fn lookup(&self, e: &Expr, int: bool) -> Option<usize> {
        self.memo.iter().find(|(m, i, _)| *i == int && m == e).map(|&(_, _, r)| r)
    }

    /// Runs `build`; when it yields nothing, drops every node it pushed, so
    /// a shape the typed nodes cover only in part leaves no dead node.
    fn attempt<T>(&mut self, build: impl FnOnce(&mut Self) -> Option<T>) -> Option<T> {
        let (nodes, memo) = (self.nodes.len(), self.memo.len());
        let built = build(self);
        if built.is_none() {
            self.nodes.truncate(nodes);
            self.memo.truncate(memo);
        }
        built
    }

    /// The per-row node evaluating `e` into an `out` register.
    fn interp(e: &Expr, chunk: &Chunk, compiled: bool, out: Out) -> Node {
        Node::Interp { interp: Box::new(Interp::new(e, &[chunk], compiled)), out, short: None }
    }

    /// The register holding `e` as `f64`: typed nodes, or the per-row node
    /// (`compiled` off, or a shape they do not cover).
    pub(crate) fn f64_reg(&mut self, e: &Expr, chunk: &Chunk, compiled: bool) -> usize {
        if let Some(r) = compiled.then(|| self.attempt(|p| p.typed_f64(e, chunk))).flatten() {
            return r;
        }
        if let Some(r) = self.lookup(e, false) {
            return r;
        }
        self.shared(e, false, Self::interp(e, chunk, compiled, Out::F))
    }

    /// The typed `f64` register of `e`: non-nullable numeric columns and
    /// literals under arithmetic, `YEAR` and `CASE`.
    fn typed_f64(&mut self, e: &Expr, chunk: &Chunk) -> Option<usize> {
        if let Some(r) = self.lookup(e, false) {
            return Some(r);
        }
        let node = match e {
            Expr::Col(i) if chunk.nulls[*i].is_none() => match &chunk.cols[*i] {
                Column::F64(v) => Node::F64(Arc::clone(v)),
                Column::Dict(..) | Column::DictPacked(..) => return None,
                _ => Node::ToF(self.int_leaf(*i, chunk)?),
            },
            Expr::Lit(Value::Int(v)) => Node::ConstF(*v as f64),
            Expr::Lit(Value::Float(v)) => Node::ConstF(*v),
            Expr::Lit(Value::Date(d)) => Node::ConstF(d.0 as f64),
            Expr::Arith(op, a, b) => {
                Node::ArithF(*op, self.typed_f64(a, chunk)?, self.typed_f64(b, chunk)?)
            }
            Expr::Year(_) => Node::ToF(self.typed_i64(e, chunk)?),
            Expr::Case(c, t, f) => {
                let c = self.mask_reg(c, chunk, true);
                Node::Select { c, t: self.typed_f64(t, chunk)?, f: self.typed_f64(f, chunk)? }
            }
            _ => return None,
        };
        Some(self.shared(e, false, node))
    }

    /// The integer register of a non-nullable integer-coded column.
    fn int_leaf(&mut self, col: usize, chunk: &Chunk) -> Option<usize> {
        Some(self.int_reg(&Expr::Col(col), key_src(col, chunk)?))
    }

    /// The shared register that loads integer operand `e` from `src`.
    fn int_reg(&mut self, e: &Expr, src: IntSrc) -> usize {
        self.lookup(e, true).unwrap_or_else(|| self.shared(e, true, Node::Int(src)))
    }

    /// The register holding `e` as exact `i64`, when `e` is integer columns
    /// and literals under `+ - *` and `YEAR`s (division keeps the `f64`
    /// semantics of [`BlockExprs::f64_reg`]).
    pub(crate) fn i64_reg(&mut self, e: &Expr, chunk: &Chunk) -> Option<usize> {
        self.attempt(|p| p.typed_i64(e, chunk))
    }

    fn typed_i64(&mut self, e: &Expr, chunk: &Chunk) -> Option<usize> {
        if let Some(r) =
            matches!(e, Expr::Arith(..) | Expr::Year(_)).then(|| self.lookup(e, true)).flatten()
        {
            return Some(r);
        }
        let node = match e {
            Expr::Col(i) if matches!(chunk.cols[*i], Column::I64(_) | Column::I64Packed(_)) => {
                return self.int_leaf(*i, chunk)
            }
            Expr::Lit(Value::Int(v)) => return Some(self.int_reg(e, IntSrc::Const(*v))),
            Expr::Arith(op @ (ArithOp::Add | ArithOp::Sub | ArithOp::Mul), a, b) => {
                Node::ArithI(*op, self.typed_i64(a, chunk)?, self.typed_i64(b, chunk)?)
            }
            Expr::Year(a) => {
                let days = match a.as_ref() {
                    Expr::Col(i)
                        if matches!(chunk.cols[*i], Column::Date(_) | Column::DatePacked(_)) =>
                    {
                        key_src(*i, chunk)?
                    }
                    Expr::Lit(Value::Date(d)) => IntSrc::Const(d.0 as i64),
                    _ => return None,
                };
                Node::Year(self.int_reg(a, days))
            }
            _ => return None,
        };
        Some(self.shared(e, true, node))
    }

    /// The register holding `e` as generic values, NULLs included: the
    /// per-row node.
    pub(crate) fn value_reg(&mut self, e: &Expr, chunk: &Chunk, compiled: bool) -> usize {
        self.push(Self::interp(e, chunk, compiled, Out::V))
    }

    /// The mask register holding predicate `e`: typed nodes, or the per-row
    /// node (`compiled` off, or a shape they do not cover).
    pub(crate) fn mask_reg(&mut self, e: &Expr, chunk: &Chunk, compiled: bool) -> usize {
        let node = compiled
            .then(|| self.attempt(|p| p.mask_node(e, chunk)))
            .flatten()
            .unwrap_or_else(|| Self::interp(e, chunk, compiled, Out::B));
        self.push(node)
    }

    /// The typed node computing predicate `e`, or `None` when only the
    /// per-row node covers it.
    fn mask_node(&mut self, e: &Expr, chunk: &Chunk) -> Option<Node> {
        match e {
            Expr::Lit(Value::Bool(b)) => Some(Node::ConstB(*b)),
            Expr::And(a, b) => Some(self.connective(a, b, chunk, false)),
            Expr::Or(a, b) => Some(self.connective(a, b, chunk, true)),
            Expr::Not(a) => Some(Node::Not(self.mask_reg(a, chunk, true))),
            Expr::Cmp(op, a, b) => self.cmp_node(*op, a, b, chunk),
            Expr::StartsWith(a, p) => self.str_node(a, StrTest::StartsWith(p.clone()), chunk),
            Expr::EndsWith(a, p) => self.str_node(a, StrTest::EndsWith(p.clone()), chunk),
            Expr::Contains(a, p) => self.str_node(a, StrTest::Contains(p.clone()), chunk),
            Expr::ContainsWordSeq(a, w1, w2) => {
                self.str_node(a, StrTest::WordSeq(w1.clone(), w2.clone()), chunk)
            }
            Expr::InList(a, vals) => match a.as_ref() {
                Expr::Col(i) if matches!(chunk.cols[*i], Column::I64(_) | Column::I64Packed(_)) => {
                    let set = vals.iter().filter_map(|v| match v {
                        Value::Int(n) => Some(*n),
                        _ => None,
                    });
                    Some(Node::InI(self.int_leaf(*i, chunk)?, set.collect()))
                }
                _ => {
                    let set = vals.iter().filter_map(|v| match v {
                        Value::Str(s) => Some(s.clone()),
                        _ => None,
                    });
                    self.str_node(a, StrTest::In(set.collect()), chunk)
                }
            },
            Expr::IsNull(a) => match a.as_ref() {
                Expr::Col(i) => {
                    Some(chunk.nulls[*i].clone().map_or(Node::ConstB(false), Node::IsNull))
                }
                _ => None,
            },
            _ => None,
        }
    }

    /// `a AND b` (`or` false) or `a OR b`. A right operand that tests row
    /// by row — the per-row node, a plain-string test — runs on the rows the
    /// left one left undecided, like the short-circuit of `&&` / `||`.
    fn connective(&mut self, a: &Expr, b: &Expr, chunk: &Chunk, or: bool) -> Node {
        let ra = self.mask_reg(a, chunk, true);
        let mut node = self
            .attempt(|p| p.mask_node(b, chunk))
            .unwrap_or_else(|| Self::interp(b, chunk, true, Out::B));
        // A node that already short-circuits on a left operand of its own
        // (`b` a connective itself) is combined, not re-pointed.
        if let Node::Str { short: short @ None, .. } | Node::Interp { short: short @ None, .. } =
            &mut node
        {
            *short = Some((ra, or));
            return node;
        }
        let rb = self.push(node);
        if or {
            Node::Or(ra, rb)
        } else {
            Node::And(ra, rb)
        }
    }

    /// `a op b` as a typed node: a string column against a literal tests
    /// strings or codes, two integer operands compare as `i64` (equal to the
    /// `f64` comparison for |v| < 2^53), other numeric operands as `f64`.
    fn cmp_node(&mut self, op: CmpOp, a: &Expr, b: &Expr, chunk: &Chunk) -> Option<Node> {
        match (a, b) {
            (_, Expr::Lit(Value::Str(s))) => {
                return self.str_node(a, StrTest::Cmp(op, s.clone()), chunk)
            }
            (Expr::Lit(Value::Str(s)), _) => {
                return self.str_node(b, StrTest::Cmp(op.flip(), s.clone()), chunk)
            }
            _ => {}
        }
        if let (Some(sa), Some(sb)) = (int_operand(a, chunk), int_operand(b, chunk)) {
            return Some(Node::CmpI(op, self.int_reg(a, sa), self.int_reg(b, sb)));
        }
        Some(Node::CmpF(op, self.typed_f64(a, chunk)?, self.typed_f64(b, chunk)?))
    }

    /// `test` over the non-nullable string column `a`: one loop per block
    /// over plain strings; over a dictionary (Table II) a code test —
    /// equality against the literal's code, an ordered dictionary's prefix
    /// as a code range, a word-token dictionary's word sequence as a token
    /// scan, anything else as one flag per distinct value. A literal that
    /// no value can match decides the test outright.
    fn str_node(&mut self, a: &Expr, test: StrTest, chunk: &Chunk) -> Option<Node> {
        let Expr::Col(i) = a else { return None };
        if chunk.nulls[*i].is_some() {
            return None;
        }
        let dict = match &chunk.cols[*i] {
            Column::Str(v) => return Some(Node::Str { col: Arc::clone(v), test, short: None }),
            Column::Dict(_, dict) | Column::DictPacked(_, dict) => Arc::clone(dict),
            _ => return None,
        };
        let test = match (&test, dict.kind()) {
            (StrTest::Cmp(op @ (CmpOp::Eq | CmpOp::Ne), s), _) => match dict.code(s) {
                Some(code) => CodeTest::Eq { code: code as i64, eq: *op == CmpOp::Eq },
                None => return Some(Node::ConstB(*op == CmpOp::Ne)),
            },
            (StrTest::StartsWith(p), DictKind::Ordered) => match dict.prefix_range(p) {
                Some((lo, hi)) => CodeTest::Range(lo as i64, hi as i64),
                None => return Some(Node::ConstB(false)),
            },
            (StrTest::WordSeq(w1, w2), DictKind::WordToken) => {
                match (dict.word_code(w1), dict.word_code(w2)) {
                    (Some(w1), Some(w2)) => CodeTest::WordSeq(Arc::clone(&dict), w1, w2),
                    _ => return Some(Node::ConstB(false)),
                }
            }
            _ => CodeTest::Flags(dict.matching_flags(|v| test.holds(v))),
        };
        Some(Node::Code(self.int_leaf(*i, chunk)?, test))
    }

    /// The `f64` values of register `r` over `rows`, as [`BlockExprs::eval`]
    /// left them: a float column leaf over a physical range is the column
    /// slice itself, never copied; every other node is its register. Every
    /// reader of a float register — the arithmetic nodes, the aggregate
    /// lanes, the scatter loops — goes through here.
    #[inline]
    pub(crate) fn f<'a>(&'a self, regs: &'a [Reg], r: usize, rows: &Rows<'_>) -> &'a [f64] {
        match (&self.nodes[r], rows) {
            (Node::F64(v), Rows::Range(range)) => &v[range.clone()],
            _ => &regs[r].f()[..rows.len()],
        }
    }

    /// Fresh registers for this program (one set per worker).
    pub(crate) fn scratch(&self) -> Vec<Reg> {
        self.nodes
            .iter()
            .map(|n| match n {
                Node::Int(_) | Node::ArithI(..) | Node::Year(_) => Reg::I(Vec::new()),
                Node::F64(_)
                | Node::ConstF(_)
                | Node::ToF(_)
                | Node::ArithF(..)
                | Node::Select { .. }
                | Node::Interp { out: Out::F, .. } => Reg::F(Vec::new()),
                Node::Interp { out: Out::V, .. } => Reg::V(Vec::new()),
                _ => Reg::B(Vec::new()),
            })
            .collect()
    }

    /// Evaluates every node over `rows`; afterwards the first `rows.len()`
    /// entries of each register hold that node's values.
    pub(crate) fn eval(&self, rows: &Rows<'_>, regs: &mut [Reg]) {
        let n = rows.len();
        for (k, node) in self.nodes.iter().enumerate() {
            let (done, rest) = regs.split_at_mut(k);
            match (node, &mut rest[0]) {
                // A literal never changes: broadcast only when the register
                // is shorter than the block.
                (Node::Int(IntSrc::Const(_)), Reg::I(out)) if out.len() >= n => {}
                (Node::ConstF(_), Reg::F(out)) if out.len() >= n => {}
                (Node::ConstF(c), Reg::F(out)) => out.resize(n, *c),
                (Node::Int(src), Reg::I(out)) => {
                    out.resize(n, 0);
                    src.load(rows, out);
                }
                // Over a physical range the leaf is read in place (see
                // [`BlockExprs::f`]); only a gather fills its register.
                (Node::F64(_), Reg::F(_)) if matches!(rows, Rows::Range(_)) => {}
                (Node::F64(v), Reg::F(out)) => {
                    out.resize(n, 0.0);
                    load_col(v, rows, out, |x| x);
                }
                (Node::ToF(a), Reg::F(out)) => {
                    out.resize(n, 0.0);
                    out.iter_mut().zip(&done[*a].i()[..n]).for_each(|(o, &x)| *o = x as f64);
                }
                (Node::ArithF(op, a, b), Reg::F(out)) => {
                    out.resize(n, 0.0);
                    let ab = self.f(done, *a, rows).iter().zip(self.f(done, *b, rows));
                    let out = out.iter_mut().zip(ab);
                    match op {
                        ArithOp::Add => out.for_each(|(o, (x, y))| *o = x + y),
                        ArithOp::Sub => out.for_each(|(o, (x, y))| *o = x - y),
                        ArithOp::Mul => out.for_each(|(o, (x, y))| *o = x * y),
                        ArithOp::Div => out.for_each(|(o, (x, y))| *o = x / y),
                    }
                }
                (Node::ArithI(op, a, b), Reg::I(out)) => {
                    out.resize(n, 0);
                    let ab = done[*a].i()[..n].iter().zip(&done[*b].i()[..n]);
                    let out = out.iter_mut().zip(ab);
                    match op {
                        ArithOp::Add => out.for_each(|(o, (x, y))| *o = x.wrapping_add(*y)),
                        ArithOp::Sub => out.for_each(|(o, (x, y))| *o = x.wrapping_sub(*y)),
                        ArithOp::Mul => out.for_each(|(o, (x, y))| *o = x.wrapping_mul(*y)),
                        ArithOp::Div => unreachable!("integer division stays on the f64 path"),
                    }
                }
                (Node::Year(a), Reg::I(out)) => {
                    out.resize(n, 0);
                    let days = out.iter_mut().zip(&done[*a].i()[..n]);
                    days.for_each(|(o, &d)| *o = legobase_storage::Date(d as i32).year() as i64);
                }
                (Node::Select { c, t, f }, Reg::F(out)) => {
                    out.resize(n, 0.0);
                    let tf = self.f(done, *t, rows).iter().zip(self.f(done, *f, rows));
                    let ctf = out.iter_mut().zip(done[*c].b()[..n].iter().zip(tf));
                    ctf.for_each(|(o, (&c, (&t, &f)))| *o = if c { t } else { f });
                }
                (Node::ConstB(_), Reg::B(out)) if out.len() >= n => {}
                (Node::ConstB(b), Reg::B(out)) => out.resize(n, *b),
                (Node::CmpI(op, a, b), Reg::B(out)) => {
                    cmp_into(*op, &done[*a].i()[..n], &done[*b].i()[..n], out)
                }
                (Node::CmpF(op, a, b), Reg::B(out)) => {
                    cmp_into(*op, self.f(done, *a, rows), self.f(done, *b, rows), out)
                }
                (Node::Code(a, test), Reg::B(out)) => {
                    out.resize(n, false);
                    let codes = out.iter_mut().zip(&done[*a].i()[..n]);
                    match test {
                        CodeTest::Eq { code, eq } => {
                            codes.for_each(|(o, &c)| *o = (c == *code) == *eq)
                        }
                        CodeTest::Flags(flags) => codes.for_each(|(o, &c)| *o = flags[c as usize]),
                        CodeTest::Range(lo, hi) => {
                            codes.for_each(|(o, &c)| *o = *lo <= c && c <= *hi)
                        }
                        CodeTest::WordSeq(dict, w1, w2) => codes
                            .for_each(|(o, &c)| *o = dict.contains_word_seq(c as u32, *w1, *w2)),
                    }
                }
                (Node::InI(a, set), Reg::B(out)) => {
                    out.resize(n, false);
                    out.iter_mut().zip(&done[*a].i()[..n]).for_each(|(o, x)| *o = set.contains(x));
                }
                (Node::Str { col, test, short }, Reg::B(out)) => {
                    fill_mask(rows, *short, done, out, |p| test.holds(&col[p]))
                }
                (Node::IsNull(mask), Reg::B(out)) => {
                    out.resize(n, false);
                    load_col(mask, rows, out, |x| x);
                }
                (Node::And(a, b), Reg::B(out)) => {
                    out.resize(n, false);
                    let ab = done[*a].b()[..n].iter().zip(&done[*b].b()[..n]);
                    out.iter_mut().zip(ab).for_each(|(o, (&x, &y))| *o = x & y);
                }
                (Node::Or(a, b), Reg::B(out)) => {
                    out.resize(n, false);
                    let ab = done[*a].b()[..n].iter().zip(&done[*b].b()[..n]);
                    out.iter_mut().zip(ab).for_each(|(o, (&x, &y))| *o = x | y);
                }
                (Node::Not(a), Reg::B(out)) => {
                    out.resize(n, false);
                    out.iter_mut().zip(&done[*a].b()[..n]).for_each(|(o, &x)| *o = !x);
                }
                (Node::Interp { interp, short, .. }, Reg::B(out)) => {
                    fill_mask(rows, *short, done, out, |p| interp.eval(|_| p).as_bool())
                }
                (Node::Interp { interp, .. }, Reg::F(out)) => {
                    out.resize(n, 0.0);
                    rows.for_each(|i, p| out[i] = interp.eval(|_| p).as_float());
                }
                (Node::Interp { interp, .. }, Reg::V(out)) => {
                    out.clear();
                    rows.for_each(|_, p| out.push(interp.eval(|_| p)));
                }
                _ => unreachable!("BlockExprs::scratch types each register by its node"),
            }
        }
    }
}

/// `out[i] = a[i] op b[i]`: one tight, autovectorizable loop per operator.
fn cmp_into<T: PartialOrd + Copy>(op: CmpOp, a: &[T], b: &[T], out: &mut Vec<bool>) {
    out.resize(a.len(), false);
    let abo = a.iter().zip(b).zip(out.iter_mut());
    match op {
        CmpOp::Eq => abo.for_each(|((x, y), o)| *o = x == y),
        CmpOp::Ne => abo.for_each(|((x, y), o)| *o = x != y),
        CmpOp::Lt => abo.for_each(|((x, y), o)| *o = x < y),
        CmpOp::Le => abo.for_each(|((x, y), o)| *o = x <= y),
        CmpOp::Gt => abo.for_each(|((x, y), o)| *o = x > y),
        CmpOp::Ge => abo.for_each(|((x, y), o)| *o = x >= y),
    }
}

/// The source of an operand of an exact integer block comparison: a
/// non-nullable integer or date column (plain or packed), an integer or date
/// literal.
fn int_operand(e: &Expr, chunk: &Chunk) -> Option<IntSrc> {
    match e {
        Expr::Col(i) => match chunk.cols[*i] {
            Column::I64(_) | Column::Date(_) | Column::I64Packed(_) | Column::DatePacked(_) => {
                key_src(*i, chunk)
            }
            _ => None,
        },
        Expr::Lit(Value::Int(v)) => Some(IntSrc::Const(*v)),
        Expr::Lit(Value::Date(d)) => Some(IntSrc::Const(d.0 as i64)),
        _ => None,
    }
}

/// Runs a one-expression program over the chunk's logical rows, block at a
/// time; `take` appends each block's values to the output.
fn materialize<T>(
    exprs: &BlockExprs,
    chunk: &Chunk,
    take: impl Fn(&mut [Reg], &Rows<'_>, &mut Vec<T>),
) -> Vec<T> {
    let mut regs = exprs.scratch();
    let mut out = Vec::with_capacity(chunk.len());
    chunk.for_each_block(0..chunk.len(), |rows| {
        exprs.eval(&rows, &mut regs);
        take(&mut regs, &rows, &mut out);
    });
    out
}

/// Materializes a non-nullable float expression as an owned vector.
pub(crate) fn eval_f64_column(e: &Expr, chunk: &Chunk, compiled: bool) -> Vec<f64> {
    let mut exprs = BlockExprs::new();
    let r = exprs.f64_reg(e, chunk, compiled);
    materialize(&exprs, chunk, |regs, rows, out| out.extend_from_slice(exprs.f(regs, r, rows)))
}

/// Materializes a non-nullable integer expression as an owned vector: exact
/// `i64` for integer-only arithmetic and `YEAR`, the truncated `f64` value
/// otherwise (`CASE`, division).
pub(crate) fn eval_i64_column(e: &Expr, chunk: &Chunk, compiled: bool) -> Vec<i64> {
    let mut exprs = BlockExprs::new();
    if let Some(r) = compiled.then(|| exprs.i64_reg(e, chunk)).flatten() {
        return materialize(&exprs, chunk, |regs, rows, out| {
            out.extend_from_slice(&regs[r].i()[..rows.len()])
        });
    }
    let r = exprs.f64_reg(e, chunk, compiled);
    materialize(&exprs, chunk, |regs, rows, out| {
        out.extend(exprs.f(regs, r, rows).iter().map(|&x| x as i64))
    })
}

/// Materializes a predicate as an owned vector (`Bool`-typed projections).
pub(crate) fn eval_bool_column(e: &Expr, chunk: &Chunk, compiled: bool) -> Vec<bool> {
    let mut exprs = BlockExprs::new();
    let r = exprs.mask_reg(e, chunk, compiled);
    materialize(&exprs, chunk, |regs, rows, out| out.extend_from_slice(&regs[r].b()[..rows.len()]))
}

/// Materializes any expression as generic values, NULLs included (string,
/// date and nullable projections).
pub(crate) fn eval_value_column(e: &Expr, chunk: &Chunk, compiled: bool) -> Vec<Value> {
    let mut exprs = BlockExprs::new();
    let r = exprs.value_reg(e, chunk, compiled);
    materialize(&exprs, chunk, |regs, _, out| match &mut regs[r] {
        Reg::V(vals) => out.append(vals),
        _ => unreachable!("a value register"),
    })
}

/// A predicate compiled for block-at-a-time selection: the one filter every
/// operator uses — `Select` over base and intermediate chunks, the residual
/// of a date-index scan, the keep-mask of a dense-range aggregate — at every
/// degree. Shared read-only by morsel workers; each brings its own
/// [`BlockSel::scratch`].
pub(crate) struct BlockSel {
    exprs: BlockExprs,
    mask: usize,
}

impl BlockSel {
    pub(crate) fn compile(e: &Expr, chunk: &Chunk, compiled: bool) -> BlockSel {
        let mut exprs = BlockExprs::new();
        let mask = exprs.mask_reg(e, chunk, compiled);
        BlockSel { exprs, mask }
    }

    /// Fresh per-worker registers.
    pub(crate) fn scratch(&self) -> Vec<Reg> {
        self.exprs.scratch()
    }

    /// The keep-mask of the block: entry `i` tells whether the block's
    /// `i`-th row satisfies the predicate.
    pub(crate) fn mask<'r>(&self, rows: &Rows<'_>, regs: &'r mut [Reg]) -> &'r [bool] {
        self.exprs.eval(rows, regs);
        &regs[self.mask].b()[..rows.len()]
    }

    /// Appends the physical ids of the block's rows that satisfy the
    /// predicate to `out`, in block order — exactly the rows, in exactly the
    /// order, a per-row `if pred(p) { out.push(p) }` loop selects.
    pub(crate) fn select(&self, rows: &Rows<'_>, regs: &mut [Reg], out: &mut Vec<u32>) {
        let keep = self.mask(rows, regs);
        match rows {
            Rows::Range(r) => compact(keep, r.start as u32..r.end as u32, out),
            Rows::Ids(ids) => compact(keep, ids.iter().copied(), out),
        }
    }
}

/// Appends the `ids` that `keep` flags to `out`, in order. Branch-free:
/// every id is stored, the cursor only moves past survivors — no
/// data-dependent branch to mispredict.
#[inline(always)]
fn compact(keep: &[bool], ids: impl Iterator<Item = u32>, out: &mut Vec<u32>) {
    let base = out.len();
    out.resize(base + keep.len(), 0);
    let mut k = base;
    for (&kept, id) in keep.iter().zip(ids) {
        out[k] = id;
        k += kept as usize;
    }
    out.truncate(k);
}

// ---- joins ----

/// The coded join keys of one side, extracted a block at a time.
pub(crate) struct JoinKeys(Vec<IntSrc>);

impl JoinKeys {
    /// `None` when a key column has no integer code (plain strings, floats,
    /// nullable columns): the join then keys on generic values.
    pub(crate) fn new(cols: &[usize], chunk: &Chunk) -> Option<JoinKeys> {
        cols.iter().map(|&c| key_src(c, chunk)).collect::<Option<_>>().map(JoinKeys)
    }

    /// Calls `f(key, phys)` for the logical rows `range` of `chunk`, in
    /// order. A single key is the code itself; several pack their low 32
    /// bits side by side (TPC-H keys are positive and well below 2^32 at
    /// benchmark scales).
    pub(crate) fn for_each(
        &self,
        chunk: &Chunk,
        range: std::ops::Range<usize>,
        mut f: impl FnMut(i64, usize),
    ) {
        let (mut keys, mut part) = (Vec::new(), Vec::new());
        chunk.for_each_block(range, |rows| {
            keys.clear();
            keys.resize(rows.len(), 0);
            for (nth, src) in self.0.iter().enumerate() {
                if nth == 0 {
                    src.load(&rows, &mut keys);
                    continue;
                }
                part.resize(rows.len(), 0);
                src.load(&rows, &mut part);
                keys.iter_mut().zip(&part).for_each(|(k, &v)| *k = (*k << 32) | (v & 0xFFFF_FFFF));
            }
            rows.for_each(|i, p| f(keys[i], p));
        });
    }
}

/// One side of a typed residual comparison: a value of the left or right
/// row of a candidate pair, or a literal.
enum PairVal {
    I(IntSrc),
    F(Arc<Vec<f64>>),
    ConstF(f64),
}

struct PairOperand {
    right: bool,
    val: PairVal,
}

impl PairOperand {
    fn int(&self, lp: usize, rp: usize) -> i64 {
        match &self.val {
            PairVal::I(src) => src.get(if self.right { rp } else { lp }),
            _ => unreachable!("integer comparisons hold integer operands"),
        }
    }

    fn float(&self, lp: usize, rp: usize) -> f64 {
        let p = if self.right { rp } else { lp };
        match &self.val {
            PairVal::I(src) => src.get(p) as f64,
            PairVal::F(v) => v[p],
            PairVal::ConstF(c) => *c,
        }
    }
}

struct PairCmp {
    op: CmpOp,
    a: PairOperand,
    b: PairOperand,
    /// Both operands are integers (or both dates): compare as `i64`.
    int: bool,
}

/// A join residual over a candidate pair `(left_phys, right_phys)`. Shared
/// read-only by morsel-parallel probe workers.
pub(crate) struct PairPred(PairKind);

enum PairKind {
    /// A conjunction of comparisons between non-nullable int / date / float
    /// columns of either side and literals, read in place with the
    /// interpreter's ordering (`Value::cmp`: exact integers, IEEE total
    /// order once a float is involved).
    Typed(Vec<PairCmp>),
    /// Anything else: [`Interp`] over the concatenated schema, whose first
    /// `l_arity` cells are the left row's.
    Interp { interp: Box<Interp>, l_arity: usize },
}

impl PairPred {
    pub(crate) fn compile(e: &Expr, lchunk: &Chunk, rchunk: &Chunk) -> PairPred {
        let operand = |e: &Expr| -> Option<(PairOperand, Type)> {
            let (right, val, ty) = match e {
                Expr::Col(c) => {
                    let right = *c >= lchunk.cols.len();
                    let (chunk, c) =
                        if right { (rchunk, c - lchunk.cols.len()) } else { (lchunk, *c) };
                    match &chunk.cols[c] {
                        Column::F64(v) if chunk.nulls[c].is_none() => {
                            (right, PairVal::F(Arc::clone(v)), Type::Float)
                        }
                        Column::I64(_) | Column::I64Packed(_) => {
                            (right, PairVal::I(key_src(c, chunk)?), Type::Int)
                        }
                        Column::Date(_) | Column::DatePacked(_) => {
                            (right, PairVal::I(key_src(c, chunk)?), Type::Date)
                        }
                        _ => return None,
                    }
                }
                Expr::Lit(Value::Int(v)) => (false, PairVal::I(IntSrc::Const(*v)), Type::Int),
                Expr::Lit(Value::Date(d)) => {
                    (false, PairVal::I(IntSrc::Const(d.0 as i64)), Type::Date)
                }
                Expr::Lit(Value::Float(v)) => (false, PairVal::ConstF(*v), Type::Float),
                _ => return None,
            };
            Some((PairOperand { right, val }, ty))
        };
        let typed = conjuncts(e).into_iter().map(|leaf| {
            let Expr::Cmp(op, a, b) = leaf else { return None };
            let ((a, ta), (b, tb)) = (operand(a)?, operand(b)?);
            // Dates only order against dates; numbers order across int/float.
            let int = match (ta, tb) {
                (Type::Int, Type::Int) | (Type::Date, Type::Date) => true,
                (Type::Int | Type::Float, Type::Int | Type::Float) => false,
                _ => return None,
            };
            Some(PairCmp { op: *op, a, b, int })
        });
        if let Some(cmps) = typed.collect::<Option<Vec<_>>>() {
            return PairPred(PairKind::Typed(cmps));
        }
        let interp = Box::new(Interp::new(e, &[lchunk, rchunk], true));
        PairPred(PairKind::Interp { interp, l_arity: lchunk.cols.len() })
    }

    /// Evaluates the residual on one candidate pair.
    #[inline]
    pub(crate) fn test(&self, lp: usize, rp: usize) -> bool {
        match &self.0 {
            PairKind::Typed(cmps) => cmps.iter().all(|c| {
                let ord = if c.int {
                    c.a.int(lp, rp).cmp(&c.b.int(lp, rp))
                } else {
                    c.a.float(lp, rp).total_cmp(&c.b.float(lp, rp))
                };
                ord_holds(c.op, ord)
            }),
            PairKind::Interp { interp, l_arity } => {
                interp.eval(|c| if c < *l_arity { lp } else { rp }).as_bool()
            }
        }
    }
}

/// The shared density rule of the direct-array structures (the aggregate's
/// `Direct` store, a join's direct build side): the key domain may span at
/// most eight slots per row.
pub(crate) fn dense(domain: i64, rows: usize) -> bool {
    domain <= (8 * rows.max(128)) as i64
}

/// A fixed-size bit set: which rows of a base table a selection kept, which
/// keys of a dense domain a semi-join's build side holds.
pub(crate) struct Bitset(Vec<u64>);

impl Bitset {
    pub(crate) fn new(len: usize) -> Bitset {
        Bitset(vec![0; len.div_ceil(64)])
    }

    #[inline(always)]
    pub(crate) fn set(&mut self, i: usize) {
        self.0[i / 64] |= 1 << (i % 64);
    }

    /// The set of `ids` among `0..len`. The ids are marked in four
    /// interleaved lanes: neighbours of an ascending selection vector fall
    /// into one word, and marking them back to back would serialize on that
    /// word's store-to-load round trip.
    pub(crate) fn from_ids(len: usize, ids: &[u32]) -> Bitset {
        let mut set = Bitset::new(len);
        let lane = ids.len() / 4;
        for i in 0..lane {
            for l in 0..4 {
                set.set(ids[l * lane + i] as usize);
            }
        }
        ids[4 * lane..].iter().for_each(|&i| set.set(i as usize));
        set
    }

    /// False for any `i` beyond the set's length.
    #[inline(always)]
    pub(crate) fn get(&self, i: usize) -> bool {
        self.0.get(i / 64).is_some_and(|w| w >> (i % 64) & 1 == 1)
    }
}

/// A join build side over a small dense key domain as a direct array — the
/// hoisted-initialization store of Section 3.5.2 applied to joins: no
/// hashing, no key comparison. `heads[key - min]` starts the chain of build
/// rows holding `key`, newest first — the match order of the
/// `ChainedMultiMap` it stands in for, so the pair sequence is unchanged.
pub(crate) struct DirectMultiMap {
    min: i64,
    heads: Vec<i32>,
    rows: Vec<u32>,
    nexts: Vec<i32>,
}

impl DirectMultiMap {
    pub(crate) fn new(min: i64, domain: usize, expected: usize) -> DirectMultiMap {
        DirectMultiMap {
            min,
            heads: vec![-1; domain],
            rows: Vec::with_capacity(expected),
            nexts: Vec::with_capacity(expected),
        }
    }

    /// Adds a build row; `key` must lie inside the domain.
    #[inline]
    pub(crate) fn insert(&mut self, key: i64, row: u32) {
        let head = &mut self.heads[(key - self.min) as usize];
        self.nexts.push(*head);
        *head = self.rows.len() as i32;
        self.rows.push(row);
    }

    /// Calls `f` with the build rows holding `key` until it returns true;
    /// keys outside the domain match nothing.
    #[inline]
    pub(crate) fn for_each_match(&self, key: i64, mut f: impl FnMut(u32) -> bool) {
        let slot = key.checked_sub(self.min).and_then(|i| self.heads.get(usize::try_from(i).ok()?));
        let mut idx = slot.copied().unwrap_or(-1);
        while idx >= 0 {
            if f(self.rows[idx as usize]) {
                return;
            }
            idx = self.nexts[idx as usize];
        }
    }
}

// ---- sort keys ----

/// One `ORDER BY` key column, read in place.
enum SortCol<'a> {
    I64(&'a [i64]),
    F64(&'a [f64]),
    Date(&'a [i32]),
    Bool(&'a [bool]),
    Str(&'a [String]),
    Dict(&'a [u32], &'a StringDictionary),
    Packed(&'a PackedInts),
    DictPacked(&'a PackedInts, &'a StringDictionary),
}

/// The `ORDER BY` keys of a chunk as a comparator over physical row ids:
/// the order `Value::cmp` gives the gathered key tuples — NULL first, floats
/// by IEEE total order, dictionary strings by their text — without
/// gathering them. The serial argsort and the per-morsel sorts + merge of
/// the parallel one share this single comparator.
pub(crate) struct SortKeys<'a>(Vec<(SortCol<'a>, Option<&'a [bool]>, bool)>);

impl<'a> SortKeys<'a> {
    pub(crate) fn new(chunk: &'a Chunk, keys: &[(usize, crate::plan::SortOrder)]) -> SortKeys<'a> {
        let key = |&(c, dir): &(usize, crate::plan::SortOrder)| {
            let col = match &chunk.cols[c] {
                Column::I64(v) => SortCol::I64(v),
                Column::F64(v) => SortCol::F64(v),
                Column::Date(v) => SortCol::Date(v),
                Column::Bool(v) => SortCol::Bool(v),
                Column::Str(v) => SortCol::Str(v),
                Column::Dict(codes, dict) => SortCol::Dict(codes, dict),
                Column::I64Packed(p) | Column::DatePacked(p) => SortCol::Packed(p),
                Column::DictPacked(p, dict) => SortCol::DictPacked(p, dict),
                Column::Absent => panic!("sort key column {c} was not materialized"),
            };
            (col, chunk.nulls[c].as_ref().map(|m| &m[..]), dir == crate::plan::SortOrder::Desc)
        };
        SortKeys(keys.iter().map(key).collect())
    }

    /// Orders physical rows `a` and `b` under the keys and their directions.
    pub(crate) fn cmp(&self, a: u32, b: u32) -> std::cmp::Ordering {
        use std::cmp::Ordering;
        let (a, b) = (a as usize, b as usize);
        for (col, nulls, desc) in &self.0 {
            let ord = match nulls.map(|m| (m[a], m[b])) {
                Some((true, true)) => Ordering::Equal,
                Some((true, false)) => Ordering::Less,
                Some((false, true)) => Ordering::Greater,
                _ => match col {
                    SortCol::I64(v) => v[a].cmp(&v[b]),
                    SortCol::F64(v) => v[a].total_cmp(&v[b]),
                    SortCol::Date(v) => v[a].cmp(&v[b]),
                    SortCol::Bool(v) => v[a].cmp(&v[b]),
                    SortCol::Str(v) => v[a].cmp(&v[b]),
                    SortCol::Dict(codes, dict) => dict.decode(codes[a]).cmp(dict.decode(codes[b])),
                    SortCol::Packed(p) => p.get(a).cmp(&p.get(b)),
                    SortCol::DictPacked(p, dict) => {
                        dict.decode(p.get(a) as u32).cmp(dict.decode(p.get(b) as u32))
                    }
                },
            };
            let ord = if *desc { ord.reverse() } else { ord };
            if ord != Ordering::Equal {
                return ord;
            }
        }
        Ordering::Equal
    }
}

// ---- block-at-a-time aggregation ----

/// Packs the coded group keys of a block into one dense `i64` per row using
/// per-key ranges. When every key padded to a power-of-two bit field fits
/// [`REGISTER_SLOTS`] buckets (Q1's `(l_returnflag, l_linestatus)`: 2 + 1
/// bits, 8 buckets) each key's stride is `1 << o` for its bit offset `o`
/// and the domain is the padded one; otherwise the strides are the exact
/// mixed radix. A direct store over a domain of at most [`REGISTER_SLOTS`]
/// writes every row's key as one byte ([`KeyPacker::pack_keyed`]); every
/// other reader — [`KeyPacker::pack`], the Fig. 9 probe, a morsel's reset,
/// the ordered merge — packs through the same strides, so they all see the
/// same keys.
#[derive(Clone)]
pub(crate) struct KeyPacker {
    srcs: Vec<IntSrc>,
    pub(crate) mins: Vec<i64>,
    strides: Vec<i64>,
    pub(crate) domain: i64,
}

impl KeyPacker {
    /// Derives a dense packing of the group-by columns, or `None` when a
    /// column has no integer code (plain strings, nullable keys) or the
    /// combined domain overflows. Key bounds need no scan where the
    /// representation already states them — `[0, dict.len())` for dictionary
    /// codes, the frame-of-reference range for packed integers; only plain
    /// (computed / intermediate) columns are scanned. Group slots are
    /// numbered by first occurrence, so the group order does not depend on
    /// the bounds or the packing chosen.
    pub(crate) fn fit(group_by: &[usize], chunk: &Chunk) -> Option<KeyPacker> {
        let srcs: Vec<IntSrc> =
            group_by.iter().map(|&c| key_src(c, chunk)).collect::<Option<_>>()?;
        let mut tmp = Vec::new();
        let bounds = group_by.iter().zip(&srcs).map(|(&c, src)| match &chunk.cols[c] {
            Column::Dict(_, dict) | Column::DictPacked(_, dict) => {
                (0, dict.len().saturating_sub(1) as i64)
            }
            Column::I64Packed(p) | Column::DatePacked(p) => (p.base(), p.max()),
            Column::Bool(_) => (0, 1),
            _ => {
                let (mut lo, mut hi) = (i64::MAX, i64::MIN);
                chunk.for_each_block(0..chunk.len(), |rows| {
                    tmp.resize(rows.len(), 0);
                    src.load(&rows, &mut tmp);
                    for &v in &tmp {
                        lo = lo.min(v);
                        hi = hi.max(v);
                    }
                });
                if chunk.is_empty() {
                    (0, 0)
                } else {
                    (lo, hi)
                }
            }
        });
        let (mins, maxs): (Vec<i64>, Vec<i64>) = bounds.unzip();
        let widths: Vec<i64> = mins
            .iter()
            .zip(&maxs)
            .map(|(&lo, &hi)| hi.checked_sub(lo)?.checked_add(1))
            .collect::<Option<_>>()?;
        // The last key takes the lowest field, as in the mixed radix below.
        let bits = |w: i64| u64::BITS - (w as u64 - 1).leading_zeros();
        let padded: u32 = widths.iter().map(|&w| bits(w)).sum();
        if 1 << padded.min(63) <= REGISTER_SLOTS {
            let mut offset = padded;
            let mut stride = |w| {
                offset -= bits(w);
                1 << offset
            };
            let strides = widths.iter().map(|&w| stride(w)).collect();
            return Some(KeyPacker { srcs, mins, strides, domain: 1 << padded });
        }
        let mut strides = vec![1i64; srcs.len()];
        let mut domain: i64 = 1;
        for k in (0..srcs.len()).rev() {
            strides[k] = domain;
            domain = domain.checked_mul(widths[k])?;
            if domain > (1 << 40) {
                return None;
            }
        }
        Some(KeyPacker { srcs, mins, strides, domain })
    }

    /// Calls `put(key, code, min, field)` for every key column and every
    /// row of the block, with the column's minimum and entry of `fields`. Over a
    /// physical range a plain column is read straight from its slice;
    /// packed columns and gathers go through `tmp`.
    #[inline(always)]
    fn each_field<K>(
        &self,
        rows: &Rows<'_>,
        keys: &mut [K],
        tmp: &mut Vec<i64>,
        fields: impl Iterator<Item = i64>,
        put: impl Fn(&mut K, i64, i64, i64) + Copy,
    ) {
        #[inline(always)]
        fn apply<K, T: Copy>(
            keys: &mut [K],
            v: &[T],
            min: i64,
            field: i64,
            cast: impl Fn(T) -> i64,
            put: impl Fn(&mut K, i64, i64, i64),
        ) {
            keys.iter_mut().zip(v).for_each(|(k, &x)| put(k, cast(x), min, field));
        }
        for ((src, &min), field) in self.srcs.iter().zip(&self.mins).zip(fields) {
            match (src, rows) {
                (IntSrc::I64(v), Rows::Range(r)) => {
                    apply(keys, &v[r.clone()], min, field, |x| x, put)
                }
                (IntSrc::Date(v), Rows::Range(r)) => {
                    apply(keys, &v[r.clone()], min, field, |x| x as i64, put)
                }
                (IntSrc::Dict(v), Rows::Range(r)) => {
                    apply(keys, &v[r.clone()], min, field, |x| x as i64, put)
                }
                (IntSrc::Bool(v), Rows::Range(r)) => {
                    apply(keys, &v[r.clone()], min, field, |x| x as i64, put)
                }
                _ => {
                    tmp.resize(rows.len(), 0);
                    src.load(rows, tmp);
                    apply(keys, tmp, min, field, |x| x, put);
                }
            }
        }
    }

    /// Writes the packed key of every row of the block into `keys`.
    fn pack(&self, rows: &Rows<'_>, keys: &mut Vec<i64>, tmp: &mut Vec<i64>) {
        keys.clear();
        keys.resize(rows.len(), 0);
        let strides = self.strides.iter().copied();
        self.each_field(rows, keys, tmp, strides, |k, v, min, stride| *k += (v - min) * stride);
    }

    /// The key pass of a domain of at most [`REGISTER_SLOTS`]: every row's
    /// packed key as one byte, `((c₁ − m₁) << o₁) | ((c₂ − m₂) << o₂) | …`
    /// when the strides are powers of two (shifts and ors only), the exact
    /// mixed radix's multiplies and adds otherwise; a row `keep` drops takes
    /// the sink bucket `domain` instead. Branch-free.
    fn pack_keyed(
        &self,
        rows: &Rows<'_>,
        keep: Option<&[bool]>,
        keys: &mut Vec<u8>,
        tmp: &mut Vec<i64>,
    ) {
        debug_assert!(self.domain <= REGISTER_SLOTS as i64);
        keys.clear();
        keys.resize(rows.len(), 0);
        // A field is below 64, so 32-bit lanes compute it exactly. Strides
        // that are all powers of two leave the fields' bits disjoint.
        let field = |v: i64, min: i64| (v as u32).wrapping_sub(min as u32);
        if self.strides.iter().all(|s| s.count_ones() == 1) {
            let offsets = self.strides.iter().map(|s| s.trailing_zeros() as i64);
            self.each_field(rows, keys, tmp, offsets, |k, v, min, offset| {
                *k |= (field(v, min) << offset) as u8
            });
        } else {
            let strides = self.strides.iter().copied();
            self.each_field(rows, keys, tmp, strides, |k, v, min, stride| {
                *k += (field(v, min) * stride as u32) as u8
            });
        }
        if let Some(keep) = keep {
            let sink = self.domain as u8;
            keys.iter_mut().zip(keep).for_each(|(k, &kept)| *k = if kept { *k } else { sink });
        }
    }
}

/// Resolves the rows of a block to group slots, numbering slots by first
/// occurrence. One variant per aggregate-store choice (Section 3.5.2,
/// Fig. 11); the same resolver serves the serial fold, every morsel's
/// partial, the ordered merge, and — for a single coded key — the Fig. 9
/// fused join probe ([`GroupResolver::lookup`]).
pub(crate) enum GroupResolver {
    /// No `GROUP BY`: a single global slot (e.g. Q6).
    Singleton,
    /// Dense direct-array slots over the packed key domain, with hoisted
    /// initialization (Section 3.5.2). Over a domain of 2 to
    /// [`REGISTER_SLOTS`] keys the block fold buckets rows by key and
    /// `slots` is only read per key ([`AggFold::fold_keyed`]).
    Direct { keys: KeyPacker, slots: Vec<i32> },
    /// Lowered chained-array map (Fig. 11).
    Lowered { keys: KeyPacker, map: ChainedArrayMap<u32> },
    /// Generic hash map over packed keys.
    Hash { keys: KeyPacker, map: HashMap<u64, u32> },
    /// Keys without a dense integer packing (plain strings, floats, nullable
    /// keys, interpreted mode): each row's key is hashed in place — `coded`
    /// columns from block loads, the `rest` cell by cell — and compared by
    /// reference against the group's representative row. `map` holds, per
    /// hash, the slot of the group that owns it; a different key with the
    /// same hash moves on to the next hash of its probe sequence.
    Generic { coded: Vec<IntSrc>, rest: Vec<usize>, map: HashMap<u64, u32> },
}

/// Folds `v` into the running key hash `h`.
#[inline(always)]
fn mix(h: u64, v: u64) -> u64 {
    hash_u64(h.rotate_left(5) ^ v)
}

/// Hash of one key cell, read in place; equal cells ([`same_cell`]) hash
/// equally.
fn cell_hash(chunk: &Chunk, col: usize, p: usize) -> u64 {
    if chunk.nulls[col].as_ref().is_some_and(|m| m[p]) {
        return 0x6E75_6C6C;
    }
    match &chunk.cols[col] {
        Column::I64(v) => v[p] as u64,
        Column::F64(v) => v[p].to_bits(),
        Column::Date(v) => v[p] as u64,
        Column::Bool(v) => v[p] as u64,
        Column::Str(v) => v[p].bytes().fold(0, |h, b| mix(h, b as u64)),
        Column::Dict(codes, _) => codes[p] as u64,
        Column::I64Packed(pk) | Column::DatePacked(pk) | Column::DictPacked(pk, _) => {
            pk.get(p) as u64
        }
        Column::Absent => 0,
    }
}

/// Whether rows `p` and `q` hold the same value in `col` — `Value`
/// equality (NULL equals NULL, floats by bit pattern) without building the
/// values.
fn same_cell(chunk: &Chunk, col: usize, p: usize, q: usize) -> bool {
    if let Some(m) = &chunk.nulls[col] {
        if m[p] || m[q] {
            return m[p] && m[q];
        }
    }
    match &chunk.cols[col] {
        Column::I64(v) => v[p] == v[q],
        Column::F64(v) => v[p].to_bits() == v[q].to_bits(),
        Column::Date(v) => v[p] == v[q],
        Column::Bool(v) => v[p] == v[q],
        Column::Str(v) => v[p] == v[q],
        Column::Dict(codes, _) => codes[p] == codes[q],
        Column::I64Packed(pk) | Column::DatePacked(pk) | Column::DictPacked(pk, _) => {
            pk.get(p) == pk.get(q)
        }
        Column::Absent => true,
    }
}

impl GroupResolver {
    /// An empty resolver of the same kind; map variants are sized for
    /// `capacity` groups.
    pub(crate) fn fresh(&self, capacity: usize) -> GroupResolver {
        match self {
            GroupResolver::Singleton => GroupResolver::Singleton,
            GroupResolver::Direct { keys, .. } => {
                GroupResolver::Direct { keys: keys.clone(), slots: vec![-1; keys.domain as usize] }
            }
            GroupResolver::Lowered { keys, .. } => GroupResolver::Lowered {
                keys: keys.clone(),
                map: ChainedArrayMap::with_capacity(capacity),
            },
            GroupResolver::Hash { keys, .. } => {
                GroupResolver::Hash { keys: keys.clone(), map: HashMap::new() }
            }
            GroupResolver::Generic { coded, rest, .. } => GroupResolver::Generic {
                coded: coded.clone(),
                rest: rest.clone(),
                map: HashMap::new(),
            },
        }
    }

    /// The generic-key resolver of `group_by`. Interpreted mode (`compiled`
    /// off) reads every key cell by cell.
    pub(crate) fn generic(group_by: &[usize], chunk: &Chunk, compiled: bool) -> GroupResolver {
        let (mut coded, mut rest) = (Vec::new(), Vec::new());
        for &c in group_by {
            match compiled.then(|| key_src(c, chunk)).flatten() {
                Some(src) => coded.push(src),
                None => rest.push(c),
            }
        }
        GroupResolver::Generic { coded, rest, map: HashMap::new() }
    }

    /// Writes the group slot of every row of the block into `s.gid`; a key
    /// seen for the first time takes the next slot and appends its row to
    /// `reprs`. Under a keep-mask, dropped rows take no slot: their entry is
    /// [`DROPPED`] and they are not hashed, probed or counted.
    fn resolve(
        &mut self,
        chunk: &Chunk,
        rows: &Rows<'_>,
        keep: Option<&[bool]>,
        s: &mut FoldScratch,
        reprs: &mut Vec<u32>,
    ) {
        // One copy of the loops per case, so an unmasked block tests nothing.
        match keep {
            None => self.resolve_kept(chunk, rows, |_| true, s, reprs),
            Some(m) => self.resolve_kept(chunk, rows, |i| m[i], s, reprs),
        }
    }

    #[inline(always)]
    fn resolve_kept(
        &mut self,
        chunk: &Chunk,
        rows: &Rows<'_>,
        kept: impl Fn(usize) -> bool,
        s: &mut FoldScratch,
        reprs: &mut Vec<u32>,
    ) {
        let n = rows.len();
        let first_new = reprs.len();
        let gid = &mut s.gid;
        gid.clear();
        gid.resize(n, 0);
        match self {
            GroupResolver::Singleton => {
                for (i, g) in gid.iter_mut().enumerate() {
                    *g = if kept(i) { 0 } else { DROPPED };
                }
                if reprs.is_empty() {
                    reprs.extend((0..n).find(|&i| kept(i)).map(|i| rows.phys(i) as u32));
                }
            }
            GroupResolver::Direct { keys, slots } => {
                keys.pack(rows, &mut s.keys, &mut s.tmp);
                for (i, (g, &key)) in gid.iter_mut().zip(&s.keys).enumerate() {
                    let kept = kept(i);
                    let slot = &mut slots[key as usize];
                    if *slot < 0 && kept {
                        *slot = reprs.len() as i32;
                        reprs.push(rows.phys(i) as u32);
                    }
                    *g = if kept { *slot as u32 } else { DROPPED };
                }
            }
            GroupResolver::Lowered { keys, map } => {
                keys.pack(rows, &mut s.keys, &mut s.tmp);
                for (i, (g, &key)) in gid.iter_mut().zip(&s.keys).enumerate() {
                    *g = if !kept(i) {
                        DROPPED
                    } else {
                        *map.get_or_insert_with(key as u64, || {
                            reprs.push(rows.phys(i) as u32);
                            reprs.len() as u32 - 1
                        })
                    };
                }
            }
            GroupResolver::Hash { keys, map } => {
                keys.pack(rows, &mut s.keys, &mut s.tmp);
                let mut probes = 0;
                for (i, (g, &key)) in gid.iter_mut().zip(&s.keys).enumerate() {
                    if !kept(i) {
                        *g = DROPPED;
                        continue;
                    }
                    probes += 1;
                    *g = *map.entry(key as u64).or_insert_with(|| {
                        reprs.push(rows.phys(i) as u32);
                        reprs.len() as u32 - 1
                    });
                }
                metrics::hash_probes(probes);
                metrics::allocations((reprs.len() - first_new) as u64);
            }
            GroupResolver::Generic { coded, rest, map } => {
                let hashes = &mut s.keys;
                hashes.clear();
                hashes.resize(n, 0);
                s.tmp.resize(n, 0);
                for src in coded.iter() {
                    src.load(rows, &mut s.tmp);
                    let hv = hashes.iter_mut().zip(&s.tmp);
                    hv.for_each(|(h, &v)| *h = mix(*h as u64, v as u64) as i64);
                }
                let mut probes = 0;
                rows.for_each(|i, p| {
                    if !kept(i) {
                        gid[i] = DROPPED;
                        return;
                    }
                    probes += 1;
                    let mut h = hashes[i] as u64;
                    for &c in rest.iter() {
                        h = mix(h, cell_hash(chunk, c, p));
                    }
                    gid[i] = loop {
                        match map.entry(h) {
                            std::collections::hash_map::Entry::Vacant(slot) => {
                                slot.insert(reprs.len() as u32);
                                reprs.push(p as u32);
                                break reprs.len() as u32 - 1;
                            }
                            std::collections::hash_map::Entry::Occupied(slot) => {
                                let (g, q) = (*slot.get(), reprs[*slot.get() as usize] as usize);
                                if coded.iter().all(|src| src.get(p) == src.get(q))
                                    && rest.iter().all(|&c| same_cell(chunk, c, p, q))
                                {
                                    break g;
                                }
                                h = hash_u64(h) | 1;
                            }
                        }
                    };
                });
                metrics::hash_probes(probes);
                metrics::allocations((reprs.len() - first_new) as u64);
            }
        }
    }

    /// Forgets the groups whose first rows are `reprs` (a finished morsel's
    /// partial), keeping the allocations: a direct array un-marks only the
    /// entries the morsel touched.
    fn reset(&mut self, reprs: &[u32], s: &mut FoldScratch) {
        match self {
            GroupResolver::Singleton => {}
            GroupResolver::Direct { keys, slots } => {
                keys.pack(&Rows::Ids(reprs), &mut s.keys, &mut s.tmp);
                s.keys.iter().for_each(|&key| slots[key as usize] = -1);
            }
            GroupResolver::Lowered { map, .. } => map.clear(),
            GroupResolver::Hash { map, .. } => map.clear(),
            GroupResolver::Generic { map, .. } => map.clear(),
        }
    }

    /// The slot count of a store small enough to sum in registers.
    pub(crate) fn register_slots(&self) -> Option<usize> {
        match self {
            GroupResolver::Singleton => Some(1),
            GroupResolver::Direct { keys, .. } if keys.domain <= REGISTER_SLOTS as i64 => {
                Some(keys.domain as usize)
            }
            _ => None,
        }
    }

    fn coded_keys(&self) -> Option<&KeyPacker> {
        match self {
            GroupResolver::Direct { keys, .. }
            | GroupResolver::Lowered { keys, .. }
            | GroupResolver::Hash { keys, .. } => Some(keys),
            GroupResolver::Singleton | GroupResolver::Generic { .. } => None,
        }
    }

    /// True when groups are keyed by packed integer codes — the resolvers
    /// [`GroupResolver::lookup`] can answer for.
    pub(crate) fn has_coded_keys(&self) -> bool {
        self.coded_keys().is_some()
    }

    /// The group slot holding the single coded key `key`, if any (the
    /// Fig. 9 fused probe).
    pub(crate) fn lookup(&self, key: i64) -> Option<u32> {
        let keys = self.coded_keys()?;
        let idx = key.checked_sub(keys.mins[0])?;
        if idx < 0 || idx >= keys.domain {
            return None;
        }
        match self {
            GroupResolver::Direct { slots, .. } => {
                let g = slots[idx as usize];
                (g >= 0).then_some(g as u32)
            }
            GroupResolver::Lowered { map, .. } => map.get(idx as u64).copied(),
            GroupResolver::Hash { map, .. } => map.get(&(idx as u64)).copied(),
            _ => None,
        }
    }
}

/// An output column with its optional NULL mask.
pub(crate) type MaskedColumn = (Column, Option<Arc<Vec<bool>>>);

/// The accumulator of one aggregate outside the fused lanes, one entry per
/// group slot. Kernel-free (and therefore `Send`): morsel workers return
/// partial states to the coordinator, which merges them in morsel order.
enum AggState {
    SumF { sums: Vec<f64>, touched: Vec<bool> },
    SumI { sums: Vec<i64>, touched: Vec<bool> },
    Count { counts: Vec<i64> },
    Avg { sums: Vec<f64>, counts: Vec<i64> },
    MinMax { vals: Vec<Option<Value>>, is_min: bool },
}

/// Replaces `slot` by `v` when `v` is the better extremum.
fn keep_extreme(slot: &mut Option<Value>, v: &Value, is_min: bool) {
    let better = match slot {
        None => true,
        Some(cur) if is_min => v < cur,
        Some(cur) => v > cur,
    };
    if better {
        *slot = Some(v.clone());
    }
}

/// The NULL mask of a `SUM` output: groups that folded no input.
fn null_where(untouched: impl Iterator<Item = bool> + Clone) -> Option<Arc<Vec<bool>>> {
    untouched.clone().any(|u| u).then(|| Arc::new(untouched.collect()))
}

/// `sum / count` per group; a group that counted nothing is NULL.
fn avg_column(sums: &[f64], counts: &[i64]) -> MaskedColumn {
    let out = sums.iter().zip(counts).map(|(s, &c)| if c == 0 { 0.0 } else { s / c as f64 });
    (Column::F64(Arc::new(out.collect())), null_where(counts.iter().map(|&c| c == 0)))
}

impl AggState {
    /// Grows to `n` group slots.
    fn grow(&mut self, n: usize) {
        match self {
            AggState::SumF { sums, touched } => {
                sums.resize(n, 0.0);
                touched.resize(n, false);
            }
            AggState::SumI { sums, touched } => {
                sums.resize(n, 0);
                touched.resize(n, false);
            }
            AggState::Count { counts } => counts.resize(n, 0),
            AggState::Avg { sums, counts } => {
                sums.resize(n, 0.0);
                counts.resize(n, 0);
            }
            AggState::MinMax { vals, .. } => vals.resize(n, None),
        }
    }

    /// Folds slot `og` of a partial state into slot `g` of this one.
    fn merge_slot(&mut self, g: usize, other: &AggState, og: usize) {
        match (self, other) {
            (AggState::SumF { sums, touched }, AggState::SumF { sums: os, touched: ot }) => {
                if ot[og] {
                    sums[g] += os[og];
                    touched[g] = true;
                }
            }
            (AggState::SumI { sums, touched }, AggState::SumI { sums: os, touched: ot }) => {
                if ot[og] {
                    sums[g] += os[og];
                    touched[g] = true;
                }
            }
            (AggState::Count { counts }, AggState::Count { counts: oc }) => counts[g] += oc[og],
            (AggState::Avg { sums, counts }, AggState::Avg { sums: os, counts: oc }) => {
                sums[g] += os[og];
                counts[g] += oc[og];
            }
            (AggState::MinMax { vals, is_min }, AggState::MinMax { vals: ov, .. }) => {
                if let Some(v) = &ov[og] {
                    keep_extreme(&mut vals[g], v, *is_min);
                }
            }
            _ => unreachable!("partial states share the aggregate that built them"),
        }
    }

    /// Produces the output column.
    fn finish(self) -> MaskedColumn {
        match self {
            AggState::SumF { sums, touched } => {
                (Column::F64(Arc::new(sums)), null_where(touched.iter().map(|t| !t)))
            }
            AggState::SumI { sums, touched } => {
                (Column::I64(Arc::new(sums)), null_where(touched.iter().map(|t| !t)))
            }
            AggState::Count { counts } => (Column::I64(Arc::new(counts)), None),
            AggState::Avg { sums, counts } => avg_column(&sums, &counts),
            AggState::MinMax { vals, .. } => {
                // Min/Max may be over any type; emit a generic column by
                // materializing values (group counts are small).
                let mask = null_where(vals.iter().map(Option::is_none));
                let first = vals.iter().flatten().next().cloned();
                let col = match first {
                    Some(Value::Float(_)) | None => Column::F64(Arc::new(
                        vals.iter().map(|v| v.as_ref().map_or(0.0, |x| x.as_float())).collect(),
                    )),
                    Some(Value::Int(_)) => Column::I64(Arc::new(
                        vals.iter().map(|v| v.as_ref().map_or(0, |x| x.as_int())).collect(),
                    )),
                    Some(Value::Date(_)) => Column::Date(Arc::new(
                        vals.iter().map(|v| v.as_ref().map_or(0, |x| x.as_date().0)).collect(),
                    )),
                    Some(Value::Str(_)) => Column::Str(Arc::new(
                        vals.iter()
                            .map(|v| v.as_ref().map_or(String::new(), |x| x.as_str().to_string()))
                            .collect(),
                    )),
                    Some(other) => panic!("unsupported MIN/MAX type {other:?}"),
                };
                (col, mask)
            }
        }
    }
}

/// Where an aggregate outside the fused lanes reads its per-row input from:
/// a register of the block program.
enum AggInput {
    /// `COUNT(col)` over a nullable column: its `IS NULL` mask.
    Nulls(usize),
    /// `f64` values.
    F(usize),
    /// Exact `i64` values (integer `SUM`).
    I(usize),
    /// Generic values, NULLs skipped: nullable `COUNT`/`SUM`/`AVG` inputs
    /// and `MIN`/`MAX` over any type.
    V(usize),
}

/// An aggregate folded in a loop of its own: nullable inputs, integer sums,
/// `MIN`/`MAX`.
struct OwnAgg {
    kind: AggKind,
    /// `SUM` over an integer-typed expression accumulates in `i64`.
    int_sum: bool,
    input: AggInput,
}

impl OwnAgg {
    fn new_state(&self) -> AggState {
        match self.kind {
            AggKind::Sum if self.int_sum => {
                AggState::SumI { sums: Vec::new(), touched: Vec::new() }
            }
            AggKind::Sum => AggState::SumF { sums: Vec::new(), touched: Vec::new() },
            AggKind::Count => AggState::Count { counts: Vec::new() },
            AggKind::Avg => AggState::Avg { sums: Vec::new(), counts: Vec::new() },
            AggKind::Min | AggKind::Max => {
                AggState::MinMax { vals: Vec::new(), is_min: self.kind == AggKind::Min }
            }
        }
    }
}

/// Where one aggregate's result comes from. Float `SUM`/`AVG` over inputs
/// that cannot be NULL share *lanes* — one `f64` accumulator per distinct
/// input register, so Q1's `SUM(l_quantity)` and `AVG(l_quantity)` add each
/// value once — and, like `COUNT(*)`, read the group's row count.
enum Agg {
    SumLane(usize),
    AvgLane(usize),
    Rows,
    Own(usize),
}

/// Per-worker scratch of the block fold: the expression registers, the packed
/// keys, the group-id vector and the fold positions of the current block.
/// Grows to the block size once and is reused for every block.
pub(crate) struct FoldScratch {
    regs: Vec<Reg>,
    keys: Vec<i64>,
    /// One byte per row: the packed keys of [`AggFold::fold_keyed`].
    bytes: Vec<u8>,
    tmp: Vec<i64>,
    gid: Vec<u32>,
    pos: Vec<u32>,
}

/// The groups found so far and their accumulators: the running state of a
/// serial fold, one morsel's partial, or the merge target.
pub(crate) struct Groups {
    /// First-occurrence physical row of every group slot.
    pub(crate) reprs: Vec<u32>,
    /// Rows folded into every group slot.
    rows: Vec<i64>,
    /// One accumulator vector per lane.
    lanes: Vec<Vec<f64>>,
    /// One accumulator per [`OwnAgg`].
    own: Vec<AggState>,
}

impl Groups {
    fn grow(&mut self) {
        let n = self.reprs.len();
        self.rows.resize(n, 0);
        self.lanes.iter_mut().for_each(|l| l.resize(n, 0.0));
        self.own.iter_mut().for_each(|s| s.grow(n));
    }
}

/// The slot of a row a keep-mask dropped: it folds into no group.
const DROPPED: u32 = u32::MAX;

/// Stores of at most this many slots — a direct array over a small key domain,
/// or the single slot of a global aggregate — sum in registers (see
/// [`AggFold`]), a direct array folding by packed key, and a key packing
/// whose padded domain fits it packs by bit fields ([`KeyPacker`]). Measured
/// on a Q1-shaped fold of 300k rows (five lanes and a count, keys random or
/// in runs): registers take 0.74–0.87 × the memory path's time up to 64
/// groups and lose from ~128 on. By key, Q1's group ids at SF 0.05 take
/// 0.27–0.34 × the time of the per-row slot lookup they replace
/// (0.29–0.38 ms; EXPERIMENTS.md "Q1, split by phase").
pub(crate) const REGISTER_SLOTS: usize = 64;

/// Calls `f(i)` for the positions `pos` of a block of `n` rows, in order; all
/// of them (`None`) in row order.
#[inline(always)]
fn each(n: usize, pos: Option<&[u32]>, mut f: impl FnMut(usize)) {
    match pos {
        None => (0..n).for_each(f),
        Some(p) => p.iter().for_each(|&i| f(i as usize)),
    }
}

/// Calls `f(slot, value)` for every row of `pos` (see [`each`]), in order.
#[inline]
fn scatter<T>(gid: &[u32], pos: Option<&[u32]>, v: &[T], mut f: impl FnMut(usize, &T)) {
    match pos {
        None => gid.iter().zip(v).for_each(|(&g, x)| f(g as usize, x)),
        Some(_) => each(gid.len(), pos, |i| f(gid[i] as usize, &v[i])),
    }
}

/// Stable, branch-free counting sort of a block's rows by key (see
/// [`KeyPacker::pack_keyed`]): `order` lists the row positions key by key,
/// dropped rows last (the sink key `domain`); key `k` holds
/// `order[bounds[k]..bounds[k + 1]]`. The block is cut into four quarters,
/// counted and placed side by side with a cursor set each, so a run of one
/// key does not chain every row's cursor update through the previous row's
/// store.
fn sort_by_key(keys: &[u8], domain: usize, order: &mut Vec<u32>) -> [usize; REGISTER_SLOTS + 2] {
    const WAYS: usize = 4;
    let quarter = keys.len().div_ceil(WAYS);
    let mut cursors = [[0; REGISTER_SLOTS + 1]; WAYS];
    for j in 0..quarter {
        for (w, counts) in cursors.iter_mut().enumerate() {
            if let Some(&k) = keys.get(w * quarter + j) {
                counts[k as usize] += 1;
            }
        }
    }
    // Key by key, quarter by quarter: each quarter's count becomes its first
    // position.
    let mut bounds = [0; REGISTER_SLOTS + 2];
    let mut at = 0;
    for k in 0..=domain {
        bounds[k] = at;
        for counts in cursors.iter_mut() {
            (counts[k], at) = (at, at + counts[k]);
        }
    }
    bounds[domain + 1] = at;
    order.resize(keys.len(), 0);
    for j in 0..quarter {
        for (w, next) in cursors.iter_mut().enumerate() {
            let i = w * quarter + j;
            if let Some(&k) = keys.get(i) {
                let k = k as usize;
                order[next[k]] = i as u32;
                next[k] += 1;
            }
        }
    }
    bounds
}

/// Adds the inputs of the rows `pos` of a block of `n` rows (see [`each`]),
/// in order, to slot `g` of every lane, the running sums held in locals: up
/// to eight lanes per pass, so the lanes' independent additions overlap while
/// each adds in row order.
fn add_run(n: usize, pos: Option<&[u32]>, inputs: &[&[f64]], lanes: &mut [Vec<f64>], g: usize) {
    for (inputs, lanes) in inputs.chunks(8).zip(lanes.chunks_mut(8)) {
        match inputs.len() {
            1 => add_lanes::<1>(n, pos, inputs, lanes, g),
            2 => add_lanes::<2>(n, pos, inputs, lanes, g),
            3 => add_lanes::<3>(n, pos, inputs, lanes, g),
            4 => add_lanes::<4>(n, pos, inputs, lanes, g),
            5 => add_lanes::<5>(n, pos, inputs, lanes, g),
            6 => add_lanes::<6>(n, pos, inputs, lanes, g),
            7 => add_lanes::<7>(n, pos, inputs, lanes, g),
            _ => add_lanes::<8>(n, pos, inputs, lanes, g),
        }
    }
}

#[inline(always)]
fn add_lanes<const K: usize>(
    n: usize,
    pos: Option<&[u32]>,
    inputs: &[&[f64]],
    lanes: &mut [Vec<f64>],
    g: usize,
) {
    let v: [&[f64]; K] = std::array::from_fn(|l| &inputs[l][..n]);
    let mut acc: [f64; K] = std::array::from_fn(|l| lanes[l][g]);
    each(n, pos, |i| {
        for l in 0..K {
            acc[l] += v[l][i];
        }
    });
    for (lane, acc) in lanes.iter_mut().zip(acc) {
        lane[g] = acc;
    }
}

/// The aggregation of one `Agg` operator, compiled for block-at-a-time
/// folding: all aggregate inputs as one [`BlockExprs`] program plus, per
/// aggregate, where its accumulator lives. Shared read-only by morsel
/// workers.
///
/// Per block: resolve group ids, evaluate the program once, then scatter
/// **in row order** — the lanes in one fused loop (independent accumulators
/// overlap in the pipeline; a loop per aggregate would serialize on the
/// store-to-load dependency of consecutive rows of one group), the rest in
/// a loop each. A direct store of 2 to [`REGISTER_SLOTS`] slots first
/// counting-sorts the block's rows by packed key and adds each group's rows
/// into locals written back once per block, which removes that dependency;
/// a store of one slot (a global aggregate, or a key of one value) skips the
/// sort, its run being the block's kept rows, already in order. Under a
/// keep-mask only the rows it flags fold. Every float sum adds the same
/// values in the same order as a row-at-a-time fold over the kept rows.
pub(crate) struct AggFold {
    exprs: BlockExprs,
    /// Input register of every lane.
    lane_regs: Vec<usize>,
    own: Vec<OwnAgg>,
    aggs: Vec<Agg>,
}

impl AggFold {
    pub(crate) fn compile(specs: &[AggSpec], chunk: &Chunk, compiled: bool) -> AggFold {
        let mut fold = AggFold {
            exprs: BlockExprs::new(),
            lane_regs: Vec::new(),
            own: Vec::new(),
            aggs: Vec::new(),
        };
        for spec in specs {
            let e = &spec.expr;
            let agg = fold.compile_agg(&spec.kind, e, chunk, compiled);
            fold.aggs.push(agg);
        }
        fold
    }

    /// The lane accumulating register `r`, shared by every aggregate over it.
    fn lane(&mut self, r: usize) -> usize {
        self.lane_regs.iter().position(|&l| l == r).unwrap_or_else(|| {
            self.lane_regs.push(r);
            self.lane_regs.len() - 1
        })
    }

    fn compile_agg(&mut self, kind: &AggKind, e: &Expr, chunk: &Chunk, compiled: bool) -> Agg {
        let int_sum = *kind == AggKind::Sum && e.ty(&chunk.schema) == Type::Int;
        let mut refs = Vec::new();
        e.collect_cols(&mut refs);
        let nullable = refs.iter().any(|&c| chunk.nulls[c].is_some());
        let input = match kind {
            AggKind::Count if !nullable => return Agg::Rows,
            AggKind::Count if matches!(e, Expr::Col(_)) => {
                AggInput::Nulls(self.exprs.mask_reg(&Expr::is_null(e.clone()), chunk, true))
            }
            // SQL aggregates skip NULL inputs: one generic evaluation gives
            // the value and whether it is NULL.
            AggKind::Count | AggKind::Min | AggKind::Max => {
                AggInput::V(self.exprs.value_reg(e, chunk, compiled))
            }
            AggKind::Sum | AggKind::Avg if nullable => {
                AggInput::V(self.exprs.value_reg(e, chunk, compiled))
            }
            AggKind::Sum | AggKind::Avg => {
                if let Some(r) =
                    (int_sum && compiled).then(|| self.exprs.i64_reg(e, chunk)).flatten()
                {
                    AggInput::I(r)
                } else {
                    let r = self.exprs.f64_reg(e, chunk, compiled);
                    if !int_sum {
                        let lane = self.lane(r);
                        return if *kind == AggKind::Sum {
                            Agg::SumLane(lane)
                        } else {
                            Agg::AvgLane(lane)
                        };
                    }
                    AggInput::F(r)
                }
            }
        };
        self.own.push(OwnAgg { kind: kind.clone(), int_sum, input });
        Agg::Own(self.own.len() - 1)
    }

    /// Fresh per-worker scratch.
    pub(crate) fn scratch(&self) -> FoldScratch {
        FoldScratch {
            regs: self.exprs.scratch(),
            keys: Vec::new(),
            bytes: Vec::new(),
            tmp: Vec::new(),
            gid: Vec::new(),
            pos: Vec::new(),
        }
    }

    /// An empty group set.
    pub(crate) fn groups(&self) -> Groups {
        Groups {
            reprs: Vec::new(),
            rows: Vec::new(),
            lanes: vec![Vec::new(); self.lane_regs.len()],
            own: self.own.iter().map(OwnAgg::new_state).collect(),
        }
    }

    /// The single group of a global aggregate over no rows: `COUNT` 0,
    /// every other aggregate NULL.
    pub(crate) fn add_empty_group(&self, groups: &mut Groups) {
        groups.reprs.push(0);
        groups.grow();
    }

    /// Folds one block of rows into `groups`, whose slots `resolver` numbers;
    /// under `keep`, only the rows it flags.
    pub(crate) fn fold_block(
        &self,
        chunk: &Chunk,
        rows: &Rows<'_>,
        keep: Option<&[bool]>,
        resolver: &mut GroupResolver,
        groups: &mut Groups,
        s: &mut FoldScratch,
    ) {
        let one_slot = match (resolver.register_slots(), &mut *resolver) {
            (Some(2..), GroupResolver::Direct { keys, slots }) => {
                return self.fold_keyed(rows, keep, keys, slots, groups, s);
            }
            (slots, _) => slots == Some(1),
        };
        let n = rows.len();
        resolver.resolve(chunk, rows, keep, s, &mut groups.reprs);
        self.exprs.eval(rows, &mut s.regs);
        groups.grow();
        let (gid, regs) = (&s.gid[..], &s.regs[..]);
        let inputs: Vec<&[f64]> =
            self.lane_regs.iter().map(|&r| self.exprs.f(regs, r, rows)).collect();
        // The positions every aggregate folds, each group's rows in row order:
        // all rows (`None`) or the kept ones.
        let pos = keep.map(|m| {
            s.pos.clear();
            compact(m, 0..m.len() as u32, &mut s.pos);
            &s.pos[..]
        });
        let (counts, lanes) = (&mut groups.rows, &mut groups.lanes);
        if one_slot {
            // One slot: the kept rows are its run, already in row order — no
            // sort — and add in registers.
            let run = pos.map_or(n, <[u32]>::len);
            if run > 0 {
                counts[0] += run as i64;
                add_run(n, pos, &inputs, lanes, 0);
            }
        } else {
            each(n, pos, |i| {
                let g = gid[i] as usize;
                counts[g] += 1;
                for (sums, v) in lanes.iter_mut().zip(&inputs) {
                    sums[g] += v[i];
                }
            });
        }
        self.fold_own(rows, gid, pos, regs, &mut groups.own, one_slot);
    }

    /// [`AggFold::fold_block`] over a direct store of 2 to [`REGISTER_SLOTS`]
    /// slots: one pass writes every row's key ([`KeyPacker::pack_keyed`]),
    /// the counting sort buckets the rows by key, the keys first seen in
    /// this block take the next slots in the order of their first rows (the
    /// group's representative) and each key's run adds into its slot in
    /// registers.
    /// No row looks up its slot unless an aggregate outside the lanes reads
    /// per-row slots. Group order, each group's add order and so every
    /// result bit are those of the per-row path.
    fn fold_keyed(
        &self,
        rows: &Rows<'_>,
        keep: Option<&[bool]>,
        keys: &KeyPacker,
        slots: &mut [i32],
        groups: &mut Groups,
        s: &mut FoldScratch,
    ) {
        let (n, domain) = (rows.len(), keys.domain as usize);
        keys.pack_keyed(rows, keep, &mut s.bytes, &mut s.tmp);
        self.exprs.eval(rows, &mut s.regs);
        let bounds = sort_by_key(&s.bytes, domain, &mut s.pos);
        // A run starts at its key's first row in the block: the sort is
        // stable.
        let mut fresh = [(0u32, 0u8); REGISTER_SLOTS];
        let mut new = 0;
        for key in 0..domain {
            if slots[key] < 0 && bounds[key] < bounds[key + 1] {
                fresh[new] = (s.pos[bounds[key]], key as u8);
                new += 1;
            }
        }
        fresh[..new].sort_unstable();
        for &(first, key) in &fresh[..new] {
            slots[key as usize] = groups.reprs.len() as i32;
            groups.reprs.push(rows.phys(first as usize) as u32);
        }
        groups.grow();
        let regs = &s.regs[..];
        let inputs: Vec<&[f64]> =
            self.lane_regs.iter().map(|&r| self.exprs.f(regs, r, rows)).collect();
        for key in 0..domain {
            let run = &s.pos[bounds[key]..bounds[key + 1]];
            if !run.is_empty() {
                let g = slots[key] as usize;
                groups.rows[g] += run.len() as i64;
                add_run(n, Some(run), &inputs, &mut groups.lanes, g);
            }
        }
        if !self.own.is_empty() {
            let slot = |key: u8| slots.get(key as usize).map_or(DROPPED, |&g| g as u32);
            s.gid.clear();
            s.gid.extend(s.bytes.iter().map(|&key| slot(key)));
            let pos = Some(&s.pos[..bounds[domain]]);
            self.fold_own(rows, &s.gid, pos, regs, &mut groups.own, false);
        }
    }

    /// Folds the rows `pos` of a block (see [`each`]) into the accumulators
    /// of the aggregates outside the lanes, a loop each, through the rows'
    /// slots `gid`.
    fn fold_own(
        &self,
        rows: &Rows<'_>,
        gid: &[u32],
        pos: Option<&[u32]>,
        regs: &[Reg],
        own: &mut [AggState],
        one_slot: bool,
    ) {
        let n = rows.len();
        let f = |r: usize| self.exprs.f(regs, r, rows);
        let vals = |r: usize| &regs[r].v()[..n];
        for (agg, state) in self.own.iter().zip(own) {
            match (state, &agg.input) {
                (AggState::SumF { sums, touched }, AggInput::V(r)) => {
                    scatter(gid, pos, vals(*r), |g, v| {
                        if !v.is_null() {
                            sums[g] += v.as_float();
                            touched[g] = true;
                        }
                    });
                }
                (AggState::SumI { sums, touched }, AggInput::I(r)) if one_slot => {
                    // One slot: its run adds in a local, as the lanes do.
                    let x = &regs[*r].i()[..n];
                    if pos.map_or(n, <[u32]>::len) > 0 {
                        let mut sum = sums[0];
                        each(n, pos, |i| sum += x[i]);
                        sums[0] = sum;
                        touched[0] = true;
                    }
                }
                (AggState::SumI { sums, touched }, AggInput::I(r)) => {
                    scatter(gid, pos, &regs[*r].i()[..n], |g, &x| {
                        sums[g] += x;
                        touched[g] = true;
                    });
                }
                (AggState::SumI { sums, touched }, AggInput::F(r)) => {
                    scatter(gid, pos, f(*r), |g, &x| {
                        sums[g] += x as i64;
                        touched[g] = true;
                    });
                }
                (AggState::SumI { sums, touched }, AggInput::V(r)) => {
                    scatter(gid, pos, vals(*r), |g, v| {
                        if !v.is_null() {
                            sums[g] += v.as_float() as i64;
                            touched[g] = true;
                        }
                    });
                }
                (AggState::Count { counts }, AggInput::Nulls(m)) => {
                    scatter(gid, pos, &regs[*m].b()[..n], |g, &null| {
                        counts[g] += !null as i64;
                    });
                }
                (AggState::Count { counts }, AggInput::V(r)) => {
                    scatter(gid, pos, vals(*r), |g, v| counts[g] += !v.is_null() as i64);
                }
                (AggState::Avg { sums, counts }, AggInput::V(r)) => {
                    scatter(gid, pos, vals(*r), |g, v| {
                        if !v.is_null() {
                            sums[g] += v.as_float();
                            counts[g] += 1;
                        }
                    });
                }
                (AggState::MinMax { vals: extremes, is_min }, AggInput::V(r)) => {
                    scatter(gid, pos, vals(*r), |g, v| {
                        if !v.is_null() {
                            keep_extreme(&mut extremes[g], v, *is_min);
                        }
                    });
                }
                _ => unreachable!("state built by OwnAgg::new_state of this aggregate"),
            }
        }
    }

    /// Takes a finished morsel's partial out of a worker's running state,
    /// leaving resolver and groups empty for the next morsel.
    pub(crate) fn take_partial(
        &self,
        resolver: &mut GroupResolver,
        groups: &mut Groups,
        s: &mut FoldScratch,
    ) -> Groups {
        resolver.reset(&groups.reprs, s);
        std::mem::replace(groups, self.groups())
    }

    /// Merges one morsel's partial into `into`. Called in morsel-index
    /// order, so every floating-point reassociation point is a fixed morsel
    /// boundary (degree-independent); resolving the partial's
    /// first-occurrence rows, in local slot order, numbers the global slots
    /// exactly as a serial pass over the rows would (a group's first global
    /// occurrence is in the earliest morsel containing it).
    pub(crate) fn merge(
        &self,
        chunk: &Chunk,
        resolver: &mut GroupResolver,
        into: &mut Groups,
        part: &Groups,
        s: &mut FoldScratch,
    ) {
        resolver.resolve(chunk, &Rows::Ids(&part.reprs), None, s, &mut into.reprs);
        into.grow();
        for (local, &g) in s.gid.iter().enumerate() {
            let g = g as usize;
            into.rows[g] += part.rows[local];
            for (sums, partial) in into.lanes.iter_mut().zip(&part.lanes) {
                sums[g] += partial[local];
            }
            for (state, partial) in into.own.iter_mut().zip(&part.own) {
                state.merge_slot(g, partial, local);
            }
        }
    }

    /// The aggregate output columns, in `AggSpec` order.
    pub(crate) fn finish(&self, groups: Groups) -> Vec<MaskedColumn> {
        let Groups { rows, lanes, own, .. } = groups;
        let mut own: Vec<Option<AggState>> = own.into_iter().map(Some).collect();
        self.aggs
            .iter()
            .map(|agg| match agg {
                Agg::SumLane(l) => (
                    Column::F64(Arc::new(lanes[*l].clone())),
                    null_where(rows.iter().map(|&c| c == 0)),
                ),
                Agg::AvgLane(l) => avg_column(&lanes[*l], &rows),
                Agg::Rows => (Column::I64(Arc::new(rows.clone())), None),
                Agg::Own(i) => own[*i].take().expect("one output per aggregate").finish(),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use legobase_storage::column::ColumnTable;
    use legobase_storage::{Date, DictKind, Type};

    fn chunk(dict: Option<DictKind>) -> Chunk {
        let schema = Schema::of(&[
            ("k", Type::Int),
            ("p", Type::Float),
            ("mode", Type::Str),
            ("d", Type::Date),
        ]);
        let mut ct = ColumnTable::with_capacity(schema.clone(), 8);
        let modes = ["MAIL", "SHIP", "AIR", "REG AIR"];
        for i in 0..8i64 {
            ct.push([
                Value::Int(i),
                Value::Float(i as f64 / 2.0),
                Value::from(modes[i as usize % 4]),
                Value::Date(Date::from_ymd(1993 + (i % 3) as i32, 1, 1)),
            ]);
        }
        if let Some(kind) = dict {
            ct.columns[2] = ct.columns[2].dict_encoded(kind);
        }
        Chunk {
            schema,
            nulls: vec![None; ct.columns.len()],
            cols: ct.columns,
            sel: None,
            total: ct.len,
            base: None,
        }
    }

    /// Re-encodes every encodable column in place (packed ints/dates/codes).
    fn encode_chunk(mut ch: Chunk) -> Chunk {
        for c in ch.cols.iter_mut() {
            if let Some(enc) = c.encode() {
                *c = enc;
            }
        }
        ch
    }

    /// The interpreter's value of `e` on every logical row: the reference
    /// every block path is held to.
    fn interpreted(e: &Expr, ch: &Chunk) -> Vec<Value> {
        (0..ch.len()).map(|i| interp::eval(e, &ch.row_values(i))).collect()
    }

    fn interpreted_mask(e: &Expr, ch: &Chunk) -> Vec<bool> {
        interpreted(e, ch).iter().map(Value::as_bool).collect()
    }

    /// The block predicates must agree with the interpreter on every row,
    /// over every dictionary kind (prefix ranges over an ordered one, token
    /// scans over a word-token one) and plain strings, plain and packed.
    #[test]
    fn kernels_agree_with_interpreter() {
        let exprs = vec![
            Expr::and(
                Expr::ge(Expr::col(0), Expr::lit(2i64)),
                Expr::lt(Expr::col(1), Expr::lit(3.0)),
            ),
            Expr::eq(Expr::col(2), Expr::lit("SHIP")),
            Expr::ne(Expr::col(2), Expr::lit("MAIL")),
            Expr::eq(Expr::col(2), Expr::lit("NOPE")),
            Expr::starts_with(Expr::col(2), "REG"),
            Expr::ends_with(Expr::col(2), "AIR"),
            Expr::contains(Expr::col(2), "HI"),
            Expr::in_list(Expr::col(2), vec!["AIR".into(), "SHIP".into()]),
            Expr::in_list(Expr::col(0), vec![Value::Int(1), Value::Int(5)]),
            Expr::lt(Expr::col(3), Expr::lit(Date::from_ymd(1994, 6, 1))),
            Expr::ge(Expr::col(2), Expr::lit("MAIL")),
            Expr::word_seq(Expr::col(2), "REG", "AIR"),
            Expr::word_seq(Expr::col(2), "AIR", "REG"),
            Expr::starts_with(Expr::col(2), "AIR"),
            Expr::starts_with(Expr::col(2), "SHIP"),
            Expr::starts_with(Expr::col(2), "NOPE"),
            Expr::or(
                Expr::not(Expr::eq(Expr::col(2), Expr::lit("AIR"))),
                Expr::eq(Expr::col(0), Expr::lit(2i64)),
            ),
        ];
        for dict in
            [None, Some(DictKind::Normal), Some(DictKind::Ordered), Some(DictKind::WordToken)]
        {
            for encoded in [false, true] {
                let ch = if encoded { encode_chunk(chunk(dict)) } else { chunk(dict) };
                for e in &exprs {
                    for compiled in [true, false] {
                        assert_eq!(
                            eval_bool_column(e, &ch, compiled),
                            interpreted_mask(e, &ch),
                            "expr {e} dict {dict:?} encoded {encoded} compiled {compiled}"
                        );
                    }
                }
            }
        }
    }

    /// The packed fast path must clamp out-of-domain literals per operator
    /// and agree with plain evaluation inside the domain, including when the
    /// literal sits on the left.
    #[test]
    fn packed_comparisons_match_plain() {
        let plain = chunk(None);
        let packed = encode_chunk(chunk(None));
        assert!(matches!(packed.cols[0], Column::I64Packed(_)));
        assert!(matches!(packed.cols[3], Column::DatePacked(_)));
        let mut exprs = Vec::new();
        // Column values are 0..8; -3 and 99 are outside the packed domain.
        for lit in [-3i64, 0, 4, 7, 99] {
            for (a, b) in [
                (Expr::col(0), Expr::lit(lit)),
                (Expr::lit(lit), Expr::col(0)), // literal on the left
            ] {
                for op in [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge] {
                    exprs.push(Expr::Cmp(op, Box::new(a.clone()), Box::new(b.clone())));
                }
            }
        }
        exprs.push(Expr::lt(Expr::col(3), Expr::lit(Date::from_ymd(1994, 6, 1))));
        exprs.push(Expr::ge(Expr::col(3), Expr::lit(Date::from_ymd(1800, 1, 1))));
        for e in &exprs {
            let expect = interpreted_mask(e, &plain);
            assert_eq!(eval_bool_column(e, &plain, true), expect, "expr {e} plain");
            assert_eq!(eval_bool_column(e, &packed, true), expect, "expr {e} packed");
        }
    }

    #[test]
    fn numeric_kernels() {
        let ch = chunk(None);
        let e = Expr::mul(Expr::col(1), Expr::sub(Expr::lit(1.0), Expr::col(1)));
        for (r, k) in eval_f64_column(&e, &ch, true).into_iter().enumerate() {
            let x = r as f64 / 2.0;
            assert!((k - x * (1.0 - x)).abs() < 1e-12);
        }
        let y = eval_f64_column(&Expr::year(Expr::col(3)), &ch, true);
        assert_eq!(y[..2], [1993.0, 1994.0]);
        let c = eval_f64_column(
            &Expr::case(Expr::lt(Expr::col(0), Expr::lit(4i64)), Expr::lit(1.0), Expr::lit(0.0)),
            &ch,
            true,
        );
        assert_eq!((c[0], c[7]), (1.0, 0.0));
        // `YEAR` and `CASE` are block nodes, the interpreter's values.
        for e in [
            Expr::year(Expr::col(3)),
            Expr::case(Expr::lt(Expr::col(0), Expr::lit(4i64)), Expr::col(1), Expr::lit(0.0)),
        ] {
            let mut prog = BlockExprs::new();
            prog.f64_reg(&e, &ch, true);
            assert!(!prog.nodes.iter().any(|n| matches!(n, Node::Interp { .. })), "{e}");
            let expect: Vec<f64> = interpreted(&e, &ch).iter().map(Value::as_float).collect();
            assert_eq!(eval_f64_column(&e, &ch, true), expect, "{e}");
        }
    }

    #[test]
    fn key_sources_cover_groupable_kinds() {
        let ch = chunk(Some(DictKind::Normal));
        assert_eq!(key_src(0, &ch).unwrap().get(3), 3);
        let dk = key_src(2, &ch).unwrap();
        assert_eq!(dk.get(0), 0); // first distinct value gets code 0
        assert_eq!(dk.get(4), 0); // same mode repeats
        assert!(key_src(2, &chunk(None)).is_none()); // plain strings
        assert!(key_src(3, &ch).is_some()); // dates

        // Packed layouts produce the same key codes as plain ones, by random
        // access and by block load.
        let enc = encode_chunk(chunk(Some(DictKind::Normal)));
        for col in [0usize, 2, 3] {
            let (kp, ke) = (key_src(col, &ch).unwrap(), key_src(col, &enc).unwrap());
            let (mut bp, mut be) = (vec![0; ch.total], vec![0; ch.total]);
            kp.load(&Rows::Range(0..ch.total), &mut bp);
            ke.load(&Rows::Range(0..ch.total), &mut be);
            for r in 0..ch.total {
                assert_eq!(kp.get(r), ke.get(r), "col {col} row {r}");
                assert_eq!((bp[r], be[r]), (kp.get(r), kp.get(r)), "col {col} row {r}");
            }
        }

        // Packed keys: a physical range (plain columns add straight from
        // their slices) and the same rows as ids (gathered) give the keys the
        // per-row codes define, over plain integer, dictionary, date and
        // boolean columns and their packed forms.
        let with_flag = |mut ch: Chunk| {
            ch.schema = ch.schema.concat(&Schema::of(&[("flag", Type::Bool)]));
            ch.cols.push(Column::Bool(Arc::new((0..ch.total).map(|r| r % 3 == 0).collect())));
            ch.nulls.push(None);
            ch
        };
        let ids: Vec<u32> = (0..ch.total as u32).collect();
        for ch in [with_flag(ch.clone()), with_flag(enc)] {
            for group_by in [&[0usize][..], &[2], &[3], &[4], &[2, 3, 4], &[0, 2, 3, 4]] {
                let keys = KeyPacker::fit(group_by, &ch).expect("coded keys");
                let expect: Vec<i64> = (0..ch.total)
                    .map(|p| {
                        let codes = group_by.iter().map(|&c| key_src(c, &ch).unwrap().get(p));
                        let fields = codes.zip(&keys.mins).zip(&keys.strides);
                        fields.map(|((v, min), stride)| (v - min) * stride).sum()
                    })
                    .collect();
                let (mut by_range, mut by_ids, mut tmp) = (Vec::new(), Vec::new(), Vec::new());
                keys.pack(&Rows::Range(0..ch.total), &mut by_range, &mut tmp);
                keys.pack(&Rows::Ids(&ids), &mut by_ids, &mut tmp);
                assert_eq!(by_range, expect, "range, group by {group_by:?}");
                assert_eq!(by_ids, expect, "ids, group by {group_by:?}");
                // A domain of at most `REGISTER_SLOTS` (`k`: 8 values,
                // `mode`: 4, `flag`: 2; not the dates' 731 days) writes the
                // same keys as bytes, and a dropped row the sink bucket.
                let small = keys.domain <= REGISTER_SLOTS as i64;
                assert_eq!(small, !group_by.contains(&3), "group by {group_by:?}");
                if small {
                    let keep: Vec<bool> = (0..ch.total).map(|r| r % 2 == 0).collect();
                    let mut bytes = Vec::new();
                    for rows in [Rows::Range(0..ch.total), Rows::Ids(&ids)] {
                        keys.pack_keyed(&rows, None, &mut bytes, &mut tmp);
                        assert!(bytes.iter().zip(&expect).all(|(&b, &k)| b as i64 == k));
                        keys.pack_keyed(&rows, Some(&keep), &mut bytes, &mut tmp);
                        let sink = keys.domain as u8;
                        let masked = expect.iter().zip(&keep).map(|(&k, &kept)| kept as i64 * k);
                        let dropped = keep.iter().map(|&kept| (!kept as u8) * sink);
                        let expect: Vec<u8> =
                            masked.zip(dropped).map(|(k, d)| k as u8 | d).collect();
                        assert_eq!(bytes, expect, "masked, group by {group_by:?}");
                    }
                }
            }
        }
        // A nullable key has no code: the store falls back to generic keys.
        let mut nullable = ch.clone();
        nullable.nulls[0] = Some(Arc::new(vec![false; nullable.total]));
        assert!(KeyPacker::fit(&[0, 2], &nullable).is_none());
    }

    /// The block selection must select exactly the rows the interpreter
    /// selects, over plain and packed layouts, at every block split. (The
    /// seeded matrix lives in `block_tests.rs`; this pins the named shapes.)
    #[test]
    fn block_selection_matches_per_row_path() {
        let exprs = vec![
            Expr::lt(Expr::col(0), Expr::col(3)),
            Expr::and(
                Expr::ge(Expr::col(0), Expr::lit(1i64)),
                Expr::lt(Expr::col(0), Expr::col(3)),
            ),
            Expr::and(
                Expr::lt(Expr::col(0), Expr::col(3)),
                Expr::eq(Expr::col(2), Expr::lit("SHIP")),
            ),
            Expr::and(Expr::lt(Expr::col(1), Expr::lit(2.5)), Expr::gt(Expr::col(3), Expr::col(0))),
            Expr::in_list(Expr::col(2), vec![Value::from("SHIP"), Value::from("MAIL")]),
            Expr::and(
                Expr::ge(Expr::col(2), Expr::lit("MAIL")),
                Expr::gt(Expr::col(0), Expr::lit(0i64)),
            ),
            Expr::or(
                Expr::eq(Expr::col(2), Expr::lit("NO-SUCH-MODE")),
                Expr::starts_with(Expr::col(2), "REG"),
            ),
            Expr::not(Expr::and(
                Expr::contains(Expr::col(2), "AI"),
                Expr::le(Expr::col(1), Expr::col(0)),
            )),
        ];
        for ch in [chunk(Some(DictKind::Normal)), encode_chunk(chunk(Some(DictKind::Normal)))] {
            for e in &exprs {
                let per_row = interpreted_mask(e, &ch);
                let expect: Vec<u32> =
                    (0..ch.total).filter(|&r| per_row[r]).map(|r| r as u32).collect();
                for compiled in [true, false] {
                    let filter = BlockSel::compile(e, &ch, compiled);
                    for step in [1usize, 3, ch.total] {
                        let (mut regs, mut got) = (filter.scratch(), Vec::new());
                        for start in (0..ch.total).step_by(step) {
                            let rows = Rows::Range(start..(start + step).min(ch.total));
                            filter.select(&rows, &mut regs, &mut got);
                        }
                        assert_eq!(got, expect, "expr {e} step {step} compiled {compiled}");
                    }
                    assert_eq!(eval_bool_column(e, &ch, compiled), per_row);
                }
            }
        }
        // Comparisons, dictionary tests and LIKE are all typed nodes: none
        // needs the per-row node, over a dictionary or plain strings.
        for ch in [chunk(Some(DictKind::Normal)), chunk(None)] {
            for e in &exprs {
                let filter = BlockSel::compile(e, &ch, true);
                let per_row =
                    filter.exprs.nodes.iter().filter(|n| matches!(n, Node::Interp { .. }));
                assert_eq!(per_row.count(), 0, "{e}");
            }
        }
    }

    /// Comparison-shaped residuals over non-nullable int / date / float
    /// columns and literals compile to the typed pair kernel; everything
    /// else keeps the interpreter. (`block_tests.rs` holds both to the
    /// interpreter's answers.)
    #[test]
    fn pair_residuals_compile_typed_where_they_can() {
        let (l, mut r) = (chunk(Some(DictKind::Normal)), encode_chunk(chunk(None)));
        let rc = |c: usize| Expr::col(l.cols.len() + c);
        let typed = |e: &Expr, l: &Chunk, r: &Chunk| {
            matches!(PairPred::compile(e, l, r).0, PairKind::Typed(_))
        };
        for e in [
            Expr::ne(rc(0), Expr::col(0)),
            Expr::lt(Expr::col(3), rc(3)),
            Expr::ge(rc(1), Expr::col(0)), // float against int
            Expr::and(Expr::gt(rc(0), Expr::lit(3i64)), Expr::le(Expr::lit(0.5), Expr::col(1))),
        ] {
            assert!(typed(&e, &l, &r), "{e}");
        }
        for e in [
            Expr::eq(Expr::col(2), rc(2)), // strings
            Expr::lt(Expr::col(3), rc(0)), // a date orders against no number
            Expr::or(Expr::ne(rc(0), Expr::col(0)), Expr::lt(Expr::col(1), rc(1))),
        ] {
            assert!(!typed(&e, &l, &r), "{e}");
        }
        // A nullable operand keeps the interpreter's NULL handling.
        let e = Expr::ne(rc(0), Expr::col(0));
        r.nulls[0] = Some(Arc::new(vec![false; r.total]));
        assert!(!typed(&e, &l, &r));
    }

    #[test]
    fn null_masks_respected() {
        let mut ch = chunk(None);
        let mask = vec![false, true, false, true, false, true, false, true];
        ch.nulls[0] = Some(Arc::new(mask));
        let is_null = eval_bool_column(&Expr::is_null(Expr::col(0)), &ch, true);
        assert!(!is_null[0] && is_null[1]);
        // Comparison with a NULL operand is false.
        let cmp = eval_bool_column(&Expr::eq(Expr::col(0), Expr::lit(1i64)), &ch, true);
        assert!(!cmp[1] && !cmp[0]);
        let v = eval_value_column(&Expr::col(0), &ch, true);
        assert!(v[1].is_null());
        assert_eq!(v[2], Value::Int(2));
        // Every shape over a nullable input is the interpreter's.
        for e in [
            Expr::is_null(Expr::col(0)),
            Expr::not(Expr::is_null(Expr::col(0))),
            Expr::eq(Expr::col(0), Expr::lit(1i64)),
            Expr::in_list(Expr::col(0), vec![Value::Int(1), Value::Int(2)]),
            Expr::and(
                Expr::lt(Expr::col(1), Expr::lit(3.0)),
                Expr::ge(Expr::col(0), Expr::lit(2i64)),
            ),
            Expr::or(
                Expr::lt(Expr::col(1), Expr::lit(1.0)),
                Expr::is_null(Expr::add(Expr::col(0), Expr::lit(1i64))),
            ),
        ] {
            for compiled in [true, false] {
                assert_eq!(eval_bool_column(&e, &ch, compiled), interpreted_mask(&e, &ch), "{e}");
            }
        }
        let sum = Expr::add(Expr::col(0), Expr::col(1));
        assert_eq!(eval_value_column(&sum, &ch, true), interpreted(&sum, &ch));
        // String tests and `YEAR` over a NULL cell follow the interpreter,
        // never the placeholder behind the mask: over plain strings and
        // every dictionary kind, plain and packed.
        let year = Expr::year(Expr::col(3));
        let shapes = [
            Expr::eq(Expr::col(2), Expr::lit("SHIP")),
            Expr::not(Expr::eq(Expr::col(2), Expr::lit("AIR"))),
            Expr::ge(Expr::col(2), Expr::lit("MAIL")),
            Expr::starts_with(Expr::col(2), "REG"),
            Expr::starts_with(Expr::col(2), "AIR"),
            Expr::ends_with(Expr::col(2), "AIR"),
            Expr::contains(Expr::col(2), "HI"),
            Expr::in_list(Expr::col(2), vec!["AIR".into(), "SHIP".into()]),
            Expr::word_seq(Expr::col(2), "REG", "AIR"),
            Expr::is_null(Expr::col(2)),
            Expr::eq(year.clone(), Expr::lit(1994i64)),
            Expr::not(Expr::lt(year.clone(), Expr::lit(1994i64))),
            Expr::is_null(year.clone()),
        ];
        for dict in
            [None, Some(DictKind::Normal), Some(DictKind::Ordered), Some(DictKind::WordToken)]
        {
            for encoded in [false, true] {
                let mut ch = if encoded { encode_chunk(chunk(dict)) } else { chunk(dict) };
                for c in [2, 3] {
                    let mask = (0..8).map(|r| (r + c) % 3 == 0).collect();
                    ch.nulls[c] = Some(Arc::new(mask));
                }
                for e in &shapes {
                    for compiled in [true, false] {
                        assert_eq!(
                            eval_bool_column(e, &ch, compiled),
                            interpreted_mask(e, &ch),
                            "expr {e} dict {dict:?} encoded {encoded} compiled {compiled}"
                        );
                    }
                }
                assert_eq!(eval_value_column(&year, &ch, true), interpreted(&year, &ch));
            }
        }
    }

    #[test]
    fn selection_mapping() {
        let mut ch = chunk(None);
        ch.sel = Some(Arc::new(vec![6, 2, 4]));
        assert_eq!(ch.len(), 3);
        assert_eq!(ch.phys(1), 2);
        assert_eq!(ch.row_values(0)[0], Value::Int(6));
        let mut phys = Vec::new();
        ch.for_each_block(0..ch.len(), |rows| rows.for_each(|_, p| phys.push(p)));
        assert_eq!(phys, vec![6, 2, 4]);
    }

    /// Blocks cover exactly the requested logical range, in order, at most
    /// `BLOCK_ROWS` rows each, with and without a selection vector.
    #[test]
    fn blocks_cover_the_logical_range_in_order() {
        let mut ch = chunk(None);
        ch.total = 2 * BLOCK_ROWS + 5; // only ids are read here
        let collect = |ch: &Chunk, range: std::ops::Range<usize>| {
            let (mut ids, mut sizes) = (Vec::new(), Vec::new());
            ch.for_each_block(range, |rows| {
                sizes.push(rows.len());
                rows.for_each(|i, p| {
                    assert_eq!(rows.phys(i), p);
                    ids.push(p);
                });
            });
            (ids, sizes)
        };
        let (ids, sizes) = collect(&ch, 3..ch.total);
        assert_eq!(ids, (3..ch.total).collect::<Vec<_>>());
        assert_eq!(sizes, vec![BLOCK_ROWS, BLOCK_ROWS, 2]);
        assert!(collect(&ch, 7..7).0.is_empty());
        let sel: Vec<u32> = (0..ch.total as u32).rev().step_by(2).collect();
        ch.sel = Some(Arc::new(sel.clone()));
        let (ids, sizes) = collect(&ch, 1..sel.len());
        assert_eq!(ids, sel[1..].iter().map(|&p| p as usize).collect::<Vec<_>>());
        assert_eq!(sizes, vec![BLOCK_ROWS, 2]);
    }

    /// The block program computes, bit for bit, what the interpreter
    /// computes for the column an expression's type materializes (`f64` for
    /// floats, `i64` for integers) — over plain and packed columns, with and
    /// without a selection — and shares structurally equal subexpressions.
    #[test]
    fn block_exprs_match_row_kernels() {
        let price = || Expr::mul(Expr::col(1), Expr::sub(Expr::lit(1i64), Expr::col(1)));
        let div_by_3 = Expr::div(Expr::col(0), Expr::lit(3i64));
        let exprs = vec![
            Expr::col(1),
            Expr::col(0),
            price(),
            Expr::mul(price(), Expr::add(Expr::lit(1.0), Expr::col(0))),
            div_by_3.clone(),
            Expr::add(Expr::year(Expr::col(3)), Expr::col(0)),
            Expr::case(Expr::lt(Expr::col(0), Expr::lit(4i64)), Expr::col(1), Expr::lit(0.0)),
        ];
        for encoded in [false, true] {
            for sel in [None, Some(vec![6u32, 2, 4, 4])] {
                let mut ch = if encoded { encode_chunk(chunk(None)) } else { chunk(None) };
                ch.sel = sel.map(Arc::new);
                for e in &exprs {
                    let expect = interpreted(e, &ch);
                    for compiled in [true, false] {
                        let case = format!("expr {e} encoded {encoded} compiled {compiled}");
                        if e.ty(&ch.schema) == Type::Int {
                            let ints: Vec<i64> = expect.iter().map(Value::as_int).collect();
                            assert_eq!(eval_i64_column(e, &ch, compiled), ints, "{case}");
                        }
                        // Compiled arithmetic divides integers in `f64` (the
                        // value AVG, a float comparison and the SUM fallback
                        // read); `interp` divides them as integers.
                        let expect: Vec<u64> = if compiled && *e == div_by_3 {
                            (0..ch.len()).map(|i| (ch.phys(i) as f64 / 3.0).to_bits()).collect()
                        } else {
                            expect.iter().map(|v| v.as_float().to_bits()).collect()
                        };
                        let got = eval_f64_column(e, &ch, compiled);
                        let got: Vec<u64> = got.iter().map(|x| x.to_bits()).collect();
                        assert_eq!(got, expect, "{case}");
                    }
                }
                // Integer-only arithmetic is exact where `f64` rounds.
                let big =
                    Expr::add(Expr::mul(Expr::col(0), Expr::lit(2i64)), Expr::lit(1i64 << 53));
                let exact: Vec<i64> =
                    (0..ch.len()).map(|i| 2 * ch.phys(i) as i64 + (1 << 53)).collect();
                assert_eq!(eval_i64_column(&big, &ch, true), exact);
                assert_eq!(eval_i64_column(&Expr::year(Expr::col(3)), &ch, true)[0], 1993);
            }
        }
        // One program over a physical range (float leaves read in place) and
        // over the same rows as ids (leaves gathered into their registers)
        // leaves identical values behind every node.
        for encoded in [false, true] {
            let ch = if encoded { encode_chunk(chunk(None)) } else { chunk(None) };
            let mut prog = BlockExprs::new();
            let regs: Vec<usize> = exprs.iter().map(|e| prog.f64_reg(e, &ch, true)).collect();
            let ids: Vec<u32> = (0..ch.total as u32).collect();
            let (range, ids) = (Rows::Range(0..ch.total), Rows::Ids(&ids));
            let (mut by_range, mut by_ids) = (prog.scratch(), prog.scratch());
            prog.eval(&range, &mut by_range);
            prog.eval(&ids, &mut by_ids);
            for (e, &r) in exprs.iter().zip(&regs) {
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(
                    bits(prog.f(&by_range, r, &range)),
                    bits(prog.f(&by_ids, r, &ids)),
                    "expr {e} encoded {encoded}"
                );
            }
            // The float leaf is the column itself over a range.
            let leaf = prog.f(&by_range, regs[0], &range);
            assert!(matches!(&ch.cols[1], Column::F64(v) if std::ptr::eq(leaf, &v[..])));
        }
        let ch = chunk(None);
        let mut prog = BlockExprs::new();
        let a = prog.f64_reg(&price(), &ch, true);
        let before = prog.nodes.len();
        assert_eq!(prog.f64_reg(&price(), &ch, true), a);
        prog.f64_reg(&Expr::mul(price(), Expr::col(1)), &ch, true);
        assert_eq!(prog.nodes.len(), before + 1, "only the outer product is new");
    }
}
