//! C code generation: the "trivial and naive stringification of the lowest
//! level representation" (Section 2.3).
//!
//! The structural code — loops, partitioned-array dereferences (Fig. 10),
//! date-index bucket skips (Fig. 12), chained-bucket probes (Fig. 7g),
//! arithmetic, direct-array aggregation — is emitted as plain C over typed
//! relation structs/columns generated from the catalog. Operations whose
//! implementation lives in the runtime (dictionary code resolution, record
//! pools, generic GLib hash maps for the *unoptimized* configurations) are
//! emitted as macros declared in the prelude, so every generated file is
//! self-contained and compiles with `cc -fsyntax-only`.

use crate::ir::{AggOp, AggStoreKind, Expr, Program, Stmt, StrFn, Sym};
use legobase_storage::{Catalog, Type};
use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::fmt::{self, Write};
use std::path::{Path, PathBuf};

/// Writes generated C to `dir/file_name`, creating `dir` first.
///
/// Filesystem failures come back as errors whose message names the offending
/// path and operation — a read-only or missing dump location produces a
/// diagnosable report instead of a bare `unwrap` panic deep in a test or
/// benchmark run.
pub fn dump_c_source(dir: &Path, file_name: &str, source: &str) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir).map_err(|e| {
        std::io::Error::new(e.kind(), format!("creating C dump directory `{}`: {e}", dir.display()))
    })?;
    let path = dir.join(file_name);
    std::fs::write(&path, source).map_err(|e| {
        std::io::Error::new(e.kind(), format!("writing C source `{}`: {e}", path.display()))
    })?;
    Ok(path)
}

/// Emits a self-contained C translation unit for a lowered program.
pub fn emit_c(prog: &Program, catalog: &Catalog) -> String {
    let mut gen = CGen {
        catalog,
        out: String::new(),
        indent: 1,
        row_tables: HashSet::new(),
        base_tables: BTreeSet::new(),
        columns: BTreeSet::new(),
        partitions: BTreeSet::new(),
        date_indexed: BTreeSet::new(),
        agg_stores: BTreeMap::new(),
    };
    // Pre-pass: collect referenced relations/columns/partitions for the
    // prelude declarations.
    prog.walk(&mut |s| {
        match s {
            Stmt::ScanLoop { table, .. } | Stmt::TiledScanLoop { table, .. }
                if !table.starts_with('#') =>
            {
                gen.base_tables.insert(table);
            }
            Stmt::DateIndexLoop { table, column, .. } => {
                gen.base_tables.insert(table);
                gen.date_indexed.insert((table, column));
            }
            Stmt::PartitionLookupLoop { table, column, .. } => {
                gen.base_tables.insert(table);
                gen.partitions.insert((table, column));
            }
            Stmt::AggMapNew { sym, naggs, store, .. } => {
                gen.agg_stores.insert(*sym, (*naggs, *store));
            }
            _ => {}
        }
        collect_exprs(s, &mut |e| {
            if let Expr::ColumnLoad { table, column, .. } = e {
                gen.columns.insert((table, column));
                gen.base_tables.insert(table);
            }
        });
    });

    // The prelude depends on the pre-pass only; the body is written after
    // it, straight into the same buffer.
    let mut out = String::new();
    gen.prelude(&mut out, &prog.name);
    let _ = writeln!(out, "void {}(void) {{", sanitize(&prog.name));
    gen.out = out;
    gen.emit_block(&prog.stmts);
    gen.out.push_str("}\n");
    gen.out
}

/// The emitter. Statements and expressions are written into `out` as they
/// are walked — no intermediate string per line or per expression node.
struct CGen<'a> {
    catalog: &'a Catalog,
    out: String,
    indent: usize,
    /// Row symbols bound to base tables (typed struct access).
    row_tables: HashSet<Sym>,
    base_tables: BTreeSet<&'a str>,
    columns: BTreeSet<(&'a str, &'a str)>,
    partitions: BTreeSet<(&'a str, &'a str)>,
    date_indexed: BTreeSet<(&'a str, &'a str)>,
    agg_stores: BTreeMap<Sym, (usize, AggStoreKind)>,
}

fn c_ty(t: Type) -> &'static str {
    match t {
        Type::Int => "long",
        Type::Float => "double",
        Type::Str => "const char*",
        Type::Date => "int",
        Type::Bool => "int",
    }
}

fn sanitize(name: &str) -> String {
    name.chars().map(|c| if c.is_alphanumeric() { c } else { '_' }).collect()
}

impl CGen<'_> {
    fn prelude(&self, out: &mut String, name: &str) {
        let _ = writeln!(out, "/* Generated by SC (LegoBase-rs) for {name}. */");
        out.push_str("#include <stdio.h>\n#include <stdlib.h>\n#include <string.h>\n\n");
        out.push_str("/* runtime shims: resolved by the loader at query setup time */\n");
        out.push_str("typedef struct rec* rec_t;\n");
        out.push_str(
            "#define POOL_RECORD(...) ((rec_t)0)           /* hoisted pool (Sec. 3.5.1) */\n",
        );
        out.push_str(
            "#define RECORD(...) ((rec_t)malloc(1))        /* naive per-tuple malloc */\n",
        );
        out.push_str("#define REC_F(r, f) (*(double*)(r))           /* record field */\n");
        out.push_str("#define REC_I(r, f) (*(long*)(r))\n");
        out.push_str("#define REC_S(r, f) (*(const char**)(r))\n");
        out.push_str("#define STR_EQ(s, lit) (strcmp((s), (lit)) == 0)\n");
        out.push_str("#define STR_NE(s, lit) (strcmp((s), (lit)) != 0)\n");
        out.push_str("#define STR_STARTS(s, lit) (strncmp((s), (lit), strlen(lit)) == 0)\n");
        out.push_str("#define STR_ENDS(s, lit) (str_ends_impl((s), (lit)))\n");
        out.push_str("#define STR_CONTAINS(s, lit) (strstr((s), (lit)) != NULL)\n");
        out.push_str("#define STR_WORDSEQ(s, lit) (strstr((s), (lit)) != NULL)\n");
        out.push_str("static int str_ends_impl(const char* s, const char* p) {\n");
        out.push_str("    size_t n = strlen(s), m = strlen(p);\n");
        out.push_str("    return n >= m && strcmp(s + n - m, p) == 0;\n}\n");
        out.push_str("/* dictionary codes are resolved during loading (Sec. 3.4) */\n");
        out.push_str("#define DICT_EQ(c, lit) ((long)(c) == dict_code(lit))\n");
        out.push_str("#define DICT_NE(c, lit) ((long)(c) != dict_code(lit))\n");
        out.push_str(
            "#define DICT_RANGE(c, lit) ((long)(c) >= dict_lo(lit) && (long)(c) <= dict_hi(lit))\n",
        );
        out.push_str("#define DICT_FLAG(c, lit) (dict_flags(lit)[(long)(c)])\n");
        out.push_str("#define DICT_TOKENSEQ(c, lit) (dict_token_seq((long)(c), lit))\n");
        out.push_str("static long dict_code(const char* s) { (void)s; return 0; }\n");
        out.push_str("static long dict_lo(const char* s) { (void)s; return 0; }\n");
        out.push_str("static long dict_hi(const char* s) { (void)s; return 0; }\n");
        out.push_str("static const char* dict_flags(const char* s) { (void)s; return \"\"; }\n");
        out.push_str(
            "static int dict_token_seq(long c, const char* s) { (void)c; (void)s; return 0; }\n",
        );
        out.push_str("#define YEAR_OF(d) (1970 + (d) / 365)\n");
        out.push_str("#define PACK2(a, b) ((((unsigned long)(a)) << 32) | (unsigned long)(b))\n");
        out.push_str("#define TERNARY(c, t, e) ((c) ? (t) : (e))\n");
        out.push_str("#define SUBSTR(s, from, len) ((char*)((void)(s), (const char*)\"\"))\n");
        out.push_str("#define IS_NULL(x) 0\n");
        out.push_str("#define NULL_VALUE 0\n");
        out.push_str("#define EMIT(...) emit_count++\n");
        out.push_str("static long emit_count;\n");
        out.push_str("/* generic collections for the unoptimized configurations (GLib) */\n");
        out.push_str("typedef struct ghash GHashTable;\n");
        out.push_str("#define g_hash_table_new() ((GHashTable*)0)\n");
        out.push_str("#define AGG_SLOTS(m, k) ((double*)0)\n");
        out.push_str("#define AGG_FOREACH(m, k, s) for (rec_t k = 0, s = 0; k; )\n");
        out.push_str("#define BUCKET_FIRST(m, k) ((rec_t)0)\n");
        out.push_str("#define BUCKET_NEXT(r) ((rec_t)0)\n");
        out.push_str("#define MM_INSERT(m, k, r) ((void)0)\n");
        out.push_str("#define SORT_EMITTED(...) ((void)0)\n");
        out.push_str("#define LIMIT_EMITTED(n) ((void)0)\n\n");

        // Relation structs (row layout) and sizes.
        for table in &self.base_tables {
            if let Some(meta) = self.catalog.get(table) {
                let _ = writeln!(out, "struct {table}_row {{");
                for f in &meta.schema.fields {
                    let _ = writeln!(out, "    {} {};", c_ty(f.ty), f.name);
                }
                let _ = writeln!(out, "}};");
                let _ = writeln!(out, "static struct {table}_row* {table};");
                let _ = writeln!(out, "static long {table}_size;");
            }
        }
        out.push('\n');
        // Column vectors (record of arrays, Sec. 3.3).
        for (table, column) in &self.columns {
            if let Some(meta) = self.catalog.get(table) {
                if let Some(i) = meta.schema.index_of(column) {
                    let ty = match meta.schema.ty(i) {
                        Type::Str => "long", // dictionary codes after Sec. 3.4
                        other => c_ty(other),
                    };
                    let _ = writeln!(out, "static {ty}* {table}_{column};");
                }
            }
        }
        // Partition arrays (Fig. 10) in CSR form.
        for (table, column) in &self.partitions {
            let _ = writeln!(out, "static unsigned* part_{table}_{column}_off;");
            let _ = writeln!(out, "static unsigned* part_{table}_{column}_rows;");
            let _ = writeln!(out, "static long part_{table}_{column}_min;");
        }
        // Date-index buckets (Fig. 12).
        for (table, column) in &self.date_indexed {
            let _ = writeln!(out, "static unsigned* dateidx_{table}_{column}_off;");
            let _ = writeln!(out, "static unsigned* dateidx_{table}_{column}_rows;");
            let _ = writeln!(out, "static int dateidx_{table}_{column}_first_year;");
        }
        out.push('\n');
    }

    /// Starts a line at the current indentation.
    fn pad(&mut self) {
        for _ in 0..self.indent {
            self.out.push_str("    ");
        }
    }

    /// Writes one whole line.
    fn line(&mut self, args: fmt::Arguments<'_>) {
        self.pad();
        let _ = self.out.write_fmt(args);
        self.out.push('\n');
    }

    /// Writes `{pre}{e}{post}` as one line.
    fn expr_line(&mut self, pre: fmt::Arguments<'_>, e: &Expr, post: &str) {
        self.pad();
        let _ = self.out.write_fmt(pre);
        self.expr(e);
        self.out.push_str(post);
        self.out.push('\n');
    }

    /// Closes a block opened one level up.
    fn close(&mut self) {
        self.indent -= 1;
        self.line(format_args!("}}"));
    }

    fn emit_block(&mut self, stmts: &[Stmt]) {
        for s in stmts {
            self.emit_stmt(s);
        }
    }

    /// Binds a row symbol of a base-table loop (or a buffer row).
    fn bind_row(&mut self, row: Sym, table: &str, is_base: bool) {
        if is_base {
            self.line(format_args!("struct {table}_row* {row} = &{table}[{row}_i];"));
            self.line(format_args!("(void){row};"));
        } else {
            self.line(format_args!("rec_t {row} = 0; (void){row}; /* buffer row */"));
        }
    }

    fn emit_stmt(&mut self, s: &Stmt) {
        match s {
            Stmt::Comment(c) => self.line(format_args!("/* {c} */")),
            Stmt::Let { sym, ty, value } => {
                self.expr_line(format_args!("{ty} {sym} = "), value, ";")
            }
            Stmt::Var { sym, ty, init } => self.expr_line(format_args!("{ty} {sym} = "), init, ";"),
            Stmt::Assign { sym, value } => self.expr_line(format_args!("{sym} = "), value, ";"),
            Stmt::If { cond, then_b, else_b } => {
                self.expr_line(format_args!("if ("), cond, ") {");
                self.indent += 1;
                self.emit_block(then_b);
                if else_b.is_empty() {
                    self.close();
                } else {
                    self.indent -= 1;
                    self.line(format_args!("}} else {{"));
                    self.indent += 1;
                    self.emit_block(else_b);
                    self.close();
                }
            }
            Stmt::ScanLoop { row, table, body } => {
                let tname = sanitize(table);
                let is_base = self.catalog.get(table).is_some();
                if is_base {
                    self.row_tables.insert(*row);
                }
                let size = if is_base { format!("{tname}_size") } else { "0 /* buffer */".into() };
                self.line(format_args!("for (long {row}_i = 0; {row}_i < {size}; {row}_i++) {{"));
                self.indent += 1;
                self.bind_row(*row, &tname, is_base);
                self.emit_block(body);
                self.close();
            }
            Stmt::TiledScanLoop { row, table, tile, body } => {
                // Two-level blocked iteration (Section 3.6.3, loop tiling).
                let tname = sanitize(table);
                let is_base = self.catalog.get(table).is_some();
                if is_base {
                    self.row_tables.insert(*row);
                }
                let size = if is_base { format!("{tname}_size") } else { "0 /* buffer */".into() };
                self.line(format_args!(
                    "for (long {row}_t = 0; {row}_t < {size}; {row}_t += {tile}) {{"
                ));
                self.indent += 1;
                self.line(format_args!(
                    "long {row}_hi = {row}_t + {tile} < {size} ? {row}_t + {tile} : {size};"
                ));
                self.line(format_args!(
                    "for (long {row}_i = {row}_t; {row}_i < {row}_hi; {row}_i++) {{"
                ));
                self.indent += 1;
                self.bind_row(*row, &tname, is_base);
                self.emit_block(body);
                self.close();
                self.close();
            }
            Stmt::DateIndexLoop { row, table, column, lo, hi, body } => {
                self.row_tables.insert(*row);
                self.line(format_args!(
                    "/* date index on {table}.{column}: skip buckets outside [{lo}, {hi}] (Fig. 12) */"
                ));
                self.line(format_args!(
                    "for (int year = YEAR_OF({lo}); year <= YEAR_OF({hi}); year++) {{"
                ));
                self.indent += 1;
                let idx = format_args!("dateidx_{table}_{column}");
                self.line(format_args!("long b = year - {idx}_first_year;"));
                self.line(format_args!(
                    "for (unsigned j = {idx}_off[b]; j < {idx}_off[b + 1]; j++) {{"
                ));
                self.indent += 1;
                self.line(format_args!("long {row}_i = {idx}_rows[j];"));
                self.bind_row(*row, table, true);
                self.emit_block(body);
                self.close();
                self.close();
            }
            Stmt::PartitionLookupLoop { table, column, key, row, body } => {
                self.row_tables.insert(*row);
                let part = format_args!("part_{table}_{column}");
                self.line(format_args!("/* partitioned access on {table}.{column} (Fig. 10) */"));
                self.expr_line(format_args!("long bkt = ("), key, &format!(") - {part}_min;"));
                self.line(format_args!(
                    "for (unsigned j = {part}_off[bkt]; j < {part}_off[bkt + 1]; j++) {{"
                ));
                self.indent += 1;
                self.line(format_args!("long {row}_i = {part}_rows[j];"));
                self.bind_row(*row, table, true);
                self.emit_block(body);
                self.close();
            }
            Stmt::MultiMapNew { sym, .. } => {
                self.line(format_args!("GHashTable* {sym} = g_hash_table_new(); (void){sym};"));
            }
            Stmt::MultiMapInsert { map, key, row } => {
                self.expr_line(format_args!("MM_INSERT({map}, "), key, &format!(", {row});"));
            }
            Stmt::MultiMapLookup { map, key, row, body } => {
                self.expr_line(
                    format_args!("for (rec_t {row} = BUCKET_FIRST({map}, "),
                    key,
                    &format!("); {row}; {row} = BUCKET_NEXT({row})) {{"),
                );
                self.indent += 1;
                self.emit_block(body);
                self.close();
            }
            Stmt::BucketArrayNew { sym, hoisted, .. } => {
                let note = if *hoisted {
                    "pool pre-allocated at load time (Sec. 3.5)"
                } else {
                    "chained bucket array (Fig. 11)"
                };
                self.line(format_args!("/* {note} */"));
                self.line(format_args!("rec_t* {sym}_buckets = calloc(1 << 16, sizeof(rec_t));"));
                self.line(format_args!("(void){sym}_buckets;"));
            }
            Stmt::BucketArrayInsert { arr, key, row } => {
                self.line(format_args!("/* chain {row} at the head of its bucket */"));
                self.expr_line(
                    format_args!("{arr}_buckets[(unsigned long)("),
                    key,
                    &format!(") & 0xFFFF] = {row};"),
                );
            }
            Stmt::BucketArrayLookup { arr, key, row, body } => {
                self.expr_line(
                    format_args!("for (rec_t {row} = {arr}_buckets[(unsigned long)("),
                    key,
                    &format!(") & 0xFFFF]; {row}; {row} = BUCKET_NEXT({row})) {{"),
                );
                self.indent += 1;
                self.emit_block(body);
                self.close();
            }
            Stmt::AggMapNew { sym, naggs, store, hoisted, .. } => match store {
                AggStoreKind::SingleValue => {
                    self.line(format_args!(
                        "/* singleton hash map lowered to scalars (Sec. 3.2.2) */"
                    ));
                    for i in 0..*naggs.max(&1) {
                        self.line(format_args!("double {sym}_agg{i} = 0;"));
                        self.line(format_args!("(void){sym}_agg{i};"));
                    }
                }
                AggStoreKind::DirectArray => {
                    self.line(format_args!(
                        "/* dense pre-initialized aggregation array (Sec. 3.5.2){} */",
                        if *hoisted { ", hoisted" } else { "" }
                    ));
                    self.line(format_args!(
                        "double (*{sym}_aggs)[{n}] = calloc(1 << 16, sizeof(*{sym}_aggs));",
                        n = naggs.max(&1)
                    ));
                    self.line(format_args!("(void){sym}_aggs;"));
                }
                AggStoreKind::LoweredArray => {
                    self.line(format_args!(
                        "/* aggregation map lowered to native arrays (Fig. 11) */"
                    ));
                    self.line(format_args!(
                        "double (*{sym}_aggs)[{n}] = calloc(1 << 16, sizeof(*{sym}_aggs));",
                        n = naggs.max(&1)
                    ));
                    self.line(format_args!("int* {sym}_buckets = calloc(1 << 16, sizeof(int));"));
                    self.line(format_args!("(void){sym}_aggs; (void){sym}_buckets;"));
                }
                AggStoreKind::GenericHashMap => {
                    self.line(format_args!(
                        "/* generic GLib hash map (unoptimized configuration) */"
                    ));
                    self.line(format_args!("GHashTable* {sym} = g_hash_table_new(); (void){sym};"));
                }
            },
            Stmt::AggUpdate { map, key, updates } => {
                let store = self.agg_stores.get(map).map(|(_, s)| *s);
                match store {
                    Some(AggStoreKind::SingleValue) => {
                        for (i, (op, e)) in updates.iter().enumerate() {
                            self.agg_update(format_args!("{map}_agg{i}"), *op, e);
                        }
                    }
                    Some(AggStoreKind::DirectArray) | Some(AggStoreKind::LoweredArray) => {
                        self.expr_line(
                            format_args!("double* slots = {map}_aggs[(unsigned long)("),
                            key,
                            ") & 0xFFFF];",
                        );
                        for (i, (op, e)) in updates.iter().enumerate() {
                            self.agg_update(format_args!("slots[{i}]"), *op, e);
                        }
                    }
                    _ => {
                        self.expr_line(
                            format_args!("double* slots = AGG_SLOTS({map}, "),
                            key,
                            ");",
                        );
                        self.line(format_args!("(void)slots;"));
                        for (i, (op, e)) in updates.iter().enumerate() {
                            self.expr_line(
                                format_args!("/* slot {i}: */ (void)("),
                                e,
                                &format!("); /* {op:?} */"),
                            );
                        }
                    }
                }
            }
            Stmt::AggForeach { map, key_sym, aggs_sym, body } => {
                self.line(format_args!("AGG_FOREACH({map}, {key_sym}, {aggs_sym}) {{"));
                self.indent += 1;
                self.emit_block(body);
                self.close();
            }
            Stmt::Emit { values } => {
                self.pad();
                self.out.push_str("EMIT(");
                self.list(values);
                self.out.push_str(");\n");
            }
            Stmt::SortEmitted { keys } => {
                self.pad();
                self.out.push_str("SORT_EMITTED(");
                for (i, (c, asc)) in keys.iter().enumerate() {
                    let sep = if i == 0 { "" } else { ", " };
                    let _ = write!(self.out, "{sep}{c}{}", if *asc { "" } else { " desc" });
                }
                self.out.push_str(");\n");
            }
            Stmt::LimitEmitted { n } => self.line(format_args!("LIMIT_EMITTED({n});")),
        }
    }

    /// One aggregate slot update; `value` is rendered where it is used.
    fn agg_update(&mut self, slot: fmt::Arguments<'_>, op: AggOp, value: &Expr) {
        match op {
            AggOp::SumF | AggOp::SumI => self.expr_line(format_args!("{slot} += "), value, ";"),
            AggOp::Count => self.expr_line(format_args!("{slot} += 1; (void)("), value, ");"),
            AggOp::Min | AggOp::Max => {
                let cmp = if op == AggOp::Min { '<' } else { '>' };
                self.pad();
                self.out.push_str("if ((");
                self.expr(value);
                let _ = write!(self.out, ") {cmp} {slot}) {slot} = ");
                self.expr(value);
                self.out.push_str(";\n");
            }
        }
    }

    /// Writes `args` separated by `", "`.
    fn list(&mut self, args: &[Expr]) {
        for (i, a) in args.iter().enumerate() {
            if i > 0 {
                self.out.push_str(", ");
            }
            self.expr(a);
        }
    }

    /// Writes `{name}({args})`.
    fn call(&mut self, name: &str, args: &[Expr]) {
        self.out.push_str(name);
        self.out.push('(');
        self.list(args);
        self.out.push(')');
    }

    fn expr(&mut self, e: &Expr) {
        match e {
            Expr::Int(v) => {
                let _ = write!(self.out, "{v}L");
            }
            Expr::Float(v) => {
                let _ = if v.fract() == 0.0 {
                    write!(self.out, "{v:.1}")
                } else {
                    write!(self.out, "{v}")
                };
            }
            Expr::Bool(b) => self.out.push(if *b { '1' } else { '0' }),
            Expr::Str(s) => {
                let _ = write!(self.out, "{s:?}");
            }
            Expr::Date(d) => {
                let _ = write!(self.out, "{d} /* days */");
            }
            Expr::Sym(s) => {
                let _ = write!(self.out, "{s}");
            }
            Expr::Field(row, f) => {
                let _ = if self.row_tables.contains(row) {
                    write!(self.out, "{row}->{f}")
                } else {
                    write!(self.out, "REC_F({row}, {f})")
                };
            }
            Expr::ColumnLoad { table, column, idx } => {
                let _ = write!(self.out, "{table}_{column}[{idx}_i]");
            }
            Expr::Bin(op, a, b) => {
                self.out.push('(');
                self.expr(a);
                let _ = write!(self.out, " {} ", op.c_token());
                self.expr(b);
                self.out.push(')');
            }
            Expr::Not(a) => {
                self.out.push_str("(!");
                self.expr(a);
                self.out.push(')');
            }
            Expr::StrOp(op, a, lit) => {
                let f = match op {
                    StrFn::Eq => "STR_EQ",
                    StrFn::Ne => "STR_NE",
                    StrFn::StartsWith => "STR_STARTS",
                    StrFn::EndsWith => "STR_ENDS",
                    StrFn::Contains => "STR_CONTAINS",
                    StrFn::WordSeq => "STR_WORDSEQ",
                };
                let _ = write!(self.out, "{f}(");
                self.expr_as_str(a);
                let _ = write!(self.out, ", {lit:?})");
            }
            Expr::DictOp { op, code, lit } => {
                let f = match op {
                    StrFn::Eq => "DICT_EQ",
                    StrFn::Ne => "DICT_NE",
                    StrFn::StartsWith => "DICT_RANGE",
                    StrFn::EndsWith | StrFn::Contains => "DICT_FLAG",
                    StrFn::WordSeq => "DICT_TOKENSEQ",
                };
                let _ = write!(self.out, "{f}(");
                self.expr(code);
                let _ = write!(self.out, ", {lit:?})");
            }
            Expr::YearOf(a) => self.call("YEAR_OF", std::slice::from_ref(a)),
            Expr::Call(name, args) => match name.as_str() {
                "ternary" => self.call("TERNARY", &args[..3]),
                "pack" => {
                    // Left-nested pairs: PACK2(PACK2(a, b), c).
                    for _ in 1..args.len() {
                        self.out.push_str("PACK2(");
                    }
                    for (i, a) in args.iter().enumerate() {
                        if i > 0 {
                            self.out.push_str(", ");
                        }
                        self.expr(a);
                        if i > 0 {
                            self.out.push(')');
                        }
                    }
                }
                "record" => self.call("RECORD", args),
                "pool_record" => self.call("POOL_RECORD", args),
                "substr" => self.call("SUBSTR", &args[..3]),
                "is_null" => self.call("IS_NULL", &args[..1]),
                "null" => self.out.push_str("NULL_VALUE"),
                other => self.call(&sanitize(other), args),
            },
        }
    }

    /// String-typed rendering of an operand of a raw string op: record
    /// fields render through the string accessor.
    fn expr_as_str(&mut self, e: &Expr) {
        match e {
            Expr::Field(row, f) if !self.row_tables.contains(row) => {
                let _ = write!(self.out, "REC_S({row}, {f})");
            }
            other => self.expr(other),
        }
    }
}

fn collect_exprs<'a>(s: &'a Stmt, f: &mut impl FnMut(&'a Expr)) {
    let mut visit = |e: &'a Expr| e.visit(&mut *f);
    match s {
        Stmt::Let { value, .. } | Stmt::Var { init: value, .. } | Stmt::Assign { value, .. } => {
            visit(value)
        }
        Stmt::If { cond, .. } => visit(cond),
        Stmt::MultiMapInsert { key, .. }
        | Stmt::MultiMapLookup { key, .. }
        | Stmt::PartitionLookupLoop { key, .. }
        | Stmt::BucketArrayInsert { key, .. }
        | Stmt::BucketArrayLookup { key, .. } => visit(key),
        Stmt::AggUpdate { key, updates, .. } => {
            visit(key);
            for (_, e) in updates {
                visit(e);
            }
        }
        Stmt::Emit { values } => {
            for v in values {
                visit(v);
            }
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::dump_c_source;
    use crate::pipeline::compile;
    use legobase_engine::Settings;

    #[test]
    fn q6_c_contains_paper_code_shapes() {
        let cat = legobase_tpch::catalog();
        let q = legobase_queries::query(&cat, 6);
        let c = compile(&q, &cat, &Settings::optimized()).c_source;
        assert!(c.contains("date index on lineitem.l_shipdate"), "{c}");
        assert!(c.contains("lineitem_l_extendedprice["), "column loads expected");
        assert!(c.contains("_agg0 +="), "single-value aggregation expected");
        assert!(c.contains("void Q6(void)"));
    }

    #[test]
    fn naive_c_uses_generic_collections() {
        let cat = legobase_tpch::catalog();
        let q = legobase_queries::query(&cat, 12);
        let naive = compile(&q, &cat, &legobase_engine::Config::NaiveC.settings()).c_source;
        assert!(naive.contains("g_hash_table_new"), "naive config must use GLib maps");
        assert!(naive.contains("strcmp") || naive.contains("STR_EQ"));
        let opt = compile(&q, &cat, &Settings::optimized()).c_source;
        assert!(opt.contains("partitioned access on orders.o_orderkey"));
        let body = opt.split("void Q").nth(1).expect("function body");
        assert!(body.contains("DICT_"), "dictionary comparisons expected");
        assert!(!body.contains("STR_EQ("), "no raw strcmp in optimized code:\n{body}");
    }

    /// An instructed (opt-in) LoopTiling pass yields a blocked loop that the
    /// system C compiler accepts (Section 3.6.3).
    #[test]
    fn tiled_scan_renders_blocked_loop() {
        let cat = legobase_tpch::catalog();
        let q = legobase_queries::query(&cat, 1);
        let settings = Settings::optimized().with(|s| {
            // Keep the shipdate scan a plain loop so tiling has a target
            // (the partitioning phase would otherwise date-index it).
            s.date_indices = false;
            s.partitioning = false;
        });
        let mut p = crate::pipeline::Pipeline::for_settings(&settings);
        p.add(crate::transform::LoopTiling { tile: 512 });
        let result = p.run(&q, &cat, &settings);
        assert!(
            result.program.count(|s| matches!(s, crate::ir::Stmt::TiledScanLoop { .. })) > 0,
            "tiling must fire on the base-table scan"
        );
        assert!(result.c_source.contains("+= 512"), "blocked outer loop expected");
        if let Some(cc) = which_cc() {
            let dir = std::env::temp_dir().join("legobase_cgen_test");
            let path = dump_c_source(&dir, "tiled_q1.c", &result.c_source)
                .unwrap_or_else(|e| panic!("{e}"));
            let out = std::process::Command::new(&cc)
                .args(["-fsyntax-only", "-std=c99", "-Wno-everything"])
                .arg(&path)
                .output()
                .expect("cc runs");
            assert!(
                out.status.success(),
                "tiled C fails to compile:\n{}\n{}",
                String::from_utf8_lossy(&out.stderr),
                result.c_source
            );
        }
    }

    /// Every query's generated C must be accepted by the system C compiler.
    #[test]
    fn generated_c_compiles() {
        let cc = which_cc();
        let Some(cc) = cc else {
            eprintln!("cc not found; skipping syntax check");
            return;
        };
        let cat = legobase_tpch::catalog();
        let dir = std::env::temp_dir().join("legobase_cgen_test");
        for q in legobase_queries::all_queries(&cat) {
            for settings in [Settings::optimized(), legobase_engine::Config::NaiveC.settings()] {
                let c = compile(&q, &cat, &settings).c_source;
                let path = dump_c_source(&dir, &format!("{}.c", q.name), &c)
                    .unwrap_or_else(|e| panic!("{e}"));
                let out = std::process::Command::new(&cc)
                    .args(["-fsyntax-only", "-std=c99", "-Wno-everything"])
                    .arg(&path)
                    .output()
                    .expect("cc runs");
                assert!(
                    out.status.success(),
                    "{} fails to compile:\n{}\n--- source ---\n{}",
                    q.name,
                    String::from_utf8_lossy(&out.stderr),
                    c
                );
            }
        }
    }

    /// A broken dump location must fail with the offending path in the
    /// message, not a bare fs panic.
    #[test]
    fn dump_errors_carry_path_context() {
        let dir = std::env::temp_dir().join("legobase_cgen_dump_ctx");
        std::fs::create_dir_all(&dir).expect("tmp dir");
        // Make the target "directory" a regular file so create_dir_all fails.
        let clash = dir.join("not_a_dir");
        std::fs::write(&clash, b"occupied").expect("clash file");
        let err = dump_c_source(&clash, "q.c", "int main;").expect_err("must fail");
        let msg = err.to_string();
        assert!(
            msg.contains("not_a_dir") && msg.contains("C dump directory"),
            "error lacks context: {msg}"
        );
        // And a successful dump round-trips.
        let ok = dump_c_source(&dir, "q.c", "/* ok */").expect("dump succeeds");
        assert_eq!(std::fs::read_to_string(ok).unwrap(), "/* ok */");
    }

    fn which_cc() -> Option<std::path::PathBuf> {
        for c in ["cc", "gcc", "clang"] {
            if let Ok(out) = std::process::Command::new(c).arg("--version").output() {
                if out.status.success() {
                    return Some(c.into());
                }
            }
        }
        None
    }
}
