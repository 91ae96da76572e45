//! The deterministic `dbgen` substitute.

use crate::archive::ArchivedColumn;
use crate::schema::{catalog, TABLES};
use crate::text;
use legobase_storage::{
    Catalog, Column, ColumnTable, Date, DictKind, PackedInts, RowTable, TableStatistics, Value,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// `dbgen`'s CURRENTDATE constant (Clause 4.2.2.12), used for return flags
/// and line statuses.
pub fn current_date() -> Date {
    Date::from_ymd(1995, 6, 17)
}

/// First and last order dates (orders stop 151 days before the data horizon
/// so every lineitem date fits inside 1992-01-01 … 1998-12-31).
pub fn order_date_range() -> (Date, Date) {
    (Date::from_ymd(1992, 1, 1), Date::from_ymd(1998, 12, 31).add_days(-151))
}

/// Generator configuration.
#[derive(Clone, Copy, Debug)]
pub struct TpchGenerator {
    /// TPC-H scale factor. SF 1 ≈ 6 M lineitems; tests use 0.002–0.01,
    /// benchmarks 0.05–0.2.
    pub scale_factor: f64,
    /// RNG seed (same seed ⇒ identical database).
    pub seed: u64,
}

impl Default for TpchGenerator {
    fn default() -> Self {
        TpchGenerator { scale_factor: 0.01, seed: 0x5EED_1E60 }
    }
}

/// One attribute of the base data: a typed column, either owned in its
/// plain layout (generated data) or still the validated payload of an
/// opened archive, decoded when someone first asks for it.
pub(crate) enum BaseColumn {
    Plain(Column),
    Archived(ArchivedColumn),
}

impl BaseColumn {
    fn mapped_packed(&self) -> Option<&Arc<PackedInts>> {
        match self {
            BaseColumn::Plain(_) => None,
            BaseColumn::Archived(a) => a.packed.as_ref(),
        }
    }
}

/// One base relation: its row count and one [`BaseColumn`] per attribute.
pub(crate) struct BaseTable {
    pub(crate) name: String,
    pub(crate) rows: usize,
    pub(crate) columns: Vec<BaseColumn>,
}

/// The database: catalog plus the typed columns of every relation — the
/// one base representation. Everything else (other layouts, dictionaries,
/// partitions, indexes, row tuples for the generic engines) is derived from
/// these columns by the engine's base-structure store, on first demand.
pub struct TpchData {
    /// Schema catalog for the generated tables.
    pub catalog: Catalog,
    /// Scale factor the data was generated at.
    pub scale_factor: f64,
    /// The relations, in [`TABLES`] order.
    pub(crate) tables: Vec<BaseTable>,
}

impl TpchData {
    /// Generates the full database at the given scale factor with the default
    /// seed.
    pub fn generate(scale_factor: f64) -> TpchData {
        TpchGenerator { scale_factor, ..Default::default() }.generate()
    }

    fn table(&self, name: &str) -> &BaseTable {
        let found = self.tables.iter().find(|t| t.name == name);
        found.unwrap_or_else(|| panic!("unknown table `{name}`"))
    }

    /// Row count of a relation (panics if absent).
    pub fn rows(&self, table: &str) -> usize {
        self.table(table).rows
    }

    /// Attribute `column` of `table` in its plain layout: a handle on the
    /// generator's vector, or a fresh decode of the archive's payload — the
    /// base-structure store asks once per column and keeps the answer.
    pub fn plain_column(&self, table: &str, column: usize) -> Column {
        match &self.table(table).columns[column] {
            BaseColumn::Plain(c) => c.clone(),
            BaseColumn::Archived(a) => a.decode(),
        }
    }

    /// String attribute `column` of `table` dictionary-encoded
    /// ([`Column::dict_encoded`]): an archived one straight from its
    /// payload, so no plain column of strings is built on the way.
    pub fn dict_column(&self, table: &str, column: usize, kind: DictKind) -> Column {
        match &self.table(table).columns[column] {
            BaseColumn::Plain(c) => c.dict_encoded(kind),
            BaseColumn::Archived(a) => a.dict_encoded(kind),
        }
    }

    /// A relation as row tuples, derived from its columns (what the generic
    /// engines scan; the store builds it once per relation they ask for).
    pub fn row_table(&self, table: &str) -> RowTable {
        let schema = self.catalog.table(table).schema.clone();
        let columns = (0..schema.len()).map(|c| self.plain_column(table, c));
        RowTable::from_columns(schema, self.rows(table), columns)
    }

    /// The archive-mapped packed payload for `(table, column)`, when this
    /// database was loaded zero-copy from a v3 archive.
    pub fn mapped_packed(&self, table: &str, column: usize) -> Option<&Arc<PackedInts>> {
        self.table(table).columns.get(column)?.mapped_packed()
    }

    /// Total bytes of packed words served from the mapped archive
    /// (page-cache borrowed, never copied). Zero unless loaded via `mmap`.
    pub fn mapped_bytes(&self) -> usize {
        let columns = self.tables.iter().flat_map(|t| &t.columns);
        columns.filter_map(BaseColumn::mapped_packed).map(|p| p.mapped_bytes()).sum()
    }
}

/// Spec formula for `P_RETAILPRICE` (also reused for `L_EXTENDEDPRICE`).
fn retail_price(partkey: i64) -> f64 {
    (90000 + (partkey / 10) % 20001 + 100 * (partkey % 1000)) as f64 / 100.0
}

/// The sparse order-key sequence: 8 keys in every 32-key window.
fn order_key(i: usize) -> i64 {
    ((i / 8) * 32 + i % 8) as i64 + 1
}

impl TpchGenerator {
    fn counts(&self) -> (usize, usize, usize, usize) {
        // A non-finite or negative scale factor casts to 0 rows; the floors
        // keep every relation non-empty so the spec formulas (which divide
        // by supplier/part counts) stay well-defined. The row generators
        // below additionally guard the zero-count case so they stay total
        // even if called directly with degenerate sizes.
        let sf = self.scale_factor;
        let supplier = ((10_000.0 * sf) as usize).max(10);
        let part = ((200_000.0 * sf) as usize).max(200);
        let customer = ((150_000.0 * sf) as usize).max(150);
        let orders = ((1_500_000.0 * sf) as usize).max(1_500);
        (supplier, part, customer, orders)
    }

    fn rng(&self, stream: u64) -> SmallRng {
        SmallRng::seed_from_u64(self.seed.wrapping_mul(0x9E37_79B9).wrapping_add(stream))
    }

    /// Runs the generator, attaching optimizer statistics — collected per
    /// relation over its finished columns — to the catalog
    /// (`Catalog::stats`).
    pub fn generate(&self) -> TpchData {
        let mut cat = catalog();
        let (n_supp, n_part, n_cust, n_orders) = self.counts();
        let (orders, lineitem) = self.gen_orders_lineitem(&cat, n_orders, n_cust, n_part, n_supp);
        // In `TABLES` order; every relation draws from its own RNG stream.
        let generated = [
            self.gen_region(&cat),
            self.gen_nation(&cat),
            self.gen_supplier(&cat, n_supp),
            self.gen_customer(&cat, n_cust),
            self.gen_part(&cat, n_part),
            self.gen_partsupp(&cat, n_part, n_supp),
            orders,
            lineitem,
        ];
        let tables = TABLES
            .iter()
            .zip(generated)
            .map(|(&name, mut table)| {
                table.shrink_to_fit();
                cat.set_stats(name, TableStatistics::collect(&table));
                BaseTable {
                    name: name.to_string(),
                    rows: table.len,
                    columns: table.columns.into_iter().map(BaseColumn::Plain).collect(),
                }
            })
            .collect();
        TpchData { catalog: cat, scale_factor: self.scale_factor, tables }
    }

    fn gen_region(&self, cat: &Catalog) -> ColumnTable {
        let mut rng = self.rng(1);
        let mut t = ColumnTable::with_capacity(cat.table("region").schema.clone(), 5);
        for (k, name) in text::REGIONS.iter().enumerate() {
            t.push([
                Value::Int(k as i64),
                Value::from(*name),
                Value::from(text::comment(&mut rng, 3, 8, 0.0)),
            ]);
        }
        t
    }

    fn gen_nation(&self, cat: &Catalog) -> ColumnTable {
        let mut rng = self.rng(2);
        let mut t = ColumnTable::with_capacity(cat.table("nation").schema.clone(), 25);
        for (k, (name, region)) in text::NATIONS.iter().enumerate() {
            t.push([
                Value::Int(k as i64),
                Value::from(*name),
                Value::Int(*region),
                Value::from(text::comment(&mut rng, 3, 8, 0.0)),
            ]);
        }
        t
    }

    fn gen_supplier(&self, cat: &Catalog, n: usize) -> ColumnTable {
        let mut rng = self.rng(3);
        let mut t = ColumnTable::with_capacity(cat.table("supplier").schema.clone(), n);
        for i in 1..=n as i64 {
            let nation = rng.gen_range(0..25i64);
            t.push([
                Value::Int(i),
                Value::from(format!("Supplier#{i:09}")),
                Value::from(text::comment(&mut rng, 2, 4, 0.0)),
                Value::Int(nation),
                Value::from(text::phone(&mut rng, nation)),
                Value::Float((rng.gen_range(-99999..=999999) as f64) / 100.0),
                // ~0.5% of suppliers have complaint comments (Q16).
                Value::from(text::supplier_comment(&mut rng, 0.005)),
            ]);
        }
        t
    }

    fn gen_customer(&self, cat: &Catalog, n: usize) -> ColumnTable {
        let mut rng = self.rng(4);
        let mut t = ColumnTable::with_capacity(cat.table("customer").schema.clone(), n);
        for i in 1..=n as i64 {
            let nation = rng.gen_range(0..25i64);
            t.push([
                Value::Int(i),
                Value::from(format!("Customer#{i:09}")),
                Value::from(text::comment(&mut rng, 2, 4, 0.0)),
                Value::Int(nation),
                Value::from(text::phone(&mut rng, nation)),
                Value::Float((rng.gen_range(-99999..=999999) as f64) / 100.0),
                Value::from(text::SEGMENTS[rng.gen_range(0..5usize)]),
                Value::from(text::comment(&mut rng, 6, 12, 0.0)),
            ]);
        }
        t
    }

    fn gen_part(&self, cat: &Catalog, n: usize) -> ColumnTable {
        let mut rng = self.rng(5);
        let mut t = ColumnTable::with_capacity(cat.table("part").schema.clone(), n);
        for i in 1..=n as i64 {
            let mfgr = rng.gen_range(1..=5);
            let brand = mfgr * 10 + rng.gen_range(1..=5);
            t.push([
                Value::Int(i),
                Value::from(text::part_name(&mut rng)),
                Value::from(format!("Manufacturer#{mfgr}")),
                Value::from(format!("Brand#{brand}")),
                Value::from(text::part_type(&mut rng)),
                Value::Int(rng.gen_range(1..=50)),
                Value::from(text::container(&mut rng)),
                Value::Float(retail_price(i)),
                Value::from(text::comment(&mut rng, 2, 5, 0.0)),
            ]);
        }
        t
    }

    fn gen_partsupp(&self, cat: &Catalog, n_part: usize, n_supp: usize) -> ColumnTable {
        let mut rng = self.rng(6);
        let mut t = ColumnTable::with_capacity(cat.table("partsupp").schema.clone(), n_part * 4);
        if n_part == 0 || n_supp == 0 {
            // No parts or no suppliers ⇒ no part-supplier pairs (and the
            // spec's suppkey formula below would divide by zero).
            return t;
        }
        let s = n_supp as i64;
        for pk in 1..=n_part as i64 {
            for j in 0..4i64 {
                // Spec formula: guarantees distinct (partkey, suppkey) pairs.
                let suppkey = (pk + j * (s / 4 + (pk - 1) / s)) % s + 1;
                t.push([
                    Value::Int(pk),
                    Value::Int(suppkey),
                    Value::Int(rng.gen_range(1..=9999)),
                    Value::Float((rng.gen_range(100..=100_000) as f64) / 100.0),
                    Value::from(text::comment(&mut rng, 4, 10, 0.0)),
                ]);
            }
        }
        t
    }

    fn gen_orders_lineitem(
        &self,
        cat: &Catalog,
        n_orders: usize,
        n_cust: usize,
        n_part: usize,
        n_supp: usize,
    ) -> (ColumnTable, ColumnTable) {
        let mut rng = self.rng(7);
        let mut orders = ColumnTable::with_capacity(cat.table("orders").schema.clone(), n_orders);
        let mut lineitem =
            ColumnTable::with_capacity(cat.table("lineitem").schema.clone(), n_orders * 4);
        let (start, end) = order_date_range();
        let horizon = current_date();
        let n_clerks = ((n_orders / 1_000).max(10)) as i64;

        if n_cust == 0 || n_part == 0 || n_supp == 0 {
            // Orders reference customers, lineitems reference parts and
            // suppliers; with any of those relations empty there is nothing
            // referential-integrity-preserving to generate. Without this
            // guard the custkey draw below panics on an empty `1..=0` range
            // (the "empty table at SF ≈ 0" failure mode).
            return (orders, lineitem);
        }
        for i in 0..n_orders {
            let okey = order_key(i);
            // Only two thirds of customers have orders (custkey % 3 != 0).
            let custkey = loop {
                let c = rng.gen_range(1..=n_cust as i64);
                if c % 3 != 0 {
                    break c;
                }
            };
            let odate = start.add_days(rng.gen_range(0..=(end.0 - start.0)));
            let nlines = rng.gen_range(1..=7usize);
            let mut total = 0.0f64;
            let mut n_open = 0usize;
            for line in 1..=nlines as i64 {
                let partkey = rng.gen_range(1..=n_part as i64);
                let suppkey = rng.gen_range(1..=n_supp as i64);
                let quantity = rng.gen_range(1..=50i64) as f64;
                let extended = quantity * retail_price(partkey);
                let discount = rng.gen_range(0..=10) as f64 / 100.0;
                let tax = rng.gen_range(0..=8) as f64 / 100.0;
                let shipdate = odate.add_days(rng.gen_range(1..=121));
                let commitdate = odate.add_days(rng.gen_range(30..=90));
                let receiptdate = shipdate.add_days(rng.gen_range(1..=30));
                let returnflag = if receiptdate <= horizon {
                    if rng.gen_bool(0.5) {
                        "R"
                    } else {
                        "A"
                    }
                } else {
                    "N"
                };
                let linestatus = if shipdate > horizon { "O" } else { "F" };
                if linestatus == "O" {
                    n_open += 1;
                }
                total += extended * (1.0 + tax) * (1.0 - discount);
                lineitem.push([
                    Value::Int(okey),
                    Value::Int(partkey),
                    Value::Int(suppkey),
                    Value::Int(line),
                    Value::Float(quantity),
                    Value::Float(extended),
                    Value::Float(discount),
                    Value::Float(tax),
                    Value::from(returnflag),
                    Value::from(linestatus),
                    Value::Date(shipdate),
                    Value::Date(commitdate),
                    Value::Date(receiptdate),
                    Value::from(text::INSTRUCTIONS[rng.gen_range(0..4usize)]),
                    Value::from(text::SHIP_MODES[rng.gen_range(0..7usize)]),
                    Value::from(text::comment(&mut rng, 3, 7, 0.0)),
                ]);
            }
            let status = if n_open == nlines {
                "O"
            } else if n_open == 0 {
                "F"
            } else {
                "P"
            };
            orders.push([
                Value::Int(okey),
                Value::Int(custkey),
                Value::from(status),
                Value::Float(total),
                Value::Date(odate),
                Value::from(text::ORDER_PRIORITIES[rng.gen_range(0..5usize)]),
                Value::from(format!("Clerk#{:09}", rng.gen_range(1..=n_clerks))),
                Value::Int(0),
                // ~2% of order comments carry the Q13 pattern.
                Value::from(text::comment(&mut rng, 6, 14, 0.02)),
            ]);
        }
        (orders, lineitem)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn small() -> TpchData {
        TpchData::generate(0.002)
    }

    #[test]
    fn row_counts_scale() {
        let d = small();
        assert_eq!(d.rows("region"), 5);
        assert_eq!(d.rows("nation"), 25);
        assert_eq!(d.rows("supplier"), 20);
        assert_eq!(d.rows("customer"), 300);
        assert_eq!(d.rows("part"), 400);
        assert_eq!(d.rows("partsupp"), 1600);
        assert_eq!(d.rows("orders"), 3000);
        let lpo = d.rows("lineitem") as f64 / d.rows("orders") as f64;
        assert!((3.0..5.0).contains(&lpo), "≈4 lineitems per order, got {lpo}");
    }

    #[test]
    fn deterministic() {
        let a = TpchGenerator { scale_factor: 0.002, seed: 7 }.generate();
        let b = TpchGenerator { scale_factor: 0.002, seed: 7 }.generate();
        assert_eq!(a.row_table("lineitem").rows, b.row_table("lineitem").rows);
        let c = TpchGenerator { scale_factor: 0.002, seed: 8 }.generate();
        assert_ne!(a.row_table("lineitem").rows, c.row_table("lineitem").rows);
    }

    #[test]
    fn referential_integrity() {
        let d = small();
        for (name, fk_checks) in [
            ("lineitem", vec![("l_orderkey", "orders", "o_orderkey")]),
            ("orders", vec![("o_custkey", "customer", "c_custkey")]),
            (
                "partsupp",
                vec![("ps_partkey", "part", "p_partkey"), ("ps_suppkey", "supplier", "s_suppkey")],
            ),
            ("nation", vec![("n_regionkey", "region", "r_regionkey")]),
        ] {
            let t = d.row_table(name);
            for (col, ref_table, ref_col) in fk_checks {
                let ci = t.schema.col(col);
                let rt = d.row_table(ref_table);
                let rci = rt.schema.col(ref_col);
                let keys: HashSet<i64> = rt.rows.iter().map(|r| r[rci].as_int()).collect();
                for row in &t.rows {
                    assert!(
                        keys.contains(&row[ci].as_int()),
                        "{name}.{col} dangling key {}",
                        row[ci].as_int()
                    );
                }
            }
        }
    }

    #[test]
    fn order_keys_sparse_and_unique() {
        let d = small();
        let t = d.row_table("orders");
        let keys: Vec<i64> = t.rows.iter().map(|r| r[0].as_int()).collect();
        let distinct: HashSet<i64> = keys.iter().copied().collect();
        assert_eq!(distinct.len(), keys.len());
        // Sparse: the max key is about 4x the row count. Guard the empty
        // case explicitly so a row-count regression fails with a diagnosis
        // instead of a bare `max().unwrap()` panic.
        let Some(&max) = keys.iter().max() else {
            panic!("orders generated empty at SF 0.002");
        };
        assert!(max > 3 * keys.len() as i64, "orderkeys should be sparse");
    }

    /// SF ≈ 0 regression: degenerate scale factors (zero, negative, NaN —
    /// all of which cast to 0 proportional rows) must still produce a valid,
    /// non-panicking database at the documented floor sizes.
    #[test]
    fn sf_zero_generates_floor_sizes_without_panicking() {
        for sf in [0.0, -1.0, f64::NAN] {
            let d = TpchData::generate(sf);
            assert_eq!(d.rows("supplier"), 10, "sf {sf}");
            assert_eq!(d.rows("part"), 200, "sf {sf}");
            assert_eq!(d.rows("customer"), 150, "sf {sf}");
            assert_eq!(d.rows("orders"), 1_500, "sf {sf}");
            assert!(d.rows("lineitem") > 0, "sf {sf}");
        }
    }

    /// The row generators themselves must be total on zero counts: empty
    /// referenced relations yield empty referencing relations instead of a
    /// panic (`gen_range(1..=0)`) or a division by zero in the spec
    /// formulas.
    #[test]
    fn zero_counts_yield_empty_tables() {
        let g = TpchGenerator { scale_factor: 0.0, seed: 7 };
        let cat = catalog();
        assert_eq!(g.gen_partsupp(&cat, 0, 10).len, 0);
        assert_eq!(g.gen_partsupp(&cat, 10, 0).len, 0);
        let (orders, lineitem) = g.gen_orders_lineitem(&cat, 100, 0, 10, 10);
        assert_eq!((orders.len, lineitem.len), (0, 0));
        let (orders, lineitem) = g.gen_orders_lineitem(&cat, 100, 10, 0, 10);
        assert_eq!((orders.len, lineitem.len), (0, 0));
        let (orders, lineitem) = g.gen_orders_lineitem(&cat, 100, 10, 10, 0);
        assert_eq!((orders.len, lineitem.len), (0, 0));
        // Zero orders with everything else present is simply empty output.
        let (orders, lineitem) = g.gen_orders_lineitem(&cat, 0, 10, 10, 10);
        assert_eq!((orders.len, lineitem.len), (0, 0));
        assert_eq!(g.gen_supplier(&cat, 0).len, 0);
        assert_eq!(g.gen_customer(&cat, 0).len, 0);
        assert_eq!(g.gen_part(&cat, 0).len, 0);
    }

    #[test]
    fn composite_lineitem_pk_unique() {
        let d = small();
        let t = d.row_table("lineitem");
        let mut seen = HashSet::new();
        for r in &t.rows {
            assert!(seen.insert((r[0].as_int(), r[3].as_int())));
        }
    }

    #[test]
    fn date_invariants() {
        let d = small();
        let t = d.row_table("lineitem");
        let (lo, _) = order_date_range();
        let hi = Date::from_ymd(1998, 12, 31);
        let (s, c, r) = (
            t.schema.col("l_shipdate"),
            t.schema.col("l_commitdate"),
            t.schema.col("l_receiptdate"),
        );
        for row in &t.rows {
            let ship = row[s].as_date();
            let commit = row[c].as_date();
            let receipt = row[r].as_date();
            assert!(ship >= lo && receipt <= hi, "dates within horizon");
            assert!(receipt > ship, "receipt after ship");
            assert!(commit >= lo && commit <= hi);
        }
    }

    #[test]
    fn flags_follow_current_date() {
        let d = small();
        let t = d.row_table("lineitem");
        let horizon = current_date();
        let (rf, ls, sd, rd) = (
            t.schema.col("l_returnflag"),
            t.schema.col("l_linestatus"),
            t.schema.col("l_shipdate"),
            t.schema.col("l_receiptdate"),
        );
        for row in &t.rows {
            if row[rd].as_date() <= horizon {
                assert_ne!(row[rf].as_str(), "N");
            } else {
                assert_eq!(row[rf].as_str(), "N");
            }
            assert_eq!(row[ls].as_str() == "O", row[sd].as_date() > horizon);
        }
    }

    #[test]
    fn workload_patterns_present() {
        // Q13/Q16/Q14 patterns must occur at small scale already.
        let d = small();
        let o = d.row_table("orders");
        let oc = o.schema.col("o_comment");
        assert!(o.rows.iter().any(|r| {
            let c = r[oc].as_str();
            c.split(' ')
                .position(|w| w == "special")
                .is_some_and(|i| c.split(' ').skip(i + 1).any(|w| w == "requests"))
        }));
        let p = d.row_table("part");
        let pt = p.schema.col("p_type");
        assert!(p.rows.iter().any(|r| r[pt].as_str().starts_with("PROMO")));
        let cust = d.row_table("customer");
        let seg = cust.schema.col("c_mktsegment");
        assert!(cust.rows.iter().any(|r| r[seg].as_str() == "BUILDING"));
    }
}
