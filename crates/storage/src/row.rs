//! Row-layout tables: the default data organization of LegoBase.
//!
//! "By default LegoBase uses the row layout, since this intuitive data
//! organization facilitated fast development of the relational operators"
//! (Section 3.3). The unoptimized engine configurations scan these tables
//! directly; the optimized ones never see a row. Base data is columnar
//! ([`crate::column::ColumnTable`]); the row form of a relation is derived
//! from its columns ([`RowTable::from_columns`]) for the engines that ask.

use crate::column::Column;
use crate::schema::Schema;
use crate::value::{Tuple, Value};

/// A table stored as a vector of generic tuples.
#[derive(Clone, Debug, Default)]
pub struct RowTable {
    /// Relation schema.
    pub schema: Schema,
    /// Boxed tuples in insertion order.
    pub rows: Vec<Tuple>,
}

impl RowTable {
    /// Creates an empty table.
    pub fn new(schema: Schema) -> RowTable {
        RowTable { schema, rows: Vec::new() }
    }

    /// Creates an empty table with row capacity.
    pub fn with_capacity(schema: Schema, cap: usize) -> RowTable {
        RowTable { schema, rows: Vec::with_capacity(cap) }
    }

    /// The row form of `len` rows held as columns, one per schema field in
    /// schema order. The columns are consumed one at a time, so a caller
    /// that produces them lazily never holds more than one beside the rows.
    pub fn from_columns(
        schema: Schema,
        len: usize,
        columns: impl IntoIterator<Item = Column>,
    ) -> RowTable {
        let mut rows: Vec<Tuple> = (0..len).map(|_| Vec::with_capacity(schema.len())).collect();
        for column in columns {
            for (r, row) in rows.iter_mut().enumerate() {
                row.push(column.value_at(r));
            }
        }
        RowTable { schema, rows }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Appends a row after checking its arity against the schema.
    pub fn push(&mut self, row: Tuple) {
        debug_assert_eq!(row.len(), self.schema.len(), "row arity mismatch");
        self.rows.push(row);
    }

    /// Returns the value at `(row, col)`.
    #[inline]
    pub fn get(&self, row: usize, col: usize) -> &Value {
        &self.rows[row][col]
    }

    /// Approximate in-memory footprint in bytes (used by the Fig. 20 memory
    /// experiment to compare against the optimized layouts).
    pub fn approx_bytes(&self) -> usize {
        let mut total = self.rows.capacity() * std::mem::size_of::<Tuple>();
        for row in &self.rows {
            total += row.capacity() * std::mem::size_of::<Value>();
            for v in row {
                if let Value::Str(s) = v {
                    total += s.capacity();
                }
            }
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Type;

    #[test]
    fn push_and_get() {
        let mut t = RowTable::new(Schema::of(&[("a", Type::Int), ("b", Type::Str)]));
        t.push(vec![Value::Int(1), Value::from("x")]);
        t.push(vec![Value::Int(2), Value::from("y")]);
        assert_eq!(t.len(), 2);
        assert_eq!(t.get(1, 0).as_int(), 2);
        assert_eq!(t.get(0, 1).as_str(), "x");
        assert!(t.approx_bytes() > 0);
    }

    #[test]
    fn from_columns_transposes() {
        use std::sync::Arc;
        let schema = Schema::of(&[("a", Type::Int), ("b", Type::Str)]);
        let columns = [
            Column::I64(Arc::new(vec![1, 2])),
            Column::Str(Arc::new(vec!["x".to_string(), "y".to_string()])),
        ];
        let t = RowTable::from_columns(schema.clone(), 2, columns);
        assert_eq!(
            t.rows,
            [vec![Value::Int(1), Value::from("x")], vec![Value::Int(2), "y".into()]]
        );
        assert!(RowTable::from_columns(schema, 0, Vec::new()).is_empty());
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "arity mismatch")]
    fn arity_checked_in_debug() {
        let mut t = RowTable::new(Schema::of(&[("a", Type::Int)]));
        t.push(vec![Value::Int(1), Value::Int(2)]);
    }
}
