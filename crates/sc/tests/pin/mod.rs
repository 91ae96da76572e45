//! The digest the SC output pins hash into: FNV-1a-64 over formatted text,
//! and the `Specialization` report with its hash map in key order. Shared
//! by `output_pin.rs` (hand plans) and the workspace's `tests/miss_pin.rs`
//! (the SQL miss path), `specialize_pin.rs` and `layout_pin.rs`; each
//! includes this file as a module and imports `Specialization` at its root.

use super::Specialization;
use std::collections::BTreeMap;
use std::fmt::Write;

/// FNV-1a-64 over everything written into it.
pub struct Fnv(pub u64);

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Write for Fnv {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        for b in s.bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
        Ok(())
    }
}

/// The report with its hash maps in key order. Destructured field by field,
/// so a new field does not compile until the pins cover it.
pub fn write_spec(h: &mut Fnv, spec: &Specialization) {
    let Specialization {
        fk_partitions,
        pk_indexes,
        date_indexes,
        dictionaries,
        used_columns,
        packed_columns,
    } = spec;
    let used: BTreeMap<_, _> = used_columns.iter().collect();
    write!(
        h,
        "{fk_partitions:?}{pk_indexes:?}{date_indexes:?}{dictionaries:?}{used:?}{packed_columns:?}"
    )
    .unwrap();
}
