//! The table catalog: named registered tables with public-size metadata.
//!
//! The engine's security model matches the paper's: table *sizes* are public
//! inputs (the adversary sees every array allocation), table *contents* are
//! protected.  The catalog therefore exposes sizes freely through
//! [`TableMeta`] while handing contents only to the executor.

use std::collections::BTreeMap;
use std::sync::Arc;

use obliv_join::schema::{Schema, WideTable};
use obliv_join::Table;

use crate::error::EngineError;

/// One registered table: the legacy pair shape, or a typed wide table.
#[derive(Debug, Clone)]
enum Registered {
    Pair(Table),
    Wide(WideTable),
}

impl Registered {
    fn rows(&self) -> usize {
        match self {
            Registered::Pair(t) => t.len(),
            Registered::Wide(t) => t.len(),
        }
    }
}

/// Public metadata of one registered table.
///
/// Everything here is information the paper's adversary already observes
/// (array identities, lengths and record widths), so listing it leaks
/// nothing new.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableMeta {
    /// The registered name.
    pub name: String,
    /// Number of rows — public by the paper's definition of the input sizes
    /// `n₁`, `n₂`.
    pub rows: usize,
    /// The table's schema, for wide tables; `None` for legacy pair-shaped
    /// tables (whose implicit schema is `{key: u64, value: u64}`).
    pub schema: Option<Arc<Schema>>,
}

/// A registry of named tables that query plans reference by name.
///
/// Tables come in two shapes: the legacy `(u64, u64)` pair shape
/// ([`register`](Catalog::register)) and typed wide tables
/// ([`register_wide`](Catalog::register_wide)).  Plans read both (a pair
/// table is the degenerate `{key, value}` schema).
///
/// ```
/// use obliv_engine::Catalog;
/// use obliv_join::Table;
///
/// let mut catalog = Catalog::new();
/// catalog.register("orders", Table::from_pairs(vec![(1, 100), (2, 250)])).unwrap();
/// assert_eq!(catalog.meta("orders").unwrap().rows, 2);
/// assert!(catalog.get("lineitem").is_none());
/// ```
#[derive(Debug, Clone, Default)]
pub struct Catalog {
    tables: BTreeMap<String, Registered>,
    /// Monotone content-version counter: bumped by every mutation that
    /// changes the registered tables ([`register`](Catalog::register) and
    /// every successful [`deregister`](Catalog::deregister)).  Result
    /// caches key on `(plan, epoch)`, so any catalog change invalidates
    /// every cached result at once — coarse, but cheap and obviously
    /// correct.
    epoch: u64,
}

/// `true` iff `name` is usable as a table name in the text frontend:
/// non-empty, no whitespace, and none of the frontend's structural
/// characters (`|` separates stages).
fn name_is_valid(name: &str) -> bool {
    !name.is_empty() && !name.contains(|c: char| c.is_whitespace() || c == '|')
}

impl Catalog {
    /// An empty catalog.
    pub fn new() -> Self {
        Catalog::default()
    }

    /// Register a pair-shaped `table` under `name`, replacing any previous
    /// table of that name (the previous table is returned if it was also
    /// pair-shaped).
    pub fn register(
        &mut self,
        name: impl Into<String>,
        table: Table,
    ) -> Result<Option<Table>, EngineError> {
        Ok(match self.insert(name.into(), Registered::Pair(table))? {
            Some(Registered::Pair(t)) => Some(t),
            _ => None,
        })
    }

    /// Register a wide `table` under `name`, replacing any previous table
    /// of that name (the previous table is returned if it was also wide).
    pub fn register_wide(
        &mut self,
        name: impl Into<String>,
        table: WideTable,
    ) -> Result<Option<WideTable>, EngineError> {
        Ok(match self.insert(name.into(), Registered::Wide(table))? {
            Some(Registered::Wide(t)) => Some(t),
            _ => None,
        })
    }

    fn insert(
        &mut self,
        name: String,
        table: Registered,
    ) -> Result<Option<Registered>, EngineError> {
        if !name_is_valid(&name) {
            return Err(EngineError::InvalidTableName { name });
        }
        self.epoch += 1;
        Ok(self.tables.insert(name, table))
    }

    /// Remove the table registered under `name`, whatever its shape.  The
    /// removed table is returned when it was pair-shaped (use
    /// [`get_wide`](Catalog::get_wide) before deregistering to recover a
    /// wide table's contents).
    pub fn deregister(&mut self, name: &str) -> Option<Table> {
        let removed = self.tables.remove(name);
        if removed.is_some() {
            self.epoch += 1;
        }
        match removed {
            Some(Registered::Pair(t)) => Some(t),
            _ => None,
        }
    }

    /// The catalog's current epoch: a counter bumped by every content
    /// mutation.  Two reads returning the same epoch saw identical
    /// registered tables.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// `true` iff a table of either shape is registered under `name` —
    /// the shape-agnostic existence check (a pair-typed
    /// [`deregister`](Catalog::deregister) returning `None` does *not*
    /// mean the name was unknown; it may have removed a wide table).
    pub fn contains(&self, name: &str) -> bool {
        self.tables.contains_key(name)
    }

    /// The pair-shaped table registered under `name`, if any (`None` for
    /// wide tables).
    pub fn get(&self, name: &str) -> Option<&Table> {
        match self.tables.get(name) {
            Some(Registered::Pair(t)) => Some(t),
            _ => None,
        }
    }

    /// The wide table registered under `name`, if any (`None` for pair
    /// tables — use [`resolve_wide`](Catalog::resolve_wide) to read a pair
    /// table through its degenerate wide schema).
    pub fn get_wide(&self, name: &str) -> Option<&WideTable> {
        match self.tables.get(name) {
            Some(Registered::Wide(t)) => Some(t),
            _ => None,
        }
    }

    /// Like [`get`](Catalog::get), but returning the engine's resolution
    /// errors: unknown tables and wide tables referenced by pair plans are
    /// both reported.
    pub fn resolve(&self, name: &str) -> Result<&Table, EngineError> {
        match self.tables.get(name) {
            Some(Registered::Pair(t)) => Ok(t),
            Some(Registered::Wide(_)) => Err(EngineError::WideTableInScalarPlan {
                name: name.to_string(),
            }),
            None => Err(EngineError::UnknownTable {
                name: name.to_string(),
            }),
        }
    }

    /// Resolve `name` for a wide plan.  Wide tables resolve to a cheap
    /// clone (an `Arc` bump); pair tables are wrapped on the fly in the
    /// degenerate `{key: u64, value: u64}` schema, so wide queries can read
    /// legacy tables too.
    pub fn resolve_wide(&self, name: &str) -> Result<WideTable, EngineError> {
        match self.tables.get(name) {
            Some(Registered::Wide(t)) => Ok(t.clone()),
            Some(Registered::Pair(t)) => Ok(WideTable::from_pair(t)),
            None => Err(EngineError::UnknownTable {
                name: name.to_string(),
            }),
        }
    }

    /// Public metadata for `name`, if registered.
    pub fn meta(&self, name: &str) -> Option<TableMeta> {
        self.tables.get(name).map(|t| TableMeta {
            name: name.to_string(),
            rows: t.rows(),
            schema: match t {
                Registered::Pair(_) => None,
                Registered::Wide(w) => Some(w.schema_handle()),
            },
        })
    }

    /// Public metadata for every registered table, in name order.
    pub fn list(&self) -> Vec<TableMeta> {
        self.tables
            .keys()
            .map(|name| self.meta(name).expect("listed names are registered"))
            .collect()
    }

    /// Number of registered tables.
    pub fn len(&self) -> usize {
        self.tables.len()
    }

    /// `true` iff no tables are registered.
    pub fn is_empty(&self) -> bool {
        self.tables.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(n: u64) -> Table {
        Table::from_pairs((0..n).map(|i| (i, i)))
    }

    #[test]
    fn register_get_meta_roundtrip() {
        let mut c = Catalog::new();
        assert!(c.is_empty());
        assert_eq!(c.register("orders", t(3)).unwrap(), None);
        assert_eq!(c.len(), 1);
        assert_eq!(c.get("orders").unwrap().len(), 3);
        assert_eq!(
            c.meta("orders"),
            Some(TableMeta {
                name: "orders".into(),
                rows: 3,
                schema: None
            })
        );
        assert_eq!(c.meta("lineitem"), None);
    }

    #[test]
    fn register_replaces_and_returns_previous() {
        let mut c = Catalog::new();
        c.register("x", t(2)).unwrap();
        let old = c.register("x", t(5)).unwrap();
        assert_eq!(old.unwrap().len(), 2);
        assert_eq!(c.get("x").unwrap().len(), 5);
    }

    #[test]
    fn invalid_names_are_rejected() {
        let mut c = Catalog::new();
        for bad in ["", "two words", "pipe|name", "tab\tname"] {
            assert_eq!(
                c.register(bad, t(1)),
                Err(EngineError::InvalidTableName { name: bad.into() })
            );
        }
    }

    #[test]
    fn list_is_name_ordered_and_public_sizes_only() {
        let mut c = Catalog::new();
        c.register("zeta", t(1)).unwrap();
        c.register("alpha", t(4)).unwrap();
        let metas = c.list();
        assert_eq!(
            metas
                .iter()
                .map(|m| (m.name.as_str(), m.rows))
                .collect::<Vec<_>>(),
            vec![("alpha", 4), ("zeta", 1)]
        );
    }

    fn wide(n: u64) -> WideTable {
        use obliv_join::schema::{ColumnType, Value};
        let schema = Schema::new([("id", ColumnType::U64), ("p", ColumnType::I64)]).unwrap();
        WideTable::from_rows(
            schema,
            (0..n).map(|i| vec![Value::U64(i), Value::I64(-(i as i64))]),
        )
        .unwrap()
    }

    #[test]
    fn wide_tables_register_with_schema_metadata() {
        let mut c = Catalog::new();
        c.register_wide("orders", wide(3)).unwrap();
        let meta = c.meta("orders").unwrap();
        assert_eq!(meta.rows, 3);
        assert_eq!(
            meta.schema.as_ref().unwrap().column_names(),
            vec!["id", "p"]
        );
        // Pair accessors refuse the wide entry with a typed error.
        assert!(c.get("orders").is_none());
        assert_eq!(
            c.resolve("orders").unwrap_err(),
            EngineError::WideTableInScalarPlan {
                name: "orders".into()
            }
        );
        // Wide accessors see it.
        assert_eq!(c.get_wide("orders").unwrap().len(), 3);
        assert_eq!(c.resolve_wide("orders").unwrap().len(), 3);
    }

    #[test]
    fn pair_tables_resolve_wide_through_degenerate_schema() {
        let mut c = Catalog::new();
        c.register("orders", t(2)).unwrap();
        let as_wide = c.resolve_wide("orders").unwrap();
        assert_eq!(as_wide.schema().column_names(), vec!["key", "value"]);
        assert_eq!(as_wide.len(), 2);
        assert!(c.get_wide("orders").is_none(), "get_wide is shape-strict");
    }

    #[test]
    fn replacing_across_shapes_bumps_epoch_and_changes_shape() {
        let mut c = Catalog::new();
        c.register("x", t(2)).unwrap();
        let epoch = c.epoch();
        // Pair → wide replacement: previous pair table is not returned
        // through the wide-typed slot.
        assert_eq!(c.register_wide("x", wide(4)).unwrap(), None);
        assert_eq!(c.epoch(), epoch + 1);
        assert!(c.get("x").is_none());
        assert_eq!(c.get_wide("x").unwrap().len(), 4);
        // Wide removal returns None from the pair-typed deregister but
        // still removes and bumps; `contains` is the shape-agnostic check.
        assert!(c.contains("x"));
        assert!(c.deregister("x").is_none());
        assert!(!c.contains("x"));
        assert!(c.get_wide("x").is_none());
        assert_eq!(c.epoch(), epoch + 2);
    }

    #[test]
    fn resolve_reports_unknown_tables() {
        let c = Catalog::new();
        assert_eq!(
            c.resolve("ghost").unwrap_err(),
            EngineError::UnknownTable {
                name: "ghost".into()
            }
        );
    }

    #[test]
    fn deregister_removes() {
        let mut c = Catalog::new();
        c.register("x", t(2)).unwrap();
        assert_eq!(c.deregister("x").unwrap().len(), 2);
        assert!(c.get("x").is_none());
        assert!(c.deregister("x").is_none());
    }

    #[test]
    fn epoch_tracks_content_mutations_only() {
        let mut c = Catalog::new();
        assert_eq!(c.epoch(), 0);
        c.register("x", t(2)).unwrap();
        assert_eq!(c.epoch(), 1);
        c.register("x", t(5)).unwrap(); // replacement counts
        assert_eq!(c.epoch(), 2);
        assert!(c.register("bad name", t(1)).is_err());
        assert_eq!(c.epoch(), 2, "rejected registration leaves epoch alone");
        assert!(c.deregister("ghost").is_none());
        assert_eq!(c.epoch(), 2, "no-op deregister leaves epoch alone");
        c.deregister("x");
        assert_eq!(c.epoch(), 3);
        // Reads never bump.
        let _ = c.meta("x");
        let _ = c.list();
        assert_eq!(c.epoch(), 3);
    }
}
