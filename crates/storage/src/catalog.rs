//! Tables and the database catalog.

use std::collections::BTreeMap;

use crate::error::{Result, StorageError};
use crate::heap::{HeapFile, RecordId};
use crate::index::HashIndex;
use crate::row::{decode, encode, Row};

/// A fixed-arity table: heap file plus optional hash indexes.
pub struct Table {
    name: String,
    arity: usize,
    heap: HeapFile,
    indexes: Vec<HashIndex>,
}

impl Table {
    /// Create an empty table.
    pub fn new(name: impl Into<String>, arity: usize) -> Table {
        Table {
            name: name.into(),
            arity,
            heap: HeapFile::new(),
            indexes: Vec::new(),
        }
    }

    /// The table's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Insert a row; maintains all indexes.
    pub fn insert(&mut self, row: &[u32]) -> Result<RecordId> {
        if row.len() != self.arity {
            return Err(StorageError::CorruptRow {
                expected: self.arity * 4,
                got: row.len() * 4,
            });
        }
        let rid = self.heap.insert(&encode(row))?;
        for idx in &mut self.indexes {
            idx.insert(row[idx.column()], rid);
        }
        Ok(rid)
    }

    /// Delete a row by id; maintains all indexes.
    pub fn delete(&mut self, rid: RecordId) -> Result<()> {
        let row = self.get(rid)?;
        for idx in &mut self.indexes {
            let v = row[idx.column()];
            idx.remove(v, rid);
        }
        self.heap.delete(rid)
    }

    /// Read one row.
    pub fn get(&self, rid: RecordId) -> Result<Row> {
        decode(self.heap.get(rid)?, self.arity)
    }

    /// Number of live rows.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no rows are stored.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Build (or rebuild) a hash index on a column; returns its
    /// position in the index list.
    pub fn create_index(&mut self, col: usize) -> Result<usize> {
        if col >= self.arity {
            return Err(StorageError::ColumnOutOfRange(col));
        }
        self.indexes.push(HashIndex::build(&self.heap, col));
        Ok(self.indexes.len() - 1)
    }

    /// An index on `col`, if one exists.
    pub fn index_on(&self, col: usize) -> Option<&HashIndex> {
        self.indexes.iter().find(|i| i.column() == col)
    }

    /// Scan all live rows.
    pub fn scan(&self) -> impl Iterator<Item = Row> + '_ {
        self.heap
            .scan()
            .map(move |(_, bytes)| decode(bytes, self.arity).expect("rows written by us"))
    }

    /// Rows whose `col` equals `value`, via index when available,
    /// falling back to a scan.
    pub fn lookup(&self, col: usize, value: u32) -> Vec<Row> {
        if let Some(idx) = self.index_on(col) {
            idx.lookup(value)
                .iter()
                .map(|&rid| self.get(rid).expect("index points at live rows"))
                .collect()
        } else {
            self.scan().filter(|r| r[col] == value).collect()
        }
    }

    /// The backing heap (for storage accounting).
    pub fn heap(&self) -> &HeapFile {
        &self.heap
    }
}

/// A named collection of tables.
#[derive(Default)]
pub struct Database {
    tables: BTreeMap<String, Table>,
}

impl Database {
    /// An empty database.
    pub fn new() -> Database {
        Database::default()
    }

    /// Create a table.
    pub fn create_table(&mut self, name: &str, arity: usize) -> Result<&mut Table> {
        if self.tables.contains_key(name) {
            return Err(StorageError::DuplicateTable(name.to_string()));
        }
        self.tables
            .insert(name.to_string(), Table::new(name, arity));
        Ok(self.tables.get_mut(name).expect("just inserted"))
    }

    /// Look a table up.
    pub fn table(&self, name: &str) -> Result<&Table> {
        self.tables
            .get(name)
            .ok_or_else(|| StorageError::UnknownTable(name.to_string()))
    }

    /// Mutable table access.
    pub fn table_mut(&mut self, name: &str) -> Result<&mut Table> {
        self.tables
            .get_mut(name)
            .ok_or_else(|| StorageError::UnknownTable(name.to_string()))
    }

    /// Drop a table.
    pub fn drop_table(&mut self, name: &str) -> Result<()> {
        self.tables
            .remove(name)
            .map(|_| ())
            .ok_or_else(|| StorageError::UnknownTable(name.to_string()))
    }

    /// Table names in order.
    pub fn table_names(&self) -> impl Iterator<Item = &str> {
        self.tables.keys().map(String::as_str)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_crud() {
        let mut t = Table::new("R", 2);
        assert!(t.is_empty());
        let r0 = t.insert(&[1, 10]).unwrap();
        let r1 = t.insert(&[2, 20]).unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(t.get(r0).unwrap(), vec![1, 10]);
        t.delete(r1).unwrap();
        assert_eq!(t.len(), 1);
        assert_eq!(t.scan().collect::<Vec<_>>(), vec![vec![1, 10]]);
        assert_eq!(t.name(), "R");
        assert_eq!(t.arity(), 2);
    }

    #[test]
    fn arity_enforced() {
        let mut t = Table::new("R", 2);
        assert!(matches!(
            t.insert(&[1]),
            Err(StorageError::CorruptRow { .. })
        ));
    }

    #[test]
    fn indexed_lookup_matches_scan() {
        let mut t = Table::new("R", 2);
        for i in 0..100u32 {
            t.insert(&[i % 10, i]).unwrap();
        }
        t.create_index(0).unwrap();
        let via_index = t.lookup(0, 3);
        assert_eq!(via_index.len(), 10);
        let via_scan: Vec<Row> = t.scan().filter(|r| r[0] == 3).collect();
        assert_eq!(via_index, via_scan);
        // Unindexed column falls back to scan.
        assert_eq!(t.lookup(1, 42), vec![vec![2, 42]]);
    }

    #[test]
    fn index_maintained_across_mutations() {
        let mut t = Table::new("R", 1);
        t.create_index(0).unwrap();
        let r0 = t.insert(&[7]).unwrap();
        assert_eq!(t.lookup(0, 7), vec![vec![7]]);
        t.delete(r0).unwrap();
        assert!(t.lookup(0, 7).is_empty());
        assert!(matches!(
            t.create_index(5),
            Err(StorageError::ColumnOutOfRange(5))
        ));
    }

    #[test]
    fn database_catalog() {
        let mut db = Database::new();
        db.create_table("R", 2).unwrap();
        assert!(matches!(
            db.create_table("R", 2),
            Err(StorageError::DuplicateTable(_))
        ));
        db.table_mut("R").unwrap().insert(&[1, 2]).unwrap();
        assert_eq!(db.table("R").unwrap().len(), 1);
        assert!(db.table("S").is_err());
        assert_eq!(db.table_names().collect::<Vec<_>>(), vec!["R"]);
        db.drop_table("R").unwrap();
        assert!(db.drop_table("R").is_err());
    }
}
