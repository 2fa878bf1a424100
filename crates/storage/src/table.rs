//! Multiset base tables.
//!
//! A [`BaseTable`] is a `tuple → count` map (paper §2: tables are
//! multisets) — the same weighted-tuple representation the delta stores,
//! `net_effect`, and the secondary indexes use. Durability comes from the
//! write-ahead log alone; recovery rebuilds tables by replaying it.

use rolljoin_common::hash::Map;
use rolljoin_common::{Error, Result, Schema, TableId, Tuple, Value};

/// A multiset of tuples with a fixed schema, stored as tuple → multiplicity,
/// plus optional secondary indexes on single columns — propagation queries
/// use the latter to probe base tables by the join keys appearing in a
/// delta, instead of scanning (what an index on the join column buys the
/// paper's DB2 prototype).
pub struct BaseTable {
    id: TableId,
    name: String,
    schema: Schema,
    /// tuple → multiplicity (always positive).
    counts: Map<Tuple, i64>,
    /// Total multiplicity: the sum of `counts`.
    len: u64,
    /// column → key value → the tuples holding it, with multiplicity.
    secondary: Map<usize, Map<Value, Bucket>>,
}

/// The tuples of one secondary-index key. Most keys (every key of a
/// unique column) hold a single distinct tuple, which sits inline in the
/// index map — a probe reads it with no further pointer chase. Only a key
/// with several distinct tuples keeps a map of its own, so a hot key's
/// updates stay O(1).
enum Bucket {
    One(Tuple, i64),
    /// Two or more distinct tuples.
    Many(Map<Tuple, i64>),
}

/// Add `n` to `tuple`'s count under `key` in `idx`, the same signed update
/// [`add_count`] made to the tuple map (so it cannot over-delete), moving
/// the key between the inline and map forms as its distinct tuples go
/// 1 → 2 → 1.
fn index_add(idx: &mut Map<Value, Bucket>, key: &Value, tuple: &Tuple, n: i64) {
    let Some(bucket) = idx.get_mut(key) else {
        debug_assert!(n > 0, "index agrees with the map");
        idx.insert(key.clone(), Bucket::One(tuple.clone(), n));
        return;
    };
    match bucket {
        Bucket::One(t, c) if t == tuple => {
            *c += n;
            if *c == 0 {
                idx.remove(key);
            }
        }
        Bucket::One(t, c) => {
            let first = (t.clone(), *c);
            *bucket = Bucket::Many(Map::from_iter([first, (tuple.clone(), n)]));
        }
        Bucket::Many(m) => {
            add_count(m, tuple, n).expect("index agrees with the map");
            if m.len() == 1 {
                let (t, c) = m.drain().next().expect("one entry");
                *bucket = Bucket::One(t, c);
            }
        }
    }
}

impl BaseTable {
    /// Create an empty table.
    pub fn new(id: TableId, name: impl Into<String>, schema: Schema) -> Self {
        BaseTable {
            id,
            name: name.into(),
            schema,
            counts: Map::default(),
            len: 0,
            secondary: Map::default(),
        }
    }

    /// Build (or rebuild) a secondary index on `col`.
    pub fn create_index(&mut self, col: usize) -> Result<()> {
        if col >= self.schema.arity() {
            return Err(Error::Invalid(format!(
                "index column {col} out of range for {}",
                self.schema
            )));
        }
        let mut idx = Map::default();
        for (tuple, n) in &self.counts {
            index_add(&mut idx, tuple.get(col), tuple, *n);
        }
        self.secondary.insert(col, idx);
        Ok(())
    }

    /// Is there a secondary index on `col`?
    pub fn has_index(&self, col: usize) -> bool {
        self.secondary.contains_key(&col)
    }

    /// Columns with secondary indexes, ascending.
    pub fn indexed_cols(&self) -> Vec<usize> {
        let mut cols: Vec<usize> = self.secondary.keys().copied().collect();
        cols.sort_unstable();
        cols
    }

    /// Visit every `(tuple, count)` whose `col` equals `key` (index
    /// required) without materializing a per-key vector — probe fetch
    /// paths push matches straight into their output through `f`.
    pub fn for_each_lookup(&self, col: usize, key: &Value, mut f: impl FnMut(&Tuple, i64)) {
        match self.secondary.get(&col).and_then(|idx| idx.get(key)) {
            Some(Bucket::One(t, c)) => f(t, *c),
            Some(Bucket::Many(m)) => {
                for (t, c) in m {
                    f(t, *c);
                }
            }
            None => {}
        }
    }

    pub fn id(&self) -> TableId {
        self.id
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Total number of tuples (counting multiplicity).
    pub fn len(&self) -> u64 {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Insert one copy of `tuple`.
    pub fn insert(&mut self, tuple: Tuple) -> Result<()> {
        self.apply_count(&tuple, 1)
    }

    /// Delete one copy of `tuple`. Errors if no copy is present.
    pub fn delete_one(&mut self, tuple: &Tuple) -> Result<()> {
        self.apply_count(tuple, -1)
    }

    /// Multiplicity of `tuple` in the multiset.
    pub fn count_of(&self, tuple: &Tuple) -> u64 {
        self.counts.get(tuple).map_or(0, |&n| n as u64)
    }

    /// Make room in the tuple map for `additional` more distinct tuples.
    pub fn reserve(&mut self, additional: usize) {
        self.counts.reserve(additional);
    }

    /// Apply a signed count: insert `n` copies (`n > 0`) or delete `-n`
    /// copies (`n < 0`), in O(1) of `|n|` with one lookup in the tuple
    /// map. Inserts check the schema; a delete of more copies than exist
    /// fails with [`Error::TupleNotFound`] and changes nothing.
    pub fn apply_count(&mut self, tuple: &Tuple, n: i64) -> Result<()> {
        if n == 0 {
            return Ok(());
        }
        if n > 0 {
            self.schema.check(tuple)?;
        }
        if let Err(have) = add_count(&mut self.counts, tuple, n) {
            return Err(Error::TupleNotFound {
                table: self.id,
                detail: format!("need {} copies of {tuple}, have {have}", -n),
            });
        }
        self.len = self.len.wrapping_add_signed(n);
        for (col, idx) in &mut self.secondary {
            index_add(idx, tuple.get(*col), tuple, n);
        }
        Ok(())
    }

    /// Scan all tuples (with multiplicity: duplicates appear repeatedly),
    /// in unspecified order.
    pub fn scan(&self) -> Vec<Tuple> {
        let mut out = Vec::with_capacity(self.len as usize);
        for (t, &n) in &self.counts {
            out.extend(std::iter::repeat_n(t, n as usize).cloned());
        }
        out
    }

    /// Scan as a `tuple → count` multiset map.
    pub fn scan_counts(&self) -> Map<Tuple, i64> {
        self.counts.clone()
    }

    /// Number of distinct tuples.
    pub fn distinct(&self) -> usize {
        self.counts.len()
    }
}

/// Add `n` to `tuple`'s entry in `m`, removing it if it reaches zero. A
/// result below zero leaves `m` unchanged and returns the count held. The
/// tuple is cloned only when it becomes a new key: a hit updates in
/// place, with no `Arc` bump.
pub(crate) fn add_count(
    m: &mut Map<Tuple, i64>,
    tuple: &Tuple,
    n: i64,
) -> std::result::Result<(), i64> {
    match m.get_mut(tuple) {
        Some(have) => match *have + n {
            c if c < 0 => return Err(*have),
            0 => {
                m.remove(tuple);
            }
            c => *have = c,
        },
        None if n < 0 => return Err(0),
        None => {
            m.insert(tuple.clone(), n);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rolljoin_common::{tup, ColumnType};

    fn table() -> BaseTable {
        BaseTable::new(
            TableId(1),
            "r",
            Schema::new([("a", ColumnType::Int), ("b", ColumnType::Str)]),
        )
    }

    fn lookup(t: &BaseTable, col: usize, key: &Value) -> Vec<(Tuple, i64)> {
        let mut out = Vec::new();
        t.for_each_lookup(col, key, |t, c| out.push((t.clone(), c)));
        out.sort();
        out
    }

    #[test]
    fn multiset_semantics() {
        let mut t = table();
        t.insert(tup![1, "x"]).unwrap();
        t.insert(tup![1, "x"]).unwrap();
        t.insert(tup![2, "y"]).unwrap();
        assert_eq!(t.len(), 3);
        assert_eq!(t.count_of(&tup![1, "x"]), 2);
        assert_eq!(t.distinct(), 2);
        t.delete_one(&tup![1, "x"]).unwrap();
        assert_eq!(t.count_of(&tup![1, "x"]), 1);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn delete_of_absent_tuple_errors() {
        let mut t = table();
        assert!(t.delete_one(&tup![9, "z"]).is_err());
    }

    #[test]
    fn schema_enforced_on_insert() {
        let mut t = table();
        assert!(t.insert(tup!["wrong", 1]).is_err());
        assert!(t.insert(tup![1]).is_err());
        assert!(t.apply_count(&tup![1], 2).is_err());
        assert!(t.is_empty());
    }

    #[test]
    fn scan_expands_multiplicities() {
        let mut t = table();
        for i in 0..3000 {
            t.insert(tup![i, format!("row{i}")]).unwrap();
        }
        t.apply_count(&tup![7, "row7"], 2).unwrap();
        let mut rows = t.scan();
        rows.sort();
        assert_eq!(rows.len(), 3002);
        assert_eq!(rows[0], tup![0, "row0"]);
        assert_eq!(
            rows[7..10],
            [tup![7, "row7"], tup![7, "row7"], tup![7, "row7"]]
        );
        assert_eq!(rows[3001], tup![2999, "row2999"]);
    }

    #[test]
    fn apply_count_inserts_and_deletes() {
        let mut t = table();
        t.apply_count(&tup![1, "x"], 3).unwrap();
        assert_eq!(t.count_of(&tup![1, "x"]), 3);
        t.apply_count(&tup![1, "x"], -2).unwrap();
        assert_eq!(t.count_of(&tup![1, "x"]), 1);
        assert!(t.apply_count(&tup![1, "x"], -2).is_err());
        assert_eq!(t.count_of(&tup![1, "x"]), 1, "rejected delete is a no-op");
        t.apply_count(&tup![1, "x"], 0).unwrap();
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn secondary_index_tracks_changes() {
        let mut t = table();
        t.insert(tup![1, "x"]).unwrap();
        t.create_index(1).unwrap();
        assert!(t.has_index(1));
        assert!(!t.has_index(0));
        assert_eq!(t.indexed_cols(), vec![1]);
        t.insert(tup![2, "x"]).unwrap();
        t.insert(tup![2, "x"]).unwrap();
        t.insert(tup![3, "y"]).unwrap();
        let x = Value::str("x");
        assert_eq!(
            lookup(&t, 1, &x),
            vec![(tup![1, "x"], 1), (tup![2, "x"], 2)]
        );
        t.delete_one(&tup![2, "x"]).unwrap();
        assert_eq!(
            lookup(&t, 1, &x),
            vec![(tup![1, "x"], 1), (tup![2, "x"], 1)]
        );
        t.delete_one(&tup![1, "x"]).unwrap();
        t.delete_one(&tup![2, "x"]).unwrap();
        assert!(lookup(&t, 1, &x).is_empty());
        assert_eq!(lookup(&t, 1, &Value::str("y")), vec![(tup![3, "y"], 1)]);
        assert!(lookup(&t, 1, &Value::str("z")).is_empty());
        assert!(t.create_index(9).is_err());
    }

    #[test]
    fn scan_counts_matches_scan() {
        let mut t = table();
        t.insert(tup![1, "x"]).unwrap();
        t.insert(tup![1, "x"]).unwrap();
        t.insert(tup![2, "y"]).unwrap();
        let counts = t.scan_counts();
        assert_eq!(counts[&tup![1, "x"]], 2);
        assert_eq!(counts[&tup![2, "y"]], 1);
        assert_eq!(counts.values().sum::<i64>() as u64, t.len());
    }
}
