//! Property tests for the storage substrate: codec round-trips, WAL
//! record round-trips and recovery, base tables under arbitrary
//! insert/delete/apply/index sequences, and delta-store range consistency.

use proptest::prelude::*;
use rolljoin::common::{tup, ColumnType, Schema, TableId, Tuple, TxnId, Value};
use rolljoin::storage::{BaseTable, Wal, WalRecord};
use std::collections::{BTreeSet, HashMap};

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        any::<i64>().prop_map(Value::Int),
        any::<f64>().prop_map(Value::Float),
        "[a-zA-Z0-9 _\\-]{0,24}".prop_map(|s| Value::str(&s)),
    ]
}

fn arb_tuple() -> impl Strategy<Value = Tuple> {
    prop::collection::vec(arb_value(), 0..8).prop_map(Tuple::from)
}

fn arb_record() -> impl Strategy<Value = WalRecord> {
    prop_oneof![
        any::<u64>().prop_map(|t| WalRecord::Begin { txn: TxnId(t) }),
        (any::<u64>(), any::<u32>(), arb_tuple()).prop_map(|(t, tb, tuple)| WalRecord::Insert {
            txn: TxnId(t),
            table: TableId(tb),
            tuple,
        }),
        (any::<u64>(), any::<u32>(), arb_tuple()).prop_map(|(t, tb, tuple)| WalRecord::Delete {
            txn: TxnId(t),
            table: TableId(tb),
            tuple,
        }),
        (any::<u64>(), any::<u64>(), any::<u64>()).prop_map(|(t, c, w)| WalRecord::Commit {
            txn: TxnId(t),
            csn: c,
            wallclock_micros: w,
        }),
        any::<u64>().prop_map(|t| WalRecord::Abort { txn: TxnId(t) }),
    ]
}

/// Values per column of the base-table model check: small, so ops collide.
const DOMAIN: i64 = 4;

#[derive(Debug, Clone)]
enum TableOp {
    Insert(Tuple),
    Delete(Tuple),
    Apply(Tuple, i64),
    /// `create_index(col)`; column 2 is out of range and must be rejected.
    Index(usize),
}

fn arb_table_op() -> impl Strategy<Value = TableOp> {
    let tuple = || (0..DOMAIN, 0..DOMAIN).prop_map(|(a, b)| tup![a, b]);
    prop_oneof![
        4 => tuple().prop_map(TableOp::Insert),
        3 => tuple().prop_map(TableOp::Delete),
        3 => (tuple(), -3i64..=3).prop_map(|(t, n)| TableOp::Apply(t, n)),
        1 => (0usize..3).prop_map(TableOp::Index),
    ]
}

/// Compare every read path of `table` against the model.
fn check_table(
    table: &BaseTable,
    model: &HashMap<Tuple, i64>,
    indexed: &BTreeSet<usize>,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(table.len() as i64, model.values().sum::<i64>());
    prop_assert_eq!(table.distinct(), model.len());
    prop_assert_eq!(&table.scan_counts(), model);
    let mut scanned: HashMap<Tuple, i64> = HashMap::new();
    for t in table.scan() {
        *scanned.entry(t).or_insert(0) += 1;
    }
    prop_assert_eq!(&scanned, model);
    for a in 0..DOMAIN {
        for b in 0..DOMAIN {
            let t = tup![a, b];
            let want = model.get(&t).copied().unwrap_or(0);
            prop_assert_eq!(table.count_of(&t) as i64, want);
        }
    }
    prop_assert_eq!(
        table.indexed_cols(),
        indexed.iter().copied().collect::<Vec<_>>()
    );
    for &col in indexed {
        for key in (0..DOMAIN).map(Value::Int) {
            let mut got: HashMap<Tuple, i64> = HashMap::new();
            table.for_each_lookup(col, &key, |t, c| {
                got.insert(t.clone(), c);
            });
            let want: HashMap<Tuple, i64> = model
                .iter()
                .filter(|(t, _)| *t.get(col) == key)
                .map(|(t, c)| (t.clone(), *c))
                .collect();
            prop_assert_eq!(got, want);
        }
    }
    Ok(())
}

proptest! {
    /// Tuple codec: encode∘decode = id, for arbitrary value mixes
    /// (including NaN floats and empty strings).
    #[test]
    fn tuple_codec_round_trip(t in arb_tuple()) {
        let enc = rolljoin::storage::codec::encode_tuple(&t);
        let dec = rolljoin::storage::codec::decode_tuple(&enc).unwrap();
        prop_assert_eq!(dec, t);
    }

    /// WAL records round-trip through their binary form.
    #[test]
    fn wal_record_round_trip(r in arb_record()) {
        prop_assert_eq!(WalRecord::decode(&r.encode()).unwrap(), r);
    }

    /// Recovery of any log image truncated at any byte boundary yields a
    /// prefix of the records, never an error or panic.
    #[test]
    fn wal_recovery_of_torn_logs(
        records in prop::collection::vec(arb_record(), 1..12),
        cut_frac in 0.0f64..1.0,
    ) {
        let wal = Wal::new();
        for r in &records {
            wal.append(r);
        }
        let bytes = wal.snapshot_bytes();
        let cut = ((bytes.len() as f64) * cut_frac) as usize;
        let recovered = Wal::recover(&bytes[..cut]).unwrap();
        prop_assert!(recovered.len() <= records.len());
        prop_assert_eq!(&records[..recovered.len()], &recovered[..]);
    }

    /// A base table under random interleavings of inserts, deletes,
    /// signed counts and index builds behaves like a `tuple → count` map;
    /// a rejected over-delete changes nothing.
    #[test]
    fn base_table_model_check(ops in prop::collection::vec(arb_table_op(), 0..80)) {
        let mut table = BaseTable::new(
            TableId(1),
            "r",
            Schema::new([("a", ColumnType::Int), ("b", ColumnType::Int)]),
        );
        let mut model: HashMap<Tuple, i64> = HashMap::new();
        let mut indexed: BTreeSet<usize> = BTreeSet::new();
        for op in ops {
            let (tuple, n, res) = match op {
                TableOp::Insert(t) => {
                    let res = table.insert(t.clone());
                    (t, 1, res)
                }
                TableOp::Delete(t) => {
                    let res = table.delete_one(&t);
                    (t, -1, res)
                }
                TableOp::Apply(t, n) => {
                    let res = table.apply_count(&t, n);
                    (t, n, res)
                }
                TableOp::Index(col) => {
                    let res = table.create_index(col);
                    prop_assert_eq!(res.is_ok(), col < 2);
                    if res.is_ok() {
                        indexed.insert(col);
                    }
                    check_table(&table, &model, &indexed)?;
                    continue;
                }
            };
            let have = model.get(&tuple).copied().unwrap_or(0);
            if have + n < 0 {
                prop_assert!(res.is_err(), "over-delete of {} by {} accepted", tuple, n);
            } else {
                prop_assert!(res.is_ok(), "{:?}", res);
                if have + n == 0 {
                    model.remove(&tuple);
                } else {
                    model.insert(tuple, have + n);
                }
            }
            check_table(&table, &model, &indexed)?;
        }
    }

    /// Delta-store ranges partition: count(0,t] = count(0,s] + count(s,t].
    #[test]
    fn delta_range_partition(
        commits in prop::collection::vec(0i64..100, 1..30),
        split in any::<prop::sample::Index>(),
    ) {
        use rolljoin::storage::DeltaStore;
        use rolljoin::common::{tup, TimeInterval};
        let d = DeltaStore::new(TableId(1));
        for (i, v) in commits.iter().enumerate() {
            d.append_commit(i as u64 + 1, [(1, tup![*v])]);
        }
        let t = commits.len() as u64;
        let s = split.index(t as usize + 1) as u64;
        let whole = d.count_in(TimeInterval::new(0, t));
        let left = d.count_in(TimeInterval::new(0, s));
        let right = d.count_in(TimeInterval::new(s, t));
        prop_assert_eq!(whole, left + right);
        // And reconstruct_at is consistent with a manual fold.
        let rec = d.reconstruct_at(t).unwrap();
        let total: i64 = rec.values().sum();
        prop_assert_eq!(total, commits.len() as i64);
    }
}
