//! Property tests for the storage substrate: codec round-trips, WAL
//! record round-trips and recovery, base tables under arbitrary
//! insert/delete/apply/index sequences, and delta stores under arbitrary
//! append/prune/index sequences.

use proptest::prelude::*;
use rolljoin::common::{
    tup, ColumnType, Csn, DeltaRow, Error, Schema, TableId, TimeInterval, Tuple, TxnId, Value,
};
use rolljoin::storage::{BaseTable, DeltaStore, Wal, WalRecord};
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

/// One delta-store operation in a generated history.
#[derive(Debug, Clone)]
enum DeltaOp {
    /// `append_commit` at the previous commit's CSN plus `0..=1`, kept
    /// above the prune floor (capture only appends above the HWM, and
    /// prunes stay at or below it).
    Append(Csn, Vec<(i64, Tuple)>),
    /// `prune_through(latest CSN − back)`, saturating at 0.
    Prune(Csn),
    /// `create_key_index(col)`.
    Index(usize),
}

fn arb_delta_op() -> impl Strategy<Value = DeltaOp> {
    let key = || prop_oneof![1 => Just(Value::Null), 4 => (0..DOMAIN).prop_map(Value::Int)];
    let change = (1i64..=2, any::<bool>(), key(), key())
        .prop_map(|(n, neg, a, b)| (if neg { -n } else { n }, Tuple::new([a, b])));
    prop_oneof![
        6 => (0u64..=1, prop::collection::vec(change, 0..4))
            .prop_map(|(step, rows)| DeltaOp::Append(step, rows)),
        2 => (0u64..6).prop_map(DeltaOp::Prune),
        1 => (0usize..2).prop_map(DeltaOp::Index),
    ]
}

/// Compare every read path of `d` against the model: all rows ever
/// appended, of which those at or below `floor` were pruned.
fn check_delta_store(
    d: &DeltaStore,
    model: &[DeltaRow],
    floor: Csn,
    indexed: &BTreeSet<usize>,
) -> Result<(), TestCaseError> {
    let ts = |r: &DeltaRow| r.ts.unwrap();
    let last = model.last().map_or(0, ts);
    let held: Vec<&DeltaRow> = model.iter().filter(|r| ts(r) > floor).collect();
    let keys: Vec<Value> = (0..DOMAIN).map(Value::Int).collect();
    prop_assert_eq!(d.pruned_through(), floor);
    prop_assert_eq!(d.len(), held.len());
    prop_assert_eq!(
        &d.indexed_key_cols(),
        &indexed.iter().copied().collect::<Vec<_>>()
    );
    for lo in floor..=last + 1 {
        for hi in lo..=last + 1 {
            let iv = TimeInterval::new(lo, hi);
            let want: Vec<DeltaRow> = held
                .iter()
                .filter(|r| lo < ts(r) && ts(r) <= hi)
                .map(|r| (*r).clone())
                .collect();
            prop_assert_eq!(&d.range(iv), &want);
            prop_assert_eq!(d.count_in(iv), want.len());
            for &col in indexed {
                for key in &keys {
                    let keyed: Vec<DeltaRow> = want
                        .iter()
                        .filter(|r| r.tuple.get(col) == key)
                        .cloned()
                        .collect();
                    let one = std::slice::from_ref(key);
                    prop_assert_eq!(d.range_keyed(iv, col, one), Some(keyed.clone()));
                    prop_assert_eq!(d.keyed_count_estimate(iv, col, one), Some(keyed.len()));
                }
                let non_null: Vec<DeltaRow> = want
                    .iter()
                    .filter(|r| *r.tuple.get(col) != Value::Null)
                    .cloned()
                    .collect();
                prop_assert_eq!(d.range_keyed(iv, col, &keys), Some(non_null));
            }
        }
        for k in 1..=3 {
            let want = held.iter().filter(|r| ts(r) > lo).nth(k - 1).map(|r| ts(r));
            prop_assert_eq!(d.nth_ts_after(lo, k), want);
        }
    }
    for t in 0..=last + 1 {
        let got = d.reconstruct_at(t);
        if t < floor {
            let pruned = matches!(got, Err(Error::HistoryPruned { .. }));
            prop_assert!(pruned, "reconstruct_at({}) below floor {}", t, floor);
        } else {
            let mut want: HashMap<Tuple, i64> = HashMap::new();
            for r in model.iter().filter(|r| ts(r) <= t) {
                *want.entry(r.tuple.clone()).or_insert(0) += r.count;
            }
            want.retain(|_, c| *c != 0);
            prop_assert_eq!(got.unwrap(), want);
        }
    }
    // No stale postings: even over an interval reaching below the floor,
    // the postings are exactly the held rows with a non-NULL key.
    let everything = TimeInterval::new(0, last + 1);
    for &col in indexed {
        let non_null = held
            .iter()
            .filter(|r| *r.tuple.get(col) != Value::Null)
            .count();
        prop_assert_eq!(
            d.keyed_count_estimate(everything, col, &keys),
            Some(non_null)
        );
    }
    // The running postings byte count is the full walk's.
    prop_assert_eq!(d.postings_bytes(), d.postings_bytes_recount());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A delta store under random interleavings of appends, prunes and
    /// mid-stream key-index builds behaves like the list of appended rows
    /// with everything at or below the prune floor dropped.
    #[test]
    fn delta_store_model_check(ops in prop::collection::vec(arb_delta_op(), 0..40)) {
        let d = DeltaStore::new(TableId(1));
        let mut model: Vec<DeltaRow> = Vec::new();
        let mut floor: Csn = 0;
        let mut indexed: BTreeSet<usize> = BTreeSet::new();
        let mut csn: Csn = 1;
        for op in ops {
            match op {
                DeltaOp::Append(step, rows) => {
                    csn = (csn + step).max(floor + 1);
                    d.append_commit(csn, rows.clone());
                    model.extend(rows.into_iter().map(|(n, t)| DeltaRow::change(csn, n, t)));
                }
                DeltaOp::Prune(back) => {
                    let through = csn.saturating_sub(back);
                    let dropped = model
                        .iter()
                        .filter(|r| floor < r.ts.unwrap() && r.ts.unwrap() <= through)
                        .count();
                    prop_assert_eq!(d.prune_through(through), dropped);
                    floor = floor.max(through);
                }
                DeltaOp::Index(col) => {
                    d.create_key_index(col);
                    indexed.insert(col);
                }
            }
            check_delta_store(&d, &model, floor, &indexed)?;
        }
    }
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
