//! Property tests for the storage substrate: codec round-trips, WAL
//! record round-trips and recovery, base tables under arbitrary
//! insert/delete/apply/index sequences, delta stores under arbitrary
//! append/prune/index sequences, and engine time travel under arbitrary
//! commit/abort/prune sequences.

use proptest::prelude::*;
use rolljoin::common::{
    tup, ColumnType, Csn, DeltaRow, Error, Schema, TableId, TimeInterval, Tuple, TxnId, Value,
};
use rolljoin::storage::{BaseTable, DeltaStore, Engine, Wal, WalRecord};
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
    let counts: HashMap<Tuple, i64> = table.scan_counts().into_iter().collect();
    prop_assert_eq!(&counts, model);
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

    /// Secondary-index upkeep under signed-count histories. Every key of
    /// either indexed column moves between zero, one (stored inline) and
    /// several distinct tuples; a scripted walk takes key 9 through
    /// 0 → 1 → 2 → 1 → 0 with multiplicities above one and a rejected
    /// over-delete, interleaved with the random steps. After every step each
    /// key touched so far reads back, through `for_each_lookup`, exactly the
    /// model filtered on it; at the end an index built over the populated
    /// table agrees with the one kept up incrementally.
    #[test]
    fn secondary_index_model_check(
        steps in prop::collection::vec((0..DOMAIN, 0..DOMAIN, -3i64..=3), 0..120),
        at in prop::collection::vec(any::<prop::sample::Index>(), 6),
    ) {
        let schema = Schema::new([("a", ColumnType::Int), ("b", ColumnType::Int)]);
        let mut table = BaseTable::new(TableId(1), "r", schema.clone());
        table.create_index(0).unwrap();
        table.create_index(1).unwrap();
        let script = [
            (tup![9, 0], 2),
            (tup![9, 1], 3),
            (tup![9, 0], -3),
            (tup![9, 0], -2),
            (tup![9, 1], -1),
            (tup![9, 1], -2),
        ];
        let mut history: Vec<(Tuple, i64)> =
            steps.into_iter().map(|(a, b, n)| (tup![a, b], n)).collect();
        let mut slots: Vec<usize> = at.iter().map(|i| i.index(history.len() + 1)).collect();
        slots.sort_unstable();
        for (step, slot) in script.into_iter().zip(slots).rev() {
            history.insert(slot, step);
        }
        let mut model: HashMap<Tuple, i64> = HashMap::new();
        let mut touched: BTreeSet<(usize, Value)> = BTreeSet::new();
        let lookup = |t: &BaseTable, col: usize, key: &Value| {
            let mut got = Vec::new();
            t.for_each_lookup(col, key, |tuple, c| got.push((tuple.clone(), c)));
            got.sort();
            got
        };
        for (tuple, n) in history {
            let have = model.get(&tuple).copied().unwrap_or(0);
            let res = table.apply_count(&tuple, n);
            prop_assert_eq!(res.is_ok(), have + n >= 0, "{} by {}", tuple, n);
            if res.is_ok() {
                match have + n {
                    0 => model.remove(&tuple),
                    c => model.insert(tuple.clone(), c),
                };
            }
            touched.insert((0, tuple.get(0).clone()));
            touched.insert((1, tuple.get(1).clone()));
            for (col, key) in &touched {
                let mut want: Vec<(Tuple, i64)> = model
                    .iter()
                    .filter(|(t, _)| t.get(*col) == key)
                    .map(|(t, c)| (t.clone(), *c))
                    .collect();
                want.sort();
                prop_assert_eq!(lookup(&table, *col, key), want);
            }
        }
        let mut built = BaseTable::new(TableId(2), "built", schema);
        for (tuple, n) in &model {
            built.apply_count(tuple, *n).unwrap();
        }
        built.create_index(0).unwrap();
        built.create_index(1).unwrap();
        let incremental: Vec<_> = touched.iter().map(|(c, k)| lookup(&table, *c, k)).collect();
        for (col, key) in &touched {
            prop_assert_eq!(lookup(&built, *col, key), lookup(&table, *col, key));
        }
        table.create_index(0).unwrap();
        table.create_index(1).unwrap();
        let rebuilt: Vec<_> = touched.iter().map(|(c, k)| lookup(&table, *c, k)).collect();
        prop_assert_eq!(rebuilt, incremental);
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
    }
}

/// One engine operation in a generated time-travel history.
#[derive(Debug, Clone)]
enum EngineOp {
    /// One transaction of inserts (`Ok`) and deletes of a live tuple
    /// picked by index (`Err`); committed when the flag is set, else
    /// aborted.
    Txn(Vec<std::result::Result<Tuple, prop::sample::Index>>, bool),
    /// `prune_delta_history(latest CSN − back)`, saturating at 0.
    Prune(Csn),
}

fn arb_engine_op() -> impl Strategy<Value = EngineOp> {
    let tuple = (0..DOMAIN, 0..DOMAIN).prop_map(|(a, b)| tup![a, b]);
    let change = prop_oneof![
        3 => tuple.prop_map(Ok),
        2 => any::<prop::sample::Index>().prop_map(Err),
    ];
    prop_oneof![
        6 => (prop::collection::vec(change, 1..4), 0u8..8)
            .prop_map(|(changes, roll)| EngineOp::Txn(changes, roll != 0)),
        1 => (0u64..5).prop_map(EngineOp::Prune),
    ]
}

/// Every `Txn::scan_asof(t)` of `table` against the model: the committed
/// states (`states[c]` is the table after CSN `c`) for `t` at or above the
/// floor, `HistoryPruned` below it, `CaptureBehind` past the last commit.
fn check_time_travel(
    engine: &Engine,
    table: TableId,
    states: &[HashMap<Tuple, i64>],
    floor: Csn,
) -> Result<(), TestCaseError> {
    let last = states.len() as Csn - 1;
    let mut txn = engine.begin();
    for t in 0..=last {
        let got = txn.scan_asof(table, t);
        if t < floor {
            let pruned = matches!(
                got,
                Err(Error::HistoryPruned { pruned_through, .. }) if pruned_through == floor
            );
            prop_assert!(pruned, "scan_asof({}) below floor {}", t, floor);
        } else {
            let got: HashMap<Tuple, i64> = got.unwrap().into_iter().collect();
            prop_assert_eq!(&got, &states[t as usize], "scan_asof({})", t);
        }
    }
    let behind = matches!(
        txn.scan_asof(table, last + 1),
        Err(Error::CaptureBehind { .. })
    );
    prop_assert!(behind, "scan_asof past the last commit {}", last);
    drop(txn);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Time travel on a real engine: seeded inserts and deletes commit (or
    /// abort) through transactions, interleaved with delta-history prunes;
    /// the live table rewound by its delta suffix equals the model state
    /// at every time at or above the floor, and below it the history is
    /// refused.
    #[test]
    fn time_travel_model_check(ops in prop::collection::vec(arb_engine_op(), 0..30)) {
        let engine = Engine::new();
        let table = engine
            .create_table("r", Schema::new([("a", ColumnType::Int), ("b", ColumnType::Int)]))
            .unwrap();
        // Empty before the first commit; one state per later CSN.
        let mut states: Vec<HashMap<Tuple, i64>> = vec![HashMap::new()];
        let mut floor: Csn = 0;
        for op in ops {
            match op {
                EngineOp::Txn(changes, commit) => {
                    let mut state = states.last().unwrap().clone();
                    let mut txn = engine.begin();
                    for change in changes {
                        match change {
                            Ok(tuple) => {
                                txn.insert(table, tuple.clone()).unwrap();
                                *state.entry(tuple).or_insert(0) += 1;
                            }
                            Err(pick) => {
                                let mut live: Vec<&Tuple> = state.keys().collect();
                                if live.is_empty() {
                                    continue;
                                }
                                live.sort();
                                let victim = live[pick.index(live.len())].clone();
                                txn.delete_one(table, &victim).unwrap();
                                let n = state.get_mut(&victim).unwrap();
                                *n -= 1;
                                if *n == 0 {
                                    state.remove(&victim);
                                }
                            }
                        }
                    }
                    if commit {
                        let csn = txn.commit().unwrap();
                        prop_assert_eq!(csn, states.len() as Csn);
                        states.push(state);
                    } else {
                        txn.abort();
                    }
                }
                EngineOp::Prune(back) => {
                    engine.capture_catch_up().unwrap();
                    let through = engine.current_csn().saturating_sub(back);
                    engine.prune_delta_history(table, through).unwrap();
                    floor = floor.max(through);
                }
            }
            check_time_travel(&engine, table, &states, floor)?;
        }
    }
}
