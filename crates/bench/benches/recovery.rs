//! Crash recovery of a live-sized view: `Engine::recover_from_bytes` of
//! the log, then `MaterializedView::reattach`, on the set-up of the
//! 20k-rows-a-side two-way churn workload (1k join keys, a 400k-tuple MV).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use rolljoin_common::tup;
use rolljoin_core::{materialize, MaterializedView};
use rolljoin_storage::Engine;
use rolljoin_workload::TwoWay;

const ROWS: i64 = 20_000;
const KEYS: i64 = 1_000;
/// `ROWS² / KEYS`: every key joins `ROWS / KEYS` rows on each side.
const MV_TUPLES: u64 = (ROWS * ROWS / KEYS) as u64;

/// The log image of a loaded and materialized two-way view, and the view.
fn image() -> (Vec<u8>, rolljoin_core::ViewDef) {
    let w = TwoWay::setup("recovery").unwrap();
    let mut txn = w.engine.begin();
    for i in 0..ROWS {
        txn.insert(w.r, tup![i, i % KEYS]).unwrap();
        txn.insert(w.s, tup![i % KEYS, i]).unwrap();
    }
    txn.commit().unwrap();
    materialize(&w.ctx()).unwrap();
    assert_eq!(w.engine.table_len(w.mv.mv_table).unwrap(), MV_TUPLES);
    (w.engine.wal().snapshot_bytes(), (*w.mv.view).clone())
}

fn bench_recovery(c: &mut Criterion) {
    let (bytes, view) = image();
    let mut g = c.benchmark_group("recovery");
    g.sample_size(10);
    g.bench_function("recover_and_reattach_400k_view", |b| {
        // By reference: tearing the recovered engine down is not recovery.
        b.iter_batched_ref(
            || bytes.clone(),
            |bytes| {
                let engine = Engine::recover_from_bytes(bytes).unwrap();
                let mv = MaterializedView::reattach(&engine, view.clone()).unwrap();
                assert_eq!(engine.table_len(mv.mv_table).unwrap(), MV_TUPLES);
                (engine, mv)
            },
            BatchSize::PerIteration,
        );
    });
    g.finish();
}

criterion_group!(benches, bench_recovery);
criterion_main!(benches);
