//! Netting and pruning benchmarks: the exact `net_rows` reducer over
//! churny delta streams (unclamped and clamped), a propagation step over
//! hot-key churn, and a store prune pass below the low-water mark. Guards
//! the ledger: the reducer and the prune must stay cheap (they sit on the
//! fetch path and the background compactor).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use rolljoin_common::{tup, DeltaRow};
use rolljoin_core::{materialize, roll_to, DeltaWorker, MaintCtx, PropQuery};
use rolljoin_relalg::net_rows;
use rolljoin_workload::TwoWay;

const KEYS: i64 = 16;
/// Paired insert+delete commits per side — nets to almost nothing.
const CHURN_PAIRS: usize = 200;

/// A hot-key churn stream: `rows` delta rows over `KEYS` tuples,
/// alternating +1/−1 so nearly everything cancels.
fn churny_rows(rows: usize) -> Vec<DeltaRow> {
    (0..rows)
        .map(|i| {
            let k = (i as i64) % KEYS;
            DeltaRow::change(i as u64 + 1, if i % 2 == 0 { 1 } else { -1 }, tup![k, k])
        })
        .collect()
}

/// A two-way join loaded with matching keys and paired hot-key churn;
/// capture caught up so propagation never steps it inline.
fn setup() -> (TwoWay, MaintCtx, u64, u64) {
    let w = TwoWay::setup("bench_compact").unwrap();
    let mut txn = w.engine.begin();
    for k in 0..KEYS {
        txn.insert(w.r, tup![k, k]).unwrap();
        txn.insert(w.s, tup![k, k]).unwrap();
    }
    txn.commit().unwrap();
    let ctx = w.ctx();
    let mat = materialize(&ctx).unwrap();
    for i in 0..CHURN_PAIRS {
        let k = (i as i64) % KEYS;
        let mut txn = w.engine.begin();
        txn.insert(w.r, tup![k + 100, k]).unwrap();
        txn.commit().unwrap();
        let mut txn = w.engine.begin();
        txn.delete_one(w.r, &tup![k + 100, k]).unwrap();
        txn.commit().unwrap();
    }
    let end = w.engine.current_csn();
    w.engine.capture_catch_up().unwrap();
    (w, ctx, mat, end)
}

fn bench_compaction(c: &mut Criterion) {
    let mut g = c.benchmark_group("compaction");
    g.sample_size(10);

    for rows in [1_000usize, 10_000] {
        let input = churny_rows(rows);
        g.bench_function(format!("net_rows_{rows}"), |b| {
            b.iter(|| net_rows(&input, u64::MAX).1.rows_out);
        });
        g.bench_function(format!("net_rows_clamped_{rows}"), |b| {
            b.iter(|| net_rows(&input, rows as u64 / 2).1.rows_out);
        });
    }

    g.bench_function("propagate_churn", |b| {
        b.iter_batched(
            setup,
            |(_w, ctx, mat, end)| {
                let mut worker = DeltaWorker::new();
                worker.enqueue(PropQuery::all_base(2), 1, vec![mat; 2], end);
                worker.run(&ctx).unwrap();
                ctx.stats.snapshot().delta_rows_read
            },
            BatchSize::PerIteration,
        );
    });

    g.bench_function("store_prune_pass", |b| {
        b.iter_batched(
            || {
                let (w, ctx, mat, end) = setup();
                // Propagate and roll to the end of history so the LWM
                // (min of HWM and apply position) covers all the churn.
                let mut worker = DeltaWorker::new();
                worker.enqueue(PropQuery::all_base(2), 1, vec![mat; 2], end);
                worker.run(&ctx).unwrap();
                ctx.mv.set_hwm(end);
                roll_to(&ctx, end).unwrap();
                (w, ctx)
            },
            |(w, ctx)| {
                let removed = ctx.compact_stores().unwrap();
                assert!(removed > 0);
                w.engine.delta_store(w.r).unwrap().len()
            },
            BatchSize::PerIteration,
        );
    });

    g.finish();
}

criterion_group!(benches, bench_compaction);
criterion_main!(benches);
