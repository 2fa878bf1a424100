//! Parallel propagation benchmarks: one `ComputeDelta` step over a chain
//! view, swept across worker-pool sizes. Without updater contention there
//! is nothing for the pool to overlap, so this sweep measures its fixed
//! costs in isolation — round barriers, per-round thread spawn, channel
//! traffic — the price a quiescent system pays for the pool. The win side
//! of the ledger (overlapping lock waits under contention) is E16 in the
//! harness; this guard keeps the overhead side from regressing unnoticed.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use rolljoin_common::tup;
use rolljoin_core::{materialize, DeltaWorker, MaintCtx, PropQuery};
use rolljoin_workload::Chain;

const KEYS: i64 = 8;
const CHURN: usize = 24;

/// A chain view with seeded tables and churn to propagate; capture caught
/// up so the measured step never waits on the capture driver.
fn setup(n: usize, workers: usize) -> (Chain, MaintCtx, u64, u64) {
    let c = Chain::setup("bench_par", n).unwrap();
    let ctx = c.ctx().with_workers(workers);
    let mat = materialize(&ctx).unwrap();
    let mut txn = ctx.engine.begin();
    for t in 0..n {
        for k in 0..KEYS {
            txn.insert(c.tables[t], tup![k, k]).unwrap();
        }
    }
    txn.commit().unwrap();
    for i in 0..CHURN {
        let mut txn = ctx.engine.begin();
        txn.insert(c.tables[i % n], tup![(i as i64) % KEYS, (i as i64) % KEYS])
            .unwrap();
        txn.commit().unwrap();
    }
    let end = ctx.engine.current_csn();
    ctx.engine.capture_catch_up().unwrap();
    (c, ctx, mat, end)
}

fn bench_parallel(c: &mut Criterion) {
    let mut g = c.benchmark_group("parallel_propagation");
    g.sample_size(10);
    for n in [3usize, 4] {
        for workers in [1usize, 2, 4, 8] {
            g.bench_function(format!("chain_{n}_workers_{workers}"), |b| {
                b.iter_batched(
                    || setup(n, workers),
                    |(_c, ctx, mat, end)| {
                        let mut w = DeltaWorker::new();
                        w.enqueue(PropQuery::all_base(n), 1, vec![mat; n], end);
                        w.run(&ctx).unwrap();
                        ctx.stats.snapshot().total_queries()
                    },
                    BatchSize::PerIteration,
                );
            });
        }
    }
    g.finish();
}

criterion_group!(benches, bench_parallel);
criterion_main!(benches);
