//! Observability overhead: the same propagation-churn step under
//! `ObsConfig::Off` (metrics only — the registry is always on) and `Full`
//! (metrics + spans). `Full` must stay a small constant factor of `Off`.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use rolljoin_common::tup;
use rolljoin_core::{materialize, DeltaWorker, MaintCtx, ObsConfig, PropQuery};
use rolljoin_workload::TwoWay;

const KEYS: i64 = 16;
const CHURN_PAIRS: usize = 200;

/// A two-way join with matching keys and paired hot-key churn; capture is
/// caught up so propagation never steps it inline.
fn setup(obs: ObsConfig) -> (TwoWay, MaintCtx, u64, u64) {
    let w = TwoWay::setup("bench_obs").unwrap();
    let mut txn = w.engine.begin();
    for k in 0..KEYS {
        txn.insert(w.r, tup![k, k]).unwrap();
        txn.insert(w.s, tup![k, k]).unwrap();
    }
    txn.commit().unwrap();
    let ctx = w.ctx().with_obs_config(obs);
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

fn bench_obs_overhead(c: &mut Criterion) {
    let mut g = c.benchmark_group("obs_overhead");
    g.sample_size(10);

    for (label, obs) in [("off", ObsConfig::Off), ("full", ObsConfig::Full)] {
        g.bench_function(format!("propagate_churn_{label}"), |b| {
            b.iter_batched(
                || setup(obs),
                |(_w, ctx, mat, end)| {
                    let mut worker = DeltaWorker::new();
                    worker.enqueue(PropQuery::all_base(2), 1, vec![mat; 2], end);
                    worker.run(&ctx).unwrap();
                    ctx.stats.snapshot().delta_rows_read
                },
                BatchSize::PerIteration,
            );
        });
    }

    g.finish();
}

criterion_group!(benches, bench_obs_overhead);
criterion_main!(benches);
