//! Keyed time-range delta-index benchmarks: the raw posting-slice lookup
//! against the filtered full-range scan it replaces (at two key-set
//! selectivities), and a compensation-shaped two-delta query with the
//! probe planner on vs off. Guards both sides of the tentpole: the keyed
//! slice must stay near-proportional to its result (not to history
//! depth), and the probed query must stay far under the scanning one on
//! selective keys over deep history.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use rolljoin_common::{tup, ColumnType, Schema, TimeInterval, Value};
use rolljoin_core::{materialize, ExecTuning, MaintCtx, PropQuery};
use rolljoin_storage::Engine;
use rolljoin_workload::TwoWay;

/// Key domain of the indexed column.
const KEYS: i64 = 64;
/// Delta-history rows for the storage-level lookups.
const HISTORY: usize = 10_000;
/// Δ^S commits for the executor-level query (one row each — deep
/// history, uniform keys).
const QUERY_HISTORY: usize = 1_000;

/// An engine with one captured table carrying `HISTORY` delta rows over
/// `KEYS` uniform keys, keyed-indexed on column 0.
fn indexed_store() -> (Engine, rolljoin_common::TableId, u64) {
    let e = Engine::new();
    let t = e
        .create_table(
            "bench_di",
            Schema::new([("k", ColumnType::Int), ("v", ColumnType::Int)]),
        )
        .unwrap();
    e.create_delta_index(t, 0).unwrap();
    let mut last = 0;
    for chunk in 0..(HISTORY / 5) {
        let mut txn = e.begin();
        for r in 0..5 {
            let i = (chunk * 5 + r) as i64;
            txn.insert(t, tup![i % KEYS, i]).unwrap();
        }
        last = txn.commit().unwrap();
    }
    e.capture_catch_up().unwrap();
    (e, t, last)
}

/// A two-way join with deep uniform Δ^S history, a keyed delta index on
/// the S join column, and one ΔR row — the compensation-query shape.
fn query_setup(probe: bool) -> (TwoWay, MaintCtx, PropQuery) {
    let w = TwoWay::setup("bench_diq").unwrap();
    w.engine.create_delta_index(w.s, 0).unwrap();
    let ctx = w
        .ctx()
        .with_tuning(ExecTuning::sequential().with_delta_probe(probe));
    materialize(&ctx).unwrap();
    let mut last = 0;
    for i in 0..QUERY_HISTORY as i64 {
        let mut txn = w.engine.begin();
        txn.insert(w.s, tup![i % KEYS, i]).unwrap();
        last = txn.commit().unwrap();
    }
    let mut txn = w.engine.begin();
    txn.insert(w.r, tup![1, 7]).unwrap();
    let c = txn.commit().unwrap();
    w.engine.capture_catch_up().unwrap();
    let q = PropQuery::all_base(2)
        .with_delta(0, TimeInterval::new(last, c))
        .with_delta(1, TimeInterval::new(0, last));
    (w, ctx, q)
}

fn bench_delta_index(c: &mut Criterion) {
    let mut g = c.benchmark_group("delta_index");
    g.sample_size(10);

    let (e, t, hi) = indexed_store();
    let iv = TimeInterval::new(0, hi);
    for sel in [1usize, 16] {
        let keys: Vec<Value> = (0..sel as i64).map(Value::Int).collect();
        g.bench_function(format!("range_keyed_{sel}_of_{KEYS}"), |b| {
            b.iter(|| {
                e.delta_range_keyed(t, iv, 0, &keys)
                    .unwrap()
                    .expect("index exists")
                    .len()
            });
        });
        g.bench_function(format!("range_scan_filter_{sel}_of_{KEYS}"), |b| {
            b.iter(|| {
                let set: rolljoin_common::hash::Set<&Value> = keys.iter().collect();
                e.delta_range(t, iv)
                    .unwrap()
                    .into_iter()
                    .filter(|r| set.contains(r.tuple.get(0)))
                    .count()
            });
        });
    }

    for (label, probe) in [("probe", true), ("scan", false)] {
        g.bench_function(format!("comp_query_{label}"), |b| {
            b.iter_batched(
                || query_setup(probe),
                |(_w, ctx, q)| ctx.execute(&q, -1).unwrap().stats.rows_out,
                BatchSize::PerIteration,
            );
        });
    }

    g.finish();
}

criterion_group!(benches, bench_delta_index);
criterion_main!(benches);
