//! Refresh strategies head-to-head (the Fig. 1 / Fig. 2 comparison as a
//! criterion bench): full recompute vs atomic Eq. 1 vs asynchronous
//! rolling propagation, at a fixed delta size; plus the apply step alone,
//! `roll_to` over a 100k-row view-delta window.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use rolljoin_common::{tup, DeltaRow};
use rolljoin_core::{
    full_refresh, materialize, roll_to, sync_propagate_eq1, RollingPropagator, TargetRows,
};
use rolljoin_workload::{int_pair_stream, TwoWay, UpdateMix};

const ROWS: usize = 20_000;
const KEYS: i64 = 4_000;
const CHURN: usize = 1_000;

fn setup() -> (TwoWay, rolljoin_core::MaintCtx, u64, u64) {
    let w = TwoWay::setup("refresh").unwrap();
    let still = UpdateMix {
        delete_frac: 0.0,
        update_frac: 0.0,
    };
    int_pair_stream(w.r, 1, still, KEYS)
        .load(&w.engine, ROWS)
        .unwrap();
    int_pair_stream(w.s, 2, still, KEYS)
        .load(&w.engine, ROWS)
        .unwrap();
    let ctx = w.ctx();
    let mat = materialize(&ctx).unwrap();
    let mut sr = int_pair_stream(w.r, 3, UpdateMix::default(), KEYS);
    let mut ss = int_pair_stream(w.s, 4, UpdateMix::default(), KEYS);
    let mut end = mat;
    for i in 0..CHURN {
        end = if i % 2 == 0 {
            sr.step(&w.engine).unwrap()
        } else {
            ss.step(&w.engine).unwrap()
        };
    }
    ctx.engine.capture_catch_up().unwrap();
    (w, ctx, mat, end)
}

/// View-delta rows in the rolled window, over `VD_TUPLES` distinct tuples
/// spread across `VD_COMMITS` timestamps.
const VD_ROWS: usize = 100_000;
const VD_TUPLES: usize = 20_000;
const VD_COMMITS: u64 = 50;

/// An empty materialized two-way view whose view delta holds `VD_ROWS`
/// rows in `(mat, end]`: five rows per tuple, `+1 +1 −1 +1 −1`, so the
/// window nets to one copy of each tuple.
fn setup_vd_window() -> (TwoWay, rolljoin_core::MaintCtx, u64) {
    let w = TwoWay::setup("roll_vd").unwrap();
    let ctx = w.ctx();
    let mat = materialize(&ctx).unwrap();
    for _ in 0..VD_COMMITS {
        w.engine.begin().commit().unwrap();
    }
    let end = w.engine.current_csn();
    let rows: Vec<DeltaRow> = (0..VD_ROWS)
        .map(|i| {
            let count = [1, 1, -1, 1, -1][i / VD_TUPLES];
            let k = (i % VD_TUPLES) as i64;
            DeltaRow::change(mat + 1 + i as u64 % VD_COMMITS, count, tup![k, k % 7])
        })
        .collect();
    let mut txn = w.engine.begin();
    txn.vd_write(ctx.mv.vd_table, rows).unwrap();
    txn.commit().unwrap();
    ctx.mv.set_hwm(end);
    (w, ctx, end)
}

fn bench_roll(c: &mut Criterion) {
    let mut g = c.benchmark_group("apply");
    g.sample_size(10);
    g.bench_function("roll_to_100k_vd_rows", |b| {
        b.iter_batched(
            setup_vd_window,
            |(_w, ctx, end)| {
                let out = roll_to(&ctx, end).unwrap();
                assert_eq!(out.tuples_changed, VD_TUPLES);
                out
            },
            BatchSize::PerIteration,
        );
    });
    g.finish();
}

fn bench_refresh(c: &mut Criterion) {
    let mut g = c.benchmark_group("refresh_1k_updates_over_20k_rows");
    g.sample_size(10);

    g.bench_function("full_recompute", |b| {
        b.iter_batched(
            setup,
            |(_w, ctx, _mat, _end)| full_refresh(&ctx).unwrap(),
            BatchSize::PerIteration,
        );
    });

    g.bench_function("atomic_eq1_plus_apply", |b| {
        b.iter_batched(
            setup,
            |(_w, ctx, mat, _end)| {
                let out = sync_propagate_eq1(&ctx, mat).unwrap();
                roll_to(&ctx, out.to).unwrap()
            },
            BatchSize::PerIteration,
        );
    });

    g.bench_function("rolling_plus_apply", |b| {
        b.iter_batched(
            setup,
            |(_w, ctx, mat, end)| {
                let mut rp = RollingPropagator::new(ctx.clone(), mat);
                rp.drain_to(end, &mut TargetRows { target_rows: 256 })
                    .unwrap();
                roll_to(&ctx, end).unwrap()
            },
            BatchSize::PerIteration,
        );
    });
    g.finish();
}

criterion_group!(benches, bench_refresh, bench_roll);
criterion_main!(benches);
