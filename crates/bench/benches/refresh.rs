//! Refresh strategies head-to-head (the Fig. 1 / Fig. 2 comparison as a
//! criterion bench): full recompute vs atomic Eq. 1 vs asynchronous
//! rolling propagation, at a fixed delta size; plus the apply step alone,
//! `roll_to` over a 100k-row view-delta window into a 200k-tuple view.

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
/// Rows per base table and join keys of the pre-loaded view:
/// `MV_ROWS² / MV_KEYS` = 200k MV tuples, so the install probes a count
/// map of the size a live view holds (the 20k-a-side two-way churn
/// workload's view holds 400k).
const MV_ROWS: i64 = 10_000;
const MV_KEYS: i64 = 500;

/// A materialized two-way view of 200k tuples whose view delta holds
/// `VD_ROWS` rows in `(mat, end]`: five rows per tuple. Half the tuples
/// are in the view and see `−1 −1 +1 −1 +1`, so the roll deletes them;
/// the other half are new and see `+1 +1 −1 +1 −1`, so the roll inserts
/// one copy of each.
fn setup_vd_window() -> (TwoWay, rolljoin_core::MaintCtx, u64) {
    let w = TwoWay::setup("roll_vd").unwrap();
    let mut txn = w.engine.begin();
    for i in 0..MV_ROWS {
        txn.insert(w.r, tup![i, i % MV_KEYS]).unwrap();
        txn.insert(w.s, tup![i % MV_KEYS, i]).unwrap();
    }
    txn.commit().unwrap();
    let ctx = w.ctx();
    let mat = materialize(&ctx).unwrap();
    for _ in 0..VD_COMMITS {
        w.engine.begin().commit().unwrap();
    }
    let end = w.engine.current_csn();
    let rows: Vec<DeltaRow> = (0..VD_ROWS)
        .map(|i| {
            let k = (i % VD_TUPLES) as i64;
            let (count, tuple) = if k < VD_TUPLES as i64 / 2 {
                // `(k, k)` joins through key `k % MV_KEYS`: in the view.
                ([-1, -1, 1, -1, 1][i / VD_TUPLES], tup![k, k])
            } else {
                ([1, 1, -1, 1, -1][i / VD_TUPLES], tup![MV_ROWS + k, k])
            };
            DeltaRow::change(mat + 1 + i as u64 % VD_COMMITS, count, tuple)
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
        // By reference: tearing the 200k-tuple view down is not the roll.
        b.iter_batched_ref(
            setup_vd_window,
            |(_w, ctx, end)| {
                let out = roll_to(ctx, *end).unwrap();
                assert_eq!(out.tuples_changed, VD_TUPLES);
                assert_eq!(out.insertions, VD_TUPLES as i64 / 2);
                assert_eq!(out.deletions, VD_TUPLES as i64 / 2);
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
