//! Executor microbenchmarks: the left-deep hash join that every
//! propagation query runs through, the net-effect operator, and one live
//! star forward query end to end.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use rolljoin_common::{tup, ColumnType, DeltaRow, Schema, TimeInterval};
use rolljoin_core::{materialize, PropQuery};
use rolljoin_relalg::{exec, net_effect, JoinSpec};
use rolljoin_workload::Star;

fn rows(n: usize, keys: i64) -> Vec<DeltaRow> {
    (0..n)
        .map(|i| DeltaRow::base(tup![i as i64, (i as i64) % keys]))
        .collect()
}

fn spec() -> JoinSpec {
    JoinSpec {
        slot_schemas: vec![
            Schema::new([("a", ColumnType::Int), ("b", ColumnType::Int)]),
            Schema::new([("b", ColumnType::Int), ("c", ColumnType::Int)]),
        ],
        equi: vec![(1, 2)],
        filter: None,
        projection: vec![0, 3],
    }
}

fn bench_join(c: &mut Criterion) {
    let mut g = c.benchmark_group("hash_join");
    g.sample_size(20);
    for size in [1_000usize, 10_000, 50_000] {
        // Key domain scales with size so the join fan-out (and therefore
        // output cardinality) stays ~1 per probe row.
        let keys = (size / 10) as i64;
        let r = rows(size, keys);
        let s: Vec<DeltaRow> = (0..size)
            .map(|i| DeltaRow::base(tup![(i as i64) % keys, i as i64]))
            .collect();
        g.throughput(Throughput::Elements(2 * size as u64));
        g.bench_function(format!("two_way_{size}x{size}"), |b| {
            b.iter(|| {
                let (out, _) = exec::execute(vec![r.clone(), s.clone()], &spec(), 1).unwrap();
                out.len()
            });
        });
    }
    g.finish();
}

fn bench_delta_join(c: &mut Criterion) {
    // The propagation shape: a small timestamped delta against a large
    // base side.
    let mut g = c.benchmark_group("delta_join");
    g.sample_size(20);
    let base: Vec<DeltaRow> = (0..50_000)
        .map(|i| DeltaRow::base(tup![(i as i64) % 1_000, i as i64]))
        .collect();
    for delta_size in [10usize, 100, 1_000] {
        let delta: Vec<DeltaRow> = (0..delta_size)
            .map(|i| DeltaRow::change(i as u64 + 1, 1, tup![i as i64, (i as i64) % 1_000]))
            .collect();
        g.throughput(Throughput::Elements(delta_size as u64));
        g.bench_function(format!("delta_{delta_size}_vs_base_50k"), |b| {
            b.iter(|| {
                let (out, _) =
                    exec::execute(vec![delta.clone(), base.clone()], &spec(), 1).unwrap();
                out.len()
            });
        });
    }
    g.finish();
}

fn bench_net_effect(c: &mut Criterion) {
    let mut g = c.benchmark_group("net_effect");
    g.sample_size(20);
    let rows: Vec<DeltaRow> = (0..100_000)
        .map(|i| {
            DeltaRow::change(
                i as u64 + 1,
                if i % 3 == 0 { -1 } else { 1 },
                tup![(i as i64) % 5_000],
            )
        })
        .collect();
    g.throughput(Throughput::Elements(rows.len() as u64));
    g.bench_function("phi_100k_rows_5k_groups", |b| {
        b.iter(|| net_effect(rows.clone()).len());
    });
    g.finish();
}

fn bench_star_forward(c: &mut Criterion) {
    // A star forward query: a 256-row fact delta F(id, d1, d2, d3) probing
    // three 10k-row dimensions D_i(k, v) on their keys, every fact row
    // matching once per dimension — four slots per output row.
    let mut g = c.benchmark_group("star_forward");
    g.sample_size(20);
    let dim_schema = Schema::new([("k", ColumnType::Int), ("v", ColumnType::Int)]);
    let spec = JoinSpec {
        slot_schemas: vec![
            Schema::new([
                ("id", ColumnType::Int),
                ("d1", ColumnType::Int),
                ("d2", ColumnType::Int),
                ("d3", ColumnType::Int),
            ]),
            dim_schema.clone(),
            dim_schema.clone(),
            dim_schema,
        ],
        equi: vec![(1, 4), (2, 6), (3, 8)],
        filter: None,
        projection: vec![0, 5, 7, 9],
    };
    let delta: Vec<DeltaRow> = (0..256i64)
        .map(|i| {
            DeltaRow::change(
                i as u64 + 1,
                1,
                tup![i, i * 7 % 10_000, i * 13 % 10_000, i * 31 % 10_000],
            )
        })
        .collect();
    let dim: Vec<DeltaRow> = (0..10_000i64)
        .map(|k| DeltaRow::base(tup![k, k * 3]))
        .collect();
    g.throughput(Throughput::Elements(delta.len() as u64));
    g.bench_function("star_forward_256x3", |b| {
        b.iter(|| {
            let slots = vec![delta.clone(), dim.clone(), dim.clone(), dim.clone()];
            let (out, _) = exec::execute(slots, &spec, 1).unwrap();
            out.len()
        });
    });
    g.finish();
}

fn bench_star_forward_keyed(c: &mut Criterion) {
    // A star forward query as the live pipeline runs it: a 256-row fact
    // delta (256 commits) through `MaintCtx::execute` against three indexed
    // 10k-row dimensions, so each dimension is probed by the delta's keys,
    // joined, and the view delta written in one transaction. Iterations
    // cycle through 40 such deltas with pseudo-random foreign keys, so the
    // probes spread over the whole dimensions as a catch-up's do, instead
    // of re-reading one cached key set.
    let mut g = c.benchmark_group("star_forward");
    g.sample_size(20);
    let star = Star::setup("bench", 3, 10_000).unwrap();
    let ctx = star.ctx();
    let mut from = materialize(&ctx).unwrap();
    let mut queries = Vec::new();
    let mut key = 1u64;
    let mut next_key = || {
        key = key
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((key >> 33) % 10_000) as i64
    };
    for q in 0..40i64 {
        let mut to = from;
        for i in 0..256 {
            let mut txn = ctx.engine.begin();
            let fact = tup![next_key(), next_key(), next_key(), q * 256 + i];
            txn.insert(star.fact, fact).unwrap();
            to = txn.commit().unwrap();
        }
        queries.push(PropQuery::all_base(star.n()).with_delta(0, TimeInterval::new(from, to)));
        from = to;
    }
    ctx.engine.capture_catch_up().unwrap();
    let mut round = queries.iter().cycle();
    g.throughput(Throughput::Elements(256));
    g.bench_function("star_forward_keyed_256x3", |b| {
        b.iter(|| ctx.execute(round.next().unwrap(), 1).unwrap());
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_join,
    bench_delta_join,
    bench_net_effect,
    bench_star_forward,
    bench_star_forward_keyed
);
criterion_main!(benches);
