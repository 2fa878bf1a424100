//! Microbenchmarks of the storage substrate: tuple codec, WAL append,
//! single-row transactions, and capture throughput.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use rolljoin_common::{tup, ColumnType, Schema};
use rolljoin_storage::codec;
use rolljoin_storage::Engine;

fn bench_codec(c: &mut Criterion) {
    let tuple = tup![42i64, "some medium string payload", 3.25f64, true, -7i64];
    let encoded = codec::encode_tuple(&tuple);
    let mut g = c.benchmark_group("codec");
    g.throughput(Throughput::Bytes(encoded.len() as u64));
    g.bench_function("encode_tuple", |b| {
        b.iter(|| codec::encode_tuple(std::hint::black_box(&tuple)))
    });
    g.bench_function("decode_tuple", |b| {
        b.iter(|| codec::decode_tuple(std::hint::black_box(&encoded)).unwrap())
    });
    g.finish();
}

fn engine_with_table() -> (Engine, rolljoin_common::TableId) {
    let e = Engine::new();
    let t = e
        .create_table(
            "r",
            Schema::new([("a", ColumnType::Int), ("b", ColumnType::Int)]),
        )
        .unwrap();
    (e, t)
}

fn bench_txn(c: &mut Criterion) {
    let mut g = c.benchmark_group("txn");
    g.bench_function("single_insert_commit", |b| {
        let (e, t) = engine_with_table();
        let mut i = 0i64;
        b.iter(|| {
            let mut txn = e.begin();
            txn.insert(t, tup![i, i % 97]).unwrap();
            i += 1;
            txn.commit().unwrap()
        });
    });
    g.bench_function("insert_then_abort", |b| {
        let (e, t) = engine_with_table();
        let mut i = 0i64;
        b.iter(|| {
            let mut txn = e.begin();
            txn.insert(t, tup![i, i % 97]).unwrap();
            i += 1;
            txn.abort();
        });
    });
    g.finish();
}

fn bench_capture(c: &mut Criterion) {
    let mut g = c.benchmark_group("capture");
    g.sample_size(20);
    g.throughput(Throughput::Elements(1000));
    g.bench_function("ingest_1000_commits", |b| {
        b.iter_batched(
            || {
                let (e, t) = engine_with_table();
                for i in 0..1000i64 {
                    let mut txn = e.begin();
                    txn.insert(t, tup![i, i % 97]).unwrap();
                    txn.commit().unwrap();
                }
                e
            },
            |e| e.capture_catch_up().unwrap(),
            BatchSize::SmallInput,
        );
    });
    g.finish();
}

fn bench_scan(c: &mut Criterion) {
    let (e, t) = engine_with_table();
    let mut txn = e.begin();
    for i in 0..10_000i64 {
        txn.insert(t, tup![i, i % 97]).unwrap();
    }
    txn.commit().unwrap();
    let mut g = c.benchmark_group("scan");
    g.sample_size(20);
    g.throughput(Throughput::Elements(10_000));
    g.bench_function("scan_10k_rows", |b| {
        b.iter(|| {
            let mut txn = e.begin();
            let rows = txn.scan(t).unwrap();
            txn.commit().unwrap();
            rows.len()
        });
    });
    g.finish();
}

criterion_group!(benches, bench_codec, bench_txn, bench_capture, bench_scan);
criterion_main!(benches);
