//! Microbenchmarks for the ParlayLib-equivalent primitives the paper's
//! implementation builds on (§5): scan, pack, counting/radix sort,
//! semisort, and sparse-table RMQ build/query.

use criterion::{criterion_group, criterion_main, Criterion};
use fastbcc_primitives::rmq::{RmqKind, SparseTable};
use fastbcc_primitives::rng::hash64;
use fastbcc_primitives::{pack, scan, semisort, sort};
use std::hint::black_box;
use std::time::Duration;

const N: usize = 1 << 20;

fn bench_primitives(c: &mut Criterion) {
    let mut group = c.benchmark_group("primitives");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(500));

    let data: Vec<usize> = (0..N).map(|i| (hash64(i as u64) % 8) as usize).collect();
    group.bench_function("scan_exclusive_1M", |b| {
        b.iter(|| {
            let mut a = data.clone();
            black_box(scan::prefix_sums(&mut a))
        })
    });

    group.bench_function("pack_index_1M", |b| {
        b.iter(|| black_box(pack::pack_index(N, |i| hash64(i as u64).is_multiple_of(3))))
    });

    let keys: Vec<u32> = (0..N).map(|i| (hash64(i as u64) % 1024) as u32).collect();
    group.bench_function("counting_sort_1M_1024buckets", |b| {
        b.iter(|| black_box(sort::counting_sort_by(&keys, 1024, |&k| k as usize)))
    });

    let big: Vec<u64> = (0..N).map(|i| hash64(i as u64)).collect();
    group.bench_function("radix_sort_1M_u64", |b| {
        b.iter(|| black_box(sort::radix_sort_by(&big, u64::MAX, |&k| k)))
    });

    let ids: Vec<u32> = (0..N as u32).collect();
    let owners: Vec<u32> = (0..N)
        .map(|i| (hash64(i as u64 + 9) % (N as u64 / 4)) as u32)
        .collect();
    group.bench_function("semisort_1M_dense_keys", |b| {
        b.iter(|| {
            black_box(semisort::semisort_by_small_key(&ids, N / 4, |&v| {
                owners[v as usize] as usize
            }))
        })
    });

    let vals: Vec<u32> = (0..N).map(|i| hash64(i as u64) as u32).collect();
    group.bench_function("sparse_table_build_1M", |b| {
        b.iter(|| black_box(SparseTable::build(&vals, RmqKind::Min)))
    });
    let st = SparseTable::build(&vals, RmqKind::Min);
    group.bench_function("sparse_table_100k_queries", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for q in 0..100_000u64 {
                let lo = (hash64(q) % N as u64) as usize;
                let hi = lo + (hash64(q + 1) as usize % (N - lo));
                acc ^= st.query(lo, hi) as u64;
            }
            black_box(acc)
        })
    });

    group.finish();
}

criterion_group!(benches, bench_primitives);
criterion_main!(benches);
