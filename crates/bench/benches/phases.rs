//! Ablation benchmarks over FAST-BCC's implementation choices (paper §5):
//! connectivity scheme (LDD-UF-JTB vs UF-Async), local-search
//! granularity control (the Fig. 6 toggle), on one low-diameter and one
//! large-diameter input.

use criterion::{criterion_group, criterion_main, Criterion};
use fastbcc_core::{fast_bcc, BccOpts, CcScheme};
use fastbcc_graph::generators::classic::path;
use fastbcc_graph::generators::{grid2d, rmat};
use std::hint::black_box;
use std::time::Duration;

fn bench_phases(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablations");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3))
        .warm_up_time(Duration::from_millis(500));

    let social = rmat(16, 500_000, 21);
    let grid = grid2d(400, 400, true);
    let chain = path(1_000_000);

    for (tag, g) in [("rmat16", &social), ("grid400", &grid), ("chain1M", &chain)] {
        group.bench_function(format!("ldd+local/{tag}"), |b| {
            b.iter(|| {
                black_box(fast_bcc(
                    g,
                    BccOpts {
                        scheme: CcScheme::LddUfJtb,
                        local_search: true,
                        ..Default::default()
                    },
                ))
            })
        });
        group.bench_function(format!("ldd-nolocal/{tag}"), |b| {
            b.iter(|| {
                black_box(fast_bcc(
                    g,
                    BccOpts {
                        scheme: CcScheme::LddUfJtb,
                        local_search: false,
                        ..Default::default()
                    },
                ))
            })
        });
        group.bench_function(format!("uf-async/{tag}"), |b| {
            b.iter(|| {
                black_box(fast_bcc(
                    g,
                    BccOpts {
                        scheme: CcScheme::UfAsync,
                        ..Default::default()
                    },
                ))
            })
        });

        // Ablation: the paper's §5 "re-order the vertices in the CSR format
        // to let each CC be contiguous" locality optimization, measured as
        // FAST-BCC over the pre-reordered graph (reordering cost excluded —
        // this isolates the steady-state cache benefit).
        let reordered = {
            let cc = fastbcc_connectivity::cc::ldd_uf_jtb(
                g,
                fastbcc_connectivity::cc::CcOpts::default(),
            );
            let perm = fastbcc_connectivity::cc::cc_contiguous_perm(&cc.labels);
            fastbcc_graph::permute::relabel(g, &perm)
        };
        group.bench_function(format!("ldd+ccorder/{tag}"), |b| {
            b.iter(|| black_box(fast_bcc(&reordered, BccOpts::default())))
        });
    }

    group.finish();
}

criterion_group!(benches, bench_phases);
criterion_main!(benches);
