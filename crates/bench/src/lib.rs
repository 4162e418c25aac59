//! # fastbcc-bench
//!
//! The benchmark harness regenerating every table and figure of the
//! paper's evaluation (§6); the binary table below is the experiment index.
//!
//! * [`suite`] — the 20-graph benchmark collection mirroring Tab. 2's five
//!   categories at laptop scale (all sizes scale with `--scale`);
//! * [`measure`] — timing helpers (median-of-k, geometric means — the
//!   paper's aggregate of choice) and [`measure::Record`], the one row
//!   shape every binary writes as JSON lines (shared keys `graph`, `algo`,
//!   `n`, `threads`);
//! * [`runner`] — the shared per-graph measurement loop behind the
//!   `table2` and `fig1_heatmap` binaries;
//! * [`churn`] — churn-batch / perturbed-graph generation shared by the
//!   `serve` and `batch_dynamic` binaries.
//!
//! Binaries (one per experiment):
//!
//! | binary | paper artifact |
//! |--------|----------------|
//! | `table2` | Tab. 2 — all algorithms, all graphs |
//! | `fig1_heatmap` | Fig. 1 — speedup-over-SEQ heatmap |
//! | `fig4_scalability` | Fig. 4 — thread-count sweeps |
//! | `fig5_breakdown` | Fig. 5 — per-phase times, Ours vs GBBS-style |
//! | `fig6_localsearch` | Fig. 6 — hash-bag/local-search ablation |
//! | `fig7_space` | Fig. 7 — auxiliary space comparison |
//! | `table3_tv` | Tab. 3 — Tarjan–Vishkin runtimes |

pub mod churn;
pub mod measure;
pub mod runner;
pub mod suite;
