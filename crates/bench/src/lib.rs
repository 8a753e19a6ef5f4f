//! Benchmark and experiment harness reproducing every result row of
//! Woodruff & Zhang (PODS'18).
//!
//! The paper is a theory paper: its "evaluation" is the catalog of
//! communication bounds in Section 1.2 and the theorems behind them.
//! This crate regenerates that catalog *empirically*:
//!
//! * [`experiments`] — one function per experiment ID (T1, F1–F14)
//!   producing a [`report::Table`] of measured bits, rounds,
//!   approximation quality, and fitted scaling exponents;
//! * [`fit`] — log-log power-law fitting for the scaling claims;
//! * [`report`] — markdown + JSON table output;
//! * [`batch`] — the batch-engine throughput trajectory behind the CI
//!   bench-smoke job (`BENCH_batch.json`), which also gates on batch
//!   output being bit-identical to sequential execution;
//! * [`exec`] — the executor trajectory (`BENCH_exec.json`): fused vs
//!   threaded per-protocol latency and wire-bound throughput, gating on
//!   the two backends being bit-identical;
//! * [`accuracy`] — the statistical-guarantee trajectory
//!   (`BENCH_accuracy.json`): the `mpest-verify` Monte-Carlo sweep's
//!   per-protocol error quantiles, failure rates, and
//!   communication-vs-accuracy curves, gating on every protocol
//!   honoring its [`GuaranteeSpec`](mpest_core::GuaranteeSpec);
//! * [`kernels`] — the sketch-kernel trajectory (`BENCH_kernels.json`):
//!   memoized/vectorized kernels vs the scalar reference end-to-end,
//!   fused multi-seed passes vs per-seed builds, gating on bit-identity
//!   plus the ≥2x single-query and ≥3x amortized multi-seed speedups;
//! * [`serve`] — the serving trajectory (`BENCH_serve.json`): all 14
//!   protocols over a real loopback socket (remote party) plus
//!   serve-daemon round-trip throughput, gating on remote == local
//!   bit-identity and on real wire bytes dominating logical bits;
//! * [`stream`] — the streaming trajectory (`BENCH_stream.json`):
//!   live-update ingest rate, incremental-vs-rebuild speedup, query
//!   latency under update load, and the drift-verification sweep,
//!   gating on bit-identity and on every drifted contract holding.
//!
//! `cargo run --release -p mpest-bench --bin experiments` regenerates
//! everything; the Criterion benches under `benches/` measure
//! wall-clock cost of the same protocols and substrates.

pub mod accuracy;
pub mod batch;
pub mod exec;
pub mod experiments;
pub mod fit;
pub mod kernels;
pub mod obs;
pub mod report;
pub mod serve;
pub mod stream;
