//! Batch-engine throughput trajectory (the CI bench-smoke artifact).
//!
//! Runs a fixed mixed-protocol workload (norms + heavy hitters + samples
//! over one matrix pair) through the [`Engine`] at increasing worker
//! counts — under **both executor backends** — times each sweep, and,
//! the part CI gates on, checks that every parallel run is
//! *bit-identical* to the sequential seeded run. Each point reports two
//! speedups: over its own executor's sequential baseline (parallel
//! scaling; bounded by the host's core count) and over the *threaded*
//! sequential baseline (each query on two threads of the remote
//! executor).
//! [`BatchBench::save_json`] writes the `BENCH_batch.json` trajectory
//! consumed by the workflow's artifact upload.

use crate::report::json_escape;
use mpest_comm::Seed;
use mpest_core::{BatchPlan, Engine, EstimateReport, EstimateRequest, ExecBackend, Session};
use mpest_matrix::{PNorm, Workloads};
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One worker-count measurement of the trajectory.
#[derive(Debug, Clone)]
pub struct BatchPoint {
    /// Worker threads used.
    pub workers: usize,
    /// Wall-clock seconds for the whole batch.
    pub secs: f64,
    /// Queries per second.
    pub qps: f64,
    /// Speedup over this executor's own sequential baseline (parallel
    /// scaling; saturates at the host's core count).
    pub speedup: f64,
    /// Speedup over the *threaded* sequential baseline.
    pub speedup_vs_threaded_seq: f64,
    /// Whether the batch output was bit-identical to the sequential run.
    pub matches_sequential: bool,
}

/// One executor's sweep: its sequential baseline plus one
/// [`BatchPoint`] per worker count.
#[derive(Debug, Clone)]
pub struct ExecutorRun {
    /// `"fused"` or `"threaded"`.
    pub executor: String,
    /// Sequential wall-clock seconds under this executor.
    pub sequential_secs: f64,
    /// Per-worker-count measurements.
    pub points: Vec<BatchPoint>,
}

/// The full trajectory: workload description and one [`ExecutorRun`]
/// per backend.
#[derive(Debug, Clone)]
pub struct BatchBench {
    /// `"quick"` (smoke) or `"full"`.
    pub mode: String,
    /// Square matrix dimension of the workload pair.
    pub n: usize,
    /// Number of queries in the batch.
    pub queries: usize,
    /// Distinct protocol names in the request mix.
    pub protocols: Vec<String>,
    /// Total bits exchanged across the batch (identical for every
    /// worker count and executor — that's the determinism contract).
    pub total_bits: u64,
    /// Largest round count of any query in the batch.
    pub max_rounds: u32,
    /// Per-executor sweeps (fused first).
    pub runs: Vec<ExecutorRun>,
    /// Whether *every* point of every executor matched the sequential
    /// run bit-for-bit.
    pub all_match: bool,
}

/// The mixed workload the trajectory sweeps: every protocol family the
/// engine serves, interleaved so neighboring queries rarely share a
/// protocol (worst case for naive per-protocol batching, the case the
/// shared session cache is built for).
#[must_use]
pub fn mixed_requests(queries: usize) -> Vec<EstimateRequest> {
    let mix = [
        EstimateRequest::LpNorm {
            p: PNorm::Zero,
            eps: 0.3,
        },
        EstimateRequest::HhBinary {
            p: 1.0,
            phi: 0.05,
            eps: 0.02,
        },
        EstimateRequest::L0Sample { eps: 0.3 },
        EstimateRequest::LpNorm {
            p: PNorm::ONE,
            eps: 0.3,
        },
        EstimateRequest::ExactL1,
        EstimateRequest::L1Sample,
        EstimateRequest::LinfBinary { eps: 0.3 },
        EstimateRequest::SparseMatmul,
    ];
    (0..queries).map(|i| mix[i % mix.len()].clone()).collect()
}

/// Runs the trajectory. `quick` shrinks the pair and the batch for the
/// CI smoke job; the full mode is sized for local profiling. The batch
/// is large enough (several cycles of the mix) that worker-pool spawn
/// cost amortizes and parallelism is measurable on multi-core hosts.
#[must_use]
pub fn run(quick: bool) -> BatchBench {
    let (n, queries) = if quick { (48, 48) } else { (128, 192) };
    let a = Workloads::bernoulli_bits(n, n, 0.15, 21);
    let b = Workloads::bernoulli_bits(n, n, 0.15, 22);
    let session = Session::builder(a.clone(), b.clone())
        .seed(Seed(77))
        .build();
    let requests = mixed_requests(queries);

    // Sequential baselines under both executors: the fused one is the
    // reference run every batch must reproduce; the threaded one is the
    // baseline `speedup_vs_threaded_seq` is measured against.
    let mut fused_sequential_secs = 0.0f64;
    let mut threaded_sequential_secs = 0.0f64;
    let mut sequential: Vec<EstimateReport> = Vec::new();
    let mut threaded_sequential: Vec<EstimateReport> = Vec::new();
    for exec in ExecBackend::ALL {
        let start = Instant::now();
        let reports: Vec<EstimateReport> = requests
            .iter()
            .enumerate()
            .map(|(i, req)| {
                session
                    .estimate_seeded_on(req, session.query_seed(i as u64), exec)
                    .expect("workload request")
            })
            .collect();
        let secs = start.elapsed().as_secs_f64();
        match exec {
            ExecBackend::Fused => {
                fused_sequential_secs = secs;
                sequential = reports;
            }
            ExecBackend::Threaded => {
                threaded_sequential_secs = secs;
                threaded_sequential = reports;
            }
        }
    }
    assert_eq!(
        threaded_sequential, sequential,
        "threaded sequential run diverged from fused"
    );

    let mut runs = Vec::new();
    let mut total_bits = 0u64;
    let mut max_rounds = 0u32;
    for exec in ExecBackend::ALL {
        let own_sequential_secs = match exec {
            ExecBackend::Fused => fused_sequential_secs,
            ExecBackend::Threaded => threaded_sequential_secs,
        };
        let mut points = Vec::new();
        for workers in [1usize, 2, 4, 8] {
            // A *fresh* session per point, so every measurement pays the
            // same one-time derived-view setup the sequential baseline
            // paid — a warmed cache would flatter the speedups in the CI
            // artifact.
            let engine = Engine::new(
                Session::builder(a.clone(), b.clone())
                    .seed(Seed(77))
                    .build(),
            );
            let plan = BatchPlan::default()
                .with_workers(workers)
                .with_executor(exec)
                .at_index(0);
            let start = Instant::now();
            let batch = engine.run_batch(&requests, &plan).expect("workload batch");
            let secs = start.elapsed().as_secs_f64();
            total_bits = batch.accounting.total_bits;
            max_rounds = batch.accounting.max_rounds;
            points.push(BatchPoint {
                workers,
                secs,
                qps: queries as f64 / secs.max(1e-9),
                speedup: own_sequential_secs / secs.max(1e-9),
                speedup_vs_threaded_seq: threaded_sequential_secs / secs.max(1e-9),
                matches_sequential: batch.reports == sequential,
            });
        }
        runs.push(ExecutorRun {
            executor: exec.as_str().to_string(),
            sequential_secs: own_sequential_secs,
            points,
        });
    }

    let protocols: Vec<String> = requests
        .iter()
        .map(|r| r.name().to_string())
        .collect::<std::collections::BTreeSet<_>>()
        .into_iter()
        .collect();
    let all_match = runs
        .iter()
        .flat_map(|r| r.points.iter())
        .all(|p| p.matches_sequential);
    BatchBench {
        mode: if quick { "quick" } else { "full" }.to_string(),
        n,
        queries,
        protocols,
        total_bits,
        max_rounds,
        runs,
        all_match,
    }
}

impl BatchBench {
    /// Renders the trajectory as a JSON document.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str("  \"bench\": \"batch-throughput\",\n");
        out.push_str(&format!("  \"mode\": \"{}\",\n", json_escape(&self.mode)));
        out.push_str(&format!("  \"n\": {},\n", self.n));
        out.push_str(&format!("  \"queries\": {},\n", self.queries));
        out.push_str("  \"protocols\": [");
        for (i, p) in self.protocols.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!("\"{}\"", json_escape(p)));
        }
        out.push_str("],\n");
        out.push_str(&format!("  \"total_bits\": {},\n", self.total_bits));
        out.push_str(&format!("  \"max_rounds\": {},\n", self.max_rounds));
        out.push_str("  \"executors\": [");
        for (i, run) in self.runs.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"executor\": \"{}\", \"sequential_secs\": {:.6}, \"points\": [",
                json_escape(&run.executor),
                run.sequential_secs
            ));
            for (j, p) in run.points.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&format!(
                    "\n      {{\"workers\": {}, \"secs\": {:.6}, \"qps\": {:.2}, \"speedup\": {:.3}, \"speedup_vs_threaded_seq\": {:.3}, \"matches_sequential\": {}}}",
                    p.workers, p.secs, p.qps, p.speedup, p.speedup_vs_threaded_seq, p.matches_sequential
                ));
            }
            out.push_str("\n    ]}");
        }
        out.push_str("\n  ],\n");
        out.push_str(&format!("  \"all_match\": {}\n", self.all_match));
        out.push_str("}\n");
        out
    }

    /// Writes the trajectory JSON to `path`.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn save_json(&self, path: &Path) -> std::io::Result<()> {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        let mut file = std::fs::File::create(path)?;
        file.write_all(self.to_json().as_bytes())
    }

    /// One-line human summary per point.
    #[must_use]
    pub fn summary(&self) -> String {
        let mut out = format!(
            "batch throughput (n={}, {} queries):\n",
            self.n, self.queries
        );
        for run in &self.runs {
            out.push_str(&format!(
                "  {} (sequential {:.3}s):\n",
                run.executor, run.sequential_secs
            ));
            for p in &run.points {
                out.push_str(&format!(
                    "    workers={:<2} {:.3}s  {:>8.1} q/s  speedup {:.2}x  vs threaded seq {:.2}x  bit-identical: {}\n",
                    p.workers, p.secs, p.qps, p.speedup, p.speedup_vs_threaded_seq, p.matches_sequential
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_trajectory_matches_sequential_and_serializes() {
        let bench = run(true);
        assert!(bench.all_match, "batch diverged from sequential");
        assert_eq!(bench.runs.len(), 2, "one sweep per executor");
        assert!(bench.runs.iter().all(|r| r.points.len() == 4));
        assert!(bench.total_bits > 0);
        assert!(bench.protocols.contains(&"lp".to_string()));
        let json = bench.to_json();
        assert!(json.contains("\"bench\": \"batch-throughput\""));
        assert!(json.contains("\"all_match\": true"));
        assert!(json.contains("\"executor\": \"fused\""));
        assert!(json.contains("\"executor\": \"threaded\""));
        assert!(json.contains("\"workers\": 8"));
        // Balanced braces/brackets — cheap structural validity check.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }
}
