//! Executor trajectory: fused vs threaded hot-path comparison (the
//! second CI bench-smoke artifact).
//!
//! The protocols are communication-bounded, so the execution substrate
//! should cost microseconds — yet the threaded backend, the remote
//! executor run on two threads over an in-memory pipe, pays two thread
//! spawns, a channel send per frame, and the end and output exchanges
//! per query. This trajectory measures exactly that overhead, and its
//! bit-identity checks pin the fused path to the remote executor every
//! party host runs:
//!
//! 1. **Per-protocol latency** for all 14 entry points under both
//!    backends, with a bit-identity check per protocol — the part CI
//!    gates on.
//! 2. **Wire-bound throughput**: a serving mix of the cheapest
//!    protocols (`exact-l1`, `l1-sample`, `sparse-matmul`, `hh-binary`),
//!    where per-query work is dominated by the substrate, swept
//!    sequentially under both backends. This is the regime the fused
//!    executor exists for; the headline `fused_speedup` comes from here.
//! 3. **Engine points**: the same wire-bound mix through the batch
//!    [`Engine`] on fused workers, reported as speedup over the
//!    *threaded sequential* baseline.
//!
//! [`ExecBench::save_json`] writes the `BENCH_exec.json` artifact.

use crate::report::json_escape;
use mpest_comm::Seed;
use mpest_core::{BatchPlan, Engine, EstimateReport, EstimateRequest, ExecBackend, Session};
use mpest_matrix::Workloads;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// Per-protocol latency comparison under both backends.
#[derive(Debug, Clone)]
pub struct ProtocolLatency {
    /// Protocol name.
    pub protocol: String,
    /// Mean fused per-query latency, microseconds.
    pub fused_micros: f64,
    /// Mean threaded per-query latency, microseconds.
    pub threaded_micros: f64,
    /// `threaded_micros / fused_micros` (>1 = fused wins).
    pub speedup: f64,
    /// Whether fused and threaded reports (output + transcript) are
    /// bit-identical for this protocol.
    pub matches: bool,
}

/// One engine measurement over the wire-bound mix.
#[derive(Debug, Clone)]
pub struct EnginePoint {
    /// Fused worker threads used.
    pub workers: usize,
    /// Wall-clock seconds for the whole batch.
    pub secs: f64,
    /// Queries per second.
    pub qps: f64,
    /// Speedup over the *threaded sequential* baseline.
    pub speedup_vs_threaded_seq: f64,
    /// Whether the batch was bit-identical to the sequential run.
    pub matches_sequential: bool,
}

/// The full executor trajectory.
#[derive(Debug, Clone)]
pub struct ExecBench {
    /// `"quick"` (smoke) or `"full"`.
    pub mode: String,
    /// Square matrix dimension of the workload pair.
    pub n: usize,
    /// Number of queries in the wire-bound throughput sweep.
    pub queries: usize,
    /// Wire-bound sweep wall-clock, fused.
    pub fused_secs: f64,
    /// Wire-bound sweep wall-clock, threaded.
    pub threaded_secs: f64,
    /// Wire-bound queries per second, fused.
    pub fused_qps: f64,
    /// Wire-bound queries per second, threaded.
    pub threaded_qps: f64,
    /// `fused_qps / threaded_qps` — the headline ratio.
    pub fused_speedup: f64,
    /// Per-protocol latency table (all 14 protocols).
    pub per_protocol: Vec<ProtocolLatency>,
    /// Engine sweep over the wire-bound mix (fused workers).
    pub engine_points: Vec<EnginePoint>,
    /// Whether *every* per-protocol and engine comparison was
    /// bit-identical — the CI gate.
    pub all_match: bool,
}

/// The wire-bound serving mix: the protocols whose per-query cost is
/// dominated by the execution substrate rather than sketch compute, so
/// executor overhead is what the sweep measures.
#[must_use]
pub fn wire_requests(queries: usize) -> Vec<EstimateRequest> {
    let mix = [
        EstimateRequest::ExactL1,
        EstimateRequest::L1Sample,
        EstimateRequest::SparseMatmul,
        EstimateRequest::HhBinary {
            p: 1.0,
            phi: 0.05,
            eps: 0.02,
        },
    ];
    (0..queries).map(|i| mix[i % mix.len()].clone()).collect()
}

fn time_sweep(
    session: &Session,
    requests: &[EstimateRequest],
    exec: ExecBackend,
) -> (f64, Vec<EstimateReport>) {
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
    (start.elapsed().as_secs_f64(), reports)
}

/// Runs the trajectory. `quick` sizes the sweep for the CI smoke job.
#[must_use]
pub fn run(quick: bool) -> ExecBench {
    let (n, queries, iters) = if quick { (32, 64, 20) } else { (64, 256, 50) };
    let a = Workloads::bernoulli_bits(n, n, 0.15, 21);
    let b = Workloads::bernoulli_bits(n, n, 0.15, 22);
    let session = Session::builder(a.clone(), b.clone())
        .seed(Seed(77))
        .build();

    // Warm every derived view so timings measure queries, not setup.
    let catalog = EstimateRequest::catalog();
    for req in &catalog {
        let _ = session.estimate_seeded(req, Seed(1)).expect("warmup");
    }

    // 1. Per-protocol latency + bit-identity.
    let mut per_protocol = Vec::new();
    for req in &catalog {
        let fused = session
            .estimate_seeded_on(req, Seed(5), ExecBackend::Fused)
            .expect("fused run");
        let threaded = session
            .estimate_seeded_on(req, Seed(5), ExecBackend::Threaded)
            .expect("threaded run");
        let matches = fused == threaded;
        let mut micros = [0.0f64; 2];
        for (slot, exec) in ExecBackend::ALL.into_iter().enumerate() {
            let start = Instant::now();
            for i in 0..iters {
                let _ = session
                    .estimate_seeded_on(req, Seed(i as u64), exec)
                    .expect("timed run");
            }
            micros[slot] = start.elapsed().as_secs_f64() * 1e6 / f64::from(iters);
        }
        let (fused_micros, threaded_micros) = (micros[0], micros[1]);
        per_protocol.push(ProtocolLatency {
            protocol: req.name().to_string(),
            fused_micros,
            threaded_micros,
            speedup: threaded_micros / fused_micros.max(1e-9),
            matches,
        });
    }

    // 2. Wire-bound throughput sweep.
    let wire = wire_requests(queries);
    let (fused_secs, fused_reports) = time_sweep(&session, &wire, ExecBackend::Fused);
    let (threaded_secs, threaded_reports) = time_sweep(&session, &wire, ExecBackend::Threaded);
    let sweep_match = fused_reports == threaded_reports;
    let fused_qps = queries as f64 / fused_secs.max(1e-9);
    let threaded_qps = queries as f64 / threaded_secs.max(1e-9);

    // 3. Engine over the wire-bound mix, fused workers, against the
    //    threaded sequential baseline.
    let mut engine_points = Vec::new();
    for workers in [1usize, 2, 4, 8] {
        let engine = Engine::new(
            Session::builder(a.clone(), b.clone())
                .seed(Seed(77))
                .build(),
        );
        let plan = BatchPlan::default()
            .with_workers(workers)
            .with_executor(ExecBackend::Fused)
            .at_index(0);
        let start = Instant::now();
        let batch = engine.run_batch(&wire, &plan).expect("engine batch");
        let secs = start.elapsed().as_secs_f64();
        engine_points.push(EnginePoint {
            workers,
            secs,
            qps: queries as f64 / secs.max(1e-9),
            speedup_vs_threaded_seq: threaded_secs / secs.max(1e-9),
            matches_sequential: batch.reports == fused_reports,
        });
    }

    let all_match = sweep_match
        && per_protocol.iter().all(|p| p.matches)
        && engine_points.iter().all(|p| p.matches_sequential);
    ExecBench {
        mode: if quick { "quick" } else { "full" }.to_string(),
        n,
        queries,
        fused_secs,
        threaded_secs,
        fused_qps,
        threaded_qps,
        fused_speedup: fused_qps / threaded_qps.max(1e-9),
        per_protocol,
        engine_points,
        all_match,
    }
}

impl ExecBench {
    /// Renders the trajectory as a JSON document.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str("  \"bench\": \"executor-comparison\",\n");
        out.push_str(&format!("  \"mode\": \"{}\",\n", json_escape(&self.mode)));
        out.push_str(&format!("  \"n\": {},\n", self.n));
        out.push_str(&format!("  \"queries\": {},\n", self.queries));
        out.push_str(&format!("  \"fused_secs\": {:.6},\n", self.fused_secs));
        out.push_str(&format!(
            "  \"threaded_secs\": {:.6},\n",
            self.threaded_secs
        ));
        out.push_str(&format!("  \"fused_qps\": {:.2},\n", self.fused_qps));
        out.push_str(&format!("  \"threaded_qps\": {:.2},\n", self.threaded_qps));
        out.push_str(&format!(
            "  \"fused_speedup\": {:.3},\n",
            self.fused_speedup
        ));
        out.push_str("  \"per_protocol\": [");
        for (i, p) in self.per_protocol.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"protocol\": \"{}\", \"fused_micros\": {:.2}, \"threaded_micros\": {:.2}, \"speedup\": {:.3}, \"matches\": {}}}",
                json_escape(&p.protocol), p.fused_micros, p.threaded_micros, p.speedup, p.matches
            ));
        }
        out.push_str("\n  ],\n");
        out.push_str("  \"engine_points\": [");
        for (i, p) in self.engine_points.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"workers\": {}, \"secs\": {:.6}, \"qps\": {:.2}, \"speedup_vs_threaded_seq\": {:.3}, \"matches_sequential\": {}}}",
                p.workers, p.secs, p.qps, p.speedup_vs_threaded_seq, p.matches_sequential
            ));
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

    /// Human-readable summary.
    #[must_use]
    pub fn summary(&self) -> String {
        let mut out = format!(
            "executor comparison (n={}, wire-bound mix of {} queries):\n  \
             fused {:.1} q/s vs threaded {:.1} q/s -> {:.2}x\n",
            self.n, self.queries, self.fused_qps, self.threaded_qps, self.fused_speedup
        );
        for p in &self.per_protocol {
            out.push_str(&format!(
                "  {:<16} fused {:>9.1}us  threaded {:>9.1}us  {:>5.2}x  bit-identical: {}\n",
                p.protocol, p.fused_micros, p.threaded_micros, p.speedup, p.matches
            ));
        }
        for p in &self.engine_points {
            out.push_str(&format!(
                "  engine workers={:<2} {:>9.1} q/s  {:>5.2}x vs threaded sequential  bit-identical: {}\n",
                p.workers, p.qps, p.speedup_vs_threaded_seq, p.matches_sequential
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_trajectory_matches_and_serializes() {
        let bench = run(true);
        assert!(bench.all_match, "fused diverged from threaded");
        assert_eq!(bench.per_protocol.len(), 14, "all protocols compared");
        assert_eq!(bench.engine_points.len(), 4);
        assert!(bench.fused_qps > 0.0 && bench.threaded_qps > 0.0);
        let json = bench.to_json();
        assert!(json.contains("\"bench\": \"executor-comparison\""));
        assert!(json.contains("\"all_match\": true"));
        assert!(json.contains("\"protocol\": \"exact-l1\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }
}
