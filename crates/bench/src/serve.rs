//! Serving trajectory: the real-socket layer measured against the fused
//! in-process baseline (the `BENCH_serve.json` CI artifact).
//!
//! Everything below `mpest-net` bills communication logically; this
//! trajectory pays it on a loopback wire and reports what that costs:
//!
//! 1. **Per-protocol remote runs** — all 14 protocols through a
//!    loopback [`PartyHost`] (Alice in the caller, Bob behind a real
//!    TCP socket), each gated on bit-identity against the fused
//!    in-process run and on the physical-dominance invariant
//!    `wire_bytes ≥ ⌈logical_bits / 8⌉` (payloads cross the wire
//!    verbatim; headers are overhead, so the ratio is the codec's
//!    framing tax). Wire bytes are deterministic — same pair, same
//!    seed, same frames — and reported per protocol.
//! 2. **Serve-daemon throughput** — a catalog sweep through a loopback
//!    [`Server`] + [`ServeClient`] (one upload, then fingerprint-cache
//!    hits), reported as queries/s against the same sweep run directly
//!    on the in-process session: the price of a socket round-trip per
//!    query.
//! 3. **Concurrent connections** — ~1k parked clients (scaled down to
//!    the process's fd budget when it is lower) sit on the reactor
//!    while the same sweep flows as frame-id-tagged *pipelined* query
//!    batches on one busy connection. Gated on bit-identity again and
//!    on loaded throughput staying within 5× of the unloaded sweep —
//!    a parked crowd must cost the reactor (amortized) nothing.
//!
//! The CI `serve-smoke` job runs this in `--quick` mode and fails on
//! any remote-vs-local divergence.

use crate::report::json_escape;
use mpest_comm::{Party, Seed};
use mpest_core::{EstimateReport, EstimateRequest, Session};
use mpest_matrix::Workloads;
use mpest_net::{run_with_party_view, FramedConn, PartyHost, ServeClient, Server};
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One protocol's remote-run measurement.
#[derive(Debug, Clone)]
pub struct ProtocolWire {
    /// Protocol name.
    pub protocol: String,
    /// Logical transcript bits (identical local and remote).
    pub logical_bits: u64,
    /// Real bytes this run moved over the loopback socket, both
    /// directions, protocol frames + end exchange + output exchange.
    pub wire_bytes: u64,
    /// `wire_bytes / ⌈logical_bits/8⌉` — the framing tax.
    pub overhead_ratio: f64,
    /// Remote report == fused in-process report (output + transcript).
    pub matches_local: bool,
    /// The physical-dominance invariant `wire_bytes ≥ ⌈bits/8⌉`.
    pub wire_covers_logical: bool,
}

/// The full serving trajectory.
#[derive(Debug, Clone)]
pub struct ServeBench {
    /// `"quick"` (smoke) or `"full"`.
    pub mode: String,
    /// Square matrix dimension of the workload pair.
    pub n: usize,
    /// Remote-run measurements, one per protocol.
    pub per_protocol: Vec<ProtocolWire>,
    /// Queries in the daemon throughput sweep.
    pub serve_queries: usize,
    /// Daemon sweep wall-clock seconds.
    pub serve_secs: f64,
    /// Daemon queries per second (loopback round-trips).
    pub serve_qps: f64,
    /// The same sweep run directly in-process (fused), seconds.
    pub local_secs: f64,
    /// In-process queries per second.
    pub local_qps: f64,
    /// Whether every served report was bit-identical to the local run.
    pub serve_matches: bool,
    /// Whether the daemon's session cache hit after the first upload.
    pub cache_hit: bool,
    /// Idle clients actually parked on the reactor during the
    /// concurrent point (1000, or less under a tight fd limit).
    pub idle_connections: usize,
    /// Queries in the pipelined-under-load sweep.
    pub concurrent_queries: usize,
    /// Pipelined-under-load sweep wall-clock seconds.
    pub concurrent_secs: f64,
    /// Queries per second with the parked crowd attached.
    pub concurrent_qps: f64,
    /// Every pipelined reply bit-identical to the local run.
    pub concurrent_matches: bool,
    /// The concurrent gate: bit-identity and loaded throughput at
    /// least a fifth of the unloaded sweep's.
    pub concurrent_ok: bool,
    /// The CI gate: every per-protocol and serve comparison passed.
    pub all_match: bool,
}

/// The process's soft open-files limit (Linux `/proc`; a conservative
/// default elsewhere) — the concurrent point must not exhaust it.
fn fd_soft_limit() -> usize {
    std::fs::read_to_string("/proc/self/limits")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("Max open files"))
                .and_then(|l| l.split_whitespace().nth(3))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(1024)
}

fn pair(n: usize) -> (mpest_matrix::BitMatrix, mpest_matrix::BitMatrix) {
    (
        Workloads::bernoulli_bits(n, n, 0.15, 31),
        Workloads::bernoulli_bits(n, n, 0.15, 32),
    )
}

/// Runs the trajectory. `quick` sizes it for the CI smoke job.
///
/// # Panics
///
/// Panics if the loopback daemons cannot bind (no loopback network).
#[must_use]
pub fn run(quick: bool) -> ServeBench {
    let (n, serve_queries) = if quick { (24, 56) } else { (48, 224) };
    let (a, b) = pair(n);
    let session = Session::builder(a.clone(), b.clone())
        .seed(Seed(77))
        .build();
    let catalog = EstimateRequest::catalog();

    // 1. Per-protocol remote runs over a loopback party host.
    let host = PartyHost::spawn_split("127.0.0.1:0", session.party_view(Party::Bob))
        .expect("bind loopback party host");
    let host_addr = host.addr().to_string();
    let alice = session.party_view(Party::Alice);
    let mut per_protocol = Vec::new();
    for request in &catalog {
        let seed = Seed(1000 + per_protocol.len() as u64);
        let local = session
            .estimate_seeded(request, seed)
            .expect("local baseline");
        let (remote, out, inn) =
            run_with_party_view(&host_addr, &alice, request, seed).expect("remote run");
        let logical_bits = local.bits();
        let wire_bytes = out + inn;
        let logical_bytes = logical_bits.div_ceil(8).max(1);
        per_protocol.push(ProtocolWire {
            protocol: request.name().to_string(),
            logical_bits,
            wire_bytes,
            overhead_ratio: wire_bytes as f64 / logical_bytes as f64,
            matches_local: remote == local,
            wire_covers_logical: wire_bytes >= logical_bits.div_ceil(8),
        });
    }
    host.shutdown();

    // 2. Serve-daemon throughput vs the in-process baseline.
    let sweep: Vec<(u64, EstimateRequest)> = (0..serve_queries)
        .map(|i| (2000 + i as u64, catalog[i % catalog.len()].clone()))
        .collect();
    let a_csr = a.to_csr();
    let b_csr = b.to_csr();

    let local_session = Session::builder(a_csr.clone(), b_csr.clone())
        .seed(Seed(77))
        .build();
    let start = Instant::now();
    let local_reports: Vec<EstimateReport> = sweep
        .iter()
        .map(|(seed, request)| {
            local_session
                .estimate_seeded(request, Seed(*seed))
                .expect("local sweep")
        })
        .collect();
    let local_secs = start.elapsed().as_secs_f64();

    let server = Server::spawn("127.0.0.1:0", 1).expect("bind loopback server");
    let mut client = ServeClient::connect(&server.addr().to_string()).expect("connect");
    // Warm the cache (the upload is a one-time cost, not throughput).
    let warm = client
        .query(&a_csr, &b_csr, &[sweep[0].clone()])
        .expect("warmup query");
    assert!(warm.uploaded, "first query uploads the pair");
    let start = Instant::now();
    let mut serve_matches = true;
    let mut cache_hit = true;
    for (query, local) in sweep.iter().zip(&local_reports) {
        let outcome = client
            .query(&a_csr, &b_csr, std::slice::from_ref(query))
            .expect("served query");
        serve_matches &= outcome.reports.reports[0] == *local;
        cache_hit &= outcome.reports.cache_hit;
    }
    let serve_secs = start.elapsed().as_secs_f64();

    // 3. The concurrent-connections point: park a crowd of idle,
    //    handshake-complete clients on the reactor, then run the same
    //    sweep as pipelined query batches on the busy connection. The
    //    parked clients never become poll work (no wakeups, no reads),
    //    so loaded throughput must stay in the unloaded sweep's league.
    let idle_connections = 1000usize.min(fd_soft_limit().saturating_sub(64));
    let mut parked = Vec::with_capacity(idle_connections);
    for _ in 0..idle_connections {
        parked
            .push(FramedConn::connect(&server.addr().to_string(), None).expect("park idle client"));
    }
    let batches: Vec<Vec<(u64, EstimateRequest)>> = sweep.chunks(8).map(<[_]>::to_vec).collect();
    let start = Instant::now();
    let replies = client
        .query_pipelined(&a_csr, &b_csr, &batches)
        .expect("pipelined sweep under load");
    let concurrent_secs = start.elapsed().as_secs_f64();
    let mut concurrent_matches = replies.len() == batches.len();
    let mut local_iter = local_reports.iter();
    for reply in &replies {
        let reply = reply.as_ref().expect("pipelined batch failed");
        for report in &reply.reports {
            concurrent_matches &= Some(report) == local_iter.next();
        }
    }
    concurrent_matches &= local_iter.next().is_none();
    drop(parked);
    server.shutdown();

    let serve_qps = serve_queries as f64 / serve_secs.max(1e-9);
    let concurrent_qps = serve_queries as f64 / concurrent_secs.max(1e-9);
    let concurrent_ok = concurrent_matches && concurrent_qps >= 0.2 * serve_qps;
    let all_match = serve_matches
        && cache_hit
        && concurrent_ok
        && per_protocol
            .iter()
            .all(|p| p.matches_local && p.wire_covers_logical);
    ServeBench {
        mode: if quick { "quick" } else { "full" }.to_string(),
        n,
        per_protocol,
        serve_queries,
        serve_secs,
        serve_qps,
        local_secs,
        local_qps: serve_queries as f64 / local_secs.max(1e-9),
        serve_matches,
        cache_hit,
        idle_connections,
        concurrent_queries: serve_queries,
        concurrent_secs,
        concurrent_qps,
        concurrent_matches,
        concurrent_ok,
        all_match,
    }
}

impl ServeBench {
    /// Renders the trajectory as a JSON document.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str("  \"bench\": \"serve\",\n");
        out.push_str(&format!("  \"mode\": \"{}\",\n", json_escape(&self.mode)));
        out.push_str(&format!("  \"n\": {},\n", self.n));
        out.push_str("  \"per_protocol\": [");
        for (i, p) in self.per_protocol.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"protocol\": \"{}\", \"logical_bits\": {}, \"wire_bytes\": {}, \
                 \"overhead_ratio\": {:.4}, \"matches_local\": {}, \"wire_covers_logical\": {}}}",
                json_escape(&p.protocol),
                p.logical_bits,
                p.wire_bytes,
                p.overhead_ratio,
                p.matches_local,
                p.wire_covers_logical
            ));
        }
        out.push_str("\n  ],\n");
        out.push_str(&format!("  \"serve_queries\": {},\n", self.serve_queries));
        out.push_str(&format!("  \"serve_secs\": {:.6},\n", self.serve_secs));
        out.push_str(&format!("  \"serve_qps\": {:.2},\n", self.serve_qps));
        out.push_str(&format!("  \"local_secs\": {:.6},\n", self.local_secs));
        out.push_str(&format!("  \"local_qps\": {:.2},\n", self.local_qps));
        out.push_str(&format!("  \"serve_matches\": {},\n", self.serve_matches));
        out.push_str(&format!("  \"cache_hit\": {},\n", self.cache_hit));
        out.push_str(&format!(
            "  \"idle_connections\": {},\n",
            self.idle_connections
        ));
        out.push_str(&format!(
            "  \"concurrent_queries\": {},\n",
            self.concurrent_queries
        ));
        out.push_str(&format!(
            "  \"concurrent_secs\": {:.6},\n",
            self.concurrent_secs
        ));
        out.push_str(&format!(
            "  \"concurrent_qps\": {:.2},\n",
            self.concurrent_qps
        ));
        out.push_str(&format!(
            "  \"concurrent_matches\": {},\n",
            self.concurrent_matches
        ));
        out.push_str(&format!("  \"concurrent_ok\": {},\n", self.concurrent_ok));
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
            "serving layer (n={}, loopback):\n  \
             daemon {:.1} q/s vs in-process {:.1} q/s over {} queries \
             (bit-identical: {}, cache hits: {})\n",
            self.n,
            self.serve_qps,
            self.local_qps,
            self.serve_queries,
            self.serve_matches,
            self.cache_hit
        );
        out.push_str(&format!(
            "  {} parked clients + pipelined sweep: {:.1} q/s loaded vs {:.1} q/s \
             unloaded (bit-identical: {})\n",
            self.idle_connections, self.concurrent_qps, self.serve_qps, self.concurrent_matches
        ));
        for p in &self.per_protocol {
            out.push_str(&format!(
                "  {:<16} {:>10} logical bits  {:>10} wire bytes  {:>6.3}x overhead  \
                 remote==local: {}\n",
                p.protocol, p.logical_bits, p.wire_bytes, p.overhead_ratio, p.matches_local
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
        assert!(bench.all_match, "remote diverged from local");
        assert_eq!(bench.per_protocol.len(), 14);
        for p in &bench.per_protocol {
            assert!(
                p.wire_covers_logical,
                "{}: wire bytes {} below logical bytes {}",
                p.protocol,
                p.wire_bytes,
                p.logical_bits.div_ceil(8)
            );
        }
        assert!(bench.concurrent_ok, "concurrent-connections gate failed");
        assert!(bench.idle_connections > 0, "no clients parked");
        let json = bench.to_json();
        assert!(json.contains("\"bench\": \"serve\""));
        assert!(json.contains("\"concurrent_ok\": true"));
        assert!(json.contains("\"all_match\": true"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }
}
