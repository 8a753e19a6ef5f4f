//! The distributed contract: running a protocol with Alice and Bob in
//! separate processes over a real socket is **bit-identical** — outputs
//! *and* transcripts — to the fused in-process executor, for every
//! protocol; and the `mpest serve` daemon round-trip returns exactly the
//! report a local `Session::estimate_seeded` call produces. These tests
//! drive the loopback network stack of `mpest-net` (framed codec,
//! remote link, party host, serve daemon) end to end.

use mpest::net::{run_with_party_view, PartyHost, ServeClient, Server};
use mpest::prelude::*;

fn pair() -> (BitMatrix, BitMatrix) {
    (
        Workloads::bernoulli_bits(20, 28, 0.3, 1),
        Workloads::bernoulli_bits(28, 20, 0.3, 2),
    )
}

/// Remote (loopback `RemoteLink`) == fused in-process for all 14
/// protocols × 2 session seeds: identical type-erased outputs and
/// identical transcripts (record by record — sender, round, label, and
/// exact bit count), plus the physical-dominance invariant that the
/// real socket moved at least `⌈bits/8⌉` bytes.
#[test]
fn remote_matches_local_for_every_protocol_and_seed() {
    let (a, b) = pair();
    let requests = EstimateRequest::catalog();
    assert_eq!(requests.len(), 14, "one request per protocol");
    let host = PartyHost::spawn_split(
        "127.0.0.1:0",
        Session::new(a.clone(), b.clone()).party_view(Party::Bob),
    )
    .expect("bind loopback party host");
    let addr = host.addr().to_string();
    for session_seed in [3u64, 77] {
        let session = Session::builder(a.clone(), b.clone())
            .seed(Seed(session_seed))
            .build();
        for (i, request) in requests.iter().enumerate() {
            let seed = session.query_seed(i as u64);
            let local = session
                .estimate_seeded(request, seed)
                .unwrap_or_else(|e| panic!("{} (local, seed {session_seed}): {e}", request.name()));
            let (remote, out, inn) =
                run_with_party_view(&addr, &session.party_view(Party::Alice), request, seed)
                    .unwrap_or_else(|e| {
                        panic!("{} (remote, seed {session_seed}): {e}", request.name())
                    });
            assert_eq!(
                remote.output,
                local.output,
                "{} output diverged under seed {session_seed}",
                request.name()
            );
            assert_eq!(
                remote.transcript.records,
                local.transcript.records,
                "{} transcript diverged under seed {session_seed}",
                request.name()
            );
            assert!(
                out + inn >= local.bits().div_ceil(8),
                "{}: {} wire bytes cannot carry {} logical bits",
                request.name(),
                out + inn,
                local.bits()
            );
        }
    }
    host.shutdown();
}

/// The serve-daemon round-trip: every protocol's served report equals
/// the local run, the fingerprint cache hits after the one-time upload,
/// and the daemon's ledger accounts every served query.
#[test]
fn serve_round_trip_matches_local_for_every_protocol() {
    let (a, b) = pair();
    let (a_csr, b_csr) = (a.to_csr(), b.to_csr());
    let session = Session::new(a_csr.clone(), b_csr.clone());
    let server = Server::spawn("127.0.0.1:0", 1).expect("bind loopback server");
    let mut client = ServeClient::connect(&server.addr().to_string()).expect("connect");

    let queries: Vec<(u64, EstimateRequest)> = EstimateRequest::catalog()
        .into_iter()
        .enumerate()
        .map(|(i, request)| (500 + i as u64, request))
        .collect();

    // One multi-request query: uploads the pair once, runs through the
    // daemon's engine.
    let outcome = client.query(&a_csr, &b_csr, &queries).expect("first query");
    assert!(outcome.uploaded, "first query uploads the pair");
    assert!(!outcome.reports.cache_hit);
    assert_eq!(outcome.reports.reports.len(), queries.len());
    for ((seed, request), served) in queries.iter().zip(&outcome.reports.reports) {
        let local = session
            .estimate_seeded(request, Seed(*seed))
            .unwrap_or_else(|e| panic!("{} local: {e}", request.name()));
        assert_eq!(served, &local, "{} served != local", request.name());
    }

    // Second pass, reversed order, one request at a time: cache hits,
    // no upload, still bit-identical.
    for (seed, request) in queries.iter().rev() {
        let outcome = client
            .query(
                &a_csr,
                &b_csr,
                std::slice::from_ref(&(*seed, request.clone())),
            )
            .expect("cached query");
        assert!(outcome.reports.cache_hit, "{}", request.name());
        assert!(!outcome.uploaded);
        let local = session.estimate_seeded(request, Seed(*seed)).unwrap();
        assert_eq!(outcome.reports.reports[0], local);
    }

    // The daemon's global ledger saw every request; its real wire bytes
    // dwarf nothing — they at least cover the uploaded pair.
    let stats = client.stats().expect("stats");
    assert_eq!(stats.queries, 2 * queries.len() as u64);
    assert_eq!(stats.sessions, 1);
    assert!(stats.accounting.total_bits > 0);
    server.shutdown();
}

/// Both host-side roles work: a host playing Alice serves an initiator
/// playing Bob with identical results.
#[test]
fn remote_roles_are_symmetric() {
    let (a, b) = pair();
    let host = PartyHost::spawn_split(
        "127.0.0.1:0",
        Session::new(a.clone(), b.clone()).party_view(Party::Alice),
    )
    .expect("bind");
    let session = Session::new(a, b);
    for request in [
        EstimateRequest::ExactL1,
        EstimateRequest::SparseMatmul,
        EstimateRequest::LpBaseline {
            p: PNorm::ONE,
            eps: 0.4,
        },
        EstimateRequest::AtLeastTJoin { t: 2, slack: 0.5 },
    ] {
        let local = session.estimate_seeded(&request, Seed(11)).unwrap();
        let (remote, _, _) = run_with_party_view(
            &host.addr().to_string(),
            &session.party_view(Party::Bob),
            &request,
            Seed(11),
        )
        .unwrap_or_else(|e| panic!("{}: {e}", request.name()));
        assert_eq!(remote, local, "{}", request.name());
    }
    host.shutdown();
}

/// Errors cross the wire as typed errors, not hangs: a request invalid
/// for the pair fails identically on the remote path.
#[test]
fn remote_errors_match_local_errors() {
    // Non-binary integer pair: binary-only protocols must fail.
    let a = Workloads::integer_csr(8, 10, 0.4, 5, false, 1);
    let b = Workloads::integer_csr(10, 8, 0.4, 5, false, 2);
    let host = PartyHost::spawn_split(
        "127.0.0.1:0",
        Session::new(a.clone(), b.clone()).party_view(Party::Bob),
    )
    .expect("bind");
    let session = Session::new(a, b);
    let request = EstimateRequest::TrivialBinary;
    let local_err = session.estimate_seeded(&request, Seed(3)).unwrap_err();
    let remote_err = run_with_party_view(
        &host.addr().to_string(),
        &session.party_view(Party::Alice),
        &request,
        Seed(3),
    )
    .unwrap_err();
    assert_eq!(remote_err, local_err, "validation errors are identical");
    // The connection (and host) survive for a follow-up valid run.
    let ok = run_with_party_view(
        &host.addr().to_string(),
        &session.party_view(Party::Alice),
        &EstimateRequest::ExactL1,
        Seed(3),
    )
    .unwrap();
    assert_eq!(
        ok.0,
        session
            .estimate_seeded(&EstimateRequest::ExactL1, Seed(3))
            .unwrap()
    );
    host.shutdown();
}

/// The serving trajectory's deterministic fields: re-running the same
/// remote query moves exactly the same number of real bytes (frames are
/// a pure function of the pair and seed), wire bytes dominate logical
/// bits for every protocol, and `BENCH_serve.json` is emitted with the
/// gate satisfied.
#[test]
fn bench_serve_trajectory_is_deterministic_and_dominant() {
    let (a, b) = pair();
    let session = Session::new(a.clone(), b.clone());
    let host = PartyHost::spawn_split("127.0.0.1:0", Session::new(a, b).party_view(Party::Bob))
        .expect("bind");
    let addr = host.addr().to_string();
    for request in EstimateRequest::catalog() {
        let (r1, out1, in1) =
            run_with_party_view(&addr, &session.party_view(Party::Alice), &request, Seed(9))
                .unwrap_or_else(|e| panic!("{}: {e}", request.name()));
        let (r2, out2, in2) =
            run_with_party_view(&addr, &session.party_view(Party::Alice), &request, Seed(9))
                .unwrap_or_else(|e| panic!("{}: {e}", request.name()));
        assert_eq!(r1, r2, "{} reports differ across reruns", request.name());
        assert_eq!(
            (out1, in1),
            (out2, in2),
            "{} wire bytes differ across reruns",
            request.name()
        );
        assert!(
            out1 + in1 >= r1.bits().div_ceil(8),
            "{}: wire bytes below logical bits/8",
            request.name()
        );
    }
    host.shutdown();

    // The full quick trajectory (its own loopback daemons) passes its
    // gate and serializes with the per-protocol invariants intact.
    let bench = mpest_bench::serve::run(true);
    assert!(bench.all_match, "serve trajectory gate failed");
    assert_eq!(bench.per_protocol.len(), 14);
    for p in &bench.per_protocol {
        assert!(p.wire_covers_logical, "{}", p.protocol);
        assert!(p.matches_local, "{}", p.protocol);
    }
    let dir = std::env::temp_dir().join(format!("mpest-serve-bench-{}", std::process::id()));
    let path = dir.join("BENCH_serve.json");
    bench.save_json(&path).expect("write BENCH_serve.json");
    let written = std::fs::read_to_string(&path).unwrap();
    assert!(written.contains("\"all_match\": true"));
    let _ = std::fs::remove_dir_all(&dir);
}
