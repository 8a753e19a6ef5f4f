//! Remote quickstart: the same estimation three ways — in-process,
//! against a remote party over a real socket, and through the serving
//! daemon — all bit-identical.
//!
//! ```text
//! cargo run --release --example remote_quickstart
//! ```
//!
//! In a real deployment the party host and the daemon are separate
//! processes (`mpest party --listen`, `mpest serve`); this example
//! spawns them as threads on loopback ports so it is self-contained,
//! but every protocol byte still crosses a genuine TCP socket.

use mpest::net::{run_with_party_view, PartyHost, ServeClient, Server};
use mpest::prelude::*;

fn main() {
    // Two relations: rows of A are Alice's sets, columns of B are Bob's.
    let a = Workloads::bernoulli_bits(96, 128, 0.15, 1);
    let b = Workloads::bernoulli_bits(128, 96, 0.15, 2);
    let session = Session::builder(a.clone(), b.clone()).seed(Seed(7)).build();
    let request = EstimateRequest::LpNorm {
        p: PNorm::Zero,
        eps: 0.25,
    };
    let seed = Seed(42);

    // 1. In-process (the fused executor): logical bits only.
    let local = session.estimate_seeded(&request, seed).unwrap();
    println!(
        "in-process : ||AB||_0 ≈ {:.0}  ({} logical bits, {} rounds)",
        local.output.as_scalar().unwrap(),
        local.bits(),
        local.rounds()
    );

    // 2. Remote party: Bob lives behind a TCP socket and each side holds
    //    only its own half; every protocol message is a framed wire
    //    write. Output and transcript are bit-identical to the
    //    in-process run.
    let host = PartyHost::spawn_split("127.0.0.1:0", session.party_view(Party::Bob))
        .expect("bind party host");
    let (remote, bytes_out, bytes_in) = run_with_party_view(
        &host.addr().to_string(),
        &session.party_view(Party::Alice),
        &request,
        seed,
    )
    .expect("remote run");
    assert_eq!(remote, local, "remote == local, bit for bit");
    println!(
        "remote     : identical report; real wire cost {} B out + {} B in \
         (logical payload {} B — the rest is framing)",
        bytes_out,
        bytes_in,
        local.bits().div_ceil(8)
    );
    host.shutdown();

    // 3. The serving daemon: fingerprint-keyed session cache, many
    //    clients, explicit seeds for reproducibility.
    let server = Server::spawn("127.0.0.1:0", 0).expect("bind server");
    let mut client = ServeClient::connect(&server.addr().to_string()).expect("connect");
    let (a_csr, b_csr) = (a.to_csr(), b.to_csr());
    let first = client
        .query(&a_csr, &b_csr, &[(seed.0, request.clone())])
        .expect("first query");
    assert_eq!(first.reports.reports[0], local);
    let second = client
        .query(&a_csr, &b_csr, &[(seed.0, request)])
        .expect("second query");
    assert!(second.reports.cache_hit, "pair uploaded exactly once");
    assert_eq!(second.reports.reports[0], local);
    println!(
        "served     : identical report; upload-then-cache ({} B first query, {} B once cached)",
        first.bytes_out + first.bytes_in,
        second.bytes_out + second.bytes_in,
    );
    let stats = client.stats().expect("stats");
    println!(
        "daemon     : {} request(s) served, {} cached session(s), {} logical bits, \
         {} wire bytes in / {} out",
        stats.queries, stats.sessions, stats.accounting.total_bits, stats.wire_in, stats.wire_out
    );
    server.shutdown();
}
