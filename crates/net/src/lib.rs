//! # mpest-net — estimation-as-a-service over real sockets
//!
//! Everything below `mpest-net` accounts communication *logically*: the
//! transcripts bill exact bits, but the bytes move over in-process
//! queues. This crate is where the system's "distributed" claim becomes
//! physically true — a hand-rolled, dependency-free (`std::net`) network
//! subsystem with three layers:
//!
//! 1. **[`codec`]** — a length-prefixed, versioned framed codec over any
//!    byte stream. Payloads are the same `BitWriter`-packed bytes the
//!    in-process executors move, so logical accounting is unchanged;
//!    headers and the preamble are physical overhead, billed to
//!    per-connection byte counters. Truncated/oversized/malformed frames
//!    surface as typed [`CommError::Frame`](mpest_comm::CommError)
//!    errors naming the offending label — never a panic or a hang.
//! 2. **[`reactor`](crate::duplex) / duplex I/O** — a hand-rolled
//!    `poll(2)` readiness layer under the codec. [`DuplexConn`] owns a
//!    nonblocking socket with spool queues in both directions and
//!    progresses *both* whenever the kernel is ready, so a simultaneous
//!    protocol round whose payloads exceed the socket buffers drains
//!    incrementally instead of deadlocking (the write-stall the blocking
//!    codec can only convert into a timeout). It is the one transport
//!    of the daemon, party hosts and initiators; its frames are
//!    byte-identical to those of the blocking [`FramedConn`] codec,
//!    which performs the handshake and serves as the client codec.
//! 3. **[`party`]** — remote two-party execution: a [`PartyHost`]
//!    process ([`PartyHost::spawn_split`]) plays one side of the pair
//!    and an initiator ([`run_with_party_view`]) plays the other, with
//!    every protocol message a framed socket write. Each process holds
//!    only a [`PartyView`](mpest_core::PartyView) — one matrix per
//!    process — and the two cross-check a `party-hello` handshake
//!    (shape, representation, fingerprint, per-side epoch) before any
//!    run. Outputs and transcripts are bit-identical to the fused
//!    in-process executor (`tests/remote_equivalence.rs` and
//!    `tests/party_split_equivalence.rs` prove it for all 14
//!    protocols).
//! 4. **[`server`] / [`client`]** — the `mpest serve` daemon: a
//!    readiness-driven reactor multiplexing many connections per thread
//!    (with frame-id-tagged pipelined queries and spool-budget
//!    backpressure) over a shared
//!    [`Engine`](mpest_core::Engine)-wrapped session cache keyed by
//!    matrix [`fingerprint()`]s, serving
//!    [`EstimateRequest`](mpest_core::EstimateRequest)s from many
//!    concurrent clients with real-socket byte accounting alongside the
//!    logical [`BatchAccounting`](mpest_comm::BatchAccounting) ledger.
//!
//! ```no_run
//! use mpest_core::EstimateRequest;
//! use mpest_matrix::Workloads;
//! use mpest_net::{Server, ServeClient};
//!
//! let a = Workloads::bernoulli_bits(64, 96, 0.2, 1).to_csr();
//! let b = Workloads::bernoulli_bits(96, 64, 0.2, 2).to_csr();
//! let server = Server::spawn("127.0.0.1:0", 0).unwrap();
//! let mut client = ServeClient::connect(&server.addr().to_string()).unwrap();
//! let outcome = client
//!     .query(&a, &b, &[(42, EstimateRequest::ExactL1)])
//!     .unwrap();
//! println!(
//!     "||AB||_1 = {:?} ({} logical bits, {} real bytes down)",
//!     outcome.reports.reports[0].output,
//!     outcome.reports.reports[0].bits(),
//!     outcome.bytes_in,
//! );
//! ```

pub mod client;
pub mod codec;
pub mod duplex;
pub mod fingerprint;
pub mod msg;
pub mod party;
mod reactor;
pub mod server;
mod server_reactor;

pub use client::{
    QueryOutcome, ServeClient, UpdateOutcome, CLIENT_IO_TIMEOUT, DEFAULT_REPLY_TIMEOUT,
};
pub use codec::{FramedConn, MAX_PAYLOAD_BYTES, VERSION};
pub use duplex::DuplexConn;
pub use fingerprint::fingerprint;
pub use msg::{
    MetricsMsg, PartyInfoMsg, QueryMsg, ReportsMsg, RunResultMsg, RunSpecMsg, ServiceMsg, StatsMsg,
    UpdateMsg, WCsr, MAX_WIRE_MATRIX_DIM, MAX_WIRE_METRICS, MAX_WIRE_UPDATE_OPS,
};
// The observability vocabulary (registry, snapshot, tracer) client code
// needs to consume `ServeClient::metrics()` or attach a trace to
// `ServerState::with_config_traced`, re-exported so downstream crates
// need not depend on `mpest-obs` directly.
pub use mpest_obs::{Registry, Snapshot, TraceFormat, Tracer};
pub use party::{
    party_info, run_with_party_view, run_with_party_view_with, update_split_party, PartyHost,
    PARTY_RUN_TIMEOUT_MAX,
};
pub use server::{
    serve_on, ServeConfig, Server, ServerState, DEFAULT_MAX_SESSIONS, DEFAULT_SPOOL_BUDGET,
};
