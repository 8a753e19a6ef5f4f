//! The full-duplex write stall, pinned from both sides: with the kernel
//! socket buffers shrunk below the payload size, a simultaneous round —
//! here the post-protocol output exchange of `sparse-matmul`, where both
//! parties ship ~150 KiB of product shares at once — deadlocks the
//! blocking *reference* transport into a typed write-timeout, while the
//! default readiness-driven duplex transport spools the same frames,
//! drains them incrementally, and stays bit-identical to the in-process
//! run on **both** roles.
//!
//! `setsockopt` is declared by hand (std-only crate: no libc dependency)
//! and the test is Linux-only — the `SO_*` constants and the buffer
//! minimum-clamping behavior are Linux's.
#![cfg(target_os = "linux")]

use mpest::comm::CommError;
use mpest::net::{DuplexConn, FramedConn};
use mpest::prelude::*;
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::Arc;
use std::thread;
use std::time::Duration;

const SOL_SOCKET: i32 = 1;
const SO_SNDBUF: i32 = 7;
const SO_RCVBUF: i32 = 8;

extern "C" {
    fn setsockopt(
        fd: i32,
        level: i32,
        optname: i32,
        optval: *const std::ffi::c_void,
        optlen: u32,
    ) -> i32;
}

/// Shrinks both kernel buffers toward the floor (Linux clamps the
/// request to a few KiB) so the in-flight capacity per direction is far
/// below the output-exchange payload.
fn shrink_buffers(stream: &TcpStream) {
    let val: i32 = 4096;
    for opt in [SO_SNDBUF, SO_RCVBUF] {
        let rc = unsafe {
            setsockopt(
                stream.as_raw_fd(),
                SOL_SOCKET,
                opt,
                (&val as *const i32).cast(),
                std::mem::size_of::<i32>() as u32,
            )
        };
        assert_eq!(rc, 0, "setsockopt(SOL_SOCKET, {opt}) failed");
    }
}

/// A loopback pair with both ends' buffers shrunk *before* any protocol
/// byte moves.
fn shrunken_pair() -> (TcpStream, TcpStream) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr");
    let a = TcpStream::connect(addr).expect("connect");
    let (b, _) = listener.accept().expect("accept");
    for s in [&a, &b] {
        s.set_nodelay(true).expect("nodelay");
        shrink_buffers(s);
    }
    (a, b)
}

/// Shapes chosen so the sparse-matmul output (200 × 200 product shares,
/// ~150 KiB encoded) is roughly ten times the shrunken in-flight
/// capacity — guaranteed to wedge the blocking path — while staying
/// small enough that the duplex transfer's many tiny-window round-trips
/// keep the test quick.
fn big_session() -> Session {
    let a = Workloads::bernoulli_bits(200, 96, 0.3, 1);
    let b = Workloads::bernoulli_bits(96, 200, 0.3, 2);
    Session::new(a, b)
}

/// Runs one party of the remote round on its own thread, over either the
/// blocking reference transport or the default duplex one.
fn run_side(
    session: Arc<Session>,
    stream: TcpStream,
    side: Party,
    duplex: bool,
) -> thread::JoinHandle<Result<EstimateReport, CommError>> {
    thread::spawn(move || {
        let request = EstimateRequest::SparseMatmul;
        let seed = Seed(9);
        if duplex {
            let conn = FramedConn::establish(stream)?;
            let mut conn = DuplexConn::from_framed(conn, Some(Duration::from_secs(30)))?;
            let report = session
                .party_view(side)
                .estimate_remote(&request, seed, &mut conn)?;
            // A completed recv does not order this side's spooled sends:
            // flush them so the peer's own output read can finish (the
            // party/serve layers drain the same way after every run).
            conn.drain()?;
            Ok(report)
        } else {
            // The blocking path relies on socket deadlines to surface the
            // stall; without them both processes would hang forever.
            stream
                .set_read_timeout(Some(Duration::from_secs(2)))
                .and_then(|()| stream.set_write_timeout(Some(Duration::from_secs(2))))
                .map_err(|e| CommError::frame("socket", format!("timeouts: {e}")))?;
            let mut conn = FramedConn::establish(stream)?;
            session
                .party_view(side)
                .estimate_remote(&request, seed, &mut conn)
        }
    })
}

/// The bug: both parties enter the output exchange *writing* a payload
/// larger than the socket buffers, neither is reading, and the blocking
/// transport wedges until the write deadline converts the deadlock into
/// a typed timeout. Neither role may complete.
#[test]
fn blocking_reference_path_stalls_into_a_write_timeout() {
    let session = Arc::new(big_session());
    let (sa, sb) = shrunken_pair();
    let alice = run_side(Arc::clone(&session), sa, Party::Alice, false);
    let bob = run_side(session, sb, Party::Bob, false);
    let ea = alice
        .join()
        .expect("alice thread")
        .expect_err("alice must stall");
    let eb = bob.join().expect("bob thread").expect_err("bob must stall");
    // Whichever side's deadline fires first reports the timeout; the
    // other may instead see the resulting hangup (broken pipe / reset).
    let (ea, eb) = (ea.to_string(), eb.to_string());
    assert!(
        ea.contains("timed out") || eb.contains("timed out"),
        "expected a typed write-timeout, got alice={ea:?} bob={eb:?}"
    );
}

/// The fix: the identical round over the default duplex transport —
/// same shrunken buffers, same simultaneous oversized payloads — drains
/// incrementally on kernel readiness and both roles' reports (output,
/// transcript, everything) are bit-identical to the in-process run.
#[test]
fn duplex_default_path_completes_bit_identically_where_blocking_stalls() {
    let session = Arc::new(big_session());
    let local = session
        .estimate_seeded(&EstimateRequest::SparseMatmul, Seed(9))
        .expect("local run");
    let (sa, sb) = shrunken_pair();
    let alice = run_side(Arc::clone(&session), sa, Party::Alice, true);
    let bob = run_side(Arc::clone(&session), sb, Party::Bob, true);
    let ra = alice
        .join()
        .expect("alice thread")
        .expect("alice remote run");
    let rb = bob.join().expect("bob thread").expect("bob remote run");
    assert_eq!(ra, local, "alice's duplex report diverged from local");
    assert_eq!(rb, local, "bob's duplex report diverged from local");
}
