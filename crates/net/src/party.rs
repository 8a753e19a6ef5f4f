//! Remote parties: running one side of a two-party protocol in its own
//! process, with the peer across a TCP connection.
//!
//! Each process holds a [`PartyView`] — its own matrix plus the peer's
//! public [`PeerInfo`](mpest_core::PeerInfo) — and *cannot* reach the
//! peer's entries even by accident. A process that holds both matrices
//! plays a side through [`Session::party_view`](mpest_core::Session::party_view).
//!
//! A **party host** ([`PartyHost::spawn_split`]) listens on an address
//! and plays its view's side. An **initiator** ([`run_with_party_view`])
//! connects and opens with a mandatory bidirectional `party-hello`
//! (shape, representation, fingerprint, per-side epoch), which replaces
//! the full-pair validation a session would have done: dimension,
//! binariness, or epoch divergence fails typed before a single protocol
//! frame moves. The initiator then negotiates `(side, seed, request)`
//! via a [`RunSpecMsg`], and both processes execute the protocol through
//! [`PartyView::estimate_remote`] — every message a real framed write on
//! the socket. The remote executor's end-and-output exchange leaves
//! *both* sides with the complete [`EstimateReport`] (transcript
//! reconstructed from frame headers, outputs shipped once the protocol
//! succeeds), so the closing [`RunResultMsg`] exchange is a
//! resynchronization barrier that also surfaces asymmetric failures
//! (e.g. one side rejecting its inputs before any frame moved).

use crate::codec::FramedConn;
use crate::duplex::DuplexConn;
use crate::fingerprint::fingerprint;
use crate::msg::{PartyInfoMsg, RunResultMsg, RunSpecMsg, ServiceMsg, UpdateMsg};
use crate::reactor::{wait_ready, Readiness, StopSignal, POLLIN};
use mpest_comm::{CommError, Party, Seed};
use mpest_core::{EstimateReport, EstimateRequest, PartyView, UpdateBatch};
use mpest_obs::{Counter, Registry, Snapshot};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::{Arc, RwLock};
use std::time::Duration;

/// Light per-host counters: how many runs/updates this party host has
/// served and the logical traffic they moved. Purely additive — the
/// protocol bytes on the wire are identical with or without anyone
/// reading them.
#[derive(Clone, Default)]
struct PartyMetrics {
    runs: Counter,
    run_failures: Counter,
    updates: Counter,
    bits: Counter,
    rounds: Counter,
}

impl PartyMetrics {
    fn new(registry: &Registry) -> Self {
        Self {
            runs: registry.counter("party.runs"),
            run_failures: registry.counter("party.run_failures"),
            updates: registry.counter("party.updates"),
            bits: registry.counter("party.bits"),
            rounds: registry.counter("party.rounds"),
        }
    }
}

/// I/O timeout (both directions) for party connections: a vanished or
/// wedged peer surfaces as a typed error, not a hang.
pub const PARTY_IO_TIMEOUT: Duration = Duration::from_secs(30);

/// Hard ceiling on the per-read/write run deadline a party host accepts
/// from an initiator's run-spec (a request for "no deadline" clamps
/// here too): a remote peer must never be able to pin a host thread in
/// an unbounded socket read.
pub const PARTY_RUN_TIMEOUT_MAX: Duration = Duration::from_secs(600);

/// Runs `request` as `view`'s side over an established connection whose
/// peer runs the complementary side (the shared core of the initiator
/// and the host), then closes with the [`RunResultMsg`] exchange.
/// Returns the complete report, bit-identical to an in-process run over
/// the assembled pair under the same seed.
fn run_over_conn(
    conn: &mut DuplexConn,
    view: &PartyView,
    request: &EstimateRequest,
    seed: Seed,
) -> Result<EstimateReport, CommError> {
    let local = view.estimate_remote(request, seed, conn);
    // A local failure is the primary diagnosis (the peer usually echoes
    // it), so the closing result exchange is best-effort in that case —
    // a dead connection must not replace the real error with a generic
    // transport one (or block another read-timeout interval waiting for
    // a reply that will never come).
    let result_msg = ServiceMsg::RunResult(RunResultMsg {
        error: local.as_ref().err().map(ToString::to_string),
    });
    if local.is_err() {
        // Only resynchronize when the connection itself still works; a
        // transport-level failure means the stream is gone.
        if !matches!(
            local,
            Err(CommError::Frame { .. } | CommError::ChannelClosed)
        ) {
            let _ = conn.send_msg(&result_msg);
            let _ = conn.recv_msg_patient(Some(PARTY_IO_TIMEOUT));
        }
        return local;
    }
    conn.send_msg(&result_msg)?;
    let peer = match conn.recv_msg_required()? {
        ServiceMsg::RunResult(res) => res,
        other => {
            return Err(CommError::frame(
                other.name(),
                "expected run-result after the protocol",
            ))
        }
    };
    if let Some(err) = peer.error {
        // The peer failed where this side succeeded (e.g. it rejected
        // its inputs before any frame moved).
        return Err(CommError::protocol(format!("remote party failed: {err}")));
    }
    local
}

/// Sends the run-spec and waits for the host's ok/error verdict.
fn negotiate_spec(
    conn: &mut DuplexConn,
    my_side: Party,
    request: &EstimateRequest,
    seed: Seed,
    io_timeout: Option<Duration>,
) -> Result<(), CommError> {
    conn.send_msg(&ServiceMsg::RunSpec(RunSpecMsg {
        initiator_side: my_side,
        seed: seed.0,
        io_timeout_secs: io_timeout.map_or(0, |t| {
            (t.as_secs() + u64::from(t.subsec_nanos() != 0)).max(1)
        }),
        request: request.clone(),
    }))?;
    match conn.recv_msg_required()? {
        ServiceMsg::Ok => Ok(()),
        ServiceMsg::Error(msg) => Err(CommError::protocol(format!(
            "party rejected the run: {msg}"
        ))),
        other => Err(CommError::frame(
            other.name(),
            "expected ok/error in reply to run-spec",
        )),
    }
}

/// The `party-hello` a [`PartyView`] announces: its side, the shape and
/// representation of the half it holds, that half's content
/// fingerprint, and its per-side epoch.
#[must_use]
pub fn party_info(view: &PartyView) -> PartyInfoMsg {
    let (rows, cols) = view.own_shape();
    PartyInfoMsg {
        side: view.role(),
        rows: rows as u64,
        cols: cols as u64,
        binary: view.own_binary(),
        fp: fingerprint(view.own_csr()),
        epoch: view.epoch(),
    }
}

/// Cross-checks a peer's `party-hello` against what `view` already
/// knows: the peer must play the complementary side, its announced
/// shape and binariness must match the stored
/// [`PeerInfo`](mpest_core::PeerInfo), and the per-side epochs must
/// agree (both halves must have ingested the same number of update
/// rounds — the storage-split replacement for full-pair fingerprint
/// validation).
fn check_hello(view: &PartyView, hello: &PartyInfoMsg) -> Result<(), CommError> {
    let me = view.role();
    if hello.side != me.peer() {
        return Err(CommError::protocol(format!(
            "party-hello side collision: this process plays {me}, \
             but the peer announced {}",
            hello.side
        )));
    }
    let peer = view.peer();
    if (hello.rows, hello.cols) != (peer.rows() as u64, peer.cols() as u64) {
        return Err(CommError::protocol(format!(
            "party-hello shape mismatch: expected the {} half to be \
             {}x{}, peer announced {}x{}",
            hello.side,
            peer.rows(),
            peer.cols(),
            hello.rows,
            hello.cols
        )));
    }
    if hello.binary != peer.binary() {
        return Err(CommError::protocol(format!(
            "party-hello representation mismatch: expected the {} half \
             to be {}binary, peer announced the opposite",
            hello.side,
            if peer.binary() { "" } else { "non-" }
        )));
    }
    if hello.epoch != view.epoch() {
        return Err(CommError::protocol(format!(
            "party-hello epoch divergence: this {} half is at epoch {}, \
             the peer's {} half is at epoch {} — per-side updates must \
             be applied in lockstep",
            me,
            view.epoch(),
            hello.side,
            hello.epoch
        )));
    }
    Ok(())
}

/// Connects to the party host at `addr` and runs `request`, this
/// process holding only `view`'s half. Opens with the bidirectional
/// `party-hello` handshake; both sides cross-check before the run is
/// negotiated. Returns the report plus `(bytes_out, bytes_in)` — the
/// real socket cost of the run as seen from this end.
///
/// # Errors
///
/// Handshake divergence (shape, binariness, side, or epoch), and any
/// protocol, validation or transport error of the run on either side.
pub fn run_with_party_view(
    addr: &str,
    view: &PartyView,
    request: &EstimateRequest,
    seed: Seed,
) -> Result<(EstimateReport, u64, u64), CommError> {
    run_with_party_view_with(addr, view, request, seed, Some(PARTY_IO_TIMEOUT), None)
}

/// [`run_with_party_view`] with an explicit per-read/write deadline and
/// an optional content pin.
///
/// `io_timeout` of `None` means no deadline — e.g. slow links or heavy
/// per-round compute where the default [`PARTY_IO_TIMEOUT`] is too
/// tight. The deadline is carried in the run-spec (rounded up to whole
/// seconds), so the host applies the same one for the run instead of
/// dropping a slow-but-healthy initiator at its default — clamped
/// host-side at [`PARTY_RUN_TIMEOUT_MAX`].
///
/// When `pin_peer_fp` is `Some`, the host's announced fingerprint must
/// match it exactly — shape and binariness checks catch structural
/// divergence, the pin catches a peer whose half has the right shape
/// but the wrong entries.
///
/// # Errors
///
/// Same as [`run_with_party_view`], plus a typed rejection when the pin
/// does not match.
pub fn run_with_party_view_with(
    addr: &str,
    view: &PartyView,
    request: &EstimateRequest,
    seed: Seed,
    io_timeout: Option<Duration>,
    pin_peer_fp: Option<u64>,
) -> Result<(EstimateReport, u64, u64), CommError> {
    let mut conn = DuplexConn::from_framed(FramedConn::connect(addr, io_timeout)?, io_timeout)?;
    conn.send_msg(&ServiceMsg::PartyHello(party_info(view)))?;
    match conn.recv_msg_required()? {
        ServiceMsg::PartyHello(hello) => {
            check_hello(view, &hello)?;
            if let Some(pin) = pin_peer_fp {
                if hello.fp != pin {
                    return Err(CommError::protocol(format!(
                        "party-hello fingerprint mismatch: pinned the peer \
                         half to {pin:#x}, host announced {:#x}",
                        hello.fp
                    )));
                }
            }
        }
        ServiceMsg::Error(msg) => {
            return Err(CommError::protocol(format!(
                "party rejected the handshake: {msg}"
            )))
        }
        other => {
            return Err(CommError::frame(
                other.name(),
                "expected party-hello in reply to party-hello",
            ))
        }
    }
    negotiate_spec(&mut conn, view.role(), request, seed, io_timeout)?;
    let report = run_over_conn(&mut conn, view, request, seed)?;
    conn.drain()?;
    Ok((report, conn.bytes_out(), conn.bytes_in()))
}

/// A listening party host: accepts connections and plays its view's
/// side for every [`RunSpecMsg`] an initiator sends (several runs may
/// share one connection). Between runs it also accepts per-side
/// [`UpdateBatch`]es (see [`update_split_party`]), mutating its half in
/// place so long-lived monitoring deployments never restart to ingest
/// new data.
pub struct PartyHost {
    addr: SocketAddr,
    stop: StopSignal,
    registry: Registry,
    join: Option<std::thread::JoinHandle<()>>,
}

impl PartyHost {
    /// Binds `addr` (e.g. `"127.0.0.1:0"`) holding only **one half**:
    /// `view`'s own matrix plus the peer's public metadata — a party
    /// process never sees the other matrix. The served side is
    /// `view.role()`. Serves in background threads — one accept loop,
    /// one thread per connection. Every connection must open with a
    /// `party-hello` handshake (cross-checked both ways) before runs
    /// are accepted. Runs and updates are serialized through a
    /// reader-writer lock: a run in flight blocks updates, never the
    /// reverse mid-protocol.
    ///
    /// # Errors
    ///
    /// I/O errors from binding.
    pub fn spawn_split(addr: &str, view: PartyView) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let stop = StopSignal::new()?;
        let stop_accept = stop.clone();
        let registry = Registry::new();
        let metrics = PartyMetrics::new(&registry);
        let lock = Arc::new(RwLock::new(view));
        let join = std::thread::spawn(move || {
            let stop_conn = stop_accept.clone();
            accept_loop(&listener, &stop_accept, move |stream| {
                let lock = Arc::clone(&lock);
                let stop = stop_conn.clone();
                let metrics = metrics.clone();
                std::thread::spawn(move || {
                    let _ = serve_party_conn(stream, &lock, &stop, &metrics);
                });
            });
        });
        Ok(Self {
            addr: local,
            stop,
            registry,
            join: Some(join),
        })
    }

    /// The bound address (useful with port 0).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// A deterministic snapshot of this host's run counters
    /// (`party.runs`, `party.run_failures`, `party.updates`,
    /// `party.bits`, `party.rounds`).
    #[must_use]
    pub fn metrics_snapshot(&self) -> Snapshot {
        self.registry.snapshot()
    }

    /// Blocks until the accept loop exits (the foreground CLI path; the
    /// loop exits when another actor calls [`PartyHost::shutdown`] or
    /// the process dies).
    pub fn wait(mut self) {
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
    }

    /// Stops accepting and joins the accept loop. Parked connections
    /// wake immediately: every serve loop polls the host's stop pipe
    /// alongside its socket, so shutdown needs no 500ms slices.
    pub fn shutdown(mut self) {
        self.stop.trigger();
        // Unblock the accept call.
        let _ = TcpStream::connect(self.addr);
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
    }
}

impl Drop for PartyHost {
    fn drop(&mut self) {
        self.stop.trigger();
        let _ = TcpStream::connect(self.addr);
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
    }
}

/// Accept loop: hand every connection to `handle` until `stop`.
fn accept_loop(listener: &TcpListener, stop: &StopSignal, handle: impl Fn(TcpStream)) {
    for stream in listener.incoming() {
        if stop.is_set() {
            break;
        }
        match stream {
            Ok(stream) => handle(stream),
            Err(_) => continue,
        }
    }
}

/// Serves one initiator connection: a `party-hello`, then a sequence of
/// run-specs and update batches.
fn serve_party_conn(
    stream: TcpStream,
    lock: &RwLock<PartyView>,
    stop: &StopSignal,
    metrics: &PartyMetrics,
) -> Result<(), CommError> {
    // Bound the handshake too: a peer that connects and never speaks
    // must not pin this thread forever.
    stream
        .set_read_timeout(Some(PARTY_IO_TIMEOUT))
        .and_then(|()| stream.set_write_timeout(Some(PARTY_IO_TIMEOUT)))
        .map_err(|e| CommError::frame("accept", format!("socket options failed: {e}")))?;
    let conn = DuplexConn::from_framed(FramedConn::accept(stream)?, Some(PARTY_IO_TIMEOUT))?;
    serve_party_loop(conn, lock, stop, metrics)
}

/// The per-connection serve loop. Parks in a zero-wakeup readiness wait
/// (socket + stop pipe) between messages — an initiator may hold the
/// connection idle indefinitely — then reads one message under the
/// in-flight deadline.
fn serve_party_loop(
    mut conn: DuplexConn,
    lock: &RwLock<PartyView>,
    stop: &StopSignal,
    metrics: &PartyMetrics,
) -> Result<(), CommError> {
    // The handshake comes before any run: the hello's cross-check is
    // what replaces the full-pair validation a session would have done
    // locally.
    let mut greeted = false;
    loop {
        // Message boundary: flush replies before parking, so a parked
        // connection has no pending writes and read-readiness alone is
        // the complete wake condition.
        conn.drain()?;
        if !conn.has_buffered() {
            match wait_ready(conn.raw_fd(), POLLIN, Some(stop), None)
                .map_err(|e| CommError::frame("accept", format!("poll failed: {e}")))?
            {
                Readiness::Stopped => return Ok(()),
                Readiness::Ready | Readiness::TimedOut => {}
            }
        }
        let msg = match conn.recv_msg_patient(Some(PARTY_IO_TIMEOUT)) {
            Ok(Some(msg)) => msg,
            Ok(None) => return Ok(()), // initiator hung up cleanly
            Err(CommError::WouldBlock) => continue,
            Err(e) => return Err(e),
        };
        let spec = match msg {
            ServiceMsg::RunSpec(spec) => spec,
            ServiceMsg::Update(update) => {
                metrics.updates.inc();
                conn.send_msg(&handle_party_update(lock, &update))?;
                continue;
            }
            ServiceMsg::PartyHello(hello) => {
                let view = lock.read().expect("party view");
                match check_hello(&view, &hello) {
                    Ok(()) => {
                        greeted = true;
                        conn.send_msg(&ServiceMsg::PartyHello(party_info(&view)))?;
                    }
                    Err(e) => conn.send_msg(&ServiceMsg::Error(e.to_string()))?,
                }
                continue;
            }
            other => {
                conn.send_msg(&ServiceMsg::Error(format!(
                    "expected run-spec, got {}",
                    other.name()
                )))?;
                continue;
            }
        };
        if !greeted {
            conn.send_msg(&ServiceMsg::Error(
                "this host is storage-split: send party-hello before the \
                 first run-spec so both halves are cross-checked"
                    .to_string(),
            ))?;
            continue;
        }
        // Hold the read side for the whole run: an update landing on
        // another connection waits instead of mutating the half under a
        // live protocol.
        let view = lock.read().expect("party view");
        let side = view.role();
        if spec.initiator_side == side {
            conn.send_msg(&ServiceMsg::Error(format!(
                "initiator claims side {side}, but this host already plays it"
            )))?;
            continue;
        }
        conn.send_msg(&ServiceMsg::Ok)?;
        // Match the initiator's requested deadline for this run, so a
        // side that legitimately computes longer than the host's default
        // between rounds is not dropped mid-run — but clamp it: the
        // peer's value must not let it pin this thread forever.
        let run_timeout = match spec.io_timeout_secs {
            0 => PARTY_RUN_TIMEOUT_MAX,
            secs => Duration::from_secs(secs).min(PARTY_RUN_TIMEOUT_MAX),
        };
        conn.set_io_timeout(Some(run_timeout));
        // Errors are shipped to the initiator inside run_over_conn's
        // result exchange; a transport error tears the connection down.
        let outcome = run_over_conn(&mut conn, &view, &spec.request, Seed(spec.seed));
        conn.set_io_timeout(Some(PARTY_IO_TIMEOUT));
        match outcome {
            Ok(report) => {
                metrics.runs.inc();
                metrics.bits.add(report.bits());
                metrics.rounds.add(u64::from(report.rounds()));
            }
            Err(e @ (CommError::Frame { .. } | CommError::ChannelClosed)) => {
                metrics.run_failures.inc();
                return Err(e);
            }
            Err(_) => metrics.run_failures.inc(),
        }
    }
}

/// Applies an update batch to the host's half, validated **per-side**:
/// only the fingerprint slot for the half this host holds is checked (a
/// nonzero value pins content, zero skips), the ack reports zero for
/// the unknown peer slot, and a batch touching the peer's side fails
/// typed inside [`PartyView::apply_update`]. A nonzero peer slot is
/// refused before anything mutates: only a full-pair mirror sets it,
/// and that mirror would apply the batch as a new epoch of *both*
/// halves, leaving the pair out of lockstep with this host.
fn handle_party_update(lock: &RwLock<PartyView>, update: &UpdateMsg) -> ServiceMsg {
    let mut view = lock.write().expect("party view");
    let own_fp = fingerprint(view.own_csr());
    let epoch = view.epoch();
    let side = view.role();
    let slots = |fp: u64, epoch: u64| match side {
        Party::Alice => (fp, 0, epoch),
        Party::Bob => (0, fp, epoch),
    };
    let (expect_fp, peer_fp) = match side {
        Party::Alice => (update.fp_a, update.fp_b),
        Party::Bob => (update.fp_b, update.fp_a),
    };
    if peer_fp != 0 {
        return ServiceMsg::Error(format!(
            "this storage-split host holds only the {side} half, but the update \
             pins the {} half too, as a full-pair mirror does; push each side's \
             ops to the party holding that half with update_split_party",
            side.peer()
        ));
    }
    if (expect_fp != 0 && expect_fp != own_fp) || update.expect_epoch != epoch {
        let (fp_a, fp_b, epoch) = slots(own_fp, epoch);
        return ServiceMsg::StaleEpoch { fp_a, fp_b, epoch };
    }
    match view.apply_update(&update.batch) {
        Ok(new_epoch) => {
            let (fp_a, fp_b, epoch) = slots(fingerprint(view.own_csr()), new_epoch);
            ServiceMsg::UpdateAck { fp_a, fp_b, epoch }
        }
        Err(e) => ServiceMsg::Error(e.to_string()),
    }
}

/// Pushes `batch` to the party host playing `host_side` at `addr`. The
/// pusher does not hold the host's matrix, so addressing is per-side:
/// `expect_fp` pins the host half's content (zero skips the pin),
/// `expect_epoch` must match the host's per-side epoch, and the batch
/// must only touch `host_side` (ops for the other side fail typed on
/// the host). Returns the host half's post-update `(fingerprint,
/// epoch)` so the caller can keep its own view's epoch in lockstep (see
/// [`PartyView::apply_update`]) and pin future runs.
///
/// # Errors
///
/// Transport errors; a typed stale-epoch rejection when pin or epoch
/// disagree; the host's typed refusal for foreign-side ops.
pub fn update_split_party(
    addr: &str,
    host_side: Party,
    expect_fp: u64,
    expect_epoch: u64,
    batch: &UpdateBatch,
    io_timeout: Option<Duration>,
) -> Result<(u64, u64), CommError> {
    let (fp_a, fp_b) = match host_side {
        Party::Alice => (expect_fp, 0),
        Party::Bob => (0, expect_fp),
    };
    let mut conn = FramedConn::connect(addr, io_timeout)?;
    conn.send_msg(&ServiceMsg::Update(UpdateMsg {
        fp_a,
        fp_b,
        expect_epoch,
        batch: batch.clone(),
    }))?;
    match conn.recv_msg_required()? {
        ServiceMsg::UpdateAck { fp_a, fp_b, epoch } => {
            let host_fp = match host_side {
                Party::Alice => fp_a,
                Party::Bob => fp_b,
            };
            Ok((host_fp, epoch))
        }
        ServiceMsg::StaleEpoch { fp_a, fp_b, epoch } => {
            let host_fp = match host_side {
                Party::Alice => fp_a,
                Party::Bob => fp_b,
            };
            Err(CommError::protocol(format!(
                "stale epoch: the split host's {host_side} half is now \
                 {host_fp:#x} at epoch {epoch}"
            )))
        }
        ServiceMsg::Error(msg) => Err(CommError::protocol(format!("party error: {msg}"))),
        other => Err(CommError::frame(other.name(), "unexpected reply to update")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpest_core::Session;
    use mpest_matrix::Workloads;

    fn session() -> Session {
        let a = Workloads::bernoulli_bits(12, 16, 0.3, 1);
        let b = Workloads::bernoulli_bits(16, 12, 0.3, 2);
        Session::builder(a, b).seed(Seed(5)).build()
    }

    /// A connection to `addr` that speaks raw service messages, skipping
    /// whatever steps of the initiator's script a test leaves out.
    fn raw_conn(addr: &str) -> DuplexConn {
        DuplexConn::from_framed(
            FramedConn::connect(addr, Some(PARTY_IO_TIMEOUT)).unwrap(),
            Some(PARTY_IO_TIMEOUT),
        )
        .unwrap()
    }

    #[test]
    fn split_loopback_matches_in_process_for_both_initiator_sides() {
        use mpest_comm::Role;
        let reference = session();
        for (host_role, my_role) in [(Role::Bob, Role::Alice), (Role::Alice, Role::Bob)] {
            let host =
                PartyHost::spawn_split("127.0.0.1:0", reference.party_view(host_role)).unwrap();
            let addr = host.addr().to_string();
            let view = reference.party_view(my_role);
            let request = EstimateRequest::ExactL1;
            let local = reference.estimate_seeded(&request, Seed(9)).unwrap();
            let (remote, out, inn) = run_with_party_view(&addr, &view, &request, Seed(9)).unwrap();
            assert_eq!(remote, local, "initiator playing {my_role}");
            assert!(out > 0 && inn > 0);
            host.shutdown();
        }
    }

    #[test]
    fn split_handshake_rejects_divergence() {
        use mpest_comm::Role;
        use mpest_core::PeerInfo;
        let reference = session();
        let host = PartyHost::spawn_split("127.0.0.1:0", reference.party_view(Role::Bob)).unwrap();
        let addr = host.addr().to_string();
        let request = EstimateRequest::ExactL1;
        let own = reference.party_view(Role::Alice).own_csr().clone();

        // Wrong idea of the peer's shape: both directions of the hello
        // check it, so the run never starts.
        let bad_shape = PartyView::new(Role::Alice, own.clone(), PeerInfo::new(16, 13, true));
        let err = run_with_party_view(&addr, &bad_shape, &request, Seed(1)).unwrap_err();
        assert!(err.to_string().contains("shape mismatch"), "got {err}");

        // Wrong idea of the peer's representation.
        let bad_repr = PartyView::new(Role::Alice, own.clone(), PeerInfo::new(16, 12, false));
        let err = run_with_party_view(&addr, &bad_repr, &request, Seed(1)).unwrap_err();
        assert!(
            err.to_string().contains("representation mismatch"),
            "got {err}"
        );

        // Epochs out of lockstep: the initiator ingested an update the
        // host never saw.
        let mut ahead = reference.party_view(Role::Alice);
        ahead
            .apply_update(&UpdateBatch::new().set_entry(mpest_core::UpdateSide::Alice, 0, 0, 1))
            .unwrap();
        let err = run_with_party_view(&addr, &ahead, &request, Seed(1)).unwrap_err();
        assert!(err.to_string().contains("epoch divergence"), "got {err}");

        // A content pin that does not match the host's half.
        let good = reference.party_view(Role::Alice);
        let err = run_with_party_view_with(
            &addr,
            &good,
            &request,
            Seed(1),
            Some(PARTY_IO_TIMEOUT),
            Some(0xbad),
        )
        .unwrap_err();
        assert!(
            err.to_string().contains("fingerprint mismatch"),
            "got {err}"
        );

        // The correct pin (taken from the host's own announcement) runs.
        let host_fp = fingerprint(reference.party_view(Role::Bob).own_csr());
        let (report, _, _) = run_with_party_view_with(
            &addr,
            &good,
            &request,
            Seed(1),
            Some(PARTY_IO_TIMEOUT),
            Some(host_fp),
        )
        .unwrap();
        assert_eq!(
            report,
            reference.estimate_seeded(&request, Seed(1)).unwrap()
        );
        host.shutdown();
    }

    #[test]
    fn split_host_requires_hello_before_runs() {
        use mpest_comm::Role;
        let reference = session();
        let host = PartyHost::spawn_split("127.0.0.1:0", reference.party_view(Role::Bob)).unwrap();
        // An initiator that skips the hello: the host must refuse the
        // run instead of silently skipping the cross-check.
        let mut conn = raw_conn(&host.addr().to_string());
        let err = negotiate_spec(
            &mut conn,
            Party::Alice,
            &EstimateRequest::ExactL1,
            Seed(2),
            Some(PARTY_IO_TIMEOUT),
        )
        .unwrap_err();
        assert!(err.to_string().contains("party-hello"), "got {err}");
        host.shutdown();
    }

    #[test]
    fn split_updates_apply_per_side_and_stay_bit_identical() {
        use mpest_comm::Role;
        use mpest_core::UpdateSide;
        let mut reference = session();
        let host = PartyHost::spawn_split("127.0.0.1:0", reference.party_view(Role::Bob)).unwrap();
        let addr = host.addr().to_string();
        let mut alice = reference.party_view(Role::Alice);
        let request = EstimateRequest::ExactL1;
        let before = reference.estimate_seeded(&request, Seed(9)).unwrap();
        let (got, _, _) = run_with_party_view(&addr, &alice, &request, Seed(9)).unwrap();
        assert_eq!(got, before);

        // Ops for the half the host does not hold fail typed.
        let foreign = UpdateBatch::new().set_entry(UpdateSide::Alice, 0, 0, 1);
        let err = update_split_party(&addr, Party::Bob, 0, 0, &foreign, Some(PARTY_IO_TIMEOUT))
            .unwrap_err();
        assert!(err.to_string().contains("own half"), "got {err}");

        // Route each side's ops to the party that holds that half; the
        // epochs advance in lockstep and the next run matches a local
        // run over the fully updated pair.
        let bob_ops = UpdateBatch::new().delete_entry(UpdateSide::Bob, 1, 1);
        let alice_ops = UpdateBatch::new().set_entry(UpdateSide::Alice, 0, 0, 1);
        let (host_fp, epoch) =
            update_split_party(&addr, Party::Bob, 0, 0, &bob_ops, Some(PARTY_IO_TIMEOUT)).unwrap();
        assert_eq!(epoch, 1);
        assert!(host_fp != 0);
        assert_eq!(alice.apply_update(&alice_ops).unwrap(), 1);
        // The full-pair reference ingests both sides' ops as one round,
        // so its matrices match the assembled split state.
        reference
            .apply_update(&bob_ops.clone().set_entry(UpdateSide::Alice, 0, 0, 1))
            .unwrap();
        let local = reference.estimate_seeded(&request, Seed(9)).unwrap();
        let (after, _, _) = run_with_party_view(&addr, &alice, &request, Seed(9)).unwrap();
        assert_eq!(after, local);
        assert_ne!(after.output, before.output, "the updates changed ||AB||_1");

        // A stale pusher (wrong epoch) is rejected with the host's
        // current per-side position.
        let err = update_split_party(&addr, Party::Bob, 0, 0, &bob_ops, Some(PARTY_IO_TIMEOUT))
            .unwrap_err();
        assert!(err.to_string().contains("stale epoch"), "got {err}");
        host.shutdown();
    }

    #[test]
    fn split_host_refuses_full_pair_mirror_updates() {
        use mpest_comm::Role;
        use mpest_core::UpdateSide;
        let mirror = session();
        let host = PartyHost::spawn_split("127.0.0.1:0", mirror.party_view(Role::Bob)).unwrap();
        let addr = host.addr().to_string();
        // Only the host's own half is touched, yet an update that pins
        // both halves, as a full-pair mirror sends it, would step both
        // halves to epoch 1: the host must refuse it.
        let (fp_a, fp_b) = {
            let (a, b) = mirror.csr_halves().unwrap();
            (fingerprint(a), fingerprint(b))
        };
        let mut conn = raw_conn(&addr);
        conn.send_msg(&ServiceMsg::Update(UpdateMsg {
            fp_a,
            fp_b,
            expect_epoch: 0,
            batch: UpdateBatch::new().delete_entry(UpdateSide::Bob, 1, 1),
        }))
        .unwrap();
        let reply = conn.recv_msg_required().unwrap();
        let ServiceMsg::Error(err) = reply else {
            panic!("expected a refusal, got {}", reply.name());
        };
        assert!(err.contains("update_split_party"), "got {err}");

        // The host stayed at epoch 0: a fresh split initiator passes the
        // hello and answers bit-identically to the unchanged pair.
        let request = EstimateRequest::ExactL1;
        let alice = mirror.party_view(Role::Alice);
        let (got, _, _) = run_with_party_view(&addr, &alice, &request, Seed(9)).unwrap();
        assert_eq!(got, mirror.estimate_seeded(&request, Seed(9)).unwrap());
        host.shutdown();
    }

    #[test]
    fn side_collision_is_rejected() {
        let reference = session();
        let host = PartyHost::spawn_split("127.0.0.1:0", reference.party_view(Party::Bob)).unwrap();
        let addr = host.addr().to_string();
        let bob = reference.party_view(Party::Bob);
        let err = run_with_party_view(&addr, &bob, &EstimateRequest::ExactL1, Seed(1)).unwrap_err();
        assert!(err.to_string().contains("side collision"), "got {err}");

        // A peer that passes the hello as Alice and then claims Bob's
        // side in its run-spec is refused too.
        let mut conn = raw_conn(&addr);
        conn.send_msg(&ServiceMsg::PartyHello(party_info(
            &reference.party_view(Party::Alice),
        )))
        .unwrap();
        assert!(matches!(
            conn.recv_msg_required().unwrap(),
            ServiceMsg::PartyHello(_)
        ));
        let err = negotiate_spec(
            &mut conn,
            Party::Bob,
            &EstimateRequest::ExactL1,
            Seed(1),
            Some(PARTY_IO_TIMEOUT),
        )
        .unwrap_err();
        assert!(err.to_string().contains("already plays"), "got {err}");
        host.shutdown();
    }
}
