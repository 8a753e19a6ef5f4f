//! The readiness-driven serve core: one reactor thread multiplexes
//! every client connection of an `mpest serve` daemon over `poll(2)`.
//!
//! The poll set holds the listener, the daemon's stop pipe, a worker
//! wake pipe, and one nonblocking socket per connection. Each
//! connection owns a [`DuplexCore`] — outbound frame spool, incremental
//! inbound parser — so frames of any size drain as the kernel allows
//! and a slow (or simultaneously-sending) peer can never wedge the
//! daemon. Query and update compute runs on a small worker pool off the
//! reactor thread; replies come back through a completion queue plus a
//! wake byte, tagged with the connection's slab token *and* generation
//! so a reply for a vanished connection is dropped instead of crossing
//! wires into the slot's next occupant.
//!
//! Pipelining: a client may tag queries with nonzero frame ids
//! and keep several in flight; replies echo the id and may arrive in
//! any order. One pipelined query failing answers `query-failed` for
//! that id without poisoning the connection. Backpressure is the
//! outbound spool: once a connection queues more than
//! [`ServeConfig::spool_budget`](crate::server::ServeConfig) unwritten
//! bytes, the reactor stops reading new requests from that peer until
//! the kernel drains the spool.
//!
//! Deadlines are poll timeouts, not wakeup slices: an idle connection
//! costs zero wakeups (counted honestly in
//! [`ServerState::idle_wakeups`]) and shutdown is observed immediately
//! via the stop pipe. Wire bytes are folded into the daemon counters on
//! every exit path — including a connection dropped mid-spool, where
//! only the bytes the kernel actually accepted count.

use crate::codec::{check_version, io_to_comm, local_preamble};
use crate::duplex::{DuplexCore, ReadStep};
use crate::msg::{decode_service_frame, encode_service_frame, QueryMsg, ServiceMsg, UpdateMsg};
use crate::reactor::{poll_fds, PollFd, POLLIN, POLLOUT};
use crate::server::{answer_query, handle_update, pipeline_wrap, ServeConfig, ServerState};
use crate::server::{Lookup, Slot};
use mpest_comm::CommError;
use mpest_obs::Span;
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// How long shutdown waits for spooled replies (the `ok` answering a
/// `shutdown` in particular) to reach the kernel before closing.
const SHUTDOWN_FLUSH: Duration = Duration::from_millis(500);

/// The preamble is 8 bytes each way ([`local_preamble`]).
const PREAMBLE_LEN: usize = 8;

/// Reactor-side phase timings riding a job to the worker pool. `t0` is
/// populated only while a tracer is attached: the metrics histograms
/// are fed where the phases happen, but a *span* needs the origin
/// instant carried end to end so the completion can close it out.
#[derive(Clone, Copy)]
struct QueryTiming {
    /// Decode-start instant — the span's clock origin (tracing only).
    t0: Option<Instant>,
    decode_us: u64,
    lookup_us: u64,
    /// Cache-path tag for the span: "hit", "miss", or "parked".
    cache: &'static str,
}

/// A finished query's phase breakdown, ready for the tracer once the
/// reply's encode phase lands in [`Reactor::apply_completions`].
struct SpanInfo {
    t0: Instant,
    decode_us: u64,
    lookup_us: u64,
    run_us: u64,
    cache: &'static str,
    id: u64,
}

/// Closes out a traced job: pairs the reactor-side timings with the
/// worker-side run duration. `None` (the overwhelmingly common case)
/// when no tracer is attached.
fn finish_span(timing: QueryTiming, began: Option<Instant>, id: u64) -> Option<SpanInfo> {
    let t0 = timing.t0?;
    Some(SpanInfo {
        t0,
        decode_us: timing.decode_us,
        lookup_us: timing.lookup_us,
        run_us: began.map_or(0, |b| b.elapsed().as_micros() as u64),
        cache: timing.cache,
        id,
    })
}

/// Compute shipped off the reactor thread to the worker pool.
enum Job {
    /// A resolved query: run it against its cache slot.
    Query {
        token: usize,
        gen: u64,
        query: QueryMsg,
        slot: Slot,
        cache_hit: bool,
        wire: (u64, u64),
        timing: QueryTiming,
    },
    /// An upload answering `need-matrices`: insert the pair (warming
    /// the derived views — too heavy for the reactor thread), then run
    /// every query parked behind it.
    Upload {
        token: usize,
        gen: u64,
        key: (u64, u64),
        a: crate::msg::WCsr,
        b: crate::msg::WCsr,
        parked: Vec<QueryMsg>,
        wire: (u64, u64),
        timing: QueryTiming,
    },
    /// An update batch (takes the slot's write lock; applying can be
    /// heavy).
    Update {
        token: usize,
        gen: u64,
        update: UpdateMsg,
    },
}

/// A worker's finished reply, addressed by slab token + generation.
struct Completion {
    token: usize,
    gen: u64,
    reply: ServiceMsg,
    /// Present only when a tracer is attached and the job was a query.
    span: Option<SpanInfo>,
}

/// Nonblocking handshake progress: our preamble drains from `out`, the
/// peer's accumulates into `peer`.
struct Handshake {
    out: [u8; PREAMBLE_LEN],
    sent: usize,
    peer: [u8; PREAMBLE_LEN],
    got: usize,
}

enum Stage {
    Handshake(Handshake),
    Active,
}

/// One multiplexed connection.
struct Conn {
    stream: TcpStream,
    stage: Stage,
    core: DuplexCore,
    /// Slab-slot generation; completions carrying a stale generation
    /// are dropped.
    gen: u64,
    /// Queries/updates handed to the worker pool, not yet answered.
    inflight: usize,
    /// A `need-matrices` exchange in progress: the missing pair plus
    /// every query parked behind the upload.
    awaiting_upload: Option<((u64, u64), Vec<QueryMsg>)>,
    /// Byte counts already folded into the daemon-wide counters.
    folded: (u64, u64),
    /// Last wire progress (drives the in-flight deadline while a frame
    /// or the spool is pending).
    progress_at: Instant,
    /// Last completed message or spooled reply (drives the idle
    /// deadline).
    active_at: Instant,
    /// Peer half-closed; flush the spool, then close.
    eof: bool,
    /// Close as soon as the spool drains (shutdown acknowledged).
    closing: bool,
    /// Whether the last drive left this peer over its spool budget
    /// (reads withheld). Tracked so pause/resume *transitions* can be
    /// counted rather than every budget check.
    paused: bool,
}

impl Conn {
    fn new(stream: TcpStream, gen: u64, now: Instant) -> Self {
        Self {
            stream,
            stage: Stage::Handshake(Handshake {
                out: local_preamble(),
                sent: 0,
                peer: [0; PREAMBLE_LEN],
                got: 0,
            }),
            core: DuplexCore::default(),
            gen,
            inflight: 0,
            awaiting_upload: None,
            folded: (0, 0),
            progress_at: now,
            active_at: now,
            eof: false,
            closing: false,
            paused: false,
        }
    }

    /// The poll events this connection currently needs.
    fn events(&self, config: &ServeConfig) -> i16 {
        let mut events = 0;
        match &self.stage {
            Stage::Handshake(h) => {
                if h.sent < PREAMBLE_LEN {
                    events |= POLLOUT;
                }
                if h.got < PREAMBLE_LEN {
                    events |= POLLIN;
                }
            }
            Stage::Active => {
                // Backpressure: a peer whose replies we can't drain
                // does not get to queue more work.
                if !self.eof && !self.closing && self.core.queued_out_bytes() <= config.spool_budget
                {
                    events |= POLLIN;
                }
                if self.core.has_out() {
                    events |= POLLOUT;
                }
            }
        }
        events
    }

    /// The instant this connection's current wait expires, if bounded.
    fn deadline(&self, config: &ServeConfig) -> Option<Instant> {
        // In flight: an unfinished handshake, a frame mid-parse, or
        // spooled output must keep moving.
        let in_flight = match &self.stage {
            Stage::Handshake(_) => true,
            Stage::Active => self.core.mid_frame() || self.core.has_out(),
        };
        if in_flight {
            return config.io_timeout.map(|t| self.progress_at + t);
        }
        // Queries computing on the worker pool are not idleness.
        if self.inflight > 0 {
            return None;
        }
        // A peer that owes us matrices must keep talking; a peer
        // between messages is governed by the idle budget alone.
        if self.awaiting_upload.is_some() {
            config.io_timeout.map(|t| self.active_at + t)
        } else {
            config.idle_timeout.map(|t| self.active_at + t)
        }
    }
}

/// Spools one service reply on a connection (same frame bytes as the
/// blocking [`FramedConn::send_msg`](crate::codec::FramedConn)).
fn queue_reply(conn: &mut Conn, msg: &ServiceMsg) -> Result<(), CommError> {
    let (kind, name, bits, payload) = encode_service_frame(msg);
    conn.core.queue_frame(kind, 0, name, bits, &payload)
}

/// Folds a connection's unaccounted byte delta into the daemon
/// counters. Spool bytes the kernel never accepted are *not* counted —
/// `core.bytes_out` only grows on accepted writes.
fn fold_wire(state: &ServerState, conn: &mut Conn) {
    state
        .metrics
        .wire_in
        .add(conn.core.bytes_in - conn.folded.0);
    state
        .metrics
        .wire_out
        .add(conn.core.bytes_out - conn.folded.1);
    conn.folded = (conn.core.bytes_in, conn.core.bytes_out);
}

/// The reactor: slab of connections plus the worker-pool plumbing.
struct Reactor<'a> {
    state: &'a Arc<ServerState>,
    conns: Vec<Option<Conn>>,
    free: Vec<usize>,
    next_gen: u64,
    jobs: mpsc::Sender<Job>,
    completions: Arc<Mutex<VecDeque<Completion>>>,
    wake_rx: UnixStream,
    /// Kept open so the wake pipe never reads EOF even if every worker
    /// exits early.
    _wake_tx: UnixStream,
}

/// Serves `listener` on this thread until the daemon's stop signal
/// trips. The reactor path behind [`crate::server::serve_on`].
pub(crate) fn serve_reactor(listener: &TcpListener, state: &Arc<ServerState>) {
    if listener.set_nonblocking(true).is_err() {
        return;
    }
    let Ok((wake_rx, wake_tx)) = UnixStream::pair() else {
        return;
    };
    let _ = wake_rx.set_nonblocking(true);
    let _ = wake_tx.set_nonblocking(true);
    let (jobs_tx, jobs_rx) = mpsc::channel::<Job>();
    let jobs_rx = Arc::new(Mutex::new(jobs_rx));
    let completions: Arc<Mutex<VecDeque<Completion>>> = Arc::new(Mutex::new(VecDeque::new()));
    let pool = match state.config.workers {
        0 => std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        n => n,
    };
    for _ in 0..pool {
        let state = Arc::clone(state);
        let jobs_rx = Arc::clone(&jobs_rx);
        let completions = Arc::clone(&completions);
        let Ok(wake) = wake_tx.try_clone() else {
            return;
        };
        std::thread::spawn(move || worker_loop(&state, &jobs_rx, &completions, &wake));
    }
    let mut reactor = Reactor {
        state,
        conns: Vec::new(),
        free: Vec::new(),
        next_gen: 0,
        jobs: jobs_tx,
        completions,
        wake_rx,
        _wake_tx: wake_tx,
    };
    reactor.run(listener);
    reactor.shutdown_flush();
}

/// One pool worker: pulls jobs, computes replies, posts completions,
/// pokes the wake pipe. Exits when the reactor drops the job sender.
fn worker_loop(
    state: &Arc<ServerState>,
    jobs: &Mutex<mpsc::Receiver<Job>>,
    completions: &Mutex<VecDeque<Completion>>,
    wake: &UnixStream,
) {
    loop {
        let job = {
            let rx = jobs.lock().expect("job queue");
            rx.recv()
        };
        let Ok(job) = job else { return };
        state.metrics.worker_queue.dec();
        state.metrics.worker_busy.inc();
        let post = |token: usize, gen: u64, reply: ServiceMsg, span: Option<SpanInfo>| {
            completions
                .lock()
                .expect("completions")
                .push_back(Completion {
                    token,
                    gen,
                    reply,
                    span,
                });
            // The byte is the wakeup, the queue is the truth: a full
            // pipe just means the reactor is already waking.
            let mut wake = wake;
            let _ = wake.write(&[1]);
        };
        match job {
            Job::Query {
                token,
                gen,
                query,
                slot,
                cache_hit,
                wire,
                timing,
            } => {
                let id = query.id;
                let began = timing.t0.map(|_| Instant::now());
                let reply = answer_query(state, &slot, query, cache_hit, wire);
                post(token, gen, reply, finish_span(timing, began, id));
            }
            Job::Upload {
                token,
                gen,
                key,
                a,
                b,
                parked,
                wire,
                timing,
            } => match state.insert(key, a, b) {
                Ok(slot) => {
                    for query in parked {
                        let id = query.id;
                        let began = timing.t0.map(|_| Instant::now());
                        let reply = answer_query(state, &slot, query, false, wire);
                        post(token, gen, reply, finish_span(timing, began, id));
                    }
                }
                Err(e) => {
                    for query in parked {
                        post(
                            token,
                            gen,
                            pipeline_wrap(query.id, ServiceMsg::Error(e.to_string())),
                            None,
                        );
                    }
                }
            },
            Job::Update { token, gen, update } => {
                post(token, gen, handle_update(state, &update), None);
            }
        }
        state.metrics.worker_busy.dec();
    }
}

impl Reactor<'_> {
    fn run(&mut self, listener: &TcpListener) {
        let mut fds: Vec<PollFd> = Vec::new();
        let mut tokens: Vec<usize> = Vec::new();
        loop {
            if self.state.stop.is_set() {
                return;
            }
            fds.clear();
            tokens.clear();
            fds.push(PollFd::new(listener.as_raw_fd(), POLLIN));
            fds.push(PollFd::new(self.state.stop.fd(), POLLIN));
            fds.push(PollFd::new(self.wake_rx.as_raw_fd(), POLLIN));
            let mut deadline: Option<Instant> = None;
            for (token, slot) in self.conns.iter().enumerate() {
                let Some(conn) = slot else { continue };
                fds.push(PollFd::new(
                    conn.stream.as_raw_fd(),
                    conn.events(&self.state.config),
                ));
                tokens.push(token);
                if let Some(d) = conn.deadline(&self.state.config) {
                    deadline = Some(deadline.map_or(d, |cur| cur.min(d)));
                }
            }
            let timeout = deadline.map(|d| d.saturating_duration_since(Instant::now()));
            let Ok(ready) = poll_fds(&mut fds, timeout) else {
                return;
            };
            let now = Instant::now();
            if fds[1].ready(POLLIN) || self.state.stop.is_set() {
                return;
            }
            if fds[0].ready(POLLIN) {
                self.state.metrics.wakeup_accept.inc();
                self.accept_new(listener, now);
            }
            if fds[2].ready(POLLIN) {
                self.state.metrics.wakeup_worker.inc();
                self.drain_wake();
                self.apply_completions(now);
            }
            for (i, &token) in tokens.iter().enumerate() {
                if fds[3 + i].ready(POLLIN | POLLOUT) {
                    self.state.metrics.wakeup_conn.inc();
                    self.pump_conn(token, now);
                }
            }
            let expired = self.sweep_deadlines(now);
            if expired {
                self.state.metrics.wakeup_deadline.inc();
            }
            if ready == 0 && !expired {
                // Woke with nothing ready and nothing expired: the
                // wakeup the design promises never happens.
                self.state.metrics.wakeup_idle.inc();
            }
        }
    }

    fn next_gen(&mut self) -> u64 {
        self.next_gen += 1;
        self.next_gen
    }

    fn insert(&mut self, conn: Conn) -> usize {
        if let Some(token) = self.free.pop() {
            self.conns[token] = Some(conn);
            token
        } else {
            self.conns.push(Some(conn));
            self.conns.len() - 1
        }
    }

    fn close(&mut self, token: usize, mut conn: Conn) {
        fold_wire(self.state, &mut conn);
        self.free.push(token);
    }

    fn accept_new(&mut self, listener: &TcpListener, now: Instant) {
        loop {
            match listener.accept() {
                Ok((stream, _)) => {
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let gen = self.next_gen();
                    let mut conn = Conn::new(stream, gen, now);
                    // No-op handles unless extended observability is
                    // on; the gauge is shared, so it reads daemon-wide
                    // spool depth.
                    conn.core.set_obs(
                        self.state.metrics.spool_depth.clone(),
                        self.state.metrics.spool_drained.clone(),
                    );
                    let token = self.insert(conn);
                    // Push the preamble immediately: it virtually
                    // always fits a fresh socket buffer in one write.
                    self.pump_conn(token, now);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                // Transient accept failures (peer reset mid-queue):
                // retry on the next readiness.
                Err(_) => break,
            }
        }
    }

    fn drain_wake(&mut self) {
        let mut buf = [0u8; 64];
        loop {
            match (&mut &self.wake_rx).read(&mut buf) {
                Ok(n) if n > 0 => continue,
                _ => break,
            }
        }
    }

    /// Applies every queued worker completion: spool the reply on its
    /// connection (if it still exists at the same generation) and pump.
    fn apply_completions(&mut self, now: Instant) {
        let timed = self.state.config.obs || self.state.tracer.enabled();
        let mut touched = Vec::new();
        loop {
            let item = self.completions.lock().expect("completions").pop_front();
            let Some(c) = item else { break };
            // One decrement per completion, even for vanished or
            // regenerated connections — the gauge pairs with the
            // increments at submit time, not with delivery.
            self.state.metrics.inflight.dec();
            let Some(conn) = self.conns.get_mut(c.token).and_then(Option::as_mut) else {
                continue;
            };
            if conn.gen != c.gen {
                continue;
            }
            conn.inflight = conn.inflight.saturating_sub(1);
            conn.active_at = now;
            let began = timed.then(Instant::now);
            if queue_reply(conn, &c.reply).is_err() {
                // The reply exceeds the frame caps (a payload over
                // MAX_PAYLOAD_BYTES): it cannot be framed, so drop the
                // connection.
                if let Some(conn) = self.conns[c.token].take() {
                    self.close(c.token, conn);
                }
                continue;
            }
            let encode_us = began.map_or(0, |b| b.elapsed().as_micros() as u64);
            if began.is_some() {
                self.state.metrics.encode_us.record(encode_us);
            }
            if let Some(span) = c.span {
                if self.state.tracer.enabled() {
                    let dur_us = span.t0.elapsed().as_micros() as u64;
                    self.state.tracer.record(&Span {
                        name: "query",
                        conn: c.token as u64,
                        id: span.id,
                        start_us: self.state.tracer.now_us().saturating_sub(dur_us),
                        dur_us,
                        phases: vec![
                            ("decode", span.decode_us),
                            ("lookup", span.lookup_us),
                            ("run", span.run_us),
                            ("encode", encode_us),
                        ],
                        tags: vec![("cache", span.cache.to_string())],
                    });
                }
            }
            touched.push(c.token);
        }
        touched.sort_unstable();
        touched.dedup();
        for token in touched {
            self.pump_conn(token, now);
        }
    }

    /// Closes connections whose current wait expired. Returns whether
    /// any did (distinguishing deadline wakeups from spurious ones).
    fn sweep_deadlines(&mut self, now: Instant) -> bool {
        let mut expired = Vec::new();
        for (token, slot) in self.conns.iter().enumerate() {
            if let Some(conn) = slot {
                if conn.deadline(&self.state.config).is_some_and(|d| d <= now) {
                    expired.push(token);
                }
            }
        }
        for &token in &expired {
            if let Some(conn) = self.conns[token].take() {
                self.close(token, conn);
            }
        }
        !expired.is_empty()
    }

    /// Drives one connection as far as kernel readiness allows, closing
    /// it (with its bytes folded) on clean EOF or any error.
    fn pump_conn(&mut self, token: usize, now: Instant) {
        let Some(mut conn) = self.conns.get_mut(token).and_then(Option::take) else {
            return;
        };
        match self.drive(&mut conn, token, now) {
            Ok(true) => self.conns[token] = Some(conn),
            // Errors are per-connection, never the daemon's problem.
            Ok(false) | Err(_) => self.close(token, conn),
        }
    }

    fn drive(&mut self, conn: &mut Conn, token: usize, now: Instant) -> Result<bool, CommError> {
        match conn.stage {
            Stage::Handshake(_) => drive_handshake(conn, now),
            Stage::Active => self.drive_active(conn, token, now),
        }
    }

    fn drive_active(
        &mut self,
        conn: &mut Conn,
        token: usize,
        now: Instant,
    ) -> Result<bool, CommError> {
        // Outbound first: draining the spool lifts backpressure and
        // frees the buffer a simultaneous peer may be blocked on.
        write_pass(conn, now)?;
        // Inbound, unless the peer is gone or owes us drain room.
        if !conn.eof
            && !conn.closing
            && conn.core.queued_out_bytes() <= self.state.config.spool_budget
        {
            let before = conn.core.bytes_in;
            match conn.core.read_step(&mut conn.stream) {
                Ok(ReadStep::WouldBlock) => {}
                Ok(ReadStep::Eof) => conn.eof = true,
                Err(e) => return Err(e),
            }
            if conn.core.bytes_in > before {
                conn.progress_at = now;
            }
        }
        // Timing is off the hot path entirely (no clock reads) unless
        // extended observability or a tracer asks for it.
        let timed = self.state.config.obs || self.state.tracer.enabled();
        while let Some(frame) = conn.core.take_frame() {
            let began = timed.then(Instant::now);
            let msg = decode_service_frame(&frame)?;
            let decode_us = began.map_or(0, |b| b.elapsed().as_micros() as u64);
            if began.is_some() {
                self.state.metrics.decode_us.record(decode_us);
            }
            conn.active_at = now;
            self.dispatch(conn, token, msg, began.map(|b| (b, decode_us)))?;
        }
        // Replies spooled by dispatch go out now, not next readiness.
        let began = self.state.config.obs.then(Instant::now);
        write_pass(conn, now)?;
        if let Some(b) = began {
            self.state
                .metrics
                .write_pass_us
                .record(b.elapsed().as_micros() as u64);
        }
        // Count backpressure *transitions* against the spool budget —
        // the same comparison [`Conn::events`] uses to withhold POLLIN.
        let over = conn.core.queued_out_bytes() > self.state.config.spool_budget;
        if over != conn.paused {
            conn.paused = over;
            if over {
                self.state.metrics.bp_pause.inc();
            } else {
                self.state.metrics.bp_resume.inc();
            }
        }
        if conn.closing && !conn.core.has_out() {
            return Ok(false);
        }
        if conn.eof && !conn.core.has_out() && conn.inflight == 0 {
            return Ok(false);
        }
        Ok(true)
    }

    /// Routes one decoded service message: compute goes to the worker
    /// pool, everything cheap answers inline on the spool.
    fn dispatch(
        &mut self,
        conn: &mut Conn,
        token: usize,
        msg: ServiceMsg,
        timed: Option<(Instant, u64)>,
    ) -> Result<(), CommError> {
        match msg {
            ServiceMsg::Query(query) => {
                let key = (query.fp_a, query.fp_b);
                if let Some((pending, parked)) = &mut conn.awaiting_upload {
                    if *pending == key {
                        self.state.metrics.cache_parked.inc();
                        parked.push(query);
                        return Ok(());
                    }
                }
                let began = timed.is_some().then(Instant::now);
                let lookup = self.state.lookup(key);
                let lookup_us = began.map_or(0, |b| b.elapsed().as_micros() as u64);
                if began.is_some() {
                    self.state.metrics.lookup_us.record(lookup_us);
                }
                match lookup {
                    Lookup::Found(slot) => {
                        self.state.metrics.cache_hit.inc();
                        let timing = QueryTiming {
                            t0: self
                                .state
                                .tracer
                                .enabled()
                                .then_some(())
                                .and(timed.map(|(t0, _)| t0)),
                            decode_us: timed.map_or(0, |(_, d)| d),
                            lookup_us,
                            cache: "hit",
                        };
                        self.submit_query(conn, token, query, slot, true, timing);
                    }
                    Lookup::Superseded(current, epoch) => {
                        let reply = pipeline_wrap(
                            query.id,
                            ServiceMsg::StaleEpoch {
                                fp_a: current.0,
                                fp_b: current.1,
                                epoch,
                            },
                        );
                        queue_reply(conn, &reply)?;
                    }
                    Lookup::Missing if conn.awaiting_upload.is_some() => {
                        // A second missing pair while an upload is
                        // already owed: refuse rather than interleave
                        // two upload conversations on one connection.
                        let reply = pipeline_wrap(
                            query.id,
                            ServiceMsg::Error(
                                "another matrix upload is already in progress on this connection"
                                    .to_string(),
                            ),
                        );
                        queue_reply(conn, &reply)?;
                    }
                    Lookup::Missing => {
                        self.state.metrics.cache_miss.inc();
                        conn.awaiting_upload = Some((key, vec![query]));
                        queue_reply(conn, &ServiceMsg::NeedMatrices)?;
                    }
                }
            }
            ServiceMsg::Matrices { a, b } => {
                let Some((key, parked)) = conn.awaiting_upload.take() else {
                    queue_reply(
                        conn,
                        &ServiceMsg::Error("unexpected message matrices".to_string()),
                    )?;
                    return Ok(());
                };
                conn.inflight += parked.len();
                self.state.metrics.inflight.add(parked.len() as u64);
                self.state.metrics.worker_queue.inc();
                let wire = (conn.core.bytes_in, conn.core.bytes_out);
                // The parked queries' spans share the upload frame's
                // decode as their origin: that is when the reply
                // became computable.
                let timing = QueryTiming {
                    t0: self
                        .state
                        .tracer
                        .enabled()
                        .then_some(())
                        .and(timed.map(|(t0, _)| t0)),
                    decode_us: timed.map_or(0, |(_, d)| d),
                    lookup_us: 0,
                    cache: "parked",
                };
                let _ = self.jobs.send(Job::Upload {
                    token,
                    gen: conn.gen,
                    key,
                    a,
                    b,
                    parked,
                    wire,
                    timing,
                });
            }
            ServiceMsg::Update(update) => {
                conn.inflight += 1;
                self.state.metrics.inflight.inc();
                self.state.metrics.worker_queue.inc();
                let _ = self.jobs.send(Job::Update {
                    token,
                    gen: conn.gen,
                    update,
                });
            }
            ServiceMsg::Stats => {
                queue_reply(conn, &ServiceMsg::StatsReport(self.state.stats()))?;
            }
            ServiceMsg::Metrics => {
                let reply = ServiceMsg::MetricsReport(crate::msg::MetricsMsg {
                    snapshot: self.state.metrics_snapshot(),
                });
                queue_reply(conn, &reply)?;
            }
            ServiceMsg::Shutdown => {
                self.state.stop.trigger();
                queue_reply(conn, &ServiceMsg::Ok)?;
                conn.closing = true;
            }
            other => {
                queue_reply(
                    conn,
                    &ServiceMsg::Error(format!("unexpected message {}", other.name())),
                )?;
            }
        }
        Ok(())
    }

    fn submit_query(
        &self,
        conn: &mut Conn,
        token: usize,
        query: QueryMsg,
        slot: Slot,
        cache_hit: bool,
        timing: QueryTiming,
    ) {
        conn.inflight += 1;
        self.state.metrics.inflight.inc();
        self.state.metrics.worker_queue.inc();
        let wire = (conn.core.bytes_in, conn.core.bytes_out);
        let _ = self.jobs.send(Job::Query {
            token,
            gen: conn.gen,
            query,
            slot,
            cache_hit,
            wire,
            timing,
        });
    }

    /// Post-shutdown: give spooled replies a short window to reach the
    /// kernel, then fold every connection's bytes and drop them.
    fn shutdown_flush(&mut self) {
        let deadline = Instant::now() + SHUTDOWN_FLUSH;
        loop {
            let mut fds = Vec::new();
            let mut tokens = Vec::new();
            for (token, slot) in self.conns.iter().enumerate() {
                if let Some(conn) = slot {
                    if conn.core.has_out() {
                        fds.push(PollFd::new(conn.stream.as_raw_fd(), POLLOUT));
                        tokens.push(token);
                    }
                }
            }
            if fds.is_empty() {
                break;
            }
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            match poll_fds(&mut fds, Some(deadline - now)) {
                Ok(n) if n > 0 => {}
                _ => break,
            }
            let now = Instant::now();
            for (i, pf) in fds.iter().enumerate() {
                if !pf.ready(POLLOUT) {
                    continue;
                }
                let token = tokens[i];
                let failed = match self.conns[token].as_mut() {
                    Some(conn) => write_pass(conn, now).is_err(),
                    None => false,
                };
                if failed {
                    if let Some(conn) = self.conns[token].take() {
                        self.close(token, conn);
                    }
                }
            }
        }
        for token in 0..self.conns.len() {
            if let Some(conn) = self.conns[token].take() {
                self.close(token, conn);
            }
        }
    }
}

/// One outbound pump pass, tracking progress for the flight deadline.
fn write_pass(conn: &mut Conn, now: Instant) -> Result<(), CommError> {
    if !conn.core.has_out() {
        return Ok(());
    }
    match conn.core.write_step(&mut conn.stream) {
        Ok(n) => {
            if n > 0 {
                conn.progress_at = now;
            }
            Ok(())
        }
        Err(e) => Err(io_to_comm("frame-write", "write failed", &e)),
    }
}

/// Progresses a nonblocking preamble exchange; promotes the connection
/// to [`Stage::Active`] once both directions complete.
fn drive_handshake(conn: &mut Conn, now: Instant) -> Result<bool, CommError> {
    let Stage::Handshake(h) = &mut conn.stage else {
        return Ok(true);
    };
    while h.sent < PREAMBLE_LEN {
        match conn.stream.write(&h.out[h.sent..]) {
            Ok(0) => {
                return Err(CommError::frame("handshake", "stream accepted zero bytes"));
            }
            Ok(n) => {
                h.sent += n;
                conn.core.bytes_out += n as u64;
                conn.progress_at = now;
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(io_to_comm("handshake", "write failed", &e)),
        }
    }
    while h.got < PREAMBLE_LEN {
        match conn.stream.read(&mut h.peer[h.got..]) {
            // Connected and vanished without speaking: close quietly.
            Ok(0) => return Ok(false),
            Ok(n) => {
                h.got += n;
                conn.core.bytes_in += n as u64;
                conn.progress_at = now;
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(io_to_comm("handshake", "read failed", &e)),
        }
    }
    if h.sent == PREAMBLE_LEN && h.got == PREAMBLE_LEN {
        check_version(&h.peer)?;
        conn.stage = Stage::Active;
        conn.active_at = now;
    }
    Ok(true)
}
