//! The `mpest serve` daemon: estimation-as-a-service over TCP.
//!
//! A readiness-driven reactor (the private `server_reactor` module)
//! multiplexes every connection on one thread, with a worker pool for
//! query compute, over one shared [`ServerState`]: a fingerprint-keyed
//! cache of [`Engine`]-wrapped sessions, a global logical
//! [`BatchAccounting`] ledger, and real-socket byte counters.
//! Clients speak the service messages of [`crate::msg`]: a `query`
//! carries matrix fingerprints plus `(seed, request)` pairs; on a cache
//! miss the daemon answers `need-matrices` and the client uploads the
//! pair once — after which every client querying the same relations
//! shares the session's cached derived views (CSR/bit conversions,
//! transposes, norm tables).
//!
//! Every query runs under its explicit client-pinned seed, so a served
//! answer is bit-identical — output *and* transcript — to a local
//! `Session::estimate_seeded` call on the same pair, no matter how many
//! clients interleave.
//!
//! # Live updates and epochs
//!
//! A cached pair is not frozen: an `update` message pushes an
//! [`UpdateBatch`](mpest_core::UpdateBatch) into the cached session,
//! bumping its epoch and *re-keying* the cache entry in place under the
//! matrices' new fingerprints — the session keeps its incrementally
//! maintained derived views instead of being rebuilt. The retired
//! fingerprint pair is remembered in a superseded map (and counted in
//! [`StatsMsg::superseded`]), so a client still naming the old pair gets
//! a typed `stale-epoch` reply carrying the current pair and epoch, never
//! a silent answer over different data. Queries may pin an epoch
//! (`at_epoch`); a pinned query against any other epoch also answers
//! `stale-epoch`.
//!
//! Concurrency: each cache slot is an `RwLock` — queries run under the
//! read lock, updates under the write lock. Queries never clone the
//! engine out of the slot, so when an update holds the write lock the
//! engine's session `Arc` is provably unshared and the batch applies in
//! place. Lock order is strict: the cache mutex is never held while
//! taking a slot lock (slot arcs are cloned out first), while an update
//! holding a slot's write lock may take the cache mutex to re-key.

use crate::fingerprint::fingerprint;
use crate::msg::{QueryMsg, ReportsMsg, ServiceMsg, StatsMsg, UpdateMsg, WCsr};
use crate::reactor::StopSignal;
use mpest_comm::{BatchAccounting, CommError, Seed};
use mpest_core::{Engine, Session};
use mpest_obs::{Counter, Gauge, Histogram, Registry, Snapshot, Tracer};
use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::{Arc, Mutex, RwLock};
use std::time::{Duration, Instant};

/// Default read/write deadline for a frame *in flight* (and all
/// writes). Idle waits between messages are governed separately by
/// [`ServeConfig::idle_timeout`] so a parked-but-healthy client is
/// never disconnected for thinking too long.
pub const SERVE_IO_TIMEOUT: Duration = Duration::from_secs(30);

/// Default session-cache capacity (see [`ServeConfig::max_sessions`]).
pub const DEFAULT_MAX_SESSIONS: usize = 64;

/// Default per-connection outbound spool budget on the reactor path
/// (see [`ServeConfig::spool_budget`]): an eighth of the frame payload
/// cap, sized so one connection's backlog stays a small fraction of a
/// single cached session's byte budget.
pub const DEFAULT_SPOOL_BUDGET: usize = (crate::codec::MAX_PAYLOAD_BYTES as usize) / 8;

/// Daemon tunables.
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Worker threads per query batch (0 = one per core).
    pub workers: usize,
    /// Read deadline while a connection idles *between* service
    /// messages. `None` (the default) waits as long as the daemon runs:
    /// clients keep connections open across arbitrarily spaced queries.
    /// Idle waits park on readiness (socket plus the daemon's stop
    /// pipe), so a parked connection costs zero wakeups and still
    /// observes shutdown immediately.
    pub idle_timeout: Option<Duration>,
    /// Read/write deadline once a frame is in flight, and for all
    /// writes: a peer that starts a frame must keep the bytes coming.
    pub io_timeout: Option<Duration>,
    /// Session-cache capacity (0 = unbounded). Each cached session can
    /// hold two 64 MiB uploads plus derived views, so the cache is
    /// bounded by default: at the cap, the least-recently-used pair is
    /// evicted (and counted in stats).
    pub max_sessions: usize,
    /// Reactor backpressure: once a connection's outbound spool holds
    /// more than this many unwritten bytes, the reactor stops reading
    /// new requests from that peer until the kernel drains the spool.
    pub spool_budget: usize,
    /// Extended observability (default on): per-phase latency
    /// histograms, cache hit/miss/parked counters, reactor wakeup
    /// causes, backpressure transitions, spool/worker gauges. When
    /// false those handles are no-ops (zero atomic traffic); the core
    /// counters behind [`StatsMsg`] are always recorded. Never changes
    /// outputs, transcripts, or wire bytes either way.
    pub obs: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            workers: 0,
            idle_timeout: None,
            io_timeout: Some(SERVE_IO_TIMEOUT),
            max_sessions: DEFAULT_MAX_SESSIONS,
            spool_budget: DEFAULT_SPOOL_BUDGET,
            obs: true,
        }
    }
}

/// Pre-fetched metric handles, split in two tiers. The *core* tier
/// backs [`StatsMsg`] (and always records, so `stats` keeps answering
/// whatever the config says); the *extended* tier is the deep
/// instrumentation, downgraded to no-op handles when
/// [`ServeConfig::obs`] is false so the disabled daemon pays nothing.
pub(crate) struct ServerMetrics {
    // Core tier — the registry names behind every StatsMsg field.
    pub(crate) wire_in: Counter,
    pub(crate) wire_out: Counter,
    pub(crate) queries: Counter,
    pub(crate) evictions: Counter,
    pub(crate) superseded: Counter,
    pub(crate) wakeup_idle: Counter,
    pub(crate) sessions_cached: Gauge,
    // Extended tier — no-ops when `ServeConfig::obs` is false.
    pub(crate) cache_hit: Counter,
    pub(crate) cache_miss: Counter,
    pub(crate) cache_parked: Counter,
    pub(crate) wakeup_accept: Counter,
    pub(crate) wakeup_worker: Counter,
    pub(crate) wakeup_conn: Counter,
    pub(crate) wakeup_deadline: Counter,
    pub(crate) bp_pause: Counter,
    pub(crate) bp_resume: Counter,
    pub(crate) spool_drained: Counter,
    pub(crate) inflight: Gauge,
    pub(crate) worker_queue: Gauge,
    pub(crate) worker_busy: Gauge,
    pub(crate) spool_depth: Gauge,
    pub(crate) decode_us: Histogram,
    pub(crate) lookup_us: Histogram,
    pub(crate) run_us: Histogram,
    pub(crate) encode_us: Histogram,
    pub(crate) write_pass_us: Histogram,
}

impl ServerMetrics {
    fn new(registry: &Registry, obs: bool) -> Self {
        // Extended handles come from a disabled registry when obs is
        // off: same code path, no atomics, nothing in snapshots.
        let ext = if obs {
            registry.clone()
        } else {
            Registry::disabled()
        };
        Self {
            wire_in: registry.counter("wire.in"),
            wire_out: registry.counter("wire.out"),
            queries: registry.counter("queries.served"),
            evictions: registry.counter("sessions.evicted"),
            superseded: registry.counter("sessions.superseded"),
            wakeup_idle: registry.counter("reactor.wakeup.idle"),
            sessions_cached: registry.gauge("sessions.cached"),
            cache_hit: ext.counter("cache.hit"),
            cache_miss: ext.counter("cache.miss"),
            cache_parked: ext.counter("cache.parked"),
            wakeup_accept: ext.counter("reactor.wakeup.accept"),
            wakeup_worker: ext.counter("reactor.wakeup.worker"),
            wakeup_conn: ext.counter("reactor.wakeup.conn"),
            wakeup_deadline: ext.counter("reactor.wakeup.deadline"),
            bp_pause: ext.counter("backpressure.pause"),
            bp_resume: ext.counter("backpressure.resume"),
            spool_drained: ext.counter("spool.drained_bytes"),
            inflight: ext.gauge("conn.inflight"),
            worker_queue: ext.gauge("worker.queue_depth"),
            worker_busy: ext.gauge("worker.busy"),
            spool_depth: ext.gauge("spool.depth"),
            decode_us: ext.histogram("phase.decode_us"),
            lookup_us: ext.histogram("phase.lookup_us"),
            run_us: ext.histogram("phase.run_us"),
            encode_us: ext.histogram("phase.encode_us"),
            write_pass_us: ext.histogram("reactor.write_pass_us"),
        }
    }
}

/// One cached session. `key` is the fingerprint pair the slot currently
/// answers to — an update re-keys it in place, so a reader that raced a
/// concurrent update can detect (by comparing `key` against the pair the
/// client named) that its lookup went stale between the cache probe and
/// the slot lock.
pub(crate) struct SlotInner {
    engine: Engine,
    key: (u64, u64),
}

pub(crate) type Slot = Arc<RwLock<SlotInner>>;

/// The fingerprint-keyed session cache: slots plus a recency tick for
/// least-recently-used eviction at the configured cap, and the
/// superseded map that redirects retired fingerprint pairs to their
/// current identity.
struct SessionCache {
    entries: HashMap<(u64, u64), (Slot, u64)>,
    /// Retired pair → (current pair, epoch at retirement). Best-effort
    /// redirection hints for typed stale-epoch replies; cleared wholesale
    /// if it ever outgrows a small multiple of the cache cap.
    superseded: HashMap<(u64, u64), ((u64, u64), u64)>,
    tick: u64,
}

/// What a cache probe found for a fingerprint pair.
pub(crate) enum Lookup {
    /// The pair is cached and current.
    Found(Slot),
    /// The pair was retired by an update: current pair + epoch.
    Superseded((u64, u64), u64),
    /// Never seen (or evicted without a successor).
    Missing,
}

/// Shared daemon state.
pub struct ServerState {
    /// Session cache keyed by `(fingerprint(A), fingerprint(B))`.
    sessions: Mutex<SessionCache>,
    /// Logical ledger folded over every served query.
    ledger: Mutex<BatchAccounting>,
    /// The one source of truth for every number the daemon reports:
    /// `stats` replies, the `metrics` snapshot, and the shutdown
    /// summary are all projections of this registry.
    pub(crate) registry: Registry,
    /// Pre-fetched handles into `registry` (see [`ServerMetrics`]).
    pub(crate) metrics: ServerMetrics,
    /// Memoized per-protocol `(bits, rounds)` counter handles, so the
    /// hot batch path pays one registry lookup per protocol name over
    /// the daemon's lifetime instead of two string formats per report.
    protocol_stats: Mutex<HashMap<&'static str, (Counter, Counter)>>,
    /// Per-query span sink (`mpest serve --trace-out`); disabled by
    /// default.
    pub(crate) tracer: Tracer,
    pub(crate) config: ServeConfig,
    pub(crate) stop: StopSignal,
}

impl ServerState {
    /// Fresh state with default timeouts and cache cap; `workers` is the
    /// per-query engine fan-out (0 = one per core).
    #[must_use]
    pub fn new(workers: usize) -> Self {
        Self::with_config(ServeConfig {
            workers,
            ..ServeConfig::default()
        })
    }

    /// Fresh state with explicit tunables.
    #[must_use]
    pub fn with_config(config: ServeConfig) -> Self {
        Self::with_config_traced(config, Tracer::disabled())
    }

    /// Fresh state with explicit tunables and a span sink for per-query
    /// tracing (the CLI's `--trace-out` path).
    #[must_use]
    pub fn with_config_traced(config: ServeConfig, tracer: Tracer) -> Self {
        let registry = Registry::new();
        let metrics = ServerMetrics::new(&registry, config.obs);
        Self {
            sessions: Mutex::new(SessionCache {
                entries: HashMap::new(),
                superseded: HashMap::new(),
                tick: 0,
            }),
            ledger: Mutex::new(BatchAccounting::new()),
            registry,
            metrics,
            protocol_stats: Mutex::new(HashMap::new()),
            tracer,
            config,
            stop: StopSignal::new().expect("stop signal pipe"),
        }
    }

    /// How many times the serving loop woke up with nothing to do.
    /// Zero while connections merely idle — the daemon parks on
    /// readiness instead of slicing waits.
    #[must_use]
    pub fn idle_wakeups(&self) -> u64 {
        self.metrics.wakeup_idle.get()
    }

    /// Full registry snapshot (the `metrics` wire reply and the
    /// shutdown summary). Refreshes the `sessions.cached` gauge first
    /// so the snapshot is self-contained.
    #[must_use]
    pub fn metrics_snapshot(&self) -> Snapshot {
        let sessions = self.sessions.lock().expect("sessions").entries.len() as u64;
        self.metrics.sessions_cached.record(sessions);
        self.registry.snapshot()
    }

    /// Snapshot for `stats` replies — a fixed-field projection of the
    /// same registry the `metrics` reply snapshots, so the two can
    /// never disagree on a total.
    #[must_use]
    pub fn stats(&self) -> StatsMsg {
        let snap = self.metrics_snapshot();
        StatsMsg {
            accounting: self.ledger.lock().expect("ledger").clone(),
            sessions: snap
                .gauges
                .get("sessions.cached")
                .map_or(0, |gauge| gauge.value),
            queries: snap.counter("queries.served"),
            wire_in: snap.counter("wire.in"),
            wire_out: snap.counter("wire.out"),
            evictions: snap.counter("sessions.evicted"),
            superseded: snap.counter("sessions.superseded"),
        }
    }

    /// The shutdown summary: the classic one-line ledger sentence plus
    /// the full registry rendering, both read off *one* snapshot so the
    /// summary can never disagree with what `stats`/`metrics` reported.
    #[must_use]
    pub fn summary(&self) -> String {
        let snap = self.metrics_snapshot();
        let accounting = self.ledger.lock().expect("ledger").clone();
        let mut out = format!(
            "shut down after {} request(s), {} cached session(s) ({} evicted, {} superseded \
             by updates), {} logical bits served, {} bytes in / {} bytes out on the wire",
            snap.counter("queries.served"),
            snap.gauges
                .get("sessions.cached")
                .map_or(0, |gauge| gauge.value),
            snap.counter("sessions.evicted"),
            snap.counter("sessions.superseded"),
            accounting.total_bits,
            snap.counter("wire.in"),
            snap.counter("wire.out"),
        );
        out.push('\n');
        out.push_str(&snap.render());
        out
    }

    pub(crate) fn lookup(&self, key: (u64, u64)) -> Lookup {
        let mut cache = self.sessions.lock().expect("sessions");
        cache.tick += 1;
        let tick = cache.tick;
        if let Some((slot, used)) = cache.entries.get_mut(&key) {
            *used = tick;
            return Lookup::Found(Arc::clone(slot));
        }
        match cache.superseded.get(&key) {
            Some(&(current, epoch)) => Lookup::Superseded(current, epoch),
            None => Lookup::Missing,
        }
    }

    pub(crate) fn insert(&self, key: (u64, u64), a: WCsr, b: WCsr) -> Result<Slot, CommError> {
        let (got_a, got_b) = (fingerprint(&a.0), fingerprint(&b.0));
        if (got_a, got_b) != key {
            return Err(CommError::protocol(format!(
                "uploaded matrices fingerprint to ({got_a:#x}, {got_b:#x}), \
                 query claimed ({:#x}, {:#x})",
                key.0, key.1
            )));
        }
        // Warm the derived views up front: a served session is a
        // streaming session, so updates should maintain views
        // incrementally from the first batch rather than leaving
        // queries to hit cold views mid-stream.
        let mut session = Session::new(a.0, b.0);
        if self.config.obs {
            // Wire the session's sketch-cache metrics into the daemon
            // registry while the session is still unshared.
            session.set_obs(&self.registry);
        }
        session.warm_views()?;
        let slot = Arc::new(RwLock::new(SlotInner {
            engine: Engine::new(session),
            key,
        }));
        let mut cache = self.sessions.lock().expect("sessions");
        cache.tick += 1;
        let tick = cache.tick;
        // Two clients may race the same upload; first one wins, both use it.
        if let Some((existing, used)) = cache.entries.get_mut(&key) {
            *used = tick;
            return Ok(Arc::clone(existing));
        }
        self.evict_to_cap(&mut cache);
        // A freshly uploaded pair is live again, whatever its history.
        cache.superseded.remove(&key);
        cache.entries.insert(key, (Arc::clone(&slot), tick));
        Ok(slot)
    }

    /// At the cap (0 = unbounded), drops least-recently-used pairs;
    /// in-flight queries keep their slot arcs alive until they finish.
    fn evict_to_cap(&self, cache: &mut SessionCache) {
        while self.config.max_sessions > 0 && cache.entries.len() >= self.config.max_sessions {
            let oldest = cache
                .entries
                .iter()
                .min_by_key(|(_, (_, used))| *used)
                .map(|(k, _)| *k)
                .expect("cache at cap is non-empty");
            cache.entries.remove(&oldest);
            self.metrics.evictions.inc();
        }
    }

    /// Atomically moves a slot from `old_key` to `new_key` after an
    /// update (called with the slot's write lock held — see the module
    /// docs for the lock order). The old pair lands in the superseded
    /// map so late queries get a typed redirect instead of a re-upload.
    fn rekey(&self, old_key: (u64, u64), new_key: (u64, u64), epoch: u64) {
        let mut cache = self.sessions.lock().expect("sessions");
        cache.tick += 1;
        let tick = cache.tick;
        if let Some(entry) = cache.entries.remove(&old_key) {
            if new_key != old_key && cache.entries.insert(new_key, (entry.0, tick)).is_some() {
                // An independently uploaded identical pair occupied the
                // new key; the updated slot replaces it.
                self.metrics.evictions.inc();
            }
        }
        if new_key != old_key {
            self.metrics.superseded.inc();
            // Redirect chains collapse: anything that pointed at the old
            // identity now points at the new one.
            for target in cache.superseded.values_mut() {
                if target.0 == old_key {
                    *target = (new_key, epoch);
                }
            }
            cache.superseded.insert(old_key, (new_key, epoch));
            cache.superseded.remove(&new_key);
            let cap = 4 * self.config.max_sessions.max(16);
            if cache.superseded.len() > cap {
                cache.superseded.clear();
            }
        }
    }
}

/// A running daemon handle.
pub struct Server {
    addr: SocketAddr,
    state: Arc<ServerState>,
    join: Option<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Binds `addr` and serves in background threads.
    ///
    /// # Errors
    ///
    /// I/O errors from binding.
    pub fn spawn(addr: &str, workers: usize) -> std::io::Result<Self> {
        Self::spawn_with(
            addr,
            ServeConfig {
                workers,
                ..ServeConfig::default()
            },
        )
    }

    /// Binds `addr` with explicit tunables and serves in background
    /// threads.
    ///
    /// # Errors
    ///
    /// I/O errors from binding.
    pub fn spawn_with(addr: &str, config: ServeConfig) -> std::io::Result<Self> {
        Self::spawn_traced(addr, config, Tracer::disabled())
    }

    /// [`Server::spawn_with`] with a span tracer attached: every served
    /// query emits a phase-timed span (see
    /// [`ServerState::with_config_traced`]). The trace is sealed when
    /// the serve loop exits.
    ///
    /// # Errors
    ///
    /// I/O errors from binding.
    pub fn spawn_traced(addr: &str, config: ServeConfig, tracer: Tracer) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let state = Arc::new(ServerState::with_config_traced(config, tracer));
        let accept_state = Arc::clone(&state);
        let join = std::thread::spawn(move || {
            serve_on(&listener, &accept_state);
        });
        Ok(Self {
            addr: local,
            state,
            join: Some(join),
        })
    }

    /// The bound address.
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared state (for stats in tests and benches).
    #[must_use]
    pub fn state(&self) -> &Arc<ServerState> {
        &self.state
    }

    /// Stops the serving loop and joins it (live connections finish
    /// their current message and then drop).
    pub fn shutdown(mut self) {
        self.state.stop.trigger();
        let _ = TcpStream::connect(self.addr);
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.state.stop.trigger();
        let _ = TcpStream::connect(self.addr);
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
    }
}

/// Serves an already-bound listener until shutdown (the CLI's
/// foreground path; [`Server::spawn`] wraps it in a thread): the
/// readiness-driven reactor multiplexes every connection on this thread.
pub fn serve_on(listener: &TcpListener, state: &Arc<ServerState>) {
    crate::server_reactor::serve_reactor(listener, state);
    // Seal the trace (a Chrome-format file needs its closing bracket);
    // a no-op without an attached tracer.
    state.tracer.finish();
}

/// Converts a failure reply to a *pipelined* query (`id != 0`) into the
/// connection-preserving `query-failed` form; unpipelined queries keep
/// the classic typed replies.
pub(crate) fn pipeline_wrap(id: u64, reply: ServiceMsg) -> ServiceMsg {
    if id == 0 {
        return reply;
    }
    match reply {
        ServiceMsg::Error(error) => ServiceMsg::QueryFailed { id, error },
        ServiceMsg::StaleEpoch { fp_a, fp_b, epoch } => ServiceMsg::QueryFailed {
            id,
            error: format!(
                "stale epoch: the daemon's session is now ({fp_a:#x}, {fp_b:#x}) at epoch {epoch}"
            ),
        },
        other => other,
    }
}

/// Runs a resolved query against its cache slot on a reactor worker:
/// epoch checks, the engine run under the slot's read lock, and the
/// stats fold; `wire` is the connection's byte counters at query time.
/// Failures of pipelined queries come back as `query-failed`
/// ([`pipeline_wrap`]).
pub(crate) fn answer_query(
    state: &ServerState,
    slot: &Slot,
    query: QueryMsg,
    cache_hit: bool,
    wire: (u64, u64),
) -> ServiceMsg {
    let key = (query.fp_a, query.fp_b);
    let id = query.id;
    let inner = slot.read().expect("slot");
    let epoch = inner.engine.session().epoch();
    let reply = if inner.key != key {
        // An update re-keyed the slot between the cache probe and this
        // lock: the pair the client named no longer exists.
        ServiceMsg::StaleEpoch {
            fp_a: inner.key.0,
            fp_b: inner.key.1,
            epoch,
        }
    } else if query.at_epoch.is_some_and(|at| at != epoch) {
        ServiceMsg::StaleEpoch {
            fp_a: key.0,
            fp_b: key.1,
            epoch,
        }
    } else {
        let queries: Vec<(Seed, mpest_core::EstimateRequest)> = query
            .queries
            .into_iter()
            .map(|(seed, request)| (Seed(seed), request))
            .collect();
        let began = Instant::now();
        match inner
            .engine
            .run_seeded_queries(&queries, state.config.workers)
        {
            Ok((reports, accounting)) => {
                state.metrics.queries.add(reports.len() as u64);
                state.ledger.lock().expect("ledger").merge(&accounting);
                // Timing and per-protocol round/bit totals go to the
                // registry only — the reply bytes are untouched.
                state
                    .metrics
                    .run_us
                    .record(began.elapsed().as_micros() as u64);
                if state.config.obs {
                    let mut memo = state.protocol_stats.lock().expect("protocol stats");
                    for report in &reports {
                        let name = report.protocol;
                        let (bits, rounds) = memo.entry(name).or_insert_with(|| {
                            (
                                state.registry.counter(&format!("protocol.{name}.bits")),
                                state.registry.counter(&format!("protocol.{name}.rounds")),
                            )
                        });
                        bits.add(report.bits());
                        rounds.add(u64::from(report.rounds()));
                    }
                }
                ServiceMsg::Reports(ReportsMsg {
                    reports,
                    accounting,
                    cache_hit,
                    epoch,
                    wire_in: wire.0,
                    wire_out: wire.1,
                    id,
                })
            }
            Err(e) => ServiceMsg::Error(e.to_string()),
        }
    };
    pipeline_wrap(id, reply)
}

/// Applies an update batch to a cached session: epoch-checked under the
/// slot's write lock, then the cache entry is re-keyed to the mutated
/// pair's new fingerprints.
pub(crate) fn handle_update(state: &ServerState, update: &UpdateMsg) -> ServiceMsg {
    let key = (update.fp_a, update.fp_b);
    let slot = match state.lookup(key) {
        Lookup::Found(slot) => slot,
        Lookup::Superseded(current, epoch) => {
            return ServiceMsg::StaleEpoch {
                fp_a: current.0,
                fp_b: current.1,
                epoch,
            }
        }
        Lookup::Missing => {
            return ServiceMsg::Error(format!(
                "no cached session for ({:#x}, {:#x}): query (and upload) the pair before \
                 updating it",
                key.0, key.1
            ))
        }
    };
    let mut inner = slot.write().expect("slot");
    let epoch = inner.engine.session().epoch();
    if inner.key != key {
        return ServiceMsg::StaleEpoch {
            fp_a: inner.key.0,
            fp_b: inner.key.1,
            epoch,
        };
    }
    if update.expect_epoch != epoch {
        // A racing client updated first; this client's mirror is behind.
        return ServiceMsg::StaleEpoch {
            fp_a: key.0,
            fp_b: key.1,
            epoch,
        };
    }
    let new_epoch = match inner.engine.apply_update(&update.batch) {
        Ok(epoch) => epoch,
        Err(e) => return ServiceMsg::Error(e.to_string()),
    };
    let new_key = match inner.engine.session().csr_halves() {
        Ok((a, b)) => (fingerprint(a), fingerprint(b)),
        Err(e) => return ServiceMsg::Error(e.to_string()),
    };
    inner.key = new_key;
    state.rekey(key, new_key, new_epoch);
    ServiceMsg::UpdateAck {
        fp_a: new_key.0,
        fp_b: new_key.1,
        epoch: new_epoch,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::ServeClient;
    use crate::codec::FramedConn;
    use mpest_core::{EstimateRequest, UpdateBatch, UpdateSide};
    use mpest_matrix::{CsrMatrix, Workloads};

    fn pair(val: i64) -> (CsrMatrix, CsrMatrix) {
        let a = CsrMatrix::from_triplets(3, 4, vec![(0, 1, val), (2, 3, 1)]);
        let b = CsrMatrix::from_triplets(4, 3, vec![(1, 0, val + 1)]);
        (a, b)
    }

    fn insert_pair(state: &ServerState, a: CsrMatrix, b: CsrMatrix) -> (u64, u64) {
        let key = (fingerprint(&a), fingerprint(&b));
        state.insert(key, WCsr(a), WCsr(b)).unwrap();
        key
    }

    #[test]
    fn session_cache_evicts_least_recently_used_at_cap() {
        let state = ServerState::with_config(ServeConfig {
            max_sessions: 2,
            ..ServeConfig::default()
        });
        let (a1, b1) = pair(1);
        let (a2, b2) = pair(10);
        let (a3, b3) = pair(100);
        let k1 = insert_pair(&state, a1, b1);
        let k2 = insert_pair(&state, a2, b2);
        // Touch k1 so k2 becomes the least recently used.
        assert!(matches!(state.lookup(k1), Lookup::Found(_)));
        let k3 = insert_pair(&state, a3, b3);
        let stats = state.stats();
        assert_eq!(stats.sessions, 2);
        assert_eq!(stats.evictions, 1);
        assert!(
            matches!(state.lookup(k1), Lookup::Found(_)),
            "recently used entry survives"
        );
        assert!(
            matches!(state.lookup(k2), Lookup::Missing),
            "LRU entry was evicted"
        );
        assert!(matches!(state.lookup(k3), Lookup::Found(_)));
    }

    #[test]
    fn updates_rekey_without_double_counting_and_redirect_stale_keys() {
        let state = Arc::new(ServerState::new(1));
        let (a, b) = pair(1);
        let old_key = insert_pair(&state, a.clone(), b.clone());

        let batch = UpdateBatch::new().set_entry(UpdateSide::Alice, 0, 1, 7);
        let ack = handle_update(
            &state,
            &UpdateMsg {
                fp_a: old_key.0,
                fp_b: old_key.1,
                expect_epoch: 0,
                batch: batch.clone(),
            },
        );
        let ServiceMsg::UpdateAck { fp_a, fp_b, epoch } = ack else {
            panic!("expected update-ack, got {}", ack.name());
        };
        assert_eq!(epoch, 1);
        // The ack names the mutated pair's real fingerprints.
        let mut mirror = Session::new(a, b);
        mirror.apply_update(&batch).unwrap();
        let (ma, mb) = mirror.csr_halves().unwrap();
        assert_eq!((fp_a, fp_b), (fingerprint(ma), fingerprint(mb)));

        // Exactly one cache entry (no double-count), keyed by the new pair.
        let stats = state.stats();
        assert_eq!(stats.sessions, 1);
        assert_eq!(stats.superseded, 1);
        assert_eq!(stats.evictions, 0);
        assert!(matches!(state.lookup((fp_a, fp_b)), Lookup::Found(_)));
        // The retired pair redirects instead of hitting or re-uploading.
        match state.lookup(old_key) {
            Lookup::Superseded(current, at) => {
                assert_eq!(current, (fp_a, fp_b));
                assert_eq!(at, 1);
            }
            _ => panic!("old key must be superseded"),
        }

        // A second update chained through the new key collapses the
        // redirect chain: the oldest key points straight at the newest.
        let batch2 = UpdateBatch::new().set_entry(UpdateSide::Bob, 1, 0, -3);
        let ServiceMsg::UpdateAck {
            fp_a: fp_a2,
            fp_b: fp_b2,
            epoch: epoch2,
        } = handle_update(
            &state,
            &UpdateMsg {
                fp_a,
                fp_b,
                expect_epoch: 1,
                batch: batch2,
            },
        )
        else {
            panic!("second update must ack");
        };
        assert_eq!(epoch2, 2);
        match state.lookup(old_key) {
            Lookup::Superseded(current, at) => {
                assert_eq!(current, (fp_a2, fp_b2));
                assert_eq!(at, 2);
            }
            _ => panic!("oldest key must chase the newest identity"),
        }
    }

    #[test]
    fn stale_expect_epoch_is_rejected_with_the_current_identity() {
        let state = Arc::new(ServerState::new(1));
        let (a, b) = pair(3);
        let key = insert_pair(&state, a, b);
        let reply = handle_update(
            &state,
            &UpdateMsg {
                fp_a: key.0,
                fp_b: key.1,
                expect_epoch: 5,
                batch: UpdateBatch::new(),
            },
        );
        match reply {
            ServiceMsg::StaleEpoch { fp_a, fp_b, epoch } => {
                assert_eq!((fp_a, fp_b), key);
                assert_eq!(epoch, 0);
            }
            other => panic!("expected stale-epoch, got {}", other.name()),
        }
        // Updating a pair the daemon has never seen is a plain error.
        let reply = handle_update(
            &state,
            &UpdateMsg {
                fp_a: 0xdead,
                fp_b: 0xbeef,
                expect_epoch: 0,
                batch: UpdateBatch::new(),
            },
        );
        assert!(
            matches!(&reply, ServiceMsg::Error(msg) if msg.contains("no cached session")),
            "got {}",
            reply.name()
        );
    }

    #[test]
    fn aborted_connections_still_account_their_bytes() {
        use crate::msg::QueryMsg;
        let server = Server::spawn("127.0.0.1:0", 1).unwrap();
        {
            let stream = TcpStream::connect(server.addr()).unwrap();
            let mut conn = FramedConn::establish(stream).unwrap();
            conn.send_msg(&ServiceMsg::Query(QueryMsg {
                fp_a: 1,
                fp_b: 2,
                at_epoch: None,
                queries: Vec::new(),
                id: 0,
            }))
            .unwrap();
            // The daemon replies need-matrices; vanish instead of
            // uploading — closing the connection must still fold this
            // conversation's bytes.
        }
        let mut stats = server.state().stats();
        for _ in 0..100 {
            if stats.wire_in > 0 {
                break;
            }
            std::thread::sleep(Duration::from_millis(20));
            stats = server.state().stats();
        }
        assert!(stats.wire_in > 0, "aborted connection's inbound bytes");
        assert!(stats.wire_out > 0, "aborted connection's outbound bytes");
        server.shutdown();
    }

    /// A raw client offering only codec v5 (`5..=5`): the host answers
    /// with its own preamble, refuses the handshake, and closes the
    /// connection without sending a single reply frame.
    fn assert_v5_handshake_is_refused(addr: SocketAddr) {
        use crate::codec::{local_preamble, MAGIC};
        use std::io::{Read, Write};
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        let mut preamble = MAGIC.to_vec();
        preamble.extend_from_slice(&5u16.to_be_bytes());
        preamble.extend_from_slice(&5u16.to_be_bytes());
        stream.write_all(&preamble).unwrap();
        let mut got = Vec::new();
        stream.read_to_end(&mut got).unwrap();
        assert_eq!(
            got,
            local_preamble(),
            "preamble, then close: no reply frame"
        );
    }

    #[test]
    fn a_refused_handshake_leaves_the_daemon_serving() {
        let a = Workloads::bernoulli_bits(8, 10, 0.3, 1).to_csr();
        let b = Workloads::bernoulli_bits(10, 8, 0.3, 2).to_csr();
        let server = Server::spawn("127.0.0.1:0", 1).unwrap();
        assert_v5_handshake_is_refused(server.addr());
        let mut client = ServeClient::connect(&server.addr().to_string()).unwrap();
        let request = EstimateRequest::ExactL1;
        let outcome = client.query(&a, &b, &[(9, request.clone())]).unwrap();
        let local = Session::new(a, b)
            .estimate_seeded(&request, Seed(9))
            .unwrap();
        assert_eq!(outcome.reports.reports, vec![local]);
        server.shutdown();
    }

    #[test]
    fn a_refused_handshake_leaves_a_split_party_host_serving() {
        use crate::party::{run_with_party_view, PartyHost};
        use mpest_comm::Role;
        let session = Session::new(
            Workloads::bernoulli_bits(12, 16, 0.3, 1),
            Workloads::bernoulli_bits(16, 12, 0.3, 2),
        );
        let host = PartyHost::spawn_split("127.0.0.1:0", session.party_view(Role::Bob)).unwrap();
        assert_v5_handshake_is_refused(host.addr());
        let request = EstimateRequest::ExactL1;
        let alice = session.party_view(Role::Alice);
        let (report, _, _) =
            run_with_party_view(&host.addr().to_string(), &alice, &request, Seed(9)).unwrap();
        assert_eq!(report, session.estimate_seeded(&request, Seed(9)).unwrap());
        host.shutdown();
    }

    #[test]
    fn idle_client_outlives_the_in_flight_io_timeout() {
        let a = Workloads::bernoulli_bits(8, 10, 0.3, 1).to_csr();
        let b = Workloads::bernoulli_bits(10, 8, 0.3, 2).to_csr();
        let server = Server::spawn_with(
            "127.0.0.1:0",
            ServeConfig {
                workers: 1,
                io_timeout: Some(Duration::from_millis(100)),
                ..ServeConfig::default()
            },
        )
        .unwrap();
        let mut client = ServeClient::connect(&server.addr().to_string()).unwrap();
        let queries = [(1u64, EstimateRequest::ExactL1)];
        client.query(&a, &b, &queries).unwrap();
        // Park well past the in-flight deadline: idle waits are governed
        // separately (default: forever), so the connection stays live
        // and the next query still answers from the cached session.
        std::thread::sleep(Duration::from_millis(300));
        let outcome = client.query(&a, &b, &queries).unwrap();
        assert!(outcome.reports.cache_hit);
        server.shutdown();
    }

    #[test]
    fn parked_connections_cost_zero_wakeups_and_shutdown_is_prompt() {
        use std::time::Instant;
        let server = Server::spawn("127.0.0.1:0", 1).unwrap();
        // An established-then-silent client: once the handshake settles
        // the reactor must park in `poll` with no expiring deadline —
        // not spin 500 ms stop-flag slices like the old accept loop.
        let stream = TcpStream::connect(server.addr()).unwrap();
        let _conn = FramedConn::establish(stream).unwrap();
        std::thread::sleep(Duration::from_millis(1200));
        assert_eq!(
            server.state().idle_wakeups(),
            0,
            "the reactor woke from poll with nothing to do"
        );
        // Shutdown rides the stop signal's descriptor in the poll set:
        // it must interrupt the park immediately, not wait out a slice.
        let begun = Instant::now();
        server.shutdown();
        assert!(
            begun.elapsed() < Duration::from_millis(400),
            "shutdown took {:?}; the stop signal did not interrupt the poll",
            begun.elapsed()
        );
    }

    /// Satellite fix: the shutdown summary and the stats/metrics
    /// replies historically could disagree on byte totals for
    /// connections cut mid-spool, depending on exit-path ordering. Both
    /// are now projections of one registry, so after shutdown (when
    /// every exit path has folded its tail delta) they must agree to
    /// the byte.
    #[test]
    fn summary_and_snapshot_agree_after_a_mid_spool_cut() {
        use crate::msg::QueryMsg;
        let a = Workloads::bernoulli_bits(8, 10, 0.3, 1).to_csr();
        let b = Workloads::bernoulli_bits(10, 8, 0.3, 2).to_csr();
        let server = Server::spawn("127.0.0.1:0", 1).unwrap();
        let mut client = ServeClient::connect(&server.addr().to_string()).unwrap();
        let queries = [(1u64, EstimateRequest::ExactL1)];
        client.query(&a, &b, &queries).unwrap();
        {
            // A second connection floods pipelined queries and vanishes
            // without reading a single reply, leaving the reactor with
            // a spooled outbound backlog it can never finish draining.
            let stream = TcpStream::connect(server.addr()).unwrap();
            let mut conn = FramedConn::establish(stream).unwrap();
            let (fa, fb) = (fingerprint(&a), fingerprint(&b));
            for id in 1..=16u64 {
                conn.send_msg(&ServiceMsg::Query(QueryMsg {
                    fp_a: fa,
                    fp_b: fb,
                    queries: vec![(id, EstimateRequest::ExactL1)],
                    at_epoch: None,
                    id,
                }))
                .unwrap();
            }
        }
        std::thread::sleep(Duration::from_millis(200));
        let state = Arc::clone(server.state());
        server.shutdown();
        let summary = state.summary();
        let stats = state.stats();
        let snap = state.metrics_snapshot();
        assert_eq!(stats.wire_in, snap.counter("wire.in"));
        assert_eq!(stats.wire_out, snap.counter("wire.out"));
        assert!(
            summary.contains(&format!(
                "{} bytes in / {} bytes out",
                stats.wire_in, stats.wire_out
            )),
            "summary renders different byte totals than the snapshot:\n{summary}"
        );
        assert!(stats.wire_in > 0 && stats.wire_out > 0);
        assert_eq!(stats.queries, snap.counter("queries.served"));
    }

    /// `obs: false` removes the extended tier entirely — no names in
    /// the snapshot, no atomic traffic — while the core stats keep
    /// working and answers stay bit-identical (covered by the
    /// equivalence suites).
    #[test]
    fn disabling_obs_keeps_stats_but_drops_extended_metrics() {
        let a = Workloads::bernoulli_bits(8, 10, 0.3, 1).to_csr();
        let b = Workloads::bernoulli_bits(10, 8, 0.3, 2).to_csr();
        let server = Server::spawn_with(
            "127.0.0.1:0",
            ServeConfig {
                workers: 1,
                obs: false,
                ..ServeConfig::default()
            },
        )
        .unwrap();
        let mut client = ServeClient::connect(&server.addr().to_string()).unwrap();
        let queries = [(1u64, EstimateRequest::ExactL1)];
        client.query(&a, &b, &queries).unwrap();
        client.query(&a, &b, &queries).unwrap();
        // Wire bytes fold into the daemon counters when a connection
        // closes; shut down before asserting on them.
        drop(client);
        let state = Arc::clone(server.state());
        server.shutdown();
        let stats = state.stats();
        assert_eq!(stats.queries, 2);
        assert!(stats.wire_in > 0);
        let snap = state.metrics_snapshot();
        assert_eq!(snap.counter("cache.hit"), 0);
        assert!(
            !snap.counters.contains_key("cache.hit")
                && !snap.counters.contains_key("cache.miss")
                && snap.histograms.is_empty(),
            "extended metrics must not register when obs is off: {:?}",
            snap.counters.keys().collect::<Vec<_>>()
        );
        assert!(snap.counters.contains_key("wire.in"));
    }

    #[test]
    fn a_connection_cut_mid_frame_still_folds_its_partial_bytes() {
        use crate::codec::{build_header, HEADER_LEN, KIND_SERVICE};
        use std::io::Write;
        let server = Server::spawn("127.0.0.1:0", 1).unwrap();
        // Kernel-accepted bytes of a frame that never completes: the
        // preamble, a 64 KB-payload header, the label, and half the
        // payload — then vanish. The reactor is left mid-frame and the
        // close must still fold every byte it read into the ledger.
        const PAYLOAD: usize = 64_000;
        const SENT: usize = PAYLOAD / 2;
        {
            let stream = TcpStream::connect(server.addr()).unwrap();
            let conn = FramedConn::establish(stream).unwrap();
            let header =
                build_header(KIND_SERVICE, 0, "query", 8 * PAYLOAD as u64, PAYLOAD).unwrap();
            let mut raw = conn.stream();
            raw.write_all(&header).unwrap();
            raw.write_all(b"query").unwrap();
            raw.write_all(&vec![0u8; SENT]).unwrap();
        }
        let floor = (8 + HEADER_LEN + "query".len() + SENT) as u64;
        let mut stats = server.state().stats();
        for _ in 0..100 {
            if stats.wire_in >= floor {
                break;
            }
            std::thread::sleep(Duration::from_millis(20));
            stats = server.state().stats();
        }
        assert!(
            stats.wire_in >= floor,
            "only {} of the {floor} kernel-accepted inbound bytes were folded",
            stats.wire_in
        );
        assert!(stats.wire_out >= 8, "the daemon's own preamble bytes");
        server.shutdown();
    }
}
