//! Every call the benchmark makes into the program.
//!
//! The rest of the benchmark sees only the types and functions below,
//! so a change to a public entry point of the workspace edits this one
//! file. Only entry points the workspace keeps are used: the default
//! fused executor, the default duplex transport, `Role`, and the
//! session builder.

use std::hint::black_box;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use mpest_comm::{execute, BatchAccounting, CommError, Link, Role, Seed};
use mpest_core::{
    BatchPlan, Constants, Engine, EstimateReport, EstimateRequest, PartyView, PeerInfo, Session,
    UpdateBatch,
};
use mpest_matrix::{BitMatrix, CsrMatrix, PNorm, Workloads};
use mpest_net::{
    fingerprint, party_info, run_with_party_view, FramedConn, PartyHost, QueryMsg, ReportsMsg,
    ServeClient, ServeConfig, Server, ServiceMsg, Snapshot, WCsr,
};
use mpest_sketch::{L0Sampler, NormSketch};
use mpest_verify::score::{reference, score, Reference};
use mpest_verify::{BuiltWorkload, Workload};

use crate::stats::derive;

/// Errors surfaced by the program.
pub type Error = CommError;
/// One protocol invocation.
pub type Request = EstimateRequest;
/// One protocol answer: output plus transcript.
pub type Report = EstimateReport;
/// A `(seed, request)` pair as the serving wire carries it.
pub type Query = (u64, Request);
/// A registry snapshot pulled from a daemon or party host.
pub type Metrics = Snapshot;

/// Deadline for any single socket read or write the benchmark makes.
const IO_TIMEOUT: Duration = Duration::from_secs(60);
const LOOPBACK: &str = "127.0.0.1:0";

fn protocol_error(msg: String) -> Error {
    CommError::protocol(msg)
}

// ---------------------------------------------------------------------
// Requests and reports
// ---------------------------------------------------------------------

/// The catalog invocation of the protocol called `name`.
///
/// # Panics
///
/// Panics on a name the catalog does not hold.
#[must_use]
pub fn request(name: &str) -> Request {
    EstimateRequest::catalog()
        .into_iter()
        .find(|r| r.name() == name)
        .unwrap_or_else(|| panic!("no catalog protocol named {name}"))
}

/// All 14 protocols, with catalog parameters.
#[must_use]
pub fn catalog() -> Vec<Request> {
    EstimateRequest::catalog()
}

/// A request's protocol name.
#[must_use]
pub fn name(req: &Request) -> &'static str {
    req.name()
}

/// Whether the request's guarantee allows no failures.
#[must_use]
pub fn is_exact(req: &Request) -> bool {
    req.guarantee().delta == 0.0
}

/// Logical transcript bits of an answer.
#[must_use]
pub fn bits(report: &Report) -> u64 {
    report.bits()
}

/// Rounds of an answer.
#[must_use]
pub fn rounds(report: &Report) -> u64 {
    u64::from(report.rounds())
}

/// Bit-for-bit equality of output and transcript.
#[must_use]
pub fn same(a: &Report, b: &Report) -> bool {
    a == b
}

// ---------------------------------------------------------------------
// Inputs
// ---------------------------------------------------------------------

/// One matrix pair `(A, B)`, both `n × n`.
#[derive(Clone)]
pub struct Pair {
    a: CsrMatrix,
    b: CsrMatrix,
}

impl Pair {
    /// Independent Bernoulli(`density`) halves.
    #[must_use]
    pub fn bernoulli(n: usize, density: f64, seed: u64) -> Self {
        Self {
            a: Workloads::bernoulli_bits(n, n, density, derive(seed, 1)).to_csr(),
            b: Workloads::bernoulli_bits(n, n, density, derive(seed, 2)).to_csr(),
        }
    }

    /// The binary planted-pairs input: background density 0.05, two
    /// planted row/column pairs sharing `n/2` items.
    #[must_use]
    pub fn planted(n: usize, seed: u64) -> Self {
        let pick = |tag| (derive(seed, tag) % n as u64) as u32;
        let first = (pick(10), pick(11));
        let mut second = (pick(12), pick(13));
        if second.0 == first.0 {
            second.0 = (second.0 + 1) % n as u32;
        }
        let (a, b, _) =
            Workloads::planted_pairs(n, n, 0.05, &[first, second], n / 2, derive(seed, 3));
        Self {
            a: a.to_csr(),
            b: b.to_csr(),
        }
    }

    /// A batch of `flips` entry flips spread over both halves (0 → 1 or
    /// 1 → 0, so the pair stays binary), and the batch that undoes it.
    #[must_use]
    pub fn flip_batches(&self, flips: usize, seed: u64) -> (Update, Update) {
        let mut forward = UpdateBatch::new();
        let mut backward = UpdateBatch::new();
        let mut seen = std::collections::BTreeSet::new();
        let mut tag = 0u64;
        while seen.len() < flips {
            let (side, m) = if seen.len() % 2 == 0 {
                (Role::Alice, &self.a)
            } else {
                (Role::Bob, &self.b)
            };
            let row = (derive(seed, 2 * tag) % m.rows() as u64) as u32;
            let col = (derive(seed, 2 * tag + 1) % m.cols() as u64) as u32;
            tag += 1;
            if !seen.insert((side == Role::Alice, row, col)) {
                continue;
            }
            if m.get(row as usize, col) == 0 {
                forward = forward.set_entry(side, row, col, 1);
                backward = backward.delete_entry(side, row, col);
            } else {
                forward = forward.delete_entry(side, row, col);
                backward = backward.set_entry(side, row, col, 1);
            }
        }
        (Update(forward), Update(backward))
    }
}

/// An atomic update batch.
#[derive(Clone)]
pub struct Update(UpdateBatch);

// ---------------------------------------------------------------------
// In-process sessions: references, oracle, mirror, engine
// ---------------------------------------------------------------------

/// A full-pair session on the default fused executor.
pub struct Local(Session);

impl Local {
    /// Builds a session over `pair` without warming its views.
    #[must_use]
    pub fn cold(pair: &Pair) -> Self {
        Self(Session::new(pair.a.clone(), pair.b.clone()))
    }

    /// Builds a session over `pair` and warms its views.
    ///
    /// # Errors
    ///
    /// View construction errors.
    pub fn warm(pair: &Pair) -> Result<Self, Error> {
        let local = Self::cold(pair);
        local.warm_views()?;
        Ok(local)
    }

    /// `Session::warm_views`.
    ///
    /// # Errors
    ///
    /// View construction errors.
    pub fn warm_views(&self) -> Result<(), Error> {
        self.0.warm_views()
    }

    /// `Session::estimate_seeded` under the query's explicit seed.
    ///
    /// # Errors
    ///
    /// Protocol errors.
    pub fn answer(&self, query: &Query) -> Result<Report, Error> {
        self.0.estimate_seeded(&query.1, Seed(query.0))
    }

    /// `Session::apply_update`; returns the new epoch.
    ///
    /// # Errors
    ///
    /// Invalid batches.
    pub fn apply(&mut self, update: &Update) -> Result<u64, Error> {
        self.0.apply_update(&update.0)
    }

    /// The session's current pair.
    ///
    /// # Errors
    ///
    /// Dimension mismatch.
    pub fn pair(&self) -> Result<Pair, Error> {
        let (a, b) = self.0.csr_halves()?;
        Ok(Pair {
            a: a.clone(),
            b: b.clone(),
        })
    }
}

/// Checks in-process answers to a fixed request list against their
/// `guarantee()`, using exact references computed once from the
/// session's exact product.
pub struct Oracle {
    workload: BuiltWorkload,
    truths: Vec<Reference>,
    requests: Vec<Request>,
}

impl Oracle {
    /// An oracle for `requests` over `pair`.
    #[must_use]
    pub fn new(pair: &Pair, requests: &[Request]) -> Self {
        let workload = BuiltWorkload {
            workload: Workload::AdversarialSkew,
            a: pair.a.clone(),
            b: pair.b.clone(),
            session: Arc::new(Session::new(pair.a.clone(), pair.b.clone())),
        };
        let truths = requests.iter().map(|r| reference(r, &workload)).collect();
        Self {
            workload,
            truths,
            requests: requests.to_vec(),
        }
    }

    /// The allowed per-trial failure probability of request `i`.
    #[must_use]
    pub fn delta(&self, i: usize) -> f64 {
        self.requests[i].guarantee().delta
    }

    /// Whether `report` meets request `i`'s guarantee; the note if not.
    ///
    /// # Errors
    ///
    /// The reason the guarantee was missed.
    pub fn check(&self, i: usize, report: &Report) -> Result<(), String> {
        let spec = self.requests[i].guarantee();
        let verdict = score(&spec, &self.truths[i], &self.workload, &report.output);
        if verdict.ok {
            Ok(())
        } else {
            Err(verdict.note.unwrap_or_else(|| "guarantee missed".into()))
        }
    }
}

/// The batch engine over a session with pinned query seeds.
pub struct Batch {
    engine: Engine,
    workers: usize,
}

impl Batch {
    /// Builds the session (views warmed) and the engine.
    #[must_use]
    pub fn build(pair: &Pair, session_seed: u64, workers: usize) -> Self {
        let session = Session::builder(pair.a.clone(), pair.b.clone())
            .seed(Seed(session_seed))
            .warm_views()
            .build();
        Self {
            engine: Engine::new(session),
            workers,
        }
    }

    /// `Engine::run_batch` pinned at query index `first`: request `i`
    /// runs under the session's `(first + i)`-th query seed.
    ///
    /// # Errors
    ///
    /// The lowest-index failing request's error.
    pub fn run(&self, requests: &[Request], first: u64) -> Result<Vec<Report>, Error> {
        let plan = BatchPlan::default()
            .with_workers(self.workers)
            .at_index(first);
        Ok(self.engine.run_batch(requests, &plan)?.reports)
    }

    /// Request `i` alone, on this thread, under the seed
    /// [`Batch::run`] at `first` gives it.
    ///
    /// # Errors
    ///
    /// Protocol errors.
    pub fn run_one(&self, requests: &[Request], first: u64, i: usize) -> Result<Report, Error> {
        let session = self.engine.session();
        session.estimate_seeded(&requests[i], session.query_seed(first + i as u64))
    }
}

// ---------------------------------------------------------------------
// The serve daemon
// ---------------------------------------------------------------------

/// The reactor daemon with default tunables and one worker.
pub struct Daemon(Server);

impl Daemon {
    /// Binds a loopback port and starts serving.
    ///
    /// # Errors
    ///
    /// Bind errors.
    pub fn spawn() -> std::io::Result<Self> {
        let config = ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        };
        Ok(Self(Server::spawn_with(LOOPBACK, config)?))
    }

    /// The bound address.
    #[must_use]
    pub fn addr(&self) -> String {
        self.0.addr().to_string()
    }

    /// Stops the daemon and joins its threads.
    pub fn shutdown(self) {
        self.0.shutdown();
    }
}

/// A pipelining connection to the daemon, speaking the service codec
/// directly so that each frame's reply can be timed on its own.
pub struct WireConn {
    conn: FramedConn<TcpStream>,
    pair: Pair,
}

/// One daemon reply to a pipelined frame.
pub struct WireReply {
    /// The frame id it answers.
    pub id: u64,
    /// Reports, in query order.
    pub reports: Vec<Report>,
}

impl WireConn {
    /// Connects and negotiates the codec.
    ///
    /// # Errors
    ///
    /// Connection or handshake errors.
    pub fn connect(addr: &str, pair: &Pair) -> Result<Self, Error> {
        Ok(Self {
            conn: FramedConn::connect(addr, Some(IO_TIMEOUT))?,
            pair: pair.clone(),
        })
    }

    /// Sends one query frame; like `ServeClient::query`, it names the
    /// pair by fingerprints computed for this frame.
    ///
    /// # Errors
    ///
    /// Transport errors.
    pub fn send(&mut self, id: u64, queries: &[Query]) -> Result<(), Error> {
        self.conn.send_msg(&ServiceMsg::Query(QueryMsg {
            fp_a: fingerprint(&self.pair.a),
            fp_b: fingerprint(&self.pair.b),
            at_epoch: None,
            queries: queries.to_vec(),
            id,
        }))
    }

    /// Receives the next frame reply, uploading the pair when the
    /// daemon asks for it.
    ///
    /// # Errors
    ///
    /// Transport errors or a daemon-side failure.
    pub fn recv(&mut self) -> Result<WireReply, Error> {
        loop {
            match self.conn.recv_msg_required()? {
                ServiceMsg::NeedMatrices => self.conn.send_msg(&ServiceMsg::Matrices {
                    a: WCsr(self.pair.a.clone()),
                    b: WCsr(self.pair.b.clone()),
                })?,
                ServiceMsg::Reports(r) => {
                    return Ok(WireReply {
                        id: r.id,
                        reports: r.reports,
                    })
                }
                ServiceMsg::QueryFailed { id, error } => {
                    return Err(protocol_error(format!("frame {id} failed: {error}")))
                }
                ServiceMsg::Error(msg) => return Err(protocol_error(format!("daemon: {msg}"))),
                other => return Err(protocol_error(format!("unexpected {}", other.name()))),
            }
        }
    }

    /// Socket bytes in both directions so far.
    #[must_use]
    pub fn wire_bytes(&self) -> u64 {
        self.conn.bytes_out() + self.conn.bytes_in()
    }

    /// Pulls the daemon's registry snapshot.
    ///
    /// # Errors
    ///
    /// Transport errors or an unexpected reply.
    pub fn metrics(&mut self) -> Result<Metrics, Error> {
        self.conn.send_msg(&ServiceMsg::Metrics)?;
        match self.conn.recv_msg_required()? {
            ServiceMsg::MetricsReport(m) => Ok(m.snapshot),
            other => Err(protocol_error(format!("unexpected {}", other.name()))),
        }
    }
}

/// A `ServeClient` connection for the read/write stream.
pub struct StreamClient(ServeClient);

impl StreamClient {
    /// Connects with the default deadlines.
    ///
    /// # Errors
    ///
    /// Connection or handshake errors.
    pub fn connect(addr: &str) -> Result<Self, Error> {
        Ok(Self(ServeClient::connect(addr)?))
    }

    /// `ServeClient::query_at_epoch`; returns the reports and the socket
    /// bytes of the exchange.
    ///
    /// # Errors
    ///
    /// Transport, stale-epoch or daemon errors.
    pub fn query(
        &mut self,
        pair: &Pair,
        queries: &[Query],
        epoch: u64,
    ) -> Result<(Vec<Report>, u64), Error> {
        let out = self.0.query_at_epoch(&pair.a, &pair.b, queries, epoch)?;
        Ok((out.reports.reports, out.bytes_out + out.bytes_in))
    }

    /// `ServeClient::update` of the session named by `pair`; returns the
    /// new epoch.
    ///
    /// # Errors
    ///
    /// Transport, stale-epoch or daemon errors.
    pub fn update(&mut self, pair: &Pair, epoch: u64, update: &Update) -> Result<u64, Error> {
        Ok(self.0.update(&pair.a, &pair.b, epoch, &update.0)?.epoch)
    }

    /// Socket bytes in both directions so far.
    #[must_use]
    pub fn wire_bytes(&self) -> u64 {
        let (out, inn) = self.0.wire_bytes();
        out + inn
    }

    /// `ServeClient::metrics`.
    ///
    /// # Errors
    ///
    /// Transport errors.
    pub fn metrics(&mut self) -> Result<Metrics, Error> {
        self.0.metrics()
    }
}

// ---------------------------------------------------------------------
// Storage-split parties
// ---------------------------------------------------------------------

fn view(role: Role, own: &CsrMatrix, peer: &CsrMatrix) -> Result<PartyView, Error> {
    let view = PartyView::new(
        role,
        own.clone(),
        PeerInfo::new(peer.rows(), peer.cols(), true),
    );
    view.warm_views()?;
    Ok(view)
}

/// Bob's half behind a storage-split party host.
pub struct SplitHost(PartyHost);

impl SplitHost {
    /// Builds Bob's view (views warmed) and spawns its host.
    ///
    /// # Errors
    ///
    /// View or bind errors.
    pub fn spawn(pair: &Pair) -> Result<Self, Error> {
        let bob = view(Role::Bob, &pair.b, &pair.a)?;
        PartyHost::spawn_split(LOOPBACK, bob)
            .map(Self)
            .map_err(|e| protocol_error(format!("party host bind: {e}")))
    }

    /// The bound address.
    #[must_use]
    pub fn addr(&self) -> String {
        self.0.addr().to_string()
    }

    /// The host's registry snapshot.
    #[must_use]
    pub fn metrics(&self) -> Metrics {
        self.0.metrics_snapshot()
    }

    /// Stops the host and joins its accept loop.
    pub fn shutdown(self) {
        self.0.shutdown();
    }
}

/// Alice's half, driving runs against a split host.
pub struct Alice(PartyView);

impl Alice {
    /// Builds Alice's view with warmed views.
    ///
    /// # Errors
    ///
    /// View construction errors.
    pub fn new(pair: &Pair) -> Result<Self, Error> {
        Ok(Self(view(Role::Alice, &pair.a, &pair.b)?))
    }

    /// One remote run: connect, `party-hello`, run, drain. Returns the
    /// report and the socket bytes in both directions.
    ///
    /// # Errors
    ///
    /// Handshake, transport or protocol errors.
    pub fn run(&self, addr: &str, query: &Query) -> Result<(Report, u64), Error> {
        let (report, out, inn) = run_with_party_view(addr, &self.0, &query.1, Seed(query.0))?;
        Ok((report, out + inn))
    }

    /// Only the connection set-up of a run: `FramedConn::connect` plus
    /// the `party-hello` exchange.
    ///
    /// # Errors
    ///
    /// Connection or handshake errors.
    pub fn handshake(&self, addr: &str) -> Result<(), Error> {
        let mut conn = FramedConn::connect(addr, Some(IO_TIMEOUT))?;
        conn.send_msg(&ServiceMsg::PartyHello(party_info(&self.0)))?;
        match conn.recv_msg_required()? {
            ServiceMsg::PartyHello(_) => Ok(()),
            other => Err(protocol_error(format!("unexpected {}", other.name()))),
        }
    }
}

// ---------------------------------------------------------------------
// Registry snapshots
// ---------------------------------------------------------------------

/// A counter's value (0 when absent).
#[must_use]
pub fn counter(m: &Metrics, name: &str) -> u64 {
    m.counter(name)
}

/// Sum of every counter whose name starts with `prefix`.
#[must_use]
pub fn counter_sum(m: &Metrics, prefix: &str) -> u64 {
    m.counters
        .iter()
        .filter(|(k, _)| k.starts_with(prefix))
        .map(|(_, v)| v)
        .sum()
}

/// A histogram's quantile `q` (0 when absent).
#[must_use]
pub fn quantile(m: &Metrics, name: &str, q: f64) -> f64 {
    m.histograms.get(name).map_or(0.0, |h| h.quantile(q) as f64)
}

// ---------------------------------------------------------------------
// Isolated layer calls
// ---------------------------------------------------------------------

/// `matrix`: the bit form of one half, converted back to CSR.
pub struct Bits(BitMatrix);

impl Bits {
    /// `A` as a bit matrix.
    #[must_use]
    pub fn of(pair: &Pair) -> Self {
        Self(BitMatrix::from_csr(&pair.a))
    }

    /// One `BitMatrix::to_csr`.
    pub fn to_csr(&self) {
        black_box(self.0.to_csr());
    }
}

/// `sketch`: lp's round-1 row sketches of `B`, single and 8-seed fused.
pub struct LpSketches {
    one: NormSketch,
    eight: Vec<NormSketch>,
    b: CsrMatrix,
}

impl LpSketches {
    /// Sketches with lp's catalog parameters (`p = 0`, accuracy `√ε`,
    /// default repetitions) over `B`'s rows.
    #[must_use]
    pub fn new(pair: &Pair, seed: u64) -> Self {
        let beta = 0.3f64.sqrt();
        let reps = Constants::default().sketch_reps;
        let dim = pair.b.cols();
        let make = |s| NormSketch::for_norm(PNorm::Zero, dim, beta, reps, s);
        Self {
            one: make(seed),
            eight: (0..8).map(|k| make(derive(seed, k))).collect(),
            b: pair.b.clone(),
        }
    }

    /// One `NormSketch::sketch_rows`.
    pub fn rows(&self) {
        black_box(self.one.sketch_rows(&self.b));
    }

    /// One `NormSketch::sketch_rows_multi` over 8 seeds.
    pub fn rows_multi8(&self) {
        black_box(NormSketch::sketch_rows_multi(&self.eight, &self.b));
    }
}

/// `sketch`: l0-sample's sampler over the rows of `Aᵀ`.
pub struct L0Rows {
    sampler: L0Sampler,
    at: CsrMatrix,
}

impl L0Rows {
    /// The sampler with default repetitions.
    #[must_use]
    pub fn new(pair: &Pair, seed: u64) -> Self {
        Self {
            sampler: L0Sampler::new(pair.a.rows(), Constants::default().sampler_reps, seed),
            at: pair.a.transpose(),
        }
    }

    /// One `L0Sampler::sketch_rows`.
    pub fn rows(&self) {
        black_box(self.sampler.sketch_rows(&self.at));
    }
}

/// `comm`: a synthetic `rounds`-round ping-pong through the public
/// `execute`, with `work` mixing steps per round per party. Returns how
/// many per-round work units the parties ran; `2 × rounds` means the
/// executor never re-ran a party.
///
/// # Errors
///
/// Executor errors.
pub fn pingpong(rounds: u16, work: u64) -> Result<u64, Error> {
    let executed = AtomicU64::new(0);
    let step = |mut h: u64| {
        executed.fetch_add(1, Ordering::Relaxed);
        for _ in 0..work {
            h = (h ^ (h >> 29)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        }
        black_box(h)
    };
    let alice = |link: &Link<'_>, mut v: u64| -> Result<u64, Error> {
        for r in 0..rounds {
            v = step(v);
            link.send(r, "ping", &v)?;
            v = link.recv::<u64>("pong")?;
        }
        Ok(v)
    };
    let bob = |link: &Link<'_>, mut v: u64| -> Result<u64, Error> {
        for r in 0..rounds {
            v ^= link.recv::<u64>("ping")?;
            v = step(v);
            link.send(r, "pong", &v)?;
        }
        Ok(v)
    };
    execute(1u64, 2u64, alice, bob)?;
    Ok(executed.load(Ordering::Relaxed))
}

/// An in-memory byte stream for the codec probe: reads from `data`,
/// appends writes to `sink`.
#[derive(Default)]
struct Mem<'a> {
    data: &'a [u8],
    sink: Vec<u8>,
}

impl Read for Mem<'_> {
    fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
        self.data.read(out)
    }
}

impl Write for Mem<'_> {
    fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
        self.sink.extend_from_slice(data);
        Ok(data.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// `net`: a `reports` message through `FramedConn` over memory.
pub struct Codec {
    msg: ServiceMsg,
    frame: Vec<u8>,
}

impl Codec {
    /// Wraps `reports` the way the daemon replies to one frame.
    #[must_use]
    pub fn new(reports: Vec<Report>) -> Self {
        let mut accounting = BatchAccounting::new();
        for r in &reports {
            accounting.absorb(&r.transcript);
        }
        let msg = ServiceMsg::Reports(ReportsMsg {
            reports,
            accounting,
            cache_hit: true,
            wire_in: 1 << 20,
            wire_out: 1 << 20,
            epoch: 0,
            id: 1,
        });
        let mut codec = Self {
            msg,
            frame: Vec::new(),
        };
        codec.frame = codec.encode_frame();
        codec
    }

    fn encode_frame(&self) -> Vec<u8> {
        let mut conn = FramedConn::new(Mem::default());
        conn.send_msg(&self.msg)
            .expect("writes to memory cannot fail");
        conn.stream().sink.clone()
    }

    /// One encode.
    pub fn encode(&self) {
        let mut conn = FramedConn::new(Mem::default());
        conn.send_msg(&self.msg)
            .expect("writes to memory cannot fail");
        black_box(conn.bytes_out());
    }

    /// One decode.
    pub fn decode(&self) {
        let mut conn = FramedConn::new(Mem {
            data: &self.frame,
            sink: Vec::new(),
        });
        black_box(conn.recv_msg().ok().flatten());
    }

    /// Whether the encoded frame decodes back to the message.
    #[must_use]
    pub fn round_trips(&self) -> bool {
        let mut conn = FramedConn::new(Mem {
            data: &self.frame,
            sink: Vec::new(),
        });
        matches!(conn.recv_msg(), Ok(Some(ServiceMsg::Reports(ref r))) if Some(r) == self.reports())
    }

    fn reports(&self) -> Option<&ReportsMsg> {
        match &self.msg {
            ServiceMsg::Reports(r) => Some(r),
            _ => None,
        }
    }
}

/// `net`: one `fingerprint` of `A`.
pub fn fingerprint_a(pair: &Pair) {
    black_box(fingerprint(&pair.a));
}
