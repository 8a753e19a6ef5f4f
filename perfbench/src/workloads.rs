//! The four closed-loop workloads. Each one builds its inputs and
//! reference answers from the workload seed (untimed), sets the program
//! up (timed as `setup_s`), and then runs passes of requests, checking
//! every answer against its reference.

use std::collections::{BTreeMap, VecDeque};
use std::time::Instant;

use crate::adapter::{
    self, Alice, Batch, Daemon, Error, Local, Metrics, Oracle, Pair, Query, Report, Request,
    SplitHost, StreamClient, Update, WireConn,
};
use crate::spans::Spans;
use crate::stats::{derive, Outcomes, Tally};

/// What one stretch of requests measured.
#[derive(Debug, Default)]
pub struct Run {
    /// Per-request latency, ms, with the request's class, in arrival
    /// order.
    pub latencies_ms: Vec<(&'static str, f64)>,
    /// Per-update latency, ms (serve-stream only).
    pub update_ms: Vec<f64>,
    /// Queries answered.
    pub queries: u64,
    /// Logical transcript bits over those queries.
    pub bits: u64,
    /// Rounds over those queries.
    pub rounds: u64,
    /// Socket bytes, both directions.
    pub wire_bytes: u64,
    /// Every operation checked bit for bit, by outcome.
    pub outcomes: Outcomes,
    /// Guarantee checks of in-process answers, by protocol.
    pub tallies: BTreeMap<&'static str, Tally>,
    /// Wall time of the stretch, s.
    pub elapsed_s: f64,
    /// Queries per second of each pass.
    pub pass_rates: Vec<f64>,
}

impl Run {
    /// Every operation, by outcome, guarantee checks included.
    #[must_use]
    pub fn all_outcomes(&self) -> Outcomes {
        let mut all = self.outcomes;
        for tally in self.tallies.values() {
            all.absorb(tally.outcomes());
        }
        all
    }

    /// The latencies alone, ms.
    #[must_use]
    pub fn latency_values(&self) -> Vec<f64> {
        self.latencies_ms.iter().map(|&(_, ms)| ms).collect()
    }

    /// Records one request's latency and the cost of its answers.
    fn measured(&mut self, class: &'static str, started: Instant, got: &[Report]) {
        self.latencies_ms.push((class, ms_since(started)));
        self.queries += got.len() as u64;
        self.bits += got.iter().map(adapter::bits).sum::<u64>();
        self.rounds += got.iter().map(adapter::rounds).sum::<u64>();
    }

    /// Records one request's answers against their references.
    fn answered(
        &mut self,
        class: &'static str,
        started: Instant,
        got: &[Report],
        want: &[Report],
    ) -> bool {
        self.measured(class, started, got);
        let ok = got.len() == want.len() && got.iter().zip(want).all(|(g, w)| adapter::same(g, w));
        self.outcomes.record::<()>(&Ok(ok));
        ok
    }

    /// Records a failed operation.
    fn error(&mut self, e: &Error) {
        eprintln!("perfbench: operation failed: {e}");
        self.outcomes.record::<&Error>(&Err(e));
    }
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// The workloads, by name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Pipelined cheap queries against the daemon.
    ServeWire,
    /// In-process engine batches at n=512.
    BatchN512,
    /// Storage-split two-party runs over loopback.
    SplitJoin,
    /// Updates and standing queries against the daemon.
    ServeStream,
}

impl Kind {
    /// Every workload.
    pub const ALL: [Kind; 4] = [
        Kind::ServeWire,
        Kind::BatchN512,
        Kind::SplitJoin,
        Kind::ServeStream,
    ];

    /// The workload's name on the command line.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Kind::ServeWire => "serve-wire",
            Kind::BatchN512 => "batch-n512",
            Kind::SplitJoin => "split-join",
            Kind::ServeStream => "serve-stream",
        }
    }

    /// Parses a workload name.
    #[must_use]
    pub fn parse(s: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == s)
    }

    /// Builds the workload's inputs and references for `seed`.
    ///
    /// # Errors
    ///
    /// Reference computation errors.
    pub fn build(self, seed: u64) -> Result<Box<dyn Workload>, Error> {
        Ok(match self {
            Kind::ServeWire => Box::new(ServeWire::new(seed)?),
            Kind::BatchN512 => Box::new(BatchN512::new(seed)?),
            Kind::SplitJoin => Box::new(SplitJoin::new(seed)?),
            Kind::ServeStream => Box::new(ServeStream::new(seed)?),
        })
    }
}

/// One workload's life cycle.
pub trait Workload {
    /// Starts the program and waits for its first answer (what
    /// `setup_s` times). The first answer is checked like any other.
    ///
    /// # Errors
    ///
    /// Start-up errors or a wrong first answer.
    fn setup(&mut self) -> Result<(), Error>;

    /// One closed-loop unit of requests.
    ///
    /// # Errors
    ///
    /// An operation failed; it has been recorded in `run`.
    fn pass(&mut self, run: &mut Run, spans: &mut Spans) -> Result<(), Error>;

    /// Completes requests still in flight at the end of a stretch.
    ///
    /// # Errors
    ///
    /// An operation failed; it has been recorded in `run`.
    fn drain(&mut self, _run: &mut Run, _spans: &mut Spans) -> Result<(), Error> {
        Ok(())
    }

    /// Makes the checks deferred past the timed stretch.
    fn settle(&mut self, _run: &mut Run) {}

    /// Socket bytes so far on the workload's connection (0 without one).
    fn wire_bytes(&self) -> u64 {
        0
    }

    /// Stops what `setup` started.
    fn teardown(&mut self);

    /// Guarantee checks of the reference answers, made while building.
    fn reference_checks(&self) -> Outcomes {
        Outcomes::default()
    }
}

fn mismatch(what: &str) -> Error {
    adapter::Error::protocol(format!("{what}: answer differs from the reference"))
}

fn queries(seed: u64, tag: u64, names: &[&str], count: usize) -> Vec<Query> {
    (0..count)
        .map(|j| {
            (
                derive(seed, tag + j as u64),
                adapter::request(names[j % names.len()]),
            )
        })
        .collect()
}

fn answers(pair: &Pair, queries: &[Query]) -> Result<Vec<Report>, Error> {
    let local = Local::cold(pair);
    queries.iter().map(|q| local.answer(q)).collect()
}

/// Records guarantee checks of `got[i]` (the answer to `requests[i]`)
/// into per-protocol tallies.
fn check_guarantees(oracle: &Oracle, requests: &[Request], got: &[Report], run: &mut Run) {
    for (i, report) in got.iter().enumerate() {
        let met = oracle.check(i, report);
        let name = adapter::name(&requests[i]);
        if let Err(note) = &met {
            eprintln!("perfbench: {name} missed its guarantee: {note}");
        }
        run.tallies
            .entry(name)
            .or_insert(Tally {
                delta: oracle.delta(i),
                ..Tally::default()
            })
            .record(met.is_ok());
    }
}

/// Checks the reference answers of exact protocols against the exact
/// product, into `run`'s tallies, so an exact protocol that is wrong in
/// every path still fails. Randomized protocols are checked on
/// batch-n512, where a run holds enough trials to judge a failure rate.
fn check_references(pair: &Pair, queries: &[Query], want: &[Report], run: &mut Run) {
    let (requests, want): (Vec<Request>, Vec<Report>) = queries
        .iter()
        .zip(want)
        .filter(|(q, _)| adapter::is_exact(&q.1))
        .map(|(q, w)| (q.1.clone(), w.clone()))
        .unzip();
    check_guarantees(&Oracle::new(pair, &requests), &requests, &want, run);
}

/// The guarantee checks of one reference set, as outcomes.
fn reference_outcomes(pair: &Pair, queries: &[Query], want: &[Report]) -> Outcomes {
    let mut run = Run::default();
    check_references(pair, queries, want, &mut run);
    run.all_outcomes()
}

// ---------------------------------------------------------------------
// serve-wire
// ---------------------------------------------------------------------

/// Frames kept in flight on the connection.
const WINDOW: usize = 8;
/// Frames completed per pass.
const PASS_FRAMES: usize = 64;
/// Distinct frames (seed sets); frame id `i` carries frame `i % FRAMES`.
const FRAMES: u64 = 8;

/// serve-wire: the daemon over loopback, one pipelining connection.
pub struct ServeWire {
    checks: Outcomes,
    pair: Pair,
    frames: Vec<Vec<Query>>,
    want: Vec<Vec<Report>>,
    live: Option<(Daemon, WireConn)>,
    inflight: VecDeque<(u64, Instant)>,
    next_id: u64,
}

impl ServeWire {
    /// n=48 Bernoulli(0.15) pair; each frame holds 8 queries, two of
    /// each of exact-l1, l1-sample, sparse-matmul and trivial-binary,
    /// under one of [`FRAMES`] seed sets.
    ///
    /// # Errors
    ///
    /// Reference errors.
    pub fn new(seed: u64) -> Result<Self, Error> {
        let pair = Pair::bernoulli(48, 0.15, derive(seed, 100));
        let names = ["exact-l1", "l1-sample", "sparse-matmul", "trivial-binary"];
        let frames: Vec<Vec<Query>> = (0..FRAMES)
            .map(|f| queries(seed, 200 + 8 * f, &names, 8))
            .collect();
        let want = frames
            .iter()
            .map(|frame| answers(&pair, frame))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self {
            checks: reference_outcomes(&pair, &frames.concat(), &want.concat()),
            pair,
            frames,
            want,
            live: None,
            inflight: VecDeque::new(),
            next_id: 1,
        })
    }

    /// The reference answers of one frame.
    #[must_use]
    pub fn frame_answers(&self) -> &[Report] {
        &self.want[0]
    }

    /// Pulls the daemon's registry over the workload's connection.
    ///
    /// # Errors
    ///
    /// Transport errors.
    pub fn metrics(&mut self) -> Result<Metrics, Error> {
        let (_, conn) = self.live.as_mut().expect("set up");
        conn.metrics()
    }

    fn recv_one(&mut self, run: &mut Run, spans: &mut Spans) -> Result<(), Error> {
        let (_, conn) = self.live.as_mut().expect("set up");
        let request = self.inflight.front().map_or(0, |f| f.0);
        let reply = spans.wrap("net", "WireConn::recv", request, || conn.recv());
        let reply = reply.inspect_err(|e| run.error(e))?;
        let Some(pos) = self.inflight.iter().position(|f| f.0 == reply.id) else {
            let e = adapter::Error::protocol(format!("reply to unknown frame {}", reply.id));
            run.error(&e);
            return Err(e);
        };
        let (_, sent) = self.inflight.remove(pos).expect("position is in range");
        let check = spans.enter("check", "compare", reply.id);
        let want = &self.want[(reply.id % FRAMES) as usize];
        let ok = run.answered("frame", sent, &reply.reports, want);
        spans.exit(check);
        if ok {
            Ok(())
        } else {
            Err(mismatch("serve-wire frame"))
        }
    }
}

impl Workload for ServeWire {
    fn setup(&mut self) -> Result<(), Error> {
        // Frame ids restart with each connection, so every run sends the
        // same frames under the same ids.
        self.next_id = 1;
        let daemon =
            Daemon::spawn().map_err(|e| adapter::Error::protocol(format!("daemon bind: {e}")))?;
        let mut conn = WireConn::connect(&daemon.addr(), &self.pair)?;
        let f = (self.next_id % FRAMES) as usize;
        conn.send(self.next_id, &self.frames[f])?;
        self.next_id += 1;
        let reply = conn.recv()?;
        self.live = Some((daemon, conn));
        if reply.reports.len() == self.want[f].len()
            && reply
                .reports
                .iter()
                .zip(&self.want[f])
                .all(|(g, w)| adapter::same(g, w))
        {
            Ok(())
        } else {
            Err(mismatch("serve-wire first frame"))
        }
    }

    fn pass(&mut self, run: &mut Run, spans: &mut Spans) -> Result<(), Error> {
        for _ in 0..PASS_FRAMES {
            while self.inflight.len() < WINDOW {
                let (_, conn) = self.live.as_mut().expect("set up");
                let id = self.next_id;
                self.next_id += 1;
                let sent = Instant::now();
                let frame = &self.frames[(id % FRAMES) as usize];
                spans
                    .wrap("net", "WireConn::send", id, || conn.send(id, frame))
                    .inspect_err(|e| run.error(e))?;
                self.inflight.push_back((id, sent));
            }
            self.recv_one(run, spans)?;
        }
        Ok(())
    }

    fn drain(&mut self, run: &mut Run, spans: &mut Spans) -> Result<(), Error> {
        while !self.inflight.is_empty() {
            self.recv_one(run, spans)?;
        }
        Ok(())
    }

    fn wire_bytes(&self) -> u64 {
        self.live.as_ref().map_or(0, |(_, c)| c.wire_bytes())
    }

    fn reference_checks(&self) -> Outcomes {
        self.checks
    }

    fn teardown(&mut self) {
        self.inflight.clear();
        if let Some((daemon, conn)) = self.live.take() {
            drop(conn);
            daemon.shutdown();
        }
    }
}

// ---------------------------------------------------------------------
// batch-n512
// ---------------------------------------------------------------------

/// Engine workers.
pub const BATCH_WORKERS: usize = 2;

/// The eight protocols of a batch (each appears twice).
pub const BATCH_MIX: [&str; 8] = [
    "lp",
    "lp-baseline",
    "linf-binary",
    "linf-kappa",
    "linf-general",
    "hh-general",
    "hh-binary",
    "sparse-matmul",
];

/// batch-n512: in-process `Engine::run_batch` on the planted pair.
/// Batch `k` is pinned at query index `16 k`, so every batch draws fresh
/// seeds (and fresh sketches) while every run replays the same sequence.
pub struct BatchN512 {
    pair: Pair,
    session_seed: u64,
    requests: Vec<Request>,
    oracle: Oracle,
    /// Batch 0 run one request at a time: the engine must match it.
    sequential: Vec<Report>,
    live: Option<Batch>,
    next_batch: u64,
    /// Answers whose guarantee checks wait until the timed stretch ends.
    unchecked: Vec<Vec<Report>>,
}

impl BatchN512 {
    /// The n=512 planted pair and a 16-request batch. Answers are checked
    /// against their guarantees once the timed stretch is over; batch 0
    /// is also checked bit for bit against the same requests run one by
    /// one.
    ///
    /// # Errors
    ///
    /// Reference errors.
    pub fn new(seed: u64) -> Result<Self, Error> {
        let pair = Pair::planted(512, derive(seed, 300));
        let session_seed = derive(seed, 301);
        let requests: Vec<Request> = (0..2 * BATCH_MIX.len())
            .map(|i| adapter::request(BATCH_MIX[i % BATCH_MIX.len()]))
            .collect();
        let reference = Batch::build(&pair, session_seed, 1);
        let sequential = (0..requests.len())
            .map(|i| reference.run_one(&requests, 0, i))
            .collect::<Result<Vec<_>, _>>()?;
        let oracle = Oracle::new(&pair, &requests);
        Ok(Self {
            pair,
            session_seed,
            requests,
            oracle,
            sequential,
            live: None,
            next_batch: 0,
            unchecked: Vec::new(),
        })
    }

    /// The pair the workload runs on.
    #[must_use]
    pub fn pair(&self) -> &Pair {
        &self.pair
    }

    /// The batch's requests.
    #[must_use]
    pub fn requests(&self) -> &[Request] {
        &self.requests
    }

    /// The set-up engine.
    #[must_use]
    pub fn engine(&self) -> &Batch {
        self.live.as_ref().expect("set up")
    }
}

impl Workload for BatchN512 {
    fn setup(&mut self) -> Result<(), Error> {
        self.next_batch = 0;
        let batch = Batch::build(&self.pair, self.session_seed, BATCH_WORKERS);
        let first = batch.run(&self.requests[..1], 0)?;
        self.live = Some(batch);
        if adapter::same(&first[0], &self.sequential[0]) {
            Ok(())
        } else {
            Err(mismatch("batch-n512 first answer"))
        }
    }

    fn pass(&mut self, run: &mut Run, spans: &mut Spans) -> Result<(), Error> {
        let batch = self.live.as_ref().expect("set up");
        let k = self.next_batch;
        self.next_batch += 1;
        let first = k * self.requests.len() as u64;
        let outer = spans.enter("bench", "request", k);
        let started = Instant::now();
        let got = spans.wrap("core", "Engine::run_batch", k, || {
            batch.run(&self.requests, first)
        });
        let got = match got {
            Ok(got) => got,
            Err(e) => {
                spans.exit(outer);
                run.error(&e);
                return Err(e);
            }
        };
        run.measured("batch", started, &got);
        spans.exit(outer);
        if k == 0 {
            let ok = got
                .iter()
                .zip(&self.sequential)
                .all(|(g, w)| adapter::same(g, w));
            run.outcomes.record::<()>(&Ok(ok));
            if !ok {
                return Err(mismatch("batch-n512 batch 0 against its sequential run"));
            }
        }
        self.unchecked.push(got);
        Ok(())
    }

    fn settle(&mut self, run: &mut Run) {
        for got in std::mem::take(&mut self.unchecked) {
            check_guarantees(&self.oracle, &self.requests, &got, run);
        }
    }

    fn teardown(&mut self) {
        self.live = None;
    }
}

// ---------------------------------------------------------------------
// split-join
// ---------------------------------------------------------------------

/// The join statistics run over the storage split.
pub const SPLIT_MIX: [&str; 7] = [
    "exact-l1",
    "l0-sample",
    "l1-sample",
    "linf-binary",
    "hh-binary",
    "at-least-t-join",
    "trivial-binary",
];

/// Seed sets per split-join pass: each statistic runs under each.
const SPLIT_SEED_SETS: u64 = 4;

/// split-join: Bob behind a split party host, Alice runs one at a time.
pub struct SplitJoin {
    checks: Outcomes,
    pair: Pair,
    queries: Vec<Query>,
    want: Vec<Report>,
    live: Option<(SplitHost, Alice)>,
}

impl SplitJoin {
    /// The n=256 planted pair and the seven join statistics, each under
    /// [`SPLIT_SEED_SETS`] seeds.
    ///
    /// # Errors
    ///
    /// Reference errors.
    pub fn new(seed: u64) -> Result<Self, Error> {
        Self::with_seed_sets(seed, SPLIT_SEED_SETS)
    }

    /// [`SplitJoin::new`] with only the first `sets` seed sets.
    ///
    /// # Errors
    ///
    /// Reference errors.
    pub fn with_seed_sets(seed: u64, sets: u64) -> Result<Self, Error> {
        let pair = Pair::planted(256, derive(seed, 400));
        let queries: Vec<Query> = (0..sets)
            .flat_map(|set| queries(seed, 410 + 16 * set, &SPLIT_MIX, SPLIT_MIX.len()))
            .collect();
        let want = answers(&pair, &queries)?;
        Ok(Self {
            checks: reference_outcomes(&pair, &queries, &want),
            pair,
            queries,
            want,
            live: None,
        })
    }

    /// The pair the workload runs on.
    #[must_use]
    pub fn pair(&self) -> &Pair {
        &self.pair
    }

    /// The first seed set's queries (one per statistic) and their
    /// references.
    #[must_use]
    pub fn queries(&self) -> (&[Query], &[Report]) {
        let n = SPLIT_MIX.len();
        (&self.queries[..n], &self.want[..n])
    }

    /// The set-up host and Alice.
    #[must_use]
    pub fn parties(&self) -> &(SplitHost, Alice) {
        self.live.as_ref().expect("set up")
    }
}

impl Workload for SplitJoin {
    fn setup(&mut self) -> Result<(), Error> {
        let host = SplitHost::spawn(&self.pair)?;
        let alice = Alice::new(&self.pair)?;
        let first = alice.run(&host.addr(), &self.queries[0]);
        self.live = Some((host, alice));
        if adapter::same(&first?.0, &self.want[0]) {
            Ok(())
        } else {
            Err(mismatch("split-join first run"))
        }
    }

    fn pass(&mut self, run: &mut Run, spans: &mut Spans) -> Result<(), Error> {
        let (host, alice) = self.live.as_ref().expect("set up");
        let addr = host.addr();
        for (query, want) in self.queries.iter().zip(&self.want) {
            let request = run.latencies_ms.len() as u64;
            let outer = spans.enter("bench", "request", request);
            let started = Instant::now();
            let got = spans.wrap("net", "run_with_party_view", request, || {
                alice.run(&addr, query)
            });
            let (report, bytes) = match got {
                Ok(got) => got,
                Err(e) => {
                    spans.exit(outer);
                    run.error(&e);
                    return Err(e);
                }
            };
            run.wire_bytes += bytes;
            let check = spans.enter("check", "compare", request);
            let ok = run.answered(
                adapter::name(&query.1),
                started,
                std::slice::from_ref(&report),
                std::slice::from_ref(want),
            );
            spans.exit(check);
            spans.exit(outer);
            if !ok {
                return Err(mismatch("split-join run"));
            }
        }
        Ok(())
    }

    fn reference_checks(&self) -> Outcomes {
        self.checks
    }

    fn teardown(&mut self) {
        if let Some((host, alice)) = self.live.take() {
            drop(alice);
            host.shutdown();
        }
    }
}

// ---------------------------------------------------------------------
// serve-stream
// ---------------------------------------------------------------------

/// Entry flips per update.
const STREAM_FLIPS: usize = 64;
/// Query frames per epoch.
const FRAMES_PER_EPOCH: usize = 4;
/// Seed sets of the standing queries; epoch `e` uses set `e % 4`, and
/// one pass runs that many epochs.
const STREAM_SEED_SETS: u64 = 4;

/// The standing queries of every frame.
const STREAM_MIX: [&str; 4] = ["exact-l1", "lp", "hh-general", "sparse-matmul"];

/// serve-stream: one update then four frames of standing queries per
/// epoch. Updates alternate between a batch of flips and its inverse, so
/// the pair at epoch `e` is state `e % 2`, and the answers of every
/// (state, seed set) met are precomputed.
pub struct ServeStream {
    checks: Outcomes,
    pairs: [Pair; 2],
    updates: [Update; 2],
    queries: Vec<Vec<Query>>,
    want: Vec<Vec<Report>>,
    live: Option<(Daemon, StreamClient)>,
    epoch: u64,
}

impl ServeStream {
    /// The n=256 planted pair, its flipped twin (made by a mirror
    /// session applying the update), and references for both.
    ///
    /// # Errors
    ///
    /// Update or reference errors.
    pub fn new(seed: u64) -> Result<Self, Error> {
        let pair = Pair::planted(256, derive(seed, 500));
        let (forward, backward) = pair.flip_batches(STREAM_FLIPS, derive(seed, 501));
        let mut mirror = Local::cold(&pair);
        mirror.apply(&forward)?;
        let flipped = mirror.pair()?;
        let pairs = [pair, flipped];
        let queries: Vec<Vec<Query>> = (0..STREAM_SEED_SETS)
            .map(|set| queries(seed, 510 + 8 * set, &STREAM_MIX, STREAM_MIX.len()))
            .collect();
        let want = queries
            .iter()
            .enumerate()
            .map(|(set, q)| answers(&pairs[set % 2], q))
            .collect::<Result<Vec<_>, _>>()?;
        let mut checked = Run::default();
        for (set, (q, w)) in queries.iter().zip(&want).enumerate() {
            check_references(&pairs[set % 2], q, w, &mut checked);
        }
        Ok(Self {
            checks: checked.all_outcomes(),
            pairs,
            updates: [forward, backward],
            queries,
            want,
            live: None,
            epoch: 0,
        })
    }

    /// The starting pair, its update batch and that batch's inverse.
    #[must_use]
    pub fn updates(&self) -> (&Pair, &[Update; 2]) {
        (&self.pairs[0], &self.updates)
    }

    /// Pulls the daemon's registry over the workload's connection.
    ///
    /// # Errors
    ///
    /// Transport errors.
    pub fn metrics(&mut self) -> Result<Metrics, Error> {
        let (_, client) = self.live.as_mut().expect("set up");
        client.metrics()
    }
}

impl Workload for ServeStream {
    fn setup(&mut self) -> Result<(), Error> {
        self.epoch = 0;
        let daemon =
            Daemon::spawn().map_err(|e| adapter::Error::protocol(format!("daemon bind: {e}")))?;
        let mut client = StreamClient::connect(&daemon.addr())?;
        let first = client.query(&self.pairs[0], &self.queries[0], 0);
        self.live = Some((daemon, client));
        let (got, _) = first?;
        if got
            .iter()
            .zip(&self.want[0])
            .all(|(g, w)| adapter::same(g, w))
        {
            Ok(())
        } else {
            Err(mismatch("serve-stream first frame"))
        }
    }

    fn pass(&mut self, run: &mut Run, spans: &mut Spans) -> Result<(), Error> {
        for _ in 0..STREAM_SEED_SETS {
            self.epoch(run, spans)?;
        }
        Ok(())
    }

    fn wire_bytes(&self) -> u64 {
        self.live.as_ref().map_or(0, |(_, c)| c.wire_bytes())
    }

    fn reference_checks(&self) -> Outcomes {
        self.checks
    }

    fn teardown(&mut self) {
        if let Some((daemon, client)) = self.live.take() {
            drop(client);
            daemon.shutdown();
        }
    }
}

impl ServeStream {
    /// One epoch: the update, then the standing frames.
    fn epoch(&mut self, run: &mut Run, spans: &mut Spans) -> Result<(), Error> {
        let (_, client) = self.live.as_mut().expect("set up");
        let request = self.epoch;
        let started = Instant::now();
        let cur = (self.epoch % 2) as usize;
        let epoch = spans.wrap("net", "ServeClient::update", request, || {
            client.update(&self.pairs[cur], self.epoch, &self.updates[cur])
        });
        run.update_ms.push(ms_since(started));
        let epoch = epoch.inspect_err(|e| run.error(e))?;
        run.outcomes.record::<()>(&Ok(epoch == self.epoch + 1));
        if epoch != self.epoch + 1 {
            return Err(adapter::Error::protocol(format!(
                "update acknowledged epoch {epoch}, expected {}",
                self.epoch + 1
            )));
        }
        self.epoch = epoch;
        let (next, set) = ((epoch % 2) as usize, (epoch % STREAM_SEED_SETS) as usize);
        for _ in 0..FRAMES_PER_EPOCH {
            let outer = spans.enter("bench", "request", request);
            let started = Instant::now();
            let got = spans.wrap("net", "ServeClient::query_at_epoch", request, || {
                client.query(&self.pairs[next], &self.queries[set], epoch)
            });
            let got = match got {
                Ok((got, _)) => got,
                Err(e) => {
                    spans.exit(outer);
                    run.error(&e);
                    return Err(e);
                }
            };
            let check = spans.enter("check", "compare", request);
            let ok = run.answered("frame", started, &got, &self.want[set]);
            spans.exit(check);
            spans.exit(outer);
            if !ok {
                return Err(mismatch("serve-stream frame"));
            }
        }
        Ok(())
    }
}
