//! Parallel batched query execution over a shared [`Session`].
//!
//! A [`Session`] answers one query at a time; real deployments face a
//! *stream* of heterogeneous queries against the same matrix pair. The
//! [`Engine`] accepts a whole `Vec<EstimateRequest>` and executes it
//! across a worker pool, sharing the session's cached derived views
//! (CSR/bit conversions, transposes, norm and support tables) across
//! threads through an [`Arc`] instead of recomputing them per worker.
//!
//! Determinism is the load-bearing contract: query `i` of a batch runs
//! under `session.query_seed(first + i)`, exactly the seed it would have
//! drawn as the `(first + i)`-th sequential query, and every derived
//! view is a pure function of the pair. A batch run is therefore
//! **bit-identical** — outputs and transcripts — to the equivalent
//! sequence of [`Session::run_seeded`] calls, for any worker count.
//!
//! ```
//! use mpest_core::{BatchPlan, Engine, EstimateRequest, Session};
//! use mpest_comm::Seed;
//! use mpest_matrix::{PNorm, Workloads};
//!
//! let a = Workloads::bernoulli_bits(24, 32, 0.3, 1);
//! let b = Workloads::bernoulli_bits(32, 24, 0.3, 2);
//! let engine = Engine::new(Session::builder(a, b).seed(Seed(7)).build());
//! let requests = vec![
//!     EstimateRequest::LpNorm { p: PNorm::Zero, eps: 0.3 },
//!     EstimateRequest::ExactL1,
//!     EstimateRequest::LinfBinary { eps: 0.3 },
//! ];
//! let batch = engine
//!     .run_batch(&requests, &BatchPlan::default().with_workers(2))
//!     .unwrap();
//! assert_eq!(batch.reports.len(), 3);
//! assert_eq!(batch.accounting.queries, 3);
//! assert!(batch.accounting.total_bits > 0);
//! ```

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use crate::request::{EstimateReport, EstimateRequest};
use crate::session::Session;
use mpest_comm::{BatchAccounting, CommError, ExecBackend, Seed};

/// Where a batch's per-query seeds come from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SeedSchedule {
    /// Reserve the next contiguous block of the session's query counter
    /// (the default): the batch is interchangeable with issuing the same
    /// requests through [`Session::estimate`] one by one.
    #[default]
    SessionCounter,
    /// Run at a fixed first query index without consuming the counter —
    /// replays and equivalence tests.
    AtIndex(u64),
}

/// Execution plan for one batch: worker count, seed derivation, and
/// whether to deduplicate shared derived-view construction up front.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchPlan {
    /// Worker threads to fan out over; `0` means one per available core.
    /// Clamped to the batch size. The results never depend on it.
    pub workers: usize,
    /// Materialize every derived view the batch's protocols will read
    /// *before* spawning workers (default `true`). The views live in
    /// `OnceLock`s, so correctness never depends on this — prewarming
    /// only prevents the whole pool from convoying on the first query's
    /// one-time conversions.
    pub prewarm: bool,
    /// Per-query seed derivation (see [`SeedSchedule`]).
    pub seeds: SeedSchedule,
    /// Executor backend queries run on: `None` (the default) inherits
    /// the session's choice — [`ExecBackend::Fused`] unless the session
    /// was built otherwise — so engine workers pay zero spawn cost *per
    /// query* while still parallelizing *across* queries. Results never
    /// depend on it.
    pub executor: Option<ExecBackend>,
}

impl Default for BatchPlan {
    fn default() -> Self {
        Self {
            workers: 0,
            prewarm: true,
            seeds: SeedSchedule::SessionCounter,
            executor: None,
        }
    }
}

impl BatchPlan {
    /// Sets the worker count (`0` = one per available core).
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Enables or disables derived-view prewarming.
    #[must_use]
    pub fn with_prewarm(mut self, prewarm: bool) -> Self {
        self.prewarm = prewarm;
        self
    }

    /// Pins the batch to query indices `[first, first + len)` without
    /// consuming the session counter.
    #[must_use]
    pub fn at_index(mut self, first: u64) -> Self {
        self.seeds = SeedSchedule::AtIndex(first);
        self
    }

    /// Overrides the executor backend for this batch (the default
    /// inherits the session's).
    #[must_use]
    pub fn with_executor(mut self, exec: ExecBackend) -> Self {
        self.executor = Some(exec);
        self
    }

    /// The backend this plan's queries run on over `session`.
    #[must_use]
    pub fn effective_executor(&self, session: &Session) -> ExecBackend {
        self.executor.unwrap_or_else(|| session.executor())
    }

    /// The worker count a batch of `batch_len` requests actually runs
    /// with: `workers` (or one per available core when `0`), clamped to
    /// the batch size and at least 1.
    #[must_use]
    pub fn effective_workers(&self, batch_len: usize) -> usize {
        let requested = if self.workers == 0 {
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        } else {
            self.workers
        };
        requested.clamp(1, batch_len.max(1))
    }
}

/// The ordered result of a batch: one [`EstimateReport`] per request
/// (same order), plus aggregate communication accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchReport {
    /// Per-request reports, in request order.
    pub reports: Vec<EstimateReport>,
    /// The query index the batch started at: request `i` ran under
    /// `session.query_seed(first_query_index + i)`.
    pub first_query_index: u64,
    /// Bits/rounds/messages folded across the whole batch.
    pub accounting: BatchAccounting,
}

/// A parallel batched query engine over one shared [`Session`].
///
/// Use a bare `Session` for interactive, one-at-a-time querying; wrap it
/// in an `Engine` when requests arrive in batches and throughput
/// matters. The engine adds no randomness and no state of its own — it
/// is a scheduler around the session's deterministic seed schedule.
#[derive(Debug, Clone)]
pub struct Engine {
    session: Arc<Session>,
}

impl Engine {
    /// Wraps a session for batched execution.
    #[must_use]
    pub fn new(session: Session) -> Self {
        Self {
            session: Arc::new(session),
        }
    }

    /// Builds an engine over an already-shared session.
    #[must_use]
    pub fn from_arc(session: Arc<Session>) -> Self {
        Self { session }
    }

    /// The underlying session.
    #[must_use]
    pub fn session(&self) -> &Session {
        &self.session
    }

    /// Applies an [`UpdateBatch`](crate::UpdateBatch) to the engine's
    /// session in place, returning the new epoch. Requires exclusive
    /// ownership of the session: callers (the serve cache, the CLI)
    /// must quiesce in-flight queries before updating.
    ///
    /// # Errors
    ///
    /// Fails with a typed error if the session `Arc` is shared (another
    /// engine clone or external handle is outstanding), or surfaces the
    /// batch's own validation errors.
    pub fn apply_update(&mut self, batch: &crate::UpdateBatch) -> Result<u64, CommError> {
        let session = Arc::get_mut(&mut self.session).ok_or_else(|| {
            CommError::protocol(
                "cannot update a shared session: outstanding handles must be dropped first",
            )
        })?;
        session.apply_update(batch)
    }

    /// Executes `requests` across the plan's worker pool and returns the
    /// reports in request order with aggregate accounting.
    ///
    /// Bit-identical to running the same requests sequentially through
    /// [`Session::estimate_seeded`] under seeds
    /// `query_seed(first + i)`, regardless of worker count.
    ///
    /// # Errors
    ///
    /// If any request fails, returns the error of the *lowest-index*
    /// failing request — the same error the sequential run would have
    /// hit first — so error reporting is deterministic too.
    pub fn run_batch(
        &self,
        requests: &[EstimateRequest],
        plan: &BatchPlan,
    ) -> Result<BatchReport, CommError> {
        let n = requests.len();
        let first = match plan.seeds {
            SeedSchedule::SessionCounter => self.session.reserve_query_indices(n as u64),
            SeedSchedule::AtIndex(i) => i,
        };
        if plan.prewarm {
            let pairs: Vec<(Seed, &EstimateRequest)> = requests
                .iter()
                .enumerate()
                .map(|(i, req)| (self.session.query_seed(first + i as u64), req))
                .collect();
            prewarm(&self.session, &pairs);
        }
        let workers = plan.effective_workers(n);
        let exec = plan.effective_executor(&self.session);
        let results = if workers <= 1 {
            requests
                .iter()
                .enumerate()
                .map(|(i, req)| {
                    self.session.estimate_seeded_on(
                        req,
                        self.session.query_seed(first + i as u64),
                        exec,
                    )
                })
                .collect()
        } else {
            run_pool(
                &self.session,
                requests.len(),
                |i| (self.session.query_seed(first + i as u64), &requests[i]),
                workers,
                exec,
            )
        };

        let mut reports = Vec::with_capacity(n);
        let mut accounting = BatchAccounting::new();
        for result in results {
            let report = result?;
            accounting.absorb(&report.transcript);
            reports.push(report);
        }
        Ok(BatchReport {
            reports,
            first_query_index: first,
            accounting,
        })
    }

    /// Executes `(seed, request)` pairs across a worker pool, each query
    /// under its *explicit* seed — the serving path, where clients pin
    /// seeds so a cached session answers reproducibly no matter which
    /// queries other clients interleave. Consumes no session counter.
    ///
    /// Bit-identical to calling [`Session::estimate_seeded`] for each
    /// pair in order, for any worker count; on failure returns the
    /// lowest-index error, like [`Engine::run_batch`].
    ///
    /// # Errors
    ///
    /// Same contract as [`Engine::run_batch`].
    pub fn run_seeded_queries(
        &self,
        queries: &[(Seed, EstimateRequest)],
        workers: usize,
    ) -> Result<(Vec<EstimateReport>, BatchAccounting), CommError> {
        let pairs: Vec<(Seed, &EstimateRequest)> =
            queries.iter().map(|(seed, req)| (*seed, req)).collect();
        prewarm(&self.session, &pairs);
        let workers = BatchPlan::default()
            .with_workers(workers)
            .effective_workers(queries.len());
        let exec = self.session.executor();
        let results = if workers <= 1 {
            queries
                .iter()
                .map(|(seed, req)| self.session.estimate_seeded_on(req, *seed, exec))
                .collect()
        } else {
            run_pool(
                &self.session,
                queries.len(),
                |i| (queries[i].0, &queries[i].1),
                workers,
                exec,
            )
        };
        let mut reports = Vec::with_capacity(queries.len());
        let mut accounting = BatchAccounting::new();
        for result in results {
            let report = result?;
            accounting.absorb(&report.transcript);
            reports.push(report);
        }
        Ok((reports, accounting))
    }
}

/// Fans `count` queries out over `workers` threads. Workers claim
/// indices from a shared counter (dynamic load balancing — queries vary
/// wildly in cost), run `query_at(i)` — the index's `(seed, request)`
/// per the caller's schedule — and stream `(index, result)` pairs back
/// over a channel; the collector reorders them into request order.
fn run_pool<'q>(
    session: &Session,
    count: usize,
    query_at: impl Fn(usize) -> (Seed, &'q EstimateRequest) + Sync,
    workers: usize,
    exec: ExecBackend,
) -> Vec<Result<EstimateReport, CommError>> {
    let next = AtomicUsize::new(0);
    let (tx, rx) = std::sync::mpsc::channel();
    let query_at = &query_at;
    std::thread::scope(|scope| {
        for _ in 0..workers {
            let tx = tx.clone();
            let next = &next;
            scope.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= count {
                    break;
                }
                let (seed, request) = query_at(i);
                let result = session.estimate_seeded_on(request, seed, exec);
                if tx.send((i, result)).is_err() {
                    break;
                }
            });
        }
        drop(tx);
        let mut slots: Vec<Option<Result<EstimateReport, CommError>>> =
            (0..count).map(|_| None).collect();
        while let Ok((i, result)) = rx.recv() {
            slots[i] = Some(result);
        }
        slots
            .into_iter()
            .map(|slot| slot.expect("every claimed index reports back"))
            .collect()
    })
}

/// Materializes every session-cached view the batch's protocols read, so
/// concurrent workers never convoy on a one-time conversion, then builds
/// the batch's row sketches in fused multi-seed matrix passes (see
/// [`prewarm_sketches`]). Purely an ordering optimization: the views and
/// sketches are pure functions of the pair and the per-query seeds, and
/// a failed bit-view (non-binary pair) is ignored here so the affected
/// requests fail with exactly the error the sequential run reports.
fn prewarm(session: &Session, queries: &[(Seed, &EstimateRequest)]) {
    use EstimateRequest as R;
    let (mut bits, mut csr, mut a_t, mut b_t, mut abs, mut nnz) =
        (false, false, false, false, false, false);
    for (_, request) in queries {
        match request {
            R::LpNorm { .. } | R::LpBaseline { .. } | R::HhGeneral { .. } | R::TrivialCsr => {
                csr = true;
            }
            R::ExactL1 => {
                csr = true;
                abs = true;
            }
            R::L1Sample => {
                csr = true;
                a_t = true;
                abs = true;
            }
            R::L0Sample { .. } | R::LinfGeneral { .. } => {
                csr = true;
                a_t = true;
                b_t = true;
            }
            R::SparseMatmul => {
                csr = true;
                a_t = true;
                nnz = true;
            }
            R::LinfBinary { .. } | R::LinfKappa { .. } | R::TrivialBinary => bits = true,
            R::HhBinary { .. } | R::AtLeastTJoin { .. } => {
                bits = true;
                csr = true;
                abs = true;
            }
        }
    }
    let ctx = session.ctx(Seed(0));
    if bits {
        let _ = ctx.bit_halves();
    }
    if csr {
        let _ = ctx.csr_halves();
    }
    if a_t {
        let _ = ctx.a_transpose();
    }
    if b_t {
        let _ = ctx.b_transpose();
    }
    if abs {
        let _ = ctx.a_col_abs_sums();
        let _ = ctx.b_row_abs_sums();
    }
    if nnz {
        let _ = ctx.a_col_nnz();
        let _ = ctx.b_row_nnz();
    }
    prewarm_sketches(&ctx, queries);
}

/// Builds every distinct row sketch the batch's `lp`, `lp-baseline`,
/// `l0-sample`, and `linf-general` queries will ship, grouping same-kind
/// jobs into **fused multi-seed matrix passes**
/// ([`NormSketch::sketch_rows_multi`] over the rows of `B`,
/// [`mpest_sketch::sketch_rows_multi`] over the rows of `Aᵀ`) and
/// inserting the results into the session's sketch cache, where the
/// in-phase lookups hit. An `N`-seed batch therefore pays each matrix
/// walk once instead of `N` times.
///
/// Skips singleton jobs (the phase builds them at no extra cost),
/// already-cached keys, and requests whose parameters the protocol will
/// reject — those must surface their error in-phase, not panic here.
/// Inert in reference mode so the scalar path stays the one measured.
fn prewarm_sketches(ctx: &crate::SessionCtx<'_>, queries: &[(Seed, &EstimateRequest)]) {
    use crate::config::check_eps;
    use crate::sketchcache::SketchKey;
    use crate::{l0_sample, linf_general, lp_baseline, lp_norm};
    use mpest_sketch::{BlockAmsSketch, L0Sampler, L0Sketch, NormSketch, SkMat};
    use EstimateRequest as R;

    if mpest_sketch::kernel::reference_mode() {
        return;
    }
    let cache = ctx.sketch_cache();
    let dims = ctx.dims();
    let mut seen = std::collections::HashSet::<SketchKey>::new();
    let mut b_rows: Vec<(SketchKey, NormSketch)> = Vec::new();
    let mut l0_norms: Vec<(SketchKey, L0Sketch)> = Vec::new();
    let mut l0_samplers: Vec<(SketchKey, L0Sampler)> = Vec::new();
    let mut block_ams: Vec<(SketchKey, BlockAmsSketch)> = Vec::new();
    for &(seed, request) in queries {
        let pub_seed = seed.derive("public");
        match request {
            R::LpNorm { p, eps } => {
                let params = lp_norm::LpParams::new(*p, *eps);
                if params.validate().is_err() {
                    continue;
                }
                let dim = dims.b_cols.max(1);
                let key = params.cache_key(dim, pub_seed);
                if seen.insert(key) && !cache.contains(key) {
                    b_rows.push((key, params.sketch(dim, pub_seed)));
                }
            }
            R::LpBaseline { p, eps } => {
                let params = lp_baseline::BaselineParams::new(*p, *eps);
                if check_eps(*eps).is_err() || !p.supported_by_lp_protocol() {
                    continue;
                }
                let key = lp_baseline::cache_key(&params, dims.b_cols, pub_seed);
                if seen.insert(key) && !cache.contains(key) {
                    b_rows.push((
                        key,
                        lp_baseline::make_sketch(&params, dims.b_cols, pub_seed),
                    ));
                }
            }
            R::L0Sample { eps } => {
                let params = l0_sample::L0SampleParams::new(*eps);
                if check_eps(*eps).is_err() {
                    continue;
                }
                let nk = l0_sample::norm_key(&params, dims.a_rows, pub_seed);
                if seen.insert(nk) && !cache.contains(nk) {
                    l0_norms.push((
                        nk,
                        l0_sample::norm_sketch_for(&params, dims.a_rows, pub_seed),
                    ));
                }
                let sk = l0_sample::sampler_key(&params, dims.a_rows, pub_seed);
                if seen.insert(sk) && !cache.contains(sk) {
                    l0_samplers.push((sk, l0_sample::sampler_for(&params, dims.a_rows, pub_seed)));
                }
            }
            R::LinfGeneral { kappa } => {
                let params = linf_general::LinfGeneralParams::new(*kappa);
                if params.kappa == 0 {
                    continue;
                }
                let key = linf_general::cache_key(&params, dims.a_rows, pub_seed);
                if seen.insert(key) && !cache.contains(key) {
                    block_ams.push((
                        key,
                        linf_general::sketch_for(&params, dims.a_rows, pub_seed),
                    ));
                }
            }
            _ => {}
        }
    }
    // Observability: group sizes >= 2 take the fused kernel pass,
    // singletons are left to the in-phase scalar-cost build. Recorded
    // before the builds so the split is visible even if a build path
    // bails on a missing view.
    for list_len in [
        b_rows.len(),
        l0_norms.len(),
        l0_samplers.len(),
        block_ams.len(),
    ] {
        match list_len {
            0 => {}
            1 => cache.record_prewarm(false, 1),
            n => cache.record_prewarm(true, n),
        }
    }
    if b_rows.len() >= 2 {
        if let (_, Some(b)) = ctx.csr_halves() {
            let sketches: Vec<NormSketch> = b_rows.iter().map(|(_, s)| s.clone()).collect();
            for ((key, _), mat) in b_rows
                .iter()
                .zip(NormSketch::sketch_rows_multi(&sketches, b))
            {
                cache.insert_norm(*key, mat);
            }
        }
    }
    if let Some(at) = ctx.a_transpose() {
        if l0_norms.len() >= 2 {
            let kernels: Vec<&L0Sketch> = l0_norms.iter().map(|(_, s)| s).collect();
            for ((key, _), mat) in l0_norms
                .iter()
                .zip(mpest_sketch::sketch_rows_multi(&kernels, at))
            {
                cache.insert_field(*key, mat);
            }
        }
        if l0_samplers.len() >= 2 {
            let kernels: Vec<&L0Sampler> = l0_samplers.iter().map(|(_, s)| s).collect();
            for ((key, _), mat) in l0_samplers
                .iter()
                .zip(mpest_sketch::sketch_rows_multi(&kernels, at))
            {
                cache.insert_field(*key, mat);
            }
        }
        if block_ams.len() >= 2 {
            let kernels: Vec<&BlockAmsSketch> = block_ams.iter().map(|(_, s)| s).collect();
            for ((key, _), mat) in block_ams
                .iter()
                .zip(mpest_sketch::sketch_rows_multi(&kernels, at))
            {
                cache.insert_norm(*key, SkMat::Real(mat));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpest_matrix::{PNorm, Workloads};

    fn engine() -> Engine {
        let a = Workloads::bernoulli_bits(20, 28, 0.3, 1);
        let b = Workloads::bernoulli_bits(28, 20, 0.3, 2);
        Engine::new(Session::builder(a, b).seed(Seed(11)).build())
    }

    fn mixed_requests() -> Vec<EstimateRequest> {
        vec![
            EstimateRequest::LpNorm {
                p: PNorm::Zero,
                eps: 0.3,
            },
            EstimateRequest::ExactL1,
            EstimateRequest::LinfBinary { eps: 0.3 },
            EstimateRequest::HhBinary {
                p: 1.0,
                phi: 0.05,
                eps: 0.02,
            },
            EstimateRequest::SparseMatmul,
            EstimateRequest::L0Sample { eps: 0.3 },
        ]
    }

    #[test]
    fn batch_consumes_the_session_counter_like_sequential_queries() {
        let engine = engine();
        let requests = mixed_requests();
        let batch = engine
            .run_batch(&requests, &BatchPlan::default().with_workers(3))
            .unwrap();
        assert_eq!(batch.first_query_index, 0);
        assert_eq!(engine.session().queries_issued(), requests.len() as u64);
        // A follow-up single query continues the schedule.
        let next = engine
            .session()
            .estimate(&EstimateRequest::ExactL1)
            .unwrap();
        assert_eq!(engine.session().queries_issued(), requests.len() as u64 + 1);
        let replay = engine
            .session()
            .estimate_seeded(
                &EstimateRequest::ExactL1,
                engine.session().query_seed(requests.len() as u64),
            )
            .unwrap();
        assert_eq!(next, replay);
    }

    #[test]
    fn at_index_replays_without_consuming() {
        let engine = engine();
        let requests = mixed_requests();
        let plan = BatchPlan::default().with_workers(2).at_index(5);
        let b1 = engine.run_batch(&requests, &plan).unwrap();
        let b2 = engine.run_batch(&requests, &plan).unwrap();
        assert_eq!(b1, b2, "pinned batches replay bit-identically");
        assert_eq!(b1.first_query_index, 5);
        assert_eq!(engine.session().queries_issued(), 0);
    }

    #[test]
    fn empty_batch_is_fine() {
        let engine = engine();
        let batch = engine.run_batch(&[], &BatchPlan::default()).unwrap();
        assert!(batch.reports.is_empty());
        assert_eq!(batch.accounting, BatchAccounting::new());
        assert_eq!(engine.session().queries_issued(), 0);
    }

    #[test]
    fn accounting_matches_per_report_totals() {
        let engine = engine();
        let requests = mixed_requests();
        let batch = engine
            .run_batch(&requests, &BatchPlan::default().with_workers(4))
            .unwrap();
        let bits: u64 = batch.reports.iter().map(EstimateReport::bits).sum();
        let max_rounds = batch.reports.iter().map(EstimateReport::rounds).max();
        assert_eq!(batch.accounting.total_bits, bits);
        assert_eq!(batch.accounting.queries, requests.len() as u64);
        assert_eq!(Some(batch.accounting.max_rounds), max_rounds);
        assert_eq!(
            batch.accounting.alice_bits + batch.accounting.bob_bits,
            bits
        );
    }

    #[test]
    fn lowest_index_error_wins_deterministically() {
        // Non-binary pair: binary protocols fail, CSR protocols succeed.
        let a = mpest_matrix::CsrMatrix::from_triplets(4, 4, vec![(0, 0, 3), (1, 2, 2)]);
        let b = mpest_matrix::CsrMatrix::from_triplets(4, 4, vec![(2, 1, 5)]);
        let engine = Engine::new(Session::new(a, b));
        let requests = vec![
            EstimateRequest::SparseMatmul,
            EstimateRequest::LinfBinary { eps: 0.3 }, // first failure
            EstimateRequest::TrivialBinary,           // also fails
        ];
        let sequential_err = engine
            .session()
            .estimate_seeded(&requests[1], engine.session().query_seed(1))
            .unwrap_err();
        for workers in [1, 2, 8] {
            let err = engine
                .run_batch(
                    &requests,
                    &BatchPlan::default().with_workers(workers).at_index(0),
                )
                .unwrap_err();
            assert_eq!(err, sequential_err, "workers={workers}");
        }
    }

    #[test]
    fn prewarm_toggle_never_changes_results() {
        let engine = engine();
        let requests = mixed_requests();
        let warm = engine
            .run_batch(&requests, &BatchPlan::default().at_index(0))
            .unwrap();
        let cold = engine
            .run_batch(
                &requests,
                &BatchPlan::default().with_prewarm(false).at_index(0),
            )
            .unwrap();
        assert_eq!(warm, cold);
    }
}
