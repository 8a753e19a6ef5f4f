//! Reusable multi-query sessions over one matrix pair.
//!
//! The paper defines a *family* of protocols over the same pair `(A, B)`.
//! A [`Session`] owns that pair, validates the inner dimensions once, and
//! lazily caches the derived state the protocols keep recomputing —
//! CSR/bit-matrix views of each half, CSR transposes, row/column norm
//! and support tables — so a second query on the same relations stops
//! re-paying setup cost. Per-query seeds are derived deterministically
//! from the session seed, so a session is as reproducible as a sequence
//! of one-shot runs.
//!
//! ```
//! use mpest_core::{LpNorm, Session};
//! use mpest_core::lp_norm::LpParams;
//! use mpest_comm::Seed;
//! use mpest_matrix::{PNorm, Workloads};
//!
//! let a = Workloads::bernoulli_bits(32, 48, 0.2, 1).to_csr();
//! let b = Workloads::bernoulli_bits(48, 32, 0.2, 2).to_csr();
//! let session = Session::builder(a, b).seed(Seed(7)).build();
//! let run = session.run(&LpNorm, &LpParams::new(PNorm::Zero, 0.25)).unwrap();
//! assert!(run.output > 0.0);
//! // A second query reuses the session's cached derived state and gets
//! // an independent derived seed.
//! let again = session.run(&LpNorm, &LpParams::new(PNorm::ONE, 0.25)).unwrap();
//! assert!(again.output > 0.0);
//! ```

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

use crate::config::check_dims;
use crate::protocol::Protocol;
use crate::result::ProtocolRun;
use crate::sketchcache::SketchCache;
use crate::stream::{UpdateBatch, UpdateOp, UpdateSide};
use mpest_comm::{CommError, Exec, ExecBackend, Role, Seed};
use mpest_matrix::{BitMatrix, CsrMatrix, SparseVec};

/// One party's matrix in whichever representation the caller had.
#[derive(Debug, Clone)]
enum Half {
    /// General integer matrix (CSR).
    Csr(CsrMatrix),
    /// Binary matrix (bit-packed).
    Bits(BitMatrix),
}

impl Half {
    fn rows(&self) -> usize {
        match self {
            Half::Csr(m) => m.rows(),
            Half::Bits(m) => m.rows(),
        }
    }

    fn cols(&self) -> usize {
        match self {
            Half::Csr(m) => m.cols(),
            Half::Bits(m) => m.cols(),
        }
    }
}

/// Types accepted as one side of a [`Session`] pair.
pub trait SessionInput {
    /// Wraps the matrix in its session representation.
    fn into_half(self) -> SessionHalf;
}

/// Opaque wrapper for a session input matrix (see [`SessionInput`]).
#[derive(Debug, Clone)]
pub struct SessionHalf(Half);

impl SessionInput for CsrMatrix {
    fn into_half(self) -> SessionHalf {
        SessionHalf(Half::Csr(self))
    }
}

impl SessionInput for BitMatrix {
    fn into_half(self) -> SessionHalf {
        SessionHalf(Half::Bits(self))
    }
}

impl SessionInput for SessionHalf {
    fn into_half(self) -> SessionHalf {
        self
    }
}

/// Lazily cached derived state for one half of the pair.
#[derive(Debug, Default)]
struct HalfCache {
    /// CSR view (filled only when the source is a bit matrix).
    csr: OnceLock<CsrMatrix>,
    /// Bit view (`None` when the source has non-binary entries).
    bits: OnceLock<Option<BitMatrix>>,
    /// CSR transpose.
    transpose: OnceLock<CsrMatrix>,
    /// Per-column sums of absolute values (`Σ_i |M_{i,k}|`).
    col_abs: OnceLock<Vec<i64>>,
    /// Per-row sums of absolute values.
    row_abs: OnceLock<Vec<i64>>,
    /// Per-column support sizes.
    col_nnz: OnceLock<Vec<u32>>,
    /// Per-row support sizes.
    row_nnz: OnceLock<Vec<u32>>,
}

/// A reusable two-party estimation session over one pair `(A, B)`.
///
/// Alice's matrix is `A` (her relation's rows are her sets), Bob's is
/// `B`. The session validates `A.cols == B.rows` once at construction;
/// every query re-surfaces that error instead of panicking, so the
/// builder chain `Session::builder(a, b).seed(..).build()` stays infallible.
///
/// Queries run through [`Session::run`] (static dispatch over a
/// [`Protocol`]) or [`Session::estimate`] (dynamic dispatch over an
/// [`EstimateRequest`](crate::EstimateRequest)).
#[derive(Debug)]
pub struct Session {
    a: Half,
    b: Half,
    seed: Seed,
    exec: ExecBackend,
    dims: Result<(), CommError>,
    queries: AtomicU64,
    epoch: u64,
    a_cache: HalfCache,
    b_cache: HalfCache,
    sketches: SketchCache,
    exact: OnceLock<CsrMatrix>,
}

impl Session {
    /// Builds a session over `(a, b)`; each side may independently be a
    /// [`CsrMatrix`] or a [`BitMatrix`]. Dimensions are validated here,
    /// once; a mismatch is reported by the first query.
    pub fn new(a: impl SessionInput, b: impl SessionInput) -> Self {
        let a = a.into_half().0;
        let b = b.into_half().0;
        let dims = check_dims(a.cols(), b.rows());
        Self {
            a,
            b,
            seed: Seed(0),
            exec: ExecBackend::default(),
            dims,
            queries: AtomicU64::new(0),
            epoch: 0,
            a_cache: HalfCache::default(),
            b_cache: HalfCache::default(),
            sketches: SketchCache::default(),
            exact: OnceLock::new(),
        }
    }

    /// Starts a [`SessionBuilder`] over `(a, b)` — the one place to set
    /// the seed, executor, and view warming before the session is built.
    pub fn builder(a: impl SessionInput, b: impl SessionInput) -> SessionBuilder {
        SessionBuilder {
            a: a.into_half(),
            b: b.into_half(),
            seed: Seed(0),
            exec: ExecBackend::default(),
            warm: false,
        }
    }

    /// The session seed.
    #[must_use]
    pub fn seed(&self) -> Seed {
        self.seed
    }

    /// The executor backend this session's queries run on.
    #[must_use]
    pub fn executor(&self) -> ExecBackend {
        self.exec
    }

    /// Output shape of `C = A·B`.
    #[must_use]
    pub fn output_shape(&self) -> (usize, usize) {
        (self.a.rows(), self.b.cols())
    }

    /// Number of queries issued so far (each consumed one derived seed).
    #[must_use]
    pub fn queries_issued(&self) -> u64 {
        self.queries.load(Ordering::Relaxed)
    }

    /// The seed the `index`-th query of this session runs under.
    /// Deterministic in `(session seed, index)` and independent across
    /// indices, so concurrent or replayed queries never alias.
    #[must_use]
    pub fn query_seed(&self, index: u64) -> Seed {
        self.seed.derive("session-query").derive_u64(index)
    }

    pub(crate) fn next_query_seed(&self) -> Seed {
        self.query_seed(self.queries.fetch_add(1, Ordering::Relaxed))
    }

    /// Atomically reserves a contiguous block of `n` query indices and
    /// returns the first. A batch over indices `[first, first + n)` uses
    /// exactly the seeds the same queries would have drawn sequentially.
    pub(crate) fn reserve_query_indices(&self, n: u64) -> u64 {
        self.queries.fetch_add(n, Ordering::Relaxed)
    }

    /// Builds the per-query execution context (crate-internal: protocols
    /// receive one from `run_seeded`; the batch engine uses it to warm
    /// shared derived views before fanning out).
    pub(crate) fn ctx(&self, seed: Seed) -> SessionCtx<'_> {
        SessionCtx {
            parties: Parties::Both(self),
            seed,
            exec: Exec::Backend(self.exec),
        }
    }

    /// Runs `protocol` under the next derived per-query seed.
    ///
    /// # Errors
    ///
    /// Surfaces the session's dimension mismatch (if any) or the
    /// protocol's own validation/execution errors.
    pub fn run<P: Protocol>(
        &self,
        protocol: &P,
        params: &P::Params,
    ) -> Result<ProtocolRun<P::Output>, CommError> {
        self.run_seeded(protocol, params, self.next_query_seed())
    }

    /// Runs `protocol` under an explicit seed (replays, equivalence
    /// tests, external seed schedules). Does not consume a derived seed.
    ///
    /// # Errors
    ///
    /// Same as [`Session::run`].
    pub fn run_seeded<P: Protocol>(
        &self,
        protocol: &P,
        params: &P::Params,
        seed: Seed,
    ) -> Result<ProtocolRun<P::Output>, CommError> {
        self.run_seeded_on(protocol, params, seed, self.exec)
    }

    /// Runs `protocol` under an explicit seed *and* executor backend,
    /// overriding the session default for this query only (batch plans,
    /// equivalence tests, benches).
    ///
    /// # Errors
    ///
    /// Same as [`Session::run`].
    pub fn run_seeded_on<P: Protocol>(
        &self,
        protocol: &P,
        params: &P::Params,
        seed: Seed,
        exec: ExecBackend,
    ) -> Result<ProtocolRun<P::Output>, CommError> {
        run_on(
            Parties::Both(self),
            protocol,
            params,
            seed,
            Exec::Backend(exec),
        )
    }

    // --- cached views ----------------------------------------------------

    fn a_csr(&self) -> &CsrMatrix {
        half_csr(&self.a, &self.a_cache)
    }

    fn b_csr(&self) -> &CsrMatrix {
        half_csr(&self.b, &self.b_cache)
    }

    // --- exact references -------------------------------------------------
    //
    // Centralized ground truth over the session's own pair, for
    // verification harnesses and experiments that score protocol
    // outputs. The product is computed once (it is the expensive part)
    // and cached alongside the derived views; protocols themselves
    // never read it — the whole point of the paper is to avoid it.

    /// The exact product `C = A·B`, computed centrally and cached.
    ///
    /// # Errors
    ///
    /// Surfaces the session's dimension mismatch (if any).
    pub fn exact_product(&self) -> Result<&CsrMatrix, CommError> {
        self.dims.clone()?;
        Ok(self.exact.get_or_init(|| self.a_csr().matmul(self.b_csr())))
    }

    /// Exact `‖AB‖_p^p` (for [`PNorm::Zero`](mpest_matrix::PNorm::Zero),
    /// the support size).
    ///
    /// # Errors
    ///
    /// Surfaces the session's dimension mismatch (if any).
    pub fn exact_lp_pow(&self, p: mpest_matrix::PNorm) -> Result<f64, CommError> {
        Ok(mpest_matrix::norms::csr_lp_pow(self.exact_product()?, p))
    }

    /// Exact `‖AB‖_∞` with one arg-max position.
    ///
    /// # Errors
    ///
    /// Surfaces the session's dimension mismatch (if any).
    pub fn exact_linf(&self) -> Result<(i64, (u32, u32)), CommError> {
        Ok(mpest_matrix::norms::csr_linf(self.exact_product()?))
    }

    /// The exact `ℓp`-(φ) heavy-hitter positions of `AB`, sorted.
    ///
    /// # Errors
    ///
    /// Surfaces the session's dimension mismatch (if any).
    pub fn exact_heavy_hitters(
        &self,
        p: mpest_matrix::PNorm,
        phi: f64,
    ) -> Result<Vec<(u32, u32)>, CommError> {
        let mut hh = mpest_matrix::norms::csr_heavy_hitters(self.exact_product()?, p, phi);
        hh.sort_unstable();
        Ok(hh)
    }

    // --- live updates (mpest-stream) --------------------------------------

    /// The session's epoch: 0 at construction, bumped by one per
    /// successfully applied [`UpdateBatch`]. Queries against a served
    /// session name `fingerprint@epoch`, so stale snapshots are
    /// detectable.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Both halves as CSR matrices (cached conversion when a side was
    /// built from bits) — the canonical content the wire layer
    /// fingerprints.
    ///
    /// # Errors
    ///
    /// Surfaces the session's dimension mismatch (if any).
    pub fn csr_halves(&self) -> Result<(&CsrMatrix, &CsrMatrix), CommError> {
        self.dims.clone()?;
        Ok((self.a_csr(), self.b_csr()))
    }

    /// Applies `batch` atomically and returns the new epoch.
    ///
    /// The whole batch is validated first — dimension bounds tracked
    /// across in-batch appends, and `{0, 1}` value constraints on
    /// bit-matrix sides — so a failed batch leaves the session entirely
    /// untouched (same epoch, same content, same caches).
    ///
    /// Derived views that are already materialized are maintained
    /// *incrementally* (CSR splices, transposed ops, arithmetic deltas
    /// on the norm/support tables); views still lazy stay lazy. Every
    /// cached view is a pure function of the pair in canonical form, so
    /// the maintained state is bit-identical to what a fresh `Session`
    /// over the mutated matrices would compute — the rebuild
    /// equivalence contract `tests/stream_equivalence.rs` gates on. The
    /// cached exact product is invalidated (recomputed on next use),
    /// never patched.
    ///
    /// # Errors
    ///
    /// Surfaces the session's dimension mismatch, out-of-range indices
    /// (naming the op position), or non-binary values pushed at a
    /// bit-matrix side.
    pub fn apply_update(&mut self, batch: &UpdateBatch) -> Result<u64, CommError> {
        self.dims.clone()?;
        let normalized = self.validate_batch(batch)?;
        for (side, op) in &normalized {
            match side {
                UpdateSide::Alice => apply_half_op(&mut self.a, &mut self.a_cache, op),
                UpdateSide::Bob => apply_half_op(&mut self.b, &mut self.b_cache, op),
            }
        }
        self.exact.take();
        // Cached sketches are content-addressed only while the pair is
        // frozen: any mutation invalidates all of them.
        self.sketches.clear();
        self.epoch += 1;
        Ok(self.epoch)
    }

    /// Points this session's sketch-cache metric handles (hit/miss
    /// counters, prewarm kernel-vs-scalar counters, fused-group-size
    /// histogram) at `registry`. Takes `&mut self`: wire observability
    /// up *before* sharing the session (the serve daemon does this on
    /// upload). Recording never changes estimates, transcripts, or
    /// cache contents.
    pub fn set_obs(&mut self, registry: &mpest_obs::Registry) {
        self.sketches.set_obs(registry);
    }

    /// Materializes every lazily cached derived view (CSR/bit forms,
    /// transposes, norm and support tables) for both halves.
    ///
    /// Freshly built sessions compute views on first use; a *streaming*
    /// session should pay that cost up front so that
    /// [`Session::apply_update`] maintains the views incrementally from
    /// the first batch and queries never hit a cold view mid-stream.
    /// The serve daemon warms uploaded sessions for the same reason.
    /// Idempotent; already-materialized views are untouched.
    ///
    /// # Errors
    ///
    /// Surfaces the session's dimension mismatch (if any).
    pub fn warm_views(&self) -> Result<(), CommError> {
        self.dims.clone()?;
        for (half, cache) in [(&self.a, &self.a_cache), (&self.b, &self.b_cache)] {
            warm_half(half, cache);
        }
        Ok(())
    }

    /// Validates every op against simulated dimensions (so entry ops may
    /// address rows/columns appended earlier in the same batch) and
    /// normalizes each into its side-local [`HalfOp`], canonicalizing
    /// append entries up front.
    fn validate_batch(&self, batch: &UpdateBatch) -> Result<Vec<(UpdateSide, HalfOp)>, CommError> {
        validate_ops(
            &batch.ops,
            Some(HalfShape::of(&self.a)),
            Some(HalfShape::of(&self.b)),
        )
    }

    /// Splits off the storage `role` would hold in a storage-split
    /// deployment: a clone of its own half plus the *public* metadata of
    /// the peer half ([`PeerInfo`] — dimensions and binariness, never
    /// entries). Two views split from the same session and driven over a
    /// transport reproduce the session's outputs and transcripts
    /// bit-identically. The view starts at the session's epoch, so it
    /// passes the hello of a split peer that ingested the same rounds.
    #[must_use]
    pub fn party_view(&self, role: Role) -> PartyView {
        let (own, peer, peer_cache) = match role {
            Role::Alice => (&self.a, &self.b, &self.b_cache),
            Role::Bob => (&self.b, &self.a, &self.a_cache),
        };
        let peer = PeerInfo::new(peer.rows(), peer.cols(), half_is_binary(peer, peer_cache));
        let mut view = PartyView::new(role, SessionHalf(own.clone()), peer);
        view.epoch = self.epoch;
        view
    }
}

/// A half's shape plus whether its *representation* is bit-packed (which
/// constrains writable values), tracked through a batch's simulated
/// appends during validation.
#[derive(Clone, Copy)]
struct HalfShape {
    rows: usize,
    cols: usize,
    binary: bool,
}

impl HalfShape {
    fn of(half: &Half) -> Self {
        Self {
            rows: half.rows(),
            cols: half.cols(),
            binary: matches!(half, Half::Bits(_)),
        }
    }
}

/// The shared validation/normalization behind [`Session::apply_update`]
/// and [`PartyView::apply_update`]: a `None` shape means this process
/// does not hold that half, so any op addressed to it is rejected typed
/// (storage-split parties mutate only their own side).
fn validate_ops(
    ops: &[UpdateOp],
    mut a: Option<HalfShape>,
    mut b: Option<HalfShape>,
) -> Result<Vec<(UpdateSide, HalfOp)>, CommError> {
    fn held<'s>(
        a: &'s mut Option<HalfShape>,
        b: &'s mut Option<HalfShape>,
        side: UpdateSide,
        k: usize,
    ) -> Result<&'s mut HalfShape, CommError> {
        match side {
            UpdateSide::Alice => a.as_mut().ok_or_else(|| foreign_side_op(side, k)),
            UpdateSide::Bob => b.as_mut().ok_or_else(|| foreign_side_op(side, k)),
        }
    }
    let mut out = Vec::with_capacity(ops.len());
    for (k, op) in ops.iter().enumerate() {
        match op {
            UpdateOp::AppendRow { side, entries } => {
                let shape = held(&mut a, &mut b, *side, k)?;
                // Alice appends a row of `A` (entries over her columns);
                // Bob appends a column of `B` (entries over his rows).
                let dim = match side {
                    UpdateSide::Alice => shape.cols,
                    UpdateSide::Bob => shape.rows,
                };
                for &(idx, _) in entries {
                    if (idx as usize) >= dim {
                        return Err(CommError::protocol(format!(
                            "update op {k}: append to {} has index {idx} outside the \
                             inner dimension {dim}",
                            side.half_label()
                        )));
                    }
                }
                let canon = SparseVec::from_entries(dim, entries.clone()).entries;
                if shape.binary {
                    if let Some(&(idx, v)) = canon.iter().find(|&&(_, v)| v != 1) {
                        return Err(CommError::protocol(format!(
                            "update op {k}: append to bit-matrix {} has non-binary \
                             value {v} at index {idx} (duplicates are summed)",
                            side.half_label()
                        )));
                    }
                }
                match side {
                    UpdateSide::Alice => {
                        shape.rows += 1;
                        out.push((*side, HalfOp::AppendRow(canon)));
                    }
                    UpdateSide::Bob => {
                        shape.cols += 1;
                        out.push((*side, HalfOp::AppendCol(canon)));
                    }
                }
            }
            UpdateOp::SetEntry { side, row, col, .. }
            | UpdateOp::DeleteEntry { side, row, col } => {
                let val = match op {
                    UpdateOp::SetEntry { val, .. } => *val,
                    _ => 0,
                };
                let shape = held(&mut a, &mut b, *side, k)?;
                if (*row as usize) >= shape.rows || (*col as usize) >= shape.cols {
                    return Err(CommError::protocol(format!(
                        "update op {k}: entry ({row},{col}) outside {} of shape \
                         {rows}x{cols}",
                        side.half_label(),
                        rows = shape.rows,
                        cols = shape.cols,
                    )));
                }
                if shape.binary && !(val == 0 || val == 1) {
                    return Err(CommError::protocol(format!(
                        "update op {k}: bit-matrix {} cannot hold value {val}",
                        side.half_label()
                    )));
                }
                out.push((
                    *side,
                    HalfOp::Set {
                        row: *row as usize,
                        col: *col,
                        val,
                    },
                ));
            }
        }
    }
    Ok(out)
}

/// The typed rejection a storage-split party raises for an op addressed
/// to the half it does not hold.
fn foreign_side_op(side: UpdateSide, k: usize) -> CommError {
    CommError::protocol(format!(
        "update op {k} targets matrix {} but this party holds only its own half; \
         route the op to the {} party",
        side.half_label(),
        side.as_str()
    ))
}

fn half_csr<'s>(half: &'s Half, cache: &'s HalfCache) -> &'s CsrMatrix {
    match half {
        Half::Csr(m) => m,
        Half::Bits(m) => cache.csr.get_or_init(|| m.to_csr()),
    }
}

fn half_bits<'s>(
    half: &'s Half,
    cache: &'s HalfCache,
    side: &str,
) -> Result<&'s BitMatrix, CommError> {
    match half {
        Half::Bits(m) => Ok(m),
        Half::Csr(m) => cache
            .bits
            .get_or_init(|| m.is_binary().then(|| BitMatrix::from_csr(m)))
            .as_ref()
            .ok_or_else(|| non_binary_half(side)),
    }
}

fn non_binary_half(side: &str) -> CommError {
    CommError::protocol(format!(
        "binary protocol requested but matrix {side} has non-binary entries"
    ))
}

/// Whether a half's *content* is binary (bit-packed representation, or a
/// CSR whose entries are all `{0, 1}`), memoizing the verdict in the
/// cache's bit view.
fn half_is_binary(half: &Half, cache: &HalfCache) -> bool {
    match half {
        Half::Bits(_) => true,
        Half::Csr(m) => cache
            .bits
            .get_or_init(|| m.is_binary().then(|| BitMatrix::from_csr(m)))
            .is_some(),
    }
}

/// Materializes every lazily cached derived view of one half — the
/// shared implementation of [`Session::warm_views`] and
/// [`PartyView::warm_views`], so split and local sessions warm
/// bit-identical caches.
fn warm_half(half: &Half, cache: &HalfCache) {
    let csr = half_csr(half, cache);
    if let Half::Csr(m) = half {
        cache
            .bits
            .get_or_init(|| m.is_binary().then(|| BitMatrix::from_csr(m)));
    }
    cache.transpose.get_or_init(|| csr.transpose());
    cache.col_abs.get_or_init(|| csr.col_abs_sums());
    cache.row_abs.get_or_init(|| csr.row_abs_sums());
    cache.col_nnz.get_or_init(|| csr.col_nnz());
    cache.row_nnz.get_or_init(|| csr.row_nnz());
}

/// Builder for a [`Session`]: seed, executor, and view warming in one
/// infallible chain.
///
/// ```
/// use mpest_core::Session;
/// use mpest_comm::{ExecBackend, Seed};
/// use mpest_matrix::Workloads;
///
/// let a = Workloads::bernoulli_bits(8, 12, 0.4, 1).to_csr();
/// let b = Workloads::bernoulli_bits(12, 8, 0.4, 2).to_csr();
/// let session = Session::builder(a, b)
///     .seed(Seed(7))
///     .executor(ExecBackend::Fused)
///     .warm_views()
///     .build();
/// assert_eq!(session.seed(), Seed(7));
/// ```
#[derive(Debug, Clone)]
pub struct SessionBuilder {
    a: SessionHalf,
    b: SessionHalf,
    seed: Seed,
    exec: ExecBackend,
    warm: bool,
}

impl SessionBuilder {
    /// Sets the session seed all per-query seeds derive from.
    #[must_use]
    pub fn seed(mut self, seed: Seed) -> Self {
        self.seed = seed;
        self
    }

    /// Selects the executor backend queries run on (default
    /// [`ExecBackend::Fused`]); backends are bit-identical.
    #[must_use]
    pub fn executor(mut self, exec: ExecBackend) -> Self {
        self.exec = exec;
        self
    }

    /// Materializes every derived view at build time (see
    /// [`Session::warm_views`]) so the first query and the first
    /// streamed update never hit a cold view.
    #[must_use]
    pub fn warm_views(mut self) -> Self {
        self.warm = true;
        self
    }

    /// Builds the session. Infallible: a dimension mismatch is recorded
    /// and surfaced by the first query, exactly like [`Session::new`]
    /// (warming is skipped for a mismatched pair).
    #[must_use]
    pub fn build(self) -> Session {
        let mut session = Session::new(self.a, self.b);
        session.seed = self.seed;
        session.exec = self.exec;
        if self.warm {
            let _ = session.warm_views();
        }
        session
    }
}

/// Public dimensions of the product `C = A·B` — everything a party may
/// know about the *shape* of its peer's half.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProductDims {
    /// Rows of `A` (= rows of `C`).
    pub a_rows: usize,
    /// The inner dimension `A.cols == B.rows`.
    pub inner: usize,
    /// Columns of `B` (= columns of `C`).
    pub b_cols: usize,
}

/// The public metadata one party holds about its peer's half: dimensions
/// and whether the peer's matrix is binary. Deliberately *not* the
/// matrix — constructing a [`PartyView`] with a `PeerInfo` is the
/// compile-level guarantee that a split party cannot reach the peer's
/// entries:
///
/// ```compile_fail
/// use mpest_core::{PeerInfo, PartyView, Role};
/// use mpest_matrix::Workloads;
///
/// let a = Workloads::bernoulli_bits(8, 12, 0.4, 1).to_csr();
/// let view = PartyView::new(Role::Alice, a, PeerInfo::new(12, 8, true));
/// // There is no accessor for the peer's entries: `PeerInfo` holds
/// // dimensions and a binariness flag, nothing else.
/// let _ = view.peer().get(0, 0); // ERROR: no method `get` on `&PeerInfo`
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PeerInfo {
    rows: usize,
    cols: usize,
    binary: bool,
}

impl PeerInfo {
    /// Describes a peer half of shape `rows × cols`; `binary` states
    /// whether every entry of the peer's matrix is in `{0, 1}` (it gates
    /// the binary-only protocols and is cross-checked by the net layer's
    /// handshake).
    #[must_use]
    pub fn new(rows: usize, cols: usize, binary: bool) -> Self {
        Self { rows, cols, binary }
    }

    /// Rows of the peer's matrix.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Columns of the peer's matrix.
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Whether the peer's matrix is binary.
    #[must_use]
    pub fn binary(&self) -> bool {
        self.binary
    }
}

/// One party's storage-split view of a session: its own half (with the
/// same lazily cached derived views a [`Session`] keeps), plus the
/// peer's *public* metadata ([`PeerInfo`]). This is what a remote party
/// process holds instead of the full pair — protocols executed through
/// it run this role's closures locally and reach the peer only through
/// billed protocol messages.
#[derive(Debug)]
pub struct PartyView {
    role: Role,
    own: Half,
    cache: HalfCache,
    sketches: SketchCache,
    peer: PeerInfo,
    dims: Result<(), CommError>,
    epoch: u64,
}

impl PartyView {
    /// Builds the view `role` holds: its own matrix plus the peer's
    /// public metadata. The inner dimension (`A.cols == B.rows`) is
    /// validated here, once; a mismatch is reported by the first run.
    pub fn new(role: Role, own: impl SessionInput, peer: PeerInfo) -> Self {
        let own = own.into_half().0;
        let dims = match role {
            Role::Alice => check_dims(own.cols(), peer.rows()),
            Role::Bob => check_dims(peer.cols(), own.rows()),
        };
        Self {
            role,
            own,
            cache: HalfCache::default(),
            sketches: SketchCache::default(),
            peer,
            dims,
            epoch: 0,
        }
    }

    /// Which role this view plays.
    #[must_use]
    pub fn role(&self) -> Role {
        self.role
    }

    /// The peer's public metadata.
    #[must_use]
    pub fn peer(&self) -> &PeerInfo {
        &self.peer
    }

    /// Shape of this party's own matrix.
    #[must_use]
    pub fn own_shape(&self) -> (usize, usize) {
        (self.own.rows(), self.own.cols())
    }

    /// Whether this party's own matrix is binary (content-wise).
    #[must_use]
    pub fn own_binary(&self) -> bool {
        half_is_binary(&self.own, &self.cache)
    }

    /// This party's own matrix as CSR (cached conversion when it was
    /// built from bits) — the canonical content the wire layer
    /// fingerprints.
    #[must_use]
    pub fn own_csr(&self) -> &CsrMatrix {
        half_csr(&self.own, &self.cache)
    }

    /// Public dimensions of the product, assembled from the own half and
    /// the peer metadata.
    #[must_use]
    pub fn product_dims(&self) -> ProductDims {
        match self.role {
            Role::Alice => ProductDims {
                a_rows: self.own.rows(),
                inner: self.own.cols(),
                b_cols: self.peer.cols(),
            },
            Role::Bob => ProductDims {
                a_rows: self.peer.rows(),
                inner: self.own.rows(),
                b_cols: self.own.cols(),
            },
        }
    }

    /// The view's epoch: 0 at construction, bumped by one per applied
    /// update batch. Storage-split epochs are *per side* — each party
    /// versions only its own half.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Replaces the peer's public metadata (a peer whose half grew via
    /// appends announces new dimensions through the handshake).
    /// Re-validates the inner dimension.
    pub fn set_peer(&mut self, peer: PeerInfo) {
        self.dims = match self.role {
            Role::Alice => check_dims(self.own.cols(), peer.rows()),
            Role::Bob => check_dims(peer.cols(), self.own.rows()),
        };
        self.peer = peer;
    }

    /// Points this view's sketch-cache metric handles at `registry`
    /// (same contract as [`Session::set_obs`], for one side).
    pub fn set_obs(&mut self, registry: &mpest_obs::Registry) {
        self.sketches.set_obs(registry);
    }

    /// Materializes every lazily cached derived view of the own half
    /// (same contract as [`Session::warm_views`], for one side).
    ///
    /// # Errors
    ///
    /// Surfaces the view's inner-dimension mismatch (if any).
    pub fn warm_views(&self) -> Result<(), CommError> {
        self.dims.clone()?;
        warm_half(&self.own, &self.cache);
        Ok(())
    }

    /// Applies `batch` atomically to the *own* half and returns the new
    /// per-side epoch. Ops addressed to the peer's matrix are rejected
    /// typed — a storage-split party cannot mutate what it does not
    /// hold. Validation and incremental view maintenance are the same
    /// code paths as [`Session::apply_update`], so a split half stays
    /// bit-identical to the matching half of a full session fed the same
    /// ops.
    ///
    /// # Errors
    ///
    /// Surfaces the view's dimension mismatch, foreign-side ops,
    /// out-of-range indices, or non-binary values pushed at a bit-matrix
    /// half.
    pub fn apply_update(&mut self, batch: &UpdateBatch) -> Result<u64, CommError> {
        self.dims.clone()?;
        let own_shape = HalfShape::of(&self.own);
        let (a, b) = match self.role {
            Role::Alice => (Some(own_shape), None),
            Role::Bob => (None, Some(own_shape)),
        };
        let normalized = validate_ops(&batch.ops, a, b)?;
        for (_, op) in &normalized {
            apply_half_op(&mut self.own, &mut self.cache, op);
        }
        self.sketches.clear();
        self.epoch += 1;
        Ok(self.epoch)
    }
}

/// Whose halves a [`SessionCtx`] can see: both (the local
/// [`Session`] case) or exactly one (a storage-split [`PartyView`]).
#[derive(Debug, Clone, Copy)]
pub(crate) enum Parties<'a> {
    /// Both halves live in this process.
    Both(&'a Session),
    /// Only this party's half lives here; the peer is metadata.
    One(&'a PartyView),
}

/// The one dispatch point behind [`Session::run_seeded_on`] and
/// [`PartyView::estimate_remote`]: validates dimensions, builds the
/// per-query [`SessionCtx`], and hands it to the protocol.
pub(crate) fn run_on<'r, P: Protocol>(
    parties: Parties<'r>,
    protocol: &P,
    params: &P::Params,
    seed: Seed,
    exec: Exec<'r>,
) -> Result<ProtocolRun<P::Output>, CommError> {
    match parties {
        Parties::Both(s) => s.dims.clone()?,
        Parties::One(v) => v.dims.clone()?,
    }
    protocol.execute(
        &SessionCtx {
            parties,
            seed,
            exec,
        },
        params,
    )
}

/// A normalized, side-local mutation: append entries are canonical
/// (sorted, duplicates summed, zeros dropped) and deletes are zero
/// writes, so application code has one shape per structural change.
#[derive(Debug)]
enum HalfOp {
    /// Overwrite `(row, col)` with `val` (0 deletes).
    Set { row: usize, col: u32, val: i64 },
    /// Append a row with these canonical entries.
    AppendRow(Vec<(u32, i64)>),
    /// Append a column with these canonical entries.
    AppendCol(Vec<(u32, i64)>),
}

/// Applies one normalized op to a half and incrementally maintains every
/// *materialized* derived view in its cache; lazy views stay lazy.
/// `OnceLock` maintenance is take-mutate-set (exclusive access is
/// guaranteed by `&mut`).
fn apply_half_op(half: &mut Half, cache: &mut HalfCache, op: &HalfOp) {
    match op {
        HalfOp::Set { row, col, val } => {
            let old = match half {
                Half::Csr(m) => m.get(*row, *col),
                Half::Bits(m) => i64::from(m.get(*row, *col as usize)),
            };
            match half {
                Half::Csr(m) => m.set_entry(*row, *col, *val),
                // Validation guarantees `val ∈ {0, 1}` for a bits half.
                Half::Bits(m) => m.set(*row, *col as usize, *val == 1),
            }
            if let Some(mut csr) = cache.csr.take() {
                csr.set_entry(*row, *col, *val);
                let _ = cache.csr.set(csr);
            }
            match cache.bits.take() {
                Some(Some(mut bm)) if *val == 0 || *val == 1 => {
                    bm.set(*row, *col as usize, *val == 1);
                    let _ = cache.bits.set(Some(bm));
                }
                Some(_) if !(*val == 0 || *val == 1) => {
                    // A non-binary write makes the half definitely
                    // non-binary, whatever it was before.
                    let _ = cache.bits.set(None);
                }
                // A cached `None` after a delete/overwrite may be stale
                // (the write may have restored binariness): fall back to
                // lazy recomputation.
                _ => {}
            }
            if let Some(mut t) = cache.transpose.take() {
                t.set_entry(*col as usize, *row as u32, *val);
                let _ = cache.transpose.set(t);
            }
            let delta_abs = val.abs() - old.abs();
            if let Some(mut ca) = cache.col_abs.take() {
                ca[*col as usize] += delta_abs;
                let _ = cache.col_abs.set(ca);
            }
            if let Some(mut ra) = cache.row_abs.take() {
                ra[*row] += delta_abs;
                let _ = cache.row_abs.set(ra);
            }
            let (was, is) = (old != 0, *val != 0);
            if let Some(mut cn) = cache.col_nnz.take() {
                if was && !is {
                    cn[*col as usize] -= 1;
                } else if !was && is {
                    cn[*col as usize] += 1;
                }
                let _ = cache.col_nnz.set(cn);
            }
            if let Some(mut rn) = cache.row_nnz.take() {
                if was && !is {
                    rn[*row] -= 1;
                } else if !was && is {
                    rn[*row] += 1;
                }
                let _ = cache.row_nnz.set(rn);
            }
        }
        HalfOp::AppendRow(entries) => {
            match half {
                Half::Csr(m) => m.append_row(entries),
                Half::Bits(m) => {
                    let ones: Vec<u32> = entries.iter().map(|e| e.0).collect();
                    m.append_row(&ones);
                }
            }
            if let Some(mut csr) = cache.csr.take() {
                csr.append_row(entries);
                let _ = cache.csr.set(csr);
            }
            if let Some(bits) = cache.bits.take() {
                // Appends can never *restore* binariness, so the cached
                // verdict stays decidable: maintain a binary append,
                // demote to `None` otherwise.
                match bits {
                    Some(mut bm) if entries.iter().all(|&(_, v)| v == 1) => {
                        let ones: Vec<u32> = entries.iter().map(|e| e.0).collect();
                        bm.append_row(&ones);
                        let _ = cache.bits.set(Some(bm));
                    }
                    _ => {
                        let _ = cache.bits.set(None);
                    }
                }
            }
            if let Some(mut t) = cache.transpose.take() {
                t.append_col(entries);
                let _ = cache.transpose.set(t);
            }
            if let Some(mut ca) = cache.col_abs.take() {
                for &(c, v) in entries {
                    ca[c as usize] += v.abs();
                }
                let _ = cache.col_abs.set(ca);
            }
            if let Some(mut ra) = cache.row_abs.take() {
                ra.push(entries.iter().map(|&(_, v)| v.abs()).sum());
                let _ = cache.row_abs.set(ra);
            }
            if let Some(mut cn) = cache.col_nnz.take() {
                for &(c, _) in entries {
                    cn[c as usize] += 1;
                }
                let _ = cache.col_nnz.set(cn);
            }
            if let Some(mut rn) = cache.row_nnz.take() {
                rn.push(entries.len() as u32);
                let _ = cache.row_nnz.set(rn);
            }
        }
        HalfOp::AppendCol(entries) => {
            match half {
                Half::Csr(m) => m.append_col(entries),
                Half::Bits(m) => {
                    let ones: Vec<u32> = entries.iter().map(|e| e.0).collect();
                    m.append_col(&ones);
                }
            }
            if let Some(mut csr) = cache.csr.take() {
                csr.append_col(entries);
                let _ = cache.csr.set(csr);
            }
            if let Some(bits) = cache.bits.take() {
                match bits {
                    Some(mut bm) if entries.iter().all(|&(_, v)| v == 1) => {
                        let ones: Vec<u32> = entries.iter().map(|e| e.0).collect();
                        bm.append_col(&ones);
                        let _ = cache.bits.set(Some(bm));
                    }
                    _ => {
                        let _ = cache.bits.set(None);
                    }
                }
            }
            if let Some(mut t) = cache.transpose.take() {
                t.append_row(entries);
                let _ = cache.transpose.set(t);
            }
            if let Some(mut ca) = cache.col_abs.take() {
                ca.push(entries.iter().map(|&(_, v)| v.abs()).sum());
                let _ = cache.col_abs.set(ca);
            }
            if let Some(mut ra) = cache.row_abs.take() {
                for &(r, v) in entries {
                    ra[r as usize] += v.abs();
                }
                let _ = cache.row_abs.set(ra);
            }
            if let Some(mut cn) = cache.col_nnz.take() {
                cn.push(entries.len() as u32);
                let _ = cache.col_nnz.set(cn);
            }
            if let Some(mut rn) = cache.row_nnz.take() {
                for &(r, _) in entries {
                    rn[r as usize] += 1;
                }
                let _ = cache.row_nnz.set(rn);
            }
        }
    }
}

/// Per-query execution context handed to [`Protocol::execute`]: cached
/// views of whichever halves live in this process, public dimensions of
/// both, this query's seed, and the executor handle.
///
/// Every half accessor returns an `Option`: `Some` with the (cached)
/// view when that half is local, `None` when it belongs to a remote
/// peer. A full-pair [`Session`] context answers `Some` for both sides;
/// a storage-split [`PartyView`] context answers `Some` only for its
/// own role — the type itself is what keeps a protocol from touching
/// entries the party does not hold.
#[derive(Debug, Clone, Copy)]
pub struct SessionCtx<'a> {
    parties: Parties<'a>,
    seed: Seed,
    exec: Exec<'a>,
}

impl<'a> SessionCtx<'a> {
    /// This query's seed.
    #[must_use]
    pub fn seed(&self) -> Seed {
        self.seed
    }

    /// The executor handle this query runs on: an in-process backend, or
    /// one party of a remote pair (see [`mpest_comm::remote`]).
    #[must_use]
    pub fn executor(&self) -> Exec<'a> {
        self.exec
    }

    /// The role whose half is local, or `None` when both halves are
    /// (the full-pair [`Session`] case).
    #[must_use]
    pub fn role(&self) -> Option<Role> {
        match self.parties {
            Parties::Both(_) => None,
            Parties::One(v) => Some(v.role),
        }
    }

    /// Public dimensions of the product `C = A·B` — always available,
    /// whichever halves are local.
    #[must_use]
    pub fn dims(&self) -> ProductDims {
        match self.parties {
            Parties::Both(s) => ProductDims {
                a_rows: s.a.rows(),
                inner: s.a.cols(),
                b_cols: s.b.cols(),
            },
            Parties::One(v) => v.product_dims(),
        }
    }

    /// The given role's half and cache, when local.
    fn half(&self, role: Role) -> Option<(&'a Half, &'a HalfCache)> {
        match self.parties {
            Parties::Both(s) => Some(match role {
                Role::Alice => (&s.a, &s.a_cache),
                Role::Bob => (&s.b, &s.b_cache),
            }),
            Parties::One(v) if v.role == role => Some((&v.own, &v.cache)),
            Parties::One(_) => None,
        }
    }

    /// The peer metadata standing in for the given role's half, when
    /// that half is remote.
    fn peer_of(&self, role: Role) -> Option<&'a PeerInfo> {
        match self.parties {
            Parties::Both(_) => None,
            Parties::One(v) if v.role != role => Some(&v.peer),
            Parties::One(_) => None,
        }
    }

    /// `A` as a CSR matrix (cached conversion if it was built from
    /// bits); `None` when Alice's half is remote.
    #[must_use]
    pub fn a_csr(&self) -> Option<&'a CsrMatrix> {
        self.half(Role::Alice).map(|(h, c)| half_csr(h, c))
    }

    /// `B` as a CSR matrix; `None` when Bob's half is remote.
    #[must_use]
    pub fn b_csr(&self) -> Option<&'a CsrMatrix> {
        self.half(Role::Bob).map(|(h, c)| half_csr(h, c))
    }

    /// The local halves as CSR matrices, by side.
    #[must_use]
    pub fn csr_halves(&self) -> (Option<&'a CsrMatrix>, Option<&'a CsrMatrix>) {
        (self.a_csr(), self.b_csr())
    }

    /// The local halves as bit matrices, validating that *both* sides of
    /// the pair are binary (a remote half is checked against the peer's
    /// announced binariness, which the net handshake cross-checks).
    ///
    /// # Errors
    ///
    /// Fails if either side has non-binary entries.
    pub fn bit_halves(&self) -> Result<(Option<&'a BitMatrix>, Option<&'a BitMatrix>), CommError> {
        let side = |role: Role| match self.half(role) {
            Some((h, c)) => half_bits(h, c, role.half_label()).map(Some),
            None => match self.peer_of(role) {
                Some(peer) if peer.binary() => Ok(None),
                _ => Err(non_binary_half(role.half_label())),
            },
        };
        let a = side(Role::Alice)?;
        let b = side(Role::Bob)?;
        Ok((a, b))
    }

    /// Whether *both* halves of the pair are binary (content-wise); a
    /// remote half answers with the peer's announced binariness.
    #[must_use]
    pub fn pair_binary(&self) -> bool {
        Role::BOTH.iter().all(|&role| match self.half(role) {
            Some((h, c)) => half_is_binary(h, c),
            None => self.peer_of(role).is_some_and(PeerInfo::binary),
        })
    }

    /// The sketch memo store of whichever parties back this context —
    /// the [`Session`]'s for a full pair, the [`PartyView`]'s for a
    /// storage-split role. Protocol phases consult it for public-coin
    /// sketch matrices keyed by fully derived seeds (see
    /// [`crate::sketchcache`]); the engine's batch prewarm fills it via
    /// fused multi-seed kernel passes.
    pub(crate) fn sketch_cache(&self) -> &'a SketchCache {
        match self.parties {
            Parties::Both(s) => &s.sketches,
            Parties::One(v) => &v.sketches,
        }
    }

    /// Cached CSR transpose of `A`, when local.
    #[must_use]
    pub fn a_transpose(&self) -> Option<&'a CsrMatrix> {
        self.half(Role::Alice)
            .map(|(h, c)| c.transpose.get_or_init(|| half_csr(h, c).transpose()))
    }

    /// Cached CSR transpose of `B`, when local.
    #[must_use]
    pub fn b_transpose(&self) -> Option<&'a CsrMatrix> {
        self.half(Role::Bob)
            .map(|(h, c)| c.transpose.get_or_init(|| half_csr(h, c).transpose()))
    }

    /// Cached per-column absolute sums of `A`, when local.
    #[must_use]
    pub fn a_col_abs_sums(&self) -> Option<&'a [i64]> {
        self.half(Role::Alice).map(|(h, c)| {
            c.col_abs
                .get_or_init(|| half_csr(h, c).col_abs_sums())
                .as_slice()
        })
    }

    /// Cached per-row absolute sums of `B`, when local.
    #[must_use]
    pub fn b_row_abs_sums(&self) -> Option<&'a [i64]> {
        self.half(Role::Bob).map(|(h, c)| {
            c.row_abs
                .get_or_init(|| half_csr(h, c).row_abs_sums())
                .as_slice()
        })
    }

    /// Cached per-column support sizes of `A`, when local.
    #[must_use]
    pub fn a_col_nnz(&self) -> Option<&'a [u32]> {
        self.half(Role::Alice).map(|(h, c)| {
            c.col_nnz
                .get_or_init(|| half_csr(h, c).col_nnz())
                .as_slice()
        })
    }

    /// Cached per-row support sizes of `B`, when local.
    #[must_use]
    pub fn b_row_nnz(&self) -> Option<&'a [u32]> {
        self.half(Role::Bob).map(|(h, c)| {
            c.row_nnz
                .get_or_init(|| half_csr(h, c).row_nnz())
                .as_slice()
        })
    }
}

/// Borrows a session-cached view when present, otherwise computes and
/// owns a local one — the single implementation of the reuse contract
/// every protocol threads through its phases.
pub(crate) fn cached_or<'a, T: Clone>(
    pre: Option<&'a T>,
    make: impl FnOnce() -> T,
) -> std::borrow::Cow<'a, T> {
    match pre {
        Some(t) => std::borrow::Cow::Borrowed(t),
        None => std::borrow::Cow::Owned(make()),
    }
}

/// Precomputed derived views a protocol may reuse instead of
/// recomputing. All fields are optional; `Reuse::default()` (the legacy
/// one-shot path) recomputes everything locally, and each
/// `Protocol::execute` fills in only the views that protocol actually
/// reads (so a session never materializes tables no query needs).
/// Every view is a pure function of the input pair, so reuse never
/// changes outputs or transcripts.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Reuse<'a> {
    /// CSR view of `A` (for protocols whose primary input is binary).
    pub a_csr: Option<&'a CsrMatrix>,
    /// CSR view of `B`.
    pub b_csr: Option<&'a CsrMatrix>,
    /// CSR transpose of `A`.
    pub a_t: Option<&'a CsrMatrix>,
    /// CSR transpose of `B`.
    pub b_t: Option<&'a CsrMatrix>,
    /// Per-column absolute sums of `A`.
    pub a_col_abs: Option<&'a [i64]>,
    /// Per-row absolute sums of `B`.
    pub b_row_abs: Option<&'a [i64]>,
    /// Per-column support sizes of `A`.
    pub a_col_nnz: Option<&'a [u32]>,
    /// Per-row support sizes of `B`.
    pub b_row_nnz: Option<&'a [u32]>,
    /// Session-scoped memo store for public-coin sketch matrices.
    pub sketches: Option<&'a SketchCache>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpest_matrix::Workloads;

    #[test]
    fn dimension_mismatch_surfaces_on_query_not_construction() {
        let a = CsrMatrix::zeros(4, 5);
        let b = CsrMatrix::zeros(6, 4);
        let s = Session::new(a, b);
        let err = s.run(&crate::ExactL1, &()).unwrap_err();
        assert!(matches!(err, CommError::Protocol(_)));
    }

    #[test]
    fn mixed_representations_share_views() {
        let bits = Workloads::bernoulli_bits(8, 12, 0.4, 1);
        let csr = Workloads::bernoulli_bits(12, 8, 0.4, 2).to_csr();
        let s = Session::new(bits.clone(), csr.clone());
        let ctx = SessionCtx {
            parties: Parties::Both(&s),
            seed: Seed(0),
            exec: Exec::Backend(ExecBackend::default()),
        };
        let (a_csr, b_csr) = ctx.csr_halves();
        assert_eq!(a_csr.unwrap(), &bits.to_csr());
        assert_eq!(b_csr.unwrap(), &csr);
        let (a_bits, b_bits) = ctx.bit_halves().unwrap();
        assert_eq!(a_bits.unwrap(), &bits);
        assert_eq!(b_bits.unwrap(), &BitMatrix::from_csr(&csr));
        assert!(ctx.pair_binary());
        assert_eq!(ctx.role(), None);
        let dims = ctx.dims();
        assert_eq!((dims.a_rows, dims.inner, dims.b_cols), (8, 12, 8));
        // Cached views are pointer-stable across calls.
        assert!(std::ptr::eq(
            ctx.a_transpose().unwrap(),
            ctx.a_transpose().unwrap()
        ));
        assert!(std::ptr::eq(
            ctx.csr_halves().0.unwrap(),
            ctx.csr_halves().0.unwrap()
        ));
    }

    #[test]
    fn non_binary_half_rejects_bit_view() {
        let a = CsrMatrix::from_triplets(2, 2, vec![(0, 0, 3)]);
        let b = CsrMatrix::from_triplets(2, 2, vec![(1, 1, 1)]);
        let s = Session::new(a, b);
        let ctx = SessionCtx {
            parties: Parties::Both(&s),
            seed: Seed(0),
            exec: Exec::Backend(ExecBackend::default()),
        };
        let err = ctx.bit_halves().unwrap_err();
        assert!(err.to_string().contains("non-binary"));
        assert!(!ctx.pair_binary());
    }

    #[test]
    fn exact_references_match_centralized_ground_truth() {
        let a = Workloads::bernoulli_bits(12, 16, 0.3, 5);
        let b = Workloads::bernoulli_bits(16, 12, 0.3, 6);
        let c = a.to_csr().matmul(&b.to_csr());
        let s = Session::new(a, b);
        assert_eq!(s.exact_product().unwrap(), &c);
        // Cached: pointer-stable across calls.
        assert!(std::ptr::eq(
            s.exact_product().unwrap(),
            s.exact_product().unwrap()
        ));
        for p in [
            mpest_matrix::PNorm::Zero,
            mpest_matrix::PNorm::ONE,
            mpest_matrix::PNorm::TWO,
        ] {
            assert_eq!(
                s.exact_lp_pow(p).unwrap(),
                mpest_matrix::norms::csr_lp_pow(&c, p)
            );
        }
        assert_eq!(s.exact_linf().unwrap(), mpest_matrix::norms::csr_linf(&c));
        let hh = s
            .exact_heavy_hitters(mpest_matrix::PNorm::ONE, 0.01)
            .unwrap();
        assert!(hh.windows(2).all(|w| w[0] < w[1]), "sorted and deduped");

        // A dimension mismatch surfaces instead of panicking.
        let bad = Session::new(CsrMatrix::zeros(3, 4), CsrMatrix::zeros(5, 3));
        assert!(bad.exact_product().is_err());
    }

    /// Asserts every derived view of `s` equals the one a fresh session
    /// over the same (CSR) content computes — including the lazy ones,
    /// by forcing both sides.
    fn assert_views_match_fresh(s: &Session) {
        let (a, b) = s.csr_halves().unwrap();
        let fresh = Session::builder(a.clone(), b.clone())
            .seed(s.seed())
            .build();
        let ctx = s.ctx(Seed(0));
        let fctx = fresh.ctx(Seed(0));
        assert_eq!(ctx.csr_halves().0, fctx.csr_halves().0, "A csr");
        assert_eq!(ctx.csr_halves().1, fctx.csr_halves().1, "B csr");
        assert_eq!(ctx.a_transpose(), fctx.a_transpose(), "A transpose");
        assert_eq!(ctx.b_transpose(), fctx.b_transpose(), "B transpose");
        assert_eq!(ctx.a_col_abs_sums(), fctx.a_col_abs_sums(), "A col abs");
        assert_eq!(ctx.b_row_abs_sums(), fctx.b_row_abs_sums(), "B row abs");
        assert_eq!(ctx.a_col_nnz(), fctx.a_col_nnz(), "A col nnz");
        assert_eq!(ctx.b_row_nnz(), fctx.b_row_nnz(), "B row nnz");
        assert_eq!(
            ctx.bit_halves().ok().map(|(x, y)| (x.cloned(), y.cloned())),
            fctx.bit_halves()
                .ok()
                .map(|(x, y)| (x.cloned(), y.cloned())),
            "bit views"
        );
        assert_eq!(
            s.exact_product().unwrap(),
            fresh.exact_product().unwrap(),
            "exact product"
        );
    }

    fn warm_all_views(s: &Session) {
        let ctx = s.ctx(Seed(0));
        let _ = ctx.csr_halves();
        let _ = ctx.bit_halves();
        let _ = (ctx.a_transpose(), ctx.b_transpose());
        let _ = (ctx.a_col_abs_sums(), ctx.b_row_abs_sums());
        let _ = (ctx.a_col_nnz(), ctx.b_row_nnz());
        let _ = s.exact_product();
    }

    #[test]
    fn updates_maintain_warmed_views_bit_identically() {
        use crate::stream::{UpdateBatch, UpdateSide};
        let a = Workloads::bernoulli_bits(10, 14, 0.3, 3).to_csr();
        let b = Workloads::bernoulli_bits(14, 10, 0.3, 4).to_csr();
        let mut s = Session::builder(a, b).seed(Seed(5)).build();
        warm_all_views(&s);
        assert_eq!(s.epoch(), 0);
        let batch = UpdateBatch::new()
            .append_row(UpdateSide::Alice, vec![(3, 1), (9, 1), (3, 0)])
            .append_row(UpdateSide::Bob, vec![(0, 1), (13, 1)])
            .set_entry(UpdateSide::Alice, 10, 5, 7) // the freshly appended row
            .set_entry(UpdateSide::Bob, 2, 10, 2)
            .delete_entry(UpdateSide::Alice, 10, 3)
            .set_entry(UpdateSide::Alice, 0, 0, 0);
        assert_eq!(s.apply_update(&batch).unwrap(), 1);
        assert_views_match_fresh(&s);
        // Second batch over the already-maintained views.
        let batch2 = UpdateBatch::new()
            .set_entry(UpdateSide::Alice, 10, 5, 1) // restore binariness
            .delete_entry(UpdateSide::Bob, 2, 10);
        assert_eq!(s.apply_update(&batch2).unwrap(), 2);
        assert_views_match_fresh(&s);
    }

    #[test]
    fn updates_maintain_bit_matrix_sessions() {
        use crate::stream::{UpdateBatch, UpdateSide};
        let a = Workloads::bernoulli_bits(8, 12, 0.4, 7);
        let b = Workloads::bernoulli_bits(12, 8, 0.4, 8);
        let mut s = Session::new(a, b);
        warm_all_views(&s);
        let batch = UpdateBatch::new()
            .append_row(UpdateSide::Alice, vec![(0, 1), (11, 1)])
            .append_row(UpdateSide::Bob, vec![(5, 1)])
            .set_entry(UpdateSide::Alice, 8, 3, 1)
            .delete_entry(UpdateSide::Bob, 5, 8);
        s.apply_update(&batch).unwrap();
        // The bit halves must stay bit views; compare via CSR canon.
        assert_views_match_fresh(&s);
        let ctx = s.ctx(Seed(0));
        assert!(ctx.bit_halves().is_ok());
    }

    #[test]
    fn party_views_carry_the_session_epoch() {
        use crate::stream::{UpdateBatch, UpdateSide};
        let a = Workloads::bernoulli_bits(8, 12, 0.4, 7);
        let b = Workloads::bernoulli_bits(12, 8, 0.4, 8);
        let mut s = Session::new(a, b);
        let batch = UpdateBatch::new()
            .set_entry(UpdateSide::Alice, 0, 0, 1)
            .delete_entry(UpdateSide::Bob, 5, 3);
        s.apply_update(&batch).unwrap();
        s.apply_update(&batch).unwrap();
        for role in [Role::Alice, Role::Bob] {
            assert_eq!(s.party_view(role).epoch(), s.epoch(), "{role}");
        }
    }

    #[test]
    fn invalid_batches_leave_the_session_untouched() {
        use crate::stream::{UpdateBatch, UpdateSide};
        let a = Workloads::bernoulli_bits(6, 6, 0.5, 1);
        let b = Workloads::bernoulli_bits(6, 6, 0.5, 2).to_csr();
        let mut s = Session::new(a, b);
        warm_all_views(&s);
        let before = s.csr_halves().map(|(x, y)| (x.clone(), y.clone())).unwrap();

        // Out-of-range entry — second op fails, first must not apply.
        let bad = UpdateBatch::new()
            .set_entry(UpdateSide::Bob, 0, 0, 9)
            .set_entry(UpdateSide::Alice, 99, 0, 1);
        let err = s.apply_update(&bad).unwrap_err();
        assert!(err.to_string().contains("op 1"), "{err}");

        // Non-binary value into the bit half.
        let bad = UpdateBatch::new().set_entry(UpdateSide::Alice, 0, 0, 3);
        let err = s.apply_update(&bad).unwrap_err();
        assert!(err.to_string().contains("bit-matrix A"), "{err}");

        // Duplicate append entries summing past 1 on the bit half.
        let bad = UpdateBatch::new().append_row(UpdateSide::Alice, vec![(2, 1), (2, 1)]);
        let err = s.apply_update(&bad).unwrap_err();
        assert!(err.to_string().contains("non-binary"), "{err}");

        // Append index outside the inner dimension.
        let bad = UpdateBatch::new().append_row(UpdateSide::Bob, vec![(6, 1)]);
        let err = s.apply_update(&bad).unwrap_err();
        assert!(err.to_string().contains("inner dimension"), "{err}");

        assert_eq!(s.epoch(), 0, "failed batches must not bump the epoch");
        let after = s.csr_halves().map(|(x, y)| (x.clone(), y.clone())).unwrap();
        assert_eq!(before, after);
    }

    #[test]
    fn engine_updates_require_exclusive_ownership() {
        use crate::stream::{UpdateBatch, UpdateSide};
        let a = Workloads::bernoulli_bits(6, 6, 0.5, 1).to_csr();
        let b = Workloads::bernoulli_bits(6, 6, 0.5, 2).to_csr();
        let mut eng = crate::Engine::new(Session::new(a, b));
        let batch = UpdateBatch::new().set_entry(UpdateSide::Alice, 0, 0, 4);
        assert_eq!(eng.apply_update(&batch).unwrap(), 1);
        assert_eq!(eng.session().epoch(), 1);
        let clone = eng.clone();
        let err = eng.apply_update(&batch).unwrap_err();
        assert!(err.to_string().contains("shared session"), "{err}");
        drop(clone);
        assert_eq!(eng.apply_update(&batch).unwrap(), 2);
    }

    #[test]
    fn derived_seeds_are_distinct_and_deterministic() {
        let a = Workloads::bernoulli_bits(4, 4, 0.5, 1).to_csr();
        let b = Workloads::bernoulli_bits(4, 4, 0.5, 2).to_csr();
        let s = Session::builder(a, b).seed(Seed(9)).build();
        assert_eq!(s.query_seed(0), s.query_seed(0));
        assert_ne!(s.query_seed(0), s.query_seed(1));
        assert_eq!(s.queries_issued(), 0);
        let _ = s.run(&crate::ExactL1, &()).unwrap();
        let _ = s.run(&crate::ExactL1, &()).unwrap();
        assert_eq!(s.queries_issued(), 2);
    }
}
