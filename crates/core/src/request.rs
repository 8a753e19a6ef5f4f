//! Uniform dynamic dispatch: [`EstimateRequest`] → [`EstimateReport`].
//!
//! Every protocol in the crate is reachable through one request enum, so
//! callers that don't know the protocol at compile time — CLIs, servers,
//! request queues, benchmark sweeps — get a single entry point with a
//! single report shape. A request is plain data: it can be built from
//! parsed flags, queued, routed to a shard holding the right
//! [`Session`], and executed there.
//!
//! ```
//! use mpest_core::{EstimateRequest, Session};
//! use mpest_comm::Seed;
//! use mpest_matrix::{PNorm, Workloads};
//!
//! let a = Workloads::bernoulli_bits(32, 48, 0.2, 1).to_csr();
//! let b = Workloads::bernoulli_bits(48, 32, 0.2, 2).to_csr();
//! let session = Session::builder(a, b).seed(Seed(3)).build();
//! let report = session
//!     .estimate(&EstimateRequest::LpNorm { p: PNorm::Zero, eps: 0.25 })
//!     .unwrap();
//! println!("{} ≈ {:.0} in {} bits", report.protocol, report.output.as_scalar().unwrap(), report.bits());
//! ```

use crate::hh_binary::{AtLeastTJoin, AtLeastTParams, HhBinary, HhBinaryParams};
use crate::hh_general::{HhGeneral, HhGeneralParams};
use crate::l0_sample::{L0Sample, L0SampleParams};
use crate::l1_sample::L1Sampling;
use crate::linf_binary::{LinfBinary, LinfBinaryParams};
use crate::linf_general::{LinfGeneral, LinfGeneralParams};
use crate::linf_kappa::{LinfKappa, LinfKappaParams};
use crate::lp_baseline::{BaselineParams, LpBaseline};
use crate::lp_norm::{LpNorm, LpParams};
use crate::result::{
    HeavyHitters, L1Sample, LinfEstimate, MatrixSample, ProductShares, ProtocolRun,
};
use crate::session::{run_on, Parties, PartyView, Session};
use crate::trivial::{ExactStats, TrivialBinary, TrivialCsr};
use crate::{exact_l1::ExactL1, sparse_matmul::SparseMatmul};
use mpest_comm::remote::{FrameIo, RemoteCtx};
use mpest_comm::{CommError, Exec, ExecBackend, Party, Seed, Transcript};
use mpest_matrix::PNorm;

/// A protocol invocation as plain data (dynamic-dispatch counterpart of
/// the typed [`Protocol`](crate::Protocol) interface). Requests use the
/// default [`Constants`](crate::Constants); use the typed interface for
/// custom constants.
#[derive(Debug, Clone, PartialEq)]
pub enum EstimateRequest {
    /// Algorithm 1: `(1±ε)·‖AB‖_p^p`, `p ∈ [0, 2]`.
    LpNorm {
        /// Which norm.
        p: PNorm,
        /// Multiplicative accuracy.
        eps: f64,
    },
    /// One-round \[16\]-style baseline for the same statistic.
    LpBaseline {
        /// Which norm.
        p: PNorm,
        /// Multiplicative accuracy.
        eps: f64,
    },
    /// Remark 2: exact `‖AB‖₁` (non-negative matrices).
    ExactL1,
    /// Remark 3: an `ℓ1`-sample with its join witness.
    L1Sample,
    /// Theorem 3.2: a `(1±ε)`-uniform support sample.
    L0Sample {
        /// Marginal accuracy of the column-size estimates.
        eps: f64,
    },
    /// Lemma 2.5: additive shares of `A·B`.
    SparseMatmul,
    /// Algorithm 2: `(2+ε)`-approximate `‖AB‖∞`, binary.
    LinfBinary {
        /// Approximation slack.
        eps: f64,
    },
    /// Algorithm 3: `κ`-approximate `‖AB‖∞`, binary.
    LinfKappa {
        /// Approximation factor.
        kappa: f64,
    },
    /// Theorem 4.8(1): `κ`-approximate `‖AB‖∞`, integer.
    LinfGeneral {
        /// Approximation factor.
        kappa: usize,
    },
    /// Algorithm 4: `(φ, ε)`-heavy hitters, non-negative integer.
    HhGeneral {
        /// Norm exponent `p ∈ (0, 2]`.
        p: f64,
        /// Heavy-hitter threshold.
        phi: f64,
        /// Tolerance (`0 < ε ≤ φ`).
        eps: f64,
    },
    /// Theorem 5.3: `(φ, ε)`-heavy hitters, binary.
    HhBinary {
        /// Norm exponent `p ∈ (0, 2]`.
        p: f64,
        /// Heavy-hitter threshold.
        phi: f64,
        /// Tolerance (`0 < ε ≤ φ`).
        eps: f64,
    },
    /// All pairs with `|A_i ∩ B_j| ≥ T` (binary).
    AtLeastTJoin {
        /// Overlap threshold.
        t: u32,
        /// Tolerance band fraction.
        slack: f64,
    },
    /// Trivial baseline: ship `A` as a bitmap, compute exactly.
    TrivialBinary,
    /// Trivial baseline: ship `A` as sparse rows, compute exactly.
    TrivialCsr,
}

impl EstimateRequest {
    /// One representative invocation of every protocol — all 14 entry
    /// points with moderate parameters. The single source the
    /// equivalence suites (`tests/batch_equivalence.rs`,
    /// `tests/executor_equivalence.rs`) and the executor trajectory
    /// bench sweep, so a new protocol is added to full coverage in one
    /// place.
    #[must_use]
    pub fn catalog() -> Vec<EstimateRequest> {
        vec![
            EstimateRequest::LpNorm {
                p: PNorm::Zero,
                eps: 0.3,
            },
            EstimateRequest::LpBaseline {
                p: PNorm::ONE,
                eps: 0.4,
            },
            EstimateRequest::ExactL1,
            EstimateRequest::L1Sample,
            EstimateRequest::L0Sample { eps: 0.3 },
            EstimateRequest::SparseMatmul,
            EstimateRequest::LinfBinary { eps: 0.3 },
            EstimateRequest::LinfKappa { kappa: 4.0 },
            EstimateRequest::LinfGeneral { kappa: 4 },
            EstimateRequest::HhGeneral {
                p: 1.0,
                phi: 0.05,
                eps: 0.02,
            },
            EstimateRequest::HhBinary {
                p: 1.0,
                phi: 0.05,
                eps: 0.02,
            },
            EstimateRequest::AtLeastTJoin { t: 2, slack: 0.5 },
            EstimateRequest::TrivialBinary,
            EstimateRequest::TrivialCsr,
        ]
    }

    /// Which party's function *produces* the protocol's output.
    ///
    /// Pure metadata about where the answer physically materializes
    /// in-protocol: `lp-baseline` decodes at Alice, `sparse-matmul`
    /// yields one additive share per party, everything else lands at
    /// Bob. Callers never have to care — every executor (including the
    /// remote one, via its post-protocol output exchange) returns the
    /// complete result — but deployments placing the output near its
    /// consumer, and cost analyses of that final hop, read it here.
    #[must_use]
    pub fn output_party(&self) -> OutputParty {
        match self {
            Self::LpBaseline { .. } => OutputParty::Alice,
            Self::SparseMatmul => OutputParty::Both,
            _ => OutputParty::Bob,
        }
    }

    /// The protocol's stable kebab-case name.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            Self::LpNorm { .. } => "lp",
            Self::LpBaseline { .. } => "lp-baseline",
            Self::ExactL1 => "exact-l1",
            Self::L1Sample => "l1-sample",
            Self::L0Sample { .. } => "l0-sample",
            Self::SparseMatmul => "sparse-matmul",
            Self::LinfBinary { .. } => "linf-binary",
            Self::LinfKappa { .. } => "linf-kappa",
            Self::LinfGeneral { .. } => "linf-general",
            Self::HhGeneral { .. } => "hh-general",
            Self::HhBinary { .. } => "hh-binary",
            Self::AtLeastTJoin { .. } => "at-least-t-join",
            Self::TrivialBinary => "trivial-binary",
            Self::TrivialCsr => "trivial-csr",
        }
    }
}

/// Where a protocol's output lands (see
/// [`EstimateRequest::output_party`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OutputParty {
    /// The output is produced at Alice.
    Alice,
    /// The output is produced at Bob.
    Bob,
    /// Each party produces its own half (additive shares).
    Both,
}

impl OutputParty {
    /// Whether the process playing `side` holds (part of) the output.
    #[must_use]
    pub fn includes(self, side: Party) -> bool {
        match self {
            OutputParty::Alice => side == Party::Alice,
            OutputParty::Bob => side == Party::Bob,
            OutputParty::Both => true,
        }
    }
}

/// Type-erased protocol output (one variant per output shape).
#[derive(Debug, Clone, PartialEq)]
pub enum AnyOutput {
    /// An `f64` estimate (`lp`, `lp-baseline`, `linf-general`).
    Scalar(f64),
    /// An exact integer count (`exact-l1`).
    Count(i128),
    /// A support sample (`l0-sample`).
    Sample(MatrixSample),
    /// An `ℓ1`-sample with witness (`l1-sample`); `None` iff `‖AB‖₁ = 0`.
    L1Sample(Option<L1Sample>),
    /// An `ℓ∞` estimate with diagnostics (`linf-binary`, `linf-kappa`).
    Linf(LinfEstimate),
    /// A heavy-hitter set (`hh-*`, `at-least-t-join`).
    HeavyHitters(HeavyHitters),
    /// Additive product shares (`sparse-matmul`).
    Shares(ProductShares),
    /// Exact statistics from a trivial transfer (`trivial-*`).
    Exact(ExactStats),
}

impl AnyOutput {
    /// The output as a scalar estimate, when it has a natural one.
    #[must_use]
    pub fn as_scalar(&self) -> Option<f64> {
        match self {
            Self::Scalar(v) => Some(*v),
            Self::Count(v) => Some(*v as f64),
            Self::Linf(e) => Some(e.estimate),
            _ => None,
        }
    }

    /// The heavy-hitter set, if this output carries one.
    #[must_use]
    pub fn as_heavy_hitters(&self) -> Option<&HeavyHitters> {
        match self {
            Self::HeavyHitters(hh) => Some(hh),
            _ => None,
        }
    }
}

/// The uniform result of a dynamically dispatched query: which protocol
/// ran, its type-erased output, and the full bit-exact transcript.
#[derive(Debug, Clone, PartialEq)]
pub struct EstimateReport {
    /// Name of the protocol that ran (see [`EstimateRequest::name`]).
    pub protocol: &'static str,
    /// The protocol's output.
    pub output: AnyOutput,
    /// Everything that crossed the wire.
    pub transcript: Transcript,
}

impl EstimateReport {
    /// Total bits exchanged.
    #[must_use]
    pub fn bits(&self) -> u64 {
        self.transcript.total_bits()
    }

    /// Rounds used.
    #[must_use]
    pub fn rounds(&self) -> u32 {
        self.transcript.rounds()
    }
}

fn report<T>(
    protocol: &'static str,
    run: ProtocolRun<T>,
    wrap: impl FnOnce(T) -> AnyOutput,
) -> EstimateReport {
    EstimateReport {
        protocol,
        output: wrap(run.output),
        transcript: run.transcript,
    }
}

impl Session {
    /// Executes a dynamically dispatched request under the next derived
    /// per-query seed.
    ///
    /// # Errors
    ///
    /// Same contract as [`Session::run`].
    pub fn estimate(&self, request: &EstimateRequest) -> Result<EstimateReport, CommError> {
        self.estimate_seeded(request, self.next_query_seed())
    }

    /// Executes a dynamically dispatched request under an explicit seed.
    ///
    /// # Errors
    ///
    /// Same contract as [`Session::run`].
    pub fn estimate_seeded(
        &self,
        request: &EstimateRequest,
        seed: Seed,
    ) -> Result<EstimateReport, CommError> {
        self.estimate_seeded_on(request, seed, self.executor())
    }

    /// Executes a dynamically dispatched request under an explicit seed
    /// *and* executor backend, overriding the session default for this
    /// query only. Outputs and transcripts are independent of the
    /// backend; only wall-clock differs.
    ///
    /// # Errors
    ///
    /// Same contract as [`Session::run`].
    pub fn estimate_seeded_on(
        &self,
        request: &EstimateRequest,
        seed: Seed,
        exec: ExecBackend,
    ) -> Result<EstimateReport, CommError> {
        estimate_on(Parties::Both(self), request, seed, Exec::Backend(exec))
    }
}

impl PartyView {
    /// Executes a dynamically dispatched request as **one party of a
    /// remote pair**: this process holds only this view's half and runs
    /// its role, and every message crosses the framed transport `io` to
    /// the peer process, which must call the same method for the
    /// complementary role with the same request and seed. The report is
    /// bit-identical to an in-process [`Session`] run over the assembled
    /// pair, on **both** processes — transcripts are reconstructed from
    /// frame headers, and the remote executor's post-protocol output
    /// exchange ships each party's output to its peer (outputs are
    /// `Wire` data; the exchange is billed to the transport's byte
    /// counters, never to the logical transcript).
    ///
    /// # Errors
    ///
    /// Same contract as [`Session::run`], plus transport-level
    /// [`CommError::Frame`] errors.
    pub fn estimate_remote(
        &self,
        request: &EstimateRequest,
        seed: Seed,
        io: &mut dyn FrameIo,
    ) -> Result<EstimateReport, CommError> {
        let rc = RemoteCtx::new(self.role(), io);
        estimate_on(Parties::One(self), request, seed, Exec::Remote(&rc))
    }
}

/// The one request → protocol dispatch table, shared by the full-pair
/// ([`Session`]) and storage-split ([`PartyView`]) entry points.
fn estimate_on<'r>(
    parties: Parties<'r>,
    request: &EstimateRequest,
    seed: Seed,
    exec: Exec<'r>,
) -> Result<EstimateReport, CommError> {
    let name = request.name();
    Ok(match *request {
        EstimateRequest::LpNorm { p, eps } => report(
            name,
            run_on(parties, &LpNorm, &LpParams::new(p, eps), seed, exec)?,
            AnyOutput::Scalar,
        ),
        EstimateRequest::LpBaseline { p, eps } => report(
            name,
            run_on(
                parties,
                &LpBaseline,
                &BaselineParams::new(p, eps),
                seed,
                exec,
            )?,
            AnyOutput::Scalar,
        ),
        EstimateRequest::ExactL1 => report(
            name,
            run_on(parties, &ExactL1, &(), seed, exec)?,
            AnyOutput::Count,
        ),
        EstimateRequest::L1Sample => report(
            name,
            run_on(parties, &L1Sampling, &(), seed, exec)?,
            AnyOutput::L1Sample,
        ),
        EstimateRequest::L0Sample { eps } => report(
            name,
            run_on(parties, &L0Sample, &L0SampleParams::new(eps), seed, exec)?,
            AnyOutput::Sample,
        ),
        EstimateRequest::SparseMatmul => report(
            name,
            run_on(parties, &SparseMatmul, &(), seed, exec)?,
            AnyOutput::Shares,
        ),
        EstimateRequest::LinfBinary { eps } => report(
            name,
            run_on(
                parties,
                &LinfBinary,
                &LinfBinaryParams::new(eps),
                seed,
                exec,
            )?,
            AnyOutput::Linf,
        ),
        EstimateRequest::LinfKappa { kappa } => report(
            name,
            run_on(
                parties,
                &LinfKappa,
                &LinfKappaParams::new(kappa),
                seed,
                exec,
            )?,
            AnyOutput::Linf,
        ),
        EstimateRequest::LinfGeneral { kappa } => report(
            name,
            run_on(
                parties,
                &LinfGeneral,
                &LinfGeneralParams::new(kappa),
                seed,
                exec,
            )?,
            AnyOutput::Scalar,
        ),
        EstimateRequest::HhGeneral { p, phi, eps } => report(
            name,
            run_on(
                parties,
                &HhGeneral,
                &HhGeneralParams::new(p, phi, eps),
                seed,
                exec,
            )?,
            AnyOutput::HeavyHitters,
        ),
        EstimateRequest::HhBinary { p, phi, eps } => report(
            name,
            run_on(
                parties,
                &HhBinary,
                &HhBinaryParams::new(p, phi, eps),
                seed,
                exec,
            )?,
            AnyOutput::HeavyHitters,
        ),
        EstimateRequest::AtLeastTJoin { t, slack } => report(
            name,
            run_on(
                parties,
                &AtLeastTJoin,
                &AtLeastTParams { t, slack },
                seed,
                exec,
            )?,
            AnyOutput::HeavyHitters,
        ),
        EstimateRequest::TrivialBinary => report(
            name,
            run_on(parties, &TrivialBinary, &(), seed, exec)?,
            AnyOutput::Exact,
        ),
        EstimateRequest::TrivialCsr => report(
            name,
            run_on(parties, &TrivialCsr, &(), seed, exec)?,
            AnyOutput::Exact,
        ),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpest_matrix::Workloads;

    fn session() -> Session {
        let a = Workloads::bernoulli_bits(20, 28, 0.3, 1);
        let b = Workloads::bernoulli_bits(28, 20, 0.3, 2);
        Session::builder(a, b).seed(Seed(11)).build()
    }

    #[test]
    fn every_request_variant_executes() {
        let s = session();
        let requests = [
            EstimateRequest::LpNorm {
                p: PNorm::Zero,
                eps: 0.3,
            },
            EstimateRequest::LpBaseline {
                p: PNorm::ONE,
                eps: 0.4,
            },
            EstimateRequest::ExactL1,
            EstimateRequest::L1Sample,
            EstimateRequest::L0Sample { eps: 0.3 },
            EstimateRequest::SparseMatmul,
            EstimateRequest::LinfBinary { eps: 0.3 },
            EstimateRequest::LinfKappa { kappa: 4.0 },
            EstimateRequest::LinfGeneral { kappa: 4 },
            EstimateRequest::HhGeneral {
                p: 1.0,
                phi: 0.05,
                eps: 0.02,
            },
            EstimateRequest::HhBinary {
                p: 1.0,
                phi: 0.05,
                eps: 0.02,
            },
            EstimateRequest::AtLeastTJoin { t: 2, slack: 0.5 },
            EstimateRequest::TrivialBinary,
            EstimateRequest::TrivialCsr,
        ];
        for req in &requests {
            let rep = s
                .estimate(req)
                .unwrap_or_else(|e| panic!("{} failed: {e}", req.name()));
            assert_eq!(rep.protocol, req.name());
            assert!(rep.rounds() >= 1, "{} reported no rounds", req.name());
            assert!(rep.bits() > 0, "{} reported no bits", req.name());
        }
        assert_eq!(s.queries_issued(), requests.len() as u64);
    }

    #[test]
    fn estimate_seeded_is_reproducible() {
        let s = session();
        let req = EstimateRequest::LpNorm {
            p: PNorm::ONE,
            eps: 0.25,
        };
        let r1 = s.estimate_seeded(&req, Seed(5)).unwrap();
        let r2 = s.estimate_seeded(&req, Seed(5)).unwrap();
        assert_eq!(r1, r2);
        assert_eq!(
            s.queries_issued(),
            0,
            "explicit seeds consume no derived seed"
        );
    }

    #[test]
    fn scalar_accessor_covers_scalar_shapes() {
        let s = session();
        let rep = s
            .estimate_seeded(&EstimateRequest::ExactL1, Seed(1))
            .unwrap();
        assert!(rep.output.as_scalar().unwrap() > 0.0);
        let rep = s
            .estimate_seeded(&EstimateRequest::SparseMatmul, Seed(1))
            .unwrap();
        assert!(rep.output.as_scalar().is_none());
        assert!(rep.output.as_heavy_hitters().is_none());
    }
}
