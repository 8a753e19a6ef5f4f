//! Lemma 2.5 (\[16\]): distributed sparse matrix multiplication — the
//! parties compute additive shares `C_A + C_B = A·B` in **2 rounds** and
//! `Õ(n·√‖AB‖₀)` bits.
//!
//! The protocol of \[16\] is not restated in the paper, so we implement the
//! min-side exchange that achieves the same interface and bound: round 1
//! exchanges per-item weights `(u_k, v_k)`; round 2
//! ships, for each inner index `k`, the lighter of Alice's column and
//! Bob's row, so each outer-product term is computed wholly by one party.
//! Cost: `Σ_k min(u_k, v_k) ≤ Σ_k √(u_k v_k) ≤ √(n · ‖C‖₁)`, and for
//! polynomially bounded entries `‖C‖₁ ≤ poly(n) · ‖C‖₀`, giving
//! `Õ(n √‖C‖₀)`.
//!
//! ```
//! use mpest_comm::Seed;
//! use mpest_matrix::Workloads;
//!
//! let a = Workloads::integer_csr(16, 20, 0.2, 5, true, 1);
//! let b = Workloads::integer_csr(20, 16, 0.2, 5, true, 2);
//! let run = mpest_core::Session::new(a.clone(), b.clone())
//!     .run_seeded(&mpest_core::SparseMatmul, &(), Seed(3))
//!     .unwrap();
//! // The additive shares reconstruct A·B exactly.
//! assert_eq!(run.output.reconstruct(16, 16), a.matmul(&b));
//! assert_eq!(run.rounds(), 2);
//! ```

use crate::exchange::{exchange_alice, exchange_bob, ExchangeCfg};
use crate::protocol::Protocol;
use crate::result::{ProductShares, ProtocolRun};
use crate::session::{cached_or, ProductDims, Reuse, SessionCtx};
use mpest_comm::{execute_split, CommError, Exec, Link, Seed};
use mpest_matrix::{Accumulator, CsrMatrix};

/// Alice's phases (rounds `base_round` and `base_round + 1`); returns her
/// share accumulator.
pub(crate) fn alice_phase(
    link: &Link<'_>,
    base_round: u16,
    a: &CsrMatrix,
    out_cols: usize,
    binary: bool,
) -> Result<Accumulator, CommError> {
    alice_phase_pre(link, base_round, a, out_cols, binary, None, None)
}

/// [`alice_phase`] with optional session-cached support table and
/// transpose (both pure functions of `a`, so reuse is message-neutral).
fn alice_phase_pre(
    link: &Link<'_>,
    base_round: u16,
    a: &CsrMatrix,
    out_cols: usize,
    binary: bool,
    pre_nnz: Option<&[u32]>,
    pre_t: Option<&CsrMatrix>,
) -> Result<Accumulator, CommError> {
    let u: std::borrow::Cow<'_, [u32]> = match pre_nnz {
        Some(nnz) => std::borrow::Cow::Borrowed(nnz),
        None => std::borrow::Cow::Owned(a.col_nnz()),
    };
    link.send(
        base_round,
        "sparse-mm-u",
        &u.iter().map(|&x| u64::from(x)).collect::<Vec<_>>(),
    )?;
    let v64: Vec<u64> = link.recv("sparse-mm-v")?;
    if v64.len() != u.len() {
        return Err(CommError::protocol(
            "weight vector length mismatch".to_string(),
        ));
    }
    let v: Vec<u32> = v64.iter().map(|&x| x as u32).collect();
    let at = cached_or(pre_t, || a.transpose());
    let items: Vec<u32> = (0..a.cols() as u32).collect();
    exchange_alice(
        link,
        ExchangeCfg {
            round: base_round + 1,
            binary,
            out_rows: a.rows(),
            out_cols,
            inner_dim: a.cols(),
        },
        &items,
        &u,
        &v,
        |k| at.row_vec(k as usize).entries,
    )
}

/// Bob's phases; returns his share accumulator.
pub(crate) fn bob_phase(
    link: &Link<'_>,
    base_round: u16,
    b: &CsrMatrix,
    out_rows: usize,
    binary: bool,
) -> Result<Accumulator, CommError> {
    bob_phase_pre(link, base_round, b, out_rows, binary, None)
}

/// [`bob_phase`] with an optional session-cached support table.
fn bob_phase_pre(
    link: &Link<'_>,
    base_round: u16,
    b: &CsrMatrix,
    out_rows: usize,
    binary: bool,
    pre_nnz: Option<&[u32]>,
) -> Result<Accumulator, CommError> {
    let v: std::borrow::Cow<'_, [u32]> = match pre_nnz {
        Some(nnz) => std::borrow::Cow::Borrowed(nnz),
        None => std::borrow::Cow::Owned(b.row_nnz()),
    };
    link.send(
        base_round,
        "sparse-mm-v",
        &v.iter().map(|&x| u64::from(x)).collect::<Vec<_>>(),
    )?;
    let u64s: Vec<u64> = link.recv("sparse-mm-u")?;
    if u64s.len() != v.len() {
        return Err(CommError::protocol(
            "weight vector length mismatch".to_string(),
        ));
    }
    let u: Vec<u32> = u64s.iter().map(|&x| x as u32).collect();
    let items: Vec<u32> = (0..b.rows() as u32).collect();
    exchange_bob(
        link,
        ExchangeCfg {
            round: base_round + 1,
            binary,
            out_rows,
            out_cols: b.cols(),
            inner_dim: b.rows(),
        },
        &items,
        &u,
        &v,
        |k| b.row_vec(k as usize).entries,
    )
}

/// The Lemma 2.5 protocol as a [`Protocol`]: additive shares
/// `C_A + C_B = A·B` in 2 rounds and `Õ(n√‖AB‖₀)` bits.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SparseMatmul;

impl Protocol for SparseMatmul {
    type Params = ();
    type Output = ProductShares;

    fn name(&self) -> &'static str {
        "sparse-matmul"
    }

    fn execute(
        &self,
        ctx: &SessionCtx<'_>,
        (): &(),
    ) -> Result<ProtocolRun<ProductShares>, CommError> {
        let (a, b) = ctx.csr_halves();
        let reuse = Reuse {
            a_t: ctx.a_transpose(),
            a_col_nnz: ctx.a_col_nnz(),
            b_row_nnz: ctx.b_row_nnz(),
            ..Reuse::default()
        };
        run_unchecked(
            a,
            b,
            ctx.dims(),
            ctx.pair_binary(),
            ctx.seed(),
            reuse,
            ctx.executor(),
        )
    }
}

pub(crate) fn run_unchecked(
    a: Option<&CsrMatrix>,
    b: Option<&CsrMatrix>,
    dims: ProductDims,
    binary: bool,
    seed: Seed,
    reuse: Reuse<'_>,
    exec: Exec<'_>,
) -> Result<ProtocolRun<ProductShares>, CommError> {
    let _ = seed; // deterministic protocol: no coins needed
    let out_rows = dims.a_rows;
    let out_cols = dims.b_cols;
    let outcome = execute_split(
        exec,
        a,
        b,
        |link, a| {
            alice_phase_pre(link, 0, a, out_cols, binary, reuse.a_col_nnz, reuse.a_t)
                .map(crate::wire::WAccum)
        },
        |link, b| {
            bob_phase_pre(link, 0, b, out_rows, binary, reuse.b_row_nnz).map(crate::wire::WAccum)
        },
    )?;
    Ok(ProtocolRun {
        output: ProductShares {
            alice: outcome.alice.0.into_entries(),
            bob: outcome.bob.0.into_entries(),
        },
        transcript: outcome.transcript,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpest_matrix::Workloads;

    fn run(
        a: &CsrMatrix,
        b: &CsrMatrix,
        seed: Seed,
    ) -> Result<ProtocolRun<ProductShares>, CommError> {
        crate::Session::new(a.clone(), b.clone()).run_seeded(&SparseMatmul, &(), seed)
    }

    #[test]
    fn exact_reconstruction_binary() {
        let a = Workloads::bernoulli_bits(30, 40, 0.15, 1).to_csr();
        let b = Workloads::bernoulli_bits(40, 30, 0.15, 2).to_csr();
        let run = run(&a, &b, Seed(1)).unwrap();
        assert_eq!(run.output.reconstruct(30, 30), a.matmul(&b));
        assert_eq!(run.rounds(), 2, "Lemma 2.5 is a 2-round protocol");
    }

    #[test]
    fn exact_reconstruction_integer_signed() {
        let a = Workloads::integer_csr(25, 30, 0.2, 7, true, 3);
        let b = Workloads::integer_csr(30, 25, 0.2, 7, true, 4);
        let run = run(&a, &b, Seed(2)).unwrap();
        assert_eq!(run.output.reconstruct(25, 25), a.matmul(&b));
    }

    #[test]
    fn cost_scales_with_sqrt_sparsity() {
        // Sweep output sparsity; bits should grow clearly sublinearly in s
        // (the n·sqrt(s) law is checked quantitatively in the bench
        // harness — here we sanity-check monotone sublinear growth).
        let n = 48;
        let mut results = Vec::new();
        for (avg, seed) in [(1.5, 10u64), (6.0, 11)] {
            let (a, b) = Workloads::sparse_pair(n, n, avg, seed);
            let (ac, bc) = (a.to_csr(), b.to_csr());
            let s = ac.matmul(&bc).nnz().max(1);
            let bits = run(&ac, &bc, Seed(seed)).unwrap().bits();
            results.push((s, bits));
        }
        let (s0, b0) = results[0];
        let (s1, b1) = results[1];
        assert!(s1 > s0, "workloads must differ in sparsity");
        let bit_ratio = b1 as f64 / b0 as f64;
        let s_ratio = s1 as f64 / s0 as f64;
        assert!(
            bit_ratio < s_ratio,
            "bits grew {bit_ratio:.2}x for {s_ratio:.2}x sparsity — not sublinear"
        );
    }

    #[test]
    fn zero_matrices() {
        let a = CsrMatrix::zeros(8, 8);
        let b = CsrMatrix::zeros(8, 8);
        let run = run(&a, &b, Seed(0)).unwrap();
        assert!(run.output.alice.is_empty());
        assert!(run.output.bob.is_empty());
    }

    #[test]
    fn rectangular_shapes() {
        let a = Workloads::integer_csr(10, 50, 0.2, 3, false, 5);
        let b = Workloads::integer_csr(50, 20, 0.2, 3, false, 6);
        let run = run(&a, &b, Seed(3)).unwrap();
        assert_eq!(run.output.reconstruct(10, 20), a.matmul(&b));
    }
}
