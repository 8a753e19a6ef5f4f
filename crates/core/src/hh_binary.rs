//! Section 5.2 / Theorem 5.3: `ℓp`-(φ, ε) heavy hitters of `AB` for
//! **binary** matrices in `O(1)` rounds and `Õ(n + φ/ε²)` bits.
//!
//! The binary structure buys a big saving over Algorithm 4: instead of
//! recovering a thinned product with sparse multiplication
//! (`Õ(√φ/ε · n)`), the protocol
//!
//! 1. 2-approximates `L_p = ‖C‖_p` with an Algorithm 1 sub-phase (`Õ(n)`);
//! 2. *universe-samples* the inner dimension at rate
//!    `β = min(α/(φ^{1/p} L_p), 1)` and runs the Algorithm 2 min-side
//!    exchange on the surviving items only, giving additive shares
//!    `C_A + C_B = C'` with every `φ`-heavy entry still carrying
//!    `Ω̃(1)` surviving witnesses;
//! 3. collects candidates — entries whose *share* clears
//!    `β·(φ/20)^{1/p} L_p` on either side — and verifies each by
//!    public-coin coordinate sampling (`Õ((φ/ε)²)` bits per candidate,
//!    `Õ(1/φ)` candidates), falling back to exact verification when the
//!    sample budget reaches the dimension.
//!
//! ```
//! use mpest_comm::Seed;
//! use mpest_core::hh_binary::HhBinaryParams;
//! use mpest_core::{HhBinary, Session};
//! use mpest_matrix::{norms, PNorm, Workloads};
//!
//! let (a, b, _) = Workloads::planted_pairs(32, 64, 0.05, &[(3, 7)], 40, 1);
//! let c = a.to_csr().matmul(&b.to_csr());
//! let phi = (c.get(3, 7) as f64 - 6.0) / norms::csr_lp_pow(&c, PNorm::ONE);
//! let params = HhBinaryParams::new(1.0, phi, phi / 2.0);
//! let run = Session::new(a, b).run_seeded(&HhBinary, &params, Seed(4)).unwrap();
//! assert!(run.output.contains(3, 7), "the planted heavy pair is reported");
//! ```

use crate::config::{check_phi_eps, Constants};
use crate::exact_l1;
use crate::exchange::{exchange_alice, exchange_bob, ExchangeCfg};
use crate::lp_norm::{self, LpParams};
use crate::protocol::Protocol;
use crate::result::{HeavyHitters, HhPair, ProtocolRun};
use crate::session::{cached_or, ProductDims, Reuse, SessionCtx};
use crate::wire::{WBits, WPositions};
use mpest_comm::{execute_split, CommError, Exec, Seed};
use mpest_matrix::{BitMatrix, PNorm};
use mpest_sketch::CoordinateSampler;

/// Parameters of the binary heavy-hitter protocol.
#[derive(Debug, Clone, Copy)]
pub struct HhBinaryParams {
    /// The norm exponent `p ∈ (0, 2]`.
    pub p: f64,
    /// Heavy-hitter threshold `φ`.
    pub phi: f64,
    /// Approximation slack `ε` (`0 < ε ≤ φ ≤ 1`).
    pub eps: f64,
    /// Protocol constants.
    pub consts: Constants,
}

impl HhBinaryParams {
    /// Convenience constructor with default constants.
    #[must_use]
    pub fn new(p: f64, phi: f64, eps: f64) -> Self {
        Self {
            p,
            phi,
            eps,
            consts: Constants::default(),
        }
    }

    fn validate(&self) -> Result<(), CommError> {
        check_phi_eps(self.phi, self.eps)?;
        if !(self.p > 0.0 && self.p <= 2.0) {
            return Err(CommError::protocol(format!(
                "heavy hitters support p in (0, 2], got {}",
                self.p
            )));
        }
        Ok(())
    }
}

/// The Section 5.2 / Theorem 5.3 protocol as a [`Protocol`]:
/// `(φ, ε)`-heavy hitters for binary matrices in `O(1)` rounds and
/// `Õ(n + φ/ε²)` bits.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HhBinary;

impl Protocol for HhBinary {
    type Params = HhBinaryParams;
    type Output = HeavyHitters;

    fn name(&self) -> &'static str {
        "hh-binary"
    }

    fn execute(
        &self,
        ctx: &SessionCtx<'_>,
        params: &HhBinaryParams,
    ) -> Result<ProtocolRun<HeavyHitters>, CommError> {
        let (a, b) = ctx.bit_halves()?;
        let (a_csr, b_csr) = ctx.csr_halves();
        let reuse = Reuse {
            a_csr,
            b_csr,
            ..Reuse::default()
        };
        run_unchecked(a, b, ctx.dims(), params, ctx.seed(), reuse, ctx.executor())
    }
}

/// The phase-4 verification sampler, or `None` to verify exactly.
///
/// Coordinate sampling estimates a candidate's overlap as
/// `hits · inner / t`, so its *resolution* is `inner / t`. The Chernoff
/// mean target `hh_mean_const · (φ/ε)² · ln(cells)` alone is blind to
/// that: a threshold-sized entry carries `τ = (φ·L_p^p)^{1/p}` surviving
/// witnesses, and a budget `t` only sees `t·τ/inner` of them in
/// expectation. When `τ` is small (an at-least-`T` join with tiny `T`,
/// say), a budget below `inner/τ · mean-target` has granularity coarser
/// than the `[φ−ε, φ]` acceptance gap and mandatory pairs get dropped
/// wholesale — the statistical-guarantee harness caught exactly that
/// regression shape. Scaling the budget by `inner/τ` restores the
/// mean-hits target; once it reaches `inner`, exact verification is
/// cheaper anyway.
///
/// Both parties call this with the same public-coin seed and the same
/// phase-1 estimate, so they construct identical samplers.
fn verification_sampler(
    inner: usize,
    cells: f64,
    params: &HhBinaryParams,
    lp_pow: f64,
    coord_seed: u64,
) -> Option<CoordinateSampler> {
    let mean_target = params.consts.hh_mean_const * (params.phi / params.eps).powi(2) * cells.ln();
    let tau = (params.phi * lp_pow.max(0.0)).powf(1.0 / params.p).max(1.0);
    let t_budget = (mean_target * inner as f64 / tau).ceil();
    if t_budget >= inner as f64 {
        None
    } else {
        Some(CoordinateSampler::new(
            inner,
            (t_budget as usize).max(1),
            coord_seed,
        ))
    }
}

#[allow(clippy::too_many_lines)]
pub(crate) fn run_unchecked(
    a: Option<&BitMatrix>,
    b: Option<&BitMatrix>,
    dims: ProductDims,
    params: &HhBinaryParams,
    seed: Seed,
    reuse: Reuse<'_>,
    exec: Exec<'_>,
) -> Result<ProtocolRun<HeavyHitters>, CommError> {
    params.validate()?;
    let pub_seed = seed.derive("public");
    let alice_seed = seed.derive("alice");
    let p = params.p;
    let cells = (dims.a_rows * dims.b_cols).max(2) as f64;
    let inner = dims.inner;
    let b_cols = dims.b_cols;
    let out_rows = dims.a_rows;
    let lp_params = LpParams {
        p: PNorm::P(p),
        eps: 1.0 / 3.0,
        consts: params.consts,
        beta_override: None,
    };
    // Universe sampling is public-coin (equivalent to the paper's
    // Alice-side sampling up to Newman's theorem).
    let universe_seed = pub_seed.derive("hh-universe");
    // The verification sampler is public-coin too, but its budget
    // depends on the phase-1 `Lp` estimate, so each party constructs it
    // (identically) once that estimate is known.
    let coord_seed = pub_seed.derive("hh-coords").0;
    // For p = 1 the 2-approximation of step 1 comes for free from the
    // exact Remark 2 exchange (binary matrices are non-negative); other p
    // use an Algorithm 1 sub-phase at accuracy 1/3.
    let exact_p1 = (p - 1.0).abs() < 1e-12;
    let base: u16 = if exact_p1 { 1 } else { 3 };
    let cfg = ExchangeCfg {
        round: base + 1,
        binary: true,
        out_rows,
        out_cols: b_cols,
        inner_dim: inner,
    };

    // The CSR views feed the exact-`ℓ1` / Algorithm 1 sub-phases; a
    // session caches them across queries. Each process derives only the
    // view of the half it holds.
    let a_csr = a.map(|a| cached_or(reuse.a_csr, || a.to_csr()));
    let b_csr = b.map(|b| cached_or(reuse.b_csr, || b.to_csr()));

    let outcome = execute_split(
        exec,
        a.zip(a_csr.as_deref()),
        b.zip(b_csr.as_deref()),
        |link, (a, a_csr): (&BitMatrix, &mpest_matrix::CsrMatrix)| {
            // Phase 1: 2-approximate Lp.
            let lp_pow: f64 = if exact_p1 {
                exact_l1::exchange_alice(link, 0, a_csr)? as f64
            } else {
                lp_norm::alice_phase(
                    link,
                    0,
                    a_csr,
                    b_cols,
                    &lp_params,
                    pub_seed.derive("hh-lp"),
                    alice_seed.derive("hh-lp"),
                )?;
                link.recv("hhb-lp-estimate")?
            };
            let coord = verification_sampler(inner, cells, params, lp_pow, coord_seed);
            let lp_norm_est = lp_pow.max(0.0).powf(1.0 / p);
            let beta = if lp_norm_est <= 0.0 {
                1.0
            } else {
                ((params.consts.alpha_const * cells.ln()).powf(1.0 / p)
                    / (params.phi.powf(1.0 / p) * lp_norm_est))
                    .min(1.0)
            };
            let survivors: Vec<u32> = (0..inner as u32)
                .filter(|&j| universe_seed.unit_at(u64::from(j)) < beta)
                .collect();
            // Phase 2: weights for surviving items, then min-side lists.
            let at = a.transpose();
            let mut u = vec![0u32; inner];
            for &j in &survivors {
                u[j as usize] = at.row_ones(j as usize);
            }
            let v64: Vec<u64> = link.exchange(
                base,
                "hhb-weights",
                &u.iter().map(|&x| u64::from(x)).collect::<Vec<u64>>(),
            )?;
            let v: Vec<u32> = v64.iter().map(|&x| x as u32).collect();
            if v.len() != inner {
                return Err(CommError::protocol("weight length mismatch".to_string()));
            }
            let ca = exchange_alice(link, cfg, &survivors, &u, &v, |k| {
                at.row_indices(k as usize).map(|i| (i, 1i64)).collect()
            })?;
            // Phase 3: candidates from Alice's share. The threshold is a
            // quarter of a heavy entry's expected surviving mass
            // `β·(φ·L_p^p)^{1/p}` — same asymptotics as the paper's
            // `β^p·φL^p/20`, but a constant that actually prunes at
            // laptop scale.
            let tau_cand = beta * params.phi.powf(1.0 / p) * lp_norm_est / 4.0;
            let sa: Vec<(u32, u32)> = ca
                .into_entries()
                .into_iter()
                .filter(|&(_, _, val)| val as f64 >= tau_cand)
                .map(|(r, c, _)| (r, c))
                .collect();
            link.send(
                base + 2,
                "hhb-candidates-a",
                &WPositions {
                    rows: out_rows as u64,
                    cols: b_cols as u64,
                    pos: sa,
                },
            )?;
            let union: WPositions = link.recv("hhb-candidates-union")?;
            // Phase 4: verification bits for each candidate row.
            let mut bits = Vec::new();
            match &coord {
                Some(c) => {
                    for &(i, _) in &union.pos {
                        for &k in c.coords() {
                            bits.push(a.get(i as usize, k as usize));
                        }
                    }
                }
                None => {
                    for &(i, _) in &union.pos {
                        for k in 0..inner {
                            bits.push(a.get(i as usize, k));
                        }
                    }
                }
            }
            link.send(base + 4, "hhb-verify-bits", &WBits(bits))?;
            Ok(())
        },
        |link, (b, b_csr): (&BitMatrix, &mpest_matrix::CsrMatrix)| {
            let lp_pow: f64 = if exact_p1 {
                exact_l1::exchange_bob(link, 0, b_csr)? as f64
            } else {
                let est =
                    lp_norm::bob_phase(link, 0, b_csr, &lp_params, pub_seed.derive("hh-lp"), None)?;
                link.send(2, "hhb-lp-estimate", &est)?;
                est
            };
            let coord = verification_sampler(inner, cells, params, lp_pow, coord_seed);
            let lp_norm_est = lp_pow.max(0.0).powf(1.0 / p);
            let beta = if lp_norm_est <= 0.0 {
                1.0
            } else {
                ((params.consts.alpha_const * cells.ln()).powf(1.0 / p)
                    / (params.phi.powf(1.0 / p) * lp_norm_est))
                    .min(1.0)
            };
            let survivors: Vec<u32> = (0..inner as u32)
                .filter(|&j| universe_seed.unit_at(u64::from(j)) < beta)
                .collect();
            let mut v = vec![0u32; inner];
            for &j in &survivors {
                v[j as usize] = b.row_ones(j as usize);
            }
            let u64s: Vec<u64> = link.exchange(
                base,
                "hhb-weights",
                &v.iter().map(|&x| u64::from(x)).collect::<Vec<u64>>(),
            )?;
            let u: Vec<u32> = u64s.iter().map(|&x| x as u32).collect();
            if u.len() != inner {
                return Err(CommError::protocol("weight length mismatch".to_string()));
            }
            let cb = exchange_bob(link, cfg, &survivors, &u, &v, |k| {
                b.row_indices(k as usize).map(|c| (c, 1i64)).collect()
            })?;
            let tau_cand = beta * params.phi.powf(1.0 / p) * lp_norm_est / 4.0;
            let sa: WPositions = link.recv("hhb-candidates-a")?;
            let mut union: Vec<(u32, u32)> = sa.pos;
            for (r, c, val) in cb.into_entries() {
                if val as f64 >= tau_cand {
                    union.push((r, c));
                }
            }
            union.sort_unstable();
            union.dedup();
            link.send(
                base + 3,
                "hhb-candidates-union",
                &WPositions {
                    rows: out_rows as u64,
                    cols: b_cols as u64,
                    pos: union.clone(),
                },
            )?;
            let bits: WBits = link.recv("hhb-verify-bits")?;
            let per = coord.as_ref().map_or(inner, CoordinateSampler::len);
            if bits.0.len() != union.len() * per {
                return Err(CommError::protocol(
                    "verification bits length mismatch".to_string(),
                ));
            }
            // Verify and threshold.
            let tau_out = ((params.phi - params.eps / 2.0).max(0.0) * lp_pow).powf(1.0 / p);
            let mut pairs = Vec::new();
            for (c_idx, &(i, j)) in union.iter().enumerate() {
                let chunk = &bits.0[c_idx * per..(c_idx + 1) * per];
                let est = match &coord {
                    Some(cs) => {
                        let hits = cs
                            .coords()
                            .iter()
                            .zip(chunk.iter())
                            .filter(|(&k, &bit)| bit && b.get(k as usize, j as usize))
                            .count() as u64;
                        cs.estimate(hits)
                    }
                    None => chunk
                        .iter()
                        .enumerate()
                        .filter(|&(k, &bit)| bit && b.get(k, j as usize))
                        .count() as f64,
                };
                if est >= tau_out {
                    pairs.push(HhPair {
                        row: i,
                        col: j,
                        estimate: est,
                    });
                }
            }
            Ok(HeavyHitters { pairs })
        },
    )?;
    Ok(ProtocolRun {
        output: outcome.bob,
        transcript: outcome.transcript,
    })
}

/// Parameters of the [`AtLeastTJoin`] protocol.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AtLeastTParams {
    /// Overlap threshold `T` (pairs with `|A_i ∩ B_j| ≥ T` are reported).
    pub t: u32,
    /// Tolerance band: pairs in `[T·(1−slack), T)` may also appear.
    pub slack: f64,
}

/// The at-least-`T` join as a [`Protocol`]: report the pairs of the
/// product with value at least `T` (paper Section 4.3 application).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AtLeastTJoin;

impl Protocol for AtLeastTJoin {
    type Params = AtLeastTParams;
    type Output = HeavyHitters;

    fn name(&self) -> &'static str {
        "at-least-t-join"
    }

    fn execute(
        &self,
        ctx: &SessionCtx<'_>,
        params: &AtLeastTParams,
    ) -> Result<ProtocolRun<HeavyHitters>, CommError> {
        let (a, b) = ctx.bit_halves()?;
        let (a_csr, b_csr) = ctx.csr_halves();
        let reuse = Reuse {
            a_csr,
            b_csr,
            a_col_abs: ctx.a_col_abs_sums(),
            b_row_abs: ctx.b_row_abs_sums(),
            ..Reuse::default()
        };
        at_least_t_join_unchecked(a, b, ctx.dims(), params, ctx.seed(), reuse, ctx.executor())
    }
}

fn at_least_t_join_unchecked(
    a: Option<&BitMatrix>,
    b: Option<&BitMatrix>,
    dims: ProductDims,
    params: &AtLeastTParams,
    seed: Seed,
    reuse: Reuse<'_>,
    exec: Exec<'_>,
) -> Result<ProtocolRun<HeavyHitters>, CommError> {
    let AtLeastTParams { t, slack } = *params;
    if t == 0 {
        return Err(CommError::protocol(
            "threshold T must be positive".to_string(),
        ));
    }
    if !(slack > 0.0 && slack <= 1.0) {
        return Err(CommError::protocol("slack must lie in (0, 1]".to_string()));
    }
    let a_csr = a.map(|a| cached_or(reuse.a_csr, || a.to_csr()));
    let b_csr = b.map(|b| cached_or(reuse.b_csr, || b.to_csr()));
    // One extra exact-l1 round prices phi; its transcript is absorbed.
    // Both ends learn the exact total (remote runs resolve outputs on
    // both sides), so the derived phi is identical across processes.
    let l1_run =
        crate::exact_l1::run_unchecked(a_csr.as_deref(), b_csr.as_deref(), seed, reuse, exec)?;
    let l1 = l1_run.output as f64;
    if l1 <= 0.0 || f64::from(t) > l1 {
        return Ok(ProtocolRun {
            output: HeavyHitters::default(),
            transcript: l1_run.transcript,
        });
    }
    let phi = (f64::from(t) / l1).min(1.0);
    let eps = (phi * slack).min(phi);
    let mut run = run_unchecked(
        a,
        b,
        dims,
        &HhBinaryParams::new(1.0, phi, eps),
        seed,
        Reuse {
            a_csr: a_csr.as_deref(),
            b_csr: b_csr.as_deref(),
            ..Reuse::default()
        },
        exec,
    )?;
    let mut transcript = l1_run.transcript;
    transcript.absorb_sequential(run.transcript);
    run.transcript = transcript;
    Ok(run)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpest_matrix::{norms, stats, Workloads};

    fn run(
        a: &BitMatrix,
        b: &BitMatrix,
        params: &HhBinaryParams,
        seed: Seed,
    ) -> Result<ProtocolRun<HeavyHitters>, CommError> {
        crate::Session::new(a.clone(), b.clone()).run_seeded(&HhBinary, params, seed)
    }

    fn at_least_t_join(
        a: &BitMatrix,
        b: &BitMatrix,
        t: u32,
        slack: f64,
        seed: Seed,
    ) -> Result<ProtocolRun<HeavyHitters>, CommError> {
        crate::Session::new(a.clone(), b.clone()).run_seeded(
            &AtLeastTJoin,
            &AtLeastTParams { t, slack },
            seed,
        )
    }

    fn planted_setup(
        n: usize,
        u: usize,
        overlap: usize,
        seed: u64,
    ) -> (BitMatrix, BitMatrix, Vec<(u32, u32)>, f64) {
        let (a, b, planted) = Workloads::planted_pairs(n, u, 0.05, &[(3, 7)], overlap, seed);
        let c = a.to_csr().matmul(&b.to_csr());
        let l1 = norms::csr_lp_pow(&c, PNorm::ONE);
        let phi = ((overlap as f64 - 8.0) / l1).min(0.9);
        (a, b, planted, phi)
    }

    #[test]
    fn containment_p1() {
        let (a, b, planted, phi) = planted_setup(32, 64, 40, 1);
        let params = HhBinaryParams::new(1.0, phi, (phi / 2.0).min(0.4));
        let (ac, bc) = (a.to_csr(), b.to_csr());
        let must = stats::heavy_hitters_of_product(&ac, &bc, PNorm::ONE, phi);
        let may = stats::heavy_hitters_of_product(&ac, &bc, PNorm::ONE, phi - params.eps);
        let mut ok = 0;
        for t in 0..9 {
            let run = run(&a, &b, &params, Seed(100 + t)).unwrap();
            let got = run.output.positions();
            let contains_must = must.iter().all(|pos| got.contains(pos));
            let within_may = got.iter().all(|pos| may.contains(pos));
            if contains_must && within_may {
                ok += 1;
            }
            for &(i, j) in &planted {
                assert!(
                    run.output.contains(i, j) || !must.contains(&(i, j)),
                    "planted heavy ({i},{j}) missing at seed {t}"
                );
            }
        }
        assert!(ok >= 6, "binary HH containment failed too often: {ok}/9");
    }

    #[test]
    fn cheaper_than_general_protocol() {
        // The point of Theorem 5.3: binary inputs cost Õ(n + φ/ε²),
        // beating Algorithm 4's Õ(√φ/ε · n) on the same instance.
        let (a, b, _, phi) = planted_setup(48, 96, 64, 3);
        let eps = (phi / 2.0).min(0.4);
        let run_bin = run(&a, &b, &HhBinaryParams::new(1.0, phi, eps), Seed(5)).unwrap();
        let run_gen = crate::Session::new(a.to_csr(), b.to_csr())
            .run_seeded(
                &crate::HhGeneral,
                &crate::hh_general::HhGeneralParams::new(1.0, phi, eps),
                Seed(5),
            )
            .unwrap();
        assert!(
            run_bin.bits() < run_gen.bits() * 3,
            "binary {} vs general {} bits",
            run_bin.bits(),
            run_gen.bits()
        );
    }

    #[test]
    fn empty_product() {
        let (a, b) = Workloads::disjoint_supports(16, 32, 0.3, 7);
        let params = HhBinaryParams::new(1.0, 0.5, 0.25);
        let run = run(&a, &b, &params, Seed(2)).unwrap();
        assert!(run.output.pairs.is_empty());
    }

    #[test]
    fn p2_variant() {
        let (a, b, planted) = Workloads::planted_pairs(24, 48, 0.05, &[(2, 4)], 36, 9);
        let c = a.to_csr().matmul(&b.to_csr());
        let l2 = norms::csr_lp_pow(&c, PNorm::TWO);
        let phi = ((30.0f64 * 30.0) / l2).min(0.9);
        let params = HhBinaryParams::new(2.0, phi, (phi / 2.0).min(phi));
        let mut hit = 0;
        for t in 0..9 {
            let run = run(&a, &b, &params, Seed(400 + t)).unwrap();
            if planted.iter().all(|&(i, j)| run.output.contains(i, j)) {
                hit += 1;
            }
        }
        assert!(hit >= 6, "p=2 planted recovery {hit}/9");
    }

    #[test]
    fn constant_rounds() {
        let (a, b, _, phi) = planted_setup(24, 48, 30, 11);
        let params = HhBinaryParams::new(1.0, phi.max(0.05), (phi / 2.0).clamp(0.02, 0.4));
        let run = run(&a, &b, &params, Seed(8)).unwrap();
        assert!(run.rounds() <= 8, "rounds {} not O(1)-small", run.rounds());
    }

    #[test]
    fn rejects_invalid() {
        let a = BitMatrix::zeros(4, 4);
        let b = BitMatrix::zeros(4, 4);
        assert!(run(&a, &b, &HhBinaryParams::new(1.0, 0.1, 0.2), Seed(0)).is_err());
        assert!(run(&a, &b, &HhBinaryParams::new(0.0, 0.5, 0.2), Seed(0)).is_err());
    }

    #[test]
    fn at_least_t_join_finds_threshold_pairs() {
        let (a, b, planted) = Workloads::planted_pairs(32, 64, 0.04, &[(5, 9)], 40, 21);
        let c = a.to_csr().matmul(&b.to_csr());
        let t = (c.get(5, 9) - 6).max(1) as u32;
        let mut hit = 0;
        for s in 0..7 {
            let run = at_least_t_join(&a, &b, t, 0.5, Seed(800 + s)).unwrap();
            // Every reported pair is genuinely near-threshold.
            for p in &run.output.pairs {
                assert!(
                    c.get(p.row as usize, p.col) as f64 >= f64::from(t) * 0.4,
                    "reported pair far below threshold"
                );
            }
            if planted.iter().all(|&(i, j)| run.output.contains(i, j)) {
                hit += 1;
            }
        }
        assert!(hit >= 5, "at-least-T join missed planted pair: {hit}/7");
    }

    #[test]
    fn at_least_t_join_edge_cases() {
        let a = BitMatrix::zeros(8, 8);
        let b = BitMatrix::zeros(8, 8);
        // Zero product: empty result, no error.
        let run = at_least_t_join(&a, &b, 3, 0.5, Seed(0)).unwrap();
        assert!(run.output.pairs.is_empty());
        // Bad parameters.
        assert!(at_least_t_join(&a, &b, 0, 0.5, Seed(0)).is_err());
        assert!(at_least_t_join(&a, &b, 3, 0.0, Seed(0)).is_err());
        // Threshold above the total mass: trivially empty.
        let (a, b) = (
            Workloads::bernoulli_bits(8, 8, 0.2, 1),
            Workloads::bernoulli_bits(8, 8, 0.2, 2),
        );
        let run = at_least_t_join(&a, &b, 1_000_000, 0.5, Seed(1)).unwrap();
        assert!(run.output.pairs.is_empty());
    }
}
