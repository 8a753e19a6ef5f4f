//! Theorems 4.5–4.6: the SUM problem, its hard distributions, and the
//! block-replicated input reduction.
//!
//! The hierarchy (paper Section 4.2.2):
//!
//! * `ν₁` / `µ₁` — distributions on a single AND coordinate: under `ν₁`
//!   the pair is non-intersecting (one side set with probability `β`);
//!   under `µ₁` it is `(0,0)` or `(1,1)` with probability `1/2` each;
//! * `ν_k` / `µ_k` — `k`-coordinate DISJ instances: `ν_k` is i.i.d.
//!   `ν₁`; `µ_k` plants one `µ₁` coordinate at a uniform position `M`;
//! * `φ` — `n` DISJ instances with one planted `µ_k` block at a uniform
//!   `D ∈ [n]`, so `SUM(U, V) = Σ_i DISJ(U_i, V_i) ∈ {0, 1}` with equal
//!   probability.
//!
//! The reduction `ψ` replicates the `n × k` input `n/k` times into
//! `n × n` matrices: `A = [A¹ … A^{n/k}]` with every `Aᶻ` having rows
//! `U_i`, and `B = [B¹; …; B^{n/k}]` with columns `V_j`. Then
//! `(AB)_{i,j} = (n/k)·⟨U_i, V_j⟩`: if `SUM = 1` the planted pair gives
//! `‖AB‖∞ ≥ n/k`, while the paper's Lemma 4.7 claims that if `SUM = 0`
//! every entry is at most `≈ 2β²n` w.h.p., yielding a `2κ` gap for
//! `β = √(50 ln n / n)`, `k = 1/(4κβ²)`.
//!
//! **Reproduction finding.** The `SUM = 0` bound holds for *diagonal*
//! pairs `(i, i)` (those are genuine `ν_k` DISJ instances, whose inner
//! product is exactly 0), but *cross* pairs `(i, j)`, `i ≠ j`, intersect
//! with probability `≈ β²k/4 = Θ(1/κ)` each — and any intersection is
//! amplified by the replication factor `n/k` to the same magnitude as
//! the planted signal. With `n²` cross pairs, `‖AB‖∞ ≥ n/k` occurs under
//! `SUM = 0` as well (empirically: always, at every scale we ran). The
//! Chernoff step in Lemma 4.7 treats the `n` coordinates of a replicated
//! row as independent, which the replication breaks. The *diagonal* gap
//! — `max_i (AB)_{ii} ≥ n/k` iff `SUM = 1` — is exact and is what
//! [`SumInstance::diag_max`] exposes; experiment F9 of `mpest-bench`
//! reports both statistics.

use mpest_matrix::BitMatrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Parameters of the SUM construction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SumParams {
    /// Number of DISJ instances (`n` in the paper).
    pub n: usize,
    /// Target approximation factor `κ` the instance defeats.
    pub kappa: f64,
    /// The `β` density constant (`β = √(beta_const · ln n / n)`; the
    /// paper uses `beta_const = 50`, which needs `n ≳ 300` to keep
    /// `β < 1` — smaller values keep laptop-scale instances meaningful).
    pub beta_const: f64,
}

impl SumParams {
    /// Paper-faithful parameters.
    #[must_use]
    pub fn paper(n: usize, kappa: f64) -> Self {
        Self {
            n,
            kappa,
            beta_const: 50.0,
        }
    }

    /// Laptop-scale parameters.
    #[must_use]
    pub fn practical(n: usize, kappa: f64) -> Self {
        Self {
            n,
            kappa,
            beta_const: 2.0,
        }
    }

    /// The coordinate density `β`.
    #[must_use]
    pub fn beta(&self) -> f64 {
        (self.beta_const * (self.n.max(2) as f64).ln() / self.n as f64)
            .sqrt()
            .min(0.49)
    }

    /// The DISJ block length `k = 1/(4κβ²)`, clamped to `[1, n]`.
    #[must_use]
    pub fn k(&self) -> usize {
        let b = self.beta();
        ((1.0 / (4.0 * self.kappa * b * b)).floor() as usize).clamp(1, self.n)
    }
}

/// A sampled SUM instance: `n` pairs of `k`-bit strings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SumInstance {
    /// Alice's strings `U_1..U_n`.
    pub u: Vec<Vec<bool>>,
    /// Bob's strings `V_1..V_n`.
    pub v: Vec<Vec<bool>>,
    /// The planted DISJ index `D` (where `µ_k` was used).
    pub planted_block: usize,
    /// The planted coordinate `M` within block `D`.
    pub planted_coord: usize,
}

impl SumInstance {
    /// Samples `(U, V) ~ φ`.
    #[must_use]
    pub fn sample(params: &SumParams, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let beta = params.beta();
        let k = params.k();
        let n = params.n;
        // nu_1 coordinate: never intersecting; one side set w.p. beta.
        let nu1 = |rng: &mut StdRng| -> (bool, bool) {
            let w = rng.gen::<bool>();
            if rng.gen::<f64>() < beta {
                if w {
                    (true, false)
                } else {
                    (false, true)
                }
            } else {
                (false, false)
            }
        };
        let mut u = Vec::with_capacity(n);
        let mut v = Vec::with_capacity(n);
        for _ in 0..n {
            let mut ui = Vec::with_capacity(k);
            let mut vi = Vec::with_capacity(k);
            for _ in 0..k {
                let (a, b) = nu1(&mut rng);
                ui.push(a);
                vi.push(b);
            }
            u.push(ui);
            v.push(vi);
        }
        // Plant the mu_k block: coordinate M of block D redrawn from mu_1.
        let d = rng.gen_range(0..n);
        let m = rng.gen_range(0..k);
        let both = rng.gen::<bool>();
        u[d][m] = both;
        v[d][m] = both;
        Self {
            u,
            v,
            planted_block: d,
            planted_coord: m,
        }
    }

    /// Ground truth `SUM(U, V) = Σ_i DISJ(U_i, V_i)`.
    #[must_use]
    pub fn sum(&self) -> usize {
        self.u
            .iter()
            .zip(self.v.iter())
            .filter(|(ui, vi)| ui.iter().zip(vi.iter()).any(|(&a, &b)| a && b))
            .count()
    }

    /// The input reduction `ψ`: Alice's `n × (k·⌊n/k⌋)` matrix with block
    /// `z` having rows `U_i`.
    #[must_use]
    pub fn matrix_a(&self) -> BitMatrix {
        let n = self.u.len();
        let k = self.u[0].len();
        let reps = (n / k).max(1);
        let mut a = BitMatrix::zeros(n, k * reps);
        for (i, ui) in self.u.iter().enumerate() {
            for z in 0..reps {
                for (t, &bit) in ui.iter().enumerate() {
                    if bit {
                        a.set(i, z * k + t, true);
                    }
                }
            }
        }
        a
    }

    /// Bob's `(k·⌊n/k⌋) × n` matrix with block `z` having columns `V_j`.
    #[must_use]
    pub fn matrix_b(&self) -> BitMatrix {
        let n = self.v.len();
        let k = self.v[0].len();
        let reps = (n / k).max(1);
        let mut b = BitMatrix::zeros(k * reps, n);
        for (j, vj) in self.v.iter().enumerate() {
            for z in 0..reps {
                for (t, &bit) in vj.iter().enumerate() {
                    if bit {
                        b.set(z * k + t, j, true);
                    }
                }
            }
        }
        b
    }

    /// Replication factor `⌊n/k⌋` (the `SUM = 1` lower bound on `‖AB‖∞`).
    #[must_use]
    pub fn replication(&self) -> usize {
        (self.u.len() / self.u[0].len()).max(1)
    }

    /// The maximum *diagonal* entry of `AB` divided by the replication
    /// factor — i.e. `max_i ⟨U_i, V_i⟩`. Exactly `≥ 1` iff `SUM = 1`
    /// (see the module docs on why the diagonal carries the clean gap).
    #[must_use]
    pub fn diag_max(&self) -> usize {
        self.u
            .iter()
            .zip(self.v.iter())
            .map(|(ui, vi)| ui.iter().zip(vi.iter()).filter(|(&a, &b)| a && b).count())
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpest_matrix::stats;

    #[test]
    fn params_scaling() {
        let p = SumParams::practical(256, 2.0);
        let beta = p.beta();
        assert!(beta > 0.0 && beta < 0.5);
        let k = p.k();
        assert!((1..=256).contains(&k));
        // Larger kappa -> smaller k.
        let p4 = SumParams { kappa: 8.0, ..p };
        assert!(p4.k() <= k);
        // Paper parameters exist even if clamped at small n.
        let paper = SumParams::paper(64, 2.0);
        assert!(paper.beta() <= 0.49);
    }

    #[test]
    fn sum_is_zero_or_one() {
        let params = SumParams::practical(128, 2.0);
        let mut counts = [0usize; 2];
        for seed in 0..60 {
            let inst = SumInstance::sample(&params, seed);
            let s = inst.sum();
            assert!(s <= 1, "nu_1 coordinates never intersect, so SUM <= 1");
            counts[s] += 1;
        }
        // mu_1 plants an intersection with probability 1/2.
        assert!(counts[0] >= 15 && counts[1] >= 15, "counts {counts:?}");
    }

    #[test]
    fn product_entries_are_replicated_inner_products() {
        let params = SumParams::practical(64, 2.0);
        let inst = SumInstance::sample(&params, 7);
        let a = inst.matrix_a();
        let b = inst.matrix_b();
        let c = a.matmul(&b);
        let reps = inst.replication() as i64;
        for i in (0..64).step_by(17) {
            for j in (0..64).step_by(13) {
                let ip = inst.u[i]
                    .iter()
                    .zip(inst.v[j].iter())
                    .filter(|(&x, &y)| x && y)
                    .count() as i64;
                assert_eq!(c.get(i, j), reps * ip, "entry ({i},{j})");
            }
        }
    }

    #[test]
    fn diagonal_gap_is_exact() {
        // The clean gap of the construction (see module docs): the
        // diagonal of AB separates SUM=1 from SUM=0 exactly.
        let params = SumParams::practical(128, 2.0);
        let mut saw = [false; 2];
        for seed in 0..40 {
            let inst = SumInstance::sample(&params, seed);
            let s = inst.sum();
            saw[s] = true;
            if s == 1 {
                assert!(inst.diag_max() >= 1);
                let (linf, _) = stats::linf_of_product_binary(&inst.matrix_a(), &inst.matrix_b());
                assert!(linf >= inst.replication() as i64, "SUM=1 linf below n/k");
            } else {
                assert_eq!(inst.diag_max(), 0, "SUM=0 diagonal must vanish");
            }
        }
        assert!(saw[0] && saw[1]);
    }

    #[test]
    fn cross_pair_contamination_is_real() {
        // Reproduction finding (module docs): under SUM=0 the *global*
        // linf still reaches n/k because cross pairs intersect. Assert
        // the phenomenon so the documentation stays honest.
        let params = SumParams::practical(128, 2.0);
        let mut contaminated = 0usize;
        let mut zeros = 0usize;
        for seed in 0..30 {
            let inst = SumInstance::sample(&params, seed);
            if inst.sum() == 0 {
                zeros += 1;
                let (linf, _) = stats::linf_of_product_binary(&inst.matrix_a(), &inst.matrix_b());
                if linf >= inst.replication() as i64 {
                    contaminated += 1;
                }
            }
        }
        assert!(zeros > 5, "need SUM=0 samples");
        assert!(
            contaminated * 2 >= zeros,
            "expected cross-pair contamination in most SUM=0 draws ({contaminated}/{zeros})"
        );
    }

    #[test]
    fn planted_coordinate_recorded() {
        let params = SumParams::practical(64, 4.0);
        for seed in 0..10 {
            let inst = SumInstance::sample(&params, seed);
            let d = inst.planted_block;
            let m = inst.planted_coord;
            // If SUM = 1, the planted coordinate is the witness.
            if inst.sum() == 1 {
                assert!(inst.u[d][m] && inst.v[d][m]);
            }
        }
    }
}
