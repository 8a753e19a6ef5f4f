//! Tunable protocol constants.
//!
//! The paper uses safety constants like `10⁴ log n` chosen to make
//! union-bound arguments go through at any polynomial scale; running with
//! those constants at laptop scale would drown every instance in the
//! "no-subsampling" regime (all thresholds larger than the whole input).
//! [`Constants::practical`] (the default) scales them down so the
//! interesting code paths — subsampling levels, universe sampling,
//! recovery — are actually exercised, while [`Constants::paper_faithful`]
//! restores the paper's orders of magnitude for asymptotic audits.

/// Multiplicative constants and repetition counts shared by the protocols.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Constants {
    /// Algorithm 1: expected number of sampled rows is `rho_const / ε`.
    /// (Paper: `ρ = 10⁴/ε`.)
    pub rho_const: f64,
    /// Algorithm 2: stop subsampling once `‖Cˡ‖₁ ≤ γ · cells`, with
    /// `γ = gamma_const · ln(cells) / ε²`. (Paper: `γ = 10⁴ log n / ε²`.)
    pub gamma_const: f64,
    /// Algorithm 3 / Section 5.2: universe-sampling rate multiplier
    /// `α = alpha_const · ln(cells)`. (Paper: `α = 10⁴ log n`.)
    pub alpha_const: f64,
    /// Heavy hitters: the Chernoff mean target is
    /// `hh_mean_const · ln(cells) / δ²` for relative accuracy `δ` at the
    /// heavy-hitter threshold.
    pub hh_mean_const: f64,
    /// Repetition count standing in for `O(log(1/δ))` in sketch medians.
    pub sketch_reps: usize,
    /// Repetitions of the `ℓ0`-sampler's recovery structure.
    pub sampler_reps: usize,
}

impl Constants {
    /// Laptop-scale constants (default): small multipliers so subsampling
    /// and recovery paths activate on `n` in the hundreds.
    #[must_use]
    pub fn practical() -> Self {
        Self {
            rho_const: 24.0,
            gamma_const: 0.5,
            alpha_const: 2.0,
            hh_mean_const: 3.0,
            sketch_reps: 5,
            sampler_reps: 10,
        }
    }

    /// The paper's orders of magnitude (`10⁴`-scale multipliers). At
    /// laptop scale these put most instances in the "no subsampling
    /// needed" regime — correct, but exercising fewer code paths.
    #[must_use]
    pub fn paper_faithful() -> Self {
        Self {
            rho_const: 1e4,
            gamma_const: 1e4,
            alpha_const: 1e4,
            hh_mean_const: 1e4,
            sketch_reps: 17,
            sampler_reps: 24,
        }
    }
}

impl Default for Constants {
    fn default() -> Self {
        Self::practical()
    }
}

/// Validates an approximation parameter `ε ∈ (0, 1]`.
///
/// # Errors
///
/// Returns a protocol error when out of range.
pub fn check_eps(eps: f64) -> Result<(), mpest_comm::CommError> {
    if eps > 0.0 && eps <= 1.0 {
        Ok(())
    } else {
        Err(mpest_comm::CommError::protocol(format!(
            "epsilon must lie in (0, 1], got {eps}"
        )))
    }
}

/// Validates heavy-hitter parameters `0 < ε ≤ φ ≤ 1`.
///
/// # Errors
///
/// Returns a protocol error when out of range.
pub fn check_phi_eps(phi: f64, eps: f64) -> Result<(), mpest_comm::CommError> {
    if eps > 0.0 && eps <= phi && phi <= 1.0 {
        Ok(())
    } else {
        Err(mpest_comm::CommError::protocol(format!(
            "heavy-hitter parameters must satisfy 0 < eps <= phi <= 1, got phi={phi}, eps={eps}"
        )))
    }
}

/// Validates that inner dimensions agree for a product `A · B`.
///
/// # Errors
///
/// Returns a protocol error on mismatch.
pub fn check_dims(a_cols: usize, b_rows: usize) -> Result<(), mpest_comm::CommError> {
    if a_cols == b_rows {
        Ok(())
    } else {
        Err(mpest_comm::CommError::protocol(format!(
            "inner dimension mismatch: A has {a_cols} columns, B has {b_rows} rows"
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_differ() {
        let p = Constants::practical();
        let f = Constants::paper_faithful();
        assert!(f.gamma_const > p.gamma_const * 100.0);
        assert_eq!(Constants::default(), p);
    }

    #[test]
    fn eps_validation() {
        assert!(check_eps(0.5).is_ok());
        assert!(check_eps(1.0).is_ok());
        assert!(check_eps(0.0).is_err());
        assert!(check_eps(-0.1).is_err());
        assert!(check_eps(1.5).is_err());
    }

    #[test]
    fn phi_eps_validation() {
        assert!(check_phi_eps(0.2, 0.1).is_ok());
        assert!(check_phi_eps(0.2, 0.2).is_ok());
        assert!(check_phi_eps(0.1, 0.2).is_err());
        assert!(check_phi_eps(1.2, 0.1).is_err());
        assert!(check_phi_eps(0.5, 0.0).is_err());
    }

    #[test]
    fn dims_validation() {
        assert!(check_dims(5, 5).is_ok());
        assert!(check_dims(5, 6).is_err());
    }
}
