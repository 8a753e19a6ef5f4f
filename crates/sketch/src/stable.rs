//! Sampling from symmetric α-stable distributions and the median
//! calibration used by Indyk's `ℓp` sketch.
//!
//! The Chambers–Mallows–Stuck (CMS) transform turns two uniforms into a
//! standard symmetric `p`-stable variate for any `p ∈ (0, 2]`. Indyk's
//! estimator divides the sample median of `|⟨s_i, x⟩|` by the median of
//! `|Stable(p)|`; the latter has no closed form for general `p`, so we
//! calibrate it once per `p` by seeded Monte-Carlo. For `p = 1` (Cauchy)
//! the median is exactly 1.

use parking_lot_free::OnceCache;

/// Standard normal via Box–Muller (uses both uniforms, returns one value).
#[inline]
#[must_use]
pub fn gaussian(u1: f64, u2: f64) -> f64 {
    let r = (-2.0 * (1.0 - u1).max(f64::MIN_POSITIVE).ln()).sqrt();
    r * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Standard Cauchy from a single uniform.
#[inline]
#[must_use]
pub fn cauchy(u: f64) -> f64 {
    (std::f64::consts::PI * (u - 0.5)).tan()
}

/// A standard symmetric `p`-stable variate from two uniforms (CMS).
///
/// # Panics
///
/// Panics if `p` is outside `(0, 2]`.
#[must_use]
pub fn stable(p: f64, u1: f64, u2: f64) -> f64 {
    assert!(p > 0.0 && p <= 2.0, "stability index out of range: {p}");
    if (p - 1.0).abs() < 1e-12 {
        return cauchy(u1);
    }
    if (p - 2.0).abs() < 1e-12 {
        // S(2) = sqrt(2) · N(0,1).
        return std::f64::consts::SQRT_2 * gaussian(u1, u2);
    }
    let theta = std::f64::consts::PI * (u1 - 0.5);
    let w = -(1.0 - u2).max(f64::MIN_POSITIVE).ln();
    let a = (p * theta).sin() / theta.cos().powf(1.0 / p);
    let b = (theta * (1.0 - p)).cos() / w;
    a * b.powf((1.0 - p) / p)
}

/// Median of `|Stable(p)|`, the Indyk estimator's scale constant.
///
/// Exact for `p = 1`; otherwise a seeded Monte-Carlo estimate with
/// 200 001 samples, cached per `p`.
#[must_use]
pub fn median_abs_stable(p: f64) -> f64 {
    assert!(p > 0.0 && p <= 2.0, "stability index out of range: {p}");
    if (p - 1.0).abs() < 1e-12 {
        return 1.0;
    }
    CALIBRATION.get_or_compute(p, || calibrate_median(p))
}

fn calibrate_median(p: f64) -> f64 {
    use crate::hash::mix64;
    const N: usize = 200_001;
    let seed = 0xca11_b0a7_ed5e_ed00u64 ^ p.to_bits();
    let mut samples = Vec::with_capacity(N);
    for i in 0..N {
        let r1 = mix64(seed ^ (2 * i as u64 + 1));
        let r2 = mix64(seed ^ (2 * i as u64 + 2));
        let u1 = (r1 >> 11) as f64 / (1u64 << 53) as f64;
        let u2 = (r2 >> 11) as f64 / (1u64 << 53) as f64;
        samples.push(stable(p, u1, u2).abs());
    }
    samples.sort_by(f64::total_cmp);
    samples[N / 2]
}

/// A tiny lock-free-ish cache keyed by the bits of `p`. Kept local to
/// avoid dragging a dependency into this hot path; contention is nil
/// (calibration happens once per distinct `p`).
mod parking_lot_free {
    use std::sync::Mutex;

    #[derive(Debug, Default)]
    pub struct OnceCache {
        inner: Mutex<Vec<(u64, f64)>>,
    }

    impl OnceCache {
        pub const fn new() -> Self {
            Self {
                inner: Mutex::new(Vec::new()),
            }
        }

        pub fn get_or_compute(&self, p: f64, compute: impl FnOnce() -> f64) -> f64 {
            let key = p.to_bits();
            {
                let guard = self.inner.lock().expect("calibration cache poisoned");
                if let Some(&(_, v)) = guard.iter().find(|&&(k, _)| k == key) {
                    return v;
                }
            }
            let v = compute();
            let mut guard = self.inner.lock().expect("calibration cache poisoned");
            if let Some(&(_, existing)) = guard.iter().find(|&&(k, _)| k == key) {
                return existing;
            }
            guard.push((key, v));
            v
        }
    }
}

static CALIBRATION: OnceCache = OnceCache::new();

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::mix64;

    fn units(seed: u64, n: usize) -> Vec<(f64, f64)> {
        (0..n)
            .map(|i| {
                let r1 = mix64(seed ^ (2 * i as u64 + 1));
                let r2 = mix64(seed ^ (2 * i as u64 + 2));
                (
                    (r1 >> 11) as f64 / (1u64 << 53) as f64,
                    (r2 >> 11) as f64 / (1u64 << 53) as f64,
                )
            })
            .collect()
    }

    #[test]
    fn gaussian_moments() {
        let us = units(1, 100_000);
        let xs: Vec<f64> = us.iter().map(|&(a, b)| gaussian(a, b)).collect();
        let mean: f64 = xs.iter().sum::<f64>() / xs.len() as f64;
        let var: f64 = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / xs.len() as f64;
        assert!(mean.abs() < 0.02, "gaussian mean {mean}");
        assert!((var - 1.0).abs() < 0.03, "gaussian var {var}");
    }

    #[test]
    fn cauchy_median_abs_is_one() {
        let us = units(2, 100_001);
        let mut xs: Vec<f64> = us.iter().map(|&(a, _)| cauchy(a).abs()).collect();
        xs.sort_by(f64::total_cmp);
        let med = xs[xs.len() / 2];
        assert!((med - 1.0).abs() < 0.02, "cauchy |median| {med}");
    }

    #[test]
    fn stable_2_matches_sqrt2_gaussian_variance() {
        let us = units(3, 100_000);
        let xs: Vec<f64> = us.iter().map(|&(a, b)| stable(2.0, a, b)).collect();
        let var: f64 = xs.iter().map(|x| x * x).sum::<f64>() / xs.len() as f64;
        assert!((var - 2.0).abs() < 0.06, "stable(2) variance {var}");
    }

    #[test]
    fn stable_scaling_property() {
        // If X, Y are iid p-stable then aX + bY ~ (a^p + b^p)^{1/p} X.
        // Check via medians of |·| for p = 0.5.
        let p = 0.5;
        let us = units(4, 60_001);
        let mut combo: Vec<f64> = us
            .chunks(2)
            .filter(|c| c.len() == 2)
            .map(|c| {
                let x = stable(p, c[0].0, c[0].1);
                let y = stable(p, c[1].0, c[1].1);
                (x + y).abs()
            })
            .collect();
        combo.sort_by(f64::total_cmp);
        let med_combo = combo[combo.len() / 2];
        // (1^p + 1^p)^{1/p} = 2^{1/0.5} = 4 for p = 0.5.
        let expected = 4.0 * median_abs_stable(p);
        assert!(
            (med_combo - expected).abs() / expected < 0.1,
            "stable scaling: median {med_combo}, expected {expected}"
        );
    }

    #[test]
    fn calibration_cached_and_sane() {
        let m1 = median_abs_stable(1.5);
        let m2 = median_abs_stable(1.5);
        assert_eq!(m1.to_bits(), m2.to_bits());
        assert!(m1 > 0.1 && m1 < 10.0, "calibration {m1}");
        assert_eq!(median_abs_stable(1.0), 1.0);
        // p=2: sqrt(2) * median|N(0,1)| ≈ 1.414 * 0.6745 ≈ 0.9539.
        let m = median_abs_stable(2.0);
        assert!((m - 0.9539).abs() < 0.02, "p=2 calibration {m}");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn stable_rejects_bad_p() {
        let _ = stable(2.5, 0.5, 0.5);
    }
}
