//! The benchmark's own arithmetic: medians, the tail-percentile rule,
//! failure shares and cost ratios. Pure functions, unit-tested below.

use std::collections::BTreeMap;

/// The percentiles a tail may be reported at, highest first.
const TAIL_LADDER: [f64; 5] = [99.0, 95.0, 90.0, 75.0, 50.0];

/// Samples that must lie strictly beyond a reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// The percentile of the steady tail. Fixed, so the figure never
/// changes meaning with the number of samples a run happens to reach.
pub const STEADY_PCT: f64 = 90.0;

/// Consecutive samples per block of the steady tail.
pub const TAIL_BLOCK: usize = 64;

/// Full blocks a sample needs before its steady tail is read block by
/// block.
pub const TAIL_MIN_BLOCKS: usize = 3;

/// The value at percentile `pct` (0..=100) of `sorted`, nearest rank.
///
/// # Panics
///
/// Panics on an empty slice.
#[must_use]
pub fn percentile(sorted: &[f64], pct: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (pct / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted samples (mean of the middle pair for even counts).
///
/// # Panics
///
/// Panics on an empty slice.
#[must_use]
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len().is_multiple_of(2) {
        (v[mid - 1] + v[mid]) / 2.0
    } else {
        v[mid]
    }
}

/// Geometric mean of positive values.
///
/// # Panics
///
/// Panics on an empty slice.
#[must_use]
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geometric mean of no values");
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Samples grouped by class, each group in arrival order.
#[must_use]
pub fn by_class<K: Ord + Copy>(samples: &[(K, f64)]) -> BTreeMap<K, Vec<f64>> {
    let mut groups: BTreeMap<K, Vec<f64>> = BTreeMap::new();
    for &(class, v) in samples {
        groups.entry(class).or_default().push(v);
    }
    groups
}

/// Each sample over its class's median, in arrival order, so classes of
/// very different cost share one scale.
#[must_use]
pub fn over_class_median<K: Ord + Copy>(
    samples: &[(K, f64)],
    medians: &BTreeMap<K, f64>,
) -> Vec<f64> {
    samples
        .iter()
        .map(|(class, v)| v / medians[class])
        .collect()
}

/// A tail latency: the value, the percentile it was taken at, and how
/// many samples lie beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The latency at `pct`.
    pub value: f64,
    /// The percentile chosen.
    pub pct: f64,
    /// Samples strictly above `pct`'s rank (in each block, when blocked).
    pub beyond: usize,
    /// Total samples.
    pub count: usize,
    /// Blocks the value is the median over (0: read off the whole sample).
    pub blocks: usize,
}

/// The highest ladder percentile that still leaves at least
/// [`TAIL_MIN_BEYOND`] samples beyond its rank, so the tail is never read
/// off a handful of outliers. Falls back to the median for tiny samples.
#[must_use]
pub fn tail_percentile(count: usize) -> (f64, usize) {
    for pct in TAIL_LADDER {
        let rank = (pct / 100.0 * count as f64).ceil() as usize;
        let beyond = count.saturating_sub(rank.max(1));
        if beyond >= TAIL_MIN_BEYOND {
            return (pct, beyond);
        }
    }
    let rank = (count as f64 / 2.0).ceil() as usize;
    (50.0, count.saturating_sub(rank.max(1)))
}

/// The tail of unsorted `samples` under [`tail_percentile`].
///
/// # Panics
///
/// Panics on an empty slice.
#[must_use]
pub fn tail(samples: &[f64]) -> Tail {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let (pct, beyond) = tail_percentile(v.len());
    Tail {
        value: percentile(&v, pct),
        pct,
        beyond,
        count: v.len(),
        blocks: 0,
    }
}

/// The [`STEADY_PCT`] tail of `samples` in arrival order. With at least
/// [`TAIL_MIN_BLOCKS`] full blocks of [`TAIL_BLOCK`], it is the median
/// over the blocks of each block's percentile, so a burst of outside
/// load that stalls a few blocks does not move it; a shorter sample is
/// read whole.
///
/// # Panics
///
/// Panics on an empty slice.
#[must_use]
pub fn steady_tail(samples: &[f64]) -> Tail {
    let at_pct = |s: &[f64]| {
        let mut v = s.to_vec();
        v.sort_by(f64::total_cmp);
        let rank = (STEADY_PCT / 100.0 * v.len() as f64).ceil() as usize;
        (percentile(&v, STEADY_PCT), v.len() - rank.clamp(1, v.len()))
    };
    let blocks = samples.len() / TAIL_BLOCK;
    let (value, beyond, blocks) = if blocks < TAIL_MIN_BLOCKS {
        let (value, beyond) = at_pct(samples);
        (value, beyond, 0)
    } else {
        let per_block: Vec<f64> = samples
            .chunks_exact(TAIL_BLOCK)
            .map(|block| at_pct(block).0)
            .collect();
        (median(&per_block), at_pct(&samples[..TAIL_BLOCK]).1, blocks)
    };
    Tail {
        value,
        pct: STEADY_PCT,
        beyond,
        count: samples.len(),
        blocks,
    }
}

/// Operations that errored or answered wrong, over operations attempted.
/// An error is never also counted as a wrong answer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Outcomes {
    /// Operations started.
    pub attempted: u64,
    /// Operations that returned an error.
    pub errors: u64,
    /// Operations that returned an answer that failed its check.
    pub wrong: u64,
}

impl Outcomes {
    /// Records one operation: `Err` is an error, `Ok(false)` a wrong
    /// answer, `Ok(true)` a correct one.
    pub fn record<E>(&mut self, outcome: &Result<bool, E>) {
        self.attempted += 1;
        match outcome {
            Err(_) => self.errors += 1,
            Ok(false) => self.wrong += 1,
            Ok(true) => {}
        }
    }

    /// Failed operations: errors plus wrong answers.
    #[must_use]
    pub fn failed(&self) -> u64 {
        self.errors + self.wrong
    }

    /// `failed ÷ attempted` (0 when nothing was attempted).
    #[must_use]
    pub fn failed_share(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed() as f64 / self.attempted as f64
        }
    }

    /// Folds another tally into this one.
    pub fn absorb(&mut self, other: Outcomes) {
        self.attempted += other.attempted;
        self.errors += other.errors;
        self.wrong += other.wrong;
    }
}

/// Guarantee checks of one randomized protocol over a run. A protocol
/// promises its guarantee with per-trial failure probability `delta`,
/// so misses are wrong answers only when they exceed that budget; an
/// exact protocol (`delta = 0`) may never miss.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Tally {
    /// Answers checked.
    pub trials: u64,
    /// Answers that missed the guarantee.
    pub misses: u64,
    /// Allowed per-trial failure probability.
    pub delta: f64,
}

impl Tally {
    /// Records one checked answer.
    pub fn record(&mut self, met: bool) {
        self.trials += 1;
        self.misses += u64::from(!met);
    }

    /// The checks as outcomes: every trial is an attempt, and the misses
    /// count as wrong answers once their share exceeds `delta`.
    #[must_use]
    pub fn outcomes(&self) -> Outcomes {
        let over = self.misses as f64 > self.delta * self.trials as f64;
        Outcomes {
            attempted: self.trials,
            errors: 0,
            wrong: if over { self.misses } else { 0 },
        }
    }
}

/// A protocol's bits over the trivial baseline's bits at the same `n`.
/// The base must be the `trivial-binary` run over the same pair; a zero
/// base (an empty pair) yields `None` rather than infinity.
#[must_use]
pub fn bits_over_trivial(bits: u64, trivial_bits: u64) -> Option<f64> {
    (trivial_bits > 0).then(|| bits as f64 / trivial_bits as f64)
}

/// Sum of party-time spent in batch queries over the pool's capacity:
/// `Σ fused_ms ÷ (workers × wall_ms)`. 1.0 is a perfectly packed pool.
#[must_use]
pub fn parallel_efficiency(fused_ms: &[f64], workers: usize, wall_ms: f64) -> f64 {
    fused_ms.iter().sum::<f64>() / (workers as f64 * wall_ms)
}

/// `(untraced − traced) ÷ untraced`, in percent.
#[must_use]
pub fn overhead_pct(untraced_qps: f64, traced_qps: f64) -> f64 {
    (untraced_qps - traced_qps) / untraced_qps * 100.0
}

/// Deterministic 64-bit mixer: every input and query seed of a run is
/// `derive(workload_seed, tag)`.
#[must_use]
pub fn derive(seed: u64, tag: u64) -> u64 {
    let mut z = seed ^ tag.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // 1000 samples: p99 leaves exactly 10 beyond.
        assert_eq!(tail_percentile(1000), (99.0, 10));
        // 999 samples: p99's rank is 990, 9 beyond, so step down to p95.
        assert_eq!(tail_percentile(999).0, 95.0);
        // 200 samples: p95 leaves 10.
        assert_eq!(tail_percentile(200), (95.0, 10));
        // 20 samples: only the median leaves 10 beyond.
        assert_eq!(tail_percentile(20), (50.0, 10));
        // Tiny samples fall back to the median with what is there.
        assert_eq!(tail_percentile(3), (50.0, 1));
    }

    #[test]
    fn tail_reads_the_chosen_rank() {
        let samples: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        let t = tail(&samples);
        assert_eq!((t.pct, t.beyond, t.count), (99.0, 10, 1000));
        assert_eq!(t.value, 990.0);
    }

    #[test]
    fn steady_tail_is_the_median_block_p90() {
        // Four blocks of 1..=64; one block stalled tenfold.
        let mut samples: Vec<f64> = (0..4).flat_map(|_| (1..=64).map(f64::from)).collect();
        for v in &mut samples[64..128] {
            *v *= 10.0;
        }
        let t = steady_tail(&samples);
        // p90 of 64 is rank 58; the stalled block does not move the median.
        assert_eq!((t.value, t.pct, t.beyond, t.blocks), (58.0, 90.0, 6, 4));
        // Under three full blocks the whole sample is read, still at p90:
        // 1..=100 has its p90 at rank 90, with 10 beyond.
        let short: Vec<f64> = (1..=100).map(f64::from).collect();
        let s = steady_tail(&short);
        assert_eq!((s.value, s.pct, s.beyond, s.blocks), (90.0, 90.0, 10, 0));
    }

    #[test]
    fn classes_share_one_scale() {
        let samples = [("b", 1.0), ("a", 20.0), ("b", 3.0), ("a", 40.0)];
        let groups = by_class(&samples);
        assert_eq!(groups["a"], [20.0, 40.0]);
        assert_eq!(groups["b"], [1.0, 3.0]);
        let medians: BTreeMap<&str, f64> = groups.iter().map(|(k, v)| (*k, median(v))).collect();
        assert_eq!(
            over_class_median(&samples, &medians),
            [0.5, 2.0 / 3.0, 1.5, 4.0 / 3.0]
        );
        assert!((geomean(&[1.0, 4.0, 16.0]) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn percentile_and_median_use_nearest_rank() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&v, 50.0), 2.0);
        assert_eq!(percentile(&v, 100.0), 4.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
    }

    #[test]
    fn failed_share_counts_errors_and_wrong_answers_once() {
        let mut o = Outcomes::default();
        o.record::<()>(&Ok(true));
        o.record::<()>(&Ok(false));
        o.record(&Err(()));
        o.record::<()>(&Ok(true));
        assert_eq!((o.attempted, o.errors, o.wrong, o.failed()), (4, 1, 1, 2));
        assert_eq!(o.failed_share(), 0.5);
        assert_eq!(Outcomes::default().failed_share(), 0.0);
        let mut total = Outcomes::default();
        total.absorb(o);
        total.absorb(o);
        assert_eq!((total.attempted, total.failed()), (8, 4));
    }

    #[test]
    fn guarantee_misses_fail_only_beyond_their_budget() {
        let mut t = Tally {
            delta: 0.25,
            ..Tally::default()
        };
        for met in [true, true, false, true] {
            t.record(met);
        }
        // One miss in four is exactly the budget: no wrong answers.
        assert_eq!(
            t.outcomes(),
            Outcomes {
                attempted: 4,
                errors: 0,
                wrong: 0
            }
        );
        t.record(false);
        // Two in five is over it: both misses count.
        assert_eq!(t.outcomes().wrong, 2);
        // Exact protocols have no budget.
        let mut exact = Tally::default();
        exact.record(false);
        exact.record(true);
        assert_eq!(exact.outcomes().failed(), 1);
    }

    #[test]
    fn bits_over_trivial_uses_the_trivial_base() {
        assert_eq!(
            bits_over_trivial(8_900_000, 65_536),
            Some(8_900_000.0 / 65_536.0)
        );
        assert_eq!(bits_over_trivial(65_536, 65_536), Some(1.0));
        assert_eq!(bits_over_trivial(10, 0), None);
    }

    #[test]
    fn efficiency_and_overhead() {
        assert_eq!(parallel_efficiency(&[100.0, 100.0], 2, 100.0), 1.0);
        assert_eq!(parallel_efficiency(&[50.0, 50.0], 2, 100.0), 0.5);
        assert_eq!(overhead_pct(200.0, 190.0), 5.0);
    }

    #[test]
    fn derive_is_a_pure_function_of_seed_and_tag() {
        assert_eq!(derive(7, 1), derive(7, 1));
        assert_ne!(derive(7, 1), derive(7, 2));
        assert_ne!(derive(7, 1), derive(8, 1));
    }
}
