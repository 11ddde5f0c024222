//! Mergeable relative-error quantile sketch over integer-picosecond keys.
//!
//! A DDSketch-style log-bucketed histogram: values land in buckets whose
//! boundaries grow geometrically by `gamma = (1 + alpha) / (1 - alpha)`,
//! so any reported quantile is within relative error `alpha` of the exact
//! sample at that rank — with memory proportional to the *dynamic range*
//! of the data (a few hundred buckets for ps..s latencies), not the
//! sample count. Sketches with the same `alpha` merge by bucket-count
//! addition, which makes per-window, per-tenant rollups composable into
//! coarser horizons without re-reading samples.
//!
//! Everything is deterministic: keys are integer bucket indexes derived
//! from integer-ps values, buckets live in a `BTreeMap` (sorted
//! iteration), and serialization emits integers only — so two identical
//! runs produce byte-identical sketch JSON, which CI pins with `cmp`.
//!
//! ```
//! use vfpga_sim::{QuantileSketch, SimTime};
//! let mut s = QuantileSketch::new(0.01);
//! for us in 1..=1000 {
//!     s.record(SimTime::from_us(us as f64));
//! }
//! let p50 = s.quantile(0.5).unwrap();
//! let exact = SimTime::from_us(500.0);
//! let err = (p50.as_secs() - exact.as_secs()).abs() / exact.as_secs();
//! assert!(err <= 0.01);
//! ```

use std::collections::BTreeMap;

use crate::json::{Json, JsonDoc, JsonWriter, WriteJson};
use crate::time::SimTime;

/// A deterministic, mergeable quantile sketch (see the module docs).
#[derive(Debug, Clone)]
pub struct QuantileSketch {
    alpha: f64,
    gamma: f64,
    ln_gamma: f64,
    /// Exact zero values (`ln` is undefined there); reported as zero.
    zero_count: u64,
    /// Bucket key `k` covers `(gamma^(k-1), gamma^k]` picoseconds.
    buckets: BTreeMap<i32, u64>,
    count: u64,
    sum_ps: u64,
    min_ps: u64,
    max_ps: u64,
}

impl QuantileSketch {
    /// Creates an empty sketch with relative-error bound `alpha`
    /// (e.g. `0.01` for 1%).
    ///
    /// # Panics
    ///
    /// Panics unless `0 < alpha < 1`.
    pub fn new(alpha: f64) -> Self {
        assert!(
            alpha > 0.0 && alpha < 1.0,
            "sketch alpha out of range: {alpha}"
        );
        let gamma = (1.0 + alpha) / (1.0 - alpha);
        QuantileSketch {
            alpha,
            gamma,
            ln_gamma: gamma.ln(),
            zero_count: 0,
            buckets: BTreeMap::new(),
            count: 0,
            sum_ps: 0,
            min_ps: u64::MAX,
            max_ps: 0,
        }
    }

    /// The configured relative-error bound.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Recorded sample count.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Smallest recorded value, if any (exact, not bucketed).
    pub fn min(&self) -> Option<SimTime> {
        (self.count > 0).then(|| SimTime::from_ps(self.min_ps))
    }

    /// Largest recorded value, if any (exact, not bucketed).
    pub fn max(&self) -> Option<SimTime> {
        (self.count > 0).then(|| SimTime::from_ps(self.max_ps))
    }

    /// Exact sum of recorded values, in seconds.
    pub fn sum_secs(&self) -> f64 {
        SimTime::from_ps(self.sum_ps).as_secs()
    }

    /// Mean of recorded values in seconds, if any.
    pub fn mean_secs(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum_secs() / self.count as f64)
    }

    /// The bucket key for a positive value: the smallest `k` with
    /// `v <= gamma^k`. Computed via `ln` and then nudged so floating-point
    /// rounding near a boundary can never break the `alpha` guarantee.
    fn key_of(&self, ps: u64) -> i32 {
        let v = ps as f64;
        let mut k = (v.ln() / self.ln_gamma).ceil() as i32;
        while v > self.gamma.powi(k) {
            k += 1;
        }
        while k > i32::MIN && v <= self.gamma.powi(k - 1) {
            k -= 1;
        }
        k
    }

    /// The representative value of bucket `k`: the midpoint
    /// `2 * gamma^k / (gamma + 1)`, whose relative distance to every value
    /// in `(gamma^(k-1), gamma^k]` is at most `alpha`.
    fn value_of(&self, k: i32) -> f64 {
        2.0 * self.gamma.powi(k) / (self.gamma + 1.0)
    }

    /// Records one duration.
    pub fn record(&mut self, value: SimTime) {
        let ps = value.as_ps();
        self.count += 1;
        self.sum_ps = self.sum_ps.saturating_add(ps);
        self.min_ps = self.min_ps.min(ps);
        self.max_ps = self.max_ps.max(ps);
        if ps == 0 {
            self.zero_count += 1;
        } else {
            *self.buckets.entry(self.key_of(ps)).or_insert(0) += 1;
        }
    }

    /// The `q`-quantile with the same ceil-rank convention as the exact
    /// timer quantiles (`rank = ceil(q * n)` clamped to `1..=n`), so a
    /// sketch and a full buffer of the same stream answer from the same
    /// rank; `None` if empty. The result is within relative error `alpha`
    /// of the exact sample at that rank (zeros are exact).
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `0.0..=1.0`.
    pub fn quantile(&self, q: f64) -> Option<SimTime> {
        assert!((0.0..=1.0).contains(&q), "quantile out of range: {q}");
        if self.count == 0 {
            return None;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        if rank <= self.zero_count {
            return Some(SimTime::ZERO);
        }
        let mut seen = self.zero_count;
        for (&k, &n) in &self.buckets {
            seen += n;
            if seen >= rank {
                let est = self
                    .value_of(k)
                    .clamp(self.min_ps as f64, self.max_ps as f64);
                return Some(SimTime::from_ps(est.round() as u64));
            }
        }
        // Unreachable while the count invariant holds; fall back to max.
        Some(SimTime::from_ps(self.max_ps))
    }

    /// [`quantile`](Self::quantile) in seconds.
    pub fn quantile_secs(&self, q: f64) -> Option<f64> {
        self.quantile(q).map(|t| t.as_secs())
    }

    /// Merges another sketch into this one by bucket-count addition.
    /// Merge is associative and commutative, so windows fold into coarser
    /// horizons in any grouping.
    ///
    /// # Panics
    ///
    /// Panics if the sketches were built with different `alpha` (their
    /// bucket boundaries would not line up).
    pub fn merge(&mut self, other: &QuantileSketch) {
        assert!(
            self.alpha.to_bits() == other.alpha.to_bits(),
            "cannot merge sketches with different alpha: {} vs {}",
            self.alpha,
            other.alpha
        );
        self.zero_count += other.zero_count;
        self.count += other.count;
        self.sum_ps = self.sum_ps.saturating_add(other.sum_ps);
        self.min_ps = self.min_ps.min(other.min_ps);
        self.max_ps = self.max_ps.max(other.max_ps);
        for (&k, &n) in &other.buckets {
            *self.buckets.entry(k).or_insert(0) += n;
        }
    }

    /// Number of non-empty buckets (zero bucket excluded).
    pub fn bucket_count(&self) -> usize {
        self.buckets.len()
    }

    /// Byte-stable serialization: integers only (counts, integer-ps
    /// extremes, sorted `[key, count]` bucket pairs), so two identical
    /// runs serialize identically.
    pub fn to_json(&self) -> Json {
        let mut obj = Json::obj()
            .with("alpha", self.alpha)
            .with("count", self.count)
            .with("zero_count", self.zero_count);
        if self.count > 0 {
            obj = obj
                .with("min_ps", self.min_ps)
                .with("max_ps", self.max_ps)
                .with("sum_ps", self.sum_ps);
        }
        obj.with(
            "buckets",
            Json::Arr(
                self.buckets
                    .iter()
                    .map(|(&k, &n)| Json::Arr(vec![Json::Num(k as f64), Json::Num(n as f64)]))
                    .collect(),
            ),
        )
    }

    /// The `{count, p50, p95, p99}` quantile digest most artifact sections
    /// want; `None` quantiles (empty sketch) serialize as `null`.
    pub fn digest_json(&self) -> JsonDoc<SketchDigest<'_>> {
        JsonDoc(SketchDigest(self))
    }
}

/// A sketch's quantile digest; see [`QuantileSketch::digest_json`].
#[derive(Debug, Clone, Copy)]
pub struct SketchDigest<'a>(&'a QuantileSketch);

impl WriteJson for SketchDigest<'_> {
    fn write_json(&self, w: &mut JsonWriter<'_>) {
        let s = self.0;
        w.obj(|w| {
            w.field("count", s.count)
                .field("p50_s", s.quantile_secs(0.50))
                .field("p95_s", s.quantile_secs(0.95))
                .field("p99_s", s.quantile_secs(0.99));
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    fn exact_quantile(sorted: &[u64], q: f64) -> u64 {
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1]
    }

    #[test]
    fn bounds_hold_on_uniform_stream() {
        let mut s = QuantileSketch::new(0.01);
        let mut exact: Vec<u64> = Vec::new();
        for i in 1..=10_000u64 {
            s.record(SimTime::from_ps(i * 997));
            exact.push(i * 997);
        }
        exact.sort_unstable();
        for q in [0.0, 0.01, 0.5, 0.9, 0.95, 0.99, 1.0] {
            let got = s.quantile(q).unwrap().as_ps() as f64;
            let want = exact_quantile(&exact, q) as f64;
            let err = (got - want).abs() / want;
            assert!(err <= 0.01 + 1e-9, "q={q}: {got} vs {want} (err {err})");
        }
    }

    #[test]
    fn zero_and_single_sample_edges() {
        let mut s = QuantileSketch::new(0.05);
        assert_eq!(s.quantile(0.5), None);
        assert!(s.is_empty());
        s.record(SimTime::ZERO);
        assert_eq!(s.quantile(0.5), Some(SimTime::ZERO));
        assert_eq!(s.quantile(1.0), Some(SimTime::ZERO));
        let mut one = QuantileSketch::new(0.05);
        one.record(SimTime::from_us(3.0));
        // A single sample is clamped to the exact min/max.
        assert_eq!(one.quantile(0.5), Some(SimTime::from_us(3.0)));
        assert_eq!(one.count(), 1);
    }

    #[test]
    fn merge_matches_union() {
        let mut rng = Rng::seed_from_u64(9);
        let mut a = QuantileSketch::new(0.02);
        let mut b = QuantileSketch::new(0.02);
        let mut all = QuantileSketch::new(0.02);
        for i in 0..4_000 {
            let ps = 1 + (rng.next_u64() % 1_000_000_000);
            let t = SimTime::from_ps(ps);
            if i % 2 == 0 {
                a.record(t)
            } else {
                b.record(t)
            }
            all.record(t);
        }
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        // Commutative, and identical to single-stream ingestion.
        assert_eq!(ab.to_json().compact(), ba.to_json().compact());
        assert_eq!(ab.to_json().compact(), all.to_json().compact());
        assert_eq!(ab.quantile(0.95), all.quantile(0.95));
    }

    #[test]
    #[should_panic(expected = "different alpha")]
    fn merge_rejects_mismatched_alpha() {
        let mut a = QuantileSketch::new(0.01);
        a.merge(&QuantileSketch::new(0.02));
    }

    #[test]
    fn serialization_is_byte_stable() {
        let run = || {
            let mut rng = Rng::seed_from_u64(42);
            let mut s = QuantileSketch::new(0.01);
            for _ in 0..2_000 {
                s.record(SimTime::from_ps(rng.next_u64() % 1_000_000));
            }
            s.to_json().pretty()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn memory_is_range_bound_not_count_bound() {
        let mut s = QuantileSketch::new(0.01);
        for i in 0..100_000u64 {
            // 1 us .. 100 ms dynamic range.
            s.record(SimTime::from_ps(1_000_000 + (i * 997) % 100_000_000_000));
        }
        assert_eq!(s.count(), 100_000);
        assert!(
            s.bucket_count() < 1200,
            "bucket count {} should track range, not samples",
            s.bucket_count()
        );
    }
}
