//! Runtime metrics: named counters, gauges, timers, and time series.
//!
//! The registry is the observability substrate for the system controller
//! and the cloud simulator. It is designed for the simulator's hot loop:
//! metric handles are plain indexes resolved once at registration, so a
//! counter increment is one array access with no hashing or allocation.
//!
//! ```
//! use vfpga_sim::{MetricsRegistry, SimTime};
//! let mut m = MetricsRegistry::new();
//! let deploys = m.counter("deploys");
//! let depth = m.gauge("queue_depth");
//! let latency = m.timer("latency_s");
//! m.inc(deploys);
//! m.set_gauge(depth, SimTime::from_us(3.0), 4.0);
//! m.record_timer(latency, 120e-6);
//! assert_eq!(m.counter_value(deploys), 1);
//! assert_eq!(m.timer_summary(latency).count(), 1);
//! ```

use crate::json::{Json, JsonDoc, JsonWriter, WriteJson};
use crate::stats::Summary;
use crate::time::SimTime;

/// Handle to a registered counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterId(usize);

/// Handle to a registered gauge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GaugeId(usize);

/// Handle to a registered timer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimerId(usize);

/// Past this many retained points, a [`TimeSeries`] folds itself: every
/// other interior point is dropped (the first and the most recent survive)
/// and the effective retention stride doubles, so memory stays bounded on
/// arbitrarily long runs while short runs keep every point — and their
/// serialization byte-identical.
pub const TIMESERIES_POINT_CAP: usize = 1 << 12;

/// A time-stamped series of gauge observations, coalescing repeats.
///
/// Samples are `(time, value)` pairs; recording the same value twice in a
/// row keeps only the first sample, so a gauge polled every event stays
/// compact while still reconstructing the exact step function. Past
/// [`TIMESERIES_POINT_CAP`] points the series downsamples itself
/// deterministically (see [`points_folded`](TimeSeries::points_folded));
/// the peak and the time-weighted mean stay exact regardless.
#[derive(Debug, Clone)]
pub struct TimeSeries {
    samples: Vec<(SimTime, f64)>,
    /// Points dropped by downsampling; 0 until the cap is first hit.
    folded: u64,
    /// Largest value among folded-away points.
    folded_peak: f64,
    /// Exact time-weighted integral (value x seconds) of the step function
    /// from the first sample to the last, maintained incrementally so
    /// folding cannot perturb the mean.
    integral: f64,
}

impl Default for TimeSeries {
    fn default() -> Self {
        TimeSeries {
            samples: Vec::new(),
            folded: 0,
            // Negative infinity, not zero: a folded region of negative
            // values must not fabricate a zero peak.
            folded_peak: f64::NEG_INFINITY,
            integral: 0.0,
        }
    }
}

impl TimeSeries {
    /// Creates an empty series.
    pub fn new() -> Self {
        TimeSeries::default()
    }

    /// Drops every other interior point (the first and last survive), so
    /// the retention stride of the folded region doubles. Deterministic:
    /// depends only on the sample stream, never on wall clock or capacity
    /// reallocation.
    fn fold(&mut self) {
        let last = self.samples.pop().expect("fold requires samples");
        let mut kept = Vec::with_capacity(self.samples.len() / 2 + 2);
        for (i, &(t, v)) in self.samples.iter().enumerate() {
            if i % 2 == 0 {
                kept.push((t, v));
            } else {
                self.folded += 1;
                self.folded_peak = self.folded_peak.max(v);
            }
        }
        kept.push(last);
        self.samples = kept;
    }

    /// Records `value` at `at`. Out-of-order samples are rejected silently
    /// (the simulator's clock is monotone); repeated values coalesce.
    pub fn record(&mut self, at: SimTime, value: f64) {
        if let Some(&(last_t, last_v)) = self.samples.last() {
            if at < last_t {
                return;
            }
            if last_v == value {
                return;
            }
            self.integral += last_v * (at - last_t).as_secs();
            if last_t == at {
                // Same timestamp: the later write wins.
                self.samples.pop();
            }
        }
        if self.samples.len() == TIMESERIES_POINT_CAP {
            self.fold();
        }
        self.samples.push((at, value));
    }

    /// The retained `(time, value)` steps (all of them until the point
    /// budget is first exceeded).
    pub fn samples(&self) -> &[(SimTime, f64)] {
        &self.samples
    }

    /// Points currently retained.
    pub fn points_kept(&self) -> usize {
        self.samples.len()
    }

    /// Points dropped by stride-doubling downsampling; 0 for short runs.
    pub fn points_folded(&self) -> u64 {
        self.folded
    }

    /// Last recorded value, if any.
    pub fn last(&self) -> Option<f64> {
        self.samples.last().map(|&(_, v)| v)
    }

    /// Largest recorded value, if any. Exact even after downsampling:
    /// folded-away points contribute through a running peak.
    pub fn max(&self) -> Option<f64> {
        self.samples
            .iter()
            .map(|&(_, v)| v)
            .fold(None, |m, v| Some(m.map_or(v, |m: f64| m.max(v))))
            .map(|m| {
                if self.folded > 0 {
                    m.max(self.folded_peak)
                } else {
                    m
                }
            })
    }

    /// Time-weighted mean of the step function from the first sample up to
    /// `end`. Returns `None` if empty or `end` precedes the first sample.
    /// Exact after downsampling too (an incremental integral covers the
    /// folded region) as long as `end` is at or past the last sample.
    pub fn mean_until(&self, end: SimTime) -> Option<f64> {
        let first = self.samples.first()?.0;
        if end <= first {
            return None;
        }
        let total = (end - first).as_secs();
        if self.folded > 0 {
            let &(last_t, last_v) = self.samples.last().expect("non-empty");
            if end >= last_t {
                return Some((self.integral + last_v * (end - last_t).as_secs()) / total);
            }
            // `end` inside the folded region: approximate from what
            // survived (the fall-through scan below).
        }
        let mut acc = 0.0;
        for (i, &(t, v)) in self.samples.iter().enumerate() {
            let next = self
                .samples
                .get(i + 1)
                .map(|&(t2, _)| t2.min(end))
                .unwrap_or(end);
            if next > t {
                acc += v * (next - t).as_secs();
            }
        }
        Some(acc / total)
    }

    /// The series as a JSON document.
    pub fn to_json(&self) -> JsonDoc<&Self> {
        JsonDoc(self)
    }
}

/// Serializes as `[[seconds, value], ...]`.
impl WriteJson for TimeSeries {
    fn write_json(&self, w: &mut JsonWriter<'_>) {
        w.arr(|w| {
            for &(t, v) in &self.samples {
                w.arr(|w| {
                    w.num(t.as_secs()).num(v);
                });
            }
        });
    }
}

/// Timer percentiles are computed from retained samples; past this many,
/// the buffer is decimated (every other sample dropped, retention stride
/// doubled) so memory stays bounded and the stream stays deterministic.
const TIMER_SAMPLE_CAP: usize = 1 << 16;

#[derive(Debug, Clone)]
struct Timer {
    summary: Summary,
    samples: Vec<f64>,
    stride: u64,
    seen: u64,
}

impl Timer {
    fn new() -> Self {
        Timer {
            summary: Summary::new(),
            samples: Vec::new(),
            stride: 1,
            seen: 0,
        }
    }

    fn record(&mut self, secs: f64) {
        self.summary.record(secs);
        if self.seen.is_multiple_of(self.stride) {
            if self.samples.len() == TIMER_SAMPLE_CAP {
                let mut keep = false;
                self.samples.retain(|_| {
                    keep = !keep;
                    keep
                });
                self.stride *= 2;
            }
            self.samples.push(secs);
        }
        self.seen += 1;
    }

    fn quantile(&self, q: f64) -> Option<f64> {
        assert!((0.0..=1.0).contains(&q), "quantile out of range: {q}");
        if self.samples.is_empty() {
            return None;
        }
        let mut sorted = self.samples.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("timer samples are finite"));
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        Some(sorted[rank - 1])
    }
}

/// A registry of named counters, gauges, and timers.
///
/// Registration interns by name: asking for an existing name returns the
/// same handle, so independent components can share a metric.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    counter_names: Vec<String>,
    counters: Vec<u64>,
    gauge_names: Vec<String>,
    gauges: Vec<TimeSeries>,
    timer_names: Vec<String>,
    timers: Vec<Timer>,
    help: Vec<(String, String)>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Registers (or looks up) a counter.
    pub fn counter(&mut self, name: &str) -> CounterId {
        if let Some(i) = self.counter_names.iter().position(|n| n == name) {
            return CounterId(i);
        }
        self.counter_names.push(name.to_string());
        self.counters.push(0);
        CounterId(self.counters.len() - 1)
    }

    /// Registers (or looks up) a gauge.
    pub fn gauge(&mut self, name: &str) -> GaugeId {
        if let Some(i) = self.gauge_names.iter().position(|n| n == name) {
            return GaugeId(i);
        }
        self.gauge_names.push(name.to_string());
        self.gauges.push(TimeSeries::new());
        GaugeId(self.gauges.len() - 1)
    }

    /// Registers (or looks up) a timer.
    pub fn timer(&mut self, name: &str) -> TimerId {
        if let Some(i) = self.timer_names.iter().position(|n| n == name) {
            return TimerId(i);
        }
        self.timer_names.push(name.to_string());
        self.timers.push(Timer::new());
        TimerId(self.timers.len() - 1)
    }

    /// Attaches (or replaces) operator-facing help text for a metric
    /// name; the Prometheus exporter emits it as a `# HELP` line. For
    /// labeled families (`name{label="v"}`), describe the base name once.
    pub fn describe(&mut self, name: &str, help: &str) {
        if let Some(entry) = self.help.iter_mut().find(|(n, _)| n == name) {
            entry.1 = help.to_string();
        } else {
            self.help.push((name.to_string(), help.to_string()));
        }
    }

    /// The help text registered for `name`, if any.
    pub fn help_for(&self, name: &str) -> Option<&str> {
        self.help
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h.as_str())
    }

    /// Increments a counter by one.
    pub fn inc(&mut self, id: CounterId) {
        self.counters[id.0] += 1;
    }

    /// Adds `n` to a counter.
    pub fn add(&mut self, id: CounterId, n: u64) {
        self.counters[id.0] += n;
    }

    /// Current counter value.
    pub fn counter_value(&self, id: CounterId) -> u64 {
        self.counters[id.0]
    }

    /// Records a gauge observation at simulation time `at`.
    pub fn set_gauge(&mut self, id: GaugeId, at: SimTime, value: f64) {
        self.gauges[id.0].record(at, value);
    }

    /// The gauge's full time series.
    pub fn gauge_series(&self, id: GaugeId) -> &TimeSeries {
        &self.gauges[id.0]
    }

    /// Records a duration (in seconds) into a timer.
    pub fn record_timer(&mut self, id: TimerId, secs: f64) {
        self.timers[id.0].record(secs);
    }

    /// The timer's streaming summary.
    pub fn timer_summary(&self, id: TimerId) -> &Summary {
        &self.timers[id.0].summary
    }

    /// The timer's `q`-quantile over retained samples; `None` if empty.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `0.0..=1.0`.
    pub fn timer_quantile(&self, id: TimerId, q: f64) -> Option<f64> {
        self.timers[id.0].quantile(q)
    }

    /// Iterates registered counters as `(name, value)` in registration
    /// order (the exporters rely on this order being deterministic).
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counter_names
            .iter()
            .map(String::as_str)
            .zip(self.counters.iter().copied())
    }

    /// Iterates registered gauges as `(name, series)` in registration
    /// order.
    pub fn gauges(&self) -> impl Iterator<Item = (&str, &TimeSeries)> {
        self.gauge_names
            .iter()
            .map(String::as_str)
            .zip(self.gauges.iter())
    }

    /// Iterates registered timers as `(name, id)` in registration order;
    /// resolve summaries/quantiles through the id.
    pub fn timers(&self) -> impl Iterator<Item = (&str, TimerId)> {
        self.timer_names
            .iter()
            .map(String::as_str)
            .enumerate()
            .map(|(i, name)| (name, TimerId(i)))
    }

    /// Serializes every metric: counters as numbers, gauges as time
    /// series, timers as `{count, mean, p50, p95, p99, min, max}`.
    pub fn to_json(&self) -> Json {
        let mut counters = Json::obj();
        for (name, &v) in self.counter_names.iter().zip(&self.counters) {
            counters = counters.with(name, v);
        }
        let mut gauges = Json::obj();
        for (name, series) in self.gauge_names.iter().zip(&self.gauges) {
            gauges = gauges.with(name, series.to_json());
        }
        let mut timers = Json::obj();
        for (name, t) in self.timer_names.iter().zip(&self.timers) {
            timers = timers.with(
                name,
                Json::obj()
                    .with("count", t.summary.count())
                    .with("mean", t.summary.mean())
                    .with("p50", t.quantile(0.50))
                    .with("p95", t.quantile(0.95))
                    .with("p99", t.quantile(0.99))
                    .with("min", t.summary.min())
                    .with("max", t.summary.max()),
            );
        }
        Json::obj()
            .with("counters", counters)
            .with("gauges", gauges)
            .with("timers", timers)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_intern() {
        let mut m = MetricsRegistry::new();
        let a = m.counter("x");
        let b = m.counter("x");
        assert_eq!(a, b);
        m.inc(a);
        m.add(b, 4);
        assert_eq!(m.counter_value(a), 5);
    }

    #[test]
    fn gauge_and_timer_registration_is_idempotent_by_name() {
        // Regression: re-registering an existing name must return the
        // existing handle for every metric kind — never a duplicate slot —
        // so independent components share a metric safely.
        let mut m = MetricsRegistry::new();
        let g1 = m.gauge("occupancy");
        let t1 = m.timer("latency_s");
        let g2 = m.gauge("occupancy");
        let t2 = m.timer("latency_s");
        assert_eq!(g1, g2);
        assert_eq!(t1, t2);
        // Writes through either handle land in the same slot.
        m.set_gauge(g1, SimTime::ZERO, 1.0);
        m.set_gauge(g2, SimTime::from_us(1.0), 2.0);
        assert_eq!(m.gauge_series(g1).samples().len(), 2);
        m.record_timer(t1, 1.0);
        m.record_timer(t2, 3.0);
        assert_eq!(m.timer_summary(t1).count(), 2);
        // Distinct names still get distinct slots, and the registry holds
        // exactly one entry per name.
        assert_ne!(m.gauge("depth"), g1);
        assert_eq!(m.gauges().count(), 2);
        assert_eq!(m.timers().count(), 1);
        assert_eq!(m.counters().count(), 0);
    }

    #[test]
    fn iteration_preserves_registration_order() {
        let mut m = MetricsRegistry::new();
        m.counter("b");
        m.counter("a");
        let names: Vec<&str> = m.counters().map(|(n, _)| n).collect();
        assert_eq!(names, ["b", "a"]);
        let (name, id) = m.timers().next().unwrap_or(("none", TimerId(0)));
        assert_eq!((name, id.0), ("none", 0));
    }

    #[test]
    fn gauge_series_coalesces_repeats() {
        let mut m = MetricsRegistry::new();
        let g = m.gauge("depth");
        m.set_gauge(g, SimTime::from_us(1.0), 2.0);
        m.set_gauge(g, SimTime::from_us(2.0), 2.0);
        m.set_gauge(g, SimTime::from_us(3.0), 5.0);
        assert_eq!(m.gauge_series(g).samples().len(), 2);
        assert_eq!(m.gauge_series(g).last(), Some(5.0));
        assert_eq!(m.gauge_series(g).max(), Some(5.0));
    }

    #[test]
    fn time_weighted_mean() {
        let mut s = TimeSeries::new();
        // 0 for 1s, then 10 for 1s => mean 5 over [0, 2].
        s.record(SimTime::ZERO, 0.0);
        s.record(SimTime::from_secs(1.0), 10.0);
        let mean = s.mean_until(SimTime::from_secs(2.0)).unwrap();
        assert!((mean - 5.0).abs() < 1e-9, "mean {mean}");
        assert_eq!(TimeSeries::new().mean_until(SimTime::from_secs(1.0)), None);
    }

    #[test]
    fn timer_percentiles_exact_when_small() {
        let mut m = MetricsRegistry::new();
        let t = m.timer("lat");
        for i in 1..=100 {
            m.record_timer(t, i as f64);
        }
        assert_eq!(m.timer_quantile(t, 0.5), Some(50.0));
        assert_eq!(m.timer_quantile(t, 0.95), Some(95.0));
        assert_eq!(m.timer_quantile(t, 0.99), Some(99.0));
        assert_eq!(m.timer_quantile(t, 1.0), Some(100.0));
        assert_eq!(m.timer_summary(t).count(), 100);
    }

    #[test]
    fn timer_decimation_stays_bounded_and_close() {
        let mut m = MetricsRegistry::new();
        let t = m.timer("lat");
        let n = (TIMER_SAMPLE_CAP * 4) as u64;
        for i in 0..n {
            m.record_timer(t, i as f64);
        }
        assert_eq!(m.timer_summary(t).count(), n);
        let p50 = m.timer_quantile(t, 0.5).unwrap();
        let expect = n as f64 / 2.0;
        assert!(
            (p50 - expect).abs() / expect < 0.02,
            "p50 {p50} vs {expect}"
        );
    }

    #[test]
    fn empty_timer_has_no_quantiles() {
        let mut m = MetricsRegistry::new();
        let t = m.timer("lat");
        assert_eq!(m.timer_quantile(t, 0.5), None);
    }

    #[test]
    fn timeseries_folds_past_point_cap() {
        let mut s = TimeSeries::new();
        let n = (TIMESERIES_POINT_CAP * 4) as u64;
        for i in 0..n {
            // Strictly alternating values so nothing coalesces.
            s.record(SimTime::from_ps(i * 1_000), (i % 7) as f64);
        }
        assert!(s.points_kept() <= TIMESERIES_POINT_CAP);
        assert_eq!(s.points_folded() + s.points_kept() as u64, n);
        // First and last points survive every fold.
        assert_eq!(s.samples().first().unwrap().0, SimTime::ZERO);
        assert_eq!(s.last(), Some(((n - 1) % 7) as f64));
        // Peak and time-weighted mean stay exact despite the folding.
        assert_eq!(s.max(), Some(6.0));
        let end = SimTime::from_ps(n * 1_000);
        let mean = s.mean_until(end).unwrap();
        // Each value 0..7 occupies an equal share of the timeline.
        let expect = (0..7).sum::<u64>() as f64 / 7.0;
        assert!((mean - expect).abs() < 0.01, "mean {mean} vs {expect}");
    }

    #[test]
    fn timeseries_short_runs_never_fold() {
        let mut s = TimeSeries::new();
        for i in 0..TIMESERIES_POINT_CAP as u64 {
            s.record(SimTime::from_ps(i), (i % 2) as f64);
        }
        assert_eq!(s.points_folded(), 0);
        assert_eq!(s.points_kept(), TIMESERIES_POINT_CAP);
    }

    #[test]
    fn timeseries_folding_is_deterministic() {
        let run = || {
            let mut s = TimeSeries::new();
            for i in 0..(TIMESERIES_POINT_CAP * 3) as u64 {
                s.record(SimTime::from_ps(i * 10), (i % 5) as f64);
            }
            s.to_json().compact()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn describe_registers_and_replaces_help() {
        let mut m = MetricsRegistry::new();
        assert_eq!(m.help_for("deploys"), None);
        m.describe("deploys", "Tasks deployed.");
        assert_eq!(m.help_for("deploys"), Some("Tasks deployed."));
        m.describe("deploys", "Tasks admitted and deployed.");
        assert_eq!(m.help_for("deploys"), Some("Tasks admitted and deployed."));
    }

    #[test]
    fn json_export_shape() {
        let mut m = MetricsRegistry::new();
        let c = m.counter("deploys");
        m.inc(c);
        let g = m.gauge("occ");
        m.set_gauge(g, SimTime::ZERO, 0.25);
        let t = m.timer("lat");
        m.record_timer(t, 1.0);
        let text = m.to_json().compact();
        assert!(text.contains(r#""deploys":1"#), "{text}");
        assert!(text.contains(r#""occ":[[0,0.25]]"#), "{text}");
        assert!(text.contains(r#""p99":1"#), "{text}");
    }
}
