//! Tumbling-window rollups over the simulation's telemetry stream.
//!
//! A [`RollupSet`] partitions sim time into fixed windows (window `i`
//! covers `[i * window, (i + 1) * window)`) and aggregates, per window and
//! per [`RollupKey`] (the whole cluster, one tenant/model class, one
//! device, or one ring segment), the signals the trace stream carries:
//! arrivals, completions with their end-to-end latency, queue waits,
//! migrations, retransmits, and occupancy. Latency-like signals go into
//! [`QuantileSketch`]es, so windows merge losslessly into coarser
//! horizons ([`RollupSet::merged`]) and per-window quantiles stay within
//! the configured relative error.
//!
//! When the run's trace ring has dropped events, windows that predate the
//! oldest retained event can be marked
//! [`truncated`](WindowStats::truncated). The mark says the retained trace
//! no longer covers those windows; it does not make their counts short
//! when the rollups were folded from the live event stream, as the run
//! monitor folds them.

use std::collections::BTreeMap;

use crate::json::{JsonDoc, JsonWriter, WriteJson};
use crate::sketch::QuantileSketch;
use crate::time::SimTime;

/// What a rollup window is keyed by.
///
/// The derived ordering (variant order, then payload) is the
/// deterministic serialization order of the artifact.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum RollupKey {
    /// The whole cluster.
    Cluster,
    /// One tenant/model class (the instance name serving it).
    Tenant(String),
    /// One FPGA device.
    Device(u64),
    /// One ring segment.
    Segment(u64),
}

impl RollupKey {
    /// The stable label used in artifacts and metric names.
    pub fn label(&self) -> String {
        match self {
            RollupKey::Cluster => "cluster".to_string(),
            RollupKey::Tenant(name) => format!("tenant:{name}"),
            RollupKey::Device(d) => format!("device:{d}"),
            RollupKey::Segment(s) => format!("segment:{s}"),
        }
    }
}

/// Aggregates for one `(key, window)` cell.
#[derive(Debug, Clone)]
pub struct WindowStats {
    /// Task arrivals in the window.
    pub arrivals: u64,
    /// Task completions in the window.
    pub completions: u64,
    /// Migrations started in the window.
    pub migrations: u64,
    /// Retransmitted transfers in the window.
    pub retransmits: u64,
    /// Bytes carried by those retransmissions.
    pub retransmit_bytes: u64,
    /// End-to-end latency of completions in the window.
    pub latency: QuantileSketch,
    /// Queue waits that ended in the window.
    pub queue_wait: QuantileSketch,
    /// Sum and count of occupancy observations (mean = sum / count).
    pub occupancy_sum: f64,
    /// Number of occupancy observations.
    pub occupancy_samples: u64,
    /// The window predates the oldest event the run's trace ring retained:
    /// the ring alone no longer covers it. Counts folded from the live
    /// event stream (the run monitor's) are still complete.
    pub truncated: bool,
}

impl WindowStats {
    fn new(alpha: f64) -> Self {
        WindowStats {
            arrivals: 0,
            completions: 0,
            migrations: 0,
            retransmits: 0,
            retransmit_bytes: 0,
            latency: QuantileSketch::new(alpha),
            queue_wait: QuantileSketch::new(alpha),
            occupancy_sum: 0.0,
            occupancy_samples: 0,
            truncated: false,
        }
    }

    /// Mean of the occupancy observations, if any.
    pub fn occupancy_mean(&self) -> Option<f64> {
        (self.occupancy_samples > 0).then(|| self.occupancy_sum / self.occupancy_samples as f64)
    }

    fn merge(&mut self, other: &WindowStats) {
        self.arrivals += other.arrivals;
        self.completions += other.completions;
        self.migrations += other.migrations;
        self.retransmits += other.retransmits;
        self.retransmit_bytes += other.retransmit_bytes;
        self.latency.merge(&other.latency);
        self.queue_wait.merge(&other.queue_wait);
        self.occupancy_sum += other.occupancy_sum;
        self.occupancy_samples += other.occupancy_samples;
        self.truncated |= other.truncated;
    }
}

/// Tumbling-window rollups keyed by [`RollupKey`] (see the module docs).
///
/// Each key holds one window series in ascending window order. The
/// simulator records at nondecreasing sim time, so a record either lands
/// in its key's last window or appends the next one: amortized O(1) per
/// record after the key lookup. An older window falls back to a
/// binary-search insert, so any record order is still correct.
#[derive(Debug, Clone)]
pub struct RollupSet {
    window: SimTime,
    alpha: f64,
    cells: BTreeMap<RollupKey, Vec<(u64, WindowStats)>>,
}

/// The stats of window `idx` in `series` (ascending window order),
/// created empty if absent.
fn window_in(series: &mut Vec<(u64, WindowStats)>, idx: u64, alpha: f64) -> &mut WindowStats {
    let pos = match series.last() {
        Some(&(last, _)) if last == idx => series.len() - 1,
        Some(&(last, _)) if last > idx => match series.binary_search_by_key(&idx, |&(i, _)| i) {
            Ok(pos) => pos,
            Err(pos) => {
                series.insert(pos, (idx, WindowStats::new(alpha)));
                pos
            }
        },
        _ => {
            series.push((idx, WindowStats::new(alpha)));
            series.len() - 1
        }
    };
    &mut series[pos].1
}

impl RollupSet {
    /// Creates an empty rollup set with the given window length and
    /// sketch relative-error bound.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero or `alpha` is out of range.
    pub fn new(window: SimTime, alpha: f64) -> Self {
        assert!(window > SimTime::ZERO, "rollup window must be positive");
        // Validate alpha eagerly (QuantileSketch::new panics on abuse).
        let _ = QuantileSketch::new(alpha);
        RollupSet {
            window,
            alpha,
            cells: BTreeMap::new(),
        }
    }

    /// The window length.
    pub fn window(&self) -> SimTime {
        self.window
    }

    /// The sketch relative-error bound.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// The window index covering `at`.
    pub fn window_index(&self, at: SimTime) -> u64 {
        at.as_ps() / self.window.as_ps()
    }

    /// Applies `update` to the `(key, window of at)` cell, cloning `key`
    /// only the first time it is seen.
    fn update(&mut self, key: &RollupKey, at: SimTime, update: impl FnOnce(&mut WindowStats)) {
        let idx = self.window_index(at);
        let alpha = self.alpha;
        match self.cells.get_mut(key) {
            Some(series) => update(window_in(series, idx, alpha)),
            None => {
                let mut stats = WindowStats::new(alpha);
                update(&mut stats);
                self.cells.insert(key.clone(), vec![(idx, stats)]);
            }
        }
    }

    /// Records a task arrival for `key` at `at`.
    pub fn record_arrival(&mut self, key: &RollupKey, at: SimTime) {
        self.update(key, at, |cell| cell.arrivals += 1);
    }

    /// Records a completion at `at` with its end-to-end latency.
    pub fn record_completion(&mut self, key: &RollupKey, at: SimTime, latency: SimTime) {
        self.update(key, at, |cell| {
            cell.completions += 1;
            cell.latency.record(latency);
        });
    }

    /// Records a queue wait that ended at `at`.
    pub fn record_queue_wait(&mut self, key: &RollupKey, at: SimTime, wait: SimTime) {
        self.update(key, at, |cell| cell.queue_wait.record(wait));
    }

    /// Records a migration started at `at`.
    pub fn record_migration(&mut self, key: &RollupKey, at: SimTime) {
        self.update(key, at, |cell| cell.migrations += 1);
    }

    /// Records one retransmitted transfer of `bytes` at `at`.
    pub fn record_retransmit(&mut self, key: &RollupKey, at: SimTime, bytes: u64) {
        self.update(key, at, |cell| {
            cell.retransmits += 1;
            cell.retransmit_bytes += bytes;
        });
    }

    /// Records an occupancy observation (a fraction in `[0, 1]`) at `at`.
    pub fn record_occupancy(&mut self, key: &RollupKey, at: SimTime, fraction: f64) {
        self.update(key, at, |cell| {
            cell.occupancy_sum += fraction;
            cell.occupancy_samples += 1;
        });
    }

    /// Marks every cell in a window that starts before `oldest_retained`
    /// as truncated: the trace ring dropped events from the head, so the
    /// retained trace covers those windows only in part. The cells' counts
    /// are left as recorded. Returns how many cells were marked.
    pub fn mark_truncated_before(&mut self, oldest_retained: SimTime) -> usize {
        let window = self.window.as_ps();
        let mut marked = 0;
        for series in self.cells.values_mut() {
            for (idx, cell) in series {
                if *idx * window >= oldest_retained.as_ps() {
                    break;
                }
                if !cell.truncated {
                    cell.truncated = true;
                    marked += 1;
                }
            }
        }
        marked
    }

    /// Releases the spare capacity each series grew while recording.
    /// Call it once recording is over, so a finished set holds no
    /// growth slack.
    pub fn shrink_to_fit(&mut self) {
        for series in self.cells.values_mut() {
            series.shrink_to_fit();
        }
    }

    /// Iterates cells in deterministic `(key, window)` order.
    pub fn cells(&self) -> impl Iterator<Item = (&RollupKey, u64, &WindowStats)> {
        self.cells
            .iter()
            .flat_map(|(k, series)| series.iter().map(move |(i, s)| (k, *i, s)))
    }

    /// Number of populated `(key, window)` cells.
    pub fn len(&self) -> usize {
        self.cells.values().map(Vec::len).sum()
    }

    /// Whether no cell has been populated.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// The per-window latency-sketch sequence for `key`, as
    /// `(window_index, stats)` pairs in window order — the input the SLO
    /// evaluator consumes.
    pub fn series_for(&self, key: &RollupKey) -> Vec<(u64, &WindowStats)> {
        self.cells.get(key).map_or_else(Vec::new, |series| {
            series.iter().map(|(i, s)| (*i, s)).collect()
        })
    }

    /// The distinct keys present, in deterministic order.
    pub fn keys(&self) -> Vec<RollupKey> {
        self.cells.keys().cloned().collect()
    }

    /// Folds every `factor` consecutive windows into one, producing a
    /// rollup set with window `factor * window` — quantiles merge
    /// losslessly (sketch merge), counts add, truncation is sticky.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is zero.
    pub fn merged(&self, factor: u64) -> RollupSet {
        assert!(factor > 0, "merge factor must be positive");
        let mut out = RollupSet::new(SimTime::from_ps(self.window.as_ps() * factor), self.alpha);
        for (key, series) in &self.cells {
            let mut folded = Vec::new();
            for (idx, stats) in series {
                window_in(&mut folded, idx / factor, self.alpha).merge(stats);
            }
            out.cells.insert(key.clone(), folded);
        }
        out
    }

    /// The rollups as a JSON document.
    pub fn to_json(&self) -> JsonDoc<&Self> {
        JsonDoc(self)
    }
}

impl RollupKey {
    /// Writes [`label`](RollupKey::label) as a string value, without
    /// building it.
    fn write_label(&self, w: &mut JsonWriter<'_>) {
        match self {
            RollupKey::Cluster => w.str("cluster"),
            RollupKey::Tenant(name) => w.str_fmt(format_args!("tenant:{name}")),
            RollupKey::Device(d) => w.str_fmt(format_args!("device:{d}")),
            RollupKey::Segment(s) => w.str_fmt(format_args!("segment:{s}")),
        };
    }
}

/// Serializes the rollups as a flat window array, each window with its
/// key label, bounds in seconds, counters, and sketch digests.
/// `truncated` appears only on truncated windows, so untruncated runs
/// serialize identically with or without the ring-overflow pass.
impl WriteJson for RollupSet {
    fn write_json(&self, w: &mut JsonWriter<'_>) {
        let window_s = self.window.as_secs();
        w.obj(|w| {
            w.field("window_s", window_s).field("alpha", self.alpha);
            w.key("windows").arr(|w| {
                for (key, idx, stats) in self.cells() {
                    w.obj(|w| {
                        w.key("key");
                        key.write_label(w);
                        w.field("window", idx)
                            .field("start_s", idx as f64 * window_s)
                            .field("arrivals", stats.arrivals)
                            .field("completions", stats.completions)
                            .field("migrations", stats.migrations)
                            .field("retransmits", stats.retransmits)
                            .field("retransmit_bytes", stats.retransmit_bytes)
                            .field("latency", stats.latency.digest_json())
                            .field("queue_wait", stats.queue_wait.digest_json())
                            .field("occupancy_mean", stats.occupancy_mean());
                        if stats.truncated {
                            w.field("truncated", true);
                        }
                    });
                }
            });
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    fn t(us: f64) -> SimTime {
        SimTime::from_us(us)
    }

    #[test]
    fn windows_partition_time() {
        let r = RollupSet::new(t(100.0), 0.01);
        assert_eq!(r.window_index(SimTime::ZERO), 0);
        assert_eq!(r.window_index(t(99.999)), 0);
        assert_eq!(r.window_index(t(100.0)), 1);
        assert_eq!(r.window_index(t(250.0)), 2);
    }

    #[test]
    fn per_key_cells_accumulate() {
        let mut r = RollupSet::new(t(100.0), 0.01);
        let tenant = RollupKey::Tenant("bw-m".into());
        r.record_arrival(&tenant, t(10.0));
        r.record_arrival(&tenant, t(20.0));
        r.record_completion(&tenant, t(150.0), t(130.0));
        r.record_arrival(&RollupKey::Cluster, t(10.0));
        let series = r.series_for(&tenant);
        assert_eq!(series.len(), 2);
        assert_eq!(series[0].1.arrivals, 2);
        assert_eq!(series[1].1.completions, 1);
        assert_eq!(series[1].1.latency.count(), 1);
        assert_eq!(r.keys().len(), 2);
    }

    #[test]
    fn merged_windows_fold_counts_and_sketches() {
        let mut r = RollupSet::new(t(100.0), 0.01);
        for i in 0..10 {
            r.record_completion(&RollupKey::Cluster, t(i as f64 * 100.0 + 1.0), t(50.0));
        }
        let coarse = r.merged(5);
        assert_eq!(coarse.window(), t(500.0));
        let series = coarse.series_for(&RollupKey::Cluster);
        assert_eq!(series.len(), 2);
        assert_eq!(series[0].1.completions, 5);
        assert_eq!(series[0].1.latency.count(), 5);
        // Lossless: the folded sketch answers like the originals.
        let p = series[0].1.latency.quantile(0.5).unwrap();
        let err = (p.as_secs() - t(50.0).as_secs()).abs() / t(50.0).as_secs();
        assert!(err <= 0.01 + 1e-9);
    }

    #[test]
    fn truncation_marks_only_early_windows() {
        let mut r = RollupSet::new(t(100.0), 0.01);
        r.record_arrival(&RollupKey::Cluster, t(10.0));
        r.record_arrival(&RollupKey::Cluster, t(110.0));
        r.record_arrival(&RollupKey::Cluster, t(210.0));
        // Oldest retained trace event at 150us: windows 0 and 1 started
        // before it, window 2 did not.
        let marked = r.mark_truncated_before(t(150.0));
        assert_eq!(marked, 2);
        let series = r.series_for(&RollupKey::Cluster);
        assert!(series[0].1.truncated);
        assert!(series[1].1.truncated);
        assert!(!series[2].1.truncated);
        let text = r.to_json().compact();
        assert_eq!(text.matches("\"truncated\":true").count(), 2);
    }

    #[test]
    fn truncated_row_streams_like_its_tree() {
        let mut r = RollupSet::new(t(100.0), 0.01);
        r.record_completion(&RollupKey::Tenant("bw\"m".into()), t(10.0), t(40.0));
        r.record_arrival(&RollupKey::Segment(2), t(120.0));
        assert_eq!(r.mark_truncated_before(t(150.0)), 2);
        let doc = r.to_json();
        let text = doc.compact();
        assert!(
            text.contains(r#""key":"tenant:bw\"m","window":0,"start_s":0,"#),
            "{text}"
        );
        assert!(text.contains(r#""p99_s":null},"occupancy_mean":null,"truncated":true}"#));
        let tree = Json::from(doc);
        assert_eq!(tree.compact(), text);
        assert_eq!(tree.pretty(), doc.pretty());
        assert_eq!(tree.pretty().matches("\"truncated\": true").count(), 2);
    }

    #[test]
    fn json_is_deterministic_and_gates_truncated_field() {
        let mut r = RollupSet::new(t(100.0), 0.01);
        r.record_occupancy(&RollupKey::Device(3), t(5.0), 0.5);
        r.record_occupancy(&RollupKey::Device(3), t(6.0), 1.0);
        let text = r.to_json().compact();
        assert!(text.contains("\"key\":\"device:3\""), "{text}");
        assert!(text.contains("\"occupancy_mean\":0.75"), "{text}");
        assert!(!text.contains("truncated"), "{text}");
        assert_eq!(text, r.to_json().compact());
    }
}
