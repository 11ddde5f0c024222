//! Exporters bridging the in-repo observability types to standard tooling:
//! Chrome trace-event JSON (Perfetto / `chrome://tracing`) for span trees
//! and Prometheus text exposition for [`MetricsRegistry`].
//!
//! Both exporters are deterministic: spans export in id order, metadata
//! derives from sorted sets, and metrics export in registration order — so
//! a fixed-seed simulation yields byte-identical artifacts, which CI pins
//! with `cmp`.

use std::collections::BTreeSet;

use crate::json::{JsonDoc, JsonWriter, WriteJson};
use crate::metrics::MetricsRegistry;
use crate::span::{SpanTracer, TraceId};

/// The scheduler pseudo-process: spans with no device lane (queue wait,
/// compute, migration phases) render here, one thread row per task.
pub const SCHEDULER_PID: u64 = 0;

/// Thread id of control-plane rows (device-failure handling, offline
/// compilation) on any process.
pub const CONTROL_TID: u64 = u64::MAX;

/// Converts span forests to a Chrome trace-event array (the `traceEvents`
/// value), loadable in Perfetto or `chrome://tracing`.
///
/// * Every closed span becomes one complete (`ph: "X"`) event with `ts` and
///   `dur` in microseconds of sim time.
/// * Spans pinned to a device lane render under one *process per FPGA
///   device* and one *thread per virtual block* (the slot their image
///   occupies); unpinned spans render under the `scheduler` process, one
///   thread per task, so each task reads as a timeline row.
/// * Metadata (`ph: "M"`) events naming every process and thread come
///   first, derived from a sorted set for determinism.
///
/// Several tracers concatenate into one timeline (e.g. the offline
/// compilation flow plus the cloud run). The array is written on demand,
/// straight into the output of `pretty()`/`compact()`.
pub fn chrome_trace_events<'a>(tracers: &[&'a SpanTracer]) -> JsonDoc<ChromeTrace<'a>> {
    JsonDoc(ChromeTrace {
        tracers: tracers.to_vec(),
    })
}

/// The Chrome trace-event array of some span forests; see
/// [`chrome_trace_events`].
#[derive(Debug, Clone)]
pub struct ChromeTrace<'a> {
    tracers: Vec<&'a SpanTracer>,
}

impl WriteJson for ChromeTrace<'_> {
    fn write_json(&self, w: &mut JsonWriter<'_>) {
        let mut lanes: BTreeSet<(u64, u64)> = BTreeSet::new();
        for tracer in &self.tracers {
            for span in tracer.spans() {
                lanes.insert(lane_of(span));
            }
        }
        w.arr(|w| {
            let mut named_pid = None;
            for &(pid, tid) in &lanes {
                if named_pid != Some(pid) {
                    named_pid = Some(pid);
                    metadata(w, "process_name", pid, 0, |w| {
                        if pid == SCHEDULER_PID {
                            w.str("scheduler")
                        } else {
                            w.str_fmt(format_args!("fpga{}", pid - 1))
                        };
                    });
                }
                metadata(w, "thread_name", pid, tid, |w| {
                    if tid == CONTROL_TID {
                        w.str("control")
                    } else if pid == SCHEDULER_PID {
                        w.str_fmt(format_args!("task{tid}"))
                    } else {
                        w.str_fmt(format_args!("vblock{tid}"))
                    };
                });
            }
            for tracer in &self.tracers {
                for span in tracer.spans() {
                    let Some(end) = span.end else {
                        // Open spans have no duration; the simulators
                        // close everything before export, so skipping
                        // loses nothing.
                        continue;
                    };
                    let (pid, tid) = lane_of(span);
                    w.obj(|w| {
                        w.field("ph", "X")
                            .field("name", span.name)
                            .field("pid", pid)
                            .field("tid", tid)
                            .field("ts", span.begin.as_us())
                            .field("dur", end.saturating_sub(span.begin).as_us());
                        w.key("args").obj(|w| {
                            if span.trace != TraceId::NONE {
                                w.field("trace", span.trace.0);
                            }
                            for (key, value) in &span.attrs {
                                w.field(key, value);
                            }
                        });
                    });
                }
            }
        });
    }
}

/// One metadata event naming process `pid` or its thread `tid`.
fn metadata(
    w: &mut JsonWriter<'_>,
    name: &str,
    pid: u64,
    tid: u64,
    write_name: impl FnOnce(&mut JsonWriter<'_>),
) {
    w.obj(|w| {
        w.field("ph", "M")
            .field("name", name)
            .field("pid", pid)
            .field("tid", tid);
        w.key("args").obj(|w| {
            w.key("name");
            write_name(w);
        });
    });
}

fn lane_of(span: &crate::span::Span) -> (u64, u64) {
    match span.lane {
        Some(lane) => lane,
        None => (SCHEDULER_PID, span.trace.0),
    }
}

/// Sanitizes a metric name to the Prometheus charset
/// (`[a-zA-Z_:][a-zA-Z0-9_:]*`): every other character maps to `_`.
fn sanitize(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for (i, c) in name.chars().enumerate() {
        let ok = c.is_ascii_alphabetic() || c == '_' || c == ':' || (i > 0 && c.is_ascii_digit());
        out.push(if ok { c } else { '_' });
    }
    out
}

/// Splits a registered metric name into its sanitized base name and an
/// optional label block. Labeled families register as
/// `name{label="value"}`; `# HELP`/`# TYPE` metadata belongs to the base
/// name (emitted once per family), while each member keeps its labels
/// verbatim on the sample line.
fn split_labels(name: &str) -> (String, Option<&str>) {
    match name.split_once('{') {
        Some((base, rest)) => (sanitize(base), rest.strip_suffix('}')),
        None => (sanitize(name), None),
    }
}

/// Pushes the `# HELP` (when described) and `# TYPE` header of a metric
/// family, once per base name.
fn push_header(
    out: &mut String,
    metrics: &MetricsRegistry,
    raw: &str,
    base: &str,
    kind: &str,
    last_base: &mut String,
) {
    if base == last_base {
        return;
    }
    if let Some(help) = metrics.help_for(raw).or_else(|| {
        // Labeled members inherit the family's help text.
        raw.split_once('{').and_then(|(b, _)| metrics.help_for(b))
    }) {
        out.push_str(&format!("# HELP {base} {help}\n"));
    }
    out.push_str(&format!("# TYPE {base} {kind}\n"));
    last_base.clear();
    last_base.push_str(base);
}

fn fmt(value: f64) -> String {
    if value == value.trunc() && value.abs() < 1e15 {
        format!("{value:.0}")
    } else {
        format!("{value}")
    }
}

/// Renders a registry in the Prometheus text exposition format: counters
/// as `counter`, gauges as `gauge` (last observed value), timers as
/// `summary` with p50/p95/p99 quantiles plus `_sum`/`_count`. Names are
/// sanitized (`rejected.no_free_device` → `rejected_no_free_device`);
/// names registered with a label block (`vfpga_link_state{segment="2"}`)
/// keep their labels on the sample line and share one `# TYPE` header per
/// family. [`Described`](MetricsRegistry::describe) metrics get a
/// `# HELP` line. Everything is emitted in registration order, so the
/// exposition is deterministic.
pub fn prometheus_text(metrics: &MetricsRegistry) -> String {
    let mut out = String::new();
    let mut last_base = String::new();
    for (name, value) in metrics.counters() {
        let (base, labels) = split_labels(name);
        push_header(&mut out, metrics, name, &base, "counter", &mut last_base);
        match labels {
            Some(l) => out.push_str(&format!("{base}{{{l}}} {value}\n")),
            None => out.push_str(&format!("{base} {value}\n")),
        }
    }
    last_base.clear();
    for (name, series) in metrics.gauges() {
        let (base, labels) = split_labels(name);
        push_header(&mut out, metrics, name, &base, "gauge", &mut last_base);
        let value = fmt(series.last().unwrap_or(0.0));
        match labels {
            Some(l) => out.push_str(&format!("{base}{{{l}}} {value}\n")),
            None => out.push_str(&format!("{base} {value}\n")),
        }
    }
    last_base.clear();
    for (name, id) in metrics.timers() {
        let (base, _) = split_labels(name);
        push_header(&mut out, metrics, name, &base, "summary", &mut last_base);
        for q in [0.5, 0.95, 0.99] {
            if let Some(v) = metrics.timer_quantile(id, q) {
                out.push_str(&format!("{base}{{quantile=\"{q}\"}} {}\n", fmt(v)));
            }
        }
        let summary = metrics.timer_summary(id);
        out.push_str(&format!("{base}_sum {}\n", fmt(summary.sum())));
        out.push_str(&format!("{base}_count {}\n", summary.count()));
    }
    out
}

/// Renders windowed rollups and SLO outcomes as Prometheus text: one
/// `vfpga_rollup_*` gauge family per signal labeled by rollup key (last
/// window's value, quantiles from the merged whole-run sketch), plus
/// `vfpga_slo_burn_rate`/`vfpga_slo_health`/`vfpga_slo_alerts` per
/// evaluated SLO. Deterministic: rollup keys iterate in their sorted
/// order and outcomes in evaluation order.
pub fn prometheus_rollup_text(
    rollups: &crate::rollup::RollupSet,
    outcomes: &[crate::slo::SloOutcome],
) -> String {
    let mut out = String::new();
    out.push_str("# HELP vfpga_rollup_completions Completions per rollup key (whole run).\n");
    out.push_str("# TYPE vfpga_rollup_completions counter\n");
    let whole = rollups.merged(u64::MAX / rollups.window().as_ps().max(1));
    for key in whole.keys() {
        for (_, stats) in whole.series_for(&key) {
            out.push_str(&format!(
                "vfpga_rollup_completions{{key=\"{}\"}} {}\n",
                key.label(),
                stats.completions
            ));
        }
    }
    out.push_str("# HELP vfpga_rollup_latency_seconds Sketch latency quantiles per rollup key.\n");
    out.push_str("# TYPE vfpga_rollup_latency_seconds summary\n");
    for key in whole.keys() {
        for (_, stats) in whole.series_for(&key) {
            if stats.latency.is_empty() {
                continue;
            }
            for q in [0.5, 0.95, 0.99] {
                if let Some(v) = stats.latency.quantile_secs(q) {
                    out.push_str(&format!(
                        "vfpga_rollup_latency_seconds{{key=\"{}\",quantile=\"{q}\"}} {}\n",
                        key.label(),
                        fmt(v)
                    ));
                }
            }
        }
    }
    out.push_str("# HELP vfpga_slo_max_burn_rate Peak fast-window burn rate per SLO and key.\n");
    out.push_str("# TYPE vfpga_slo_max_burn_rate gauge\n");
    for o in outcomes {
        out.push_str(&format!(
            "vfpga_slo_max_burn_rate{{slo=\"{}\",key=\"{}\"}} {}\n",
            o.slo,
            o.key,
            fmt(o.max_fast_burn)
        ));
    }
    out.push_str("# HELP vfpga_slo_health Fraction of windows that met the objective.\n");
    out.push_str("# TYPE vfpga_slo_health gauge\n");
    for o in outcomes {
        out.push_str(&format!(
            "vfpga_slo_health{{slo=\"{}\",key=\"{}\"}} {}\n",
            o.slo,
            o.key,
            fmt(o.health)
        ));
    }
    out.push_str("# HELP vfpga_slo_alerts Alerts fired per SLO and key over the run.\n");
    out.push_str("# TYPE vfpga_slo_alerts counter\n");
    for o in outcomes {
        out.push_str(&format!(
            "vfpga_slo_alerts{{slo=\"{}\",key=\"{}\"}} {}\n",
            o.slo,
            o.key,
            o.alerts.len()
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::span::SpanId;
    use crate::time::SimTime;

    fn sample_tracer() -> SpanTracer {
        let mut s = SpanTracer::new();
        let root = s.begin("task", TraceId(0), None, SimTime::ZERO);
        let w = s.begin("queue_wait", TraceId(0), Some(root), SimTime::ZERO);
        s.end(w, SimTime::from_us(2.0));
        let r = s.begin("reconfigure", TraceId(0), Some(root), SimTime::from_us(2.0));
        s.set_lane(r, 1, 3);
        s.attr(r, "device", 0u64);
        s.end(r, SimTime::from_us(2.0));
        let c = s.begin("compute", TraceId(0), Some(root), SimTime::from_us(2.0));
        s.end(c, SimTime::from_us(9.0));
        s.attr(root, "outcome", "completed");
        s.end(root, SimTime::from_us(9.0));
        s
    }

    #[test]
    fn chrome_export_names_processes_and_threads() {
        let s = sample_tracer();
        let text = chrome_trace_events(&[&s]).compact();
        assert!(text.contains(r#""name":"scheduler""#), "{text}");
        assert!(text.contains(r#""name":"fpga0""#), "{text}");
        assert!(text.contains(r#""name":"task0""#), "{text}");
        assert!(text.contains(r#""name":"vblock3""#), "{text}");
        assert!(text.contains(r#""ph":"X""#), "{text}");
        // queue_wait: ts 0, dur 2us, on the scheduler lane.
        assert!(text.contains(r#""name":"queue_wait""#), "{text}");
        assert!(text.contains(r#""dur":2"#), "{text}");
        // The parsed array alternates well-formed objects.
        let doc = Json::parse(&text).unwrap();
        let Json::Arr(events) = doc else {
            panic!("expected array")
        };
        assert!(
            events.len() >= 7,
            "metadata + 4 spans, got {}",
            events.len()
        );
        for e in &events {
            assert!(e.field("ph").is_some());
            assert!(e.field("pid").is_some());
        }
    }

    #[test]
    fn chrome_export_skips_open_spans_and_merges_tracers() {
        let a = sample_tracer();
        let mut b = SpanTracer::new();
        let open = b.begin("decompose", TraceId::NONE, None, SimTime::ZERO);
        let _ = open;
        let text = chrome_trace_events(&[&a, &b]).compact();
        assert!(!text.contains(r#""name":"decompose""#), "{text}");
        let mut c = SpanTracer::new();
        let d = c.begin("decompose", TraceId::NONE, None, SimTime::ZERO);
        c.end(d, SimTime::ZERO);
        let text = chrome_trace_events(&[&a, &c]).compact();
        assert!(text.contains(r#""name":"decompose""#), "{text}");
        // Control-plane spans (TraceId::NONE) land on the control thread.
        assert!(text.contains(r#""name":"control""#), "{text}");
    }

    #[test]
    fn span_without_trace_or_attributes_has_empty_args() {
        let mut s = SpanTracer::new();
        let id = s.begin("compile", TraceId::NONE, None, SimTime::ZERO);
        s.end(id, SimTime::from_us(1.5));
        let doc = chrome_trace_events(&[&s]);
        let text = doc.compact();
        assert!(
            text.ends_with(r#"{"ph":"X","name":"compile","pid":0,"tid":18446744073709552000,"ts":0,"dur":1.5,"args":{}}]"#),
            "{text}"
        );
        assert!(doc.pretty().contains("\"args\": {}\n"));
        let tree = Json::from(doc.clone());
        assert_eq!(tree.compact(), text);
        assert_eq!(tree.pretty(), doc.pretty());
    }

    #[test]
    fn chrome_export_is_deterministic() {
        let s = sample_tracer();
        assert_eq!(
            chrome_trace_events(&[&s]).pretty(),
            chrome_trace_events(&[&s]).pretty()
        );
    }

    #[test]
    fn lane_defaults_to_scheduler_per_task() {
        let mut s = SpanTracer::new();
        let id = s.begin("task", TraceId(7), None, SimTime::ZERO);
        s.end(id, SimTime::ZERO);
        assert_eq!(lane_of(s.span(SpanId(0))), (SCHEDULER_PID, 7));
    }

    #[test]
    fn prometheus_exposition_shape() {
        let mut m = MetricsRegistry::new();
        let c = m.counter("rejected.no_free_device");
        m.add(c, 3);
        let g = m.gauge("occupancy");
        m.set_gauge(g, SimTime::ZERO, 0.25);
        let t = m.timer("latency_s");
        for i in 1..=100 {
            m.record_timer(t, i as f64);
        }
        let text = prometheus_text(&m);
        assert!(
            text.contains("# TYPE rejected_no_free_device counter\nrejected_no_free_device 3\n"),
            "{text}"
        );
        assert!(
            text.contains("# TYPE occupancy gauge\noccupancy 0.25\n"),
            "{text}"
        );
        assert!(text.contains("# TYPE latency_s summary\n"), "{text}");
        assert!(text.contains("latency_s{quantile=\"0.5\"} 50\n"), "{text}");
        assert!(text.contains("latency_s{quantile=\"0.99\"} 99\n"), "{text}");
        assert!(text.contains("latency_s_sum 5050\n"), "{text}");
        assert!(text.contains("latency_s_count 100\n"), "{text}");
        // Deterministic.
        assert_eq!(text, prometheus_text(&m));
    }

    #[test]
    fn prometheus_skips_quantiles_of_empty_timers() {
        let mut m = MetricsRegistry::new();
        m.timer("ttr_s");
        let text = prometheus_text(&m);
        assert!(!text.contains("quantile"), "{text}");
        assert!(text.contains("ttr_s_count 0\n"), "{text}");
    }

    #[test]
    fn prometheus_emits_help_and_label_families() {
        let mut m = MetricsRegistry::new();
        let c = m.counter("link.retransmits");
        m.describe(
            "link.retransmits",
            "Transfers retransmitted after corruption.",
        );
        m.add(c, 2);
        m.describe(
            "vfpga_link_state",
            "Ring segment health: 0 ok, 1 degraded, 2 failed.",
        );
        for seg in 0..3u64 {
            let g = m.gauge(&format!("vfpga_link_state{{segment=\"{seg}\"}}"));
            m.set_gauge(g, SimTime::ZERO, seg as f64);
        }
        let text = prometheus_text(&m);
        assert!(
            text.contains(
                "# HELP link_retransmits Transfers retransmitted after corruption.\n\
                 # TYPE link_retransmits counter\nlink_retransmits 2\n"
            ),
            "{text}"
        );
        // One header for the family, one sample line per label set.
        assert_eq!(text.matches("# TYPE vfpga_link_state gauge").count(), 1);
        assert_eq!(text.matches("# HELP vfpga_link_state").count(), 1);
        assert!(
            text.contains("vfpga_link_state{segment=\"0\"} 0\n"),
            "{text}"
        );
        assert!(
            text.contains("vfpga_link_state{segment=\"2\"} 2\n"),
            "{text}"
        );
        assert_eq!(text, prometheus_text(&m));
    }

    #[test]
    fn prometheus_rollup_exposition() {
        use crate::rollup::{RollupKey, RollupSet};
        use crate::slo::{evaluate_slo, SloSpec};
        use std::collections::BTreeMap;

        let mut r = RollupSet::new(SimTime::from_us(100.0), 0.01);
        let tenant = RollupKey::Tenant("bw-m".into());
        for i in 0..20 {
            r.record_completion(
                &tenant,
                SimTime::from_us(i as f64 * 40.0),
                SimTime::from_us(55.0),
            );
        }
        let spec = SloSpec::latency("p95-latency", 0.95, SimTime::from_us(50.0));
        let bad: BTreeMap<u64, bool> = (0..8).map(|i| (i, true)).collect();
        let out = evaluate_slo(&spec, &tenant.label(), &bad, 10, r.window());
        let text = prometheus_rollup_text(&r, std::slice::from_ref(&out));
        assert_eq!(text, prometheus_rollup_text(&r, std::slice::from_ref(&out)));
        assert!(
            text.contains("vfpga_rollup_completions{key=\"tenant:bw-m\"} 20\n"),
            "{text}"
        );
        assert!(
            text.contains("vfpga_rollup_latency_seconds{key=\"tenant:bw-m\",quantile=\"0.95\"}"),
            "{text}"
        );
        assert!(
            text.contains("vfpga_slo_health{slo=\"p95-latency\",key=\"tenant:bw-m\"}"),
            "{text}"
        );
        assert!(
            text.contains("vfpga_slo_alerts{slo=\"p95-latency\",key=\"tenant:bw-m\"} 1\n"),
            "{text}"
        );
    }

    #[test]
    fn sanitize_maps_invalid_chars() {
        assert_eq!(
            sanitize("rejected.policy_excluded"),
            "rejected_policy_excluded"
        );
        assert_eq!(sanitize("9lives"), "_lives");
        assert_eq!(sanitize("a-b c"), "a_b_c");
    }
}
