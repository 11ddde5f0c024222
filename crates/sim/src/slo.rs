//! Declarative SLOs with multi-window burn-rate alerting over rollups.
//!
//! An [`SloSpec`] states an objective over a latency quantile — "the
//! p95 end-to-end latency stays under `target`" — plus an *error budget*:
//! the fraction of windows allowed to violate it. Evaluation walks the
//! tumbling-window sequence of a [`RollupSet`](crate::RollupSet) key and
//! classifies each window good or bad (bad = the window saw traffic and
//! its sketch quantile exceeded the target; empty windows are good).
//!
//! Alerting uses the SRE *multi-window burn rate* recipe: the burn rate
//! over a trailing span of `n` windows is
//!
//! ```text
//! burn = (bad windows / n) / error_budget
//! ```
//!
//! i.e. how many times faster than budgeted the error budget is being
//! consumed. A *fast* span (default 5 windows) reacts quickly; a *slow*
//! span (default 30) confirms the problem is sustained. The alert state
//! machine, driven purely by sim time, is:
//!
//! * `Idle → Pending` when the fast burn crosses the threshold,
//! * `Pending → Firing` when the slow burn confirms (both above),
//! * `Pending → Idle` when the fast burn recovers first (a blip),
//! * `Firing → Idle` when both burns drop below the threshold — the
//!   alert's `resolved_at` is stamped with that window's end.
//!
//! Everything is a pure function of the window sequence, so a seeded run
//! alerts byte-identically every time.

use std::collections::BTreeMap;

use crate::json::{JsonWriter, WriteJson};
use crate::time::SimTime;

/// A declarative latency-quantile SLO (see the module docs).
#[derive(Debug, Clone, PartialEq)]
pub struct SloSpec {
    /// Name used in artifacts and alert labels.
    pub name: String,
    /// The latency quantile the objective constrains (e.g. `0.95`).
    pub quantile: f64,
    /// The latency target that quantile must stay under.
    pub target: SimTime,
    /// Fraction of windows allowed to violate the target.
    pub error_budget: f64,
    /// Trailing windows in the fast (reactive) burn span.
    pub fast_windows: usize,
    /// Trailing windows in the slow (confirming) burn span.
    pub slow_windows: usize,
    /// Burn rate at or above which a span is considered burning.
    pub burn_threshold: f64,
}

impl SloSpec {
    /// A latency SLO with the conventional 5-fast / 30-slow window pair,
    /// a 5% error budget, and a burn threshold of 2x budget pace.
    pub fn latency(name: &str, quantile: f64, target: SimTime) -> Self {
        assert!(
            (0.0..=1.0).contains(&quantile),
            "SLO quantile out of range: {quantile}"
        );
        SloSpec {
            name: name.to_string(),
            quantile,
            target,
            error_budget: 0.05,
            fast_windows: 5,
            slow_windows: 30,
            burn_threshold: 2.0,
        }
    }
}

/// Serializes the spec.
impl WriteJson for SloSpec {
    fn write_json(&self, w: &mut JsonWriter<'_>) {
        w.obj(|w| {
            w.field("name", &self.name)
                .field("quantile", self.quantile)
                .field("target_s", self.target.as_secs())
                .field("error_budget", self.error_budget)
                .field("fast_windows", self.fast_windows)
                .field("slow_windows", self.slow_windows)
                .field("burn_threshold", self.burn_threshold);
        });
    }
}

/// Alert lifecycle state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlertState {
    /// No burn.
    Idle,
    /// Fast span burning; waiting for the slow span to confirm.
    Pending,
    /// Both spans burning: the alert is active.
    Firing,
}

impl AlertState {
    /// The stable label used in artifacts.
    pub fn label(&self) -> &'static str {
        match self {
            AlertState::Idle => "idle",
            AlertState::Pending => "pending",
            AlertState::Firing => "firing",
        }
    }
}

/// One fired alert: when it fired, when (if) it resolved, how hard the
/// budget was burning at its peak.
#[derive(Debug, Clone, PartialEq)]
pub struct Alert {
    /// The SLO that fired.
    pub slo: String,
    /// The rollup key label the SLO was evaluated against.
    pub key: String,
    /// Sim time the alert entered `Firing` (the confirming window's end).
    pub fired_at: SimTime,
    /// Sim time the alert resolved; `None` if still firing at run end.
    pub resolved_at: Option<SimTime>,
    /// Highest fast-span burn rate observed while the alert was active.
    pub peak_burn: f64,
}

/// Serializes the alert with second-denominated timestamps.
impl WriteJson for Alert {
    fn write_json(&self, w: &mut JsonWriter<'_>) {
        w.obj(|w| {
            w.field("slo", &self.slo)
                .field("key", &self.key)
                .field("fired_at_s", self.fired_at.as_secs())
                .field("resolved_at_s", self.resolved_at.map(|t| t.as_secs()))
                .field("peak_burn", self.peak_burn);
        });
    }
}

/// The result of evaluating one SLO against one key's window sequence.
#[derive(Debug, Clone)]
pub struct SloOutcome {
    /// The evaluated spec's name.
    pub slo: String,
    /// The rollup key label.
    pub key: String,
    /// Windows evaluated (the full `0..=last` range).
    pub windows: u64,
    /// Windows that violated the target.
    pub bad_windows: u64,
    /// Alerts fired, in firing order.
    pub alerts: Vec<Alert>,
    /// Times the state machine entered `Pending` (blips included).
    pub pending_entries: u64,
    /// State at the end of the sequence.
    pub final_state: AlertState,
    /// Highest fast-span burn rate seen anywhere in the sequence.
    pub max_fast_burn: f64,
    /// Health score: the fraction of windows that met the objective.
    pub health: f64,
}

/// Serializes the outcome.
impl WriteJson for SloOutcome {
    fn write_json(&self, w: &mut JsonWriter<'_>) {
        w.obj(|w| {
            w.field("slo", &self.slo)
                .field("key", &self.key)
                .field("windows", self.windows)
                .field("bad_windows", self.bad_windows)
                .field("pending_entries", self.pending_entries)
                .field("final_state", self.final_state.label())
                .field("max_fast_burn", self.max_fast_burn)
                .field("health", self.health)
                .field("alerts", &self.alerts);
        });
    }
}

/// Burn rate over a trailing span: `(bad / n) / budget`.
fn burn(bad: u64, n: usize, budget: f64) -> f64 {
    if n == 0 || budget <= 0.0 {
        return 0.0;
    }
    (bad as f64 / n as f64) / budget
}

/// Evaluates `spec` for the key labeled `key` over windows `0..=last`.
///
/// `bad` maps window index to whether the window violated the objective;
/// missing indexes are good (no traffic, no violation). `window` is the
/// rollup window length, used to stamp alert transitions with sim time
/// (a transition observed at window `i` is stamped `(i + 1) * window`,
/// the moment the window closed).
pub fn evaluate_slo(
    spec: &SloSpec,
    key: &str,
    bad: &BTreeMap<u64, bool>,
    last: u64,
    window: SimTime,
) -> SloOutcome {
    let fast = spec.fast_windows.max(1);
    let slow = spec.slow_windows.max(1);
    // Ring of the trailing `slow` windows' badness (slow >= fast is not
    // required, but typical).
    let span = fast.max(slow);
    let mut ring: Vec<bool> = Vec::with_capacity(span);
    let mut state = AlertState::Idle;
    let mut alerts: Vec<Alert> = Vec::new();
    let mut pending_entries = 0u64;
    let mut bad_windows = 0u64;
    let mut max_fast_burn = 0.0f64;
    for i in 0..=last {
        let is_bad = bad.get(&i).copied().unwrap_or(false);
        if is_bad {
            bad_windows += 1;
        }
        if ring.len() == span {
            ring.remove(0);
        }
        ring.push(is_bad);
        let tail = |n: usize| -> u64 {
            let n = n.min(ring.len());
            ring[ring.len() - n..].iter().filter(|&&b| b).count() as u64
        };
        let fast_burn = burn(tail(fast), fast.min(i as usize + 1), spec.error_budget);
        let slow_burn = burn(tail(slow), slow.min(i as usize + 1), spec.error_budget);
        max_fast_burn = max_fast_burn.max(fast_burn);
        let closed_at = SimTime::from_ps(window.as_ps().saturating_mul(i + 1));
        match state {
            AlertState::Idle => {
                if fast_burn >= spec.burn_threshold {
                    state = AlertState::Pending;
                    pending_entries += 1;
                    // A short fast span can confirm immediately.
                    if slow_burn >= spec.burn_threshold {
                        state = AlertState::Firing;
                        alerts.push(Alert {
                            slo: spec.name.clone(),
                            key: key.to_string(),
                            fired_at: closed_at,
                            resolved_at: None,
                            peak_burn: fast_burn,
                        });
                    }
                }
            }
            AlertState::Pending => {
                if fast_burn < spec.burn_threshold {
                    state = AlertState::Idle;
                } else if slow_burn >= spec.burn_threshold {
                    state = AlertState::Firing;
                    alerts.push(Alert {
                        slo: spec.name.clone(),
                        key: key.to_string(),
                        fired_at: closed_at,
                        resolved_at: None,
                        peak_burn: fast_burn,
                    });
                }
            }
            AlertState::Firing => {
                let active = alerts.last_mut().expect("firing implies an alert");
                active.peak_burn = active.peak_burn.max(fast_burn);
                if fast_burn < spec.burn_threshold && slow_burn < spec.burn_threshold {
                    active.resolved_at = Some(closed_at);
                    state = AlertState::Idle;
                }
            }
        }
    }
    let windows = last + 1;
    SloOutcome {
        slo: spec.name.clone(),
        key: key.to_string(),
        windows,
        bad_windows,
        alerts,
        pending_entries,
        final_state: state,
        max_fast_burn,
        health: (windows - bad_windows) as f64 / windows as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::JsonDoc;

    fn spec(fast: usize, slow: usize) -> SloSpec {
        SloSpec {
            name: "p95".into(),
            quantile: 0.95,
            target: SimTime::from_us(100.0),
            error_budget: 0.1,
            fast_windows: fast,
            slow_windows: slow,
            burn_threshold: 2.0,
        }
    }

    fn bad_set(indexes: &[u64]) -> BTreeMap<u64, bool> {
        indexes.iter().map(|&i| (i, true)).collect()
    }

    #[test]
    fn quiet_sequence_never_alerts() {
        let out = evaluate_slo(
            &spec(5, 30),
            "cluster",
            &BTreeMap::new(),
            50,
            SimTime::from_us(10.0),
        );
        assert!(out.alerts.is_empty());
        assert_eq!(out.final_state, AlertState::Idle);
        assert_eq!(out.health, 1.0);
        assert_eq!(out.windows, 51);
    }

    #[test]
    fn sustained_burn_fires_and_resolves() {
        // Windows 10..20 all bad: with fast=3/slow=6, budget 0.1, thr 2.0,
        // the fast span burns at window 10 (1/3/0.1 = 3.3), the slow span
        // confirms once 2 of the trailing 6 are bad (window 11: 2/6/0.1 =
        // 3.3) — then everything recovers after the burst passes.
        let bad = bad_set(&(10..=20).collect::<Vec<_>>());
        let w = SimTime::from_us(10.0);
        let out = evaluate_slo(&spec(3, 6), "tenant:bw-m", &bad, 40, w);
        assert_eq!(out.alerts.len(), 1, "{:?}", out.alerts);
        let alert = &out.alerts[0];
        assert_eq!(alert.fired_at, SimTime::from_us(120.0));
        let resolved = alert.resolved_at.expect("alert resolves");
        assert!(resolved > alert.fired_at);
        assert_eq!(out.final_state, AlertState::Idle);
        assert!(out.max_fast_burn >= 10.0 - 1e-9, "{}", out.max_fast_burn);
        assert_eq!(out.bad_windows, 11);
        assert!((out.health - 30.0 / 41.0).abs() < 1e-12);
    }

    #[test]
    fn single_blip_pends_but_does_not_fire() {
        // One bad window: the fast span reacts, the slow span (needing 2
        // bad of 30 to cross thr 2.0 with budget 0.05) never confirms.
        let mut s = spec(5, 30);
        s.error_budget = 0.05;
        let out = evaluate_slo(&s, "cluster", &bad_set(&[12]), 60, SimTime::from_us(10.0));
        assert!(out.alerts.is_empty());
        assert!(out.pending_entries >= 1);
        assert_eq!(out.final_state, AlertState::Idle);
    }

    #[test]
    fn unresolved_alert_reports_none() {
        // Bad through the end of the sequence: fires, never resolves.
        let bad = bad_set(&(30..=40).collect::<Vec<_>>());
        let out = evaluate_slo(&spec(3, 6), "device:0", &bad, 40, SimTime::from_us(10.0));
        assert_eq!(out.alerts.len(), 1);
        assert_eq!(out.alerts[0].resolved_at, None);
        assert_eq!(out.final_state, AlertState::Firing);
    }

    #[test]
    fn evaluation_is_deterministic() {
        let bad = bad_set(&[3, 4, 5, 9, 22, 23, 24, 25]);
        let a = evaluate_slo(&spec(4, 12), "k", &bad, 30, SimTime::from_us(5.0));
        let b = evaluate_slo(&spec(4, 12), "k", &bad, 30, SimTime::from_us(5.0));
        assert_eq!(JsonDoc(&a).pretty(), JsonDoc(&b).pretty());
    }
}
