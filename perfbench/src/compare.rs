//! `vfpga-perf compare A B`: the acceptance rule of a performance change,
//! applied per (end-to-end metric, workload) to two ledgers of runs.
//!
//! A ledger holds one JSON object per line, as `vfpga-perf run --ledger`
//! appends them: `{"workload": .., "seed": .., "trace": .., "metrics":
//! {name: {"value": .., "unit": ..}}}`. `A` is the parent, `B` the change.
//! For each row the rule is:
//!
//! * **improved** — B wins at least nine tenths of the index-paired runs
//!   (ties count for neither) and the medians differ by more than A's
//!   inter-quartile distance;
//! * **unresolved** — otherwise, when A's inter-quartile spread exceeds
//!   the bound, unless every B run is better than every A run;
//! * **regressed** — otherwise, when B's median is worse than A's by more
//!   than the bound (a share of A's median);
//! * **unchanged** — otherwise.
//!
//! Quartiles use the "exclusive" method of Python's
//! `statistics.quantiles(values, n=4)`.

use std::collections::BTreeMap;

use vfpga_sim::Json;

use crate::run::median;

/// How a metric moved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Better beyond the parent's spread, in nine tenths of the pairs.
    Improved,
    /// Within the bound.
    Unchanged,
    /// Worse beyond the bound.
    Regressed,
    /// The parent's spread is wider than the bound.
    Unresolved,
}

impl Verdict {
    /// The verdict's name in the report.
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Median and quartiles of one side.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spread {
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
}

impl Spread {
    fn of(values: &[f64]) -> Spread {
        let (q1, q3) = quartiles(values);
        Spread {
            q1,
            median: median(values),
            q3,
        }
    }
}

/// One compared (metric, workload) pair.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Metric name.
    pub metric: String,
    /// Workload name.
    pub workload: String,
    /// The parent's runs.
    pub a: Spread,
    /// The change's runs.
    pub b: Spread,
    /// Share of index-paired runs the change won.
    pub wins: f64,
    /// The metric's regression bound.
    pub bound: f64,
    /// The verdict.
    pub verdict: Verdict,
}

/// First and third quartile, Python `statistics.quantiles(n=4)`
/// ("exclusive" method); a single value is its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let q = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(1), q(3))
}

/// Values per (metric, workload) of one ledger, in line order.
fn ledger(text: &str) -> Result<BTreeMap<(String, String), Vec<f64>>, String> {
    let mut out: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let doc = Json::parse(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        let workload = doc
            .field("workload")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("line {}: no workload", i + 1))?;
        let Some(Json::Obj(metrics)) = doc.field("metrics") else {
            return Err(format!("line {}: no metrics", i + 1));
        };
        for (name, m) in metrics {
            if let Some(v) = m.field("value").and_then(Json::as_num) {
                out.entry((name.clone(), workload.to_string()))
                    .or_default()
                    .push(v);
            }
        }
    }
    Ok(out)
}

/// Compares ledger `a` (parent) with ledger `b` (change) on every
/// end-to-end metric of `benchmark` (the text of `BENCHMARK.json`).
///
/// # Errors
///
/// Malformed ledgers or benchmark definitions.
pub fn compare(a: &str, b: &str, benchmark: &str) -> Result<Vec<Row>, String> {
    let spec = Json::parse(benchmark).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let Some(Json::Arr(metrics)) = spec.field("end_to_end") else {
        return Err("BENCHMARK.json: no end_to_end list".to_string());
    };
    let (a, b) = (ledger(a)?, ledger(b)?);
    let mut rows = Vec::new();
    for m in metrics {
        let name = m.field("name").and_then(Json::as_str).unwrap_or("");
        let lower = m.field("better").and_then(Json::as_str) == Some("lower");
        let bound = m.field("bound").and_then(Json::as_num).unwrap_or(0.0);
        for ((metric, workload), av) in a.range((name.to_string(), String::new())..) {
            if metric != name {
                break;
            }
            let Some(bv) = b.get(&(metric.clone(), workload.clone())) else {
                continue;
            };
            rows.push(row(metric, workload, av, bv, lower, bound));
        }
    }
    Ok(rows)
}

fn row(metric: &str, workload: &str, av: &[f64], bv: &[f64], lower: bool, bound: f64) -> Row {
    // `better(x, y)`: x reads better than y.
    let better = |x: f64, y: f64| if lower { x < y } else { x > y };
    let (a, b) = (Spread::of(av), Spread::of(bv));
    let pairs = av.len().min(bv.len());
    let won = av.iter().zip(bv).filter(|&(&x, &y)| better(y, x)).count();
    let wins = won as f64 / pairs.max(1) as f64;
    let worse_by = if lower {
        (b.median - a.median) / a.median.abs().max(f64::MIN_POSITIVE)
    } else {
        (a.median - b.median) / a.median.abs().max(f64::MIN_POSITIVE)
    };
    let a_spread = (a.q3 - a.q1) / a.median.abs().max(f64::MIN_POSITIVE);
    let all_better = bv.iter().all(|&y| av.iter().all(|&x| better(y, x)));
    let verdict = if pairs > 0
        && wins >= 0.9
        && better(b.median, a.median)
        && (b.median - a.median).abs() > a.q3 - a.q1
    {
        Verdict::Improved
    } else if a_spread > bound && !all_better {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Regressed
    } else {
        Verdict::Unchanged
    };
    Row {
        metric: metric.to_string(),
        workload: workload.to_string(),
        a,
        b,
        wins,
        bound,
        verdict,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 4.5));
        assert_eq!(quartiles(&[3.0]), (3.0, 3.0));
    }

    fn lines(workload: &str, metric: &str, values: &[f64]) -> String {
        values
            .iter()
            .map(|v| {
                format!(
                    "{{\"workload\": \"{workload}\", \"metrics\": {{\"{metric}\": {{\"value\": {v}, \"unit\": \"1/s\"}}}}}}\n"
                )
            })
            .collect()
    }

    const SPEC: &str = r#"{"end_to_end": [
        {"name": "host_items_per_s", "unit": "1/s", "better": "higher", "bound": 0.1}
    ]}"#;

    fn verdict(a: &[f64], b: &[f64]) -> Verdict {
        let rows = compare(
            &lines("w", "host_items_per_s", a),
            &lines("w", "host_items_per_s", b),
            SPEC,
        )
        .unwrap();
        assert_eq!(rows.len(), 1);
        rows[0].verdict
    }

    #[test]
    fn verdicts_follow_the_rule() {
        let base = [
            100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 100.2, 99.8, 100.1, 99.9,
        ];
        let faster: Vec<f64> = base.iter().map(|x| x * 1.2).collect();
        let slower: Vec<f64> = base.iter().map(|x| x * 0.8).collect();
        let same: Vec<f64> = base.iter().map(|x| x * 0.99).collect();
        assert_eq!(verdict(&base, &faster), Verdict::Improved);
        assert_eq!(verdict(&base, &slower), Verdict::Regressed);
        assert_eq!(verdict(&base, &same), Verdict::Unchanged);
        let noisy = [
            50.0, 150.0, 60.0, 140.0, 100.0, 70.0, 130.0, 80.0, 120.0, 100.0,
        ];
        assert_eq!(verdict(&noisy, &base), Verdict::Unresolved);
    }
}
