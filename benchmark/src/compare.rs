//! `compare <a.json> <b.json>`: one row per workload × end-to-end
//! metric, judged by the bounds in `BENCHMARK.json`, so A/A agreement
//! and every later before/after are read the same way.

use crate::json::{self, Value};
use crate::spec::{MetricSpec, Spec};
use crate::stats;
use std::collections::BTreeMap;
use std::path::Path;

/// How `b` stands against `a` on one metric of one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// `b`'s median is better than `a`'s by more than the bound.
    Better,
    /// The medians are within the bound of each other.
    Same,
    /// `b`'s median is worse than `a`'s by more than the bound.
    Worse,
    /// The run-to-run spread of a side is wider than the bound: the
    /// medians cannot be told apart at this resolution.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One row of the comparison.
#[derive(Debug, Clone)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: String,
    /// Median of side `a`, side `b`.
    pub medians: (f64, f64),
    /// Interquartile spread as a share of the median, per side (`None`
    /// with fewer than two runs).
    pub spreads: (Option<f64>, Option<f64>),
    /// By what share of `a`'s median `b` is worse (negative: better).
    pub worse_by: f64,
    /// The judgement.
    pub verdict: Verdict,
}

/// Judges one metric from each side's per-run values.
pub fn judge(spec: &MetricSpec, a: &[f64], b: &[f64]) -> Row {
    let bound = spec.bound.unwrap_or(0.0);
    let (med_a, med_b) = (stats::median(a), stats::median(b));
    let spreads = (stats::relative_iqr(a), stats::relative_iqr(b));
    let delta = (med_b - med_a) / med_a.abs().max(f64::MIN_POSITIVE);
    let worse_by = if spec.higher_is_better { -delta } else { delta };
    let too_wide = |s: Option<f64>| s.is_some_and(|s| s > bound);
    let verdict = if too_wide(spreads.0) || too_wide(spreads.1) {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Worse
    } else if worse_by < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    };
    Row {
        workload: String::new(),
        metric: spec.name.clone(),
        medians: (med_a, med_b),
        spreads,
        worse_by,
        verdict,
    }
}

/// Workload → metric → one value per untraced run.
type PerWorkload = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

/// Per workload, per metric: the values of every untraced run in a
/// result file. Also returns how many runs were marked incorrect.
fn values(file: &Value) -> Result<(PerWorkload, usize), String> {
    let runs = file
        .get("runs")
        .and_then(Value::as_arr)
        .ok_or("result file has no `runs` array")?;
    let mut out = PerWorkload::new();
    let mut incorrect = 0;
    for run in runs {
        if run.get("traced") == Some(&Value::Bool(true)) {
            continue;
        }
        if run.get("correct") != Some(&Value::Bool(true)) {
            incorrect += 1;
        }
        let workload = run
            .get("workload")
            .and_then(Value::as_str)
            .ok_or("run without a workload name")?;
        let metrics = run
            .get("metrics")
            .and_then(Value::as_obj)
            .ok_or("run without metrics")?;
        for (name, m) in metrics {
            if let Some(v) = m.get("value").and_then(Value::as_f64) {
                out.entry(workload.to_string())
                    .or_default()
                    .entry(name.clone())
                    .or_default()
                    .push(v);
            }
        }
    }
    Ok((out, incorrect))
}

/// Compares two parsed result files.
pub fn rows(spec: &Spec, a: &Value, b: &Value) -> Result<(Vec<Row>, usize), String> {
    let ((a, bad_a), (b, bad_b)) = (values(a)?, values(b)?);
    let mut out = Vec::new();
    for workload in &spec.workloads {
        let (Some(wa), Some(wb)) = (a.get(workload), b.get(workload)) else {
            continue;
        };
        for m in &spec.end_to_end {
            let (Some(va), Some(vb)) = (wa.get(&m.name), wb.get(&m.name)) else {
                continue;
            };
            let mut row = judge(m, va, vb);
            row.workload = workload.clone();
            out.push(row);
        }
    }
    Ok((out, bad_a + bad_b))
}

/// Loads, compares and prints; `Ok(true)` when no row is `worse` or
/// `unresolved` and every run was correct.
pub fn run(spec: &Spec, a: &Path, b: &Path) -> Result<bool, String> {
    let load = |p: &Path| -> Result<Value, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?;
        json::parse(&text).map_err(|e| format!("{}: {e}", p.display()))
    };
    let (rows, incorrect) = rows(spec, &load(a)?, &load(b)?)?;
    if rows.is_empty() {
        return Err("the two files share no workload × end-to-end metric".to_string());
    }
    println!(
        "{:<16} {:<14} {:>14} {:>14} {:>9} {:>7} {:>8} {:>8}  verdict",
        "workload", "metric", "median a", "median b", "worse by", "bound", "spread a", "spread b"
    );
    let pct = |s: Option<f64>| s.map_or_else(|| "-".to_string(), |s| format!("{:.1}%", s * 100.0));
    let mut clean = incorrect == 0;
    for r in &rows {
        let bound = spec.find(&r.metric).and_then(|m| m.bound).unwrap_or(0.0);
        println!(
            "{:<16} {:<14} {:>14.4} {:>14.4} {:>8.1}% {:>6.0}% {:>8} {:>8}  {}",
            r.workload,
            r.metric,
            r.medians.0,
            r.medians.1,
            r.worse_by * 100.0,
            bound * 100.0,
            pct(r.spreads.0),
            pct(r.spreads.1),
            r.verdict.label()
        );
        clean &= matches!(r.verdict, Verdict::Better | Verdict::Same);
    }
    if incorrect > 0 {
        println!("{incorrect} runs failed their correctness checks");
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lower(bound: f64) -> MetricSpec {
        MetricSpec {
            name: "lat_p50_us".into(),
            unit: "us".into(),
            higher_is_better: false,
            bound: Some(bound),
        }
    }

    #[test]
    fn verdicts_follow_direction_and_bound() {
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        assert_eq!(
            judge(&lower(0.1), &a, &[104.0, 105.0, 103.0, 104.5]).verdict,
            Verdict::Same
        );
        assert_eq!(
            judge(&lower(0.1), &a, &[120.0, 121.0, 119.0, 120.5]).verdict,
            Verdict::Worse
        );
        assert_eq!(
            judge(&lower(0.1), &a, &[80.0, 81.0, 79.0, 80.5]).verdict,
            Verdict::Better
        );
        let higher = MetricSpec {
            higher_is_better: true,
            ..lower(0.07)
        };
        let row = judge(&higher, &a, &[90.0, 91.0, 89.0, 90.5]);
        assert_eq!(row.verdict, Verdict::Worse);
        assert!((row.worse_by - 0.0975).abs() < 1e-3);
        assert_eq!(
            judge(&higher, &a, &[120.0, 121.0, 119.0, 120.5]).verdict,
            Verdict::Better
        );
    }

    #[test]
    fn wide_spread_is_unresolved_not_unchanged() {
        let noisy = [70.0, 100.0, 130.0, 85.0, 115.0];
        let row = judge(&lower(0.1), &[100.0, 101.0, 99.0, 100.0], &noisy);
        assert_eq!(row.verdict, Verdict::Unresolved);
        // A single run per side has no spread to hold against the bound.
        assert_eq!(
            judge(&lower(0.1), &[100.0], &[103.0]).verdict,
            Verdict::Same
        );
        assert_eq!(judge(&lower(0.1), &[100.0], &[103.0]).spreads, (None, None));
    }

    #[test]
    fn rows_pair_up_workloads_and_skip_traced_runs() {
        let spec = Spec::parse(
            "{\"run_seconds\": 5, \"workloads\": [{\"name\": \"w\", \"why\": \"x\"}, {\"name\": \"only_a\", \"why\": \"x\"}], \
             \"end_to_end\": [{\"name\": \"ops_per_s\", \"unit\": \"1/s\", \"better\": \"higher\", \"bound\": 0.07}], \
             \"per_layer\": [{\"name\": \"l\", \"unit\": \"ns\", \"better\": \"lower\"}]}",
        )
        .unwrap();
        let file = |ops: f64| {
            json::parse(&format!(
                "{{\"runs\": [\
                 {{\"workload\": \"w\", \"traced\": false, \"correct\": true, \"metrics\": {{\"ops_per_s\": {{\"value\": {ops}, \"unit\": \"1/s\"}}}}}},\
                 {{\"workload\": \"w\", \"traced\": true, \"correct\": true, \"metrics\": {{\"l\": {{\"value\": 1, \"unit\": \"ns\"}}}}}},\
                 {{\"workload\": \"only_a\", \"traced\": false, \"correct\": false, \"metrics\": {{}}}}]}}"
            ))
            .unwrap()
        };
        let (rows, incorrect) = rows(&spec, &file(1000.0), &file(900.0)).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(
            (rows[0].workload.as_str(), rows[0].verdict),
            ("w", Verdict::Worse)
        );
        assert_eq!(incorrect, 2);
        assert!(values(&Value::obj()).is_err());
    }
}
