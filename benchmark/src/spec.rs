//! `BENCHMARK.json`, read back: the one place metric names, units,
//! directions and regression bounds are written down.

use crate::json::{self, Value};
use std::path::{Path, PathBuf};

/// One metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    /// Metric name.
    pub name: String,
    /// Unit string.
    pub unit: String,
    /// `true` when larger values are better.
    pub higher_is_better: bool,
    /// Share of the baseline median the metric may worsen by (end-to-end
    /// metrics only).
    pub bound: Option<f64>,
}

/// The parts of `BENCHMARK.json` the benchmark itself needs.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Default window length, seconds.
    pub run_seconds: f64,
    /// Workload names, in file order.
    pub workloads: Vec<String>,
    /// Gated metrics.
    pub end_to_end: Vec<MetricSpec>,
    /// Reported metrics.
    pub per_layer: Vec<MetricSpec>,
}

fn metric(v: &Value, bounded: bool) -> Result<MetricSpec, String> {
    let text = |key: &str| {
        v.get(key)
            .and_then(Value::as_str)
            .map(str::to_string)
            .ok_or_else(|| format!("metric without `{key}`: {}", v.to_line()))
    };
    let better = text("better")?;
    Ok(MetricSpec {
        name: text("name")?,
        unit: text("unit")?,
        higher_is_better: match better.as_str() {
            "higher" => true,
            "lower" => false,
            other => return Err(format!("`better` must be higher or lower, got `{other}`")),
        },
        bound: if bounded {
            Some(
                v.get("bound")
                    .and_then(Value::as_f64)
                    .ok_or_else(|| format!("end-to-end metric without a bound: {}", v.to_line()))?,
            )
        } else {
            None
        },
    })
}

impl Spec {
    /// Parses the file's text.
    pub fn parse(text: &str) -> Result<Spec, String> {
        let v = json::parse(text)?;
        let list = |key: &str| {
            v.get(key)
                .and_then(Value::as_arr)
                .ok_or_else(|| format!("BENCHMARK.json has no `{key}` array"))
        };
        Ok(Spec {
            run_seconds: v
                .get("run_seconds")
                .and_then(Value::as_f64)
                .ok_or("BENCHMARK.json has no `run_seconds`")?,
            workloads: list("workloads")?
                .iter()
                .map(|w| {
                    w.get("name")
                        .and_then(Value::as_str)
                        .map(str::to_string)
                        .ok_or_else(|| "workload without a name".to_string())
                })
                .collect::<Result<_, _>>()?,
            end_to_end: list("end_to_end")?
                .iter()
                .map(|m| metric(m, true))
                .collect::<Result<_, _>>()?,
            per_layer: list("per_layer")?
                .iter()
                .map(|m| metric(m, false))
                .collect::<Result<_, _>>()?,
        })
    }

    /// Loads `<repo_root>/BENCHMARK.json`.
    pub fn load(repo_root: &Path) -> Result<Spec, String> {
        let path = repo_root.join("BENCHMARK.json");
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        Spec::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    }

    /// The declaration of metric `name`, gated or not.
    pub fn find(&self, name: &str) -> Option<&MetricSpec> {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|m| m.name == name)
    }
}

/// The repository root: the working directory when it holds
/// `BENCHMARK.json` and the benchmark package (how the driver and the
/// README invoke us), else the directory this package was built in.
pub fn repo_root() -> Result<PathBuf, String> {
    let is_root = |dir: &Path| {
        dir.join("BENCHMARK.json").is_file() && dir.join("benchmark/Cargo.toml").is_file()
    };
    let cwd = std::env::current_dir().map_err(|e| format!("current directory: {e}"))?;
    if is_root(&cwd) {
        return Ok(cwd);
    }
    let built_in = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    if is_root(&built_in) {
        return built_in
            .canonicalize()
            .map_err(|e| format!("{}: {e}", built_in.display()));
    }
    Err(
        "run from the repository root (the directory holding BENCHMARK.json and benchmark/)"
            .to_string(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::LAYER_METRICS;
    use crate::workloads;

    fn committed() -> Spec {
        Spec::load(&Path::new(env!("CARGO_MANIFEST_DIR")).join("..")).expect("BENCHMARK.json loads")
    }

    #[test]
    fn file_and_code_name_the_same_workloads_and_layers() {
        let spec = committed();
        assert_eq!(spec.workloads, workloads::NAMES);
        let in_file: Vec<&str> = spec.per_layer.iter().map(|m| m.name.as_str()).collect();
        let in_code: Vec<&str> = LAYER_METRICS.iter().map(|(n, _)| *n).collect();
        assert_eq!(in_file, in_code);
        let gated: Vec<&str> = spec.end_to_end.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(gated, crate::report::END_TO_END);
    }

    #[test]
    fn file_meets_the_drivers_limits() {
        let spec = committed();
        assert!((1.0..=60.0).contains(&spec.run_seconds) && spec.run_seconds.fract() == 0.0);
        assert!((2..=8).contains(&spec.workloads.len()));
        assert!(
            (1..=16).contains(&spec.end_to_end.len()) && (1..=128).contains(&spec.per_layer.len())
        );
        let setup = spec.find("setup_s").expect("setup_s is declared");
        assert_eq!((setup.unit.as_str(), setup.higher_is_better), ("s", false));
        for m in spec.end_to_end.iter().chain(&spec.per_layer) {
            assert!(m.name.len() <= 64 && m.unit.len() <= 16, "{m:?}");
            assert!(m.name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(
                m.name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{m:?}"
            );
            assert!(
                m.unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{m:?}"
            );
            assert!(m.bound.map_or(true, |b| b > 0.0 && b <= 0.25), "{m:?}");
        }
        // 4 + 22 × workloads runs of set-up + window must fit 3420 s with
        // two builds; 18 s a run leaves the builds five minutes.
        let runs = 4 + 22 * spec.workloads.len();
        assert!(runs as f64 * (spec.run_seconds + 8.0) < 3420.0 - 300.0);
    }

    #[test]
    fn parse_rejects_incomplete_files() {
        assert!(Spec::parse("{}").is_err());
        assert!(Spec::parse("{\"run_seconds\": 5, \"workloads\": [], \"end_to_end\": [{\"name\": \"x\"}], \"per_layer\": []}").is_err());
        let ok = Spec::parse(
            "{\"run_seconds\": 5, \"workloads\": [{\"name\": \"a\", \"why\": \"b\"}], \
             \"end_to_end\": [{\"name\": \"x\", \"unit\": \"s\", \"better\": \"lower\", \"bound\": 0.1}], \
             \"per_layer\": [{\"name\": \"y\", \"unit\": \"ns\", \"better\": \"higher\"}]}",
        )
        .unwrap();
        assert_eq!(ok.find("x").and_then(|m| m.bound), Some(0.1));
        assert!(ok
            .find("y")
            .is_some_and(|m| m.higher_is_better && m.bound.is_none()));
        assert!(ok.find("z").is_none());
    }
}
