//! `apna-benchmark`: the one harness every number this repository claims
//! comes from. See `README.md` beside this package and `BENCHMARK.json`
//! at the repository root.
//!
//! ```text
//! # the acceptance driver's form: one workload, one pass, one JSON line
//! apna-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! # every workload, every metric by name; writes benchmark/out/result.json
//! apna-benchmark run [--seed <n>] [--seconds <s>] [--repeat <k>] [--trace] [--smoke] [--only <name>] [--out <file>]
//! # judge two result files by the bounds in BENCHMARK.json
//! apna-benchmark compare <a.json> <b.json>
//! ```

#![forbid(unsafe_code)]

mod compare;
mod daemons;
mod harness;
mod json;
mod layers;
mod probes;
mod procfs;
mod report;
mod rng;
mod spec;
mod stats;
mod trace;
mod workloads;

use harness::Ctx;
use json::Value;
use report::Record;
use spec::Spec;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

const USAGE: &str = "usage:
  apna-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
  apna-benchmark run [--seed <n>] [--seconds <s>] [--repeat <k>] [--trace] [--smoke] [--only <name>] [--out <file>]
  apna-benchmark compare <a.json> <b.json>";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("apna-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

fn dispatch(args: &[String]) -> Result<ExitCode, String> {
    match args.first().map(String::as_str) {
        Some("run") => run(&args[1..]),
        Some("compare") => {
            let [a, b] = &args[1..] else {
                return Err(format!("compare takes two result files\n{USAGE}"));
            };
            let spec = Spec::load(&spec::repo_root()?)?;
            let clean = compare::run(&spec, Path::new(a), Path::new(b))?;
            Ok(if clean {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            })
        }
        Some(flag) if flag.starts_with("--") => drive(args),
        _ => Err(USAGE.to_string()),
    }
}

/// `--key value` pairs (and bare `--flag`s, which read as "1").
fn options(args: &[String], bare: &[&str]) -> Result<BTreeMap<String, String>, String> {
    let mut out = BTreeMap::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let key = arg
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument `{arg}`\n{USAGE}"))?;
        let value = if bare.contains(&key) {
            "1".to_string()
        } else {
            it.next()
                .ok_or_else(|| format!("--{key} needs a value\n{USAGE}"))?
                .clone()
        };
        out.insert(key.to_string(), value);
    }
    Ok(out)
}

fn number<T: std::str::FromStr>(
    opts: &BTreeMap<String, String>,
    key: &str,
) -> Result<Option<T>, String> {
    opts.get(key)
        .map(|v| {
            v.parse::<T>()
                .map_err(|_| format!("--{key}: `{v}` is not a valid number"))
        })
        .transpose()
}

/// Where things are: the repository, the scratch directory inside it,
/// and the daemons, built (or found fresh) next to this executable.
struct Site {
    repo_root: PathBuf,
    out_dir: PathBuf,
    bin_dir: PathBuf,
    spec: Spec,
}

fn site() -> Result<Site, String> {
    let repo_root = spec::repo_root()?;
    let spec = Spec::load(&repo_root)?;
    let exe = std::env::current_exe().map_err(|e| format!("current executable: {e}"))?;
    // <target>/release/apna-benchmark → <target>
    let target_dir = exe
        .parent()
        .and_then(Path::parent)
        .ok_or("executable is not inside a target directory")?;
    let bin_dir = daemons::build_daemons(&repo_root, target_dir)?;
    let out_dir = repo_root.join("benchmark/out");
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    Ok(Site {
        repo_root,
        out_dir,
        bin_dir,
        spec,
    })
}

fn ctx(site: &Site, workload: &'static str, seed: u64, seconds: f64, trace: bool) -> Ctx {
    Ctx {
        workload,
        seed,
        window: Duration::from_secs_f64(seconds),
        trace,
        out_dir: site.out_dir.clone(),
        bin_dir: site.bin_dir.clone(),
    }
}

fn pass(ctx: &Ctx) -> Result<Record, String> {
    if ctx.trace {
        report::traced(ctx)
    } else {
        report::untraced(ctx)
    }
}

/// The acceptance driver's interface: one pass of one workload; the last
/// line of standard output is the result object.
fn drive(args: &[String]) -> Result<ExitCode, String> {
    let opts = options(args, &[])?;
    let name = opts
        .get("workload")
        .ok_or_else(|| format!("--workload is required\n{USAGE}"))?;
    let workload = workloads::canonical(name).ok_or_else(|| {
        format!(
            "unknown workload `{name}` (one of {})",
            workloads::NAMES.join(", ")
        )
    })?;
    let seed: u64 = number(&opts, "seed")?.ok_or("--seed is required")?;
    let site = site()?;
    let seconds: f64 = number(&opts, "seconds")?.unwrap_or(site.spec.run_seconds);
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600], got {seconds}"));
    }
    let trace = match opts.get("trace").map(String::as_str) {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace takes 0 or 1, got `{other}`")),
    };
    let record = pass(&ctx(&site, workload, seed, seconds, trace))?;
    for v in &record.violations {
        eprintln!("apna-benchmark: {workload}: {v}");
    }
    println!("{}", record.driver_json(&site.spec).to_line());
    Ok(ExitCode::SUCCESS)
}

/// Every workload, every metric by name; non-zero exit when any
/// correctness check fails.
fn run(args: &[String]) -> Result<ExitCode, String> {
    let opts = options(args, &["trace", "smoke"])?;
    let site = site()?;
    let smoke = opts.contains_key("smoke");
    let trace = opts.contains_key("trace");
    let seed: u64 = number(&opts, "seed")?.unwrap_or(1);
    let repeat: u64 = number(&opts, "repeat")?.unwrap_or(1).max(1);
    let seconds: f64 = match number(&opts, "seconds")? {
        Some(s) => s,
        None if smoke => 1.0,
        None => site.spec.run_seconds,
    };
    let selected: Vec<&'static str> = match opts.get("only") {
        None => workloads::NAMES.to_vec(),
        Some(name) => {
            vec![workloads::canonical(name).ok_or_else(|| format!("unknown workload `{name}`"))?]
        }
    };
    let out_path = opts
        .get("out")
        .map_or_else(|| site.out_dir.join("result.json"), PathBuf::from);

    let seeds: Vec<u64> = (0..repeat).map(|i| seed + i).collect();
    let mut runs = Vec::new();
    let mut infos = BTreeMap::new();
    let mut all_correct = true;
    for &seed in &seeds {
        for &workload in &selected {
            let record = pass(&ctx(&site, workload, seed, seconds, trace))?;
            record.print(&site.spec);
            all_correct &= record.correct;
            runs.push(record.file_json(&site.spec).with("workload", workload));
            infos.insert(workload, record.info);
        }
    }
    let meta = report::meta(
        &ctx(&site, selected[0], seed, seconds, trace),
        &site.repo_root,
        &seeds,
        &infos,
    );
    let file = Value::obj()
        // This harness measures; it claims no gain.
        .with("claim", Value::Null)
        .with("meta", meta)
        .with("runs", runs);
    std::fs::write(&out_path, file.to_pretty())
        .map_err(|e| format!("{}: {e}", out_path.display()))?;
    println!("wrote {}", out_path.display());
    if all_correct {
        Ok(ExitCode::SUCCESS)
    } else {
        println!("FAILED: at least one correctness check did not pass (see `!` lines)");
        Ok(ExitCode::FAILURE)
    }
}
