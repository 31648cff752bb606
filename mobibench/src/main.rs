//! `mobibench` — the mobidist benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path mobibench/Cargo.toml -- \
//!     --workload serve_mss --seed 1 --seconds 30 --trace 0
//! ```
//!
//! Workloads: `serve_mss`, `churn_1m`, `paper_tables` (README.md says why
//! each exists and which layers it drives). `--trace 0` prints the
//! end-to-end metrics of an untraced run; `--trace 1` makes a separate
//! traced run and prints the per-layer metrics. The last line of standard
//! output is the result object; the line before it holds the run's
//! metadata (commit, `nproc`, seed, sample counts, output digest).

mod check;
mod churn;
mod ladder;
mod measure;
mod replay;
mod report;
mod serve;
mod spans;
mod tables;
mod wrap;

use report::Report;
use std::path::PathBuf;
use std::process::ExitCode;

/// Scratch space of the benchmark, inside the checkout it runs from.
const WORK_DIR: &str = ".bench_build/mobibench";

/// What one invocation runs.
#[derive(Debug, Clone)]
pub struct RunCfg {
    /// Workload seed; every generated input derives from it.
    pub seed: u64,
    /// Host seconds the run keeps measuring for.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of untraced (end to end).
    pub traced: bool,
    /// Hardware threads; the load never uses more.
    pub nproc: usize,
    /// Scratch directory for caches and the span file.
    pub work: PathBuf,
}

fn parse(args: &[String]) -> Result<(String, RunCfg), String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut traced) = (None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                traced = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cfg = RunCfg {
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        traced: traced.ok_or("--trace is required")?,
        nproc,
        work: PathBuf::from(WORK_DIR),
    };
    Ok((workload.ok_or("--workload is required")?, cfg))
}

/// Removes every `MOBIDIST_*` variable, so nothing in the caller's
/// environment (jobs, shards, cache, trace, delivery mode) leaks into the
/// measured code; workloads set what they need explicitly.
fn clear_env() {
    let vars: Vec<_> = std::env::vars_os()
        .filter(|(k, _)| k.to_string_lossy().starts_with("MOBIDIST_"))
        .map(|(k, _)| k)
        .collect();
    for k in vars {
        std::env::remove_var(k);
    }
}

/// The checked-out commit, read from `.git` when the run happens inside a
/// git work tree; `"unknown"` otherwise.
fn commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let id = match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .ok()
            .or_else(|| {
                let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
                packed
                    .lines()
                    .find(|l| l.ends_with(r))
                    .and_then(|l| l.split_whitespace().next())
                    .map(str::to_owned)
            })
            .unwrap_or_default(),
        None => head.to_owned(),
    };
    let id = id.trim();
    if id.len() == 40 && id.chars().all(|c| c.is_ascii_hexdigit()) {
        id.to_owned()
    } else {
        "unknown".to_owned()
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, cfg) = match parse(&args) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("mobibench: {e}");
            return ExitCode::from(2);
        }
    };
    clear_env();
    if let Err(e) = std::fs::create_dir_all(&cfg.work) {
        eprintln!("mobibench: cannot create {}: {e}", cfg.work.display());
        return ExitCode::FAILURE;
    }
    let mut rep = Report::default();
    match workload.as_str() {
        "serve_mss" => serve::run(&cfg, &mut rep),
        "churn_1m" => churn::run(&cfg, &mut rep),
        "paper_tables" => tables::run(&cfg, &mut rep),
        other => {
            eprintln!("mobibench: unknown workload {other}");
            return ExitCode::from(2);
        }
    }
    let mut meta = vec![
        ("workload", format!("\"{workload}\"")),
        ("seed", cfg.seed.to_string()),
        ("seconds", format!("{:?}", cfg.seconds)),
        ("trace", (cfg.traced as u8).to_string()),
        ("commit", format!("\"{}\"", commit())),
        ("nproc", cfg.nproc.to_string()),
    ];
    if let Some(tracer) = rep.spans.take() {
        let path = cfg
            .work
            .join(format!("spans-{workload}-{}.jsonl", cfg.seed));
        match std::fs::write(&path, tracer.to_jsonl()) {
            Ok(()) => meta.push(("spans", format!("\"{}\"", path.display()))),
            Err(e) => eprintln!("mobibench: cannot write {}: {e}", path.display()),
        }
    }
    for f in &rep.failures {
        eprintln!("mobibench: failed op: {f}");
    }
    println!("{}", rep.meta_line(&meta));
    println!("{}", rep.result_line(cfg.traced));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn parses_the_command_line() {
        let (w, cfg) = parse(&args("--workload churn_1m --seed 7 --seconds 10 --trace 1")).unwrap();
        assert_eq!(w, "churn_1m");
        assert_eq!((cfg.seed, cfg.seconds, cfg.traced), (7, 10.0, true));
        assert!(parse(&args("--workload churn_1m --seed 7 --seconds 10")).is_err());
        assert!(parse(&args("--workload x --seed 7 --seconds 0 --trace 0")).is_err());
        assert!(parse(&args("--workload x --seed 7 --seconds 1 --trace 2")).is_err());
    }
}
