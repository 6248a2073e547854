//! The benchmark command.
//!
//! ```text
//! coserve-perfbench --workload <name|all> [--seed N] [--seconds S]
//!                   [--trace 0|1]
//! coserve-perfbench --spec      # prints BENCHMARK.json
//! ```
//!
//! Prints every metric by name with its unit, the output checks, the
//! simulation digest and host facts, and ends with one JSON line:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! A traced run (`--trace 1`) reports the per-layer table and writes
//! its spans, as Chrome trace-event JSON, under `perfbench-spans/` in
//! the build's target directory.

use std::path::PathBuf;
use std::process::ExitCode;

use coserve_perfbench::harness::Config;
use coserve_perfbench::{report, spec, workloads};

struct Args {
    workload: String,
    cfg: Config,
}

fn parse() -> Result<Option<Args>, String> {
    let mut workload = None;
    let mut cfg = Config {
        seed: 1,
        seconds: f64::from(spec::RUN_SECONDS),
        trace: false,
        scale: 1.0,
        setups: 3,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--spec" {
            return Ok(None);
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => cfg.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => cfg.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => cfg.trace = value.parse::<u8>().map_err(|e| bad(&e))? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(cfg.seconds >= 0.0 && cfg.seconds.is_finite()) {
        return Err("--seconds must be a non-negative number".into());
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Some(Args { workload, cfg }))
}

/// Where a traced run's spans go: `<target dir>/perfbench-spans/`.
fn spans_path(workload: &str, seed: u64) -> Option<PathBuf> {
    let exe = std::env::current_exe().ok()?;
    let target = exe.parent()?.parent()?;
    Some(
        target
            .join("perfbench-spans")
            .join(format!("{workload}-seed{seed}.json")),
    )
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(Some(args)) => args,
        Ok(None) => {
            print!("{}", spec::spec_json());
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let names: Vec<&str> = if args.workload == "all" {
        spec::WORKLOADS
            .iter()
            .chain(spec::UNLISTED_WORKLOADS)
            .map(|w| w.name)
            .collect()
    } else {
        vec![args.workload.as_str()]
    };
    let mut last = None;
    for name in names {
        let Some(outcome) = workloads::run(name, &args.cfg) else {
            eprintln!("error: unknown workload {name}");
            return ExitCode::from(2);
        };
        print!("{}", report::human(&outcome, args.cfg.trace, args.cfg.seed));
        if args.cfg.trace {
            if let Some(path) = spans_path(name, args.cfg.seed) {
                let facts = report::host_facts();
                let facts: Vec<(&str, String)> =
                    facts.iter().map(|(k, v)| (*k, v.clone())).collect();
                let written = path
                    .parent()
                    .map_or(Ok(()), std::fs::create_dir_all)
                    .and_then(|()| std::fs::write(&path, outcome.spans.to_chrome_json(&facts)));
                match written {
                    Ok(()) => println!("# spans written to {}", path.display()),
                    Err(e) => println!("# spans not written: {e}"),
                }
            }
        }
        last = Some(report::json(&outcome, args.cfg.trace));
        if args.workload == "all" {
            println!("{}", last.take().unwrap_or_default());
        }
    }
    if let Some(line) = last {
        println!("{line}");
    }
    ExitCode::SUCCESS
}
