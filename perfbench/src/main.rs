//! `perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]`
//!
//! Runs one workload, checks its output, prints provenance and every metric
//! by name with its unit, and ends with one JSON result line. Exits 1 when
//! the correctness check fails and 2 on a usage error.

use perfbench::{RunConfig, Size, Workload, DEFAULT_SEED};

const USAGE: &str = "usage: perfbench --workload <paper_sweep|metro_serial|metro_domains> [--seed N] [--seconds S] [--trace 0|1]";

fn parse(mut args: impl Iterator<Item = String>) -> Result<RunConfig, String> {
    let mut cfg = RunConfig {
        workload: Workload::PaperSweep,
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        size: Size::Full,
    };
    let mut workload = None;
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?),
            "--seed" => cfg.seed = value.parse().map_err(|_| format!("bad --seed {value:?}"))?,
            "--seconds" => {
                cfg.seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("bad --seconds {value:?}"))?
            }
            "--trace" => {
                cfg.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value:?} (0 or 1)")),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    cfg.workload = workload.ok_or("--workload is required")?;
    Ok(cfg)
}

fn main() {
    let cfg = match parse(std::env::args().skip(1)) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    // The library still reads a few INTANG_* variables (worker count,
    // batching, spans, simcheck); any of them would change what is measured.
    if let Some((key, _)) = std::env::vars_os().find(|(k, _)| k.to_string_lossy().starts_with("INTANG_")) {
        eprintln!(
            "perfbench: unset {} first: INTANG_* variables change the measured configuration",
            key.to_string_lossy()
        );
        std::process::exit(2);
    }
    let report = perfbench::run(&cfg);
    for line in &report.lines {
        println!("{line}");
    }
    println!("{}", report.json());
    if !report.correct {
        std::process::exit(1);
    }
}
