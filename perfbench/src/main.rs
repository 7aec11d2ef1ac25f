//! `perfbench --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Run from the root of a checkout. Builds `offtarget` from that
//! checkout, generates (or reuses) the workload's inputs, measures, and
//! prints one JSON result as the last line of stdout. The human-readable
//! report goes to stderr; records, traces and reports are kept under
//! `.perfbench/`.

use perfbench::program::Program;
use perfbench::{RunConfig, Shape, Workload};
use std::process::ExitCode;
use std::time::Duration;

const USAGE: &str = "usage: perfbench --workload batch-fasta|batch-index-dense|serve-mixed \
                     --seed N --seconds S --trace 0|1";

fn parse_args(args: &[String]) -> Result<RunConfig, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value)
                        .ok_or_else(|| format!("unknown workload {value:?}\n{USAGE}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1\n{USAGE}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}\n{USAGE}")),
        }
    }
    let workload = workload.ok_or_else(|| format!("missing --workload\n{USAGE}"))?;
    let seconds = seconds.ok_or_else(|| format!("missing --seconds\n{USAGE}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let root = std::env::current_dir().map_err(|e| e.to_string())?;
    Ok(RunConfig {
        work: root.join(".perfbench"),
        root,
        shape: Shape::full(workload),
        workload,
        seed: seed.ok_or_else(|| format!("missing --seed\n{USAGE}"))?,
        seconds: Duration::from_secs_f64(seconds),
        trace: trace.ok_or_else(|| format!("missing --trace\n{USAGE}"))?,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some(perfbench::program::MEASURE_FLAG) {
        return match perfbench::program::measure_exec(&args[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::from(1)
            }
        };
    }
    let result = parse_args(&args).and_then(|cfg| {
        let launcher = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
        let program = Program::build(&cfg.root, launcher)?;
        let outcome = perfbench::run(&cfg, &program)?;
        Ok((cfg, outcome))
    });
    let (cfg, outcome) = match result {
        Ok(done) => done,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(1);
        }
    };
    let record = outcome.record_json(cfg.workload.name(), cfg.seed, cfg.trace);
    let stem = format!(
        "{}-{}-{}-{}",
        cfg.workload.name(),
        cfg.shape.name,
        cfg.seed,
        if cfg.trace { "trace" } else { "plain" }
    );
    let saved = std::fs::create_dir_all(cfg.work.join("results")).and_then(|()| {
        std::fs::write(cfg.work.join("results").join(format!("{stem}.json")), &record)
    });
    if let Err(e) = saved {
        eprintln!("perfbench: could not save the record: {e}");
    }
    if !outcome.report.is_empty() {
        let path = perfbench::batch::report_path(&cfg, "reports", "md");
        let _ = std::fs::create_dir_all(cfg.work.join("reports"));
        let _ = std::fs::write(&path, &outcome.report);
        eprintln!("{}", outcome.report);
    }
    println!("{record}");
    println!("{}", outcome.result_json());
    ExitCode::SUCCESS
}
