//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! --bin <tiresias> --work <dir>`
//!
//! Prints a provenance line, then the result line (the last line of
//! standard output). `run.py` builds the daemon and this binary and
//! passes `--bin` and `--work`.

use std::path::PathBuf;
use std::process::ExitCode;

use perfbench::workload::{Kind, Spec};
use perfbench::{run, stats, Opts};

fn parse(args: &[String]) -> Result<Opts, String> {
    let (mut kind, mut seed, mut seconds, mut trace, mut bin, mut work) =
        (None, None, None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} `{value}`: {e}");
        match flag.as_str() {
            "--workload" => {
                kind =
                    Some(Kind::parse(value).ok_or_else(|| format!("unknown workload `{value}`"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace `{value}`: expected 0 or 1")),
                })
            }
            "--bin" => bin = Some(PathBuf::from(value)),
            "--work" => work = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let kind = kind.ok_or("--workload is required")?;
    Ok(Opts {
        spec: Spec::full(kind),
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        bin: bin.ok_or("--bin is required")?,
        work: work.ok_or("--work is required")?,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&opts) {
        Ok(out) => {
            println!("{}", out.report);
            println!(
                "{}",
                stats::result_line(out.correct, out.attempted, out.failed, &out.metrics)
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
