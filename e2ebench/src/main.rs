//! End-to-end benchmark of the ABONN verifier and its serve daemon.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload grid-conv|grid-dense|serve-ladder --seed N --seconds S --trace 0|1
//! ```
//!
//! Each run trains its models in-process, measures for `--seconds`
//! seconds, checks the outputs, and prints as its last line one JSON
//! object with `correct`, `attempted`, `failed` and `metrics`: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1` (see `BENCHMARK.json` for what each one means).

mod appver;
mod grid;
mod report;
mod rng;
mod serve;
mod trace;

use std::process::ExitCode;

/// Command-line arguments.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

const USAGE: &str =
    "usage: abonn-e2ebench --workload grid-conv|grid-dense|serve-ladder --seed N --seconds S --trace 0|1";

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad())?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value}")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match args.workload.as_str() {
        "grid-conv" => grid::run(&grid::CONV, &args),
        "grid-dense" => grid::run(&grid::DENSE, &args),
        "serve-ladder" => serve::run(&args),
        other => {
            eprintln!("unknown workload {other}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    for note in &outcome.notes {
        println!("# {note}");
    }
    for failure in &outcome.failures {
        println!("# FAILED: {failure}");
    }
    println!("{}", outcome.render(args.trace));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn arguments_parse_strictly() {
        let a = parse(&[
            "--workload",
            "grid-dense",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1",
        ])
        .expect("valid");
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("grid-dense", 7, 3.0, true)
        );
        assert!(parse(&["--workload", "x", "--seed", "-1", "--seconds", "3"]).is_err());
        assert!(parse(&["--workload", "x", "--seed", "1", "--seconds", "0"]).is_err());
        assert!(parse(&[
            "--workload",
            "x",
            "--seed",
            "1",
            "--seconds",
            "3",
            "--trace",
            "2"
        ])
        .is_err());
        assert!(parse(&[
            "--workload",
            "x",
            "--seed",
            "1",
            "--seconds",
            "3",
            "--bogus",
            "1"
        ])
        .is_err());
        assert!(parse(&["--workload", "x", "--seed", "1"]).is_err());
    }
}
