//! End-to-end and per-layer WatDiv benchmark of the S2RDF ExtVP engine.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <bound|cold> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One closed-loop client drives the store through its public API. The
//! run sets the store up several times, measures a time-bounded window
//! with every read's result checked, then checks results against
//! independent evaluators. The last stdout line is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. README.md maps
//! each per-layer metric to the end-to-end metric it should move.

mod check;
mod gen;
mod probe;
mod run;

use std::process::ExitCode;

/// WatDiv scale factor (≈100 K triples per unit) of the store the
/// workloads read.
const READ_SCALE: u32 = 3;

/// The workloads; README.md gives the reason for each.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// SF3, warm store, Basic plus IL-1/IL-2 with seeded constants.
    Bound,
    /// SF3, every read opens the store from disk first.
    Cold,
}

impl Kind {
    fn parse(s: &str) -> Option<Kind> {
        Some(match s {
            "bound" => Kind::Bound,
            "cold" => Kind::Cold,
            _ => return None,
        })
    }

    pub fn name(self) -> &'static str {
        match self {
            Kind::Bound => "bound",
            Kind::Cold => "cold",
        }
    }

    /// Whole rounds over the templates a measured window runs at least,
    /// however short `--seconds` is. They fix the smallest sample a tail
    /// percentile is taken from.
    fn min_rounds(self) -> usize {
        match self {
            Kind::Bound => 32,
            Kind::Cold => 10,
        }
    }
}

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub kind: Kind,
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Scale factor of the read store; SF3 unless given. Smaller scales
    /// are for the benchmark's own tests.
    pub scale: u32,
    /// Flip one expected digest, to show the gate can fail.
    pub corrupt_digest: bool,
}

const USAGE: &str = "usage: s2rdf-perfbench --workload <bound|cold> --seed <n> \
                     --seconds <s> --trace <0|1> [--scale <n>] [--corrupt-digest]";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut kind = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let (mut scale, mut corrupt_digest) = (None, false);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--corrupt-digest" {
            corrupt_digest = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => kind = Some(Kind::parse(value).ok_or_else(|| bad("unknown workload"))?),
            "--seed" => seed = Some(value.parse().map_err(|_| bad("not an integer"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("not a number"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(bad("must be positive"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("must be 0 or 1")),
                })
            }
            "--scale" => {
                let s: u32 = value.parse().map_err(|_| bad("not an integer"))?;
                if !(1..=10).contains(&s) {
                    return Err(bad("must be 1..=10"));
                }
                scale = Some(s);
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let kind = kind.ok_or("--workload is required")?;
    Ok(Args {
        kind,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        scale: scale.unwrap_or(READ_SCALE),
        corrupt_digest,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run::run(&args) {
        Ok(outcome) => {
            let record = serde_json::to_string(&outcome.run_record);
            let result = serde_json::to_string(&outcome.result);
            println!("run {}", record.expect("plain structs serialize"));
            println!("{}", result.expect("plain structs serialize"));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
