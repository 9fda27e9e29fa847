//! End-to-end and per-layer benchmark of the xsum serving stack.
//!
//! ```text
//! perfbench --workload <interactive|audit> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints provenance and an output digest, then, as the last line, one
//! JSON object `{"correct", "attempted", "failed", "metrics"}`: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. See `README.md` beside this crate for what each
//! workload and metric measures.

mod audit;
mod check;
mod drive;
mod layers;
mod report;
mod serve;
mod setup;
mod stats;
mod steal;
mod trace;

use std::time::Duration;

use report::Outcome;

/// Set-ups per untraced run; `setup_s` is their median.
pub const SETUP_REPS: usize = 9;

/// A run that has not finished by now is abandoned without a result.
const WATCHDOG: Duration = Duration::from_secs(170);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Interactive,
    Audit,
}

#[derive(Debug, Clone, Copy)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

const USAGE: &str =
    "usage: perfbench --workload <interactive|audit> --seed <n> --seconds <s> --trace <0|1>";

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = 1u64;
        let mut seconds = 10.0f64;
        let mut trace = false;
        while let Some(flag) = it.next() {
            let value = it.next().ok_or(format!("{flag} needs a value"))?;
            let bad = |what: &str| format!("bad {what} {value:?}");
            match flag.as_str() {
                "--workload" => {
                    workload = Some(match value.as_str() {
                        "interactive" => Workload::Interactive,
                        "audit" => Workload::Audit,
                        _ => return Err(bad("workload")),
                    })
                }
                "--seed" => seed = value.parse().map_err(|_| bad("seed"))?,
                "--seconds" => {
                    seconds = value.parse().map_err(|_| bad("seconds"))?;
                    if !(seconds > 0.0 && seconds <= 600.0) {
                        return Err(bad("seconds"));
                    }
                }
                "--trace" => {
                    trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad("trace")),
                    }
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed,
            seconds,
            trace,
        })
    }
}

/// Cores visible to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Publish the nearest-rank `q` percentile of `samples` as `name`.
/// When fewer than ten samples lie beyond `q`, the highest percentile
/// that keeps ten beyond is used instead and noted; too few samples for
/// even a median is a problem.
pub fn publish(out: &mut Outcome, name: &'static str, samples: &[f64], q: f64, unit: &'static str) {
    let mut sorted = samples.to_vec();
    match stats::tail(&mut sorted, q) {
        Some(p) => {
            out.metric(name, p.value, unit);
            out.note(&format!("{name}.n"), p.n);
            if p.q != q {
                out.note(&format!("{name}.q"), p.q);
            }
        }
        None => {
            out.problems
                .push(format!("{name}: {} samples are too few", samples.len()));
            out.metric(name, 0.0, unit);
        }
    }
}

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    std::thread::spawn(|| {
        std::thread::sleep(WATCHDOG);
        eprintln!("perfbench: no result after {WATCHDOG:?}; giving up");
        std::process::exit(3);
    });

    let mut out = match args.workload {
        Workload::Interactive => serve::run(&args),
        Workload::Audit => audit::run(&args),
    };

    let provenance = format!(
        "provenance: workload={:?} seed={} seconds={} trace={} nproc={} engine_threads={} rustc={:?} level={:?} scale={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        nproc(),
        xsum_graph::num_threads(),
        env!("PERFBENCH_RUSTC"),
        setup::LEVEL,
        setup::SCALE,
    );
    let result = out.json();
    println!("{provenance}");
    for (k, v) in &out.notes {
        println!("note: {k}={v}");
    }
    for p in &out.problems {
        println!("problem: {p}");
    }
    println!("digest: {:016x}", out.digest);
    println!("{result}");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        Args::parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_a_full_command_line() {
        let a = parse("--workload interactive --seed 7 --seconds 12 --trace 1").unwrap();
        assert_eq!(a.workload, Workload::Interactive);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 12.0, true));
    }

    #[test]
    fn rejects_bad_command_lines() {
        assert!(parse("--seed 7").is_err());
        assert!(parse("--workload nope").is_err());
        assert!(parse("--workload live").is_err());
        assert!(parse("--workload audit --trace 2").is_err());
        assert!(parse("--workload audit --seconds -1").is_err());
        assert!(parse("--workload audit --frobnicate 1").is_err());
        assert!(parse("--workload audit --seed").is_err());
    }
}
