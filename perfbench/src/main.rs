//! The tolerance-tiers serving benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload hot-path --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Boots the serving stack in-process, drives it over loopback from one
//! load-generator thread, checks every answer, prints a report, and
//! ends with one JSON line: `{"correct", "attempted", "failed",
//! "metrics"}`. `--trace 0` reports the end-to-end metrics; `--trace 1`
//! makes the separate traced run and reports the per-layer metrics.
//! See `perfbench/NOTES.md` for the workloads and what each metric
//! should move.

mod checks;
mod client;
mod deploy;
mod driver;
mod probe;
mod run;
mod stats;
mod sys;
mod trace;

use deploy::Workload;
use run::{Args, Outcome};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: perfbench --workload <asr-tiers|hot-path|fleet-zipf> --seed <n> \
                     --seconds <n> --trace <0|1>";

struct Cli {
    args: Args,
    trace: bool,
}

fn parse_cli(argv: &[String]) -> Result<Cli, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| format!("bad seed {value:?}"))?,
                )
            }
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0 && *s <= 600.0)
                    .ok_or_else(|| format!("bad --seconds {value:?}"))?;
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value:?} (want 0 or 1)")),
                });
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Cli {
        args: Args {
            workload,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            setups: workload.setups(),
        },
        trace: trace.unwrap_or(false),
    })
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
fn result_line(outcome: &Outcome) -> String {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            assert!(value.is_finite(), "metric {name} is not finite");
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct(),
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_cli(&argv) {
        Ok(cli) => cli,
        Err(why) => {
            eprintln!("perfbench: {why}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let args = cli.args;
    let outcome = if cli.trace {
        let file = PathBuf::from("perfbench-out").join(format!(
            "spans-{}-seed{}.jsonl",
            args.workload.name(),
            args.seed
        ));
        run::traced(&args, &file)
    } else {
        run::untraced(&args)
    };
    let outcome = match outcome {
        Ok(outcome) => outcome,
        Err(err) => {
            eprintln!("perfbench: {err}");
            return ExitCode::FAILURE;
        }
    };
    for line in &outcome.report {
        println!("{line}");
    }
    println!(
        "output checks: {} answers checked, {} violations",
        outcome.findings.answered, outcome.findings.violations
    );
    for quote in &outcome.findings.quoted {
        println!("  violation: {quote}");
    }
    for (name, value, unit) in &outcome.metrics {
        println!("{name:<26} {value:>16.6} {unit}");
    }
    println!("{}", result_line(&outcome));
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn cli_accepts_the_contract_and_rejects_the_rest() {
        let cli = parse_cli(&argv("--workload hot-path --seed 3 --seconds 10 --trace 1")).unwrap();
        assert_eq!(cli.args.workload, Workload::HotPath);
        assert_eq!(
            (cli.args.seed, cli.args.seconds, cli.trace),
            (3, 10.0, true)
        );
        for bad in [
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload hot-path --seed -1 --seconds 1 --trace 0",
            "--workload hot-path --seed 1 --seconds 0 --trace 0",
            "--workload hot-path --seed 1 --seconds 1 --trace 2",
            "--workload hot-path --seconds 1",
            "--workload",
        ] {
            assert!(parse_cli(&argv(bad)).is_err(), "{bad}");
        }
    }

    fn smoke(workload: Workload) {
        let args = Args {
            workload,
            seed: 7,
            seconds: 0.4,
            setups: 1,
        };
        let outcome = run::untraced(&args).expect("smoke run");
        assert!(
            outcome.correct(),
            "{}: {:?}",
            workload.name(),
            outcome.findings.quoted
        );
        assert_eq!(outcome.failed, 0, "{}", workload.name());
        assert!(outcome.findings.answered > 10);
        let line = result_line(&outcome);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": "));
        for name in [
            "setup_s",
            "throughput_rps",
            "p50_ms",
            "served_err",
            "cpu_us_per_req",
        ] {
            assert!(
                line.contains(&format!("\"{name}\": {{\"value\": ")),
                "{name} in {line}"
            );
        }
    }

    #[test]
    fn smoke_hot_path() {
        smoke(Workload::HotPath);
    }

    #[test]
    fn smoke_fleet_zipf() {
        smoke(Workload::FleetZipf);
    }

    #[test]
    fn smoke_asr_tiers() {
        smoke(Workload::AsrTiers);
    }

    #[test]
    fn smoke_traced_run_writes_spans_and_the_layer_table() {
        let dir = std::env::temp_dir().join(format!("perfbench-smoke-{}", std::process::id()));
        let file = dir.join("spans.jsonl");
        let args = Args {
            workload: Workload::FleetZipf,
            seed: 5,
            seconds: 0.6,
            setups: 1,
        };
        let outcome = run::traced(&args, &file).expect("traced smoke run");
        assert!(outcome.correct(), "{:?}", outcome.findings.quoted);
        let spans = std::fs::read_to_string(&file).expect("span file");
        assert!(spans.lines().any(|l| l.contains("\"name\": \"handler\"")));
        assert!(spans
            .lines()
            .any(|l| l.contains("\"name\": \"client.request\"")));
        assert!(outcome
            .report
            .iter()
            .any(|l| l.starts_with("tracing overhead")));
        let metric = |name: &str| {
            outcome
                .metrics
                .iter()
                .find(|m| m.0 == name)
                .unwrap_or_else(|| panic!("{name} missing"))
                .1
        };
        assert!(metric("cache.hit_ratio") > 0.5);
        assert!(metric("handler.p50_us") > 0.0);
        let _ = std::fs::remove_dir_all(dir);
    }
}
