//! The repository's benchmark. See `README.md` in this directory for
//! what each workload and metric means; `BENCHMARK.json` at the repository
//! root is the contract this binary prints to.
//!
//! ```text
//! dtn-benchmark --workload W [--seed S] [--seconds N] [--trace 0|1] [--smoke] [--out DIR]
//! dtn-benchmark compare DIR_A DIR_B
//! dtn-benchmark check DIR
//! dtn-benchmark list
//! ```
//!
//! Everything is single-process and single-threaded (`SimConfig::threads`
//! stays at its shipping default of 1).

mod compare;
mod json;
mod kernels;
mod report;
mod serve;
mod sim;
mod span;
mod stats;

use std::fs;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use report::Report;
use sim::{SimSizes, SimWorkload};
use span::SpanLog;

/// Fewest passes per run.
pub const MIN_PASSES: usize = 3;
/// How far past `--seconds` the passes of a slow run may go.
const OVERRUN: f64 = 1.25;
/// `run_seconds` of `BENCHMARK.json`: the default measuring time.
const DEFAULT_SECONDS: f64 = 30.0;
/// Measuring time in `--smoke` mode, where every workload is tiny.
const SMOKE_SECONDS: f64 = 1.0;

/// Seed of every contact trace. `--seed` drives everything else (buffer
/// sizes, data items, queries, protocol coin flips, the request sequence):
/// contact graphs drawn from the Pareto × lognormal rate spread differ
/// several-fold in work from seed to seed (measured: 82k–251k contacts/s
/// on `paper_fig10`, 0.5–3.4 s of set-up on the city), which no bound on
/// a run-to-run spread could absorb.
pub const TRACE_SEED: u64 = 42;

/// Seed of the fixed-size replicas whose fingerprints are held against
/// the committed baseline whatever `--seed` is.
pub const REFERENCE_SEED: u64 = 42;

/// The workloads, in the order `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 3] = ["paper_fig10", "city_5k", "serve_churn"];

/// Options of one run.
#[derive(Debug, Clone)]
pub struct Options {
    /// Drives the workload on top of the fixed contact trace
    /// ([`TRACE_SEED`]): buffers, items, queries, the request sequence.
    pub seed: u64,
    /// Wall time the passes of a run are planned to fill
    /// ([`Options::wants_pass`]).
    pub seconds: f64,
    /// Every workload shrunk.
    pub smoke: bool,
}

impl Options {
    /// Whether a run makes another pass after `done` passes that took
    /// `elapsed_s` together, set-up included. The plan is as many passes
    /// as fill `seconds` at the workload's nominal pass time — a constant,
    /// not the clock, so that faster code does not get more samples to
    /// pick its best times from — and at least [`MIN_PASSES`]. A box so
    /// slow that the plan would take over [`OVERRUN`] × `seconds` cuts it
    /// short, so a run keeps to its time.
    pub fn wants_pass(&self, done: usize, elapsed_s: f64, nominal_pass_s: f64) -> bool {
        let planned = ((self.seconds / nominal_pass_s).round() as usize).max(MIN_PASSES);
        done < MIN_PASSES || (done < planned && elapsed_s < OVERRUN * self.seconds)
    }
}

const FULL_SIZES: SimSizes = SimSizes {
    mit_scale: 0.2,
    city_nodes: 5_000,
};
const SMOKE_SIZES: SimSizes = SimSizes {
    mit_scale: 0.1,
    city_nodes: 3_000,
};
const CHURN_DECISIONS: u64 = 20_000;
/// Smoke decisions per pass: the fewest that still leave ten samples
/// beyond p99.9.
const SMOKE_DECISIONS: u64 = 12_000;

fn run_workload(name: &str, opts: &Options, traced: bool, log: &mut SpanLog) -> Option<Report> {
    let sizes = if opts.smoke { SMOKE_SIZES } else { FULL_SIZES };
    let sim_run = |workload: SimWorkload, name: &'static str, log: &mut SpanLog| {
        if traced {
            sim::run_traced(workload, name, opts, &sizes, log)
        } else {
            sim::run(workload, name, opts, &sizes)
        }
    };
    Some(match name {
        "paper_fig10" => sim_run(SimWorkload::PaperFig10, WORKLOADS[0], log),
        "city_5k" => sim_run(SimWorkload::City, WORKLOADS[1], log),
        "serve_churn" => {
            let decisions = if opts.smoke {
                SMOKE_DECISIONS
            } else {
                CHURN_DECISIONS
            };
            if traced {
                serve::run_traced(WORKLOADS[2], opts, decisions, log)
            } else {
                serve::run(WORKLOADS[2], opts, decisions)
            }
        }
        _ => return None,
    })
}

fn write_outputs(
    report: &Report,
    log: &SpanLog,
    out: &Path,
    smoke: bool,
    seconds: f64,
) -> std::io::Result<()> {
    fs::create_dir_all(out)?;
    let suffix = if report.traced { "trace.json" } else { "json" };
    fs::write(
        out.join(format!("{}.{suffix}", report.workload)),
        report.to_json(smoke, seconds).pretty(),
    )?;
    if report.traced {
        let file = fs::File::create(out.join(format!("trace-{}.jsonl", report.workload)))?;
        let mut writer = BufWriter::new(file);
        log.write_jsonl(&mut writer)?;
        writer.flush()?;
    }
    Ok(())
}

struct Cli {
    positional: Vec<String>,
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    traced: bool,
    smoke: bool,
    out: PathBuf,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        positional: Vec::new(),
        workload: None,
        seed: 42,
        seconds: None,
        traced: false,
        smoke: false,
        out: PathBuf::from("benchmark/out"),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| it.next().cloned().ok_or(format!("{flag} needs a value"));
        match arg.as_str() {
            "--workload" => cli.workload = Some(value("--workload")?),
            "--seed" => {
                cli.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let s: f64 = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".to_string());
                }
                cli.seconds = Some(s);
            }
            "--trace" => {
                cli.traced = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                }
            }
            "--smoke" => cli.smoke = true,
            "--out" => cli.out = PathBuf::from(value("--out")?),
            flag if flag.starts_with("--") => return Err(format!("unknown option {flag}")),
            _ => cli.positional.push(arg.clone()),
        }
    }
    Ok(cli)
}

fn run(cli: &Cli) -> Result<ExitCode, String> {
    let name = cli.workload.as_deref().ok_or("--workload is required")?;
    let seconds = cli.seconds.unwrap_or(if cli.smoke {
        SMOKE_SECONDS
    } else {
        DEFAULT_SECONDS
    });
    let opts = Options {
        seed: cli.seed,
        seconds,
        smoke: cli.smoke,
    };
    let mut log = SpanLog::new(cli.traced);
    let report = run_workload(name, &opts, cli.traced, &mut log)
        .ok_or_else(|| format!("unknown workload {name}; one of {WORKLOADS:?}"))?;
    write_outputs(&report, &log, &cli.out, cli.smoke, seconds)
        .map_err(|e| format!("writing results to {}: {e}", cli.out.display()))?;

    println!(
        "# {} seed {} {} ({} passes)",
        report.workload,
        report.seed,
        if report.traced { "traced" } else { "untraced" },
        report
            .metrics
            .iter()
            .map(|m| m.values.len())
            .max()
            .unwrap_or(0),
    );
    for m in &report.metrics {
        println!("{} {} {}", m.name, m.value, m.unit);
    }
    for (key, value) in &report.info {
        println!("# {key}: {}", value.compact());
    }
    for failure in &report.failures {
        println!("# FAILED {failure}");
    }
    println!("{}", report.result_line());
    Ok(if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(2)
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse_cli(&args).and_then(|cli| match cli.positional.first().map(String::as_str) {
        None => run(&cli),
        Some("list") => {
            WORKLOADS.iter().for_each(|w| println!("{w}"));
            Ok(ExitCode::SUCCESS)
        }
        Some("compare") => match cli.positional.as_slice() {
            [_, a, b] => compare::compare(Path::new(a), Path::new(b))
                .map(|ok| if ok { ExitCode::SUCCESS } else { ExitCode::from(2) }),
            _ => Err("usage: compare DIR_A DIR_B".to_string()),
        },
        Some("check") => match cli.positional.as_slice() {
            [_, dir] => compare::check(Path::new(dir)).map(|problems| {
                problems.iter().for_each(|p| println!("{p}"));
                if problems.is_empty() {
                    println!("check: every metric named in BENCHMARK.json is present, finite and carries its unit");
                    ExitCode::SUCCESS
                } else {
                    ExitCode::from(2)
                }
            }),
            _ => Err("usage: check DIR".to_string()),
        },
        Some(other) => Err(format!("unknown command {other}")),
    });
    outcome.unwrap_or_else(|message| {
        eprintln!("dtn-benchmark: {message}");
        ExitCode::from(1)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pass_count_is_planned_from_a_constant_and_capped_by_the_clock() {
        let opts = Options {
            seed: 1,
            seconds: 20.0,
            smoke: false,
        };
        let runs = |pass_s: f64, nominal: f64| {
            let mut done = 0;
            while opts.wants_pass(done, done as f64 * pass_s, nominal) {
                done += 1;
            }
            done
        };
        // 20 s at a nominal 4 s per pass: five passes, whether the code
        // under test is twice as fast or 1.25 times slower than nominal.
        assert_eq!(runs(2.0, 4.0), 5);
        assert_eq!(runs(4.0, 4.0), 5);
        assert_eq!(runs(5.0, 4.0), 5);
        // A box three times slower stops once 25 s have gone…
        assert_eq!(runs(12.0, 4.0), 3);
        assert_eq!(runs(7.0, 4.0), 4);
        // …but never before three passes.
        assert_eq!(runs(40.0, 4.0), 3);
        assert_eq!(runs(1.0, 60.0), 3);
    }
}
