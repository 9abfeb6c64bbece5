//! Randomized invariant fuzzer over the simulation engine.
//!
//! ```text
//! simcheck [--seeds N] [--seed BASE] [--streaming M] [--process <name|all>]
//! ```
//!
//! Runs `N` seeds (default 32) starting at `BASE` (default 0). Each
//! seed derives a full experiment case, runs it with every audit law
//! enabled, and — for epoch-free cases — compares the optimized
//! intentional scheme against the reference implementation bit for
//! bit. Failures are shrunk to a minimal reproducer and the process
//! exits non-zero.
//!
//! `--streaming M` additionally runs `M` mid-size streaming/CSR cases
//! (see `bench::simcheck::run_streaming_case`): streamed contacts must
//! reproduce the materialized run bit for bit, and the city-scale mode
//! (community-scoped NCL selection + bounded-reach oracle) must hold
//! every audit law.
//!
//! `--process <name|all>` reruns every main-batch seed on traces
//! generated under the named non-Poisson contact process, with a
//! seed-derived hostile overlay (flash crowd, NCL blackout, partition,
//! or buffer famine) filtering the contact stream and injecting its
//! workload. `all` covers every non-Poisson process. Both schemes see
//! the identical overlaid stream, so epoch-free cases keep the
//! optimized-vs-reference differential.

use std::env;
use std::process::ExitCode;

use bench::simcheck::{check_process_seed, check_seed, check_streaming_seed, CaseParams};
use dtn_trace::process::ContactProcessKind;

struct Options {
    seeds: u64,
    base: u64,
    streaming: u64,
    /// Non-Poisson contact processes to fuzz (`--process <name|all>`).
    processes: Vec<ContactProcessKind>,
}

fn parse_args() -> Result<Options, String> {
    let mut seeds = 32;
    let mut base = 0;
    let mut streaming = 0;
    let mut processes = Vec::new();
    let mut args = env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--seeds" => {
                let v = args.next().ok_or("--seeds needs a count")?;
                seeds = v.parse().map_err(|_| format!("bad seed count {v:?}"))?;
            }
            "--seed" => {
                let v = args.next().ok_or("--seed needs a base seed")?;
                base = v.parse().map_err(|_| format!("bad base seed {v:?}"))?;
            }
            "--streaming" => {
                let v = args.next().ok_or("--streaming needs a count")?;
                streaming = v
                    .parse()
                    .map_err(|_| format!("bad streaming count {v:?}"))?;
            }
            "--process" => {
                let v = args.next().ok_or("--process needs a name or 'all'")?;
                if v == "all" {
                    // Poisson is the main batch's law; the process batch
                    // exists for everything else.
                    processes.extend(
                        ContactProcessKind::ALL
                            .into_iter()
                            .filter(|k| *k != ContactProcessKind::Poisson),
                    );
                } else {
                    let kind = ContactProcessKind::parse(&v).ok_or_else(|| {
                        format!(
                            "unknown process {v:?}; known: all, {}",
                            ContactProcessKind::ALL
                                .iter()
                                .map(|k| k.name())
                                .collect::<Vec<_>>()
                                .join(", ")
                        )
                    })?;
                    processes.push(kind);
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Options {
        seeds,
        base,
        streaming,
        processes,
    })
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(opts) => opts,
        Err(msg) => {
            eprintln!("simcheck: {msg}");
            eprintln!(
                "usage: simcheck [--seeds N] [--seed BASE] [--streaming M] [--process <name|all>]"
            );
            return ExitCode::FAILURE;
        }
    };
    let mut failures = 0u64;
    let mut sweeps = 0u64;
    let mut differentials = 0u64;
    for seed in opts.base..opts.base + opts.seeds {
        match check_seed(seed) {
            Ok(stats) => {
                sweeps += stats.sweeps;
                differentials += u64::from(stats.differential);
                println!(
                    "seed {seed:>4}: clean ({} sweeps{})",
                    stats.sweeps,
                    if stats.differential {
                        ", differential"
                    } else {
                        ", audit-only"
                    }
                );
            }
            Err(failure) => {
                failures += 1;
                println!("seed {seed:>4}: FAILED");
                println!("  {failure}");
                println!("  original case: {}", CaseParams::from_seed(seed));
            }
        }
    }
    for seed in opts.base..opts.base + opts.streaming {
        match check_streaming_seed(seed) {
            Ok(stats) => {
                sweeps += stats.sweeps;
                differentials += 1;
                println!(
                    "streaming seed {seed:>4}: clean ({} sweeps, stream == trace)",
                    stats.sweeps
                );
            }
            Err(failure) => {
                failures += 1;
                println!("streaming seed {seed:>4}: FAILED");
                println!("  {failure}");
            }
        }
    }
    let mut process_cases = 0u64;
    for &process in &opts.processes {
        for seed in opts.base..opts.base + opts.seeds {
            process_cases += 1;
            match check_process_seed(seed, process) {
                Ok(stats) => {
                    sweeps += stats.sweeps;
                    differentials += u64::from(stats.differential);
                    println!(
                        "process {:<17} seed {seed:>4}: clean ({} sweeps{})",
                        process.name(),
                        stats.sweeps,
                        if stats.differential {
                            ", differential"
                        } else {
                            ", audit-only"
                        }
                    );
                }
                Err(failure) => {
                    failures += 1;
                    println!("process {:<17} seed {seed:>4}: FAILED", process.name());
                    println!("  {failure}");
                    println!("  original case: {}", CaseParams::from_seed(seed));
                }
            }
        }
    }
    println!(
        "simcheck: {} seeds + {} streaming{}, {failures} failures, {sweeps} audit sweeps, \
         {differentials} differential cases",
        opts.seeds,
        opts.streaming,
        if process_cases > 0 {
            format!(
                " + {} process/overlay ({} processes)",
                process_cases,
                opts.processes.len()
            )
        } else {
            String::new()
        }
    );
    if failures > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
