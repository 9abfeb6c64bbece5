//! Regenerates every table and figure of the paper as text tables.
//!
//! ```text
//! experiments [--scale F] [--seeds N] [--csv DIR] <command>
//! commands: table1 fig4 fig7 fig9 fig10 fig11 fig12 fig13
//!           ablation ncl bounds churn all
//!           observe <target> [--out report.jsonl]
//!           timeline <target> [--out report.jsonl]
//!           compare <a.jsonl|BENCH_a.json> <b> [--threshold-pct P]
//!           scale [NODES,...] [--out BENCH_scale.json]
//!           regimes [PROCESS,...] [--out BENCH_regimes.json]
//!           serve [--smoke] [--differential] [--out BENCH_serve.json]
//!           verdicts [FIG]
//! ```
//!
//! `--scale` shrinks trace duration and contact count proportionally
//! (default 0.1 — a laptop-friendly run preserving contact density);
//! `--seeds` sets repetitions per point (default 3); `--csv DIR` writes
//! one CSV file per metric of every sweep figure; `--epoch SECS` narrows
//! the `churn` sweep to frozen NCLs vs one re-election cadence.
//!
//! `verdicts [FIG]` runs a figure (every one with claims without one) and grades
//! each of its paper claims by a sign test over the paired seeds; with
//! `--csv DIR` it writes them to `DIR/verdicts.csv`.
//! What a run costs in wall clock and memory is measured by
//! `benchmark/` (see `benchmark/README.md`), not by this binary.
//!
//! `observe <target>` re-runs a sweep figure's base point, the
//! `regimes` blackout cell or the `scale` streaming smoke city with the
//! probe layer recording every protocol event, prints a post-mortem
//! (probe counters, per-NCL hit rates, delay decomposition, slowest
//! queries), and streams the full capture (events, traces, telemetry
//! windows, phase profile) as versioned JSONL to `--out`.
//! `timeline <target>` runs the same capture but renders the over-time
//! view: the windowed telemetry table and the hierarchical phase
//! profile.
//!
//! `compare <a> <b>` aligns two captures (JSONL exports or committed
//! `BENCH_*.json` documents), prints every per-window / per-phase /
//! per-counter delta, and exits non-zero when a gated outcome counter
//! of a JSONL capture regresses past `--threshold-pct` (default 5) or
//! an `_exact`/`_checksum` key of a document changes at all.

use std::env;
use std::fs;
use std::path::PathBuf;
use std::process::ExitCode;

use bench::figures;
use bench::json::JsonValue;
use dtn_core::ncl::metric_skew;
use dtn_core::time::Duration;

struct Options {
    scale: f64,
    seeds: u32,
    command: String,
    /// Second positional: the target for `observe`/`timeline`, the
    /// first run for `compare`.
    figure: Option<String>,
    /// Third positional: the second run for `compare`.
    second: Option<String>,
    csv_dir: Option<PathBuf>,
    /// JSONL output path for `observe`/`timeline`.
    out: Option<PathBuf>,
    epoch: Option<Duration>,
    /// Relative regression threshold for `compare`, in percent.
    threshold_pct: f64,
    /// `serve`: run the serve-vs-engine differential instead of the
    /// benchmark.
    differential: bool,
}

fn parse_args() -> Result<Options, String> {
    let mut scale = 0.1;
    let mut seeds = 3;
    let mut command = None;
    let mut figure = None;
    let mut csv_dir = None;
    let mut out = None;
    let mut second = None;
    let mut epoch = None;
    let mut threshold_pct = 5.0f64;
    let mut differential = false;
    let mut args = env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            // `serve` has one configuration, the smoke one; the flag is
            // how CI and the docs spell the command.
            "--smoke" => {}
            "--differential" => {
                differential = true;
            }
            "--epoch" => {
                let v = args.next().ok_or("--epoch needs seconds")?;
                let secs: u64 = v.parse().map_err(|_| format!("bad epoch {v:?}"))?;
                if secs == 0 {
                    return Err("epoch must be positive".into());
                }
                epoch = Some(Duration(secs));
            }
            "--scale" => {
                let v = args.next().ok_or("--scale needs a value")?;
                scale = v.parse().map_err(|_| format!("bad scale {v:?}"))?;
                if !(scale > 0.0 && scale <= 1.0) {
                    return Err("scale must be in (0, 1]".into());
                }
            }
            "--seeds" => {
                let v = args.next().ok_or("--seeds needs a value")?;
                seeds = v.parse().map_err(|_| format!("bad seeds {v:?}"))?;
                if seeds == 0 {
                    return Err("seeds must be positive".into());
                }
            }
            "--csv" => {
                let v = args.next().ok_or("--csv needs a directory")?;
                csv_dir = Some(PathBuf::from(v));
            }
            "--out" => {
                let v = args.next().ok_or("--out needs a file path")?;
                out = Some(PathBuf::from(v));
            }
            "--threshold-pct" => {
                let v = args.next().ok_or("--threshold-pct needs a percentage")?;
                threshold_pct = v.parse().map_err(|_| format!("bad threshold {v:?}"))?;
                if threshold_pct.is_nan() || threshold_pct < 0.0 {
                    return Err("threshold must be non-negative".into());
                }
            }
            "--help" | "-h" => {
                command = Some("help".to_string());
            }
            other if command.is_none() && !other.starts_with('-') => {
                command = Some(other.to_string());
            }
            other if command.is_some() && figure.is_none() && !other.starts_with('-') => {
                figure = Some(other.to_string());
            }
            other if figure.is_some() && second.is_none() && !other.starts_with('-') => {
                second = Some(other.to_string());
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Options {
        scale,
        seeds,
        command: command.unwrap_or_else(|| "help".into()),
        figure,
        second,
        csv_dir,
        out,
        epoch,
        threshold_pct,
        differential,
    })
}

/// The commands before the sweep figures that `all` runs.
const TABLES: [&str; 4] = ["table1", "fig4", "fig7", "fig9"];

fn main() -> ExitCode {
    let result = parse_args().and_then(|opts| {
        let commands: Vec<&str> = if opts.command == "all" {
            TABLES.into_iter().chain(figures::SWEEPS).collect()
        } else {
            vec![opts.command.as_str()]
        };
        commands.into_iter().try_for_each(|cmd| run(cmd, &opts))
    });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Dispatches one subcommand.
fn run(cmd: &str, opts: &Options) -> Result<(), String> {
    match cmd {
        "table1" => table1(opts),
        "fig4" => fig4(opts),
        "fig7" => fig7(),
        "fig9" => fig9(opts),
        "observe" => return observe(opts),
        "timeline" => return timeline(opts),
        "compare" => return compare(opts),
        "scale" => return scale_cmd(opts),
        "regimes" => return regimes_cmd(opts),
        "serve" => return serve_cmd(opts),
        "verdicts" => return verdicts(opts),
        "help" => {
            let sweeps = figures::SWEEPS.join("|");
            println!(
                "usage: experiments [--scale F] [--seeds N] [--csv DIR] [--epoch SECS] \
                 <{tables}|{sweeps}|all>\n\
                 \x20      experiments observe <{sweeps}|regimes|scale> [--out report.jsonl] \
                 [--scale F] [--seeds SEED]\n\
                 \x20      experiments timeline <{sweeps}|regimes|scale> [--out report.jsonl] \
                 [--scale F] [--seeds SEED]\n\
                 \x20      experiments compare <a.jsonl|BENCH_a.json> <b> [--threshold-pct P]\n\
                 \x20      experiments scale [NODES,NODES,...] [--out BENCH_scale.json]\n\
                 \x20      experiments regimes [PROCESS,...] [--out BENCH_regimes.json] \
                 [--scale F] [--seeds N]\n\
                 \x20      experiments serve [--smoke] [--differential] \
                 [--out BENCH_serve.json]\n\
                 \x20      experiments verdicts [fig10|fig11|fig12|fig13|ablation|ncl|churn] [--scale F] \
                 [--seeds N] [--csv DIR]",
                tables = TABLES.join("|"),
            );
        }
        other => match figures::sweep(other, opts.scale, opts.epoch) {
            Some(figure) => sweep(&figure, opts),
            None => return Err(format!("unknown command {other:?}; try --help")),
        },
    }
    Ok(())
}

fn header(title: &str, opts: &Options) {
    println!();
    println!("== {title} (scale {}, {} seeds) ==", opts.scale, opts.seeds);
}

/// Runs a sweep figure, writes its CSV files into the `--csv` directory
/// if one is configured, and prints one table per metric.
fn sweep(figure: &figures::Figure, opts: &Options) {
    header(figure.title, opts);
    let cells = figure.run(opts.seeds);
    if let Some(dir) = &opts.csv_dir {
        if let Err(e) = fs::create_dir_all(dir) {
            eprintln!("warning: cannot create {}: {e}", dir.display());
        }
        for (name, body) in figure.csv(&cells) {
            let path = dir.join(name);
            match fs::write(&path, body) {
                Ok(()) => println!("[csv] wrote {}", path.display()),
                Err(e) => eprintln!("warning: cannot write {}: {e}", path.display()),
            }
        }
    }
    print!("{}", figure.render(&cells));
}

/// The `verdicts [FIG]` command: runs the figure (every figure with
/// claims — Fig. 10–13, ablation, NCL, churn — when none is named), prints each claim's grade as a table, and with `--csv DIR`
/// writes every grade to `DIR/verdicts.csv`.
fn verdicts(opts: &Options) -> Result<(), String> {
    let names = match opts.figure.as_deref() {
        Some(name) => vec![name],
        None => vec![
            "fig10", "fig11", "fig12", "fig13", "ablation", "ncl", "churn",
        ],
    };
    let mut csv = String::new();
    for name in names {
        let figure = figures::sweep(name, opts.scale, opts.epoch)
            .ok_or_else(|| format!("unknown figure {name:?}"))?;
        header(&format!("verdicts: {}", figure.title), opts);
        let graded = figure.verdicts(&figure.run(opts.seeds));
        // One header line for the whole file.
        let skip = usize::from(!csv.is_empty());
        for line in graded.lines().skip(skip) {
            csv.push_str(line);
            csv.push('\n');
        }
        for line in graded.lines() {
            let fields: Vec<&str> = line.split(',').collect();
            println!(
                "{:<46} {:>6} {:>7} {:>10} {:>3}/{:<3} {:>6}  {}",
                fields[1],
                fields[2],
                fields[3],
                fields[4],
                fields[5],
                fields[6],
                fields[7],
                fields[8]
            );
        }
    }
    if let Some(dir) = &opts.csv_dir {
        let path = dir.join("verdicts.csv");
        fs::create_dir_all(dir)
            .and_then(|()| fs::write(&path, csv))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        println!("[csv] wrote {}", path.display());
    }
    Ok(())
}

fn table1(opts: &Options) {
    header("Table I: trace summary", opts);
    println!(
        "{:<12} {:>6} {:>10} {:>10} {:>10} {:>14}",
        "trace", "nodes", "contacts", "target", "days", "freq/pair/day"
    );
    for row in figures::table1(opts.scale, 42) {
        println!(
            "{:<12} {:>6} {:>10} {:>10.0} {:>10.1} {:>14.3}",
            row.preset.name(),
            row.stats.nodes,
            row.stats.contacts,
            row.target_contacts,
            row.stats.duration_days,
            row.stats.pairwise_contact_frequency_per_day,
        );
    }
}

fn fig4(opts: &Options) {
    header("Fig. 4: NCL selection metric distribution", opts);
    for series in figures::fig4(opts.scale, 42) {
        let n = series.scores.len();
        let skew = metric_skew(&series.scores);
        println!(
            "{:<12} (T = {}): top metrics {:.3} {:.3} {:.3} {:.3} | median {:.3} | max/median {:.1}x",
            series.preset.name(),
            series.horizon,
            series.scores[0].metric,
            series.scores[1.min(n - 1)].metric,
            series.scores[2.min(n - 1)].metric,
            series.scores[3.min(n - 1)].metric,
            skew.median,
            skew.max_over_median,
        );
    }
}

fn fig7() {
    println!();
    println!("== Fig. 7: probabilistic response sigmoid (p_min=0.45, p_max=0.8, T_q=10h) ==");
    println!("{:>8} {:>8}", "hours", "p_R(t)");
    for (h, p) in figures::fig7() {
        if h.fract() == 0.0 {
            println!("{h:>8.1} {p:>8.3}");
        }
    }
}

fn fig9(opts: &Options) {
    header("Fig. 9(a): amount of data vs T_L (MIT population)", opts);
    println!("{:>8} {:>12} {:>12}", "T_L", "generated", "avg live");
    for row in figures::fig9a(opts.scale, 42) {
        println!(
            "{:>8} {:>12} {:>12.1}",
            row.lifetime.to_string(),
            row.items_generated,
            row.avg_live_items
        );
    }
    println!();
    println!("== Fig. 9(b): Zipf query probabilities (M = 100) ==");
    let series = figures::fig9b();
    print!("{:>4}", "j");
    for (s, _) in &series {
        print!(" {:>9}", format!("s={s}"));
    }
    println!();
    for j in 0..10 {
        print!("{:>4}", j + 1);
        for (_, probs) in &series {
            print!(" {:>9.4}", probs[j]);
        }
        println!();
    }
}

/// Writes a `BENCH_*.json` document to `--out`, or prints it.
fn write_document(opts: &Options, command: &str, doc: &JsonValue) -> Result<(), String> {
    let text = doc.pretty() + "\n";
    match &opts.out {
        Some(path) => {
            fs::write(path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
            println!("[{command}] wrote {}", path.display());
        }
        None => print!("{text}"),
    }
    Ok(())
}

/// Runs the shared capture behind `observe`/`timeline`: one fully
/// instrumented run of the named target, JSONL export via `--out`.
fn captured_run(opts: &Options, command: &str) -> Result<bench::observe::ObserveRun, String> {
    let target = opts.figure.as_deref().ok_or_else(|| {
        format!(
            "{command} needs a target: one of {}, regimes, scale",
            figures::SWEEPS.join(", ")
        )
    })?;
    let run = bench::observe::observe_any(target, opts.scale, u64::from(opts.seeds))?;
    if let Some(path) = &opts.out {
        let lines = bench::observe::write_jsonl_file(&run, path)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        println!("[jsonl] wrote {lines} lines to {}", path.display());
    }
    Ok(run)
}

/// The `observe <target>` command: one probe-instrumented run, JSONL
/// export via `--out`, post-mortem on stdout. `--seeds` picks the seed
/// of the single observed run.
fn observe(opts: &Options) -> Result<(), String> {
    let run = captured_run(opts, "observe")?;
    print!("{}", bench::observe::render_report(&run));
    Ok(())
}

/// The `timeline <target>` command: the same capture as `observe`, but
/// rendered as the windowed over-time table plus the phase profile.
fn timeline(opts: &Options) -> Result<(), String> {
    let run = captured_run(opts, "timeline")?;
    print!("{}", bench::observe::render_timeline(&run));
    Ok(())
}

/// The `compare <a> <b>` command: prints the report, fails on a
/// regression.
fn compare(opts: &Options) -> Result<(), String> {
    let a = opts
        .figure
        .as_deref()
        .ok_or("compare needs two run files")?;
    let b = opts
        .second
        .as_deref()
        .ok_or("compare needs two run files")?;
    let report = bench::compare::compare_files(
        std::path::Path::new(a),
        std::path::Path::new(b),
        opts.threshold_pct,
    )?;
    print!("{}", report.render());
    if report.has_regressions() {
        return Err(format!(
            "compare found {} regression(s)",
            report.regressions.len()
        ));
    }
    Ok(())
}

/// Parses the `scale` node-count list: comma-separated, `_` allowed as
/// a digit separator, every count at least 2 (the smallest population
/// the trace builder accepts).
fn parse_node_counts(list: &str) -> Result<Vec<usize>, String> {
    list.split(',')
        .map(|s| match s.trim().replace('_', "").parse::<usize>() {
            Ok(n) if n >= 2 => Ok(n),
            Ok(n) => Err(format!("node count {n} is below the minimum of 2")),
            Err(_) => Err(format!("bad node count {s:?}")),
        })
        .collect()
}

/// The `scale` command: city-scale streaming runs over a comma-
/// separated node-count list (default `10000,100000`; counts of 500k
/// and up use the thinned smoke preset), plus one fully-audited
/// 2000-node case. Emits the `BENCH_scale.json` document to `--out`
/// or stdout and fails if the audited case reports violations.
fn scale_cmd(opts: &Options) -> Result<(), String> {
    use bench::scale::{run_scale, ScaleConfig};
    let sizes = parse_node_counts(opts.figure.as_deref().unwrap_or("10000,100000"))?;
    let mib = |bytes: u64| bytes as f64 / (1 << 20) as f64;
    // The audited case runs first: peak RSS is the process high-water
    // mark, so only the first run's value is certainly its own, and the
    // audited case is the one whose counters and memory are compared.
    eprintln!("[scale] audited 2000-node case...");
    let mut audited = ScaleConfig::city(2_000);
    audited.audit = true;
    let audited = run_scale(&audited);
    let (sweeps, violations) = audited.audit.expect("audit was enabled");
    eprintln!(
        "[scale] audit: {sweeps} sweeps, {violations} violations; {} path searches settled {} nodes and built {} accumulators, {} leaf evaluations, reaches of {} B, {} destination balls of {} B, a stream of {} B",
        audited.oracle.table_recomputes,
        audited.oracle.nodes_settled,
        audited.oracle.accumulators_built,
        audited.oracle.leaf_evaluations,
        audited.oracle.reach_bytes,
        audited.oracle.balls_built,
        audited.oracle.ball_bytes,
        audited.stream_bytes,
    );
    let mut runs = Vec::new();
    for &nodes in &sizes {
        let smoke = nodes >= 500_000;
        let cfg = if smoke {
            ScaleConfig::city(nodes).smoke()
        } else {
            ScaleConfig::city(nodes)
        };
        eprintln!(
            "[scale] {nodes} nodes ({})...",
            if smoke { "smoke" } else { "city" }
        );
        let report = run_scale(&cfg);
        eprintln!(
            "[scale] {nodes}: {} contacts, {:.0} contacts/s, peak RSS {:.1} MiB, reaches {:.1} MiB, balls {:.2} MiB, stream {:.1} MiB",
            report.contacts,
            report.contacts_per_sec,
            mib(report.peak_rss_bytes),
            mib(report.oracle.reach_bytes),
            mib(report.oracle.ball_bytes),
            mib(report.stream_bytes),
        );
        runs.push((smoke, report));
    }
    let runs = runs.iter().map(|(smoke, report)| {
        JsonValue::object()
            .with("preset", if *smoke { "smoke" } else { "city" })
            .with("report", report.to_json())
    });
    // What the numbers above mean, and the hot spots found while
    // bringing the city-scale path up. The before/after pairs in the
    // second and third note were measured on the retired 1-core box;
    // they document why the engine is configured the way it is, not this
    // host's throughput.
    let memory_notes = [
        "peak_rss_bytes is VmHWM, the process-lifetime high-water mark: a run reads the larger of its own peak and every earlier run's. The audited case runs first, so its value is its own (a 2000-node city sits below the trace plan's 2048-node exact pair sweep); the sized runs follow in ascending order, and one whose own peak is below the audited case's reads the audited case's.",
        "audited_case.oracle_*_exact are the path oracle's work over the audited run, counted not timed, and gated by `experiments compare`. nodes_settled counts the ball of radius max_hops - 1 around each searched source: the leaves of the hop bound never enter the search and are weighed by the reads that ask for one (leaf_evaluations). A read of a central keeps its weight in the oracle's N x K target column, so the pair's later reads of the epoch are loads and weigh no leaf: the audited case read 3186 leaf evaluations before the column, 2555 with it, 1641 once comparisons searched one side, and 1530 since a destination's ball bounds them too; a column filled when a reach is built, or left unread, moves that gate. A comparison of two weights (PathOracle::heavier, behind forward and the section V-D exchange) reads first the side already searched this epoch, else the carrier, and searches the other only if that weight falls inside the other's first-hop cap and, up to three hops, inside the best product of stage CDFs over its walks into the destination's 2-hop ball (balls_built: one ball per destination and epoch, 16 B a node, its heap in ball_bytes): with the ball dropped the audited case reads 483 searches settling 194165 nodes, not 356 settling 158749, and with the cap dropped too 848 settling 271422. A rim node that relaxes every neighbour again, not just the inner ones, reads nodes_settled about 2.3x higher for the same table_recomputes and fails that gate on any machine.",
        "(retired 1-core box) sparse-reach cache resized from 4096 fixed slots to one slot per node: direct-mapped collisions had nearly every forwarding decision recompute a bounded Dijkstra; 10k-node city run went 17314 -> 28396 contacts/s.",
        "(retired 1-core box) oracle wall-clock refresh pinned to the trace duration in the scale harness (generation-doubling rebuilds still fire): each snapshot rebuild invalidates all ~N cached reaches, and recomputing them dominated the measured phase; 30k-node city run went 6534 -> 15275 contacts/s (measured phase 114.5s -> 48.8s).",
        "Metrics keeps the exact delay sum and count only (O(1) in delivered queries); the delay distribution is read off the recorder's query traces (bench::observe::distributions), present when a probe is installed.",
        "audited_case.ncl_*_exact are the work of the NCL selection inside configure, counted and gated the same way: searches_run nodes had their Eq. 3 metric computed by a path search, candidates_pruned nodes were never evaluated because an upper bound on their metric (nodes within the hop bound x weight of the fastest contact) was below the K-th best exact metric. A bound that stops pruning fails the gate on any machine: without the ball count the audited case reads 406 searches for 349, with the contact weight replaced by 1 it reads 627.",
        "RateTable holds an estimator (32 B) only for a pair that has met, at every population: O(N + pairs met), never O(N^2).",
        "100k vs 10k contacts/s, two alternating pairs on 2 vCPUs: 0.34 in both (10k 1.11-1.26x and 100k 1.12-1.30x the parent's), against 0.29-0.38 at the parent, whose comparisons read no destination ball. 100k measured_secs read 0.77-0.90x the parent's, peak RSS 430-434 -> 373-377 MiB, of which the reaches 259.6 -> 199.2 MiB and the destination balls 3.4 MiB; 10k peak RSS 37.6-37.9 -> 34.3 MiB.",
        "oracle_reach_bytes is the heap the bounded oracle's reaches held, summed over every reach built (each source's reach of an epoch replaces its last, so a sum over epochs bounds what is live at once). A reach keeps its inner ball, 20 B per node (id, weight, predecessor, pop order), and nothing per rim node: a leaf read marks its rim neighbours in the scratch, walks the pop order once and rebuilds each rim path it tries from the predecessor chain. The audited case's reaches hold 3174980 B (158749 nodes x 20 B), gated as oracle_reach_bytes_exact (3883300 B for 194165 nodes before a destination's ball bounded comparisons, 5428440 B for 271422 nodes while both sides of every comparison were searched); with each node's pop position kept as well they held 24 B a node (6514128 B then), and the layout that also copied each rim path (20 B per inner node, then 24 B per stage plus 5 B per rim node) held 11033296 B then.",
        "audited_case.pending_*_exact are the in-flight arena's work over the audited run (pulls, NCL broadcasts, responses), counted and gated the same way: examined counts each message an endpoint carried once per contact, inserted the messages put in flight. A query's multicast to the K = 8 centrals is one pull record: with one slot per copy the audited case read 1425 inserted (1016 of them pulls, now 127) and 408585 examined (pulls 23057, now 11377).",
        "stream_bytes is the heap the contact stream held when it opened (ContactStream::heap_bytes): 88 B per kept pair (its RNG, calibrated process values, three clocks, endpoints, and the end of the contact it pulled past the last block) plus the block merge's two buffers, the block being filled and the sorted block being yielded (about max(4096, pairs / 4) contacts each, 24 B a contact), 107 B per kept pair in the audited case. The plan-wide constants live once on the stream. The audited 2000-node city sweeps every pair exactly, so its value is deterministic and gated as stream_bytes_exact. The k-way heap merge the stream used before it drained build()'s block merge read 1400760 here, 120 B per kept pair (a 104-B pair and a 16-B merge key); the layout before that, which copied the constants and a sampler into every pair, held 291 B per kept pair at 5000 nodes.",
    ];
    let doc = JsonValue::object()
        .with("benchmark", "crates/bench/src/scale.rs")
        .with(
            "command",
            "cargo run --release -p bench --bin experiments -- scale",
        )
        .with("runs", runs.collect::<JsonValue>())
        .with("audited_case", audited.to_json_exact())
        .with(
            "memory_notes",
            memory_notes.into_iter().collect::<JsonValue>(),
        );
    write_document(opts, "scale", &doc)?;
    if violations > 0 {
        return Err(format!("audited scale case found {violations} violations"));
    }
    Ok(())
}

/// The `serve` command: the decision-service determinism document
/// (`BENCH_serve.json`) or, with `--differential`, the serve-vs-engine
/// equivalence check. A fresh run's `_exact`/`_checksum` keys must
/// reproduce the committed document bit-identically on any machine
/// (`experiments compare` gates them). Serving latency and throughput
/// are the `serve_churn` workload of `benchmark/`.
fn serve_cmd(opts: &Options) -> Result<(), String> {
    use bench::serve::{run_serve_bench, run_serve_differential, ServeBenchConfig};
    if opts.differential {
        eprintln!("[serve] differential: serve vs engine on a shared trace...");
        let problems = run_serve_differential(&ServeBenchConfig::smoke());
        if problems.is_empty() {
            println!("[serve] differential OK: decisions bit-identical to the engine kernel");
            return Ok(());
        }
        for p in &problems {
            eprintln!("[serve] MISMATCH: {p}");
        }
        return Err(format!(
            "serve differential found {} mismatches",
            problems.len()
        ));
    }

    eprintln!("[serve] smoke configuration...");
    let smoke = run_serve_bench(&ServeBenchConfig::smoke());
    eprintln!(
        "[serve] smoke: {} decisions, checksum {}, {} path searches settling {} nodes",
        smoke.decisions,
        smoke.decision_checksum,
        smoke.oracle_table_recomputes,
        smoke.oracle_nodes_settled,
    );
    let notes = [
        "smoke.*_exact and smoke.decision_checksum are the determinism contract: a fresh `experiments serve --smoke` on any machine must reproduce them bit-identically (gated by `experiments compare`).",
        "smoke.oracle_table_recomputes_exact and smoke.oracle_nodes_settled_exact are the oracle's work over the pass, counted not timed. A path search that no longer stops once the central nodes have settled settles every node every time (nodes_settled = table_recomputes x nodes) and fails the same gate on any machine.",
        "smoke.oracle_table_hits_exact counts the reads answered from a cached table. A decision reads its carrier's table once per central node and no candidate's weight, since every candidate list names the central node, which always accepts. A relay choice that reads the candidate list again reads 235940 (the value before that short-circuit) and fails the same gate.",
        "Serving latency and throughput are measured by the serve_churn workload of benchmark/ (dtn-serve.decide_p999_us, dtn-serve.budget_miss_ratio), not here.",
    ];
    let doc = JsonValue::object()
        .with("benchmark", "crates/bench/src/serve.rs")
        .with(
            "command",
            "cargo run --release -p bench --bin experiments -- serve --smoke",
        )
        .with(
            "results",
            JsonValue::object().with("smoke", smoke.to_json()),
        )
        .with("notes", notes.into_iter().collect::<JsonValue>());
    write_document(opts, "serve", &doc)
}

/// The `regimes` command: the hostile-regime matrix (contact process ×
/// overlay × NCL-maintenance policy). An optional positional narrows
/// the process list (comma-separated kebab-case names); every overlay
/// slot always runs. Emits the `BENCH_regimes.json` document to `--out`
/// or stdout and fails if any audited run reports violations.
fn regimes_cmd(opts: &Options) -> Result<(), String> {
    use bench::regimes::{report_to_json, run_regime_matrix, RegimeMatrixConfig};
    use dtn_trace::process::ContactProcessKind;
    let processes: Vec<ContactProcessKind> = match opts.figure.as_deref() {
        Some(list) => list
            .split(',')
            .map(|s| {
                let name = s.trim();
                ContactProcessKind::parse(name).ok_or_else(|| {
                    format!(
                        "unknown process {name:?}; known: {}",
                        ContactProcessKind::ALL
                            .iter()
                            .map(|k| k.name())
                            .collect::<Vec<_>>()
                            .join(", ")
                    )
                })
            })
            .collect::<Result<_, _>>()?,
        None => ContactProcessKind::ALL.to_vec(),
    };
    let cfg = RegimeMatrixConfig {
        scale: opts.scale,
        seeds: opts.seeds,
        processes,
        ..RegimeMatrixConfig::default()
    };
    eprintln!(
        "[regimes] {} processes x {} overlays x {{frozen, adaptive}}, {} seed(s), scale {}...",
        cfg.processes.len(),
        cfg.overlays.len(),
        cfg.seeds,
        cfg.scale,
    );
    let report = run_regime_matrix(&cfg);
    for cell in &report.cells {
        eprintln!(
            "[regimes] {:>17} x {:<13} frozen {:.3} adaptive {:.3} (recovery {:+.3})",
            cell.process.name(),
            cell.overlay,
            cell.frozen.success_ratio,
            cell.adaptive.success_ratio,
            cell.recovery(),
        );
    }
    let violations = report.total_violations();
    write_document(opts, "regimes", &report_to_json(&report))?;
    if violations > 0 {
        return Err(format!("audited regime runs found {violations} violations"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::parse_node_counts;

    #[test]
    fn node_counts_parse_or_explain() {
        assert_eq!(parse_node_counts("2, 10_000"), Ok(vec![2, 10_000]));
        for (list, needle) in [("0", "minimum"), ("1", "minimum"), ("10_000,x", "\"x\"")] {
            let err = parse_node_counts(list).expect_err(list);
            assert!(err.contains(needle), "{list}: {err}");
        }
    }
}
