//! The served-query benchmark of this repository: four workloads driven over
//! loopback at in-process federation servers, every answer verified, eight
//! end-to-end metrics per workload and — with `--trace 1` — a per-layer
//! budget measured from outside. See `README.md` beside this package.

mod catalog;
mod compare;
mod host;
mod json;
mod layers;
mod loadgen;
mod run;
mod stats;
mod verify;
mod workloads;

use json::Json;
use run::Options;
use std::path::PathBuf;
use std::process::ExitCode;
use workloads::Workload;

const USAGE: &str = "\
usage: csqp-benchmark [--seed N] [--trace 0|1] [--workload NAME] [--seconds S] [--smoke]
       csqp-benchmark compare <a.json> <b.json>
       csqp-benchmark manifest | catalog

  (no --workload)   all four workloads, 10 interleaved rounds of 3 s each
  --workload NAME   one of serve_hot plan_cold stream_big mixed_open, alone (less repeatable);
                    the last line printed is one JSON object with the run's metrics
  --seconds S       measure for S seconds per workload instead (cut into 10 rounds)
  --trace 1         add the traced run: per-layer metrics and out/trace-<workload>.jsonl
  --smoke           1 s rounds, 3 of them, 2 timed set-ups: does it run at all?
  compare           apply each end-to-end metric's bound to two results.json files
  manifest          print BENCHMARK.json as generated from the metric catalogue
  catalog           print the catalogue as the markdown tables of README.md";

/// Rounds per workload: the load shape is fixed, and so is this. A
/// `--seconds` budget is cut into as many rounds.
const ROUNDS_PER_RUN: usize = 10;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("manifest") => {
            print!("{}", catalog::manifest().pretty());
            ExitCode::SUCCESS
        }
        Some("catalog") => {
            print!("{}", catalog::markdown());
            ExitCode::SUCCESS
        }
        Some("compare") => match args.as_slice() {
            [_, a, b] => compare::main(a, b),
            _ => usage("compare takes two result files"),
        },
        _ => match parse(&args) {
            Ok(opts) => measure(&opts),
            Err(e) => usage(&e),
        },
    }
}

fn usage(problem: &str) -> ExitCode {
    eprintln!("csqp-benchmark: {problem}\n{USAGE}");
    ExitCode::from(2)
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        workloads: Workload::ALL.to_vec(),
        seed: 1,
        rounds: ROUNDS_PER_RUN,
        round_secs: 3.0,
        setups: 8,
        trace: false,
        out_dir: PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out")),
    };
    let mut seconds: Option<f64> = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--seed" => opts.seed = value()?.parse().map_err(|_| "--seed takes a whole number")?,
            "--trace" => {
                opts.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--workload" => {
                let name = value()?;
                let w = Workload::parse(name).ok_or_else(|| format!("unknown workload {name}"))?;
                opts.workloads = vec![w];
            }
            "--seconds" => {
                let secs: f64 = value()?.parse().map_err(|_| "--seconds takes a number")?;
                if !(secs > 0.0 && secs <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(secs);
            }
            "--smoke" => {
                opts.rounds = 3;
                opts.round_secs = 1.0;
                opts.setups = 2;
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    // `--seconds` is the whole measured time of a workload, cut into rounds.
    if let Some(secs) = seconds {
        opts.round_secs = secs / opts.rounds as f64;
    }
    Ok(opts)
}

fn measure(opts: &Options) -> ExitCode {
    let result = run::run(opts);
    println!();
    for w in &result.workloads {
        println!(
            "== {} — attempted {}, failed {}{}",
            w.workload.name(),
            w.attempted,
            w.failed,
            if w.failures.is_empty() { String::new() } else { format!(" {:?}", w.failures) }
        );
        for (name, e) in &w.end_to_end {
            let m = catalog::end_to_end(name);
            println!(
                "  {name:<28} {:>14.3} {:<7} {:<10} q1 {:.3} q3 {:.3} (n={}, noise {:.1}%, bound {:.0}%)",
                e.value,
                m.unit,
                e.estimator,
                e.q1,
                e.q3,
                e.values.len(),
                100.0 * e.noise,
                100.0 * m.bound
            );
        }
        for (name, v) in &w.per_layer {
            let m = catalog::per_layer(name);
            println!("  {name:<40} {v:>14.3} {}", m.unit);
        }
        for warning in &w.warnings {
            println!("  warning: {warning}");
        }
    }
    println!("total wall time {:.1} s", result.wall_s);
    if let Err(e) = std::fs::create_dir_all(&opts.out_dir)
        .and_then(|()| std::fs::write(opts.out_dir.join("results.json"), result.json.pretty()))
    {
        eprintln!("csqp-benchmark: cannot write results.json: {e}");
        return ExitCode::FAILURE;
    }
    println!("wrote {}", opts.out_dir.join("results.json").display());
    // One workload alone: the last line is the machine-readable result,
    // end-to-end metrics untraced, per-layer metrics traced.
    if let [w] = result.workloads.as_slice() {
        let entry = |name: &'static str, value: f64, unit: &str| {
            (name, Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))]))
        };
        let metrics: Vec<(&str, Json)> = if opts.trace {
            w.per_layer.iter().map(|(n, v)| entry(n, *v, catalog::per_layer(n).unit)).collect()
        } else {
            w.end_to_end
                .iter()
                .map(|(n, e)| entry(n, e.value, catalog::end_to_end(n).unit))
                .collect()
        };
        println!(
            "{}",
            Json::obj([
                ("correct", Json::Bool(w.failed == 0)),
                ("attempted", Json::Num(w.attempted as f64)),
                ("failed", Json::Num(w.failed as f64)),
                ("metrics", Json::obj(metrics)),
            ])
        );
    }
    // A completed run of one workload exits 0 and says in `correct` whether
    // every answer verified (the pipeline's contract); a full run is for
    // people and scripts, and failed requests fail it.
    if result.workloads.len() > 1 && result.workloads.iter().any(|w| w.failed > 0) {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
