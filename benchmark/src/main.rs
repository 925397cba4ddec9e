//! The referee benchmark of the PDC-Query reproduction.
//!
//! `pdc-benchmark --workload W --seed N --seconds S --trace 0|1 [--smoke]`
//! sets one workload up, measures it for `S` seconds, checks every answer
//! against a brute-force oracle and prints each metric by name with its
//! unit; the last line of standard output is the machine-readable result.
//! `--trace 0` reports the end-to-end metrics, `--trace 1` the per-layer
//! metrics (and writes the span timeline to `benchmark/out/`). See
//! `benchmark/README.md`.

mod closed;
mod gen;
mod json;
mod layers;
mod measure;
mod metrics;
mod oracle;
mod probes;
mod serve;
mod stats;
mod trace;
mod world;

use closed::{Closed, ClosedSpec};
use gen::Var;
use json::Json;
use metrics::{MetricSet, END_TO_END, PER_LAYER, WORKLOADS};
use pdc_query::Strategy;
use std::process::ExitCode;

/// Seconds one run measures; also `run_seconds` in `BENCHMARK.json`.
const RUN_SECONDS: u32 = 10;

/// Command-line arguments.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// The workload to run.
    pub workload: String,
    /// Seed of every generated input.
    pub seed: u64,
    /// Seconds to measure.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
    /// Shrunken datasets and two passes: wiring and oracle check only.
    pub smoke: bool,
}

/// What a workload hands back.
pub struct Report {
    /// End-to-end metrics (`--trace 0`) or per-layer metrics (`--trace 1`).
    pub metrics: MetricSet,
    /// Operations attempted in the measured phases.
    pub attempted: u64,
    /// Operations that errored, answered wrongly, were refused, or whose
    /// simulated time drifted.
    pub failed: u64,
    /// Sizes and counts describing the run (op counts, dataset sizes).
    pub info: Vec<(String, f64)>,
    /// The span timeline of a traced run.
    pub trace: Option<trace::Tracer>,
}

const USAGE: &str =
    "usage: pdc-benchmark --workload <scan_wide|selective_catalog|spill_cold|serve_ingest> \
[--seed N] [--seconds S] [--trace [0|1]] [--smoke] | --emit-benchmark-json";

fn parse_args(argv: &[String]) -> Result<Option<Args>, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: f64::from(RUN_SECONDS),
        trace: false,
        smoke: false,
    };
    let mut it = argv.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().cloned().ok_or(format!("{name} requires a value"));
        match flag.as_str() {
            "--emit-benchmark-json" => return Ok(None),
            "--workload" => args.workload = value("--workload")?,
            "--seed" => args.seed = value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds =
                    value("--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 60.0) {
                    return Err(format!("--seconds {} must be within (0, 60]", args.seconds));
                }
            }
            "--trace" => {
                // `--trace 0|1` as the driver passes it; a bare `--trace` means 1.
                args.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--smoke" => args.smoke = true,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if !WORKLOADS.iter().any(|(name, _)| *name == args.workload) {
        return Err(format!("unknown or missing workload '{}'", args.workload));
    }
    Ok(Some(args))
}

/// The closed-loop workloads. Sizes are frozen with `BENCHMARK.json`;
/// `--smoke` shrinks the particle count only.
fn closed_spec(name: &str, smoke: bool) -> Option<ClosedSpec> {
    let particles = |full: usize| if smoke { 200_000 } else { full };
    match name {
        "scan_wide" => Some(ClosedSpec {
            name: "scan_wide",
            particles: particles(4_000_000),
            vars: &[Var::Energy, Var::X, Var::Y],
            region_bytes: 128 << 10,
            servers: 16,
            aux: false,
            joint: None,
            spill: None,
            strategies: &[Strategy::FullScan, Strategy::Histogram],
            text_ops: false,
            queries: gen::scan_wide_queries,
        }),
        "selective_catalog" => Some(ClosedSpec {
            name: "selective_catalog",
            particles: particles(2_000_000),
            vars: &[Var::Energy, Var::X, Var::Y, Var::Z],
            region_bytes: 128 << 10,
            servers: 16,
            aux: true,
            joint: Some((Var::Energy, Var::X)),
            spill: None,
            strategies: &[Strategy::HistogramIndex, Strategy::SortedHistogram, Strategy::Adaptive],
            text_ops: true,
            queries: |_| gen::catalog_queries(),
        }),
        "spill_cold" => Some(ClosedSpec {
            name: "spill_cold",
            particles: particles(2_000_000),
            vars: &[Var::Energy, Var::X],
            region_bytes: 128 << 10,
            servers: 8,
            aux: true,
            joint: None,
            spill: Some((4, 8)),
            strategies: &[Strategy::FullScan, Strategy::Histogram, Strategy::Adaptive],
            text_ops: false,
            queries: gen::spill_cold_queries,
        }),
        _ => None,
    }
}

/// `BENCHMARK.json`, generated from the registry so the two cannot drift.
fn benchmark_json() -> Json {
    let metric = |d: &metrics::MetricDef, bounded: bool| {
        let mut pairs = vec![
            ("name", Json::str(d.name)),
            ("unit", Json::str(d.unit)),
            ("better", Json::str(d.better)),
        ];
        if bounded {
            pairs.push(("bound", Json::Num(d.bound)));
        }
        Json::obj(pairs)
    };
    Json::obj(vec![
        ("command", Json::Arr(vec![Json::str("bash"), Json::str("benchmark/run.sh")])),
        ("paths", Json::Arr(vec![Json::str("benchmark")])),
        ("run_seconds", Json::Int(i64::from(RUN_SECONDS))),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|(name, why)| {
                        Json::obj(vec![("name", Json::str(*name)), ("why", Json::str(*why))])
                    })
                    .collect(),
            ),
        ),
        ("end_to_end", Json::Arr(END_TO_END.iter().map(|d| metric(d, true)).collect())),
        ("per_layer", Json::Arr(PER_LAYER.iter().map(|d| metric(d, false)).collect())),
    ])
}

fn env_or_unknown(key: &str) -> String {
    std::env::var(key).ok().filter(|v| !v.is_empty()).unwrap_or_else(|| "unknown".to_string())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(Some(args)) => args,
        Ok(None) => {
            print!("{}", benchmark_json().to_pretty());
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let commit = env_or_unknown("PDC_BENCH_COMMIT");
    let rustc = env_or_unknown("PDC_BENCH_RUSTC");
    println!(
        "# pdc-benchmark workload={} seed={} seconds={} trace={} smoke={} commit={commit} rustc=\"{rustc}\" nproc={nproc}",
        args.workload, args.seed, args.seconds, u8::from(args.trace), u8::from(args.smoke),
    );

    let report = match closed_spec(&args.workload, args.smoke) {
        Some(spec) => Closed::set_up(&spec, args.seed).run(&args),
        None => serve::run(&args),
    };

    for (key, value) in &report.info {
        println!("# {key} = {value}");
    }
    for (def, value) in report.metrics.iter() {
        println!("{:<40} {:>18.6} {}", def.name, value, def.unit);
    }
    let correct = report.failed == 0 && report.attempted > 0;
    let result = Json::obj(vec![
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Int(report.attempted.max(1) as i64)),
        ("failed", Json::Int(report.failed as i64)),
        ("metrics", report.metrics.to_json()),
    ]);

    // The full result document and, for a traced run, the span timeline.
    let out = world::out_dir();
    let tag = format!("{}-trace{}", args.workload, u8::from(args.trace));
    let document = Json::obj(vec![
        (
            "meta",
            Json::obj(vec![
                ("workload", Json::str(args.workload.clone())),
                ("seed", Json::Int(args.seed as i64)),
                ("seconds", Json::Num(args.seconds)),
                ("trace", Json::Bool(args.trace)),
                ("smoke", Json::Bool(args.smoke)),
                ("commit", Json::str(commit)),
                ("rustc", Json::str(rustc)),
                ("nproc", Json::Int(nproc as i64)),
                (
                    "info",
                    Json::Obj(
                        report.info.iter().map(|(k, v)| (k.clone(), Json::Num(*v))).collect(),
                    ),
                ),
            ]),
        ),
        ("result", result.clone()),
    ]);
    if let Err(e) = std::fs::write(out.join(format!("result-{tag}.json")), document.to_pretty()) {
        eprintln!("could not write the result document: {e}");
    }
    if let Some(tracer) = &report.trace {
        let path = out.join(format!("trace-{}.json", args.workload));
        if let Err(e) = std::fs::write(&path, tracer.to_chrome(&args.workload).to_line()) {
            eprintln!("could not write {}: {e}", path.display());
        }
    }

    println!("{}", result.to_line());
    if correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("FAILED: {} of {} operations failed", report.failed, report.attempted);
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = parse_args(&argv("--workload scan_wide --seed 7 --seconds 10 --trace 1"))
            .unwrap()
            .unwrap();
        assert_eq!(
            a,
            Args {
                workload: "scan_wide".into(),
                seed: 7,
                seconds: 10.0,
                trace: true,
                smoke: false
            }
        );
        let b = parse_args(&argv("--workload spill_cold --trace 0 --smoke")).unwrap().unwrap();
        assert!(!b.trace && b.smoke && b.seed == 1);
        let c = parse_args(&argv("--trace --workload serve_ingest")).unwrap().unwrap();
        assert!(c.trace && c.workload == "serve_ingest");
    }

    #[test]
    fn rejects_bad_command_lines() {
        assert!(parse_args(&argv("--workload nope")).is_err());
        assert!(parse_args(&argv("--seed 3")).is_err());
        assert!(parse_args(&argv("--workload scan_wide --seconds 0")).is_err());
        assert!(parse_args(&argv("--workload scan_wide --seconds 61")).is_err());
        assert!(parse_args(&argv("--workload scan_wide --bogus")).is_err());
        assert_eq!(parse_args(&argv("--emit-benchmark-json")), Ok(None));
    }

    #[test]
    fn every_workload_has_a_definition() {
        for (name, _) in WORKLOADS {
            assert!(closed_spec(name, false).is_some() || *name == "serve_ingest", "{name}");
        }
        for smoke in [false, true] {
            for name in ["scan_wide", "selective_catalog", "spill_cold"] {
                let spec = closed_spec(name, smoke).unwrap();
                assert_eq!(spec.name, name);
                assert!(!smoke || spec.particles <= 200_000);
            }
        }
    }

    #[test]
    fn benchmark_json_has_exactly_the_contract_keys() {
        let Json::Obj(pairs) = benchmark_json() else { panic!("object") };
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]
        );
        assert!(benchmark_json().to_pretty().len() < 64 << 10);
    }
}
