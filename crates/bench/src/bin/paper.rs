//! The paper's evaluation (§VI) on the simulated clock: Figs. 3–6, the §V
//! query catalog, the index overheads, the design ablations and fault
//! injection, with every paper claim beside the paper's band (see
//! `pdc_bench::paper`).
//!
//! Writes `BENCH_paper.json` (path overridable as `argv[1]`) and renders
//! the `results/*.md` pages from it into a `results/` directory beside
//! it. The `PDC_*` variables scale the run (default 4,000,000 particles,
//! 16 servers). Exits non-zero if strategies, baselines or fault runs
//! disagree on a result; a claim outside the paper's band is recorded,
//! not failed.

use pdc_bench::{paper, Gates, Scale};
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut gates = Gates::from_args("paper");
    let doc = paper::run(&Scale::from_env(), &mut gates);
    let dir = gates.path().with_file_name("results");
    let written = std::fs::create_dir_all(&dir).and_then(|()| {
        paper::render(&doc)
            .into_iter()
            .try_for_each(|(name, md)| std::fs::write(dir.join(name), md))
    });
    if let Err(e) = written {
        gates.check(format!("cannot write {}: {e}", dir.display()), false);
    }
    gates.finish(&doc)
}
