//! `perfbench` subcommands, each printing one JSON object on stdout:
//!
//! ```text
//! perfbench op --workload W --seed N --op K [--trace]
//! perfbench setup --workload W --seed N
//! perfbench record
//! ```
//!
//! `op` runs operation K of a run of a workload, on the input the seed
//! and K select, and prints its output digest (and, traced, its
//! per-layer metrics and spans). `setup` times the workload's set-up
//! alone, [`SETUP_REPEATS`] times. `record` computes the reference digest
//! of every input of every workload and writes it to `reference.json`
//! beside this package's manifest.

use spider_perfbench::workload::{run_op, setup_only};
use spider_perfbench::Workload;
use spider_simcore::{sweep_with, Json};
use std::process::ExitCode;

/// Set-up is a millisecond or less, so one `setup` samples it this many
/// times. The first ten or so samples of a process run slower while its
/// caches and heap warm up; this many keeps them well out of the median.
const SETUP_REPEATS: usize = 100;
const REFERENCE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/reference.json");

fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

fn num(args: &[String], name: &str) -> Result<u64, String> {
    let v = flag(args, name).ok_or_else(|| format!("missing {name}"))?;
    v.parse()
        .map_err(|_| format!("{name} wants a whole number, got {v:?}"))
}

fn workload(args: &[String]) -> Result<Workload, String> {
    let name = flag(args, "--workload").ok_or("missing --workload")?;
    Workload::from_name(&name).ok_or_else(|| format!("unknown workload {name:?}"))
}

fn op(args: &[String]) -> Result<Json, String> {
    let w = workload(args)?;
    let input = w.input(num(args, "--seed")?, num(args, "--op")?);
    let traced = args.iter().any(|a| a == "--trace");
    let out = run_op(w, input, traced);
    Ok(Json::Obj(vec![
        ("workload".into(), Json::str(w.name())),
        ("input".into(), Json::UInt(input)),
        ("digest".into(), Json::str(out.digest)),
        ("workers".into(), Json::UInt(out.workers as u64)),
        ("extra_s".into(), Json::Num(out.extra_s)),
        (
            "metrics".into(),
            Json::Obj(
                out.metrics
                    .into_iter()
                    .map(|(k, v)| (k, Json::Num(v)))
                    .collect(),
            ),
        ),
        ("spans".into(), out.spans),
    ]))
}

fn setup(args: &[String]) -> Result<Json, String> {
    let w = workload(args)?;
    let input = w.input(num(args, "--seed")?, 0);
    let samples = (0..SETUP_REPEATS).map(|_| Json::Num(setup_only(w, input)));
    Ok(Json::obj([("setup_s", Json::arr(samples))]))
}

/// Reference digests of every input, computed on two threads.
fn record() -> Result<Json, String> {
    let jobs: Vec<(Workload, u64)> = Workload::ALL
        .into_iter()
        .flat_map(|w| w.inputs().into_iter().map(move |i| (w, i)))
        .collect();
    let digests = sweep_with(&jobs, |&(w, input)| run_op(w, input, false).digest, 2);
    let doc = Json::Obj(
        Workload::ALL
            .into_iter()
            .map(|w| {
                let per_input = jobs
                    .iter()
                    .zip(&digests)
                    .filter(|((jw, _), _)| *jw == w)
                    .map(|((_, input), d)| (input.to_string(), Json::str(d.clone())))
                    .collect();
                (w.name().to_string(), Json::Obj(per_input))
            })
            .collect(),
    );
    std::fs::write(REFERENCE, doc.pretty()).map_err(|e| format!("write {REFERENCE}: {e}"))?;
    Ok(Json::obj([("recorded", Json::UInt(jobs.len() as u64))]))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("op") => op(&args),
        Some("setup") => setup(&args),
        Some("record") => record(),
        _ => Err("usage: perfbench op|setup|record ...".into()),
    };
    match result {
        Ok(doc) => {
            let mut line = doc.pretty().replace('\n', " ");
            line.truncate(line.trim_end().len());
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
