//! The repo's benchmark. See `README.md` beside this crate's manifest.
//!
//! ```text
//! benchmark --workload NAME --seed N --seconds S --trace 0|1   one workload (the driver's form)
//! benchmark run   [--seed N] [--seconds S] [--out FILE] [--smoke]   every workload, end-to-end metrics
//! benchmark trace [--seed N] [--seconds S] [--out FILE] [--smoke]   every workload, per-layer metrics
//! benchmark compare A.json B.json                                  two `run` sets against the bounds
//! benchmark serve --bundle DIR --cpus LIST                         the server child (internal)
//! ```

mod affinity;
mod fixture;
mod http;
mod loadgen;
mod measure;
mod report;
mod run;
mod server;
mod spec;
mod stats;
mod trace;
mod workload;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use affinity::Placement;
use fixture::Scale;
use report::{ResultFile, StoredWorkload};
use run::Prepared;
use spec::Spec;
use workload::Workload;

const USAGE: &str = "usage:
  benchmark --workload NAME --seed N --seconds S --trace 0|1
  benchmark run   [--seed N] [--seconds S] [--out FILE] [--smoke]
  benchmark trace [--seed N] [--seconds S] [--out FILE] [--smoke]
  benchmark compare A.json B.json
workloads: answer_hot answer_cold batch_stream mixed_open";

/// `--name value` options and bare flags, in any order.
struct Args {
    options: Vec<(String, String)>,
    flags: Vec<String>,
    positional: Vec<String>,
}

impl Args {
    fn parse(args: &[String], flags: &[&str]) -> Result<Self, String> {
        let mut parsed = Args {
            options: Vec::new(),
            flags: Vec::new(),
            positional: Vec::new(),
        };
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            if flags.contains(&arg.as_str()) {
                parsed.flags.push(arg.clone());
            } else if let Some(name) = arg.strip_prefix("--") {
                let value = it.next().ok_or_else(|| format!("--{name} wants a value"))?;
                parsed.options.push((name.to_owned(), value.clone()));
            } else {
                parsed.positional.push(arg.clone());
            }
        }
        Ok(parsed)
    }

    fn get<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        match self.options.iter().find(|(n, _)| n == name) {
            Some((_, value)) => value
                .parse()
                .map(Some)
                .map_err(|_| format!("--{name}: cannot parse `{value}`")),
            None => Ok(None),
        }
    }

    fn only(&self, allowed: &[&str]) -> Result<(), String> {
        match self
            .options
            .iter()
            .find(|(n, _)| !allowed.contains(&n.as_str()))
        {
            Some((name, _)) => Err(format!("unknown option --{name}")),
            None => Ok(()),
        }
    }
}

/// Run one workload, print its notes, and return its stored form.
fn one_workload(
    spec: &Spec,
    prepared: &Prepared,
    workload: Workload,
    seconds: f64,
    traced: bool,
) -> Result<StoredWorkload, String> {
    let outcome = if traced {
        run::traced(prepared, workload, seconds)?
    } else {
        run::end_to_end(prepared, workload, seconds)?
    };
    for note in &outcome.notes {
        eprintln!("[benchmark] {}: {note}", workload.name());
    }
    report::store(spec, workload.name(), traced, &outcome)
}

fn checked_seconds(seconds: f64) -> Result<f64, String> {
    if seconds.is_finite() && seconds > 0.0 && seconds <= 600.0 {
        Ok(seconds)
    } else {
        Err(format!("--seconds must be in (0, 600], not {seconds}"))
    }
}

/// `run` / `trace`: every workload on one fixture.
fn all_workloads(spec: &Spec, args: &[String], traced: bool) -> Result<bool, String> {
    let args = Args::parse(args, &["--smoke"])?;
    args.only(&["seed", "seconds", "out"])?;
    let smoke = !args.flags.is_empty();
    let seed = args.get("seed")?.unwrap_or(1);
    let default_seconds = if smoke { 1.0 } else { spec.run_seconds as f64 };
    let seconds = checked_seconds(args.get("seconds")?.unwrap_or(default_seconds))?;
    let out: Option<PathBuf> = args.get("out")?;
    let scale = if smoke { Scale::Smoke } else { Scale::Full };

    let placement = place();
    println!(
        "# seed {seed}, {seconds} s per workload{}, nproc {}, {} closed-loop / {} open-loop connections on CPUs {:?}, server on CPUs {:?}",
        if traced {
            String::new()
        } else {
            format!(" in {} repeats", run::REPEATS)
        },
        placement.nproc,
        placement.connections(false),
        placement.connections(true),
        placement.generator,
        placement.server
    );
    let prepared = Prepared::new(seed, scale, &placement);
    for described in &spec.workloads {
        println!("# {}: {}", described.name, described.why);
    }
    let mut results = Vec::with_capacity(Workload::ALL.len());
    for workload in Workload::ALL {
        let stored = one_workload(spec, &prepared, workload, seconds, traced)?;
        report::print_lines(&stored);
        results.push(stored);
    }
    let correct = results.iter().all(|r| r.correct);
    if let Some(path) = out {
        let file = ResultFile {
            kind: if traced { "trace" } else { "run" }.into(),
            seed,
            seconds,
            nproc: placement.nproc,
            results,
        };
        report::write_result_file(&path, &file)?;
    }
    Ok(correct)
}

/// The driver's form: one workload, the result as the last line.
fn driver(spec: &Spec, args: &[String]) -> Result<bool, String> {
    let args = Args::parse(args, &[])?;
    args.only(&["workload", "seed", "seconds", "trace"])?;
    if !args.positional.is_empty() {
        return Err(format!("unexpected argument `{}`", args.positional[0]));
    }
    let name: String = args.get("workload")?.ok_or("--workload is required")?;
    let workload =
        Workload::from_name(&name).ok_or_else(|| format!("unknown workload `{name}`"))?;
    let seed = args.get("seed")?.unwrap_or(1);
    let seconds = checked_seconds(args.get("seconds")?.unwrap_or(spec.run_seconds as f64))?;
    let traced = match args.get::<u8>("trace")?.unwrap_or(0) {
        0 => false,
        1 => true,
        other => return Err(format!("--trace is 0 or 1, not {other}")),
    };
    let prepared = Prepared::new(seed, Scale::Full, &place());
    let stored = one_workload(spec, &prepared, workload, seconds, traced)?;
    report::print_lines(&stored);
    println!("{}", report::driver_line(&stored, spec, traced));
    Ok(stored.correct)
}

/// Decide who runs where, and confine this process — the load generator —
/// to its share. Threads spawned later inherit it.
fn place() -> Placement {
    let placement = Placement::split(&affinity::allowed());
    if affinity::pin(&placement.generator) {
        placement
    } else {
        eprintln!("[benchmark] the kernel refused to pin CPUs; running unpinned");
        Placement::unpinned(placement.nproc)
    }
}

fn dispatch(args: &[String]) -> Result<bool, String> {
    let spec = Spec::load();
    match args.first().map(String::as_str) {
        Some("serve") => match args {
            [_, bundle, dir, cpus, list] if bundle == "--bundle" && cpus == "--cpus" => {
                let cpus: Vec<usize> = list.split(',').filter_map(|c| c.parse().ok()).collect();
                server::serve_until_stdin_closes(Path::new(dir), &cpus).map(|()| true)
            }
            _ => Err("usage: benchmark serve --bundle DIR --cpus LIST".into()),
        },
        Some("run") => all_workloads(&spec, &args[1..], false),
        Some("trace") => all_workloads(&spec, &args[1..], true),
        Some("compare") => match args {
            [_, a, b] => report::compare(
                &spec,
                &report::read_result_file(Path::new(a))?,
                &report::read_result_file(Path::new(b))?,
            ),
            _ => Err("usage: benchmark compare A.json B.json".into()),
        },
        Some(first) if first.starts_with("--") => driver(&spec, args),
        _ => Err(USAGE.into()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(true) => ExitCode::SUCCESS,
        // A result was printed, but replies were wrong or a metric regressed.
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("benchmark: {message}");
            ExitCode::from(2)
        }
    }
}
