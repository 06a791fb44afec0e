//! `perfbench`: the layered end-to-end benchmark of the smp-suite
//! workspace.  `perfbench/run.sh` builds it and `smpq` into one target
//! directory, then runs
//!
//! ```text
//! perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! which prints notes and one table row per workload, then a JSON line with
//! `correct`, `attempted`, `failed` and the end-to-end (`--trace 0`) or
//! per-layer (`--trace 1`) metrics.  `all` runs each workload in a child
//! `perfbench` process of its own, so that no workload inherits another's
//! peak memory.  `perfbench --freeze` rewrites the frozen reference tables
//! under `perfbench/reference/`.

mod layers;
mod ledger;
mod oneshot;
mod procfs;
mod reference;
mod report;
mod serve;
mod stats;
mod trace;

use report::Outcome;
use std::path::PathBuf;

/// The workloads, in the order `--workload all` runs them.
pub const WORKLOADS: [&str; 4] = [
    "fleet-curve",
    "quantile-transient",
    "shard-curve",
    "serve-mix",
];

/// Settings of one run.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// Length of the measured phase.
    pub seconds: f64,
    /// Workload seed (drives the serve-mix query stream).
    pub seed: u64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// The `smpq` binary that worker and server processes run.
    pub smpq: PathBuf,
    /// Where a traced run writes its spans.
    pub out_dir: PathBuf,
}

fn run_workload(name: &str, ctx: &Ctx) -> Result<Outcome, String> {
    let mut outcome = match name {
        "fleet-curve" => oneshot::run(&oneshot::fleet_curve(), ctx),
        "quantile-transient" => oneshot::run(&oneshot::quantile_transient(), ctx),
        "shard-curve" => oneshot::run(&oneshot::shard_curve(), ctx),
        "serve-mix" => serve::run(ctx),
        other => Err(format!(
            "unknown workload '{other}' (expected one of: {}, all)",
            WORKLOADS.join(", ")
        )),
    }?;
    outcome.finish();
    Ok(outcome)
}

/// Recomputes every frozen reference table with the analytic engine (the
/// uniformization engine for all-exponential serve-mix models).
fn freeze() -> Result<(), String> {
    use smp_suite::core::Engine;
    for w in [
        oneshot::fleet_curve(),
        oneshot::quantile_transient(),
        oneshot::shard_curve(),
    ] {
        let reports = smp_suite::pipeline::AnalyticEngine::new(
            w.model.clone(),
            smp_suite::laplace::InversionMethod::euler(),
        )
        .solve(&w.requests()?)
        .map_err(|e| e.to_string())?;
        let mut frozen = reference::Frozen::default();
        for r in &reports {
            frozen.insert(r.name.clone(), reference::Table::of(r));
        }
        write_frozen(w.name, &frozen)?;
    }
    write_frozen("serve-mix", &serve::freeze()?)
}

fn write_frozen(workload: &str, frozen: &reference::Frozen) -> Result<(), String> {
    let path = reference::Frozen::path(workload);
    std::fs::create_dir_all(path.parent().expect("reference dir")).map_err(|e| e.to_string())?;
    std::fs::write(&path, frozen.render()).map_err(|e| e.to_string())?;
    eprintln!("froze {} table(s) into {}", frozen.len(), path.display());
    Ok(())
}

/// What a `perfbench` invocation does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// Run and print notes, rows and the JSON line.
    Print,
    /// Run one workload and print its outcome for a parent `all` run
    /// (`--child`).
    Child,
    /// Rewrite the frozen reference tables (`--freeze`).
    Freeze,
}

fn parse_args(args: &[String]) -> Result<(String, Ctx, Mode), String> {
    let mut workload = String::from("all");
    let mut mode = Mode::Print;
    // `smpq` is built next to this executable (`<target>/release/`); spans
    // go to `<target>/perfbench/`.
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate myself: {e}"))?;
    let release = exe.parent().ok_or("executable has no directory")?;
    let mut ctx = Ctx {
        seconds: 10.0,
        seed: serve::DEFAULT_SEED,
        trace: false,
        smpq: release.join("smpq"),
        out_dir: release.parent().unwrap_or(release).join("perfbench"),
    };
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        match flag.as_str() {
            "--freeze" => {
                mode = Mode::Freeze;
                continue;
            }
            "--child" => {
                mode = Mode::Child;
                continue;
            }
            _ => {}
        }
        let value = iter
            .next()
            .ok_or_else(|| format!("{flag} expects a value"))?;
        let bad = |what: &str| format!("{flag} expects {what}, got '{value}'");
        match flag.as_str() {
            "--workload" => workload = value.clone(),
            "--seed" => ctx.seed = value.parse().map_err(|_| bad("an integer"))?,
            "--seconds" => {
                ctx.seconds = value.parse().map_err(|_| bad("a number"))?;
                if !ctx.seconds.is_finite() || ctx.seconds <= 0.0 {
                    return Err(bad("a positive number"));
                }
            }
            "--trace" => {
                ctx.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    if mode == Mode::Child && workload == "all" {
        return Err("--child runs a single workload".to_string());
    }
    Ok((workload, ctx, mode))
}

/// Runs one workload in a child `perfbench` process and reads its outcome.
fn run_child(name: &str, ctx: &Ctx) -> Result<Outcome, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate myself: {e}"))?;
    let output = std::process::Command::new(exe)
        .args(["--workload", name, "--seed", &ctx.seed.to_string()])
        .args(["--seconds", &ctx.seconds.to_string()])
        .args(["--trace", if ctx.trace { "1" } else { "0" }, "--child"])
        .stdin(std::process::Stdio::null())
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start a child run: {e}"))?;
    if !output.status.success() {
        return Err(format!("child run exited with {}", output.status));
    }
    Outcome::decode(&String::from_utf8_lossy(&output.stdout))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, ctx, mode) = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if mode == Mode::Freeze {
        if let Err(e) = freeze() {
            eprintln!("perfbench: freeze failed: {e}");
            std::process::exit(1);
        }
        return;
    }
    let names: Vec<&str> = if workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![workload.as_str()]
    };
    let mut rows = Vec::new();
    let mut total = Outcome::default();
    for name in &names {
        let outcome = if names.len() > 1 {
            run_child(name, &ctx)
        } else {
            run_workload(name, &ctx)
        };
        let outcome = match outcome {
            Ok(outcome) => outcome,
            Err(e) => {
                eprintln!("perfbench: {name}: {e}");
                std::process::exit(1);
            }
        };
        if mode == Mode::Child {
            print!("{}", outcome.encode());
            return;
        }
        for note in &outcome.notes {
            println!("{name}: {note}");
        }
        rows.push(outcome.row(name));
        total.attempted += outcome.attempted;
        total.failed += outcome.failed;
        for m in &outcome.metrics {
            let mut m = m.clone();
            if names.len() > 1 {
                m.name = format!("{name}/{}", m.name);
            }
            total.metrics.push(m);
        }
    }
    for row in rows {
        println!("{row}");
    }
    println!("{}", total.json());
}
