//! Regenerates the BMcast paper's figures and prints paper-vs-measured
//! comparison tables.
//!
//! ```text
//! reproduce [--quick] [--metrics] [--jobs N]
//!           [--faults PLAN|all] [--scaleout] [--elasticity]
//!           [--transport aoe|batched|rdma|all]
//!           [--fleet-obs DIR] [--trace-out DIR] [--trace-ring N]
//!           [fig04 fig05 ... | all]
//! ```
//!
//! The command line becomes an ordered list of steps ([`plan`]). Each
//! step returns the text it prints, the `(path, bytes)` artifacts it
//! produced and its rerun-lock verdicts; `main` prints the text, writes
//! every artifact through one write path, and exits 1 at the end if a
//! write failed or a lock broke (the artifacts are written first, so a
//! broken lock's digests are on disk). The steps, in order:
//!
//! 1. **Transport race** (`--scaleout --transport <kind|all>`): plain
//!    AoE vs batched AoE vs RDMA on the single-server topology, every
//!    fleet with the observability plane on; a single extension kind
//!    always races against the plain-AoE baseline. Writes
//!    `BENCH_transport.json` (points plus one two-run chaos lock per
//!    transport).
//!
//!    Otherwise **scale-out** (`--scaleout`): the measured fleet
//!    scale-out figure, one [`bmcast::fleet::Fleet`] per
//!    `(topology, n)` point. Writes `BENCH_scaleout.json`.
//! 2. **Elasticity** (`--elasticity`): rolling image upgrades
//!    (re-virtualize → snapshot-back → reclaim → redeploy), a
//!    scale-down/scale-up wave, per-fault-class snapshot-back
//!    survivability and a two-run chaos lock. Writes
//!    `BENCH_elasticity.json`; with `--trace-out DIR` the first chaos
//!    wave's flight-recorder trace lands in `DIR/elasticity_trace.json`.
//! 3. **Metrics** (`--metrics`): one instrumented deployment's
//!    observability report (per-phase timings, redirect/fill/discard/
//!    retransmit counters, FIFO depth, guest I/O latency percentiles).
//! 4. **Trace-out** (`--trace-out DIR`): one flight-recorded deployment
//!    written to `DIR` as `trace.json` (Perfetto-loadable),
//!    `timeline.json`, `report.json`, `report.txt` and `metrics.json`,
//!    under the `--faults` plan if one is given (`all` records `chaos`).
//!    With `--elasticity` and no figures asked for, `DIR` holds only the
//!    elasticity trace and this step does not run.
//! 5. **Figures**: the selected figure ids (`all` = every paper figure
//!    plus `ext01`/`ext02`) and the `--faults` scenario figures (a
//!    preset name or `all`). Runs exactly when figure ids or `--faults`
//!    are given, or when no other step is selected; `--faults` without
//!    figure ids runs only the fault figures. Tables print in figure
//!    order after all selected figures finish; writes
//!    `BENCH_reproduce.json` with the per-figure wall clock.
//!
//! `--fleet-obs DIR` adds one fully-instrumented observability fleet
//! (the scale-out figure's n=64 peer-to-peer point) to the scale-out and
//! elasticity steps, the elasticity one under the chaos fault plan, as
//! `DIR/scaleout/` and `DIR/elasticity/` (see `bmcast_bench::obs`;
//! `check_figures.py --obs` validates a directory).
//!
//! Every measured step spreads its independent runs over `--jobs`
//! threads with [`run_pool`], which returns results in task order, so
//! stdout and every artifact except `BENCH_reproduce.json`'s wall-clock
//! fields are byte-identical at any job count. `--quick` shrinks image
//! sizes and run lengths (same mechanisms, same shape); the default is
//! the paper's parameters. `--trace-ring N` sizes the trace-event ring
//! (default 16384 for trace runs, 4096 for `--metrics`).
//!
//! A usage error exits with status 2 before anything is measured or
//! written: an unknown flag or figure id, a flag missing its value, and
//! any flag that would be ignored (`--transport` without `--scaleout`,
//! `--fleet-obs` with `--transport` or without `--scaleout`/
//! `--elasticity`, `--trace-ring` without `--metrics`/`--trace-out`).

use bmcast::TransportKind;
use bmcast_bench::experiment::{document, run_pool, RerunLock, Section};
use bmcast_bench::*;
use std::path::{Path, PathBuf};
use std::time::Instant;

type FigureFn = fn(Scale) -> Figure;

const USAGE: &str = "usage: reproduce [--quick] [--metrics] [--jobs N] \
[--faults PLAN|all] [--scaleout] [--elasticity] [--transport aoe|batched|rdma|all] \
[--fleet-obs DIR] [--trace-out DIR] [--trace-ring N] [fig04 fig05 ... | all]";

/// The figure registry, in print order.
fn figure_registry() -> Vec<(&'static str, FigureFn)> {
    vec![
        ("fig04", fig04_startup::run),
        ("fig05", fig05_database::run),
        ("fig06", fig06_mpi::run),
        ("fig07", fig07_kernbench::run),
        ("fig08", fig08_threads::run),
        ("fig09", fig09_memory::run),
        ("fig10", fig10_storage_tput::run),
        ("fig11", fig11_storage_lat::run),
        ("fig12", fig12_ib_tput::run),
        ("fig13", fig13_ib_lat::run),
        ("fig14", fig14_moderation::run),
        ("ext01", ext_ablation::run),
        ("ext02", ext_scaleout::run),
    ]
}

/// The parsed command line.
#[derive(Default)]
struct Cli {
    scale: Scale,
    metrics: bool,
    scaleout: bool,
    elasticity: bool,
    jobs: Option<usize>,
    wanted: Vec<String>,
    faults_sel: Option<String>,
    trace_out: Option<String>,
    fleet_obs: Option<String>,
    trace_ring: Option<usize>,
    transport: Option<Vec<TransportKind>>,
}

/// Parses the arguments (program name excluded). Every flag, value and
/// figure id is checked here, so a typo fails before anything runs.
fn parse_args(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli::default();
    let positive = |flag: &str, v: String| match v.parse::<usize>() {
        Ok(n) if n >= 1 => Ok(n),
        _ => Err(format!("{flag} takes a positive integer, got {v:?}")),
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let (flag, inline) = match a.split_once('=') {
            Some((f, v)) if f.starts_with("--") => (f, Some(v.to_string())),
            _ => (a.as_str(), None),
        };
        let mut value = || {
            inline
                .clone()
                .or_else(|| it.next().cloned())
                .ok_or_else(|| format!("{flag} takes a value"))
        };
        match flag {
            "--quick" | "--metrics" | "--scaleout" | "--elasticity" if inline.is_some() => {
                return Err(format!("{flag} takes no value"));
            }
            "--quick" => cli.scale = Scale::Quick,
            "--metrics" => cli.metrics = true,
            "--scaleout" => cli.scaleout = true,
            "--elasticity" => cli.elasticity = true,
            "--jobs" => cli.jobs = Some(positive(flag, value()?)?),
            "--trace-ring" => cli.trace_ring = Some(positive(flag, value()?)?),
            "--trace-out" => cli.trace_out = Some(value()?),
            "--fleet-obs" => cli.fleet_obs = Some(value()?),
            "--faults" => {
                let sel = value()?;
                if sel != "all" && !simkit::fault::FaultPlan::PRESET_NAMES.contains(&sel.as_str()) {
                    return Err(format!(
                        "--faults takes one of {:?} or 'all', got {sel:?}",
                        simkit::fault::FaultPlan::PRESET_NAMES
                    ));
                }
                cli.faults_sel = Some(sel);
            }
            "--transport" => {
                let sel = value()?;
                let kinds = ext_transport::kinds_for(&sel).ok_or_else(|| {
                    format!("--transport takes aoe|batched|rdma|all, got {sel:?}")
                })?;
                cli.transport = Some(kinds);
            }
            _ if a.starts_with('-') => return Err(format!("unknown flag {a:?}")),
            _ if a == "all" || figure_registry().iter().any(|(id, _)| id == a) => {
                cli.wanted.push(a.clone());
            }
            _ => return Err(format!("unknown figure id {a:?}")),
        }
    }
    if cli.transport.is_some() && !cli.scaleout {
        return Err("--transport requires --scaleout".into());
    }
    if cli.fleet_obs.is_some() && cli.transport.is_some() {
        return Err("--fleet-obs does not apply to the transport race".into());
    }
    if cli.fleet_obs.is_some() && !(cli.scaleout || cli.elasticity) {
        return Err("--fleet-obs requires --scaleout or --elasticity".into());
    }
    if cli.trace_ring.is_some() && !(cli.metrics || cli.trace_out.is_some()) {
        return Err("--trace-ring requires --metrics or --trace-out".into());
    }
    Ok(cli)
}

/// One step of a run; [`plan`] orders them, and [`run`] reads their
/// options (obs and trace directories, trace ring, fault preset) from
/// the [`Cli`].
#[derive(Debug, PartialEq)]
enum Step {
    /// The deployment transport race over these kinds.
    Transport(Vec<TransportKind>),
    /// The measured scale-out figure.
    Scaleout,
    /// The reverse-lifecycle figure.
    Elasticity,
    /// One instrumented deployment's telemetry report.
    Metrics,
    /// One flight-recorded deployment, written to this directory.
    TraceOut(String),
    /// These figure ids, in print order.
    Figures(Vec<&'static str>),
}

/// What one step produced.
#[derive(Default)]
struct StepOutput {
    /// Printed to stdout.
    stdout: String,
    /// Files to write, as `(path, body)`.
    artifacts: Vec<(PathBuf, String)>,
    /// Rerun-lock verdicts.
    locks: Vec<RerunLock>,
}

/// Orders the steps the command line selects (see the module doc).
fn plan(cli: &Cli) -> Vec<Step> {
    let explicit_figures = !cli.wanted.is_empty() || cli.faults_sel.is_some();
    let mut steps = Vec::new();
    if let Some(kinds) = &cli.transport {
        steps.push(Step::Transport(kinds.clone()));
    } else if cli.scaleout {
        steps.push(Step::Scaleout);
    }
    if cli.elasticity {
        steps.push(Step::Elasticity);
    }
    if cli.metrics {
        steps.push(Step::Metrics);
    }
    if let Some(dir) = &cli.trace_out {
        // With `--elasticity`, DIR holds the chaos wave's trace; the
        // deployment trace joins it only when figures run too.
        if !cli.elasticity || explicit_figures {
            steps.push(Step::TraceOut(dir.clone()));
        }
    }
    if explicit_figures || steps.is_empty() {
        let all = cli.wanted.is_empty() || cli.wanted.iter().any(|w| w == "all");
        let mut ids: Vec<&'static str> = figure_registry()
            .into_iter()
            .map(|(id, _)| id)
            .filter(|id| all || cli.wanted.iter().any(|w| w == id))
            .collect();
        if let Some(sel) = &cli.faults_sel {
            // `--faults` without figure ids runs only the fault figures.
            if cli.wanted.is_empty() {
                ids.clear();
            }
            let faults = faults::registry().into_iter().map(|(id, _)| id);
            ids.extend(faults.filter(|id| sel == "all" || id.strip_prefix("faults_") == Some(sel)));
        }
        steps.push(Step::Figures(ids));
    }
    steps
}

/// Runs one step.
fn run(step: &Step, cli: &Cli, jobs: usize) -> StepOutput {
    let scale = cli.scale;
    eprintln!("[reproduce] {step:?} at {scale:?} scale ({jobs} jobs) ...");
    let started = Instant::now();
    let mut out = StepOutput::default();
    match step {
        Step::Transport(kinds) => {
            let (fig, bench) = ext_transport::run_transport(scale, jobs, kinds);
            let json = document(scale, bench.sections());
            out.stdout = format!("{fig}\n");
            out.artifacts.push(("BENCH_transport.json".into(), json));
            out.locks = bench.chaos;
        }
        Step::Scaleout => {
            let (fig, points) = ext_scaleout::run_scaleout(scale, jobs);
            let rows = points.iter().map(ext_scaleout::point_json).collect();
            let json = document(scale, vec![("points", Section::Rows(rows))]);
            out.stdout = format!("{fig}\n");
            out.artifacts.push(("BENCH_scaleout.json".into(), json));
            if let Some(dir) = &cli.fleet_obs {
                out.artifacts.extend(obs_fleet(dir, "scaleout", false));
            }
        }
        Step::Elasticity => {
            let (fig, bench) = ext_elasticity::run_elasticity(scale, jobs);
            let json = document(scale, bench.sections());
            out.stdout = format!("{fig}\n");
            out.artifacts.push(("BENCH_elasticity.json".into(), json));
            if let Some(dir) = &cli.fleet_obs {
                out.artifacts.extend(obs_fleet(dir, "elasticity", true));
            }
            if let Some(dir) = &cli.trace_out {
                let trace = vec![("elasticity_trace.json", bench.chaos_trace)];
                out.artifacts.extend(in_dir(dir, trace));
            }
            out.locks.push(bench.chaos);
        }
        Step::Metrics => out.stdout = telemetry::report(scale, cli.trace_ring.unwrap_or(4096)),
        Step::TraceOut(dir) => {
            // `--faults all` runs the whole matrix; record the chaos plan,
            // the superset.
            let preset = match cli.faults_sel.as_deref() {
                Some("all") => Some("chaos"),
                sel => sel,
            };
            let mut rec = bmcast::deploy::FlightRecorderConfig::default();
            rec.trace_ring = cli.trace_ring.unwrap_or(rec.trace_ring);
            let run = flight::record(scale, rec, preset);
            eprintln!("[reproduce] bare metal at {}", run.bare_metal_at);
            if run.trace_dropped > 0 {
                eprintln!(
                    "[reproduce] warning: {} trace events evicted from the ring; \
                     raise --trace-ring to keep them",
                    run.trace_dropped
                );
            }
            out.artifacts = in_dir(dir, run.artifacts());
        }
        Step::Figures(ids) => out = run_figures(ids, scale, jobs),
    }
    let wall_s = started.elapsed().as_secs_f64();
    eprintln!("[reproduce] step done in {wall_s:.1}s wall");
    out
}

/// Places named artifact files under `dir`.
fn in_dir(dir: impl AsRef<Path>, files: Vec<(&str, String)>) -> Vec<(PathBuf, String)> {
    let dir = dir.as_ref();
    files
        .into_iter()
        .map(|(name, body)| (dir.join(name), body))
        .collect()
}

/// Runs the figures `ids` on the pool, prints them in order with the
/// cross-figure summary, and records `BENCH_reproduce.json`.
fn run_figures(ids: &[&'static str], scale: Scale, jobs: usize) -> StepOutput {
    let registry: Vec<_> = figure_registry()
        .into_iter()
        .chain(faults::registry())
        .collect();
    let started = Instant::now();
    let runs = run_pool(jobs, ids, |&id| {
        let (_, f) = registry
            .iter()
            .find(|(r, _)| *r == id)
            .expect("planned ids exist");
        eprintln!("[reproduce] running {id} at {scale:?} scale ...");
        let started = Instant::now();
        let fig = f(scale);
        let wall_s = started.elapsed().as_secs_f64();
        eprintln!("[reproduce] {id} done in {wall_s:.1}s");
        (fig, wall_s)
    });
    let total_wall_s = started.elapsed().as_secs_f64();
    eprintln!(
        "[reproduce] {} figures in {total_wall_s:.1}s wall ({jobs} jobs)",
        runs.len()
    );

    let mut stdout: String = runs.iter().map(|(fig, _)| format!("{fig}\n")).collect();
    if runs.len() > 1 {
        let checks: Vec<&Check> = runs.iter().flat_map(|(fig, _)| &fig.checks).collect();
        let total = checks.len();
        let within_10 = checks.iter().filter(|c| c.deviation() <= 0.10).count();
        stdout += "== summary: paper vs measured across all figures ==\n";
        stdout += &format!("  checks: {total}, within 10% of paper: {within_10}\n");
        // The first of equal maxima in figure order: `max_by` keeps the
        // last, so scan in reverse.
        let worst = checks
            .iter()
            .rev()
            .max_by(|a, b| a.deviation().total_cmp(&b.deviation()));
        if let Some(w) = worst {
            let pct = w.deviation() * 100.0;
            stdout += &format!("  largest deviation: {} ({pct:.1}%)\n", w.metric);
        }
    }

    let rows = ids
        .iter()
        .zip(&runs)
        .map(|(id, (fig, wall_s))| {
            let within = fig.checks.iter().filter(|c| c.deviation() <= 0.10).count();
            format!(
                "{{\"id\": \"{id}\", \"wall_s\": {wall_s:.3}, \"checks\": {}, \
                 \"within_10pct\": {within}}}",
                fig.checks.len()
            )
        })
        .collect();
    let json = document(
        scale,
        vec![
            ("parallelism", Section::Value(jobs.to_string())),
            ("total_wall_s", Section::Value(format!("{total_wall_s:.3}"))),
            ("figures", Section::Rows(rows)),
        ],
    );
    StepOutput {
        stdout,
        artifacts: vec![("BENCH_reproduce.json".into(), json)],
        locks: Vec::new(),
    }
}

/// The artifact files of one fully-instrumented observability fleet
/// (the scale-out figure's n=64 p2p point; `chaos` adds the chaos fault
/// plan for the elasticity flavor), under `<dir>/<kind>/`.
fn obs_fleet(dir: &str, kind: &str, chaos: bool) -> Vec<(PathBuf, String)> {
    let faults = if chaos { ", chaos faults" } else { "" };
    let n = obs::OBS_FLEET_N;
    eprintln!("[reproduce] collecting {kind} observability fleet (n={n}, p2p{faults}) ...");
    let mut cfg = obs::obs_fleet_cfg(ext_scaleout::Topology::PeerToPeer);
    if chaos {
        cfg.faults = simkit::fault::FaultPlan::preset("chaos", 7);
    }
    let (_, profile) = ext_scaleout::fleet_geometry();
    let o = obs::collect_fleet_obs(cfg, &profile);
    let (booted, raises) = (o.booted, o.raises());
    eprintln!("[reproduce] {kind} observability fleet: {booted} booted, {raises} alert raises");
    in_dir(Path::new(dir).join(kind), o.artifacts())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = parse_args(&args).unwrap_or_else(|e| {
        eprintln!("reproduce: {e}\n{USAGE}");
        std::process::exit(2);
    });
    let cores = || std::thread::available_parallelism().map_or(1, |n| n.get());
    let jobs = cli.jobs.unwrap_or_else(cores);
    let mut failed = false;
    for step in plan(&cli) {
        let out = run(&step, &cli, jobs);
        print!("{}", out.stdout);
        for (path, body) in &out.artifacts {
            let written = path
                .parent()
                .map_or(Ok(()), std::fs::create_dir_all)
                .and_then(|()| std::fs::write(path, body));
            match written {
                Ok(()) => eprintln!("[reproduce] wrote {}", path.display()),
                Err(e) => {
                    eprintln!("[reproduce] failed to write {}: {e}", path.display());
                    failed = true;
                }
            }
        }
        for lock in out.locks.iter().filter(|l| !l.identical) {
            eprintln!(
                "[reproduce] CHAOS DETERMINISM BREAK on {}: run A {} vs run B {}",
                lock.label, lock.digest_a, lock.digest_b
            );
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn command_lines_plan_the_documented_steps() {
        use Step::*;
        let ids = |reg: Vec<(&'static str, FigureFn)>| Figures(reg.iter().map(|r| r.0).collect());
        let trace = || TraceOut("d".into());
        let table = vec![
            // Every CI invocation.
            ("--quick all", vec![ids(figure_registry())]),
            ("--quick --trace-out d", vec![trace()]),
            ("--quick --faults all", vec![ids(faults::registry())]),
            ("--quick --scaleout --jobs 2", vec![Scaleout]),
            (
                "--quick --scaleout --transport all --jobs 2",
                vec![Transport(TransportKind::ALL.to_vec())],
            ),
            ("--quick --elasticity --trace-out d", vec![Elasticity]),
            ("--quick --scaleout --jobs 2 --fleet-obs o", vec![Scaleout]),
            // Steps an earlier step used to swallow.
            ("--scaleout --metrics", vec![Scaleout, Metrics]),
            (
                "--elasticity --metrics --trace-ring 64",
                vec![Elasticity, Metrics],
            ),
            (
                "--metrics --faults drop",
                vec![Metrics, Figures(vec!["faults_drop"])],
            ),
            // `--trace-out` holds the elasticity trace alone unless
            // figures run too.
            (
                "--elasticity --trace-out d fig04",
                vec![Elasticity, trace(), Figures(vec!["fig04"])],
            ),
            (
                "--trace-out d --faults all",
                vec![trace(), ids(faults::registry())],
            ),
            ("--metrics", vec![Metrics]),
            ("--faults drop", vec![Figures(vec!["faults_drop"])]),
            ("", vec![ids(figure_registry())]),
            (
                "fig10 --faults stall ext01",
                vec![Figures(vec!["fig10", "ext01", "faults_stall"])],
            ),
        ];
        for (line, want) in table {
            let args: Vec<String> = line.split_whitespace().map(String::from).collect();
            let cli = parse_args(&args).expect("valid invocation");
            assert_eq!(plan(&cli), want, "reproduce {line}");
        }
    }
}
