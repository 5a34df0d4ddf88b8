//! Host-performance benchmark of the BMcast simulator.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload boot_p2p64 --seed 1 --seconds 30 --trace 0
//! ```
//!
//! Each timed run executes in a fresh child process of this binary, so
//! peak RSS and allocator state never carry over between runs; the
//! parent repeats children until `--seconds` is spent (at least one),
//! checks that every child produced the same simulated outputs, and
//! prints one JSON object as its last line. `--trace 1` adds one traced
//! child (telemetry and flight recorder on) and prints the per-layer
//! metrics instead of the end-to-end ones. See `README.md` beside this
//! package for the workloads and the metric-to-layer map.

mod layers;
mod oracle;
mod workloads;

use layers::{ratio, Metric};
use std::fmt::Write as _;
use std::process::{Command, ExitCode};
use std::time::Instant;
use workloads::{Outcome, Workload};

/// World constructions per child for `setup_s`: untimed warm-up, then
/// at least this many timed ones, over at least `SETUP_SPAN_S` of host
/// time. One construction takes milliseconds, too short to time once.
const SETUP_WARMUP: usize = 2;
const SETUP_REPS: usize = 15;
const SETUP_SPAN_S: f64 = 1.0;

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    child: Option<ChildMode>,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum ChildMode {
    Untraced,
    Traced,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut child) =
        (None, None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("bad {what} {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad("workload"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("seed"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("seconds"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(bad("seconds"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("trace")),
                })
            }
            "--child" => {
                child = Some(match value.as_str() {
                    "untraced" => ChildMode::Untraced,
                    "traced" => ChildMode::Traced,
                    _ => return Err(bad("child mode")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(30.0),
        trace: trace.unwrap_or(false),
        child,
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
            eprintln!(
                "{e}\nusage: --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                names.join("|")
            );
            return ExitCode::from(2);
        }
    };
    match args.child {
        Some(mode) => {
            print!("{}", child(args.workload, args.seed, mode));
            ExitCode::SUCCESS
        }
        None => parent(&args),
    }
}

/// Peak resident set of this process (`VmHWM`), MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One child run: the host-speed witness, the set-up timings, one
/// timed run and its oracles — printed as `key value...` lines.
fn child(workload: Workload, seed: u64, mode: ChildMode) -> String {
    let mut s = String::new();
    let traced = mode == ChildMode::Traced;
    writeln!(s, "witness {}", layers::witness_ns_per_byte()).unwrap();
    if !traced {
        let setup = workloads::time_setup(workload, seed, SETUP_WARMUP, SETUP_REPS, SETUP_SPAN_S);
        writeln!(s, "setup {}", median_of(setup)).unwrap();
    }
    let mut world = workloads::build(workload, seed, traced);
    let out = workloads::run(&mut world);
    writeln!(s, "wall {}", out.wall_s).unwrap();
    writeln!(s, "rss {}", peak_rss_mb()).unwrap();
    writeln!(s, "sim_done {}", out.sim_done_s).unwrap();
    writeln!(s, "latency {}", join(&out.latency_ms)).unwrap();
    writeln!(s, "checks {} {}", out.attempted, out.failed).unwrap();
    writeln!(s, "digest {:016x}", out.digest).unwrap();
    writeln!(s, "events {}", out.events).unwrap();
    writeln!(s, "wire {} {}", out.wire_bytes, out.frames).unwrap();
    for f in &out.failures {
        writeln!(s, "failure {f}").unwrap();
    }
    if traced {
        let cfg = workloads::fleet_config(workload, &world.seeds);
        let mut metrics = layers::counts(&world, &out);
        metrics.extend(layers::telemetry_costs(&world));
        metrics.extend(layers::costs(&cfg));
        for m in metrics {
            writeln!(s, "layer {} {} {}", m.name, m.value, m.unit).unwrap();
        }
    }
    s
}

fn join(v: &[f64]) -> String {
    v.iter().map(f64::to_string).collect::<Vec<_>>().join(" ")
}

fn median_of(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    oracle::median(&v)
}

/// A child's report, parsed back.
#[derive(Debug, Default)]
struct Report {
    witness: f64,
    setup_s: f64,
    out: Outcome,
    rss_mb: f64,
    layers: Vec<Metric>,
}

fn run_child(args: &Args, mode: ChildMode) -> Result<Report, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", args.workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .args([
            "--child",
            if mode == ChildMode::Traced {
                "traced"
            } else {
                "untraced"
            },
        ])
        .output()
        .map_err(|e| format!("starting a child run: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "child run failed ({}): {}",
            output.status,
            String::from_utf8_lossy(&output.stderr)
        ));
    }
    let text = String::from_utf8(output.stdout).map_err(|e| e.to_string())?;
    parse_report(&text)
}

fn parse_report(text: &str) -> Result<Report, String> {
    let mut r = Report::default();
    let num = |v: Option<&str>| -> Result<f64, String> {
        v.ok_or("missing value")?
            .parse::<f64>()
            .map_err(|e| e.to_string())
    };
    let int = |v: Option<&str>| -> Result<u64, String> {
        v.ok_or("missing value")?
            .parse::<u64>()
            .map_err(|e| e.to_string())
    };
    for line in text.lines() {
        let (key, rest) = line.split_once(' ').unwrap_or((line, ""));
        let mut words = rest.split(' ');
        match key {
            "witness" => r.witness = num(words.next())?,
            "setup" => r.setup_s = num(words.next())?,
            "wall" => r.out.wall_s = num(words.next())?,
            "rss" => r.rss_mb = num(words.next())?,
            "sim_done" => r.out.sim_done_s = num(words.next())?,
            "latency" => {
                r.out.latency_ms = words
                    .filter(|w| !w.is_empty())
                    .map(|w| num(Some(w)))
                    .collect::<Result<_, _>>()?
            }
            "checks" => {
                r.out.attempted = int(words.next())?;
                r.out.failed = int(words.next())?;
            }
            "digest" => {
                r.out.digest = u64::from_str_radix(words.next().unwrap_or(""), 16)
                    .map_err(|e| e.to_string())?
            }
            "events" => r.out.events = int(words.next())?,
            "wire" => {
                r.out.wire_bytes = int(words.next())?;
                r.out.frames = int(words.next())?;
            }
            "failure" => r.out.failures.push(rest.to_string()),
            "layer" => {
                let name = words.next().ok_or("layer name")?;
                let value = num(words.next())?;
                let unit = words.next().ok_or("layer unit")?;
                r.layers.push(layers::m(name, value, unit));
            }
            _ => return Err(format!("unexpected child line {line:?}")),
        }
    }
    Ok(r)
}

/// The simulated metrics of one run: (done s, p50 ms, tail ms, tail
/// percentile).
fn sim_metrics(out: &Outcome) -> Option<(f64, f64, f64, f64)> {
    if out.latency_ms.is_empty() || !out.sim_done_s.is_finite() {
        return None;
    }
    let (tail, pct) = oracle::tail(&out.latency_ms)?;
    Some((out.sim_done_s, oracle::median(&out.latency_ms), tail, pct))
}

/// The result line: the oracle counts and every metric with its unit.
fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        write!(
            s,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        )
        .unwrap();
    }
    s.push_str("}}");
    s
}

fn parent(args: &Args) -> ExitCode {
    let started = Instant::now();
    let mut runs: Vec<Report> = Vec::new();
    loop {
        let t = Instant::now();
        match run_child(args, ChildMode::Untraced) {
            Ok(r) => runs.push(r),
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        }
        // Start another run only if it should end within the budget.
        let spent = started.elapsed().as_secs_f64();
        if spent + t.elapsed().as_secs_f64() > args.seconds {
            break;
        }
    }
    let traced = if args.trace {
        match run_child(args, ChildMode::Traced) {
            Ok(r) => Some(r),
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        None
    };

    let first = &runs[0].out;
    let mut attempted = 0u64;
    let mut failed = 0u64;
    for r in runs.iter().chain(&traced) {
        attempted += r.out.attempted;
        failed += r.out.failed;
        for f in &r.out.failures {
            println!("oracle failure: {f}");
        }
    }
    // Every process with the same seed must reproduce the simulation
    // exactly. The flight recorder's sampler ticks are events of their
    // own, so a traced run matches on everything but the event count
    // (and hence the digest).
    let same_sim = |o: &Outcome| {
        o.sim_done_s.to_bits() == first.sim_done_s.to_bits()
            && o.latency_ms == first.latency_ms
            && (o.wire_bytes, o.frames) == (first.wire_bytes, first.frames)
    };
    for r in &runs {
        attempted += 1;
        if r.out.digest != first.digest || !same_sim(&r.out) {
            println!(
                "nondeterminism: digest {:016x} != {:016x}",
                r.out.digest, first.digest
            );
            failed += 1;
        }
    }
    if let Some(t) = &traced {
        attempted += 1;
        if !same_sim(&t.out) {
            println!("telemetry changed the simulated outputs");
            failed += 1;
        }
    }
    let sim = sim_metrics(first);
    if sim.is_none() {
        println!("no simulated latency samples to report");
    }
    let mut correct = failed == 0 && sim.is_some();
    let (sim_done, p50, tail, pct) = sim.unwrap_or((f64::NAN, f64::NAN, f64::NAN, f64::NAN));

    let wall_s = median_of(runs.iter().map(|r| r.out.wall_s).collect());
    let witnesses: Vec<String> = runs
        .iter()
        .chain(&traced)
        .map(|r| format!("{:.4}", r.witness))
        .collect();
    println!(
        "workload {} seed {}: {} timed run(s), each in its own process",
        args.workload.name(),
        args.seed,
        runs.len()
    );
    println!(
        "host witness (frame_checksum ns/B, per run): {}",
        witnesses.join(" ")
    );
    println!("simulated-output digest {:016x}", first.digest);
    if let Some(t) = &traced {
        println!(
            "traced run: {} events, {} more than untraced (flight-recorder sampler ticks)",
            t.out.events,
            t.out.events as i64 - first.events as i64
        );
    }
    println!(
        "{} latency: n={}, p50 {p50} ms, tail {tail} ms = p{pct:.3} (the sample with {} above it)",
        args.workload.unit(),
        first.latency_ms.len(),
        oracle::TAIL_BEYOND
    );

    let mut metrics = Vec::new();
    let mut metric =
        |name: &str, value: f64, unit: &str| metrics.push(layers::m(name, value, unit));
    match &traced {
        None => {
            metric("wall_s", wall_s, "s");
            metric(
                "setup_s",
                median_of(runs.iter().map(|r| r.setup_s).collect()),
                "s",
            );
            metric(
                "peak_rss_mb",
                median_of(runs.iter().map(|r| r.rss_mb).collect()),
                "MiB",
            );
            metric("sim_done_s", sim_done, "sim_s");
            metric("sim_p50_ms", p50, "sim_ms");
            metric("sim_tail_ms", tail, "sim_ms");
        }
        Some(t) => {
            let layer = |name: &str| {
                t.layers
                    .iter()
                    .find(|m| m.name == name)
                    .map_or(0.0, |m| m.value)
            };
            let events = first.events as f64;
            let bytes = first.wire_bytes as f64;
            let wall_ns = wall_s * 1e9;
            let mtu = workloads::fleet_config(args.workload, &workloads::Seeds::from(args.seed))
                .machine_cfg
                .mtu;
            let wire_ns_per_byte = (layer("aoe.wire.encode_ns") + layer("aoe.wire.decode_ns"))
                / layers::full_frame_bytes(mtu) as f64;
            let simkit_share = ratio(events * layer("simkit.event_floor_ns"), wall_ns);
            let wire_share = ratio(bytes * wire_ns_per_byte, wall_ns);
            let witness = median_of(runs.iter().chain(&traced).map(|r| r.witness).collect());
            metric("simkit.events", events, "count");
            metric("aoe.wire.bytes", bytes, "B");
            metric("aoe.wire.frames", first.frames as f64, "count");
            metric("host.ns_per_event", ratio(wall_ns, events), "ns");
            metric("host.ns_per_wire_byte", ratio(wall_ns, bytes), "ns/B");
            metric("simkit.est_share", simkit_share, "ratio");
            metric("aoe.wire.est_share", wire_share, "ratio");
            metric(
                "host.unattributed_share",
                1.0 - simkit_share - wire_share,
                "ratio",
            );
            metric("telemetry.overhead_ratio", t.out.wall_s / wall_s, "ratio");
            metric("telemetry.overhead_s", t.out.wall_s - wall_s, "s");
            metric("host.witness_ns_per_byte", witness, "ns/B");
            metric(
                "fail_ratio",
                ratio(failed as f64, attempted as f64),
                "ratio",
            );
            metrics.extend(t.layers.iter().cloned());
        }
    }
    // A value that is not a finite number is not JSON either; report it
    // as -1 and the run as incorrect.
    for m in metrics.iter_mut().filter(|m| !m.value.is_finite()) {
        println!("{} is not a number", m.name);
        m.value = -1.0;
        correct = false;
    }
    println!("{}", result_json(correct, attempted, failed, &metrics));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = args("--workload deploy_mixed_ahci --seed 42 --seconds 10 --trace 1").unwrap();
        assert_eq!(a.workload, Workload::DeployMixedAhci);
        assert_eq!(
            (a.seed, a.seconds, a.trace, a.child),
            (42, 10.0, true, None)
        );
        assert!(args("--workload nope --seed 1").is_err());
        assert!(args("--workload boot_p2p64 --seed x").is_err());
        assert!(args("--workload boot_p2p64 --seed 1 --trace 2").is_err());
        assert!(args("--seed 1").is_err());
    }

    #[test]
    fn report_round_trips_through_the_child_protocol() {
        let text = "witness 1.5\nsetup 0.002\nwall 3.25\nrss 100.5\nsim_done 20.5\n\
                    latency 1 2 3\nchecks 65 1\ndigest 00000000000000ff\n\
                    failure member 3 did not boot\nlayer aoe.wire.bytes 4096 B\n";
        let r = parse_report(text).unwrap();
        assert_eq!(r.out.latency_ms, vec![1.0, 2.0, 3.0]);
        assert_eq!((r.out.attempted, r.out.failed, r.out.digest), (65, 1, 255));
        assert_eq!(r.out.failures, vec!["member 3 did not boot".to_string()]);
        assert_eq!(r.layers, vec![layers::m("aoe.wire.bytes", 4096.0, "B")]);
        assert!(parse_report("bogus 1\n").is_err());
    }
}
