//! Fleet observability artifacts (`reproduce ... --fleet-obs DIR`).
//!
//! One fully-instrumented fleet run — telemetry registries, flight
//! recorder, and the SLO watchdogs all on — reduced to a deterministic
//! artifact directory:
//!
//! - `fleet_snapshot.json` — the merged fleet metrics snapshot
//!   (fabric series plain, members under `machine.{i}.`, aggregates
//!   under `fleet.`).
//! - `fleet_alerts.json` / `fleet_alerts.txt` — the SLO alert edge
//!   timeline.
//! - `straggler_report.json` / `straggler_report.txt` — the slowest
//!   decile's boot decomposition, diffed against the fleet-median
//!   member.
//! - `fleet_trace.json` — the Perfetto trace (one process per
//!   machine plus the fleet track).
//! - `obs_digest.json` — FNV-1a digests of every artifact above.
//!
//! Every byte is a function of the fleet configuration alone: the same
//! config produces identical directories across repeated runs
//! (`obs_artifacts_are_rerun_identical` below holds the line, and the
//! CI `obs-smoke` job diffs whole directories).

use crate::ext_scaleout::{fnv1a64, fleet_geometry, topology_fleet_cfg, Topology};
use bmcast::deploy::FlightRecorderConfig;
use bmcast::fleet::{Fleet, FleetConfig, StragglerReport, StragglerRow};
use bmcast::programs::BootProgram;
use guestsim::os::BootProfile;
use simkit::export::{alerts_json, alerts_text};
use simkit::slo::{Alert, SloConfig};
use simkit::SimTime;
use std::io;
use std::path::Path;

/// Fleet size of the observability run: the scale-out figure's n=64
/// peer-to-peer point (the fleet the straggler-attribution section of
/// EXPERIMENTS.md reports on). Same size at both scales — the obs run
/// is one fleet, not a grid.
pub const OBS_FLEET_N: u32 = 64;

/// The artifact file names, in the order `obs_digest.json` lists them.
pub const OBS_ARTIFACTS: [&str; 6] = [
    "fleet_snapshot.json",
    "fleet_alerts.json",
    "fleet_alerts.txt",
    "straggler_report.json",
    "straggler_report.txt",
    "fleet_trace.json",
];

/// The rendered artifacts of one observability run.
#[derive(Debug, Clone)]
pub struct FleetObs {
    /// `fleet_snapshot.json`.
    pub snapshot_json: String,
    /// The raw alert edges (for in-process assertions).
    pub alerts: Vec<Alert>,
    /// `straggler_report.*` source data.
    pub report: StragglerReport,
    /// `fleet_trace.json`.
    pub trace_json: String,
    /// Members that finished booting.
    pub booted: usize,
}

/// The observability fleet configuration: `topology` at
/// [`OBS_FLEET_N`] machines with the scale-out figure's geometry and
/// stagger.
pub fn obs_fleet_cfg(topology: Topology) -> FleetConfig {
    let (spec, _) = fleet_geometry();
    topology_fleet_cfg(topology, OBS_FLEET_N, &spec)
}

/// Boots `cfg` with every observability layer armed and collects the
/// artifacts. Deterministic in `cfg`.
pub fn collect_fleet_obs(cfg: FleetConfig, profile: &BootProfile) -> FleetObs {
    let mut fleet = Fleet::new(cfg);
    fleet.enable_telemetry();
    fleet.enable_flight_recorder(FlightRecorderConfig::default());
    fleet.enable_slo(SloConfig::default());
    let p = profile.clone();
    fleet.start(move |_| Box::new(BootProgram::new(p.clone())));
    fleet
        .run_to_all_booted(SimTime::from_secs(36_000))
        .expect("obs fleet boots within limit");
    let report = fleet
        .straggler_attribution()
        .expect("flight recorder is on");
    FleetObs {
        snapshot_json: fleet
            .fleet_snapshot()
            .expect("telemetry is on")
            .to_json(),
        alerts: fleet.alerts().to_vec(),
        booted: report.booted,
        report,
        trace_json: fleet.chrome_trace(),
    }
}

impl FleetObs {
    /// Renders the six artifact files as `(name, bytes)` pairs, digest
    /// file last.
    pub fn artifacts(&self) -> Vec<(&'static str, String)> {
        let mut files = vec![
            (OBS_ARTIFACTS[0], self.snapshot_json.clone()),
            (OBS_ARTIFACTS[1], alerts_json(&self.alerts)),
            (OBS_ARTIFACTS[2], alerts_text(&self.alerts)),
            (OBS_ARTIFACTS[3], straggler_json(&self.report)),
            (OBS_ARTIFACTS[4], straggler_text(&self.report)),
            (OBS_ARTIFACTS[5], self.trace_json.clone()),
        ];
        let digest = digest_json(&files);
        files.push(("obs_digest.json", digest));
        files
    }

    /// Writes the artifact directory (created if missing).
    pub fn write(&self, dir: &Path) -> io::Result<()> {
        std::fs::create_dir_all(dir)?;
        for (name, body) in self.artifacts() {
            std::fs::write(dir.join(name), body)?;
        }
        Ok(())
    }

    /// Alerts that raised (excludes clear edges).
    pub fn raises(&self) -> usize {
        self.alerts.iter().filter(|a| a.raised).count()
    }
}

/// The `obs_digest.json` body: FNV-1a64 of each artifact, in
/// [`OBS_ARTIFACTS`] order. Deliberately excludes anything
/// host-dependent (threads, wall clock), so the digest file itself is
/// part of the byte-identity contract.
pub fn digest_json(files: &[(&'static str, String)]) -> String {
    let mut out = String::from("{\n  \"artifacts\": {\n");
    for (i, (name, body)) in files.iter().enumerate() {
        out.push_str(&format!(
            "    \"{}\": \"{:016x}\"{}\n",
            name,
            fnv1a64(body.as_bytes()),
            if i + 1 < files.len() { "," } else { "" }
        ));
    }
    out.push_str("  }\n}\n");
    out
}

/// One attribution row's JSON object (fixed precision — byte-stable).
fn row_json(r: &StragglerRow) -> String {
    format!(
        "{{\"machine\": {}, \"boot_s\": {:.6}, \"init_s\": {:.6}, \"deploy_s\": {:.6}, \
         \"devirt_s\": {:.6}, \"rtt_total_s\": {:.6}, \"rtt_mean_us\": {:.3}, \
         \"queue_excess_s\": {:.6}, \"busy_backoff_s\": {:.6}, \"reads\": {}, \
         \"retransmits\": {}, \"busy_hints\": {}, \"budget_holds\": {}, \
         \"peer_reads\": {}, \"origin_reads\": {}}}",
        r.machine,
        r.boot_s,
        r.init_s,
        r.deploy_s,
        r.devirt_s,
        r.rtt_total_s,
        r.rtt_mean_us,
        r.queue_excess_s,
        r.busy_backoff_s,
        r.reads,
        r.retransmits,
        r.busy_hints,
        r.budget_holds,
        r.peer_reads,
        r.origin_reads,
    )
}

/// The `straggler_report.json` body.
pub fn straggler_json(report: &StragglerReport) -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"booted\": {},\n", report.booted));
    out.push_str(&format!("  \"median\": {},\n", row_json(&report.median)));
    out.push_str("  \"stragglers\": [\n");
    for (i, r) in report.stragglers.iter().enumerate() {
        out.push_str(&format!(
            "    {}{}\n",
            row_json(r),
            if i + 1 < report.stragglers.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// The `straggler_report.txt` body: every straggler decomposed, each
/// value diffed against the fleet-median member.
pub fn straggler_text(report: &StragglerReport) -> String {
    let m = &report.median;
    let mut out = String::new();
    out.push_str("straggler attribution (slowest decile vs fleet median)\n");
    out.push_str("======================================================\n");
    out.push_str(&format!(
        "booted {}; decile {}; median = machine {} ({:.3}s boot)\n\n",
        report.booted,
        report.stragglers.len(),
        m.machine,
        m.boot_s
    ));
    let line = |label: &str, v: f64, base: f64, unit: &str| {
        format!("  {label:<18} {v:>10.3}{unit}  ({:+.3}{unit} vs median)\n", v - base)
    };
    for r in &report.stragglers {
        out.push_str(&format!(
            "machine {:<4} boot {:.3}s  ({:+.3}s vs median)\n",
            r.machine,
            r.boot_s,
            r.boot_s - m.boot_s
        ));
        out.push_str(&line("initialization", r.init_s, m.init_s, "s"));
        out.push_str(&line("deployment", r.deploy_s, m.deploy_s, "s"));
        out.push_str(&line("devirtualization", r.devirt_s, m.devirt_s, "s"));
        out.push_str(&line("aoe rtt total", r.rtt_total_s, m.rtt_total_s, "s"));
        out.push_str(&line(
            "queueing excess",
            r.queue_excess_s,
            m.queue_excess_s,
            "s",
        ));
        out.push_str(&line(
            "busy backoff",
            r.busy_backoff_s,
            m.busy_backoff_s,
            "s",
        ));
        out.push_str(&line(
            "rtt mean",
            r.rtt_mean_us,
            m.rtt_mean_us,
            "us",
        ));
        out.push_str(&format!(
            "  {:<18} {:>10}   (median {}; retransmits {} vs {})\n",
            "reads",
            r.reads,
            m.reads,
            r.retransmits,
            m.retransmits
        ));
        let mix = |row: &StragglerRow| {
            if row.reads == 0 {
                0.0
            } else {
                100.0 * row.peer_reads as f64 / row.reads as f64
            }
        };
        out.push_str(&format!(
            "  {:<18} {:>9.1}%   (median {:.1}%; {} peer / {} origin)\n\n",
            "peer read share",
            mix(r),
            mix(m),
            r.peer_reads,
            r.origin_reads
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkit::fault::FaultPlan;
    use simkit::slo::SloRule;

    fn tiny_obs_cfg() -> FleetConfig {
        use bmcast::machine::MachineSpec;
        let mut cfg = FleetConfig {
            n: 6,
            spec: MachineSpec {
                capacity_sectors: (1u64 << 25) / 512,
                image_sectors: (1u64 << 24) / 512,
                ..MachineSpec::default()
            },
            ..FleetConfig::default()
        };
        cfg.faults = FaultPlan::preset("chaos", 7);
        cfg
    }

    #[test]
    fn obs_artifacts_are_rerun_identical() {
        let profile = BootProfile::tiny(7);
        let first = collect_fleet_obs(tiny_obs_cfg(), &profile);
        let rerun = collect_fleet_obs(tiny_obs_cfg(), &profile);
        for ((name, a), (_, b)) in first.artifacts().into_iter().zip(rerun.artifacts()) {
            assert_eq!(a, b, "{name} diverged between same-seed chaos runs");
        }
    }

    #[test]
    fn straggler_renderers_are_fixed_precision() {
        let row = |machine: usize, boot_s: f64| StragglerRow {
            machine,
            boot_s,
            init_s: 0.0,
            deploy_s: 4.5,
            devirt_s: 0.0001,
            rtt_total_s: 2.25,
            rtt_mean_us: 17578.125,
            reads: 128,
            retransmits: 3,
            busy_hints: 2,
            budget_holds: 1,
            busy_backoff_s: 0.02,
            queue_excess_s: 0.75,
            peer_reads: 96,
            origin_reads: 32,
        };
        let report = StragglerReport {
            stragglers: vec![row(5, 9.5)],
            median: row(2, 6.25),
            booted: 12,
        };
        let json = straggler_json(&report);
        for key in [
            "\"booted\": 12",
            "\"machine\": 5",
            "\"boot_s\": 9.500000",
            "\"rtt_mean_us\": 17578.125",
            "\"peer_reads\": 96",
        ] {
            assert!(json.contains(key), "missing {key} in:\n{json}");
        }
        let text = straggler_text(&report);
        assert!(text.contains("machine 5    boot 9.500s  (+3.250s vs median)"));
        assert!(text.contains("peer read share"));
        // Rendering is a pure function of the report.
        assert_eq!(json, straggler_json(&report));
        assert_eq!(text, straggler_text(&report));
    }

    #[test]
    fn quiet_run_digest_covers_every_artifact() {
        let profile = BootProfile::tiny(7);
        let mut cfg = tiny_obs_cfg();
        cfg.faults = None;
        cfg.n = 2;
        let obs = collect_fleet_obs(cfg, &profile);
        assert_eq!(obs.booted, 2);
        assert_eq!(obs.raises(), 0, "quiet boot must not raise: {:?}", obs.alerts);
        assert!(!obs
            .alerts
            .iter()
            .any(|a| a.rule == SloRule::RetransmitStorm));
        let files = obs.artifacts();
        assert_eq!(files.len(), OBS_ARTIFACTS.len() + 1);
        let digest = &files.last().unwrap().1;
        for name in OBS_ARTIFACTS {
            assert!(digest.contains(name), "digest missing {name}");
        }
    }
}
