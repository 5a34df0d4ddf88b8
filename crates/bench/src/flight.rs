//! `reproduce --trace-out <dir>`: one flight-recorded deployment whose
//! observability state becomes on-disk artifacts.
//!
//! | file            | contents                                            |
//! |-----------------|-----------------------------------------------------|
//! | `trace.json`    | Chrome trace-event JSON — load in ui.perfetto.dev   |
//! | `timeline.json` | sampled sim-time series (bitmap fill, FIFO, ...)    |
//! | `report.json`   | per-phase timings + per-span-kind p50/p99 summaries |
//! | `report.txt`    | the same report, human-readable                     |
//! | `metrics.json`  | full counter/gauge/histogram snapshot               |
//!
//! Recording is split from rendering, and `reproduce` writes the
//! rendered files, so tests can assert on the recorder contents (phase
//! spans tile the run, timelines replay byte-identically) without
//! touching the filesystem.

use crate::faults::FAULT_SEED;
use crate::Scale;
use bmcast::config::{BmcastConfig, Moderation};
use bmcast::deploy::{FlightRecorderConfig, Runner};
use bmcast::machine::MachineSpec;
use bmcast::programs::FioProgram;
use guestsim::workload::fio::FioJob;
use hwsim::block::Lba;
use simkit::export::{chrome_trace_json, report_json, report_text, timeline_json};
use simkit::fault::FaultPlan;
use simkit::metrics::LogHistogram;
use simkit::{SampleRow, SimDuration, SimTime, Span};

/// Everything one flight-recorded deployment captured, detached from the
/// machine so exporters and assertions can consume it freely.
pub struct FlightRun {
    /// Finished spans, in completion order.
    pub spans: Vec<Span>,
    /// Per-span-kind duration histograms (µs), exact across ring
    /// eviction.
    pub kinds: Vec<(&'static str, LogHistogram)>,
    /// Sampled timeline rows.
    pub samples: Vec<SampleRow>,
    /// Rendered metrics snapshot (JSON).
    pub metrics_json: String,
    /// When the machine reached bare metal.
    pub bare_metal_at: SimTime,
    /// Trace events emitted / evicted from the ring.
    pub trace_emitted: u64,
    /// See [`FlightRun::trace_emitted`].
    pub trace_dropped: u64,
}

fn spec(scale: Scale) -> MachineSpec {
    match scale {
        Scale::Paper => MachineSpec::default(),
        Scale::Quick => MachineSpec {
            capacity_sectors: (1u64 << 30) / 512,
            image_sectors: (256u64 << 20) / 512,
            ..MachineSpec::default()
        },
    }
}

/// Runs one deployment with the full flight recorder attached.
///
/// `fault_preset` names a [`FaultPlan`] preset (seeded with
/// [`FAULT_SEED`], like the fault figures) to run under; `None` instead
/// adds a little fabric loss so the retransmission spans carry signal.
///
/// # Panics
///
/// Panics if the preset name is unknown or the deployment fails.
pub fn record(scale: Scale, rec: FlightRecorderConfig, fault_preset: Option<&str>) -> FlightRun {
    let spec = spec(scale);
    let cfg = match fault_preset {
        Some(name) => BmcastConfig {
            moderation: Moderation::full_speed(),
            faults: Some(FaultPlan::preset(name, FAULT_SEED).expect("known fault preset")),
            ..BmcastConfig::default()
        },
        None => BmcastConfig {
            moderation: Moderation::full_speed(),
            fabric_loss_rate: 0.002,
            ..BmcastConfig::default()
        },
    };
    let mut runner = Runner::bmcast_flight_recorded(&spec, cfg, rec);

    // Guest reads ahead of the background copy exercise the whole
    // per-I/O lifecycle: decode -> interpret -> redirect fetch -> DMA ->
    // dummy-read completion.
    let read_bytes = match scale {
        Scale::Paper => 64u64 << 20,
        Scale::Quick => 8 << 20,
    };
    runner.start_program(Box::new(FioProgram::new(FioJob {
        write: false,
        total_bytes: read_bytes,
        block_bytes: 1 << 20,
        start: Lba(1 << 16),
    })));
    runner.run_to_finish(runner.now() + SimDuration::from_secs(600));
    let bare_metal_at = runner
        .run_to_bare_metal(SimTime::from_secs(4 * 3600))
        .expect("flight-recorded deployment completes");
    runner.record_final_sample();

    let metrics_json = runner
        .metrics_snapshot()
        .expect("flight recorder enables metrics")
        .to_json();
    FlightRun {
        spans: runner.spans().finished(),
        kinds: runner.spans().kind_histograms(),
        samples: runner.sampler().rows(),
        metrics_json,
        bare_metal_at,
        trace_emitted: runner.tracer().emitted(),
        trace_dropped: runner.tracer().dropped(),
    }
}

impl FlightRun {
    /// The five artifact files as `(name, body)` pairs.
    pub fn artifacts(&self) -> Vec<(&'static str, String)> {
        vec![
            ("trace.json", chrome_trace_json(&self.spans, &self.samples)),
            ("timeline.json", timeline_json(&self.samples)),
            ("report.json", report_json(&self.spans, &self.kinds)),
            ("report.txt", report_text(&self.spans, &self.kinds)),
            ("metrics.json", self.metrics_json.clone()),
        ]
    }
}
