//! Elasticity lifecycle figures (`reproduce --elasticity`): the paper's
//! agility claims run *backwards* — a bare-metal instance is
//! re-virtualized, its dirty blocks stream back to an archive volume,
//! the hardware is reclaimed, and the next tenant image deploys — at
//! fleet scale, as rolling upgrades and scale-down/scale-up waves on
//! the [`Fleet`] simulator.
//!
//! Four measured sections, all recorded in `BENCH_elasticity.json`:
//!
//! - **Rolling upgrades**: every machine in an `n`-fleet cycles through
//!   snapshot-back → reclaim → redeploy under bounded concurrency
//!   (`batch` machines out of service at once). Each machine's archive
//!   volume must end byte-identical to its pre-wave disk (sampled), and
//!   its post-wave disk must hold the new tenant image.
//! - **Scale waves**: a scale-down parks members with zeroed disks
//!   (their tenants' final state living on in the archives), a
//!   scale-up redeploys them with a new image.
//! - **Survivability**: a small upgrade wave per fault class — the
//!   snapshot-back path must ride out frame drops, corruption, and
//!   server stalls on its existing retransmit/backoff budget, with
//!   zero terminal [`ReclaimError`](bmcast::snapback::ReclaimError)s.
//! - **Chaos determinism**: two independent upgrade waves under the
//!   `chaos` [`FaultPlan`] from the same seed must agree byte-for-byte
//!   on the published point JSON, the event count, and the full
//!   flight-recorder trace.
//!
//! Hand-rolled JSON with fixed-precision floats (the workspace carries
//! no serde) and no wall-clock fields, so same-seed runs produce
//! byte-identical artifacts.

use crate::ext_scaleout::fnv1a64;
use crate::{Check, Figure, Row, Scale};
use bmcast::deploy::FlightRecorderConfig;
use bmcast::fleet::{Fleet, FleetConfig, LifecycleStage};
use bmcast::machine::{GuestProgram, MachineSpec};
use bmcast::programs::{BootProgram, StreamProgram};
use guestsim::os::BootProfile;
use hwsim::block::{BlockRange, BlockStore, Lba, SectorData};
use simkit::fault::{FaultCounters, FaultPlan};
use simkit::{SimDuration, SimTime};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// The *next* tenant image deployed by every upgrade / scale-up wave.
pub const UPGRADE_IMAGE_SEED: u64 = 0xE1A5_11FE;

/// Seed of every fault plan in the survivability and chaos sections.
pub const ELASTICITY_FAULT_SEED: u64 = 0xE1A5_FA17;

/// Rolling power-on stagger between members' first deployments.
pub const ELASTICITY_STAGGER: SimDuration = SimDuration::from_millis(50);

/// Fault classes the snapshot-back path must survive (plus `chaos`,
/// the mix). `crash` and the disk classes hit the origin's *read* side
/// and are covered by the deployment fault matrix; these are the ones
/// that bite acknowledged writes.
pub const SURVIVAL_PLANS: [&str; 4] = ["drop", "corrupt", "stall", "chaos"];

/// Fleet sizes of the rolling-upgrade figure.
pub fn upgrade_grid(scale: Scale) -> Vec<u32> {
    match scale {
        Scale::Paper => vec![2, 8, 16, 64],
        Scale::Quick => vec![2, 8],
    }
}

/// Out-of-service bound for an `n`-fleet's wave: an eighth of the
/// fleet, at least one — the admission ramp of the reverse direction.
pub fn batch_for(n: u32) -> u32 {
    (n / 8).max(1)
}

/// One member geometry for both scales (same rationale as the
/// scale-out figure: quick points stay bit-identical to the paper
/// run's prefix). Capacity is twice the image so the persisted bitmap
/// lives outside the image range and never skews content checks.
fn elasticity_cfg(n: u32) -> FleetConfig {
    FleetConfig {
        n: n as usize,
        spec: MachineSpec {
            capacity_sectors: (1u64 << 25) / 512,
            image_sectors: (1u64 << 24) / 512,
            ..MachineSpec::default()
        },
        start_stagger: ELASTICITY_STAGGER,
        ..FleetConfig::default()
    }
}

/// The first tenant: a sequential write stream over a per-machine
/// region for ~1 s of its own lifetime — real dirty blocks the
/// snapshot-back must carry into the archive volume.
fn tenant_program(i: usize) -> Box<dyn GuestProgram> {
    let region = BlockRange::new(Lba(2048 + (i as u64 % 8) * 2048), 1024);
    let until = SimTime::ZERO + SimDuration::from_millis(1_000 + 50 * (i as u64 + 1));
    Box::new(StreamProgram::sequential(
        region,
        true,
        256,
        until,
        0x7E0A + i as u64,
    ))
}

/// Samples machine `i`'s filled sectors (co-prime stride across the
/// image): the ground truth its archive volume must reproduce.
fn filled_samples(fleet: &Fleet, i: usize, image_sectors: u64) -> Vec<(u64, SectorData)> {
    let m = fleet.machine(i);
    let Some(vmm) = m.vmm.as_ref() else {
        return Vec::new();
    };
    let mut out = Vec::new();
    let mut lba = 0u64;
    while lba < image_sectors {
        if vmm.bitmap.is_filled(Lba(lba)) {
            out.push((lba, m.hw.disk.store().read(Lba(lba))));
        }
        lba += 61;
    }
    out
}

/// Whether machine `i`'s archive volume reproduces every pre-wave
/// sample byte-for-byte.
fn archive_matches(fleet: &Fleet, i: usize, samples: &[(u64, SectorData)]) -> bool {
    let Some(vol) = fleet.archive_volume(i) else {
        return false;
    };
    !samples.is_empty()
        && samples
            .iter()
            .all(|&(lba, data)| vol.store().read(Lba(lba)) == data)
}

/// Whether machine `i`'s disk holds the `seed` image on every sampled
/// copied-and-clean sector (redeployed machines finish booting with
/// partially-filled bitmaps, so the check samples what exists).
fn holds_image(fleet: &Fleet, i: usize, seed: u64, image_sectors: u64) -> bool {
    let m = fleet.machine(i);
    let Some(vmm) = m.vmm.as_ref() else {
        return false;
    };
    let mut checked = 0u32;
    let mut lba = 0u64;
    while lba < image_sectors {
        if vmm.bitmap.is_filled(Lba(lba)) && !vmm.dirty.is_dirty(Lba(lba)) {
            if m.hw.disk.store().read(Lba(lba)) != BlockStore::image_content(seed, Lba(lba)) {
                return false;
            }
            checked += 1;
        }
        lba += 61;
    }
    checked >= 10
}

fn pct(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() as f64 * q).ceil() as usize)
        .max(1)
        .min(sorted.len())
        - 1;
    sorted[idx]
}

/// One measured rolling-upgrade point. Every field is deterministic in
/// the fleet seed — this struct *is* the published JSON and the digest
/// witness.
#[derive(Debug, Clone)]
pub struct UpgradePoint {
    /// Fleet size.
    pub n: u32,
    /// Out-of-service bound during the wave.
    pub batch: u32,
    /// Whether the wave completed (false = a member stalled or hit a
    /// terminal `ReclaimError`; the fail-fast path, not a wedge).
    pub survived: bool,
    /// Median first-tenant startup, seconds.
    pub boot_p50_s: f64,
    /// Median per-machine upgrade latency (wave start → that machine
    /// redeployed and booted), seconds. Includes admission queueing —
    /// the rolling-upgrade completion profile, not the machine cost.
    pub upgrade_p50_s: f64,
    /// p99 per-machine upgrade latency, seconds.
    pub upgrade_p99_s: f64,
    /// Whole-wave makespan, seconds.
    pub makespan_s: f64,
    /// Queue-full drops across every server node ("zero drops" claim).
    pub queue_drops: u64,
    /// Machines whose archive volume reproduced every pre-wave disk
    /// sample.
    pub archives_verified: u32,
    /// Machines holding the new tenant image after the wave.
    pub images_verified: u32,
    /// Machines with a terminal snapshot-back failure.
    pub reclaim_errors: u32,
}

/// An [`UpgradePoint`] plus its determinism witnesses.
#[derive(Debug)]
pub struct MeasuredUpgrade {
    /// The figure point.
    pub point: UpgradePoint,
    /// Events executed across the fleet and every member simulation.
    pub events: u64,
    /// Fault-injector counters (default when the run was fault-free).
    pub counters: FaultCounters,
    /// AoE retransmissions summed over every member client.
    pub retransmits: u64,
    /// Chrome trace of the run, when flight-recorded.
    pub trace: Option<String>,
}

/// Boots an `n`-fleet of write-stream tenants, rolls the
/// [`UPGRADE_IMAGE_SEED`] image across it, and verifies both sides of
/// the lifecycle: archives against pre-wave disk samples, post-wave
/// disks against the new image.
pub fn measure_upgrade(
    n: u32,
    batch: u32,
    faults: Option<FaultPlan>,
    record: bool,
) -> MeasuredUpgrade {
    let mut cfg = elasticity_cfg(n);
    cfg.faults = faults;
    let image_sectors = cfg.spec.image_sectors;
    let mut fleet = Fleet::new(cfg);
    if record {
        fleet.enable_flight_recorder(FlightRecorderConfig::default());
    }
    fleet.start(tenant_program);
    fleet
        .run_to_all_booted(SimTime::from_secs(36_000))
        .expect("first tenants boot within limit");
    let mut boot_s: Vec<f64> = fleet
        .startup_durations()
        .iter()
        .map(|d| d.expect("all booted").as_secs_f64())
        .collect();
    boot_s.sort_by(|a, b| a.partial_cmp(b).unwrap());

    let samples: Vec<Vec<(u64, SectorData)>> = (0..n as usize)
        .map(|i| filled_samples(&fleet, i, image_sectors))
        .collect();

    let wave_start = fleet.now();
    let wave = fleet.run_rolling_upgrade(
        UPGRADE_IMAGE_SEED,
        batch as usize,
        |_| Box::new(BootProgram::new(BootProfile::tiny(7))),
        SimTime::from_secs(72_000),
    );
    let survived = wave.is_ok();
    let mut upgrade_s: Vec<f64> = wave
        .map(|done| {
            done.iter()
                .map(|t| t.duration_since(wave_start).as_secs_f64())
                .collect()
        })
        .unwrap_or_default();
    upgrade_s.sort_by(|a, b| a.partial_cmp(b).unwrap());

    let mut archives_verified = 0u32;
    let mut images_verified = 0u32;
    let mut reclaim_errors = 0u32;
    for (i, sample) in samples.iter().enumerate().take(n as usize) {
        if survived && archive_matches(&fleet, i, sample) {
            archives_verified += 1;
        }
        if survived && holds_image(&fleet, i, UPGRADE_IMAGE_SEED, image_sectors) {
            images_verified += 1;
        }
        if fleet.machine(i).reclaim_error().is_some() {
            reclaim_errors += 1;
        }
    }
    let retransmits = (0..n as usize)
        .map(|i| {
            fleet
                .machine(i)
                .vmm
                .as_ref()
                .map(|v| v.client.retransmits())
                .unwrap_or(0)
        })
        .sum();

    MeasuredUpgrade {
        point: UpgradePoint {
            n,
            batch,
            survived,
            boot_p50_s: pct(&boot_s, 0.5),
            upgrade_p50_s: pct(&upgrade_s, 0.5),
            upgrade_p99_s: pct(&upgrade_s, 0.99),
            makespan_s: upgrade_s.last().copied().unwrap_or(0.0),
            queue_drops: fleet.queue_drops_total(),
            archives_verified,
            images_verified,
            reclaim_errors,
        },
        events: fleet.events_executed(),
        counters: fleet.fault_counters().unwrap_or_default(),
        retransmits,
        trace: if record {
            Some(fleet.chrome_trace())
        } else {
            None
        },
    }
}

/// One measured scale-down + scale-up cycle.
#[derive(Debug, Clone)]
pub struct WaveRun {
    /// Fleet size.
    pub n: u32,
    /// Members parked by the scale-down.
    pub parked: u32,
    /// Scale-down makespan (wave start → last member parked), seconds.
    pub scale_down_s: f64,
    /// Median scale-up redeploy latency, seconds.
    pub scale_up_p50_s: f64,
    /// Queue-full drops across the whole cycle.
    pub queue_drops: u64,
    /// Parked members whose disks read fully zeroed (reclaim really
    /// wiped the previous tenant).
    pub parked_emptied: u32,
    /// Scaled-up members holding the new image afterwards.
    pub images_verified: u32,
    /// Events executed across the whole cycle.
    pub events: u64,
}

/// Boots a 4-fleet, parks members 2 and 3 (scale-down), verifies their
/// disks are wiped, then scales back up onto the
/// [`UPGRADE_IMAGE_SEED`] image.
pub fn measure_scale_wave() -> WaveRun {
    let cfg = elasticity_cfg(4);
    let image_sectors = cfg.spec.image_sectors;
    let mut fleet = Fleet::new(cfg);
    fleet.start(tenant_program);
    fleet
        .run_to_all_booted(SimTime::from_secs(36_000))
        .expect("tenants boot within limit");

    let down_start = fleet.now();
    fleet
        .run_scale_down(&[2, 3], 1, SimTime::from_secs(72_000))
        .expect("scale-down completes");
    let scale_down_s = fleet.now().duration_since(down_start).as_secs_f64();
    let mut parked_emptied = 0u32;
    for &i in &[2usize, 3] {
        let mut zeroed = fleet.lifecycle_stage(i) == LifecycleStage::Parked;
        let mut lba = 0u64;
        while zeroed && lba < image_sectors {
            zeroed = fleet.machine(i).hw.disk.store().read(Lba(lba)) == SectorData::ZERO;
            lba += 61;
        }
        if zeroed {
            parked_emptied += 1;
        }
    }

    let up_start = fleet.now();
    let boots = fleet
        .run_scale_up(
            &[2, 3],
            UPGRADE_IMAGE_SEED,
            |_| Box::new(BootProgram::new(BootProfile::tiny(7))),
            SimTime::from_secs(72_000),
        )
        .expect("scale-up completes");
    let mut up_s: Vec<f64> = boots
        .iter()
        .map(|t| t.duration_since(up_start).as_secs_f64())
        .collect();
    up_s.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let images_verified = [2usize, 3]
        .iter()
        .filter(|&&i| holds_image(&fleet, i, UPGRADE_IMAGE_SEED, image_sectors))
        .count() as u32;

    WaveRun {
        n: 4,
        parked: 2,
        scale_down_s,
        scale_up_p50_s: pct(&up_s, 0.5),
        queue_drops: fleet.queue_drops_total(),
        parked_emptied,
        images_verified,
        events: fleet.events_executed(),
    }
}

/// One fault class's survivability row.
#[derive(Debug, Clone)]
pub struct SurvivalRow {
    /// Fault plan preset name.
    pub plan: &'static str,
    /// Whether the upgrade wave completed under the plan.
    pub survived: bool,
    /// Injector events of the named class (a plan that never fires
    /// would make the row vacuous).
    pub class_fired: u64,
    /// AoE retransmissions spent riding it out.
    pub retransmits: u64,
    /// Terminal snapshot-back failures (must be 0: the retry budget
    /// absorbs every preset's intensity).
    pub reclaim_errors: u32,
    /// Queue-full drops during the wave.
    pub queue_drops: u64,
}

/// The injector counter witnessing that `plan`'s fault class fired.
fn class_fired(plan: &str, c: &FaultCounters) -> u64 {
    match plan {
        "drop" => c.link_dropped,
        "corrupt" => c.link_corrupted,
        "stall" => c.server_dropped,
        "chaos" => {
            c.link_dropped
                + c.link_duplicated
                + c.link_reordered
                + c.link_corrupted
                + c.server_dropped
        }
        _ => 0,
    }
}

/// The chaos determinism lock: digests of two independent same-seed
/// chaos waves.
#[derive(Debug, Clone)]
pub struct ChaosLock {
    /// Digest of the first run's witness.
    pub digest_a: String,
    /// Digest of the second run's witness.
    pub digest_b: String,
    /// Whether the witnesses (point JSON + event count) matched
    /// byte-for-byte.
    pub identical: bool,
    /// Whether the flight-recorder traces matched byte-for-byte.
    pub trace_identical: bool,
}

/// The determinism witness of one run: published point JSON, event
/// count, and the trace digest.
pub fn upgrade_witness(m: &MeasuredUpgrade) -> String {
    format!(
        "{}|events={}|trace_fnv={:016x}",
        upgrade_point_json(&m.point),
        m.events,
        fnv1a64(m.trace.as_deref().unwrap_or("").as_bytes()),
    )
}

/// FNV-1a digest of [`upgrade_witness`], as recorded in the artifact.
pub fn upgrade_digest(m: &MeasuredUpgrade) -> String {
    format!("{:016x}", fnv1a64(upgrade_witness(m).as_bytes()))
}

/// Everything `BENCH_elasticity.json` records.
#[derive(Debug)]
pub struct ElasticityBench {
    /// The rolling-upgrade figure points, grid order.
    pub points: Vec<MeasuredUpgrade>,
    /// The scale-down/scale-up cycle.
    pub wave: WaveRun,
    /// Per-fault-class survivability rows, [`SURVIVAL_PLANS`] order.
    pub survivability: Vec<SurvivalRow>,
    /// The chaos determinism lock.
    pub chaos: ChaosLock,
    /// Flight-recorder trace of the first chaos run (exported via
    /// `--trace-out`).
    pub chaos_trace: String,
}

enum Task {
    Point { n: u32, batch: u32 },
    Chaos,
    Survive(&'static str),
    Wave,
}

enum Out {
    Run(MeasuredUpgrade),
    Wave(WaveRun),
}

fn run_task(task: &Task) -> Out {
    match *task {
        Task::Point { n, batch } => Out::Run(measure_upgrade(n, batch, None, false)),
        Task::Chaos => Out::Run(measure_upgrade(
            2,
            1,
            FaultPlan::preset("chaos", ELASTICITY_FAULT_SEED),
            true,
        )),
        Task::Survive(plan) => Out::Run(measure_upgrade(
            2,
            1,
            FaultPlan::preset(plan, ELASTICITY_FAULT_SEED),
            false,
        )),
        Task::Wave => Out::Wave(measure_scale_wave()),
    }
}

/// Runs every elasticity measurement on at most `jobs` worker threads
/// (each task owns its whole simulated world) and reduces them to the
/// figure plus the `BENCH_elasticity.json` record.
pub fn run_elasticity(scale: Scale, jobs: usize) -> (Figure, ElasticityBench) {
    let grid = upgrade_grid(scale);

    let mut tasks: Vec<Task> = Vec::new();
    for &n in &grid {
        tasks.push(Task::Point {
            n,
            batch: batch_for(n),
        });
    }
    tasks.push(Task::Chaos);
    tasks.push(Task::Chaos);
    for plan in SURVIVAL_PLANS {
        tasks.push(Task::Survive(plan));
    }
    tasks.push(Task::Wave);

    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<Out>>> = tasks.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..jobs.min(tasks.len()).max(1) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(task) = tasks.get(i) else { break };
                *slots[i].lock().unwrap() = Some(run_task(task));
            });
        }
    });
    let mut outs = slots
        .into_iter()
        .map(|s| s.into_inner().unwrap().expect("task slot filled"))
        .collect::<Vec<_>>()
        .into_iter();
    let mut take_run = || match outs.next().expect("outs align with tasks") {
        Out::Run(m) => m,
        Out::Wave(_) => unreachable!("task order: runs before the wave"),
    };

    let points: Vec<MeasuredUpgrade> = grid.iter().map(|_| take_run()).collect();
    let chaos_a = take_run();
    let chaos_b = take_run();
    let chaos = ChaosLock {
        identical: upgrade_witness(&chaos_a) == upgrade_witness(&chaos_b),
        trace_identical: chaos_a.trace == chaos_b.trace,
        digest_a: upgrade_digest(&chaos_a),
        digest_b: upgrade_digest(&chaos_b),
    };
    let survivability: Vec<SurvivalRow> = SURVIVAL_PLANS
        .iter()
        .map(|&plan| {
            let m = take_run();
            SurvivalRow {
                plan,
                survived: m.point.survived,
                class_fired: class_fired(plan, &m.counters),
                retransmits: m.retransmits,
                reclaim_errors: m.point.reclaim_errors,
                queue_drops: m.point.queue_drops,
            }
        })
        .collect();
    let wave = match outs.next().expect("wave slot") {
        Out::Wave(w) => w,
        Out::Run(_) => unreachable!("task order: the wave is last"),
    };

    let mut rows: Vec<Row> = points
        .iter()
        .map(|m| {
            let p = &m.point;
            Row::new(
                format!("upgrade {:>3} machines", p.n),
                vec![
                    ("batch".into(), p.batch as f64),
                    ("upgrade p50 s".into(), p.upgrade_p50_s),
                    ("upgrade p99 s".into(), p.upgrade_p99_s),
                    ("makespan s".into(), p.makespan_s),
                    ("q drops".into(), p.queue_drops as f64),
                    ("archived ok".into(), p.archives_verified as f64),
                    ("image ok".into(), p.images_verified as f64),
                ],
            )
        })
        .collect();
    rows.push(Row::new(
        format!("scale wave {}/{} parked", wave.parked, wave.n),
        vec![
            ("down s".into(), wave.scale_down_s),
            ("up p50 s".into(), wave.scale_up_p50_s),
            ("q drops".into(), wave.queue_drops as f64),
            ("archived ok".into(), wave.parked_emptied as f64),
            ("image ok".into(), wave.images_verified as f64),
        ],
    ));
    for s in &survivability {
        rows.push(Row::new(
            format!("faults {}", s.plan),
            vec![
                ("survived".into(), s.survived as u32 as f64),
                ("class fired".into(), s.class_fired as f64),
                ("retransmits".into(), s.retransmits as f64),
                ("reclaim err".into(), s.reclaim_errors as f64),
            ],
        ));
    }

    let bool_check = |metric: &str, holds: bool| Check::new(metric, 1.0, holds as u32 as f64, "");
    let largest = points.last().expect("non-empty grid");
    let all_round_trip = points.iter().all(|m| {
        m.point.survived
            && m.point.archives_verified == m.point.n
            && m.point.images_verified == m.point.n
    });
    let reclaim_errs: u32 = points.iter().map(|m| m.point.reclaim_errors).sum();
    let survives = survivability
        .iter()
        .all(|s| s.survived && s.class_fired > 0 && s.reclaim_errors == 0);
    let checks = vec![
        Check::new(
            format!("upgrade queue drops at n={}", largest.point.n),
            0.0,
            largest.point.queue_drops as f64,
            "",
        ),
        bool_check(
            "every archive matches the departing tenant disk (1=yes)",
            all_round_trip,
        ),
        Check::new(
            "reclaim errors across fault-free waves",
            0.0,
            reclaim_errs as f64,
            "",
        ),
        bool_check(
            "chaos double-run byte-identical (1=yes)",
            chaos.identical && chaos.trace_identical,
        ),
        bool_check(
            "snapshot-back survives drop/corrupt/stall/chaos (1=yes)",
            survives,
        ),
        bool_check(
            "scale-down parks empty, scale-up restores (1=yes)",
            wave.parked_emptied == wave.parked
                && wave.images_verified == wave.parked
                && wave.queue_drops == 0,
        ),
    ];

    let fig = Figure {
        id: "elasticity",
        title: "reverse lifecycle: rolling upgrades, scale waves, snapshot-back survivability",
        unit: "mixed",
        rows,
        checks,
    };
    let chaos_trace = chaos_a.trace.clone().unwrap_or_default();
    (
        fig,
        ElasticityBench {
            points,
            wave,
            survivability,
            chaos,
            chaos_trace,
        },
    )
}

/// One point's JSON object, fixed precision — hashed for digests
/// byte-for-byte as published in the artifact's `point` objects.
pub fn upgrade_point_json(p: &UpgradePoint) -> String {
    format!(
        "{{\"n\": {}, \"batch\": {}, \"survived\": {}, \
         \"boot_p50_s\": {:.6}, \"upgrade_p50_s\": {:.6}, \"upgrade_p99_s\": {:.6}, \
         \"makespan_s\": {:.6}, \"queue_drops\": {}, \"archives_verified\": {}, \
         \"images_verified\": {}, \"reclaim_errors\": {}}}",
        p.n,
        p.batch,
        p.survived,
        p.boot_p50_s,
        p.upgrade_p50_s,
        p.upgrade_p99_s,
        p.makespan_s,
        p.queue_drops,
        p.archives_verified,
        p.images_verified,
        p.reclaim_errors,
    )
}

/// The `BENCH_elasticity.json` document body. Every field is
/// deterministic in the seeds — two same-seed invocations produce
/// byte-identical documents (the chaos section proves it from inside
/// one invocation; CI diffs two whole artifacts).
pub fn elasticity_json(scale: Scale, bench: &ElasticityBench) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"scale\": \"{scale:?}\",\n"));
    out.push_str("  \"points\": [\n");
    for (i, m) in bench.points.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"point\": {}}}{}\n",
            upgrade_point_json(&m.point),
            if i + 1 < bench.points.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    let w = &bench.wave;
    out.push_str(&format!(
        "  \"wave\": {{\"n\": {}, \"parked\": {}, \"scale_down_s\": {:.6}, \
         \"scale_up_p50_s\": {:.6}, \"queue_drops\": {}, \"parked_emptied\": {}, \
         \"images_verified\": {}, \"events_processed\": {}}},\n",
        w.n,
        w.parked,
        w.scale_down_s,
        w.scale_up_p50_s,
        w.queue_drops,
        w.parked_emptied,
        w.images_verified,
        w.events,
    ));
    out.push_str("  \"survivability\": [\n");
    for (i, s) in bench.survivability.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"plan\": \"{}\", \"survived\": {}, \"class_fired\": {}, \
             \"retransmits\": {}, \"reclaim_errors\": {}, \"queue_drops\": {}}}{}\n",
            s.plan,
            s.survived,
            s.class_fired,
            s.retransmits,
            s.reclaim_errors,
            s.queue_drops,
            if i + 1 < bench.survivability.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    out.push_str(&format!(
        "  \"chaos\": {{\"digest_a\": \"{}\", \"digest_b\": \"{}\", \
         \"identical\": {}, \"trace_identical\": {}}}\n",
        bench.chaos.digest_a, bench.chaos.digest_b, bench.chaos.identical, bench.chaos.trace_identical,
    ));
    out.push_str("}\n");
    out
}

/// Writes `BENCH_elasticity.json`.
pub fn write_elasticity_json(
    path: &str,
    scale: Scale,
    bench: &ElasticityBench,
) -> std::io::Result<()> {
    std::fs::write(path, elasticity_json(scale, bench))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_upgrade_round_trips_and_stays_clean() {
        let m = measure_upgrade(2, 1, None, false);
        let p = &m.point;
        assert!(p.survived, "fault-free wave completes");
        assert_eq!(p.queue_drops, 0);
        assert_eq!(p.archives_verified, 2, "both archives byte-exact");
        assert_eq!(p.images_verified, 2, "both machines on the new image");
        assert_eq!(p.reclaim_errors, 0);
        assert!(p.upgrade_p50_s > 0.0 && p.makespan_s >= p.upgrade_p99_s);
    }

    fn synthetic(events: u64) -> MeasuredUpgrade {
        MeasuredUpgrade {
            point: UpgradePoint {
                n: 2,
                batch: 1,
                survived: true,
                boot_p50_s: 1.5,
                upgrade_p50_s: 20.0,
                upgrade_p99_s: 25.0,
                makespan_s: 40.0,
                queue_drops: 0,
                archives_verified: 2,
                images_verified: 2,
                reclaim_errors: 0,
            },
            events,
            counters: FaultCounters::default(),
            retransmits: 0,
            trace: None,
        }
    }

    #[test]
    fn upgrade_digest_witnesses_the_event_count() {
        let a = synthetic(4321);
        let b = synthetic(4321);
        assert_eq!(upgrade_digest(&a), upgrade_digest(&b));
        let c = synthetic(4322);
        assert_ne!(upgrade_digest(&a), upgrade_digest(&c), "event count is a witness");
    }

    #[test]
    fn elasticity_json_has_the_documented_schema() {
        let m = synthetic(777);
        let bench = ElasticityBench {
            points: vec![synthetic(777)],
            wave: WaveRun {
                n: 4,
                parked: 2,
                scale_down_s: 3.5,
                scale_up_p50_s: 9.0,
                queue_drops: 0,
                parked_emptied: 2,
                images_verified: 2,
                events: 999,
            },
            survivability: vec![SurvivalRow {
                plan: "drop",
                survived: true,
                class_fired: 12,
                retransmits: 9,
                reclaim_errors: 0,
                queue_drops: 0,
            }],
            chaos: ChaosLock {
                digest_a: upgrade_digest(&m),
                digest_b: upgrade_digest(&m),
                identical: true,
                trace_identical: true,
            },
            chaos_trace: String::new(),
        };
        let json = elasticity_json(Scale::Quick, &bench);
        for key in [
            "\"scale\": \"Quick\"",
            "\"points\": [",
            "\"point\": {",
            "\"survived\": true",
            "\"upgrade_p50_s\": 20.000000",
            "\"archives_verified\": 2",
            "\"wave\": {",
            "\"parked_emptied\": 2",
            "\"survivability\": [",
            "\"plan\": \"drop\"",
            "\"class_fired\": 12",
            "\"chaos\": {",
            "\"trace_identical\": true",
            "\"identical\": true",
        ] {
            assert!(json.contains(key), "missing {key} in:\n{json}");
        }
    }

    #[test]
    fn class_fired_maps_each_survival_plan() {
        let c = FaultCounters {
            link_dropped: 3,
            link_corrupted: 5,
            server_dropped: 7,
            ..FaultCounters::default()
        };
        assert_eq!(class_fired("drop", &c), 3);
        assert_eq!(class_fired("corrupt", &c), 5);
        assert_eq!(class_fired("stall", &c), 7);
        assert_eq!(class_fired("chaos", &c), 15);
        assert_eq!(class_fired("unknown", &c), 0);
    }
}
