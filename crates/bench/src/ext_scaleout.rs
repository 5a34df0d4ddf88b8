//! Elasticity at scale: concurrent instance startups against one storage
//! server (the paper's §5.1 claim, quantified).
//!
//! > "BMcast transferred only 72 MB of the disk image while booting the
//! > OS in 58 seconds, so the average rate was 1.2 MB/sec. This means
//! > that there is more room to scale-up the number of instances booted
//! > simultaneously."
//!
//! Two forms:
//!
//! - [`run`] (the `ext02` registry entry) keeps the fast **analytic**
//!   curve: per-boot server demand from the measured single-instance
//!   runs, shared capacity as an M/M/1-style model for ρ < 1 and a
//!   serialization bound past saturation (startups serialize — they do
//!   not plateau).
//! - [`run_scaleout`] (the `reproduce --scaleout` path) **measures**:
//!   every point is a real [`Fleet`] run — `n` full machines on one
//!   shared switch against a distributed image store, with the block
//!   cache and DRR scheduler on — across three topology columns
//!   (one origin server, [`TOPOLOGY_SERVERS`] striped replicas, and
//!   peer-to-peer, where finished members convert into serving
//!   peers). The analytic curve appears only as a validation column
//!   on the 1-server points (calibrated from the measured n=1
//!   baseline, never substituted for a measurement). Points run
//!   concurrently on a bounded pool; the artifact
//!   `BENCH_scaleout.json` is byte-identical across same-seed runs.

use crate::{Check, Figure, Row, Scale};
use bmcast::fleet::{Fleet, FleetConfig};
use bmcast::machine::MachineSpec;
use bmcast::programs::BootProgram;
use bmcast::deploy::Runner;
use bmcast_baselines::image_copy::ImageCopyPlan;
use guestsim::os::BootProfile;
use simkit::{SimDuration, SimTime};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Server + gigabit-link effective capacity for deployment traffic, MB/s.
const SERVER_CAPACITY_MBPS: f64 = 107.0;

/// Analytic startup time of one BMcast instance when `n` start
/// simultaneously.
///
/// `boot_cpu_s` is the CPU part of the boot; `boot_reads` redirect to
/// the server, each needing `read_mb` at a per-read base latency of
/// `base_read_ms`. Below saturation the read phase inflates M/M/1-style
/// by `1/(1-ρ)`, never dropping under the fluid serialization bound
/// (all `n` instances' boot reads drained at pipe capacity). The
/// open-loop M/M/1 has no steady state near ρ = 1, so the inflation is
/// taken at face value only up to ρ = 0.97; past that the model used to
/// *plateau* at the capped value for any `n`, which is wrong — a
/// saturated server serializes the fleet's read volume, so each added
/// instance costs its full drain time. The saturated branch is linear
/// in `n` with the per-instance serialization slope, anchored at the
/// cap so the curve stays continuous and monotone.
pub fn analytic_bmcast_startup_secs(
    n: u32,
    boot_cpu_s: f64,
    boot_reads: f64,
    read_mb: f64,
    base_read_ms: f64,
) -> f64 {
    // Demand per instance while booting: copy-on-read volume over the
    // boot; the background copy is moderated off during boot.
    let uncontended_read_s = boot_reads * base_read_ms / 1e3;
    let boot_len_guess = boot_cpu_s + uncontended_read_s;
    let per_instance_mbps = boot_reads * read_mb / boot_len_guess;
    let rho = n as f64 * per_instance_mbps / SERVER_CAPACITY_MBPS;
    const RHO_CAP: f64 = 0.97;
    // Fluid bound: all n instances' boot reads through the shared pipe.
    let per_instance_serial_s = boot_reads * read_mb / SERVER_CAPACITY_MBPS;
    let serialized_s = n as f64 * per_instance_serial_s;
    let read_s = if rho < RHO_CAP {
        (uncontended_read_s / (1.0 - rho)).max(serialized_s)
    } else {
        // Saturated: queueing as of the cap, plus serialized drain for
        // every instance beyond the fleet size that reaches it.
        let n_cap = RHO_CAP * SERVER_CAPACITY_MBPS / per_instance_mbps;
        (uncontended_read_s / (1.0 - RHO_CAP) + (n as f64 - n_cap) * per_instance_serial_s)
            .max(serialized_s)
    };
    boot_cpu_s + read_s
}

/// Analytic startup time of one image-copy instance when `n` start
/// simultaneously: the transfers share the server pipe, then each
/// restarts and boots.
pub fn analytic_image_copy_startup_secs(n: u32, plan: &ImageCopyPlan, local_boot_s: f64) -> f64 {
    let installer = 52.0;
    let restart = 133.5;
    let share = SERVER_CAPACITY_MBPS / n as f64;
    let rate = share.min(plan.copy_rate_bps() / 1e6);
    let transfer = plan.image_bytes as f64 / 1e6 / rate;
    installer + transfer + restart + local_boot_s
}

/// Regenerates the analytic scale-out figure (registry id `ext02`).
pub fn run(_scale: Scale) -> Figure {
    let plan = ImageCopyPlan::default();
    // Single-instance constants from the fig04 measurements.
    let (boot_cpu_s, boot_reads, read_mb, base_read_ms) = (30.4, 4000.0, 0.018, 7.0);

    let mut rows = Vec::new();
    let mut bm1 = 0.0;
    let mut bm64 = 0.0;
    let mut ic1 = 0.0;
    let mut ic64 = 0.0;
    for n in [1u32, 2, 4, 8, 16, 32, 64] {
        let bm = analytic_bmcast_startup_secs(n, boot_cpu_s, boot_reads, read_mb, base_read_ms);
        let ic = analytic_image_copy_startup_secs(n, &plan, 30.0);
        if n == 1 {
            bm1 = bm;
            ic1 = ic;
        }
        if n == 64 {
            bm64 = bm;
            ic64 = ic;
        }
        rows.push(Row::new(
            format!("{n:>2} instances"),
            vec![
                ("BMcast s".into(), bm),
                ("Image Copy s".into(), ic),
                ("speedup x".into(), ic / bm),
            ],
        ));
    }

    Figure {
        id: "ext02",
        title: "simultaneous instance startups against one storage server",
        unit: "seconds",
        rows,
        checks: vec![
            Check::new("single-instance BMcast startup", 58.0, bm1, "s"),
            Check::new("single-instance image copy", 535.0, ic1, "s"),
            Check::new(
                "BMcast degradation at 64 instances (x)",
                2.0,
                bm64 / bm1,
                "x",
            ),
            Check::new(
                "image-copy degradation at 64 instances (x)",
                36.0,
                ic64 / ic1,
                "x",
            ),
        ],
    }
}

// ------------------------- measured fleet path -------------------------

/// Storage topology of one measured fleet (the figure's third axis,
/// next to `n` and the startup percentiles).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Topology {
    /// One origin server holds the image — the original scale-out
    /// setup and the baseline column.
    SingleServer,
    /// [`TOPOLOGY_SERVERS`] origin replicas; clients stripe reads
    /// across them by LBA.
    MultiServer,
    /// One origin, but every machine that finishes its deployment
    /// becomes a read-only serving peer (with post-boot sprint and a
    /// boosted DRR quantum so conversions happen early).
    PeerToPeer,
}

impl Topology {
    /// Column label used in rows, JSON, and `check_figures.py`.
    pub fn label(self) -> &'static str {
        match self {
            Topology::SingleServer => "1-server",
            Topology::MultiServer => "k-server",
            Topology::PeerToPeer => "p2p",
        }
    }
}

/// Origin replicas in the `k-server` topology.
pub const TOPOLOGY_SERVERS: usize = 4;

/// Arrival stagger between consecutive machines, used by every
/// topology column so their arrival patterns are comparable. Models
/// rolling power-on (a rack does not press 256 buttons in the same
/// microsecond) and is what lets the first finishers seed the
/// peer-serving snowball; per-machine startup is measured from each
/// machine's own start, so the stagger is not counted as latency.
pub const ARRIVAL_STAGGER: SimDuration = SimDuration::from_millis(50);

/// DRR quantum boost for sprinting clients in the `p2p` column: a
/// nearly-done machine is about to add a whole server's worth of
/// capacity, so finishing it early is worth ~8 ordinary turns.
pub const P2P_SPRINT_BOOST: u32 = 8;

/// Admission ramp for the `p2p` column: machines released up front.
/// Eight concurrent boots keep the lone origin busy without
/// saturating it, so the first peers convert on schedule. A plain
/// 50 ms grid would put ~90 machines on the origin before the first
/// conversion is even possible — the bootstrap alone destroys the
/// column. Sized so the ramp engages exactly where the single server
/// starts to strain (1-server p99 first climbs at n = 16); inert at
/// n ≤ 8, so the small-n points (and the n = 1 degeneracy) are
/// identical to the other columns'.
pub const P2P_ADMISSION_BASE: usize = 8;

/// Further machines released per converted peer (the rollout grows
/// with serving capacity — see [`FleetConfig::admission_base`]).
pub const P2P_ADMISSION_PER_PEER: usize = 8;

/// One measured scale-out point: `n` machines booted concurrently on a
/// shared fabric by the [`Fleet`] simulator.
#[derive(Debug, Clone)]
pub struct ScaleoutPoint {
    /// Topology column label ([`Topology::label`]).
    pub topology: &'static str,
    /// Fleet size.
    pub n: u32,
    /// Origin servers in this fleet.
    pub servers: u32,
    /// Members converted into serving peers by the time the last
    /// machine booted (always 0 outside the `p2p` column).
    pub peers: u32,
    /// Median per-machine startup (boot finish minus that machine's
    /// own staggered start), seconds.
    pub startup_p50_s: f64,
    /// p99 per-machine startup, seconds.
    pub startup_p99_s: f64,
    /// Slowest / fastest member startup (the fairness spread).
    pub fairness_ratio: f64,
    /// Aggregate block-cache hit ratio across every server node.
    pub cache_hit_ratio: f64,
    /// Bytes all server nodes put on the wire (cache hits included).
    pub bytes_moved: u64,
    /// Queue-full drops across every server node (the "no drops at
    /// scale" claim).
    pub queue_drops: u64,
    /// Analytic model's prediction, calibrated from the measured n=1
    /// baseline (validation only — never substituted for a
    /// measurement; 0 outside the 1-server column, where the model
    /// does not apply).
    pub analytic_s: f64,
    /// `|analytic - p50| / p50` (1-server column only).
    pub rel_err: f64,
    /// Analytic image-copy startup for the same image and `n`.
    pub image_copy_s: f64,
}

/// Per-scale fleet geometry: member spec, boot profile, and the fleet
/// sizes measured. Images are scaled down from the paper's 32 GB (a
/// 64-machine fleet of those would take hours of host time); contention
/// is relative, and the analytic validation column ties the shape back
/// to the paper-scale model.
///
/// The boot profile issues reads fast enough (well over the moderation
/// threshold's 50/s) that every member's background copier suspends for
/// the duration of the boot, exactly like the paper's Ubuntu profile.
/// That keeps the n = 1 baseline honest: a sub-threshold profile would
/// let the lone machine's copier compete with its own boot reads — a
/// contention fleets shed via the busy hint, which made small fleets
/// boot *faster* than one machine and hid the fabric's n-scaling.
pub fn scaleout_boot_profile() -> BootProfile {
    BootProfile::custom("scaleout-boot", 7, 400, 24 << 20, 2000, 24 << 20)
}

/// Both scales share one member geometry — quick mode just measures
/// fewer fleet sizes. A smaller quick image looked tempting, but at
/// tiny images the n = 2 cache savings outweigh the fabric contention
/// and the curve inverts below n = 1; same-spec points keep every
/// quick value bit-identical to the paper run's prefix.
pub fn fleet_geometry() -> (MachineSpec, BootProfile) {
    let spec = MachineSpec {
        capacity_sectors: (1u64 << 28) / 512,
        image_sectors: (1u64 << 27) / 512,
        ..MachineSpec::default()
    };
    (spec, scaleout_boot_profile())
}

/// The `(topology, n)` grid measured for `scale`. The server-bound
/// columns stop where the single pipe turns startups glacial; the
/// `p2p` column keeps going — its whole claim is that supply grows
/// with demand, so it must be shown at fleet sizes the baseline
/// cannot reach.
fn topology_grid(scale: Scale) -> Vec<(Topology, Vec<u32>)> {
    match scale {
        Scale::Paper => vec![
            (Topology::SingleServer, vec![1, 2, 4, 8, 16, 32, 64]),
            (Topology::MultiServer, vec![1, 2, 4, 8, 16, 32, 64]),
            (
                Topology::PeerToPeer,
                vec![1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024],
            ),
        ],
        Scale::Quick => vec![
            (Topology::SingleServer, vec![1, 2, 4, 8]),
            (Topology::MultiServer, vec![1, 2, 4, 8]),
            (Topology::PeerToPeer, vec![1, 2, 4, 8, 64, 256]),
        ],
    }
}

/// The fleet configuration for one `(topology, n)` point. Every
/// topology uses the same arrival stagger; the `p2p` column adds the
/// peer-aware admission ramp, which is part of the system under test —
/// a peer-to-peer rollout controls its release rate by the serving
/// capacity it has grown (the server-bound columns have no such
/// signal: their capacity is fixed).
pub fn topology_fleet_cfg(topology: Topology, n: u32, spec: &MachineSpec) -> FleetConfig {
    let mut cfg = FleetConfig {
        n: n as usize,
        spec: spec.clone(),
        start_stagger: ARRIVAL_STAGGER,
        ..FleetConfig::default()
    };
    match topology {
        Topology::SingleServer => {}
        Topology::MultiServer => cfg.servers = TOPOLOGY_SERVERS,
        Topology::PeerToPeer => {
            cfg.peer_serving = true;
            cfg.machine_cfg.moderation.post_boot_sprint = true;
            cfg.server_cfg.sprint_boost = P2P_SPRINT_BOOST;
            cfg.admission_base = P2P_ADMISSION_BASE;
            cfg.admission_per_peer = P2P_ADMISSION_PER_PEER;
        }
    }
    cfg
}

/// Boots one fleet of `n` under `topology` and reduces it to a
/// [`ScaleoutPoint`] (the analytic columns are filled in later, once
/// the n=1 baseline is known).
pub fn measure_point(
    topology: Topology,
    n: u32,
    spec: &MachineSpec,
    profile: &BootProfile,
) -> ScaleoutPoint {
    let cfg = topology_fleet_cfg(topology, n, spec);
    let servers = cfg.servers as u32;
    let mut fleet = Fleet::new(cfg);
    let p = profile.clone();
    fleet.start(move |_| Box::new(BootProgram::new(p.clone())));
    fleet
        .run_to_all_booted(SimTime::from_secs(36_000))
        .expect("fleet boots within limit");
    // Per-machine elapsed startup: finish minus that machine's own
    // staggered start (identical to the finish instant at zero
    // stagger).
    let mut secs: Vec<f64> = fleet
        .startup_durations()
        .iter()
        .map(|d| d.expect("all booted").as_secs_f64())
        .collect();
    secs.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let p50 = secs[secs.len() / 2];
    let p99 = secs[((secs.len() as f64 * 0.99).ceil() as usize).min(secs.len()) - 1];
    ScaleoutPoint {
        topology: topology.label(),
        n,
        servers,
        peers: fleet.peers_active() as u32,
        startup_p50_s: p50,
        startup_p99_s: p99,
        fairness_ratio: secs[secs.len() - 1] / secs[0],
        cache_hit_ratio: fleet.cache_hit_ratio(),
        bytes_moved: fleet.server_bytes_read(),
        queue_drops: fleet.queue_drops_total(),
        analytic_s: 0.0,
        rel_err: 0.0,
        image_copy_s: 0.0,
    }
}

/// Measures every `(topology, n)` point for `scale` on at most `jobs`
/// worker threads (each point owns its whole simulated world), then
/// calibrates the analytic validation column from the measured
/// 1-server n=1 baseline and a bare-metal boot of the same profile.
/// Points come back grouped by topology in grid order.
pub fn measure_scaleout(scale: Scale, jobs: usize) -> Vec<ScaleoutPoint> {
    let (spec, profile) = fleet_geometry();
    let work: Vec<(Topology, u32)> = topology_grid(scale)
        .into_iter()
        .flat_map(|(t, ns)| ns.into_iter().map(move |n| (t, n)))
        .collect();

    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<ScaleoutPoint>>> = work.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..jobs.min(work.len()).max(1) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(&(t, n)) = work.get(i) else { break };
                *slots[i].lock().unwrap() = Some(measure_point(t, n, &spec, &profile));
            });
        }
    });
    let mut points: Vec<ScaleoutPoint> = slots
        .into_iter()
        .map(|s| s.into_inner().unwrap().expect("point slot filled"))
        .collect();

    // Calibrate the analytic model from the measured 1-server n=1 run:
    // redirect count and volume from the fleet's own stats, the CPU
    // share from a bare-metal boot of the same profile (local reads
    // are fast enough to fold into it), the per-read base latency from
    // the difference.
    let t1 = points
        .iter()
        .find(|p| p.topology == Topology::SingleServer.label() && p.n == 1)
        .expect("grid contains the 1-server baseline")
        .startup_p50_s;
    // The demand stream is the profile itself: that is what each
    // machine reads, wherever the sectors end up coming from.
    let reads = profile.steps().iter().filter(|s| s.read.is_some()).count() as f64;
    let read_mb = profile.total_read_bytes() as f64 / 1e6 / reads;
    let mut bare = Runner::bare_metal(&spec);
    bare.start_program(Box::new(BootProgram::new(profile.clone())));
    let boot_cpu_s = bare
        .run_to_finish(SimTime::from_secs(3600))
        .expect("bare-metal boot finishes")
        .duration_since(SimTime::ZERO)
        .as_secs_f64();
    let base_read_ms = ((t1 - boot_cpu_s) / reads * 1e3).max(0.01);

    let plan = ImageCopyPlan {
        image_bytes: spec.image_sectors * 512,
        ..ImageCopyPlan::default()
    };
    for p in &mut points {
        // The M/M/1 + serialization model describes one shared origin;
        // it has nothing honest to say about striped replicas or a
        // growing peer set, so the validation column stays blank there.
        if p.topology == Topology::SingleServer.label() {
            p.analytic_s =
                analytic_bmcast_startup_secs(p.n, boot_cpu_s, reads, read_mb, base_read_ms);
            p.rel_err = (p.analytic_s - p.startup_p50_s).abs() / p.startup_p50_s;
        }
        p.image_copy_s = analytic_image_copy_startup_secs(p.n, &plan, boot_cpu_s);
    }
    points
}

/// The measured scale-out figure (the `reproduce --scaleout` path).
/// Returns the figure plus the points `BENCH_scaleout.json` is built
/// from.
pub fn run_scaleout(scale: Scale, jobs: usize) -> (Figure, Vec<ScaleoutPoint>) {
    let measured = measure_scaleout(scale, jobs);
    let points: Vec<&ScaleoutPoint> = measured.iter().collect();

    let rows = points
        .iter()
        .map(|p| {
            Row::new(
                format!("{} {:>3} machines", p.topology, p.n),
                vec![
                    ("BMcast p50 s".into(), p.startup_p50_s),
                    ("BMcast p99 s".into(), p.startup_p99_s),
                    ("Image Copy s".into(), p.image_copy_s),
                    ("cache hit %".into(), p.cache_hit_ratio * 100.0),
                    ("peers".into(), p.peers as f64),
                    ("q drops".into(), p.queue_drops as f64),
                    ("model s".into(), p.analytic_s),
                    ("model err %".into(), p.rel_err * 100.0),
                ],
            )
        })
        .collect();

    let of = |t: Topology| -> Vec<&ScaleoutPoint> {
        points
            .iter()
            .copied()
            .filter(|p| p.topology == t.label())
            .collect()
    };
    let single = of(Topology::SingleServer);
    let multi = of(Topology::MultiServer);
    let p2p = of(Topology::PeerToPeer);

    // The single origin must pay for scale monotonically. The k-server
    // column is *not* monotone at small n — striping removes the
    // contention and the warm shard caches make later staggered
    // arrivals slightly faster — so its claim is the comparative one:
    // striping never loses to one server.
    let monotone = single
        .windows(2)
        .all(|w| w[1].startup_p99_s >= w[0].startup_p99_s * 0.999);
    let kserver_wins = single.iter().all(|s| {
        multi
            .iter()
            .find(|p| p.n == s.n)
            .is_none_or(|p| p.startup_p99_s <= s.startup_p99_s * 1.02)
    });
    let beats_ic = points.iter().all(|p| p.startup_p99_s < p.image_copy_s);
    let hit_at_8 = single
        .iter()
        .find(|p| p.n == 8)
        .map(|p| p.cache_hit_ratio)
        .unwrap_or(0.0);
    let worst_err = points.iter().map(|p| p.rel_err).fold(0.0f64, f64::max);
    // Peer serving must not lose to the single server once there are
    // enough machines for peers to matter (joint fleet sizes ≥ 8).
    let p2p_wins = single.iter().filter(|s| s.n >= 8).all(|s| {
        p2p.iter()
            .find(|p| p.n == s.n)
            .is_none_or(|p| p.startup_p99_s <= s.startup_p99_s * 1.02)
    });
    // The elasticity headline: the largest p2p fleet's p99 within 2×
    // the lone-machine baseline, with zero queue drops anywhere in the
    // column.
    let baseline = single.first().map(|p| p.startup_p99_s).unwrap_or(0.0);
    let p2p_flat = p2p
        .last()
        .map(|p| p.startup_p99_s <= baseline * 2.0)
        .unwrap_or(false);
    let p2p_drops: u64 = p2p.iter().map(|p| p.queue_drops).sum();

    let fig = Figure {
        id: "scaleout",
        title: "measured fleet startups: n machines per topology, shared fabric",
        unit: "seconds",
        checks: vec![
            Check::new(
                "1-server p99 monotone in n (1=yes)",
                1.0,
                monotone as u32 as f64,
                "",
            ),
            Check::new(
                "k-server p99 never above 1-server (1=yes)",
                1.0,
                kserver_wins as u32 as f64,
                "",
            ),
            Check::new(
                "BMcast under image copy at every n (1=yes)",
                1.0,
                beats_ic as u32 as f64,
                "",
            ),
            Check::new("server cache hit ratio at n=8", 7.0 / 8.0, hit_at_8, ""),
            Check::new(
                "p2p p99 beats 1-server at joint n>=8 (1=yes)",
                1.0,
                p2p_wins as u32 as f64,
                "",
            ),
            Check::new(
                "p2p p99 at n_max within 2x n=1 baseline (1=yes)",
                1.0,
                p2p_flat as u32 as f64,
                "",
            ),
            Check::new("p2p queue drops", 0.0, p2p_drops as f64, ""),
            // Validation flag, not a pass/fail gate: how far the
            // analytic curve drifts from the measured one at its worst
            // point (>25% means the model misses something real).
            Check::new("analytic model divergence (worst)", 0.25, worst_err, "x"),
        ],
        rows,
    };
    (fig, measured)
}

/// Writes `BENCH_scaleout.json`. Hand-rolled JSON (the workspace
/// carries no serde) with fixed-precision floats: same-seed runs
/// produce byte-identical artifacts.
pub fn write_scaleout_json(
    path: &str,
    scale: Scale,
    points: &[ScaleoutPoint],
) -> std::io::Result<()> {
    std::fs::write(path, scaleout_json(scale, points))
}

/// One point's JSON object, fixed precision.
pub fn point_json(p: &ScaleoutPoint) -> String {
    format!(
        "{{\"topology\": \"{}\", \"n\": {}, \"servers\": {}, \"peers\": {}, \
         \"startup_p50_s\": {:.6}, \"startup_p99_s\": {:.6}, \
         \"fairness_ratio\": {:.6}, \"cache_hit_ratio\": {:.6}, \"bytes_moved\": {}, \
         \"queue_drops\": {}, \"analytic_s\": {:.6}, \"rel_err\": {:.6}, \
         \"image_copy_s\": {:.6}}}",
        p.topology,
        p.n,
        p.servers,
        p.peers,
        p.startup_p50_s,
        p.startup_p99_s,
        p.fairness_ratio,
        p.cache_hit_ratio,
        p.bytes_moved,
        p.queue_drops,
        p.analytic_s,
        p.rel_err,
        p.image_copy_s,
    )
}

/// The `BENCH_scaleout.json` document body.
pub fn scaleout_json(scale: Scale, points: &[ScaleoutPoint]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"scale\": \"{scale:?}\",\n"));
    out.push_str("  \"points\": [\n");
    for (i, p) in points.iter().enumerate() {
        out.push_str(&format!(
            "    {}{}\n",
            point_json(p),
            if i + 1 < points.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// FNV-1a over `bytes` — the workspace carries no hash crates, and a
/// 64-bit digest is plenty for an equality witness (the underlying
/// comparison in tests is the full byte string; the digest is what the
/// JSON artifacts record).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bmcast_scales_far_better_than_image_copy() {
        let fig = run(Scale::Quick);
        let get = |label: &str, series: &str| {
            fig.rows
                .iter()
                .find(|r| r.label.trim() == label)
                .unwrap()
                .values
                .iter()
                .find(|(n, _)| n == series)
                .unwrap()
                .1
        };
        // BMcast barely notices 16 concurrent boots; image copy scales
        // linearly with N once the pipe saturates.
        assert!(get("16 instances", "BMcast s") < get("1 instances", "BMcast s") * 1.6);
        assert!(
            get("64 instances", "Image Copy s") > get("1 instances", "Image Copy s") * 20.0
        );
        // The headroom claim: speedup grows with N.
        assert!(get("64 instances", "speedup x") > get("1 instances", "speedup x") * 4.0);
    }

    #[test]
    fn single_instance_matches_fig04() {
        let t = analytic_bmcast_startup_secs(1, 30.4, 4000.0, 0.018, 7.0);
        assert!((t - 58.4).abs() < 2.0, "single-instance startup {t:.1}s");
    }

    #[test]
    fn analytic_model_serializes_past_saturation() {
        // A demand profile that saturates the pipe immediately: each
        // instance wants ~180 MB/s of a 107 MB/s server, so the capped
        // M/M/1 term is a constant and only the serialization slope can
        // (and must) provide growth.
        let args = (1.0, 1000.0, 0.36, 1.0);
        let at = |n| analytic_bmcast_startup_secs(n, args.0, args.1, args.2, args.3);
        // Past saturation, startups keep growing roughly linearly with
        // n (serialized drain) instead of plateauing at the cap.
        assert!(at(32) > at(16) * 1.5, "n=32 {:.1}s vs n=16 {:.1}s", at(32), at(16));
        assert!(at(64) > at(32) * 1.7, "linear growth when saturated");
        assert!(at(64) > 200.0, "64 saturated instances serialize, {:.1}s", at(64));
        // And the curve never decreases in n.
        for n in 1..64 {
            assert!(at(n + 1) >= at(n), "monotone at n={n}");
        }
        // The paper-regime constants (ρ ≤ 0.74 at n = 64) are untouched
        // by the serialization bound: same values as the M/M/1 curve.
        let bm64 = analytic_bmcast_startup_secs(64, 30.4, 4000.0, 0.018, 7.0);
        assert!((bm64 - 137.0).abs() < 1.0, "n=64 paper regime {bm64:.1}s");
    }

    #[test]
    fn fnv1a64_matches_reference_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }
}
