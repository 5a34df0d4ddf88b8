//! The three workloads: how each world is built from the seed, how it
//! runs, and the oracles its simulated outputs must pass.
//!
//! Every configuration is written out from `bmcast` core types with its
//! constants in place, so a change to the figure harness can never
//! silently change a workload.

use crate::oracle::{self, Digest, GuestReport, ShadowGuest};
use bmcast::deploy::FlightRecorderConfig;
use bmcast::fleet::{Fleet, FleetConfig, FleetStall, MachineOutcome};
use bmcast::machine::{GuestProgram, MachineSpec};
use bmcast::programs::{BootProgram, StreamProgram};
use bmcast::{ControllerKind, Phase, TransportKind};
use guestsim::os::BootProfile;
use hwsim::block::{BlockRange, BlockStore, Lba, SectorData};
use simkit::{SimDuration, SimTime};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Members of the two fleet workloads.
const FLEET_N: usize = 64;
/// Simulated-time limit of every run: far past any healthy finish.
const LIMIT: SimTime = SimTime::from_secs(36_000);

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 64-member peer-to-peer fleet booted to its last member.
    BootP2p64,
    /// One AHCI machine deploying 2 GB under seeded random guest I/O.
    DeployMixedAhci,
    /// 64 write-stream tenants booted, then a batched rolling upgrade.
    UpgradeBatched64,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::BootP2p64,
        Workload::DeployMixedAhci,
        Workload::UpgradeBatched64,
    ];

    /// The CLI name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::BootP2p64 => "boot_p2p64",
            Workload::DeployMixedAhci => "deploy_mixed_ahci",
            Workload::UpgradeBatched64 => "upgrade_batched64",
        }
    }

    /// Parses a CLI name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// What one unit of work is, for the latency metrics.
    pub fn unit(self) -> &'static str {
        match self {
            Workload::BootP2p64 => "member boot",
            Workload::DeployMixedAhci => "guest I/O",
            Workload::UpgradeBatched64 => "member upgrade",
        }
    }
}

/// Every input of a run, derived from the workload seed alone.
#[derive(Debug, Clone, Copy)]
pub struct Seeds {
    /// [`FleetConfig::seed`]: fabric loss and client jitter streams.
    pub fleet: u64,
    /// The deployed image.
    pub image: u64,
    /// Guest streams and the upgraded members' boot profiles.
    pub guest: u64,
    /// The image a rolling upgrade deploys.
    pub upgrade: u64,
}

impl Seeds {
    /// Splits `seed` into independent input seeds.
    pub fn from(seed: u64) -> Seeds {
        let mut state = seed;
        let mut next = || {
            // SplitMix64.
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        Seeds {
            fleet: next(),
            image: next(),
            guest: next(),
            upgrade: next(),
        }
    }
}

/// The boot profile of `boot_p2p64` is the scale-out figure's OS, a
/// fixed part of the workload like the image size. Drawn from the run
/// seed instead, the profile's read layout moved the last boot by 39%
/// and the median boot by 36% across seven seeds, so seed-to-seed
/// spread would measure the input, not the program.
const SCALEOUT_PROFILE_SEED: u64 = 7;

/// Guest operations of `deploy_mixed_ahci`: enough that the guest is
/// still issuing I/O when the machine reaches bare metal.
const MIXED_OPS: usize = 100_000;

/// A built, started world, ready for its timed run.
pub struct World {
    /// The workload it runs.
    pub workload: Workload,
    /// Its inputs.
    pub seeds: Seeds,
    /// The fleet (a one-member fleet for `deploy_mixed_ahci`).
    pub fleet: Fleet,
    guest: Option<Arc<Mutex<GuestReport>>>,
}

/// Builds and starts `workload`'s world from `seed`: input generation,
/// configuration, [`Fleet::new`] and [`Fleet::start`]. `traced` turns on
/// the fleet's telemetry and flight recorder.
pub fn build(workload: Workload, seed: u64, traced: bool) -> World {
    let seeds = Seeds::from(seed);
    start(
        workload,
        seeds,
        fleet_config(workload, &seeds),
        MIXED_OPS,
        traced,
    )
}

/// [`build`] on an explicit configuration and guest-operation count.
fn start(
    workload: Workload,
    seeds: Seeds,
    cfg: FleetConfig,
    mixed_ops: usize,
    traced: bool,
) -> World {
    let mut guest = None;
    let fleet = match workload {
        Workload::BootP2p64 => {
            let profile = BootProfile::custom(
                "scaleout-boot",
                SCALEOUT_PROFILE_SEED,
                400,
                24 << 20,
                2000,
                24 << 20,
            );
            let mut fleet = new_fleet(cfg, traced);
            fleet.start(move |_| Box::new(BootProgram::new(profile.clone())));
            fleet
        }
        Workload::DeployMixedAhci => {
            let image_sectors = cfg.spec.image_sectors;
            let ops = oracle::generate_ops(seeds.guest, mixed_ops, image_sectors, 8, 64, 0.3);
            let (program, report) = ShadowGuest::new(ops, seeds.image, SimDuration::from_millis(1));
            guest = Some(report);
            let mut program = Some(program);
            let mut fleet = new_fleet(cfg, traced);
            fleet.start(move |_| Box::new(program.take().expect("one member")));
            fleet
        }
        Workload::UpgradeBatched64 => {
            let tenants = tenant_streams(seeds.guest);
            let mut fleet = new_fleet(cfg, traced);
            fleet.start(move |i| {
                let (region, until, seed) = tenants[i];
                Box::new(StreamProgram::sequential(region, true, 256, until, seed))
            });
            fleet
        }
    };
    World {
        workload,
        seeds,
        fleet,
        guest,
    }
}

fn new_fleet(cfg: FleetConfig, traced: bool) -> Fleet {
    let mut fleet = Fleet::new(cfg);
    if traced {
        fleet.enable_telemetry();
        fleet.enable_flight_recorder(FlightRecorderConfig::default());
    }
    fleet
}

/// The fleet configuration of `workload`, constants written out.
pub fn fleet_config(workload: Workload, seeds: &Seeds) -> FleetConfig {
    let mut cfg = FleetConfig {
        seed: seeds.fleet,
        sim_threads: 1,
        ..FleetConfig::default()
    };
    match workload {
        Workload::BootP2p64 => {
            cfg.n = FLEET_N;
            cfg.spec = MachineSpec {
                capacity_sectors: (256 << 20) / 512,
                image_sectors: (128 << 20) / 512,
                image_seed: seeds.image,
                ..MachineSpec::default()
            };
            cfg.start_stagger = SimDuration::from_millis(50);
            cfg.peer_serving = true;
            cfg.machine_cfg.moderation.post_boot_sprint = true;
            cfg.server_cfg.sprint_boost = 8;
            cfg.admission_base = 8;
            cfg.admission_per_peer = 8;
            cfg.machine_cfg.transport = TransportKind::Aoe;
        }
        Workload::DeployMixedAhci => {
            cfg.n = 1;
            cfg.spec = MachineSpec {
                capacity_sectors: (4u64 << 30) / 512,
                image_sectors: (2u64 << 30) / 512,
                image_seed: seeds.image,
                controller: ControllerKind::Ahci,
                ..MachineSpec::default()
            };
            cfg.machine_cfg.transport = TransportKind::Aoe;
        }
        Workload::UpgradeBatched64 => {
            cfg.n = FLEET_N;
            // Capacity is twice the image so the persisted bitmap lives
            // outside the image range and never skews content checks.
            cfg.spec = MachineSpec {
                capacity_sectors: (32 << 20) / 512,
                image_sectors: (16 << 20) / 512,
                image_seed: seeds.image,
                ..MachineSpec::default()
            };
            cfg.start_stagger = SimDuration::from_millis(50);
            cfg.machine_cfg.transport = TransportKind::Batched;
        }
    }
    cfg
}

/// Per-member write streams of the first tenants: a 512 KB region at a
/// seeded 1 MB-aligned offset inside the image, written sequentially in
/// 128 KB requests for one second plus a per-member stagger.
fn tenant_streams(seed: u64) -> Vec<(BlockRange, SimTime, u64)> {
    let mut rng = simkit::Prng::new(seed);
    (0..FLEET_N)
        .map(|i| {
            let region = BlockRange::new(Lba(2048 * (1 + rng.below(14))), 1024);
            let until = SimTime::ZERO + SimDuration::from_millis(1_000 + 50 * (i as u64 + 1));
            (region, until, rng.next_u64())
        })
        .collect()
}

/// The guest program every upgraded member boots.
fn upgrade_program(seed: u64) -> impl FnMut(usize) -> Box<dyn GuestProgram> {
    move |i| Box::new(BootProgram::new(BootProfile::tiny(seed ^ i as u64)))
}

/// What a timed run produced: host times, the simulated metrics, and
/// the oracle verdicts.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Host seconds of the whole timed run.
    pub wall_s: f64,
    /// Host seconds inside [`Fleet::run_to_all_booted`].
    pub boot_host_s: f64,
    /// Host seconds inside [`Fleet::run_rolling_upgrade`].
    pub wave_host_s: f64,
    /// Simulated instant the workload was done, seconds.
    pub sim_done_s: f64,
    /// Simulated latencies of the workload's unit of work, ms, sorted.
    pub latency_ms: Vec<f64>,
    /// Oracle checks made.
    pub attempted: u64,
    /// Oracle checks failed.
    pub failed: u64,
    /// One line per failed check kind.
    pub failures: Vec<String>,
    /// Digest over member ticks, event count and wire bytes.
    pub digest: u64,
    /// Events executed across the fleet.
    pub events: u64,
    /// Bytes every server put on the wire plus write payload received.
    pub wire_bytes: u64,
    /// Frames every member VMM sent and received.
    pub frames: u64,
    /// Dirty sectors across members when the upgrade wave started.
    pub dirty_before_wave: u64,
}

impl Outcome {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }
}

/// Runs `world` to its end, timing the calls into the fleet, then
/// checks the simulated outputs.
pub fn run(world: &mut World) -> Outcome {
    let mut out = Outcome::default();
    let fleet = &mut world.fleet;
    let started = Instant::now();
    let booted = fleet.run_to_all_booted(LIMIT);
    out.boot_host_s = started.elapsed().as_secs_f64();
    let mut wave = None;
    if world.workload == Workload::UpgradeBatched64 && booted.is_ok() {
        let written: Vec<_> = (0..fleet.len()).map(|i| dirty_content(fleet, i)).collect();
        out.dirty_before_wave = written.iter().map(|w| w.len() as u64).sum();
        let wave_start = fleet.now();
        let t = Instant::now();
        let done = fleet.run_rolling_upgrade(
            world.seeds.upgrade,
            (fleet.len() / 8).max(1),
            upgrade_program(world.seeds.guest),
            LIMIT,
        );
        out.wave_host_s = t.elapsed().as_secs_f64();
        wave = Some((wave_start, written, done));
    }
    out.wall_s = started.elapsed().as_secs_f64();

    out.events = fleet.events_executed();
    out.wire_bytes = fleet.server_bytes_read() + fleet.server().sectors_written() * 512;
    out.frames = (0..fleet.len())
        .map(|i| {
            let s = fleet.machine(i).stats;
            s.frames_tx + s.frames_rx
        })
        .sum();

    check_boot(fleet, &booted, &mut out);
    let mut digest = Digest::default();
    for t in fleet.startup_times() {
        digest.add(t.map_or(u64::MAX, |t| t.as_nanos()));
    }
    match world.workload {
        Workload::BootP2p64 => {
            out.latency_ms = fleet
                .startup_durations()
                .iter()
                .flatten()
                .map(|d| d.as_secs_f64() * 1e3)
                .collect();
            out.sim_done_s = last(fleet.startup_times());
        }
        Workload::DeployMixedAhci => {
            let report = world.guest.as_ref().expect("mixed workload has a guest");
            let report = report.lock().expect("guest report lock");
            check_mixed(fleet, &report, &mut out);
            out.latency_ms = report.latency_ms.clone();
            let bare_metal = fleet.machine(0).vmm.as_ref().and_then(|v| v.bare_metal_at);
            for t in [bare_metal, report.finished_at] {
                digest.add(t.map_or(u64::MAX, |t| t.as_nanos()));
            }
            out.sim_done_s = bare_metal
                .max(report.finished_at)
                .map_or(f64::NAN, |t| t.as_secs_f64());
        }
        Workload::UpgradeBatched64 => match wave {
            Some((wave_start, written, done)) => {
                check_wave(fleet, &written, &done, &world.seeds, &mut out);
                for t in fleet.redeploy_times() {
                    digest.add(t.map_or(u64::MAX, |t| t.as_nanos()));
                }
                out.latency_ms = fleet
                    .redeploy_times()
                    .iter()
                    .flatten()
                    .map(|t| t.saturating_duration_since(wave_start).as_secs_f64() * 1e3)
                    .collect();
                out.sim_done_s = last(fleet.redeploy_times());
            }
            None => out.check(false, || {
                "upgrade wave not run: the fleet did not boot".into()
            }),
        },
    }
    out.latency_ms.sort_by(f64::total_cmp);
    digest.add(out.events);
    digest.add(out.wire_bytes);
    out.digest = digest.value();
    out
}

fn last(times: &[Option<SimTime>]) -> f64 {
    times
        .iter()
        .flatten()
        .max()
        .map_or(f64::NAN, |t| t.as_secs_f64())
}

/// Every member reaches `Booted` in [`Fleet::outcomes`].
fn check_boot(fleet: &Fleet, booted: &Result<Vec<SimTime>, FleetStall>, out: &mut Outcome) {
    if let Err(stall) = booted {
        out.failures.push(format!("boot run stopped: {stall}"));
    }
    for (i, o) in fleet.outcomes().iter().enumerate() {
        out.check(matches!(o, MachineOutcome::Booted { .. }), || {
            format!("member {i} did not boot: {o:?}")
        });
    }
}

/// `deploy_mixed_ahci`'s oracles: every guest I/O completed and every
/// read matched the shadow disk; the machine reached bare metal while
/// the guest was still issuing I/O; every sector of the final disk's
/// image range equals the shadow.
fn check_mixed(fleet: &Fleet, report: &GuestReport, out: &mut Outcome) {
    let ops = report.ops as u64;
    let completed = report.latency_ms.len() as u64;
    let bad = report.bad_reads + report.bad_completions + ops.saturating_sub(completed);
    out.attempted += ops;
    out.failed += bad;
    if bad > 0 {
        out.failures.push(format!(
            "guest I/O: {} bad reads, {} bad completions, {completed}/{ops} completed",
            report.bad_reads, report.bad_completions
        ));
    }
    let m = fleet.machine(0);
    out.check(m.phase() == Phase::BareMetal, || {
        format!("machine ended in phase {}", m.phase())
    });
    let bare_metal = m.vmm.as_ref().and_then(|v| v.bare_metal_at);
    out.check(
        matches!((bare_metal, report.finished_at), (Some(b), Some(f)) if b < f),
        || {
            format!(
                "guest finished at {:?}, before bare metal at {bare_metal:?}",
                report.finished_at
            )
        },
    );
    let store = m.hw.disk.store();
    let image_sectors = m.vmm.as_ref().map_or(0, |v| v.dirty.image_sectors());
    let mismatched = (0..image_sectors)
        .map(Lba)
        .filter(|&lba| store.read(lba) != report.shadow.expected(lba))
        .count();
    out.check(mismatched == 0, || {
        format!("final disk: {mismatched} sectors differ from the shadow")
    });
}

/// Member `i`'s written sectors with their content, at the instant the
/// wave starts. Its tenant has finished, so these are final; every
/// other sector of its disk is, or will be once its copy lands, the
/// first image.
fn dirty_content(fleet: &Fleet, i: usize) -> Vec<(Lba, SectorData)> {
    let m = fleet.machine(i);
    let Some(vmm) = m.vmm.as_ref() else {
        return Vec::new();
    };
    let image = BlockRange::new(Lba(0), vmm.dirty.image_sectors() as u32);
    vmm.dirty
        .dirty_subranges(image)
        .into_iter()
        .flat_map(|r| r.iter())
        .map(|lba| (lba, m.hw.disk.store().read(lba)))
        .collect()
}

/// `upgrade_batched64`'s oracles: the wave completed; every archive
/// volume equals its tenant's final disk (every written sector, and
/// the first image on the rest); every redeployed disk holds the new
/// image.
fn check_wave(
    fleet: &Fleet,
    written: &[Vec<(Lba, SectorData)>],
    done: &Result<Vec<SimTime>, FleetStall>,
    seeds: &Seeds,
    out: &mut Outcome,
) {
    match done {
        Ok(_) => out.check(true, String::new),
        Err(stall) => out.check(false, || format!("upgrade wave stopped: {stall}")),
    }
    for (i, written) in written.iter().enumerate() {
        let image_sectors = fleet
            .machine(i)
            .vmm
            .as_ref()
            .map_or(0, |v| v.dirty.image_sectors());
        let archived = fleet.archive_volume(i).is_some_and(|vol| {
            let store = vol.store();
            let mut clean = (0..image_sectors)
                .map(Lba)
                .filter(|lba| written.binary_search_by_key(lba, |&(l, _)| l).is_err());
            !written.is_empty()
                && written.iter().all(|&(lba, data)| store.read(lba) == data)
                && clean.all(|lba| store.read(lba) == BlockStore::image_content(seeds.image, lba))
        });
        out.check(archived, || {
            format!("member {i}: archive differs from its tenant's disk")
        });
        out.check(holds_image(fleet, i, seeds.upgrade), || {
            format!("member {i}: redeployed disk does not hold the new image")
        });
    }
}

/// Whether member `i`'s disk holds image `seed`: every sector of the
/// image range reads the new image, or is not yet written — zero, and
/// either unclaimed or claimed by a copy still in flight. At least ten
/// must hold the image, and none may keep the previous tenant's data.
fn holds_image(fleet: &Fleet, i: usize, seed: u64) -> bool {
    let m = fleet.machine(i);
    let Some(vmm) = m.vmm.as_ref() else {
        return false;
    };
    let copy_in_flight = vmm.bg.inflight() > 0 || vmm.bg.fifo_depth() > 0;
    let mut copied = 0;
    for lba in (0..vmm.dirty.image_sectors()).map(Lba) {
        let data = m.hw.disk.store().read(lba);
        if data == BlockStore::image_content(seed, lba) {
            copied += 1;
        } else if data != SectorData::ZERO || (vmm.bitmap.is_filled(lba) && !copy_in_flight) {
            return false;
        }
    }
    copied >= 10
}

/// Times the construction of `workload`'s world from `seed`, dropping
/// each world: `warmup` untimed constructions (the first ones also pay
/// for the allocator's first growth), then timed ones until at least
/// `min_reps` of them and `min_total_s` of timed construction. Spreading
/// the samples over a fixed span of host time keeps a short host stall
/// from moving their median.
pub fn time_setup(
    workload: Workload,
    seed: u64,
    warmup: usize,
    min_reps: usize,
    min_total_s: f64,
) -> Vec<f64> {
    let mut times = Vec::new();
    let mut total = 0.0;
    for i in 0.. {
        if i >= warmup + min_reps && total >= min_total_s {
            break;
        }
        let t = Instant::now();
        let world = build(workload, seed, false);
        let s = t.elapsed().as_secs_f64();
        drop(std::hint::black_box(world));
        if i >= warmup {
            times.push(s);
            total += s;
        }
    }
    times
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_are_independent_and_repeatable() {
        let a = Seeds::from(1);
        let b = Seeds::from(1);
        let c = Seeds::from(2);
        assert_eq!(a.image, b.image);
        assert_ne!(a.image, c.image);
        assert_ne!(a.fleet, a.image);
        assert_ne!(a.guest, a.upgrade);
    }

    /// A scaled-down world of `workload`: the same code paths on a
    /// four-member fleet (one machine for the mixed workload) with small
    /// images.
    fn short_world(workload: Workload, seed: u64) -> World {
        let seeds = Seeds::from(seed);
        let mut cfg = fleet_config(workload, &seeds);
        let mib = |n: u64| (n << 20) / 512;
        match workload {
            Workload::BootP2p64 => {
                cfg.n = 4;
                (cfg.spec.image_sectors, cfg.spec.capacity_sectors) = (mib(32), mib(64));
            }
            Workload::DeployMixedAhci => {
                (cfg.spec.image_sectors, cfg.spec.capacity_sectors) = (mib(64), mib(128));
            }
            Workload::UpgradeBatched64 => cfg.n = 4,
        }
        start(workload, seeds, cfg, 2_000, false)
    }

    #[test]
    fn short_runs_pass_the_oracles_with_a_stable_digest() {
        for w in Workload::ALL {
            let a = run(&mut short_world(w, 11));
            let b = run(&mut short_world(w, 11));
            assert_eq!(a.failures, Vec::<String>::new(), "{}", w.name());
            assert!(a.attempted > 0 && a.failed == 0, "{}", w.name());
            assert_eq!(a.digest, b.digest, "{}", w.name());
            assert_eq!(a.latency_ms, b.latency_ms, "{}", w.name());
            let c = run(&mut short_world(w, 12));
            assert_ne!(a.digest, c.digest, "{}: the seed reaches the run", w.name());
        }
    }

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("hit"), None);
    }
}
