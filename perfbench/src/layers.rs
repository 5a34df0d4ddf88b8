//! Per-layer metrics of a traced run. Counts come from the fleet's own
//! telemetry and public counters; host costs come from timing public
//! layer calls from outside the program, at the workload's geometry.

use crate::workloads::{Outcome, World};
use aoe::wire::{frame_checksum, sectors_per_frame, AoePdu, Tag};
use aoe::{AoeServer, ServerConfig};
use bmcast::fleet::{FleetConfig, PEER_SHELF_BASE};
use bmcast::transport::coalesce_runs;
use bmcast::{BlockBitmap, DirtyTracker};
use hwsim::block::{BlockRange, BlockStore, Lba};
use hwsim::disk::{DiskModel, DiskParams};
use simkit::{Prng, Sim, SimDuration, SimTime};
use std::hint::black_box;
use std::time::Instant;

/// One named per-layer value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as in `BENCHMARK.json`.
    pub name: String,
    /// Its value.
    pub value: f64,
    /// Its unit.
    pub unit: String,
}

/// A metric from its parts.
pub fn m(name: &str, value: f64, unit: &str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit: unit.to_string(),
    }
}

/// `num / den`, 0 when there is nothing to divide.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The layer counts of a finished traced run. Events, wire bytes and
/// frames come from the untraced runs instead: the flight recorder's
/// sampler ticks add events of their own.
pub fn counts(world: &World, out: &Outcome) -> Vec<Metric> {
    let fleet = &world.fleet;
    let snap = fleet
        .fleet_snapshot()
        .expect("traced runs enable telemetry");
    let c = |name: &str| snap.counter(name) as f64;
    // Member registries are folded under `fleet.`; both mediators count
    // so one name covers IDE and AHCI machines.
    let med = |what: &str| {
        c(&format!("fleet.mediator.ide.{what}")) + c(&format!("fleet.mediator.ahci.{what}"))
    };
    let (mut peer_reads, mut reads, mut redirected, mut local) = (0u64, 0u64, 0u64, 0u64);
    for i in 0..fleet.len() {
        let machine = fleet.machine(i);
        redirected += machine.stats.redirected_ios;
        local += machine.stats.local_ios;
        if let Some(vmm) = machine.vmm.as_ref() {
            for (&shelf, &n) in vmm.client.reads_by_shelf() {
                reads += n;
                if shelf >= PEER_SHELF_BASE {
                    peer_reads += n;
                }
            }
        }
    }
    let written = c("fleet.bg.blocks_written");
    let discarded = c("fleet.bg.blocks_discarded");
    let server = fleet.server();
    vec![
        m("aoe.client.reads", c("fleet.aoe.client.reads"), "count"),
        m(
            "aoe.client.retransmits",
            c("fleet.aoe.client.retransmits"),
            "count",
        ),
        m(
            "aoe.client.busy_hints",
            c("fleet.aoe.client.busy_hints"),
            "count",
        ),
        m(
            "aoe.client.failures",
            c("fleet.aoe.client.failures"),
            "count",
        ),
        m("aoe.server.requests", c("aoe.server.requests"), "count"),
        m(
            "aoe.server.cache_hit_ratio",
            fleet.cache_hit_ratio(),
            "ratio",
        ),
        m(
            "aoe.server.queue_drops",
            fleet.queue_drops_total() as f64,
            "count",
        ),
        m(
            "aoe.server.queue_dedups",
            server.queue_dedups() as f64,
            "count",
        ),
        m(
            "aoe.server.busy_replies",
            c("aoe.server.busy_replies"),
            "count",
        ),
        m(
            "mediator.interpreted_commands",
            med("interpreted_commands"),
            "count",
        ),
        m("mediator.redirects", med("redirects"), "count"),
        m("mediator.multiplexes", med("multiplexes"), "count"),
        m("mediator.queued_accesses", med("queued_accesses"), "count"),
        m("machine.redirected_ios", redirected as f64, "count"),
        m("machine.local_ios", local as f64, "count"),
        m("bg.fills", c("fleet.bg.fills"), "count"),
        m(
            "bg.useful_ratio",
            ratio(written, written + discarded),
            "ratio",
        ),
        m("fleet.peers_active", fleet.peers_active() as f64, "count"),
        m(
            "fleet.peer_read_share",
            ratio(peer_reads as f64, reads as f64),
            "ratio",
        ),
        m("fleet.boot_host_s", out.boot_host_s, "s"),
        m("snap.sends", c("fleet.snap.sends"), "count"),
        m("snap.send_failures", c("fleet.snap.send_failures"), "count"),
        m(
            "snap.useful_ratio",
            ratio(
                out.dirty_before_wave as f64,
                c("fleet.snap.bytes_sent") / 512.0,
            ),
            "ratio",
        ),
        m("lifecycle.wave_host_s", out.wave_host_s, "s"),
    ]
}

/// Host time of the telemetry exports on the traced fleet.
pub fn telemetry_costs(world: &World) -> Vec<Metric> {
    let fleet = &world.fleet;
    let t = Instant::now();
    black_box(fleet.fleet_snapshot());
    let snapshot_ms = t.elapsed().as_secs_f64() * 1e3;
    let t = Instant::now();
    black_box(fleet.chrome_trace());
    black_box(fleet.straggler_attribution());
    let export_ms = t.elapsed().as_secs_f64() * 1e3;
    vec![
        m("telemetry.snapshot_ms", snapshot_ms, "ms"),
        m("telemetry.export_ms", export_ms, "ms"),
    ]
}

/// Host nanoseconds per call of `f`: the median of five timed batches,
/// each at least `BATCH_MS` long.
fn ns_per_call(mut f: impl FnMut(u64)) -> f64 {
    const BATCH_MS: f64 = 20.0;
    // Size one batch from a short probe.
    let mut calls = 1u64;
    loop {
        let t = Instant::now();
        for i in 0..calls {
            f(i);
        }
        if t.elapsed().as_secs_f64() * 1e3 >= BATCH_MS / 4.0 {
            break;
        }
        calls *= 2;
    }
    calls *= 4;
    let mut per_call: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            for i in 0..calls {
                f(i);
            }
            t.elapsed().as_nanos() as f64 / calls as f64
        })
        .collect();
    per_call.sort_by(f64::total_cmp);
    per_call[2]
}

/// One full-MTU data frame of the workload's wire.
fn full_frame(mtu: u32) -> AoePdu {
    let sectors = sectors_per_frame(mtu);
    let range = BlockRange::new(Lba(4096), sectors);
    let data = range
        .iter()
        .map(|l| BlockStore::image_content(1, l))
        .collect();
    AoePdu::write_request(0, 0, Tag::new(1, 0), range, data)
}

/// Bytes of one full-MTU data frame.
pub fn full_frame_bytes(mtu: u32) -> u32 {
    full_frame(mtu).encoded_len()
}

/// The host-speed witness: ns per byte of [`frame_checksum`] over a
/// fixed 32 MiB pass of full frames. Printed beside the metrics, never
/// used to scale them.
pub fn witness_ns_per_byte() -> f64 {
    let frame = full_frame(9000).encode();
    let passes = (32 << 20) / frame.len();
    let t = Instant::now();
    let mut acc = 0u16;
    for _ in 0..passes {
        acc ^= frame_checksum(black_box(&frame));
    }
    black_box(acc);
    t.elapsed().as_nanos() as f64 / (passes * frame.len()) as f64
}

/// Host cost of single layer calls at `cfg`'s geometry.
pub fn costs(cfg: &FleetConfig) -> Vec<Metric> {
    let mtu = cfg.machine_cfg.mtu;
    let block = cfg.machine_cfg.copy_block_sectors;
    let image = cfg.spec.image_sectors;
    let capacity = cfg.spec.capacity_sectors;

    let mut sim: Sim<u64> = Sim::new();
    let mut world = 0u64;
    let event_floor_ns = ns_per_call(|_| {
        sim.schedule_in(SimDuration::from_nanos(1), |w: &mut u64, _| *w += 1);
        sim.step(&mut world);
    });

    let frame = full_frame(mtu).encode();
    let checksum_ns = ns_per_call(|_| {
        black_box(frame_checksum(black_box(&frame)));
    });
    let pdu = full_frame(mtu);
    let encode_ns = ns_per_call(|_| {
        black_box(black_box(&pdu).encode());
    });
    let decode_ns = ns_per_call(|_| {
        black_box(AoePdu::decode(black_box(&frame)).expect("valid frame"));
    });

    // One copy block read from a server holding the image, walking the
    // image so no block repeats within a batch.
    let blocks = image / block as u64;
    let disk = DiskModel::new(
        DiskParams {
            capacity_sectors: capacity,
            ..DiskParams::default()
        },
        BlockStore::image(capacity, cfg.spec.image_seed),
    );
    let mut server = AoeServer::new(
        ServerConfig {
            mtu,
            ..cfg.server_cfg.clone()
        },
        disk,
    );
    let requests: Vec<Vec<u8>> = (0..blocks.min(256))
        .map(|b| {
            let range = BlockRange::new(Lba(b * block as u64), block);
            AoePdu::read_request(0, 0, Tag::new(b as u32, 0), range).encode()
        })
        .collect();
    let mut now = SimTime::ZERO;
    let handle_ns = ns_per_call(|i| {
        now += SimDuration::from_millis(100);
        let req = &requests[i as usize % requests.len()];
        black_box(server.handle(now, req).expect("valid request"));
    });

    // Claims walk the image block by block; a fresh bitmap replaces a
    // full one outside the claim itself.
    let mut bitmap = BlockBitmap::new(capacity);
    let claim_ns = ns_per_call(|i| {
        let b = i % blocks;
        if b == 0 {
            bitmap = BlockBitmap::new(capacity);
        }
        black_box(bitmap.try_claim(BlockRange::new(Lba(b * block as u64), block)));
    });
    // next_empty over a half-filled image: every other block filled.
    let mut half = BlockBitmap::new(capacity);
    for b in (0..blocks).step_by(2) {
        half.mark_filled(BlockRange::new(Lba(b * block as u64), block));
    }
    let mut rng = Prng::new(0x5EED);
    let froms: Vec<Lba> = (0..1024).map(|_| Lba(rng.below(image))).collect();
    let next_empty_ns = ns_per_call(|i| {
        black_box(half.next_empty(froms[i as usize % froms.len()]));
    });

    // The batched planner's input: eight claims of a copy block, some
    // adjacent, some overlapping, some apart.
    let runs: Vec<BlockRange> = (0..8u64)
        .map(|k| BlockRange::new(Lba(k * 3 * block as u64 / 2), block))
        .collect();
    let coalesce_ns = ns_per_call(|_| {
        black_box(coalesce_runs(black_box(&runs)));
    });

    let mut tracker = DirtyTracker::new(image);
    let writes: Vec<BlockRange> = (0..1024)
        .map(|_| BlockRange::new(Lba(rng.below(image - 256)), 1 + rng.below(256) as u32))
        .collect();
    let record_ns = ns_per_call(|i| {
        tracker.record(writes[i as usize % writes.len()]);
    });

    black_box(world);
    vec![
        m("simkit.event_floor_ns", event_floor_ns, "ns"),
        m(
            "aoe.wire.checksum_ns_per_byte",
            checksum_ns / frame.len() as f64,
            "ns/B",
        ),
        m("aoe.wire.encode_ns", encode_ns, "ns"),
        m("aoe.wire.decode_ns", decode_ns, "ns"),
        m("aoe.server.handle_ns", handle_ns, "ns"),
        m("bitmap.claim_ns", claim_ns, "ns"),
        m("bitmap.next_empty_ns", next_empty_ns, "ns"),
        m("transport.coalesce_ns", coalesce_ns, "ns"),
        m("snapback.record_ns", record_ns, "ns"),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratio_of_nothing_is_zero() {
        assert_eq!(ratio(0.0, 0.0), 0.0);
        assert_eq!(ratio(1.0, 4.0), 0.25);
    }

    #[test]
    fn full_frame_fills_the_mtu() {
        let bytes = full_frame_bytes(9000);
        assert!(bytes <= 9000 + 24 && bytes > 8000, "{bytes}");
        let frame = full_frame(9000).encode();
        assert_eq!(AoePdu::decode(&frame).expect("valid"), full_frame(9000));
    }

    #[test]
    fn ns_per_call_grows_with_the_work() {
        let v: Vec<u64> = (0..4096).collect();
        let small = ns_per_call(|i| {
            black_box(v[..64].iter().fold(i, |a, &x| a ^ x));
        });
        let large = ns_per_call(|i| {
            black_box(v.iter().fold(i, |a, &x| a ^ x));
        });
        assert!(large > small, "large {large} small {small}");
    }
}
