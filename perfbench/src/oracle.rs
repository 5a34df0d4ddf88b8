//! The benchmark's correctness side: the percentile picker its latency
//! metrics use, the simulated-output digest, and the shadow-disk guest
//! whose every completed read is checked against the image or its own
//! latest write.

use bmcast::machine::{GuestCtl, GuestProgram};
use guestsim::io::{CompletedIo, IoRequest, RequestId};
use hwsim::block::{BlockRange, BlockStore, Lba, SectorData};
use simkit::{Prng, SimDuration, SimTime};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Samples beyond the reported tail: the tail is the highest sample
/// that still has this many samples above it.
pub const TAIL_BEYOND: usize = 10;

/// The median (lower middle for an even count) of `sorted`.
pub fn median(sorted: &[f64]) -> f64 {
    assert!(!sorted.is_empty(), "median of no samples");
    sorted[(sorted.len() - 1) / 2]
}

/// The tail sample of ascending `sorted`: the one with exactly
/// [`TAIL_BEYOND`] samples above it, and the percentile it stands at.
/// `None` when there are too few samples to have such a tail.
pub fn tail(sorted: &[f64]) -> Option<(f64, f64)> {
    let n = sorted.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let idx = n - 1 - TAIL_BEYOND;
    Some((sorted[idx], 100.0 * (idx + 1) as f64 / n as f64))
}

/// FNV-1a over the simulated outputs of a run: a run of the same code
/// and seed must reproduce it bit for bit.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds one value in.
    pub fn add(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    /// The digest so far.
    pub fn value(self) -> u64 {
        self.0
    }
}

/// One operation of the guest's closed loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GuestOp {
    /// Sectors touched.
    pub range: BlockRange,
    /// Write (true) or read.
    pub write: bool,
}

/// A seeded closed-loop random I/O stream over the first
/// `span_sectors` of the disk: sizes uniform in
/// `min_sectors..=max_sectors`, start sectors unaligned, writes with
/// probability `write_share`.
pub fn generate_ops(
    seed: u64,
    count: usize,
    span_sectors: u64,
    min_sectors: u32,
    max_sectors: u32,
    write_share: f64,
) -> Vec<GuestOp> {
    let mut rng = Prng::new(seed);
    (0..count)
        .map(|_| {
            let sectors = rng.range(min_sectors as u64, max_sectors as u64) as u32;
            let lba = rng.below(span_sectors - sectors as u64);
            GuestOp {
                range: BlockRange::new(Lba(lba), sectors),
                write: rng.chance(write_share),
            }
        })
        .collect()
}

/// The content a shadow-disk guest writes to `lba` in its `op`-th
/// operation: unique per (op, sector), never zero, and never equal to
/// an image sector by construction of the high bit.
pub fn written_content(op: usize, lba: Lba) -> SectorData {
    SectorData((1 << 63) | ((op as u64) << 32) | (lba.0 & 0xFFFF_FFFF))
}

/// What every sector of the disk must hold: its latest guest write, or
/// else the image's content.
#[derive(Debug)]
pub struct Shadow {
    image_seed: u64,
    written: HashMap<u64, SectorData>,
}

impl Shadow {
    /// A shadow of a freshly deployed `image_seed` image.
    pub fn new(image_seed: u64) -> Shadow {
        Shadow {
            image_seed,
            written: HashMap::new(),
        }
    }

    /// The expected content of `lba`.
    pub fn expected(&self, lba: Lba) -> SectorData {
        self.written
            .get(&lba.0)
            .copied()
            .unwrap_or_else(|| BlockStore::image_content(self.image_seed, lba))
    }

    /// Records a completed write.
    pub fn record_write(&mut self, range: BlockRange, data: &[SectorData]) {
        for (lba, d) in range.iter().zip(data) {
            self.written.insert(lba.0, *d);
        }
    }

    /// Whether a completed read returned exactly the expected content.
    pub fn read_matches(&self, io: &CompletedIo) -> bool {
        io.data.len() == io.range.sectors as usize
            && io
                .range
                .iter()
                .zip(&io.data)
                .all(|(lba, d)| *d == self.expected(lba))
    }
}

/// What the shadow guest hands back to the benchmark after the run.
#[derive(Debug)]
pub struct GuestReport {
    /// Operations the guest was given.
    pub ops: usize,
    /// The shadow disk at the end of the run.
    pub shadow: Shadow,
    /// Simulated latency of every completed I/O, milliseconds.
    pub latency_ms: Vec<f64>,
    /// Completed reads whose data did not match the shadow.
    pub bad_reads: u64,
    /// Completions that did not belong to the operation in flight.
    pub bad_completions: u64,
    /// When the last operation completed.
    pub finished_at: Option<SimTime>,
}

/// A closed-loop guest: one operation in flight, a fixed think time
/// between a completion and the next submission, and every completed
/// read checked against the shadow disk.
pub struct ShadowGuest {
    ops: Vec<GuestOp>,
    next: usize,
    submitted_at: SimTime,
    think: SimDuration,
    report: Arc<Mutex<GuestReport>>,
}

impl ShadowGuest {
    /// A guest that runs `ops` against an `image_seed` disk and
    /// publishes its results through the returned handle.
    pub fn new(
        ops: Vec<GuestOp>,
        image_seed: u64,
        think: SimDuration,
    ) -> (ShadowGuest, Arc<Mutex<GuestReport>>) {
        let report = Arc::new(Mutex::new(GuestReport {
            ops: ops.len(),
            shadow: Shadow::new(image_seed),
            latency_ms: Vec::with_capacity(ops.len()),
            bad_reads: 0,
            bad_completions: 0,
            finished_at: None,
        }));
        let guest = ShadowGuest {
            ops,
            next: 0,
            submitted_at: SimTime::ZERO,
            think,
            report: Arc::clone(&report),
        };
        (guest, report)
    }

    fn submit_next(&mut self, ctl: &mut GuestCtl) {
        let Some(op) = self.ops.get(self.next) else {
            self.report.lock().expect("guest report lock").finished_at = Some(ctl.now());
            ctl.finish();
            return;
        };
        let id = RequestId(self.next as u64);
        self.submitted_at = ctl.now();
        let req = if op.write {
            let data = op
                .range
                .iter()
                .map(|l| written_content(self.next, l))
                .collect();
            IoRequest::write(id, op.range, data)
        } else {
            IoRequest::read(id, op.range)
        };
        ctl.submit(req);
    }

    /// Checks one completion against the operation in flight and the
    /// shadow disk, updating the shadow on writes.
    fn check(&self, io: &CompletedIo, report: &mut GuestReport) {
        let Some(op) = self.ops.get(self.next) else {
            report.bad_completions += 1;
            return;
        };
        if io.id != RequestId(self.next as u64) || io.range != op.range || io.write != op.write {
            report.bad_completions += 1;
            return;
        }
        if io.write {
            let data: Vec<SectorData> = op
                .range
                .iter()
                .map(|l| written_content(self.next, l))
                .collect();
            report.shadow.record_write(op.range, &data);
        } else if !report.shadow.read_matches(io) {
            report.bad_reads += 1;
        }
    }
}

impl GuestProgram for ShadowGuest {
    fn name(&self) -> &str {
        "shadow-random-io"
    }

    fn start(&mut self, ctl: &mut GuestCtl) {
        self.submit_next(ctl);
    }

    fn on_io_complete(&mut self, io: &CompletedIo, ctl: &mut GuestCtl) {
        {
            let mut report = self.report.lock().expect("guest report lock");
            self.check(io, &mut report);
            let latency = ctl.now().saturating_duration_since(self.submitted_at);
            report.latency_ms.push(latency.as_secs_f64() * 1e3);
        }
        self.next += 1;
        ctl.compute(self.think, 0.0, 0);
    }

    fn on_timer(&mut self, _token: u64, ctl: &mut GuestCtl) {
        self.submit_next(ctl);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_has_exactly_ten_samples_above_it() {
        let sorted: Vec<f64> = (1..=64).map(f64::from).collect();
        let (v, pct) = tail(&sorted).expect("64 samples have a tail");
        assert_eq!(v, 54.0);
        assert_eq!(sorted.iter().filter(|&&s| s > v).count(), TAIL_BEYOND);
        assert!((pct - 84.375).abs() < 1e-9, "p{pct}");
    }

    #[test]
    fn tail_needs_more_than_ten_samples() {
        let ten: Vec<f64> = (0..10).map(f64::from).collect();
        assert_eq!(tail(&ten), None);
        let eleven: Vec<f64> = (0..11).map(f64::from).collect();
        assert_eq!(tail(&eleven), Some((0.0, 100.0 / 11.0)));
    }

    #[test]
    fn median_takes_the_lower_middle() {
        assert_eq!(median(&[1.0, 2.0, 3.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.0);
    }

    fn read_of(shadow: &Shadow, range: BlockRange) -> CompletedIo {
        CompletedIo {
            id: RequestId(0),
            range,
            write: false,
            data: range.iter().map(|l| shadow.expected(l)).collect(),
        }
    }

    #[test]
    fn shadow_accepts_image_bytes_and_latest_writes() {
        let mut shadow = Shadow::new(0xB00C);
        let w = BlockRange::new(Lba(10), 4);
        let first: Vec<_> = w.iter().map(|l| written_content(1, l)).collect();
        let second: Vec<_> = w.iter().map(|l| written_content(2, l)).collect();
        shadow.record_write(w, &first);
        shadow.record_write(w, &second);
        let io = read_of(&shadow, BlockRange::new(Lba(8), 8));
        assert_eq!(io.data[0], BlockStore::image_content(0xB00C, Lba(8)));
        assert_eq!(io.data[2], second[0]);
        assert!(shadow.read_matches(&io));
    }

    #[test]
    fn shadow_rejects_a_corrupted_read() {
        let mut shadow = Shadow::new(7);
        let w = BlockRange::new(Lba(100), 2);
        let data: Vec<_> = w.iter().map(|l| written_content(3, l)).collect();
        shadow.record_write(w, &data);
        let range = BlockRange::new(Lba(96), 8);

        let mut flipped = read_of(&shadow, range);
        flipped.data[1].0 ^= 1;
        assert!(!shadow.read_matches(&flipped), "flipped image sector");

        let mut stale = read_of(&shadow, range);
        stale.data[4] = BlockStore::image_content(7, Lba(100));
        assert!(!shadow.read_matches(&stale), "pre-write content");

        let mut short = read_of(&shadow, range);
        short.data.pop();
        assert!(!shadow.read_matches(&short), "short read");
    }

    #[test]
    fn guest_counts_a_corrupted_completion() {
        let ops = vec![GuestOp {
            range: BlockRange::new(Lba(0), 2),
            write: false,
        }];
        let (guest, report) = ShadowGuest::new(ops, 5, SimDuration::ZERO);
        let mut io = CompletedIo {
            id: RequestId(0),
            range: BlockRange::new(Lba(0), 2),
            write: false,
            data: vec![
                BlockStore::image_content(5, Lba(0)),
                BlockStore::image_content(5, Lba(1)),
            ],
        };
        let mut r = report.lock().unwrap();
        guest.check(&io, &mut r);
        assert_eq!(r.bad_reads, 0);
        io.data[1] = SectorData::ZERO;
        guest.check(&io, &mut r);
        assert_eq!(r.bad_reads, 1);
        io.id = RequestId(9);
        guest.check(&io, &mut r);
        assert_eq!(r.bad_completions, 1);
    }

    #[test]
    fn ops_stay_inside_the_span_and_repeat_per_seed() {
        let a = generate_ops(3, 1000, 4096, 8, 64, 0.3);
        assert_eq!(a, generate_ops(3, 1000, 4096, 8, 64, 0.3));
        assert_ne!(a, generate_ops(4, 1000, 4096, 8, 64, 0.3));
        assert!(a
            .iter()
            .all(|o| o.range.end().0 <= 4096 && (8..=64).contains(&o.range.sectors)));
        let writes = a.iter().filter(|o| o.write).count();
        assert!((200..400).contains(&writes), "{writes} writes");
    }
}
