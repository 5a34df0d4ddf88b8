//! AoE wire format: PDU encode/decode and fragmentation tags.
//!
//! The PDU layout follows the AoE specification: a 10-byte AoE header
//! (after the Ethernet header, which [`hwsim::eth`] models separately)
//! followed by a 12-byte ATA argument section and the sector payload.
//! Sector *contents* in the simulation are 64-bit fingerprints; on the
//! wire each sector is carried as its fingerprint in the first 8 bytes of
//! a 512-byte unit, so encoded sizes are exactly what real AoE would put
//! on the fabric.
//!
//! # Frame layout
//!
//! One table for the whole header, including every formerly-reserved
//! field this codebase has repurposed (they accreted across versions and
//! their docs had drifted apart):
//!
//! | Bytes | Field            | Meaning                                                        |
//! |-------|------------------|----------------------------------------------------------------|
//! | 0     | flags/version    | `ver << 4 \| R (0x08, response) \| E (0x04, error)`            |
//! | 1     | error            | AoE error code, valid when E is set                            |
//! | 2–3   | shelf            | Major address, big-endian                                      |
//! | 4     | slot             | Minor address                                                  |
//! | 5     | command          | 0 = ATA (the only command BMcast uses)                         |
//! | 6–9   | tag              | Big-endian; `request_id (20 bits) << 12 \| fragment (12 bits)` |
//! | 10    | aflags           | bit 0 write, bit 1 sprint (completion priority, requests only), bit 2 rdma lane |
//! | 11    | err/feature      | bit 0 server-busy hint (responses only)                        |
//! | 12–15 | sector count     | Big-endian; for v3 the *total* across the range table          |
//! | 16–21 | lba              | 48-bit big-endian; for v3 the first run's LBA                  |
//! | 22–23 | checksum         | Former reserved trailer: folded FNV-1a 64 over the frame with these two bytes zeroed |
//! | 24–   | payload          | v2: 512-byte sector units; v3: the range table (below)         |
//!
//! Version history of the repurposed fields: **v2** turned the two
//! reserved trailer bytes (22–23) into the frame checksum, put the
//! server-busy hint in the spare err/feature byte (11), and claimed
//! aflags bit 1 for the completion-priority (sprint) hint. Version-1
//! frames (none of the above) are rejected as
//! [`DecodeError::BadVersion`].
//!
//! # Version 3: multi-range (batched) read requests
//!
//! A v3 frame is a *read request* carrying a table of block runs instead
//! of sector payload, so one frame can ask for many coalesced
//! dirty/missing runs at once (the batched transport). The payload is:
//!
//! | Bytes          | Field     | Meaning                              |
//! |----------------|-----------|--------------------------------------|
//! | 24–25          | run count | Big-endian, ≥ 1                      |
//! | 26 + 10·i …    | run *i*   | 48-bit big-endian LBA (6 bytes) then big-endian sector count (4 bytes) |
//!
//! The header's sector count holds the total across all runs and the
//! header LBA holds the first run's LBA (the canonical form; decode
//! rejects frames where they disagree with the table). The table is
//! checksummed with the rest of the frame.
//!
//! ## Version negotiation
//!
//! * Requests: v2 single-range always works; a client configured for the
//!   batched or RDMA transport may send v3 multi-range *reads*. Writes
//!   and responses are always v2 — a v3 frame with the write aflag is
//!   rejected as [`DecodeError::BadRangeTable`].
//! * Responses: servers answer v3 reads with ordinary v2 response
//!   fragments whose fragment indices run globally across the run table
//!   in order, so the client's reassembly path is version-blind.
//! * The rdma aflag (bit 2) may ride on v2 or v3 requests; servers echo
//!   it on every response fragment so the fabric can route the reply
//!   burst over the IB lane with a cheap peek ([`peek_rdma`]).
//! * v1 (no checksum) and unknown versions are rejected as
//!   [`DecodeError::BadVersion`] and dropped by the routing peek.

use hwsim::block::{BlockRange, Lba, SectorData, SECTOR_SIZE};
use std::fmt;
use std::sync::Arc;

/// An encoded frame as shared immutable bytes.
///
/// Frames fan out along the data path — kept pending for
/// retransmission, queued on NIC rings, scheduled across the fabric —
/// and `Arc<[u8]>` makes every one of those hand-offs a reference-count
/// bump instead of a payload copy.
pub type FrameBytes = Arc<[u8]>;

/// AoE + ATA-argument header size in bytes (excludes the Ethernet header).
pub const AOE_HEADER_BYTES: u32 = 24;

/// AoE protocol version carried in every PDU. Version 2 adds the frame
/// checksum in the former reserved bytes; older frames are rejected.
pub const AOE_VERSION: u8 = 2;

/// Version of multi-range (batched) read requests: the payload is a
/// range table rather than sector data. Responses are always plain v2.
pub const AOE_VERSION_BATCH: u8 = 3;

/// Bytes per entry in a v3 range table: 48-bit LBA + 32-bit sectors.
const RANGE_ENTRY_BYTES: usize = 10;

/// Byte offset of the 16-bit frame checksum within the header.
const CHECKSUM_OFFSET: usize = 22;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// `FNV_PRIME^(8·i) mod 2^64` for `i = 0..=64`. FNV-1a folds a zero byte
/// in as a bare multiply by the prime (`h ^ 0 = h`), so a run of `8·i`
/// zero bytes is one multiply by entry `i`.
const ZERO_WORDS: [u64; 65] = {
    let mut prime8 = 1u64;
    let mut i = 0;
    while i < 8 {
        prime8 = prime8.wrapping_mul(FNV_PRIME);
        i += 1;
    }
    let mut table = [1u64; 65];
    let mut i = 1;
    while i < table.len() {
        table[i] = table[i - 1].wrapping_mul(prime8);
        i += 1;
    }
    table
};

/// The FNV-1a 64 accumulator behind [`frame_checksum`]. Both the scan
/// (decode) and the encoder feed it, so there is one hash definition.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(FNV_OFFSET)
    }

    fn byte(&mut self, b: u8) {
        self.0 = (self.0 ^ b as u64).wrapping_mul(FNV_PRIME);
    }

    fn bytes(&mut self, bs: &[u8]) {
        for &b in bs {
            self.byte(b);
        }
    }

    /// Folds in `n` zero bytes: `h·P^n`, one multiply per 512 bytes plus
    /// one per byte past the last whole 8-byte word.
    fn zeros(&mut self, n: usize) {
        let mut words = n / 8;
        while words > 64 {
            self.0 = self.0.wrapping_mul(ZERO_WORDS[64]);
            words -= 64;
        }
        self.0 = self.0.wrapping_mul(ZERO_WORDS[words]);
        for _ in 0..n % 8 {
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    /// Folds the 64-bit state to the 16-bit wire checksum.
    fn fold(self) -> u16 {
        let h = self.0;
        (h ^ (h >> 16) ^ (h >> 32) ^ (h >> 48)) as u16
    }
}

/// The 16-bit frame checksum: FNV-1a 64 over the whole frame with the
/// checksum field treated as zero, folded to 16 bits. It misses about
/// one corruption in 2^16 (no single-bit guarantee, unlike a CRC) and is
/// cheap enough to run on every frame.
///
/// Every byte is read, but zero 8-byte words are folded in as runs
/// (`h·P^k`), so the cost follows the frame's nonzero content rather
/// than its length; the value is bit-identical to byte-serial FNV-1a.
pub fn frame_checksum(bytes: &[u8]) -> u16 {
    let mut h = Fnv::new();
    let head = bytes.len().min(CHECKSUM_OFFSET);
    let body_start = bytes.len().min(CHECKSUM_OFFSET + 2);
    h.bytes(&bytes[..head]);
    // The checksum field hashes as zero: it opens the pending zero run.
    let mut run = body_start - head;
    let mut words = bytes[body_start..].chunks_exact(8);
    for word in &mut words {
        if word == [0u8; 8] {
            run += 8;
        } else {
            h.zeros(run);
            run = 0;
            h.bytes(word);
        }
    }
    h.zeros(run);
    h.bytes(words.remainder());
    h.fold()
}

/// A fragmentation-aware tag: `(request id, fragment index)` packed into
/// the 32-bit AoE tag field — the paper's extension ("the VMM sets the tag
/// field in an AoE header to determine the offset of a received
/// fragment").
///
/// # Examples
///
/// ```
/// use aoe::wire::Tag;
/// let t = Tag::new(7, 3);
/// assert_eq!(t.request_id(), 7);
/// assert_eq!(t.fragment(), 3);
/// assert_eq!(Tag::from_raw(t.raw()), t);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Tag(u32);

impl Tag {
    /// Maximum request id (20 bits).
    pub const MAX_REQUEST_ID: u32 = (1 << 20) - 1;
    /// Maximum fragment index (12 bits).
    pub const MAX_FRAGMENT: u32 = (1 << 12) - 1;

    /// Packs a request id and fragment index.
    ///
    /// # Panics
    ///
    /// Panics if either field exceeds its width.
    pub fn new(request_id: u32, fragment: u32) -> Tag {
        assert!(request_id <= Self::MAX_REQUEST_ID, "request id too large");
        assert!(fragment <= Self::MAX_FRAGMENT, "fragment index too large");
        Tag((request_id << 12) | fragment)
    }

    /// Reconstructs a tag from its raw field value.
    pub fn from_raw(raw: u32) -> Tag {
        Tag(raw)
    }

    /// The raw 32-bit field value.
    pub fn raw(self) -> u32 {
        self.0
    }

    /// The request id.
    pub fn request_id(self) -> u32 {
        self.0 >> 12
    }

    /// The fragment index within the request.
    pub fn fragment(self) -> u32 {
        self.0 & 0xFFF
    }
}

impl fmt::Display for Tag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "req {} frag {}", self.request_id(), self.fragment())
    }
}

/// AoE command codes (subset: ATA is all BMcast needs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AoeCommand {
    /// Issue an ATA command (command code 0).
    Ata,
}

/// A decoded AoE protocol data unit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AoePdu {
    /// True for responses (the R flag).
    pub response: bool,
    /// Error flag (the E flag); set with `error` code.
    pub error: Option<u8>,
    /// Shelf address (major).
    pub shelf: u16,
    /// Slot address (minor).
    pub slot: u8,
    /// Fragmentation tag.
    pub tag: Tag,
    /// True for writes (device receives data), false for reads.
    pub write: bool,
    /// Completion-priority hint on requests (aflags bit 1): the sender's
    /// deployment bitmap is nearly full and finishing it converts the
    /// machine into a serving peer, so the server may weight this
    /// client's scheduling quantum up. Never set on responses.
    pub sprint: bool,
    /// Server-busy hint piggybacked on responses (spare err/feature
    /// byte): the server is congested and elastic traffic — the
    /// background copy — should back off. Never set on requests.
    pub busy: bool,
    /// RDMA-lane flag (aflags bit 2): the request asks for one-sided
    /// service priced by the IB fabric rather than the server's worker
    /// pool, and the server echoes the flag on every response fragment
    /// so the fabric routes the reply burst over the IB lane.
    pub rdma: bool,
    /// Target sectors. For a response fragment this is the fragment's own
    /// span, not the whole request's; for a v3 multi-range request it is
    /// the canonical cover (first run's LBA, total sectors).
    pub range: BlockRange,
    /// The v3 range table: the block runs a multi-range read requests,
    /// in table order. Empty for every v2 frame.
    pub ranges: Vec<BlockRange>,
    /// Sector payload: present on write requests and read responses.
    pub data: Option<Vec<SectorData>>,
}

impl AoePdu {
    /// A read request for `range`.
    pub fn read_request(shelf: u16, slot: u8, tag: Tag, range: BlockRange) -> AoePdu {
        AoePdu {
            response: false,
            error: None,
            shelf,
            slot,
            tag,
            write: false,
            sprint: false,
            busy: false,
            rdma: false,
            range,
            ranges: Vec::new(),
            data: None,
        }
    }

    /// A v3 multi-range read request for `runs` (the batched transport).
    /// The header range is the canonical cover: first run's LBA, total
    /// sectors across the table.
    ///
    /// # Panics
    ///
    /// Panics if `runs` is empty, holds a zero-sector run, or exceeds
    /// the 16-bit table count.
    pub fn read_multi_request(shelf: u16, slot: u8, tag: Tag, runs: Vec<BlockRange>) -> AoePdu {
        assert!(!runs.is_empty(), "multi-range read needs at least one run");
        assert!(runs.len() <= u16::MAX as usize, "range table count overflow");
        let total: u32 = runs
            .iter()
            .map(|r| {
                assert!(r.sectors > 0, "zero-sector run");
                r.sectors
            })
            .sum();
        AoePdu {
            response: false,
            error: None,
            shelf,
            slot,
            tag,
            write: false,
            sprint: false,
            busy: false,
            rdma: false,
            range: BlockRange::new(runs[0].lba, total),
            ranges: runs,
            data: None,
        }
    }

    /// A write request carrying `data` for `range`.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != range.sectors`.
    pub fn write_request(
        shelf: u16,
        slot: u8,
        tag: Tag,
        range: BlockRange,
        data: Vec<SectorData>,
    ) -> AoePdu {
        assert_eq!(data.len(), range.sectors as usize, "payload/range mismatch");
        AoePdu {
            response: false,
            error: None,
            shelf,
            slot,
            tag,
            write: true,
            sprint: false,
            busy: false,
            rdma: false,
            range,
            ranges: Vec::new(),
            data: Some(data),
        }
    }

    /// Encoded size in bytes (header + payload).
    pub fn encoded_len(&self) -> u32 {
        let payload = if self.ranges.is_empty() {
            self.data
                .as_ref()
                .map(|d| d.len() as u32 * SECTOR_SIZE as u32)
                .unwrap_or(0)
        } else {
            2 + RANGE_ENTRY_BYTES as u32 * self.ranges.len() as u32
        };
        AOE_HEADER_BYTES + payload
    }

    /// Encodes to bytes.
    pub fn encode(&self) -> Vec<u8> {
        let ver = if self.ranges.is_empty() {
            AOE_VERSION
        } else {
            AOE_VERSION_BATCH
        };
        let mut out = Vec::with_capacity(self.encoded_len() as usize);
        out.push(ver << 4
            | if self.response { 0x08 } else { 0 }
            | if self.error.is_some() { 0x04 } else { 0 });
        out.push(self.error.unwrap_or(0));
        out.extend_from_slice(&self.shelf.to_be_bytes());
        out.push(self.slot);
        out.push(0); // command: ATA
        out.extend_from_slice(&self.tag.raw().to_be_bytes());
        // ATA argument section.
        // aflags: bit 0 direction, bit 1 completion-priority (sprint),
        // bit 2 rdma lane.
        out.push(
            if self.write { 0x01 } else { 0x00 }
                | if self.sprint { 0x02 } else { 0x00 }
                | if self.rdma { 0x04 } else { 0x00 },
        );
        out.push(if self.busy { 0x01 } else { 0x00 }); // err/feature: busy hint
        out.extend_from_slice(&self.range.sectors.to_be_bytes());
        let lba = self.range.lba.0.to_be_bytes();
        out.extend_from_slice(&lba[2..8]); // 48-bit LBA
        out.extend_from_slice(&[0, 0]); // checksum, patched below

        // The checksum is accumulated as the payload is written, from
        // the layout rather than by re-scanning the frame.
        let mut h = Fnv::new();
        h.bytes(&out[..CHECKSUM_OFFSET]);
        h.zeros(2);
        if !self.ranges.is_empty() {
            // v3 payload: the range table.
            debug_assert!(self.data.is_none(), "multi-range frames carry no sectors");
            out.extend_from_slice(&(self.ranges.len() as u16).to_be_bytes());
            for r in &self.ranges {
                let lba = r.lba.0.to_be_bytes();
                out.extend_from_slice(&lba[2..8]);
                out.extend_from_slice(&r.sectors.to_be_bytes());
            }
            h.bytes(&out[AOE_HEADER_BYTES as usize..]);
        } else if let Some(data) = &self.data {
            // v2 payload: one 512-byte unit per sector, fingerprint in
            // the first 8 bytes, remainder zero.
            for s in data {
                let fingerprint = s.0.to_be_bytes();
                out.extend_from_slice(&fingerprint);
                out.resize(out.len() + (SECTOR_SIZE as usize - 8), 0);
                h.bytes(&fingerprint);
                h.zeros(SECTOR_SIZE as usize - 8);
            }
        }
        let sum = h.fold();
        debug_assert_eq!(sum, frame_checksum(&out));
        out[CHECKSUM_OFFSET..CHECKSUM_OFFSET + 2].copy_from_slice(&sum.to_be_bytes());
        debug_assert_eq!(out.len() as u32, self.encoded_len());
        out
    }

    /// Encodes to shared immutable bytes, ready to be held pending and
    /// put on the wire without further copies.
    pub fn encode_frame(&self) -> FrameBytes {
        self.encode().into()
    }

    /// Decodes a PDU from bytes.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] on short input, a bad version, or a payload
    /// that is not a whole number of sectors.
    pub fn decode(bytes: &[u8]) -> Result<AoePdu, DecodeError> {
        if bytes.len() < AOE_HEADER_BYTES as usize {
            return Err(DecodeError::Truncated {
                got: bytes.len(),
                need: AOE_HEADER_BYTES as usize,
            });
        }
        let ver = bytes[0] >> 4;
        if ver != AOE_VERSION && ver != AOE_VERSION_BATCH {
            return Err(DecodeError::BadVersion(ver));
        }
        let want = u16::from_be_bytes([bytes[CHECKSUM_OFFSET], bytes[CHECKSUM_OFFSET + 1]]);
        let got = frame_checksum(bytes);
        if got != want {
            return Err(DecodeError::BadChecksum { got, want });
        }
        let response = bytes[0] & 0x08 != 0;
        let error = (bytes[0] & 0x04 != 0).then_some(bytes[1]);
        let shelf = u16::from_be_bytes([bytes[2], bytes[3]]);
        let slot = bytes[4];
        let tag = Tag::from_raw(u32::from_be_bytes([bytes[6], bytes[7], bytes[8], bytes[9]]));
        let write = bytes[10] & 0x01 != 0;
        let sprint = bytes[10] & 0x02 != 0;
        let rdma = bytes[10] & 0x04 != 0;
        let busy = bytes[11] & 0x01 != 0;
        let sectors = u32::from_be_bytes([bytes[12], bytes[13], bytes[14], bytes[15]]);
        if sectors == 0 {
            return Err(DecodeError::EmptyRange);
        }
        let mut lba_bytes = [0u8; 8];
        lba_bytes[2..8].copy_from_slice(&bytes[16..22]);
        let range = BlockRange::new(Lba(u64::from_be_bytes(lba_bytes)), sectors);

        let payload = &bytes[AOE_HEADER_BYTES as usize..];
        let (ranges, data) = if ver == AOE_VERSION_BATCH {
            (Self::decode_range_table(write, range, payload)?, None)
        } else if payload.is_empty() {
            (Vec::new(), None)
        } else {
            if !payload.len().is_multiple_of(SECTOR_SIZE as usize) {
                return Err(DecodeError::RaggedPayload(payload.len()));
            }
            let data = payload
                .chunks_exact(SECTOR_SIZE as usize)
                .map(|c| {
                    SectorData(u64::from_be_bytes([
                        c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7],
                    ]))
                })
                .collect();
            (Vec::new(), Some(data))
        };
        Ok(AoePdu {
            response,
            error,
            shelf,
            slot,
            tag,
            write,
            sprint,
            busy,
            rdma,
            range,
            ranges,
            data,
        })
    }

    /// Parses and validates a v3 range table against the header's
    /// canonical cover. Total — every malformation is a
    /// [`DecodeError::BadRangeTable`], never a panic.
    fn decode_range_table(
        write: bool,
        cover: BlockRange,
        payload: &[u8],
    ) -> Result<Vec<BlockRange>, DecodeError> {
        // Multi-range applies to reads only (negotiation rule): batched
        // snapback coalesces into single-range v2 writes instead.
        if write || payload.len() < 2 {
            return Err(DecodeError::BadRangeTable(payload.len()));
        }
        let count = u16::from_be_bytes([payload[0], payload[1]]) as usize;
        if count == 0 || payload.len() != 2 + count * RANGE_ENTRY_BYTES {
            return Err(DecodeError::BadRangeTable(payload.len()));
        }
        let mut runs = Vec::with_capacity(count);
        let mut total: u64 = 0;
        for entry in payload[2..].chunks_exact(RANGE_ENTRY_BYTES) {
            let mut lba_bytes = [0u8; 8];
            lba_bytes[2..8].copy_from_slice(&entry[..6]);
            let sectors = u32::from_be_bytes([entry[6], entry[7], entry[8], entry[9]]);
            if sectors == 0 {
                return Err(DecodeError::BadRangeTable(payload.len()));
            }
            total += sectors as u64;
            runs.push(BlockRange::new(Lba(u64::from_be_bytes(lba_bytes)), sectors));
        }
        // The header must carry the canonical cover, so there is exactly
        // one encoding of a given run set and decode→encode is a
        // byte-level fixpoint.
        if total != cover.sectors as u64 || runs[0].lba != cover.lba {
            return Err(DecodeError::BadRangeTable(payload.len()));
        }
        Ok(runs)
    }
}

/// Reads the shelf/slot address out of an encoded frame without a full
/// decode — the fabric's routing peek. Returns `None` when the frame is
/// shorter than the fixed header or carries an unknown version; checksum
/// validation is left to the addressed server's real decode.
pub fn peek_shelf_slot(bytes: &[u8]) -> Option<(u16, u8)> {
    if bytes.len() < AOE_HEADER_BYTES as usize {
        return None;
    }
    let ver = bytes[0] >> 4;
    if ver != AOE_VERSION && ver != AOE_VERSION_BATCH {
        return None;
    }
    Some((u16::from_be_bytes([bytes[2], bytes[3]]), bytes[4]))
}

/// Reads the rdma-lane aflag out of an encoded frame without a full
/// decode — the fabric's lane peek for routing RDMA reply bursts past
/// the Ethernet egress queue. Unknown versions and short frames answer
/// `false` (they are not RDMA traffic, whatever else they are).
pub fn peek_rdma(bytes: &[u8]) -> bool {
    peek_shelf_slot(bytes).is_some() && bytes[10] & 0x04 != 0
}

/// Errors from [`AoePdu::decode`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// Input shorter than the fixed header.
    Truncated {
        /// Bytes available.
        got: usize,
        /// Bytes required.
        need: usize,
    },
    /// Unknown protocol version.
    BadVersion(u8),
    /// Frame checksum mismatch (corruption in flight).
    BadChecksum {
        /// Checksum computed over the received bytes.
        got: u16,
        /// Checksum carried in the frame.
        want: u16,
    },
    /// Sector count of zero.
    EmptyRange,
    /// Payload not a whole number of sectors.
    RaggedPayload(usize),
    /// v3 range table malformed: wrong payload length for its count,
    /// zero runs, a zero-sector run, a header cover disagreeing with
    /// the table, or the write aflag on a multi-range frame. Carries
    /// the payload length.
    BadRangeTable(usize),
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Truncated { got, need } => {
                write!(f, "truncated pdu: {got} bytes, need {need}")
            }
            DecodeError::BadVersion(v) => write!(f, "unsupported aoe version {v}"),
            DecodeError::BadChecksum { got, want } => {
                write!(f, "frame checksum mismatch: got {got:#06x}, want {want:#06x}")
            }
            DecodeError::EmptyRange => write!(f, "sector count of zero"),
            DecodeError::RaggedPayload(n) => {
                write!(f, "payload of {n} bytes is not sector-aligned")
            }
            DecodeError::BadRangeTable(n) => {
                write!(f, "malformed multi-range table ({n} payload bytes)")
            }
        }
    }
}

impl std::error::Error for DecodeError {}

/// How many sectors fit in one response frame at the given MTU.
///
/// # Panics
///
/// Panics if the MTU cannot fit the header plus one sector.
pub fn sectors_per_frame(mtu: u32) -> u32 {
    let n = (mtu.saturating_sub(AOE_HEADER_BYTES)) / SECTOR_SIZE as u32;
    assert!(n > 0, "mtu {mtu} cannot carry even one sector");
    n
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tag_packing_round_trips() {
        for (req, frag) in [(0, 0), (1, 5), (Tag::MAX_REQUEST_ID, Tag::MAX_FRAGMENT)] {
            let t = Tag::new(req, frag);
            assert_eq!(t.request_id(), req);
            assert_eq!(t.fragment(), frag);
            assert_eq!(Tag::from_raw(t.raw()), t);
        }
    }

    #[test]
    #[should_panic(expected = "request id too large")]
    fn oversized_request_id_panics() {
        Tag::new(Tag::MAX_REQUEST_ID + 1, 0);
    }

    #[test]
    fn read_request_round_trips() {
        let pdu = AoePdu::read_request(3, 1, Tag::new(42, 0), BlockRange::new(Lba(0xABCDEF), 16));
        let bytes = pdu.encode();
        assert_eq!(bytes.len() as u32, AOE_HEADER_BYTES);
        assert_eq!(AoePdu::decode(&bytes).unwrap(), pdu);
    }

    #[test]
    fn busy_hint_round_trips_and_is_checksummed() {
        let mut pdu = AoePdu::read_request(0, 0, Tag::new(9, 0), BlockRange::new(Lba(64), 8));
        pdu.response = true;
        pdu.busy = true;
        let bytes = pdu.encode();
        assert_eq!(bytes[11], 0x01, "busy rides the spare err/feature byte");
        assert!(AoePdu::decode(&bytes).unwrap().busy);
        // Flipping the busy bit in flight must fail the frame checksum,
        // like any other payload mutation.
        let mut mutated = bytes.clone();
        mutated[11] ^= 0x01;
        assert!(matches!(
            AoePdu::decode(&mutated),
            Err(DecodeError::BadChecksum { .. })
        ));
    }

    #[test]
    fn sprint_flag_round_trips_and_is_checksummed() {
        let mut pdu = AoePdu::read_request(0, 0, Tag::new(4, 0), BlockRange::new(Lba(128), 8));
        pdu.sprint = true;
        let bytes = pdu.encode();
        assert_eq!(bytes[10], 0x02, "sprint rides aflags bit 1");
        assert!(AoePdu::decode(&bytes).unwrap().sprint);
        let mut mutated = bytes.clone();
        mutated[10] ^= 0x02;
        assert!(matches!(
            AoePdu::decode(&mutated),
            Err(DecodeError::BadChecksum { .. })
        ));
        // A plain request encodes exactly as before the flag existed.
        pdu.sprint = false;
        assert_eq!(pdu.encode()[10], 0x00);
    }

    #[test]
    fn peek_shelf_slot_matches_full_decode() {
        let pdu = AoePdu::read_request(0x1042, 3, Tag::new(7, 0), BlockRange::new(Lba(9), 4));
        let bytes = pdu.encode();
        assert_eq!(peek_shelf_slot(&bytes), Some((0x1042, 3)));
        assert_eq!(peek_shelf_slot(&bytes[..10]), None, "short frame");
        let mut v1 = bytes.clone();
        v1[0] = 0x10;
        assert_eq!(peek_shelf_slot(&v1), None, "unknown version");
    }

    #[test]
    fn write_request_round_trips_with_payload() {
        let data: Vec<SectorData> = (0..4).map(|i| SectorData(1000 + i)).collect();
        let pdu = AoePdu::write_request(0, 0, Tag::new(1, 0), BlockRange::new(Lba(77), 4), data);
        let bytes = pdu.encode();
        assert_eq!(bytes.len() as u32, AOE_HEADER_BYTES + 4 * 512);
        assert_eq!(AoePdu::decode(&bytes).unwrap(), pdu);
    }

    #[test]
    fn response_flag_round_trips() {
        let mut pdu = AoePdu::read_request(0, 0, Tag::new(9, 2), BlockRange::new(Lba(5), 2));
        pdu.response = true;
        pdu.data = Some(vec![SectorData(1), SectorData(2)]);
        let decoded = AoePdu::decode(&pdu.encode()).unwrap();
        assert!(decoded.response);
        assert_eq!(decoded.tag.fragment(), 2);
        assert_eq!(decoded.data.unwrap(), vec![SectorData(1), SectorData(2)]);
    }

    #[test]
    fn error_flag_round_trips() {
        let mut pdu = AoePdu::read_request(0, 0, Tag::new(1, 0), BlockRange::new(Lba(1), 1));
        pdu.response = true;
        pdu.error = Some(2);
        let decoded = AoePdu::decode(&pdu.encode()).unwrap();
        assert_eq!(decoded.error, Some(2));
    }

    #[test]
    fn large_lba_round_trips() {
        let lba = Lba((1 << 48) - 1);
        let pdu = AoePdu::read_request(0, 0, Tag::new(1, 0), BlockRange::new(lba, 1));
        assert_eq!(AoePdu::decode(&pdu.encode()).unwrap().range.lba, lba);
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(matches!(
            AoePdu::decode(&[0u8; 4]),
            Err(DecodeError::Truncated { .. })
        ));
        let mut bytes = AoePdu::read_request(0, 0, Tag::new(1, 0), BlockRange::new(Lba(1), 1))
            .encode();
        bytes[0] = 0x10; // version 1: pre-checksum wire format
        assert_eq!(AoePdu::decode(&bytes), Err(DecodeError::BadVersion(1)));
    }

    #[test]
    fn decode_rejects_corrupted_frames() {
        let data: Vec<SectorData> = (0..3).map(|i| SectorData(7000 + i)).collect();
        let pdu = AoePdu::write_request(0, 0, Tag::new(2, 0), BlockRange::new(Lba(9), 3), data);
        let clean = pdu.encode();
        assert_eq!(AoePdu::decode(&clean).unwrap(), pdu);
        // Flip one bit anywhere — header field or payload — and the
        // checksum catches it.
        for &idx in &[1usize, 5, 13, 30, clean.len() - 1] {
            let mut bytes = clean.clone();
            bytes[idx] ^= 0x40;
            assert!(
                matches!(AoePdu::decode(&bytes), Err(DecodeError::BadChecksum { .. })),
                "flip at byte {idx} not caught"
            );
        }
    }

    #[test]
    fn checksum_occupies_reserved_bytes() {
        let bytes =
            AoePdu::read_request(0, 0, Tag::new(1, 0), BlockRange::new(Lba(1), 1)).encode();
        let carried = u16::from_be_bytes([bytes[22], bytes[23]]);
        assert_eq!(carried, frame_checksum(&bytes));
        assert_ne!(carried, 0, "this frame's checksum happens to be nonzero");
    }

    /// Deterministic nonzero-ish sector fingerprints.
    fn fingerprints(n: u32, base: u64) -> Vec<SectorData> {
        (0..n as u64)
            .map(|i| SectorData(base.wrapping_mul(i + 1) ^ 0x9E37_79B9_7F4A_7C15))
            .collect()
    }

    /// A full read-response fragment at `mtu`, every optional flag set.
    fn response_frame(mtu: u32) -> Vec<u8> {
        let n = sectors_per_frame(mtu);
        let mut pdu = AoePdu::read_request(
            7,
            2,
            Tag::new(0x5_1234, 3),
            BlockRange::new(Lba(0x12_3456_789A), n),
        );
        pdu.response = true;
        pdu.busy = true;
        pdu.rdma = true;
        pdu.data = Some(fingerprints(n, 0xDEAD_BEEF_CAFE_F00D));
        pdu.encode()
    }

    /// A full sprint write request at `mtu`.
    fn write_frame(mtu: u32) -> Vec<u8> {
        let n = sectors_per_frame(mtu);
        let data = fingerprints(n, 0x0123_4567_89AB_CDEF);
        let mut pdu =
            AoePdu::write_request(1, 0, Tag::new(99, 1), BlockRange::new(Lba(4096), n), data);
        pdu.sprint = true;
        pdu.encode()
    }

    /// Known-answer checksums, recorded from the byte-serial FNV-1a
    /// definition of wire v2: any rewrite of the checksum must keep them.
    #[test]
    fn checksum_known_answers_are_pinned() {
        let read = AoePdu::read_request(3, 1, Tag::new(42, 0), BlockRange::new(Lba(0xABCDEF), 16));
        let v3 = AoePdu::read_multi_request(
            0x1042,
            5,
            Tag::new(77, 0),
            vec![
                BlockRange::new(Lba(100), 32),
                BlockRange::new(Lba(500), 8),
                BlockRange::new(Lba(0xAB_CDEF), 2048),
            ],
        );
        let vectors: [(&str, Vec<u8>, usize, u16); 7] = [
            ("v2 read request", read.encode(), 24, 0x3c2b),
            ("v2 write, mtu 1500", write_frame(1500), 1048, 0x12a7),
            ("v2 write, mtu 9000", write_frame(9000), 8728, 0x55b3),
            ("v2 response, mtu 1500", response_frame(1500), 1048, 0xeb75),
            ("v2 response, mtu 9000", response_frame(9000), 8728, 0x3047),
            ("v3 three-run read", v3.encode(), 56, 0xf43c),
            ("all-zero 1000 bytes", vec![0u8; 1000], 1000, 0x0526),
        ];
        for (name, frame, len, sum) in vectors {
            assert_eq!(frame.len(), len, "{name}: length");
            assert_eq!(frame_checksum(&frame), sum, "{name}: checksum");
            if name != "all-zero 1000 bytes" {
                assert_eq!(
                    u16::from_be_bytes([frame[22], frame[23]]),
                    sum,
                    "{name}: carried"
                );
            }
        }
    }

    /// Flips every bit of a full 9000-MTU response, one at a time. A
    /// 16-bit fold misses about one corruption in 2^16, and the v2
    /// definition misses exactly one of this frame's 69,824 flips (found
    /// with the byte-serial implementation): bit 0 of byte 514, inside
    /// sector 0's zero padding. Every other flip, including every flip
    /// inside a zero word, must be rejected.
    #[test]
    fn every_single_bit_flip_of_a_full_frame_is_rejected() {
        let clean = response_frame(9000);
        let pdu = AoePdu::decode(&clean).unwrap();
        let mut bytes = clean.clone();
        let mut undetected = Vec::new();
        for idx in 0..clean.len() {
            for bit in 0..8 {
                bytes[idx] ^= 1 << bit;
                match AoePdu::decode(&bytes) {
                    Err(DecodeError::BadChecksum { .. }) => {}
                    // Flips in the version nibble may fail the version
                    // check before the checksum is computed.
                    Err(DecodeError::BadVersion(_)) if idx == 0 && bit >= 4 => {}
                    Ok(decoded) => {
                        assert_eq!(decoded, pdu, "an undetected flip changed the PDU");
                        undetected.push((idx, bit));
                    }
                    other => panic!("flip of bit {bit} at byte {idx}: {other:?}"),
                }
                bytes[idx] ^= 1 << bit;
            }
        }
        assert_eq!(undetected, [(514, 0)]);
    }

    #[test]
    fn decode_rejects_ragged_payload() {
        let mut bytes =
            AoePdu::read_request(0, 0, Tag::new(1, 0), BlockRange::new(Lba(1), 1)).encode();
        bytes.extend_from_slice(&[0u8; 100]);
        let sum = frame_checksum(&bytes).to_be_bytes();
        bytes[22..24].copy_from_slice(&sum); // valid checksum, ragged payload
        assert_eq!(AoePdu::decode(&bytes), Err(DecodeError::RaggedPayload(100)));
    }

    #[test]
    fn multi_range_read_round_trips() {
        let runs = vec![
            BlockRange::new(Lba(100), 32),
            BlockRange::new(Lba(500), 8),
            BlockRange::new(Lba(0xAB_CDEF), 2048),
        ];
        let pdu = AoePdu::read_multi_request(3, 1, Tag::new(77, 0), runs.clone());
        assert_eq!(pdu.range, BlockRange::new(Lba(100), 32 + 8 + 2048));
        let bytes = pdu.encode();
        assert_eq!(bytes[0] >> 4, AOE_VERSION_BATCH);
        assert_eq!(bytes.len(), AOE_HEADER_BYTES as usize + 2 + 3 * 10);
        let decoded = AoePdu::decode(&bytes).unwrap();
        assert_eq!(decoded, pdu);
        assert_eq!(decoded.ranges, runs);
        // Decode→encode is a byte-level fixpoint (the canonical-cover
        // rule leaves exactly one encoding per run set).
        assert_eq!(decoded.encode(), bytes);
    }

    #[test]
    fn multi_range_rejects_malformed_tables() {
        let pdu = AoePdu::read_multi_request(
            0,
            0,
            Tag::new(1, 0),
            vec![BlockRange::new(Lba(10), 4), BlockRange::new(Lba(90), 4)],
        );
        let clean = pdu.encode();
        let resum = |mut bytes: Vec<u8>| {
            let sum = frame_checksum(&bytes).to_be_bytes();
            bytes[22..24].copy_from_slice(&sum);
            bytes
        };
        // Truncated table (checksum fixed so the table check is reached).
        let short = resum(clean[..clean.len() - 3].to_vec());
        assert!(matches!(
            AoePdu::decode(&short),
            Err(DecodeError::BadRangeTable(_))
        ));
        // Count disagreeing with the payload length.
        let mut wrong_count = clean.clone();
        wrong_count[25] = 9;
        assert!(matches!(
            AoePdu::decode(&resum(wrong_count)),
            Err(DecodeError::BadRangeTable(_))
        ));
        // Zero-sector run.
        let mut zero_run = clean.clone();
        zero_run[32..36].copy_from_slice(&0u32.to_be_bytes());
        assert!(matches!(
            AoePdu::decode(&resum(zero_run)),
            Err(DecodeError::BadRangeTable(_))
        ));
        // Header cover disagreeing with the table total.
        let mut bad_cover = clean.clone();
        bad_cover[12..16].copy_from_slice(&999u32.to_be_bytes());
        assert!(matches!(
            AoePdu::decode(&resum(bad_cover)),
            Err(DecodeError::BadRangeTable(_))
        ));
        // Multi-range writes are not a thing.
        let mut write = clean.clone();
        write[10] |= 0x01;
        assert!(matches!(
            AoePdu::decode(&resum(write)),
            Err(DecodeError::BadRangeTable(_))
        ));
        // And an in-flight bit flip is still a checksum error, caught
        // before any table parsing.
        let mut flipped = clean.clone();
        flipped[30] ^= 0x20;
        assert!(matches!(
            AoePdu::decode(&flipped),
            Err(DecodeError::BadChecksum { .. })
        ));
    }

    #[test]
    #[should_panic(expected = "at least one run")]
    fn empty_run_set_panics() {
        AoePdu::read_multi_request(0, 0, Tag::new(1, 0), Vec::new());
    }

    #[test]
    fn rdma_flag_round_trips_and_is_checksummed() {
        let mut pdu = AoePdu::read_request(0, 0, Tag::new(6, 0), BlockRange::new(Lba(40), 16));
        pdu.rdma = true;
        let bytes = pdu.encode();
        assert_eq!(bytes[10], 0x04, "rdma rides aflags bit 2");
        assert!(AoePdu::decode(&bytes).unwrap().rdma);
        assert!(peek_rdma(&bytes));
        let mut mutated = bytes.clone();
        mutated[10] ^= 0x04;
        assert!(matches!(
            AoePdu::decode(&mutated),
            Err(DecodeError::BadChecksum { .. })
        ));
        // The flag composes with v3 multi-range requests.
        let mut multi =
            AoePdu::read_multi_request(0, 0, Tag::new(7, 0), vec![BlockRange::new(Lba(8), 8)]);
        multi.rdma = true;
        let decoded = AoePdu::decode(&multi.encode()).unwrap();
        assert!(decoded.rdma && !decoded.ranges.is_empty());
        // Plain frames are not RDMA traffic.
        assert!(!peek_rdma(
            &AoePdu::read_request(0, 0, Tag::new(8, 0), BlockRange::new(Lba(0), 1)).encode()
        ));
        assert!(!peek_rdma(&[0u8; 10]));
    }

    #[test]
    fn peek_shelf_slot_accepts_v3() {
        let pdu = AoePdu::read_multi_request(
            0x1042,
            3,
            Tag::new(7, 0),
            vec![BlockRange::new(Lba(9), 4)],
        );
        assert_eq!(peek_shelf_slot(&pdu.encode()), Some((0x1042, 3)));
    }

    #[test]
    fn frame_capacity_matches_mtu() {
        assert_eq!(sectors_per_frame(1500), 2);
        assert_eq!(sectors_per_frame(9000), 17);
    }

    #[test]
    #[should_panic(expected = "cannot carry")]
    fn tiny_mtu_panics() {
        sectors_per_frame(100);
    }
}
