//! Journal record format.
//!
//! On disk every record is framed as
//!
//! ```text
//! [len: u32 LE] [crc32(payload): u32 LE] [payload: len bytes]
//! ```
//!
//! with a fixed little-endian payload layout:
//!
//! ```text
//! kind        u8    reserve=1 / commit=2 / refund=3 / refusal=4
//! request_id  u64   wire request id (0 when not wire-originated)
//! query_hash  u64   canonical-query hash (see starj-service)
//! epsilon     u64   f64 bit pattern (dyadic-exact)
//! delta       u64   f64 bit pattern
//! data_ver    u64   schema/data version the request ran against
//! tenant_len  u16   UTF-8 byte length of the tenant id
//! tenant      …     tenant id bytes
//! ```
//!
//! ε and δ travel as raw `f64` bit patterns so recovery replay reproduces
//! the in-memory ledger **bit-for-bit**: the service quantizes ε to a
//! dyadic grid, making the replayed sum exact and order-independent.

use crate::crc::crc32;

/// Fixed-size prefix of the payload (everything before the tenant bytes).
pub const PAYLOAD_HEADER: usize = 1 + 8 + 8 + 8 + 8 + 8 + 2;

/// Upper bound on one encoded payload; longer records are treated as
/// corruption by recovery (a torn length field would otherwise ask us to
/// allocate gigabytes).
pub const MAX_PAYLOAD: usize = 64 * 1024;

/// What happened at a settlement seam.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordKind {
    /// Budget moved into the in-flight accumulator (write-ahead of a spend).
    Reserve,
    /// The spend became final: the ledger was charged and an answer released.
    /// **Recovery replays only these.**
    Commit,
    /// The reservation was returned (rollback or RAII drop) — no answer.
    Refund,
    /// The accountant refused the request outright (exhausted budget);
    /// journaled for the audit trail, spends nothing.
    Refusal,
}

impl RecordKind {
    fn to_u8(self) -> u8 {
        match self {
            RecordKind::Reserve => 1,
            RecordKind::Commit => 2,
            RecordKind::Refund => 3,
            RecordKind::Refusal => 4,
        }
    }

    fn from_u8(v: u8) -> Option<Self> {
        match v {
            1 => Some(RecordKind::Reserve),
            2 => Some(RecordKind::Commit),
            3 => Some(RecordKind::Refund),
            4 => Some(RecordKind::Refusal),
            _ => None,
        }
    }
}

/// One journal entry: a settlement event at a (tenant, query, version) seam.
#[derive(Debug, Clone, PartialEq)]
pub struct JournalRecord {
    /// Which settlement seam fired.
    pub kind: RecordKind,
    /// The tenant whose budget moved.
    pub tenant: String,
    /// Canonical-query hash (`starj_service::query_hash`).
    pub query_hash: u64,
    /// ε of the movement (journaled as its exact bit pattern).
    pub epsilon: f64,
    /// δ of the movement (journaled as its exact bit pattern).
    pub delta: f64,
    /// Data version the request was admitted against.
    pub data_version: u64,
    /// Wire request id (0 for in-process callers).
    pub request_id: u64,
}

impl JournalRecord {
    /// Serialize the payload (no frame) into `buf`.
    pub fn encode_payload(&self, buf: &mut Vec<u8>) {
        buf.push(self.kind.to_u8());
        buf.extend_from_slice(&self.request_id.to_le_bytes());
        buf.extend_from_slice(&self.query_hash.to_le_bytes());
        buf.extend_from_slice(&self.epsilon.to_bits().to_le_bytes());
        buf.extend_from_slice(&self.delta.to_bits().to_le_bytes());
        buf.extend_from_slice(&self.data_version.to_le_bytes());
        let tenant = self.tenant.as_bytes();
        debug_assert!(tenant.len() <= u16::MAX as usize, "tenant id over 64 KiB");
        buf.extend_from_slice(&(tenant.len() as u16).to_le_bytes());
        buf.extend_from_slice(tenant);
    }

    /// Serialize the full frame: `[len][crc][payload]`.
    pub fn encode_frame(&self) -> Vec<u8> {
        let mut payload = Vec::with_capacity(PAYLOAD_HEADER + self.tenant.len());
        self.encode_payload(&mut payload);
        let mut frame = Vec::with_capacity(8 + payload.len());
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&crc32(&payload).to_le_bytes());
        frame.extend_from_slice(&payload);
        frame
    }

    /// Decode a payload previously produced by [`encode_payload`]. Returns
    /// `None` on any structural violation (recovery treats that the same
    /// as a CRC mismatch).
    ///
    /// [`encode_payload`]: JournalRecord::encode_payload
    pub fn decode_payload(payload: &[u8]) -> Option<JournalRecord> {
        let v = RecordView::decode(payload)?;
        Some(JournalRecord {
            kind: v.kind,
            tenant: v.tenant.to_string(),
            query_hash: v.query_hash,
            epsilon: v.epsilon,
            delta: v.delta,
            data_version: v.data_version,
            request_id: v.request_id,
        })
    }
}

/// A decoded payload whose tenant borrows the journal bytes, so recovery
/// replays a segment without allocating per record.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct RecordView<'a> {
    pub(crate) kind: RecordKind,
    pub(crate) tenant: &'a str,
    pub(crate) query_hash: u64,
    pub(crate) epsilon: f64,
    pub(crate) delta: f64,
    pub(crate) data_version: u64,
    pub(crate) request_id: u64,
}

impl<'a> RecordView<'a> {
    /// Decodes `payload`, or `None` on any structural violation.
    pub(crate) fn decode(payload: &'a [u8]) -> Option<RecordView<'a>> {
        if payload.len() < PAYLOAD_HEADER {
            return None;
        }
        let kind = RecordKind::from_u8(payload[0])?;
        let u64_at = |off: usize| {
            let mut b = [0u8; 8];
            b.copy_from_slice(&payload[off..off + 8]);
            u64::from_le_bytes(b)
        };
        let request_id = u64_at(1);
        let query_hash = u64_at(9);
        let epsilon = f64::from_bits(u64_at(17));
        let delta = f64::from_bits(u64_at(25));
        let data_version = u64_at(33);
        let tenant_len = u16::from_le_bytes([payload[41], payload[42]]) as usize;
        if payload.len() != PAYLOAD_HEADER + tenant_len {
            return None;
        }
        let tenant = std::str::from_utf8(&payload[PAYLOAD_HEADER..]).ok()?;
        Some(RecordView { kind, tenant, query_hash, epsilon, delta, data_version, request_id })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(kind: RecordKind) -> JournalRecord {
        JournalRecord {
            kind,
            tenant: "acme-analytics".into(),
            query_hash: 0xDEAD_BEEF_CAFE_F00D,
            epsilon: 0.375, // dyadic
            delta: 1e-9,
            data_version: 7,
            request_id: 42,
        }
    }

    #[test]
    fn round_trips_every_kind() {
        for kind in
            [RecordKind::Reserve, RecordKind::Commit, RecordKind::Refund, RecordKind::Refusal]
        {
            let rec = sample(kind);
            let frame = rec.encode_frame();
            let len = u32::from_le_bytes(frame[0..4].try_into().unwrap()) as usize;
            let crc = u32::from_le_bytes(frame[4..8].try_into().unwrap());
            let payload = &frame[8..];
            assert_eq!(payload.len(), len);
            assert_eq!(crc32(payload), crc);
            assert_eq!(JournalRecord::decode_payload(payload), Some(rec));
        }
    }

    #[test]
    fn epsilon_bits_survive_exactly() {
        // A non-dyadic ε still round-trips bit-for-bit: we journal the
        // pattern, not a decimal rendering.
        let mut rec = sample(RecordKind::Commit);
        rec.epsilon = 0.1f64;
        rec.delta = f64::MIN_POSITIVE;
        let frame = rec.encode_frame();
        let back = JournalRecord::decode_payload(&frame[8..]).unwrap();
        assert_eq!(back.epsilon.to_bits(), rec.epsilon.to_bits());
        assert_eq!(back.delta.to_bits(), rec.delta.to_bits());
    }

    #[test]
    fn truncated_or_mangled_payloads_decode_to_none() {
        let rec = sample(RecordKind::Commit);
        let mut payload = Vec::new();
        rec.encode_payload(&mut payload);
        for cut in 0..payload.len() {
            assert_eq!(JournalRecord::decode_payload(&payload[..cut]), None, "cut at {cut}");
        }
        let mut bad_kind = payload.clone();
        bad_kind[0] = 9;
        assert_eq!(JournalRecord::decode_payload(&bad_kind), None);
        let mut bad_len = payload.clone();
        bad_len[41] = 0xFF; // tenant_len no longer matches the buffer
        assert_eq!(JournalRecord::decode_payload(&bad_len), None);
    }
}
