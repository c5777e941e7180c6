//! Request/reply packet format and binary codec.
//!
//! A packet is a fixed 24-byte header plus an optional single cache-line
//! (64-byte) payload — "the message MTU is large enough to support a
//! fixed-size header and an optional cache-line-sized payload" (§6). Larger
//! application transfers never produce larger packets: the source RMC
//! unrolls them into line-sized transactions.

use crate::ids::{CtxId, NodeId, Tid};
use crate::ops::{RemoteOp, Status};

/// Cache-line (and payload) size in bytes.
pub const CACHE_LINE_BYTES: usize = 64;

/// Wire size of the fixed packet header.
pub const HEADER_BYTES: usize = 24;

/// Maximum wire size of one packet (header + one line).
pub const MAX_PACKET_BYTES: usize = HEADER_BYTES + CACHE_LINE_BYTES;

/// Whether a packet is a request or a reply (selects the virtual lane).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PacketKind {
    /// Travels on virtual lane 0.
    Request,
    /// Travels on virtual lane 1.
    Reply,
}

/// One soNUMA fabric packet.
///
/// The same structure carries requests and replies; `kind` selects the
/// interpretation of the second header byte (`op` for requests, `status`
/// for replies). `line_seq` is the index of this line within an unrolled
/// multi-line transfer; replies echo it so the Request Completion Pipeline
/// can compute the destination buffer offset (§4.2).
///
/// # Example
///
/// ```
/// use sonuma_protocol::{CtxId, NodeId, Packet, RemoteOp, Status, Tid};
///
/// let req = Packet::request(NodeId(2), NodeId(0), CtxId(1), Tid(5), RemoteOp::Read, 4096, 3);
/// assert_eq!(req.wire_bytes(), 24); // read requests have no payload
/// let reply = Packet::reply_to(&req, Status::Ok, Some([0xAB; 64]));
/// assert_eq!(reply.dst, NodeId(0));
/// assert_eq!(reply.tid, Tid(5));
/// assert_eq!(reply.wire_bytes(), 88);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Packet {
    /// Request or reply.
    pub kind: PacketKind,
    /// Routing destination.
    pub dst: NodeId,
    /// Source (used by the destination to address the reply).
    pub src: NodeId,
    /// Global address-space context (requests; echoed in replies).
    pub ctx: CtxId,
    /// Transfer id, opaque to the destination.
    pub tid: Tid,
    /// Operation (meaningful on both requests and replies so the RCP knows
    /// whether a payload is expected).
    pub op: RemoteOp,
    /// Completion status (replies; `Ok` on requests).
    pub status: Status,
    /// Byte offset into the context segment (line-aligned for reads/writes).
    pub offset: u64,
    /// Index of this cache line within the unrolled transfer.
    pub line_seq: u32,
    /// Retransmission generation of the owning transfer. Zero on every
    /// first attempt; a source RMC that aborts a transfer and recycles its
    /// tid bumps the generation so straggler replies from the old
    /// incarnation are recognizably stale. Replies echo it.
    pub gen: u8,
    /// Set by a faulty link that flipped bits in transit: the packet still
    /// pays full wire time, and the receiving RMC discards it on its
    /// integrity check.
    pub corrupt: bool,
    /// Optional single-line payload.
    pub payload: Option<[u8; CACHE_LINE_BYTES]>,
}

impl Packet {
    /// Builds a request packet without payload (remote read).
    pub fn request(
        dst: NodeId,
        src: NodeId,
        ctx: CtxId,
        tid: Tid,
        op: RemoteOp,
        offset: u64,
        line_seq: u32,
    ) -> Self {
        Packet {
            kind: PacketKind::Request,
            dst,
            src,
            ctx,
            tid,
            op,
            status: Status::Ok,
            offset,
            line_seq,
            gen: 0,
            corrupt: false,
            payload: None,
        }
    }

    /// Builds the reply to `req` (swapped direction, echoed tid/line_seq).
    pub fn reply_to(req: &Packet, status: Status, payload: Option<[u8; CACHE_LINE_BYTES]>) -> Self {
        debug_assert_eq!(req.kind, PacketKind::Request);
        Packet {
            kind: PacketKind::Reply,
            dst: req.src,
            src: req.dst,
            ctx: req.ctx,
            tid: req.tid,
            op: req.op,
            status,
            offset: req.offset,
            line_seq: req.line_seq,
            gen: req.gen,
            corrupt: false,
            payload,
        }
    }

    /// The fault-stream salt identifying this packet instance at `now_ps`
    /// (picoseconds of its injection time): a hash of the packet's wire
    /// identity and send time. Pure, so every shard of any partition
    /// computes the same salt for the same committed send — and a
    /// retransmission (same identity, later time) draws a fresh fate.
    pub fn fault_salt(&self, now_ps: u64) -> u64 {
        // FNV-1a over the identifying fields; cheap and stateless.
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut fold = |v: u64| {
            h ^= v;
            h = h.wrapping_mul(0x100_0000_01b3);
        };
        fold(now_ps);
        fold(u64::from(self.src.0) << 32 | u64::from(self.dst.0));
        fold(u64::from(self.tid.0) << 40 | u64::from(self.line_seq) << 8 | u64::from(self.gen));
        fold(self.offset ^ (u64::from(self.kind == PacketKind::Reply) << 63));
        h
    }

    /// Size of this packet on the wire, in bytes.
    pub fn wire_bytes(&self) -> u64 {
        (HEADER_BYTES
            + if self.payload.is_some() {
                CACHE_LINE_BYTES
            } else {
                0
            }) as u64
    }

    /// The virtual lane this packet travels on: requests on VL0, replies on
    /// VL1 (deadlock freedom, §6).
    pub fn virtual_lane(&self) -> usize {
        match self.kind {
            PacketKind::Request => 0,
            PacketKind::Reply => 1,
        }
    }

    /// Serializes into a caller-provided buffer, returning the number of
    /// bytes written ([`HEADER_BYTES`], or [`MAX_PACKET_BYTES`] with a
    /// payload). The allocation-free form of [`Packet::encode`] for wire
    /// paths that serialize per packet.
    pub fn encode_into(&self, out: &mut [u8; MAX_PACKET_BYTES]) -> usize {
        out[0] = match self.kind {
            PacketKind::Request => 0u8,
            PacketKind::Reply => 1u8,
        } | if self.payload.is_some() { 0b10 } else { 0 };
        out[1] = self.op.to_wire() | (self.status.to_wire() << 4);
        out[2..4].copy_from_slice(&self.dst.0.to_le_bytes());
        out[4..6].copy_from_slice(&self.src.0.to_le_bytes());
        out[6..8].copy_from_slice(&self.ctx.0.to_le_bytes());
        out[8..10].copy_from_slice(&self.tid.0.to_le_bytes());
        out[10..14].copy_from_slice(&self.line_seq.to_le_bytes());
        // Formerly-reserved pad bytes: retransmission generation and the
        // corruption mark (zero on every fault-free packet, so fault-free
        // wire images are unchanged).
        out[14] = self.gen;
        out[15] = u8::from(self.corrupt);
        out[16..24].copy_from_slice(&self.offset.to_le_bytes());
        match &self.payload {
            Some(p) => {
                out[HEADER_BYTES..].copy_from_slice(p);
                MAX_PACKET_BYTES
            }
            None => HEADER_BYTES,
        }
    }

    /// Serializes to owned bytes (see [`Packet::encode_into`] for the
    /// allocation-free form).
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = [0u8; MAX_PACKET_BYTES];
        let len = self.encode_into(&mut buf);
        buf[..len].to_vec()
    }

    /// Deserializes from bytes.
    ///
    /// Returns `None` for malformed input (short buffer, unknown op/status,
    /// or a length inconsistent with the payload flag).
    pub fn decode(bytes: &[u8]) -> Option<Self> {
        if bytes.len() < HEADER_BYTES {
            return None;
        }
        let kind = match bytes[0] & 0b1 {
            0 => PacketKind::Request,
            _ => PacketKind::Reply,
        };
        let has_payload = bytes[0] & 0b10 != 0;
        let op = RemoteOp::from_wire(bytes[1] & 0x0F)?;
        let status = Status::from_wire(bytes[1] >> 4)?;
        let dst = NodeId(u16::from_le_bytes([bytes[2], bytes[3]]));
        let src = NodeId(u16::from_le_bytes([bytes[4], bytes[5]]));
        let ctx = CtxId(u16::from_le_bytes([bytes[6], bytes[7]]));
        let tid = Tid(u16::from_le_bytes([bytes[8], bytes[9]]));
        let line_seq = u32::from_le_bytes([bytes[10], bytes[11], bytes[12], bytes[13]]);
        let gen = bytes[14];
        let corrupt = match bytes[15] {
            0 => false,
            1 => true,
            _ => return None,
        };
        let offset = u64::from_le_bytes(bytes[16..24].try_into().ok()?);
        let payload = if has_payload {
            if bytes.len() != MAX_PACKET_BYTES {
                return None;
            }
            let mut p = [0u8; CACHE_LINE_BYTES];
            p.copy_from_slice(&bytes[HEADER_BYTES..]);
            Some(p)
        } else {
            if bytes.len() != HEADER_BYTES {
                return None;
            }
            None
        };
        Some(Packet {
            kind,
            dst,
            src,
            ctx,
            tid,
            op,
            status,
            offset,
            line_seq,
            gen,
            corrupt,
            payload,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_request() -> Packet {
        Packet::request(
            NodeId(7),
            NodeId(2),
            CtxId(3),
            Tid(11),
            RemoteOp::Read,
            0xABCD_0040,
            5,
        )
    }

    #[test]
    fn request_roundtrip_no_payload() {
        let p = sample_request();
        let bytes = p.encode();
        assert_eq!(bytes.len(), HEADER_BYTES);
        assert_eq!(Packet::decode(&bytes), Some(p));
    }

    #[test]
    fn encode_into_roundtrips_and_matches_encode() {
        let mut buf = [0u8; MAX_PACKET_BYTES];
        // Header-only request.
        let req = sample_request();
        let n = req.encode_into(&mut buf);
        assert_eq!(n, HEADER_BYTES);
        assert_eq!(Packet::decode(&buf[..n]), Some(req));
        assert_eq!(&buf[..n], req.encode().as_slice());
        // Payload-carrying reply reuses the same buffer.
        let rep = Packet::reply_to(&req, Status::Ok, Some([0x5A; 64]));
        let n = rep.encode_into(&mut buf);
        assert_eq!(n, MAX_PACKET_BYTES);
        assert_eq!(Packet::decode(&buf[..n]), Some(rep));
        assert_eq!(&buf[..n], rep.encode().as_slice());
    }

    #[test]
    fn request_roundtrip_with_payload() {
        let mut payload = [0u8; 64];
        for (i, b) in payload.iter_mut().enumerate() {
            *b = i as u8;
        }
        let p = Packet {
            payload: Some(payload),
            ..Packet::request(
                NodeId(1),
                NodeId(0),
                CtxId(9),
                Tid(1),
                RemoteOp::Write,
                64,
                0,
            )
        };
        let bytes = p.encode();
        assert_eq!(bytes.len(), MAX_PACKET_BYTES);
        assert_eq!(Packet::decode(&bytes), Some(p));
    }

    #[test]
    fn reply_swaps_direction_and_echoes_ids() {
        let req = sample_request();
        let rep = Packet::reply_to(&req, Status::Ok, Some([9u8; 64]));
        assert_eq!(rep.kind, PacketKind::Reply);
        assert_eq!(rep.dst, req.src);
        assert_eq!(rep.src, req.dst);
        assert_eq!(rep.tid, req.tid);
        assert_eq!(rep.line_seq, req.line_seq);
        assert_eq!(rep.offset, req.offset);
        let bytes = rep.encode();
        assert_eq!(Packet::decode(&bytes), Some(rep));
    }

    #[test]
    fn error_reply_roundtrip() {
        let req = sample_request();
        let rep = Packet::reply_to(&req, Status::OutOfBounds, None);
        let bytes = rep.encode();
        let back = Packet::decode(&bytes).unwrap();
        assert_eq!(back.status, Status::OutOfBounds);
        assert!(!back.status.is_ok());
    }

    #[test]
    fn virtual_lanes_by_kind() {
        let req = sample_request();
        assert_eq!(req.virtual_lane(), 0);
        assert_eq!(Packet::reply_to(&req, Status::Ok, None).virtual_lane(), 1);
    }

    #[test]
    fn decode_rejects_short_buffers() {
        let p = sample_request().encode();
        assert_eq!(Packet::decode(&p[..10]), None);
        assert_eq!(Packet::decode(&[]), None);
    }

    #[test]
    fn decode_rejects_inconsistent_length() {
        let mut bytes = sample_request().encode();
        bytes.push(0); // header-only packet with a trailing byte
        assert_eq!(Packet::decode(&bytes), None);

        let mut with_payload = Packet {
            payload: Some([0; 64]),
            ..Packet::request(
                NodeId(0),
                NodeId(1),
                CtxId(0),
                Tid(0),
                RemoteOp::Write,
                0,
                0,
            )
        }
        .encode();
        with_payload.truncate(50);
        assert_eq!(Packet::decode(&with_payload), None);
    }

    #[test]
    fn decode_rejects_unknown_op() {
        let mut bytes = sample_request().encode();
        bytes[1] = 0x0F; // op nibble = 15: invalid
        assert_eq!(Packet::decode(&bytes), None);
    }

    #[test]
    fn gen_and_corrupt_roundtrip_and_reply_echoes_gen() {
        let mut req = sample_request();
        req.gen = 3;
        let bytes = req.encode();
        assert_eq!(bytes[14], 3);
        assert_eq!(Packet::decode(&bytes), Some(req));
        let rep = Packet::reply_to(&req, Status::Ok, None);
        assert_eq!(rep.gen, 3, "replies echo the request generation");
        assert!(!rep.corrupt);
        let mut marked = rep;
        marked.corrupt = true;
        assert_eq!(Packet::decode(&marked.encode()), Some(marked));
        // Byte 15 is a strict boolean on the wire.
        let mut bad = rep.encode();
        bad[15] = 7;
        assert_eq!(Packet::decode(&bad), None);
    }

    #[test]
    fn fault_salt_distinguishes_instances() {
        let req = sample_request();
        assert_eq!(req.fault_salt(1000), req.fault_salt(1000), "pure");
        assert_ne!(req.fault_salt(1000), req.fault_salt(2000), "time-salted");
        let mut retx = req;
        retx.gen = 1;
        assert_ne!(req.fault_salt(1000), retx.fault_salt(1000));
        let rep = Packet::reply_to(&req, Status::Ok, None);
        assert_ne!(req.fault_salt(1000), rep.fault_salt(1000));
    }

    #[test]
    fn wire_size_accounting() {
        assert_eq!(sample_request().wire_bytes(), 24);
        let rep = Packet::reply_to(&sample_request(), Status::Ok, Some([0; 64]));
        assert_eq!(rep.wire_bytes(), 88);
    }
}
