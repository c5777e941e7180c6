//! Remote operations and completion statuses.

use std::fmt;

/// The architecturally supported one-sided remote operations.
///
/// soNUMA deliberately limits hardware support to reads, writes and atomics
/// (§5.3); send/receive messaging and barriers are software libraries built
/// on top. Atomics execute inside the destination node's cache coherence
/// hierarchy, which gives them global atomicity for any mix of local and
/// remote accesses (§7.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RemoteOp {
    /// Copy remote memory into a local buffer.
    Read,
    /// Copy a local buffer into remote memory.
    Write,
    /// Atomic fetch-and-add on a remote 8-byte word.
    FetchAdd,
    /// Atomic compare-and-swap on a remote 8-byte word.
    CompSwap,
    /// Remote interrupt: wake the destination's registered handler core
    /// with an 8-byte payload, bypassing its polling loops. The paper
    /// names this the first extension a complete architecture needs
    /// ("the ability to issue remote interrupts as part of an RMC
    /// command, so that nodes can communicate without polling", §8).
    Interrupt,
}

impl RemoteOp {
    /// Wire encoding.
    pub fn to_wire(self) -> u8 {
        match self {
            RemoteOp::Read => 0,
            RemoteOp::Write => 1,
            RemoteOp::FetchAdd => 2,
            RemoteOp::CompSwap => 3,
            RemoteOp::Interrupt => 4,
        }
    }

    /// Decodes a wire byte.
    pub fn from_wire(b: u8) -> Option<Self> {
        match b {
            0 => Some(RemoteOp::Read),
            1 => Some(RemoteOp::Write),
            2 => Some(RemoteOp::FetchAdd),
            3 => Some(RemoteOp::CompSwap),
            4 => Some(RemoteOp::Interrupt),
            _ => None,
        }
    }

    /// Whether the *reply* packet carries a data payload.
    pub fn reply_carries_payload(self) -> bool {
        matches!(
            self,
            RemoteOp::Read | RemoteOp::FetchAdd | RemoteOp::CompSwap
        )
    }

    /// Whether this is an atomic read-modify-write.
    pub fn is_atomic(self) -> bool {
        matches!(self, RemoteOp::FetchAdd | RemoteOp::CompSwap)
    }
}

impl fmt::Display for RemoteOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            RemoteOp::Read => "rread",
            RemoteOp::Write => "rwrite",
            RemoteOp::FetchAdd => "rfetch_add",
            RemoteOp::CompSwap => "rcomp_swap",
            RemoteOp::Interrupt => "rinterrupt",
        };
        f.write_str(s)
    }
}

/// Completion status delivered in reply packets and CQ entries.
///
/// Errors correspond to the paper's security-context check: "virtual
/// addresses that fall outside of the range of the specified security
/// context are signaled through an error message ... delivered to the
/// application via the CQ" (§4.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Status {
    /// The operation completed.
    Ok,
    /// The offset fell outside the context segment's registered bounds.
    OutOfBounds,
    /// The context id is not registered at the destination.
    BadContext,
    /// The source RMC gave up on the operation: its retransmission budget
    /// ran out (persistent packet loss) or the node crashed with the
    /// operation in flight. Never generated by the destination.
    Aborted,
}

impl Status {
    /// Wire encoding.
    pub fn to_wire(self) -> u8 {
        match self {
            Status::Ok => 0,
            Status::OutOfBounds => 1,
            Status::BadContext => 2,
            Status::Aborted => 3,
        }
    }

    /// Decodes a wire byte.
    pub fn from_wire(b: u8) -> Option<Self> {
        match b {
            0 => Some(Status::Ok),
            1 => Some(Status::OutOfBounds),
            2 => Some(Status::BadContext),
            3 => Some(Status::Aborted),
            _ => None,
        }
    }

    /// Whether this status reports success.
    pub fn is_ok(self) -> bool {
        self == Status::Ok
    }
}

impl fmt::Display for Status {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Status::Ok => "ok",
            Status::OutOfBounds => "out of segment bounds",
            Status::BadContext => "unknown context",
            Status::Aborted => "aborted at the source",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_wire_roundtrip() {
        for op in [
            RemoteOp::Read,
            RemoteOp::Write,
            RemoteOp::FetchAdd,
            RemoteOp::CompSwap,
            RemoteOp::Interrupt,
        ] {
            assert_eq!(RemoteOp::from_wire(op.to_wire()), Some(op));
        }
        assert_eq!(RemoteOp::from_wire(200), None);
    }

    #[test]
    fn status_wire_roundtrip() {
        for s in [
            Status::Ok,
            Status::OutOfBounds,
            Status::BadContext,
            Status::Aborted,
        ] {
            assert_eq!(Status::from_wire(s.to_wire()), Some(s));
        }
        assert_eq!(Status::from_wire(99), None);
    }

    #[test]
    fn payload_direction() {
        assert!(RemoteOp::Read.reply_carries_payload());
        assert!(!RemoteOp::Write.reply_carries_payload());
        // Atomics carry old values back.
        assert!(RemoteOp::FetchAdd.reply_carries_payload());
    }

    #[test]
    fn atomicity_classification() {
        assert!(RemoteOp::FetchAdd.is_atomic());
        assert!(RemoteOp::CompSwap.is_atomic());
        assert!(!RemoteOp::Read.is_atomic());
        assert!(!RemoteOp::Write.is_atomic());
        assert!(!RemoteOp::Interrupt.is_atomic());
    }

    #[test]
    fn interrupt_payload_direction() {
        assert!(!RemoteOp::Interrupt.reply_carries_payload());
    }

    #[test]
    fn status_predicates() {
        assert!(Status::Ok.is_ok());
        assert!(!Status::OutOfBounds.is_ok());
    }
}
