//! The transport-agnostic remote-memory backend contract.
//!
//! The paper's evaluation (Table 2) compares soNUMA against RDMA and
//! TCP/IP running *the same* one-sided request streams. [`RemoteBackend`]
//! captures the contract all three share — post / poll / completion over a
//! per-node globally readable segment — in protocol terms only, with no
//! reference to any transport's internals:
//!
//! * `sonuma-machine` implements it over the full RMC pipeline simulation
//!   (`SonumaBackend`);
//! * `sonuma-baselines` implements it over the calibrated TCP and RDMA
//!   stage-level cost models (`TcpBackend`, `RdmaBackend`).
//!
//! Layers above (the `sonuma-core` conformance suite, the benchmark
//! harness) program against this trait, which is what makes the Table 2
//! comparisons apples-to-apples: identical request streams, identical
//! functional semantics, different timing.
//!
//! Semantics every implementation must honor:
//!
//! * each node owns a `segment_len`-byte segment addressed by
//!   `(node, offset)`; reads/writes move whole byte ranges, atomics operate
//!   on one little-endian `u64`;
//! * [`RemoteBackend::post`] is asynchronous and returns a token;
//!   the matching [`RemoteCompletion`] appears in a later
//!   [`RemoteBackend::poll`] on the *posting* node, after enough
//!   [`RemoteBackend::advance`] calls;
//! * out-of-range accesses complete with [`Status::OutOfBounds`] (the
//!   paper's §4.2 error reply path), not a panic;
//! * zero-length operations and writes whose `len` disagrees with the
//!   payload are rejected at post time with [`BackendError::BadRequest`]
//!   on every implementation;
//! * completions for one node may arrive out of order across tokens,
//!   matching the out-of-order completion of §4.2.

use sonuma_sim::SimTime;

use crate::{NodeId, RemoteOp, Status};

/// One one-sided operation handed to a backend.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RemoteRequest {
    /// The operation kind.
    pub op: RemoteOp,
    /// Destination node.
    pub dst: NodeId,
    /// Byte offset into the destination's segment.
    pub offset: u64,
    /// Bytes to read (reads) — atomics are fixed 8-byte operations.
    pub len: u64,
    /// Bytes to write (writes); empty otherwise.
    pub payload: Vec<u8>,
    /// Atomic operands: `(delta, _)` for fetch-add, `(expected, new)` for
    /// compare-and-swap.
    pub operands: (u64, u64),
}

impl RemoteRequest {
    /// A remote read of `len` bytes at `offset`.
    pub fn read(dst: NodeId, offset: u64, len: u64) -> Self {
        RemoteRequest {
            op: RemoteOp::Read,
            dst,
            offset,
            len,
            payload: Vec::new(),
            operands: (0, 0),
        }
    }

    /// A remote write of `payload` at `offset`.
    pub fn write(dst: NodeId, offset: u64, payload: Vec<u8>) -> Self {
        RemoteRequest {
            op: RemoteOp::Write,
            dst,
            offset,
            len: payload.len() as u64,
            payload,
            operands: (0, 0),
        }
    }

    /// A remote fetch-and-add of `delta` on the word at `offset`.
    pub fn fetch_add(dst: NodeId, offset: u64, delta: u64) -> Self {
        RemoteRequest {
            op: RemoteOp::FetchAdd,
            dst,
            offset,
            len: 8,
            payload: Vec::new(),
            operands: (delta, 0),
        }
    }

    /// A remote compare-and-swap (`expected` -> `new`) at `offset`.
    pub fn comp_swap(dst: NodeId, offset: u64, expected: u64, new: u64) -> Self {
        RemoteRequest {
            op: RemoteOp::CompSwap,
            dst,
            offset,
            len: 8,
            payload: Vec::new(),
            operands: (expected, new),
        }
    }

    /// Cache lines this transfer spans: the RMC unrolls every request
    /// into 64-byte line packets (§4.1), so a multi-line KV GET costs
    /// `lines()` fabric packets, not one. Sub-line and straddling
    /// transfers round up to whole lines.
    pub fn lines(&self) -> u64 {
        let bytes = match self.op {
            RemoteOp::Write => self.payload.len() as u64,
            _ => self.len,
        };
        let first = self.offset % 64;
        (first + bytes).div_ceil(64)
    }
}

/// A finished operation, as reported by [`RemoteBackend::poll`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RemoteCompletion {
    /// The token [`RemoteBackend::post`] returned for this operation.
    pub token: u64,
    /// Completion status (errors surface here, never as panics).
    pub status: Status,
    /// Read data, or the 8-byte previous value for atomics; empty for
    /// writes and errors.
    pub data: Vec<u8>,
}

/// Why a backend refused to accept a post.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendError {
    /// Transient resource exhaustion (queue full); poll/advance and retry.
    Backpressure,
    /// The destination node does not exist.
    BadNode,
    /// The request shape is invalid for this backend (e.g. zero-length
    /// operations, a write whose `len` disagrees with its payload, or a
    /// non-line-multiple soNUMA read).
    BadRequest,
    /// Permanent resource exhaustion (e.g. node memory): do not retry.
    Exhausted,
}

impl std::fmt::Display for BackendError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BackendError::Backpressure => write!(f, "backend queue full, drain completions"),
            BackendError::BadNode => write!(f, "destination node out of range"),
            BackendError::BadRequest => write!(f, "request shape invalid for this backend"),
            BackendError::Exhausted => write!(f, "backend resources exhausted, do not retry"),
        }
    }
}

impl std::error::Error for BackendError {}

/// A remote-memory transport: post one-sided operations, advance time,
/// poll completions.
pub trait RemoteBackend {
    /// Short human-readable transport name (report labels).
    fn label(&self) -> &'static str;

    /// Number of nodes.
    fn num_nodes(&self) -> usize;

    /// Bytes in each node's globally accessible segment.
    fn segment_len(&self) -> u64;

    /// Functional (un-timed) write into `node`'s segment — workload setup.
    ///
    /// # Panics
    ///
    /// Panics if the range falls outside the segment.
    fn write_ctx(&mut self, node: NodeId, offset: u64, data: &[u8]);

    /// Functional (un-timed) read from `node`'s segment — verification.
    ///
    /// # Panics
    ///
    /// Panics if the range falls outside the segment.
    fn read_ctx(&self, node: NodeId, offset: u64, buf: &mut [u8]);

    /// Posts `req` from `src`, returning a token echoed by the matching
    /// completion.
    ///
    /// # Errors
    ///
    /// [`BackendError::Backpressure`] when the transport's queue is full
    /// (poll and retry), or a validation error.
    fn post(&mut self, src: NodeId, req: RemoteRequest) -> Result<u64, BackendError>;

    /// Posts `req` from `src` on tenant channel `channel`. Backends with
    /// real per-channel queues (soNUMA's tenant-owned QPs) give every
    /// channel its own queue, so one tenant's backlog cannot reject
    /// another's posts; transports without that machinery fall back to
    /// the shared per-node queue. Tokens share the per-node completion
    /// space either way: completions for every channel of `src` appear in
    /// [`RemoteBackend::poll`]`(src)`.
    ///
    /// # Errors
    ///
    /// As [`RemoteBackend::post`].
    fn post_on(
        &mut self,
        src: NodeId,
        channel: u32,
        req: RemoteRequest,
    ) -> Result<u64, BackendError> {
        let _ = channel;
        self.post(src, req)
    }

    /// Advances the backend's notion of "now" to at least `t` even when
    /// nothing is in flight (a no-op if the clock is already past `t`).
    /// Open-loop traffic generators need this: with a purely
    /// completion-driven clock, an idle backend would never reach the
    /// next scheduled arrival time. The default is a no-op, which is
    /// correct only for backends whose clock advances on its own.
    fn advance_clock_to(&mut self, t: SimTime) {
        let _ = t;
    }

    /// Drains completions available at `src` right now (non-blocking).
    fn poll(&mut self, src: NodeId) -> Vec<RemoteCompletion>;

    /// Makes forward progress (runs the event engine / advances the clock).
    /// Returns `false` once no work remains in flight.
    fn advance(&mut self) -> bool;

    /// The backend's current simulated time.
    fn now(&self) -> SimTime;

    /// Number of discrete events the backend's engine has executed so far
    /// — the denominator of the wall-clock events/sec metric. Implementations
    /// without an internal event engine report completions processed
    /// instead.
    fn events_processed(&self) -> u64;

    /// Runs [`RemoteBackend::advance`] to quiescence and drains every
    /// completion for `src` (convenience for lock-step request streams).
    fn complete_all(&mut self, src: NodeId) -> Vec<RemoteCompletion> {
        while self.advance() {}
        self.poll(src)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_constructors_fill_shapes() {
        let r = RemoteRequest::read(NodeId(1), 64, 128);
        assert_eq!((r.op, r.len), (RemoteOp::Read, 128));
        let w = RemoteRequest::write(NodeId(2), 0, vec![7; 96]);
        assert_eq!((w.op, w.len), (RemoteOp::Write, 96));
        let fa = RemoteRequest::fetch_add(NodeId(0), 8, 5);
        assert_eq!((fa.op, fa.operands.0), (RemoteOp::FetchAdd, 5));
        let cs = RemoteRequest::comp_swap(NodeId(0), 8, 1, 2);
        assert_eq!((cs.op, cs.operands), (RemoteOp::CompSwap, (1, 2)));
    }

    #[test]
    fn request_line_counts_round_up() {
        assert_eq!(RemoteRequest::read(NodeId(1), 0, 64).lines(), 1);
        assert_eq!(RemoteRequest::read(NodeId(1), 0, 4096).lines(), 64);
        assert_eq!(RemoteRequest::read(NodeId(1), 0, 1 << 26).lines(), 1 << 20);
        // Straddling a line boundary costs both lines.
        assert_eq!(RemoteRequest::read(NodeId(1), 32, 64).lines(), 2);
        assert_eq!(
            RemoteRequest::write(NodeId(1), 0, vec![0; 4096]).lines(),
            64
        );
        assert_eq!(RemoteRequest::fetch_add(NodeId(1), 8, 1).lines(), 1);
    }

    #[test]
    fn backend_errors_display() {
        for e in [
            BackendError::Backpressure,
            BackendError::BadNode,
            BackendError::BadRequest,
            BackendError::Exhausted,
        ] {
            assert!(!e.to_string().is_empty());
        }
    }
}
