//! The flight recorder: allocation-free time-series tracing of the
//! interconnect, the RMC pipelines, and tenants.
//!
//! End-of-run aggregates hide exactly the phenomena the paper cares
//! about — credit-stall storms, RGP backpressure, the goodput dip after a
//! link dies and the climb back once routing adapts. This crate records
//! those transients as fixed-cadence samples in fixed-capacity rings:
//!
//! * [`FlightRecorder`] — armed once at construction with every capacity
//!   it will ever need, then fed cumulative counters on the hot path; it
//!   stores *deltas per sampling window* and never allocates after
//!   construction (the fabric zero-alloc test runs with one armed);
//! * [`TenantFlow`] — the driver-side tenant sampler: completions binned
//!   by simulated completion time into per-tenant rate and p99 samples;
//! * [`export`] — the versioned JSON-lines trace schema: each line
//!   type's fields, declared once, and the writer that renders them.
//!   Readers (the bench's Chrome-trace converter and trace figures) fill
//!   the same record types through the same fields.
//!
//! # Determinism
//!
//! Nothing here samples wall-clock anything. Every sample is keyed by
//! simulated time, and the recorder is only ever fed from
//! partition-invariant points (quantum boundaries for node counters, the
//! global `(t, src, seq)` commit merge for link counters), so a trace
//! taken at `--threads 4` is byte-identical to `--threads 1` — the trace
//! file itself is a determinism artifact CI can `cmp`.

/// Declares a trace line type: the struct, and its [`Fields`] walking the
/// fields in declaration order, which is their order in the file, each
/// keyed by its own name. `=> Kind` names the [`Member`] variant a field
/// is written and read as; `=> flatten` splices in the fields of a nested
/// line type. A trailing `rec = "tag";` makes it a [`TraceRecord`].
macro_rules! trace_line {
    (
        $(#[$meta:meta])*
        pub struct $name:ident {
            $($(#[$fmeta:meta])* pub $field:ident: $ty:ty => $kind:ident,)*
        }
        $(rec = $rec:literal;)?
    ) => {
        $(#[$meta])*
        pub struct $name {
            $($(#[$fmeta])* pub $field: $ty,)*
        }

        impl $crate::Fields for $name {
            fn fields(&mut self) -> impl Iterator<Item = (&'static str, $crate::Member<'_>)> {
                std::iter::empty()$(.chain(trace_line!(@field $kind, $field, self.$field)))*
            }
        }
        $(impl $crate::TraceRecord for $name {
            const REC: &'static str = $rec;
        })?
    };
    (@field flatten, $field:ident, $value:expr) => {
        $crate::Fields::fields(&mut $value)
    };
    (@field $kind:ident, $field:ident, $value:expr) => {
        std::iter::once((stringify!($field), $crate::Member::$kind(&mut $value)))
    };
}

mod recorder;
mod ring;
mod tenant;

pub mod export;

pub use export::{render_jsonl, Fields, Member, TraceMeta, TraceRecord};
pub use recorder::{
    FaultEvent, FaultKind, FlightRecorder, LinkSample, NodeCounters, NodeSample, TraceConfig,
    TraceSummary, FAULT_COUNTER_KINDS,
};
pub use tenant::{TenantFlow, TenantSample};

/// Version tag of the JSON-lines trace format (first line of every trace).
pub const TRACE_SCHEMA: &str = "sonuma-trace/v1";
