//! Config-driven scenario harness: declarative cluster/workload specs,
//! executed over every [`sonuma_core::RemoteBackend`], reported as
//! versioned machine-readable `BENCH.json`.
//!
//! A [`ScenarioSpec`] names everything an experiment needs — node count,
//! fabric topology, platform, backend set, workload mix, operation size,
//! per-node operation count, issue window, and the RNG seed — in a flat
//! TOML file (`key = value` lines only; see [`ScenarioSpec::to_toml`]).
//! The `sonuma-bench scenario` binary sweeps specs, drives each across the
//! requested backends through the transport-agnostic `RemoteBackend`
//! contract, and emits one report containing simulated throughput,
//! p50/p99 latency, per-node RMC pipeline counters (soNUMA runs), and
//! host-side `wall_*` figures, which gate nothing: wall performance is
//! the repo benchmark's, and `tests/golden.rs` pins the simulated rest.
//!
//! Everything except the `wall_*` fields is a pure function of the spec:
//! two runs of the same spec + seed render byte-identical JSON once those
//! fields are stripped, which the determinism test under `tests/` asserts.
//!
//! | Module | Holds |
//! |---|---|
//! | `spec` | [`ScenarioSpec`], its sections, validation, the key tables, the JSON form |
//! | `toml` | the flat-TOML reader and writer over the key tables |
//! | `drive` | the one drive loop over a request source, [`run_spec`], [`BackendRun`] |
//! | `report` | report rendering, [`validate_report`], [`equivalence_diff`] |
//! | `canned` | the canned scenarios, embedded from `bench/specs/*.toml` |

mod canned;
mod drive;
mod report;
mod spec;
mod toml;

pub use canned::{canned, canned_names, canned_specs};
pub use drive::{
    run_spec, run_spec_once, run_specs, BackendRun, FabricSummary, FaultOutcome, KvClassOutcome,
    KvOutcome, ScenarioResult, TenantOutcome, TraceOutcome, MAX_REPORTED_LINKS,
};
pub use report::{
    equivalence_diff, report, validate_report, MAX_REPORTED_BINS, MAX_REPORTED_TENANTS,
};
pub use spec::{
    tenant_class, BackendKind, BackendSel, FaultSpec, KvSpec, PlatformSpec, ScenarioSpec,
    SpecError, TenancySpec, TopologySpec, TraceSpec, TrafficSpec, WeightMode, WorkloadKind,
};

/// Version tag of the report format (bump on breaking schema changes).
/// v2 added the `per_tenant` and `fabric` run sections (multi-tenant
/// open-loop scenarios) and the `offered_ops`/`lat_p999_ns` run fields.
/// v3 added `wall_packets_per_sec` (fabric packets over host wall time —
/// the batching-invariant throughput the bench-smoke lane gates alongside
/// events/sec) and redefined `events` as *logical* events: line
/// injections folded into one burst event still count individually, so
/// the metric is comparable across `rgp_burst_lines` settings.
/// v4 added the `threads` spec field (`[execution]` section) and the
/// per-run `sharding` section (thread/shard counts, conservative epochs,
/// per-shard event counts and wall rates). Everything outside `wall_*`
/// fields and the `sharding` section is independent of the thread count —
/// the parallel-equivalence CI gate diffs two reports with those
/// stripped (see [`equivalence_diff`]).
/// v5 added the `qp_entries` spec field (`[execution]` section, WQ/CQ
/// ring depth) and grew the `sharding` section with the sharded
/// engine's metadata: `cut_links`, `lookahead_ns` (the engine's
/// lookahead; a min/max pair of keys while the engine kept one bound per
/// shard pair), `pair_bound_violations` (always 0
/// when the conservative bound holds), `resident_bytes` (the modeled
/// machine's resident-heap estimate), and an optional `compare_serial`
/// object (serial wall time, wall ratio, serial epoch count), dropped
/// with the `--compare-threads` flag that wrote it.
/// v6 added the `[faults]` spec section ([`FaultSpec`]) and the per-run
/// `faults` section ([`FaultOutcome`]): injected link/node fault counts,
/// fabric drop/corrupt/reroute counters, source-side recovery counters
/// (timeouts, retransmits, aborts), goodput under failure, and the
/// 1 µs-binned recovery time back to ≥ 90 % of the pre-fault completion
/// rate. Latency histograms now record only successful completions
/// (identical on fault-free runs, which complete everything with Ok).
/// v7 added the `[trace]` spec section ([`TraceSpec`]) and the per-run
/// `trace` section: flight-recorder sample counts, ring drop tallies,
/// and the recorder's wall-clock overhead versus the untraced timing
/// repetitions. With tracing off the section is absent and every other
/// byte matches a v6 report body.
/// v8 added the `speculate_epochs` spec field (`[execution]` section),
/// the per-run `wall_construct_secs` field (world-construction wall
/// time, reported separately from drive time), and a
/// `sharding.speculation` object. The run-ahead engine they described
/// was removed in PR 21: `sharding.speculation` is no longer emitted and
/// `speculate_epochs` is always 0, echoed only so report bytes stay put.
/// v9 added the `[kv]` spec section ([`KvSpec`]) and the per-run `kv`
/// section: the rack-scale KV-cache service scenario. The section
/// carries directory-plane counts (keys, GET/PUT tallies, lines moved,
/// verification failures — always 0), per-value-size-class GET/PUT
/// p50/p99 rows, and per-SLO-class rows (gold/silver/bronze GET tails
/// plus achieved-vs-offered throughput). Specs without a `[kv]` section
/// — or with `keys = 0` — render byte-identically to a v8 report body.
/// Two wall-only members later left v9 unbumped, as no simulated byte
/// moved: `calibration` (never in a [`report`]) and the trace overhead.
pub const REPORT_SCHEMA: &str = "sonuma-bench.scenario/v9";
