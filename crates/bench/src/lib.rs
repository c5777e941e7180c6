//! Benchmark harness: regenerates every table and figure of the soNUMA
//! evaluation (§7).
//!
//! Each module exposes a `run()` returning structured rows plus a
//! `print()` that renders them next to the paper's reported values. The
//! `gen-figures` binary prints everything; the criterion benches under
//! `benches/` wrap the same functions.
//!
//! | Module | Reproduces |
//! |---|---|
//! | [`fig01`] | Fig. 1 — Netpipe over TCP/IP on Calxeda |
//! | [`fig07`] | Fig. 7 — remote read latency/bandwidth, both platforms |
//! | [`fig08`] | Fig. 8 — send/receive latency/bandwidth, thresholds |
//! | [`fig09`] | Fig. 9 — PageRank speedup, three implementations |
//! | [`table1`] | Table 1 — simulation parameters |
//! | [`table2`] | Table 2 — soNUMA vs. RDMA/InfiniBand |
//! | [`ablations`] | design-point sweeps (CT$, MAQ, unrolling, topology) |
//!
//! Beyond the paper's figures, [`scenario`] is the config-driven harness:
//! declarative [`scenario::ScenarioSpec`]s (flat TOML) executed across all
//! three `RemoteBackend`s by the `sonuma-bench scenario` binary, reported
//! as versioned machine-readable `BENCH.json` ([`json`] is the
//! dependency-free JSON layer underneath), with every canned scenario's
//! simulated results pinned by the digest ledger in `tests/golden.rs`.

pub mod ablations;
pub mod fig01;
pub mod fig07;
pub mod fig08;
pub mod fig09;
pub mod json;
pub mod kvfig;
pub mod report;
pub mod scenario;
pub mod table1;
pub mod table2;
pub mod tracefig;
pub mod trafficgen;
pub mod workloads;

/// Request sizes swept by the microbenchmarks (64 B .. 8 KB, as in
/// Figs. 7-8).
pub const SWEEP_SIZES: [u64; 8] = [64, 128, 256, 512, 1024, 2048, 4096, 8192];
