//! Applications from the soNUMA evaluation (§7.5) and motivation (§2.1).
//!
//! * [`graph`] — CSR graphs, a deterministic R-MAT generator (the stand-in
//!   for the Twitter crawl \[29\], which is not redistributable; R-MAT
//!   reproduces the skewed degree distribution that drives the partition
//!   imbalance the paper identifies as the speedup limiter), and the naive
//!   random equal-cardinality vertex partitioner the paper uses.
//! * [`pagerank`] — the three Bulk-Synchronous-Processing PageRank
//!   implementations of §7.5: `SHM(pthreads)` on one cache-coherent
//!   multicore, `soNUMA(bulk)` with per-peer shuffle reads, and
//!   `soNUMA(fine-grain)` with one asynchronous remote read per
//!   cross-partition edge (the Fig. 4 programming model).
//! * [`kvdir`] — the directory plane of the rack-scale KV-cache service,
//!   the one key-value store here (§2.1, §8): a deterministic
//!   key → `(node, offset, len)` map with power-of-two value-size classes
//!   and per-node bump-allocated layouts, shared by every client of the
//!   bench harness's KV service scenarios.

pub mod graph;
pub mod kvdir;
pub mod pagerank;

pub use graph::{Graph, GraphConfig, Partition};
pub use kvdir::{fill_value, verify_value, KvDirectory, KvPlacement};
pub use pagerank::{PagerankConfig, PagerankResult, Variant};
