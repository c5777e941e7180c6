//! Memory subsystem for the soNUMA reproduction.
//!
//! The paper's evaluation platform (Table 1) models split 32 KB L1 caches, a
//! 4 MB LLC, and a single DDR3-1600 channel simulated with DRAMSim2. This
//! crate provides that substrate in a *functional-backing + timing-model*
//! style:
//!
//! * [`PhysicalMemory`] holds the actual bytes (sparse 64 B lines,
//!   gathered into 512 B blocks once a block is dense) and is the single
//!   source of truth for data. Queue pairs, context segments
//!   and message buffers all live here as real bytes.
//! * [`CacheArray`] models set-associative tag arrays with LRU replacement;
//!   [`MemoryHierarchy`] composes per-agent L1s, a shared LLC, and
//!   [`DramModel`] into a latency calculator with MESI-style line ownership,
//!   so cache-to-cache transfers between a core and the RMC — the paper's
//!   key integration argument — have an explicit cost.
//! * [`AddressSpace`] and [`Tlb`] implement 8 KB paging, hardware page walks
//!   and per-context translation, mirroring how the RMC shares page tables
//!   with the OS instead of replicating them across PCIe.
//!
//! # Example
//!
//! ```
//! use sonuma_memory::{PhysicalMemory, PAddr};
//!
//! let mut mem = PhysicalMemory::new(1 << 30); // 1 GiB node
//! mem.write(PAddr::new(0x4000), &[1, 2, 3]);
//! let mut buf = [0u8; 3];
//! mem.read(PAddr::new(0x4000), &mut buf);
//! assert_eq!(buf, [1, 2, 3]);
//! ```

pub mod addr;
pub mod cache;
pub mod dram;
pub mod error;
pub mod hierarchy;
pub mod page;
pub mod phys;
pub mod tlb;

pub use addr::{PAddr, VAddr, CACHE_LINE_BYTES, PAGE_BYTES};
pub use cache::{CacheArray, CacheGeometry, LookupResult};
pub use dram::{DramConfig, DramModel};
pub use error::MemError;
pub use hierarchy::{
    AccessKind, AccessResult, AgentId, HierarchyConfig, HitLevel, MemoryHierarchy,
};
pub use page::{AddressSpace, FrameAllocator};
pub use phys::{PhysicalMemory, BLOCK_BYTES};
pub use tlb::Tlb;
