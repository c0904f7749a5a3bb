//! # mb-mem — memory-hierarchy simulation
//!
//! The paper's single-node results (Table II) and all of its
//! micro-architectural findings (Figures 5–7) hinge on the *memory
//! hierarchy*: the Snowball's tiny 32 KB L1 / 512 KB shared L2 against the
//! Xeon's three-level 32 KB / 256 KB / 8 MB hierarchy, and — crucially for
//! Section V.A.1 — the way the OS maps virtual pages to physical frames.
//! This crate simulates all of it:
//!
//! * [`topology`] — an hwloc-style description tree of machines, sockets,
//!   caches, cores and processing units, with the ASCII rendering used to
//!   regenerate Figure 2;
//! * [`cache`] — a set-associative cache simulator (LRU / random / PLRU
//!   replacement) counting hits, misses and evictions;
//! * [`hierarchy`] — composes caches into an L1→L2(→L3)→DRAM hierarchy and
//!   charges per-level latencies;
//! * [`pages`] — virtual→physical page mapping with the three allocation
//!   policies the paper's reproducibility study distinguishes (contiguous,
//!   randomised, reuse-previous);
//! * [`tlb`] — a small TLB model.
//!
//! `mb_cpu::exec_model::ModelExec` drives kernel address streams through
//! the TLB, an optional page table and the cache hierarchy.
//!
//! # Examples
//!
//! ```
//! use mb_mem::cache::{Cache, CacheConfig, Replacement};
//!
//! // The Snowball's 32 KB, 4-way, 32-byte-line L1.
//! let mut l1 = Cache::new(CacheConfig::new(32 * 1024, 32, 4, Replacement::Lru));
//! l1.access(0x1000);
//! l1.access(0x1000);
//! assert_eq!(l1.stats().hits, 1);
//! assert_eq!(l1.stats().misses, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod coloring;
pub mod hierarchy;
pub mod pages;
pub mod tlb;
pub mod topology;

pub use cache::{Cache, CacheConfig, CacheStats, Replacement};
pub use hierarchy::{Hierarchy, HierarchyConfig, LevelConfig};
pub use pages::{PageAllocator, PagePolicy, PageTable};
pub use tlb::{Tlb, TlbConfig};
pub use topology::{Topology, TopologyNode};
