//! **CFP-growth** — memory-efficient frequent-itemset mining.
//!
//! This crate is the top of the workspace reproducing Schlegel, Gemulla &
//! Lehner, *Memory-Efficient Frequent-Itemset Mining* (EDBT 2011): the
//! FP-growth algorithm run on two compressed data structures that cut its
//! memory consumption by roughly an order of magnitude:
//!
//! - the **CFP-tree** ([`cfp_tree::CfpTree`]) during the build phase — a
//!   prefix tree storing delta-encoded items and partial counts in a
//!   compressed ternary representation with embedded leaves and chain
//!   nodes, over a purpose-built arena memory manager;
//! - the **CFP-array** ([`cfp_array::CfpArray`]) during the mine phase —
//!   an item-clustered array of varint triples that needs neither
//!   nodelinks nor parent pointers.
//!
//! The mine phase recycles the same machinery: every conditional pattern
//! base becomes a conditional CFP-tree, is converted to a conditional
//! CFP-array, and is mined recursively (§3 of the paper).
//!
//! # Quick start
//!
//! ```
//! use cfp_core::{CfpGrowthMiner, CollectSink, Miner, TransactionDb};
//!
//! let db = TransactionDb::from_rows(&[
//!     vec![1, 2, 5],
//!     vec![2, 4],
//!     vec![1, 2, 4],
//!     vec![1, 2],
//! ]);
//! let mut sink = CollectSink::new();
//! let stats = CfpGrowthMiner::new().mine(&db, 2, &mut sink);
//! let itemsets = sink.into_sorted();
//! assert!(itemsets.contains(&(vec![1, 2], 3)));
//! assert_eq!(stats.itemsets, itemsets.len() as u64);
//! ```

#![warn(missing_docs)]

pub mod ckpt;
mod exec;
pub mod growth;
pub mod image;
pub mod memstat;
pub mod parallel;
mod schedule;
pub mod spill;
pub mod supervisor;

pub use cfp_array::{convert, CfpArray};
pub use cfp_data::miner::{CollectSink, CountingSink, LengthHistogramSink, NullSink, TopKSink};
pub use cfp_data::{
    Counts, Item, ItemRecoder, ItemsetSink, MineStats, Miner, OutputMode, Source, TransactionDb,
};
pub use cfp_tree::CfpTree;
pub use ckpt::{CkptProgress, Manifest};
pub use growth::{try_build_tree, CfpGrowthMiner, MineOpts};
pub use image::MiningImage;
pub use memstat::{collect_memstat, FpBaselineBytes, MemStatRun};
pub use parallel::ParallelCfpGrowthMiner;
pub use spill::CondSpill;
pub use supervisor::{RecoveryPolicy, RecoveryReport, RungReport, Supervisor};
