//! Transaction data handling for the CFP-growth workspace.
//!
//! This crate supplies everything the mining algorithms consume:
//!
//! - [`TransactionDb`]: a flattened in-memory transaction database.
//! - [`fimi`]: reader/writer for the standard FIMI text format (one
//!   whitespace-separated transaction per line), plus the asynchronous
//!   double-buffered reader the paper uses for data input (§4.1).
//! - [`count`]: the first database scan — per-item support counting and the
//!   support-ordered recoding of items into dense identifiers (id 0 = most
//!   frequent), which makes `Δitem ≥ 1` hold along every tree path.
//! - [`quest`]: a from-scratch implementation of the IBM Quest synthetic
//!   transaction generator used for the paper's Quest1/Quest2 datasets.
//! - [`profiles`]: generator configurations mimicking the FIMI real-world
//!   datasets (retail, connect, kosarak, accidents, webdocs) at laptop
//!   scale, with fixed seeds for reproducibility.
//! - [`miner`]: the [`miner::Miner`] trait all algorithms implement
//!   and the [`miner::ItemsetSink`] output abstraction.
//! - [`source`]: the re-scannable transaction [`Source`] (a streamed FIMI
//!   file or a database in memory) and its cached pass-1 [`Counts`].
//! - [`partition`]: item-range projections of a source for exact
//!   partitioned fallback mining under a memory budget (Grahne & Zhu).
//! - [`spill`]: crash-safe spill files (atomic write-fsync-rename, RAII
//!   directory cleanup, bounded retries, I/O failpoints) backing the
//!   supervisor's out-of-core rung.
//! - [`lock`]: PID lock files with stale-lock detection, guarding shared
//!   spill/checkpoint directories against concurrent runs.
//! - [`rng`]: a small deterministic PRNG (xoshiro256++) replacing the
//!   `rand` crate, so the workspace builds without network access.

#![warn(missing_docs)]

pub mod count;
pub mod double_buffer;
pub mod fimi;
pub mod lock;
pub mod miner;
pub mod partition;
pub mod profiles;
pub mod quest;
pub mod rng;
pub mod source;
pub mod spill;
pub mod types;
pub mod zipf;

pub use cfp_fault::CfpError;
pub use count::ItemRecoder;
pub use fimi::{ParsePolicy, ParseStats};
pub use lock::DirLock;
pub use miner::{ItemsetSink, MineProgress, MineStats, Miner, OutputMode};
pub use source::{Counts, Source};
pub use types::{Item, TransactionDb};
