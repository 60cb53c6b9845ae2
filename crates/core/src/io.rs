//! Streaming file-based mining — the paper's actual input pipeline.
//!
//! FP-growth needs exactly two passes over the base data (§2.1); with the
//! asynchronous double-buffered reader of §4.1, neither pass materializes
//! the database in memory. [`mine_file`] runs
//!
//! 1. **pass 1** over the FIMI file, streaming transactions into the
//!    per-item support counts,
//! 2. **pass 2** over the file, recoding each transaction and inserting
//!    it into the CFP-tree,
//!
//! then hands off to the in-memory conversion and mine phases — the same
//! executor every other CFP-growth driver runs through. Peak memory
//! therefore contains the compressed structures plus two fixed-size input
//! buffers — never the raw data, which is how the paper can process 26 GB
//! inputs on a 6 GB machine.

use crate::exec::Source;
use crate::growth::{CfpGrowthMiner, MineOpts};
use cfp_data::{ItemsetSink, MineStats};
use std::io;
use std::path::Path;

/// Mines a FIMI-format file in two streaming passes.
pub fn mine_file(
    miner: &CfpGrowthMiner,
    path: impl AsRef<Path>,
    min_support: u64,
    sink: &mut dyn ItemsetSink,
) -> io::Result<MineStats> {
    let exec = miner.exec(&MineOpts::default());
    exec.run(Source::File(path.as_ref()), min_support, sink).map_err(io::Error::from)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfp_data::miner::{CollectSink, Miner};
    use cfp_data::{fimi, TransactionDb};

    fn tmp_file(name: &str, db: &TransactionDb) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("cfp_core_io");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        fimi::write_file(db, &path).unwrap();
        path
    }

    #[test]
    fn file_mining_matches_in_memory_mining() {
        let db = TransactionDb::from_rows(&[
            vec![1, 2, 5],
            vec![2, 4],
            vec![2, 3],
            vec![1, 2, 4],
            vec![1, 3],
            vec![2, 3],
            vec![1, 3],
            vec![1, 2, 3, 5],
            vec![1, 2, 3],
        ]);
        let path = tmp_file("match.dat", &db);
        let miner = CfpGrowthMiner::new();

        let mut file_sink = CollectSink::new();
        let file_stats = mine_file(&miner, &path, 2, &mut file_sink).unwrap();
        let mut mem_sink = CollectSink::new();
        let mem_stats = miner.mine(&db, 2, &mut mem_sink);

        assert_eq!(file_sink.into_sorted(), mem_sink.into_sorted());
        assert_eq!(file_stats.itemsets, mem_stats.itemsets);
        assert_eq!(file_stats.tree_nodes, mem_stats.tree_nodes);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_file_mines_nothing() {
        let path = tmp_file("empty.dat", &TransactionDb::new());
        let mut sink = CollectSink::new();
        let stats = mine_file(&CfpGrowthMiner::new(), &path, 1, &mut sink).unwrap();
        assert_eq!(stats.itemsets, 0);
        assert!(sink.into_sorted().is_empty());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_reports_io_error() {
        let mut sink = CollectSink::new();
        let err = mine_file(&CfpGrowthMiner::new(), "/nonexistent/cfp/file.dat", 1, &mut sink);
        assert!(err.is_err());
    }

    #[test]
    fn malformed_file_reports_parse_error() {
        let dir = std::env::temp_dir().join("cfp_core_io");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.dat");
        std::fs::write(&path, "1 2 three\n").unwrap();
        let mut sink = CollectSink::new();
        assert!(mine_file(&CfpGrowthMiner::new(), &path, 1, &mut sink).is_err());
        std::fs::remove_file(&path).ok();
    }
}
