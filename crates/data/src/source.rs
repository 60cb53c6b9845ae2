//! Re-scannable transaction sources: the one input pipeline of every
//! CFP-growth run (§2.1, §4.1). Pass 1, the tree build and the partitioned
//! rung's projections all read a [`Source`] — a FIMI file streamed through
//! the double-buffered reader, never held in memory, or a database in
//! memory — through its one [`for_each`](Source::for_each) pass. Pass 1
//! runs at most once per source; its [`Counts`] are shared by every clone.

use crate::count::{count_transaction, ItemRecoder};
use crate::double_buffer::{DoubleBufferedReader, DEFAULT_CHUNK};
use crate::fimi::{ParsePolicy, ParseStats};
use crate::types::{Item, TransactionDb};
use cfp_fault::CfpError;
use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// The result of pass 1 over a source.
#[derive(Clone, Debug, Default)]
pub struct Counts {
    /// Support of every item, indexed by original item id.
    pub supports: Vec<u64>,
    /// Transactions in the source.
    pub transactions: u64,
    /// What the parser saw (all zero for an in-memory source).
    pub parse: ParseStats,
    /// Wall time of the pass.
    pub elapsed: Duration,
}

impl Counts {
    /// The support-ordered recoder of the items frequent at `min_support`.
    pub fn recoder(&self, min_support: u64) -> ItemRecoder {
        ItemRecoder::from_supports(&self.supports, min_support)
    }

    /// Number of distinct items that occur at least once.
    pub fn distinct_items(&self) -> usize {
        self.supports.iter().filter(|&&s| s > 0).count()
    }
}

#[derive(Clone, Debug)]
enum Input<'a> {
    Db(&'a TransactionDb),
    Owned(Arc<TransactionDb>),
    File { path: PathBuf, policy: ParsePolicy },
}

/// A FIMI file or a database in memory, scanned any number of times.
/// Cloning is cheap and shares the cached pass-1 [`Counts`].
#[derive(Clone, Debug)]
pub struct Source<'a> {
    input: Input<'a>,
    counts: Arc<OnceLock<Counts>>,
}

impl<'a> Source<'a> {
    /// A FIMI file, streamed through the double-buffered reader under
    /// `policy` on every pass.
    pub fn file(path: impl AsRef<Path>, policy: ParsePolicy) -> Source<'static> {
        let input = Input::File { path: path.as_ref().to_path_buf(), policy };
        Source { input, counts: Arc::default() }
    }

    /// An owned database whose pass 1 already happened (a projection,
    /// counted while it was cut).
    pub(crate) fn counted(db: TransactionDb, counts: Counts) -> Source<'static> {
        Source { input: Input::Owned(Arc::new(db)), counts: Arc::new(OnceLock::from(counts)) }
    }

    /// One pass: feeds every transaction to `f`, in order, stopping at
    /// the first error — `f`'s own, or the input's (`Io`, or `Parse`
    /// citing the line). Returns what the parser saw.
    pub fn for_each(
        &self,
        f: impl FnMut(&[Item]) -> Result<(), CfpError>,
    ) -> Result<ParseStats, CfpError> {
        let db = match &self.input {
            Input::File { path, policy } => {
                let file = std::fs::File::open(path)?;
                return DoubleBufferedReader::with_policy(file, DEFAULT_CHUNK, *policy)
                    .try_for_each_transaction(f);
            }
            Input::Db(db) => *db,
            Input::Owned(db) => db.as_ref(),
        };
        db.iter().try_for_each(f)?;
        Ok(ParseStats::default())
    }

    /// Pass 1, run on the first call (inside a `count` phase span) and
    /// cached after it.
    pub fn counts(&self) -> Result<&Counts, CfpError> {
        if let Some(counts) = self.counts.get() {
            return Ok(counts);
        }
        let _s = cfp_trace::span(cfp_trace::Phase::Count);
        let start = Instant::now();
        let mut counts = Counts::default();
        counts.parse = self.for_each(|t| {
            count_transaction(t, &mut counts.supports);
            counts.transactions += 1;
            Ok(())
        })?;
        counts.elapsed = start.elapsed();
        Ok(self.counts.get_or_init(|| counts))
    }
}

impl<'a> From<&'a TransactionDb> for Source<'a> {
    fn from(db: &'a TransactionDb) -> Self {
        Source { input: Input::Db(db), counts: Arc::default() }
    }
}

impl<'a> From<&Source<'a>> for Source<'a> {
    fn from(source: &Source<'a>) -> Self {
        source.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::count::count_supports;

    fn rows(source: &Source<'_>) -> Vec<Vec<Item>> {
        let mut out = Vec::new();
        source
            .for_each(|t| {
                out.push(t.to_vec());
                Ok(())
            })
            .unwrap();
        out
    }

    #[test]
    fn file_and_db_sources_stream_the_same_transactions_and_counts() {
        let db = TransactionDb::from_rows(&[vec![1, 2, 2], vec![], vec![7, 1], vec![3]]);
        let path = std::env::temp_dir().join(format!("cfp-source-{}.dat", std::process::id()));
        crate::fimi::write_file(&db, &path).unwrap();
        let file = Source::file(&path, ParsePolicy::Strict);
        let mem = Source::from(&db);
        assert_eq!(rows(&file), rows(&mem));
        for source in [&file, &mem] {
            let counts = source.counts().unwrap();
            assert_eq!(counts.transactions, 4);
            assert_eq!(counts.distinct_items(), db.distinct_items());
            let mut want = count_supports(&db);
            want.truncate(counts.supports.len());
            assert_eq!(counts.supports, want);
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn pass_one_runs_once_and_clones_share_it() {
        let path = std::env::temp_dir().join(format!("cfp-source-once-{}.dat", std::process::id()));
        std::fs::write(&path, "1 2\n2\n").unwrap();
        let source = Source::file(&path, ParsePolicy::Strict);
        let first = source.counts().unwrap() as *const Counts;
        let clone = Source::from(&source);
        // The file is gone: a second pass 1 would fail.
        std::fs::remove_file(&path).unwrap();
        assert_eq!(clone.counts().unwrap() as *const Counts, first);
        assert_eq!(clone.counts().unwrap().supports, vec![0, 1, 2]);
        assert!(matches!(clone.for_each(|_| Ok(())), Err(CfpError::Io(_))));
    }

    #[test]
    fn the_policy_travels_with_the_file() {
        let path = std::env::temp_dir().join(format!("cfp-source-bad-{}.dat", std::process::id()));
        std::fs::write(&path, "1 2\n1 bogus 2\n2\n").unwrap();
        let strict = Source::file(&path, ParsePolicy::Strict);
        assert!(matches!(strict.counts(), Err(CfpError::Parse { line: 2, .. })));
        let skip = Source::file(&path, ParsePolicy::Skip);
        let counts = skip.counts().unwrap();
        assert_eq!((counts.transactions, counts.parse.skipped_lines), (2, 1));
        assert_eq!(rows(&skip), vec![vec![1, 2], vec![2]]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_failing_consumer_stops_the_pass() {
        let db = TransactionDb::from_rows(&[vec![1], vec![2], vec![3]]);
        let mut seen = 0;
        let err = Source::from(&db).for_each(|_| {
            seen += 1;
            if seen == 2 {
                Err(CfpError::Interrupted)
            } else {
                Ok(())
            }
        });
        assert!(matches!(err, Err(CfpError::Interrupted)));
        assert_eq!(seen, 2);
    }
}
