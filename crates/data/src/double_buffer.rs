//! Asynchronous double-buffered data input (§4.1).
//!
//! The paper: "We implemented asynchronous double buffering, i.e., we work
//! with two input buffers: one that is being processed and one that is
//! being loaded from disk." The build phase of the initial tree is I/O
//! bound, so overlapping parsing with insertion hides most of the input
//! latency.
//!
//! [`DoubleBufferedReader`] spawns one background thread that reads and
//! parses chunks of transactions into a [`TransactionDb`] buffer while the
//! consumer processes the previously filled buffer. Exactly two buffers
//! circulate between the threads, so memory stays bounded no matter how
//! large the input file is.
//!
//! # Failure model
//!
//! Failures on the reading thread never panic the consumer. An I/O error
//! ([`CfpError::Io`]) or a strict-policy parse error ([`CfpError::Parse`],
//! citing the line) is forwarded through the buffer channel unchanged and
//! surfaces as the `Err` of the next
//! [`next_chunk`](DoubleBufferedReader::next_chunk) call — chunks read
//! before the failure are still delivered in order first. Even a failed
//! thread spawn is reported this way instead of panicking.

use crate::fimi::{parse_line_with_policy, ParsePolicy, ParseStats};
use crate::types::{Item, TransactionDb};
use cfp_fault::CfpError;
use std::io::{self, BufRead, BufReader, Read};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

/// Default number of transactions per buffer.
pub const DEFAULT_CHUNK: usize = 8192;

/// A filled buffer, or the failure that ended the stream.
type Filled = Result<TransactionDb, CfpError>;

/// Streams transactions from a reader with one background parsing thread
/// and two circulating buffers.
pub struct DoubleBufferedReader {
    filled_rx: Receiver<Filled>,
    empty_tx: Option<SyncSender<TransactionDb>>,
    worker: Option<JoinHandle<()>>,
    stats: Arc<Mutex<ParseStats>>,
}

impl DoubleBufferedReader {
    /// Starts reading `input` strictly, with the default chunk size.
    pub fn new(input: impl Read + Send + 'static) -> Self {
        Self::with_policy(input, DEFAULT_CHUNK, ParsePolicy::Strict)
    }

    /// Starts reading `input` under an explicit [`ParsePolicy`], grouping
    /// `chunk` transactions per buffer.
    pub fn with_policy(
        input: impl Read + Send + 'static,
        chunk: usize,
        policy: ParsePolicy,
    ) -> Self {
        assert!(chunk > 0, "chunk size must be positive");
        let (filled_tx, filled_rx) = sync_channel::<Filled>(2);
        let (empty_tx, empty_rx) = sync_channel::<TransactionDb>(2);
        // Two buffers circulate: one being filled, one being drained.
        empty_tx.send(TransactionDb::new()).expect("fresh channel");
        empty_tx.send(TransactionDb::new()).expect("fresh channel");

        let stats = Arc::new(Mutex::new(ParseStats::default()));
        let worker_stats = Arc::clone(&stats);
        let spawn_tx = filled_tx.clone();
        let worker = std::thread::Builder::new().name("cfp-data-reader".into()).spawn(move || {
            let mut reader = BufReader::new(input);
            let (mut line, mut items) = (String::new(), Vec::<Item>::new());
            let mut local = ParseStats::default();
            while let Ok(mut db) = empty_rx.recv() {
                // Reuse the recycled buffer's allocation and fill it;
                // `Ok(true)` means the input ended.
                db.clear();
                let filled = loop {
                    if db.len() == chunk {
                        break Ok(false);
                    }
                    line.clear();
                    if cfp_fault::should_fail("data.read") {
                        let e = io::Error::other("injected I/O failure (failpoint data.read)");
                        break Err(CfpError::Io(e));
                    }
                    match reader.read_line(&mut line) {
                        Ok(0) => break Ok(true),
                        Ok(_) => {
                            local.lines += 1;
                            items.clear();
                            match parse_line_with_policy(
                                &line,
                                local.lines,
                                policy,
                                &mut items,
                                &mut local,
                            ) {
                                Ok(kept) => {
                                    if kept {
                                        db.push(&items);
                                    }
                                }
                                Err(e) => break Err(e),
                            }
                        }
                        Err(e) => break Err(CfpError::Io(e)),
                    }
                };
                *worker_stats.lock().unwrap_or_else(|e| e.into_inner()) = local;
                let ended = match filled {
                    Ok(ended) => ended,
                    Err(e) => {
                        let _ = filled_tx.send(Err(e));
                        return;
                    }
                };
                if !db.is_empty() {
                    if cfp_trace::events::capturing() {
                        let rows = db.len() as u32;
                        cfp_trace::events::record(cfp_trace::EventKind::BufferSwap { rows });
                    }
                    if filled_tx.send(Ok(db)).is_err() {
                        return; // consumer dropped
                    }
                }
                if ended {
                    return;
                }
            }
        });
        let worker = match worker {
            Ok(h) => Some(h),
            Err(e) => {
                // Report the failed spawn through the normal error path
                // instead of panicking the consumer.
                let _ = spawn_tx.send(Err(CfpError::Io(e)));
                None
            }
        };

        DoubleBufferedReader { filled_rx, empty_tx: Some(empty_tx), worker, stats }
    }

    /// Receives the next filled buffer, or `None` at end of input.
    ///
    /// The previous buffer should be handed back via
    /// [`recycle`](Self::recycle) to keep both buffers circulating.
    pub fn next_chunk(&mut self) -> Result<Option<TransactionDb>, CfpError> {
        let wait_t0 = cfp_trace::hist::maybe_now();
        let received = self.filled_rx.recv();
        cfp_trace::hist::record_since(&cfp_trace::hist::DATA_BUFFER_WAIT_NANOS, wait_t0);
        match received {
            Ok(filled) => filled.map(Some),
            Err(_) => Ok(None), // worker finished and dropped its sender
        }
    }

    /// Returns a drained buffer to the reading thread.
    pub fn recycle(&mut self, buffer: TransactionDb) {
        if let Some(tx) = &self.empty_tx {
            let _ = tx.send(buffer);
        }
    }

    /// Parse statistics observed so far. Updated at chunk boundaries and
    /// on stream end, so the value is only final once
    /// [`next_chunk`](Self::next_chunk) has returned `Ok(None)` or `Err`.
    pub fn parse_stats(&self) -> ParseStats {
        *self.stats.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Drives the whole stream through `f`, recycling buffers internally.
    pub fn for_each_transaction(self, mut f: impl FnMut(&[Item])) -> Result<(), CfpError> {
        self.try_for_each_transaction(|t| {
            f(t);
            Ok(())
        })
        .map(drop)
    }

    /// Drives the stream through `f` until it ends or `f` fails (the
    /// reader thread is then stopped), returning the final parse
    /// statistics.
    pub fn try_for_each_transaction(
        mut self,
        mut f: impl FnMut(&[Item]) -> Result<(), CfpError>,
    ) -> Result<ParseStats, CfpError> {
        while let Some(chunk) = self.next_chunk()? {
            for t in chunk.iter() {
                f(t)?;
            }
            self.recycle(chunk);
        }
        Ok(self.parse_stats())
    }
}

impl Drop for DoubleBufferedReader {
    fn drop(&mut self) {
        // Closing the empty-buffer channel tells the worker to stop.
        self.empty_tx.take();
        // Drain anything in flight so the worker's send doesn't block.
        while self.filled_rx.try_recv().is_ok() {}
        if let Some(h) = self.worker.take() {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Collects the entire stream into one database.
    fn collect(rdr: DoubleBufferedReader) -> Result<TransactionDb, CfpError> {
        let mut out = TransactionDb::new();
        rdr.for_each_transaction(|t| out.push(t))?;
        Ok(out)
    }

    fn sample_text(n: usize) -> String {
        let mut s = String::new();
        for i in 0..n {
            s.push_str(&format!("{} {} {}\n", i % 10, i % 7 + 10, i % 3 + 20));
        }
        s
    }

    #[test]
    fn collect_matches_plain_reader() {
        let text = sample_text(1000);
        let rows: Vec<Vec<Item>> =
            (0..1000).map(|i| vec![i % 10, i % 7 + 10, i % 3 + 20]).collect();
        let via_plain = TransactionDb::from_rows(&rows);
        let via_db = collect(DoubleBufferedReader::with_policy(
            std::io::Cursor::new(text.into_bytes()),
            64,
            ParsePolicy::Strict,
        ))
        .unwrap();
        assert_eq!(via_db, via_plain);
    }

    #[test]
    fn for_each_visits_every_transaction_in_order() {
        let text = sample_text(257); // not a multiple of the chunk size
        let rdr = DoubleBufferedReader::with_policy(
            std::io::Cursor::new(text.into_bytes()),
            100,
            ParsePolicy::Strict,
        );
        let mut seen = Vec::new();
        rdr.for_each_transaction(|t| seen.push(t.to_vec())).unwrap();
        assert_eq!(seen.len(), 257);
        assert_eq!(seen[0], vec![0, 10, 20]);
        assert_eq!(seen[256], vec![256 % 10, 256 % 7 + 10, 256 % 3 + 20]);
    }

    #[test]
    fn empty_input_yields_nothing() {
        let rdr = DoubleBufferedReader::new(std::io::Cursor::new(Vec::<u8>::new()));
        let db = collect(rdr).unwrap();
        assert!(db.is_empty());
    }

    #[test]
    fn parse_errors_propagate() {
        let rdr = DoubleBufferedReader::new(std::io::Cursor::new(b"1 2\n3 oops\n".to_vec()));
        assert!(collect(rdr).is_err());
    }

    #[test]
    fn strict_error_cites_the_line_number() {
        let mut rdr =
            DoubleBufferedReader::new(std::io::Cursor::new(b"1 2\n2 3\nbad x\n".to_vec()));
        let first = rdr.next_chunk();
        // The single chunk errors out because the bad line arrives before
        // the chunk boundary; the structured error names line 3.
        let err = first.expect_err("strict parse must fail");
        assert!(matches!(err, CfpError::Parse { line: 3, .. }), "{err:?}");
        assert!(err.to_string().contains("line 3"), "{err}");
    }

    #[test]
    fn skip_policy_drops_bad_lines_and_counts_them() {
        let text = b"1 2\nbad x\n3 4\n".to_vec();
        let mut rdr =
            DoubleBufferedReader::with_policy(std::io::Cursor::new(text), 64, ParsePolicy::Skip);
        let mut rows = Vec::new();
        while let Some(chunk) = rdr.next_chunk().unwrap() {
            for t in chunk.iter() {
                rows.push(t.to_vec());
            }
            rdr.recycle(chunk);
        }
        assert_eq!(rows, vec![vec![1, 2], vec![3, 4]]);
        let stats = rdr.parse_stats();
        assert_eq!(stats.lines, 3);
        assert_eq!(stats.skipped_lines, 1);
        assert_eq!(stats.bad_tokens, 2);
    }

    #[test]
    fn skip_policy_damage_accounting_spans_chunk_boundaries() {
        // Malformed, blank, and valid lines interleaved, with a chunk
        // size small enough that the damage spreads over many chunks —
        // the final stats must still see every line exactly once.
        let mut text = String::new();
        let mut expected_rows = 0u64;
        for i in 0..50u32 {
            text.push_str(&format!("{} {}\n", i, i + 1)); // valid
            text.push('\n'); // blank: valid empty transaction
            text.push_str("oops -3\n"); // malformed: 2 bad tokens
            expected_rows += 2;
        }
        let mut rdr = DoubleBufferedReader::with_policy(
            std::io::Cursor::new(text.into_bytes()),
            4,
            ParsePolicy::Skip,
        );
        let mut rows = 0u64;
        while let Some(chunk) = rdr.next_chunk().unwrap() {
            rows += chunk.len() as u64;
            rdr.recycle(chunk);
        }
        assert_eq!(rows, expected_rows);
        let stats = rdr.parse_stats();
        assert_eq!(stats.lines, 150);
        assert_eq!(stats.skipped_lines, 50);
        assert_eq!(stats.bad_tokens, 100);
    }

    #[cfg(feature = "trace")]
    #[test]
    fn skip_policy_trace_counters_through_double_buffer() {
        use cfp_trace::counters as tc;
        let before_lines = tc::DATA_SKIPPED_LINES.get();
        let before_tokens = tc::DATA_BAD_TOKENS.get();
        cfp_trace::set_enabled(true);
        let text = b"1 2\nbad\n\n3\nworse yet\n".to_vec();
        let mut rdr =
            DoubleBufferedReader::with_policy(std::io::Cursor::new(text), 2, ParsePolicy::Skip);
        while let Some(chunk) = rdr.next_chunk().unwrap() {
            rdr.recycle(chunk);
        }
        cfp_trace::set_enabled(false);
        let stats = rdr.parse_stats();
        assert_eq!(stats.skipped_lines, 2);
        assert_eq!(stats.bad_tokens, 3);
        // Trace counters mirror the per-read stats (>= because other
        // trace-gated tests share the global registry).
        assert!(tc::DATA_SKIPPED_LINES.get() >= before_lines + 2);
        assert!(tc::DATA_BAD_TOKENS.get() >= before_tokens + 3);
    }

    #[cfg(feature = "trace")]
    #[test]
    fn buffer_swaps_land_on_the_reader_threads_event_track() {
        use std::sync::OnceLock;
        // Other tests start reader threads of their own while capture is
        // on, so several tracks may carry the default name. The input
        // tags the track of the thread that reads it — this reader's —
        // on the first read, before that thread records an event, and
        // keeps the thread's own name.
        const TRACK: &str = "buffer-swap-test-reader";
        struct TaggingInput {
            inner: std::io::Cursor<Vec<u8>>,
            thread: Arc<OnceLock<Option<String>>>,
        }
        impl Read for TaggingInput {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                self.thread.get_or_init(|| {
                    cfp_trace::events::name_thread(TRACK);
                    std::thread::current().name().map(str::to_string)
                });
                self.inner.read(buf)
            }
        }

        cfp_trace::events::set_capture(true);
        let thread = Arc::new(OnceLock::new());
        let input = TaggingInput {
            inner: std::io::Cursor::new(sample_text(250).into_bytes()),
            thread: Arc::clone(&thread),
        };
        let rdr = DoubleBufferedReader::with_policy(input, 100, ParsePolicy::Strict);
        let db = collect(rdr).unwrap();
        assert_eq!(db.len(), 250);
        cfp_trace::events::set_capture(false);
        assert_eq!(thread.get(), Some(&Some("cfp-data-reader".to_string())));
        let tracks = cfp_trace::events::drain();
        let reader = tracks
            .iter()
            .find(|t| t.name == TRACK)
            .expect("the reader thread must record on its own track");
        let swaps: Vec<u32> = reader
            .events
            .iter()
            .filter_map(|e| match e.kind {
                cfp_trace::EventKind::BufferSwap { rows } => Some(rows),
                _ => None,
            })
            .collect();
        // 250 rows in chunks of 100: two full buffers plus the final
        // partial one at end of input.
        assert_eq!(swaps, vec![100, 100, 50]);
    }

    #[test]
    fn dropping_early_does_not_hang() {
        let text = sample_text(100_000);
        let mut rdr = DoubleBufferedReader::with_policy(
            std::io::Cursor::new(text.into_bytes()),
            128,
            ParsePolicy::Strict,
        );
        let first = rdr.next_chunk().unwrap();
        assert!(first.is_some());
        drop(rdr); // must join cleanly even with data still in flight
    }
}
