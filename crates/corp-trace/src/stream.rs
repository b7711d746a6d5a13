//! Line-streaming trace readers over `io::BufRead`.
//!
//! [`parse_csv`](crate::parse_csv) demands the whole trace as one `&str`,
//! which caps runs at whatever fits in RAM. The reader here decodes one
//! line at a time from any [`BufRead`] — a file, a decompressor, a socket —
//! holding only the current line buffer, so trace length never affects
//! resident memory. The reader fuses after the first error (a corrupt
//! line poisons everything downstream of it, exactly like the in-memory
//! parser's early return).
//!
//! One on-disk schema is read: [`GoogleCsvReader`] decodes the repo's
//! Google `task_usage`-like layout
//! (`start,end,job_id,task_index,cpu,memory,storage`), sharing
//! [`parse_line`] with [`parse_csv`](crate::parse_csv) so records and
//! errors are byte-identical.

use crate::google::{parse_line, TaskRecord, TraceError};
use std::fmt;
use std::io::BufRead;

/// Errors from a streaming trace reader: either the underlying transport
/// failed or a line failed to decode.
#[derive(Debug)]
pub enum ReadError {
    /// The underlying reader failed.
    Io(std::io::Error),
    /// A line failed to decode (carries line number and byte offset).
    Trace(TraceError),
    /// A job's records were not contiguous in the stream: a record for
    /// `job_id` appeared after that job's window had already been closed
    /// at `line`. Streaming per-job windowing requires group-contiguous
    /// input (sorted traces satisfy this).
    NonContiguousJob {
        /// The job whose records straddle another job's window.
        job_id: u64,
        /// 1-based record index (within the decoded stream) of the
        /// out-of-window record.
        line: usize,
    },
}

impl fmt::Display for ReadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReadError::Io(e) => write!(f, "trace read failed: {e}"),
            ReadError::Trace(e) => write!(f, "trace decode failed: {e}"),
            ReadError::NonContiguousJob { job_id, line } => write!(
                f,
                "record {line}: job {job_id} reappeared after its window closed \
                 (streaming ingest requires job-contiguous traces)"
            ),
        }
    }
}

impl std::error::Error for ReadError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ReadError::Io(e) => Some(e),
            ReadError::Trace(e) => Some(e),
            ReadError::NonContiguousJob { .. } => None,
        }
    }
}

impl From<std::io::Error> for ReadError {
    fn from(e: std::io::Error) -> Self {
        ReadError::Io(e)
    }
}

impl From<TraceError> for ReadError {
    fn from(e: TraceError) -> Self {
        ReadError::Trace(e)
    }
}

/// Streams [`TaskRecord`]s from the Google `task_usage`-like CSV layout,
/// one line at a time.
///
/// Feeding the same bytes through this reader and through
/// [`parse_csv`](crate::parse_csv) yields identical records and identical
/// errors (line number and byte offset included) — pinned by proptest.
#[derive(Debug)]
pub struct GoogleCsvReader<R> {
    inner: R,
    buf: String,
    line_no: usize,
    byte: usize,
    done: bool,
}

impl<R: BufRead> GoogleCsvReader<R> {
    /// Wraps a buffered reader positioned at the start of the trace.
    pub fn new(inner: R) -> Self {
        GoogleCsvReader {
            inner,
            buf: String::new(),
            line_no: 0,
            byte: 0,
            done: false,
        }
    }
}

impl<R: BufRead> Iterator for GoogleCsvReader<R> {
    type Item = Result<TaskRecord, ReadError>;

    fn next(&mut self) -> Option<Self::Item> {
        while !self.done {
            self.buf.clear();
            let n = match self.inner.read_line(&mut self.buf) {
                Ok(n) => n,
                Err(e) => {
                    self.done = true;
                    return Some(Err(ReadError::Io(e)));
                }
            };
            if n == 0 {
                self.done = true;
                return None;
            }
            self.line_no += 1;
            let line_start = self.byte;
            self.byte += n;
            let line = self.buf.strip_suffix('\n').unwrap_or(&self.buf);
            match parse_line(line, self.line_no, line_start) {
                Ok(Some(rec)) => return Some(Ok(rec)),
                Ok(None) => continue,
                Err(e) => {
                    self.done = true;
                    return Some(Err(ReadError::Trace(e)));
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::google::parse_csv;

    #[test]
    fn google_reader_matches_in_memory_parser() {
        let csv = "# header\n0,300,1,0,0.5,1,2\n\n300,600,1,0,0.6,1,2\n";
        let streamed: Vec<TaskRecord> = GoogleCsvReader::new(csv.as_bytes())
            .collect::<Result<_, _>>()
            .unwrap();
        assert_eq!(streamed, parse_csv(csv).unwrap());
    }

    #[test]
    fn google_reader_reports_identical_errors() {
        for bad in [
            "0,300,1,0,0.5,1,2\n0,300,1,0,0.5,1\n",     // field count
            "0,300,1,0,0.5,1,2\nx,300,1,0,0.5,1,2\n",   // bad numeric
            "0,300,1,0,0.5,1,2\n300,300,1,0,0.5,1,2\n", // empty interval
            "0,300,1,0,-4.0,1,2\n",                     // negative demand
            "0,300,1,0,0.5,nan,2\n",                    // NaN demand
            "0,300,1,0,0.5,1,inf\n",                    // infinite demand
        ] {
            let expected = parse_csv(bad).unwrap_err();
            let got = GoogleCsvReader::new(bad.as_bytes())
                .collect::<Result<Vec<_>, _>>()
                .unwrap_err();
            match got {
                ReadError::Trace(e) => assert_eq!(e, expected),
                other => panic!("unexpected error {other:?}"),
            }
        }
    }

    #[test]
    fn google_reader_fuses_after_error() {
        let bad = "bad\n0,300,1,0,0.5,1,2\n";
        let mut reader = GoogleCsvReader::new(bad.as_bytes());
        assert!(reader.next().unwrap().is_err());
        assert!(reader.next().is_none(), "reader must fuse after an error");
    }

    #[test]
    fn google_reader_handles_missing_trailing_newline() {
        let csv = "0,300,1,0,0.5,1,2";
        let streamed: Vec<TaskRecord> = GoogleCsvReader::new(csv.as_bytes())
            .collect::<Result<_, _>>()
            .unwrap();
        assert_eq!(streamed, parse_csv(csv).unwrap());
        assert_eq!(streamed.len(), 1);
    }
}
