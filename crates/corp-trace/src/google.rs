//! Google-cluster-trace-like records and the paper's trace pipeline.
//!
//! The 2011 Google trace records per-task resource *requirements and usage*
//! every 5 minutes. Section IV of the paper applies two transforms before
//! feeding it to the provisioners:
//!
//! 1. **long-job removal** — jobs whose lifetime exceeds the short-lived
//!    cutoff are dropped, so only patternless short jobs remain
//!    ([`filter_short_lived`]); and
//! 2. **re-slotting** — the 5-minute samples are transformed into a
//!    10-second trace ([`resample_trace`], linear interpolation between
//!    coarse samples).
//!
//! [`TaskRecord`] carries one usage sample in a CSV layout modeled on the
//! public trace's `task_usage` table (timestamps, job/task ids, CPU rate,
//! canonical memory usage, local disk space). [`parse_csv`]/[`to_csv`]
//! round-trip the format so synthetic traces can be persisted and re-read
//! exactly as a downloaded trace would be.

use std::fmt;

/// One usage sample of one task, mirroring the Google `task_usage` schema
/// (subset: the fields the paper's pipeline consumes).
#[derive(Debug, Clone, PartialEq)]
pub struct TaskRecord {
    /// Sample start time in seconds since trace start.
    pub start_secs: u64,
    /// Sample end time in seconds since trace start.
    pub end_secs: u64,
    /// Job identifier.
    pub job_id: u64,
    /// Task index within the job.
    pub task_index: u32,
    /// Mean CPU usage rate over the sample (normalized cores).
    pub cpu: f64,
    /// Canonical memory usage (GB).
    pub memory: f64,
    /// Local disk space used (GB).
    pub storage: f64,
}

/// Errors from parsing a trace CSV line.
///
/// Every variant carries both the 1-based line number and the byte offset
/// of the start of the offending line, so callers streaming a multi-GB
/// trace through `io::BufRead` can seek straight to the bad row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceError {
    /// The line had the wrong number of comma-separated fields.
    FieldCount {
        /// 1-based line number.
        line: usize,
        /// Byte offset of the start of the line within the input.
        byte: usize,
        /// Number of fields the schema requires.
        expected: usize,
        /// Number of fields found.
        found: usize,
    },
    /// A field failed numeric parsing, or a resource field (`cpu`,
    /// `memory`, `storage`) is negative or not finite.
    BadField {
        /// 1-based line number.
        line: usize,
        /// Byte offset of the start of the line within the input.
        byte: usize,
        /// 0-based field index.
        field: usize,
    },
    /// A sample interval had `end <= start`.
    EmptyInterval {
        /// 1-based line number.
        line: usize,
        /// Byte offset of the start of the line within the input.
        byte: usize,
    },
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::FieldCount {
                line,
                byte,
                expected,
                found,
            } => {
                write!(
                    f,
                    "line {line} (byte {byte}): expected {expected} fields, found {found}"
                )
            }
            TraceError::BadField { line, byte, field } => {
                write!(
                    f,
                    "line {line} (byte {byte}): field {field} is not a valid value"
                )
            }
            TraceError::EmptyInterval { line, byte } => {
                write!(
                    f,
                    "line {line} (byte {byte}): sample interval is empty (end <= start)"
                )
            }
        }
    }
}

impl std::error::Error for TraceError {}

/// Number of comma-separated fields in the Google `task_usage` CSV layout.
pub const GOOGLE_FIELDS: usize = 7;

/// Parses one raw CSV line at 1-based `line_no` starting at byte offset
/// `byte`. Returns `Ok(None)` for blank lines and `#` comments. This is the
/// single decode path shared by the in-memory [`parse_csv`] and the
/// streaming [`GoogleCsvReader`](crate::GoogleCsvReader), so both report
/// byte-exact identical records and errors.
pub fn parse_line(
    raw: &str,
    line_no: usize,
    byte: usize,
) -> Result<Option<TaskRecord>, TraceError> {
    let line = raw.trim();
    if line.is_empty() || line.starts_with('#') {
        return Ok(None);
    }
    let fields: Vec<&str> = line.split(',').map(str::trim).collect();
    if fields.len() != GOOGLE_FIELDS {
        return Err(TraceError::FieldCount {
            line: line_no,
            byte,
            expected: GOOGLE_FIELDS,
            found: fields.len(),
        });
    }
    let rec = TaskRecord {
        start_secs: parse_field(fields[0], line_no, byte, 0)?,
        end_secs: parse_field(fields[1], line_no, byte, 1)?,
        job_id: parse_field(fields[2], line_no, byte, 2)?,
        task_index: parse_field(fields[3], line_no, byte, 3)?,
        cpu: parse_resource(fields[4], line_no, byte, 4)?,
        memory: parse_resource(fields[5], line_no, byte, 5)?,
        storage: parse_resource(fields[6], line_no, byte, 6)?,
    };
    if rec.end_secs <= rec.start_secs {
        return Err(TraceError::EmptyInterval {
            line: line_no,
            byte,
        });
    }
    Ok(Some(rec))
}

fn parse_field<T: std::str::FromStr>(
    s: &str,
    line: usize,
    byte: usize,
    field: usize,
) -> Result<T, TraceError> {
    s.parse::<T>()
        .map_err(|_| TraceError::BadField { line, byte, field })
}

fn parse_resource(s: &str, line: usize, byte: usize, field: usize) -> Result<f64, TraceError> {
    resource_amount(s).ok_or(TraceError::BadField { line, byte, field })
}

/// A resource amount a job can have: a finite, non-negative number (`0`
/// included). `None` for anything else — `nan`, `inf` and negative values
/// too, which would otherwise leak into the utilization sums (Eqs. 1–4).
pub(crate) fn resource_amount(s: &str) -> Option<f64> {
    s.parse::<f64>().ok().filter(|v| v.is_finite() && *v >= 0.0)
}

/// Parses a headerless CSV trace
/// (`start,end,job_id,task_index,cpu,memory,storage` per line; blank lines
/// and `#` comments skipped). Errors carry line number and byte offset.
pub fn parse_csv(input: &str) -> Result<Vec<TaskRecord>, TraceError> {
    let mut out = Vec::new();
    let mut byte = 0usize;
    for (i, raw) in input.split_inclusive('\n').enumerate() {
        let line = raw.strip_suffix('\n').unwrap_or(raw);
        if let Some(rec) = parse_line(line, i + 1, byte)? {
            out.push(rec);
        }
        byte += raw.len();
    }
    Ok(out)
}

/// Serializes records to the CSV layout accepted by [`parse_csv`].
pub fn to_csv(records: &[TaskRecord]) -> String {
    use std::fmt::Write;
    let mut s = String::with_capacity(records.len() * 48);
    s.push_str("# start,end,job_id,task_index,cpu,memory,storage\n");
    for r in records {
        writeln!(
            s,
            "{},{},{},{},{},{},{}",
            r.start_secs, r.end_secs, r.job_id, r.task_index, r.cpu, r.memory, r.storage
        )
        // `fmt::Write` for `String` never returns an error.
        .expect("writing to a String cannot fail");
    }
    s
}

/// Removes jobs whose total lifetime (last sample end minus first sample
/// start) exceeds `max_lifetime_secs` — the paper's long-lived-job filter.
/// Record order within surviving jobs is preserved.
pub fn filter_short_lived(records: &[TaskRecord], max_lifetime_secs: u64) -> Vec<TaskRecord> {
    use std::collections::HashMap;
    let mut span: HashMap<u64, (u64, u64)> = HashMap::new();
    for r in records {
        let e = span.entry(r.job_id).or_insert((r.start_secs, r.end_secs));
        e.0 = e.0.min(r.start_secs);
        e.1 = e.1.max(r.end_secs);
    }
    records
        .iter()
        .filter(|r| {
            let (s, e) = span[&r.job_id];
            e - s <= max_lifetime_secs
        })
        .cloned()
        .collect()
}

/// Re-slots coarse samples onto a finer grid — the paper's "transformed the
/// remaining of the 5-minute trace into 10-second trace".
///
/// Each record covering `[start, end)` is split into `target_slot_secs`
/// slices. Usage values are linearly interpolated between consecutive
/// samples of the same task (last sample is held flat), so fine-grained
/// slots see a smooth approach from one coarse level to the next rather
/// than a stair-step.
///
/// # Panics
///
/// Panics if `target_slot_secs == 0`.
pub fn resample_trace(records: &[TaskRecord], target_slot_secs: u64) -> Vec<TaskRecord> {
    assert!(target_slot_secs > 0, "target slot must be positive");
    use std::collections::HashMap;

    // Group records per (job, task) preserving time order.
    let mut by_task: HashMap<(u64, u32), Vec<&TaskRecord>> = HashMap::new();
    for r in records {
        by_task.entry((r.job_id, r.task_index)).or_default().push(r);
    }
    let mut groups: Vec<((u64, u32), Vec<&TaskRecord>)> = by_task.into_iter().collect();
    groups.sort_unstable_by_key(|&(key, _)| key);

    let mut out = Vec::new();
    for (_, mut samples) in groups {
        samples.sort_by_key(|r| r.start_secs);
        for (i, cur) in samples.iter().enumerate() {
            let next = samples.get(i + 1);
            let coarse_len = (cur.end_secs - cur.start_secs) as f64;
            let mut t = cur.start_secs;
            while t < cur.end_secs {
                let slot_end = (t + target_slot_secs).min(cur.end_secs);
                // Interpolation weight at the slot midpoint.
                let mid = (t + slot_end) as f64 / 2.0;
                let w = ((mid - cur.start_secs as f64) / coarse_len).clamp(0.0, 1.0);
                let lerp = |a: f64, b: f64| a + (b - a) * w;
                let (cpu, memory, storage) = match next {
                    Some(n) => (
                        lerp(cur.cpu, n.cpu),
                        lerp(cur.memory, n.memory),
                        lerp(cur.storage, n.storage),
                    ),
                    None => (cur.cpu, cur.memory, cur.storage),
                };
                out.push(TaskRecord {
                    start_secs: t,
                    end_secs: slot_end,
                    job_id: cur.job_id,
                    task_index: cur.task_index,
                    cpu,
                    memory,
                    storage,
                });
                t = slot_end;
            }
        }
    }
    out.sort_by_key(|r| (r.start_secs, r.job_id, r.task_index));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(start: u64, end: u64, job: u64, cpu: f64) -> TaskRecord {
        TaskRecord {
            start_secs: start,
            end_secs: end,
            job_id: job,
            task_index: 0,
            cpu,
            memory: 1.0,
            storage: 2.0,
        }
    }

    #[test]
    fn csv_round_trip() {
        let records = vec![
            rec(0, 300, 1, 0.5),
            rec(300, 600, 1, 0.7),
            rec(0, 300, 2, 1.5),
        ];
        let csv = to_csv(&records);
        let parsed = parse_csv(&csv).unwrap();
        assert_eq!(parsed, records);
    }

    #[test]
    fn parse_skips_comments_and_blank_lines() {
        let input = "# header\n\n0,300,1,0,0.5,1,2\n   \n300,600,1,0,0.6,1,2\n";
        let parsed = parse_csv(input).unwrap();
        assert_eq!(parsed.len(), 2);
    }

    #[test]
    fn parse_rejects_wrong_field_count() {
        let err = parse_csv("0,300,1,0,0.5,1\n").unwrap_err();
        assert_eq!(
            err,
            TraceError::FieldCount {
                line: 1,
                byte: 0,
                expected: 7,
                found: 6
            }
        );
    }

    #[test]
    fn parse_rejects_non_numeric_field() {
        let err = parse_csv("0,300,xyz,0,0.5,1,2\n").unwrap_err();
        assert_eq!(
            err,
            TraceError::BadField {
                line: 1,
                byte: 0,
                field: 2
            }
        );
    }

    #[test]
    fn parse_rejects_negative_and_non_finite_resources() {
        for field in 4..GOOGLE_FIELDS {
            for bad in ["-4.0", "nan", "inf", "-inf"] {
                let mut cols = ["0", "300", "1", "0", "0.5", "1", "2"];
                cols[field] = bad;
                assert_eq!(
                    parse_csv(&format!("{}\n", cols.join(","))).unwrap_err(),
                    TraceError::BadField {
                        line: 1,
                        byte: 0,
                        field
                    },
                    "{bad} as field {field}"
                );
            }
        }
        let idle = parse_csv("0,300,1,0,0.0,0,0\n").unwrap();
        assert_eq!([idle[0].cpu, idle[0].memory, idle[0].storage], [0.0; 3]);
    }

    #[test]
    fn parse_rejects_empty_interval() {
        let err = parse_csv("300,300,1,0,0.5,1,2\n").unwrap_err();
        assert_eq!(err, TraceError::EmptyInterval { line: 1, byte: 0 });
    }

    #[test]
    fn parse_reports_correct_line_numbers_and_byte_offsets() {
        let input = "0,300,1,0,0.5,1,2\nbad line\n";
        match parse_csv(input).unwrap_err() {
            TraceError::FieldCount { line, byte, .. } => {
                assert_eq!(line, 2);
                assert_eq!(byte, "0,300,1,0,0.5,1,2\n".len());
                assert_eq!(&input[byte..byte + 3], "bad");
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn filter_drops_long_jobs_keeps_short() {
        let records = vec![
            rec(0, 300, 1, 0.5),   // job 1 lifetime 300 s — kept
            rec(0, 300, 2, 0.5),   // job 2 spans 0..900 — dropped
            rec(600, 900, 2, 0.6), // part of job 2
            rec(100, 250, 3, 0.4), // job 3 lifetime 150 s — kept
        ];
        let kept = filter_short_lived(&records, 300);
        assert_eq!(kept.len(), 2);
        assert!(kept.iter().all(|r| r.job_id != 2));
    }

    #[test]
    fn filter_boundary_is_inclusive() {
        let records = vec![rec(0, 300, 1, 0.5)];
        assert_eq!(filter_short_lived(&records, 300).len(), 1);
        assert_eq!(filter_short_lived(&records, 299).len(), 0);
    }

    #[test]
    fn resample_splits_300s_into_30_slots_of_10s() {
        let records = vec![rec(0, 300, 1, 0.5)];
        let fine = resample_trace(&records, 10);
        assert_eq!(fine.len(), 30);
        assert!(fine.iter().all(|r| r.end_secs - r.start_secs == 10));
        assert_eq!(fine.first().unwrap().start_secs, 0);
        assert_eq!(fine.last().unwrap().end_secs, 300);
    }

    #[test]
    fn resample_interpolates_between_samples() {
        // Two consecutive 5-min samples at cpu 0.0 then 1.0: fine slots in
        // the first window should climb from ~0 toward ~1.
        let records = vec![rec(0, 300, 1, 0.0), rec(300, 600, 1, 1.0)];
        let fine = resample_trace(&records, 10);
        let first_window: Vec<&TaskRecord> = fine.iter().filter(|r| r.start_secs < 300).collect();
        assert_eq!(first_window.len(), 30);
        assert!(first_window[0].cpu < 0.1);
        assert!(first_window[29].cpu > 0.9);
        for w in first_window.windows(2) {
            assert!(
                w[0].cpu <= w[1].cpu + 1e-12,
                "interpolation must be monotone here"
            );
        }
    }

    #[test]
    fn resample_holds_last_sample_flat() {
        let records = vec![rec(0, 300, 1, 0.8)];
        let fine = resample_trace(&records, 10);
        assert!(fine.iter().all(|r| (r.cpu - 0.8).abs() < 1e-12));
    }

    #[test]
    fn resample_handles_non_divisible_intervals() {
        let records = vec![rec(0, 25, 1, 0.5)];
        let fine = resample_trace(&records, 10);
        assert_eq!(fine.len(), 3);
        assert_eq!(fine[2].end_secs - fine[2].start_secs, 5);
    }

    #[test]
    fn resample_preserves_total_coverage() {
        let records = vec![
            rec(0, 300, 1, 0.5),
            rec(300, 600, 1, 0.7),
            rec(0, 300, 2, 0.2),
        ];
        let fine = resample_trace(&records, 10);
        let coarse_secs: u64 = records.iter().map(|r| r.end_secs - r.start_secs).sum();
        let fine_secs: u64 = fine.iter().map(|r| r.end_secs - r.start_secs).sum();
        assert_eq!(coarse_secs, fine_secs);
    }

    #[test]
    fn resample_separates_tasks() {
        let mut a = rec(0, 300, 1, 0.5);
        a.task_index = 0;
        let mut b = rec(0, 300, 1, 0.9);
        b.task_index = 1;
        let fine = resample_trace(&[a, b], 100);
        assert_eq!(fine.len(), 6);
        assert!(fine
            .iter()
            .filter(|r| r.task_index == 0)
            .all(|r| (r.cpu - 0.5).abs() < 1e-12));
        assert!(fine
            .iter()
            .filter(|r| r.task_index == 1)
            .all(|r| (r.cpu - 0.9).abs() < 1e-12));
    }

    #[test]
    fn full_pipeline_filter_then_resample() {
        // End-to-end shape of the paper's Section IV trace preparation.
        let records = vec![
            rec(0, 300, 1, 0.5),
            rec(0, 300, 2, 0.6),
            rec(300, 1200, 2, 0.7), // job 2 is long-lived
        ];
        let short = filter_short_lived(&records, 300);
        let fine = resample_trace(&short, 10);
        assert!(fine.iter().all(|r| r.job_id == 1));
        assert_eq!(fine.len(), 30);
    }
}
