//! Recorded workload traces: a line-oriented on-disk format for
//! [`JobSpec`] streams, so a workload can be generated once, saved, and
//! replayed bit-for-bit by the `corp-serve` daemon (or shipped between
//! machines) without rerunning the generator.
//!
//! Nothing in the workspace parses JSON back, so the format is hand-rolled
//! text in the same spirit as the Google-trace CSV in [`crate::google`]:
//! human-diffable, versioned by a header line, parsed with explicit errors. Floats are written with Rust's shortest
//! round-trip formatting, which makes save → load → save a fixed point —
//! the determinism tests depend on replayed specs being *equal*, not
//! merely close.
//!
//! ```text
//! corp-trace-v1
//! job,<id>,<arrival_slot>,<duration_slots>,<class>,<slo_slots>,<bandwidth_mbps>,<req_cpu>,<req_mem>,<req_sto>
//! d,<cpu>,<mem>,<sto>          # one line per running slot, duration_slots of them
//! ```

use crate::google::resource_amount;
use crate::workload::{IntensityClass, JobSpec, NUM_RESOURCES};
use std::collections::HashSet;
use std::fmt;
use std::fs;
use std::io::Write as _;
use std::path::Path;

/// Magic first line of a recorded trace file.
pub const TRACE_HEADER: &str = "corp-trace-v1";

/// Errors surfaced while loading a recorded trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecordedTraceError {
    /// The file could not be read or written.
    Io(String),
    /// The first line was not [`TRACE_HEADER`].
    BadHeader,
    /// The line had an unknown tag (neither `job` nor `d`).
    BadTag {
        /// 1-based line number.
        line: usize,
    },
    /// The line had the wrong number of comma-separated fields.
    FieldCount {
        /// 1-based line number.
        line: usize,
        /// Number of fields found.
        found: usize,
    },
    /// A field failed numeric or class parsing, a bandwidth, request or
    /// demand is negative or not finite, or a duration is zero.
    BadField {
        /// 1-based line number.
        line: usize,
        /// 0-based field index within the line.
        field: usize,
    },
    /// A `d` line appeared outside a job, or a job ended with fewer
    /// demand lines than its declared duration.
    DemandMismatch {
        /// 1-based line number where the mismatch was detected.
        line: usize,
    },
    /// A `job` line reused the id of an earlier job. Job ids are the
    /// engine's and the plan protocol's identity for a job: of two jobs
    /// with one id, only one could ever be placed.
    DuplicateJob {
        /// 1-based line number of the second job line.
        line: usize,
    },
}

impl fmt::Display for RecordedTraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecordedTraceError::Io(e) => write!(f, "trace io error: {e}"),
            RecordedTraceError::BadHeader => {
                write!(f, "not a recorded corp trace (expected `{TRACE_HEADER}`)")
            }
            RecordedTraceError::BadTag { line } => write!(f, "line {line}: unknown tag"),
            RecordedTraceError::FieldCount { line, found } => {
                write!(f, "line {line}: wrong field count ({found})")
            }
            RecordedTraceError::BadField { line, field } => {
                write!(f, "line {line}: invalid field {field}")
            }
            RecordedTraceError::DemandMismatch { line } => {
                write!(f, "line {line}: demand lines do not match job duration")
            }
            RecordedTraceError::DuplicateJob { line } => {
                write!(f, "line {line}: job id already used by an earlier job")
            }
        }
    }
}

impl std::error::Error for RecordedTraceError {}

fn class_name(c: IntensityClass) -> &'static str {
    match c {
        IntensityClass::CpuIntensive => "cpu",
        IntensityClass::MemoryIntensive => "mem",
        IntensityClass::StorageIntensive => "sto",
        IntensityClass::Balanced => "bal",
    }
}

fn class_from_name(s: &str) -> Option<IntensityClass> {
    match s {
        "cpu" => Some(IntensityClass::CpuIntensive),
        "mem" => Some(IntensityClass::MemoryIntensive),
        "sto" => Some(IntensityClass::StorageIntensive),
        "bal" => Some(IntensityClass::Balanced),
        _ => None,
    }
}

/// Serializes `jobs` into the recorded-trace text format.
pub fn format_trace(jobs: &[JobSpec]) -> String {
    // Rough sizing: one job line plus one demand line per slot, ~40 bytes
    // each; avoids rehashing the buffer for big traces.
    let lines: usize = jobs.iter().map(|j| 1 + j.demand.len()).sum();
    let mut out = String::with_capacity(16 + lines * 40);
    out.push_str(TRACE_HEADER);
    out.push('\n');
    for j in jobs {
        out.push_str(&format!(
            "job,{},{},{},{},{},{},{},{},{}\n",
            j.id,
            j.arrival_slot,
            j.duration_slots,
            class_name(j.class),
            j.slo_slots,
            j.bandwidth_mbps,
            j.requested[0],
            j.requested[1],
            j.requested[2],
        ));
        for d in &j.demand {
            out.push_str(&format!("d,{},{},{}\n", d[0], d[1], d[2]));
        }
    }
    out
}

/// Parses a recorded trace from its text form. Blank lines and `#`
/// comments are skipped (the header must still be the first significant
/// line), and every job id must be unique.
pub fn parse_trace(text: &str) -> Result<Vec<JobSpec>, RecordedTraceError> {
    let mut jobs: Vec<JobSpec> = Vec::new();
    let mut ids: HashSet<u64> = HashSet::new();
    let mut saw_header = false;
    let mut last_line = 0;
    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        last_line = line_no;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if !saw_header {
            if line != TRACE_HEADER {
                return Err(RecordedTraceError::BadHeader);
            }
            saw_header = true;
            continue;
        }
        let fields: Vec<&str> = line.split(',').collect();
        match fields[0] {
            "job" => {
                if let Some(prev) = jobs.last() {
                    if prev.demand.len() != prev.duration_slots {
                        return Err(RecordedTraceError::DemandMismatch { line: line_no });
                    }
                }
                if fields.len() != 10 {
                    return Err(RecordedTraceError::FieldCount {
                        line: line_no,
                        found: fields.len(),
                    });
                }
                let num = |i: usize| -> Result<f64, RecordedTraceError> {
                    resource_amount(fields[i]).ok_or(RecordedTraceError::BadField {
                        line: line_no,
                        field: i,
                    })
                };
                let int = |i: usize| -> Result<u64, RecordedTraceError> {
                    fields[i]
                        .parse::<u64>()
                        .map_err(|_| RecordedTraceError::BadField {
                            line: line_no,
                            field: i,
                        })
                };
                let class = class_from_name(fields[4]).ok_or(RecordedTraceError::BadField {
                    line: line_no,
                    field: 4,
                })?;
                let duration =
                    Some(int(3)?)
                        .filter(|&d| d > 0)
                        .ok_or(RecordedTraceError::BadField {
                            line: line_no,
                            field: 3,
                        })? as usize;
                let id = int(1)?;
                let (arrival_slot, slo_slots) = (int(2)?, int(5)? as usize);
                let bandwidth_mbps = num(6)?;
                let requested = [num(7)?, num(8)?, num(9)?];
                if !ids.insert(id) {
                    return Err(RecordedTraceError::DuplicateJob { line: line_no });
                }
                jobs.push(JobSpec {
                    id,
                    arrival_slot,
                    duration_slots: duration,
                    class,
                    slo_slots,
                    bandwidth_mbps,
                    requested,
                    demand: Vec::with_capacity(duration),
                });
            }
            "d" => {
                if fields.len() != 1 + NUM_RESOURCES {
                    return Err(RecordedTraceError::FieldCount {
                        line: line_no,
                        found: fields.len(),
                    });
                }
                let job = jobs
                    .last_mut()
                    .ok_or(RecordedTraceError::DemandMismatch { line: line_no })?;
                if job.demand.len() >= job.duration_slots {
                    return Err(RecordedTraceError::DemandMismatch { line: line_no });
                }
                let mut d = [0.0; NUM_RESOURCES];
                for (k, item) in d.iter_mut().enumerate() {
                    *item = resource_amount(fields[1 + k]).ok_or(RecordedTraceError::BadField {
                        line: line_no,
                        field: 1 + k,
                    })?;
                }
                job.demand.push(d);
            }
            _ => return Err(RecordedTraceError::BadTag { line: line_no }),
        }
    }
    if !saw_header {
        return Err(RecordedTraceError::BadHeader);
    }
    if let Some(prev) = jobs.last() {
        if prev.demand.len() != prev.duration_slots {
            return Err(RecordedTraceError::DemandMismatch { line: last_line });
        }
    }
    Ok(jobs)
}

/// Writes `jobs` to `path` in the recorded-trace format.
pub fn save_trace(path: &Path, jobs: &[JobSpec]) -> Result<(), RecordedTraceError> {
    let mut file = fs::File::create(path).map_err(|e| RecordedTraceError::Io(e.to_string()))?;
    file.write_all(format_trace(jobs).as_bytes())
        .map_err(|e| RecordedTraceError::Io(e.to_string()))
}

/// Loads a recorded trace from `path`.
pub fn load_trace(path: &Path) -> Result<Vec<JobSpec>, RecordedTraceError> {
    let text = fs::read_to_string(path).map_err(|e| RecordedTraceError::Io(e.to_string()))?;
    parse_trace(&text)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{WorkloadConfig, WorkloadGenerator};

    fn sample_jobs(n: usize) -> Vec<JobSpec> {
        WorkloadGenerator::new(
            WorkloadConfig {
                num_jobs: n,
                ..WorkloadConfig::default()
            },
            99,
        )
        .generate()
    }

    #[test]
    fn roundtrip_preserves_every_field_exactly() {
        let jobs = sample_jobs(50);
        let text = format_trace(&jobs);
        let back = parse_trace(&text).expect("parse");
        assert_eq!(jobs.len(), back.len());
        for (a, b) in jobs.iter().zip(&back) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.arrival_slot, b.arrival_slot);
            assert_eq!(a.duration_slots, b.duration_slots);
            assert_eq!(a.class, b.class);
            assert_eq!(a.slo_slots, b.slo_slots);
            assert_eq!(a.bandwidth_mbps.to_bits(), b.bandwidth_mbps.to_bits());
            for k in 0..NUM_RESOURCES {
                assert_eq!(a.requested[k].to_bits(), b.requested[k].to_bits());
            }
            assert_eq!(a.demand.len(), b.demand.len());
            for (da, db) in a.demand.iter().zip(&b.demand) {
                for k in 0..NUM_RESOURCES {
                    assert_eq!(da[k].to_bits(), db[k].to_bits(), "demand must round-trip");
                }
            }
        }
        // Save → load → save is a fixed point.
        assert_eq!(text, format_trace(&back));
    }

    #[test]
    fn save_and_load_via_file() {
        let jobs = sample_jobs(5);
        let path = std::env::temp_dir().join("corp_recorded_trace_test.txt");
        save_trace(&path, &jobs).expect("save");
        let back = load_trace(&path).expect("load");
        assert_eq!(jobs.len(), back.len());
        assert_eq!(format_trace(&jobs), format_trace(&back));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn missing_header_is_rejected() {
        assert_eq!(
            parse_trace("job,1,0,1,cpu,5,0.02,1,1,1\nd,0.5,0.5,0.5\n").err(),
            Some(RecordedTraceError::BadHeader)
        );
        assert_eq!(parse_trace("").err(), Some(RecordedTraceError::BadHeader));
    }

    #[test]
    fn comments_and_blank_lines_are_skipped() {
        let text = format!(
            "# preamble\n\n{TRACE_HEADER}\n# a job\njob,7,3,1,bal,9,0.02,1,2,3\nd,0.5,1,1.5\n"
        );
        let jobs = parse_trace(&text).expect("parse");
        assert_eq!(jobs.len(), 1);
        assert_eq!(jobs[0].id, 7);
        assert_eq!(jobs[0].class, IntensityClass::Balanced);
        assert_eq!(jobs[0].demand, vec![[0.5, 1.0, 1.5]]);
    }

    #[test]
    fn demand_count_mismatches_are_rejected() {
        // Too few demand lines for the declared duration.
        let short = format!("{TRACE_HEADER}\njob,1,0,2,cpu,5,0.02,1,1,1\nd,0.5,0.5,0.5\n");
        assert!(matches!(
            parse_trace(&short),
            Err(RecordedTraceError::DemandMismatch { .. })
        ));
        // Too many.
        let long =
            format!("{TRACE_HEADER}\njob,1,0,1,cpu,5,0.02,1,1,1\nd,0.5,0.5,0.5\nd,0.5,0.5,0.5\n");
        assert!(matches!(
            parse_trace(&long),
            Err(RecordedTraceError::DemandMismatch { .. })
        ));
        // Demand before any job.
        let orphan = format!("{TRACE_HEADER}\nd,0.5,0.5,0.5\n");
        assert!(matches!(
            parse_trace(&orphan),
            Err(RecordedTraceError::DemandMismatch { .. })
        ));
    }

    #[test]
    fn a_repeated_job_id_is_rejected_at_its_line() {
        // Two specs with one id: the engine keys jobs by id, so the older
        // one could never be placed. The whole file is refused instead.
        let text = format!(
            "{TRACE_HEADER}\njob,4,0,1,cpu,5,0.02,1,1,1\nd,0.5,0.5,0.5\n\
             job,5,0,1,cpu,5,0.02,1,1,1\nd,0.5,0.5,0.5\n\
             job,4,0,1,mem,5,0.02,1,1,1\nd,0.5,0.5,0.5\n"
        );
        let err = parse_trace(&text).unwrap_err();
        assert_eq!(err, RecordedTraceError::DuplicateJob { line: 6 });
        assert_eq!(
            err.to_string(),
            "line 6: job id already used by an earlier job"
        );
    }

    #[test]
    fn bad_fields_are_pinpointed() {
        let text = format!("{TRACE_HEADER}\njob,1,0,1,volcano,5,0.02,1,1,1\nd,0.5,0.5,0.5\n");
        assert_eq!(
            parse_trace(&text).err(),
            Some(RecordedTraceError::BadField { line: 2, field: 4 })
        );
        let text = format!("{TRACE_HEADER}\njob,1,0,1,cpu,5,0.02,1,1\n");
        assert_eq!(
            parse_trace(&text).err(),
            Some(RecordedTraceError::FieldCount { line: 2, found: 9 })
        );
        let text = format!("{TRACE_HEADER}\nwat,1\n");
        assert_eq!(
            parse_trace(&text).err(),
            Some(RecordedTraceError::BadTag { line: 2 })
        );
    }

    #[test]
    fn impossible_amounts_and_empty_jobs_are_refused() {
        // (job line, demand line, the line and field to be named)
        let cases = [
            ("job,1,0,1,cpu,5,0.02,nan,1,1", "d,0.5,0.5,0.5", 2, 7),
            ("job,1,0,1,cpu,5,0.02,1,-4,1", "d,0.5,0.5,0.5", 2, 8),
            ("job,1,0,1,cpu,5,0.02,1,1,inf", "d,0.5,0.5,0.5", 2, 9),
            ("job,1,0,1,cpu,5,-0.02,1,1,1", "d,0.5,0.5,0.5", 2, 6),
            ("job,1,0,1,cpu,5,0.02,1,1,1", "d,-0.5,0.5,0.5", 3, 1),
            ("job,1,0,1,cpu,5,0.02,1,1,1", "d,0.5,NaN,0.5", 3, 2),
            ("job,1,0,1,cpu,5,0.02,1,1,1", "d,0.5,0.5,-inf", 3, 3),
            ("job,1,0,0,cpu,5,0.02,1,1,1", "", 2, 3),
        ];
        for (job, demand, line, field) in cases {
            let text = format!("{TRACE_HEADER}\n{job}\n{demand}\n");
            assert_eq!(
                parse_trace(&text).err(),
                Some(RecordedTraceError::BadField { line, field }),
                "{job} / {demand}"
            );
        }
        let idle = format!("{TRACE_HEADER}\njob,1,0,1,cpu,5,0,0,0,0\nd,0,0,0\n");
        assert_eq!(parse_trace(&idle).unwrap()[0].requested, [0.0; 3]);
    }
}
