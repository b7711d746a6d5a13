//! Property-based tests for the workload substrate.

#![allow(clippy::needless_range_loop)]

use corp_trace::{
    filter_short_lived, fluctuation_spreads, parse_csv, records_to_jobs, resample_trace, to_csv,
    window_spread, GoogleCsvReader, IngestConfig, JobSpec, ReadError, TaskRecord, TraceError,
    TraceJobSource, WorkloadConfig, WorkloadGenerator, NUM_RESOURCES,
};
use proptest::prelude::*;
use std::io::BufReader;

fn arb_record() -> impl Strategy<Value = TaskRecord> {
    (
        0u64..10_000,
        1u64..500,
        1u64..64,
        0u32..8,
        0.0f64..64.0,
        0.0f64..64.0,
        0.0f64..512.0,
    )
        .prop_map(|(start, len, job, task, cpu, mem, sto)| TaskRecord {
            start_secs: start,
            end_secs: start + len,
            job_id: job,
            task_index: task,
            cpu,
            memory: mem,
            storage: sto,
        })
}

/// A job-contiguous trace: each job's records adjacent, job first-starts
/// strictly increasing — the precondition under which streaming ingest is
/// byte-identical to the batch pipeline. Job ids deliberately *decrease*
/// so ordering provably comes from first-start, not id.
fn arb_contiguous_trace() -> impl Strategy<Value = Vec<TaskRecord>> {
    prop::collection::vec(
        prop::collection::vec(
            (
                0u64..300,
                1u64..400,
                0u32..3,
                0.0f64..8.0,
                0.0f64..16.0,
                0.0f64..64.0,
            ),
            1..4,
        ),
        1..8,
    )
    .prop_map(|jobs| {
        let n = jobs.len();
        let mut out = Vec::new();
        for (i, group) in jobs.into_iter().enumerate() {
            let base = i as u64 * 1000;
            let id = (n - i) as u64 * 10 + 3;
            for (off, len, task, cpu, mem, sto) in group {
                out.push(TaskRecord {
                    start_secs: base + off,
                    end_secs: base + off + len,
                    job_id: id,
                    task_index: task,
                    cpu,
                    memory: mem,
                    storage: sto,
                });
            }
        }
        out
    })
}

/// The batch (all-in-RAM) ingest pipeline.
fn batch_jobs(records: &[TaskRecord], cfg: &IngestConfig) -> Vec<JobSpec> {
    let filtered = match cfg.max_lifetime_secs {
        Some(max) => filter_short_lived(records, max),
        None => records.to_vec(),
    };
    records_to_jobs(&resample_trace(&filtered, cfg.slot_secs), cfg)
}

proptest! {
    #[test]
    fn streaming_reader_matches_parse_csv(
        records in prop::collection::vec(arb_record(), 0..32),
        cap in 1usize..48,
    ) {
        // Tiny BufReader capacities force line reads across chunk
        // boundaries.
        let csv = to_csv(&records);
        let streamed: Vec<TaskRecord> =
            GoogleCsvReader::new(BufReader::with_capacity(cap, csv.as_bytes()))
                .collect::<Result<_, _>>()
                .unwrap();
        let batch = parse_csv(&csv).unwrap();
        prop_assert_eq!(
            format!("{streamed:?}"),
            format!("{batch:?}"),
            "streaming reader must be byte-identical to parse_csv"
        );
    }

    #[test]
    fn streaming_ingest_matches_batch_pipeline(
        records in arb_contiguous_trace(),
        slot in 1u64..25,
        cutoff in 100u64..2_000,
        cap in 1usize..48,
    ) {
        let cfg = IngestConfig {
            slot_secs: slot,
            max_lifetime_secs: Some(cutoff),
        };
        let csv = to_csv(&records);
        let reader = GoogleCsvReader::new(BufReader::with_capacity(cap, csv.as_bytes()));
        let streamed: Vec<JobSpec> = TraceJobSource::new(reader, cfg.clone())
            .collect::<Result<_, _>>()
            .unwrap();
        let batch = batch_jobs(&records, &cfg);
        prop_assert_eq!(
            format!("{streamed:?}"),
            format!("{batch:?}"),
            "streaming ingest must be byte-identical to the batch pipeline"
        );
    }

    #[test]
    fn malformed_rows_error_identically(
        records in arb_contiguous_trace(),
        at in 0usize..24,
        kind in 0usize..3,
        cap in 1usize..48,
    ) {
        let bad_row = match kind {
            0 => "1,2",                 // wrong field count
            1 => "0,10,zz,0,1,1,1",     // non-numeric field
            _ => "5,5,1,0,1,1,1",       // empty interval (end == start)
        };
        let mut lines: Vec<String> = to_csv(&records).lines().map(str::to_owned).collect();
        let at = at.min(lines.len());
        lines.insert(at, bad_row.to_owned());
        let csv = lines.join("\n") + "\n";

        let expected = parse_csv(&csv).unwrap_err();
        let streamed = GoogleCsvReader::new(BufReader::with_capacity(cap, csv.as_bytes()))
            .collect::<Result<Vec<TaskRecord>, _>>()
            .unwrap_err();
        match streamed {
            ReadError::Trace(e) => prop_assert_eq!(e, expected),
            other => return Err(TestCaseError::fail(format!("unexpected error {other:?}"))),
        }
        let variant_ok = match kind {
            0 => matches!(expected, TraceError::FieldCount { .. }),
            1 => matches!(expected, TraceError::BadField { .. }),
            _ => matches!(expected, TraceError::EmptyInterval { .. }),
        };
        prop_assert!(variant_ok, "error variant must match the injected corruption");
    }

    #[test]
    fn workload_invariants_hold_for_any_seed(seed in 0u64..1_000, n in 1usize..40) {
        let mut g = WorkloadGenerator::new(
            WorkloadConfig { num_jobs: n, ..WorkloadConfig::default() },
            seed,
        );
        let jobs = g.generate();
        prop_assert_eq!(jobs.len(), n);
        for j in &jobs {
            prop_assert_eq!(j.demand.len(), j.duration_slots);
            prop_assert!(j.duration_slots >= 1);
            prop_assert!(j.slo_slots >= j.duration_slots);
            for d in &j.demand {
                for r in 0..NUM_RESOURCES {
                    prop_assert!(d[r] > 0.0);
                    prop_assert!(d[r] <= j.requested[r] + 1e-9);
                }
            }
        }
        for w in jobs.windows(2) {
            prop_assert!(w[0].arrival_slot <= w[1].arrival_slot);
        }
    }

    #[test]
    fn csv_round_trip_any_records(records in prop::collection::vec(arb_record(), 0..32)) {
        let parsed = parse_csv(&to_csv(&records)).unwrap();
        prop_assert_eq!(parsed.len(), records.len());
        for (a, b) in parsed.iter().zip(records.iter()) {
            prop_assert_eq!(a.job_id, b.job_id);
            prop_assert_eq!(a.start_secs, b.start_secs);
            prop_assert!((a.cpu - b.cpu).abs() < 1e-9);
            prop_assert!((a.memory - b.memory).abs() < 1e-9);
            prop_assert!((a.storage - b.storage).abs() < 1e-9);
        }
    }

    #[test]
    fn resample_preserves_covered_seconds(
        records in prop::collection::vec(arb_record(), 1..16),
        slot in 1u64..120,
    ) {
        let fine = resample_trace(&records, slot);
        let coarse: u64 = records.iter().map(|r| r.end_secs - r.start_secs).sum();
        let fine_total: u64 = fine.iter().map(|r| r.end_secs - r.start_secs).sum();
        prop_assert_eq!(coarse, fine_total);
        for r in &fine {
            prop_assert!(r.end_secs - r.start_secs <= slot);
        }
    }

    #[test]
    fn filter_never_increases_records(
        records in prop::collection::vec(arb_record(), 0..32),
        cutoff in 1u64..5_000,
    ) {
        let kept = filter_short_lived(&records, cutoff);
        prop_assert!(kept.len() <= records.len());
        // Filtering twice is idempotent.
        let again = filter_short_lived(&kept, cutoff);
        prop_assert_eq!(again.len(), kept.len());
    }

    #[test]
    fn window_spread_nonnegative(xs in prop::collection::vec(-1e6f64..1e6, 0..32)) {
        prop_assert!(window_spread(&xs) >= 0.0);
    }

    #[test]
    fn spreads_bounded_by_global_spread(
        xs in prop::collection::vec(-1e3f64..1e3, 2..64),
        w in 2usize..16,
    ) {
        let global = window_spread(&xs);
        for s in fluctuation_spreads(&xs, w) {
            prop_assert!(s <= global + 1e-9);
        }
    }
}
