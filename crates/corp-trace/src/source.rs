//! Streaming job sources: memory-bounded trace → [`JobSpec`] pipelines.
//!
//! The batch pipeline (`parse_csv` → [`filter_short_lived`] →
//! [`resample_trace`] → assemble) holds the whole trace in `Vec`s and
//! `HashMap`s three times over. The streaming stack here bounds resident
//! memory by the *largest single job*, not the trace:
//!
//! ```text
//! BufRead ──GoogleCsvReader──▶ records ──JobWindows──▶ per-job windows
//!     ──streaming filter/resample──▶ windows ──records_to_jobs──▶ JobSpec
//! ```
//!
//! Each stage is an iterator adapter; a [`TraceJobSource`] composes them
//! all. Every per-window transform delegates to the existing in-memory
//! function ([`filter_short_lived`], [`resample_trace`]), and
//! [`records_to_jobs`] sorts each job's records canonically before any
//! float accumulation — so the streaming path emits **byte-identical**
//! `JobSpec`s to the batch path (pinned by proptest), provided the trace
//! is job-contiguous and job groups appear in `(first start, job id)`
//! order, which sorted trace exports satisfy.
//!
//! A [`JobSource`] is any fallible `JobSpec` iterator. A consumer that can
//! report a decode error iterates it directly (`corp-exp serve --trace`
//! ends the feed at the first `Err` and exits with it);
//! [`into_specs`](JobSource::into_specs) is the adapter for sources that
//! cannot fail. [`SyntheticSource`] wraps the workload generator in the
//! same interface.

use crate::google::{filter_short_lived, resample_trace, TaskRecord};
use crate::stream::ReadError;
use crate::workload::{
    IntensityClass, JobSpec, ResourceKind, WorkloadConfig, WorkloadGenerator, BANDWIDTH_MBPS,
    NUM_RESOURCES, SLO_SLACK,
};
use std::collections::HashSet;

/// Reference VM capacity an ingested job's dominant resource is picked
/// against: the cluster profile's 4 cores / 16 GB / 180 GB.
const REFERENCE_CAPACITY: [f64; NUM_RESOURCES] = [4.0, 16.0, 180.0];

/// How raw trace records become [`JobSpec`]s: slotting and the short-lived
/// cutoff.
#[derive(Debug, Clone, PartialEq)]
pub struct IngestConfig {
    /// Fine slot length in seconds (the paper re-slots to 10 s).
    pub slot_secs: u64,
    /// Drop jobs whose lifetime exceeds this (the paper's 5-minute
    /// long-job cutoff); `None` keeps everything.
    pub max_lifetime_secs: Option<u64>,
}

impl Default for IngestConfig {
    fn default() -> Self {
        IngestConfig {
            slot_secs: 10,
            max_lifetime_secs: Some(300),
        }
    }
}

/// Assembles trace records into [`JobSpec`]s, one per `job_id`.
///
/// Per job: records are sorted canonically by
/// `(start, task_index, end)` — so float accumulation order is fixed
/// regardless of input order — then overlap-weighted onto `slot_secs`
/// slots starting at the job's arrival slot. Concurrent tasks of the same
/// job sum. `requested` is the per-resource peak of the assembled demand
/// (a real cloud request is sized for the worst case), the class is the
/// dominant resource against the cluster profile's VM (4 cores / 16 GB /
/// 180 GB), and jobs are emitted sorted by `(first start, job id)`.
pub fn records_to_jobs(records: &[TaskRecord], cfg: &IngestConfig) -> Vec<JobSpec> {
    assert!(cfg.slot_secs > 0, "slot length must be positive");
    use std::collections::HashMap;
    let mut groups: HashMap<u64, Vec<&TaskRecord>> = HashMap::new();
    for r in records {
        groups.entry(r.job_id).or_default().push(r);
    }
    let mut jobs: Vec<(u64, u64, Vec<&TaskRecord>)> = groups
        .into_iter()
        .map(|(id, recs)| {
            let first = recs.iter().fold(u64::MAX, |m, r| m.min(r.start_secs));
            (first, id, recs)
        })
        .collect();
    jobs.sort_unstable_by_key(|&(first, id, _)| (first, id));
    jobs.into_iter()
        .map(|(_, id, mut recs)| assemble_job(id, &mut recs, cfg))
        .collect()
}

/// Builds the single [`JobSpec`] for one job's records (canonical record
/// order enforced internally).
fn assemble_job(id: u64, recs: &mut [&TaskRecord], cfg: &IngestConfig) -> JobSpec {
    recs.sort_by_key(|r| (r.start_secs, r.task_index, r.end_secs));
    let first = recs[0].start_secs;
    let last_end = recs.iter().fold(0, |m, r| m.max(r.end_secs));
    let arrival_slot = first / cfg.slot_secs;
    let origin = arrival_slot * cfg.slot_secs;
    let duration_slots = (last_end - origin).div_ceil(cfg.slot_secs).max(1) as usize;
    let mut demand = vec![[0.0f64; NUM_RESOURCES]; duration_slots];
    for r in recs.iter() {
        let first_slot = ((r.start_secs - origin) / cfg.slot_secs) as usize;
        for (s, d) in demand.iter_mut().enumerate().skip(first_slot) {
            let slot_start = origin + s as u64 * cfg.slot_secs;
            if slot_start >= r.end_secs {
                break;
            }
            let slot_end = slot_start + cfg.slot_secs;
            let overlap = r.end_secs.min(slot_end) - r.start_secs.max(slot_start);
            let frac = overlap as f64 / cfg.slot_secs as f64;
            d[0] += r.cpu * frac;
            d[1] += r.memory * frac;
            d[2] += r.storage * frac;
        }
    }
    let mut requested = [0.0f64; NUM_RESOURCES];
    for d in &demand {
        for (req, &v) in requested.iter_mut().zip(d) {
            *req = req.max(v);
        }
    }
    let slo_slots = (duration_slots as f64 * SLO_SLACK).ceil() as usize;
    let mut spec = JobSpec {
        id,
        arrival_slot,
        duration_slots,
        class: IntensityClass::Balanced,
        requested,
        demand,
        slo_slots,
        bandwidth_mbps: BANDWIDTH_MBPS,
    };
    spec.class = match spec.dominant_resource(&REFERENCE_CAPACITY) {
        ResourceKind::Cpu => IntensityClass::CpuIntensive,
        ResourceKind::Memory => IntensityClass::MemoryIntensive,
        ResourceKind::Storage => IntensityClass::StorageIntensive,
    };
    spec
}

/// One job's contiguous run of trace records.
pub type JobWindow = Vec<TaskRecord>;

/// Groups a fallible record stream into per-job windows.
///
/// Only one job's records are resident at a time, so memory is bounded by
/// the largest job, not the trace. The stream must be *job-contiguous*
/// (all of a job's records adjacent); a record for an already-closed job
/// yields [`ReadError::NonContiguousJob`]. Detection keeps one `u64` per
/// closed job — the only per-trace state in the whole streaming stack.
#[derive(Debug)]
pub struct JobWindows<I> {
    inner: I,
    current: Option<(u64, JobWindow)>,
    closed: HashSet<u64>,
    records_seen: usize,
    done: bool,
}

impl<I> JobWindows<I>
where
    I: Iterator<Item = Result<TaskRecord, ReadError>>,
{
    /// Wraps a record stream (e.g. a
    /// [`GoogleCsvReader`](crate::GoogleCsvReader)).
    pub(crate) fn new(inner: I) -> Self {
        JobWindows {
            inner,
            current: None,
            closed: HashSet::new(),
            records_seen: 0,
            done: false,
        }
    }
}

impl<I> Iterator for JobWindows<I>
where
    I: Iterator<Item = Result<TaskRecord, ReadError>>,
{
    type Item = Result<JobWindow, ReadError>;

    fn next(&mut self) -> Option<Self::Item> {
        while !self.done {
            match self.inner.next() {
                None => {
                    self.done = true;
                    return self.current.take().map(|(_, w)| Ok(w));
                }
                Some(Err(e)) => {
                    self.done = true;
                    return Some(Err(e));
                }
                Some(Ok(rec)) => {
                    self.records_seen += 1;
                    match &mut self.current {
                        Some((id, window)) if *id == rec.job_id => window.push(rec),
                        slot => {
                            if self.closed.contains(&rec.job_id) {
                                self.done = true;
                                return Some(Err(ReadError::NonContiguousJob {
                                    job_id: rec.job_id,
                                    line: self.records_seen,
                                }));
                            }
                            let prev = slot.replace((rec.job_id, vec![rec]));
                            if let Some((prev_id, window)) = prev {
                                self.closed.insert(prev_id);
                                return Some(Ok(window));
                            }
                        }
                    }
                }
            }
        }
        None
    }
}

/// A streaming source of jobs: any fallible [`JobSpec`] iterator.
///
/// Blanket-implemented, so every composed adapter in this module is a
/// `JobSource`. The one provided method is the infallible adapter the
/// synthetic sources feed the engine's and the serve daemon's
/// `IntoIterator` arrival streams through.
pub trait JobSource: Iterator<Item = Result<JobSpec, ReadError>> {
    /// Adapts the source into a plain `JobSpec` iterator, for sources
    /// that cannot fail ([`SyntheticSource`]). Panics with the decode
    /// error's message if the stream does fail — a source reading outside
    /// input is iterated directly so its error can be returned.
    fn into_specs(self) -> IntoSpecs<Self>
    where
        Self: Sized,
    {
        IntoSpecs { inner: self }
    }
}

impl<T: Iterator<Item = Result<JobSpec, ReadError>>> JobSource for T {}

/// Infallible adapter returned by [`JobSource::into_specs`].
#[derive(Debug)]
pub struct IntoSpecs<S> {
    inner: S,
}

impl<S: JobSource> Iterator for IntoSpecs<S> {
    type Item = JobSpec;

    fn next(&mut self) -> Option<Self::Item> {
        match self.inner.next() {
            Some(Ok(spec)) => Some(spec),
            // Documented on `into_specs`: only infallible sources use this.
            Some(Err(e)) => panic!("job source failed mid-stream: {e}"),
            None => None,
        }
    }
}

/// The full streaming ingest pipeline over any record stream: windows →
/// long-job filter → re-slotting → assembly, one job resident at a time.
#[derive(Debug)]
pub struct TraceJobSource<I> {
    windows: JobWindows<I>,
    cfg: IngestConfig,
}

impl<I> TraceJobSource<I>
where
    I: Iterator<Item = Result<TaskRecord, ReadError>>,
{
    /// Builds the pipeline over a record stream (e.g. a
    /// [`GoogleCsvReader`](crate::GoogleCsvReader)).
    pub fn new(records: I, cfg: IngestConfig) -> Self {
        TraceJobSource {
            windows: JobWindows::new(records),
            cfg,
        }
    }
}

impl<I> Iterator for TraceJobSource<I>
where
    I: Iterator<Item = Result<TaskRecord, ReadError>>,
{
    type Item = Result<JobSpec, ReadError>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            let window = match self.windows.next()? {
                Ok(w) => w,
                Err(e) => return Some(Err(e)),
            };
            let window = match self.cfg.max_lifetime_secs {
                Some(max) => filter_short_lived(&window, max),
                None => window,
            };
            if window.is_empty() {
                continue;
            }
            let fine = resample_trace(&window, self.cfg.slot_secs);
            let mut specs = records_to_jobs(&fine, &self.cfg);
            debug_assert_eq!(specs.len(), 1, "one window assembles to one job");
            if let Some(spec) = specs.pop() {
                return Some(Ok(spec));
            }
        }
    }
}

/// Streaming adapter over [`WorkloadGenerator`]: yields the generator's
/// jobs one at a time without materializing the workload.
///
/// With the same config and seed, draining this source equals one
/// [`WorkloadGenerator::generate`] call byte-for-byte.
#[derive(Debug)]
pub struct SyntheticSource {
    gen: WorkloadGenerator,
    remaining: usize,
}

impl SyntheticSource {
    /// Wraps a generator; yields `config.num_jobs` jobs.
    pub fn new(config: WorkloadConfig, seed: u64) -> Self {
        let total_jobs = config.num_jobs;
        Self::with_total(config, seed, total_jobs)
    }

    /// Wraps a generator but yields `total_jobs` jobs regardless of
    /// `config.num_jobs` — the soak-scale entry point where the job count
    /// would overflow any reasonable batch allocation.
    pub fn with_total(config: WorkloadConfig, seed: u64, total_jobs: usize) -> Self {
        SyntheticSource {
            gen: WorkloadGenerator::new(config, seed),
            remaining: total_jobs,
        }
    }
}

impl Iterator for SyntheticSource {
    type Item = Result<JobSpec, ReadError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        Some(Ok(self.gen.generate_next()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::google::to_csv;
    use crate::stream::GoogleCsvReader;

    fn rec(start: u64, end: u64, job: u64, task: u32, cpu: f64) -> TaskRecord {
        TaskRecord {
            start_secs: start,
            end_secs: end,
            job_id: job,
            task_index: task,
            cpu,
            memory: 1.0,
            storage: 2.0,
        }
    }

    fn batch_pipeline(records: &[TaskRecord], cfg: &IngestConfig) -> Vec<JobSpec> {
        let filtered = match cfg.max_lifetime_secs {
            Some(max) => filter_short_lived(records, max),
            None => records.to_vec(),
        };
        let fine = resample_trace(&filtered, cfg.slot_secs);
        records_to_jobs(&fine, cfg)
    }

    fn streamed_pipeline(records: &[TaskRecord], cfg: &IngestConfig) -> Vec<JobSpec> {
        let csv = to_csv(records);
        TraceJobSource::new(GoogleCsvReader::new(csv.as_bytes()), cfg.clone())
            .collect::<Result<Vec<_>, _>>()
            .unwrap()
    }

    #[test]
    fn assembles_basic_job() {
        let cfg = IngestConfig::default();
        let jobs = records_to_jobs(&[rec(40, 100, 7, 0, 0.5)], &cfg);
        assert_eq!(jobs.len(), 1);
        let j = &jobs[0];
        assert_eq!(j.id, 7);
        assert_eq!(j.arrival_slot, 4);
        assert_eq!(j.duration_slots, 6);
        assert_eq!(j.demand.len(), 6);
        assert!(j.demand.iter().all(|d| (d[0] - 0.5).abs() < 1e-12));
        assert_eq!(j.requested[1], 1.0);
        assert_eq!(j.slo_slots, 8); // ceil(6 * 1.2)
        assert_eq!(j.bandwidth_mbps, 0.02);
    }

    #[test]
    fn concurrent_tasks_sum_and_partial_overlap_weights() {
        let cfg = IngestConfig::default();
        let jobs = records_to_jobs(&[rec(0, 20, 1, 0, 1.0), rec(0, 10, 1, 1, 1.0)], &cfg);
        let j = &jobs[0];
        assert_eq!(j.duration_slots, 2);
        assert!((j.demand[0][0] - 2.0).abs() < 1e-12, "both tasks active");
        assert!((j.demand[1][0] - 1.0).abs() < 1e-12, "one task left");
        // A record covering half a slot contributes half its rate.
        let jobs = records_to_jobs(&[rec(0, 5, 2, 0, 1.0)], &cfg);
        assert!((jobs[0].demand[0][0] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn requested_is_peak_and_class_is_dominant() {
        let cfg = IngestConfig::default();
        let mut hungry = rec(0, 10, 1, 0, 3.9);
        hungry.memory = 0.5;
        hungry.storage = 1.0;
        let jobs = records_to_jobs(&[hungry], &cfg);
        assert_eq!(jobs[0].class, IntensityClass::CpuIntensive);
        assert!((jobs[0].requested[0] - 3.9).abs() < 1e-12);
    }

    #[test]
    fn jobs_emitted_in_first_start_then_id_order() {
        let cfg = IngestConfig::default();
        let jobs = records_to_jobs(
            &[
                rec(100, 160, 9, 0, 0.1),
                rec(0, 60, 5, 0, 0.1),
                rec(0, 60, 3, 0, 0.1),
            ],
            &cfg,
        );
        let ids: Vec<u64> = jobs.iter().map(|j| j.id).collect();
        assert_eq!(ids, vec![3, 5, 9]);
    }

    #[test]
    fn windows_group_contiguous_jobs() {
        let recs = vec![
            Ok(rec(0, 10, 1, 0, 0.1)),
            Ok(rec(10, 20, 1, 0, 0.1)),
            Ok(rec(0, 10, 2, 0, 0.1)),
        ];
        let windows: Vec<JobWindow> = JobWindows::new(recs.into_iter())
            .collect::<Result<_, _>>()
            .unwrap();
        assert_eq!(windows.len(), 2);
        assert_eq!(windows[0].len(), 2);
        assert_eq!(windows[1].len(), 1);
    }

    #[test]
    fn windows_reject_non_contiguous_jobs() {
        let recs = vec![
            Ok(rec(0, 10, 1, 0, 0.1)),
            Ok(rec(0, 10, 2, 0, 0.1)),
            Ok(rec(10, 20, 1, 0, 0.1)),
        ];
        let err = JobWindows::new(recs.into_iter())
            .collect::<Result<Vec<_>, _>>()
            .unwrap_err();
        match err {
            ReadError::NonContiguousJob { job_id, line } => {
                assert_eq!(job_id, 1);
                assert_eq!(line, 3);
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn streaming_pipeline_matches_batch_pipeline() {
        let cfg = IngestConfig::default();
        let records = vec![
            rec(0, 300, 1, 0, 0.5),
            rec(0, 300, 1, 1, 0.2),
            rec(100, 400, 2, 0, 0.9), // long enough to survive
            rec(200, 900, 3, 0, 0.3), // long-lived: filtered out
            rec(310, 430, 4, 0, 0.7),
        ];
        let batch = batch_pipeline(&records, &cfg);
        let streamed = streamed_pipeline(&records, &cfg);
        assert_eq!(batch.len(), 3);
        assert_eq!(
            format!("{streamed:?}"),
            format!("{batch:?}"),
            "streaming and batch ingest must be byte-identical"
        );
    }

    #[test]
    fn synthetic_source_matches_generate() {
        let cfg = WorkloadConfig {
            num_jobs: 40,
            ..WorkloadConfig::default()
        };
        let batch = WorkloadGenerator::new(cfg.clone(), 11).generate();
        let streamed: Vec<JobSpec> = SyntheticSource::new(cfg, 11).into_specs().collect();
        assert_eq!(format!("{streamed:?}"), format!("{batch:?}"));
    }
}
