//! Streaming simulation driver: a [`SlotEngine`] fed from a job iterator
//! instead of a pre-materialized workload vector.
//!
//! The driver pulls arrivals lazily from any `Iterator<Item = JobSpec>`
//! (in practice a `corp_trace::JobSource` adapted via `into_specs()`) and
//! the engine releases every job that leaves, so the resident set is
//! bounded by *concurrently live* jobs, independent of the trace length.
//! [`Simulation`](crate::Simulation) is this driver over a
//! workload held in memory and stably sorted by arrival slot, so an
//! arrival-ordered stream and the batch driver on the same specs produce
//! byte-identical reports — asserted by the tests below and the
//! corp-trace proptests.

use crate::cluster::Cluster;
use crate::engine::{SimulationOptions, SimulationReport, SlotEngine, SlotOutcome};
use crate::provisioner::Provisioner;
use corp_trace::JobSpec;

/// A [`SlotEngine`] stepped against a lazily-pulled arrival stream.
///
/// The stream must be non-decreasing in `arrival_slot` (every reader and
/// generator in `corp-trace` is); a spec whose arrival slot is already in
/// the past is submitted immediately, which only affects its queueing-time
/// accounting, never engine safety.
pub struct StreamingSimulation<I: Iterator<Item = JobSpec>> {
    pub(crate) engine: SlotEngine,
    source: std::iter::Peekable<I>,
    last_arrival: u64,
    submitted: usize,
}

impl<I: Iterator<Item = JobSpec>> StreamingSimulation<I> {
    /// Builds a streaming simulation over `cluster` fed by `source`.
    pub fn new(cluster: Cluster, source: I, options: SimulationOptions) -> Self {
        StreamingSimulation {
            engine: SlotEngine::new(cluster, options),
            source: source.peekable(),
            last_arrival: 0,
            submitted: 0,
        }
    }

    /// Jobs pulled from the stream and submitted so far.
    pub fn submitted(&self) -> usize {
        self.submitted
    }

    /// Read access to the underlying engine (arena occupancy, metrics).
    pub fn engine(&self) -> &SlotEngine {
        &self.engine
    }

    /// Runs until the stream is exhausted and then either every submitted
    /// job has reached a terminal state or the slot cap (`max_slots` past
    /// the last arrival) trips. The cap is not consulted while the stream
    /// still has arrivals to give: the engine idling through a gap longer
    /// than `max_slots` is waiting, not stalled, so every spec in the
    /// stream is submitted whatever the gaps between them.
    pub fn run(&mut self, provisioner: &mut dyn Provisioner) -> SimulationReport {
        self.run_inspecting(provisioner, |_, _| {})
    }

    /// [`run`](Self::run), calling `inspect` with the engine and the
    /// slot's [`SlotOutcome`] after every slot — for callers that sample
    /// engine counters over the run (the soak's visits-per-occupied-VM
    /// gate) or want to know where and when jobs were placed, finished or
    /// rejected: the engine keeps nothing of a job once it has left.
    pub fn run_inspecting(
        &mut self,
        provisioner: &mut dyn Provisioner,
        mut inspect: impl FnMut(&SlotEngine, &SlotOutcome),
    ) -> SimulationReport {
        loop {
            let slot = self.engine.slot();
            while let Some(spec) = self.source.next_if(|s| s.arrival_slot <= slot) {
                self.last_arrival = self.last_arrival.max(spec.arrival_slot);
                self.submitted += 1;
                self.engine.submit(spec);
            }
            let outcome = self.engine.step(provisioner);
            inspect(&self.engine, &outcome);
            if self.source.peek().is_none()
                && (self.engine.active() == 0 || self.engine.past_cap(self.last_arrival))
            {
                break;
            }
        }
        self.engine.report(provisioner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::EnvironmentProfile;
    use crate::provisioner::StaticPeakProvisioner;
    use corp_trace::{JobSource, SyntheticSource, WorkloadConfig, WorkloadGenerator};

    fn cluster() -> Cluster {
        Cluster::from_profile(EnvironmentProfile::palmetto_cluster().with_num_pms(4))
    }

    fn config(n: usize) -> WorkloadConfig {
        WorkloadConfig {
            num_jobs: n,
            ..WorkloadConfig::default()
        }
    }

    /// Byte-compare needs deterministic reports: drop the wall-clock
    /// overhead measurement.
    fn untimed() -> SimulationOptions {
        SimulationOptions {
            measure_decision_time: false,
            ..Default::default()
        }
    }

    #[test]
    fn streamed_run_matches_batch_run_byte_for_byte() {
        let n = 40;
        let seed = 77;
        let batch = {
            let specs = WorkloadGenerator::new(config(n), seed).generate();
            let mut sim = crate::engine::Simulation::new(cluster(), specs, untimed());
            sim.run(&mut StaticPeakProvisioner)
        };
        let streamed = {
            let source = SyntheticSource::new(config(n), seed).into_specs();
            let mut sim = StreamingSimulation::new(cluster(), source, untimed());
            sim.run(&mut StaticPeakProvisioner)
        };
        assert_eq!(
            serde::json::to_string(&batch),
            serde::json::to_string(&streamed),
            "streaming driver diverged from the batch driver"
        );
    }

    #[test]
    fn reclaiming_streamed_run_matches_batch_and_bounds_arena() {
        let n = 40;
        let seed = 78;
        let batch = {
            let specs = WorkloadGenerator::new(config(n), seed).generate();
            let mut sim = crate::engine::Simulation::new(cluster(), specs, untimed());
            sim.run(&mut StaticPeakProvisioner)
        };
        let source = SyntheticSource::new(config(n), seed).into_specs();
        let mut sim = StreamingSimulation::new(cluster(), source, untimed());
        let streamed = sim.run(&mut StaticPeakProvisioner);
        assert_eq!(
            serde::json::to_string(&batch),
            serde::json::to_string(&streamed),
            "reclaiming streaming run diverged from the batch driver"
        );
        assert_eq!(sim.submitted(), n);
        assert!(
            sim.engine().store().capacity() < n,
            "arena grew to trace size ({} slots for {n} jobs) — reclaim is not bounding memory",
            sim.engine().store().capacity()
        );
    }

    #[test]
    fn a_gap_longer_than_the_cap_does_not_truncate_the_stream() {
        // The first arrival sits beyond the cap measured from slot 0: the
        // driver must idle up to it, not stop with the stream unread.
        let specs: Vec<JobSpec> = WorkloadGenerator::new(config(6), 80)
            .generate()
            .into_iter()
            .map(|mut s| {
                s.arrival_slot += 50;
                s
            })
            .collect();
        let options = SimulationOptions {
            max_slots: 20,
            ..untimed()
        };
        let batch = crate::engine::Simulation::new(cluster(), specs.clone(), options.clone())
            .run(&mut StaticPeakProvisioner);
        let streamed = StreamingSimulation::new(cluster(), specs.iter().cloned(), options)
            .run(&mut StaticPeakProvisioner);
        assert_eq!(streamed.num_jobs, 6);
        assert!(streamed.completed > 0);
        assert_eq!(
            serde::json::to_string(&batch),
            serde::json::to_string(&streamed),
            "a sparse stream diverged from the batch driver"
        );

        // A zero cap still reads the whole stream: it stops the slot after
        // the last arrival.
        let last_arrival = specs
            .iter()
            .map(|s| s.arrival_slot)
            .max()
            .expect("six specs");
        let zero_cap = SimulationOptions {
            max_slots: 0,
            ..untimed()
        };
        let report = StreamingSimulation::new(cluster(), specs.into_iter(), zero_cap)
            .run(&mut StaticPeakProvisioner);
        assert_eq!((report.num_jobs, report.slots_run), (6, last_arrival + 1));
    }

    #[test]
    fn slot_cap_stops_a_stalled_run() {
        // A burst of jobs that cannot all finish within the cap: the run
        // must stop `max_slots` past the newest arrival seen instead of
        // spinning until completion.
        let n = 12;
        let source = SyntheticSource::new(config(n), 79)
            .into_specs()
            .map(|mut s| {
                s.arrival_slot = 0;
                s
            });
        let mut sim = StreamingSimulation::new(
            cluster(),
            source,
            SimulationOptions {
                max_slots: 1,
                ..Default::default()
            },
        );
        let report = sim.run(&mut StaticPeakProvisioner);
        assert_eq!(report.slots_run, 1);
        assert_eq!(report.num_jobs, n);
        assert!(
            report.completed < n,
            "a one-slot cap cannot complete the whole workload"
        );
    }
}
