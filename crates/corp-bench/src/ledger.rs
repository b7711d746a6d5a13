//! What happened to every job and in every slot of one run, kept outside
//! the engine from the [`SlotOutcome`]s `run_inspecting` hands out, and its
//! first view, `corp-exp attribute`. The ledger is its own oracle:
//! [`Ledger::check`], called by every run that builds one, asserts that its
//! totals reproduce the report's completed, rejected and violated counts
//! and mean response time bit for bit — a second path to the SLO numbers
//! every figure prints — and that each completed job's wait, restart span
//! and run add up to its response time.

use std::collections::HashMap;

use corp_sim::{JobId, Provisioner, SimulationReport, SlotEngine, SlotOutcome};
use corp_trace::JobSpec;

use crate::env::{
    build_provisioner, cell_simulation, cell_workload, Environment, SchemeKind, SchemeParams,
};
use crate::experiments::{
    ablation_corp, ablation_variants, parallel_map, pct, FigureTable, ABLATION_JOBS,
    AVERAGING_SEEDS, CONFIDENCE_JOBS, CONFIDENCE_LEVELS,
};
use crate::flags::Flags;
use crate::table::TextTable;

/// One job's life: its spec's timing and what the engine did with it.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct JobRecord {
    /// Arrival slot.
    pub arrival: u64,
    /// Slots of work at full allocation.
    pub duration_slots: u64,
    /// Response-time SLO in slots.
    pub slo_slots: u64,
    /// `(slot, VM)` of the first placement.
    pub first: Option<(u64, usize)>,
    /// `(slot, VM)` of the last placement (after the last VM crash that
    /// killed the job).
    pub last: Option<(u64, usize)>,
    /// Placements, restarts included.
    pub placements: u32,
    /// Slot it completed in.
    pub completed: Option<u64>,
    /// Slot it was rejected at admission in.
    pub rejected: Option<u64>,
}

impl JobRecord {
    /// Response time in slots, counted as the engine counts it.
    fn response(&self) -> Option<u64> {
        Some(self.completed?.saturating_sub(self.arrival) + 1)
    }

    fn violated(&self) -> bool {
        self.response().is_some_and(|r| r > self.slo_slots)
    }

    /// A completed job's `(wait, restart span, run)`: first placement −
    /// arrival, last − first placement, completion − last placement + 1.
    /// `None` unless arrival ≤ first ≤ last ≤ completion.
    fn phases(&self) -> Option<(u64, u64, u64)> {
        let (first, last, done) = (self.first?.0, self.last?.0, self.completed?);
        let wait = first.checked_sub(self.arrival)?;
        Some((wait, last.checked_sub(first)?, done.checked_sub(last)? + 1))
    }
}

/// One slot's counts, and the engine's running jobs and occupied VMs after
/// it.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub(crate) struct SlotRecord {
    pub placements: usize,
    pub completions: usize,
    pub rejections: usize,
    pub running_jobs: usize,
    pub occupied_vms: usize,
}

/// Per-job records in spec order and per-slot records in slot order.
#[derive(Debug, Clone, Default)]
pub(crate) struct Ledger {
    at: HashMap<JobId, usize>,
    pub jobs: Vec<JobRecord>,
    pub slots: Vec<SlotRecord>,
}

impl Ledger {
    /// An empty ledger over the run's jobs.
    pub fn new(specs: &[JobSpec]) -> Self {
        let jobs = specs.iter().map(|s| JobRecord {
            arrival: s.arrival_slot,
            duration_slots: s.duration_slots as u64,
            slo_slots: s.slo_slots as u64,
            ..JobRecord::default()
        });
        Ledger {
            at: specs.iter().enumerate().map(|(i, s)| (s.id, i)).collect(),
            jobs: jobs.collect(),
            slots: Vec::new(),
        }
    }

    /// Records the slot `engine` just stepped: a `run_inspecting` closure.
    pub fn record(&mut self, engine: &SlotEngine, outcome: &SlotOutcome) {
        let slot = engine.slot() - 1;
        for &(job, vm) in &outcome.placements {
            let job = &mut self.jobs[self.at[&job]];
            job.first.get_or_insert((slot, vm));
            job.last = Some((slot, vm));
            job.placements += 1;
        }
        for job in &outcome.completed {
            self.jobs[self.at[job]].completed = Some(slot);
        }
        for job in &outcome.rejected {
            self.jobs[self.at[job]].rejected = Some(slot);
        }
        self.slots.push(SlotRecord {
            placements: outcome.placements.len(),
            completions: outcome.completed.len(),
            rejections: outcome.rejected.len(),
            running_jobs: engine.running_jobs(),
            occupied_vms: engine.occupied_vms(),
        });
    }

    /// Asserts the ledger against the run's report (see module docs), and
    /// the slot series against the job records; panics on a disagreement.
    pub fn check(&self, report: &SimulationReport) {
        let completed: Vec<&JobRecord> =
            self.jobs.iter().filter(|j| j.completed.is_some()).collect();
        let rejected = self.jobs.iter().filter(|j| j.rejected.is_some()).count();
        let violated = completed.iter().filter(|j| j.violated()).count();
        assert_eq!(
            (completed.len(), rejected, violated),
            (report.completed, report.rejected, report.violated),
            "ledger (completed, rejected, violated) against the report"
        );
        let responses: u64 = completed.iter().filter_map(|j| j.response()).sum();
        let mean = match completed.len() {
            0 => 0.0,
            n => responses as f64 / n as f64,
        };
        assert_eq!(
            mean.to_bits(),
            report.mean_response_slots.to_bits(),
            "ledger mean response {mean} against the report's {}",
            report.mean_response_slots
        );
        for job in completed {
            let adds_up = job.phases().is_some_and(|(wait, restarts, run)| {
                wait + restarts + run == job.response().unwrap_or(0) && run >= job.duration_slots
            });
            assert!(
                adds_up,
                "wait + restarts + run is not the response: {job:?}"
            );
        }
        let sum = |field: fn(&SlotRecord) -> usize| self.slots.iter().map(field).sum::<usize>();
        let placed = self.jobs.iter().map(|j| j.placements as usize).sum();
        let series = (
            sum(|s| s.placements),
            sum(|s| s.completions),
            sum(|s| s.rejections),
        );
        let records = (placed, report.completed, report.rejected);
        assert_eq!(series, records, "slot series against the job records");
    }

    /// Adds violated jobs' lateness, split by where it went, to `split`.
    pub fn add_lateness(&self, split: &mut Lateness) {
        for job in self.jobs.iter().filter(|j| j.violated()) {
            if let Some((wait, restarts, run)) = job.phases() {
                let stretch = run.saturating_sub(job.duration_slots);
                for (sum, part) in split.iter_mut().zip([1, wait, restarts, stretch]) {
                    *sum += part;
                }
            }
        }
    }
}

/// `[violated jobs, wait, restarts, stretch]`: their lateness (response past
/// `duration_slots`, in slots) waiting for a first placement, restarting
/// after VM crashes, and running longer than the work (throttled).
pub(crate) type Lateness = [u64; 4];

type Cell = Box<dyn Fn(&mut Lateness) + Send + Sync>;

/// Runs `provisioner` on the (environment, #jobs, seed) cell `run_cell`
/// runs, with a [`Ledger`] kept beside it and checked against the report.
pub(crate) fn run_ledgered(
    env: Environment,
    num_jobs: usize,
    seed: u64,
    provisioner: &mut dyn Provisioner,
) -> (SimulationReport, Ledger) {
    let mut ledger = Ledger::new(&cell_workload(env, num_jobs, seed));
    let report = cell_simulation(env, num_jobs, seed, false)
        .run_inspecting(provisioner, |engine, outcome| {
            ledger.record(engine, outcome)
        });
    ledger.check(&report);
    (report, ledger)
}

/// `corp-exp attribute [--fast]`: violated jobs' lateness split into wait,
/// restarts and stretch, for Fig. 9's and Fig. 13's CORP cells (every
/// confidence level, summed over the figures' averaging seeds) and the
/// ablation variants, on the same cells and seeds those runners use.
pub fn attribute_experiment(fast: bool, args: &[String]) -> Result<FigureTable, String> {
    let mut flags = Flags::new("attribute", args);
    if let Some(flag) = flags.next_flag() {
        return Err(flags.unknown(flag));
    }
    let mut cells: Vec<(String, Cell)> = Vec::new();
    for (figure, env) in [("9", Environment::Cluster), ("13", Environment::Ec2)] {
        for confidence in CONFIDENCE_LEVELS {
            let cell = move |split: &mut Lateness| {
                for seed in AVERAGING_SEEDS {
                    let params = SchemeParams {
                        confidence,
                        fast_dnn: fast,
                        seed,
                        ..Default::default()
                    };
                    let mut corp = build_provisioner(SchemeKind::Corp, env, &params);
                    let (_, ledger) = run_ledgered(env, CONFIDENCE_JOBS, seed, corp.as_mut());
                    ledger.add_lateness(split);
                }
            };
            cells.push((
                format!("Fig. {figure} CORP, η {}", pct(confidence)),
                Box::new(cell),
            ));
        }
    }
    for (name, tweak) in ablation_variants() {
        let cell = move |split: &mut Lateness| {
            let mut corp = ablation_corp(fast, &tweak);
            let (_, ledger) = run_ledgered(Environment::Cluster, ABLATION_JOBS, 7, &mut corp);
            ledger.add_lateness(split);
        };
        cells.push((format!("ablation: {name}"), Box::new(cell)));
    }
    let rows = parallel_map(cells, |(name, cell)| {
        let mut split = Lateness::default();
        cell(&mut split);
        let [violated, parts @ ..] = split;
        let total: u64 = parts.iter().sum();
        let share = |part: u64| match total {
            0 => "-".to_string(),
            _ => pct(part as f64 / total as f64),
        };
        let counts = [name, violated.to_string(), total.to_string()];
        counts.into_iter().chain(parts.map(share)).collect()
    });
    let columns = [
        "cell", "violated", "lateness", "wait", "restarts", "stretch",
    ];
    let mut table = TextTable::new("Attribution — violated jobs' lateness (slots)", &columns);
    rows.into_iter().for_each(|row| table.push_row(row));
    Ok(FigureTable {
        id: "attribute".into(),
        table,
        notes: vec![
            "lateness = response − duration = wait (first placement − arrival) + restarts (last − first placement) + stretch (run − duration)".into(),
            format!("Fig. 9/13 rows sum seeds {AVERAGING_SEEDS:?} at {CONFIDENCE_JOBS} jobs; ablations: cluster, {ABLATION_JOBS} jobs, seed 7"),
        ],
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use corp_faults::{FaultEvent, FaultTimeline, TimedFault};
    use corp_sim::StaticPeakProvisioner;

    #[test]
    fn a_crash_timeline_shows_up_as_restarts() {
        // Fig. 9's η = 90 % CORP cell (small DNN) at seed 7, with the
        // first eight VMs crashing at slot 20 and back at 40.
        let (env, seed) = (Environment::Cluster, 7);
        let events = (0..8).flat_map(|vm| {
            let crash = FaultEvent::VmCrash { vm };
            let recover = FaultEvent::VmRecover { vm };
            [(20, crash), (40, recover)].map(|(slot, event)| TimedFault { slot, event })
        });
        let params = SchemeParams {
            fast_dnn: true,
            seed,
            ..Default::default()
        };
        let mut corp = build_provisioner(SchemeKind::Corp, env, &params);
        let mut ledger = Ledger::new(&cell_workload(env, CONFIDENCE_JOBS, seed));
        let report = cell_simulation(env, CONFIDENCE_JOBS, seed, false)
            .with_fault_timeline(FaultTimeline::new(events.collect()))
            .run_inspecting(corp.as_mut(), |engine, outcome| {
                ledger.record(engine, outcome)
            });
        ledger.check(&report);
        assert!(
            ledger.jobs.iter().any(|j| j.placements > 1),
            "nothing restarted"
        );
        let mut split = Lateness::default();
        ledger.add_lateness(&mut split);
        assert!(
            split[2] > 0,
            "no violated job's lateness is a restart: {split:?}"
        );
        assert_eq!(ledger.slots.len() as u64, report.slots_run);
        assert!(ledger
            .slots
            .iter()
            .any(|s| s.running_jobs > 0 && s.occupied_vms > 0));
    }

    #[test]
    fn a_fault_free_cell_restarts_nothing() {
        let (report, ledger) = run_ledgered(Environment::Ec2, 80, 1007, &mut StaticPeakProvisioner);
        assert_eq!(report.num_jobs, 80);
        assert!(ledger.jobs.iter().all(|j| j.placements <= 1));
        let mut split = Lateness::default();
        ledger.add_lateness(&mut split);
        assert_eq!(split[2], 0);
    }

    #[test]
    fn attribute_takes_no_arguments() {
        let args = ["--fast".to_string(), "--jobs".to_string()];
        let refused = attribute_experiment(true, &args).map(|_| ());
        assert_eq!(refused, Err("unknown attribute flag `--jobs`".to_string()));
    }
}
