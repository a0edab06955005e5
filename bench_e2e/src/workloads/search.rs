//! `search-400x32`: SE, GA, tabu and SA, each run once on each of two
//! 400 × 32 medium instances at up to two threads. The ≈21 MB transfer
//! slab is far larger than L2, and GA's population scoring and tabu's
//! batch scans fan out over the pool.

use super::{probe_instance, snapshot_bytes, traced_run, Workload};
use crate::check::{run_fingerprint, verify_run, Op};
use crate::host::Stopwatch;
use crate::spans::Tracer;
use mshc::core::{SeConfig, SePendingBias};
use mshc::ga::{GaConfig, GaScheduler};
use mshc::heuristics::{SaConfig, SimulatedAnnealing, TabuConfig, TabuSearch};
use mshc::platform::HcInstance;
use mshc::portfolio::replicate_seeds;
use mshc::schedule::{RunBudget, RunResult, SteppableSearch};
use mshc::workloads::{Connectivity, Heterogeneity, WorkloadSpec};
use std::rc::Rc;

/// Instances per pass, each seeded from the workload seed.
const INSTANCES: usize = 2;

/// SE's `Y` (§4.5): each task is re-allocated only to its 4 best
/// machines, as in the paper's large-size Y sweep (Fig 4). With all 32
/// machines one iteration from a random string takes ≈3.4 s on a 2-vCPU
/// VM with a 2 MiB L2 and would be most of the pass.
const SE_Y: usize = 4;

/// The algorithms of a pass: run-span name, CLI name and iteration
/// budget. SE's first iterations from a random string are its costliest
/// (later ones select few tasks), so one iteration (0.21–0.35 s at
/// `SE_Y` on that VM, depending on the instance) is already a full
/// share. The other budgets are sized to 0.35–0.45 s each, a little
/// more, so the slowest operations of a pass, which set `op_ms_p90`,
/// are runs whose work does not depend on the instance drawn; no
/// algorithm dominates the pass.
const ALGORITHMS: [(&str, &str, u64); 4] = [
    ("core.run", "se", 1),
    ("ga.run", "ga", 250),
    ("heuristics.tabu.run", "tabu", 700),
    ("heuristics.sa.run", "sa", 6500),
];

/// The 400 × 32 preset: the paper's medium classes at four times the
/// §5.3 task count.
fn spec(seed: u64) -> WorkloadSpec {
    WorkloadSpec {
        tasks: 400,
        machines: 32,
        connectivity: Connectivity::Medium,
        heterogeneity: Heterogeneity::Medium,
        ccr: 0.5,
        seed,
    }
}

/// The search `mshc run --algo <name> --seed <seed>` builds.
fn search(name: &str, seed: u64) -> Box<dyn SteppableSearch> {
    match name {
        "se" => Box::new(SePendingBias::new(SeConfig {
            seed,
            selection_bias: f64::NAN,
            y_limit: Some(SE_Y),
            ..SeConfig::default()
        })),
        "ga" => Box::new(GaScheduler::new(GaConfig { seed, ..GaConfig::default() })),
        "tabu" => Box::new(TabuSearch::new(TabuConfig { seed, ..TabuConfig::default() })),
        "sa" => Box::new(SimulatedAnnealing::new(SaConfig { seed, ..SaConfig::default() })),
        other => unreachable!("no search named {other}"),
    }
}

/// The `search-400x32` workload.
pub struct Search400x32 {
    instances: Vec<(u64, HcInstance)>,
}

/// One run's outcome: instance index, algorithm index, result,
/// seconds (busiest-thread CPU).
pub struct Run {
    instance: usize,
    algorithm: usize,
    result: RunResult,
    secs: f64,
}

impl Search400x32 {
    fn label(&self, run: &Run) -> String {
        format!("k400l32-{}/{}", self.instances[run.instance].0, ALGORITHMS[run.algorithm].1)
    }
}

impl Workload for Search400x32 {
    type Out = Vec<Run>;

    fn setup(seed: u64, tr: &Rc<Tracer>) -> Search400x32 {
        let instances = replicate_seeds(seed, INSTANCES)
            .into_iter()
            .map(|s| (s, tr.time("workloads.generate", || spec(s).generate())))
            .collect();
        Search400x32 { instances }
    }

    fn pass(&mut self, tr: &Rc<Tracer>) -> Self::Out {
        let mut out = Vec::with_capacity(self.instances.len() * ALGORITHMS.len());
        for (instance, (seed, inst)) in self.instances.iter().enumerate() {
            for (algorithm, &(span, name, iterations)) in ALGORITHMS.iter().enumerate() {
                let budget = RunBudget::iterations(iterations);
                let mut s = search(name, *seed);
                let t0 = Stopwatch::start();
                let result = if tr.on() {
                    traced_run(tr, span, s.as_mut(), inst, &budget, u64::MAX)
                } else {
                    s.run(inst, &budget, None)
                };
                out.push(Run { instance, algorithm, result, secs: t0.secs() });
            }
        }
        out
    }

    fn ops(&self, out: &Self::Out) -> Vec<Op> {
        out.iter()
            .map(|run| Op {
                label: self.label(run),
                fp: run_fingerprint(&run.result),
                gap: run.result.gap,
                ms: Some(run.secs * 1e3),
                charged: run.result.evaluations,
            })
            .collect()
    }

    fn check(&mut self, out: Self::Out) -> (Self::Out, Vec<(String, String)>) {
        let errors = out
            .iter()
            .filter_map(|run| {
                verify_run(&self.instances[run.instance].1, &run.result)
                    .err()
                    .map(|e| (self.label(run), e))
            })
            .collect();
        (out, errors)
    }

    fn probe(&mut self, tr: &Rc<Tracer>) -> u64 {
        self.instances
            .iter()
            .map(|(_, inst)| {
                probe_instance(tr, inst);
                snapshot_bytes(inst)
            })
            .max()
            .unwrap_or(0)
    }
}
