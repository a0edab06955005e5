//! `se-paper`: simulated evolution with the paper's defaults on the
//! Fig5 preset (100 tasks × 20 machines, high connectivity), one
//! thread — the paper's algorithm on the paper's configuration.

use super::{probe_instance, snapshot_bytes, traced_run, Workload};
use crate::check::{run_fingerprint, verify_run, Op};
use crate::host::Stopwatch;
use crate::spans::Tracer;
use mshc::core::{SeConfig, SePendingBias};
use mshc::platform::HcInstance;
use mshc::portfolio::replicate_seeds;
use mshc::schedule::{RunBudget, RunResult, Scheduler};
use mshc::workloads::FigureWorkload;
use std::rc::Rc;

/// Fig5 instances per pass, each seeded from the workload seed.
const INSTANCES: usize = 6;
/// Evaluations SE may charge per run: about 50 iterations from a random
/// string. A run's opening iterations select many tasks and cost several
/// times a later one, so a run must be long enough that the steady
/// regime dominates its time: with 50 iterations the first 4 take about
/// a fifth of a run's time, and iterations 11 to 50 more than half (see
/// README.md). The cost of 50 iterations varies by about a fifth from
/// one instance to the next, while the cost of one evaluation varies far
/// less, so a fixed evaluation budget keeps the pass time from moving
/// with the workload seed.
const EVALUATIONS: u64 = 175_000;

/// The `se-paper` workload.
pub struct SePaper {
    instances: Vec<(u64, HcInstance)>,
}

/// SE as `mshc run --algo se --seed <seed>` configures it: paper
/// defaults, selection bias resolved from the instance size.
fn se(seed: u64) -> SePendingBias {
    SePendingBias::new(SeConfig { seed, selection_bias: f64::NAN, ..SeConfig::default() })
}

/// The operation label of the run on instance `seed`.
fn label(seed: u64) -> String {
    format!("fig5-{seed}/se")
}

impl Workload for SePaper {
    /// One result and its seconds (busiest-thread CPU) per instance.
    type Out = Vec<(RunResult, f64)>;

    fn threads(_available: usize) -> usize {
        1
    }

    fn setup(seed: u64, tr: &Rc<Tracer>) -> SePaper {
        let instances = replicate_seeds(seed, INSTANCES)
            .into_iter()
            .map(|s| (s, tr.time("workloads.generate", || FigureWorkload::Fig5.spec(s).generate())))
            .collect();
        SePaper { instances }
    }

    fn pass(&mut self, tr: &Rc<Tracer>) -> Self::Out {
        let budget = RunBudget::evaluations(EVALUATIONS);
        self.instances
            .iter()
            .map(|(seed, inst)| {
                let t0 = Stopwatch::start();
                let result = if tr.on() {
                    traced_run(tr, "core.run", &mut se(*seed), inst, &budget, 1)
                } else {
                    se(*seed).run(inst, &budget, None)
                };
                (result, t0.secs())
            })
            .collect()
    }

    fn ops(&self, out: &Self::Out) -> Vec<Op> {
        self.instances
            .iter()
            .zip(out)
            .map(|((seed, _), (r, secs))| Op {
                label: label(*seed),
                fp: run_fingerprint(r),
                gap: r.gap,
                ms: Some(secs * 1e3),
                charged: r.evaluations,
            })
            .collect()
    }

    fn check(&mut self, out: Self::Out) -> (Self::Out, Vec<(String, String)>) {
        let errors = self
            .instances
            .iter()
            .zip(&out)
            .filter_map(|((seed, inst), (r, _))| {
                verify_run(inst, r).err().map(|e| (label(*seed), e))
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
