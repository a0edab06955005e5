//! `replan-dropout`: 100 × 20 instances with tabu baselines, then
//! seeded dropout traces of 19 machine failures on 20 machines (the
//! most a trace can hold). Each disturbance is one request, timed
//! around `Replanner::apply`, which rebuilds the residual instance,
//! snapshot and bound and re-runs a short tabu search.

use super::{probe_instance, snapshot_bytes, Captured, Layers, Traced, Workload};
use crate::check::{check_gap, Fnv, Op};
use crate::host::Stopwatch;
use crate::spans::{child_secs_by_span, Span, Tracer};
use crate::stats::{mean, median, ratio};
use mshc::heuristics::{TabuConfig, TabuSearch};
use mshc::platform::HcInstance;
use mshc::portfolio::replicate_seeds;
use mshc::schedule::{
    DisturbanceRecord, Replanner, RunBudget, Scheduler, Solution, SteppableSearch,
};
use mshc::workloads::{DisturbanceTrace, DisturbanceTraceSpec, WorkloadSpec};
use std::rc::Rc;

/// Instances per pass, each seeded from the workload seed. A request's
/// cost depends on its instance and on how much of the schedule is left
/// when the machine fails, so a pass spreads its requests over many
/// instances. On a 2-vCPU virtual machine, runs over six seeds, taken
/// in turn with the other sizes, spread in pass time by 0.08 of their
/// median with 64 instances of one trace each and by 0.13 with 32.
const INSTANCES: usize = 64;
/// Dropout traces per instance.
const TRACES: usize = 1;
/// Failures per trace: all but one of the 20 machines.
const FAILURES: usize = 19;
/// Tabu iterations for each baseline schedule.
const BASELINE_ITERATIONS: u64 = 100;
/// Tabu iterations per replan — small, so the replanner's own work
/// (residual instance, snapshot, bound, carryover) is a visible share.
const REPLAN_ITERATIONS: u64 = 30;

/// One instance with its baseline schedule and dropout traces.
struct Disturbed {
    seed: u64,
    inst: HcInstance,
    baseline: Solution,
    traces: Vec<DisturbanceTrace>,
}

/// The `replan-dropout` workload.
pub struct ReplanDropout {
    instances: Vec<Disturbed>,
    /// Residual instances kept by the last checked pass, for the probes.
    residuals: Vec<HcInstance>,
}

/// One disturbance's outcome.
pub struct Request {
    label: String,
    record: Result<DisturbanceRecord, String>,
    /// Fingerprint of the schedule the replanner holds afterwards.
    solution_fp: u64,
    secs: f64,
}

/// The search `mshc replan --algo tabu --seed <seed>` builds.
fn tabu(seed: u64) -> TabuSearch {
    TabuSearch::new(TabuConfig { seed, ..TabuConfig::default() })
}

impl ReplanDropout {
    fn run_pass(&self, tr: &Rc<Tracer>, capture: Option<Captured>) -> Vec<Request> {
        let budget = RunBudget::iterations(REPLAN_ITERATIONS);
        let mut out = Vec::with_capacity(INSTANCES * TRACES * FAILURES);
        for d in &self.instances {
            for (ti, trace) in d.traces.iter().enumerate() {
                let mut replanner = Replanner::new(&d.inst, d.baseline.clone());
                let mut plain = tabu(d.seed);
                let mut traced = Traced::new(tabu(d.seed), Rc::clone(tr), capture.clone());
                let wrap = tr.on() || capture.is_some();
                for (ei, event) in trace.events.iter().enumerate() {
                    let search: &mut dyn SteppableSearch =
                        if wrap { &mut traced } else { &mut plain };
                    let t0 = Stopwatch::start();
                    let op = tr.begin_op("schedule.replan.apply");
                    let record = replanner.apply(event, search, &budget);
                    tr.exit(op);
                    let secs = t0.secs();
                    out.push(Request {
                        label: format!("k100l20-{}/trace{ti}/event{ei}", d.seed),
                        record: record.map_err(|e| e.to_string()),
                        solution_fp: Fnv::new().solution(replanner.current_solution()).finish(),
                        secs,
                    });
                }
            }
        }
        out
    }
}

impl Workload for ReplanDropout {
    type Out = Vec<Request>;

    /// One thread: tabu's batch scans are too short to gain from the
    /// pool, and on a shared two-core host their fan-out made request
    /// latencies swing by half between runs. `search-400x32` and
    /// `tournament-small` measure the pool.
    fn threads(_available: usize) -> usize {
        1
    }

    fn setup(seed: u64, tr: &Rc<Tracer>) -> ReplanDropout {
        let instances = replicate_seeds(seed, INSTANCES)
            .into_iter()
            .map(|s| {
                let inst = tr.time("workloads.generate", || WorkloadSpec::large(s).generate());
                let budget = RunBudget::iterations(BASELINE_ITERATIONS);
                let baseline = tabu(s).run(&inst, &budget, None);
                let machines = inst.machine_count() as u32;
                let spec = DisturbanceTraceSpec::dropout(FAILURES, baseline.makespan, machines);
                let traces = replicate_seeds(s, TRACES)
                    .into_iter()
                    .map(|t| tr.time("workloads.generate", || DisturbanceTrace::generate(&spec, t)))
                    .collect();
                Disturbed { seed: s, inst, baseline: baseline.solution, traces }
            })
            .collect();
        ReplanDropout { instances, residuals: Vec::new() }
    }

    fn pass(&mut self, tr: &Rc<Tracer>) -> Self::Out {
        self.run_pass(tr, None)
    }

    fn ops(&self, out: &Self::Out) -> Vec<Op> {
        out.iter()
            .map(|req| match &req.record {
                Ok(r) => Op {
                    label: req.label.clone(),
                    fp: Fnv::new()
                        .u64(req.solution_fp)
                        .u64(r.committed)
                        .u64(r.residual)
                        .u64(r.survivors)
                        .f64(r.carryover_cost)
                        .f64(r.replanned_cost)
                        .f64(r.makespan)
                        .f64(r.lower_bound.unwrap_or(0.0))
                        .u64(r.evaluations)
                        .u64(r.iterations)
                        .str(&r.termination)
                        .finish(),
                    gap: r.gap,
                    // A disturbance after the schedule finished replans
                    // nothing; it is counted apart from the latencies.
                    ms: (r.residual > 0).then_some(req.secs * 1e3),
                    charged: r.evaluations,
                },
                Err(e) => Op {
                    label: req.label.clone(),
                    fp: Fnv::new().str(e).finish(),
                    gap: None,
                    ms: Some(req.secs * 1e3),
                    charged: 0,
                },
            })
            .collect()
    }

    /// A plain pass keeps neither the residual instances nor the inner
    /// searches' results, so the check runs a pass of its own with the
    /// searches wrapped to check each result against its residual.
    fn check(&mut self, _out: Self::Out) -> (Self::Out, Vec<(String, String)>) {
        let captured: Captured = Rc::default();
        let off = Rc::new(Tracer::new(false));
        let out = self.run_pass(&off, Some(Rc::clone(&captured)));
        let capture = captured.take();
        let mut verdicts = capture.verdicts.into_iter();
        let mut errors = Vec::new();
        for req in &out {
            let verdict = match &req.record {
                Err(e) => Err(format!("replan error: {e}")),
                Ok(r) if r.residual == 0 => Ok(()),
                Ok(r) => verdicts
                    .next()
                    .unwrap_or_else(|| Err("no inner search ran".to_string()))
                    .and_then(|()| check_gap(r.gap))
                    .and_then(|()| {
                        (r.replanned_cost <= r.carryover_cost).then_some(()).ok_or_else(|| {
                            format!(
                                "replanned cost {} worse than the carryover {}",
                                r.replanned_cost, r.carryover_cost
                            )
                        })
                    }),
            };
            if let Err(e) = verdict {
                errors.push((req.label.clone(), e));
            }
        }
        self.residuals = capture.residuals;
        (out, errors)
    }

    fn probe(&mut self, tr: &Rc<Tracer>) -> u64 {
        for inst in &self.residuals {
            probe_instance(tr, inst);
        }
        self.instances.iter().map(|d| snapshot_bytes(&d.inst)).max().unwrap_or(0)
    }

    fn layers(&mut self, traced: &[(Vec<Span>, Vec<Request>)], _pass_s: f64, out: &mut Layers) {
        let (mut apply_ms, mut search_ms) = (Vec::new(), Vec::new());
        let (mut apply_total, mut apply_self) = (0.0, 0.0);
        for (spans, _) in traced {
            for (s, inner) in spans.iter().zip(child_secs_by_span(spans)) {
                // Applies without an inner search were no-ops.
                if s.name == "schedule.replan.apply" && inner > 0.0 {
                    apply_ms.push(s.secs() * 1e3);
                    search_ms.push(inner * 1e3);
                    apply_total += s.secs();
                    apply_self += s.secs() - inner;
                }
            }
        }
        let residual: Vec<f64> = traced
            .iter()
            .flat_map(|(_, reqs)| reqs.iter())
            .filter_map(|req| req.record.as_ref().ok())
            .filter(|r| r.residual > 0)
            .map(|r| r.residual as f64)
            .collect();
        out.insert("schedule.replan.apply_ms_p50", median(&apply_ms));
        out.insert("schedule.replan.search_ms_p50", median(&search_ms));
        out.insert("schedule.replan.self_frac", ratio(apply_self, apply_total));
        out.insert("schedule.replan.residual_tasks_mean", mean(&residual));
    }
}
