//! The four workloads and the pieces they share: the workload
//! interface, the layer probes of the traced run, and a search wrapper
//! that records spans around `start`, `step` and `result`.

mod replan;
mod se_paper;
mod search;
mod tournament;

pub use replan::ReplanDropout;
pub use se_paper::SePaper;
pub use search::Search400x32;
pub use tournament::TournamentSmall;

use crate::check::{verify_run, Op};
use crate::spans::{Span, Tracer};
use mshc::heuristics::HeftScheduler;
use mshc::platform::{pair_count, HcInstance};
use mshc::schedule::{
    EvalSnapshot, Evaluator, Incumbent, InstanceBound, RunBudget, RunResult, Scheduler, SearchStep,
    Solution, StepVerdict, SteppableSearch,
};
use mshc::trace::Trace;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::rc::Rc;

/// Per-layer metric values by name.
pub type Layers = BTreeMap<&'static str, f64>;

/// What a checked replan pass keeps from the searches it wraps: one
/// verdict per finished search, and the first few residual instances
/// for the layer probes.
#[derive(Default)]
pub struct Capture {
    /// `verify_run` of every finished search on its residual instance.
    pub verdicts: Vec<Result<(), String>>,
    /// The first [`PROBED_RESIDUALS`] residual instances.
    pub residuals: Vec<HcInstance>,
}

/// Residual instances a checked replan pass keeps for the probes (one
/// dropout trace's worth).
pub const PROBED_RESIDUALS: usize = 19;

/// A [`Capture`] shared between a checked pass and its search wrapper.
pub type Captured = Rc<RefCell<Capture>>;

/// One benchmark workload: inputs generated from the workload seed, a
/// fixed, deterministic pass of work over them, and its checks.
pub trait Workload: Sized {
    /// The raw outputs of one pass, kept for checking after the pass
    /// timer stops.
    type Out;

    /// Threads the workload runs at, given the host's parallelism.
    fn threads(available: usize) -> usize {
        available.clamp(1, 2)
    }

    /// Generates the inputs (instances, baselines, traces) from `seed`.
    /// Generation calls are recorded as `workloads.generate` spans.
    fn setup(seed: u64, tr: &Rc<Tracer>) -> Self;

    /// Runs one pass of the fixed work. With an enabled tracer the pass
    /// records spans around every layer call.
    fn pass(&mut self, tr: &Rc<Tracer>) -> Self::Out;

    /// The operations of a pass, with fingerprints and latencies.
    fn ops(&self, out: &Self::Out) -> Vec<Op>;

    /// Checks every output of `out` independently, outside any timed
    /// region. Returns the checked pass — `out` itself, or a fresh pass
    /// where the checks need what a plain pass does not keep — and the
    /// label and message of every failed operation.
    fn check(&mut self, out: Self::Out) -> (Self::Out, Vec<(String, String)>);

    /// Calls the snapshot, bound and full-pass layers from outside on
    /// the workload's instances, inside spans of a traced run. Returns
    /// the largest instance's computed snapshot size in bytes.
    fn probe(&mut self, tr: &Rc<Tracer>) -> u64;

    /// Workload-specific per-layer metrics, given the traced passes'
    /// spans and outputs and the median untraced pass seconds.
    fn layers(&mut self, _traced: &[(Vec<Span>, Self::Out)], _pass_s: f64, _out: &mut Layers) {}
}

/// Repetitions of the timed full evaluation pass per probed instance.
const REPORT_REPS: usize = 16;

/// Bytes the evaluation snapshot of `inst` holds, computed from its
/// layout: the predecessor CSR (`k + 1` offsets, two `u32`s per edge),
/// the `l × k` execution slab and the `l(l-1)/2 × p` transfer slab of
/// `f64`s.
pub fn snapshot_bytes(inst: &HcInstance) -> u64 {
    let (k, l, p) = (inst.task_count(), inst.machine_count(), inst.data_count());
    (4 * (k + 1) + 8 * p + 8 * l * k + 8 * pair_count(l) * p) as u64
}

/// Calls `EvalSnapshot::new`, `InstanceBound::compute` and
/// `Evaluator::report` (on a HEFT schedule) on `inst`, each inside its
/// own span.
pub fn probe_instance(tr: &Tracer, inst: &HcInstance) {
    let op = tr.begin_op("probe");
    let snap = tr.time("schedule.snapshot", || EvalSnapshot::new(inst));
    black_box(tr.time("schedule.lower_bound", || InstanceBound::compute(inst)));
    let solution = HeftScheduler::new().run(inst, &RunBudget::default(), None).solution;
    let mut eval = Evaluator::with_snapshot(&snap);
    for _ in 0..REPORT_REPS {
        black_box(tr.time("schedule.full_pass", || eval.report(black_box(&solution))));
    }
    tr.exit(op);
}

/// Runs a steppable search the way `Scheduler::run` does — `start`,
/// one maximal `step`, `result` — with a span around each, under a run
/// span named `name`. `slice` is the iterations per `step` call; a
/// slice of 1 records one `iteration` span per iteration instead.
pub fn traced_run(
    tr: &Tracer,
    name: &'static str,
    search: &mut dyn SteppableSearch,
    inst: &HcInstance,
    budget: &RunBudget,
    slice: u64,
) -> RunResult {
    let run = tr.begin_op(name);
    let mut state = tr.time("start", || search.start(inst, budget));
    let step = if slice == 1 { "iteration" } else { "step" };
    while !tr.time(step, || state.step(slice, None)).is_exhausted() {}
    let result = tr.time("result", || state.result());
    tr.exit(run);
    result
}

/// A steppable search that records spans around the wrapped search's
/// `start`, `inject`, `step` and `result` — used to split
/// `Replanner::apply` into the replanner's own work and the inner
/// search. With `capture` set, every finished search is checked against
/// its residual instance.
pub struct Traced<S> {
    inner: S,
    tr: Rc<Tracer>,
    capture: Option<Captured>,
}

impl<S> Traced<S> {
    /// Wraps `inner`.
    pub fn new(inner: S, tr: Rc<Tracer>, capture: Option<Captured>) -> Traced<S> {
        Traced { inner, tr, capture }
    }
}

impl<S: SteppableSearch> Scheduler for Traced<S> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn run(
        &mut self,
        inst: &HcInstance,
        budget: &RunBudget,
        trace: Option<&mut Trace>,
    ) -> RunResult {
        mshc::schedule::run_stepped(self, inst, budget, trace)
    }
}

impl<S: SteppableSearch> SteppableSearch for Traced<S> {
    fn start<'a>(&mut self, inst: &'a HcInstance, budget: &RunBudget) -> Box<dyn SearchStep + 'a> {
        let inner = self.tr.time("start", || self.inner.start(inst, budget));
        Box::new(TracedStep { inner, inst, tr: Rc::clone(&self.tr), capture: self.capture.clone() })
    }
}

struct TracedStep<'a> {
    inner: Box<dyn SearchStep + 'a>,
    inst: &'a HcInstance,
    tr: Rc<Tracer>,
    capture: Option<Captured>,
}

impl SearchStep for TracedStep<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn step(&mut self, max_iterations: u64, trace: Option<&mut Trace>) -> StepVerdict {
        self.tr.time("step", || self.inner.step(max_iterations, trace))
    }

    fn incumbent(&self) -> Option<Incumbent<'_>> {
        self.inner.incumbent()
    }

    fn inject(&mut self, migrant: &Solution, cost: f64) {
        self.tr.time("inject", || self.inner.inject(migrant, cost))
    }

    fn result(&mut self) -> RunResult {
        let result = self.tr.time("result", || self.inner.result());
        if let Some(capture) = &self.capture {
            let mut capture = capture.borrow_mut();
            capture.verdicts.push(verify_run(self.inst, &result));
            if capture.residuals.len() < PROBED_RESIDUALS {
                capture.residuals.push(self.inst.clone());
            }
        }
        result
    }
}
