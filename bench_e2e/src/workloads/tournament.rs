//! `tournament-small`: `run_tournament` on the small suite (8
//! scenarios × 13 algorithms, portfolio off) at up to two threads, with
//! replicate seeds drawn from the workload seed. Hundreds of short
//! cells: per-cell instance generation, snapshot and bound, the one-shot
//! heuristics, and race fan-out over the pool.

use super::{probe_instance, snapshot_bytes, Layers, Workload};
use crate::check::{check_gap, Fnv, Op};
use crate::host::Stopwatch;
use crate::spans::{Span, Tracer};
use crate::stats::{median, quantile, ratio};
use mshc::portfolio::{
    replicate_seeds, run_tournament, CellOutcome, TournamentRun, TournamentSpec,
};
use mshc::workloads::small_suite;
use std::rc::Rc;

/// Replicate seeds per pass: 8 scenarios × 10 seeds × 13 algorithms =
/// 1040 cells.
const REPLICATES: usize = 10;

/// The constructive heuristics, which finish in one step.
const ONE_SHOTS: [&str; 8] =
    ["heft", "heft-ins", "cpop", "met", "mct", "olb", "min-min", "max-min"];

/// The `tournament-small` workload.
pub struct TournamentSmall {
    spec: TournamentSpec,
}

/// The operation label of a cell.
fn label(c: &CellOutcome) -> String {
    format!("{}/{}/{}", c.scenario, c.seed, c.algorithm)
}

fn run(spec: &TournamentSpec) -> TournamentRun {
    run_tournament(spec).expect("the small-suite spec is valid")
}

impl Workload for TournamentSmall {
    type Out = TournamentRun;

    fn setup(seed: u64, _tr: &Rc<Tracer>) -> TournamentSmall {
        // The engine generates every race's instance itself, inside the
        // pass; set-up only fixes the spec.
        let mut spec = TournamentSpec::new("small", small_suite());
        spec.seeds = replicate_seeds(seed, REPLICATES);
        TournamentSmall { spec }
    }

    fn pass(&mut self, tr: &Rc<Tracer>) -> Self::Out {
        let op = tr.begin_op("portfolio.run_tournament");
        let out = run(&self.spec);
        tr.exit(op);
        out
    }

    fn ops(&self, out: &Self::Out) -> Vec<Op> {
        out.cells
            .iter()
            .zip(&out.timing)
            .map(|(c, t)| Op {
                label: label(c),
                fp: Fnv::new()
                    .str(&c.algorithm)
                    .str(&c.scenario)
                    .u64(c.seed)
                    .u64(u64::from(c.ok))
                    .f64(c.objective_value)
                    .f64(c.makespan)
                    .u64(c.evaluations)
                    .u64(c.iterations)
                    .f64(c.gap.unwrap_or(0.0))
                    .u64(u64::from(c.early_stopped))
                    .str(&c.termination)
                    .finish(),
                gap: c.gap,
                ms: Some(t.secs * 1e3),
                charged: c.evaluations,
            })
            .collect()
    }

    fn check(&mut self, out: Self::Out) -> (Self::Out, Vec<(String, String)>) {
        let errors = out
            .cells
            .iter()
            .filter_map(|c| {
                let verdict =
                    if c.ok { check_gap(c.gap) } else { Err(format!("failed: {}", c.error)) };
                verdict.err().map(|e| (label(c), e))
            })
            .collect();
        (out, errors)
    }

    /// Regenerates every expanded race's instance the way the engine
    /// does, then probes it.
    fn probe(&mut self, tr: &Rc<Tracer>) -> u64 {
        let races = self.spec.expand().expect("the small-suite spec is valid");
        races
            .iter()
            .map(|race| {
                let inst = tr.time("workloads.generate", || race.scenario.generate(race.seed));
                probe_instance(tr, &inst);
                snapshot_bytes(&inst)
            })
            .max()
            .unwrap_or(0)
    }

    fn layers(&mut self, traced: &[(Vec<Span>, TournamentRun)], pass_s: f64, out: &mut Layers) {
        let threads = rayon::current_num_threads() as f64;
        let cell_ms: Vec<f64> =
            traced.iter().flat_map(|(_, r)| r.timing.iter().map(|t| t.secs * 1e3)).collect();
        let oneshot_ms: Vec<f64> = traced
            .iter()
            .map(|(_, r)| {
                r.cells
                    .iter()
                    .zip(&r.timing)
                    .filter(|(c, _)| ONE_SHOTS.contains(&c.algorithm.as_str()))
                    .map(|(_, t)| t.secs * 1e3)
                    .sum()
            })
            .collect();
        let busy: Vec<f64> = traced
            .iter()
            .map(|(_, r)| ratio(r.timing.iter().map(|t| t.secs).sum(), threads * r.total_secs))
            .collect();
        // One extra untraced pass on a single thread, timed like the
        // untraced passes.
        let single = rayon::ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .expect("a one-thread pool builds");
        let t0 = Stopwatch::start();
        single.install(|| run(&self.spec));
        let one_thread_s = t0.secs();
        out.insert("portfolio.cell_ms_p50", median(&cell_ms));
        out.insert("portfolio.cell_ms_p90", quantile(&cell_ms, 0.9));
        out.insert("heuristics.oneshot_ms", median(&oneshot_ms));
        out.insert("portfolio.busy_frac", median(&busy));
        out.insert("portfolio.speedup_vs_1thread", ratio(one_thread_s, pass_s));
    }
}
