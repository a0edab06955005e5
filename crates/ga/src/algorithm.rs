//! The GA generation loop: evaluate → roulette-select → crossover →
//! mutate, with elitism.

use crate::chromosome::{order_valid_range, Chromosome};
use crate::config::GaConfig;
use mshc_obs as obs;
use mshc_platform::{HcInstance, MachineId};
use mshc_schedule::{
    certified_gap, run_stepped, BatchEvaluator, EvalSnapshot, Evaluator, Incumbent, InstanceBound,
    ObjectiveKind, RunBudget, RunResult, ScanStats, Scheduler, SearchStep, Solution, StepVerdict,
    SteppableSearch,
};
use mshc_taskgraph::TaskId;
use mshc_trace::{Trace, TraceRecord};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::time::Instant;

/// The Wang et al. genetic-algorithm scheduler.
#[derive(Debug, Clone)]
pub struct GaScheduler {
    config: GaConfig,
}

impl GaScheduler {
    /// Creates a scheduler; panics on invalid configuration.
    pub fn new(config: GaConfig) -> GaScheduler {
        config.validate();
        GaScheduler { config }
    }

    /// Defaults with a specific seed.
    pub fn with_seed(seed: u64) -> GaScheduler {
        GaScheduler::new(GaConfig::default().with_seed(seed))
    }

    /// The configuration.
    pub fn config(&self) -> &GaConfig {
        &self.config
    }
}

/// Roulette-wheel pick over linearly rescaled fitness: weight
/// `w_i = worst - cost_i + ε·span`, so the worst chromosome keeps a small
/// nonzero chance. Returns an index.
fn roulette<R: Rng + ?Sized>(costs: &[f64], rng: &mut R) -> usize {
    let worst = costs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let best = costs.iter().copied().fold(f64::INFINITY, f64::min);
    let span = (worst - best).max(f64::MIN_POSITIVE);
    let floor = 0.05 * span;
    let total: f64 = costs.iter().map(|&c| worst - c + floor).sum();
    let mut target = rng.gen::<f64>() * total;
    for (i, &c) in costs.iter().enumerate() {
        target -= worst - c + floor;
        if target <= 0.0 {
            return i;
        }
    }
    costs.len() - 1
}

impl Scheduler for GaScheduler {
    fn name(&self) -> &str {
        "ga"
    }

    fn run(
        &mut self,
        inst: &HcInstance,
        budget: &RunBudget,
        trace: Option<&mut Trace>,
    ) -> RunResult {
        budget.validate().expect("GA is an anytime algorithm");
        // One maximal slice of the stepped state machine — plain and
        // stepped runs are the same code path, hence bit-identical.
        run_stepped(self, inst, budget, trace)
    }
}

impl SteppableSearch for GaScheduler {
    fn start<'a>(&mut self, inst: &'a HcInstance, budget: &RunBudget) -> Box<dyn SearchStep + 'a> {
        let start = Instant::now();
        let cfg = self.config;
        let objective = budget.objective;
        let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
        // Whole-population fitness goes through the batch evaluator: one
        // call of full passes per generation, fanned out over worker
        // threads (see `score_generation` for the clone shortcut).
        let snapshot = EvalSnapshot::new(inst);

        // ---- initial population ----
        let mut pop: Vec<Chromosome> =
            (0..cfg.population).map(|_| Chromosome::random(inst, &mut rng)).collect();
        if cfg.seed_with_heuristic {
            pop[0] = Chromosome::seeded(inst);
        }
        let sols: Vec<Solution> = pop.iter().map(|c| c.to_solution(inst)).collect();
        let mut batch = BatchEvaluator::new(&snapshot);
        let costs = batch.scores(&sols, &objective);
        let evaluations = batch.evaluations();

        let best_idx = argmin(&costs);
        let best = pop[best_idx].clone();
        let best_cost = costs[best_idx];

        // The certified floor for early termination and gap reporting
        // (makespan objective only); consumes no RNG and counts no
        // evaluations, so it cannot perturb the trajectory.
        let lower_bound = objective.is_makespan().then(|| InstanceBound::compute(inst).floor());

        Box::new(GaState {
            inst,
            cfg,
            budget: budget.clone(),
            objective,
            rng,
            snapshot,
            pop,
            costs,
            best_solution: best.to_solution(inst),
            best,
            best_cost,
            generations: 0,
            stall: 0,
            evaluations,
            scan: ScanStats::default(),
            lower_bound,
            early_stopped: false,
            cancelled: false,
            start,
        })
    }
}

/// A paused GA run: the population with its fitness, incumbent tracking
/// and accumulated budget accounting.
struct GaState<'a> {
    inst: &'a HcInstance,
    cfg: GaConfig,
    budget: RunBudget,
    objective: ObjectiveKind,
    rng: ChaCha8Rng,
    snapshot: EvalSnapshot,
    pop: Vec<Chromosome>,
    costs: Vec<f64>,
    best: Chromosome,
    /// `best` in solution form, maintained eagerly so
    /// [`SearchStep::incumbent`] can hand out a borrow.
    best_solution: Solution,
    best_cost: f64,
    generations: u64,
    stall: u64,
    evaluations: u64,
    /// Population-scoring counters accumulated across steps: clone
    /// children (`suffixed`), their reused strings (`prefix_reused`)
    /// and all offspring positions (`suffix_total`); deterministic.
    scan: ScanStats,
    /// The certified instance floor (`Some` iff makespan objective).
    lower_bound: Option<f64>,
    /// Set when the incumbent reached the floor and the run stopped
    /// early (the incumbent is then provably optimal).
    early_stopped: bool,
    /// Latched cooperative-cancellation flag (checked at generation
    /// boundaries only, so evaluation counts stay exact).
    cancelled: bool,
    start: Instant,
}

impl SearchStep for GaState<'_> {
    fn name(&self) -> &str {
        "ga"
    }

    fn step(&mut self, max_iterations: u64, mut trace: Option<&mut Trace>) -> StepVerdict {
        let g = self.inst.graph();
        let k = self.inst.task_count();
        let l = self.inst.machine_count();
        let mut batch = BatchEvaluator::new(&self.snapshot);
        let mut stepped = 0u64;

        // Generation 0 (or an injected migrant) may already sit on the
        // certified floor — then nothing can improve and the run stops.
        self.early_stopped =
            self.early_stopped || self.budget.floor_reached(self.lower_bound, self.best_cost);
        while !self.early_stopped
            && stepped < max_iterations
            && !self.budget.observe_cancel(&mut self.cancelled)
            && !self.budget.halted(
                self.generations,
                self.evaluations + batch.evaluations(),
                self.start.elapsed(),
                self.stall,
            )
        {
            // ---- next generation ----
            let mut next = Vec::with_capacity(self.cfg.population);
            // Each child's recorded parent: the elite's source, or parent A.
            let mut parents = Vec::with_capacity(self.cfg.population);
            // Elitism: carry the best chromosomes over unchanged.
            let mut ranked: Vec<usize> = (0..self.pop.len()).collect();
            ranked.sort_by(|&a, &b| self.costs[a].total_cmp(&self.costs[b]).then(a.cmp(&b)));
            for &i in ranked.iter().take(self.cfg.elites) {
                next.push(self.pop[i].clone());
                parents.push(i);
            }
            while next.len() < self.cfg.population {
                // RNG consumption order is the fitness-bit contract:
                // roulette(pa), roulette(pb), crossover draw (+cuts),
                // sched-mutation draw (+task,pos), match-mutation draw
                // (+task,machine).
                let ia = roulette(&self.costs, &mut self.rng);
                let ib = roulette(&self.costs, &mut self.rng);
                let pa = &self.pop[ia];
                let pb = &self.pop[ib];
                let mut child = if self.rng.gen::<f64>() < self.cfg.crossover_prob {
                    let cut_s = self.rng.gen_range(0..=k);
                    let cut_m = self.rng.gen_range(0..=k);
                    Chromosome {
                        order: pa.crossover_order(pb, cut_s),
                        matching: pa.crossover_matching(pb, cut_m),
                    }
                } else {
                    pa.clone()
                };
                if self.rng.gen::<f64>() < self.cfg.sched_mutation_prob {
                    let t = TaskId::from_usize(self.rng.gen_range(0..k));
                    let (lo, hi) = order_valid_range(g, &child.order, t);
                    let pos = self.rng.gen_range(lo..=hi);
                    let moved = child.mutate_order(g, t, pos);
                    debug_assert!(moved);
                }
                if self.rng.gen::<f64>() < self.cfg.match_mutation_prob {
                    let t = TaskId::from_usize(self.rng.gen_range(0..k));
                    let m = MachineId::from_usize(self.rng.gen_range(0..l));
                    child.mutate_matching(t, m);
                }
                next.push(child);
                parents.push(ia);
            }
            let inst = self.inst;
            let (costs, axes) = score_generation(
                &mut batch,
                inst,
                &self.objective,
                &self.pop,
                &self.costs,
                &next,
                &parents,
            );
            // Clones skipped their pass but are charged like any child.
            self.evaluations += axes.suffixed;
            self.scan.merge(axes);
            self.costs = costs;
            self.pop = next;

            let best_idx = argmin(&self.costs);
            if self.costs[best_idx] < self.best_cost {
                self.best_cost = self.costs[best_idx];
                self.best = self.pop[best_idx].clone();
                self.best_solution = self.best.to_solution(inst);
                self.stall = 0;
                if self.budget.floor_reached(self.lower_bound, self.best_cost) {
                    self.early_stopped = true;
                }
            } else {
                self.stall += 1;
            }
            self.generations += 1;
            obs::add(obs::Counter::Iterations, 1);
            stepped += 1;

            if let Some(tr) = trace.as_deref_mut() {
                tr.push(TraceRecord {
                    iteration: self.generations - 1,
                    elapsed_secs: self.start.elapsed().as_secs_f64(),
                    evaluations: self.evaluations + batch.evaluations(),
                    current_cost: self.costs[best_idx],
                    best_cost: self.best_cost,
                    selected: None,
                    population_mean: Some(self.costs.iter().sum::<f64>() / self.costs.len() as f64),
                });
            }
        }

        self.evaluations += batch.evaluations();
        if self.early_stopped
            || self.cancelled
            || self.budget.halted(
                self.generations,
                self.evaluations,
                self.start.elapsed(),
                self.stall,
            )
        {
            StepVerdict::Exhausted
        } else {
            StepVerdict::Running
        }
    }

    fn incumbent(&self) -> Option<Incumbent<'_>> {
        Some(Incumbent { solution: &self.best_solution, cost: self.best_cost })
    }

    fn inject(&mut self, migrant: &Solution, cost: f64) {
        // Replace the worst chromosome when the migrant beats it; the
        // injected individual then competes through elitism and roulette
        // like any other. No RNG is consumed and no evaluation counted
        // (the cost arrives precomputed under the shared objective).
        let worst = self
            .costs
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1).then(b.0.cmp(&a.0)))
            .map(|(i, _)| i)
            .expect("non-empty population");
        if cost < self.costs[worst] {
            self.pop[worst] = Chromosome::from_solution(migrant);
            self.costs[worst] = cost;
            if cost < self.best_cost {
                self.best = self.pop[worst].clone();
                self.best_solution = self.best.to_solution(self.inst);
                self.best_cost = cost;
                self.stall = 0;
            }
        }
    }

    fn result(&mut self) -> RunResult {
        let solution = self.best_solution.clone();
        let makespan = if self.objective.is_makespan() {
            self.best_cost
        } else {
            // Reporting pass, deliberately uncounted.
            Evaluator::with_snapshot(&self.snapshot).makespan(&solution)
        };
        RunResult {
            solution,
            makespan,
            objective_value: self.best_cost,
            iterations: self.generations,
            evaluations: self.evaluations,
            elapsed: self.start.elapsed(),
            scan: self.scan,
            lower_bound: self.lower_bound,
            gap: certified_gap(self.lower_bound, self.best_cost),
            early_stopped: self.early_stopped,
            termination: self.budget.termination(
                self.generations,
                self.evaluations,
                self.start.elapsed(),
                self.stall,
                self.early_stopped,
                self.cancelled,
            ),
        }
    }
}

/// Exact fitness of the offspring `children`, bred from the population
/// `pop` (fitness `costs`) with `parents[i]` the recorded parent of child
/// `i` — the elite's source, or parent A. Returns the costs and the
/// generation's population counters.
///
/// A child whose chromosome equals its parent's encodes the same
/// solution bit for bit, and a full pass over an identical solution
/// recomputes identical bits, so it reuses the parent's cost without a
/// pass. It is still charged one evaluation (the caller adds
/// `suffixed` to its count): the evaluation axis measures candidates
/// considered. Every other child takes one full pass through
/// [`BatchEvaluator::scores`]. The routing reads only the chromosomes,
/// so the counters are deterministic at any thread count.
fn score_generation(
    batch: &mut BatchEvaluator<'_>,
    inst: &HcInstance,
    objective: &ObjectiveKind,
    pop: &[Chromosome],
    costs: &[f64],
    children: &[Chromosome],
    parents: &[usize],
) -> (Vec<f64>, ScanStats) {
    let is_clone: Vec<bool> = children.iter().zip(parents).map(|(c, &p)| *c == pop[p]).collect();
    let fresh: Vec<Solution> = children
        .iter()
        .zip(&is_clone)
        .filter(|(_, &clone)| !clone)
        .map(|(c, _)| c.to_solution(inst))
        .collect();
    let mut scores = batch.scores(&fresh, objective).into_iter();
    let child_costs = parents
        .iter()
        .zip(&is_clone)
        .map(|(&p, &clone)| if clone { costs[p] } else { scores.next().expect("one per fresh") })
        .collect();

    let clones = (children.len() - fresh.len()) as u64;
    let k = inst.task_count() as u64;
    let axes = ScanStats {
        suffixed: clones,
        prefix_reused: clones * k,
        suffix_total: children.len() as u64 * k,
        ..ScanStats::default()
    };
    obs::add(obs::Counter::ScanSuffixed, axes.suffixed);
    obs::add(obs::Counter::ScanPrefixReused, axes.prefix_reused);
    obs::add(obs::Counter::ScanSuffixTotal, axes.suffix_total);
    (child_costs, axes)
}

fn argmin(costs: &[f64]) -> usize {
    costs
        .iter()
        .enumerate()
        .min_by(|a, b| a.1.total_cmp(b.1).then(a.0.cmp(&b.0)))
        .map(|(i, _)| i)
        .expect("non-empty population")
}

#[cfg(test)]
mod tests {
    use super::*;
    use mshc_platform::{HcSystem, Matrix};
    use mshc_schedule::replay;
    use mshc_taskgraph::gen::{layered, LayeredConfig};

    fn random_instance(tasks: usize, machines: usize, seed: u64) -> HcInstance {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let cfg = LayeredConfig { tasks, mean_width: 4, edge_prob: 0.5, skip_prob: 0.05 };
        let graph = layered(&cfg, &mut rng).unwrap();
        let exec = Matrix::from_fn(machines, tasks, |_, _| rng.gen_range(10.0..100.0));
        let pairs = machines * (machines - 1) / 2;
        let transfer = Matrix::from_fn(pairs, graph.data_count(), |_, _| rng.gen_range(1.0..30.0));
        let sys = HcSystem::with_anonymous_machines(machines, exec, transfer).unwrap();
        HcInstance::new(graph, sys).unwrap()
    }

    #[test]
    fn roulette_prefers_low_cost() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let costs = vec![100.0, 10.0, 100.0, 100.0];
        let mut hits = [0usize; 4];
        for _ in 0..4000 {
            hits[roulette(&costs, &mut rng)] += 1;
        }
        assert!(hits[1] > hits[0] * 3, "cheapest chromosome must dominate: {hits:?}");
        assert!(hits.iter().all(|&h| h > 0), "everyone keeps a nonzero chance: {hits:?}");
    }

    #[test]
    fn roulette_uniform_when_costs_equal() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let costs = vec![5.0; 4];
        let mut hits = [0usize; 4];
        for _ in 0..4000 {
            hits[roulette(&costs, &mut rng)] += 1;
        }
        for &h in &hits {
            assert!((800..1200).contains(&h), "roughly uniform: {hits:?}");
        }
    }

    #[test]
    fn ga_improves_over_random_baseline() {
        let inst = random_instance(30, 4, 21);
        let mut rng = ChaCha8Rng::seed_from_u64(99);
        let mut eval = Evaluator::new(&inst);
        let baseline: f64 = (0..20)
            .map(|_| eval.makespan(&mshc_schedule::random_solution(&inst, &mut rng)))
            .sum::<f64>()
            / 20.0;
        let mut ga = GaScheduler::with_seed(3);
        let r = ga.run(&inst, &RunBudget::iterations(60), None);
        assert!(r.makespan < baseline, "GA ({}) must beat random mean ({baseline})", r.makespan);
    }

    #[test]
    fn ga_result_valid_and_matches_replay() {
        let inst = random_instance(25, 3, 22);
        let mut ga = GaScheduler::with_seed(4);
        let r = ga.run(&inst, &RunBudget::iterations(30), None);
        r.solution.check(inst.graph()).unwrap();
        let sim = replay(&inst, &r.solution).unwrap();
        assert!((sim.makespan - r.makespan).abs() < 1e-9);
    }

    #[test]
    fn ga_is_deterministic_under_seed() {
        let inst = random_instance(20, 3, 23);
        let a = GaScheduler::with_seed(7).run(&inst, &RunBudget::iterations(20), None);
        let b = GaScheduler::with_seed(7).run(&inst, &RunBudget::iterations(20), None);
        assert_eq!(a.solution, b.solution);
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.makespan, a.objective_value, "default objective is makespan");
    }

    #[test]
    fn ga_is_bit_identical_across_thread_counts() {
        // Batch population fitness must not perturb a single GA decision,
        // whatever the worker-thread count.
        let inst = random_instance(20, 3, 28);
        let budget = RunBudget::iterations(15);
        let baseline = rayon::ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .unwrap()
            .install(|| GaScheduler::with_seed(5).run(&inst, &budget, None));
        for threads in [2usize, 8] {
            let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
            let r = pool.install(|| GaScheduler::with_seed(5).run(&inst, &budget, None));
            assert_eq!(r.solution, baseline.solution, "{threads} threads");
            assert_eq!(r.makespan, baseline.makespan, "{threads} threads");
            assert_eq!(r.evaluations, baseline.evaluations, "{threads} threads");
        }
    }

    #[test]
    fn clone_children_reuse_parent_cost_bits_and_count_one_evaluation() {
        let inst = random_instance(20, 3, 63);
        let k = inst.task_count() as u64;
        let snapshot = EvalSnapshot::new(&inst);
        let objective = ObjectiveKind::TotalFlowtime;
        let mut rng = ChaCha8Rng::seed_from_u64(12);
        let pop: Vec<Chromosome> = (0..4).map(|_| Chromosome::random(&inst, &mut rng)).collect();
        let mut eval = Evaluator::new(&inst);
        let mut cost = |c: &Chromosome| eval.objective_value(&c.to_solution(&inst), &objective);
        let costs: Vec<f64> = pop.iter().map(&mut cost).collect();
        // Two clones (of parents 2 and 1) around one fresh child.
        let fresh = Chromosome::random(&inst, &mut rng);
        assert_ne!(fresh, pop[0]);
        let children = vec![pop[2].clone(), fresh.clone(), pop[1].clone()];
        let mut batch = BatchEvaluator::new(&snapshot);
        let (got, axes) =
            score_generation(&mut batch, &inst, &objective, &pop, &costs, &children, &[2, 0, 1]);
        assert_eq!(got[0].to_bits(), costs[2].to_bits());
        assert_eq!(got[2].to_bits(), costs[1].to_bits());
        assert_eq!(got[1].to_bits(), cost(&fresh).to_bits());
        // One full pass ran; each clone is charged one evaluation.
        assert_eq!(batch.evaluations(), 1);
        assert_eq!(axes.suffixed, 2);
        assert_eq!((axes.prefix_reused, axes.suffix_total), (2 * k, 3 * k));
    }

    #[test]
    fn all_clone_generations_charge_every_child() {
        // No crossover and no mutation: every offspring is a clone of
        // parent A, so after generation 0 no pass runs at all — yet the
        // evaluation axis still counts one per child.
        let inst = random_instance(16, 3, 64);
        let cfg = GaConfig {
            seed: 3,
            crossover_prob: 0.0,
            sched_mutation_prob: 0.0,
            match_mutation_prob: 0.0,
            ..GaConfig::default()
        };
        let r = GaScheduler::new(cfg).run(&inst, &RunBudget::iterations(5), None);
        let children = cfg.population as u64 * r.iterations;
        assert_eq!(r.evaluations, cfg.population as u64 + children);
        assert_eq!(r.scan.suffixed, children);
        assert_eq!(r.scan.prefix_reuse_fraction(), 1.0);
    }

    #[test]
    fn ga_scan_stats_are_thread_invariant() {
        // The population counters are a pure function of the
        // chromosomes (no bound, no pruning), so `run --report` output
        // is byte-identical at any worker-thread count.
        let inst = random_instance(22, 3, 62);
        let budget = RunBudget::iterations(10);
        let baseline = rayon::ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .unwrap()
            .install(|| GaScheduler::with_seed(6).run(&inst, &budget, None));
        assert!(baseline.scan.suffix_total > 0);
        for threads in [2usize, 8] {
            let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
            let r = pool.install(|| GaScheduler::with_seed(6).run(&inst, &budget, None));
            assert_eq!(r.scan, baseline.scan, "{threads} threads");
        }
    }

    #[test]
    fn ga_optimizes_alternate_objectives() {
        use mshc_schedule::{objective_from_report, replay, ObjectiveKind};
        let inst = random_instance(22, 4, 29);
        for kind in [ObjectiveKind::TotalFlowtime, ObjectiveKind::MeanFlowtime] {
            let budget = RunBudget::iterations(25).with_objective(kind);
            let r = GaScheduler::with_seed(11).run(&inst, &budget, None);
            r.solution.check(inst.graph()).unwrap();
            let sim = replay(&inst, &r.solution).unwrap();
            assert!(
                (r.objective_value - objective_from_report(&kind, &sim)).abs() < 1e-9,
                "{}",
                kind.label()
            );
            assert!((r.makespan - sim.makespan).abs() < 1e-9);
        }
    }

    #[test]
    fn elitism_makes_best_monotone() {
        let inst = random_instance(20, 3, 24);
        let mut trace = Trace::new();
        GaScheduler::with_seed(8).run(&inst, &RunBudget::iterations(40), Some(&mut trace));
        for w in trace.records().windows(2) {
            assert!(w[1].best_cost <= w[0].best_cost + 1e-12, "elitism keeps best monotone");
        }
        // current (best-of-generation) can never beat best-so-far
        for r in trace.records() {
            assert!(r.current_cost >= r.best_cost - 1e-12);
            assert!(r.population_mean.unwrap() >= r.current_cost - 1e-9);
            assert!(r.selected.is_none());
        }
    }

    #[test]
    fn seeded_heuristic_bounds_generation_zero() {
        // With seeding on, generation 0's best is at least as good as the
        // deterministic heuristic chromosome.
        let inst = random_instance(25, 4, 25);
        let seed_cost =
            Evaluator::new(&inst).makespan(&Chromosome::seeded(&inst).to_solution(&inst));
        let mut trace = Trace::new();
        GaScheduler::new(GaConfig { seed: 9, ..Default::default() }).run(
            &inst,
            &RunBudget::iterations(1),
            Some(&mut trace),
        );
        assert!(trace.records()[0].best_cost <= seed_cost + 1e-9);
    }

    #[test]
    fn budget_wall_clock_stops() {
        let inst = random_instance(30, 4, 26);
        let mut ga = GaScheduler::with_seed(10);
        let r = ga.run(&inst, &RunBudget::wall(std::time::Duration::from_millis(50)), None);
        assert!(r.elapsed >= std::time::Duration::from_millis(50));
        assert!(r.elapsed < std::time::Duration::from_secs(10));
        assert!(r.iterations > 0);
    }

    #[test]
    #[should_panic(expected = "anytime")]
    fn unbounded_budget_rejected() {
        let inst = random_instance(5, 2, 27);
        GaScheduler::with_seed(0).run(&inst, &RunBudget::default(), None);
    }

    #[test]
    fn scheduler_name() {
        assert_eq!(GaScheduler::with_seed(0).name(), "ga");
    }

    #[test]
    fn stepped_run_matches_plain_run_at_any_slice_size() {
        let inst = random_instance(20, 3, 50);
        let budget = RunBudget::iterations(12);
        let plain = GaScheduler::with_seed(4).run(&inst, &budget, None);
        for slice in [1u64, 5] {
            let mut ga = GaScheduler::with_seed(4);
            let mut state = ga.start(&inst, &budget);
            assert_eq!(state.name(), "ga");
            while !state.step(slice, None).is_exhausted() {}
            let stepped = state.result();
            assert_eq!(stepped.solution, plain.solution, "slice {slice}");
            assert_eq!(stepped.evaluations, plain.evaluations, "slice {slice}");
            assert_eq!(stepped.iterations, plain.iterations, "slice {slice}");
        }
    }

    #[test]
    fn inject_replaces_worst_and_updates_incumbent() {
        let inst = random_instance(18, 3, 51);
        let mut ga = GaScheduler::with_seed(5);
        let mut state = ga.start(&inst, &RunBudget::iterations(30));
        let _ = state.step(2, None);
        let before = state.incumbent().expect("population always has a best").cost;
        // Donate a strong solution from a longer independent run.
        let donor = GaScheduler::with_seed(99).run(&inst, &RunBudget::iterations(60), None);
        state.inject(&donor.solution, donor.objective_value);
        if donor.objective_value < before {
            let inc = state.incumbent().unwrap();
            assert_eq!(inc.cost, donor.objective_value);
            assert_eq!(inc.solution, &donor.solution);
        }
        while !state.step(u64::MAX, None).is_exhausted() {}
        let r = state.result();
        r.solution.check(inst.graph()).unwrap();
        assert!(r.objective_value <= before.min(donor.objective_value) + 1e-9);
    }

    #[test]
    fn chromosome_solution_roundtrip_via_from_solution() {
        let inst = random_instance(15, 3, 52);
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        for _ in 0..20 {
            let c = Chromosome::random(&inst, &mut rng);
            let sol = c.to_solution(&inst);
            let back = Chromosome::from_solution(&sol);
            assert!(back.check(&inst));
            assert_eq!(back.to_solution(&inst), sol, "round-trip preserves the schedule");
        }
    }
}
