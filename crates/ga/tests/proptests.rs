//! Property tests for the GA's population fitness pass (full passes plus
//! the clone shortcut): whole runs must be bit-identical at every
//! worker-thread count — solutions, fitness values, per-generation
//! traces and evaluation counts — across instances, seeds and
//! objectives.

use mshc_ga::GaScheduler;
use mshc_platform::{HcInstance, HcSystem, Matrix};
use mshc_schedule::{ObjectiveKind, RunBudget, Scheduler};
use mshc_taskgraph::gen::{erdos_dag, layered, LayeredConfig};
use mshc_trace::Trace;
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

fn instance_strategy() -> impl Strategy<Value = HcInstance> {
    (1usize..22, 1usize..5, 0.0f64..0.9, any::<u64>(), prop::bool::ANY).prop_map(
        |(k, l, p, seed, use_layered)| {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let graph = if use_layered {
                layered(
                    &LayeredConfig {
                        tasks: k,
                        mean_width: (k / 3).max(1),
                        edge_prob: p,
                        skip_prob: 0.0,
                    },
                    &mut rng,
                )
                .unwrap()
            } else {
                erdos_dag(k, p, &mut rng).unwrap()
            };
            let exec = Matrix::from_fn(l, k, |_, _| rng.gen_range(1.0..50.0));
            let pairs = l * (l - 1) / 2;
            let transfer =
                Matrix::from_fn(pairs, graph.data_count(), |_, _| rng.gen_range(0.0..20.0));
            let sys = HcSystem::with_anonymous_machines(l, exec, transfer).unwrap();
            HcInstance::new(graph, sys).unwrap()
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Full GA runs agree bit for bit at 1, 2 and 8 worker threads, for
    /// every objective family.
    #[test]
    fn ga_runs_bit_identical_across_thread_counts(
        inst in instance_strategy(),
        seed in any::<u64>(),
        objective_sel in 0usize..3,
    ) {
        let objective = match objective_sel {
            0 => ObjectiveKind::Makespan,
            1 => ObjectiveKind::TotalFlowtime,
            _ => ObjectiveKind::Weighted { makespan: 1.0, flowtime: 0.4, balance: 0.6 },
        };
        let budget = RunBudget::iterations(6).with_objective(objective);
        let run = |threads: usize| {
            let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
            pool.install(|| {
                let mut trace = Trace::new();
                let r = GaScheduler::with_seed(seed).run(&inst, &budget, Some(&mut trace));
                (r, trace)
            })
        };
        let (base, base_trace) = run(1);
        for threads in [2usize, 8] {
            let (r, trace) = run(threads);
            prop_assert_eq!(&r.solution, &base.solution);
            prop_assert_eq!(r.objective_value.to_bits(), base.objective_value.to_bits());
            prop_assert_eq!(r.makespan.to_bits(), base.makespan.to_bits());
            prop_assert_eq!(r.evaluations, base.evaluations);
            prop_assert_eq!(r.iterations, base.iterations);
            prop_assert_eq!(r.scan, base.scan);
            // Per-generation selection pressure is identical: every best,
            // current and population-mean fitness matches bitwise.
            prop_assert_eq!(trace.records().len(), base_trace.records().len());
            for (a, b) in trace.records().iter().zip(base_trace.records()) {
                prop_assert_eq!(a.iteration, b.iteration);
                prop_assert_eq!(a.evaluations, b.evaluations);
                prop_assert_eq!(a.current_cost.to_bits(), b.current_cost.to_bits());
                prop_assert_eq!(a.best_cost.to_bits(), b.best_cost.to_bits());
                prop_assert_eq!(
                    a.population_mean.map(f64::to_bits),
                    b.population_mean.map(f64::to_bits)
                );
            }
        }
    }
}
