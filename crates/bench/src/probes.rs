//! Shared workload shapes for the evaluation-throughput probes.
//!
//! The criterion `batch_candidates`/`short_scan` groups and the
//! `bench_eval` binary (the `BENCH_eval.json` emitter) must measure the
//! *same* candidate grids so their numbers stay comparable; both build
//! them here — along with [`spawn_crew_chunks`], the per-call
//! scoped-crew executor the persistent pool replaced, kept as the
//! baseline side of the `pool_reuse_speedup` series.

use mshc_platform::{HcInstance, MachineId};
use mshc_schedule::Solution;
use mshc_taskgraph::TaskId;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// The SE allocation-scan shape at its widest: picks the task of `base`
/// with the widest valid range (ties to the lowest id) and returns its
/// full `(position × machine)` candidate grid minus the incumbent
/// placement — the biggest realistic single-task fan-out on this
/// instance.
pub fn widest_move_grid(inst: &HcInstance, base: &Solution) -> (TaskId, Vec<(usize, MachineId)>) {
    let g = inst.graph();
    let t = g
        .tasks()
        .max_by_key(|&t| {
            let (lo, hi) = base.valid_range(g, t);
            hi - lo
        })
        .expect("non-empty graph");
    let (lo, hi) = base.valid_range(g, t);
    let moves = (lo..=hi)
        .flat_map(|pos| (0..inst.machine_count()).map(move |m| (pos, MachineId::from_usize(m))))
        .filter(|&(pos, m)| pos != base.position_of(t) || m != base.machine_of(t))
        .collect();
    (t, moves)
}

/// The first `limit` candidates of [`widest_move_grid`] — the
/// "short bounded scan" preset. After bound pruning cut 99%+ of the
/// candidates (PR 5), the scans the searches actually submit are this
/// size, where executor overhead (thread spawn vs pool wake) dominates
/// the scoring work; the `pool_reuse_speedup` series is measured on it.
pub fn short_move_grid(
    inst: &HcInstance,
    base: &Solution,
    limit: usize,
) -> (TaskId, Vec<(usize, MachineId)>) {
    let (t, mut moves) = widest_move_grid(inst, base);
    moves.truncate(limit);
    (t, moves)
}

/// The reconvergence-splice scan shape: every adjacent pair of
/// dependency-free segments on *different* machines yields the
/// transposition move `(left task, pos + 1, its own machine)`. Swapping
/// such a pair permutes the string without changing any per-machine
/// execution order or any transfer, so the replayed tail re-coincides
/// with the base walk and the splice fast path finishes the candidate
/// at the next checkpoint boundary.
///
/// The `spliced_fraction` series is measured on this grid.
/// [`widest_move_grid`] cannot exercise splicing: its single-task
/// fan-out puts the disturbed window's ceiling late in the string for
/// most candidates and the bound prunes 99%+ of them before any tail
/// could reconverge, which is why the series read 0.0 until it got its
/// own probe.
pub fn splice_move_grid(inst: &HcInstance, base: &Solution) -> Vec<(TaskId, usize, MachineId)> {
    let g = inst.graph();
    base.segments()
        .windows(2)
        .enumerate()
        .filter(|(_, w)| {
            w[0].machine != w[1].machine && g.successors(w[0].task).all(|s| s != w[1].task)
        })
        .map(|(p, w)| (w[0].task, p + 1, w[0].machine))
        .collect()
}

/// The pre-persistent-pool executor, preserved as a benchmark baseline:
/// spawns a fresh `std::thread::scope` crew **per call**, splits
/// `0..len` into the same chunk grid the vendored rayon uses
/// (`len.div_ceil(threads * 2)`), self-schedules chunks off an atomic
/// claim counter and merges results in chunk order. Bit-compatible with
/// the resident executor on the same fold — the only difference is
/// paying thread spawn/join latency on every invocation, which is
/// exactly what `pool_reuse_speedup` quantifies.
pub fn spawn_crew_chunks<T, F>(threads: usize, len: usize, fold_chunk: F) -> Vec<T>
where
    T: Send,
    F: Fn(Range<usize>) -> T + Sync,
{
    if len == 0 {
        return Vec::new();
    }
    if threads <= 1 {
        return vec![fold_chunk(0..len)];
    }
    let chunk_size = len.div_ceil(threads * 2).max(1);
    let num_chunks = len.div_ceil(chunk_size);
    let next = AtomicUsize::new(0);
    let results: Mutex<Vec<(usize, T)>> = Mutex::new(Vec::with_capacity(num_chunks));
    std::thread::scope(|scope| {
        let worker = || loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= num_chunks {
                return;
            }
            let lo = i * chunk_size;
            let hi = (lo + chunk_size).min(len);
            let out = fold_chunk(lo..hi);
            results.lock().expect("crew results").push((i, out));
        };
        for _ in 1..threads.min(num_chunks) {
            scope.spawn(worker);
        }
        worker();
    });
    let mut chunks = results.into_inner().expect("crew results");
    chunks.sort_unstable_by_key(|&(i, _)| i);
    chunks.into_iter().map(|(_, out)| out).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mshc_workloads::WorkloadSpec;
    use rand::SeedableRng;

    #[test]
    fn short_grid_is_a_prefix_of_the_widest_grid() {
        let inst = WorkloadSpec::small(3).generate();
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
        let base = mshc_schedule::random_solution(&inst, &mut rng);
        let (t_full, full) = widest_move_grid(&inst, &base);
        let (t_short, short) = short_move_grid(&inst, &base, 24);
        assert_eq!(t_full, t_short);
        assert_eq!(short.len(), 24.min(full.len()));
        assert_eq!(&full[..short.len()], &short[..]);
    }

    #[test]
    fn spawn_crew_merges_in_chunk_order() {
        for threads in [1usize, 2, 4, 8] {
            for len in [0usize, 1, 7, 100] {
                let chunks = spawn_crew_chunks(threads, len, |r| r.collect::<Vec<usize>>());
                let flat: Vec<usize> = chunks.into_iter().flatten().collect();
                assert_eq!(flat, (0..len).collect::<Vec<usize>>(), "{threads}t len {len}");
            }
        }
    }

    /// The splice grid must actually splice: scoring it with the fast
    /// path on finishes a healthy share of the candidates via
    /// reconvergence (the `spliced_fraction` series would silently read
    /// 0.0 again if the probe shape ever regressed), and every score is
    /// still bit-identical to a full pass over the mutated solution.
    #[test]
    fn splice_grid_reconverges_and_scores_exactly() {
        use mshc_schedule::{EvalSnapshot, Evaluator, IncrementalEvaluator, ObjectiveKind};
        let inst = WorkloadSpec::small(3).generate();
        let g = inst.graph();
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
        let base = mshc_schedule::random_solution(&inst, &mut rng);
        let moves = splice_move_grid(&inst, &base);
        assert!(!moves.is_empty(), "a mixed random base has cross-machine adjacencies");
        let snapshot = EvalSnapshot::new(&inst);
        let obj = ObjectiveKind::Makespan;
        let mut inc = IncrementalEvaluator::with_snapshot(&snapshot);
        inc.set_pruning(false);
        inc.prime(&base);
        let mut eval = Evaluator::with_snapshot(&snapshot);
        let mut scratch = base.clone();
        for &(t, pos, m) in &moves {
            let (lo, hi) = base.valid_range(g, t);
            assert!((lo..=hi).contains(&pos), "transposition stays in the valid range");
            let spliced = inc.score_move(t, pos, m, &obj);
            scratch.clone_from(&base);
            scratch.move_task(g, t, pos, m).expect("in-range");
            assert_eq!(spliced, eval.objective_value(&scratch, &obj));
        }
        let stats = inc.stats();
        assert!(
            stats.spliced_fraction() > 0.5,
            "schedule-neutral transpositions must mostly splice, got {:.3} of {}",
            stats.spliced_fraction(),
            stats.scored,
        );
    }

    #[test]
    fn grid_excludes_incumbent_and_stays_in_range() {
        let inst = WorkloadSpec::small(3).generate();
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
        let base = mshc_schedule::random_solution(&inst, &mut rng);
        let (t, moves) = widest_move_grid(&inst, &base);
        let (lo, hi) = base.valid_range(inst.graph(), t);
        assert!(!moves.is_empty());
        for &(pos, m) in &moves {
            assert!((lo..=hi).contains(&pos));
            assert!(m.index() < inst.machine_count());
            assert!(pos != base.position_of(t) || m != base.machine_of(t));
        }
        assert_eq!(moves.len(), (hi - lo + 1) * inst.machine_count() - 1);
    }
}
