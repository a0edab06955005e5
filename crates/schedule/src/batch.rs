//! Parallel batch evaluation of candidate sets.
//!
//! Every search algorithm in the suite has the same hot shape: produce a
//! set of candidate schedules that are independent of one another, score
//! them all, pick one. [`BatchEvaluator`] centralizes that shape — it
//! owns a pool of reusable per-thread arenas (a borrowed-snapshot
//! [`Evaluator`], an [`IncrementalEvaluator`] and a scratch [`Solution`])
//! and fans a candidate set out over the rayon executor in one call.
//! Arenas live in **per-worker slots** keyed by
//! [`rayon::current_thread_index`] (the persistent pool keeps worker
//! identity stable, so slot `i` always means the same OS thread), with a
//! trailing slot for the submitting thread and an overflow list for
//! anything else — checkout is an uncontended slot take, not a shared
//! `Mutex<Vec>` scramble, and steady-state batch scoring performs no
//! allocations beyond the output vector.
//!
//! Two candidate shapes, one entry point family each:
//!
//! - **whole solutions** ([`scores`]) share no base, so every candidate
//!   takes one full (tier-1) pass — the GA's population fitness;
//! - **single-task moves of one base** ([`score_task_moves`],
//!   [`best_task_move`]) route through the per-thread incremental
//!   evaluators whenever the objective supports accumulator
//!   finalization (every [`crate::ObjectiveKind`] does): workers prime
//!   their evaluator on the shared base and score candidates by suffix
//!   replay — no per-candidate `Solution` mutation at all. Because a
//!   worker's slot survives across chunks, the prime is stamped with a
//!   per-scan epoch and **reused** by every later chunk the same worker
//!   claims within the scan (the base, stride, pruning flags and floor
//!   are scan-constant). Objectives without incremental support fall
//!   back to clone-and-move full passes.
//!
//! Panic hygiene: a panicking objective (already `catch_unwind`-contained
//! by tournament cells) discards the arena it was using instead of
//! returning it, and every pool lock recovers from poisoning — one bad
//! cell can never cascade `"arena pool poisoned"` panics into healthy
//! scans that share the evaluator.
//!
//! Determinism: scores are returned **in candidate order** and every
//! candidate's score depends only on that candidate, so results are
//! bit-identical at any thread count — the thread-invariance tests pin
//! this down. Per-chunk primes are deliberately *not* counted into
//! [`evaluations`](BatchEvaluator::evaluations): the chunk grid varies
//! with the thread count, and the evaluation axis must not.
//!
//! [`scores`]: BatchEvaluator::scores
//! [`score_task_moves`]: BatchEvaluator::score_task_moves
//! [`best_task_move`]: BatchEvaluator::best_task_move

use crate::encoding::Solution;
use crate::eval::Evaluator;
use crate::incremental::{IncrementalEvaluator, MoveScore, ScanStats};
use crate::objective::Objective;
use crate::snapshot::EvalSnapshot;
use mshc_obs as obs;
use mshc_platform::MachineId;
use mshc_taskgraph::{TaskGraph, TaskId};
use rayon::prelude::*;
use std::ops::Range;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Locks a pool mutex, recovering the data on poison. Arena state is
/// always structurally valid (a suspect arena is discarded by the guard
/// before the poison could matter), so poisoning must not cascade.
fn lock_tolerant<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Winner of a bounded argmin scan: the earliest-index minimum-score
/// candidate, with its exact score.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BestMove {
    /// Index into the caller's move slice.
    pub index: usize,
    /// The candidate's exact objective value (never a pruned bound).
    pub score: f64,
}

/// One worker's reusable state: evaluators over the shared snapshot and
/// an optional scratch solution for non-incremental move scoring.
struct Arena<'a> {
    eval: Evaluator<'a>,
    inc: IncrementalEvaluator<'a>,
    scratch: Option<Solution>,
    /// Scan epoch `inc` was last primed for (0 = never). Within one scan
    /// the prime inputs are constant, so a matching stamp lets a worker
    /// reuse its prime across every chunk it claims in that scan.
    primed_epoch: u64,
}

impl<'a> Arena<'a> {
    fn new(snap: &'a EvalSnapshot) -> Arena<'a> {
        Arena {
            eval: Evaluator::with_snapshot(snap),
            inc: IncrementalEvaluator::with_snapshot(snap),
            scratch: None,
            primed_epoch: 0,
        }
    }
}

/// Arena storage pinned to the resident rayon workers: slot `i` belongs
/// to worker `i`, the trailing slot to the submitting (non-worker)
/// thread, and `overflow` catches late-grown workers beyond the slot
/// range. A slot is touched only by its own thread during a scan
/// (`&mut self` on the evaluator keeps scans from overlapping), so
/// checkout never contends.
struct ArenaPool<'a> {
    slots: Vec<Mutex<Option<Arena<'a>>>>,
    overflow: Mutex<Vec<Arena<'a>>>,
}

impl<'a> ArenaPool<'a> {
    fn new() -> ArenaPool<'a> {
        let slots = (0..rayon::current_num_threads() + 1).map(|_| Mutex::new(None)).collect();
        ArenaPool { slots, overflow: Mutex::new(Vec::new()) }
    }

    /// The slot owned by the calling thread, or `None` for a worker
    /// index beyond the slot range (scored via the overflow list).
    fn slot_for_current_thread(&self) -> Option<usize> {
        match rayon::current_thread_index() {
            None => Some(self.slots.len() - 1),
            Some(i) if i < self.slots.len() - 1 => Some(i),
            Some(_) => None,
        }
    }
}

/// Checked-out arena that returns itself to its slot on drop — unless
/// the thread is unwinding, in which case the arena is discarded: its
/// evaluators may be mid-replay, and returning it under a panic is
/// exactly the poisoning path this type exists to close.
struct ArenaGuard<'p, 'a> {
    pool: &'p ArenaPool<'a>,
    slot: Option<usize>,
    arena: Option<Arena<'a>>,
}

impl<'p, 'a> ArenaGuard<'p, 'a> {
    fn checkout(pool: &'p ArenaPool<'a>, snap: &'a EvalSnapshot) -> ArenaGuard<'p, 'a> {
        let slot = pool.slot_for_current_thread();
        let existing = match slot {
            Some(i) => lock_tolerant(&pool.slots[i]).take(),
            None => None,
        }
        .or_else(|| lock_tolerant(&pool.overflow).pop());
        let arena = existing.unwrap_or_else(|| Arena::new(snap));
        ArenaGuard { pool, slot, arena: Some(arena) }
    }

    /// Checks out an arena with its scratch solution reset to `base`.
    fn checkout_with_base(
        pool: &'p ArenaPool<'a>,
        snap: &'a EvalSnapshot,
        base: &Solution,
    ) -> ArenaGuard<'p, 'a> {
        let mut guard = ArenaGuard::checkout(pool, snap);
        let arena = guard.arena.as_mut().expect("arena present until drop");
        match &mut arena.scratch {
            Some(s) => s.clone_from(base),
            none => *none = Some(base.clone()),
        }
        guard
    }

    /// Checks out an arena with its incremental evaluator primed on
    /// `base` at the requested checkpoint stride and configured with the
    /// evaluator's prune/splice flags — the move-scoring fast path. The
    /// prime is stamped with the scan `epoch`: the first chunk a thread
    /// claims pays the O(k + p) prime, every later chunk of the same
    /// scan finds the stamp current and reuses it as-is (base, stride,
    /// flags and floor are all scan-constant).
    fn checkout_primed(
        pool: &'p ArenaPool<'a>,
        snap: &'a EvalSnapshot,
        base: &Solution,
        stride: Option<usize>,
        prune: bool,
        scan_floor: f64,
        epoch: u64,
    ) -> ArenaGuard<'p, 'a> {
        let mut guard = ArenaGuard::checkout(pool, snap);
        let arena = guard.arena.as_mut().expect("arena present until drop");
        if arena.primed_epoch != epoch {
            arena.inc.set_stride(stride);
            arena.inc.set_pruning(prune);
            arena.inc.set_splicing(prune);
            arena.inc.set_scan_floor(scan_floor);
            arena.inc.prime(base);
            arena.primed_epoch = epoch;
        }
        guard
    }

    fn parts(&mut self) -> (&mut Evaluator<'a>, &mut Option<Solution>) {
        let arena = self.arena.as_mut().expect("arena present until drop");
        (&mut arena.eval, &mut arena.scratch)
    }

    fn inc(&mut self) -> &mut IncrementalEvaluator<'a> {
        &mut self.arena.as_mut().expect("arena present until drop").inc
    }
}

impl Drop for ArenaGuard<'_, '_> {
    fn drop(&mut self) {
        let Some(arena) = self.arena.take() else { return };
        if std::thread::panicking() {
            // A panicking candidate (custom objective) may have left the
            // evaluators mid-replay; drop the arena on the floor. The
            // next checkout on this slot simply builds a fresh one.
            return;
        }
        match self.slot {
            Some(i) => {
                let mut slot = lock_tolerant(&self.pool.slots[i]);
                if slot.is_none() {
                    *slot = Some(arena);
                    return;
                }
                drop(slot);
                lock_tolerant(&self.pool.overflow).push(arena);
            }
            None => lock_tolerant(&self.pool.overflow).push(arena),
        }
    }
}

/// Scores whole candidate sets in one call, in parallel.
pub struct BatchEvaluator<'a> {
    snap: &'a EvalSnapshot,
    arenas: ArenaPool<'a>,
    /// Monotone per-scan counter stamping arena primes (see
    /// [`ArenaGuard::checkout_primed`]); bumped by every scoring entry
    /// point so a stale prime can never leak across scans.
    scan_epoch: u64,
    /// Checkpoint stride handed to the per-thread incremental evaluators
    /// (`None` = auto `⌈√k⌉`). Never affects scores, only resume cost.
    stride: Option<usize>,
    /// Whether the bounded scans may prune/splice (`--no-prune` turns
    /// this off). Selections are bit-identical either way.
    prune: bool,
    /// Certified instance floor forwarded to the per-thread incremental
    /// evaluators as a scan-global cutoff (default `-inf` = inert).
    scan_floor: f64,
    evaluations: u64,
    /// Aggregated fast-path counters across all calls (pruned/spliced
    /// parts are diagnostics: they vary with the chunk grid).
    scan: ScanStats,
}

impl<'a> BatchEvaluator<'a> {
    /// Creates a batch evaluator over a shared snapshot.
    pub fn new(snap: &'a EvalSnapshot) -> BatchEvaluator<'a> {
        BatchEvaluator {
            snap,
            arenas: ArenaPool::new(),
            scan_epoch: 0,
            stride: None,
            prune: true,
            scan_floor: f64::NEG_INFINITY,
            evaluations: 0,
            scan: ScanStats::default(),
        }
    }

    /// Sets the checkpoint stride for incremental move scoring (`None` =
    /// auto `⌈√k⌉`).
    pub fn with_stride(mut self, stride: Option<usize>) -> BatchEvaluator<'a> {
        self.stride = stride;
        self
    }

    /// Enables/disables bound pruning and reconvergence splicing in the
    /// incremental move scans (default: on). A pure cost knob — argmin
    /// results, scores and evaluation counts are identical either way.
    pub fn with_pruning(mut self, prune: bool) -> BatchEvaluator<'a> {
        self.prune = prune;
        self
    }

    /// Installs a certified instance floor as the scan-global cutoff for
    /// the bounded argmin scans (see
    /// [`IncrementalEvaluator::set_scan_floor`]). Callers must only pass
    /// a floor that provably lower-bounds every candidate's exact score
    /// under the scan's objective — [`crate::InstanceBound::floor`] under
    /// makespan. Honored only while pruning is enabled; another pure
    /// cost knob (argmin results, scores and evaluation counts are
    /// identical either way).
    pub fn with_scan_floor(mut self, floor: f64) -> BatchEvaluator<'a> {
        self.scan_floor = floor;
        self
    }

    /// The shared snapshot.
    #[inline]
    pub fn snapshot(&self) -> &'a EvalSnapshot {
        self.snap
    }

    /// Total schedule evaluations performed across all batches (one per
    /// scored candidate; per-chunk primes are uncounted so the axis is
    /// thread-count independent).
    #[inline]
    pub fn evaluations(&self) -> u64 {
        self.evaluations
    }

    /// Counters of the bounded/spliced fast path across all calls. The
    /// `scored` axis is deterministic; pruned/spliced fractions vary
    /// with the chunk grid (thread count) and are diagnostics only.
    #[inline]
    pub fn scan_stats(&self) -> ScanStats {
        self.scan
    }

    /// Contiguous index chunks for a bounded scan: one chunk on a
    /// single-thread pool (maximal bound reuse), a few per worker
    /// otherwise. The grid never affects the scan's outcome — only
    /// which candidates get pruned versus scored to completion.
    fn scan_chunks(&self, len: usize) -> Vec<Range<usize>> {
        let threads = rayon::current_num_threads().max(1);
        let chunk = if threads == 1 { len } else { len.div_ceil(threads * 2).max(1) };
        (0..len).step_by(chunk.max(1)).map(|lo| lo..(lo + chunk).min(len)).collect()
    }

    /// Scores every candidate solution under `obj`; `out[i]` is the score
    /// of `candidates[i]`. Whole solutions share no base, so this is
    /// always full (tier-1) evaluation fanned out per thread.
    pub fn scores(&mut self, candidates: &[Solution], obj: &dyn Objective) -> Vec<f64> {
        let snap = self.snap;
        let pool = &self.arenas;
        let out: Vec<f64> = candidates
            .par_iter()
            .map_init(
                || ArenaGuard::checkout(pool, snap),
                |guard, sol| {
                    let (eval, _) = guard.parts();
                    eval.objective_value(sol, obj)
                },
            )
            .collect();
        self.evaluations += candidates.len() as u64;
        out
    }

    /// Scores the candidate set "`base` with one task moved" where each
    /// entry may move a *different* task — the sampled-neighborhood shape
    /// (tabu search). Incremental-capable objectives are scored by
    /// suffix replay against a once-per-worker primed base and never
    /// touch a scratch solution; others fall back to a scratch clone of
    /// `base`, undoing each move before the next so the scratch stays
    /// equal to `base` throughout a chunk.
    pub fn score_task_moves(
        &mut self,
        graph: &TaskGraph,
        base: &Solution,
        moves: &[(TaskId, usize, MachineId)],
        obj: &dyn Objective,
    ) -> Vec<f64> {
        let _scan_timer = obs::timer(obs::Hist::ScanLatencyUs);
        self.scan_epoch += 1;
        let epoch = self.scan_epoch;
        let snap = self.snap;
        let pool = &self.arenas;
        let stride = self.stride;
        let prune = self.prune;
        let before = self.arena_totals();
        let out: Vec<f64> = if obj.supports_incremental() {
            moves
                .par_iter()
                .map_init(
                    || {
                        ArenaGuard::checkout_primed(
                            pool,
                            snap,
                            base,
                            stride,
                            prune,
                            f64::NEG_INFINITY,
                            epoch,
                        )
                    },
                    |guard, &(t, pos, m)| guard.inc().score_move(t, pos, m, obj),
                )
                .collect()
        } else {
            moves
                .par_iter()
                .map_init(
                    || ArenaGuard::checkout_with_base(pool, snap, base),
                    |guard, &(t, pos, m)| {
                        let (eval, scratch) = guard.parts();
                        let scratch = scratch.as_mut().expect("checkout_with_base sets scratch");
                        let undo = (scratch.position_of(t), scratch.machine_of(t));
                        scratch.move_task(graph, t, pos, m).expect("candidate within valid range");
                        let score = eval.objective_value(scratch, obj);
                        scratch.move_task(graph, t, undo.0, undo.1).expect("undo restores base");
                        score
                    },
                )
                .collect()
        };
        self.evaluations += moves.len() as u64;
        self.absorb_arena_stats(before);
        out
    }

    /// Bounded argmin over a move sample "`base` with one task moved" —
    /// tabu's sampled neighborhood, and any single-task grid.
    ///
    /// `admissible` marks moves that may always be chosen; a
    /// non-admissible move (a tabu task) is only eligible when its score
    /// strictly beats `aspiration` (the global best — tabu's aspiration
    /// criterion). `None` admits everything. Returns the earliest-index
    /// minimum among eligible candidates with its exact score — exactly
    /// what the sequential skip-tabu-unless-aspirating scan selects — or
    /// `None` when no move is eligible. Evaluation count is
    /// `moves.len()` regardless.
    ///
    /// Each worker chunk threads its running best into
    /// [`IncrementalEvaluator::score_move_bounded`], so provably losing
    /// candidates are abandoned mid-replay. The winner is invariant
    /// under the chunk grid: a pruned candidate's score is `>=` some
    /// already-seen exact score at an earlier index, so no first minimum
    /// is ever pruned — the scan commits **exactly** the argmin an
    /// unbounded [`score_task_moves`](Self::score_task_moves) + fold
    /// would, at any thread count.
    pub fn best_task_move(
        &mut self,
        graph: &TaskGraph,
        base: &Solution,
        moves: &[(TaskId, usize, MachineId)],
        admissible: Option<&[bool]>,
        aspiration: f64,
        obj: &dyn Objective,
    ) -> Option<BestMove> {
        if let Some(mask) = admissible {
            debug_assert_eq!(mask.len(), moves.len(), "admissible mask/move mismatch");
        }
        if moves.is_empty() {
            return None;
        }
        if !obj.supports_incremental() {
            // Full-pass fallback: score everything (counting happens in
            // the called method), then fold eligibility sequentially.
            let scores = self.score_task_moves(graph, base, moves, obj);
            return fold_eligible(
                None,
                scores.iter().enumerate().map(|(i, &s)| (i, MoveScore::Exact(s))),
                admissible,
                aspiration,
            );
        }
        let _scan_timer = obs::timer(obs::Hist::ScanLatencyUs);
        self.scan_epoch += 1;
        let epoch = self.scan_epoch;
        let snap = self.snap;
        let pool = &self.arenas;
        let stride = self.stride;
        let prune = self.prune;
        let scan_floor = self.scan_floor;
        let before = self.arena_totals();
        let chunks = self.scan_chunks(moves.len());
        // One chunk = one item: the per-chunk running bound lives inside
        // the item computation, so per-item results stay deterministic
        // (the merged winner is chunk-grid invariant besides).
        let chunk_best: Vec<Option<BestMove>> = chunks
            .par_iter()
            .map_init(
                || ArenaGuard::checkout_primed(pool, snap, base, stride, prune, scan_floor, epoch),
                |guard, range| {
                    let inc = guard.inc();
                    let mut best: Option<BestMove> = None;
                    for i in range.clone() {
                        let (t, pos, m) = moves[i];
                        let local = best.map_or(f64::INFINITY, |b| b.score);
                        let adm = admissible.is_none_or(|a| a[i]);
                        // A non-admissible candidate must beat both the
                        // aspiration line and the running best to be
                        // chosen; either alone justifies the cut.
                        let cut = if adm { local } else { aspiration.min(local) };
                        match inc.score_move_bounded(t, pos, m, cut, obj) {
                            MoveScore::Exact(score) => {
                                best = fold_eligible(
                                    best,
                                    std::iter::once((i, MoveScore::Exact(score))),
                                    admissible,
                                    aspiration,
                                );
                            }
                            MoveScore::Pruned => {}
                        }
                    }
                    best
                },
            )
            .collect();
        self.evaluations += moves.len() as u64;
        self.absorb_arena_stats(before);
        // Merge in chunk (index) order; strict improvement (under
        // total_cmp, so a NaN from a custom objective ranks greatest
        // instead of poisoning the fold) keeps the earliest index on
        // ties.
        chunk_best.into_iter().flatten().fold(None, |acc: Option<BestMove>, b| match acc {
            Some(a) if a.score.total_cmp(&b.score).is_le() => Some(a),
            _ => Some(b),
        })
    }

    /// Sums the fast-path counters over every pooled arena (all arenas
    /// are at rest between calls — `&mut self` methods cannot overlap).
    fn arena_totals(&self) -> ScanStats {
        let mut total = ScanStats::default();
        for slot in &self.arenas.slots {
            if let Some(arena) = lock_tolerant(slot).as_ref() {
                total.merge(arena.inc.stats());
            }
        }
        for arena in lock_tolerant(&self.arenas.overflow).iter() {
            total.merge(arena.inc.stats());
        }
        total
    }

    /// Folds the arena counters gained since `before` into the
    /// evaluator-level totals. Saturating: a panicking scan discards its
    /// arena, taking that arena's lifetime counters with it, which can
    /// leave `after < before` on an axis (diagnostics only — the
    /// deterministic `scored` axis undercounts rather than wrapping).
    fn absorb_arena_stats(&mut self, before: ScanStats) {
        let after = self.arena_totals();
        self.scan.merge(ScanStats {
            scored: after.scored.saturating_sub(before.scored),
            pruned: after.pruned.saturating_sub(before.pruned),
            spliced: after.spliced.saturating_sub(before.spliced),
            ..ScanStats::default()
        });
    }
}

/// Sequential eligibility fold shared by the bounded scans: admissible
/// candidates always contend, others only strictly below `aspiration`;
/// strict score improvement keeps the earliest index on ties. All
/// comparisons use `total_cmp` — matching the `min_by` fold this
/// machinery replaced — so a NaN from a custom objective ranks greatest
/// (never chosen over a finite score, never aspirating) instead of
/// poisoning the fold.
fn fold_eligible(
    init: Option<BestMove>,
    scored: impl Iterator<Item = (usize, MoveScore)>,
    admissible: Option<&[bool]>,
    aspiration: f64,
) -> Option<BestMove> {
    let mut best = init;
    for (i, score) in scored {
        let MoveScore::Exact(score) = score else { continue };
        let adm = admissible.is_none_or(|a| a[i]);
        if !adm && score.total_cmp(&aspiration).is_ge() {
            continue;
        }
        if best.is_none_or(|b| score.total_cmp(&b.score).is_lt()) {
            best = Some(BestMove { index: i, score });
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::random_solution;
    use crate::objective::{EvalView, ObjectiveKind};
    use mshc_platform::{HcInstance, HcSystem, Matrix};
    use mshc_taskgraph::gen::{layered, LayeredConfig};
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

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
    fn batch_scores_match_scalar_evaluator_for_every_objective() {
        let inst = random_instance(20, 4, 1);
        let snap = EvalSnapshot::new(&inst);
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let candidates: Vec<Solution> = (0..40).map(|_| random_solution(&inst, &mut rng)).collect();
        let weighted = ObjectiveKind::Weighted { makespan: 1.0, flowtime: 0.3, balance: 0.7 };
        for kind in ObjectiveKind::BASIC.into_iter().chain([weighted]) {
            let mut batch = BatchEvaluator::new(&snap);
            let got = batch.scores(&candidates, &kind);
            let mut scalar = Evaluator::new(&inst);
            let want: Vec<f64> =
                candidates.iter().map(|s| scalar.objective_value(s, &kind)).collect();
            assert_eq!(got, want, "objective {}", kind.label());
            assert_eq!(batch.evaluations(), 40);
        }
    }

    #[test]
    fn batch_scores_bit_identical_across_thread_counts() {
        let inst = random_instance(30, 5, 3);
        let snap = EvalSnapshot::new(&inst);
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let candidates: Vec<Solution> = (0..64).map(|_| random_solution(&inst, &mut rng)).collect();
        let obj = ObjectiveKind::Makespan;
        let baseline = rayon::ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .unwrap()
            .install(|| BatchEvaluator::new(&snap).scores(&candidates, &obj));
        for threads in [2, 4, 8] {
            let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
            let got = pool.install(|| BatchEvaluator::new(&snap).scores(&candidates, &obj));
            assert_eq!(got, baseline, "{threads} threads");
        }
    }

    /// The SE allocation-scan shape: every `(position, machine)` of
    /// `t`'s valid range on `base`, as single-task moves.
    fn task_grid(
        g: &TaskGraph,
        base: &Solution,
        t: TaskId,
        machines: u32,
    ) -> Vec<(TaskId, usize, MachineId)> {
        let (lo, hi) = base.valid_range(g, t);
        (lo..=hi).flat_map(|p| (0..machines).map(move |m| (t, p, MachineId::new(m)))).collect()
    }

    #[test]
    fn single_task_grid_scores_match_move_then_scalar() {
        let inst = random_instance(18, 4, 5);
        let g = inst.graph();
        let snap = EvalSnapshot::new(&inst);
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let base = random_solution(&inst, &mut rng);
        let moves = task_grid(g, &base, TaskId::new(7), 4);
        let mut batch = BatchEvaluator::new(&snap);
        let got = batch.score_task_moves(g, &base, &moves, &ObjectiveKind::Makespan);
        let mut scalar = Evaluator::new(&inst);
        for (&(t, pos, m), &score) in moves.iter().zip(&got) {
            let mut cand = base.clone();
            cand.move_task(g, t, pos, m).unwrap();
            assert_eq!(scalar.makespan(&cand), score, "move ({pos}, {m})");
        }
        assert_eq!(batch.evaluations(), moves.len() as u64);
    }

    #[test]
    fn score_task_moves_matches_and_restores_base() {
        let inst = random_instance(16, 3, 7);
        let g = inst.graph();
        let snap = EvalSnapshot::new(&inst);
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        let base = random_solution(&inst, &mut rng);
        let moves: Vec<(TaskId, usize, MachineId)> = (0..32)
            .map(|_| {
                let t = TaskId::new(rng.gen_range(0..16));
                let (lo, hi) = base.valid_range(g, t);
                (t, rng.gen_range(lo..=hi), MachineId::new(rng.gen_range(0..3)))
            })
            .collect();
        let obj = ObjectiveKind::TotalFlowtime;
        let mut batch = BatchEvaluator::new(&snap);
        let got = batch.score_task_moves(g, &base, &moves, &obj);
        let mut scalar = Evaluator::new(&inst);
        for (&(t, pos, m), &score) in moves.iter().zip(&got) {
            let mut cand = base.clone();
            cand.move_task(g, t, pos, m).unwrap();
            assert_eq!(scalar.objective_value(&cand, &obj), score);
        }
        // Scoring again over the recycled arenas gives the same answers
        // (primed bases are rebuilt per checkout).
        assert_eq!(batch.score_task_moves(g, &base, &moves, &obj), got);
    }

    #[test]
    fn move_scores_are_stride_and_thread_invariant() {
        // The checkpoint stride is a pure cost knob: every stride (1,
        // auto, beyond-k) and every thread count must produce the same
        // bits.
        let inst = random_instance(26, 4, 12);
        let g = inst.graph();
        let k = inst.task_count();
        let snap = EvalSnapshot::new(&inst);
        let mut rng = ChaCha8Rng::seed_from_u64(13);
        let base = random_solution(&inst, &mut rng);
        let moves: Vec<(TaskId, usize, MachineId)> = (0..48)
            .map(|_| {
                let t = TaskId::new(rng.gen_range(0..k as u32));
                let (lo, hi) = base.valid_range(g, t);
                (t, rng.gen_range(lo..=hi), MachineId::new(rng.gen_range(0..4)))
            })
            .collect();
        let obj = ObjectiveKind::Makespan;
        let baseline = rayon::ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .unwrap()
            .install(|| BatchEvaluator::new(&snap).score_task_moves(g, &base, &moves, &obj));
        for stride in [Some(1), None, Some(k + 9)] {
            for threads in [1usize, 2, 8] {
                let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
                let got = pool.install(|| {
                    BatchEvaluator::new(&snap)
                        .with_stride(stride)
                        .score_task_moves(g, &base, &moves, &obj)
                });
                assert_eq!(got, baseline, "stride {stride:?}, {threads} threads");
            }
        }
    }

    #[test]
    fn non_incremental_objectives_fall_back_to_full_passes() {
        // A custom objective without accumulator support must still be
        // served (clone-and-move route) and match the scalar evaluator.
        struct StartSum;
        impl Objective for StartSum {
            fn name(&self) -> &str {
                "start-sum"
            }
            fn value(&self, view: &EvalView<'_>) -> f64 {
                view.start.iter().sum()
            }
        }
        let inst = random_instance(14, 3, 21);
        let g = inst.graph();
        let snap = EvalSnapshot::new(&inst);
        let mut rng = ChaCha8Rng::seed_from_u64(22);
        let base = random_solution(&inst, &mut rng);
        let moves = task_grid(g, &base, TaskId::new(5), 1);
        let mut batch = BatchEvaluator::new(&snap);
        let got = batch.score_task_moves(g, &base, &moves, &StartSum);
        let mut scalar = Evaluator::new(&inst);
        for (&(t, pos, m), &score) in moves.iter().zip(&got) {
            let mut cand = base.clone();
            cand.move_task(g, t, pos, m).unwrap();
            assert_eq!(scalar.objective_value(&cand, &StartSum), score);
        }
    }

    #[test]
    fn empty_batches_are_fine() {
        let inst = random_instance(5, 2, 9);
        let snap = EvalSnapshot::new(&inst);
        let mut batch = BatchEvaluator::new(&snap);
        assert!(batch.scores(&[], &ObjectiveKind::Makespan).is_empty());
        assert_eq!(batch.evaluations(), 0);
        let g = inst.graph();
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let base = random_solution(&inst, &mut rng);
        assert_eq!(batch.best_task_move(g, &base, &[], None, 0.0, &ObjectiveKind::Makespan), None);
        assert_eq!(batch.evaluations(), 0);
        assert_eq!(batch.scan_stats(), crate::incremental::ScanStats::default());
    }

    #[test]
    fn aspiration_scan_with_nothing_eligible_returns_none() {
        // Every move tabu, aspiration at 0: nothing can be chosen, at
        // any thread count, and every candidate still counts.
        let inst = random_instance(14, 3, 30);
        let g = inst.graph();
        let snap = EvalSnapshot::new(&inst);
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let base = random_solution(&inst, &mut rng);
        let moves: Vec<(TaskId, usize, MachineId)> = (0..16)
            .map(|_| {
                let t = TaskId::new(rng.gen_range(0..14));
                let (lo, hi) = base.valid_range(g, t);
                (t, rng.gen_range(lo..=hi), MachineId::new(rng.gen_range(0..3)))
            })
            .collect();
        let admissible = vec![false; moves.len()];
        for threads in [1usize, 4] {
            let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
            let mut batch = BatchEvaluator::new(&snap);
            let got = pool.install(|| {
                batch.best_task_move(
                    g,
                    &base,
                    &moves,
                    Some(&admissible),
                    0.0,
                    &ObjectiveKind::Makespan,
                )
            });
            assert_eq!(got, None, "{threads} threads");
            assert_eq!(batch.evaluations(), moves.len() as u64);
        }
    }

    #[test]
    fn bounded_argmin_serves_non_incremental_objectives() {
        // Custom full-pass objectives fall back to exact scoring with
        // the same argmin semantics.
        struct StartSum;
        impl Objective for StartSum {
            fn name(&self) -> &str {
                "start-sum"
            }
            fn value(&self, view: &EvalView<'_>) -> f64 {
                view.start.iter().sum()
            }
        }
        let inst = random_instance(12, 3, 33);
        let g = inst.graph();
        let snap = EvalSnapshot::new(&inst);
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let base = random_solution(&inst, &mut rng);
        let moves = task_grid(g, &base, TaskId::new(4), 3);
        let mut batch = BatchEvaluator::new(&snap);
        let scores = batch.score_task_moves(g, &base, &moves, &StartSum);
        let want = scores
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.total_cmp(b.1).then(a.0.cmp(&b.0)))
            .map(|(i, &s)| (i, s));
        let got = batch.best_task_move(g, &base, &moves, None, f64::INFINITY, &StartSum);
        assert_eq!(got.map(|b| (b.index, b.score)), want);
    }

    #[test]
    fn scan_floor_prunes_instantly_without_changing_the_argmin() {
        // Balanced integer instance: 4 independent tasks on 2 machines,
        // every execution 6.0 → certified floor 12.0 (total work 24 over
        // aggregate capacity 2), reached by any 2+2 split.
        let g = mshc_taskgraph::TaskGraphBuilder::new(4).build().unwrap();
        let exec = Matrix::filled(2, 4, 6.0);
        let transfer = Matrix::filled(1, 0, 0.0);
        let sys = HcSystem::with_anonymous_machines(2, exec, transfer).unwrap();
        let inst = HcInstance::new(g, sys).unwrap();
        let bound = crate::InstanceBound::compute(&inst);
        assert_eq!(bound.floor(), 12.0);

        // Direct evaluator check: once the caller's running best equals
        // the floor, a bounded scoring is pruned before any replay; with
        // the default (-inf) floor the same call scores to completion.
        let snap = EvalSnapshot::new(&inst);
        let g = inst.graph();
        let mut rng = ChaCha8Rng::seed_from_u64(40);
        let base = random_solution(&inst, &mut rng);
        let obj = ObjectiveKind::Makespan;
        let mut inc = IncrementalEvaluator::with_snapshot(&snap);
        inc.prime(&base);
        let t = TaskId::new(0);
        let (pos, m) = (base.position_of(t), base.machine_of(t));
        let exact = inc.score_move_bounded(t, pos, m, bound.floor(), &obj);
        assert!(matches!(exact, MoveScore::Exact(_)), "identity move scores");
        inc.set_scan_floor(bound.floor());
        let cut = inc.score_move_bounded(t, pos, m, bound.floor(), &obj);
        assert_eq!(cut, MoveScore::Pruned, "floor == bound prunes instantly");

        // Batch-level identity: the argmin winner, its score bits and
        // the evaluation count are unchanged by the floor, at any
        // thread count.
        let moves = task_grid(g, &base, t, 2);
        for threads in [1usize, 4] {
            let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
            let (plain, floored) = pool.install(|| {
                let mut b0 = BatchEvaluator::new(&snap);
                let r0 = b0.best_task_move(g, &base, &moves, None, 0.0, &obj).unwrap();
                let mut b1 = BatchEvaluator::new(&snap).with_scan_floor(bound.floor());
                let r1 = b1.best_task_move(g, &base, &moves, None, 0.0, &obj).unwrap();
                assert_eq!(b0.evaluations(), b1.evaluations());
                (r0, r1)
            });
            assert_eq!(plain.index, floored.index, "{threads} threads");
            assert_eq!(plain.score.to_bits(), floored.score.to_bits(), "{threads} threads");
        }
    }

    #[test]
    fn panicking_objective_does_not_poison_the_arena_pool() {
        // Regression: a panicking candidate used to poison the shared
        // arena mutex (the guard returned its arena while unwinding),
        // and the next checkout's `.expect("arena pool poisoned")`
        // cascaded the failure into healthy scans — exactly the
        // tournament-cell containment hole. Checkout is now
        // poison-tolerant and an unwinding guard discards its arena, so
        // the same evaluator must keep working after a contained panic.
        struct Grenade;
        impl Objective for Grenade {
            fn name(&self) -> &str {
                "grenade"
            }
            fn value(&self, view: &EvalView<'_>) -> f64 {
                if view.finish.len() > 3 {
                    panic!("boom");
                }
                0.0
            }
        }
        let inst = random_instance(16, 3, 50);
        let g = inst.graph();
        let snap = EvalSnapshot::new(&inst);
        let mut rng = ChaCha8Rng::seed_from_u64(51);
        let base = random_solution(&inst, &mut rng);
        let moves = task_grid(g, &base, TaskId::new(2), 3);
        let obj = ObjectiveKind::Makespan;
        for threads in [1usize, 4] {
            let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
            pool.install(|| {
                let mut batch = BatchEvaluator::new(&snap);
                // Warm the arena slots, then detonate a contained panic
                // mid-scan (the portfolio's catch_unwind shape).
                let want = batch.score_task_moves(g, &base, &moves, &obj);
                let blast = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    batch.score_task_moves(g, &base, &moves, &Grenade)
                }));
                assert!(blast.is_err(), "objective must panic");
                // The evaluator must still serve healthy scans, with the
                // same bits as before the panic.
                let got = batch.score_task_moves(g, &base, &moves, &obj);
                assert_eq!(got, want, "{threads} threads");
                assert!(batch.best_task_move(g, &base, &moves, None, 0.0, &obj).is_some());
            });
        }
    }

    #[test]
    fn prime_reuse_never_leaks_across_bases() {
        // Per-worker arenas survive across scans and reuse their prime
        // within one; a new scan over a *different* base must re-prime.
        // Alternate between two bases repeatedly and check every scan
        // against the scalar evaluator.
        let inst = random_instance(20, 4, 60);
        let g = inst.graph();
        let snap = EvalSnapshot::new(&inst);
        let mut rng = ChaCha8Rng::seed_from_u64(61);
        let base_a = random_solution(&inst, &mut rng);
        let base_b = random_solution(&inst, &mut rng);
        let obj = ObjectiveKind::Makespan;
        let mut batch = BatchEvaluator::new(&snap);
        let mut scalar = Evaluator::new(&inst);
        for round in 0..4 {
            let base = if round % 2 == 0 { &base_a } else { &base_b };
            let moves = task_grid(g, base, TaskId::new(round as u32 + 1), 4);
            let got = batch.score_task_moves(g, base, &moves, &obj);
            for (&(t, pos, m), &score) in moves.iter().zip(&got) {
                let mut cand = base.clone();
                cand.move_task(g, t, pos, m).unwrap();
                assert_eq!(scalar.makespan(&cand), score, "round {round}, move ({pos}, {m})");
            }
        }
    }

    #[test]
    fn nan_scores_follow_total_cmp_in_bounded_argmin() {
        // A custom objective emitting NaN for some candidates must not
        // poison the argmin: the fold follows total_cmp exactly like the
        // min_by fold this machinery replaced (-NaN smallest, +NaN
        // greatest — never "sticky first seen"), at any thread count.
        struct SqrtMargin(f64);
        impl Objective for SqrtMargin {
            fn name(&self) -> &str {
                "sqrt-margin"
            }
            fn value(&self, view: &EvalView<'_>) -> f64 {
                // NaN whenever the schedule beats the threshold.
                let mk = view.finish.iter().copied().fold(0.0, f64::max);
                (mk - self.0).sqrt()
            }
        }
        let inst = random_instance(12, 3, 34);
        let g = inst.graph();
        let snap = EvalSnapshot::new(&inst);
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let base = random_solution(&inst, &mut rng);
        let moves = task_grid(g, &base, TaskId::new(6), 3);
        let mut batch = BatchEvaluator::new(&snap);
        // Threshold at the median candidate makespan, so roughly half
        // the candidates go NaN.
        let mut makespans = batch.score_task_moves(g, &base, &moves, &ObjectiveKind::Makespan);
        makespans.sort_by(f64::total_cmp);
        let objective = SqrtMargin(makespans[makespans.len() / 2]);
        let scores = batch.score_task_moves(g, &base, &moves, &objective);
        assert!(scores.iter().any(|s| s.is_nan()), "test needs NaN candidates");
        assert!(scores.iter().any(|s| !s.is_nan()), "test needs finite candidates");
        let want = scores
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.total_cmp(b.1).then(a.0.cmp(&b.0)))
            .map(|(i, &s)| (i, s.to_bits()))
            .expect("non-empty grid");
        for threads in [1usize, 4] {
            let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
            let got = pool
                .install(|| {
                    BatchEvaluator::new(&snap)
                        .best_task_move(g, &base, &moves, None, 0.0, &objective)
                })
                .expect("non-empty grid");
            assert_eq!((got.index, got.score.to_bits()), want, "{threads} threads");
        }
    }
}
