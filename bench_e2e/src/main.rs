//! End-to-end benchmark of the mshc suite.
//!
//! ```text
//! bench_e2e --workload <name> --seed <n> --seconds <n> --trace <0|1> [--pin]
//! ```
//!
//! One process, one client, closed loop: each workload runs the library
//! entry points behind `mshc run`, `mshc tournament` and `mshc replan`,
//! and the next call starts when the previous one returns. Every call
//! is timed from outside; every output is checked outside the timed
//! regions. The last line of standard output is the result object:
//! end-to-end metrics for `--trace 0`, per-layer metrics (from spans
//! and the `mshc-obs` counters) for `--trace 1`. `--pin` prints the
//! fingerprint lines of the default seed for `pinned.txt` instead.
//! See README.md.

mod check;
mod heap;
mod host;
mod spans;
mod stats;
mod workloads;

use check::{expected_of, mismatches, Op, DEFAULT_SEED, HELD_OUT_SEED};
use host::Stopwatch;
use mshc::obs;
use serde::{Serialize, Value};
use spans::{LayerTime, Tracer};
use stats::{mean, median, quantile, ratio};
use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;
use std::time::{Duration, Instant};
use workloads::{Layers, ReplanDropout, SePaper, Search400x32, TournamentSmall, Workload};

#[global_allocator]
static ALLOCATOR: heap::Counting = heap::Counting;

const USAGE: &str =
    "usage: bench_e2e --workload se-paper|search-400x32|tournament-small|replan-dropout \
                     --seed N --seconds N --trace 0|1 [--pin]";

/// Timed set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// Every per-layer metric of the traced run, with its unit.
const LAYER_METRICS: [(&str, &str); 33] = [
    ("workloads.generate_ms", "ms"),
    ("schedule.snapshot_ms", "ms"),
    ("schedule.snapshot_bytes", "bytes"),
    ("schedule.snapshot_l2_ratio", "ratio"),
    ("schedule.lower_bound_ms", "ms"),
    ("schedule.full_pass_us", "us"),
    ("schedule.full_passes", "count"),
    ("schedule.charged_per_full_pass", "ratio"),
    ("schedule.incremental.scored", "count"),
    ("schedule.incremental.pruned_frac", "ratio"),
    ("schedule.incremental.spliced_frac", "ratio"),
    ("ga.prefix_reuse_frac", "ratio"),
    ("ga.suffix_scorings", "count"),
    ("core.start_ms", "ms"),
    ("core.iter_ms_p50", "ms"),
    ("core.iter_ms_p90", "ms"),
    ("core.search_s", "s"),
    ("ga.search_s", "s"),
    ("heuristics.tabu.search_s", "s"),
    ("heuristics.sa.search_s", "s"),
    ("portfolio.cell_ms_p50", "ms"),
    ("portfolio.cell_ms_p90", "ms"),
    ("heuristics.oneshot_ms", "ms"),
    ("portfolio.busy_frac", "ratio"),
    ("portfolio.speedup_vs_1thread", "ratio"),
    ("pool.steals", "count"),
    ("pool.chunk_claims", "count"),
    ("pool.queue_depth_hwm", "count"),
    ("schedule.replan.apply_ms_p50", "ms"),
    ("schedule.replan.search_ms_p50", "ms"),
    ("schedule.replan.self_frac", "ratio"),
    ("schedule.replan.residual_tasks_mean", "tasks"),
    ("obs.trace_overhead", "ratio"),
];

/// Parsed command line.
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    pin: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args =
        Args { workload: String::new(), seed: DEFAULT_SEED, seconds: 10, trace: false, pin: false };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--pin" {
            args.pin = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag}: missing value"))?;
        let number =
            || value.parse::<u64>().map_err(|_| format!("{flag}: not a whole number: {value:?}"));
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace: expected 0 or 1, got {value:?}")),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    if args.seconds == 0 {
        return Err("--seconds: must be at least 1".to_string());
    }
    Ok(args)
}

/// One reported metric.
#[derive(Serialize)]
struct Metric {
    value: f64,
    unit: &'static str,
}

impl Metric {
    /// A metric; a non-finite value (an empty ratio) reads 0.
    fn new(value: f64, unit: &'static str) -> Metric {
        Metric { value: if value.is_finite() { value } else { 0.0 }, unit }
    }
}

/// The result object, the last line of standard output.
#[derive(Serialize)]
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<&'static str, Metric>,
}

/// What one run measured and checked.
struct Report {
    metrics: BTreeMap<&'static str, Metric>,
    tally: Tally,
    /// Extra facts for the detail line.
    detail: Value,
}

/// Tallies operations and their failures. An operation is one labelled
/// unit of work (a search run, a tournament cell, a disturbance); it
/// fails once however many of its checks — a bit-for-bit comparison
/// with the reference or with `pinned.txt`, or an independent
/// verification — fail, and on however many passes.
#[derive(Default)]
struct Tally {
    /// Labels of every operation checked.
    operations: BTreeSet<String>,
    /// The first failure message of every failed operation.
    failed: BTreeMap<String, String>,
}

impl Tally {
    fn attempt(&mut self, ops: &[Op]) {
        self.operations.extend(ops.iter().map(|op| op.label.clone()));
    }

    fn fail(&mut self, what: &str, errors: Vec<(String, String)>) {
        for (label, msg) in errors {
            self.operations.insert(label.clone());
            self.failed.entry(label).or_insert_with(|| format!("{what}: {msg}"));
        }
    }

    fn compare(&mut self, expected: &[(String, u64)], ops: &[Op], what: &str) {
        self.attempt(ops);
        self.fail(what, mismatches(expected, ops));
    }

    /// Failed operations over checked operations.
    fn failed_share(&self) -> f64 {
        ratio(self.failed.len() as f64, self.operations.len() as f64)
    }
}

/// Compares the operations at `DEFAULT_SEED` with `pinned.txt`: the
/// run's own `reference` when it runs at that seed, else a fresh pass.
fn check_pinned<W: Workload>(
    name: &str,
    seed: u64,
    reference: Vec<Op>,
    off: &Rc<Tracer>,
    tally: &mut Tally,
) {
    let ops = if seed == DEFAULT_SEED {
        reference
    } else {
        let mut w = W::setup(DEFAULT_SEED, off);
        let out = w.pass(off);
        w.ops(&out)
    };
    tally.compare(&check::pinned(name), &ops, "pinned");
}

/// Checks a pass's outputs independently (every pass was compared with
/// `expected`, so this verifies them all); returns its operations.
fn check_outputs<W: Workload>(
    w: &mut W,
    out: W::Out,
    expected: &[(String, u64)],
    tally: &mut Tally,
) -> Vec<Op> {
    let (checked, errors) = w.check(out);
    let ops = w.ops(&checked);
    tally.fail("check", errors);
    tally.compare(expected, &ops, "checked pass");
    ops
}

/// Latency samples and no-op count of a pass's operations.
fn latencies(ops: &[Op], samples: &mut Vec<f64>) -> u64 {
    let before = samples.len();
    samples.extend(ops.iter().filter_map(|op| op.ms));
    (ops.len() - (samples.len() - before)) as u64
}

/// Facts of an untraced run besides its metrics.
#[derive(Serialize)]
struct UntracedDetail {
    peak_rss_mb: f64,
    setup_s_samples: Vec<f64>,
    setup_wall_s_samples: Vec<f64>,
    pass_s_samples: Vec<f64>,
    pass_wall_s_samples: Vec<f64>,
    steal_s: f64,
    ops_per_pass: usize,
    charged_evaluations_per_pass: u64,
    op_samples: usize,
    noop_ops: u64,
    gap_samples: usize,
}

/// The untraced run: an untimed pass at `DEFAULT_SEED` (checked against
/// `pinned.txt`, with the allocator counting), timed set-ups, timed
/// passes for `seconds`, then the checks; reports the end-to-end
/// metrics. Every pass at the run's seed must reproduce the first one
/// bit for bit, and the last pass is checked independently, so every
/// timed output is verified. Times are read on the [`host::Stopwatch`];
/// wall-clock times and the host's steal time go to the detail line.
fn run_untraced<W: Workload>(name: &str, args: &Args) -> Report {
    let off = Rc::new(Tracer::new(false));
    let mut tally = Tally::default();
    // The heap peak is taken on the default seed's inputs, which every
    // run generates anyway for the pinned check: the figure is then a
    // property of the program alone, not of the run's instance sizes.
    let (pinned_ops, peak_heap_mb) = heap::measure(|| {
        let mut w = W::setup(DEFAULT_SEED, &off);
        let out = w.pass(&off);
        w.ops(&out)
    });
    tally.compare(&check::pinned(name), &pinned_ops, "pinned");
    let mut expected = (args.seed == DEFAULT_SEED).then(|| expected_of(&pinned_ops));

    let steal0 = host::steal_secs();
    let (mut setup_s, mut setup_wall_s, mut workload) = (Vec::new(), Vec::new(), None);
    for _ in 0..SETUP_REPS {
        drop(workload.take());
        let (t0, w0) = (Stopwatch::start(), Instant::now());
        let mut w = W::setup(args.seed, &off);
        let warm = w.pass(&off);
        setup_s.push(t0.secs());
        setup_wall_s.push(w0.elapsed().as_secs_f64());
        let ops = w.ops(&warm);
        tally.compare(expected.get_or_insert_with(|| expected_of(&ops)), &ops, "warm-up pass");
        workload = Some(w);
    }
    let (mut w, expected) = (
        workload.expect("at least one set-up ran"),
        expected.expect("set by the pinned pass or the first set-up"),
    );

    let (mut pass_s, mut pass_wall_s, mut op_ms, mut noops) =
        (Vec::new(), Vec::new(), Vec::new(), 0);
    let start = Instant::now();
    let last = loop {
        let (t0, w0) = (Stopwatch::start(), Instant::now());
        let out = w.pass(&off);
        pass_s.push(t0.secs());
        pass_wall_s.push(w0.elapsed().as_secs_f64());
        let ops = w.ops(&out);
        noops += latencies(&ops, &mut op_ms);
        tally.compare(&expected, &ops, "timed pass");
        if start.elapsed() >= Duration::from_secs(args.seconds) {
            break out;
        }
    };
    // Read before the checks, which may keep extra copies of the outputs.
    let peak_rss_mb = host::peak_rss_mb();
    let steal_s = host::steal_secs() - steal0;
    let reference = check_outputs(&mut w, last, &expected, &mut tally);

    let gaps: Vec<f64> = reference.iter().filter_map(|op| op.gap).collect();
    let metrics = BTreeMap::from([
        ("setup_s", Metric::new(median(&setup_s), "s")),
        ("pass_s", Metric::new(median(&pass_s), "s")),
        ("op_ms_p50", Metric::new(median(&op_ms), "ms")),
        ("op_ms_p90", Metric::new(quantile(&op_ms, 0.9), "ms")),
        ("gap_mean", Metric::new(mean(&gaps), "ratio")),
        ("ok_rate", Metric::new(1.0 - tally.failed_share(), "ratio")),
        ("peak_heap_mb", Metric::new(peak_heap_mb, "MiB")),
    ]);
    let detail = UntracedDetail {
        peak_rss_mb,
        setup_s_samples: setup_s,
        setup_wall_s_samples: setup_wall_s,
        pass_s_samples: pass_s,
        pass_wall_s_samples: pass_wall_s,
        steal_s,
        ops_per_pass: reference.len(),
        charged_evaluations_per_pass: reference.iter().map(|op| op.charged).sum(),
        op_samples: op_ms.len(),
        noop_ops: noops,
        gap_samples: gaps.len(),
    };
    Report { metrics, tally, detail: detail.serialize() }
}

/// Facts of a traced run besides its metrics.
#[derive(Serialize)]
struct TracedDetail {
    untraced_passes: usize,
    traced_passes: usize,
    core_iteration_samples: usize,
    spans_file: String,
    span_times: BTreeMap<&'static str, LayerTime>,
}

/// The traced run: untraced and traced passes alternate for `seconds`
/// (`obs.trace_overhead` is their ratio), then the layer probes; reports
/// the per-layer metrics and writes the spans out.
fn run_traced<W: Workload>(name: &str, args: &Args) -> Report {
    let off = Rc::new(Tracer::new(false));
    let tr = Rc::new(Tracer::new(true));
    let mut tally = Tally::default();
    let mut w = W::setup(args.seed, &tr);
    let warm = w.pass(&off);
    let ops = w.ops(&warm);
    tally.attempt(&ops);
    let expected = expected_of(&ops);

    let (mut untraced_s, mut traced_s, mut traced, mut snaps, mut charged) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let start = Instant::now();
    let last = loop {
        let t0 = Stopwatch::start();
        let last = w.pass(&off);
        untraced_s.push(t0.secs());
        tally.compare(&expected, &w.ops(&last), "untraced pass");

        obs::reset();
        obs::enable(true);
        let mark = tr.mark();
        let t0 = Stopwatch::start();
        let span = tr.enter("pass");
        let out = w.pass(&tr);
        tr.exit(span);
        traced_s.push(t0.secs());
        obs::enable(false);
        snaps.push(obs::snapshot());
        let ops = w.ops(&out);
        charged.push(ops.iter().map(|op| op.charged).sum::<u64>() as f64);
        tally.compare(&expected, &ops, "traced pass");
        traced.push((tr.since(mark), out));
        if start.elapsed() >= Duration::from_secs(args.seconds) {
            break last;
        }
    };
    let reference = check_outputs(&mut w, last, &expected, &mut tally);
    let mark = tr.mark();
    let snapshot_bytes = w.probe(&tr) as f64;

    let mut layers = Layers::new();
    probe_layers(&tr, mark, snapshot_bytes, &mut layers);
    obs_layers(&snaps, &charged, &mut layers);
    let spans: Vec<&[spans::Span]> = traced.iter().map(|(s, _)| s.as_slice()).collect();
    let iterations = span_layers(&spans, &mut layers);
    w.layers(&traced, median(&untraced_s), &mut layers);
    layers.insert("obs.trace_overhead", ratio(median(&traced_s), median(&untraced_s)));
    check_pinned::<W>(name, args.seed, reference, &off, &mut tally);

    let spans_file = format!("out/spans-{name}-s{}.jsonl", args.seed);
    let spans_path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(&spans_file);
    if let Err(e) = tr.write_jsonl(&spans_path) {
        eprintln!("warning: could not write {}: {e}", spans_path.display());
    }

    // Every per-layer metric is reported; one a workload does not
    // exercise reads 0.
    let metrics = LAYER_METRICS
        .iter()
        .map(|&(name, unit)| (name, Metric::new(layers.get(name).copied().unwrap_or(0.0), unit)))
        .collect();
    let detail = TracedDetail {
        untraced_passes: untraced_s.len(),
        traced_passes: traced_s.len(),
        core_iteration_samples: iterations,
        spans_file,
        span_times: tr.layer_times(),
    };
    Report { metrics, tally, detail: detail.serialize() }
}

fn to_ms(secs: Vec<f64>) -> Vec<f64> {
    secs.into_iter().map(|s| s * 1e3).collect()
}

/// Metrics of the layers called from outside: generation (all of the
/// run's calls), and the snapshot, bound and full-pass probes recorded
/// since `mark`.
fn probe_layers(tr: &Tracer, mark: usize, snapshot_bytes: f64, layers: &mut Layers) {
    let generate_ms: f64 = to_ms(tr.durations(0, "workloads.generate")).iter().sum();
    layers.insert("workloads.generate_ms", generate_ms);
    layers.insert("schedule.snapshot_ms", median(&to_ms(tr.durations(mark, "schedule.snapshot"))));
    layers.insert("schedule.snapshot_bytes", snapshot_bytes);
    layers.insert("schedule.snapshot_l2_ratio", ratio(snapshot_bytes, host::l2_bytes() as f64));
    let bound_ms = to_ms(tr.durations(mark, "schedule.lower_bound"));
    layers.insert("schedule.lower_bound_ms", median(&bound_ms));
    let full_pass_ms = to_ms(tr.durations(mark, "schedule.full_pass"));
    layers.insert("schedule.full_pass_us", 1e3 * median(&full_pass_ms));
}

/// Per-pass medians of the `mshc-obs` counters of the traced passes;
/// `charged` is each pass's sum of charged evaluations.
fn obs_layers(snaps: &[obs::Snapshot], charged: &[f64], layers: &mut Layers) {
    let per_pass =
        |f: &dyn Fn(&obs::Snapshot) -> f64| median(&snaps.iter().map(f).collect::<Vec<_>>());
    layers.insert("schedule.full_passes", per_pass(&|s| s.deterministic.evaluations as f64));
    let charged_per_full: Vec<f64> = snaps
        .iter()
        .zip(charged)
        .map(|(s, c)| ratio(*c, s.deterministic.evaluations as f64))
        .collect();
    layers.insert("schedule.charged_per_full_pass", median(&charged_per_full));
    layers.insert("schedule.incremental.scored", per_pass(&|s| s.deterministic.scan_scored as f64));
    layers.insert(
        "schedule.incremental.pruned_frac",
        per_pass(&|s| s.deterministic.pruned_fraction()),
    );
    layers.insert(
        "schedule.incremental.spliced_frac",
        per_pass(&|s| s.deterministic.spliced_fraction()),
    );
    layers.insert("ga.prefix_reuse_frac", per_pass(&|s| s.deterministic.prefix_reuse_fraction()));
    layers.insert("ga.suffix_scorings", per_pass(&|s| s.deterministic.scan_suffixed as f64));
    layers.insert("pool.steals", per_pass(&|s| s.timing.steal_count as f64));
    layers.insert("pool.chunk_claims", per_pass(&|s| s.timing.chunk_claims as f64));
    layers.insert("pool.queue_depth_hwm", per_pass(&|s| s.timing.queue_depth_hwm as f64));
}

/// Metrics of the search layers from the traced passes' run spans;
/// returns the number of single-iteration SE steps sampled.
fn span_layers(passes: &[&[spans::Span]], layers: &mut Layers) -> usize {
    let children = |child: &str| -> Vec<f64> {
        to_ms(passes.iter().flat_map(|s| spans::child_secs(s, "core.run", child)).collect())
    };
    let iter_ms = children("iteration");
    layers.insert("core.start_ms", median(&children("start")));
    layers.insert("core.iter_ms_p50", median(&iter_ms));
    layers.insert("core.iter_ms_p90", quantile(&iter_ms, 0.9));
    for (metric, span) in [
        ("core.search_s", "core.run"),
        ("ga.search_s", "ga.run"),
        ("heuristics.tabu.search_s", "heuristics.tabu.run"),
        ("heuristics.sa.search_s", "heuristics.sa.run"),
    ] {
        let per_pass: Vec<f64> = passes.iter().map(|s| spans::total_secs(s, span)).collect();
        layers.insert(metric, median(&per_pass));
    }
    iter_ms.len()
}

/// Where and with what the result was measured.
#[derive(Serialize)]
struct Provenance {
    workload: String,
    seed: u64,
    default_seed: u64,
    held_out_seed: u64,
    seconds: u64,
    trace: bool,
    threads: usize,
    nproc: usize,
    available_parallelism: usize,
    l2_bytes: u64,
    llc_bytes: u64,
    rustc: &'static str,
    commit: String,
}

/// Prints `{"<key>": value}` as one JSON line.
fn print_line(key: &str, value: Value) {
    let line = Value::Map(vec![(key.to_string(), value)]);
    println!("{}", serde_json::to_string(&line).expect("metrics and details are finite"));
}

fn run<W: Workload>(name: &str, args: &Args) {
    let threads = W::threads(host::available_parallelism());
    let provenance = Provenance {
        workload: args.workload.clone(),
        seed: args.seed,
        default_seed: DEFAULT_SEED,
        held_out_seed: HELD_OUT_SEED,
        seconds: args.seconds,
        trace: args.trace,
        threads,
        nproc: host::nproc(),
        available_parallelism: host::available_parallelism(),
        l2_bytes: host::l2_bytes(),
        llc_bytes: host::llc_bytes(),
        rustc: env!("BENCH_RUSTC_VERSION"),
        commit: host::git_commit(),
    };
    print_line("provenance", provenance.serialize());
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("a pool of at most two threads builds");
    if args.pin {
        let off = Rc::new(Tracer::new(false));
        let ops = pool.install(|| {
            let mut w = W::setup(DEFAULT_SEED, &off);
            let out = w.pass(&off);
            w.ops(&out)
        });
        print!("{}", check::pin_lines(name, &ops));
        return;
    }
    let report = pool.install(|| {
        if args.trace {
            run_traced::<W>(name, args)
        } else {
            run_untraced::<W>(name, args)
        }
    });
    for (label, failure) in report.tally.failed.iter().take(20) {
        eprintln!("FAILED {label}: {failure}");
    }
    print_line("detail", report.detail);
    let outcome = Outcome {
        correct: report.tally.failed.is_empty(),
        attempted: (report.tally.operations.len() as u64).max(1),
        failed: report.tally.failed.len() as u64,
        metrics: report.metrics,
    };
    println!("{}", serde_json::to_string(&outcome).expect("metrics are finite"));
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    match args.workload.as_str() {
        "se-paper" => run::<SePaper>("se-paper", &args),
        "search-400x32" => run::<Search400x32>("search-400x32", &args),
        "tournament-small" => run::<TournamentSmall>("tournament-small", &args),
        "replan-dropout" => run::<ReplanDropout>("replan-dropout", &args),
        other => {
            eprintln!("error: unknown workload {other:?}\n{USAGE}");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op(label: &str, fp: u64) -> Op {
        Op { label: label.to_string(), fp, gap: None, ms: None, charged: 0 }
    }

    #[test]
    fn an_operation_fails_once_however_many_of_its_checks_fail() {
        let expected = vec![("a".to_string(), 1), ("b".to_string(), 2)];
        let mut tally = Tally::default();
        for _ in 0..5 {
            tally.compare(&expected, &[op("a", 1), op("b", 3)], "pass");
        }
        tally.fail("check", vec![("b".to_string(), "invalid".to_string())]);
        assert_eq!(tally.operations.len(), 2);
        assert_eq!(tally.failed.len(), 1);
        assert_eq!(tally.failed_share(), 0.5);
    }
}
