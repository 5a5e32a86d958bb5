//! End-to-end and per-layer benchmark of the HAS verifier.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path verifbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1> [--corpus-seed <n>]
//! ```
//!
//! One process, one client, a closed loop: each verification starts only
//! after the previous one returned. `--trace 0` times whole
//! `Verifier::verify` calls and prints the end-to-end metrics; `--trace 1`
//! replays every instance through the layer functions (`traced.rs`),
//! checks the replay against an untraced verification of the same
//! instance, and prints the per-layer metrics. Every time is
//! host-normalised against a reference routine run just before it
//! (`clock.rs`). Every verdict is checked against its known answer. The last line of standard output is one JSON
//! object: `correct`, `attempted`, `failed` and `metrics`. README.md in this
//! directory says why each workload and metric was chosen.

mod clock;
mod heap;
mod traced;
mod workloads;

use clock::{Clock, Sample};
use has_core::{Outcome, Verifier, VerifierConfig};
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workloads::Instance;

/// Set-ups per end-to-end run; `setup_s` is their median.
const SETUPS: usize = 5;

/// Failure messages echoed to standard error per run (all are counted).
const ECHOED_FAILURES: usize = 8;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    corpus_seed: u64,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut corpus_seed = workloads::CORPUS_SEED;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .ok_or_else(|| format!("`{flag}` needs a value"))?;
        let bad = || format!("bad value `{value}` for `{flag}`");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--corpus-seed" => corpus_seed = value.parse::<u64>().map_err(|_| bad())?,
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("`--trace` takes 0 or 1, not `{value}`")),
                })
            }
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    let seconds = seconds.ok_or("missing `--seconds`")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("`--seconds` must be in (0, 600], not {seconds}"));
    }
    Ok(Args {
        workload: workload.ok_or("missing `--workload`")?,
        seed: seed.ok_or("missing `--seed`")?,
        seconds,
        trace: trace.ok_or("missing `--trace`")?,
        corpus_seed,
    })
}

/// splitmix64: the seed's stream of instance orders.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A fresh Fisher–Yates permutation of `0..n`.
    fn order(&mut self, n: usize) -> Vec<usize> {
        let mut order: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            let j = (self.next() % (i as u64 + 1)) as usize;
            order.swap(i, j);
        }
        order
    }
}

/// Verifications attempted and failed; the first failures are echoed to
/// standard error.
#[derive(Default)]
struct Tally {
    attempted: usize,
    failed: usize,
    /// Traced replays that disagreed with the untraced verification.
    self_check_failed: usize,
}

impl Tally {
    fn fail(&mut self, label: &str, what: &str) {
        self.failed += 1;
        if self.failed <= ECHOED_FAILURES {
            eprintln!("FAILED {label}: {what}");
        }
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1000.0
}

/// The message of a caught panic.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

/// One untraced verification; a panic is caught.
fn verify(inst: &Instance, config: VerifierConfig) -> std::thread::Result<Outcome> {
    catch_unwind(AssertUnwindSafe(|| {
        Verifier::with_config(&inst.system, &inst.property, config).verify()
    }))
}

/// Scores one verification against its answer; a panic counts as a
/// failure.
fn score(
    inst: &Instance,
    result: std::thread::Result<Outcome>,
    tally: &mut Tally,
) -> Option<Outcome> {
    tally.attempted += 1;
    match result {
        Ok(outcome) => {
            if let Err(why) = inst.expected.check(&outcome) {
                tally.fail(&inst.label, &why);
            }
            Some(outcome)
        }
        Err(payload) => {
            tally.fail(
                &inst.label,
                &format!("panicked: {}", panic_message(&*payload)),
            );
            None
        }
    }
}

/// One untraced verification, timed and scored.
fn verify_once(
    inst: &Instance,
    config: VerifierConfig,
    clock: &mut Clock,
    tally: &mut Tally,
) -> (Sample, Option<Outcome>) {
    let (elapsed, result) = clock.time(|| verify(inst, config));
    (elapsed, score(inst, result, tally))
}

/// Passes of the memory measurement, after the timed passes.
const MEMORY_PASSES: usize = 3;

/// The memory measurement: `MEMORY_PASSES` untimed passes at one worker
/// with the heap counted (`heap.rs`). Returns the heaviest instance's peak
/// heap, at its median over the passes, in MiB. One worker, because at two
/// the peak depends on how the workers' allocations happen to overlap.
fn memory_peak_mb(instances: &[Instance], rng: &mut Rng, tally: &mut Tally) -> f64 {
    let mut peaks: Vec<Vec<f64>> = vec![Vec::new(); instances.len()];
    for _ in 0..MEMORY_PASSES {
        for i in rng.order(instances.len()) {
            let inst = &instances[i];
            let config = inst.config.clone().with_threads(1);
            let (peak, result) = heap::peak_mb(|| verify(inst, config));
            score(inst, result, tally);
            peaks[i].push(peak);
        }
    }
    peaks.iter().map(|v| median(v)).fold(0.0, f64::max)
}

/// One pass: every instance verified once, in the given order, at the
/// instance's own configuration or at `threads` workers. Returns each
/// instance's time (by instance index) and outcome.
fn untraced_pass(
    instances: &[Instance],
    order: &[usize],
    threads: Option<usize>,
    clock: &mut Clock,
    tally: &mut Tally,
) -> (Vec<Sample>, Vec<Option<Outcome>>) {
    let mut times = vec![Sample::default(); instances.len()];
    let mut outcomes: Vec<Option<Outcome>> = (0..instances.len()).map(|_| None).collect();
    for &i in order {
        let inst = &instances[i];
        let config = match threads {
            Some(t) => inst.config.clone().with_threads(t),
            None => inst.config.clone(),
        };
        let (t, outcome) = verify_once(inst, config, clock, tally);
        times[i] = t;
        outcomes[i] = outcome;
    }
    (times, outcomes)
}

/// Builds the workload's instances and runs one warm-up pass; returns the
/// instances and the time both took, in (host-normalised) ms.
fn setup(
    args: &Args,
    rng: &mut Rng,
    clock: &mut Clock,
    tally: &mut Tally,
) -> Result<(Vec<Instance>, Sample), String> {
    let (built, instances) = clock.time(|| workloads::build(&args.workload, args.corpus_seed));
    let instances = instances?;
    let order = rng.order(instances.len());
    let (times, _) = untraced_pass(&instances, &order, None, clock, tally);
    let total = Sample {
        ms: built.ms + times.iter().map(|t| t.ms).sum::<f64>(),
        wall_ms: built.wall_ms + times.iter().map(|t| t.wall_ms).sum::<f64>(),
        scale: 1.0,
    };
    Ok((instances, total))
}

fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolation quantile (`q` in `[0, 1]`); 0 for no values.
fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// `num / den`, or 0 when the base is 0.
fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// A metric of the result line: name, value, unit, and the name of its
/// base where it is a ratio.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    base: Option<&'static str>,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name,
        value,
        unit,
        base: None,
    }
}

fn rate(name: &'static str, value: f64, unit: &'static str, base: &'static str) -> Metric {
    Metric {
        name,
        value,
        unit,
        base: Some(base),
    }
}

/// The end-to-end run: `SETUPS` set-ups, then whole passes for `seconds`.
fn run_end_to_end(
    args: &Args,
    rng: &mut Rng,
    tally: &mut Tally,
) -> Result<(Vec<Metric>, Extra), String> {
    let mut clock = Clock::default();
    let mut setups = Vec::new();
    let mut wall_setups = Vec::new();
    let mut instances = Vec::new();
    for _ in 0..SETUPS {
        let (built, took) = setup(args, rng, &mut clock, tally)?;
        instances = built;
        setups.push(took.ms / 1000.0);
        wall_setups.push(took.wall_ms / 1000.0);
    }
    let mut pass_ms = Vec::new();
    let mut wall_pass_ms = Vec::new();
    let mut verdict_ms: Vec<Vec<f64>> = vec![Vec::new(); instances.len()];
    let start = Instant::now();
    while pass_ms.is_empty() || start.elapsed().as_secs_f64() < args.seconds {
        let order = rng.order(instances.len());
        let (times, _) = untraced_pass(&instances, &order, None, &mut clock, tally);
        pass_ms.push(times.iter().map(|t| t.ms).sum());
        wall_pass_ms.push(times.iter().map(|t| t.wall_ms).sum());
        for (samples, t) in verdict_ms.iter_mut().zip(times) {
            samples.push(t.ms);
        }
    }
    // The verdict-time quantiles are over the workload's instances, each
    // at its median time. Pooling the raw samples instead puts a quantile
    // that falls between two instances on the extremes of their samples,
    // which swings from run to run with the host's noise.
    let typical: Vec<f64> = verdict_ms.iter().map(|v| median(v)).collect();
    let peak = memory_peak_mb(&instances, rng, tally);
    let metrics = vec![
        metric("pass_ms.p50", median(&pass_ms), "ms"),
        metric("verdict_ms.p50", median(&typical), "ms"),
        metric("verdict_ms.p90", quantile(&typical, 0.9), "ms"),
        metric("setup_s", median(&setups), "s"),
        metric("peak_heap_mb", peak, "MiB"),
    ];
    let extra = Extra {
        pass_ms: pass_ms.clone(),
        wall_pass_ms,
        wall_setup_s: median(&wall_setups),
        ref_ms: median(&clock.ref_ms),
        instances: instances.len(),
        passes: pass_ms.len(),
        verdict_samples: verdict_ms.iter().map(Vec::len).sum(),
        configs: configs(&instances),
        labels: instances
            .iter()
            .map(|i| format!("{} [{}]", i.label, i.expected.source))
            .collect(),
    };
    Ok((metrics, extra))
}

/// What the result line does not carry but a reader of the run needs.
struct Extra {
    /// Host-normalised time of each measured pass (traced runs: each
    /// round's untraced threads = 1 pass).
    pass_ms: Vec<f64>,
    /// The same passes' wall times.
    wall_pass_ms: Vec<f64>,
    /// Median wall time of a set-up, s (0 in traced runs).
    wall_setup_s: f64,
    /// Median time of the reference routine, ms.
    ref_ms: f64,
    instances: usize,
    passes: usize,
    verdict_samples: usize,
    configs: Vec<String>,
    labels: Vec<String>,
}

/// The distinct effective configurations of a workload.
fn configs(instances: &[Instance]) -> Vec<String> {
    let mut out: Vec<String> = instances
        .iter()
        .map(|i| format!("{:?}", i.config))
        .collect();
    out.sort();
    out.dedup();
    out
}

/// Checks a traced replay's verdict and statistics against the untraced
/// threads = 1 verification of the same instance.
fn self_check(label: &str, replay: &traced::Traced, outcome: &Outcome) -> Result<(), String> {
    if replay.holds != outcome.holds {
        return Err(format!(
            "{label}: traced verdict holds={} but verify() holds={}",
            replay.holds, outcome.holds
        ));
    }
    let stats = has_core::Stats {
        hcd_cells: outcome.stats.hcd_cells,
        ..replay.stats.clone()
    };
    if stats != outcome.stats {
        return Err(format!(
            "{label}: traced stats differ from verify()\n  traced:   {stats:?}\n  verify(): {:?}",
            outcome.stats
        ));
    }
    Ok(())
}

/// Per-round figures of the traced run; the result is their medians.
#[derive(Default)]
struct Rounds {
    property_context: Vec<f64>,
    analyze: Vec<f64>,
    build_graph: Vec<f64>,
    queries: Vec<f64>,
    reduce: Vec<f64>,
    other: Vec<f64>,
    pair_max: Vec<f64>,
    coverage: Vec<f64>,
    overhead: Vec<f64>,
    speedup: Vec<f64>,
    t1_pass: Vec<f64>,
    t1_wall: Vec<f64>,
    build_us_per_state: Vec<f64>,
    queries_us_per_job: Vec<f64>,
    queries_us_per_km_node: Vec<f64>,
}

/// The traced run: per round, one traced pass, one untraced threads = 1
/// pass (the self-check reference and the coverage base) and one untraced
/// threads = 2 pass (the scheduler's speed-up).
fn run_traced(
    args: &Args,
    rng: &mut Rng,
    tally: &mut Tally,
) -> Result<(Vec<Metric>, Extra), String> {
    let mut clock = Clock::default();
    let (instances, _) = setup(args, rng, &mut clock, tally)?;
    let n = instances.len();
    let mut r = Rounds::default();
    let mut counts = has_core::Stats::default();
    let mut query_jobs = 0usize;
    let start = Instant::now();
    let mut round = 0usize;
    while round == 0 || start.elapsed().as_secs_f64() < args.seconds {
        let order = rng.order(n);
        let traced_first = round.is_multiple_of(2);
        let mut replays: Vec<Option<(f64, traced::Traced)>> = (0..n).map(|_| None).collect();
        let mut traced_pass = |clock: &mut Clock, tally: &mut Tally| {
            for &i in &order {
                let inst = &instances[i];
                let config = inst.config.clone().with_threads(1);
                tally.attempted += 1;
                let (elapsed, result) = clock.time(|| {
                    catch_unwind(AssertUnwindSafe(|| {
                        traced::verify(&inst.system, &inst.property, &config)
                    }))
                });
                match result {
                    Ok(mut replay) => {
                        if let Err(why) = inst.expected.check_verdict(replay.holds) {
                            tally.fail(&inst.label, &why);
                        }
                        replay.scale(elapsed.scale);
                        replays[i] = Some((elapsed.ms, replay));
                    }
                    Err(p) => tally.fail(
                        &inst.label,
                        &format!("traced run panicked: {}", panic_message(&*p)),
                    ),
                }
            }
        };
        let (t1, outcomes) = if traced_first {
            traced_pass(&mut clock, tally);
            untraced_pass(&instances, &order, Some(1), &mut clock, tally)
        } else {
            let untraced = untraced_pass(&instances, &order, Some(1), &mut clock, tally);
            traced_pass(&mut clock, tally);
            untraced
        };
        let (t2, _) = untraced_pass(&instances, &order, Some(2), &mut clock, tally);

        let mut times = traced::LayerTimes::default();
        let mut traced_ms = 0.0;
        let mut pair_max = Duration::ZERO;
        let mut round_counts = has_core::Stats::default();
        let mut round_jobs = 0;
        for i in 0..n {
            let (Some((elapsed, replay)), Some(outcome)) = (&replays[i], &outcomes[i]) else {
                continue;
            };
            if let Err(why) = self_check(&instances[i].label, replay, outcome) {
                tally.self_check_failed += 1;
                if tally.self_check_failed <= ECHOED_FAILURES {
                    eprintln!("SELF-CHECK {why}");
                }
            }
            times.absorb(&replay.times);
            traced_ms += elapsed;
            pair_max = pair_max.max(replay.pair_max);
            round_counts.absorb(&outcome.stats);
            round_jobs += replay.query_jobs;
        }
        let t1_ms: f64 = t1.iter().map(|t| t.ms).sum();
        let t2_ms: f64 = t2.iter().map(|t| t.ms).sum();
        r.t1_wall.push(t1.iter().map(|t| t.wall_ms).sum());
        let layer_ms = ms(times.total());
        r.property_context.push(ms(times.property_context));
        r.analyze.push(ms(times.analyze));
        r.build_graph.push(ms(times.build_graph));
        r.queries.push(ms(times.queries));
        r.reduce.push(ms(times.reduce));
        r.other.push(t1_ms - layer_ms);
        r.pair_max.push(ms(pair_max));
        r.coverage.push(ratio(layer_ms, t1_ms));
        r.overhead.push(traced_ms - t1_ms);
        r.speedup.push(ratio(t1_ms, t2_ms));
        r.t1_pass.push(t1_ms);
        r.build_us_per_state.push(ratio(
            ms(times.build_graph) * 1000.0,
            round_counts.control_states as f64,
        ));
        r.queries_us_per_job
            .push(ratio(ms(times.queries) * 1000.0, round_jobs as f64));
        r.queries_us_per_km_node.push(ratio(
            ms(times.queries) * 1000.0,
            round_counts.coverability_nodes as f64,
        ));
        counts = round_counts;
        query_jobs = round_jobs;
        round += 1;
    }

    let c = |v: usize| v as f64;
    let p = &counts.presolve;
    let metrics = vec![
        metric(
            "layer.property_context_ms",
            median(&r.property_context),
            "ms",
        ),
        metric("layer.analyze_ms", median(&r.analyze), "ms"),
        metric("layer.build_graph_ms", median(&r.build_graph), "ms"),
        metric("layer.queries_ms", median(&r.queries), "ms"),
        metric("layer.reduce_ms", median(&r.reduce), "ms"),
        metric("layer.other_ms", median(&r.other), "ms"),
        metric("layer.pair_ms.max", median(&r.pair_max), "ms"),
        metric("layer.coverage", median(&r.coverage), "share"),
        metric("trace.overhead_ms", median(&r.overhead), "ms"),
        metric("sched.speedup", median(&r.speedup), "x"),
        metric("count.pairs", c(counts.task_assignments), "count"),
        metric("count.query_jobs", c(query_jobs), "count"),
        metric("count.control_states", c(counts.control_states), "count"),
        metric("count.counter_dims", c(counts.counter_dimensions), "count"),
        metric("count.dims_before", c(counts.counter_dims_before), "count"),
        metric("count.dims_after", c(counts.counter_dims_after), "count"),
        metric(
            "count.dead_services",
            c(counts.dead_services_pruned),
            "count",
        ),
        metric("count.hcd_cells", c(counts.hcd_cells), "count"),
        metric("count.km_nodes", c(counts.coverability_nodes), "count"),
        metric("count.km_reused", c(counts.km_reused), "count"),
        metric("count.km_subsumed", c(counts.km_subsumed), "count"),
        metric("count.presolve_queries", c(p.queries), "count"),
        metric("count.presolve_decided", c(p.decided), "count"),
        metric("count.presolve_control", c(p.control), "count"),
        metric("count.presolve_state_eq", c(p.state_eq), "count"),
        metric("count.presolve_dfa", c(p.counter_dfa), "count"),
        metric("count.presolve_circulation", c(p.circulation), "count"),
        metric("count.km_builds_skipped", c(p.skipped_builds), "count"),
        metric("count.bounded_dims", c(p.bounded_dims), "count"),
        metric("count.rt_entries", c(counts.rt_entries), "count"),
        rate(
            "ratio.presolve_decided",
            ratio(c(p.decided), c(p.queries)),
            "share",
            "count.presolve_queries",
        ),
        rate(
            "ratio.projection",
            ratio(c(counts.counter_dims_after), c(counts.counter_dims_before)),
            "share",
            "count.dims_before",
        ),
        rate(
            "rate.build_graph_us_per_state",
            median(&r.build_us_per_state),
            "us/state",
            "count.control_states",
        ),
        rate(
            "rate.queries_us_per_job",
            median(&r.queries_us_per_job),
            "us/job",
            "count.query_jobs",
        ),
        rate(
            "rate.queries_us_per_km_node",
            median(&r.queries_us_per_km_node),
            "us/node",
            "count.km_nodes",
        ),
    ];
    let extra = Extra {
        pass_ms: r.t1_pass.clone(),
        wall_pass_ms: r.t1_wall.clone(),
        wall_setup_s: 0.0,
        ref_ms: median(&clock.ref_ms),
        instances: n,
        passes: round,
        verdict_samples: 0,
        configs: configs(&instances),
        labels: instances
            .iter()
            .map(|i| format!("{} [{}]", i.label, i.expected.source))
            .collect(),
    };
    Ok((metrics, extra))
}

/// Escapes a string as a JSON string literal.
fn json_string(s: &str) -> String {
    let mut out = String::from("\"");
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite number as JSON, with every digit Rust's shortest round-trip
/// formatting gives.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn json_numbers(values: &[f64]) -> String {
    let numbers: Vec<String> = values.iter().map(|&v| json_number(v)).collect();
    format!("[{}]", numbers.join(","))
}

fn json_list(items: &[String]) -> String {
    let quoted: Vec<String> = items.iter().map(|s| json_string(s)).collect();
    format!("[{}]", quoted.join(","))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(why) => {
            eprintln!("error: {why}");
            eprintln!(
                "usage: verifbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> \
                 [--corpus-seed <n>]\n  --corpus-seed  the corpus draw (default {}, the \
                 bounds' draw; held out: {})",
                workloads::WORKLOADS.join("|"),
                workloads::CORPUS_SEED,
                workloads::CORPUS_HELD_OUT_SEED
            );
            return ExitCode::from(2);
        }
    };
    let mut rng = Rng(args.seed);
    let mut tally = Tally::default();
    let run = if args.trace {
        run_traced(&args, &mut rng, &mut tally)
    } else {
        run_end_to_end(&args, &mut rng, &mut tally)
    };
    let (metrics, extra) = match run {
        Ok(run) => run,
        Err(why) => {
            eprintln!("error: {why}");
            return ExitCode::from(2);
        }
    };
    let failed_share = ratio(tally.failed as f64, tally.attempted as f64);
    let correct = tally.failed == 0 && tally.self_check_failed == 0;

    eprintln!(
        "{} seed={} trace={} instances={} passes={} verdict_samples={}",
        args.workload,
        args.seed,
        u8::from(args.trace),
        extra.instances,
        extra.passes,
        extra.verdict_samples
    );
    for config in &extra.configs {
        eprintln!("  config {config}");
    }
    eprintln!(
        "  {:<32} {:>16} failed {}/{} attempted",
        "failed_share",
        json_number(failed_share),
        tally.failed,
        tally.attempted
    );
    if args.trace {
        eprintln!(
            "  {:<32} {:>16} mismatches",
            "self_check", tally.self_check_failed
        );
    }
    for m in &metrics {
        let base = m
            .base
            .and_then(|b| metrics.iter().find(|x| x.name == b))
            .map(|b| format!("  (base {} = {})", b.name, json_number(b.value)))
            .unwrap_or_default();
        eprintln!("  {:<32} {:>16.4} {}{base}", m.name, m.value, m.unit);
    }
    eprintln!(
        "  host: reference routine {:.4} ms (normalised to {} ms), wall pass p50 {:.4} ms",
        extra.ref_ms,
        clock::REF_MS,
        median(&extra.wall_pass_ms)
    );

    let mut header = String::from("{\"bench_run\":{");
    let _ = write!(
        header,
        "\"workload\":{},\"seed\":{},\"corpus_seed\":{},\"seconds\":{},\"trace\":{},\"instances\":{},\
         \"passes\":{},\"pass_ms\":{},\"wall_pass_ms\":{},\"wall_setup_s\":{},\"ref_ms\":{},\
         \"ref_normalised_to_ms\":{},\"verdict_samples\":{},\"attempted\":{},\"failed\":{},\
         \"failed_share\":{},\"self_check_failed\":{},\"configs\":{},\"labels\":{}",
        json_string(&args.workload),
        args.seed,
        args.corpus_seed,
        json_number(args.seconds),
        u8::from(args.trace),
        extra.instances,
        extra.passes,
        json_numbers(&extra.pass_ms),
        json_numbers(&extra.wall_pass_ms),
        json_number(extra.wall_setup_s),
        json_number(extra.ref_ms),
        json_number(clock::REF_MS),
        extra.verdict_samples,
        tally.attempted,
        tally.failed,
        json_number(failed_share),
        tally.self_check_failed,
        json_list(&extra.configs),
        json_list(&extra.labels),
    );
    let bases: Vec<String> = metrics
        .iter()
        .filter_map(|m| Some(format!("{}:{}", json_string(m.name), json_string(m.base?))))
        .collect();
    let _ = write!(header, ",\"bases\":{{{}}}}}}}", bases.join(","));
    println!("{header}");

    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_string(m.name),
                json_number(m.value),
                json_string(m.unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        tally.attempted,
        tally.failed,
        body.join(",")
    );
    ExitCode::SUCCESS
}
