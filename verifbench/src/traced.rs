//! The traced driver: one threads = 1 verification replayed through the
//! verifier's public layer functions, with a timer around each call.
//!
//! It mirrors `Verifier::verify` at one worker — `run_sequential` over the
//! tasks bottom-up, `TaskVerifier::explore` per `(T, β)` pair — so the
//! timers split the same work the untraced run does. Nothing inside the
//! program is instrumented. HCD, witness reconstruction and property
//! validation are not replayed; they are the part of an untraced
//! verification the timers leave over (`layer.other_ms`).

use has_core::task_verifier::{SummaryMap, TaskSummary, TaskVerifier};
use has_core::{PropertyContext, Stats, VerifierConfig};
use has_ltl::HltlFormula;
use has_model::{ArtifactSystem, TaskId};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Busy time per layer, summed over the calls of one or more
/// verifications.
#[derive(Clone, Copy, Debug, Default)]
pub struct LayerTimes {
    /// `PropertyContext::new` plus `precompute_automata`.
    pub property_context: Duration,
    /// `has_analysis::analyze`.
    pub analyze: Duration,
    /// `TaskVerifier::build_graph`.
    pub build_graph: Duration,
    /// `prepare_shared` plus `init_queries_shared`, or `init_queries`.
    pub queries: Duration,
    /// `reduce_queries` plus the summary commit.
    pub reduce: Duration,
}

impl LayerTimes {
    /// The five timers together.
    pub fn total(&self) -> Duration {
        self.property_context + self.analyze + self.build_graph + self.queries + self.reduce
    }

    /// Multiplies every timer by `factor`.
    pub fn scale(&mut self, factor: f64) {
        for t in [
            &mut self.property_context,
            &mut self.analyze,
            &mut self.build_graph,
            &mut self.queries,
            &mut self.reduce,
        ] {
            *t = t.mul_f64(factor);
        }
    }

    /// Adds another record's timers to this one.
    pub fn absorb(&mut self, other: &LayerTimes) {
        self.property_context += other.property_context;
        self.analyze += other.analyze;
        self.build_graph += other.build_graph;
        self.queries += other.queries;
        self.reduce += other.reduce;
    }
}

/// What one traced verification produced.
pub struct Traced {
    /// The root verdict.
    pub holds: bool,
    /// Statistics summed over the pairs, plus the dead-service count;
    /// `hcd_cells` is left 0 (HCD is not replayed).
    pub stats: Stats,
    /// Busy time per layer.
    pub times: LayerTimes,
    /// The slowest single `(T, β)` pair: build, queries and reduction.
    pub pair_max: Duration,
    /// Lemma 21 query jobs issued: Σ `initial_count` over the pairs.
    pub query_jobs: usize,
}

impl Traced {
    /// Multiplies every time by `factor` (host normalisation, `clock.rs`).
    pub fn scale(&mut self, factor: f64) {
        self.times.scale(factor);
        self.pair_max = self.pair_max.mul_f64(factor);
    }
}

/// Times one call.
fn timed<T>(slot: &mut Duration, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let out = f();
    *slot += start.elapsed();
    out
}

/// Bottom-up (children before parents) DFS postorder over the hierarchy,
/// the order `Verifier` walks the tasks in.
fn bottom_up_order(system: &ArtifactSystem) -> Vec<TaskId> {
    let schema = &system.schema;
    let mut order = Vec::new();
    let mut stack = vec![(schema.root, false)];
    while let Some((t, expanded)) = stack.pop() {
        if expanded {
            order.push(t);
        } else {
            stack.push((t, true));
            for &c in &schema.task(t).children {
                stack.push((c, false));
            }
        }
    }
    order
}

/// Verifies `property` on `system` at one worker through the layer
/// functions, timing each.
pub fn verify(system: &ArtifactSystem, property: &HltlFormula, config: &VerifierConfig) -> Traced {
    let mut times = LayerTimes::default();
    let mut stats = Stats::default();
    let mut pair_max = Duration::ZERO;
    let mut query_jobs = 0;

    let pc = timed(&mut times.property_context, || {
        let mut pc = PropertyContext::new(system, property, config.nav_depth);
        pc.precompute_automata();
        pc
    });
    let dead = timed(&mut times.analyze, || {
        config
            .projection
            .then(|| has_analysis::analyze(system, Some(property)))
    });
    stats.dead_services_pruned = dead.as_ref().map_or(0, |report| report.dead_guard_count());
    let empty = has_analysis::DeadServiceMap::new();
    let dead = dead.as_ref().map_or(&empty, |report| &report.dead);

    let contexts = &*pc.contexts;
    let mut summaries: Arc<SummaryMap> = Arc::new(SummaryMap::new());
    for task in bottom_up_order(system) {
        let mut summary = TaskSummary::default();
        for beta in pc.assignments(task) {
            let buchi = pc.buchi_shared(task, &beta);
            let tv = TaskVerifier::new(
                system,
                config,
                &contexts[&task],
                task,
                beta.clone(),
                pc.phi(task),
                &buchi,
                Arc::clone(&summaries),
                contexts,
                dead,
            );
            let mut pair = LayerTimes::default();
            let graph = timed(&mut pair.build_graph, || tv.build_graph());
            query_jobs += graph.initial_count();
            let per_init: Vec<_> = timed(&mut pair.queries, || {
                if config.shared_km {
                    let mut shared = tv.prepare_shared(&graph);
                    (0..graph.initial_count())
                        .map(|pos| tv.init_queries_shared(&graph, pos, &mut shared))
                        .collect()
                } else {
                    (0..graph.initial_count())
                        .map(|pos| tv.init_queries(&graph, pos))
                        .collect()
                }
            });
            let (entries, pair_stats) = timed(&mut pair.reduce, || {
                TaskVerifier::reduce_queries(&graph, per_init)
            });
            stats.absorb(&pair_stats);
            summary.entries.extend(entries);
            pair_max = pair_max.max(pair.total());
            times.absorb(&pair);
        }
        timed(&mut times.reduce, || {
            let mut map = (*summaries).clone();
            map.insert(task, Arc::new(summary));
            summaries = Arc::new(map);
        });
    }

    // Γ ⊨ φ iff there is no non-returning root run with β(ξ) = 0.
    let (root_task, root_index) = pc.root();
    let holds = !summaries[&root_task]
        .entries
        .iter()
        .any(|e| e.output.is_none() && !e.beta.get(root_index).copied().unwrap_or(false));
    Traced {
        holds,
        stats,
        times,
        pair_max,
        query_jobs,
    }
}
