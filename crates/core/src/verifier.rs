//! The top-level verifier: bottom-up computation of `R_T` and the final
//! model-checking answer.

use crate::outcome::{Outcome, Stats, Violation, ViolationKind, WitnessNode, WitnessStep};
use crate::parallel::{run_pool, WorkerHandle};
use crate::property::PropertyContext;
use crate::task_verifier::{
    ExploredGraph, PairShared, QueryCost, RtEntry, SummaryMap, TaskSummary, TaskVerifier,
};
use has_analysis::{DeadServiceMap, DeadServices};
use has_arith::{HcdBuilder, LinExpr};
use has_ltl::buchi::Buchi;
use has_ltl::hltl::TaskProp;
use has_ltl::HltlFormula;
use has_model::{ArtifactSystem, TaskId, VarId};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Tuning knobs of the verifier.
///
/// The defaults are adequate for the systems in `has-workloads`; the caps
/// exist because several enumeration steps are worst-case exponential (that
/// is the content of Tables 1 and 2) and runaway instances should degrade
/// into an explicit truncation rather than an apparent hang. Any truncation
/// is an *under*-approximation of the violation search (`holds = true`
/// results are then "no violation found within the explored space").
#[derive(Clone, Debug)]
pub struct VerifierConfig {
    /// Foreign-key navigation depth of the symbolic expression universe.
    pub nav_depth: usize,
    /// Cap on the number of symbolic successor states per enumeration step.
    pub max_successors: usize,
    /// Cap on the number of control states explored per `(T, β)` pair.
    pub max_control_states: usize,
    /// Cap on the number of undecided related-expression pairs branched over
    /// when refining a successor state.
    pub max_merge_pairs: usize,
    /// Cap on the number of property propositions left undetermined by the
    /// abstraction that are branched over per letter.
    pub max_unknown_props: usize,
    /// Cap on the number of Karp–Miller coverability-graph nodes built per
    /// reachability query (truncation under-approximates the search).
    pub km_node_cap: usize,
    /// Whether to build the Hierarchical Cell Decomposition for arithmetic
    /// constraints (Section 5). The decomposition is reported in the
    /// statistics and used to refine arithmetic atoms where possible.
    pub use_cells: bool,
    /// Number of worker threads for the `(T, β)` fan-out. `1` runs the exact
    /// sequential code path (no threads are spawned); larger values run the
    /// readiness-driven scheduler: every `(T, β)` exploration becomes ready
    /// the moment the last of its task's children commits its summary — no
    /// level barrier — and per-initial-state Lemma 21 queries are pushed the
    /// moment their graph is built, all on a work-stealing scoped pool. The
    /// outcome and statistics are identical at every thread count
    /// (DESIGN.md §5.6); `0` is treated as `1`.
    ///
    /// Defaults to [`VerifierConfig::default_threads`].
    pub threads: usize,
    /// Whether to retain per-run witness data and reconstruct a hierarchical
    /// counterexample ([`crate::outcome::WitnessNode`]) when the property is
    /// violated. Off by default: retention records one step label per VASS
    /// transition and materializes pump cycles, so the no-witness hot path
    /// keeps its current allocations (DESIGN.md §5.7 states the cost model).
    ///
    /// Enabling witnesses never changes `holds` or the statistics; it
    /// refines the reported violation — `Violation::witness` is populated,
    /// and the kind becomes [`crate::ViolationKind::Returning`] when a
    /// returned sub-call carries the violation.
    pub witnesses: bool,
    /// Whether to apply the static-analysis reductions before and during the
    /// search: services with guards proven unsatisfiable (by the exact
    /// Fourier–Motzkin decision of `has_analysis`) are excluded from graph
    /// construction, and each Lemma 21 coverability query is projected onto
    /// its dimension cone of influence. Both reductions are exact — every
    /// verdict, entry list and witness is identical with and without them
    /// (DESIGN.md §5.9) — only `coverability_nodes` and the
    /// `counter_dims_*`/`dead_services_pruned` statistics change. On by
    /// default; defaults to [`VerifierConfig::default_projection`].
    pub projection: bool,
    /// Whether to run the query pre-solver before each Lemma 21 query
    /// (DESIGN.md §5.11): sound static refutation filters — control
    /// skeleton, state-equation Z-relaxation, counter-abstraction DFA,
    /// lasso circulation — decide sub-queries without building a
    /// Karp–Miller graph, and per-dimension boundedness certificates prune
    /// ω-acceleration work for the queries that survive. Every filter
    /// refutes only genuinely empty sub-queries and the capped build
    /// under-approximates the search, so verdicts, entry lists and
    /// witnesses are identical with and without the pre-solver
    /// (`tests/presolve_equivalence.rs` enforces it) — only
    /// `coverability_nodes` and the `presolve` statistics change. On by
    /// default; defaults to [`VerifierConfig::default_presolve`].
    pub presolve: bool,
    /// Whether the Lemma 21 queries of one `(T, β)` pair share an
    /// incremental Karp–Miller arena with antichain subsumption pruning
    /// (DESIGN.md §5.12) instead of each building a coverability graph from
    /// scratch. Sharing groups the pair's per-initial-state queries into
    /// one sequential chain (they extend the same arena in initial-state
    /// order — across pairs the engine still fans out), reuses interned
    /// nodes, stored successor lists and ω-accelerations across the chain,
    /// and prunes any marking covered by an already-visited one. Verdicts
    /// and witness *kinds* are those of the exact search on uncapped
    /// instances; under a node cap the pruned search reaches much deeper —
    /// this is what makes the Appendix A.2 violation findable
    /// (`tests/a2_violation.rs`). Outcome, witnesses and statistics remain
    /// byte-identical at every thread count. On by default; defaults to
    /// [`VerifierConfig::default_shared_km`].
    pub shared_km: bool,
}

impl Default for VerifierConfig {
    fn default() -> Self {
        VerifierConfig {
            nav_depth: 1,
            max_successors: 512,
            max_control_states: 20_000,
            max_merge_pairs: 6,
            max_unknown_props: 4,
            km_node_cap: 50_000,
            use_cells: false,
            threads: Self::default_threads(),
            witnesses: false,
            projection: Self::default_projection(),
            presolve: Self::default_presolve(),
            shared_km: Self::default_shared_km(),
        }
    }
}

impl VerifierConfig {
    /// The default worker count: the `HAS_THREADS` environment variable when
    /// it is set to a positive integer, otherwise the machine's available
    /// parallelism (`1` if that cannot be determined).
    pub fn default_threads() -> usize {
        if let Ok(value) = std::env::var("HAS_THREADS") {
            if let Ok(n) = value.trim().parse::<usize>() {
                if n >= 1 {
                    return n;
                }
            }
        }
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    }

    /// The default projection switch: *on*, unless the `HAS_PROJECTION`
    /// environment variable is set to `0`, `off` or `false` (the opt-out
    /// exists for A/B benchmarking — see EXPERIMENTS.md).
    pub fn default_projection() -> bool {
        match std::env::var("HAS_PROJECTION") {
            Ok(value) => !matches!(
                value.trim().to_ascii_lowercase().as_str(),
                "0" | "off" | "false"
            ),
            Err(_) => true,
        }
    }

    /// The default pre-solver switch: *on*, unless the `HAS_PRESOLVE`
    /// environment variable is set to `0`, `off` or `false` (the opt-out
    /// exists for A/B benchmarking — see EXPERIMENTS.md).
    pub fn default_presolve() -> bool {
        match std::env::var("HAS_PRESOLVE") {
            Ok(value) => !matches!(
                value.trim().to_ascii_lowercase().as_str(),
                "0" | "off" | "false"
            ),
            Err(_) => true,
        }
    }

    /// The default shared-arena switch: *on*, unless the `HAS_SHARED_KM`
    /// environment variable is set to `0`, `off` or `false` (the opt-out
    /// exists for A/B benchmarking and the differential-fuzz sharing axis —
    /// see EXPERIMENTS.md).
    pub fn default_shared_km() -> bool {
        match std::env::var("HAS_SHARED_KM") {
            Ok(value) => !matches!(
                value.trim().to_ascii_lowercase().as_str(),
                "0" | "off" | "false"
            ),
            Err(_) => true,
        }
    }

    /// Returns this configuration with the given worker count.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Returns this configuration with witness reconstruction switched on or
    /// off (see [`VerifierConfig::witnesses`]).
    #[must_use]
    pub fn with_witnesses(mut self, witnesses: bool) -> Self {
        self.witnesses = witnesses;
        self
    }

    /// Returns this configuration with the static-analysis reductions
    /// switched on or off (see [`VerifierConfig::projection`]).
    #[must_use]
    pub fn with_projection(mut self, projection: bool) -> Self {
        self.projection = projection;
        self
    }

    /// Returns this configuration with the query pre-solver switched on or
    /// off (see [`VerifierConfig::presolve`]).
    #[must_use]
    pub fn with_presolve(mut self, presolve: bool) -> Self {
        self.presolve = presolve;
        self
    }

    /// Returns this configuration with the shared incremental Karp–Miller
    /// arena switched on or off (see [`VerifierConfig::shared_km`]).
    #[must_use]
    pub fn with_shared_km(mut self, shared_km: bool) -> Self {
        self.shared_km = shared_km;
        self
    }
}

/// The HAS verifier.
pub struct Verifier<'a> {
    system: &'a ArtifactSystem,
    property: &'a HltlFormula,
    config: VerifierConfig,
}

impl<'a> Verifier<'a> {
    /// Creates a verifier for a system and property with default settings.
    pub fn new(system: &'a ArtifactSystem, property: &'a HltlFormula) -> Self {
        Verifier {
            system,
            property,
            config: VerifierConfig::default(),
        }
    }

    /// Creates a verifier with an explicit configuration.
    pub fn with_config(
        system: &'a ArtifactSystem,
        property: &'a HltlFormula,
        config: VerifierConfig,
    ) -> Self {
        Verifier {
            system,
            property,
            config,
        }
    }

    /// Decides `Γ ⊨ φ`.
    ///
    /// Returns an [`Outcome`] with the answer, a symbolic witness when the
    /// property can be violated, and exploration statistics.
    ///
    /// With `config.threads > 1` the task hierarchy runs on a
    /// readiness-driven work-stealing scheduler: each `(T, β)` exploration
    /// starts as soon as *its* task's children have committed their
    /// summaries (no level barrier), per-initial-state Lemma 21 queries
    /// start as soon as their graph is built, and all results are buffered
    /// and reduced in the fixed `(task, β, τ_in)` order — the outcome and
    /// statistics are identical to `threads = 1` (DESIGN.md §5.6 states the
    /// contract; `tests/parallel_determinism.rs` enforces it).
    ///
    /// # Panics
    /// Panics if the property fails validation against the system.
    pub fn verify(&self) -> Outcome {
        self.property
            .validate(self.system)
            .expect("property must be well-formed for the system");

        let mut stats = Stats::default();
        if self.config.use_cells {
            stats.hcd_cells = self.build_hcd_cell_count();
        }

        let mut pc = PropertyContext::new(self.system, self.property, self.config.nav_depth);
        // Every B(T, β) one verification run needs, built up front: after
        // this the property context is never mutated again, so workers can
        // share it immutably.
        pc.precompute_automata();

        // Dead-service pruning: guards proven unsatisfiable by the exact
        // analyzer are excluded from every graph construction. An invalid
        // system yields an error report with an empty dead map — no pruning,
        // and the exploration behaves exactly as before the analyzer existed.
        let dead: DeadServiceMap = if self.config.projection {
            has_analysis::analyze(self.system, Some(self.property)).dead
        } else {
            DeadServiceMap::new()
        };
        stats.dead_services_pruned = dead.values().map(DeadServices::count).sum();

        let order = self.bottom_up_order();
        let threads = self.config.threads.max(1);
        let (summaries, explored) = if threads == 1 {
            self.run_sequential(&pc, &order, &dead)
        } else {
            self.run_parallel(&pc, &order, threads, &dead)
        };
        stats = stats.merge(&explored);

        // Γ ⊨ φ iff there is no non-returning root run with β(ξ) = 0.
        let (root_task, root_index) = pc.root();
        let root_summary = &summaries[&root_task];
        let violating = root_summary
            .entries
            .iter()
            .find(|e| e.output.is_none() && !e.beta.get(root_index).copied().unwrap_or(false));

        match violating {
            None => Outcome {
                holds: true,
                violation: None,
                stats,
            },
            Some(entry) => {
                // The Lemma 21 path kind of the witnessing entry: an
                // infinite local run when one exists, otherwise the run
                // blocks on a never-returning child. (Every non-returning
                // entry carries at least one of the two witnesses.)
                debug_assert!(entry.witness.lasso || entry.witness.blocking);
                let root_kind = if entry.witness.lasso {
                    ViolationKind::Lasso
                } else {
                    ViolationKind::Blocking
                };
                // Witness reconstruction (when retained): descend from the
                // violating root entry through the summaries to build the
                // per-task witness tree, and refine the reported kind to
                // `Returning` when the carrier chain starts with a returned
                // sub-call — the sub-task's returned run, not the root's
                // own path, is what carries the violation.
                let witness = self
                    .config
                    .witnesses
                    .then(|| self.reconstruct(&summaries, root_task, entry));
                let kind = match witness.as_ref().and_then(WitnessNode::carrier) {
                    Some(carrier) if carrier.kind == ViolationKind::Returning => {
                        ViolationKind::Returning
                    }
                    _ => root_kind,
                };
                Outcome {
                    holds: false,
                    violation: Some(Violation {
                        task: root_task,
                        kind,
                        input_description: format!(
                            "input isomorphism type {}",
                            crate::outcome::render_input_key(&entry.input_key)
                        ),
                        witness,
                    }),
                    stats,
                }
            }
        }
    }

    /// Reconstructs the hierarchical witness tree rooted at `entry` — one
    /// [`WitnessNode`] per task run, descending through the committed
    /// summaries: every `OpenChild` step on the entry's retained run records
    /// the child `R_T` tuple the run chose, which identifies the child's own
    /// entry (and retained details) in `summaries`, recursively. Distinct
    /// child calls appear once each, in run order; the hierarchy is a tree,
    /// so the descent terminates at the leaves.
    ///
    /// Everything read here — the entry list layout, each entry's details —
    /// is produced by the canonical-order reduction of DESIGN.md §5.6, so
    /// the reconstructed tree is byte-identical at every thread count.
    fn reconstruct(
        &self,
        summaries: &SummaryMap,
        task: TaskId,
        entry: &RtEntry,
    ) -> WitnessNode {
        let schema = &self.system.schema;
        let kind = if entry.output.is_some() {
            ViolationKind::Returning
        } else if entry.witness.lasso {
            ViolationKind::Lasso
        } else {
            ViolationKind::Blocking
        };
        let (prefix, cycle, cycle_truncated) = match entry.details.as_deref() {
            Some(d) => (d.prefix.clone(), d.cycle.clone(), d.cycle_truncated),
            None => (Vec::new(), Vec::new(), false),
        };
        let mut children: Vec<WitnessNode> = Vec::new();
        let mut seen: Vec<&WitnessStep> = Vec::new();
        for step in prefix.iter().chain(cycle.iter()) {
            let WitnessStep::OpenChild {
                child,
                beta,
                input_key,
                output,
                ..
            } = step
            else {
                continue;
            };
            if seen.contains(&step) {
                continue;
            }
            seen.push(step);
            let child_entry = summaries.get(child).and_then(|summary| {
                summary.entries.iter().find(|e| {
                    e.input_key == *input_key && e.output == *output && e.beta == *beta
                })
            });
            let node = match child_entry {
                Some(e) => self.reconstruct(summaries, *child, e),
                // Defensive: the opening consumed this tuple from the
                // committed summary, so it must be there — degrade to a
                // detail-less node rather than panic in a reporting path.
                None => WitnessNode {
                    task: *child,
                    task_name: schema.task(*child).name.clone(),
                    kind: if output.is_some() {
                        ViolationKind::Returning
                    } else {
                        ViolationKind::Blocking
                    },
                    input_description: format!(
                        "input isomorphism type {}",
                        crate::outcome::render_input_key(input_key)
                    ),
                    beta: beta.clone(),
                    prefix: Vec::new(),
                    cycle: Vec::new(),
                    cycle_truncated: false,
                    children: Vec::new(),
                },
            };
            // Distinct calls can still reconstruct to structurally equal
            // runs (e.g. two openings that differ only in the promised
            // output pattern); listing one of them keeps the tree readable.
            if !children.contains(&node) {
                children.push(node);
            }
        }
        WitnessNode {
            task,
            task_name: schema.task(task).name.clone(),
            kind,
            input_description: format!(
                "input isomorphism type {}",
                crate::outcome::render_input_key(&entry.input_key)
            ),
            beta: entry.beta.clone(),
            prefix,
            cycle,
            cycle_truncated,
            children,
        }
    }

    /// Bottom-up (children before parents) DFS postorder over the hierarchy.
    fn bottom_up_order(&self) -> Vec<TaskId> {
        let schema = &self.system.schema;
        let mut order: Vec<TaskId> = Vec::new();
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

    /// The exact sequential engine: one `(T, β)` exploration after another in
    /// bottom-up task order, each immediately followed by its Lemma 21
    /// queries. This is the `threads = 1` code path — no worker threads are
    /// spawned anywhere.
    fn run_sequential(
        &self,
        pc: &PropertyContext,
        order: &[TaskId],
        dead: &DeadServiceMap,
    ) -> (SummaryMap, Stats) {
        let contexts = &*pc.contexts;
        let mut stats = Stats::default();
        let mut summaries: Arc<SummaryMap> = Arc::new(SummaryMap::new());
        for &task in order {
            let mut summary = TaskSummary::default();
            for beta in pc.assignments(task) {
                let buchi = pc.buchi_shared(task, &beta);
                let tv = TaskVerifier::new(
                    self.system,
                    &self.config,
                    &contexts[&task],
                    task,
                    beta.clone(),
                    pc.phi(task),
                    &buchi,
                    Arc::clone(&summaries),
                    contexts,
                    dead,
                );
                let (entries, task_stats) = tv.explore();
                self.debug_pair(task, &beta, &entries, &task_stats);
                stats.absorb(&task_stats);
                summary.entries.extend(entries);
            }
            // Same commit the scheduler performs: release the task's
            // successor memo (every β is built), shallow-clone the map (the
            // summaries themselves are shared), add the finished task, swap.
            contexts[&task].successors().release();
            let mut map = (*summaries).clone();
            map.insert(task, Arc::new(summary));
            summaries = Arc::new(map);
        }
        (
            Arc::try_unwrap(summaries).unwrap_or_else(|shared| (*shared).clone()),
            stats,
        )
    }

    /// The parallel engine: a readiness-driven scheduler over two kinds of
    /// work items — `BuildGraph(T, β)` (one [`TaskVerifier::build_graph`]
    /// forward exploration) and `InitQuery(T, β, τ_in)` (the Lemma 21
    /// queries of one initial state) — on a work-stealing scoped pool
    /// ([`crate::parallel::run_pool`]). There is **no barrier between
    /// hierarchy levels**:
    ///
    /// * every task tracks its unfinished-children count, and all of its
    ///   `(T, β)` build jobs are pushed the moment the *last* child commits
    ///   its summary — sibling subtrees proceed independently, so a deep,
    ///   narrow hierarchy keeps every worker busy;
    /// * the query jobs of a built graph are pushed immediately, while
    ///   sibling graphs are still building.
    ///
    /// Workers only *read* shared state: the committed summaries live behind
    /// an `Arc` that is shallow-cloned and swapped on each task commit, so a
    /// `BuildGraph` job snapshots the map without copying any summary.
    /// Results are buffered per `(T, β)` slot and per initial state, reduced
    /// in the canonical `(task, β, τ_in)` order, and committed to the
    /// summary map in β-enumeration order — which keeps the outcome
    /// independent of scheduling (DESIGN.md §5.6).
    fn run_parallel(
        &self,
        pc: &PropertyContext,
        order: &[TaskId],
        threads: usize,
        dead: &DeadServiceMap,
    ) -> (SummaryMap, Stats) {
        let schema = &self.system.schema;
        let contexts = &*pc.contexts;

        // Canonical pair enumeration: tasks in bottom-up order, assignments
        // in β-enumeration order. Every buffer below is indexed by position
        // in this list, and the final reduction walks it front to back.
        let pairs: Vec<(TaskId, Vec<bool>)> = pc.pairs(order);
        let buchis: Vec<Arc<Buchi<TaskProp>>> = pairs
            .iter()
            .map(|(t, b)| pc.buchi_shared(*t, b))
            .collect();
        let mut task_pairs: BTreeMap<TaskId, Vec<usize>> = BTreeMap::new();
        for (p, (t, _)) in pairs.iter().enumerate() {
            task_pairs.entry(*t).or_default().push(p);
        }

        // Readiness table: per task, how many children have not committed
        // yet (build jobs are released when this hits zero) and how many of
        // its own pairs are still unreduced (the summary commits when this
        // hits zero).
        let pending_children: BTreeMap<TaskId, AtomicUsize> = order
            .iter()
            .map(|&t| (t, AtomicUsize::new(schema.task(t).children.len())))
            .collect();
        let remaining_pairs: BTreeMap<TaskId, AtomicUsize> = task_pairs
            .iter()
            .map(|(&t, ps)| (t, AtomicUsize::new(ps.len())))
            .collect();

        // Committed summaries, swapped wholesale on each task commit; a
        // build job clones the Arc (not the map) to snapshot every child it
        // can ever look up.
        let committed: Mutex<Arc<SummaryMap>> = Mutex::new(Arc::new(SummaryMap::new()));

        // A built pair waiting for its queries: the verifier is kept alive
        // (it owns the summary snapshot its graph was built against) and the
        // graph is read-only, so query jobs share both through an Arc.
        struct PairRuntime<'a> {
            verifier: TaskVerifier<'a>,
            graph: ExploredGraph,
        }
        // A pair's reduced result. `entries` is *moved* into the task
        // summary when the task commits (leaving this empty), so the entry
        // list exists once; the counts stay behind for the deterministic
        // post-pool debug trace.
        struct ReducedPair {
            entries: Vec<RtEntry>,
            stats: Stats,
            total: usize,
            returning: usize,
        }
        // Ordered-reduction buffer of one (T, β) pair. In shared-arena mode
        // (`shared_km`) the pair additionally owns its [`PairShared`] state:
        // exactly one query job of the pair is in flight at a time (each
        // pushes its successor), so the job *takes* the state out of the
        // mutex, extends the arena unlocked, and puts it back — queries of
        // one pair form a sequential chain while distinct pairs still fan
        // out across workers.
        struct PairState<'a> {
            runtime: Option<Arc<PairRuntime<'a>>>,
            shared: Option<PairShared>,
            results: Vec<Option<(Vec<RtEntry>, QueryCost)>>,
            remaining: usize,
            reduced: Option<ReducedPair>,
        }
        let pair_states: Vec<Mutex<PairState<'_>>> = pairs
            .iter()
            .map(|_| {
                Mutex::new(PairState {
                    runtime: None,
                    shared: None,
                    results: Vec::new(),
                    remaining: 0,
                    reduced: None,
                })
            })
            .collect();

        #[derive(Clone, Copy)]
        enum Job {
            /// Forward exploration of one `(T, β)` pair (by pair index).
            Build(usize),
            /// Lemma 21 queries of one `(T, β, τ_in)` (pair index, τ_in
            /// position).
            Query(usize, usize),
        }

        // Records a pair's reduced result; when it was the task's last pair,
        // commits the task summary (pairs concatenated in β order — the
        // sequential layout) and releases the parent's builds if this task
        // was its last unfinished child.
        let commit_pair =
            |p: usize, (entries, stats): (Vec<RtEntry>, Stats), handle: &WorkerHandle<'_, Job>| {
                let task = pairs[p].0;
                let reduced = ReducedPair {
                    total: entries.len(),
                    returning: entries.iter().filter(|e| e.output.is_some()).count(),
                    entries,
                    stats,
                };
                pair_states[p].lock().expect("pair state poisoned").reduced = Some(reduced);
                if remaining_pairs[&task].fetch_sub(1, Ordering::SeqCst) != 1 {
                    return;
                }
                // Every pair of the task is built by now: its successor memo
                // has no reader left (DESIGN.md §5.13).
                contexts[&task].successors().release();
                let mut summary = TaskSummary::default();
                for &q in &task_pairs[&task] {
                    let mut state = pair_states[q].lock().expect("pair state poisoned");
                    let reduced = state.reduced.as_mut().expect("pair reduced");
                    summary.entries.append(&mut reduced.entries);
                }
                {
                    let mut shared = committed.lock().expect("summary map poisoned");
                    let mut map = (**shared).clone();
                    map.insert(task, Arc::new(summary));
                    *shared = Arc::new(map);
                }
                if let Some(parent) = schema.task(task).parent {
                    if pending_children[&parent].fetch_sub(1, Ordering::SeqCst) == 1 {
                        for &q in &task_pairs[&parent] {
                            handle.push(Job::Build(q));
                        }
                    }
                }
            };

        // Seed: the leaves' build jobs, in canonical order.
        let seeds: Vec<Job> = order
            .iter()
            .filter(|&&t| schema.task(t).children.is_empty())
            .flat_map(|t| task_pairs[t].iter().copied().map(Job::Build))
            .collect();

        run_pool(threads, seeds, |job, handle| match job {
            Job::Build(p) => {
                let (task, beta) = &pairs[p];
                let snapshot = committed.lock().expect("summary map poisoned").clone();
                let verifier = TaskVerifier::new(
                    self.system,
                    &self.config,
                    &contexts[task],
                    *task,
                    beta.clone(),
                    pc.phi(*task),
                    &buchis[p],
                    snapshot,
                    contexts,
                    dead,
                );
                let graph = verifier.build_graph();
                let inits = graph.initial_count();
                if inits == 0 {
                    let reduced = TaskVerifier::reduce_queries(&graph, std::iter::empty());
                    commit_pair(p, reduced, handle);
                    return;
                }
                let shared = self
                    .config
                    .shared_km
                    .then(|| verifier.prepare_shared(&graph));
                {
                    let mut state = pair_states[p].lock().expect("pair state poisoned");
                    state.results = vec![None; inits];
                    state.remaining = inits;
                    state.shared = shared;
                    state.runtime = Some(Arc::new(PairRuntime { verifier, graph }));
                }
                if self.config.shared_km {
                    // Shared arena: the pair's queries run as a sequential
                    // chain (each pushes the next), extending one arena in
                    // initial-state order — the canonical order, so the
                    // arena's evolution is identical at every thread count.
                    handle.push(Job::Query(p, 0));
                } else {
                    for pos in 0..inits {
                        handle.push(Job::Query(p, pos));
                    }
                }
            }
            Job::Query(p, pos) => {
                let (runtime, mut shared) = {
                    let mut state = pair_states[p].lock().expect("pair state poisoned");
                    (
                        state
                            .runtime
                            .clone()
                            .expect("graph is built before its queries are pushed"),
                        state.shared.take(),
                    )
                };
                let result = match shared.as_mut() {
                    Some(sh) => runtime.verifier.init_queries_shared(&runtime.graph, pos, sh),
                    None => runtime.verifier.init_queries(&runtime.graph, pos),
                };
                let chained = shared.is_some();
                let reduced = {
                    let mut state = pair_states[p].lock().expect("pair state poisoned");
                    state.results[pos] = Some(result);
                    state.remaining -= 1;
                    if state.remaining == 0 {
                        let runtime = state.runtime.take().expect("runtime set until last query");
                        let per_init: Vec<(Vec<RtEntry>, QueryCost)> = state
                            .results
                            .drain(..)
                            .map(|r| r.expect("every query filled its slot"))
                            .collect();
                        Some(TaskVerifier::reduce_queries(&runtime.graph, per_init))
                    } else {
                        state.shared = shared.take();
                        None
                    }
                };
                match reduced {
                    Some(reduced) => commit_pair(p, reduced, handle),
                    None if chained => handle.push(Job::Query(p, pos + 1)),
                    None => {}
                }
            }
        });

        // Deterministic aggregation: walk the canonical pair order, exactly
        // as the sequential engine absorbed and traced its pairs.
        let mut stats = Stats::default();
        for (p, state) in pair_states.into_iter().enumerate() {
            let state = state.into_inner().expect("pair state poisoned");
            let reduced = state.reduced.expect("scheduler reduced every pair");
            let (task, beta) = &pairs[p];
            self.debug_pair_counts(*task, beta, reduced.total, reduced.returning, &reduced.stats);
            stats.absorb(&reduced.stats);
        }
        let summaries = committed.into_inner().expect("summary map poisoned");
        (
            Arc::try_unwrap(summaries).unwrap_or_else(|shared| (*shared).clone()),
            stats,
        )
    }

    /// `HAS_VERIFIER_DEBUG` trace line for one reduced `(T, β)` pair. The β
    /// is the pair's actual assignment (it used to be recovered from the
    /// first entry, which traced an empty β for entry-less pairs), and the
    /// variable is treated as a switch: unset, empty, or `0` disables the
    /// trace.
    fn debug_pair(&self, task: TaskId, beta: &[bool], entries: &[RtEntry], stats: &Stats) {
        let returning = entries.iter().filter(|e| e.output.is_some()).count();
        self.debug_pair_counts(task, beta, entries.len(), returning, stats);
    }

    /// [`Verifier::debug_pair`] with the counts precomputed — the parallel
    /// engine moves a pair's entries into the task summary at commit time
    /// and keeps only these counts for the post-pool trace.
    fn debug_pair_counts(
        &self,
        task: TaskId,
        beta: &[bool],
        entries: usize,
        returning: usize,
        stats: &Stats,
    ) {
        if !verifier_debug_enabled() {
            return;
        }
        eprintln!(
            "[has-core] task {} beta {:?}: {} entries ({} returning), {}",
            self.system.schema.task(task).name,
            beta,
            entries,
            returning,
            stats
        );
    }

    /// Builds the Hierarchical Cell Decomposition induced by the arithmetic
    /// atoms of the specification and the property, and returns its total
    /// cell count (the quantity measured by experiment EXP-F4).
    fn build_hcd_cell_count(&self) -> usize {
        let schema = &self.system.schema;
        let mut builder: HcdBuilder<VarId> = HcdBuilder::new();
        for (task_id, task) in schema.tasks() {
            let mut polys: Vec<LinExpr<VarId>> = Vec::new();
            let collect = |c: &has_model::Condition, polys: &mut Vec<LinExpr<VarId>>| {
                for a in c.arithmetic_atoms() {
                    polys.push(a.expr.clone());
                }
            };
            for s in &task.internal_services {
                collect(&s.pre, &mut polys);
                collect(&s.post, &mut polys);
            }
            collect(&task.closing.pre, &mut polys);
            for &c in &task.children {
                collect(&schema.task(c).opening.pre, &mut polys);
            }
            // Shared numeric variables with the parent (inputs and returns).
            let shared: Vec<(VarId, VarId)> = task
                .opening
                .input_map
                .iter()
                .map(|(c, p)| (*c, *p))
                .chain(task.closing.output_map.iter().map(|(p, c)| (*c, *p)))
                .filter(|(c, _)| {
                    schema.variable(*c).sort == has_model::VarSort::Numeric
                })
                .collect();
            builder = builder.task(task_id.0, task.parent.map(|p| p.0), polys, shared);
        }
        builder.build().total_cells()
    }
}

/// Whether `HAS_VERIFIER_DEBUG` requests the per-pair trace: set to any
/// non-empty value other than `0`. (`is_ok()` alone would treat
/// `HAS_VERIFIER_DEBUG=0` — the conventional "off" — as on.)
fn verifier_debug_enabled() -> bool {
    std::env::var("HAS_VERIFIER_DEBUG")
        .map(|value| {
            let value = value.trim();
            !value.is_empty() && value != "0"
        })
        .unwrap_or(false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use has_ltl::hltl::HltlBuilder;
    use has_model::{Condition, SetUpdate, SystemBuilder};

    /// A single-task system with one flag that is set by a service and never
    /// unset: `F set` should hold on every infinite run... except runs where
    /// the service never fires, so `F set` is violated; `G (set -> set)` is a
    /// tautology and holds.
    fn flag_system() -> (ArtifactSystem, has_model::VarId) {
        let mut b = SystemBuilder::new("flag");
        let root = b.root_task("Main");
        let flag = b.num_var(root, "flag");
        b.internal_service(
            root,
            "set",
            Condition::True,
            Condition::eq_const(flag, has_arith::Rational::from_int(1)),
            SetUpdate::None,
        );
        b.internal_service(
            root,
            "idle",
            Condition::True,
            Condition::True,
            SetUpdate::None,
        );
        (b.build().unwrap(), flag)
    }

    #[test]
    fn tautology_holds() {
        let (system, flag) = flag_system();
        let root = system.root();
        let mut hb = HltlBuilder::new(root);
        let set = hb.condition(Condition::eq_const(flag, has_arith::Rational::from_int(1)));
        let property = hb.finish(set.clone().implies(set).globally());
        let outcome = Verifier::new(&system, &property).verify();
        assert!(outcome.holds, "{outcome}");
    }

    #[test]
    fn eventually_set_is_violated_by_idle_loop() {
        let (system, flag) = flag_system();
        let root = system.root();
        let mut hb = HltlBuilder::new(root);
        let set = hb.condition(Condition::eq_const(flag, has_arith::Rational::from_int(1)));
        let property = hb.finish(set.eventually());
        let outcome = Verifier::new(&system, &property).verify();
        assert!(!outcome.holds, "{outcome}");
        // The idle self-loop is an infinite local run of the root.
        assert_eq!(outcome.violation.expect("witness").kind, ViolationKind::Lasso);
    }

    /// Regression for the root-violation misclassification: the root below
    /// has no internal services and immediately opens a child whose closing
    /// condition is unreachable, so its *only* violating run blocks forever
    /// on the never-returning child — the reported kind must be `Blocking`,
    /// not the formerly hardcoded `Lasso`.
    #[test]
    fn blocking_on_a_never_returning_child_reports_blocking() {
        let mut b = SystemBuilder::new("blocking");
        let root = b.root_task("Main");
        let ret = b.num_var(root, "ret");
        let child = b.child_task(root, "Child");
        let cflag = b.num_var(child, "cflag");
        // The child spins forever: its only service keeps the flag at 0 and
        // its closing condition demands 1.
        b.internal_service(
            child,
            "spin",
            Condition::True,
            Condition::eq_const(cflag, has_arith::Rational::ZERO),
            SetUpdate::None,
        );
        b.close_when(child, Condition::eq_const(cflag, has_arith::Rational::from_int(1)));
        b.map_output(child, ret, cflag);
        let system = b.build().unwrap();

        let mut hb = HltlBuilder::new(system.root());
        let done = hb.condition(Condition::eq_const(ret, has_arith::Rational::from_int(1)));
        let property = hb.finish(done.eventually());
        let outcome = Verifier::new(&system, &property).verify();
        assert!(!outcome.holds, "{outcome}");
        let violation = outcome.violation.as_ref().expect("witness");
        assert_eq!(violation.kind, ViolationKind::Blocking, "{outcome}");
        assert!(outcome.to_string().contains("blocking run"), "{outcome}");
    }

    /// With witness reconstruction on, the idle-loop lasso comes back as a
    /// rendered run: a (possibly empty) prefix plus a non-empty pump cycle
    /// of internal services — and the `holds`/stats answer is unchanged.
    #[test]
    fn lasso_witness_materializes_the_idle_pump_cycle() {
        let (system, flag) = flag_system();
        let root = system.root();
        let mut hb = HltlBuilder::new(root);
        let set = hb.condition(Condition::eq_const(flag, has_arith::Rational::from_int(1)));
        let property = hb.finish(set.eventually());
        let plain = Verifier::new(&system, &property).verify();
        let config = VerifierConfig::default().with_witnesses(true);
        let outcome = Verifier::with_config(&system, &property, config).verify();
        assert!(!outcome.holds);
        assert_eq!(outcome.stats, plain.stats, "retention must not change stats");
        let violation = outcome.violation.expect("witness");
        assert_eq!(violation.kind, ViolationKind::Lasso);
        assert_eq!(violation.origin(), root, "no sub-call to descend into");
        let witness = violation.witness.expect("reconstructed tree");
        assert_eq!(witness.task, root);
        assert!(
            !witness.cycle.is_empty() && !witness.cycle_truncated,
            "{witness}"
        );
        let rendered = witness.to_string();
        assert!(rendered.contains("cycle (repeatable pump):"), "{rendered}");
        assert!(rendered.contains("internal service `"), "{rendered}");
    }

    /// With witness reconstruction on, a root blocking on a never-returning
    /// child descends into the child: the origin names the child and the
    /// child's node carries its own (spinning) run.
    #[test]
    fn blocking_witness_descends_into_the_spinning_child() {
        let mut b = SystemBuilder::new("blocking");
        let root = b.root_task("Main");
        let ret = b.num_var(root, "ret");
        let child = b.child_task(root, "Child");
        let cflag = b.num_var(child, "cflag");
        b.internal_service(
            child,
            "spin",
            Condition::True,
            Condition::eq_const(cflag, has_arith::Rational::ZERO),
            SetUpdate::None,
        );
        b.close_when(child, Condition::eq_const(cflag, has_arith::Rational::from_int(1)));
        b.map_output(child, ret, cflag);
        let system = b.build().unwrap();
        let child_id = system.schema.task_by_name("Child").unwrap();

        let mut hb = HltlBuilder::new(system.root());
        let done = hb.condition(Condition::eq_const(ret, has_arith::Rational::from_int(1)));
        let property = hb.finish(done.eventually());
        let config = VerifierConfig::default().with_witnesses(true);
        let outcome = Verifier::with_config(&system, &property, config).verify();
        assert!(!outcome.holds, "{outcome}");
        let violation = outcome.violation.as_ref().expect("witness");
        // The root's own path kind is still blocking (the carrier is a
        // never-returning call, not a returned one) …
        assert_eq!(violation.kind, ViolationKind::Blocking, "{outcome}");
        // … but the origin names the task that actually violates.
        assert_eq!(violation.origin(), child_id);
        assert_eq!(violation.origin_name(), Some("Child"));
        let witness = violation.witness.as_ref().expect("tree");
        let rendered = witness.to_string();
        assert!(rendered.contains("→ never returns"), "{rendered}");
        assert!(rendered.contains("└ task `Child`"), "{rendered}");
        assert!(rendered.contains("internal service `spin`"), "{rendered}");
        // The outcome line names the originating sub-task.
        assert!(
            outcome.to_string().contains("originating in task `Child`"),
            "{outcome}"
        );
    }

    #[test]
    fn contradictory_property_is_always_violated() {
        let (system, flag) = flag_system();
        let root = system.root();
        let mut hb = HltlBuilder::new(root);
        let set = hb.condition(Condition::eq_const(flag, has_arith::Rational::from_int(1)));
        let property = hb.finish(set.clone().and(set.not()).eventually().globally());
        let outcome = Verifier::new(&system, &property).verify();
        assert!(!outcome.holds);
    }

    #[test]
    fn true_property_holds_and_reports_stats() {
        let (system, _) = flag_system();
        let root = system.root();
        let hb = HltlBuilder::new(root);
        let property = hb.finish(has_ltl::Ltl::True);
        let outcome = Verifier::new(&system, &property).verify();
        assert!(outcome.holds);
        assert!(outcome.stats.control_states > 0);
        assert!(outcome.stats.task_assignments >= 1);
    }
}
