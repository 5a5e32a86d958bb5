//! The task-level successor memo (DESIGN.md §5.13) is exact: a `(T, β)`
//! graph built from a memo the task's other assignments already filled is
//! identical to one built from a fresh property context, and verification
//! stays byte-identical at every thread count.

use has::analysis::{analyze, DeadServiceMap};
use has::ltl::HltlFormula;
use has::model::{ArtifactSystem, SchemaClass, TaskId};
use has::verifier::task_verifier::{ExploredGraph, SummaryMap, TaskSummary, TaskVerifier};
use has::verifier::{PropertyContext, Verifier, VerifierConfig};
use has::workloads::generator::GeneratorParams;
use has::workloads::travel::{travel_booking, travel_property, TravelVariant};
use std::sync::Arc;

/// Every switch and cap set explicitly, so no `HAS_*` variable changes what
/// is compared.
fn pinned(use_cells: bool, max_merge_pairs: usize, max_control_states: usize) -> VerifierConfig {
    VerifierConfig {
        nav_depth: 1,
        max_successors: 48,
        max_control_states,
        max_merge_pairs,
        max_unknown_props: 4,
        km_node_cap: 50_000,
        use_cells,
        threads: 1,
        witnesses: true,
        projection: true,
        presolve: true,
        shared_km: true,
    }
}

/// The EXP-T1/T2 grid rows with artifact relations, and both Appendix A.2
/// travel variants at the merge depth that exposes the violation.
fn instances() -> Vec<(String, ArtifactSystem, HltlFormula, VerifierConfig)> {
    let mut out = Vec::new();
    for arithmetic in [false, true] {
        for schema_class in [
            SchemaClass::Acyclic,
            SchemaClass::LinearlyCyclic,
            SchemaClass::Cyclic,
        ] {
            let g = GeneratorParams {
                schema_class,
                artifact_relations: true,
                arithmetic,
                depth: 2,
                width: 1,
                numeric_vars: if arithmetic { 2 } else { 1 },
            }
            .generate();
            out.push((g.label, g.system, g.property, pinned(arithmetic, 6, 3_000)));
        }
    }
    for variant in [TravelVariant::Buggy, TravelVariant::Fixed] {
        let t = travel_booking(variant);
        let property = travel_property(&t);
        out.push((
            format!("travel-A.2/{variant:?}"),
            t.system,
            property,
            pinned(false, 12, 20_000),
        ));
    }
    out
}

/// Children before parents.
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

fn prepared(
    system: &ArtifactSystem,
    property: &HltlFormula,
    config: &VerifierConfig,
) -> PropertyContext {
    let mut pc = PropertyContext::new(system, property, config.nav_depth);
    pc.precompute_automata();
    pc
}

/// Builds the graph of `(task, beta)` over `pc`'s contexts.
fn build(
    system: &ArtifactSystem,
    config: &VerifierConfig,
    pc: &PropertyContext,
    task: TaskId,
    beta: &[bool],
    summaries: &Arc<SummaryMap>,
    dead: &DeadServiceMap,
) -> ExploredGraph {
    let buchi = pc.buchi_shared(task, beta);
    TaskVerifier::new(
        system,
        config,
        &pc.contexts[&task],
        task,
        beta.to_vec(),
        pc.phi(task),
        &buchi,
        Arc::clone(summaries),
        &pc.contexts,
        dead,
    )
    .build_graph()
}

/// Builds every `(T, β)` pair of `system` twice under `config` and asserts
/// the graphs are equal: once over a memo that the task's other assignments
/// filled under `fill`, once over a fresh property context.
fn check_against_fresh(
    label: &str,
    system: &ArtifactSystem,
    property: &HltlFormula,
    fill: &VerifierConfig,
    config: &VerifierConfig,
) {
    let dead = analyze(system, Some(property)).dead;
    let warm = prepared(system, property, config);
    let mut summaries: Arc<SummaryMap> = Arc::new(SummaryMap::new());
    let mut lists = 0;
    for task in bottom_up_order(system) {
        let betas = warm.assignments(task);
        let memo = warm.contexts[&task].successors();
        for (i, beta) in betas.iter().enumerate() {
            memo.release();
            for (j, other) in betas.iter().enumerate() {
                if j != i {
                    build(system, fill, &warm, task, other, &summaries, &dead);
                }
            }
            lists = lists.max(memo.len());
            let memoised = build(system, config, &warm, task, beta, &summaries, &dead);
            let fresh_pc = prepared(system, property, config);
            let fresh = build(system, config, &fresh_pc, task, beta, &summaries, &dead);
            assert_eq!(
                memoised.stats(),
                fresh.stats(),
                "{label}: task {task:?} β {beta:?}: stats differ"
            );
            assert!(
                memoised == fresh,
                "{label}: task {task:?} β {beta:?}: graphs differ"
            );
        }
        summaries = commit(system, config, &warm, task, &summaries, &dead);
        memo.release();
    }
    assert!(lists > 0, "{label}: no build read a memo another β filled");
}

/// Explores every `β` of `task` and returns `summaries` with the task's
/// summary added, for its parent's builds.
fn commit(
    system: &ArtifactSystem,
    config: &VerifierConfig,
    pc: &PropertyContext,
    task: TaskId,
    summaries: &Arc<SummaryMap>,
    dead: &DeadServiceMap,
) -> Arc<SummaryMap> {
    let mut summary = TaskSummary::default();
    for beta in pc.assignments(task) {
        let buchi = pc.buchi_shared(task, &beta);
        let (entries, _) = TaskVerifier::new(
            system,
            config,
            &pc.contexts[&task],
            task,
            beta,
            pc.phi(task),
            &buchi,
            Arc::clone(summaries),
            &pc.contexts,
            dead,
        )
        .explore();
        summary.entries.extend(entries);
    }
    let mut map = (**summaries).clone();
    map.insert(task, Arc::new(summary));
    Arc::new(map)
}

/// The memo keys a post list by the source state's restriction to the
/// task's input variables, the only part of the source the enumeration
/// reads. A task without inputs (the root of every instance) restricts
/// every state to the same blank state, so after all its pairs are built
/// the memo holds at most one list per internal service, however many
/// states those pairs reached.
#[test]
fn tasks_without_inputs_keep_one_list_per_service() {
    for (label, system, property, config) in instances() {
        let dead = analyze(&system, Some(&property)).dead;
        let pc = prepared(&system, &property, &config);
        let mut summaries: Arc<SummaryMap> = Arc::new(SummaryMap::new());
        let mut checked = 0;
        for task in bottom_up_order(&system) {
            let t = system.schema.task(task);
            summaries = commit(&system, &config, &pc, task, &summaries, &dead);
            let memo = pc.contexts[&task].successors();
            if t.input_vars.is_empty() {
                assert!(
                    (1..=t.internal_services.len()).contains(&memo.len()),
                    "{label}: task {task:?}: {} lists for {} internal services",
                    memo.len(),
                    t.internal_services.len()
                );
                checked += 1;
            }
            memo.release();
        }
        assert!(checked > 0, "{label}: no task without inputs");
    }
}

#[test]
fn memoised_graphs_equal_fresh_graphs() {
    for (label, system, property, config) in instances() {
        check_against_fresh(&label, &system, &property, &config, &config);
    }
}

/// A memo filled under one `(max_successors, max_merge_pairs)` never
/// answers a build under another: travel A.2 needs 12 merge pairs where
/// the default is 6, and the successor cap truncates lists.
#[test]
fn lists_under_other_caps_are_never_read() {
    let t = travel_booking(TravelVariant::Buggy);
    let property = travel_property(&t);
    let twelve = pinned(false, 12, 20_000);
    let six = pinned(false, 6, 20_000);
    let narrow = VerifierConfig {
        max_successors: 24,
        ..twelve.clone()
    };
    for (fill, config, label) in [
        (&six, &twelve, "merge pairs 6 -> 12"),
        (&twelve, &six, "merge pairs 12 -> 6"),
        (&twelve, &narrow, "successors 48 -> 24"),
    ] {
        check_against_fresh(label, &t.system, &property, fill, config);
    }
}

/// `(control states, transitions, counter dimensions)` per instance, as
/// `build_graph` produced them when each `(T, β)` pair enumerated its own
/// successors. A memo key that conflates two services, states or cap
/// settings changes these even where the verdict survives.
const PER_PAIR_COUNTS: [(&str, usize, usize, usize); 8] = [
    ("acyclic/+ar/-arith/d2w1v1", 465, 16_676, 26),
    ("linearly-cyclic/+ar/-arith/d2w1v1", 543, 20_208, 42),
    ("cyclic/+ar/-arith/d2w1v1", 543, 20_208, 42),
    ("acyclic/+ar/+arith/d2w1v2", 750, 33_652, 24),
    ("linearly-cyclic/+ar/+arith/d2w1v2", 852, 38_738, 32),
    ("cyclic/+ar/+arith/d2w1v2", 852, 38_738, 32),
    ("travel-A.2/Buggy", 22_960, 39_167, 30),
    ("travel-A.2/Fixed", 16_290, 24_429, 30),
];

#[test]
fn outcomes_are_identical_across_thread_counts() {
    for (label, system, property, config) in instances() {
        let reference = Verifier::with_config(&system, &property, config.clone()).verify();
        let s = &reference.stats;
        let pinned = PER_PAIR_COUNTS
            .iter()
            .find(|(l, ..)| *l == label)
            .map(|&(_, states, transitions, dims)| (states, transitions, dims));
        assert_eq!(
            Some((s.control_states, s.transitions, s.counter_dimensions)),
            pinned,
            "{label}: graph sizes differ from the per-pair enumeration's"
        );
        for threads in [2, 4] {
            let outcome =
                Verifier::with_config(&system, &property, config.clone().with_threads(threads))
                    .verify();
            assert_eq!(
                format!("{reference:?}"),
                format!("{outcome:?}"),
                "{label}: outcome at threads={threads} differs from threads=1"
            );
            assert_eq!(reference.stats, outcome.stats, "{label}: threads={threads}");
        }
    }
}
