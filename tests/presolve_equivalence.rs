//! The pre-solver soundness contract (DESIGN.md §5.11): the static
//! refutation filters — control skeleton, counter-abstraction DFA, lasso
//! circulation — are *exact* reductions. `Verifier::verify` must report the
//! same verdict (holds, violation kind, violating input type) with the
//! pre-solver on and off, and each setting must stay byte-identical across
//! thread counts.
//!
//! The comparison is verdict-level, not statistics-level: the pre-solver
//! exists precisely to skip Karp–Miller builds, so `km-nodes` and the
//! `presolve` counters differ between the two settings by design.
//!
//! A directed property test closes the loop at the VASS layer: whenever a
//! filter refutes a sub-query, a capped exact search must find nothing.

use has::vass::{control_reachable, counter_dfa_refutes, BoundedExplorer, Vass};
use has::verifier::{Verifier, VerifierConfig, ViolationKind};
use has::workloads::counters::{counter_gadget, counter_liveness_property};
use has::workloads::generator::GeneratorParams;
use has::workloads::orders::{never_enqueue_property, order_fulfilment, ship_after_quote_property};
use has::workloads::travel::{travel_booking, travel_liveness_property, TravelVariant};
use has_model::SchemaClass;
use proptest::prelude::*;

/// Caps matching `has_bench::fast_config` so the sweep stays quick in debug
/// builds.
fn capped() -> VerifierConfig {
    VerifierConfig {
        max_successors: 24,
        max_control_states: 800,
        km_node_cap: 4_000,
        ..VerifierConfig::default()
    }
}

/// The verdict triple the equivalence contract compares: everything the
/// verifier *concludes*, none of what it *spent*.
fn verdict(outcome: &has::verifier::Outcome) -> (bool, Option<ViolationKind>, Option<String>) {
    (
        outcome.holds,
        outcome.violation.as_ref().map(|v| v.kind),
        outcome.violation.as_ref().map(|v| v.input_description.clone()),
    )
}

/// Verifies one instance with the pre-solver off and on, asserting equal
/// verdicts; within each setting, asserts the rendered outcome is
/// byte-identical at every given thread count.
fn assert_presolve_equivalent(
    label: &str,
    system: &has::model::ArtifactSystem,
    property: &has::ltl::HltlFormula,
    config: VerifierConfig,
    thread_counts: &[usize],
) {
    let mut reference = None;
    for presolve in [false, true] {
        let config = config.clone().with_presolve(presolve);
        let base =
            Verifier::with_config(system, property, config.clone().with_threads(1)).verify();
        for &threads in thread_counts {
            let outcome =
                Verifier::with_config(system, property, config.clone().with_threads(threads))
                    .verify();
            assert_eq!(
                format!("{base:?}"),
                format!("{outcome:?}"),
                "{label}: presolve={presolve} outcome at threads={threads} \
                 differs from sequential"
            );
        }
        match &reference {
            None => reference = Some(verdict(&base)),
            Some(r) => assert_eq!(
                r,
                &verdict(&base),
                "{label}: verdict with the pre-solver differs from without"
            ),
        }
    }
}

#[test]
fn travel_liveness_verdict_is_presolve_invariant() {
    for variant in [TravelVariant::Buggy, TravelVariant::Fixed] {
        let t = travel_booking(variant);
        let property = travel_liveness_property(&t);
        assert_presolve_equivalent(
            &format!("travel-liveness/{variant:?}"),
            &t.system,
            &property,
            capped(),
            &[1, 8],
        );
    }
}

#[test]
fn order_fulfilment_verdict_is_presolve_invariant() {
    let o = order_fulfilment();
    for (label, property) in [
        ("orders/ship-after-quote", ship_after_quote_property(&o)),
        ("orders/never-enqueue", never_enqueue_property(&o)),
    ] {
        assert_presolve_equivalent(label, &o.system, &property, capped(), &[1, 8]);
    }
}

#[test]
fn counter_gadget_verdict_is_presolve_invariant() {
    let g = counter_gadget(2);
    let property = counter_liveness_property(&g);
    assert_presolve_equivalent("counter-gadget/d=2", &g.system, &property, capped(), &[1, 8]);
}

/// Witness reconstruction must also be unaffected: the reported origin and
/// rendered witness tree of the travel workload's violation are identical
/// with the pre-solver on and off.
#[test]
fn travel_witness_is_presolve_invariant() {
    let t = travel_booking(TravelVariant::Buggy);
    let property = travel_liveness_property(&t);
    let run = |presolve: bool| {
        let config = capped()
            .with_witnesses(true)
            .with_threads(1)
            .with_presolve(presolve);
        Verifier::with_config(&t.system, &property, config).verify()
    };
    let off = run(false);
    let on = run(true);
    assert_eq!(verdict(&off), verdict(&on));
    let render = |outcome: &has::verifier::Outcome| {
        outcome
            .violation
            .as_ref()
            .map(|v| (v.origin(), v.witness.as_ref().map(ToString::to_string)))
    };
    assert_eq!(render(&off), render(&on), "witness tree changed");
}

/// Strategy: a small random parameter point of the Tables 1/2 generator.
fn arb_params() -> impl Strategy<Value = GeneratorParams> {
    (
        prop_oneof![
            Just(SchemaClass::Acyclic),
            Just(SchemaClass::LinearlyCyclic),
            Just(SchemaClass::Cyclic),
        ],
        any::<bool>(),
        any::<bool>(),
        1usize..=3,
        1usize..=2,
        1usize..=2,
    )
        .prop_map(
            |(schema_class, artifact_relations, arithmetic, depth, width, numeric_vars)| {
                GeneratorParams {
                    schema_class,
                    artifact_relations,
                    arithmetic,
                    depth,
                    width,
                    numeric_vars,
                }
            },
        )
}

/// Strategy: a small random VASS for the directed filter-soundness test.
fn arb_vass() -> impl Strategy<Value = Vass> {
    (2usize..=5, 1usize..=2, 1usize..=8).prop_flat_map(|(states, dim, actions)| {
        proptest::collection::vec(
            (0..states, proptest::collection::vec(-2i64..=2, dim), 0..states),
            actions,
        )
        .prop_map(move |acts| {
            let mut v = Vass::new(states, dim);
            for (from, delta, to) in acts {
                v.add_action(from, delta, to);
            }
            v
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The pre-solver preserves the verdict on generated instances too, at
    /// sequential and parallel thread counts.
    #[test]
    fn generated_instances_are_presolve_invariant(params in arb_params()) {
        let generated = params.generate();
        let config = VerifierConfig {
            max_successors: 16,
            max_control_states: 400,
            km_node_cap: 2_000,
            use_cells: params.arithmetic,
            ..VerifierConfig::default()
        };
        let mut reference = None;
        for presolve in [false, true] {
            let config = config.clone().with_presolve(presolve);
            let seq = Verifier::with_config(
                &generated.system,
                &generated.property,
                config.clone().with_threads(1),
            )
            .verify();
            let par = Verifier::with_config(
                &generated.system,
                &generated.property,
                config.with_threads(8),
            )
            .verify();
            prop_assert_eq!(
                format!("{seq:?}"),
                format!("{par:?}"),
                "{}: presolve={} differs across threads",
                generated.label,
                presolve
            );
            match &reference {
                None => reference = Some(verdict(&seq)),
                Some(r) => prop_assert_eq!(
                    r,
                    &verdict(&seq),
                    "{}: verdict changed under the pre-solver",
                    generated.label
                ),
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Directed filter soundness at the VASS layer: whenever the control or
    /// DFA filter refutes coverage of a target state, a capped exact forward
    /// search must find no configuration at it.
    #[test]
    fn refuted_targets_are_never_reached(v in arb_vass(), target_seed in 0usize..64) {
        let target = target_seed % v.states;
        let reachable = control_reachable(&v, 0);
        let mut targets = vec![false; v.states];
        targets[target] = true;
        let refuted = !targets.iter().zip(&reachable).any(|(&t, &r)| t && r)
            || counter_dfa_refutes(&v, 0, &targets, &reachable);
        if refuted {
            let explorer = BoundedExplorer::new(6, 4_000);
            prop_assert!(
                !explorer.reachable_states(&v, 0).contains(&target),
                "statically refuted target {target} reached by exact search"
            );
        }
    }
}
