//! Static pre-solver relaxations over raw VASS (DESIGN.md §5.11).
//!
//! Every Lemma 21 query the verifier issues — coverability of a control-state
//! set, or a lasso through an accepting state — pays for a Karp–Miller graph
//! even when a cheap *necessary condition* already refutes it. This module is
//! the decision substrate of the `has-analysis` pre-solver: each function is
//! a sound refutation filter over the raw VASS (control states + action
//! deltas), run before any graph is built.
//!
//! * [`control_reachable`] — plain graph reachability with counters ignored:
//!   the cheapest over-approximation, and the restriction the other filters
//!   build on.
//! * [`counter_dfa_refutes`] — a per-dimension **counter-abstraction DFA**:
//!   each dimension is normalized by the gcd of its deltas and tracked
//!   exactly up to a truncation bound `k` (with a saturating "≥ k" top
//!   level), in product with the control skeleton. The abstraction keeps the
//!   ordering fact a total-effect count discards — a counter may never go
//!   negative *along* the run.
//! * [`z_lasso_feasible`] — the circulation Z-relaxation of a lasso: a pump
//!   cycle of any lasso is a flow-conserving circulation with componentwise
//!   non-negative total effect and at least one unit of flow leaving an
//!   accepting state. Infeasibility certifies "no lasso". It is the one
//!   filter that solves linear programs, and it is gated by a structural
//!   work estimate.
//!
//! Soundness is one-directional throughout: a refutation is definitive, a
//! feasible relaxation says nothing. The pre-solver therefore only ever
//! *removes* work whose answer is already known, which is what preserves the
//! verifier's determinism contract (byte-identical verdicts with the
//! pre-solver on and off — DESIGN.md §5.11).

use crate::vass::Vass;

/// Hard ceiling on `control_states × abstraction_levels` for one
/// [`counter_dfa_refutes`] product; dimensions whose product would exceed it
/// are skipped (returning "no refutation" is always sound).
const DFA_PRODUCT_CAP: usize = 1 << 18;

/// Work ceiling for the exact-rational simplex solves of one
/// [`z_lasso_feasible`] call, measured structurally as `rows² × columns`
/// (pivot count scales with the rows, each pivot costs `rows × columns`
/// rational operations). Programs above the ceiling are not solved — the
/// filter reports "no refutation", which is always sound. The ceiling keeps
/// the filter in the low hundreds of milliseconds, so the pre-solver can
/// never cost more than the capped Karp–Miller build it would skip; without
/// it the 300-plus-state VASS of the artifact-relation workloads spend tens
/// of seconds per query in the LP. Structural, not timed: the gate depends
/// only on the program's shape, so pre-solver verdicts stay deterministic
/// across runs and thread counts.
const LP_WORK_CAP: usize = 4_000_000;

/// `rows² × cols`, saturating: the structural simplex-work estimate gated by
/// [`LP_WORK_CAP`].
fn lp_work(rows: usize, cols: usize) -> usize {
    rows.saturating_mul(rows).saturating_mul(cols)
}

/// Control states reachable from `init` when counters are ignored (every
/// action is enabled). The cheapest refutation filter — and the restriction
/// applied before the other filters below, so unreachable components never
/// inflate their products or programs.
pub fn control_reachable(vass: &Vass, init: usize) -> Vec<bool> {
    let mut seen = vec![false; vass.states];
    if init >= vass.states {
        return seen;
    }
    let adjacency = vass.action_csr();
    let mut stack = vec![init];
    seen[init] = true;
    while let Some(q) = stack.pop() {
        for &a in adjacency.actions_from(q) {
            let to = vass.actions[a as usize].to;
            if !seen[to] {
                seen[to] = true;
                stack.push(to);
            }
        }
    }
    seen
}

/// The circulation Z-relaxation of "is there a lasso through a control state
/// in `accepting`?" — a cycle with componentwise non-negative summed effect
/// through an accepting state (Lemma 21's repeated-reachability condition).
///
/// Any pump cycle of the coverability graph projects to a closed control
/// walk through an accepting control state with the same summed action
/// effect, so the question relaxes to exactly the non-negative-cycle
/// decision [`crate::cycle`] already solves — per-SCC circulation
/// feasibility with support refinement, run here on the *control skeleton*
/// (one node per control state) instead of a built graph. Returns `false`
/// only on a sound refutation: no such control cycle exists, hence no lasso.
pub fn z_lasso_feasible(vass: &Vass, accepting: &[bool], reachable: &[bool]) -> bool {
    // Parallel actions with the same endpoints and delta are identical LP
    // columns: multiplicity cannot change feasibility, and the generated
    // workloads produce thousands of such duplicates. Deduplicate so the
    // simplex cost scales with the distinct-effect edges only.
    let mut seen = std::collections::HashSet::new();
    let edges: Vec<crate::cycle::DeltaEdge<'_>> = vass
        .actions
        .iter()
        .filter(|a| reachable[a.from] && seen.insert((a.from, a.to, &a.delta)))
        .map(|a| crate::cycle::DeltaEdge {
            from: a.from,
            to: a.to,
            delta: &a.delta,
        })
        .collect();
    if lp_work(vass.states + vass.dim, edges.len()) > LP_WORK_CAP {
        return true;
    }
    crate::cycle::nonneg_cycle_exists(vass.states, vass.dim, &edges, &|q| {
        accepting[q] && reachable[q]
    })
}

/// The gcd-normalized truncation abstraction of one counter dimension: a
/// DFA over the values `{0·g, 1·g, …, (k−1)·g, ≥k·g}` (where `g` is the gcd
/// of the dimension's deltas) in product with the control skeleton. Returns
/// `true` when *no* target control state is reachable in any product — a
/// sound refutation of coverability, since the abstraction over-approximates
/// every real run (the saturating top level absorbs all values `≥ k·g`, and
/// decrements out of it re-enter the tracked range nondeterministically).
///
/// This is the filter that catches *ordering* facts a total-effect count
/// relaxes away: a run that must spend a counter before any action can
/// replenish it has a non-negative total effect yet dies in the
/// abstraction, which forbids going negative at every step.
pub fn counter_dfa_refutes(vass: &Vass, init: usize, targets: &[bool], reachable: &[bool]) -> bool {
    if !(0..vass.states).any(|q| targets[q] && reachable[q]) {
        return true;
    }
    if targets[init] {
        return false;
    }
    let adjacency = vass.action_csr();
    for d in 0..vass.dim {
        let mut g: u64 = 0;
        let mut any_negative = false;
        for a in &vass.actions {
            if !reachable[a.from] || a.delta[d] == 0 {
                continue;
            }
            g = gcd(g, a.delta[d].unsigned_abs());
            any_negative |= a.delta[d] < 0;
        }
        if g == 0 || !any_negative {
            // The dimension never moves, or never decreases: the abstraction
            // never blocks anything the control skeleton allows.
            continue;
        }
        let max_step = vass
            .actions
            .iter()
            .filter(|a| reachable[a.from])
            .map(|a| (a.delta[d].unsigned_abs() / g) as usize)
            .max()
            .unwrap_or(1);
        // Track values exactly up to k units of g; level k is the saturating
        // "≥ k" top. k is a handful of steps deep — enough to catch
        // spend-before-earn orderings — and clamped so the product stays
        // small.
        let k = (max_step * 4).clamp(4, 64);
        if vass.states.saturating_mul(k + 1) > DFA_PRODUCT_CAP || k < max_step {
            continue;
        }
        if dfa_refutes_dim(vass, &adjacency, init, targets, d, g, k) {
            return true;
        }
    }
    false
}

/// Product BFS of the control skeleton with one dimension's truncation DFA.
/// Returns `true` when no `(target, level)` product state is reachable.
fn dfa_refutes_dim(
    vass: &Vass,
    adjacency: &crate::vass::ActionCsr,
    init: usize,
    targets: &[bool],
    d: usize,
    g: u64,
    k: usize,
) -> bool {
    let levels = k + 1; // 0..k exact (in units of g), k = top ("≥ k")
    let mut seen = vec![false; vass.states * levels];
    let mut stack = vec![(init, 0usize)];
    seen[init * levels] = true;
    while let Some((q, lvl)) = stack.pop() {
        for &ai in adjacency.actions_from(q) {
            let action = &vass.actions[ai as usize];
            let u = action.delta[d] / g as i64;
            let mut push = |lvl2: usize, stack: &mut Vec<(usize, usize)>| {
                let slot = action.to * levels + lvl2;
                if !seen[slot] {
                    seen[slot] = true;
                    if targets[action.to] {
                        return true;
                    }
                    stack.push((action.to, lvl2));
                }
                false
            };
            if lvl < k {
                let v = lvl as i64 + u;
                if v < 0 {
                    continue; // the counter would go negative: blocked
                }
                if push(v.min(k as i64) as usize, &mut stack) {
                    return false;
                }
            } else {
                // Top = all values ≥ k: after the step, values ≥ k + u. For
                // u < 0 some of them drop back into the tracked range.
                if push(k, &mut stack) {
                    return false;
                }
                if u < 0 {
                    for lvl2 in (k as i64 + u).max(0)..k as i64 {
                        if push(lvl2 as usize, &mut stack) {
                            return false;
                        }
                    }
                }
            }
        }
    }
    true
}

fn gcd(a: u64, b: u64) -> u64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coverability::CoverabilityGraph;
    use proptest::prelude::*;

    fn target_set(states: usize, target: usize) -> Vec<bool> {
        let mut t = vec![false; states];
        t[target] = true;
        t
    }

    /// Spend-before-earn: the total effect balances but the counter must go
    /// negative first — the truncation DFA catches it.
    #[test]
    fn dfa_refutes_spend_before_earn() {
        let mut v = Vass::new(3, 1);
        v.add_action(0, vec![-1], 1); // spend a token we never had
        v.add_action(1, vec![1], 2); // earn it back too late
        let reachable = control_reachable(&v, 0);
        assert!(reachable[2], "control skeleton alone cannot refute");
        assert!(counter_dfa_refutes(&v, 0, &target_set(3, 2), &reachable));
        // The exact search agrees, of course.
        assert!(!v.state_reachable(0, 2));
    }

    #[test]
    fn dfa_admits_the_producer_consumer() {
        let mut v = Vass::new(3, 1);
        v.add_action(0, vec![1], 0);
        v.add_action(0, vec![0], 1);
        v.add_action(1, vec![-1], 2);
        let reachable = control_reachable(&v, 0);
        assert!(!counter_dfa_refutes(&v, 0, &target_set(3, 2), &reachable));
    }

    /// Only a draining loop exists: no non-negative circulation through the
    /// accepting state, so the lasso relaxation refutes.
    #[test]
    fn circulation_refutes_draining_lasso() {
        let mut v = Vass::new(2, 1);
        v.add_action(0, vec![1], 0);
        v.add_action(0, vec![0], 1);
        v.add_action(1, vec![-1], 1);
        let reachable = control_reachable(&v, 0);
        assert!(z_lasso_feasible(&v, &target_set(2, 0), &reachable));
        assert!(!z_lasso_feasible(&v, &target_set(2, 1), &reachable));
    }

    /// `LP_WORK_CAP` is the one gate on the filter's simplex work: the same
    /// draining self-loop is refuted while its program is at the cap, and
    /// reported as "no refutation" once unreachable padding states push
    /// `(states + dim)² × edges` past it.
    #[test]
    fn lp_work_cap_turns_off_the_circulation_filter() {
        let lasso_refuted = |states: usize| {
            let mut v = Vass::new(states, 1);
            v.add_action(0, vec![-1], 0);
            let reachable = control_reachable(&v, 0);
            !z_lasso_feasible(&v, &target_set(states, 0), &reachable)
        };
        assert!(lasso_refuted(1));
        // One distinct reachable edge: the work is (states + 1)², and the cap
        // is exactly 2000².
        assert_eq!(lp_work(2000, 1), LP_WORK_CAP);
        assert!(lasso_refuted(1999), "at the cap the filter still runs");
        assert!(!lasso_refuted(2000), "past the cap the filter must not run");
    }

    /// A small random VASS for the refutation-soundness property tests.
    fn arb_vass() -> impl Strategy<Value = Vass> {
        (2usize..=5, 1usize..=2).prop_flat_map(|(states, dim)| {
            prop::collection::vec(
                (
                    0..states,
                    prop::collection::vec(-2i64..=2, dim),
                    0..states,
                ),
                1..=8,
            )
            .prop_map(move |actions| {
                let mut v = Vass::new(states, dim);
                for (from, delta, to) in actions {
                    v.add_action(from, delta, to);
                }
                v
            })
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The pre-solver refutations are sound against the exact capped
        /// search: DFA-refuted ⇒ the Karp–Miller graph contains no target
        /// node, and circulation-refuted ⇒ no non-negative cycle.
        #[test]
        fn refutations_are_sound_against_exact_search(v in arb_vass(), target_seed in 0usize..64) {
            let target = target_seed % v.states;
            let reachable = control_reachable(&v, 0);
            let targets = target_set(v.states, target);
            let graph = CoverabilityGraph::build_capped(&v, 0, 2_000);
            let covered = graph.nodes().any(|n| n.state == target);
            if counter_dfa_refutes(&v, 0, &targets, &reachable) {
                prop_assert!(!covered, "counter DFA refuted a coverable state");
            }
            if !z_lasso_feasible(&v, &targets, &reachable) {
                prop_assert!(
                    !graph.nonneg_cycle_through(&v, target),
                    "circulation refuted an existing lasso"
                );
            }
        }

    }
}
