//! The VASS model and its decision procedures.

use crate::coverability::CoverabilityGraph;
use std::fmt;

/// An action `(from, δ, to)`: move from control state `from` to `to`, adding
/// `δ` to the counter vector (which must stay non-negative).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Action {
    /// Source control state.
    pub from: usize,
    /// Counter delta.
    pub delta: Vec<i64>,
    /// Target control state.
    pub to: usize,
}

/// A Vector Addition System with States.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Vass {
    /// Number of control states.
    pub states: usize,
    /// Vector dimension.
    pub dim: usize,
    /// Actions.
    pub actions: Vec<Action>,
}

impl Vass {
    /// Creates a VASS with the given number of control states and dimension.
    pub fn new(states: usize, dim: usize) -> Self {
        Vass {
            states,
            dim,
            actions: Vec::new(),
        }
    }

    /// Adds an action.
    ///
    /// # Panics
    /// Panics if the states are out of range or the delta has the wrong
    /// dimension.
    pub fn add_action(&mut self, from: usize, delta: Vec<i64>, to: usize) {
        assert!(from < self.states && to < self.states, "state out of range");
        assert_eq!(delta.len(), self.dim, "delta dimension mismatch");
        self.actions.push(Action { from, delta, to });
    }

    /// Actions leaving a control state.
    ///
    /// This scans the whole action list; callers that repeatedly expand
    /// states (graph construction, explicit exploration) should precompute
    /// [`Vass::adjacency`] once instead.
    pub fn actions_from(&self, state: usize) -> impl Iterator<Item = (usize, &Action)> {
        self.actions
            .iter()
            .enumerate()
            .filter(move |(_, a)| a.from == state)
    }

    /// Per-state adjacency: `adjacency()[s]` lists the indices of the actions
    /// leaving state `s`, in insertion order. One O(|actions|) pass replaces
    /// the per-expansion scans of [`Vass::actions_from`].
    pub fn adjacency(&self) -> Vec<Vec<usize>> {
        let mut adj: Vec<Vec<usize>> = vec![Vec::new(); self.states];
        for (i, a) in self.actions.iter().enumerate() {
            adj[a.from].push(i);
        }
        adj
    }

    /// Per-state adjacency in CSR form: two flat arrays instead of one
    /// allocation per state. [`ActionCsr::actions_from`] returns the action
    /// indices leaving a state, in insertion order (the same order as
    /// [`Vass::adjacency`]). This is what the hot graph constructions use;
    /// [`Vass::adjacency`] remains for callers that want owned per-state
    /// lists.
    pub fn action_csr(&self) -> ActionCsr {
        let mut offsets = vec![0u32; self.states + 1];
        for a in &self.actions {
            offsets[a.from + 1] += 1;
        }
        for s in 0..self.states {
            offsets[s + 1] += offsets[s];
        }
        let mut actions = vec![0u32; self.actions.len()];
        let mut cursor = offsets.clone();
        for (i, a) in self.actions.iter().enumerate() {
            actions[cursor[a.from] as usize] = i as u32;
            cursor[a.from] += 1;
        }
        ActionCsr { offsets, actions }
    }

    /// Decides control-state reachability from `(init, 0̄)`: is there a run
    /// reaching some configuration with control state `target`?
    ///
    /// The coverability-graph construction stops as soon as the target is
    /// discovered ([`CoverabilityGraph::build_to_state`]) rather than
    /// building the whole graph.
    pub fn state_reachable(&self, init: usize, target: usize) -> bool {
        if init == target {
            return true;
        }
        let graph = CoverabilityGraph::build_to_state(self, init, target);
        let reachable = graph.nodes().any(|n| n.state == target);
        reachable
    }

    /// Like [`Vass::state_reachable`], but also returns the witnessing action
    /// sequence through the coverability graph (a *pseudo-run*: on
    /// ω-accelerated coordinates, a concrete run may need to repeat pumping
    /// loops; the control-state projection is nevertheless realizable).
    pub fn state_reachable_witness(&self, init: usize, target: usize) -> Option<Vec<usize>> {
        let graph = CoverabilityGraph::build_to_state(self, init, target);
        graph.path_to_state(target)
    }

    /// Decides state repeated reachability from `(init, 0̄)`: is there a run
    /// `(init, 0̄) →* (target, v̄) →⁺ (target, v̄')` with `v̄ ≤ v̄'`
    /// componentwise? (Lemma 21's lasso condition.)
    ///
    /// The decision is exact: it looks for a cycle through a
    /// coverability-graph node with control state `target` whose summed
    /// action delta is componentwise non-negative, decided by circulation
    /// feasibility per strongly connected component (see [`crate::cycle`]).
    /// The `max_cycle_len` parameter of earlier versions is gone — the old
    /// bounded search silently missed lassos longer than its cap.
    pub fn state_repeated_reachable(&self, init: usize, target: usize) -> bool {
        let graph = CoverabilityGraph::build(self, init);
        graph.nonneg_cycle_through(self, target)
    }

    /// Number of actions.
    pub fn action_count(&self) -> usize {
        self.actions.len()
    }
}

/// Compressed-sparse-row action adjacency of a [`Vass`] (see
/// [`Vass::action_csr`]): `offsets` has one entry per state plus a
/// terminator, `actions` holds the action indices grouped by source state.
#[derive(Clone, Debug)]
pub struct ActionCsr {
    offsets: Vec<u32>,
    actions: Vec<u32>,
}

impl ActionCsr {
    /// The indices of the actions leaving `state`, in insertion order.
    pub fn actions_from(&self, state: usize) -> &[u32] {
        &self.actions[self.offsets[state] as usize..self.offsets[state + 1] as usize]
    }
}

impl fmt::Display for Vass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Vass({} states, dim {}, {} actions)",
            self.states,
            self.dim,
            self.actions.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A producer/consumer VASS: state 0 pumps the counter, state 1 drains it.
    fn producer_consumer() -> Vass {
        let mut v = Vass::new(3, 1);
        v.add_action(0, vec![1], 0); // produce
        v.add_action(0, vec![0], 1); // switch
        v.add_action(1, vec![-1], 1); // consume
        v.add_action(1, vec![-1], 2); // finish (requires one token)
        v
    }

    #[test]
    fn reachability_through_counters() {
        let v = producer_consumer();
        assert!(v.state_reachable(0, 1));
        assert!(v.state_reachable(0, 2));
        assert!(!v.state_reachable(1, 0));
        let w = v.state_reachable_witness(0, 2).unwrap();
        assert!(!w.is_empty());
    }

    #[test]
    fn unreachable_when_counter_cannot_be_paid() {
        // Reaching state 1 requires decrementing from zero: impossible.
        let mut v = Vass::new(2, 1);
        v.add_action(0, vec![-1], 1);
        assert!(!v.state_reachable(0, 1));
        assert!(v.state_reachable(0, 0));
    }

    #[test]
    fn repeated_reachability_of_pumping_state() {
        let v = producer_consumer();
        // State 0 loops with +1: repeatedly reachable.
        assert!(v.state_repeated_reachable(0, 0));
        // State 1 loops with -1 only: a cycle exists in the coverability
        // graph (counter is ω) but its effect is negative, so it is *not*
        // repeatedly reachable... unless the counter can be pumped before
        // each visit — which it cannot once in state 1. Expect false.
        assert!(!v.state_repeated_reachable(1, 1));
        // State 2 has no outgoing actions: not repeatedly reachable.
        assert!(!v.state_repeated_reachable(0, 2));
    }

    #[test]
    fn repeated_reachability_with_balanced_cycle() {
        // 0 -> 1 (+1), 1 -> 0 (-1): a balanced cycle through both states.
        let mut v = Vass::new(2, 1);
        v.add_action(0, vec![1], 1);
        v.add_action(1, vec![-1], 0);
        assert!(v.state_repeated_reachable(0, 0));
        assert!(v.state_repeated_reachable(0, 1));
    }

    #[test]
    fn self_loop_without_counters_is_a_lasso() {
        let mut v = Vass::new(1, 0);
        v.add_action(0, vec![], 0);
        assert!(v.state_repeated_reachable(0, 0));
    }

    #[test]
    fn no_actions_means_no_lasso() {
        let v = Vass::new(1, 0);
        assert!(!v.state_repeated_reachable(0, 0));
        assert!(v.state_reachable(0, 0));
    }

    #[test]
    #[should_panic]
    fn wrong_dimension_panics() {
        let mut v = Vass::new(1, 2);
        v.add_action(0, vec![1], 0);
    }
}
