//! Query pre-solver: static refutation filters per Lemma 21 query
//! (DESIGN.md §5.11).
//!
//! Every `(T, β, τ_in)` triple the verifier examines spawns three
//! sub-queries over the task's VASS — the *returning*, *blocking* and
//! *lasso* paths of Lemma 21 — and each historically paid for a Karp–Miller
//! graph before answering. [`presolve_query`] runs a hierarchy of sound
//! refutation filters over the raw VASS first, cheapest first:
//!
//! 1. **control skeleton** — plain reachability with counters ignored
//!    ([`has_vass::control_reachable`]);
//! 2. **counter-abstraction DFA** — per-dimension gcd-normalized truncation
//!    automata in product with the control skeleton
//!    ([`has_vass::counter_dfa_refutes`]);
//! 3. **circulation** — for the lasso sub-query only, the per-SCC
//!    non-negative-cycle decision on the control skeleton
//!    ([`has_vass::z_lasso_feasible`]).
//!
//! Each filter is a *necessary condition* on the exact answer, so a
//! refutation is definitive: the sub-query's answer is "empty" and the
//! verifier can skip the corresponding scan — and when all three sub-queries
//! are refuted, the Karp–Miller build itself. The circulation filter, the
//! only one that solves linear programs, gates itself on a structural work
//! estimate (`has-vass`'s `LP_WORK_CAP`), reporting "no refutation" on
//! programs whose exact solve would cost more than the build it could skip
//! — the gate reads only the program's shape, never the clock, so verdicts
//! stay deterministic. Because the capped build under-approximates
//! reachability (everything it finds is genuinely coverable), skipping
//! refuted work can never change a verdict, a witness, or their order —
//! which is why the determinism contract (byte-identical verdicts with the
//! pre-solver on and off, DESIGN.md §5.11) holds by construction rather
//! than by replay.
//!
//! The per-filter verdict counts aggregate into [`PresolveStats`] (surfaced
//! through the verifier's `Stats` and `tables --json`) and render as the
//! `HAS111`, `HAS112`, `HAS114` and `HAS115` diagnostics of
//! [`presolve_diagnostics`].

use crate::diagnostic::Diagnostic;
use has_vass::{control_reachable, counter_dfa_refutes, z_lasso_feasible, Vass};

/// Which filter of the pre-solve hierarchy refuted a sub-query.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Refutation {
    /// No target control state is reachable in the control skeleton.
    Control,
    /// Every target is unreachable in some counter-abstraction DFA product.
    CounterDfa,
    /// No non-negative-effect control cycle through an accepting state.
    Circulation,
}

/// The pre-solver's verdicts for one `(T, β, τ_in)` query triple: one
/// optional refutation per Lemma 21 sub-query. The default refutes nothing
/// (the verifier's answer with the pre-solver off).
#[derive(Clone, Debug, Default)]
pub struct QueryPresolve {
    /// Refutation of the *returning* sub-query, if any.
    pub returning: Option<Refutation>,
    /// Refutation of the *blocking* sub-query, if any.
    pub blocking: Option<Refutation>,
    /// Refutation of the *lasso* sub-query, if any.
    pub lasso: Option<Refutation>,
}

impl QueryPresolve {
    /// Whether all three sub-queries are refuted — the Karp–Miller build is
    /// skipped outright.
    pub fn skip_build(&self) -> bool {
        self.returning.is_some() && self.blocking.is_some() && self.lasso.is_some()
    }
}

/// Runs the pre-solve filter hierarchy for one query triple.
///
/// `returning` and `blocking` are the target control-state sets of the two
/// coverability sub-queries; `accepting` marks the Büchi-accepting control
/// states of the lasso sub-query. All three are indexed by VASS control
/// state. The filters run cheapest-first and stop at the first refutation
/// per sub-query.
pub fn presolve_query(
    vass: &Vass,
    init: usize,
    returning: &[bool],
    blocking: &[bool],
    accepting: &[bool],
) -> QueryPresolve {
    let reachable = control_reachable(vass, init);
    let cover = |targets: &[bool]| -> Option<Refutation> {
        if !targets.iter().zip(&reachable).any(|(&t, &r)| t && r) {
            return Some(Refutation::Control);
        }
        if counter_dfa_refutes(vass, init, targets, &reachable) {
            return Some(Refutation::CounterDfa);
        }
        None
    };
    // A lasso must first *cover* an accepting state, so the coverability
    // filters apply to the accepting set too; only then is the pump cycle
    // itself interrogated.
    let lasso = cover(accepting).or_else(|| {
        if !z_lasso_feasible(vass, accepting, &reachable) {
            Some(Refutation::Circulation)
        } else {
            None
        }
    });
    QueryPresolve {
        returning: cover(returning),
        blocking: cover(blocking),
        lasso,
    }
}

/// Aggregated pre-solver verdict counts: how many sub-queries each filter
/// decided, across every `(T, β, τ_in)` triple of a verification run. The
/// verifier surfaces these through its `Stats` (summing over tasks with the
/// same commutative absorption as every other cost metric) and `tables
/// --json` emits them as per-filter columns.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PresolveStats {
    /// Lemma 21 sub-queries examined (three per query triple).
    pub queries: usize,
    /// Sub-queries statically refuted by some filter.
    pub decided: usize,
    /// …of which by the control-skeleton filter.
    pub control: usize,
    /// Always 0: the state-equation filter that counted here is deleted.
    /// Kept only because the benchmark in `verifbench/` still reads it; the
    /// next benchmark change drops that read and this field with it.
    pub state_eq: usize,
    /// …of which by a counter-abstraction DFA.
    pub counter_dfa: usize,
    /// …of which by the lasso circulation decision.
    pub circulation: usize,
    /// Karp–Miller builds skipped outright (all three sub-queries refuted).
    pub skipped_builds: usize,
    /// Always 0: the boundedness certificates that counted here are
    /// deleted. Kept only because the benchmark in `verifbench/` still reads
    /// it; the next benchmark change drops that read and this field with it.
    pub bounded_dims: usize,
}

impl PresolveStats {
    /// Records one query triple's verdicts.
    pub fn record(&mut self, query: &QueryPresolve) {
        self.queries += 3;
        for refutation in [query.returning, query.blocking, query.lasso]
            .into_iter()
            .flatten()
        {
            self.decided += 1;
            match refutation {
                Refutation::Control => self.control += 1,
                Refutation::CounterDfa => self.counter_dfa += 1,
                Refutation::Circulation => self.circulation += 1,
            }
        }
        if query.skip_build() {
            self.skipped_builds += 1;
        }
    }

    /// Adds `other` into `self` (commutative, like the verifier's
    /// `Stats::absorb`).
    pub fn absorb(&mut self, other: &PresolveStats) {
        self.queries += other.queries;
        self.decided += other.decided;
        self.control += other.control;
        self.counter_dfa += other.counter_dfa;
        self.circulation += other.circulation;
        self.skipped_builds += other.skipped_builds;
    }
}

/// Renders aggregated pre-solver counts as the stable informational
/// diagnostics `tables -- analyze` reports per workload: the
/// statically-decided total (`HAS111`) and the per-filter refutation counts
/// (`HAS112`, `HAS114`, `HAS115`, emitted only when non-zero). `HAS113`
/// (state equation) and `HAS116` (certified bounds) are retired with the
/// filters they reported and are never reused.
pub fn presolve_diagnostics(stats: &PresolveStats) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    if stats.queries == 0 {
        return out;
    }
    out.push(Diagnostic::info(
        111,
        format!(
            "pre-solver statically decided {} of {} coverability/lasso sub-queries \
             ({} Karp–Miller builds skipped outright)",
            stats.decided, stats.queries, stats.skipped_builds
        ),
    ));
    for (code, count, what) in [
        (112, stats.control, "refuted by the control skeleton"),
        (114, stats.counter_dfa, "refuted by a counter-abstraction DFA"),
        (115, stats.circulation, "refuted by the lasso circulation decision"),
    ] {
        if count > 0 {
            out.push(Diagnostic::info(code, format!("{count} sub-query(ies) {what}")));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(states: usize, on: &[usize]) -> Vec<bool> {
        let mut s = vec![false; states];
        for &q in on {
            s[q] = true;
        }
        s
    }

    /// The producer/consumer chain: returning at the drained end is real,
    /// blocking at a control-unreachable state refutes, lasso through the
    /// pump loop is real.
    #[test]
    fn filters_fire_per_sub_query() {
        // 0 pumps, 0 → 1 switches, 1 drains, 1 → 2 pays one token; state 3
        // is control-unreachable.
        let mut v = Vass::new(4, 1);
        v.add_action(0, vec![1], 0);
        v.add_action(0, vec![0], 1);
        v.add_action(1, vec![-1], 1);
        v.add_action(1, vec![-1], 2);
        let q = presolve_query(
            &v,
            0,
            &set(4, &[2]),  // returning: reachable by paying a token
            &set(4, &[3]),  // blocking: control-unreachable
            &set(4, &[0]),  // lasso: the pump loop
        );
        assert_eq!(q.returning, None);
        assert_eq!(q.blocking, Some(Refutation::Control));
        assert_eq!(q.lasso, None);
        assert!(!q.skip_build());
    }

    #[test]
    fn fully_refuted_query_skips_the_build() {
        // Everything needs a token that is never produced.
        let mut v = Vass::new(3, 1);
        v.add_action(0, vec![-1], 1);
        v.add_action(1, vec![0], 1);
        let q = presolve_query(&v, 0, &set(3, &[1]), &set(3, &[2]), &set(3, &[1]));
        assert_eq!(q.returning, Some(Refutation::CounterDfa));
        assert_eq!(q.blocking, Some(Refutation::Control));
        assert_eq!(q.lasso, Some(Refutation::CounterDfa));
        assert!(q.skip_build());
    }

    #[test]
    fn stats_record_and_render() {
        let mut v = Vass::new(2, 1);
        v.add_action(0, vec![-1], 1);
        let q = presolve_query(&v, 0, &set(2, &[1]), &set(2, &[1]), &set(2, &[1]));
        let mut stats = PresolveStats::default();
        stats.record(&q);
        assert_eq!(stats.queries, 3);
        assert_eq!(stats.decided, 3);
        assert_eq!(stats.skipped_builds, 1);
        let mut total = PresolveStats::default();
        total.absorb(&stats);
        total.absorb(&stats);
        assert_eq!(total.queries, 6);
        let diags = presolve_diagnostics(&total);
        assert!(diags.iter().any(|d| d.code == 111), "{diags:?}");
        assert!(
            diags.iter().all(|d| [111, 112, 114, 115].contains(&d.code)),
            "{diags:?}"
        );
        assert!(presolve_diagnostics(&PresolveStats::default()).is_empty());
    }
}
