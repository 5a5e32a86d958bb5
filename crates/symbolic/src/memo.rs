//! The task-level memo of the symbolic successor relation.
//!
//! The verifier explores one product `V(T, β)` per truth assignment `β`, but
//! the post-states of an internal service depend only on the task's
//! context, the enumeration caps, the service and the source state's
//! restriction to the task's input variables — never on `β` (only the
//! Büchi step does), and never on the source's other variables, which the
//! service rewrites. [`SuccessorMemo`] keeps those post lists for the whole
//! task, keyed by that restriction, so a list is enumerated once per task
//! for every source state that restricts to it (DESIGN.md §5.13).
//!
//! States are interned once into a task-level arena and the lists hold
//! arena ids, so a state reached under many services or assignments is
//! stored once. The arena holds the restrictions the keys name as well as
//! the post-states. The memo is filled lazily and emptied by
//! [`SuccessorMemo::release`] when the task's summary commits.
//!
//! The memo is safe to fill from several threads. No lock is held while a
//! list is enumerated: two callers that miss on the same key both
//! enumerate, and the first insert wins. Since a list is a pure function
//! of its key, the loser's list is identical, and callers see the same
//! list whichever wins.

use crate::state::SymState;
use has_vass::{FxHashMap, Interner};
use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard};

/// The key of one memoised post list.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct SuccessorKey {
    /// Index of the internal service in the task's service list.
    pub service: usize,
    /// The `max_successors` cap the list was enumerated under.
    pub max_successors: usize,
    /// The `max_merge_pairs` cap the list was enumerated under.
    pub max_merge_pairs: usize,
    /// Arena id ([`SuccessorMemo::intern`]) of the source state's
    /// restriction to the task's input variables
    /// ([`SymState::restriction`]): the only part of the source state the
    /// enumeration reads. Source states that differ only outside the inputs
    /// share one list.
    pub state: u32,
}

#[derive(Default)]
struct Inner {
    states: Interner<SymState>,
    posts: FxHashMap<SuccessorKey, Arc<[u32]>>,
}

/// Post lists of a task's internal services, keyed by [`SuccessorKey`],
/// over a task-level arena of symbolic states.
#[derive(Default)]
pub struct SuccessorMemo {
    inner: Mutex<Inner>,
}

impl SuccessorMemo {
    /// An empty memo.
    pub fn new() -> Self {
        Self::default()
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().expect("successor memo poisoned")
    }

    /// The arena id of `state`, interning a copy of it on first sight.
    pub fn intern(&self, state: &SymState) -> u32 {
        let mut inner = self.lock();
        match inner.states.lookup(state) {
            Some(id) => id,
            None => inner.states.intern(state.clone()).0,
        }
    }

    /// A copy of the state with arena id `id`.
    ///
    /// # Panics
    /// Panics if `id` was not returned by this memo since its last
    /// [`SuccessorMemo::release`].
    pub fn state(&self, id: u32) -> SymState {
        self.lock().states.get(id).clone()
    }

    /// The post list under `key` as arena ids, in enumeration order.
    /// On a miss, `enumerate` runs with no lock held and its list is
    /// stored, unless another caller stored one for `key` meanwhile; then
    /// that list is returned and `enumerate`'s is dropped.
    pub fn successors(
        &self,
        key: SuccessorKey,
        enumerate: impl FnOnce() -> Vec<SymState>,
    ) -> Arc<[u32]> {
        if let Some(ids) = self.lock().posts.get(&key) {
            return Arc::clone(ids);
        }
        let list = enumerate();
        let mut inner = self.lock();
        if let Some(ids) = inner.posts.get(&key) {
            return Arc::clone(ids);
        }
        let ids: Arc<[u32]> = list.into_iter().map(|s| inner.states.intern(s).0).collect();
        inner.posts.insert(key, Arc::clone(&ids));
        ids
    }

    /// Number of memoised post lists.
    pub fn len(&self) -> usize {
        self.lock().posts.len()
    }

    /// Whether no post list is memoised.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of states in the arena.
    pub fn state_count(&self) -> usize {
        self.lock().states.len()
    }

    /// Drops every list and state. Arena ids handed out before are invalid
    /// afterwards.
    pub fn release(&self) {
        *self.lock() = Inner::default();
    }
}

impl fmt::Debug for SuccessorMemo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inner = self.lock();
        f.debug_struct("SuccessorMemo")
            .field("lists", &inner.posts.len())
            .field("states", &inner.states.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TaskContext;
    use has_model::SystemBuilder;

    fn states() -> (SymState, SymState) {
        let mut b = SystemBuilder::new("memo");
        let root = b.root_task("Main");
        let y = b.num_var(root, "y");
        let system = b.build().unwrap();
        let ctx = TaskContext::build(&system, root, &[], 1);
        let blank = SymState::blank(&ctx, &system.schema);
        let mut fresh = blank.clone();
        fresh.fresh_numeric(&ctx, y);
        (blank, fresh)
    }

    fn key(state: u32, max_successors: usize, max_merge_pairs: usize) -> SuccessorKey {
        SuccessorKey {
            service: 0,
            max_successors,
            max_merge_pairs,
            state,
        }
    }

    #[test]
    fn lists_under_different_caps_never_alias() {
        let (blank, fresh) = states();
        let memo = SuccessorMemo::new();
        let src = memo.intern(&blank);
        let a = memo.successors(key(src, 4, 6), || vec![blank.clone()]);
        let b = memo.successors(key(src, 4, 12), || vec![fresh.clone()]);
        let c = memo.successors(key(src, 8, 6), || vec![fresh.clone(), blank.clone()]);
        assert_eq!(memo.len(), 3);
        assert_eq!(memo.state_count(), 2, "each state is stored once");
        let states_of = |ids: &[u32]| ids.iter().map(|&i| memo.state(i)).collect::<Vec<_>>();
        assert_eq!(states_of(&a), vec![blank.clone()]);
        assert_eq!(states_of(&b), vec![fresh.clone()]);
        assert_eq!(states_of(&c), vec![fresh.clone(), blank.clone()]);
        // A hit returns the stored list and never enumerates.
        let again = memo.successors(key(src, 4, 12), || unreachable!("memoised"));
        assert_eq!(again, b);
    }

    #[test]
    fn release_empties_the_memo() {
        let (blank, fresh) = states();
        let memo = SuccessorMemo::new();
        let src = memo.intern(&blank);
        memo.successors(key(src, 4, 6), || vec![fresh.clone()]);
        assert!(!memo.is_empty());
        memo.release();
        assert!(memo.is_empty());
        assert_eq!(memo.state_count(), 0);
        // Filled again from scratch after the release.
        let src = memo.intern(&fresh);
        let ids = memo.successors(key(src, 4, 6), || vec![blank.clone()]);
        assert_eq!(memo.state(ids[0]), blank);
    }
}
