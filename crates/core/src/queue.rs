//! Keyed priority queues for scheduler lists.
//!
//! Every policy in this crate maintains one or more *lists* of transactions
//! (or workflows) ordered by some key — deadline for EDF, remaining time for
//! SRPT, density for HDF, latest start time for the ASETS\* migration index.
//! Beyond `peek-min`/`pop-min` they all need `remove(id)` (a transaction can
//! leave a list from the middle: it completes, migrates between lists, or is
//! preempted and re-keyed). The paper suggests "the standard balanced binary
//! search tree" for `O(log N)` updates; [`KeyedQueue`] is exactly that —
//! a `BTreeSet<(K, u32)>` plus a dense id → key back-index so removal never
//! scans.
//!
//! Keys must be totally ordered and `Copy`. Ties are broken by id, which
//! makes every policy deterministic for a given workload (important for the
//! seed-reproducible experiments and for the policy-vs-oracle property
//! tests).

use std::collections::BTreeSet;

/// A priority queue over dense `u32` ids with `O(log n)` insert, remove,
/// re-key, and min queries. Smallest key wins; ties break toward the
/// smaller id.
#[derive(Debug, Clone, Default)]
pub struct KeyedQueue<K: Ord + Copy> {
    set: BTreeSet<(K, u32)>,
    key_of: Vec<Option<K>>,
}

impl<K: Ord + Copy> KeyedQueue<K> {
    /// An empty queue.
    pub fn new() -> Self {
        KeyedQueue {
            set: BTreeSet::new(),
            key_of: Vec::new(),
        }
    }

    /// An empty queue with the back-index pre-sized for ids `0..capacity`.
    pub fn with_capacity(capacity: usize) -> Self {
        KeyedQueue {
            set: BTreeSet::new(),
            key_of: vec![None; capacity],
        }
    }

    /// Number of entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.set.len()
    }

    /// True iff no entries.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.set.is_empty()
    }

    /// True iff `id` is present.
    #[inline]
    pub fn contains(&self, id: u32) -> bool {
        self.key_of.get(id as usize).is_some_and(|k| k.is_some())
    }

    /// The key currently associated with `id`, if present.
    #[inline]
    pub fn key_of(&self, id: u32) -> Option<K> {
        self.key_of.get(id as usize).copied().flatten()
    }

    /// Insert `id` with `key`.
    ///
    /// # Panics
    /// If `id` is already present — callers are expected to know; a silent
    /// upsert here has historically masked list-migration bugs.
    pub fn insert(&mut self, id: u32, key: K) {
        let slot = self.slot_mut(id);
        assert!(slot.is_none(), "id {id} inserted twice");
        *slot = Some(key);
        let fresh = self.set.insert((key, id));
        debug_assert!(fresh);
    }

    /// Remove `id`. Returns its key, or `None` if it was not present.
    pub fn remove(&mut self, id: u32) -> Option<K> {
        let key = self.key_of.get_mut(id as usize)?.take()?;
        let removed = self.set.remove(&(key, id));
        debug_assert!(removed, "back-index said present but set entry missing");
        Some(key)
    }

    /// Change the key of `id` (must be present). Returns early when the key
    /// is unchanged — re-keys at zero-service pauses are common (the engine
    /// requeues the running transaction at every scheduling point, whether
    /// or not it accrued service), and skipping them avoids 2× BTree churn.
    ///
    /// # Panics
    /// If `id` is not present.
    pub fn rekey(&mut self, id: u32, new_key: K) {
        let slot = self
            .key_of
            .get_mut(id as usize)
            .and_then(|s| s.as_mut())
            .unwrap_or_else(|| panic!("rekey of absent id {id}"));
        let old = *slot;
        if old == new_key {
            // The fast path must still be backed by a live set entry — a
            // missing one means the back-index and set disagreed *before*
            // this call, and the early return would mask the corruption.
            debug_assert!(
                self.set.contains(&(old, id)),
                "no-op rekey of id {id}: back-index present but set entry missing"
            );
            return;
        }
        *slot = new_key;
        let removed = self.set.remove(&(old, id));
        debug_assert!(removed, "back-index said present but set entry missing");
        let fresh = self.set.insert((new_key, id));
        debug_assert!(fresh);
    }

    /// The (key, id) pair with the smallest key, without removing it.
    #[inline]
    pub fn peek(&self) -> Option<(K, u32)> {
        self.set.first().copied()
    }

    /// The id with the smallest key, without removing it.
    #[inline]
    pub fn peek_id(&self) -> Option<u32> {
        self.peek().map(|(_, id)| id)
    }

    /// Remove and return the (key, id) pair with the smallest key.
    pub fn pop(&mut self) -> Option<(K, u32)> {
        let entry = self.set.pop_first()?;
        self.key_of[entry.1 as usize] = None;
        Some(entry)
    }

    /// The ids of the `k` smallest-key entries, in key order (ties toward
    /// the smaller id), without disturbing the queue. Returns fewer than `k`
    /// ids when the queue is shorter. This is the multi-server `select_many`
    /// primitive: the engine wants the policy's top-M ranking, and the queue
    /// must look untouched afterwards (selection *peeks*).
    pub fn top_k(&self, k: usize) -> Vec<u32> {
        let mut out = Vec::with_capacity(k.min(self.set.len()));
        self.top_k_into(k, &mut out);
        out
    }

    /// [`KeyedQueue::top_k`] into a caller-owned buffer (appends; does not
    /// clear) — the zero-alloc variant for the engine's steady-state loop.
    pub fn top_k_into(&self, k: usize, out: &mut Vec<u32>) {
        out.extend(self.set.iter().take(k).map(|&(_, id)| id));
    }

    /// Insert a batch of `(id, key)` entries — the bulk twin of
    /// [`KeyedQueue::insert`], with the same per-entry double-insert panic.
    pub fn extend(&mut self, entries: impl IntoIterator<Item = (u32, K)>) {
        for (id, key) in entries {
            self.insert(id, key);
        }
    }

    /// Drain every entry whose key is `<= bound`, in key order. This is the
    /// ASETS\* migration primitive: with keys = latest start times, draining
    /// up to `now` yields exactly the transactions that just became
    /// infeasible and must move from the EDF-List to the SRPT-List.
    pub fn drain_up_to(&mut self, bound: K) -> Vec<(K, u32)> {
        let mut out = Vec::new();
        self.drain_up_to_into(bound, &mut out);
        out
    }

    /// [`KeyedQueue::drain_up_to`] into a caller-owned buffer (appends; does
    /// not clear) — the zero-alloc variant for the migration hot path.
    pub fn drain_up_to_into(&mut self, bound: K, out: &mut Vec<(K, u32)>) {
        while let Some(&(k, id)) = self.set.first() {
            if k > bound {
                break;
            }
            self.set.pop_first();
            self.key_of[id as usize] = None;
            out.push((k, id));
        }
    }

    /// Iterate entries in key order (ascending).
    pub fn iter(&self) -> impl Iterator<Item = (K, u32)> + '_ {
        self.set.iter().copied()
    }

    /// Remove all entries.
    pub fn clear(&mut self) {
        self.set.clear();
        self.key_of.iter_mut().for_each(|s| *s = None);
    }

    fn slot_mut(&mut self, id: u32) -> &mut Option<K> {
        let idx = id as usize;
        if idx >= self.key_of.len() {
            self.key_of.resize(idx + 1, None);
        }
        &mut self.key_of[idx]
    }
}

/// A fixed-capacity tournament tree over a dense id space `0..n`: answers
/// min-by-key over the present ids in O(1) (the root) with O(log n) updates —
/// all on two flat vectors, no allocation after construction. Smallest key
/// wins; ties break toward the smaller id, exactly like [`KeyedQueue`], so
/// the two are drop-in interchangeable for deterministic scheduler lists.
///
/// Prefer this over [`KeyedQueue`] when the id space is dense and known up
/// front (workflow ids, member positions): updates are `log₂ n` adjacent
/// reads on contiguous memory instead of B-tree node churn, which is what
/// makes per-event index maintenance profitable even for small `n`. Keep
/// [`KeyedQueue`] when ids are sparse or the population is unbounded.
#[derive(Debug, Clone)]
pub struct MinTree<K: Ord + Copy> {
    /// Leaf keys by id; `None` = absent.
    keys: Vec<Option<K>>,
    /// `tree[i]` = winning id of the subtree rooted at `i` (`u32::MAX` when
    /// the subtree is empty). Leaves live at `tree[n + id]`; the root
    /// `tree[1]` covers every id.
    tree: Vec<u32>,
    n: usize,
    len: usize,
}

const ABSENT: u32 = u32::MAX;

impl<K: Ord + Copy> MinTree<K> {
    /// An empty tree over ids `0..capacity`.
    pub fn new(capacity: usize) -> Self {
        let n = capacity.max(1);
        MinTree {
            keys: vec![None; n],
            tree: vec![ABSENT; 2 * n],
            n,
            len: 0,
        }
    }

    /// Number of present ids.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True iff no ids are present.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// True iff `id` is present.
    #[inline]
    pub fn contains(&self, id: u32) -> bool {
        self.keys[id as usize].is_some()
    }

    /// The key currently associated with `id`, if present.
    #[inline]
    pub fn key_of(&self, id: u32) -> Option<K> {
        self.keys[id as usize]
    }

    /// Set (insert or re-key, with `Some`) or clear (with `None`) the key at
    /// `id` and rebuild the winner path. Free when the key is unchanged —
    /// re-keys at zero-service pauses are common and cost one comparison.
    pub fn set(&mut self, id: u32, key: Option<K>) {
        let p = id as usize;
        if self.keys[p] == key {
            // The skipped update must already be reflected at the leaf —
            // a mismatch means a prior update corrupted the tree and the
            // no-op would mask it.
            debug_assert_eq!(
                self.tree[self.n + p],
                if key.is_some() { id } else { ABSENT },
                "no-op set of id {id}: leaf disagrees with key table"
            );
            return;
        }
        self.len = self.len + usize::from(key.is_some()) - usize::from(self.keys[p].is_some());
        self.keys[p] = key;
        let mut i = self.n + p;
        self.tree[i] = if key.is_some() { id } else { ABSENT };
        while i > 1 {
            i >>= 1;
            self.tree[i] = self.pick(self.tree[2 * i], self.tree[2 * i + 1]);
        }
    }

    fn pick(&self, a: u32, b: u32) -> u32 {
        if a == ABSENT {
            return b;
        }
        if b == ABSENT {
            return a;
        }
        let ka = self.keys[a as usize].expect("winner present");
        let kb = self.keys[b as usize].expect("winner present");
        if (kb, b) < (ka, a) {
            b
        } else {
            a
        }
    }

    /// The (key, id) pair with the smallest key, without removing it.
    #[inline]
    pub fn peek(&self) -> Option<(K, u32)> {
        let p = self.tree[1];
        if p == ABSENT {
            None
        } else {
            Some((self.keys[p as usize].expect("winner present"), p))
        }
    }

    /// The id with the smallest key, without removing it.
    #[inline]
    pub fn peek_id(&self) -> Option<u32> {
        self.peek().map(|(_, id)| id)
    }

    /// Write a batch of leaves without per-entry winner-path walks, then
    /// rebuild every internal node bottom-up in O(n) — the bulk twin of
    /// repeated [`MinTree::set`] calls. With k updates, incremental
    /// maintenance costs k·O(log n) while this costs O(n) flat, so the
    /// rebuild wins once `k·log₂ n ≳ n` (the engine's batch crossover).
    pub fn bulk_build(&mut self, entries: impl IntoIterator<Item = (u32, Option<K>)>) {
        for (id, key) in entries {
            let p = id as usize;
            self.len = self.len + usize::from(key.is_some()) - usize::from(self.keys[p].is_some());
            self.keys[p] = key;
            self.tree[self.n + p] = if key.is_some() { id } else { ABSENT };
        }
        for i in (1..self.n).rev() {
            self.tree[i] = self.pick(self.tree[2 * i], self.tree[2 * i + 1]);
        }
    }

    /// Append the `k` smallest-key present ids, in key order (ties toward
    /// the smaller id), without removing them — the tournament-tree twin of
    /// [`KeyedQueue::top_k_into`]. The tree answers only the minimum in
    /// O(1), so this scans the leaves and partially sorts: O(n + k log k).
    /// It is a cold-path primitive (multi-slot fills), not part of
    /// per-event index maintenance.
    pub fn top_k_into(&self, k: usize, out: &mut Vec<(K, u32)>) {
        if k == 0 || self.len == 0 {
            return;
        }
        let start = out.len();
        out.extend(
            self.keys
                .iter()
                .enumerate()
                .filter_map(|(id, key)| key.map(|key| (key, id as u32))),
        );
        let present = out.len() - start;
        let keep = k.min(present);
        if keep < present {
            out[start..].select_nth_unstable(keep - 1);
            out.truncate(start + keep);
        }
        out[start..].sort_unstable();
    }

    /// Drain every entry whose key is `<= bound`, in key order — the same
    /// migration primitive as [`KeyedQueue::drain_up_to`].
    pub fn drain_up_to(&mut self, bound: K) -> Vec<(K, u32)> {
        let mut out = Vec::new();
        self.drain_up_to_into(bound, &mut out);
        out
    }

    /// [`MinTree::drain_up_to`] into a caller-owned buffer (appends; does
    /// not clear) — the zero-alloc variant for the migration hot path.
    pub fn drain_up_to_into(&mut self, bound: K, out: &mut Vec<(K, u32)>) {
        while let Some((k, id)) = self.peek() {
            if k > bound {
                break;
            }
            self.set(id, None);
            out.push((k, id));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn min_order_with_tie_break_by_id() {
        let mut q = KeyedQueue::new();
        q.insert(3, 10u64);
        q.insert(1, 10u64);
        q.insert(2, 5u64);
        assert_eq!(q.peek(), Some((5, 2)));
        assert_eq!(q.pop(), Some((5, 2)));
        assert_eq!(q.pop(), Some((10, 1)), "equal keys break toward smaller id");
        assert_eq!(q.pop(), Some((10, 3)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn remove_from_middle() {
        let mut q = KeyedQueue::new();
        for (id, k) in [(0u32, 3u64), (1, 1), (2, 2)] {
            q.insert(id, k);
        }
        assert_eq!(q.remove(2), Some(2));
        assert!(!q.contains(2));
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop(), Some((1, 1)));
        assert_eq!(q.pop(), Some((3, 0)));
    }

    #[test]
    fn remove_absent_is_none() {
        let mut q: KeyedQueue<u64> = KeyedQueue::new();
        assert_eq!(q.remove(7), None);
        q.insert(7, 1);
        assert_eq!(q.remove(7), Some(1));
        assert_eq!(q.remove(7), None, "second removal is a no-op");
    }

    #[test]
    fn rekey_moves_position() {
        let mut q = KeyedQueue::new();
        q.insert(0, 10u64);
        q.insert(1, 20u64);
        q.rekey(1, 5);
        assert_eq!(q.peek(), Some((5, 1)));
        assert_eq!(q.key_of(1), Some(5));
    }

    #[test]
    fn rekey_same_key_is_noop() {
        let mut q = KeyedQueue::new();
        q.insert(0, 10u64);
        q.insert(1, 20u64);
        q.rekey(1, 20);
        assert_eq!(q.key_of(1), Some(20));
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek(), Some((10, 0)));
        assert_eq!(q.pop(), Some((10, 0)));
        assert_eq!(q.pop(), Some((20, 1)), "entry survives an unchanged rekey");
    }

    #[test]
    #[should_panic(expected = "inserted twice")]
    fn double_insert_panics() {
        let mut q = KeyedQueue::new();
        q.insert(0, 1u64);
        q.insert(0, 2u64);
    }

    #[test]
    #[should_panic(expected = "rekey of absent")]
    fn rekey_absent_panics() {
        let mut q: KeyedQueue<u64> = KeyedQueue::new();
        q.rekey(0, 1);
    }

    #[test]
    fn drain_up_to_takes_exactly_the_prefix() {
        let mut q = KeyedQueue::new();
        for (id, k) in [(0u32, 1u64), (1, 3), (2, 5), (3, 7)] {
            q.insert(id, k);
        }
        let drained = q.drain_up_to(5);
        assert_eq!(drained, vec![(1, 0), (3, 1), (5, 2)], "bound is inclusive");
        assert_eq!(q.len(), 1);
        assert!(q.contains(3));
    }

    #[test]
    fn drain_up_to_empty_prefix() {
        let mut q = KeyedQueue::new();
        q.insert(0, 10u64);
        assert!(q.drain_up_to(5).is_empty());
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn top_k_peeks_prefix_in_key_order() {
        let mut q = KeyedQueue::new();
        for (id, k) in [(5u32, 50u64), (1, 10), (3, 30), (2, 10)] {
            q.insert(id, k);
        }
        assert_eq!(q.top_k(3), vec![1, 2, 3], "ties break toward smaller id");
        assert_eq!(q.top_k(10), vec![1, 2, 3, 5], "short queues return all");
        assert_eq!(q.top_k(0), Vec::<u32>::new());
        assert_eq!(q.len(), 4, "top_k must not disturb the queue");
    }

    #[test]
    fn iter_is_key_ordered() {
        let mut q = KeyedQueue::new();
        for (id, k) in [(5u32, 50u64), (1, 10), (3, 30)] {
            q.insert(id, k);
        }
        let keys: Vec<u64> = q.iter().map(|(k, _)| k).collect();
        assert_eq!(keys, vec![10, 30, 50]);
    }

    #[test]
    fn clear_empties_everything() {
        let mut q = KeyedQueue::new();
        q.insert(0, 1u64);
        q.insert(1, 2u64);
        q.clear();
        assert!(q.is_empty());
        assert!(!q.contains(0));
        q.insert(0, 9); // reinsertion after clear works
        assert_eq!(q.peek_id(), Some(0));
    }

    #[test]
    fn with_capacity_presizes_back_index() {
        let mut q: KeyedQueue<u64> = KeyedQueue::with_capacity(100);
        q.insert(99, 1);
        assert!(q.contains(99));
    }

    #[test]
    fn tuple_keys_compose() {
        // Composite key: (deadline, arrival) — the kind EDF-with-FCFS-tiebreak uses.
        let mut q = KeyedQueue::new();
        q.insert(0, (10u64, 5u64));
        q.insert(1, (10u64, 3u64));
        assert_eq!(q.peek_id(), Some(1));
    }

    #[test]
    fn min_tree_orders_and_tie_breaks_like_keyed_queue() {
        let mut t = MinTree::new(4);
        t.set(3, Some(10u64));
        t.set(1, Some(10u64));
        t.set(2, Some(5u64));
        assert_eq!(t.peek(), Some((5, 2)));
        t.set(2, None);
        assert_eq!(
            t.peek(),
            Some((10, 1)),
            "equal keys break toward smaller id"
        );
        assert_eq!(t.len(), 2);
        assert_eq!(t.key_of(3), Some(10));
        assert!(!t.contains(0));
    }

    #[test]
    fn min_tree_rekey_and_clear_via_set() {
        let mut t = MinTree::new(3);
        t.set(0, Some(10u64));
        t.set(1, Some(20u64));
        t.set(1, Some(5)); // re-key moves the winner
        assert_eq!(t.peek(), Some((5, 1)));
        t.set(1, Some(5)); // unchanged key is a no-op
        assert_eq!(t.len(), 2);
        t.set(1, None);
        t.set(1, None); // clearing an absent id is a no-op
        assert_eq!(t.peek(), Some((10, 0)));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn min_tree_single_and_empty_capacity() {
        let mut t: MinTree<u64> = MinTree::new(0); // clamped to capacity 1
        assert_eq!(t.peek(), None);
        let mut one = MinTree::new(1);
        one.set(0, Some(7u64));
        assert_eq!(one.peek(), Some((7, 0)));
        assert_eq!(one.drain_up_to(7), vec![(7, 0)]);
        assert!(one.is_empty());
        t.set(0, Some(1));
        assert_eq!(t.peek_id(), Some(0));
    }

    #[test]
    fn extend_is_bulk_insert() {
        let mut q = KeyedQueue::new();
        q.insert(0, 5u64);
        q.extend([(2u32, 1u64), (1, 9)]);
        assert_eq!(q.len(), 3);
        assert_eq!(q.pop(), Some((1, 2)));
        assert_eq!(q.pop(), Some((5, 0)));
        assert_eq!(q.pop(), Some((9, 1)));
    }

    #[test]
    #[should_panic(expected = "inserted twice")]
    fn extend_panics_on_duplicate() {
        let mut q = KeyedQueue::new();
        q.insert(0, 1u64);
        q.extend([(0u32, 2u64)]);
    }

    #[test]
    fn into_variants_append_without_clearing() {
        let mut q = KeyedQueue::new();
        for (id, k) in [(0u32, 1u64), (1, 3), (2, 5)] {
            q.insert(id, k);
        }
        let mut ids = vec![99u32];
        q.top_k_into(2, &mut ids);
        assert_eq!(ids, vec![99, 0, 1]);
        let mut drained = vec![(0u64, 77u32)];
        q.drain_up_to_into(3, &mut drained);
        assert_eq!(drained, vec![(0, 77), (1, 0), (3, 1)]);
        assert_eq!(q.len(), 1);
        let mut t = MinTree::new(4);
        for (id, k) in [(0u32, 1u64), (1, 3), (2, 5)] {
            t.set(id, Some(k));
        }
        let mut td = vec![(0u64, 77u32)];
        t.drain_up_to_into(3, &mut td);
        assert_eq!(td, vec![(0, 77), (1, 0), (3, 1)]);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn min_tree_bulk_build_matches_incremental() {
        // Non-power-of-two capacity exercises the segment-tree layout.
        let mut bulk = MinTree::new(5);
        let mut incr = MinTree::new(5);
        let batch = [
            (0u32, Some(9u64)),
            (3, Some(2)),
            (1, Some(9)),
            (4, Some(7)),
            (3, None), // later entries in a batch win
            (2, Some(4)),
        ];
        bulk.bulk_build(batch);
        for (id, k) in batch {
            incr.set(id, k);
        }
        assert_eq!(bulk.len(), incr.len());
        assert_eq!(bulk.peek(), Some((4, 2)));
        assert_eq!(bulk.drain_up_to(u64::MAX), incr.drain_up_to(u64::MAX));
    }

    #[test]
    fn min_tree_drain_up_to_takes_exactly_the_prefix() {
        let mut t = MinTree::new(4);
        for (id, k) in [(0u32, 1u64), (1, 3), (2, 5), (3, 7)] {
            t.set(id, Some(k));
        }
        assert_eq!(
            t.drain_up_to(5),
            vec![(1, 0), (3, 1), (5, 2)],
            "bound is inclusive"
        );
        assert_eq!(t.len(), 1);
        assert!(t.contains(3));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// Model-based test: KeyedQueue behaves like a reference BTreeMap<id, key>
    /// under an arbitrary sequence of insert/remove/rekey/pop operations.
    #[derive(Debug, Clone)]
    enum Op {
        Insert(u32, u64),
        Remove(u32),
        Rekey(u32, u64),
        Pop,
        DrainUpTo(u64),
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        prop_oneof![
            (0u32..16, any::<u64>()).prop_map(|(i, k)| Op::Insert(i, k)),
            (0u32..16).prop_map(Op::Remove),
            (0u32..16, any::<u64>()).prop_map(|(i, k)| Op::Rekey(i, k)),
            Just(Op::Pop),
            any::<u64>().prop_map(Op::DrainUpTo),
        ]
    }

    proptest! {
        /// MinTree agrees with KeyedQueue (itself model-checked below) under
        /// arbitrary set/clear/drain sequences on a shared dense id space —
        /// including the peek tie-break, which the schedulers rely on for
        /// determinism.
        #[test]
        fn min_tree_matches_keyed_queue(ops in proptest::collection::vec(op_strategy(), 1..200)) {
            let mut t: MinTree<u64> = MinTree::new(16);
            let mut q: KeyedQueue<u64> = KeyedQueue::with_capacity(16);
            for op in ops {
                match op {
                    Op::Insert(id, k) | Op::Rekey(id, k) => {
                        t.set(id, Some(k));
                        if q.contains(id) {
                            q.rekey(id, k);
                        } else {
                            q.insert(id, k);
                        }
                    }
                    Op::Remove(id) => {
                        t.set(id, None);
                        q.remove(id);
                    }
                    Op::Pop => {
                        if let Some((_, id)) = q.pop() {
                            t.set(id, None);
                        }
                    }
                    Op::DrainUpTo(bound) => {
                        prop_assert_eq!(t.drain_up_to(bound), q.drain_up_to(bound));
                    }
                }
                prop_assert_eq!(t.len(), q.len());
                prop_assert_eq!(t.peek(), q.peek());
            }
        }
    }

    proptest! {
        /// `bulk_build` is observationally identical to replaying the same
        /// batch through incremental `set` calls, at any capacity — the
        /// engine's crossover switch between the two must be invisible.
        #[test]
        fn bulk_build_matches_incremental_sets(
            cap in 1usize..24,
            batches in proptest::collection::vec(
                proptest::collection::vec((0u32..24, 0u8..4, any::<u64>()), 0..16),
                1..8,
            ),
        ) {
            let mut bulk: MinTree<u64> = MinTree::new(cap);
            let mut incr: MinTree<u64> = MinTree::new(cap);
            for batch in batches {
                // flag 0 = removal; the shim has no `option::of` strategy.
                let batch: Vec<(u32, Option<u64>)> = batch
                    .into_iter()
                    .filter(|&(id, _, _)| (id as usize) < cap)
                    .map(|(id, flag, k)| (id, (flag != 0).then_some(k)))
                    .collect();
                bulk.bulk_build(batch.iter().copied());
                for &(id, k) in &batch {
                    incr.set(id, k);
                }
                prop_assert_eq!(bulk.len(), incr.len());
                prop_assert_eq!(bulk.peek(), incr.peek());
                for id in 0..cap as u32 {
                    prop_assert_eq!(bulk.key_of(id), incr.key_of(id));
                }
            }
            prop_assert_eq!(bulk.drain_up_to(u64::MAX), incr.drain_up_to(u64::MAX));
        }
    }

    fn model_min(model: &BTreeMap<u32, u64>) -> Option<(u64, u32)> {
        model.iter().map(|(&id, &k)| (k, id)).min()
    }

    proptest! {
        #[test]
        fn matches_reference_model(ops in proptest::collection::vec(op_strategy(), 1..200)) {
            let mut q = KeyedQueue::new();
            let mut model: BTreeMap<u32, u64> = BTreeMap::new();
            for op in ops {
                match op {
                    Op::Insert(id, k) => {
                        if let std::collections::btree_map::Entry::Vacant(e) = model.entry(id) {
                            q.insert(id, k);
                            e.insert(k);
                        }
                    }
                    Op::Remove(id) => {
                        prop_assert_eq!(q.remove(id), model.remove(&id));
                    }
                    Op::Rekey(id, k) => {
                        if model.contains_key(&id) {
                            q.rekey(id, k);
                            model.insert(id, k);
                        }
                    }
                    Op::Pop => {
                        let expect = model_min(&model);
                        if let Some((_, id)) = expect {
                            model.remove(&id);
                        }
                        prop_assert_eq!(q.pop(), expect);
                    }
                    Op::DrainUpTo(bound) => {
                        let drained = q.drain_up_to(bound);
                        let mut expect: Vec<(u64, u32)> = model
                            .iter()
                            .filter(|(_, &k)| k <= bound)
                            .map(|(&id, &k)| (k, id))
                            .collect();
                        expect.sort_unstable();
                        for (_, id) in &expect {
                            model.remove(id);
                        }
                        prop_assert_eq!(drained, expect);
                    }
                }
                prop_assert_eq!(q.len(), model.len());
                prop_assert_eq!(q.peek(), model_min(&model));
            }
        }
    }
}
