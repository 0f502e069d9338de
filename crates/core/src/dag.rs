//! The dependency DAG over a batch of transactions.
//!
//! Dependency lists (`T_x -> T_y` meaning "`T_y` depends on `T_x`") induce a
//! directed graph; the paper requires it to be acyclic (a workflow is a
//! partial order of transaction execution, §II-A). This module builds the
//! graph once from a slice of [`TxnSpec`]s, validates it, and answers the
//! structural questions the scheduler and the workflow extractor need:
//! successors, predecessors, roots, leaves, workflow memberships, and a
//! deterministic topological order.

use crate::txn::{TxnId, TxnSpec};
use std::collections::VecDeque;
use std::fmt;

/// Errors detected while validating a dependency graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DagError {
    /// A dependency list referenced a transaction id outside the batch.
    UnknownTxn {
        /// The transaction whose dependency list is bad.
        txn: TxnId,
        /// The referenced id that is not in the batch.
        dep: TxnId,
    },
    /// A transaction listed itself as its own predecessor.
    SelfDependency(TxnId),
    /// The same predecessor appeared twice in one dependency list.
    DuplicateDependency {
        /// The transaction whose dependency list is bad.
        txn: TxnId,
        /// The duplicated predecessor.
        dep: TxnId,
    },
    /// The graph contains a cycle (witnessed by one transaction on it).
    Cycle(TxnId),
}

impl fmt::Display for DagError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DagError::UnknownTxn { txn, dep } => {
                write!(f, "{txn} depends on {dep}, which is not in the batch")
            }
            DagError::SelfDependency(t) => write!(f, "{t} depends on itself"),
            DagError::DuplicateDependency { txn, dep } => {
                write!(f, "{txn} lists {dep} twice in its dependency list")
            }
            DagError::Cycle(t) => write!(f, "dependency cycle through {t}"),
        }
    }
}

impl std::error::Error for DagError {}

/// An immutable, validated dependency DAG.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DepDag {
    /// `preds[i]` = dependency list of `TxnId(i)` (deduplicated, sorted).
    preds: Vec<Vec<TxnId>>,
    /// `succs[i]` = transactions that depend directly on `TxnId(i)`.
    succs: Vec<Vec<TxnId>>,
    /// Transactions appearing in no dependency list (workflow roots).
    roots: Vec<TxnId>,
    /// Transactions with empty dependency lists (workflow leaves /
    /// independent transactions).
    leaves: Vec<TxnId>,
    /// A topological order (predecessors before successors), deterministic
    /// for a given input (Kahn's algorithm with an id-ordered frontier).
    topo: Vec<TxnId>,
}

impl DepDag {
    /// Build and validate the DAG for a batch of specs, where `specs[i]`
    /// describes `TxnId(i)`.
    pub fn build(specs: &[TxnSpec]) -> Result<DepDag, DagError> {
        let n = specs.len();
        let mut preds: Vec<Vec<TxnId>> = Vec::with_capacity(n);
        let mut succs: Vec<Vec<TxnId>> = vec![Vec::new(); n];

        for (i, spec) in specs.iter().enumerate() {
            let me = TxnId(i as u32);
            let mut deps = spec.deps.clone();
            deps.sort_unstable();
            for w in deps.windows(2) {
                if w[0] == w[1] {
                    return Err(DagError::DuplicateDependency { txn: me, dep: w[0] });
                }
            }
            for &d in &deps {
                if d.index() >= n {
                    return Err(DagError::UnknownTxn { txn: me, dep: d });
                }
                if d == me {
                    return Err(DagError::SelfDependency(me));
                }
                succs[d.index()].push(me);
            }
            preds.push(deps);
        }

        // Kahn's algorithm, frontier kept id-sorted for determinism.
        let mut indegree: Vec<u32> = preds.iter().map(|p| p.len() as u32).collect();
        let mut frontier: VecDeque<TxnId> = (0..n as u32)
            .map(TxnId)
            .filter(|t| indegree[t.index()] == 0)
            .collect();
        let mut topo = Vec::with_capacity(n);
        while let Some(t) = frontier.pop_front() {
            topo.push(t);
            for &s in &succs[t.index()] {
                indegree[s.index()] -= 1;
                if indegree[s.index()] == 0 {
                    frontier.push_back(s);
                }
            }
        }
        if topo.len() != n {
            // Some transaction still has positive indegree: it lies on (or
            // downstream of) a cycle. Report the smallest such id.
            let witness = (0..n as u32)
                .map(TxnId)
                .find(|t| indegree[t.index()] > 0)
                .expect("topo shortfall implies a positive-indegree node");
            return Err(DagError::Cycle(witness));
        }

        let roots = (0..n as u32)
            .map(TxnId)
            .filter(|t| succs[t.index()].is_empty())
            .collect();
        let leaves = (0..n as u32)
            .map(TxnId)
            .filter(|t| preds[t.index()].is_empty())
            .collect();

        Ok(DepDag {
            preds,
            succs,
            roots,
            leaves,
            topo,
        })
    }

    /// Number of transactions in the batch.
    #[inline]
    pub fn len(&self) -> usize {
        self.preds.len()
    }

    /// True iff the batch is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.preds.is_empty()
    }

    /// Direct predecessors (the deduplicated dependency list) of `t`.
    #[inline]
    pub fn preds(&self, t: TxnId) -> &[TxnId] {
        &self.preds[t.index()]
    }

    /// Direct successors of `t` (transactions whose dependency list contains `t`).
    #[inline]
    pub fn succs(&self, t: TxnId) -> &[TxnId] {
        &self.succs[t.index()]
    }

    /// Workflow roots: transactions that appear in no dependency list
    /// (paper §II-A: "a workflow is defined for every transaction that does
    /// not appear in any dependency list").
    #[inline]
    pub fn roots(&self) -> &[TxnId] {
        &self.roots
    }

    /// Independent transactions (empty dependency list); in a workflow these
    /// are the leaves.
    #[inline]
    pub fn leaves(&self) -> &[TxnId] {
        &self.leaves
    }

    /// A deterministic topological order: every transaction appears after
    /// all of its predecessors.
    #[inline]
    pub fn topological_order(&self) -> &[TxnId] {
        &self.topo
    }

    /// The membership of every workflow, one list per root in
    /// [`DepDag::roots`] order: the root plus all of its transitive
    /// predecessors, sorted by id (paper Definition of a workflow:
    /// "includes all transactions that appear in `l_i`, and recursively
    /// ..."). One `seen` buffer serves every root's DFS and only the
    /// entries that DFS marked are reset, so the cost is the total
    /// membership size, not `n` per root.
    pub fn workflows(&self) -> Vec<Vec<TxnId>> {
        let mut seen = vec![false; self.len()];
        let mut stack = Vec::new();
        self.roots
            .iter()
            .map(|&root| {
                let mut members = vec![root];
                seen[root.index()] = true;
                stack.push(root);
                while let Some(t) = stack.pop() {
                    for &p in self.preds(t) {
                        if !seen[p.index()] {
                            seen[p.index()] = true;
                            members.push(p);
                            stack.push(p);
                        }
                    }
                }
                for &m in &members {
                    seen[m.index()] = false;
                }
                members.sort_unstable();
                members
            })
            .collect()
    }

    /// True iff `x` transitively precedes `y` (`x -> y`).
    pub fn precedes(&self, x: TxnId, y: TxnId) -> bool {
        if x == y {
            return false;
        }
        let mut seen = vec![false; self.len()];
        let mut stack = vec![y];
        while let Some(t) = stack.pop() {
            for &p in self.preds(t) {
                if p == x {
                    return true;
                }
                if !seen[p.index()] {
                    seen[p.index()] = true;
                    stack.push(p);
                }
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::{SimDuration, SimTime};
    use crate::txn::Weight;

    fn spec(deps: Vec<TxnId>) -> TxnSpec {
        TxnSpec {
            arrival: SimTime::ZERO,
            deadline: SimTime::from_units_int(10),
            length: SimDuration::from_units_int(1),
            weight: Weight::ONE,
            deps,
        }
    }

    /// The paper's Figure 1 page: two workflows sharing leaf T0:
    /// `<T0, T1, T2, T3>` (chain) and `<T0, T4, T5, T6>` (chain).
    fn figure1_like() -> Vec<TxnSpec> {
        vec![
            spec(vec![]),         // T0 leaf
            spec(vec![TxnId(0)]), // T1
            spec(vec![TxnId(1)]), // T2
            spec(vec![TxnId(2)]), // T3 root of workflow A
            spec(vec![TxnId(0)]), // T4
            spec(vec![TxnId(4)]), // T5
            spec(vec![TxnId(5)]), // T6 root of workflow B
        ]
    }

    #[test]
    fn builds_figure1_structure() {
        let dag = DepDag::build(&figure1_like()).unwrap();
        assert_eq!(dag.len(), 7);
        assert_eq!(dag.roots(), &[TxnId(3), TxnId(6)]);
        assert_eq!(dag.leaves(), &[TxnId(0)]);
        assert_eq!(dag.succs(TxnId(0)), &[TxnId(1), TxnId(4)]);
        assert_eq!(dag.preds(TxnId(3)), &[TxnId(2)]);
    }

    #[test]
    fn workflow_members_are_transitive() {
        let dag = DepDag::build(&figure1_like()).unwrap();
        assert_eq!(
            dag.workflows(),
            vec![
                vec![TxnId(0), TxnId(1), TxnId(2), TxnId(3)],
                vec![TxnId(0), TxnId(4), TxnId(5), TxnId(6)],
            ]
        );
    }

    #[test]
    fn shared_leaf_belongs_to_both_workflows() {
        let dag = DepDag::build(&figure1_like()).unwrap();
        for members in dag.workflows() {
            assert!(members.contains(&TxnId(0)));
        }
    }

    /// Overlapping workflows (shared ancestors, several roots, an isolated
    /// root, diamonds) match the per-root definition — the root plus every
    /// `x` with `x -> root` — so the shared `seen` buffer leaks nothing
    /// from one root's DFS into the next. Checked on a fixed DAG and on a
    /// generated 300-transaction batch with up to three deps each.
    #[test]
    fn overlapping_workflows_match_per_root_definition() {
        let fixed = vec![
            spec(vec![]),                   // T0 shared leaf
            spec(vec![]),                   // T1 shared leaf
            spec(vec![TxnId(0), TxnId(1)]), // T2 shared by every chain root
            spec(vec![TxnId(2)]),           // T3
            spec(vec![TxnId(1), TxnId(2)]), // T4 diamond over T1
            spec(vec![TxnId(0)]),           // T5
            spec(vec![TxnId(3), TxnId(4)]), // T6 root
            spec(vec![TxnId(4), TxnId(5)]), // T7 root
            spec(vec![]),                   // T8 isolated root
        ];
        let mut state = 0x2545_f491_u64;
        let mut next = move |bound: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % bound
        };
        let generated: Vec<TxnSpec> = (0..300u64)
            .map(|i| {
                let mut deps: Vec<TxnId> =
                    (0..next(4).min(i)).map(|_| TxnId(next(i) as u32)).collect();
                deps.sort_unstable();
                deps.dedup();
                spec(deps)
            })
            .collect();
        for specs in [fixed, generated] {
            let dag = DepDag::build(&specs).unwrap();
            let workflows = dag.workflows();
            assert_eq!(workflows.len(), dag.roots().len());
            assert!(dag.roots().len() > 1);
            for (&root, members) in dag.roots().iter().zip(&workflows) {
                let expected: Vec<TxnId> = (0..dag.len() as u32)
                    .map(TxnId)
                    .filter(|&x| x == root || dag.precedes(x, root))
                    .collect();
                assert_eq!(members, &expected, "workflow of {root}");
            }
        }
    }

    #[test]
    fn precedes_is_transitive_and_irreflexive() {
        let dag = DepDag::build(&figure1_like()).unwrap();
        assert!(dag.precedes(TxnId(0), TxnId(3)));
        assert!(dag.precedes(TxnId(0), TxnId(6)));
        assert!(!dag.precedes(TxnId(3), TxnId(0)));
        assert!(!dag.precedes(TxnId(1), TxnId(1)));
        assert!(
            !dag.precedes(TxnId(1), TxnId(6)),
            "branches are incomparable"
        );
    }

    #[test]
    fn topological_order_respects_preds() {
        let dag = DepDag::build(&figure1_like()).unwrap();
        let pos: Vec<usize> = {
            let mut p = vec![0; dag.len()];
            for (i, t) in dag.topological_order().iter().enumerate() {
                p[t.index()] = i;
            }
            p
        };
        for t in 0..dag.len() as u32 {
            for &d in dag.preds(TxnId(t)) {
                assert!(pos[d.index()] < pos[t as usize]);
            }
        }
    }

    #[test]
    fn diamond_dag_workflow() {
        // T3 depends on T1 and T2, both depend on T0 (the stock example of
        // §II-B has exactly this diamond with T4).
        let specs = vec![
            spec(vec![]),
            spec(vec![TxnId(0)]),
            spec(vec![TxnId(0)]),
            spec(vec![TxnId(1), TxnId(2)]),
        ];
        let dag = DepDag::build(&specs).unwrap();
        assert_eq!(dag.roots(), &[TxnId(3)]);
        assert_eq!(
            dag.workflows(),
            vec![vec![TxnId(0), TxnId(1), TxnId(2), TxnId(3)]]
        );
    }

    #[test]
    fn detects_cycle() {
        let specs = vec![spec(vec![TxnId(1)]), spec(vec![TxnId(0)])];
        assert_eq!(
            DepDag::build(&specs).unwrap_err(),
            DagError::Cycle(TxnId(0))
        );
    }

    #[test]
    fn detects_self_dependency() {
        let specs = vec![spec(vec![TxnId(0)])];
        assert_eq!(
            DepDag::build(&specs).unwrap_err(),
            DagError::SelfDependency(TxnId(0))
        );
    }

    #[test]
    fn detects_unknown_txn() {
        let specs = vec![spec(vec![TxnId(9)])];
        assert_eq!(
            DepDag::build(&specs).unwrap_err(),
            DagError::UnknownTxn {
                txn: TxnId(0),
                dep: TxnId(9)
            }
        );
    }

    #[test]
    fn detects_duplicate_dependency() {
        let specs = vec![spec(vec![]), spec(vec![TxnId(0), TxnId(0)])];
        assert_eq!(
            DepDag::build(&specs).unwrap_err(),
            DagError::DuplicateDependency {
                txn: TxnId(1),
                dep: TxnId(0)
            }
        );
    }

    #[test]
    fn empty_batch_is_fine() {
        let dag = DepDag::build(&[]).unwrap();
        assert!(dag.is_empty());
        assert!(dag.roots().is_empty());
    }

    #[test]
    fn all_independent_means_every_txn_is_root_and_leaf() {
        let specs = vec![spec(vec![]), spec(vec![]), spec(vec![])];
        let dag = DepDag::build(&specs).unwrap();
        assert_eq!(dag.roots().len(), 3);
        assert_eq!(dag.leaves().len(), 3);
        assert_eq!(dag.workflows()[1], vec![TxnId(1)]);
    }

    #[test]
    fn error_display_is_informative() {
        let e = DagError::Cycle(TxnId(2));
        assert!(e.to_string().contains("T2"));
        let e = DagError::UnknownTxn {
            txn: TxnId(1),
            dep: TxnId(5),
        };
        assert!(e.to_string().contains("T5"));
    }
}
