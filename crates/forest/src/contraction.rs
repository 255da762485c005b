//! Algorithm 1: `MaxContract` + `LevelledContraction` (§3.3).
//!
//! `LevelledContraction` is the analysis vehicle of Theorem 3.9: it
//! partitions the forest into at most `log_{k+1} n` *levels*, each of which
//! is itself a valid k-BAS (Lemma 3.16), and returns the level of maximal
//! value — hence a value of at least `val(T) / log_{k+1} n` (Lemma 3.17 +
//! 3.18). We expose the full level decomposition so the experiments can
//! check the iteration count and the per-level values, and use the algorithm
//! as an ablation baseline against the optimal `TM`.
//!
//! Implementation note: instead of physically contracting nodes we mark
//! subtrees *dead level by level*. At each iteration, a live node is
//! `k`-contractible (Definition 3.10) iff it has at most `k` live children
//! and all of them are contractible; the iteration's level set `S_i` is the
//! collection of *maximal* contractible subtrees, exactly the leaves that
//! would remain after `MaxContract` physically merged them.

use crate::arena::{Forest, NodeId};
use crate::kbas::KeepSet;
use crate::workspace::Workspace;
use pobp_core::{obs_count, Value};

/// One iteration's output: a k-BAS of the original forest (Lemma 3.16).
#[derive(Clone, Debug)]
pub struct Level {
    /// Roots of the contracted subtrees (the leaves `S_i` of Algorithm 1,
    /// before contraction is undone).
    pub roots: Vec<NodeId>,
    /// All nodes of the level's k-BAS (the contracted subtrees `T_i`).
    pub members: Vec<NodeId>,
    /// Total value of the level (`val(S_i) = val(T_i)`, Observation 3.12).
    pub value: Value,
}

/// Output of `LevelledContraction`.
#[derive(Clone, Debug)]
pub struct ContractionResult {
    /// The level decomposition; levels partition the node set.
    pub levels: Vec<Level>,
    /// Index of the best level (`argmax val(S)` of Algorithm 1, line 19).
    pub best: usize,
}

impl ContractionResult {
    /// The value returned by the algorithm.
    pub fn value(&self) -> Value {
        self.levels[self.best].value
    }

    /// The keep-set of the returned k-BAS.
    pub fn keep(&self, forest: &Forest) -> KeepSet {
        KeepSet::from_ids(forest.len(), &self.levels[self.best].members)
    }

    /// Number of iterations `L` (Lemma 3.18 bounds it by `log_{k+1} n`).
    pub fn iterations(&self) -> usize {
        self.levels.len()
    }
}

/// Runs `LevelledContraction` on `forest` with degree bound `k`.
///
/// ```
/// use pobp_forest::{levelled_contraction, Forest};
///
/// let mut f = Forest::new();
/// let r = f.add_root(1.0);
/// for _ in 0..4 { f.add_child(r, 1.0); }
///
/// // k = 1: the leaves contract in iteration 1, the center in iteration 2.
/// let res = levelled_contraction(&f, 1);
/// assert_eq!(res.iterations(), 2);
/// assert_eq!(res.value(), 4.0); // the leaf level wins
/// // Lemma 3.17: best level ≥ total / iterations.
/// assert!(res.value() * res.iterations() as f64 >= f.total_value());
/// ```
///
/// # Panics
/// Panics on an empty forest (the paper's algorithm loops `while T ≠ ∅`; an
/// empty input has no well-defined best level).
pub fn levelled_contraction(forest: &Forest, k: u32) -> ContractionResult {
    levelled_contraction_ws(forest, k, &mut Workspace::new())
}

/// [`levelled_contraction`] with caller-provided scratch memory.
///
/// Identical output; the traversal order, liveness/contractibility masks
/// and DFS stack come from `ws` so steady-state calls allocate only the
/// [`ContractionResult`] itself.
///
/// # Panics
/// Panics on an empty forest, like [`levelled_contraction`].
pub fn levelled_contraction_ws(forest: &Forest, k: u32, ws: &mut Workspace) -> ContractionResult {
    assert!(!forest.is_empty(), "levelled_contraction needs a non-empty forest");
    obs_count!("forest.contraction.runs");
    let n = forest.len();
    let k = k as usize;
    ws.fill_top_down(forest);
    let mut alive_count = n;
    let mut levels = Vec::new();

    // Per-iteration scratch, reused: `alive` + `mark` (contractibility).
    ws.alive.clear();
    ws.alive.resize(n, true);
    ws.mark.clear();
    ws.mark.resize(n, false);

    while alive_count > 0 {
        obs_count!("forest.contraction.levels");
        // MaxContract: mark contractibility bottom-up over live nodes. The
        // scans are counted into a local and added once per level, so the
        // loop carries no obs site.
        let mut scans = 0u64;
        for i in (0..n).rev() {
            let u = ws.order[i];
            scans += 1;
            if !ws.alive[u.0] {
                continue;
            }
            let mut lc = 0usize;
            let mut lcc = 0usize;
            for &c in forest.children(u) {
                if ws.alive[c.0] {
                    lc += 1;
                    if ws.mark[c.0] {
                        lcc += 1;
                    }
                }
            }
            ws.mark[u.0] = lc <= k && lcc == lc;
        }
        obs_count!("forest.contraction.node_scans", scans);
        // The level's roots: contractible nodes that are maximal — their
        // parent is dead, absent, or not contractible. These are exactly
        // the leaves of the tree after MaxContract.
        let mut roots = Vec::new();
        for i in (0..n).rev() {
            let u = ws.order[i];
            if !ws.alive[u.0] || !ws.mark[u.0] {
                continue;
            }
            let is_max = match forest.parent(u) {
                None => true,
                Some(p) => !ws.alive[p.0] || !ws.mark[p.0],
            };
            if is_max {
                roots.push(u);
            }
        }
        debug_assert!(
            !roots.is_empty(),
            "every live forest has at least one contractible leaf"
        );
        // Collect the members (the contracted subtrees) and kill them.
        let mut members = Vec::new();
        let mut value = 0.0f64;
        ws.stack.clear();
        ws.stack.extend_from_slice(&roots);
        while let Some(u) = ws.stack.pop() {
            debug_assert!(ws.alive[u.0]);
            ws.alive[u.0] = false;
            alive_count -= 1;
            members.push(u);
            value += forest.value(u);
            for &c in forest.children(u) {
                if ws.alive[c.0] {
                    ws.stack.push(c);
                }
            }
        }
        obs_count!("forest.contraction.contracted_nodes", members.len());
        levels.push(Level { roots, members, value });
    }

    let best = levels
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.value.partial_cmp(&b.1.value).expect("finite values"))
        .map(|(i, _)| i)
        .expect("at least one level");
    ContractionResult { levels, best }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kbas::is_kbas;

    #[test]
    fn single_node_is_one_level() {
        let mut f = Forest::new();
        let r = f.add_root(5.0);
        let res = levelled_contraction(&f, 1);
        assert_eq!(res.iterations(), 1);
        assert_eq!(res.value(), 5.0);
        assert_eq!(res.levels[0].roots, vec![r]);
    }

    #[test]
    fn path_contracts_in_one_iteration() {
        // A path is 1-contractible end to end.
        let mut f = Forest::new();
        let mut cur = f.add_root(1.0);
        for _ in 0..9 {
            cur = f.add_child(cur, 1.0);
        }
        let res = levelled_contraction(&f, 1);
        assert_eq!(res.iterations(), 1);
        assert_eq!(res.value(), 10.0);
        assert_eq!(res.levels[0].members.len(), 10);
    }

    #[test]
    fn binary_tree_with_k1_needs_log_levels() {
        // Complete binary tree of depth 3 (15 nodes), unit values, k = 1:
        // no internal node is 1-contractible (degree 2), so iteration i
        // strips one level of leaves... after leaves (8) are taken, the old
        // internal nodes become leaves, etc. → 4 levels, sizes 8,4,2,1.
        let mut f = Forest::new();
        let r = f.add_root(1.0);
        let mut frontier = vec![r];
        for _ in 0..3 {
            let mut next = Vec::new();
            for u in frontier {
                next.push(f.add_child(u, 1.0));
                next.push(f.add_child(u, 1.0));
            }
            frontier = next;
        }
        let res = levelled_contraction(&f, 1);
        assert_eq!(res.iterations(), 4);
        let sizes: Vec<usize> = res.levels.iter().map(|l| l.members.len()).collect();
        assert_eq!(sizes, vec![8, 4, 2, 1]);
        assert_eq!(res.value(), 8.0);
        // Iteration bound of Lemma 3.18: L ≤ log_{k+1} n (+1 rounding).
        assert!(res.iterations() as f64 <= (15.0f64).log2().ceil());
    }

    #[test]
    fn binary_tree_with_k2_contracts_at_once() {
        let mut f = Forest::new();
        let r = f.add_root(1.0);
        for _ in 0..2 {
            let a = f.add_child(r, 1.0);
            f.add_child(a, 1.0);
            f.add_child(a, 1.0);
        }
        let res = levelled_contraction(&f, 2);
        assert_eq!(res.iterations(), 1);
        assert_eq!(res.value(), 7.0);
    }

    #[test]
    fn levels_partition_nodes_and_are_kbas() {
        // Irregular forest.
        let mut f = Forest::new();
        let r = f.add_root(3.0);
        let a = f.add_child(r, 1.0);
        let b = f.add_child(r, 2.0);
        let c = f.add_child(r, 7.0);
        f.add_child(a, 1.0);
        f.add_child(a, 4.0);
        f.add_child(a, 4.0);
        f.add_child(b, 5.0);
        let d = f.add_child(c, 1.0);
        f.add_child(d, 9.0);
        let r2 = f.add_root(2.0);
        f.add_child(r2, 2.0);

        for k in 1..4 {
            let res = levelled_contraction(&f, k);
            let mut seen = vec![false; f.len()];
            let mut total = 0.0;
            for lvl in &res.levels {
                let ks = KeepSet::from_ids(f.len(), &lvl.members);
                assert!(is_kbas(&f, &ks, k), "level not a k-BAS for k={k}");
                assert_eq!(ks.value(&f), lvl.value);
                for m in &lvl.members {
                    assert!(!seen[m.0], "node in two levels");
                    seen[m.0] = true;
                }
                total += lvl.value;
            }
            assert!(seen.iter().all(|&s| s), "levels must partition the forest");
            assert_eq!(total, f.total_value());
            // Loss bound: best level ≥ total / L.
            assert!(res.value() * res.iterations() as f64 >= f.total_value() - 1e-9);
        }
    }

    #[test]
    fn star_with_k1() {
        // Star with 6 leaves, unit values: iteration 1 takes all leaves
        // (each leaf is contractible, the center has degree 6 > 1);
        // iteration 2 takes the center.
        let mut f = Forest::new();
        let r = f.add_root(1.0);
        for _ in 0..6 {
            f.add_child(r, 1.0);
        }
        let res = levelled_contraction(&f, 1);
        assert_eq!(res.iterations(), 2);
        assert_eq!(res.levels[0].members.len(), 6);
        assert_eq!(res.levels[1].roots, vec![r]);
        assert_eq!(res.value(), 6.0);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_forest_panics() {
        let _ = levelled_contraction(&Forest::new(), 1);
    }
}
