//! The cached FMM interaction plan: a precomputed, SFC-ordered, flat
//! (CSR-style) encoding of the dual-tree traversal.
//!
//! The real Octo-Tiger computes its interaction lists once per *regrid*,
//! not once per step; our solver used to redo the full dual-tree traversal
//! and rebuild every `HashMap<NodeId, …>` on **every** solve.  A
//! [`GravityPlan`] freezes everything that depends only on the tree
//! topology and the acceptance parameter θ:
//!
//! * a **slot table** of all tree nodes, deepest level first and SFC-sorted
//!   within each level, so every level is one contiguous slot range — the
//!   layout that lets the upward (M2M) and downward (L2L) passes hand each
//!   per-level kernel disjoint `&mut` chunk slices via `split_at_mut`
//!   (deeper levels sit strictly *before* the level being written, so the
//!   read half and the write half of the slot buffer never alias);
//! * the **M2L interaction lists** in CSR form (`m2l_offsets` +
//!   `m2l_sources` over slot indices) plus the dense list of non-empty
//!   targets the multipole kernel launches over;
//! * the **P2P leaf-pair lists** in CSR form over leaf indices;
//! * per-slot **geometry** (centers) and **parent links** for the
//!   gather-form downward pass.
//!
//! The plan is keyed on [`octree::Tree::topology_version`] (and θ and the
//! node count, guarding against distinct trees with coincidentally equal
//! versions): a solve with an unchanged tree performs *zero* traversal
//! work and runs straight kernels over dense index arrays.

use super::solver::SolveStats;
use crate::units::BOX_SIZE;
use octree::{NodeId, Tree};
use std::collections::HashMap;

/// Physical center and half-diagonal of a node's cube.
pub(crate) fn node_geometry(id: NodeId) -> ([f64; 3], f64) {
    let (corner, size) = id.cube();
    let s_phys = size * BOX_SIZE;
    let center = [
        (corner[0] + 0.5 * size - 0.5) * BOX_SIZE,
        (corner[1] + 0.5 * size - 0.5) * BOX_SIZE,
        (corner[2] + 0.5 * size - 0.5) * BOX_SIZE,
    ];
    (center, 0.5 * s_phys * 3f64.sqrt())
}

/// What a slot of the plan's node table is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlotKind {
    /// A leaf; payload is the index into [`GravityPlan::leaves`].
    Leaf(usize),
    /// An interior node; payload is its eight child slots (octant order).
    /// All children live at the next-deeper level, i.e. at strictly
    /// *smaller* slot indices.
    Interior([usize; 8]),
}

/// The frozen traversal: everything a gravity solve needs that depends
/// only on tree topology and θ.  Built by [`GravityPlan::build`], cached
/// by the solver, shared immutably (`Arc`) between solver clones.
#[derive(Debug, Clone, PartialEq)]
pub struct GravityPlan {
    /// [`Tree::topology_version`] of the tree this plan encodes.
    pub topology_version: u64,
    /// Acceptance parameter the traversal used.
    pub theta: f64,
    /// Node count of the encoded tree (second staleness guard).
    pub num_nodes: usize,
    /// All tree nodes: deepest level first, SFC-sorted within a level.
    pub nodes: Vec<NodeId>,
    /// Per-slot cube centers (physical coordinates).
    pub centers: Vec<[f64; 3]>,
    /// Per-slot kind (leaf index or child slots).
    pub kinds: Vec<SlotKind>,
    /// Per-slot parent slot (`usize::MAX` for the root).  Parents live at
    /// strictly *larger* slot indices.
    pub parent_slot: Vec<usize>,
    /// `level_ranges[level]` = the contiguous `(begin, end)` slot range of
    /// that level.  Deeper level ⇒ earlier range.
    pub level_ranges: Vec<(usize, usize)>,
    /// SFC-sorted leaves (the solver's input/output key order).
    pub leaves: Vec<NodeId>,
    /// Slot of each leaf, aligned with [`GravityPlan::leaves`].
    pub leaf_slots: Vec<usize>,
    /// M2L CSR over slots: slot `s`'s far-field sources are
    /// `m2l_sources[m2l_offsets[s]..m2l_offsets[s + 1]]` (slot indices,
    /// ascending — a *canonical* order, so per-target summation order is
    /// deterministic and independent of kernel task splitting).
    pub m2l_offsets: Vec<usize>,
    pub m2l_sources: Vec<usize>,
    /// Slots with a non-empty M2L list — the multipole kernel's launch
    /// index set.
    pub m2l_targets: Vec<usize>,
    /// P2P CSR over *leaf indices*: leaf `l`'s near-field source leaves are
    /// `p2p_sources[p2p_offsets[l]..p2p_offsets[l + 1]]` (including the
    /// self pair, ascending — canonical, like the M2L lists).
    pub p2p_offsets: Vec<usize>,
    pub p2p_sources: Vec<usize>,
    /// Interaction statistics — a pure function of the plan, precomputed
    /// so cached solves return them for free.
    pub stats: SolveStats,
}

impl GravityPlan {
    /// Run the dual-tree traversal once and freeze it.
    pub fn build(tree: &Tree, theta: f64) -> GravityPlan {
        // ---- Slot table: deepest level first, SFC within a level. -------
        let max_level = tree.max_level();
        let mut nodes: Vec<NodeId> = Vec::with_capacity(tree.len());
        let mut level_ranges = vec![(0usize, 0usize); max_level as usize + 1];
        for level in (0..=max_level).rev() {
            let begin = nodes.len();
            nodes.extend(tree.nodes_at_level(level));
            level_ranges[level as usize] = (begin, nodes.len());
        }
        debug_assert_eq!(nodes.len(), tree.len());
        let slot_of: HashMap<NodeId, usize> =
            nodes.iter().enumerate().map(|(s, &id)| (id, s)).collect();

        let leaves = tree.leaves();
        let leaf_index: HashMap<NodeId, usize> =
            leaves.iter().enumerate().map(|(i, &id)| (id, i)).collect();
        let leaf_slots: Vec<usize> = leaves.iter().map(|id| slot_of[id]).collect();

        let centers: Vec<[f64; 3]> = nodes.iter().map(|&id| node_geometry(id).0).collect();
        let radii: Vec<f64> = nodes.iter().map(|&id| node_geometry(id).1).collect();
        let kinds: Vec<SlotKind> = nodes
            .iter()
            .map(|&id| {
                if tree.is_leaf(id) {
                    SlotKind::Leaf(leaf_index[&id])
                } else {
                    let mut child_slots = [0usize; 8];
                    for (c, o) in octree::Octant::all().enumerate() {
                        child_slots[c] = slot_of[&id.child(o)];
                    }
                    SlotKind::Interior(child_slots)
                }
            })
            .collect();
        let parent_slot: Vec<usize> = nodes
            .iter()
            .map(|&id| id.parent().map_or(usize::MAX, |p| slot_of[&p]))
            .collect();

        // ---- The dual-tree traversal (run once, then never again until
        // the topology or θ changes). ------------------------------------
        let mut m2l: Vec<Vec<usize>> = vec![Vec::new(); nodes.len()];
        let mut p2p: Vec<Vec<usize>> = vec![Vec::new(); leaves.len()];
        let root = slot_of[&NodeId::ROOT];
        let mut stack: Vec<(usize, usize)> = vec![(root, root)];
        while let Some((a, b)) = stack.pop() {
            if a == b {
                match kinds[a] {
                    SlotKind::Leaf(la) => p2p[la].push(la),
                    SlotKind::Interior(kids) => {
                        for (i, &ci) in kids.iter().enumerate() {
                            for &cj in &kids[i..] {
                                stack.push((ci, cj));
                            }
                        }
                    }
                }
                continue;
            }
            let (ca, cb) = (centers[a], centers[b]);
            let d = ((ca[0] - cb[0]).powi(2) + (ca[1] - cb[1]).powi(2) + (ca[2] - cb[2]).powi(2))
                .sqrt();
            if d > 0.0 && (radii[a] + radii[b]) / d < theta {
                m2l[a].push(b);
                m2l[b].push(a);
                continue;
            }
            match (kinds[a], kinds[b]) {
                (SlotKind::Leaf(la), SlotKind::Leaf(lb)) => {
                    p2p[la].push(lb);
                    p2p[lb].push(la);
                }
                (a_kind, b_kind) => {
                    // Split the larger node (higher up the tree); if tied,
                    // split whichever is interior.
                    let split_a = match (a_kind, b_kind) {
                        (SlotKind::Leaf(_), _) => false,
                        (_, SlotKind::Leaf(_)) => true,
                        _ => nodes[a].level() <= nodes[b].level(),
                    };
                    let (split, keep) = if split_a { (a, b) } else { (b, a) };
                    let SlotKind::Interior(kids) = kinds[split] else {
                        unreachable!("split node is interior by construction");
                    };
                    for c in kids {
                        stack.push((c, keep));
                    }
                }
            }
        }

        // ---- Canonicalize: each unordered pair is visited exactly once,
        // so the lists are duplicate-free and sorting them ascending is a
        // pure reordering of the same set.  The summation order then
        // depends on the set alone, not on the DFS push order. -----------
        for list in &mut m2l {
            list.sort_unstable();
        }
        for list in &mut p2p {
            list.sort_unstable();
        }

        // ---- CSR compaction. -------------------------------------------
        let mut m2l_offsets = Vec::with_capacity(nodes.len() + 1);
        let mut m2l_sources = Vec::new();
        let mut m2l_targets = Vec::new();
        m2l_offsets.push(0);
        for (s, list) in m2l.iter().enumerate() {
            if !list.is_empty() {
                m2l_targets.push(s);
            }
            m2l_sources.extend_from_slice(list);
            m2l_offsets.push(m2l_sources.len());
        }
        let mut p2p_offsets = Vec::with_capacity(leaves.len() + 1);
        let mut p2p_sources = Vec::new();
        p2p_offsets.push(0);
        for list in &p2p {
            p2p_sources.extend_from_slice(list);
            p2p_offsets.push(p2p_sources.len());
        }

        let stats = SolveStats {
            m2l_interactions: m2l_sources.len(),
            p2p_pairs: p2p_sources.len(),
            multipole_kernel_launches: m2l_targets.len(),
        };

        GravityPlan {
            topology_version: tree.topology_version(),
            theta,
            num_nodes: nodes.len(),
            nodes,
            centers,
            kinds,
            parent_slot,
            level_ranges,
            leaves,
            leaf_slots,
            m2l_offsets,
            m2l_sources,
            m2l_targets,
            p2p_offsets,
            p2p_sources,
            stats,
        }
    }

    /// The plan's invalidation rule: valid iff the tree's topology version
    /// *and* node count still match (the count guards against a different
    /// tree whose version coincides) and θ is unchanged.
    pub fn is_valid_for(&self, tree: &Tree, theta: f64) -> bool {
        self.topology_version == tree.topology_version()
            && self.num_nodes == tree.len()
            && self.theta == theta
    }

    /// M2L source slots of `slot`.
    #[inline]
    pub fn m2l_sources_of(&self, slot: usize) -> &[usize] {
        &self.m2l_sources[self.m2l_offsets[slot]..self.m2l_offsets[slot + 1]]
    }

    /// P2P source leaf indices of leaf `li`.
    #[inline]
    pub fn p2p_sources_of(&self, li: usize) -> &[usize] {
        &self.p2p_sources[self.p2p_offsets[li]..self.p2p_offsets[li + 1]]
    }

    /// Deepest level of the encoded tree.
    pub fn max_level(&self) -> u8 {
        (self.level_ranges.len() - 1) as u8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slot_table_is_deepest_first_and_contiguous() {
        let mut tree = Tree::new_uniform(1);
        tree.refine_balanced(NodeId::from_coords(1, [0, 0, 0]));
        let plan = GravityPlan::build(&tree, 0.5);
        assert_eq!(plan.num_nodes, tree.len());
        // Levels appear deepest first, each as one contiguous range.
        let mut cursor = 0usize;
        for level in (0..=tree.max_level()).rev() {
            let (b, e) = plan.level_ranges[level as usize];
            assert_eq!(b, cursor, "level {level} range not contiguous");
            for s in b..e {
                assert_eq!(plan.nodes[s].level(), level);
            }
            cursor = e;
        }
        assert_eq!(cursor, plan.num_nodes);
        // Children sit at strictly smaller slots, parents strictly larger.
        for (s, kind) in plan.kinds.iter().enumerate() {
            if let SlotKind::Interior(kids) = kind {
                assert!(kids.iter().all(|&c| c < s));
            }
            let p = plan.parent_slot[s];
            if p != usize::MAX {
                assert!(p > s);
            }
        }
        // The root is the very last slot.
        assert_eq!(plan.nodes[plan.num_nodes - 1], NodeId::ROOT);
        assert_eq!(plan.parent_slot[plan.num_nodes - 1], usize::MAX);
    }

    #[test]
    fn csr_lists_match_stats() {
        let tree = Tree::new_uniform(2);
        let plan = GravityPlan::build(&tree, 0.5);
        assert_eq!(plan.stats.m2l_interactions, plan.m2l_sources.len());
        assert_eq!(plan.stats.p2p_pairs, plan.p2p_sources.len());
        assert_eq!(plan.stats.multipole_kernel_launches, plan.m2l_targets.len());
        assert!(plan.stats.m2l_interactions > 0);
        assert!(plan.stats.p2p_pairs > 0);
        // M2L symmetry: the interaction a→b implies b→a.
        for &t in &plan.m2l_targets {
            for &s in plan.m2l_sources_of(t) {
                assert!(
                    plan.m2l_sources_of(s).contains(&t),
                    "asymmetric M2L pair ({t}, {s})"
                );
            }
        }
        // Every leaf P2P list contains the self pair.
        for li in 0..plan.leaves.len() {
            assert!(plan.p2p_sources_of(li).contains(&li));
        }
    }

    #[test]
    fn rebuilding_on_an_unchanged_tree_is_deterministic() {
        let tree = Tree::new_uniform(2);
        let a = GravityPlan::build(&tree, 0.5);
        let b = GravityPlan::build(&tree, 0.5);
        assert_eq!(a.nodes, b.nodes);
        assert_eq!(a.m2l_offsets, b.m2l_offsets);
        assert_eq!(a.m2l_sources, b.m2l_sources);
        assert_eq!(a.p2p_offsets, b.p2p_offsets);
        assert_eq!(a.p2p_sources, b.p2p_sources);
        assert!(a.is_valid_for(&tree, 0.5));
        assert!(!a.is_valid_for(&tree, 0.4), "θ change must invalidate");
    }

    #[test]
    fn refinement_invalidates_the_plan() {
        let mut tree = Tree::new_uniform(1);
        let plan = GravityPlan::build(&tree, 0.5);
        assert!(plan.is_valid_for(&tree, 0.5));
        tree.refine_balanced(tree.leaves()[0]);
        assert!(!plan.is_valid_for(&tree, 0.5));
    }
}
