//! The halo plan of the sharded FMM: slot ownership and the frozen
//! per-phase exchange schedule, plus the parcel wire they travel over.
//!
//! The paper's Fugaku runs shard the octree over HPX localities and move
//! every cross-locality interaction as a parcel.  This module does the
//! same over `hpx-rt` simulated localities: leaves are assigned to
//! localities by a deterministic partition of the SFC, interior slots
//! inherit the owner of their SFC-first descendant, and a [`DistPlan`]
//! freezes — once per regrid, keyed on the same `topology_version` as the
//! [`GravityPlan`] itself — exactly which expansions must cross which
//! locality boundary in each solver phase:
//!
//! * **upward** (class `multipole-up`): per child level, child multipoles
//!   whose parent slot is owned elsewhere;
//! * **M2L halo** (class `m2l`): far-field source multipoles read by
//!   targets owned elsewhere, deduplicated per `(from, to)` lane;
//! * **downward** (class `multipole-down`): per child level, parent local
//!   expansions read by children owned elsewhere;
//! * **P2P halo** (class `p2p`): near-field source leaves' point masses
//!   read by leaves owned elsewhere.
//!
//! [`GravitySolver::solve_sharded`] runs the phases in level lockstep and
//! moves each frozen exchange list between them as one typed
//! [`hpx_rt::ParcelTransport`] parcel per `(from, to)` pair per
//! phase/level, metered into `/octotiger/parcels/*`.  One locality owns
//! every slot, so its schedule is empty and nothing is sent.
//!
//! **Bit-identity.**  Transported values are exact `f64` copies and
//! consumers fold them in CSR order, never arrival order, so the field
//! does not depend on the locality count.
//! `sharded_solve_is_bit_identical_for_every_locality_count` pins this
//! against a golden digest of the one-locality field, and
//! `tests/distributed_equivalence.rs` pins the 10-step ledgers.
//!
//! [`GravitySolver::solve_sharded`]: super::solver::GravitySolver::solve_sharded

use super::direct::PointMasses;
use super::plan::{GravityPlan, SlotKind};
use hpx_rt::{LocalityId, ParcelClass, ParcelTransport};
use kokkos_rs::pool::{Recycled, ScratchArena};
use octree::NodeId;
use std::collections::{BTreeMap, HashMap};

/// One batched cross-locality transfer: the plan-frozen list of slot (or
/// leaf) indices whose payloads travel the `(from, to)` lane together in
/// one parcel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Exchange {
    /// Sending locality.
    pub from: usize,
    /// Receiving locality.
    pub to: usize,
    /// Plan slot indices (or leaf indices for P2P), ascending — the
    /// serialization order on both ends.
    pub slots: Vec<usize>,
}

/// The per-locality halo plan: slot ownership plus the frozen exchange
/// lists of every phase.  Built once per (plan, locality count) and
/// cached by the solver next to the [`GravityPlan`] itself, keyed on the
/// same `topology_version` — a regrid invalidates both together
/// (`hpx-check`'s planted `StaleHalo` bug demonstrates what skipping that
/// invalidation costs).
#[derive(Debug, Clone, PartialEq)]
pub struct DistPlan {
    /// `topology_version` of the plan this halo plan shards.
    pub topology_version: u64,
    /// θ of the underlying plan.
    pub theta: f64,
    /// Node count of the underlying plan.
    pub num_nodes: usize,
    /// Localities the tree is sharded over.
    pub num_localities: usize,
    /// Owner locality of every plan slot (leaves from the partition,
    /// interiors from their SFC-first descendant).
    pub slot_owner: Vec<usize>,
    /// Owner locality of every leaf index.
    pub leaf_owner: Vec<usize>,
    /// `owned_by_level[loc][level]` — slots of `loc` at `level`,
    /// ascending.
    pub owned_by_level: Vec<Vec<Vec<usize>>>,
    /// `owned_m2l_slots[loc]` — M2L target slots owned by `loc`,
    /// ascending (the locality's share of the multipole-kernel launch).
    pub owned_m2l_slots: Vec<Vec<usize>>,
    /// `owned_leaves[loc]` — leaf indices owned by `loc`, ascending (SFC
    /// order).
    pub owned_leaves: Vec<Vec<usize>>,
    /// Upward-pass exchanges, indexed by child tree level: child
    /// multipoles shipped to the parent slot's owner.
    pub up: Vec<Vec<Exchange>>,
    /// M2L halo exchanges: source multipoles shipped to the owners of the
    /// targets that read them.
    pub m2l_halo: Vec<Exchange>,
    /// Downward-pass exchanges, indexed by child tree level: parent local
    /// expansions shipped to the child slots' owners.
    pub down: Vec<Vec<Exchange>>,
    /// P2P halo exchanges: source leaves' point masses shipped to the
    /// owners of near-field neighbours.
    pub p2p_halo: Vec<Exchange>,
}

/// One barrier of the phase-lockstep sharded solve, in the order
/// [`solve_sharded`](super::solver::GravitySolver::solve_sharded) runs
/// them.  Returned by
/// [`DistPlan::phase_schedule`] so verifiers (and future transports) can
/// walk the frozen communication schedule without re-deriving the solver's
/// control flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Phase {
    /// After computing tree level `.0`: child multipoles up to the parent
    /// slot's owner (`up[level]`).
    Up(usize),
    /// Far-field source multipoles to the owners of the targets reading
    /// them (`m2l_halo`).
    M2lHalo,
    /// Before computing tree level `.0`: parent local expansions down to
    /// the child slots' owners (`down[level]`).
    Down(usize),
    /// Near-field source leaves' point masses to the owners of their
    /// neighbours (`p2p_halo`).
    P2pHalo,
}

impl std::fmt::Display for Phase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Phase::Up(level) => write!(f, "up[level {level}]"),
            Phase::M2lHalo => write!(f, "m2l-halo"),
            Phase::Down(level) => write!(f, "down[level {level}]"),
            Phase::P2pHalo => write!(f, "p2p-halo"),
        }
    }
}

/// Turn a `(from, to) → indices` map into a deterministic exchange list:
/// lanes sorted by `(from, to)`, indices sorted ascending, deduplicated.
fn freeze(map: BTreeMap<(usize, usize), Vec<usize>>) -> Vec<Exchange> {
    map.into_iter()
        .map(|((from, to), mut slots)| {
            slots.sort_unstable();
            slots.dedup();
            Exchange { from, to, slots }
        })
        .collect()
}

/// The M2L and P2P halos: per `(from, to)` lane, every source index that
/// a target owned elsewhere reads (slot indices for M2L, leaf indices for
/// P2P).
fn halo_tables(
    plan: &GravityPlan,
    slot_owner: &[usize],
    leaf_owner: &[usize],
) -> (Vec<Exchange>, Vec<Exchange>) {
    let mut m2l: BTreeMap<(usize, usize), Vec<usize>> = BTreeMap::new();
    for &t in &plan.m2l_targets {
        let to = slot_owner[t];
        for &src in plan.m2l_sources_of(t) {
            let from = slot_owner[src];
            if from != to {
                m2l.entry((from, to)).or_default().push(src);
            }
        }
    }
    let mut p2p: BTreeMap<(usize, usize), Vec<usize>> = BTreeMap::new();
    for (li, &to) in leaf_owner.iter().enumerate() {
        for &src in plan.p2p_sources_of(li) {
            let from = leaf_owner[src];
            if from != to {
                p2p.entry((from, to)).or_default().push(src);
            }
        }
    }
    (freeze(m2l), freeze(p2p))
}

/// Leaf slots inherit the partition owner; interiors their SFC-first
/// child's.  Children live at strictly smaller slots, so one ascending
/// sweep resolves every interior.
fn slot_owner_table(plan: &GravityPlan, leaf_owner: &[usize]) -> Vec<usize> {
    let mut slot_owner = vec![usize::MAX; plan.num_nodes];
    for (li, &slot) in plan.leaf_slots.iter().enumerate() {
        slot_owner[slot] = leaf_owner[li];
    }
    for s in 0..plan.num_nodes {
        if let SlotKind::Interior(kids) = plan.kinds[s] {
            slot_owner[s] = slot_owner[kids[0]];
        }
    }
    slot_owner
}

/// The per-locality index tables — O(num slots) ascending sweeps.
#[allow(clippy::type_complexity)]
fn locality_tables(
    plan: &GravityPlan,
    slot_owner: &[usize],
    leaf_owner: &[usize],
    num_localities: usize,
) -> (Vec<Vec<Vec<usize>>>, Vec<Vec<usize>>, Vec<Vec<usize>>) {
    let nlev = plan.level_ranges.len();
    let mut owned_by_level = vec![vec![Vec::new(); nlev]; num_localities];
    for (level, &(b, e)) in plan.level_ranges.iter().enumerate() {
        for s in b..e {
            owned_by_level[slot_owner[s]][level].push(s);
        }
    }
    let mut owned_m2l_slots = vec![Vec::new(); num_localities];
    for &t in &plan.m2l_targets {
        owned_m2l_slots[slot_owner[t]].push(t);
    }
    let mut owned_leaves = vec![Vec::new(); num_localities];
    for (li, &o) in leaf_owner.iter().enumerate() {
        owned_leaves[o].push(li);
    }
    (owned_by_level, owned_m2l_slots, owned_leaves)
}

/// The up/down exchange schedules — one O(num slots) sweep over the
/// parent links.
fn up_down_tables(
    plan: &GravityPlan,
    slot_owner: &[usize],
) -> (Vec<Vec<Exchange>>, Vec<Vec<Exchange>>) {
    let nlev = plan.level_ranges.len();
    let mut up: Vec<BTreeMap<(usize, usize), Vec<usize>>> = vec![BTreeMap::new(); nlev];
    let mut down: Vec<BTreeMap<(usize, usize), Vec<usize>>> = vec![BTreeMap::new(); nlev];
    for (level, &(b, e)) in plan.level_ranges.iter().enumerate().skip(1) {
        for s in b..e {
            let p = plan.parent_slot[s];
            let (so, po) = (slot_owner[s], slot_owner[p]);
            if so != po {
                // Child multipole up to the parent's owner; parent
                // local expansion down to the child's owner.
                up[level].entry((so, po)).or_default().push(s);
                down[level].entry((po, so)).or_default().push(p);
            }
        }
    }
    (
        up.into_iter().map(freeze).collect(),
        down.into_iter().map(freeze).collect(),
    )
}

impl DistPlan {
    /// Shard `plan` over `num_localities` according to `owner` (the leaf
    /// partition; the driver passes [`octree::partition_morton`]).
    pub fn build(
        plan: &GravityPlan,
        owner: &HashMap<NodeId, LocalityId>,
        num_localities: usize,
    ) -> DistPlan {
        assert!(num_localities > 0, "need at least one locality");
        let leaf_owner: Vec<usize> = plan.leaves.iter().map(|l| owner[l].0).collect();
        let slot_owner = slot_owner_table(plan, &leaf_owner);
        debug_assert!(slot_owner.iter().all(|&o| o < num_localities));
        let (owned_by_level, owned_m2l_slots, owned_leaves) =
            locality_tables(plan, &slot_owner, &leaf_owner, num_localities);
        let (up, down) = up_down_tables(plan, &slot_owner);
        let (m2l_halo, p2p_halo) = halo_tables(plan, &slot_owner, &leaf_owner);
        DistPlan {
            topology_version: plan.topology_version,
            theta: plan.theta,
            num_nodes: plan.num_nodes,
            num_localities,
            slot_owner,
            leaf_owner,
            owned_by_level,
            owned_m2l_slots,
            owned_leaves,
            up,
            m2l_halo,
            down,
            p2p_halo,
        }
    }

    /// The halo plan's invalidation rule: it shards exactly `plan` (same
    /// `topology_version`, node count and θ) over the same locality
    /// count.  The owner map is not part of the key because it is a pure
    /// function of (topology, locality count).
    pub fn is_valid_for(&self, plan: &GravityPlan, num_localities: usize) -> bool {
        self.topology_version == plan.topology_version
            && self.num_nodes == plan.num_nodes
            && self.theta == plan.theta
            && self.num_localities == num_localities
    }

    /// The frozen communication schedule, in the exact barrier order
    /// [`solve_sharded`](super::solver::GravitySolver::solve_sharded)
    /// runs: `up[deepest]` … `up[1]`,
    /// the M2L halo, `down[1]` … `down[deepest]`, the P2P halo.  `up[0]`
    /// and `down[0]` (the root level) never exchange and are not part of
    /// the schedule — [`super::verify::verify_dist_plan`] checks they are
    /// empty.
    pub fn phase_schedule(&self) -> Vec<(Phase, &[Exchange])> {
        let nlev = self.up.len();
        let mut schedule: Vec<(Phase, &[Exchange])> = Vec::with_capacity(2 * nlev);
        for level in (1..nlev).rev() {
            schedule.push((Phase::Up(level), &self.up[level]));
        }
        schedule.push((Phase::M2lHalo, &self.m2l_halo));
        for level in 1..nlev {
            schedule.push((Phase::Down(level), &self.down[level]));
        }
        schedule.push((Phase::P2pHalo, &self.p2p_halo));
        schedule
    }

    /// Total parcels one solve moves (every exchange is one parcel).
    pub fn parcels_per_solve(&self) -> usize {
        self.up.iter().map(Vec::len).sum::<usize>()
            + self.m2l_halo.len()
            + self.down.iter().map(Vec::len).sum::<usize>()
            + self.p2p_halo.len()
    }
}

/// Append the flat parcel encoding of a point set: count, then the four
/// SoA component runs (exact bit copies).
pub(crate) fn write_points_flat(p: &PointMasses, out: &mut Vec<f64>) {
    out.push(p.len() as f64);
    out.extend_from_slice(&p.xs);
    out.extend_from_slice(&p.ys);
    out.extend_from_slice(&p.zs);
    out.extend_from_slice(&p.ms);
}

/// Decode one point set from the front of `buf` into `out`, reusing its
/// storage; returns the words consumed.
pub(crate) fn read_points_into(buf: &[f64], out: &mut PointMasses) -> usize {
    let n = buf[0] as usize;
    for (k, v) in [&mut out.xs, &mut out.ys, &mut out.zs, &mut out.ms]
        .into_iter()
        .enumerate()
    {
        v.clear();
        v.extend_from_slice(&buf[1 + k * n..1 + (k + 1) * n]);
    }
    1 + 4 * n
}

/// The parcel side of one sharded solve: a typed transport between the
/// localities and the arena its payloads are checked out of.
pub(crate) struct Wire {
    transport: ParcelTransport<Recycled<f64>>,
    arena: ScratchArena,
}

impl Wire {
    pub(crate) fn new(num_localities: usize, arena: ScratchArena) -> Wire {
        Wire {
            transport: ParcelTransport::new(num_localities),
            arena,
        }
    }

    /// Move one phase's frozen exchange list: serialize on the sender's
    /// side into a recycled payload (`words_per_slot` sizes its checkout),
    /// one parcel per `(from, to)` lane, then decode on the receiver's
    /// side in the same frozen order.  Phases are lockstep, so every
    /// parcel is queued by receive time.  An empty list — every list of a
    /// one-locality plan — sends nothing.
    pub(crate) fn exchange<B>(
        &self,
        bufs: &mut [B],
        exchanges: &[Exchange],
        class: ParcelClass,
        words_per_slot: usize,
        pack: impl Fn(&B, usize, &mut Vec<f64>),
        unpack: impl Fn(&mut B, usize, &[f64]) -> usize,
    ) {
        for ex in exchanges {
            let mut payload = self.arena.checkout_empty(ex.slots.len() * words_per_slot);
            for &s in &ex.slots {
                pack(&bufs[ex.from], s, &mut payload);
            }
            let bytes = payload.len() * std::mem::size_of::<f64>();
            self.transport.send(ex.from, ex.to, class, bytes, payload);
        }
        for ex in exchanges {
            let parcel = self
                .transport
                .try_receive(ex.from, ex.to)
                .expect("lockstep exchange: parcel queued");
            let mut off = 0usize;
            for &s in &ex.slots {
                off += unpack(&mut bufs[ex.to], s, &parcel.payload[off..]);
            }
            debug_assert_eq!(off, parcel.payload.len(), "parcel decode misaligned");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gravity::solver::tests::{assert_bit_identical, sources_in_box};
    use crate::gravity::solver::{GravitySolver, LeafField, SolveStats};
    use hpx_rt::Runtime;
    use kokkos_rs::ExecSpace;
    use octree::{partition_morton, Tree};
    use std::sync::Arc;

    fn plan_for(tree: &Tree) -> GravityPlan {
        GravityPlan::build(tree, 0.5)
    }

    #[test]
    fn slot_ownership_is_total_and_follows_first_children() {
        let tree = Tree::new_uniform(2);
        let plan = plan_for(&tree);
        let owner = partition_morton(&tree, 4);
        let dist = DistPlan::build(&plan, &owner, 4);
        assert_eq!(dist.slot_owner.len(), plan.num_nodes);
        for (s, kind) in plan.kinds.iter().enumerate() {
            match kind {
                SlotKind::Leaf(li) => {
                    assert_eq!(dist.slot_owner[s], owner[&plan.leaves[*li]].0);
                }
                SlotKind::Interior(kids) => {
                    assert_eq!(dist.slot_owner[s], dist.slot_owner[kids[0]]);
                }
            }
        }
        // Every slot appears in exactly one locality's level list.
        let total: usize = dist
            .owned_by_level
            .iter()
            .flat_map(|per| per.iter().map(Vec::len))
            .sum();
        assert_eq!(total, plan.num_nodes);
    }

    #[test]
    fn exchanges_only_cross_locality_boundaries() {
        let tree = Tree::new_uniform(2);
        let plan = plan_for(&tree);
        let owner = partition_morton(&tree, 3);
        let dist = DistPlan::build(&plan, &owner, 3);
        assert!(dist.parcels_per_solve() > 0, "3-way shard must communicate");
        for ex in dist
            .up
            .iter()
            .flatten()
            .chain(dist.m2l_halo.iter())
            .chain(dist.down.iter().flatten())
            .chain(dist.p2p_halo.iter())
        {
            assert_ne!(ex.from, ex.to, "local traffic must not become parcels");
            assert!(!ex.slots.is_empty());
            assert!(ex.slots.windows(2).all(|w| w[0] < w[1]), "frozen order");
        }
        // Single-locality sharding communicates nothing.
        let dist1 = DistPlan::build(&plan, &partition_morton(&tree, 1), 1);
        assert_eq!(dist1.parcels_per_solve(), 0);
    }

    #[test]
    fn halo_plan_invalidates_with_the_interaction_plan() {
        let mut tree = Tree::new_uniform(1);
        let plan = plan_for(&tree);
        let owner = partition_morton(&tree, 2);
        let dist = DistPlan::build(&plan, &owner, 2);
        assert!(dist.is_valid_for(&plan, 2));
        assert!(!dist.is_valid_for(&plan, 4), "locality count is in the key");
        tree.refine_balanced(tree.leaves()[0]);
        let plan2 = plan_for(&tree);
        assert!(
            !dist.is_valid_for(&plan2, 2),
            "topology bump must invalidate the halo plan"
        );
    }

    /// FNV-1a over the `phi`/`gx`/`gy`/`gz` bits of every leaf, in
    /// `tree.leaves()` order.
    fn field_digest(tree: &Tree, fields: &HashMap<NodeId, LeafField>) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for leaf in tree.leaves() {
            let f = &fields[&leaf];
            for arr in [&f.phi, &f.gx, &f.gy, &f.gz] {
                for byte in arr.iter().flat_map(|v| v.to_bits().to_le_bytes()) {
                    h = (h ^ byte as u64).wrapping_mul(0x0000_0100_0000_01b3);
                }
            }
        }
        h
    }

    /// Field digests of the one-locality solve on the uniform level-2 tree
    /// and the refined tree below, recorded with the separate local-only
    /// solve this sharded solve replaced (identical in both vector modes).
    const GOLDEN: [u64; 2] = [0xdcc5_a676_660f_dbda, 0x14ac_1c1e_df7c_3260];

    #[test]
    fn sharded_solve_is_bit_identical_for_every_locality_count() {
        let mut adaptive = Tree::new_uniform(1);
        adaptive.refine_balanced(adaptive.leaves()[0]);
        for (tree, golden) in [Tree::new_uniform(2), adaptive].into_iter().zip(GOLDEN) {
            let sources = sources_in_box(&tree, 3, 2.0);
            let solver = GravitySolver::default();
            let plan = solver.plan_for(&tree);
            let mut reference: Option<(HashMap<NodeId, LeafField>, SolveStats)> = None;
            for nloc in [1usize, 2, 3, 4, 7] {
                let owner = partition_morton(&tree, nloc);
                let dist = solver.dist_plan_for(&plan, &owner, nloc);
                let rts: Vec<Runtime> = (0..nloc).map(|_| Runtime::new(2)).collect();
                let spaces: Vec<ExecSpace> = rts.iter().cloned().map(ExecSpace::hpx).collect();
                let (fields, stats) = solver.solve_sharded(&plan, &dist, &sources, &spaces);
                for rt in rts {
                    rt.shutdown();
                }
                let Some((f_ref, s_ref)) = &reference else {
                    assert_eq!(field_digest(&tree, &fields), golden, "one-locality digest");
                    reference = Some((fields, stats));
                    continue;
                };
                assert_eq!(*s_ref, stats, "nloc={nloc}");
                assert_bit_identical(&tree, f_ref, &fields);
            }
        }
    }

    #[test]
    fn dist_plan_cache_hits_until_the_topology_changes() {
        let tree = Tree::new_uniform(2);
        let solver = GravitySolver::default();
        let plan = solver.plan_for(&tree);
        let owner = partition_morton(&tree, 4);
        let d1 = solver.dist_plan_for(&plan, &owner, 4);
        let d2 = solver.dist_plan_for(&plan, &owner, 4);
        assert!(Arc::ptr_eq(&d1, &d2), "unchanged key must hit the cache");
        assert_eq!(solver.dist_plan_counters(), (1, 1));
        // A different locality count misses...
        let owner2 = partition_morton(&tree, 2);
        let d3 = solver.dist_plan_for(&plan, &owner2, 2);
        assert!(!Arc::ptr_eq(&d1, &d3));
        assert_eq!(solver.dist_plan_counters(), (1, 2));
        // ...and the clone shares the cache, like the interaction plan's.
        let clone = solver.clone();
        clone.dist_plan_for(&plan, &owner2, 2);
        assert_eq!(solver.dist_plan_counters(), (2, 2));
    }

    #[test]
    fn distributed_solve_meters_parcels() {
        let tree = Tree::new_uniform(2);
        let sources = sources_in_box(&tree, 2, 2.0);
        let solver = GravitySolver::default();
        let plan = solver.plan_for(&tree);
        let owner = partition_morton(&tree, 4);
        let dist = solver.dist_plan_for(&plan, &owner, 4);
        let before = hpx_rt::parcel_counters().snapshot();
        let rts: Vec<Runtime> = (0..4).map(|_| Runtime::new(2)).collect();
        let spaces: Vec<ExecSpace> = rts.iter().cloned().map(ExecSpace::hpx).collect();
        let _ = solver.solve_sharded(&plan, &dist, &sources, &spaces);
        let delta = hpx_rt::parcel_counters().snapshot().since(&before);
        // Other tests in this process may send parcels concurrently, so
        // the delta is a lower bound here; the distributed-equivalence
        // suite asserts the exact per-solve count in isolation.
        assert!(
            delta.total_count() as usize >= dist.parcels_per_solve(),
            "every frozen exchange is one metered parcel"
        );
        assert!(delta.m2l_count > 0);
        assert!(delta.p2p_count > 0);
        assert!(delta.total_bytes() > 0);
        for rt in rts {
            rt.shutdown();
        }
    }

    #[test]
    fn point_flat_encoding_round_trips() {
        let mut p = PointMasses::default();
        p.push([1.0, 2.0, 3.0], 4.0);
        p.push([-1.5, 0.25, -0.125], 2.5);
        let mut wire = Vec::new();
        write_points_flat(&p, &mut wire);
        write_points_flat(&p, &mut wire);
        // Decode into recycled storage that holds a longer, stale set.
        let mut back = PointMasses::default();
        for _ in 0..5 {
            back.push([9.0; 3], 9.0);
        }
        let used = read_points_into(&wire, &mut back);
        assert_eq!(used, 1 + 4 * p.len());
        assert_eq!(
            (&back.xs, &back.ys, &back.zs, &back.ms),
            (&p.xs, &p.ys, &p.zs, &p.ms)
        );
        let used2 = read_points_into(&wire[used..], &mut back);
        assert_eq!(used2, used);
        assert_eq!(back.zs, p.zs);
    }
}
