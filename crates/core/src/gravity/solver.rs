//! The FMM solver: one sharded solve over a cached [`GravityPlan`] and
//! its [`DistPlan`], plus the task-splittable multipole kernel.
//!
//! Phase structure follows paper Section VII-C: *"In each gravity solver
//! iteration, we have one bottom-up tree traversal.  In the second step, we
//! then calculate the same-level cell-to-cell interactions on each tree
//! level.  Lastly, we do a third top-down step tree-traversal to compute
//! the final results."*  The second step — the multipole (M2L) kernel — is
//! launched through the Kokkos-style `ExecSpace` with a configurable
//! [`GravityOptions::tasks_per_multipole_kernel`]: 1 task (Octo-Tiger's
//! default, hot cache) or 16 tasks (the paper's anti-starvation setting,
//! Figure 9).
//!
//! The *dual-tree traversal* that decides near/far is **not** redone per
//! solve: it is frozen into a [`GravityPlan`] keyed on
//! [`Tree::topology_version`] and θ, cached on the solver (and shared by
//! its clones), and only rebuilt after a regrid — mirroring the real
//! Octo-Tiger, which computes interaction lists once per regrid.  Plan
//! reuse is observable through the global
//! `/octotiger/gravity/plan-{hits,rebuilds}` counters and the per-solver
//! [`GravitySolver::plan_counters`].
//!
//! **One solve for every locality count.**  [`GravitySolver::solve_sharded`]
//! runs each phase once per locality over that locality's owned slots and
//! leaves, as dense-index `parallel_for_mut` launches with per-chunk
//! disjoint `&mut` slices — no `HashMap` lookups and no `Mutex` traffic on
//! the hot path.  Between phases the only traffic is the [`DistPlan`]'s
//! frozen exchange schedule.  A single locality is the degenerate case —
//! it owns everything and its schedule is empty — which is exactly what
//! [`GravitySolver::solve`] runs, the way an HPX program runs unchanged on
//! one locality with no parcels.

use super::direct::{p2p_at_w, p2p_at_wide, PointMasses};
use super::dist::{read_points_into, write_points_flat, DistPlan, Wire};
use super::m2l_simd::{m2l_accumulate_w, m2l_accumulate_wide, MultipoleSoA};
use super::multipole::{LocalExpansion, Multipole};
use super::plan::{GravityPlan, SlotKind};
use hpx_rt::{LocalityId, ParcelClass};
use kokkos_rs::pool::{Recycled, ScratchArena};
use kokkos_rs::{parallel_for_mut, ChunkSpec, ExecSpace, RangePolicy};
use octree::{NodeId, Tree};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use sve_simd::VectorMode;

#[cfg(test)]
pub(crate) use super::plan::node_geometry;

/// FMM solver options.
#[derive(Debug, Clone, Copy)]
pub struct GravityOptions {
    /// Multipole acceptance parameter: nodes are well separated when
    /// `(r_a + r_b) / d < theta`.  Smaller = more accurate, more P2P.
    pub theta: f64,
    /// Include the octupole term — the paper's angular-momentum-conserving
    /// FMM modification.
    pub use_octupole: bool,
    /// HPX tasks per multipole-kernel launch (Figure 9: 1 = OFF, 16 = ON).
    pub tasks_per_multipole_kernel: usize,
    /// HPX tasks per P2P/evaluation kernel launch; 0 = `ChunkSpec::Auto`
    /// (one task per worker).  An online-tuner knob — any value is bitwise
    /// neutral because each leaf's output slot is computed independently.
    pub tasks_per_p2p_kernel: usize,
    /// HPX tasks per slot-table (upward/downward) kernel launch; 0 =
    /// `ChunkSpec::Auto`.  Task boundaries stay lane-aligned regardless
    /// (the `SplitsVectorLane` invariant), so any value is bitwise neutral.
    pub tasks_per_slot_kernel: usize,
    /// SIMD width for the P2P kernels (Figure 7).
    pub vector_mode: VectorMode,
}

impl Default for GravityOptions {
    fn default() -> Self {
        GravityOptions {
            theta: 0.5,
            use_octupole: true,
            tasks_per_multipole_kernel: 1,
            tasks_per_p2p_kernel: 0,
            tasks_per_slot_kernel: 0,
            // SVE unless the OCTO_VECTOR_MODE env override says otherwise
            // (how CI runs the suite once per backend).
            vector_mode: VectorMode::env_default(),
        }
    }
}

/// Point-mass content of one leaf (cell centers + cell masses, physical
/// coordinates).
#[derive(Debug, Clone, Default)]
pub struct LeafSources {
    /// SoA point masses of the leaf's cells.
    pub points: PointMasses,
}

/// Gravity output for one leaf: potential and acceleration per cell, in the
/// same cell order as the input points.
///
/// The arrays are checked out of the solver's [`ScratchArena`]: dropping a
/// step's field map returns them for the next solve, so steady-state
/// gravity allocates nothing.  (A `Default`/`Clone` field is detached —
/// owned outright, freed on drop.)
#[derive(Debug, Clone, Default)]
pub struct LeafField {
    pub phi: Recycled<f64>,
    pub gx: Recycled<f64>,
    pub gy: Recycled<f64>,
    pub gz: Recycled<f64>,
}

/// Interaction statistics of one solve (inputs to the cluster workload
/// model and the Figure 9 discussion).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolveStats {
    /// Number of M2L (multipole) interactions.
    pub m2l_interactions: usize,
    /// Number of ordered P2P leaf pairs (including self pairs).
    pub p2p_pairs: usize,
    /// Number of M2L kernel launches (targets with a non-empty list).
    pub multipole_kernel_launches: usize,
}

/// One locality's working set, recycled on the plan cache so steady-state
/// solves allocate nothing (CPPuddle-style, like the `ScratchArena` the
/// `LeafField` outputs recycle through).  The slot buffers are full
/// length: slots the locality neither owns nor receives keep stale values
/// and are never read — only plan-listed sources are.
#[derive(Debug, Default)]
struct ShardBuffers {
    /// Per-slot multipole moments (the upward pass's output).
    multipoles: Vec<Multipole>,
    /// Per-slot local expansions (M2L targets + downward accumulation).
    locals: Vec<LocalExpansion>,
    /// Dense M2L accumulators, aligned with the locality's target list.
    acc: Vec<LocalExpansion>,
    /// Component-major multipole lanes for the SIMD M2L kernel's gathers.
    soa: MultipoleSoA,
    /// Received near-field points, indexed by leaf; only the leaves the
    /// P2P halo delivers in the current solve are read.
    halo: Vec<PointMasses>,
    /// Output fields of the owned leaves, in owned-leaf order.
    fields: Vec<LeafField>,
}

/// The solver's plan cache: shared (`Arc`) between a solver and its clones
/// so the pipelined stepper's solver clone hits the same cache.
#[derive(Debug, Default)]
struct PlanCache {
    plan: Mutex<Option<Arc<GravityPlan>>>,
    shards: Mutex<Option<Vec<ShardBuffers>>>,
    hits: AtomicU64,
    rebuilds: AtomicU64,
    last_hit: AtomicBool,
    /// Cached halo plan, keyed (like the interaction plan itself) on
    /// `topology_version`, θ, and the locality count — a regrid
    /// invalidates both plans together.
    dist: Mutex<Option<Arc<DistPlan>>>,
    dist_hits: AtomicU64,
    dist_rebuilds: AtomicU64,
}

/// The FMM solver.
#[derive(Debug, Clone, Default)]
pub struct GravitySolver {
    pub opts: GravityOptions,
    /// Arena the per-leaf output fields (and parcel payloads) are checked
    /// out of.  Pass a long-lived pool via [`GravitySolver::with_scratch`]
    /// to recycle them across solves; a solver built with
    /// [`GravitySolver::new`] gets its own (then recycling only spans that
    /// solver's lifetime).
    scratch: ScratchArena,
    /// Cached interaction and halo plans + recycled locality buffers,
    /// shared with clones of this solver.
    cache: Arc<PlanCache>,
}

impl GravitySolver {
    /// New solver with the given options and a private scratch arena.
    pub fn new(opts: GravityOptions) -> GravitySolver {
        GravitySolver {
            opts,
            scratch: ScratchArena::new(),
            cache: Arc::new(PlanCache::default()),
        }
    }

    /// New solver drawing its output buffers from `scratch` — the
    /// simulation passes its own arena so fields recycle across steps.
    pub fn with_scratch(opts: GravityOptions, scratch: ScratchArena) -> GravitySolver {
        GravitySolver {
            opts,
            scratch,
            cache: Arc::new(PlanCache::default()),
        }
    }

    /// Swap the output arena (the driver does this when the user disables
    /// scratch recycling and rebuilds the arena each step).  The plan
    /// cache is untouched: buffer pooling and traversal caching are
    /// independent switches.
    pub fn set_scratch(&mut self, scratch: ScratchArena) {
        self.scratch = scratch;
    }

    /// The interaction plan for `tree`: the cached one when still valid
    /// (a *plan hit* — zero traversal work), else a freshly traversed one
    /// (a *plan rebuild*).  A regrid bumps the tree's `topology_version`,
    /// so the first solve after it rebuilds the plan from scratch.
    pub fn plan_for(&self, tree: &Tree) -> Arc<GravityPlan> {
        let mut guard = self.cache.plan.lock();
        if let Some(plan) = guard.as_ref() {
            if plan.is_valid_for(tree, self.opts.theta) {
                self.cache.hits.fetch_add(1, Ordering::Relaxed);
                self.cache.last_hit.store(true, Ordering::Relaxed);
                hpx_rt::gravity_plan_counters().note_hit();
                return plan.clone();
            }
        }
        let had_old = guard.is_some();
        let plan = Arc::new(GravityPlan::build(tree, self.opts.theta));
        // Every rebuild is statically verified in debug builds, so the
        // whole test suite exercises the plan verifier for free.
        #[cfg(debug_assertions)]
        {
            let violations = super::verify::verify_gravity_plan(&plan);
            debug_assert!(
                violations.is_empty(),
                "rebuilt gravity plan failed static verification:\n{}",
                violations
                    .iter()
                    .map(|v| format!("  {v}"))
                    .collect::<Vec<_>>()
                    .join("\n")
            );
        }
        self.cache.rebuilds.fetch_add(1, Ordering::Relaxed);
        self.cache.last_hit.store(false, Ordering::Relaxed);
        hpx_rt::gravity_plan_counters().note_rebuild();
        if had_old {
            // A topology change invalidated the cached plan.
            hpx_rt::regrid_counters().note_plan_rebuilt();
        }
        *guard = Some(plan.clone());
        plan
    }

    /// Drop the cached plan: the next [`GravitySolver::plan_for`] re-runs
    /// the dual-tree traversal.  Used by the per-step-rebuild reference
    /// configuration (`SimOptions::cache_gravity_plan = false`) and the
    /// benchmark baseline.
    pub fn invalidate_plan(&self) {
        *self.cache.plan.lock() = None;
    }

    /// Whether the most recent [`GravitySolver::plan_for`] reused the
    /// cached plan.
    pub fn last_plan_hit(&self) -> bool {
        self.cache.last_hit.load(Ordering::Relaxed)
    }

    /// Per-solver (plan-hit, plan-rebuild) counts — exact even when other
    /// solvers in the process bump the global counters concurrently.
    pub fn plan_counters(&self) -> (u64, u64) {
        (
            self.cache.hits.load(Ordering::Relaxed),
            self.cache.rebuilds.load(Ordering::Relaxed),
        )
    }

    /// The halo plan sharding `plan` over `num_localities`: cached when
    /// still valid (same `topology_version`, node count, θ, and locality
    /// count), else rebuilt from `owner`.
    ///
    /// `owner` must be a deterministic function of (tree topology,
    /// locality count) — the driver derives it from
    /// [`octree::partition_morton`] — since it is *not* part of the cache
    /// key; only the quantities above are.
    pub fn dist_plan_for(
        &self,
        plan: &GravityPlan,
        owner: &HashMap<NodeId, LocalityId>,
        num_localities: usize,
    ) -> Arc<DistPlan> {
        let mut guard = self.cache.dist.lock();
        if let Some(dist) = guard.as_ref() {
            if dist.is_valid_for(plan, num_localities) {
                self.cache.dist_hits.fetch_add(1, Ordering::Relaxed);
                return dist.clone();
            }
        }
        let had_old = guard.is_some();
        let dist = Arc::new(DistPlan::build(plan, owner, num_localities));
        // Every rebuilt halo plan is protocol-verified in debug builds —
        // `tests/distributed_equivalence.rs` runs this on all its
        // N/tree/stepper combinations without any extra test code.
        #[cfg(debug_assertions)]
        {
            let violations = super::verify::verify_dist_plan(plan, &dist);
            debug_assert!(
                violations.is_empty(),
                "rebuilt halo plan failed protocol verification:\n{}",
                violations
                    .iter()
                    .map(|v| format!("  {v}"))
                    .collect::<Vec<_>>()
                    .join("\n")
            );
        }
        self.cache.dist_rebuilds.fetch_add(1, Ordering::Relaxed);
        if had_old {
            hpx_rt::regrid_counters().note_plan_rebuilt();
        }
        *guard = Some(dist.clone());
        dist
    }

    /// Per-solver (halo-plan-hit, halo-plan-rebuild) counts.
    pub fn dist_plan_counters(&self) -> (u64, u64) {
        (
            self.cache.dist_hits.load(Ordering::Relaxed),
            self.cache.dist_rebuilds.load(Ordering::Relaxed),
        )
    }

    /// The cached one-locality halo plan of `plan`: locality 0 owns every
    /// slot and the exchange schedule is empty.
    fn one_locality(&self, plan: &GravityPlan) -> Arc<DistPlan> {
        let owner = plan.leaves.iter().map(|&l| (l, LocalityId(0))).collect();
        self.dist_plan_for(plan, &owner, 1)
    }

    /// Solve for the gravitational field of `sources` on `tree`, running
    /// the kernels on `space`: [`GravitySolver::plan_for`], the cached
    /// one-locality halo plan, then [`GravitySolver::solve_sharded`].
    pub fn solve(
        &self,
        tree: &Tree,
        sources: &HashMap<NodeId, LeafSources>,
        space: &ExecSpace,
    ) -> (HashMap<NodeId, LeafField>, SolveStats) {
        let plan = self.plan_for(tree);
        let dist = self.one_locality(&plan);
        self.solve_sharded(&plan, &dist, sources, std::slice::from_ref(space))
    }

    /// Run the three solver phases sharded over `dist.num_localities`
    /// localities, locality `loc` computing its owned slots and leaves on
    /// `spaces[loc]`.  Between phases the frozen exchange lists of `dist`
    /// move expansions and near-field points as typed parcels (metered
    /// into `/octotiger/parcels/*`); a one-locality plan has none.
    ///
    /// **Bit-identity.**  Every slot and leaf is computed by the same
    /// kernel from the same operands in the same plan-frozen order for
    /// any locality count: transported values are exact `f64` copies, and
    /// consumers fold them in CSR order, never arrival order.
    pub fn solve_sharded(
        &self,
        plan: &GravityPlan,
        dist: &DistPlan,
        sources: &HashMap<NodeId, LeafSources>,
        spaces: &[ExecSpace],
    ) -> (HashMap<NodeId, LeafField>, SolveStats) {
        let nloc = dist.num_localities;
        assert_eq!(spaces.len(), nloc, "one execution space per locality");
        debug_assert!(dist.is_valid_for(plan, nloc));
        // Dense per-leaf point handles: no kernel hashes a `NodeId`.
        let points: Vec<&PointMasses> = plan.leaves.iter().map(|l| &sources[l].points).collect();
        // Check the locality buffers out of the cache (or build fresh on
        // first use / when a concurrent solve holds them).
        let mut shards = self.cache.shards.lock().take().unwrap_or_default();
        shards.resize_with(nloc, ShardBuffers::default);
        for b in &mut shards {
            b.multipoles
                .resize(plan.num_nodes, Multipole::zero([0.0; 3]));
            b.halo.resize_with(plan.leaves.len(), PointMasses::default);
        }
        let wire = Wire::new(nloc, self.scratch.clone());

        // ---- Phase 1: bottom-up (P2M + M2M), then the M2L halo. --------
        self.upward(plan, dist, &points, &mut shards, spaces, &wire);

        // ---- Phase 2: each locality's multipole (M2L) kernel. ----------
        on_localities(spaces, &mut shards, &|loc, space, b| {
            // Transpose the slot table into component-major lanes once
            // per solve; every M2L chunk then gathers from dense arrays.
            b.soa.fill(&b.multipoles);
            self.far_field(plan, &dist.owned_m2l_slots[loc], b, space);
        });

        // ---- Phase 3: top-down (L2L), then the P2P halo + evaluation. --
        self.downward(plan, dist, &mut shards, spaces, &wire);
        self.near_field(plan, dist, &points, &mut shards, spaces, &wire);

        // ---- Assemble the global field map from the owned shards. ------
        let mut fields = HashMap::with_capacity(plan.leaves.len());
        for (owned, b) in dist.owned_leaves.iter().zip(&mut shards) {
            let leaves = owned.iter().map(|&li| plan.leaves[li]);
            fields.extend(leaves.zip(b.fields.drain(..)));
        }
        *self.cache.shards.lock() = Some(shards);
        (fields, plan.stats)
    }

    /// Lane-aligned policy of a slot-table (upward/downward) launch: the
    /// kernels walk their chunk in `SVE_LANES_F64`-wide blocks, so an
    /// interior task boundary inside a lane block would let two tasks'
    /// stores touch the same block (`hpx-check races` validates this
    /// carving against the plan's launch sequence).
    fn slot_policy(&self, len: usize) -> RangePolicy {
        RangePolicy::new(0, len)
            .with_chunk(ChunkSpec::tasks_or_auto(self.opts.tasks_per_slot_kernel))
            .with_lanes(sve_simd::SVE_LANES_F64)
    }

    /// Phase 1, deepest level first: each locality launches one kernel
    /// over the span of its owned slots of the level, then child
    /// multipoles whose parent lives elsewhere cross as `multipole-up`
    /// parcels; last, far-field sources read by targets owned elsewhere
    /// cross as `m2l` parcels.  `split_at_mut` at the span's first slot
    /// separates the already-finalized deeper levels (shared reads) from
    /// the slots being written (disjoint chunk writes), so no locks are
    /// needed.  Leaves compute P2M straight from their SoA points
    /// ([`Multipole::from_soa`] — no per-leaf AoS copy); interiors combine
    /// their eight children.
    fn upward(
        &self,
        plan: &GravityPlan,
        dist: &DistPlan,
        points: &[&PointMasses],
        shards: &mut [ShardBuffers],
        spaces: &[ExecSpace],
        wire: &Wire,
    ) {
        let pack = |b: &ShardBuffers, s: usize, out: &mut Vec<f64>| b.multipoles[s].write_flat(out);
        let unpack = |b: &mut ShardBuffers, s: usize, buf: &[f64]| {
            b.multipoles[s] = Multipole::read_flat(buf);
            Multipole::FLAT_LEN
        };
        for level in (0..plan.level_ranges.len()).rev() {
            on_localities(spaces, shards, &|loc, space, b| {
                let Some((lo, hi)) = span(&dist.owned_by_level[loc][level]) else {
                    return;
                };
                let (deeper, rest) = b.multipoles.split_at_mut(lo);
                parallel_for_mut(
                    space,
                    self.slot_policy(hi - lo),
                    &mut rest[..hi - lo],
                    |i, out| {
                        let s = lo + i;
                        // Only a partition that is not SFC-contiguous
                        // leaves foreign slots inside the span.
                        if dist.slot_owner[s] != loc {
                            return;
                        }
                        let mut mp = match plan.kinds[s] {
                            SlotKind::Leaf(li) => Multipole::from_soa(points[li]),
                            SlotKind::Interior(kids) => {
                                // Fixed-size gather: no per-slot heap allocation
                                // inside the kernel body (the zero-alloc steady
                                // state hpx-check's allocation lint guards).
                                let children: [&Multipole; 8] =
                                    std::array::from_fn(|c| &deeper[kids[c]]);
                                Multipole::combine(&children)
                            }
                        };
                        if mp.m == 0.0 {
                            mp = Multipole::zero(plan.centers[s]);
                        }
                        *out = mp;
                    },
                );
            });
            wire.exchange(
                shards,
                &dist.up[level],
                ParcelClass::MultipoleUp,
                Multipole::FLAT_LEN,
                pack,
                unpack,
            );
        }
        wire.exchange(
            shards,
            &dist.m2l_halo,
            ParcelClass::M2l,
            Multipole::FLAT_LEN,
            pack,
            unpack,
        );
    }

    /// Phase 2 on one locality: M2L for each of its `targets`, split into
    /// `tasks_per_multipole_kernel` HPX tasks (Figure 9).  Each chunk owns
    /// a disjoint `&mut` slice of the dense accumulator buffer, scattered
    /// into the slot table afterwards.  Per-target source order comes from
    /// the plan's CSR lists; the width-generic kernel accumulates source
    /// `i` into stripe `i % 8` and folds the stripes in one fixed order at
    /// every width, so the sum is bit-identical for any task count *and*
    /// any vector width.
    fn far_field(
        &self,
        plan: &GravityPlan,
        targets: &[usize],
        b: &mut ShardBuffers,
        space: &ExecSpace,
    ) {
        b.locals.clear();
        b.locals.resize(plan.num_nodes, LocalExpansion::zero());
        b.acc.resize(targets.len(), LocalExpansion::zero());
        let use_oct = self.opts.use_octupole;
        let mode = self.opts.vector_mode;
        let policy = RangePolicy::new(0, targets.len())
            .with_chunk(ChunkSpec::Tasks(self.opts.tasks_per_multipole_kernel));
        let soa = &b.soa;
        parallel_for_mut(space, policy, &mut b.acc, |t, out| {
            let target = targets[t];
            let center = plan.centers[target];
            let srcs = plan.m2l_sources_of(target);
            let mut sum = LocalExpansion::zero();
            match mode {
                VectorMode::Scalar => m2l_accumulate_w::<1>(soa, srcs, center, use_oct, &mut sum),
                VectorMode::Sve512 => m2l_accumulate_wide(soa, srcs, center, use_oct, &mut sum),
            }
            *out = sum;
        });
        for (t, &slot) in targets.iter().enumerate() {
            b.locals[slot] = b.acc[t].clone();
        }
    }

    /// Phase 3a, shallowest child level first: parent local expansions
    /// read by children owned elsewhere cross as `multipole-down` parcels,
    /// then each locality propagates them (L2L) in *gather* form — every
    /// owned slot adds its parent's shifted expansion, so each launch
    /// writes disjoint `&mut` chunks of the child span while reading the
    /// (finalized, shallower) parent range.
    fn downward(
        &self,
        plan: &GravityPlan,
        dist: &DistPlan,
        shards: &mut [ShardBuffers],
        spaces: &[ExecSpace],
        wire: &Wire,
    ) {
        for level in 1..plan.level_ranges.len() {
            wire.exchange(
                shards,
                &dist.down[level],
                ParcelClass::MultipoleDown,
                LocalExpansion::FLAT_LEN,
                |b, s, out| b.locals[s].write_flat(out),
                |b, s, buf| {
                    b.locals[s] = LocalExpansion::read_flat(buf);
                    LocalExpansion::FLAT_LEN
                },
            );
            on_localities(spaces, shards, &|loc, space, b| {
                let Some((lo, hi)) = span(&dist.owned_by_level[loc][level]) else {
                    return;
                };
                // Slots ≥ hi include the parent level and everything
                // shallower — all finalized; slots in [lo, hi) are written.
                let (rest, shallower) = b.locals.split_at_mut(hi);
                parallel_for_mut(
                    space,
                    self.slot_policy(hi - lo),
                    &mut rest[lo..],
                    |i, out| {
                        let s = lo + i;
                        if dist.slot_owner[s] != loc {
                            return;
                        }
                        let p = plan.parent_slot[s];
                        debug_assert!(p >= hi, "parent must be in the shallower half");
                        let pc = plan.centers[p];
                        let cc = plan.centers[s];
                        let d = [cc[0] - pc[0], cc[1] - pc[1], cc[2] - pc[2]];
                        out.add_assign(&shallower[p - hi].shifted(d));
                    },
                );
            });
        }
    }

    /// Phase 3b: near-field source leaves read by leaves owned elsewhere
    /// cross as `p2p` parcels (decoded into the recycled halo), then each
    /// locality evaluates local expansions at its owned leaves' cell
    /// centers and adds the P2P near field — one disjoint output slot per
    /// leaf, no locks.  Sources come through a dense per-leaf table built
    /// outside the kernel (owned leaves from the inputs, the rest from the
    /// received halo), so the cell × source loop does no lookup and no
    /// owner test.
    fn near_field(
        &self,
        plan: &GravityPlan,
        dist: &DistPlan,
        points: &[&PointMasses],
        shards: &mut [ShardBuffers],
        spaces: &[ExecSpace],
        wire: &Wire,
    ) {
        wire.exchange(
            shards,
            &dist.p2p_halo,
            ParcelClass::P2p,
            0,
            |_, li, out| write_points_flat(points[li], out),
            |b, li, buf| read_points_into(buf, &mut b.halo[li]),
        );
        let mode = self.opts.vector_mode;
        on_localities(spaces, shards, &|loc, space, b| {
            let sides = points.iter().zip(&b.halo).zip(&dist.leaf_owner);
            let table: Vec<&PointMasses> = sides
                .map(|((&own, recv), &o)| if o == loc { own } else { recv })
                .collect();
            let owned = &dist.owned_leaves[loc];
            b.fields.clear();
            b.fields.resize_with(owned.len(), LeafField::default);
            let policy = RangePolicy::new(0, owned.len())
                .with_chunk(ChunkSpec::tasks_or_auto(self.opts.tasks_per_p2p_kernel));
            let locals = &b.locals;
            parallel_for_mut(space, policy, &mut b.fields, |i, out| {
                let li = owned[i];
                let pts = table[li];
                let ncells = pts.len();
                let mut field = LeafField {
                    phi: self.scratch.checkout(ncells),
                    gx: self.scratch.checkout(ncells),
                    gy: self.scratch.checkout(ncells),
                    gz: self.scratch.checkout(ncells),
                };
                let slot = plan.leaf_slots[li];
                let center = plan.centers[slot];
                let local = &locals[slot];
                let p2p_srcs = plan.p2p_sources_of(li);
                for c in 0..ncells {
                    let x = [pts.xs[c], pts.ys[c], pts.zs[c]];
                    let off = [x[0] - center[0], x[1] - center[1], x[2] - center[2]];
                    let (mut phi, mut g) = local.evaluate(off);
                    for &src_leaf in p2p_srcs {
                        let sp = table[src_leaf];
                        let (p, gg) = match mode {
                            VectorMode::Scalar => p2p_at_w::<1>(sp, x[0], x[1], x[2]),
                            VectorMode::Sve512 => p2p_at_wide(sp, x[0], x[1], x[2]),
                        };
                        phi += p;
                        for a in 0..3 {
                            g[a] += gg[a];
                        }
                    }
                    field.phi[c] = phi;
                    field.gx[c] = g[0];
                    field.gy[c] = g[1];
                    field.gz[c] = g[2];
                }
                *out = field;
            });
        });
    }

    /// Freeze the M2L phase's inputs so [`GravitySolver::m2l_bench_run`]
    /// can time the multipole kernel alone — the Figure 9 sweep, without
    /// the other phases diluting the granularity signal.  One serial
    /// one-locality solve leaves them (the multipoles and their SoA
    /// transpose) in its recycled locality buffers.
    pub fn m2l_bench_inputs(
        &self,
        plan: &GravityPlan,
        sources: &HashMap<NodeId, LeafSources>,
    ) -> M2lBench {
        let dist = self.one_locality(plan);
        self.solve_sharded(plan, &dist, sources, &[ExecSpace::Serial]);
        let mut shards = self.cache.shards.lock().take().unwrap_or_default();
        M2lBench {
            shard: shards.pop().unwrap_or_default(),
        }
    }

    /// Run exactly one M2L kernel launch over frozen inputs, split per the
    /// solver's current [`GravityOptions::tasks_per_multipole_kernel`].
    /// Buffers persist inside `bench`, so repeated calls measure the
    /// kernel, not allocation.
    pub fn m2l_bench_run(&self, plan: &GravityPlan, bench: &mut M2lBench, space: &ExecSpace) {
        self.far_field(plan, &plan.m2l_targets, &mut bench.shard, space);
    }
}

/// Frozen M2L-phase inputs and reusable output buffers for the
/// closed-loop granularity bench (see [`GravitySolver::m2l_bench_inputs`]).
#[derive(Debug, Default)]
pub struct M2lBench {
    shard: ShardBuffers,
}

/// `[first, last + 1)` of an ascending slot list — the span a locality's
/// level launch covers (exactly its owned slots for SFC-contiguous
/// partitions such as [`octree::partition_morton`]).
fn span(slots: &[usize]) -> Option<(usize, usize)> {
    Some((*slots.first()?, *slots.last()? + 1))
}

/// Run one phase on every locality at once: locality `loc`'s launch
/// `f(loc, &spaces[loc], &mut bufs[loc])` is a task on its own runtime,
/// except locality 0's, which the calling thread runs itself after
/// spawning the others (so at one locality nothing is spawned).  The
/// joins nest, and each waiting thread helps the runtime it waits on.
fn on_localities<B, F>(spaces: &[ExecSpace], bufs: &mut [B], f: &F)
where
    B: Send,
    F: Fn(usize, &ExecSpace, &mut B) + Sync,
{
    let Some((buf, rest)) = bufs.split_last_mut() else {
        return;
    };
    let loc = rest.len();
    let space = &spaces[loc];
    match space {
        ExecSpace::Hpx(hpx) if loc > 0 => hpx.runtime.scope(|s| {
            s.spawn(move || f(loc, space, buf));
            on_localities(spaces, rest, f);
        }),
        _ => {
            on_localities(spaces, rest, f);
            f(loc, space, buf);
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::gravity::direct::direct_field;
    use crate::units::BOX_SIZE;

    fn make_sources(tree: &Tree, n: usize) -> HashMap<NodeId, LeafSources> {
        sources_in_box(tree, n, BOX_SIZE)
    }

    /// Deterministic pseudo-random density (a blob with a ripple) on a
    /// leaf's `n`³ cell centers, the unit cube mapped onto a cube of edge
    /// `box_size` centered on the origin.
    pub(crate) fn sources_in_box(
        tree: &Tree,
        n: usize,
        box_size: f64,
    ) -> HashMap<NodeId, LeafSources> {
        let mut out = HashMap::new();
        for leaf in tree.leaves() {
            let (corner, size) = leaf.cube();
            let h = size / n as f64;
            let mut points = PointMasses::default();
            for i in 0..n {
                for j in 0..n {
                    for k in 0..n {
                        let ux = corner[0] + (i as f64 + 0.5) * h;
                        let uy = corner[1] + (j as f64 + 0.5) * h;
                        let uz = corner[2] + (k as f64 + 0.5) * h;
                        let x = (ux - 0.5) * box_size;
                        let y = (uy - 0.5) * box_size;
                        let z = (uz - 0.5) * box_size;
                        let r2 = x * x + y * y + z * z;
                        let m = (1.0 + 0.3 * (13.0 * ux).sin() * (7.0 * uy).cos())
                            * (-2.0 * r2).exp()
                            * h
                            * h
                            * h;
                        points.push([x, y, z], m);
                    }
                }
            }
            out.insert(leaf, LeafSources { points });
        }
        out
    }

    /// Assert two solves' fields agree to the last bit on every leaf.
    pub(crate) fn assert_bit_identical(
        tree: &Tree,
        a: &HashMap<NodeId, LeafField>,
        b: &HashMap<NodeId, LeafField>,
    ) {
        assert_eq!(a.len(), b.len());
        for leaf in tree.leaves() {
            let (fa, fb) = (&a[&leaf], &b[&leaf]);
            for (x, y) in [
                (&fa.phi, &fb.phi),
                (&fa.gx, &fb.gx),
                (&fa.gy, &fb.gy),
                (&fa.gz, &fb.gz),
            ] {
                let bits = |v: &Recycled<f64>| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(x), bits(y), "leaf {leaf:?}");
            }
        }
    }

    fn all_points(sources: &HashMap<NodeId, LeafSources>, tree: &Tree) -> PointMasses {
        let mut all = PointMasses::default();
        for leaf in tree.leaves() {
            let p = &sources[&leaf].points;
            for c in 0..p.len() {
                all.push([p.xs[c], p.ys[c], p.zs[c]], p.ms[c]);
            }
        }
        all
    }

    fn rel_g_error(
        tree: &Tree,
        sources: &HashMap<NodeId, LeafSources>,
        fields: &HashMap<NodeId, LeafField>,
    ) -> f64 {
        let all = all_points(sources, tree);
        let (_, g_ref) = direct_field(&all, &all, VectorMode::Sve512);
        let mut idx = 0usize;
        let mut num = 0.0;
        let mut den = 0.0;
        for leaf in tree.leaves() {
            let f = &fields[&leaf];
            for c in 0..f.phi.len() {
                let gr = g_ref[idx];
                let df = [f.gx[c] - gr[0], f.gy[c] - gr[1], f.gz[c] - gr[2]];
                num += df.iter().map(|v| v * v).sum::<f64>();
                den += gr.iter().map(|v| v * v).sum::<f64>();
                idx += 1;
            }
        }
        (num / den).sqrt()
    }

    #[test]
    fn fmm_matches_direct_on_uniform_tree() {
        let tree = Tree::new_uniform(2);
        let sources = make_sources(&tree, 4);
        let solver = GravitySolver::default();
        let (fields, stats) = solver.solve(&tree, &sources, &ExecSpace::Serial);
        assert!(stats.m2l_interactions > 0);
        assert!(stats.p2p_pairs > 0);
        let err = rel_g_error(&tree, &sources, &fields);
        assert!(err < 2e-3, "FMM acceleration error too large: {err}");
    }

    #[test]
    fn fmm_matches_direct_on_adaptive_tree() {
        // The dual-tree traversal must cover adaptive trees without gaps.
        let mut tree = Tree::new_uniform(1);
        tree.refine_balanced(NodeId::from_coords(1, [0, 0, 0]));
        tree.refine_balanced(NodeId::from_coords(2, [0, 0, 0]));
        assert!(tree.check_invariants().is_ok());
        let sources = make_sources(&tree, 4);
        let solver = GravitySolver::default();
        let (fields, _) = solver.solve(&tree, &sources, &ExecSpace::Serial);
        let err = rel_g_error(&tree, &sources, &fields);
        assert!(err < 5e-3, "adaptive FMM error too large: {err}");
    }

    #[test]
    fn task_splitting_does_not_change_results() {
        // Figure 9's knob is performance-only: 1 vs 16 tasks, same physics.
        let rt = hpx_rt::Runtime::new(4);
        let tree = Tree::new_uniform(2);
        let sources = make_sources(&tree, 4);
        let mut base = GravityOptions::default();
        base.tasks_per_multipole_kernel = 1;
        let (f1, _) = GravitySolver::new(base).solve(&tree, &sources, &ExecSpace::hpx(rt.clone()));
        base.tasks_per_multipole_kernel = 16;
        let (f16, _) = GravitySolver::new(base).solve(&tree, &sources, &ExecSpace::hpx(rt.clone()));
        // Per-target summation order is fixed by the plan's CSR lists, so
        // splitting is exactly bitwise neutral.
        assert_bit_identical(&tree, &f1, &f16);
        rt.shutdown();
    }

    #[test]
    fn scalar_and_sve_solves_are_bit_identical() {
        // Figure 7's switch is performance-only: the width-generic M2L and
        // P2P kernels fold lanes in source order, so the two backends must
        // agree to the last bit on uniform and adaptive trees.
        let mut adaptive = Tree::new_uniform(1);
        adaptive.refine_balanced(NodeId::from_coords(1, [0, 1, 0]));
        for tree in [Tree::new_uniform(2), adaptive] {
            let sources = make_sources(&tree, 3);
            let mut opts = GravityOptions::default();
            opts.vector_mode = VectorMode::Scalar;
            let (f_scalar, s_scalar) =
                GravitySolver::new(opts).solve(&tree, &sources, &ExecSpace::Serial);
            opts.vector_mode = VectorMode::Sve512;
            let (f_sve, s_sve) =
                GravitySolver::new(opts).solve(&tree, &sources, &ExecSpace::Serial);
            assert_eq!(s_scalar, s_sve);
            assert_bit_identical(&tree, &f_scalar, &f_sve);
        }
    }

    #[test]
    fn cached_plan_solve_is_bit_identical_to_fresh_traversal() {
        // Solve twice with one solver (second solve hits the cached plan)
        // and once with a fresh solver (fresh traversal): all three must
        // agree bit-for-bit, on a uniform and on an adaptive tree.
        let mut adaptive = Tree::new_uniform(1);
        adaptive.refine_balanced(NodeId::from_coords(1, [1, 1, 1]));
        for tree in [Tree::new_uniform(2), adaptive] {
            let sources = make_sources(&tree, 4);
            let cached = GravitySolver::default();
            let (f_first, s_first) = cached.solve(&tree, &sources, &ExecSpace::Serial);
            assert!(!cached.last_plan_hit());
            let (f_hit, s_hit) = cached.solve(&tree, &sources, &ExecSpace::Serial);
            assert!(cached.last_plan_hit(), "second solve must reuse the plan");
            assert_eq!(cached.plan_counters(), (1, 1));
            let fresh = GravitySolver::default();
            let (f_fresh, s_fresh) = fresh.solve(&tree, &sources, &ExecSpace::Serial);
            assert_eq!(s_first, s_hit);
            assert_eq!(s_first, s_fresh);
            assert_bit_identical(&tree, &f_first, &f_hit);
            assert_bit_identical(&tree, &f_first, &f_fresh);
        }
    }

    #[test]
    fn refinement_triggers_a_plan_rebuild_matching_a_fresh_solver() {
        let mut tree = Tree::new_uniform(1);
        let sources = make_sources(&tree, 4);
        let solver = GravitySolver::default();
        solver.solve(&tree, &sources, &ExecSpace::Serial);
        assert_eq!(solver.plan_counters(), (0, 1));
        // Regrid: topology version bumps, the cached plan must be stale.
        let v0 = tree.topology_version();
        tree.refine_balanced(NodeId::from_coords(1, [0, 0, 0]));
        assert!(tree.topology_version() > v0);
        let sources = make_sources(&tree, 4);
        let (f_cached, s_cached) = solver.solve(&tree, &sources, &ExecSpace::Serial);
        assert!(!solver.last_plan_hit(), "stale plan must not be reused");
        assert_eq!(solver.plan_counters(), (0, 2));
        let fresh = GravitySolver::default();
        let (f_fresh, s_fresh) = fresh.solve(&tree, &sources, &ExecSpace::Serial);
        assert_eq!(s_cached, s_fresh);
        assert_bit_identical(&tree, &f_cached, &f_fresh);
    }

    #[test]
    fn solver_clones_share_the_plan_cache() {
        // The pipelined stepper moves a clone into the gravity future; the
        // clone's solve must hit the original's cached plan (and vice
        // versa), or the persistence would silently do nothing.
        let tree = Tree::new_uniform(2);
        let sources = make_sources(&tree, 2);
        let solver = GravitySolver::default();
        let clone = solver.clone();
        solver.solve(&tree, &sources, &ExecSpace::Serial);
        clone.solve(&tree, &sources, &ExecSpace::Serial);
        assert_eq!(solver.plan_counters(), (1, 1));
        assert_eq!(clone.plan_counters(), (1, 1));
        assert!(clone.last_plan_hit());
    }

    #[test]
    fn invalidate_plan_forces_a_retraversal() {
        let tree = Tree::new_uniform(1);
        let sources = make_sources(&tree, 2);
        let solver = GravitySolver::default();
        solver.solve(&tree, &sources, &ExecSpace::Serial);
        solver.invalidate_plan();
        solver.solve(&tree, &sources, &ExecSpace::Serial);
        assert_eq!(solver.plan_counters(), (0, 2));
    }

    #[test]
    fn octupole_reduces_error() {
        let tree = Tree::new_uniform(2);
        let sources = make_sources(&tree, 4);
        let mut opts = GravityOptions::default();
        opts.use_octupole = false;
        let (f_no, _) = GravitySolver::new(opts).solve(&tree, &sources, &ExecSpace::Serial);
        opts.use_octupole = true;
        let (f_yes, _) = GravitySolver::new(opts).solve(&tree, &sources, &ExecSpace::Serial);
        let err_no = rel_g_error(&tree, &sources, &f_no);
        let err_yes = rel_g_error(&tree, &sources, &f_yes);
        assert!(
            err_yes < err_no,
            "octupole should improve accuracy: {err_yes} vs {err_no}"
        );
    }

    #[test]
    fn total_force_nearly_vanishes() {
        // Newton's third law: Σ m·g ≈ 0 (exactly for P2P, to truncation
        // order for M2L).
        let tree = Tree::new_uniform(2);
        let sources = make_sources(&tree, 4);
        let (fields, _) = GravitySolver::default().solve(&tree, &sources, &ExecSpace::Serial);
        let mut total = [0.0f64; 3];
        let mut scale = 0.0f64;
        for leaf in tree.leaves() {
            let f = &fields[&leaf];
            let p = &sources[&leaf].points;
            for c in 0..p.len() {
                total[0] += p.ms[c] * f.gx[c];
                total[1] += p.ms[c] * f.gy[c];
                total[2] += p.ms[c] * f.gz[c];
                scale += p.ms[c] * (f.gx[c].powi(2) + f.gy[c].powi(2) + f.gz[c].powi(2)).sqrt();
            }
        }
        let mag = (total[0].powi(2) + total[1].powi(2) + total[2].powi(2)).sqrt();
        assert!(
            mag / scale < 1e-3,
            "net self-force too large: {mag} vs scale {scale}"
        );
    }

    #[test]
    fn theta_tightening_improves_accuracy() {
        let tree = Tree::new_uniform(2);
        let sources = make_sources(&tree, 4);
        let mut errs = Vec::new();
        for theta in [0.8, 0.5, 0.3] {
            let mut opts = GravityOptions::default();
            opts.theta = theta;
            let (fields, _) = GravitySolver::new(opts).solve(&tree, &sources, &ExecSpace::Serial);
            errs.push(rel_g_error(&tree, &sources, &fields));
        }
        assert!(errs[0] > errs[2], "theta=0.3 must beat theta=0.8: {errs:?}");
    }

    #[test]
    fn empty_leaves_are_tolerated() {
        let tree = Tree::new_uniform(1);
        let mut sources: HashMap<NodeId, LeafSources> = HashMap::new();
        for (i, leaf) in tree.leaves().into_iter().enumerate() {
            let mut points = PointMasses::default();
            if i == 0 {
                let (c, _) = node_geometry(leaf);
                points.push(c, 1.0);
            } else {
                // Leaf with zero-mass cells.
                let (c, _) = node_geometry(leaf);
                points.push(c, 0.0);
            }
            sources.insert(leaf, LeafSources { points });
        }
        let (fields, _) = GravitySolver::default().solve(&tree, &sources, &ExecSpace::Serial);
        // All finite.
        for leaf in tree.leaves() {
            let f = &fields[&leaf];
            assert!(f.phi.iter().all(|v| v.is_finite()));
            assert!(f.gx.iter().all(|v| v.is_finite()));
        }
    }
}
