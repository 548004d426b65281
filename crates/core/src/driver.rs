//! The time-step driver: Octo-Tiger's per-step orchestration.
//!
//! One step (paper Sections IV-B/IV-C): solve gravity with the FMM, pick
//! the global fixed Δt from the CFL reduction, then run three SSP-RK3
//! stages, each preceded by a ghost-layer exchange.  Every leaf's hydro
//! RHS is an independently launched kernel — the paper counts "multiple
//! (> 10) kernel launches per sub-grid in each time-step", which is
//! exactly what the launch counter here reproduces — and leaves execute as
//! HPX tasks on their owner locality's worker pool.
//!
//! The driver reports the paper's throughput metric: **processed cells per
//! second** (Figures 4–10 all plot cells/s or sub-grids/s).

use crate::diag::ConservationLedger;
use crate::gravity::direct::PointMasses;
use crate::gravity::{GravityOptions, GravitySolver, LeafField, LeafSources};
use crate::hydro::{self, HydroOptions, SourceInput};
use crate::state::field;
use crate::units::BOX_SIZE;
use crate::workspace::{self, LeafWorkspace};
use hpx_rt::{Future, SimCluster};
use kokkos_rs::pool::ScratchArena;
use kokkos_rs::ExecSpace;
use octree::{DistGrid, GhostConfig, NodeId};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;
use sve_simd::VectorMode;

/// Shared handle to the per-leaf workspace table, cloned into stage tasks.
type WorkspaceMap = Arc<HashMap<NodeId, Arc<parking_lot::Mutex<LeafWorkspace>>>>;

/// All the paper's run-time switches in one place.
#[derive(Debug, Clone, Copy)]
pub struct SimOptions {
    /// SIMD width (Figure 7: scalar vs SVE).
    pub vector_mode: VectorMode,
    /// Ghost-exchange configuration (Figure 8: communication optimization).
    pub ghost: GhostConfig,
    /// Solve self-gravity each step.
    pub gravity: bool,
    /// FMM options (Figure 9: `tasks_per_multipole_kernel`).
    pub gravity_opts: GravityOptions,
    /// Rotating-frame frequency (from the scenario's SCF model).
    pub omega: f64,
    /// CFL number.
    pub cfl: f64,
    /// Futurized per-leaf stepper: instead of a barrier between ghost
    /// exchange and RK stage, every leaf's stage kernel chains on the
    /// per-neighbor ghost futures it actually reads, so interior leaves of
    /// stage N+1 run while boundary exchanges of stage N are in flight and
    /// the gravity FMM overlaps the first stage's ghost fill.  Bit-identical
    /// physics to the barrier path (see `tests/switch_equivalence.rs`).
    pub pipeline: bool,
    /// Arm the `hpx-rt` blocked-worker watchdog for this run: a worker stuck
    /// on an unresolved future for this many milliseconds (with nothing to
    /// help with) aborts with a deadlock diagnosis instead of hanging, and
    /// the fire is exported as the `/threads/count/watchdog-fires` counter.
    /// `None` keeps the build default (30 s in debug, off in release —
    /// release runs can also opt in via `HPX_WATCHDOG_MS`); `Some(0)`
    /// disables it.
    pub watchdog_ms: Option<u64>,
    /// Reuse the per-leaf workspaces and scratch arena across steps (the
    /// CPPuddle-style zero-allocation steady state).  `false` rebuilds every
    /// workspace from a fresh arena each step — physics is bit-identical
    /// (see `tests/scratch_recycling.rs`), only allocation traffic changes.
    pub recycle_scratch: bool,
    /// Reuse the FMM interaction plan across steps while the tree topology
    /// is unchanged (Octo-Tiger computes interaction lists once per
    /// regrid).  `false` invalidates the plan before every solve — the
    /// traverse-every-step reference configuration; physics is
    /// bit-identical (see `tests/gravity_plan.rs`), only traversal work
    /// changes.
    pub cache_gravity_plan: bool,
    /// Simulated localities to shard the gravity octree over (clamped to
    /// the cluster's locality count).  `1` — the reference configuration —
    /// runs the plain shared-memory solve; `> 1` partitions the leaves
    /// with [`octree::partition_morton`], runs each shard's kernels on its
    /// own locality's runtime, and moves every cross-locality interaction
    /// as a typed parcel (metered under `/octotiger/parcels/*`).  Physics
    /// is bit-identical either way (see `tests/distributed_equivalence.rs`).
    /// Defaults from `OCTO_LOCALITIES` (CI's distribution axis).
    pub localities: usize,
    /// Mid-run adaptive regridding: every `Some(k)` steps the driver runs
    /// the density/shock criterion pass ([`Simulation::regrid`]) before the
    /// step proper.  The regrid bumps the tree's `topology_version`, so the
    /// step's gravity solve rebuilds its cached interaction and halo plans
    /// and the workspaces of consumed leaves are dropped.  `None` — the
    /// default — never regrids mid-run.
    /// Defaults from `OCTO_REGRID_CADENCE` (CI's adaptive-run axis).
    pub regrid_cadence: Option<usize>,
    /// Maximum refinement level the cadence-driven criterion pass may
    /// create (the `max_level` argument of [`Simulation::regrid`]).
    pub regrid_max_level: u8,
    /// Refine a leaf when its peak interior density exceeds this (paper
    /// Section IV-C: "AMR is based on the density field").
    pub regrid_refine_threshold: f64,
    /// Also refine when the relative density jump between adjacent cells
    /// exceeds this (a shock indicator; `INFINITY` disables it).
    pub regrid_shock_threshold: f64,
    /// Coarsen an octet back into its parent when every child's peak
    /// density falls below this (`0.0` disables coarsening).
    pub regrid_coarsen_threshold: f64,
    /// Online auto-tuning of task granularity (the closed-loop Figure 9):
    /// an [`hpx_rt::Tuner`] reads the step's apex timer windows and
    /// adaptively picks `tasks_per_kernel` for the gravity kernel families,
    /// the hydro-RHS leaves-per-task grouping, and the pipelined-vs-barrier
    /// stepper.  Every knob flows through the chunk-count-independent
    /// launch paths, so physics is bit-identical tuner-on vs tuner-off
    /// (see `tests/autotune_equivalence.rs`).  Defaults from
    /// `OCTO_AUTOTUNE` (`1`/`true`/`on`).
    pub autotune: bool,
}

impl Default for SimOptions {
    fn default() -> Self {
        SimOptions {
            // SVE unless overridden through OCTO_VECTOR_MODE (CI runs the
            // suite once per backend via that switch).
            vector_mode: VectorMode::env_default(),
            ghost: GhostConfig::default(),
            gravity: true,
            gravity_opts: GravityOptions::default(),
            omega: 0.0,
            cfl: 0.4,
            pipeline: false,
            watchdog_ms: None,
            recycle_scratch: true,
            cache_gravity_plan: true,
            localities: std::env::var("OCTO_LOCALITIES")
                .ok()
                .and_then(|v| v.parse().ok())
                .filter(|&n| n > 0)
                .unwrap_or(1),
            regrid_cadence: std::env::var("OCTO_REGRID_CADENCE")
                .ok()
                .and_then(|v| v.parse().ok())
                .filter(|&k| k > 0),
            regrid_max_level: 3,
            regrid_refine_threshold: 1.0,
            regrid_shock_threshold: f64::INFINITY,
            regrid_coarsen_threshold: 0.0,
            autotune: std::env::var("OCTO_AUTOTUNE")
                .map(|v| v == "1" || v.eq_ignore_ascii_case("true") || v.eq_ignore_ascii_case("on"))
                .unwrap_or(false),
        }
    }
}

// Kernel-family names the driver registers with the tuner.  The three
// gravity knobs share one apex signal (`gravity:kernels`), so they are
// observed through `Tuner::observe_shared`.
const TUNE_M2L: &str = "gravity:m2l";
const TUNE_P2P: &str = "gravity:p2p";
const TUNE_SLOT: &str = "gravity:slot";
const TUNE_HYDRO: &str = "hydro:rhs";
const TUNE_STEPPER: &str = "stepper";

/// Telemetry of one step.
#[derive(Debug, Clone, Copy)]
pub struct StepStats {
    /// SIMD backend the step's kernels ran on (Figure 7 axis).
    pub vector_mode: VectorMode,
    /// Time step used.
    pub dt: f64,
    /// Simulation time after the step.
    pub time: f64,
    /// Interior cells processed (3 RK stages × cells).
    pub cells_processed: u64,
    /// Wall-clock seconds.
    pub elapsed_seconds: f64,
    /// The paper's throughput metric.
    pub cells_per_second: f64,
    /// Kernel launches this step (hydro RHS + stage combines + gravity).
    pub kernel_launches: u64,
    /// Ghost links served via the direct local path (Figure 8 numerator).
    pub direct_ghost_links: u64,
    /// Mass that left through the outflow boundary during this step.
    pub mass_outflow: f64,
    /// (leaf, direction) ghost links this step across all RK stages.
    pub ghost_links_total: u64,
    /// Ghost links whose data actually arrived (equals the total when the
    /// step drained cleanly; the pipelined stepper asserts this).
    pub ghost_links_resolved: u64,
    /// Communication/compute overlap: leaf stage kernels that started while
    /// their stage's ghost exchange still had unresolved links elsewhere.
    /// Always 0 for the barrier stepper, which fully drains each exchange
    /// before launching any kernel.
    pub overlapped_tasks: u64,
    /// Scratch-pool checkouts served from a free list (cumulative across
    /// the run; kernel-scratch, gravity, and ghost-payload pools combined).
    pub scratch_hits: u64,
    /// Scratch-pool checkouts that had to allocate (cumulative).  In steady
    /// state this stops growing after the first step.
    pub scratch_misses: u64,
    /// Bytes currently checked out of the scratch pools.
    pub scratch_bytes_in_use: u64,
    /// High-water mark of bytes simultaneously checked out.
    pub scratch_high_water: u64,
    /// FMM interaction counts, if gravity ran.
    pub gravity_stats: Option<crate::gravity::solver::SolveStats>,
    /// Whether this step's gravity solve reused the cached interaction
    /// plan (`false` when the plan was rebuilt — first step, post-regrid,
    /// or `cache_gravity_plan = false` — and when gravity is off).
    pub gravity_plan_hit: bool,
    /// Leaves refined by this step's cadence-driven regrid pass (0 when no
    /// regrid ran; also exported as `/octotiger/regrid/refined`).
    pub regrid_refined: u64,
    /// Octets coarsened by this step's cadence-driven regrid pass (also
    /// exported as `/octotiger/regrid/derefined`).
    pub regrid_derefined: u64,
    /// The granularity tuner's chosen configs and activity counts after
    /// this step (`None` unless [`SimOptions::autotune`] is on).
    pub tuner: Option<hpx_rt::TunerSnapshot>,
}

/// Breakdown of one [`Simulation::regrid`] criterion pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RegridOutcome {
    /// Leaves split into octets (including 2:1-balance drag-alongs).
    pub refined: usize,
    /// Octets collapsed back into their parent leaf.
    pub derefined: usize,
}

impl RegridOutcome {
    /// Did the pass change the topology at all?
    pub fn changed(&self) -> bool {
        self.refined > 0 || self.derefined > 0
    }
}

/// A running simulation bound to a cluster's localities.
pub struct Simulation {
    /// The distributed AMR grid.
    pub grid: DistGrid,
    /// Options (mutable between steps, like re-launching with new flags).
    pub opts: SimOptions,
    /// Current simulation time.
    pub time: f64,
    /// Steps taken.
    pub step_count: u64,
    /// Cumulative mass that left the domain through the outflow boundary
    /// (tracked so the conservation ledger closes to machine precision).
    pub mass_outflow: f64,
    /// APEX-style phase profiler (paper conclusion: "more runs using HPX's
    /// performance counters or APEX are needed" — here it is built in).
    pub apex: hpx_rt::Apex,
    /// FMM statistics of the most recent gravity solve.
    last_gravity_stats: Option<crate::gravity::solver::SolveStats>,
    /// The simulation's scratch arena: kernel scratch and gravity fields
    /// check their buffers out of this pool.
    scratch: ScratchArena,
    /// One recycled workspace per leaf, rebuilt lazily after regrids.
    workspaces: HashMap<NodeId, Arc<parking_lot::Mutex<LeafWorkspace>>>,
    /// The persistent FMM solver: its cached interaction plan (and pooled
    /// expansion buffers) survive across steps, so a solve on an unchanged
    /// tree skips the dual-tree traversal entirely.
    gravity_solver: GravitySolver,
    /// The online granularity tuner ([`SimOptions::autotune`]); its chosen
    /// configs override the static launch knobs at the start of each step.
    tuner: Option<hpx_rt::Tuner>,
    /// Leaves grouped per hydro task in [`Simulation::for_each_leaf`]
    /// (tuner-controlled; 1 = the default one-task-per-leaf launch).
    hydro_leaves_per_task: usize,
}

impl Simulation {
    /// Wrap an initialized grid.
    pub fn new(grid: DistGrid, opts: SimOptions) -> Simulation {
        let scratch = ScratchArena::new();
        let gravity_solver = GravitySolver::with_scratch(opts.gravity_opts, scratch.clone());
        let tuner = opts.autotune.then(|| Self::build_tuner(&opts));
        Simulation {
            grid,
            opts,
            time: 0.0,
            step_count: 0,
            mass_outflow: 0.0,
            apex: hpx_rt::Apex::new(false),
            last_gravity_stats: None,
            scratch,
            workspaces: HashMap::new(),
            gravity_solver,
            tuner,
            hydro_leaves_per_task: 1,
        }
    }

    /// Register the step's kernel families with a fresh tuner.  Ladders are
    /// bounded powers of two; each family starts at the static default so
    /// switching the tuner on never jumps away from a hand-tuned value.
    fn build_tuner(opts: &SimOptions) -> hpx_rt::Tuner {
        let mut tuner = hpx_rt::Tuner::new();
        // The Figure 9 knob proper: tasks per M2L kernel launch.
        tuner.register(
            TUNE_M2L,
            vec![1, 2, 4, 8, 16, 32],
            opts.gravity_opts.tasks_per_multipole_kernel.max(1),
        );
        // P2P/evaluation and the lane-aligned slot-table passes; their
        // static default is `Auto` (0), so start mid-ladder.
        let start_or = |knob: usize, auto: usize| if knob == 0 { auto } else { knob };
        tuner.register(
            TUNE_P2P,
            vec![1, 2, 4, 8, 16],
            start_or(opts.gravity_opts.tasks_per_p2p_kernel, 4),
        );
        tuner.register(
            TUNE_SLOT,
            vec![1, 2, 4, 8, 16],
            start_or(opts.gravity_opts.tasks_per_slot_kernel, 4),
        );
        // Hydro RHS: leaves grouped per task (1 = one task per leaf).
        tuner.register(TUNE_HYDRO, vec![1, 2, 4, 8, 16], 1);
        // The stepper switch: 0 = barrier, 1 = pipelined.
        tuner.register(TUNE_STEPPER, vec![0, 1], usize::from(opts.pipeline));
        tuner
    }

    /// Per-run (plan-hit, plan-rebuild) counts of the persistent gravity
    /// solver — the per-`Simulation` view of the global
    /// `/octotiger/gravity/plan-{hits,rebuilds}` counters.
    pub fn gravity_plan_counters(&self) -> (u64, u64) {
        self.gravity_solver.plan_counters()
    }

    /// Handle to the simulation's scratch arena (kernel + gravity buffers;
    /// ghost payloads live in [`DistGrid::scratch`]).
    pub fn scratch(&self) -> ScratchArena {
        self.scratch.clone()
    }

    /// Create workspaces for new leaves and drop the ones whose leaves a
    /// regrid consumed.  Dropped workspaces return their kernel scratch to
    /// the arena, so the new leaves' checkouts can recycle it.
    fn ensure_workspaces(&mut self) {
        let n = self.grid.n();
        let gw = self.grid.ghost_width();
        let leaves = self.grid.leaves();
        let live: std::collections::HashSet<NodeId> = leaves.iter().copied().collect();
        self.workspaces.retain(|id, _| live.contains(id));
        for leaf in leaves {
            self.workspaces.entry(leaf).or_insert_with(|| {
                Arc::new(parking_lot::Mutex::new(LeafWorkspace::new(
                    n,
                    gw,
                    &self.scratch,
                )))
            });
        }
    }

    /// Combined pool telemetry: the simulation arena plus the grid's
    /// ghost-payload pool, as the four `StepStats` scratch fields.
    fn scratch_telemetry(&self) -> (u64, u64, u64, u64) {
        let a = self.scratch.stats();
        let b = self.grid.scratch().stats();
        (
            a.hits + b.hits,
            a.misses + b.misses,
            a.bytes_in_use + b.bytes_in_use,
            a.high_water + b.high_water,
        )
    }

    /// Leaf-parallel execution: each locality runs its own leaves as tasks
    /// on its own worker pool, mirroring HPX's per-locality scheduling.
    ///
    /// Leaves are grouped `hydro_leaves_per_task` per task (the tuner's
    /// hydro-RHS granularity knob; default 1 = one task per leaf).  Each
    /// leaf's work is independent — per-leaf workspace, per-leaf output
    /// slot — so the grouping is bitwise neutral to the physics; it only
    /// trades spawn overhead against parallelism.
    fn for_each_leaf(&self, cluster: &SimCluster, f: impl Fn(NodeId) + Send + Sync + 'static) {
        let f = Arc::new(f);
        let group = self.hydro_leaves_per_task.max(1);
        let mut futures: Vec<Future<()>> = Vec::new();
        for loc in cluster.localities() {
            let leaves = self.grid.leaves_of(loc.id());
            if leaves.is_empty() {
                continue;
            }
            let f = f.clone();
            let rt = loc.runtime().clone();
            let rt_inner = rt.clone();
            futures.push(rt.async_call(move || {
                rt_inner.scope(|s| {
                    for chunk in leaves.chunks(group) {
                        let f = f.clone();
                        let chunk = chunk.to_vec();
                        s.spawn(move || {
                            for leaf in chunk {
                                f(leaf);
                            }
                        });
                    }
                });
            }));
        }
        for fut in futures {
            fut.wait();
        }
    }

    /// Gather per-leaf point masses for the gravity solver.
    fn leaf_sources(&self) -> HashMap<NodeId, LeafSources> {
        let n = self.grid.n();
        let mut out = HashMap::new();
        for leaf in self.grid.leaves() {
            let (corner, size) = leaf.cube();
            let h = size / n as f64;
            let h_phys = h * BOX_SIZE;
            let vol = h_phys * h_phys * h_phys;
            let handle = self.grid.grid(leaf);
            let g = handle.read();
            let mut points = PointMasses::default();
            for i in 0..n {
                for j in 0..n {
                    for k in 0..n {
                        let x = (corner[0] + (i as f64 + 0.5) * h - 0.5) * BOX_SIZE;
                        let y = (corner[1] + (j as f64 + 0.5) * h - 0.5) * BOX_SIZE;
                        let z = (corner[2] + (k as f64 + 0.5) * h - 0.5) * BOX_SIZE;
                        points.push([x, y, z], g.get_interior(field::RHO, i, j, k) * vol);
                    }
                }
            }
            out.insert(leaf, LeafSources { points });
        }
        out
    }

    /// Global CFL time step (fixed across the whole grid, per the paper).
    pub fn compute_dt(&self) -> f64 {
        let hopts = HydroOptions {
            vector_mode: self.opts.vector_mode,
            cfl: self.opts.cfl,
        };
        let mut max_speed: f64 = 1e-30;
        let mut h_min = f64::INFINITY;
        let n = self.grid.n();
        for leaf in self.grid.leaves() {
            let (_, size) = leaf.cube();
            let h = size * BOX_SIZE / n as f64;
            h_min = h_min.min(h);
            let handle = self.grid.grid(leaf);
            let speed = hydro::max_signal_speed(&handle.read(), &hopts);
            max_speed = max_speed.max(speed);
        }
        self.opts.cfl * h_min / max_speed
    }

    /// Advance one full RK3 step; returns the step telemetry.
    pub fn step(&mut self, cluster: &SimCluster) -> StepStats {
        if let Some(ms) = self.opts.watchdog_ms {
            hpx_rt::set_blocked_wait_timeout(std::time::Duration::from_millis(ms));
        }
        if !self.opts.recycle_scratch {
            // Fresh arena + workspaces every step: the unpooled reference
            // configuration the recycling equivalence tests compare against.
            self.scratch = ScratchArena::new();
            self.workspaces.clear();
            self.gravity_solver.set_scratch(self.scratch.clone());
        }
        // Options are mutable between steps: push the current FMM knobs
        // into the persistent solver (a θ change invalidates the cached
        // plan by itself, via the plan's validity key).
        self.gravity_solver.opts = GravityOptions {
            vector_mode: self.opts.vector_mode,
            ..self.opts.gravity_opts
        };
        if !self.opts.cache_gravity_plan {
            // Traverse-every-step reference configuration.
            self.gravity_solver.invalidate_plan();
        }
        // ---- Mid-run adaptive regrid (every `regrid_cadence` steps). ----
        // Runs before workspaces are ensured, so both steppers see the new
        // topology; the step's gravity solve then rebuilds its plans.
        let regrid = match self.opts.regrid_cadence {
            Some(k) if self.step_count > 0 && self.step_count.is_multiple_of(k as u64) => {
                let _t = self.apex.timer("regrid:criterion_pass");
                self.regrid(
                    self.opts.regrid_max_level,
                    self.opts.regrid_refine_threshold,
                )
            }
            _ => RegridOutcome::default(),
        };
        // ---- Online granularity tuner (apply phase). ----
        // Runs after the regrid so `note_topology` sees the post-regrid
        // version: a topology change unfreezes every family for exactly one
        // re-probe cycle.  Applying launch knobs here — at a step boundary,
        // before any kernel of the step launches — is the safety argument:
        // no kernel is ever re-split mid-launch (see DESIGN.md and the
        // hpx-check `tuner-resplit` race model).
        let mut pipeline = self.opts.pipeline;
        if let Some(t) = &mut self.tuner {
            let ver = self.grid.with_tree(|tr| tr.topology_version());
            t.note_topology(ver);
            self.gravity_solver.opts.tasks_per_multipole_kernel = t.current(TUNE_M2L);
            self.gravity_solver.opts.tasks_per_p2p_kernel = t.current(TUNE_P2P);
            self.gravity_solver.opts.tasks_per_slot_kernel = t.current(TUNE_SLOT);
            self.hydro_leaves_per_task = t.current(TUNE_HYDRO).max(1);
            pipeline = t.current(TUNE_STEPPER) == 1;
        }
        self.ensure_workspaces();
        let mut stats = if pipeline {
            self.step_pipelined(cluster)
        } else {
            self.step_barrier(cluster)
        };
        stats.regrid_refined = regrid.refined as u64;
        stats.regrid_derefined = regrid.derefined as u64;
        // ---- Online granularity tuner (observe phase). ----
        // Feed the step's windowed kernel timings back, then close the
        // windows so the next step's observation is not diluted by this
        // one.  The three gravity knobs share one apex signal
        // (`gravity:kernels`); `observe_shared` attributes it to whichever
        // family is actively probing.  The pipelined stepper fuses RK
        // stages into continuations and records no `hydro:rk_stage` timer,
        // hence the window_count guards.
        if let Some(tuner) = self.tuner.as_mut() {
            let g = self.apex.stats("gravity:kernels");
            if g.window_count > 0 {
                tuner.observe_shared(&[TUNE_M2L, TUNE_SLOT, TUNE_P2P], g.window_mean_s());
            }
            let h = self.apex.stats("hydro:rk_stage");
            if h.window_count > 0 {
                tuner.observe(TUNE_HYDRO, h.window_mean_s());
            }
            tuner.observe(TUNE_STEPPER, stats.elapsed_seconds);
            self.apex.reset_window("gravity:kernels");
            self.apex.reset_window("hydro:rk_stage");
            stats.tuner = Some(tuner.snapshot());
        }
        stats
    }

    /// Apex label for the active SIMD backend, so the profile table shows
    /// scalar and SVE step time side by side (the Figure 7 comparison).
    fn simd_timer_label(&self) -> &'static str {
        match self.opts.vector_mode {
            VectorMode::Scalar => "step:simd-scalar",
            VectorMode::Sve512 => "step:simd-sve512",
        }
    }

    /// The classic stepper: a full ghost-exchange barrier before each RK
    /// stage.
    fn step_barrier(&mut self, cluster: &SimCluster) -> StepStats {
        let t0 = Instant::now();
        let _mode_timer = self.apex.timer(self.simd_timer_label());
        let leaves = self.grid.leaves();
        let n = self.grid.n();
        let n3 = (n * n * n) as u64;
        let mut kernel_launches = 0u64;
        let mut direct_ghost_links = 0u64;

        // ---- Gravity (once per step; reused across RK stages). ---------
        let gravity_fields: Option<Arc<HashMap<NodeId, LeafField>>> = if self.opts.gravity {
            let _t = self.apex.timer("gravity:solve");
            let sources = Arc::new(self.leaf_sources());
            let solver = &self.gravity_solver;
            let nloc = self.opts.localities.min(cluster.num_localities()).max(1);
            let space = ExecSpace::hpx(cluster.locality(0).runtime().clone());
            // Plan acquisition (cache hit: no traversal) and the dense
            // kernels are timed separately, so the apex report shows what
            // caching actually saves.
            let plan = {
                let _p = self.apex.timer("gravity:plan");
                self.grid.with_tree(|t| solver.plan_for(t))
            };
            let (fields, stats) = {
                let _k = self.apex.timer("gravity:kernels");
                if nloc > 1 {
                    // Shard the solve: the halo plan caches alongside the
                    // interaction plan, keyed on the same topology version.
                    let dist = {
                        let owner = self.grid.with_tree(|t| octree::partition_morton(t, nloc));
                        solver.dist_plan_for(&plan, &owner, nloc)
                    };
                    let rts: Vec<hpx_rt::Runtime> = (0..nloc)
                        .map(|i| cluster.locality(i).runtime().clone())
                        .collect();
                    solver.solve_distributed(&plan, &dist, &sources, &rts)
                } else {
                    solver.solve_with_plan(&plan, &sources, &space)
                }
            };
            kernel_launches += stats.multipole_kernel_launches as u64 + leaves.len() as u64;
            self.last_gravity_stats = Some(stats);
            Some(Arc::new(fields))
        } else {
            self.last_gravity_stats = None;
            None
        };
        let gravity_plan_hit = self.opts.gravity && self.gravity_solver.last_plan_hit();

        // ---- Global fixed time step. -----------------------------------
        let dt = {
            let _t = self.apex.timer("hydro:cfl_reduction");
            self.compute_dt()
        };

        // ---- Save u⁰ into the recycled workspaces. ----------------------
        // No tasks are in flight yet, so the try_lock never contends.
        for &l in &leaves {
            self.workspaces[&l]
                .try_lock()
                .expect("leaf workspace aliased outside a step")
                .u0
                .copy_from(&self.grid.grid(l).read());
        }
        let ws_map: WorkspaceMap = Arc::new(self.workspaces.clone());

        // ---- Three SSP-RK3 stages. --------------------------------------
        // Effective Shu-Osher weights of the three stage RHS evaluations in
        // the final update: uⁿ⁺¹ = uⁿ + Δt (L⁰/6 + L¹/6 + 2L²/3); boundary
        // outflow integrates with the same weights.
        let stage_weight = [1.0 / 6.0, 1.0 / 6.0, 2.0 / 3.0];
        // Precompute each leaf's domain-boundary face mask.
        let boundary_masks: Arc<HashMap<NodeId, [bool; 6]>> = Arc::new(self.grid.with_tree(|t| {
            leaves
                .iter()
                .map(|&l| {
                    let dirs = [
                        octree::Dir::new(-1, 0, 0),
                        octree::Dir::new(1, 0, 0),
                        octree::Dir::new(0, -1, 0),
                        octree::Dir::new(0, 1, 0),
                        octree::Dir::new(0, 0, -1),
                        octree::Dir::new(0, 0, 1),
                    ];
                    let mask = dirs
                        .map(|d| matches!(t.neighbor_of(l, d), octree::Neighbor::DomainBoundary));
                    (l, mask)
                })
                .collect()
        }));
        let mut step_outflow = 0.0;
        for stage in 0..3 {
            {
                let _t = self.apex.timer("comm:ghost_exchange");
                direct_ghost_links += self.grid.exchange_ghosts(cluster, self.opts.ghost) as u64;
            }
            let _stage_timer = self.apex.timer("hydro:rk_stage");
            let grid = self.grid.clone();
            let opts = self.opts;
            let gf = gravity_fields.clone();
            let ws_map = ws_map.clone();
            let masks = boundary_masks.clone();
            // Per-leaf outflow rates, folded in fixed leaf order after the
            // join: a shared `+=` in task-completion order would make the
            // mass ledger scheduling-dependent (float addition does not
            // associate), breaking bit-reproducibility across runs and
            // between vector widths.
            let stage_outflow: Arc<parking_lot::Mutex<HashMap<NodeId, f64>>> =
                Arc::new(parking_lot::Mutex::new(HashMap::new()));
            let stage_outflow_task = stage_outflow.clone();
            self.for_each_leaf(cluster, move |leaf| {
                let handle = grid.grid(leaf);
                let (corner, size) = leaf.cube();
                let nn = grid.n();
                let h = size * BOX_SIZE / nn as f64;
                let origin = [
                    (corner[0] + 0.5 * size / nn as f64 - 0.5) * BOX_SIZE,
                    (corner[1] + 0.5 * size / nn as f64 - 0.5) * BOX_SIZE,
                    (corner[2] + 0.5 * size / nn as f64 - 0.5) * BOX_SIZE,
                ];
                let hopts = HydroOptions {
                    vector_mode: opts.vector_mode,
                    cfl: opts.cfl,
                };
                // Each stage exchange drains before any stage task runs, so
                // exactly one task touches this leaf's workspace at a time.
                let mut guard = ws_map[&leaf]
                    .try_lock()
                    .expect("leaf workspace aliased by a concurrent task");
                let ws = &mut *guard;
                // Compute the RHS from the current state (reads), then
                // apply the stage combination (writes).
                {
                    let g = handle.read();
                    ws.u_cur.copy_from(&g);
                }
                let leaf_gravity = gf.as_ref().map(|m| &m[&leaf]);
                let gvecs = leaf_gravity.map(|f| [&f.gx[..], &f.gy[..], &f.gz[..]]);
                let src = SourceInput {
                    gravity: gvecs,
                    omega: opts.omega,
                    origin,
                    h,
                    boundary_faces: masks[&leaf],
                };
                let info =
                    hydro::compute_rhs(&ws.u_cur, &mut ws.rhs, &src, &hopts, &mut ws.scratch);
                stage_outflow_task
                    .lock()
                    .insert(leaf, info.boundary_mass_outflow_rate);
                // Zero RHS in ghost zones so stage combines don't touch
                // them with stale flux data (they are refreshed by the next
                // exchange anyway, but keep them clean for diagnostics).
                workspace::zero_ghost_runs(&mut ws.rhs, &ws.ghost_runs);
                let mut g = handle.write();
                match stage {
                    0 => hydro::rk3::stage_euler(&ws.u_cur, &ws.rhs, dt, &mut g, opts.vector_mode),
                    1 => hydro::rk3::stage_two(
                        &ws.u0,
                        &ws.u_cur,
                        &ws.rhs,
                        dt,
                        &mut g,
                        opts.vector_mode,
                    ),
                    _ => hydro::rk3::stage_three(
                        &ws.u0,
                        &ws.u_cur,
                        &ws.rhs,
                        dt,
                        &mut g,
                        opts.vector_mode,
                    ),
                }
            });
            let rates = stage_outflow.lock();
            let stage_rate: f64 = leaves.iter().map(|l| rates[l]).sum();
            step_outflow += stage_weight[stage] * dt * stage_rate;
            kernel_launches += 2 * leaves.len() as u64; // RHS + combine
        }
        self.mass_outflow += step_outflow;

        self.time += dt;
        self.step_count += 1;
        let elapsed = t0.elapsed().as_secs_f64();
        let cells = 3 * n3 * leaves.len() as u64;
        // Each of the three exchanges drains fully before its stage runs.
        let links_total = 3 * self.grid.total_ghost_links() as u64;
        let (scratch_hits, scratch_misses, scratch_bytes_in_use, scratch_high_water) =
            self.scratch_telemetry();
        StepStats {
            vector_mode: self.opts.vector_mode,
            dt,
            time: self.time,
            cells_processed: cells,
            elapsed_seconds: elapsed,
            cells_per_second: cells as f64 / elapsed.max(1e-12),
            kernel_launches,
            direct_ghost_links,
            mass_outflow: step_outflow,
            ghost_links_total: links_total,
            ghost_links_resolved: links_total,
            overlapped_tasks: 0,
            scratch_hits,
            scratch_misses,
            scratch_bytes_in_use,
            scratch_high_water,
            gravity_stats: self.last_gravity_stats,
            gravity_plan_hit,
            regrid_refined: 0,
            regrid_derefined: 0,
            tuner: None,
        }
    }

    /// The futurized stepper: one dependency graph for the whole step.
    ///
    /// Per RK stage, [`DistGrid::exchange_ghosts_pipelined`] turns every
    /// (leaf, direction) ghost link into a future chain gated on the leaves
    /// it reads, and each leaf's stage kernel becomes a continuation on
    /// - all 26 of its incoming ghost futures (its stencil inputs),
    /// - its outgoing pack futures (its interior may not be overwritten
    ///   while a neighbour is still packing from it), and
    /// - at stage 0, the global Δt reduction and the gravity solve, both of
    ///   which run as futures overlapping the first stage's ghost fill.
    ///
    /// All three stage graphs are built eagerly up front; the only blocking
    /// point is the final join on the stage-2 update futures.  Physics is
    /// bit-identical to [`Simulation::step_barrier`]: packs read exactly the
    /// interiors the barrier path reads (stage-consistent via the gates),
    /// unpack regions of the 26 directions are disjoint, and the Δt
    /// reduction is associative-commutative (min/max), so no result depends
    /// on completion order.
    fn step_pipelined(&mut self, cluster: &SimCluster) -> StepStats {
        use std::sync::atomic::{AtomicU64, Ordering};

        let t0 = Instant::now();
        let _step_timer = self.apex.timer("step:pipelined");
        let _mode_timer = self.apex.timer(self.simd_timer_label());
        let leaves = self.grid.leaves();
        let n = self.grid.n();
        let n3 = (n * n * n) as u64;
        let mut kernel_launches = 0u64;
        let rt0 = cluster.locality(0).runtime().clone();

        // ---- Gravity as a future (overlaps the stage-0 ghost fill). -----
        // Sources are gathered synchronously from uⁿ; nothing writes until
        // the stage-0 gates open, and those include this future's ticket.
        type GravityResult = (
            Arc<HashMap<NodeId, LeafField>>,
            crate::gravity::solver::SolveStats,
        );
        let gravity_fut: Option<Future<GravityResult>> = if self.opts.gravity {
            let sources = Arc::new(self.leaf_sources());
            // The clone shares the persistent solver's plan cache, so the
            // solve inside the future still hits the cached plan.
            let solver = self.gravity_solver.clone();
            let apex = self.apex.clone();
            let nloc = self.opts.localities.min(cluster.num_localities()).max(1);
            let rts: Vec<hpx_rt::Runtime> = (0..nloc)
                .map(|i| cluster.locality(i).runtime().clone())
                .collect();
            let space = ExecSpace::hpx(rt0.clone());
            let grid = self.grid.clone();
            Some(rt0.async_call(move || {
                let _t = apex.timer("gravity:solve");
                let plan = {
                    let _p = apex.timer("gravity:plan");
                    grid.with_tree(|t| solver.plan_for(t))
                };
                let (fields, stats) = {
                    let _k = apex.timer("gravity:kernels");
                    if nloc > 1 {
                        // The distributed solve treats a cross-locality
                        // ghost link exactly like a local one: the whole
                        // sharded pipeline still runs inside this future,
                        // overlapping the stage-0 ghost fill.
                        let dist = {
                            let owner = grid.with_tree(|t| octree::partition_morton(t, nloc));
                            solver.dist_plan_for(&plan, &owner, nloc)
                        };
                        solver.solve_distributed(&plan, &dist, &sources, &rts)
                    } else {
                        solver.solve_with_plan(&plan, &sources, &space)
                    }
                };
                (Arc::new(fields), stats)
            }))
        } else {
            None
        };

        // ---- Save u⁰ (synchronously: the previous step fully joined, so
        // no task holds a workspace and the grids race only with reads). --
        for &l in &leaves {
            self.workspaces[&l]
                .try_lock()
                .expect("leaf workspace aliased outside a step")
                .u0
                .copy_from(&self.grid.grid(l).read());
        }
        let ws_map: WorkspaceMap = Arc::new(self.workspaces.clone());

        // ---- Global Δt as an asynchronous Kokkos reduction. -------------
        // min/max are associative and commutative, so the chunked reduction
        // gives bit-identical Δt to the sequential fold in `compute_dt`.
        let dt_fut: Future<f64> = {
            let hopts = HydroOptions {
                vector_mode: self.opts.vector_mode,
                cfl: self.opts.cfl,
            };
            let cfl = self.opts.cfl;
            let handles: Vec<_> = leaves
                .iter()
                .map(|&l| {
                    let (_, size) = l.cube();
                    (size * BOX_SIZE / n as f64, self.grid.grid(l))
                })
                .collect();
            let space = ExecSpace::hpx(rt0.clone());
            kokkos_rs::launch_reduce_async(
                &rt0,
                space,
                kokkos_rs::RangePolicy::new(0, handles.len()),
                (f64::INFINITY, 1e-30f64),
                move |i| {
                    let (h, handle) = &handles[i];
                    (*h, hydro::max_signal_speed(&handle.read(), &hopts))
                },
                |a, b| (a.0.min(b.0), a.1.max(b.1)),
            )
            .then(&rt0, move |(h_min, max_speed)| cfl * h_min / max_speed)
        };
        kernel_launches += 1; // the Δt reduction is a real kernel here
        let dt_gate = dt_fut.ticket();
        let gravity_gate: Option<Future<()>> = gravity_fut.as_ref().map(|f| f.ticket());

        let stage_weight = [1.0 / 6.0, 1.0 / 6.0, 2.0 / 3.0];
        let boundary_masks: Arc<HashMap<NodeId, [bool; 6]>> = Arc::new(self.grid.with_tree(|t| {
            leaves
                .iter()
                .map(|&l| {
                    let dirs = [
                        octree::Dir::new(-1, 0, 0),
                        octree::Dir::new(1, 0, 0),
                        octree::Dir::new(0, -1, 0),
                        octree::Dir::new(0, 1, 0),
                        octree::Dir::new(0, 0, -1),
                        octree::Dir::new(0, 0, 1),
                    ];
                    let mask = dirs
                        .map(|d| matches!(t.neighbor_of(l, d), octree::Neighbor::DomainBoundary));
                    (l, mask)
                })
                .collect()
        }));

        // ---- Build all three stage graphs eagerly. ----------------------
        let overlapped = Arc::new(AtomicU64::new(0));
        // Per-leaf outflow rates per stage, folded in fixed leaf order at
        // the end of the step: tasks complete in scheduler order, and a
        // shared `+=` would make the ledger scheduling-dependent.
        let stage_outflows: [Arc<parking_lot::Mutex<HashMap<NodeId, f64>>>; 3] = Default::default();
        let mut stage_links: Vec<(Arc<std::sync::atomic::AtomicUsize>, usize)> = Vec::new();
        let mut links_total = 0u64;
        let mut direct_ghost_links = 0u64;
        let mut ready: HashMap<NodeId, Future<()>> = leaves
            .iter()
            .map(|&l| (l, hpx_rt::make_ready_future(())))
            .collect();
        for stage in 0..3 {
            let ex = self
                .grid
                .exchange_ghosts_pipelined(cluster, self.opts.ghost, &ready);
            links_total += ex.total_links as u64;
            direct_ghost_links += ex.direct_links as u64;
            let mut next: HashMap<NodeId, Future<()>> = HashMap::with_capacity(leaves.len());
            for &leaf in &leaves {
                let mut parts: Vec<Future<()>> = vec![
                    ex.ghosts_filled[&leaf].clone(),
                    ex.outgoing_packed[&leaf].clone(),
                ];
                if stage == 0 {
                    parts.push(dt_gate.clone());
                    if let Some(g) = &gravity_gate {
                        parts.push(g.clone());
                    }
                }
                let rt = cluster.locality(self.grid.owner(leaf).0).runtime().clone();
                let gate = hpx_rt::when_all_of(&rt, &parts);
                let grid = self.grid.clone();
                let opts = self.opts;
                let gf = gravity_fut.clone();
                let ws_map = ws_map.clone();
                let masks = boundary_masks.clone();
                let stage_outflow = stage_outflows[stage].clone();
                let dt_fut = dt_fut.clone();
                let resolved = ex.links_resolved.clone();
                let total = ex.total_links;
                let overlapped = overlapped.clone();
                let update = gate.then(&rt, move |()| {
                    // The gate transitively includes the Δt/gravity futures,
                    // so these `get`s never block.
                    if resolved.load(Ordering::Relaxed) < total {
                        overlapped.fetch_add(1, Ordering::Relaxed);
                    }
                    let dt = dt_fut.get();
                    let handle = grid.grid(leaf);
                    let (corner, size) = leaf.cube();
                    let nn = grid.n();
                    let h = size * BOX_SIZE / nn as f64;
                    let origin = [
                        (corner[0] + 0.5 * size / nn as f64 - 0.5) * BOX_SIZE,
                        (corner[1] + 0.5 * size / nn as f64 - 0.5) * BOX_SIZE,
                        (corner[2] + 0.5 * size / nn as f64 - 0.5) * BOX_SIZE,
                    ];
                    let hopts = HydroOptions {
                        vector_mode: opts.vector_mode,
                        cfl: opts.cfl,
                    };
                    // The per-leaf future chain (`ready` → exchange gates →
                    // this update) serializes every task touching this
                    // leaf's workspace; contention here is a graph bug.
                    let mut guard = ws_map[&leaf]
                        .try_lock()
                        .expect("leaf workspace aliased by a concurrent task");
                    let ws = &mut *guard;
                    {
                        let g = handle.read();
                        ws.u_cur.copy_from(&g);
                    }
                    let gfields = gf.as_ref().map(|f| f.get().0);
                    let leaf_gravity = gfields.as_ref().map(|m| &m[&leaf]);
                    let gvecs = leaf_gravity.map(|f| [&f.gx[..], &f.gy[..], &f.gz[..]]);
                    let src = SourceInput {
                        gravity: gvecs,
                        omega: opts.omega,
                        origin,
                        h,
                        boundary_faces: masks[&leaf],
                    };
                    let info =
                        hydro::compute_rhs(&ws.u_cur, &mut ws.rhs, &src, &hopts, &mut ws.scratch);
                    stage_outflow
                        .lock()
                        .insert(leaf, info.boundary_mass_outflow_rate);
                    workspace::zero_ghost_runs(&mut ws.rhs, &ws.ghost_runs);
                    let mut g = handle.write();
                    match stage {
                        0 => hydro::rk3::stage_euler(
                            &ws.u_cur,
                            &ws.rhs,
                            dt,
                            &mut g,
                            opts.vector_mode,
                        ),
                        1 => hydro::rk3::stage_two(
                            &ws.u0,
                            &ws.u_cur,
                            &ws.rhs,
                            dt,
                            &mut g,
                            opts.vector_mode,
                        ),
                        _ => hydro::rk3::stage_three(
                            &ws.u0,
                            &ws.u_cur,
                            &ws.rhs,
                            dt,
                            &mut g,
                            opts.vector_mode,
                        ),
                    }
                });
                next.insert(leaf, update);
            }
            stage_links.push((ex.links_resolved, ex.total_links));
            kernel_launches += 2 * leaves.len() as u64; // RHS + combine
            ready = next;
        }

        // ---- The single blocking point: join the stage-2 updates. -------
        for f in ready.values() {
            f.wait();
        }

        let ghost_links_resolved: u64 = stage_links
            .iter()
            .map(|(c, _)| c.load(Ordering::SeqCst) as u64)
            .sum();
        debug_assert_eq!(
            ghost_links_resolved, links_total,
            "pipelined step finished with undrained ghost links"
        );

        let dt = dt_fut.get();
        let gravity_stats = gravity_fut.as_ref().map(|f| f.get().1);
        self.last_gravity_stats = gravity_stats;
        if let Some(stats) = gravity_stats {
            kernel_launches += stats.multipole_kernel_launches as u64 + leaves.len() as u64;
        }
        let mut step_outflow = 0.0;
        for s in 0..3 {
            let rates = stage_outflows[s].lock();
            let stage_rate: f64 = leaves.iter().map(|l| rates[l]).sum();
            step_outflow += stage_weight[s] * dt * stage_rate;
        }
        self.mass_outflow += step_outflow;

        self.time += dt;
        self.step_count += 1;
        let elapsed = t0.elapsed().as_secs_f64();
        let cells = 3 * n3 * leaves.len() as u64;
        let (scratch_hits, scratch_misses, scratch_bytes_in_use, scratch_high_water) =
            self.scratch_telemetry();
        StepStats {
            vector_mode: self.opts.vector_mode,
            dt,
            time: self.time,
            cells_processed: cells,
            elapsed_seconds: elapsed,
            cells_per_second: cells as f64 / elapsed.max(1e-12),
            kernel_launches,
            direct_ghost_links,
            mass_outflow: step_outflow,
            ghost_links_total: links_total,
            ghost_links_resolved,
            overlapped_tasks: overlapped.load(Ordering::SeqCst),
            scratch_hits,
            scratch_misses,
            scratch_bytes_in_use,
            scratch_high_water,
            gravity_stats,
            gravity_plan_hit: self.opts.gravity && self.gravity_solver.last_plan_hit(),
            regrid_refined: 0,
            regrid_derefined: 0,
            tuner: None,
        }
    }

    /// Run `steps` steps; returns the ledger before and after plus per-step
    /// stats.
    pub fn run(
        &mut self,
        cluster: &SimCluster,
        steps: usize,
    ) -> (ConservationLedger, ConservationLedger, Vec<StepStats>) {
        let before = ConservationLedger::measure(&self.grid);
        let mut stats = Vec::with_capacity(steps);
        for _ in 0..steps {
            stats.push(self.step(cluster));
        }
        let after = ConservationLedger::measure(&self.grid);
        (before, after, stats)
    }
}

impl Simulation {
    /// FMM statistics of the most recent step (if gravity ran).
    pub fn last_gravity_stats(&self) -> Option<crate::gravity::solver::SolveStats> {
        self.last_gravity_stats
    }

    /// Peak interior density and maximum relative density jump between
    /// adjacent interior cells of one leaf — the two refinement indicators
    /// of the criterion pass.
    fn leaf_density_extrema(&self, leaf: NodeId) -> (f64, f64) {
        let handle = self.grid.grid(leaf);
        let g = handle.read();
        let n = g.n();
        let mut peak = 0.0f64;
        let mut jump = 0.0f64;
        let rel = |a: f64, b: f64| (a - b).abs() / a.min(b).max(1e-300);
        for i in 0..n {
            for j in 0..n {
                for k in 0..n {
                    let rho = g.get_interior(field::RHO, i, j, k);
                    peak = peak.max(rho);
                    if i + 1 < n {
                        jump = jump.max(rel(rho, g.get_interior(field::RHO, i + 1, j, k)));
                    }
                    if j + 1 < n {
                        jump = jump.max(rel(rho, g.get_interior(field::RHO, i, j + 1, k)));
                    }
                    if k + 1 < n {
                        jump = jump.max(rel(rho, g.get_interior(field::RHO, i, j, k + 1)));
                    }
                }
            }
        }
        (peak, jump)
    }

    /// Octo-Tiger's regrid, both directions of it (paper Section IV-C:
    /// "AMR is based on the density field"):
    ///
    /// * **refine** every leaf below `max_level` whose peak interior
    ///   density exceeds `threshold` or whose relative cell-to-cell
    ///   density jump exceeds [`SimOptions::regrid_shock_threshold`],
    ///   prolonging payloads into the new children conservatively;
    /// * **coarsen** every octet whose eight children are leaves with peak
    ///   density below [`SimOptions::regrid_coarsen_threshold`] (and no
    ///   shock), restricting the children back into the parent — via the
    ///   polite [`DistGrid::derefine`], which refuses rather than drag
    ///   still-wanted fine neighbours coarser.
    ///
    /// 2:1 balance is maintained throughout.  Every change bumps the
    /// tree's `topology_version`, so the next step drops the consumed
    /// leaves' workspaces (clean leaves keep theirs — and their recycled
    /// kernel scratch), the next exchange re-walks the ghost payload
    /// demand, and the next gravity solve rebuilds its interaction and
    /// halo plans.
    pub fn regrid(&mut self, max_level: u8, threshold: f64) -> RegridOutcome {
        let shock = self.opts.regrid_shock_threshold;
        let coarsen = self.opts.regrid_coarsen_threshold;
        let mut outcome = RegridOutcome::default();
        loop {
            let candidates: Vec<NodeId> = self
                .grid
                .leaves()
                .into_iter()
                .filter(|&leaf| {
                    if leaf.level() >= max_level {
                        return false;
                    }
                    let (peak, jump) = self.leaf_density_extrema(leaf);
                    peak > threshold || jump > shock
                })
                .collect();
            if candidates.is_empty() {
                break;
            }
            for leaf in candidates {
                // A previous refinement in this round may have consumed it.
                if self.grid.with_tree(|t| t.is_leaf(leaf)) {
                    self.grid.refine_balanced(leaf);
                    outcome.refined += 1;
                }
            }
        }
        if coarsen > 0.0 {
            let mut parents: Vec<NodeId> = self
                .grid
                .leaves()
                .into_iter()
                .filter_map(|l| l.parent())
                .collect();
            parents.sort();
            parents.dedup();
            for p in parents {
                let whole_octet_of_leaves = self.grid.with_tree(|t| {
                    octree::Octant::all()
                        .into_iter()
                        .all(|o| t.is_leaf(p.child(o)))
                });
                let collapsible = whole_octet_of_leaves
                    && octree::Octant::all().into_iter().all(|o| {
                        let (peak, jump) = self.leaf_density_extrema(p.child(o));
                        peak < coarsen && jump < shock
                    });
                if collapsible && self.grid.derefine(p) {
                    outcome.derefined += 1;
                }
            }
        }
        hpx_rt::regrid_counters().note_refined(outcome.refined as u64);
        hpx_rt::regrid_counters().note_derefined(outcome.derefined as u64);
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{Scenario, ScenarioKind};
    use crate::state::NF;

    fn small_sim(cluster: &SimCluster, gravity: bool) -> Simulation {
        let sc = Scenario::build(ScenarioKind::RotatingStar, cluster, 1, 0, 4);
        let mut opts = SimOptions::default();
        opts.gravity = gravity;
        opts.omega = sc.omega;
        Simulation::new(sc.grid, opts)
    }

    #[test]
    fn dt_is_positive_and_finite() {
        let cluster = SimCluster::new(1, 2);
        let sim = small_sim(&cluster, false);
        let dt = sim.compute_dt();
        assert!(dt.is_finite() && dt > 0.0);
        cluster.shutdown();
    }

    #[test]
    fn hydro_step_conserves_mass_to_machine_precision() {
        // Mass + tracked boundary outflow must close to machine precision
        // (the property Octo-Tiger's fixed time step exists to protect).
        let cluster = SimCluster::new(2, 2);
        let mut sim = small_sim(&cluster, false);
        let (before, after, stats) = sim.run(&cluster, 2);
        assert_eq!(stats.len(), 2);
        let closed = (after.mass + sim.mass_outflow - before.mass).abs() / before.mass;
        assert!(
            closed < 1e-12,
            "mass ledger does not close: drift {closed}, outflow {}",
            sim.mass_outflow
        );
        assert!(stats[0].cells_per_second > 0.0);
        assert!(stats[0].kernel_launches > 0);
        cluster.shutdown();
    }

    #[test]
    fn gravity_step_runs_and_reports_stats() {
        let cluster = SimCluster::new(1, 2);
        // Level 2: deep enough for the dual-tree traversal to produce
        // far-field (M2L) interactions; level 1 is all near-field.
        let sc = Scenario::build(ScenarioKind::RotatingStar, &cluster, 2, 0, 4);
        let mut opts = SimOptions::default();
        opts.gravity = true;
        opts.omega = sc.omega;
        let mut sim = Simulation::new(sc.grid, opts);
        let s = sim.step(&cluster);
        assert!(s.gravity_stats.is_some());
        assert!(s.gravity_stats.unwrap().m2l_interactions > 0);
        assert!(s.gravity_stats.unwrap().p2p_pairs > 0);
        assert!(s.dt > 0.0);
        // State must remain finite everywhere.
        for leaf in sim.grid.leaves() {
            let g = sim.grid.grid(leaf);
            let gg = g.read();
            assert!(gg.field(field::RHO).iter().all(|v| v.is_finite()));
            assert!(gg.field(field::EGAS).iter().all(|v| v.is_finite()));
        }
        cluster.shutdown();
    }

    #[test]
    fn scalar_and_sve_runs_produce_identical_states() {
        // The Figure 7 switch is performance-only.
        let cluster_a = SimCluster::new(1, 2);
        let cluster_b = SimCluster::new(1, 2);
        let mut sim_a = small_sim(&cluster_a, false);
        let mut sim_b = small_sim(&cluster_b, false);
        sim_a.opts.vector_mode = VectorMode::Scalar;
        sim_b.opts.vector_mode = VectorMode::Sve512;
        let sa = sim_a.step(&cluster_a);
        let sb = sim_b.step(&cluster_b);
        assert_eq!(sa.vector_mode, VectorMode::Scalar);
        assert_eq!(sb.vector_mode, VectorMode::Sve512);
        assert_eq!(sa.dt.to_bits(), sb.dt.to_bits(), "Δt must be bit-identical");
        for leaf in sim_a.grid.leaves() {
            let ga = sim_a.grid.grid(leaf);
            let gb = sim_b.grid.grid(leaf);
            let (ga, gb) = (ga.read(), gb.read());
            for f in 0..NF {
                for (a, b) in ga.field(f).iter().zip(gb.field(f)) {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "state diverged between widths: {a} vs {b}"
                    );
                }
            }
        }
        // The per-backend apex timers landed under distinct labels.
        assert_eq!(sim_a.apex.stats("step:simd-scalar").count, 1);
        assert_eq!(sim_b.apex.stats("step:simd-sve512").count, 1);
        cluster_a.shutdown();
        cluster_b.shutdown();
    }

    #[test]
    fn apex_profiles_the_step_phases() {
        let cluster = SimCluster::new(1, 2);
        let mut sim = small_sim(&cluster, true);
        sim.step(&cluster);
        let gravity = sim.apex.stats("gravity:solve");
        let stages = sim.apex.stats("hydro:rk_stage");
        let ghosts = sim.apex.stats("comm:ghost_exchange");
        assert_eq!(gravity.count, 1);
        assert_eq!(stages.count, 3);
        assert_eq!(ghosts.count, 3);
        assert!(gravity.total_s > 0.0);
        let table = sim.apex.summary_table();
        assert!(table.contains("gravity:solve"));
        cluster.shutdown();
    }

    #[test]
    fn regrid_refines_dense_leaves_and_conserves_mass() {
        let cluster = SimCluster::new(1, 2);
        // Level 2 so cell centers actually sample the (small) star.
        let sc = Scenario::build(ScenarioKind::RotatingStar, &cluster, 2, 0, 4);
        let mut opts = SimOptions::default();
        opts.gravity = false;
        opts.omega = sc.omega;
        let mut sim = Simulation::new(sc.grid, opts);
        let before = crate::diag::ConservationLedger::measure(&sim.grid);
        let leaves_before = sim.grid.leaves().len();
        let refined = sim.regrid(3, 1.0);
        assert!(refined.refined > 0, "the star should trigger refinement");
        assert_eq!(refined.derefined, 0, "coarsening is off by default");
        assert!(refined.changed());
        assert!(sim.grid.leaves().len() > leaves_before);
        sim.grid
            .with_tree(|t| t.check_invariants().expect("balanced"));
        let after = crate::diag::ConservationLedger::measure(&sim.grid);
        assert!(
            after.mass_drift(&before) < 1e-12,
            "prolongation must conserve mass: {}",
            after.mass_drift(&before)
        );
        // And the refined grid still steps.
        let s = sim.step(&cluster);
        assert!(s.dt > 0.0);
        cluster.shutdown();
    }

    #[test]
    fn regrid_coarsens_vacuum_octets_and_reports_breakdown() {
        let cluster = SimCluster::new(1, 2);
        // Base level 3: the star at the box centre leaves the corner
        // level-2 octets fully below the floor, so they can collapse
        // (at level 2 every octet touches the centre and nothing could).
        let sc = Scenario::build(ScenarioKind::RotatingStar, &cluster, 3, 0, 4);
        let mut opts = SimOptions::default();
        opts.gravity = false;
        opts.omega = sc.omega;
        opts.regrid_coarsen_threshold = 1e-6;
        let mut sim = Simulation::new(sc.grid, opts);
        let before = crate::diag::ConservationLedger::measure(&sim.grid);
        let leaves_before = sim.grid.leaves().len();
        // An infinite refine threshold isolates the coarsen direction: the
        // far-field octets (floor density) collapse, the star stays put.
        let out = sim.regrid(3, f64::INFINITY);
        assert_eq!(out.refined, 0);
        assert!(out.derefined > 0, "vacuum octets should collapse");
        assert!(out.changed());
        assert!(sim.grid.leaves().len() < leaves_before);
        sim.grid
            .with_tree(|t| t.check_invariants().expect("balanced"));
        let after = crate::diag::ConservationLedger::measure(&sim.grid);
        assert!(
            after.mass_drift(&before) < 1e-12,
            "restriction must conserve mass: {}",
            after.mass_drift(&before)
        );
        // And the coarsened grid still steps.
        let s = sim.step(&cluster);
        assert!(s.dt > 0.0);
        cluster.shutdown();
    }

    #[test]
    fn cadence_regrid_rebuilds_gravity_plans_mid_run() {
        let cluster = SimCluster::new(1, 2);
        let sc = Scenario::build(ScenarioKind::RotatingStar, &cluster, 2, 0, 4);
        let mut opts = SimOptions::default();
        opts.gravity = true;
        opts.omega = sc.omega;
        opts.regrid_cadence = Some(1);
        let mut sim = Simulation::new(sc.grid, opts);
        // Step 0 never regrids (there is nothing mid-run about it yet).
        let s0 = sim.step(&cluster);
        assert_eq!(s0.regrid_refined, 0);
        assert_eq!(sim.gravity_plan_counters(), (0, 1));
        // The cadence fires before step 1: the star refines, and the solve
        // that follows must rebuild the now-stale interaction plan.
        let s1 = sim.step(&cluster);
        assert!(s1.regrid_refined > 0, "the star should trigger refinement");
        assert!(!s1.gravity_plan_hit);
        assert!(s1.dt > 0.0);
        assert_eq!(
            sim.gravity_plan_counters(),
            (0, 2),
            "post-regrid solve must rebuild the plan"
        );
        // The rebuilt plan yields forces bit-identical to a fresh solver's.
        let sources = sim.leaf_sources();
        let (f_sim, s_sim) = sim
            .grid
            .with_tree(|t| sim.gravity_solver.solve(t, &sources, &ExecSpace::Serial));
        assert_eq!(sim.gravity_plan_counters(), (1, 2), "the step cached it");
        let fresh = GravitySolver::new(sim.opts.gravity_opts);
        let (f_fresh, s_fresh) = sim
            .grid
            .with_tree(|t| fresh.solve(t, &sources, &ExecSpace::Serial));
        assert_eq!(s_sim, s_fresh);
        assert_eq!(s1.gravity_stats, Some(s_fresh));
        for leaf in sim.grid.leaves() {
            let (fa, fb) = (&f_sim[&leaf], &f_fresh[&leaf]);
            for c in 0..fa.phi.len() {
                assert_eq!(fa.phi[c].to_bits(), fb.phi[c].to_bits());
                assert_eq!(fa.gx[c].to_bits(), fb.gx[c].to_bits());
                assert_eq!(fa.gy[c].to_bits(), fb.gy[c].to_bits());
                assert_eq!(fa.gz[c].to_bits(), fb.gz[c].to_bits());
            }
        }
        cluster.shutdown();
    }

    #[test]
    fn pipelined_step_matches_barrier_bit_for_bit() {
        // The tentpole switch must be performance-only, like the others —
        // and with gravity on, so the FMM future overlaps the stage-0 fill.
        let cluster_a = SimCluster::new(2, 2);
        let cluster_b = SimCluster::new(2, 2);
        let mut sim_a = small_sim(&cluster_a, true);
        let mut sim_b = small_sim(&cluster_b, true);
        sim_b.opts.pipeline = true;
        let sa = sim_a.step(&cluster_a);
        let sb = sim_b.step(&cluster_b);
        assert_eq!(sa.dt.to_bits(), sb.dt.to_bits(), "Δt must be bit-identical");
        // Outflow is accumulated leaf-by-leaf in task-completion order in
        // both steppers, so it is only reproducible to rounding.
        let outflow_diff = (sa.mass_outflow - sb.mass_outflow).abs();
        assert!(outflow_diff <= 1e-12 * (1.0 + sa.mass_outflow.abs()));
        for leaf in sim_a.grid.leaves() {
            let ga = sim_a.grid.grid(leaf);
            let gb = sim_b.grid.grid(leaf);
            let (ga, gb) = (ga.read(), gb.read());
            for f in 0..NF {
                assert_eq!(ga.field(f), gb.field(f), "field {f} differs at {leaf}");
            }
        }
        // Telemetry contract: the barrier path never overlaps; the
        // pipelined path drains every link and counts the same link set.
        assert_eq!(sa.overlapped_tasks, 0);
        assert_eq!(sa.ghost_links_resolved, sa.ghost_links_total);
        assert_eq!(sb.ghost_links_resolved, sb.ghost_links_total);
        assert_eq!(sb.ghost_links_total, sa.ghost_links_total);
        assert_eq!(sb.direct_ghost_links, sa.direct_ghost_links);
        cluster_a.shutdown();
        cluster_b.shutdown();
    }

    #[test]
    fn comm_optimization_does_not_change_physics() {
        // Figure 8's switch must be performance-only too.
        let cluster_a = SimCluster::new(2, 1);
        let cluster_b = SimCluster::new(2, 1);
        let mut sim_a = small_sim(&cluster_a, false);
        let mut sim_b = small_sim(&cluster_b, false);
        sim_a.opts.ghost = GhostConfig {
            direct_local_access: true,
            notify_with_channels: false,
        };
        sim_b.opts.ghost = GhostConfig {
            direct_local_access: false,
            notify_with_channels: false,
        };
        let sa = sim_a.step(&cluster_a);
        let sb = sim_b.step(&cluster_b);
        assert!(sa.direct_ghost_links > 0);
        assert_eq!(sb.direct_ghost_links, 0);
        for leaf in sim_a.grid.leaves() {
            let ga = sim_a.grid.grid(leaf);
            let gb = sim_b.grid.grid(leaf);
            let (ga, gb) = (ga.read(), gb.read());
            for f in 0..NF {
                assert_eq!(ga.field(f), gb.field(f), "field {f} differs");
            }
        }
        cluster_a.shutdown();
        cluster_b.shutdown();
    }
}
