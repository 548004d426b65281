//! One episode of a workload, driven the way a user drives a run:
//! `SimCluster::new` → `Scenario::build` → seeded perturbation →
//! `Simulation::new` → a cold step → warm steps with checkpoint writes and
//! read-backs → verified final state.
//!
//! Every time is taken here, around public calls.  The program's own
//! instrumentation (apex timers, `StepStats`, `SolveStats`, the plan and
//! runtime counters) is read, never changed.

use crate::workload::{perturb, Shape, Workload};
use hpx_rt::{Apex, SimCluster};
use octotiger::io::{self, Checkpoint};
use octotiger::{ConservationLedger, Scenario, SimOptions, Simulation, StepStats, NF};
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::path::Path;
use std::time::Instant;

/// Mass + tracked outflow must close to this relative error on the uniform
/// workloads (measured ~1e-13 at N = 8).
pub const MASS_CLOSURE_TOL: f64 = 1e-11;

/// Operations attempted and the checks that failed.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Checks {
    /// Count one operation; it fails when any of its checks reported a
    /// problem.
    pub fn op(&mut self, what: &str, problems: Vec<String>) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            self.failures
                .extend(problems.into_iter().map(|p| format!("{what}: {p}")));
        }
    }
}

/// What one episode measured.
pub struct Episode {
    pub setup_s: f64,
    pub time_to_solution_s: f64,
    pub warm_step_s: Vec<f64>,
    /// Interior cells × 3 RK stages, summed over the warm steps.
    pub warm_cells: u64,
    /// Digest of the final leaf state plus the `dt` sequence.
    pub digest: u64,
    /// Leaf count after each step.
    pub leaves: Vec<usize>,
    /// Per-layer metrics (see `PER_LAYER` in `main.rs`).
    pub layers: BTreeMap<String, f64>,
    /// The apex chrome trace, when the episode was traced.
    pub trace_json: Option<String>,
    /// The options the episode ran with (the rotating-frame frequency comes
    /// from the scenario).
    pub options: SimOptions,
}

/// FNV-1a, so the digest is the same in every process and build.
struct Fnv(u64);

impl Hasher for Fnv {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
}

fn digest(ckpt: &Checkpoint, dts: &[f64]) -> u64 {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    for (leaf, data) in &ckpt.leaves {
        leaf.hash(&mut h);
        for v in data {
            h.write_u64(v.to_bits());
        }
    }
    for dt in dts {
        h.write_u64(dt.to_bits());
    }
    h.finish()
}

/// Apex timer totals of the stepper's spans, so warm-step deltas can be
/// taken around the timed loop.
const SPANS: [&str; 6] = [
    "gravity:solve",
    "gravity:plan",
    "gravity:kernels",
    "hydro:cfl_reduction",
    "comm:ghost_exchange",
    "hydro:rk_stage",
];
const REGRID_SPAN: &str = "regrid:criterion_pass";

fn span_totals(apex: &Apex) -> [f64; 6] {
    SPANS.map(|s| apex.stats(s).total_s)
}

/// Checks every step must pass.
fn check_step(
    sim: &Simulation,
    shape: &Shape,
    stats: &StepStats,
    parcels: u64,
    mass_closure: f64,
) -> Vec<String> {
    let mut problems = Vec::new();
    if !(stats.dt.is_finite() && stats.dt > 0.0) {
        problems.push(format!("dt = {} is not a positive finite step", stats.dt));
    }
    if stats.ghost_links_resolved != stats.ghost_links_total {
        problems.push(format!(
            "ghost links resolved {} of {}",
            stats.ghost_links_resolved, stats.ghost_links_total
        ));
    }
    let finite = sim.grid.leaves().into_iter().all(|leaf| {
        let handle = sim.grid.grid(leaf);
        let g = handle.read();
        (0..NF).all(|f| g.field(f).iter().all(|v| v.is_finite()))
    });
    if !finite {
        problems.push("non-finite value in the state".into());
    }
    if shape.localities == 1 && parcels != 0 {
        problems.push(format!("{parcels} parcels on a 1-locality run"));
    }
    if shape.gate_mass_closure && (mass_closure.is_nan() || mass_closure > MASS_CLOSURE_TOL) {
        problems.push(format!(
            "mass + outflow closes to {mass_closure:e} > {MASS_CLOSURE_TOL:e}"
        ));
    }
    problems
}

/// Total parcels sent so far: the per-locality base counters plus the typed
/// parcel classes.
fn parcels_sent(cluster: &SimCluster) -> u64 {
    cluster.total_counters().parcels_sent + hpx_rt::parcel_counters().snapshot().total_count()
}

/// Checkpoint write and read-back: capture, write, read, compare in memory.
/// Returns the capture with (write s, read s, bytes).
fn checkpoint(sim: &Simulation, path: &Path, checks: &mut Checks) -> (Checkpoint, f64, f64, u64) {
    let mut problems = Vec::new();
    let tw = Instant::now();
    let ckpt = Checkpoint::capture(&sim.grid, sim.time, sim.step_count);
    if let Err(e) = io::write_checkpoint(path, &ckpt) {
        problems.push(format!("write failed: {e}"));
    }
    let write_s = tw.elapsed().as_secs_f64();
    let bytes = std::fs::metadata(path).map(|m| m.len()).unwrap_or(0);
    let tr = Instant::now();
    match io::read_checkpoint(path) {
        Ok(back) if back == ckpt => {}
        Ok(_) => problems.push("read-back differs from the capture".into()),
        Err(e) => problems.push(format!("read-back failed: {e}")),
    }
    let read_s = tr.elapsed().as_secs_f64();
    // Best effort: a stale file is overwritten by the next checkpoint.
    let _ = std::fs::remove_file(path);
    checks.op("checkpoint", problems);
    (ckpt, write_s, read_s, bytes)
}

fn mean(xs: &[f64]) -> f64 {
    ratio(xs.iter().sum(), xs.len() as f64)
}

/// `a / b`, or 0 when nothing was attempted.
fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

fn measure_ledger(sim: &Simulation, ledger_s: &mut Vec<f64>) -> ConservationLedger {
    let t = Instant::now();
    let l = ConservationLedger::measure(&sim.grid);
    ledger_s.push(t.elapsed().as_secs_f64());
    l
}

/// Relative mass + tracked outflow closure against the initial ledger.
fn mass_closure(l: &ConservationLedger, outflow: f64, initial: &ConservationLedger) -> f64 {
    ((l.mass + outflow - initial.mass) / initial.mass).abs()
}

/// A workload set up to the end of its checked cold step.
struct SetUp {
    cluster: SimCluster,
    sim: Simulation,
    /// Started at `SimCluster::new`.
    t0: Instant,
    setup_s: f64,
    build_s: f64,
    cold: StepStats,
    cold_step_s: f64,
    ledger0: ConservationLedger,
    ledger_s: Vec<f64>,
    /// Parcels sent up to the end of the cold step.
    parcels: u64,
    /// Reference angular momentum scale: total mass × ω × r₁².
    angmom_scale: f64,
}

/// `SimCluster::new` → `Scenario::build` → seeded perturbation →
/// `Simulation::new` → cold step (first plan build, workspace and scratch
/// allocation), checked.  A traced set-up swaps in a tracing apex profiler
/// before the first step.
fn set_up(w: Workload, shape: &Shape, seed: u64, traced: bool, checks: &mut Checks) -> SetUp {
    let t0 = Instant::now();
    let cluster = SimCluster::new(shape.localities, shape.workers);
    let tb = Instant::now();
    let scenario = Scenario::build(
        shape.kind,
        &cluster,
        shape.level,
        shape.amr_extra,
        shape.n_cell,
    );
    let build_s = tb.elapsed().as_secs_f64();
    perturb(&scenario.grid, seed);
    let Scenario {
        grid, omega, model, ..
    } = scenario;
    let mut sim = Simulation::new(grid, w.options(omega, shape.localities));
    if traced {
        sim.apex = Apex::new(true);
    }
    let mut ledger_s = Vec::new();
    let ledger0 = measure_ledger(&sim, &mut ledger_s);

    let parcels_before = parcels_sent(&cluster);
    let tc = Instant::now();
    let cold = sim.step(&cluster);
    let cold_step_s = tc.elapsed().as_secs_f64();
    let setup_s = t0.elapsed().as_secs_f64();
    let l = measure_ledger(&sim, &mut ledger_s);
    let parcels = parcels_sent(&cluster);
    let problems = check_step(
        &sim,
        shape,
        &cold,
        parcels - parcels_before,
        mass_closure(&l, sim.mass_outflow, &ledger0),
    );
    checks.op("cold step", problems);
    SetUp {
        angmom_scale: ledger0.mass * omega * model.r1 * model.r1,
        cluster,
        sim,
        t0,
        setup_s,
        build_s,
        cold,
        cold_step_s,
        ledger0,
        ledger_s,
        parcels,
    }
}

/// Set a workload up and tear it down again: one more `setup_s` sample.
pub fn set_up_only(w: Workload, seed: u64, checks: &mut Checks) -> f64 {
    let s = set_up(w, &w.shape(), seed, false, checks);
    drop(s.sim);
    s.cluster.shutdown();
    s.setup_s
}

/// Run one episode of `w` on `shape` (the workload's own, or a resized
/// one for the single-thread baseline).  A traced episode returns the apex
/// chrome trace.
pub fn run(
    w: Workload,
    shape: Shape,
    seed: u64,
    traced: bool,
    out_dir: &Path,
    checks: &mut Checks,
) -> Episode {
    let ckpt_path = out_dir.join(format!("{}-{}.silo", w.name(), std::process::id()));
    let SetUp {
        cluster,
        mut sim,
        t0,
        setup_s,
        build_s,
        cold,
        cold_step_s,
        ledger0,
        mut ledger_s,
        parcels: mut parcels_before,
        angmom_scale,
    } = set_up(w, &shape, seed, traced, checks);
    let closure = |l: &ConservationLedger, outflow: f64| mass_closure(l, outflow, &ledger0);
    let mut dts = vec![cold.dt];
    let mut leaves = vec![sim.grid.leaves().len()];
    let total_steps = 1 + shape.warm_steps;
    let mut ckpts = Vec::new();
    let mut last_ckpt = None;

    // ---- Warm steps: the timed loop.
    let spans_before = span_totals(&sim.apex);
    let regrid_span_before = sim.apex.stats(REGRID_SPAN);
    let hpx_before = cluster.total_counters();
    let typed_before = hpx_rt::parcel_counters().snapshot();
    let regrid_before = hpx_rt::regrid_counters().snapshot();
    let plan_before = sim.gravity_plan_counters();
    let mut warm_step_s = Vec::with_capacity(shape.warm_steps);
    let mut warm: Vec<StepStats> = Vec::with_capacity(shape.warm_steps);
    for s in 2..=total_steps {
        let ts = Instant::now();
        let st = sim.step(&cluster);
        warm_step_s.push(ts.elapsed().as_secs_f64());
        dts.push(st.dt);
        leaves.push(sim.grid.leaves().len());
        let l = measure_ledger(&sim, &mut ledger_s);
        let p = parcels_sent(&cluster);
        let problems = check_step(
            &sim,
            &shape,
            &st,
            p - parcels_before,
            closure(&l, sim.mass_outflow),
        );
        checks.op("warm step", problems);
        parcels_before = p;
        warm.push(st);
        if s % shape.checkpoint_every == 0 || s == total_steps {
            let (c, ws, rs, b) = checkpoint(&sim, &ckpt_path, checks);
            ckpts.push((ws, rs, b));
            last_ckpt = Some(c);
        }
    }
    let spans_after = span_totals(&sim.apex);
    let regrid_span = sim.apex.stats(REGRID_SPAN);
    let hpx = cluster.total_counters().since(&hpx_before);
    let typed = hpx_rt::parcel_counters().snapshot().since(&typed_before);
    let regrid = hpx_rt::regrid_counters().snapshot().since(&regrid_before);
    let plan_after = sim.gravity_plan_counters();

    let final_ckpt = last_ckpt.expect("the final step always writes a checkpoint");
    let digest = digest(&final_ckpt, &dts);
    let ledger_end = ConservationLedger::measure(&sim.grid);
    let time_to_solution_s = t0.elapsed().as_secs_f64();

    // ---- Per-layer metrics (per warm step unless the name says otherwise).
    let nw = warm.len() as f64;
    let per_step = |x: f64| x / nw;
    let span = |name: &str| {
        let i = SPANS.iter().position(|s| *s == name).expect("known span");
        per_step(spans_after[i] - spans_before[i])
    };
    let step_s = mean(&warm_step_s);
    let regrid_passes = regrid_span.count - regrid_span_before.count;
    let regrid_total = regrid_span.total_s - regrid_span_before.total_s;
    let sum = |f: &dyn Fn(&StepStats) -> f64| warm.iter().map(f).sum::<f64>();
    let gravity_sum = |f: &dyn Fn(&octotiger::gravity::solver::SolveStats) -> f64| {
        per_step(sum(&|s| s.gravity_stats.as_ref().map_or(0.0, f)))
    };
    let cells_per_leaf = (shape.n_cell * shape.n_cell * shape.n_cell) as f64;

    let solve = span("gravity:solve");
    let regrid_s = per_step(regrid_total);
    // The barrier stepper times its phases with apex spans.  The pipelined
    // stepper fuses the CFL reduction, the ghost exchange and the RK stages
    // into continuations with no span of their own, so only their sum with
    // the driver's overhead is known: the step's remainder after gravity and
    // regrid.  Those three layers are reported as 0 (unmeasured) there.
    let (cfl, ghost, rk, self_s, pipelined_rest) = if sim.opts.pipeline {
        let rest = (step_s - solve - regrid_s).max(0.0);
        (0.0, 0.0, 0.0, 0.0, rest)
    } else {
        let (cfl, ghost, rk) = (
            span("hydro:cfl_reduction"),
            span("comm:ghost_exchange"),
            span("hydro:rk_stage"),
        );
        let self_s = (step_s - solve - regrid_s - cfl - ghost - rk).max(0.0);
        (cfl, ghost, rk, self_s, 0.0)
    };
    let ghost_links = sum(&|s| s.ghost_links_total as f64);
    let last = warm.last().unwrap_or(&cold);
    let hits = (last.scratch_hits - cold.scratch_hits) as f64;
    let misses = (last.scratch_misses - cold.scratch_misses) as f64;
    let plan_hits = (plan_after.0 - plan_before.0) as f64;
    let plan_rebuilds = (plan_after.1 - plan_before.1) as f64;

    let mut layers = BTreeMap::new();
    let mut put = |k: &str, v: f64| {
        layers.insert(k.to_string(), v);
    };
    put("step.warm_s", step_s);
    put("gravity.solve_s", solve);
    put("gravity.kernels_s", span("gravity:kernels"));
    put("gravity.plan_s", span("gravity:plan"));
    put("gravity.kernels_share", span("gravity:kernels") / step_s);
    put(
        "gravity.m2l_interactions",
        gravity_sum(&|g| g.m2l_interactions as f64),
    );
    put("gravity.p2p_pairs", gravity_sum(&|g| g.p2p_pairs as f64));
    put(
        "gravity.p2p_point_interactions",
        gravity_sum(&|g| g.p2p_pairs as f64) * cells_per_leaf * cells_per_leaf,
    );
    put(
        "gravity.multipole_launches",
        gravity_sum(&|g| g.multipole_kernel_launches as f64),
    );
    put(
        "gravity.plan_hit_ratio",
        ratio(plan_hits, plan_hits + plan_rebuilds),
    );
    put("gravity.plan_patched", regrid.plan_patched as f64);
    put("gravity.plan_rebuilt", regrid.plan_rebuilt as f64);
    put("hydro.rk_stage_s", rk);
    put("hydro.cfl_s", cfl);
    put(
        "driver.kernel_launches",
        per_step(sum(&|s| s.kernel_launches as f64)),
    );
    put(
        "driver.overlapped_tasks",
        per_step(sum(&|s| s.overlapped_tasks as f64)),
    );
    put("driver.cold_step_s", cold_step_s);
    put("driver.self_s", self_s);
    put("driver.pipelined_rest_s", pipelined_rest);
    put("octree.ghost_exchange_s", ghost);
    put("octree.ghost_links", per_step(ghost_links));
    put(
        "octree.direct_link_ratio",
        sum(&|s| s.direct_ghost_links as f64) / ghost_links.max(1.0),
    );
    put(
        "octree.unresolved_links",
        per_step(sum(&|s| {
            (s.ghost_links_total - s.ghost_links_resolved) as f64
        })),
    );
    put(
        "octree.leaves_final",
        *leaves.last().expect("at least one step") as f64,
    );
    put("hpx.tasks_executed", per_step(hpx.tasks_executed as f64));
    put("hpx.tasks_stolen", per_step(hpx.tasks_stolen as f64));
    put("hpx.worker_parks", per_step(hpx.worker_parks as f64));
    put(
        "hpx.continuations",
        per_step(hpx.continuations_attached as f64),
    );
    put("hpx.parcels_sent", per_step(hpx.parcels_sent as f64));
    put("hpx.parcel_bytes", per_step(hpx.parcel_bytes as f64));
    for (name, count, bytes) in [
        ("ghost", typed.ghost_count, typed.ghost_bytes),
        (
            "multipole-up",
            typed.multipole_up_count,
            typed.multipole_up_bytes,
        ),
        ("m2l", typed.m2l_count, typed.m2l_bytes),
        (
            "multipole-down",
            typed.multipole_down_count,
            typed.multipole_down_bytes,
        ),
        ("p2p", typed.p2p_count, typed.p2p_bytes),
    ] {
        put(&format!("parcels.{name}.count"), per_step(count as f64));
        put(&format!("parcels.{name}.bytes"), per_step(bytes as f64));
    }
    put("kokkos.scratch_misses_warm", per_step(misses));
    put("kokkos.scratch_hit_ratio", ratio(hits, hits + misses));
    put(
        "kokkos.scratch_high_water_bytes",
        warm.last().map_or(0.0, |s| s.scratch_high_water as f64),
    );
    put(
        "regrid.criterion_s",
        ratio(regrid_total, regrid_passes as f64),
    );
    put("regrid.refined", sum(&|s| s.regrid_refined as f64));
    put("regrid.derefined", sum(&|s| s.regrid_derefined as f64));
    put(
        "io.checkpoint_write_s",
        crate::median(&ckpts.iter().map(|c| c.0).collect::<Vec<_>>()),
    );
    put(
        "io.readback_s",
        crate::median(&ckpts.iter().map(|c| c.1).collect::<Vec<_>>()),
    );
    put(
        "io.checkpoint_bytes",
        crate::median(&ckpts.iter().map(|c| c.2 as f64).collect::<Vec<_>>()),
    );
    put("scenario.build_s", build_s);
    put("diag.ledger_s", crate::median(&ledger_s));
    put("diag.mass_closure", closure(&ledger_end, sim.mass_outflow));
    put(
        "diag.angmom_drift",
        ledger_end.angular_momentum_drift(&ledger0, angmom_scale),
    );

    let trace_json = traced.then(|| sim.apex.chrome_trace_json());
    let options = sim.opts;
    drop(sim);
    cluster.shutdown();
    Episode {
        setup_s,
        time_to_solution_s,
        warm_step_s,
        warm_cells: warm.iter().map(|s| s.cells_processed).sum(),
        digest,
        leaves,
        layers,
        trace_json,
        options,
    }
}
