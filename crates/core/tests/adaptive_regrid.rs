//! Mid-run adaptive regridding must be a pure performance feature.
//!
//! Two layers of evidence:
//!
//! * **Rebuilt plans are well-formed** — over randomized refine/derefine
//!   sequences, the [`GravityPlan`] and [`DistPlan`] rebuilt after every
//!   episode pass the static plan and protocol verifiers (proptest below).
//! * **Physics is unchanged by distribution and width** — a 10-step run
//!   with cadence-driven regridding (both refine and coarsen firing) is
//!   bit-identical across 1 vs 4 simulated localities and scalar vs SVE
//!   vector modes.

use hpx_rt::SimCluster;
use octotiger::gravity::{verify_dist_plan, verify_gravity_plan, DistPlan, GravityPlan};
use octotiger::{Scenario, ScenarioKind, SimOptions, Simulation, NF};
use octree::{partition_morton, NodeId, Tree};
use proptest::prelude::*;
use sve_simd::VectorMode;

const THETA: f64 = 0.5;

proptest! {
    // Each case replays a whole multi-episode regrid history, so the
    // default case count covers hundreds of regrid episodes.
    #[test]
    fn random_regrid_rebuilt_plans_verify(
        seq in prop::collection::vec((0usize..4096, any::<bool>()), 1..10),
    ) {
        const NLOC: usize = 4;
        let mut tree = Tree::new_uniform(2);
        for (s, deref) in seq {
            let version = tree.topology_version();
            let leaves = tree.leaves();
            let pick = leaves[s % leaves.len()];
            if deref {
                // Collapse a random leaf's parent octet (dragging finer
                // neighbours coarser as needed); may refuse entirely.
                if let Some(parent) = pick.parent() {
                    tree.derefine_balanced(parent);
                }
            } else if pick.level() < 4 {
                tree.refine_balanced(pick);
            }
            prop_assert!(tree.check_invariants().is_ok());
            if tree.topology_version() == version {
                continue;
            }
            let plan = GravityPlan::build(&tree, THETA);
            prop_assert_eq!(verify_gravity_plan(&plan), vec![]);
            let dist = DistPlan::build(&plan, &partition_morton(&tree, NLOC), NLOC);
            prop_assert_eq!(verify_dist_plan(&plan, &dist), vec![]);
        }
    }
}

/// What [`adaptive_run`] fingerprints: the Δt bit sequence, the final
/// per-leaf state bits, and whether the run regridded mid-run.
type RunFingerprint = (Vec<u64>, Vec<(NodeId, Vec<u64>)>, bool);

/// One adaptive run: 10 steps, regrid every 3rd, refine on the star and
/// coarsen the far-field floor.
fn adaptive_run(localities: usize, mode: VectorMode) -> RunFingerprint {
    let cluster = SimCluster::new(4, 2);
    // Level 1 base kept deliberately small: 10 steps × 4 configurations.
    let sc = Scenario::build(ScenarioKind::RotatingStar, &cluster, 1, 0, 4);
    let mut opts = SimOptions::default();
    opts.gravity = true;
    opts.omega = sc.omega;
    opts.localities = localities;
    opts.vector_mode = mode;
    opts.regrid_cadence = Some(3);
    opts.regrid_max_level = 2;
    opts.regrid_refine_threshold = 1.0;
    opts.regrid_coarsen_threshold = 1e-8;
    let mut sim = Simulation::new(sc.grid, opts);
    let leaves_before = sim.grid.leaves().len();
    let mut resized = false;
    let mut dts = Vec::new();
    for _ in 0..10 {
        let s = sim.step(&cluster);
        dts.push(s.dt.to_bits());
        resized |= sim.grid.leaves().len() != leaves_before;
    }
    // Step 0 builds the plan; a mid-run regrid forces at least one rebuild.
    let regridded = resized && sim.gravity_plan_counters().1 > 1;
    let mut leaves = sim.grid.leaves();
    leaves.sort();
    let state = leaves
        .iter()
        .map(|&l| {
            let handle = sim.grid.grid(l);
            let g = handle.read();
            let mut bits = Vec::new();
            for f in 0..NF {
                bits.extend(g.field(f).iter().map(|v| v.to_bits()));
            }
            (l, bits)
        })
        .collect();
    cluster.shutdown();
    (dts, state, regridded)
}

#[test]
fn adaptive_runs_bit_identical_across_localities_and_widths() {
    let (base_dts, base_state, base_regridded) = adaptive_run(1, VectorMode::Scalar);
    assert!(base_regridded, "the adaptive run must regrid mid-run");
    for (nloc, mode) in [
        (4, VectorMode::Scalar),
        (1, VectorMode::Sve512),
        (4, VectorMode::Sve512),
    ] {
        let (dts, state, _) = adaptive_run(nloc, mode);
        assert_eq!(
            base_dts, dts,
            "Δt sequence diverged at {nloc} localities, {mode:?}"
        );
        assert_eq!(
            base_state.len(),
            state.len(),
            "leaf count diverged at {nloc} localities, {mode:?}"
        );
        for ((la, ba), (lb, bb)) in base_state.iter().zip(&state) {
            assert_eq!(la, lb, "leaf set diverged at {nloc} localities, {mode:?}");
            assert_eq!(
                ba, bb,
                "state diverged at {la} ({nloc} localities, {mode:?})"
            );
        }
    }
}
