//! The benchmark's three workloads, with every simulation knob pinned.
//!
//! Why each workload exists, and which layer it stresses, is documented in
//! `perfbench/README.md`; the short form is on [`Workload::why`].

use octotiger::gravity::GravityOptions;
use octotiger::state::field;
use octotiger::units::{GAMMA, RHO_FLOOR};
use octotiger::{ScenarioKind, SimOptions};
use octree::{DistGrid, GhostConfig};
use sve_simd::VectorMode;

/// Environment variables the program reads to override its defaults.  The
/// benchmark sets every option explicitly, and clears these at start-up so
/// a CI matrix cell cannot silently change a workload (the watchdog one is
/// folded into the runtime lazily, after any explicit setting).
pub const OVERRIDE_ENV: [&str; 6] = [
    "OCTO_VECTOR_MODE",
    "OCTO_LOCALITIES",
    "OCTO_REGRID_CADENCE",
    "OCTO_AUTOTUNE",
    "HPX_WATCHDOG_MS",
    "OCTO_PATCH_TRACE",
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    StarGravity,
    StarHydro,
    DwdAdaptive,
}

/// Shape of one workload: what is built, on how many threads, and how long
/// an episode runs.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub kind: ScenarioKind,
    /// Base uniform refinement level.
    pub level: u8,
    /// Extra AMR levels `Scenario::build` may add.
    pub amr_extra: u8,
    /// Sub-grid extent N (N³ interior cells per leaf).
    pub n_cell: usize,
    pub localities: usize,
    pub workers: usize,
    /// Steps after the cold first step.
    pub warm_steps: usize,
    /// A checkpoint is written and read back after every this many steps,
    /// and after the final step.
    pub checkpoint_every: usize,
    /// Uniform grid: mass + tracked outflow must close to round-off.  On an
    /// AMR grid the coarse–fine faces are not refluxed, so the closure is
    /// reported but not gated (see README, "Known AMR mass leak").
    pub gate_mass_closure: bool,
    /// Set-up-only repetitions after each untraced episode: more `setup_s`
    /// samples where a set-up is short next to an episode.
    pub setup_repeats: usize,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::StarGravity,
        Workload::StarHydro,
        Workload::DwdAdaptive,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::StarGravity => "star-gravity",
            Workload::StarHydro => "star-hydro",
            Workload::DwdAdaptive => "dwd-adaptive",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn why(self) -> &'static str {
        match self {
            Workload::StarGravity => {
                "FMM P2P/M2L near field does nearly all the work; no other layer does"
            }
            Workload::StarHydro => {
                "scheduler, scratch pool, ghost exchange and hydro only; gravity bypassed"
            }
            Workload::DwdAdaptive => {
                "parcels, DistPlan, regrid + plan patching, pipelined stepper, checkpoints"
            }
        }
    }

    pub fn shape(self) -> Shape {
        match self {
            Workload::StarGravity => Shape {
                kind: ScenarioKind::RotatingStar,
                level: 2,
                amr_extra: 0,
                n_cell: 8,
                localities: 1,
                workers: 2,
                warm_steps: 4,
                checkpoint_every: 5,
                gate_mass_closure: true,
                setup_repeats: 1,
            },
            Workload::StarHydro => Shape {
                kind: ScenarioKind::RotatingStar,
                level: 3,
                amr_extra: 0,
                n_cell: 8,
                localities: 1,
                workers: 2,
                warm_steps: 8,
                checkpoint_every: 9,
                gate_mass_closure: true,
                setup_repeats: 2,
            },
            Workload::DwdAdaptive => Shape {
                kind: ScenarioKind::Dwd,
                level: 2,
                amr_extra: 1,
                n_cell: 4,
                localities: 2,
                workers: 1,
                warm_steps: 9,
                checkpoint_every: 3,
                gate_mass_closure: false,
                setup_repeats: 4,
            },
        }
    }

    /// Every `SimOptions` field, set explicitly (a struct literal, so a new
    /// option is a compile error here instead of an unpinned default).
    /// `localities` is the number of localities the gravity solve is
    /// sharded over.
    pub fn options(self, omega: f64, localities: usize) -> SimOptions {
        let vector_mode = VectorMode::Sve512;
        let adaptive = self == Workload::DwdAdaptive;
        SimOptions {
            vector_mode,
            ghost: GhostConfig {
                direct_local_access: true,
                notify_with_channels: false,
            },
            gravity: self != Workload::StarHydro,
            gravity_opts: GravityOptions {
                theta: 0.5,
                use_octupole: true,
                tasks_per_multipole_kernel: 1,
                tasks_per_p2p_kernel: 0,
                tasks_per_slot_kernel: 0,
                vector_mode,
            },
            omega,
            cfl: 0.4,
            pipeline: adaptive,
            watchdog_ms: Some(0),
            recycle_scratch: true,
            cache_gravity_plan: true,
            localities,
            regrid_cadence: adaptive.then_some(3),
            // One level beyond the scenario's AMR level: the tree grows
            // 120 → 288 → 316 leaves over the cadence-3 regrids of an
            // episode (a regrid at level 3 only would add 28 leaves once).
            regrid_max_level: 4,
            regrid_refine_threshold: 1.0,
            regrid_shock_threshold: f64::INFINITY,
            regrid_coarsen_threshold: 0.0,
            autotune: false,
        }
    }
}

/// SplitMix64: a tiny seeded generator, so the perturbation depends on the
/// seed alone.
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in [-1, 1).
    pub fn symmetric(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 52) as f64 - 1.0
    }
}

/// Relative density perturbation amplitude.
const DENSITY_AMPLITUDE: f64 = 1e-4;
/// Velocity perturbation amplitude, as a fraction of the local sound speed.
const MACH_AMPLITUDE: f64 = 1e-4;

/// Apply the seeded density/velocity perturbation through the public grid
/// handles.  Cells at the density floor are left alone (a perturbation
/// there would push them below it).  Mass-like fields (density and the two
/// component partial densities) scale together; the added kinetic energy
/// goes into the total gas energy, so the internal energy and the entropy
/// tracer are untouched.
pub fn perturb(grid: &DistGrid, seed: u64) {
    let mut rng = SplitMix64::new(seed);
    let n = grid.n();
    let mut leaves = grid.leaves();
    leaves.sort();
    for leaf in leaves {
        let handle = grid.grid(leaf);
        let mut g = handle.write();
        for i in 0..n {
            for j in 0..n {
                for k in 0..n {
                    let (a, vx, vy, vz) = (
                        rng.symmetric(),
                        rng.symmetric(),
                        rng.symmetric(),
                        rng.symmetric(),
                    );
                    let rho = g.get_interior(field::RHO, i, j, k);
                    if rho <= 10.0 * RHO_FLOOR {
                        continue;
                    }
                    let scale = 1.0 + DENSITY_AMPLITUDE * a;
                    for f in [field::RHO, field::FRAC1, field::FRAC2] {
                        let v = g.get_interior(f, i, j, k);
                        g.set_interior(f, i, j, k, v * scale);
                    }
                    let rho = rho * scale;
                    let sx = g.get_interior(field::SX, i, j, k);
                    let sy = g.get_interior(field::SY, i, j, k);
                    let sz = g.get_interior(field::SZ, i, j, k);
                    let egas = g.get_interior(field::EGAS, i, j, k);
                    let e_int = egas - 0.5 * (sx * sx + sy * sy + sz * sz) / rho;
                    let cs = (GAMMA * (GAMMA - 1.0) * e_int.max(0.0) / rho).sqrt();
                    let dv = MACH_AMPLITUDE * cs;
                    let s = [sx + rho * dv * vx, sy + rho * dv * vy, sz + rho * dv * vz];
                    g.set_interior(field::SX, i, j, k, s[0]);
                    g.set_interior(field::SY, i, j, k, s[1]);
                    g.set_interior(field::SZ, i, j, k, s[2]);
                    let kinetic = 0.5 * (s[0] * s[0] + s[1] * s[1] + s[2] * s[2]) / rho;
                    g.set_interior(field::EGAS, i, j, k, e_int + kinetic);
                }
            }
        }
    }
}
