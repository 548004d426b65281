//! The gravity module: a fast multipole method on the AMR octree.
//!
//! Paper Section IV-C: *"The FMM part of the code piggybacks on the AMR
//! structure of the hydrodynamics module"*; leaf cells are monopoles,
//! interior nodes carry monopole and quadrupole moments about their
//! centers of mass, and the angular-momentum-conserving modification
//! "requires Octo-Tiger to also compute the octupole moment with the lower
//! moments".  The solve runs in the paper's three phases (Section VII-C):
//!
//! 1. **bottom-up** — P2M at the leaves, M2M up the tree;
//! 2. **same-level cell-to-cell interactions** — the multipole (M2L)
//!    kernel, whose launch is splittable into `tasks_per_kernel` HPX tasks
//!    (the Figure 9 knob);
//! 3. **top-down** — L2L local-expansion propagation and per-cell
//!    evaluation, plus direct P2P near-field sums.
//!
//! The near/far decision uses a dual-tree traversal with a geometric
//! multipole acceptance criterion, which handles the adaptive tree without
//! interaction-list gaps by construction.  The traversal's outcome is
//! frozen into a CSR-encoded [`plan::GravityPlan`] keyed on the tree's
//! topology version, so solves on an unchanged tree skip it entirely.

pub mod direct;
pub mod dist;
pub mod m2l_simd;
pub mod multipole;
pub mod plan;
pub mod solver;
pub mod verify;

pub use dist::{DistPlan, Exchange, Phase};
pub use m2l_simd::MultipoleSoA;
pub use multipole::{LocalExpansion, Multipole};
pub use plan::GravityPlan;
pub use solver::{GravityOptions, GravitySolver, LeafField, LeafSources, M2lBench};
pub use verify::{verify_dist_plan, verify_gravity_plan, PlanViolation, ProtocolViolation};
