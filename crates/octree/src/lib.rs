//! # octree — the AMR substrate under Octo-Tiger
//!
//! Octo-Tiger's grid (paper Section IV-C) is an adaptive-mesh-refinement
//! octree in which **every node is either a leaf or a fully refined interior
//! node** (all eight children exist), and each leaf carries an `N × N × N`
//! sub-grid of hydrodynamic state (N is typically 8).  Refinement follows
//! the density field and binary-component tracer fields.  Neighbouring
//! sub-grids exchange ghost layers every solver stage; in distributed runs
//! those exchanges are HPX actions unless both sub-grids live on the same
//! locality and the Section VII-B *communication optimization* short-cuts
//! them to direct memory access guarded by promise/future notifications.
//!
//! Modules:
//!
//! * [`index`] — octant paths, integer coordinates, 26-neighbour arithmetic
//!   and space-filling-curve keys.
//! * [`subgrid`] — the `N³` cell block with ghost shells, packing/unpacking
//!   of face/edge/corner regions, and inter-level prolongation/restriction.
//! * [`tree`] — the octree itself with full-refinement and 2:1-balance
//!   invariants, refinement driven by a criterion callback.
//! * [`ghost`] — distributed ghost-layer exchange over `hpx-rt` localities,
//!   with the communication-optimization fast path.
//! * [`partition`] — Morton-order space-filling-curve and recursive
//!   coordinate-bisection partitioning of leaves over localities.
//! * [`shard`] — per-locality subtree views (owned leaves + remote-leaf
//!   stubs) over a partition, the distributed stepper's ownership map.

pub mod ghost;
pub mod index;
pub mod partition;
pub mod shard;
pub mod subgrid;
pub mod tree;

pub use ghost::{ghost_link_specs, DistGrid, GhostConfig, LinkSpec, PipelinedExchange};
pub use index::{Dir, NodeId, Octant, MAX_LEVEL};
pub use partition::{
    partition_morton, partition_rcb, partition_rcb_with_cuts, verify_partition, PartitionStats,
    RcbCut,
};
pub use shard::{Shard, ShardMap};
pub use subgrid::SubGrid;
pub use tree::{Neighbor, Tree};
