//! Race model of the plan-based FMM gravity solver.
//!
//! The sharded solve's phases run as chunked `parallel_for_mut` launches
//! over each locality's span of the plan's slot table; at one locality
//! (which owns every slot and exchanges nothing) that is one launch per
//! level over the whole level range, the sequence modelled here.  Each
//! chunk owns a disjoint `&mut` slice of the output buffer while reading
//! already-finalized slots from the other half of a `split_at_mut`.  That safety argument has two load-bearing
//! ingredients the type system can only check *inside* one launch:
//!
//! 1. **chunk disjointness** — two chunks of one level-kernel must never
//!    write the same slot;
//! 2. **the per-level join barrier** — a level's kernel must not start
//!    until the deeper level's chunks (whose slots it reads) have all
//!    finished.
//!
//! [`race_model_gravity_plan`] replays the solver's launch sequence over a
//! *real* [`GravityPlan`] through the [`RaceDetector`] shadow state: one
//! multipole view and one local-expansion view per slot, one accumulator
//! view per M2L chunk, one field view per leaf — with exactly the
//! happens-before edges the scoped `parallel_for_mut` joins provide.  The
//! planted bugs remove one ingredient each and must surface as the
//! corresponding race class.

use kokkos_rs::{LaunchToken, RaceDetector, RaceReport, RangePolicy, View, ViewAccess};
use octotiger::gravity::plan::{GravityPlan, SlotKind};
use sve_simd::SVE_LANES_F64;

pub use crate::pipeline::RaceModelSummary;

/// Bug to plant into the launch sequence of [`race_model_gravity_plan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GravityRaceBug {
    /// Faithful edges and chunking: the sequence must be race-free.
    None,
    /// The deepest level's first two upward chunks overlap by one slot —
    /// the bug `split_at_mut` chunk carving exists to prevent (write-write
    /// race between sibling chunks of one kernel).
    OverlapChunks,
    /// Upward level-kernels drop their dependency on the deeper level's
    /// chunks — the join barrier `parallel_for_mut` provides by scoping —
    /// so an M2M combine reads child multipoles that are still being
    /// written (write-read race).
    SkipLevelBarrier,
    /// Task boundaries are carved without the vector-lane alignment the
    /// solver's `RangePolicy::with_lanes` enforces: two adjacent chunks of
    /// one slot-table kernel then share a lane block, and their full-width
    /// vector stores collide (write-write race on the shared block).
    SplitsVectorLane,
}

/// Carve `[b, e)` into at most `chunks` tasks the way the solver does —
/// [`RangePolicy::split`] with lane-aligned boundaries — or, under the
/// [`GravityRaceBug::SplitsVectorLane`] bug, without the alignment.
fn carve(b: usize, e: usize, chunks: usize, bug: GravityRaceBug) -> Vec<(usize, usize)> {
    let policy = RangePolicy::new(b, e);
    let policy = if bug == GravityRaceBug::SplitsVectorLane {
        policy
    } else {
        policy.with_lanes(SVE_LANES_F64)
    };
    policy.split(chunks)
}

/// Expand a chunk's write range `[lo, hi)` to whole vector-lane blocks
/// within the kernel's own range `[b, e)` — the footprint of a kernel that
/// walks its chunk with `W`-wide vector stores on the padded slot table.
fn lane_blocks(b: usize, e: usize, lo: usize, hi: usize) -> (usize, usize) {
    let w = SVE_LANES_F64;
    let wlo = b + (lo - b) / w * w;
    let whi = (b + (hi - b).div_ceil(w) * w).min(e);
    (wlo, whi)
}

/// Replay the sharded solve's one-locality launch sequence through a
/// [`RaceDetector`]: per-level chunked upward (P2M/M2M), the chunked M2L
/// kernel plus its serial scatter, the per-level chunked downward gather
/// (L2L), and the per-leaf evaluation — with the happens-before edges the
/// scoped joins provide (minus whatever `bug` drops).  The exchange
/// schedule of one locality is empty, so no parcel edges appear.
pub fn race_model_gravity_plan(
    plan: &GravityPlan,
    chunks: usize,
    bug: GravityRaceBug,
) -> Result<RaceModelSummary, RaceReport> {
    let det = RaceDetector::new();
    let mut views = 0usize;
    let mut view = |label: String| {
        views += 1;
        View::<f64>::new_1d(label, 1)
    };

    let mp: Vec<View<f64>> = (0..plan.num_nodes)
        .map(|s| view(format!("mp({s})")))
        .collect();
    let local: Vec<View<f64>> = (0..plan.num_nodes)
        .map(|s| view(format!("local({s})")))
        .collect();

    let max_level = plan.max_level() as usize;
    let deepest = (0..=max_level)
        .rev()
        .find(|&l| plan.level_ranges[l].0 < plan.level_ranges[l].1)
        .expect("plan has at least one populated level");

    // ---- Upward pass: one chunked kernel per level, deepest first. -----
    // `prev` carries the previous (deeper) level's chunk tokens — the join
    // barrier the scoped `parallel_for_mut` provides between levels.
    let mut prev: Vec<LaunchToken> = Vec::new();
    for level in (0..=max_level).rev() {
        let (b, e) = plan.level_ranges[level];
        if b == e {
            continue;
        }
        let deps: Vec<LaunchToken> = if bug == GravityRaceBug::SkipLevelBarrier {
            Vec::new()
        } else {
            prev.clone()
        };
        let mut tokens = Vec::new();
        for (ci, &(lo, hi)) in carve(b, e, chunks, bug).iter().enumerate() {
            // Planted overlap: the deepest level's first chunk also writes
            // the first slot of the second chunk's range.
            let hi_w = if bug == GravityRaceBug::OverlapChunks && level == deepest && ci == 0 {
                (hi + 1).min(e)
            } else {
                hi
            };
            // The kernel's vector stores cover whole lane blocks of the
            // padded slot table, not just `[lo, hi)` — the footprint that
            // makes unaligned carving a write-write race.
            let (wlo, whi) = lane_blocks(b, e, lo, hi_w);
            let mut accesses: Vec<ViewAccess> =
                (wlo..whi).map(|s| ViewAccess::write(&mp[s])).collect();
            for s in lo..hi {
                if let SlotKind::Interior(kids) = plan.kinds[s] {
                    for c in kids {
                        accesses.push(ViewAccess::read(&mp[c]));
                    }
                }
            }
            tokens.push(det.launch(&format!("upward(l{level}, chunk {ci})"), &deps, &accesses)?);
        }
        prev = tokens;
    }
    let upward_done = prev;

    // ---- M2L kernel: `chunks` tasks over the target list, each writing
    // its own dense accumulator slice; then a serial scatter. ------------
    let mut m2l_tokens = Vec::new();
    let mut acc_views = Vec::new();
    // M2L targets and leaf evaluation are not slot-table vector loops —
    // the solver carves them without lane alignment (per-target gathers,
    // per-leaf fields), so the model does too.
    for (ci, &(lo, hi)) in RangePolicy::new(0, plan.m2l_targets.len())
        .split(chunks)
        .iter()
        .enumerate()
    {
        let acc = view(format!("m2l-acc(chunk {ci})"));
        let mut accesses = vec![ViewAccess::write(&acc)];
        for &t in &plan.m2l_targets[lo..hi] {
            for &s in plan.m2l_sources_of(t) {
                accesses.push(ViewAccess::read(&mp[s]));
            }
        }
        m2l_tokens.push(det.launch(&format!("m2l(chunk {ci})"), &upward_done, &accesses)?);
        acc_views.push(acc);
    }
    let mut scatter_accesses: Vec<ViewAccess> = acc_views.iter().map(ViewAccess::read).collect();
    scatter_accesses.extend(
        plan.m2l_targets
            .iter()
            .map(|&t| ViewAccess::write(&local[t])),
    );
    let scatter = det.launch("m2l-scatter", &m2l_tokens, &scatter_accesses)?;

    // ---- Downward pass: chunked gather per level, top-down. ------------
    let mut prev = vec![scatter];
    for level in 0..max_level {
        let (b, e) = plan.level_ranges[level + 1];
        if b == e {
            continue;
        }
        let mut tokens = Vec::new();
        for (ci, &(lo, hi)) in carve(b, e, chunks, bug).iter().enumerate() {
            // Same lane-block store footprint as the upward pass.
            let (wlo, whi) = lane_blocks(b, e, lo, hi);
            let mut accesses: Vec<ViewAccess> =
                (wlo..whi).map(|s| ViewAccess::write(&local[s])).collect();
            for s in lo..hi {
                accesses.push(ViewAccess::read(&local[plan.parent_slot[s]]));
            }
            tokens.push(det.launch(
                &format!("downward(l{level}, chunk {ci})"),
                &prev,
                &accesses,
            )?);
        }
        prev = tokens;
    }

    // ---- Evaluation: disjoint per-leaf field writes. -------------------
    for (ci, &(lo, hi)) in RangePolicy::new(0, plan.leaves.len())
        .split(chunks)
        .iter()
        .enumerate()
    {
        let field = view(format!("fields(chunk {ci})"));
        let mut accesses = vec![ViewAccess::write(&field)];
        for li in lo..hi {
            accesses.push(ViewAccess::read(&local[plan.leaf_slots[li]]));
        }
        det.launch(&format!("evaluate(chunk {ci})"), &prev, &accesses)?;
    }

    Ok(RaceModelSummary {
        launches: det.launches(),
        views,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use octree::{NodeId, Tree};

    fn plan(level: u8) -> GravityPlan {
        GravityPlan::build(&Tree::new_uniform(level), 0.5)
    }

    #[test]
    fn faithful_launch_sequence_is_race_free() {
        for chunks in [1, 4, 16] {
            let summary =
                race_model_gravity_plan(&plan(2), chunks, GravityRaceBug::None).expect("race-free");
            assert!(summary.launches > 0);
            // Two views per slot plus the per-chunk accumulators/fields.
            assert!(summary.views >= 2 * plan(2).num_nodes);
        }
    }

    #[test]
    fn adaptive_tree_launch_sequence_is_race_free() {
        let mut tree = Tree::new_uniform(1);
        tree.refine_balanced(NodeId::from_coords(1, [0, 0, 0]));
        let plan = GravityPlan::build(&tree, 0.5);
        race_model_gravity_plan(&plan, 4, GravityRaceBug::None).expect("race-free");
    }

    #[test]
    fn overlapping_chunks_are_a_write_write_race() {
        // plan(2): the deepest level has 64 slots, so 4 tasks carve into
        // lane-aligned 16-slot chunks and the planted one-slot overlap
        // between chunks 0 and 1 survives the alignment.
        let report = race_model_gravity_plan(&plan(2), 4, GravityRaceBug::OverlapChunks)
            .expect_err("must race");
        assert_eq!(report.conflict, "write-write");
        assert!(report.prior_site.starts_with("upward("), "{report}");
        assert!(report.site.starts_with("upward("), "{report}");
        assert!(report.view_label.starts_with("mp("), "{report}");
    }

    #[test]
    fn splitting_a_vector_lane_is_a_write_write_race() {
        // 16 tasks over the deepest level's 64 slots carve into size-4
        // chunks whose boundaries sit mid lane-block (lane = 8): adjacent
        // chunks' full-width vector stores cover the same block.
        let report = race_model_gravity_plan(&plan(2), 16, GravityRaceBug::SplitsVectorLane)
            .expect_err("must race");
        assert_eq!(report.conflict, "write-write");
        assert!(report.prior_site.starts_with("upward("), "{report}");
        assert!(report.site.starts_with("upward("), "{report}");
        assert!(report.view_label.starts_with("mp("), "{report}");
    }

    #[test]
    fn lane_aligned_carving_has_no_partial_blocks() {
        // The faithful carve at every chunk count the solver uses keeps
        // each sub-range's interior boundaries on lane multiples, so the
        // block-expanded write sets stay pairwise disjoint.
        for chunks in [2, 3, 4, 8, 16, 64] {
            let p = plan(2);
            for level in 0..=p.max_level() as usize {
                let (b, e) = p.level_ranges[level];
                if b == e {
                    continue;
                }
                let parts = carve(b, e, chunks, GravityRaceBug::None);
                let mut prev_end = b;
                for &(lo, hi) in &parts {
                    let (wlo, whi) = lane_blocks(b, e, lo, hi);
                    assert!(wlo >= prev_end, "lane block overlaps previous chunk");
                    prev_end = whi;
                }
                assert_eq!(prev_end, e);
            }
        }
    }

    #[test]
    fn skipping_the_level_barrier_is_a_read_write_race() {
        let report = race_model_gravity_plan(&plan(2), 4, GravityRaceBug::SkipLevelBarrier)
            .expect_err("must race");
        // Prior access is the deeper level's write, current is the combine's
        // child read.
        assert_eq!(report.conflict, "write-read");
        assert!(report.prior_site.starts_with("upward("), "{report}");
        assert!(report.site.starts_with("upward("), "{report}");
    }
}
