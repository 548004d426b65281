//! HPX-style performance counters.
//!
//! HPX exposes a hierarchical performance-counter interface
//! (`/threads{locality#0/total}/count/cumulative`, …) that the paper's
//! conclusion names as the tool for future performance analysis (together
//! with APEX).  This module provides the equivalent observability for the
//! Rust runtime: cheap relaxed atomic counters, snapshot/reset semantics,
//! and stable names.

use std::sync::atomic::{AtomicU64, Ordering};

/// Cumulative counters for one runtime or one locality.
///
/// All increments use `Ordering::Relaxed`: the counters are monotonic
/// statistics, not synchronization devices.
#[derive(Debug, Default)]
pub struct Counters {
    /// Tasks handed to the scheduler (`hpx::async`, continuations, parcels).
    pub tasks_spawned: AtomicU64,
    /// Tasks that finished executing.
    pub tasks_executed: AtomicU64,
    /// Tasks obtained by stealing from another worker's deque.
    pub tasks_stolen: AtomicU64,
    /// Times a worker went to sleep for lack of work (starvation signal —
    /// the quantity the paper's Section VII-C multipole splitting attacks).
    pub worker_parks: AtomicU64,
    /// Futures created.
    pub futures_created: AtomicU64,
    /// Continuations attached via `Future::then`.
    pub continuations_attached: AtomicU64,
    /// Parcels sent to a *different* locality.
    pub parcels_sent: AtomicU64,
    /// Payload bytes in those parcels.
    pub parcel_bytes: AtomicU64,
    /// Remote-action invocations that were short-circuited locally
    /// (the Section VII-B direct-memory-access communication optimization).
    pub local_direct_accesses: AtomicU64,
    /// Blocked-worker watchdog fires: a worker sat on an unresolved future
    /// past `HPX_WATCHDOG_MS`/`set_blocked_wait_timeout` with nothing to help
    /// with.  Bumped just before the watchdog panic unwinds, so post-mortem
    /// counter dumps show how often the deadlock detector tripped.
    pub watchdog_fires: AtomicU64,
}

impl Counters {
    /// New zeroed counter block.
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    pub(crate) fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    pub(crate) fn add(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }

    /// Consistent-enough snapshot of all counters.
    pub fn snapshot(&self) -> CountersSnapshot {
        CountersSnapshot {
            tasks_spawned: self.tasks_spawned.load(Ordering::Relaxed),
            tasks_executed: self.tasks_executed.load(Ordering::Relaxed),
            tasks_stolen: self.tasks_stolen.load(Ordering::Relaxed),
            worker_parks: self.worker_parks.load(Ordering::Relaxed),
            futures_created: self.futures_created.load(Ordering::Relaxed),
            continuations_attached: self.continuations_attached.load(Ordering::Relaxed),
            parcels_sent: self.parcels_sent.load(Ordering::Relaxed),
            parcel_bytes: self.parcel_bytes.load(Ordering::Relaxed),
            local_direct_accesses: self.local_direct_accesses.load(Ordering::Relaxed),
            watchdog_fires: self.watchdog_fires.load(Ordering::Relaxed),
        }
    }

    /// Reset every counter to zero (HPX's `reset_active_counters`).
    pub fn reset(&self) {
        self.tasks_spawned.store(0, Ordering::Relaxed);
        self.tasks_executed.store(0, Ordering::Relaxed);
        self.tasks_stolen.store(0, Ordering::Relaxed);
        self.worker_parks.store(0, Ordering::Relaxed);
        self.futures_created.store(0, Ordering::Relaxed);
        self.continuations_attached.store(0, Ordering::Relaxed);
        self.parcels_sent.store(0, Ordering::Relaxed);
        self.parcel_bytes.store(0, Ordering::Relaxed);
        self.local_direct_accesses.store(0, Ordering::Relaxed);
        self.watchdog_fires.store(0, Ordering::Relaxed);
    }
}

/// Plain-data snapshot of [`Counters`], suitable for diffing across a
/// measured region.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CountersSnapshot {
    pub tasks_spawned: u64,
    pub tasks_executed: u64,
    pub tasks_stolen: u64,
    pub worker_parks: u64,
    pub futures_created: u64,
    pub continuations_attached: u64,
    pub parcels_sent: u64,
    pub parcel_bytes: u64,
    pub local_direct_accesses: u64,
    pub watchdog_fires: u64,
}

impl CountersSnapshot {
    /// Counter deltas `self - earlier` (saturating, counters are monotonic).
    pub fn since(&self, earlier: &CountersSnapshot) -> CountersSnapshot {
        CountersSnapshot {
            tasks_spawned: self.tasks_spawned.saturating_sub(earlier.tasks_spawned),
            tasks_executed: self.tasks_executed.saturating_sub(earlier.tasks_executed),
            tasks_stolen: self.tasks_stolen.saturating_sub(earlier.tasks_stolen),
            worker_parks: self.worker_parks.saturating_sub(earlier.worker_parks),
            futures_created: self.futures_created.saturating_sub(earlier.futures_created),
            continuations_attached: self
                .continuations_attached
                .saturating_sub(earlier.continuations_attached),
            parcels_sent: self.parcels_sent.saturating_sub(earlier.parcels_sent),
            parcel_bytes: self.parcel_bytes.saturating_sub(earlier.parcel_bytes),
            local_direct_accesses: self
                .local_direct_accesses
                .saturating_sub(earlier.local_direct_accesses),
            watchdog_fires: self.watchdog_fires.saturating_sub(earlier.watchdog_fires),
        }
    }
}

impl std::fmt::Display for CountersSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "/threads/count/cumulative        {}",
            self.tasks_executed
        )?;
        writeln!(f, "/threads/count/spawned           {}", self.tasks_spawned)?;
        writeln!(f, "/threads/count/stolen            {}", self.tasks_stolen)?;
        writeln!(f, "/threads/count/parked            {}", self.worker_parks)?;
        writeln!(
            f,
            "/lcos/count/futures              {}",
            self.futures_created
        )?;
        writeln!(
            f,
            "/lcos/count/continuations        {}",
            self.continuations_attached
        )?;
        writeln!(f, "/parcels/count/sent              {}", self.parcels_sent)?;
        writeln!(f, "/parcels/bytes/sent              {}", self.parcel_bytes)?;
        writeln!(
            f,
            "/parcels/count/local-direct      {}",
            self.local_direct_accesses
        )?;
        write!(
            f,
            "/threads/count/watchdog-fires    {}",
            self.watchdog_fires
        )
    }
}

// ---------------------------------------------------------------------
// Scratch-buffer recycling counters
// ---------------------------------------------------------------------

/// Process-wide counters of the CPPuddle-style scratch-buffer recycling
/// subsystem (`kokkos-rs`'s `BufferPool`), exported in HPX counter style as
/// `/octotiger/scratch/{hits,misses,bytes-in-use,high-water}`.
///
/// Unlike [`Counters`], these are global rather than per-locality: buffer
/// pools are shared across the simulated localities of one process exactly
/// as CPPuddle's allocator is shared across an HPX node.  Pools keep their
/// own per-pool statistics too; this block is the aggregated observability
/// surface the counter dumps print.
#[derive(Debug, Default)]
pub struct ScratchCounters {
    /// Checkouts served from a free list (no heap allocation).
    pub hits: AtomicU64,
    /// Checkouts that had to allocate (pool warm-up, or a new size bucket).
    pub misses: AtomicU64,
    /// Bytes currently checked out of pools (gauge, not monotonic).
    pub bytes_in_use: AtomicU64,
    /// Maximum `bytes_in_use` ever observed.
    pub high_water: AtomicU64,
}

impl ScratchCounters {
    /// Record a free-list hit.
    pub fn note_hit(&self) {
        Counters::bump(&self.hits);
    }

    /// Record an allocating miss.
    pub fn note_miss(&self) {
        Counters::bump(&self.misses);
    }

    /// Record `bytes` leaving the free lists (checked out), updating the
    /// high-water mark.
    pub fn add_in_use(&self, bytes: u64) {
        let now = self.bytes_in_use.fetch_add(bytes, Ordering::Relaxed) + bytes;
        self.high_water.fetch_max(now, Ordering::Relaxed);
    }

    /// Record `bytes` returning to the free lists (checked back in).
    pub fn sub_in_use(&self, bytes: u64) {
        self.bytes_in_use.fetch_sub(bytes, Ordering::Relaxed);
    }

    /// Consistent-enough snapshot.
    pub fn snapshot(&self) -> ScratchSnapshot {
        ScratchSnapshot {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            bytes_in_use: self.bytes_in_use.load(Ordering::Relaxed),
            high_water: self.high_water.load(Ordering::Relaxed),
        }
    }

    /// Reset every counter (HPX's `reset_active_counters`).
    pub fn reset(&self) {
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
        self.bytes_in_use.store(0, Ordering::Relaxed);
        self.high_water.store(0, Ordering::Relaxed);
    }
}

/// The process-global [`ScratchCounters`] block every buffer pool reports
/// into.
pub fn scratch_counters() -> &'static ScratchCounters {
    static GLOBAL: ScratchCounters = ScratchCounters {
        hits: AtomicU64::new(0),
        misses: AtomicU64::new(0),
        bytes_in_use: AtomicU64::new(0),
        high_water: AtomicU64::new(0),
    };
    &GLOBAL
}

/// Plain-data snapshot of [`ScratchCounters`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScratchSnapshot {
    pub hits: u64,
    pub misses: u64,
    pub bytes_in_use: u64,
    pub high_water: u64,
}

impl ScratchSnapshot {
    /// Monotonic-counter deltas `self - earlier` (hits/misses saturate;
    /// the gauges are carried over as-is).
    pub fn since(&self, earlier: &ScratchSnapshot) -> ScratchSnapshot {
        ScratchSnapshot {
            hits: self.hits.saturating_sub(earlier.hits),
            misses: self.misses.saturating_sub(earlier.misses),
            bytes_in_use: self.bytes_in_use,
            high_water: self.high_water,
        }
    }
}

impl std::fmt::Display for ScratchSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "/octotiger/scratch/hits          {}", self.hits)?;
        writeln!(f, "/octotiger/scratch/misses        {}", self.misses)?;
        writeln!(f, "/octotiger/scratch/bytes-in-use  {}", self.bytes_in_use)?;
        write!(f, "/octotiger/scratch/high-water    {}", self.high_water)
    }
}

// ---------------------------------------------------------------------
// Gravity interaction-plan counters
// ---------------------------------------------------------------------

/// Process-wide counters of the FMM interaction-plan cache: how often a
/// gravity solve reused a cached dual-tree traversal (`hit`) versus having
/// to re-traverse because the tree topology or solver options changed
/// (`rebuild`).  Exported in HPX counter style as
/// `/octotiger/gravity/plan-{hits,rebuilds}`.
///
/// Like [`ScratchCounters`] these are global: plan caches live on solver
/// clones that share one cache per simulation, and the counter dump
/// aggregates across all of them.  Per-solver exact counts are available
/// from the solver itself.
#[derive(Debug, Default)]
pub struct GravityPlanCounters {
    /// Solves that reused a cached plan (zero traversal work).
    pub hits: AtomicU64,
    /// Solves that rebuilt the plan with a fresh dual-tree traversal.
    pub rebuilds: AtomicU64,
}

impl GravityPlanCounters {
    /// Record a plan-cache hit.
    pub fn note_hit(&self) {
        Counters::bump(&self.hits);
    }

    /// Record a plan rebuild (fresh traversal).
    pub fn note_rebuild(&self) {
        Counters::bump(&self.rebuilds);
    }

    /// Consistent-enough snapshot.
    pub fn snapshot(&self) -> GravityPlanSnapshot {
        GravityPlanSnapshot {
            hits: self.hits.load(Ordering::Relaxed),
            rebuilds: self.rebuilds.load(Ordering::Relaxed),
        }
    }

    /// Reset both counters (HPX's `reset_active_counters`).
    pub fn reset(&self) {
        self.hits.store(0, Ordering::Relaxed);
        self.rebuilds.store(0, Ordering::Relaxed);
    }
}

/// The process-global [`GravityPlanCounters`] block every plan cache
/// reports into.
pub fn gravity_plan_counters() -> &'static GravityPlanCounters {
    static GLOBAL: GravityPlanCounters = GravityPlanCounters {
        hits: AtomicU64::new(0),
        rebuilds: AtomicU64::new(0),
    };
    &GLOBAL
}

/// Plain-data snapshot of [`GravityPlanCounters`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GravityPlanSnapshot {
    pub hits: u64,
    pub rebuilds: u64,
}

impl GravityPlanSnapshot {
    /// Counter deltas `self - earlier` (saturating, counters are monotonic).
    pub fn since(&self, earlier: &GravityPlanSnapshot) -> GravityPlanSnapshot {
        GravityPlanSnapshot {
            hits: self.hits.saturating_sub(earlier.hits),
            rebuilds: self.rebuilds.saturating_sub(earlier.rebuilds),
        }
    }
}

impl std::fmt::Display for GravityPlanSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "/octotiger/gravity/plan-hits     {}", self.hits)?;
        write!(f, "/octotiger/gravity/plan-rebuilds {}", self.rebuilds)
    }
}

// ---------------------------------------------------------------------
// Mid-run regrid counters
// ---------------------------------------------------------------------

/// Process-wide counters of mid-run adaptive regridding, exported in HPX
/// counter style as `/octotiger/regrid/{refined,derefined,plan-rebuilt}`.
/// The driver bumps `refined`/`derefined` once per leaf changed by a
/// criterion pass; the plan caches bump `plan-rebuilt` every time a
/// topology change forced a rebuild of a cached interaction or halo plan.
#[derive(Debug, Default)]
pub struct RegridCounters {
    /// Leaves refined by criterion regrids.
    pub refined: AtomicU64,
    /// Interior nodes collapsed back into leaves by criterion regrids.
    pub derefined: AtomicU64,
    /// Cached plans rebuilt after a topology change.
    pub plan_rebuilt: AtomicU64,
}

impl RegridCounters {
    /// Record `n` leaves refined in one criterion pass.
    pub fn note_refined(&self, n: u64) {
        self.refined.fetch_add(n, Ordering::Relaxed);
    }

    /// Record `n` interiors derefined in one criterion pass.
    pub fn note_derefined(&self, n: u64) {
        self.derefined.fetch_add(n, Ordering::Relaxed);
    }

    /// Record a plan rebuilt after a topology change.
    pub fn note_plan_rebuilt(&self) {
        Counters::bump(&self.plan_rebuilt);
    }

    /// Consistent-enough snapshot.
    pub fn snapshot(&self) -> RegridSnapshot {
        RegridSnapshot {
            refined: self.refined.load(Ordering::Relaxed),
            derefined: self.derefined.load(Ordering::Relaxed),
            plan_patched: 0,
            plan_rebuilt: self.plan_rebuilt.load(Ordering::Relaxed),
        }
    }

    /// Reset all three counters (HPX's `reset_active_counters`).
    pub fn reset(&self) {
        self.refined.store(0, Ordering::Relaxed);
        self.derefined.store(0, Ordering::Relaxed);
        self.plan_rebuilt.store(0, Ordering::Relaxed);
    }
}

/// The process-global [`RegridCounters`] block the driver and the plan
/// caches report into.
pub fn regrid_counters() -> &'static RegridCounters {
    static GLOBAL: RegridCounters = RegridCounters {
        refined: AtomicU64::new(0),
        derefined: AtomicU64::new(0),
        plan_rebuilt: AtomicU64::new(0),
    };
    &GLOBAL
}

/// Plain-data snapshot of [`RegridCounters`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RegridSnapshot {
    pub refined: u64,
    pub derefined: u64,
    /// Always 0: plans are rebuilt on every regrid.  Kept only because the
    /// frozen benchmark (`perfbench/`) reads it.
    pub plan_patched: u64,
    pub plan_rebuilt: u64,
}

impl RegridSnapshot {
    /// Counter deltas `self - earlier` (saturating, counters are monotonic).
    pub fn since(&self, earlier: &RegridSnapshot) -> RegridSnapshot {
        RegridSnapshot {
            refined: self.refined.saturating_sub(earlier.refined),
            derefined: self.derefined.saturating_sub(earlier.derefined),
            plan_patched: 0,
            plan_rebuilt: self.plan_rebuilt.saturating_sub(earlier.plan_rebuilt),
        }
    }
}

impl std::fmt::Display for RegridSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "/octotiger/regrid/refined        {}", self.refined)?;
        writeln!(f, "/octotiger/regrid/derefined      {}", self.derefined)?;
        write!(f, "/octotiger/regrid/plan-rebuilt   {}", self.plan_rebuilt)
    }
}

// ---------------------------------------------------------------------
// Online granularity-tuner counters
// ---------------------------------------------------------------------

/// Process-wide counters of the online granularity tuner, exported in HPX
/// counter style as `/octotiger/tuner/{probes,moves,frozen,
/// regressions-rejected}`.  `probes` counts observation windows spent at a
/// candidate configuration, `moves` counts accepted configuration changes
/// (the candidate beat the incumbent beyond the hysteresis band), `frozen`
/// counts kernel families that finished their hill-climb, and
/// `regressions-rejected` counts candidates reverted because they did not
/// clear the band — the tuner's evidence that hysteresis is doing work.
#[derive(Debug, Default)]
pub struct TunerCounters {
    /// Observation windows spent at a probe configuration.
    pub probes: AtomicU64,
    /// Accepted configuration moves.
    pub moves: AtomicU64,
    /// Kernel families frozen after a converged hill-climb.
    pub frozen: AtomicU64,
    /// Probe configurations reverted for not clearing the hysteresis band.
    pub regressions_rejected: AtomicU64,
}

impl TunerCounters {
    /// Record one probe window.
    pub fn note_probe(&self) {
        Counters::bump(&self.probes);
    }

    /// Record one accepted configuration move.
    pub fn note_move(&self) {
        Counters::bump(&self.moves);
    }

    /// Record one family freezing.
    pub fn note_frozen(&self) {
        Counters::bump(&self.frozen);
    }

    /// Record one rejected (reverted) probe.
    pub fn note_regression_rejected(&self) {
        Counters::bump(&self.regressions_rejected);
    }

    /// Consistent-enough snapshot.
    pub fn snapshot(&self) -> TunerCountersSnapshot {
        TunerCountersSnapshot {
            probes: self.probes.load(Ordering::Relaxed),
            moves: self.moves.load(Ordering::Relaxed),
            frozen: self.frozen.load(Ordering::Relaxed),
            regressions_rejected: self.regressions_rejected.load(Ordering::Relaxed),
        }
    }

    /// Reset all four counters (HPX's `reset_active_counters`).
    pub fn reset(&self) {
        self.probes.store(0, Ordering::Relaxed);
        self.moves.store(0, Ordering::Relaxed);
        self.frozen.store(0, Ordering::Relaxed);
        self.regressions_rejected.store(0, Ordering::Relaxed);
    }
}

/// The process-global [`TunerCounters`] block every [`crate::tuner::Tuner`]
/// instance reports into.
pub fn tuner_counters() -> &'static TunerCounters {
    static GLOBAL: TunerCounters = TunerCounters {
        probes: AtomicU64::new(0),
        moves: AtomicU64::new(0),
        frozen: AtomicU64::new(0),
        regressions_rejected: AtomicU64::new(0),
    };
    &GLOBAL
}

/// Plain-data snapshot of [`TunerCounters`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TunerCountersSnapshot {
    pub probes: u64,
    pub moves: u64,
    pub frozen: u64,
    pub regressions_rejected: u64,
}

impl TunerCountersSnapshot {
    /// Counter deltas `self - earlier` (saturating, counters are monotonic).
    pub fn since(&self, earlier: &TunerCountersSnapshot) -> TunerCountersSnapshot {
        TunerCountersSnapshot {
            probes: self.probes.saturating_sub(earlier.probes),
            moves: self.moves.saturating_sub(earlier.moves),
            frozen: self.frozen.saturating_sub(earlier.frozen),
            regressions_rejected: self
                .regressions_rejected
                .saturating_sub(earlier.regressions_rejected),
        }
    }
}

impl std::fmt::Display for TunerCountersSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "/octotiger/tuner/probes               {}", self.probes)?;
        writeln!(f, "/octotiger/tuner/moves                {}", self.moves)?;
        writeln!(f, "/octotiger/tuner/frozen               {}", self.frozen)?;
        write!(
            f,
            "/octotiger/tuner/regressions-rejected {}",
            self.regressions_rejected
        )
    }
}

// ---------------------------------------------------------------------
// Distributed parcel-traffic counters
// ---------------------------------------------------------------------

/// The kind of cross-locality traffic a parcel carries.
///
/// Every class maps to one leg of the distributed stepper: ghost-zone
/// pack/unpack payloads, the FMM halo traffic of the gravity solve
/// (multipole up-pass, M2L flat-source gathers, local-expansion down-pass,
/// P2P point-mass contributions).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ParcelClass {
    /// Ghost-zone payloads (`ghost_pack` actions).
    Ghost,
    /// Multipole moments sent child-owner → parent-owner in the up-pass.
    MultipoleUp,
    /// Multipole moments gathered for remote M2L source slots.
    M2l,
    /// Local expansions sent parent-owner → child-owner in the down-pass.
    MultipoleDown,
    /// Point masses for remote P2P source leaves.
    P2p,
}

impl ParcelClass {
    /// Stable counter-path segment for this class.
    pub fn name(self) -> &'static str {
        match self {
            ParcelClass::Ghost => "ghost",
            ParcelClass::MultipoleUp => "multipole-up",
            ParcelClass::M2l => "m2l",
            ParcelClass::MultipoleDown => "multipole-down",
            ParcelClass::P2p => "p2p",
        }
    }
}

/// Process-wide counters of the distributed stepper's typed parcel
/// traffic, exported in HPX counter style as
/// `/octotiger/parcels/{class}/{count,bytes}` per [`ParcelClass`].
///
/// Like [`ScratchCounters`] these are global: every parcel transport in
/// the process reports into one block, so "the N=1 reference path sends
/// zero parcels" is a single-snapshot assertion.  Per-locality raw parcel
/// counts remain on each locality's [`Counters`].
#[derive(Debug, Default)]
pub struct ParcelCounters {
    /// Ghost-zone parcels / payload bytes.
    pub ghost_count: AtomicU64,
    pub ghost_bytes: AtomicU64,
    /// Up-pass multipole parcels / bytes.
    pub multipole_up_count: AtomicU64,
    pub multipole_up_bytes: AtomicU64,
    /// M2L halo-gather parcels / bytes.
    pub m2l_count: AtomicU64,
    pub m2l_bytes: AtomicU64,
    /// Down-pass local-expansion parcels / bytes.
    pub multipole_down_count: AtomicU64,
    pub multipole_down_bytes: AtomicU64,
    /// P2P point-mass parcels / bytes.
    pub p2p_count: AtomicU64,
    pub p2p_bytes: AtomicU64,
}

impl ParcelCounters {
    /// Record one parcel of `class` carrying `bytes` payload bytes.
    pub fn note_send(&self, class: ParcelClass, bytes: u64) {
        let (count, total) = match class {
            ParcelClass::Ghost => (&self.ghost_count, &self.ghost_bytes),
            ParcelClass::MultipoleUp => (&self.multipole_up_count, &self.multipole_up_bytes),
            ParcelClass::M2l => (&self.m2l_count, &self.m2l_bytes),
            ParcelClass::MultipoleDown => (&self.multipole_down_count, &self.multipole_down_bytes),
            ParcelClass::P2p => (&self.p2p_count, &self.p2p_bytes),
        };
        Counters::bump(count);
        Counters::add(total, bytes);
    }

    /// Consistent-enough snapshot.
    pub fn snapshot(&self) -> ParcelSnapshot {
        ParcelSnapshot {
            ghost_count: self.ghost_count.load(Ordering::Relaxed),
            ghost_bytes: self.ghost_bytes.load(Ordering::Relaxed),
            multipole_up_count: self.multipole_up_count.load(Ordering::Relaxed),
            multipole_up_bytes: self.multipole_up_bytes.load(Ordering::Relaxed),
            m2l_count: self.m2l_count.load(Ordering::Relaxed),
            m2l_bytes: self.m2l_bytes.load(Ordering::Relaxed),
            multipole_down_count: self.multipole_down_count.load(Ordering::Relaxed),
            multipole_down_bytes: self.multipole_down_bytes.load(Ordering::Relaxed),
            p2p_count: self.p2p_count.load(Ordering::Relaxed),
            p2p_bytes: self.p2p_bytes.load(Ordering::Relaxed),
        }
    }

    /// Reset every counter (HPX's `reset_active_counters`).
    pub fn reset(&self) {
        self.ghost_count.store(0, Ordering::Relaxed);
        self.ghost_bytes.store(0, Ordering::Relaxed);
        self.multipole_up_count.store(0, Ordering::Relaxed);
        self.multipole_up_bytes.store(0, Ordering::Relaxed);
        self.m2l_count.store(0, Ordering::Relaxed);
        self.m2l_bytes.store(0, Ordering::Relaxed);
        self.multipole_down_count.store(0, Ordering::Relaxed);
        self.multipole_down_bytes.store(0, Ordering::Relaxed);
        self.p2p_count.store(0, Ordering::Relaxed);
        self.p2p_bytes.store(0, Ordering::Relaxed);
    }
}

/// The process-global [`ParcelCounters`] block every parcel transport
/// reports into.
pub fn parcel_counters() -> &'static ParcelCounters {
    static GLOBAL: ParcelCounters = ParcelCounters {
        ghost_count: AtomicU64::new(0),
        ghost_bytes: AtomicU64::new(0),
        multipole_up_count: AtomicU64::new(0),
        multipole_up_bytes: AtomicU64::new(0),
        m2l_count: AtomicU64::new(0),
        m2l_bytes: AtomicU64::new(0),
        multipole_down_count: AtomicU64::new(0),
        multipole_down_bytes: AtomicU64::new(0),
        p2p_count: AtomicU64::new(0),
        p2p_bytes: AtomicU64::new(0),
    };
    &GLOBAL
}

/// Plain-data snapshot of [`ParcelCounters`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ParcelSnapshot {
    pub ghost_count: u64,
    pub ghost_bytes: u64,
    pub multipole_up_count: u64,
    pub multipole_up_bytes: u64,
    pub m2l_count: u64,
    pub m2l_bytes: u64,
    pub multipole_down_count: u64,
    pub multipole_down_bytes: u64,
    pub p2p_count: u64,
    pub p2p_bytes: u64,
}

impl ParcelSnapshot {
    /// Counter deltas `self - earlier` (saturating, counters are monotonic).
    pub fn since(&self, earlier: &ParcelSnapshot) -> ParcelSnapshot {
        ParcelSnapshot {
            ghost_count: self.ghost_count.saturating_sub(earlier.ghost_count),
            ghost_bytes: self.ghost_bytes.saturating_sub(earlier.ghost_bytes),
            multipole_up_count: self
                .multipole_up_count
                .saturating_sub(earlier.multipole_up_count),
            multipole_up_bytes: self
                .multipole_up_bytes
                .saturating_sub(earlier.multipole_up_bytes),
            m2l_count: self.m2l_count.saturating_sub(earlier.m2l_count),
            m2l_bytes: self.m2l_bytes.saturating_sub(earlier.m2l_bytes),
            multipole_down_count: self
                .multipole_down_count
                .saturating_sub(earlier.multipole_down_count),
            multipole_down_bytes: self
                .multipole_down_bytes
                .saturating_sub(earlier.multipole_down_bytes),
            p2p_count: self.p2p_count.saturating_sub(earlier.p2p_count),
            p2p_bytes: self.p2p_bytes.saturating_sub(earlier.p2p_bytes),
        }
    }

    /// Total parcels across every class.
    pub fn total_count(&self) -> u64 {
        self.ghost_count
            + self.multipole_up_count
            + self.m2l_count
            + self.multipole_down_count
            + self.p2p_count
    }

    /// Total payload bytes across every class.
    pub fn total_bytes(&self) -> u64 {
        self.ghost_bytes
            + self.multipole_up_bytes
            + self.m2l_bytes
            + self.multipole_down_bytes
            + self.p2p_bytes
    }

    /// Parcels of the gravity halo classes only (everything but ghosts).
    pub fn gravity_count(&self) -> u64 {
        self.multipole_up_count + self.m2l_count + self.multipole_down_count + self.p2p_count
    }
}

impl std::fmt::Display for ParcelSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "/octotiger/parcels/ghost/count           {}",
            self.ghost_count
        )?;
        writeln!(
            f,
            "/octotiger/parcels/ghost/bytes           {}",
            self.ghost_bytes
        )?;
        writeln!(
            f,
            "/octotiger/parcels/multipole-up/count    {}",
            self.multipole_up_count
        )?;
        writeln!(
            f,
            "/octotiger/parcels/multipole-up/bytes    {}",
            self.multipole_up_bytes
        )?;
        writeln!(
            f,
            "/octotiger/parcels/m2l/count             {}",
            self.m2l_count
        )?;
        writeln!(
            f,
            "/octotiger/parcels/m2l/bytes             {}",
            self.m2l_bytes
        )?;
        writeln!(
            f,
            "/octotiger/parcels/multipole-down/count  {}",
            self.multipole_down_count
        )?;
        writeln!(
            f,
            "/octotiger/parcels/multipole-down/bytes  {}",
            self.multipole_down_bytes
        )?;
        writeln!(
            f,
            "/octotiger/parcels/p2p/count             {}",
            self.p2p_count
        )?;
        write!(
            f,
            "/octotiger/parcels/p2p/bytes             {}",
            self.p2p_bytes
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bump_add_snapshot() {
        let c = Counters::new();
        Counters::bump(&c.tasks_spawned);
        Counters::bump(&c.tasks_spawned);
        Counters::add(&c.parcel_bytes, 1024);
        let s = c.snapshot();
        assert_eq!(s.tasks_spawned, 2);
        assert_eq!(s.parcel_bytes, 1024);
        assert_eq!(s.tasks_executed, 0);
    }

    #[test]
    fn reset_zeroes_everything() {
        let c = Counters::new();
        Counters::add(&c.parcels_sent, 5);
        c.reset();
        assert_eq!(c.snapshot(), CountersSnapshot::default());
    }

    #[test]
    fn since_computes_deltas() {
        let a = CountersSnapshot {
            tasks_spawned: 10,
            ..Default::default()
        };
        let b = CountersSnapshot {
            tasks_spawned: 25,
            ..Default::default()
        };
        assert_eq!(b.since(&a).tasks_spawned, 15);
        // Saturates instead of panicking if snapshots are swapped.
        assert_eq!(a.since(&b).tasks_spawned, 0);
    }

    #[test]
    fn display_contains_hpx_style_paths() {
        let c = Counters::new();
        let text = format!("{}", c.snapshot());
        assert!(text.contains("/threads/count/cumulative"));
        assert!(text.contains("/parcels/bytes/sent"));
    }

    #[test]
    fn gravity_plan_counters_count_and_display() {
        let c = GravityPlanCounters::default();
        c.note_rebuild();
        c.note_hit();
        c.note_hit();
        let s = c.snapshot();
        assert_eq!(s.hits, 2);
        assert_eq!(s.rebuilds, 1);
        let text = format!("{s}");
        assert!(text.contains("/octotiger/gravity/plan-hits"));
        assert!(text.contains("/octotiger/gravity/plan-rebuilds"));
        c.reset();
        assert_eq!(c.snapshot(), GravityPlanSnapshot::default());
    }

    #[test]
    fn gravity_plan_snapshot_deltas_saturate() {
        let a = GravityPlanSnapshot {
            hits: 3,
            rebuilds: 1,
        };
        let b = GravityPlanSnapshot {
            hits: 9,
            rebuilds: 2,
        };
        assert_eq!(
            b.since(&a),
            GravityPlanSnapshot {
                hits: 6,
                rebuilds: 1
            }
        );
        assert_eq!(a.since(&b), GravityPlanSnapshot::default());
    }

    #[test]
    fn regrid_counters_count_and_display() {
        let c = RegridCounters::default();
        c.note_refined(5);
        c.note_derefined(2);
        c.note_plan_rebuilt();
        let s = c.snapshot();
        assert_eq!(s.refined, 5);
        assert_eq!(s.derefined, 2);
        assert_eq!(s.plan_rebuilt, 1);
        let text = format!("{s}");
        assert!(text.contains("/octotiger/regrid/refined"));
        assert!(text.contains("/octotiger/regrid/derefined"));
        assert!(text.contains("/octotiger/regrid/plan-rebuilt"));
        c.reset();
        assert_eq!(c.snapshot(), RegridSnapshot::default());
    }

    #[test]
    fn regrid_snapshot_deltas_saturate() {
        let a = RegridSnapshot {
            refined: 3,
            ..Default::default()
        };
        let b = RegridSnapshot {
            refined: 8,
            derefined: 2,
            plan_rebuilt: 1,
            ..Default::default()
        };
        let d = b.since(&a);
        assert_eq!((d.refined, d.derefined, d.plan_rebuilt), (5, 2, 1));
        assert_eq!(a.since(&b), RegridSnapshot::default());
    }

    #[test]
    fn tuner_counters_count_and_display() {
        let c = TunerCounters::default();
        c.note_probe();
        c.note_probe();
        c.note_probe();
        c.note_move();
        c.note_frozen();
        c.note_regression_rejected();
        c.note_regression_rejected();
        let s = c.snapshot();
        assert_eq!(s.probes, 3);
        assert_eq!(s.moves, 1);
        assert_eq!(s.frozen, 1);
        assert_eq!(s.regressions_rejected, 2);
        let text = format!("{s}");
        assert!(text.contains("/octotiger/tuner/probes"));
        assert!(text.contains("/octotiger/tuner/moves"));
        assert!(text.contains("/octotiger/tuner/frozen"));
        assert!(text.contains("/octotiger/tuner/regressions-rejected"));
        c.reset();
        assert_eq!(c.snapshot(), TunerCountersSnapshot::default());
    }

    #[test]
    fn tuner_snapshot_deltas_saturate() {
        let a = TunerCountersSnapshot {
            probes: 4,
            moves: 1,
            ..Default::default()
        };
        let b = TunerCountersSnapshot {
            probes: 9,
            moves: 3,
            frozen: 2,
            regressions_rejected: 1,
        };
        let d = b.since(&a);
        assert_eq!((d.probes, d.moves), (5, 2));
        assert_eq!((d.frozen, d.regressions_rejected), (2, 1));
        assert_eq!(a.since(&b), TunerCountersSnapshot::default());
    }

    #[test]
    fn parcel_counters_count_per_class_and_display() {
        let c = ParcelCounters::default();
        c.note_send(ParcelClass::Ghost, 128);
        c.note_send(ParcelClass::Ghost, 64);
        c.note_send(ParcelClass::M2l, 320);
        c.note_send(ParcelClass::MultipoleUp, 320);
        c.note_send(ParcelClass::MultipoleDown, 320);
        c.note_send(ParcelClass::P2p, 96);
        let s = c.snapshot();
        assert_eq!((s.ghost_count, s.ghost_bytes), (2, 192));
        assert_eq!((s.m2l_count, s.m2l_bytes), (1, 320));
        assert_eq!((s.multipole_up_count, s.multipole_up_bytes), (1, 320));
        assert_eq!((s.multipole_down_count, s.multipole_down_bytes), (1, 320));
        assert_eq!((s.p2p_count, s.p2p_bytes), (1, 96));
        assert_eq!(s.total_count(), 6);
        assert_eq!(s.total_bytes(), 192 + 320 * 3 + 96);
        assert_eq!(s.gravity_count(), 4);
        let text = format!("{s}");
        for class in [
            ParcelClass::Ghost,
            ParcelClass::MultipoleUp,
            ParcelClass::M2l,
            ParcelClass::MultipoleDown,
            ParcelClass::P2p,
        ] {
            assert!(text.contains(&format!("/octotiger/parcels/{}/count", class.name())));
            assert!(text.contains(&format!("/octotiger/parcels/{}/bytes", class.name())));
        }
        c.reset();
        assert_eq!(c.snapshot(), ParcelSnapshot::default());
    }

    #[test]
    fn parcel_snapshot_deltas_saturate() {
        let a = ParcelSnapshot {
            ghost_count: 4,
            ghost_bytes: 100,
            ..Default::default()
        };
        let b = ParcelSnapshot {
            ghost_count: 9,
            ghost_bytes: 260,
            m2l_count: 1,
            m2l_bytes: 40,
            ..Default::default()
        };
        let d = b.since(&a);
        assert_eq!((d.ghost_count, d.ghost_bytes), (5, 160));
        assert_eq!((d.m2l_count, d.m2l_bytes), (1, 40));
        assert_eq!(a.since(&b), ParcelSnapshot::default());
    }

    #[test]
    fn global_parcel_counters_are_monotonic() {
        let g = parcel_counters();
        let before = g.snapshot();
        g.note_send(ParcelClass::Ghost, 8);
        g.note_send(ParcelClass::P2p, 24);
        let delta = g.snapshot().since(&before);
        assert!(delta.ghost_count >= 1);
        assert!(delta.ghost_bytes >= 8);
        assert!(delta.p2p_count >= 1);
    }

    #[test]
    fn global_gravity_plan_counters_are_monotonic() {
        let g = gravity_plan_counters();
        let before = g.snapshot();
        g.note_hit();
        g.note_rebuild();
        let delta = g.snapshot().since(&before);
        assert!(delta.hits >= 1);
        assert!(delta.rebuilds >= 1);
    }
}
