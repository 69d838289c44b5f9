//! Multi-tenant serving layer for the heterogeneous offload model.
//!
//! The paper exercises the STM32-L476 → PULP offload path one request
//! at a time; the ROADMAP north star is a system serving heavy traffic
//! from many concurrent users. This crate models that front-end:
//!
//! * **Admission control** — bounded per-tenant queues, one FIFO per
//!   deadline class, fed by streams in (arrival, id) order; arrivals
//!   past a tenant's cap are rejected (backpressure) instead of growing
//!   an unbounded backlog.
//! * **Kernel-aware batching** — same-kernel requests coalesce into one
//!   dispatch, so one program upload and one shared pipeline schedule
//!   amortize across N payloads (see [`server`] for why that wins).
//! * **Weighted fairness** — a virtual-time scheduler gives each tenant
//!   service proportional to its weight; one hot tenant cannot starve
//!   the rest.
//! * **Seeded determinism** — the load generator and the scheduler both
//!   run on a virtual clock from `ulp-rng` seeds; reports are
//!   byte-stable across machines and `--jobs` settings.
//! * **Chaos under contract** — per-worker fault injection ([`chaos`]),
//!   scripted disruption timelines (bursts, blackouts, residency
//!   churn), an exact per-tenant × deadline-class SLO-miss ledger, and
//!   an invariant checker ([`invariants`]) that reconciles every
//!   aggregate against raw per-request outcomes. The [`soak`] harness
//!   ties it together for million-request seeded endurance runs.
//! * **Fleet scale** — a [`fleet`] layer shards tenants across node
//!   groups with rendezvous hashing ([`place_tenant`]), each group a
//!   [`ServePool`] that a per-group autoscaler ([`autoscale`]) grows and
//!   shrinks against queue depth and tail latency, with pressure-scaled
//!   per-class admission pricing and an optional DVFS power governor
//!   ([`power`]). Conservation is re-checked **across**
//!   groups ([`invariants::check_fleet`]), and [`trace_replay`] records
//!   any admitted request stream to a versioned format that replays
//!   byte-identically through any scheduler configuration.
//!
//! ```
//! use ulp_kernels::{Benchmark, TargetEnv};
//! use ulp_offload::HetSystemConfig;
//! use ulp_serve::{
//!     CostBook, ServeConfig, ServePool, TenantLoad, TenantSpec, WorkloadSpec,
//! };
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let env = TargetEnv::pulp_parallel();
//! let config = HetSystemConfig::default();
//! let kernels = [Benchmark::MatMul, Benchmark::Cnn];
//! let book = CostBook::measure(&env, &config, &kernels)?;
//!
//! let tenants = vec![TenantSpec::new("app"), TenantSpec::weighted("batch", 2)];
//! let workload = WorkloadSpec {
//!     seed: 42,
//!     duration_ns: 500_000_000,
//!     tenants: vec![
//!         TenantLoad::uniform(tenants[0].clone(), 60.0, &kernels),
//!         TenantLoad::uniform(tenants[1].clone(), 30.0, &kernels),
//!     ],
//! };
//! let mut pool = ServePool::new(&config, tenants, book, ServeConfig {
//!     pool: 2,
//!     ..ServeConfig::default()
//! });
//! let report = pool.run(&workload.generate())?;
//! assert!(report.completed > 0);
//! assert!(report.throughput_rps() > 0.0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod autoscale;
pub mod chaos;
mod error;
pub mod fleet;
pub mod invariants;
mod loadgen;
mod metrics;
pub mod power;
mod pricing;
mod request;
pub mod server;
pub mod soak;
pub mod trace_replay;

pub use autoscale::{render_scale_log, AutoscalePolicy, ScaleDecision, ScaleEvent, ScaleReason};
pub use chaos::{Blackout, ChaosConfig, ChaosStats, FaultProfile, Timeline};
pub use error::ServeError;
pub use fleet::{Fleet, FleetConfig, FleetReport, GroupReport};
pub use loadgen::{Burst, TenantLoad, WorkloadSpec};
pub use metrics::{
    fmt_ms, percentile_ns, LatencyStats, OutcomeKind, PowerEvent, RequestOutcome, ServeReport,
    SloCell, SloLedger, TenantReport,
};
pub use power::PowerPolicy;
pub use pricing::CostBook;
pub use request::{DeadlineClass, ServeRequest, TenantSpec};
pub use server::{BatchPolicy, ServeConfig, ServePool};
pub use soak::{run_soak, SoakOutcome, SoakSpec};
pub use trace_replay::{TraceRecorder, TraceReplayer};

/// Rendezvous (highest-random-weight) placement of one tenant onto one
/// of `groups` node groups.
///
/// Every (tenant, group) pair gets an independent pseudo-random score —
/// a splitmix64 finalizer over the tenant name's FNV-1a hash xor a
/// per-group salt — and the tenant lands on the highest-scoring group.
/// The property that makes this the fleet's sharding primitive:
/// changing the group count only moves tenants whose winning group
/// appeared or disappeared. Growing `G → G+1` relocates each tenant
/// with probability `1/(G+1)` (only when the new group wins), and
/// shrinking `G+1 → G` relocates exactly the tenants of the removed
/// group — nothing else reshuffles, unlike modulo hashing where almost
/// every tenant moves.
///
/// Placement is a pure function of `(name, groups)`, so every node of a
/// real deployment could compute it locally and agree.
///
/// # Panics
///
/// Panics when `groups` is 0 — a fleet with no node groups cannot place
/// anything.
#[must_use]
pub fn place_tenant(name: &str, groups: usize) -> usize {
    assert!(groups > 0, "cannot place a tenant on zero groups");
    let h = fnv1a_64(name);
    (0..groups)
        .max_by_key(|&g| {
            (
                splitmix64(h ^ (g as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
                g,
            )
        })
        .expect("groups > 0")
}

/// [`place_tenant`] over a whole tenant table: `result[i]` is the group
/// of `tenants[i]`.
///
/// # Panics
///
/// Panics when `groups` is 0.
#[must_use]
pub fn place_tenants(tenants: &[TenantSpec], groups: usize) -> Vec<usize> {
    tenants
        .iter()
        .map(|t| place_tenant(&t.name, groups))
        .collect()
}

/// FNV-1a over a tenant name — the same construction the load
/// generator uses to key per-tenant arrival streams.
fn fnv1a_64(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// splitmix64 finalizer: a cheap, well-mixed bijection on `u64` that
/// turns the (correlated) per-group salted hashes into independent
/// scores.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod sharding_tests {
    use super::*;

    #[test]
    fn placement_is_pure_and_in_range() {
        for g in 1..=32 {
            for name in ["a", "tenant-7", "", "the same tenant"] {
                let p = place_tenant(name, g);
                assert!(p < g);
                assert_eq!(p, place_tenant(name, g), "placement must be pure");
            }
        }
    }

    #[test]
    fn shrinking_only_moves_the_removed_groups_tenants() {
        let names: Vec<String> = (0..512).map(|i| format!("tenant-{i}")).collect();
        for g in 2..=9 {
            for name in &names {
                let before = place_tenant(name, g);
                let after = place_tenant(name, g - 1);
                if before < g - 1 {
                    assert_eq!(
                        before,
                        after,
                        "{name}: group {before} still exists at G={}, tenant must not move",
                        g - 1
                    );
                }
            }
        }
    }

    #[test]
    fn growing_moves_a_bounded_fraction_and_only_to_the_new_group() {
        let names: Vec<String> = (0..2048).map(|i| format!("tenant-{i}")).collect();
        for g in 1..=8 {
            let mut moved = 0usize;
            for name in &names {
                let before = place_tenant(name, g);
                let after = place_tenant(name, g + 1);
                if before != after {
                    assert_eq!(
                        after, g,
                        "{name}: a grown fleet only moves tenants onto the new group"
                    );
                    moved += 1;
                }
            }
            // E[moved] = n/(G+1); 2× the expectation is astronomically
            // safe for a fixed population and keeps the bound strict.
            assert!(
                moved <= 2 * names.len() / (g + 1),
                "G={g}: {moved} of {} tenants moved",
                names.len()
            );
            assert!(moved > 0, "G={g}: the new group must win something");
        }
    }

    #[test]
    fn placement_spreads_tenants_across_groups() {
        let groups = 8;
        let mut counts = vec![0usize; groups];
        for i in 0..1024 {
            counts[place_tenant(&format!("tenant-{i}"), groups)] += 1;
        }
        for (g, &c) in counts.iter().enumerate() {
            assert!(c > 0, "group {g} got no tenants out of 1024");
        }
    }
}
