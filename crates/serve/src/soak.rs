//! Long-horizon soak orchestration: one seeded spec describing the
//! workload, the scripted disruptions, and the fault injection of an
//! entire chaos run, plus the harness that executes it and cross-checks
//! every invariant.
//!
//! A soak is a pure function of its [`SoakSpec`]: the same spec produces
//! a byte-identical [`ServeReport`] on every machine and under every
//! `--jobs` setting, which is what lets CI pin a million-request chaos
//! run as a golden artifact. Failures always carry the workload seed, so
//! a nightly red run is reproducible from the one-line message alone.

use ulp_offload::HetSystemConfig;

use crate::chaos::{Blackout, ChaosConfig, Timeline};
use crate::invariants::check;
use crate::loadgen::{Burst, WorkloadSpec};
use crate::metrics::ServeReport;
use crate::pricing::CostBook;
use crate::request::TenantSpec;
use crate::server::{ServeConfig, ServePool};

/// Everything one soak run needs: the seeded workload, the scripted
/// disruption phases, the fault injection, and the pool shape.
#[derive(Clone, Debug)]
pub struct SoakSpec {
    /// Base offered load (seeded; the seed is the soak's identity).
    pub workload: WorkloadSpec,
    /// Scripted tenant overload windows (e.g. 100× flash crowds).
    pub bursts: Vec<Burst>,
    /// Scripted worker outage windows.
    pub blackouts: Vec<Blackout>,
    /// Kernel-binary residency churn: every worker forgets its resident
    /// binary each `churn_period_ns` of virtual time. 0 disables churn.
    pub churn_period_ns: u64,
    /// Per-worker fault injection.
    pub chaos: ChaosConfig,
    /// Pool shape and scheduling discipline.
    pub serve: ServeConfig,
}

impl SoakSpec {
    /// A calm soak of `workload` on `serve` — no bursts, no blackouts,
    /// no churn, no faults. Useful as the control cell next to a chaos
    /// cell.
    #[must_use]
    pub fn calm(workload: WorkloadSpec, serve: ServeConfig) -> Self {
        SoakSpec {
            workload,
            bursts: Vec::new(),
            blackouts: Vec::new(),
            churn_period_ns: 0,
            chaos: ChaosConfig::default(),
            serve,
        }
    }

    /// The disruption timeline the spec scripts: its blackouts plus a
    /// residency flush at every churn period boundary inside the
    /// workload window.
    #[must_use]
    pub fn timeline(&self) -> Timeline {
        let mut flushes = Vec::new();
        if self.churn_period_ns > 0 {
            let mut t = self.churn_period_ns;
            while t < self.workload.duration_ns {
                flushes.push(t);
                t = t.saturating_add(self.churn_period_ns);
            }
        }
        Timeline {
            blackouts: self.blackouts.clone(),
            flushes,
        }
    }
}

/// What a soak run produced: the full report, the offered request count,
/// and every invariant violation (empty = healthy).
#[derive(Clone, Debug)]
pub struct SoakOutcome {
    /// The run's complete report, raw outcomes included.
    pub report: ServeReport,
    /// Requests the workload offered (admitted + rejected).
    pub requests: u64,
    /// Invariant violations, each prefixed with the workload seed so a
    /// failure is reproducible from the message alone.
    pub violations: Vec<String>,
}

/// Runs one soak to completion: generates the seeded workload (bursts
/// superposed), executes it on a chaos-armed pool, and cross-checks
/// every invariant of the resulting report.
///
/// # Errors
///
/// A pool misconfiguration (unknown kernel/tenant, missing host cost) is
/// returned as a message carrying the workload seed.
pub fn run_soak(
    sys_config: &HetSystemConfig,
    book: CostBook,
    spec: &SoakSpec,
) -> Result<SoakOutcome, String> {
    let seed = spec.workload.seed;
    let requests = spec.workload.generate_with_bursts(&spec.bursts);
    let tenants: Vec<TenantSpec> = spec
        .workload
        .tenants
        .iter()
        .map(|l| l.spec.clone())
        .collect();
    let mut pool = ServePool::new(sys_config, tenants, book, spec.serve)
        .with_chaos(spec.chaos.clone())
        .with_timeline(spec.timeline());
    let report = pool
        .run(&requests)
        .map_err(|e| format!("soak(seed={seed}): {e}"))?;
    let violations = check(requests.len() as u64, &report)
        .into_iter()
        .map(|v| format!("soak(seed={seed}): {v}"))
        .collect();
    Ok(SoakOutcome {
        report,
        requests: requests.len() as u64,
        violations,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::FaultProfile;
    use crate::loadgen::TenantLoad;
    use crate::server::BatchPolicy;
    use ulp_kernels::{Benchmark, TargetEnv};

    fn kernels() -> Vec<Benchmark> {
        vec![Benchmark::MatMul, Benchmark::Cnn]
    }

    fn spec(seed: u64) -> SoakSpec {
        SoakSpec {
            workload: WorkloadSpec {
                seed,
                duration_ns: 1_000_000_000,
                tenants: vec![
                    TenantLoad::uniform(TenantSpec::weighted("app", 2), 200.0, &kernels()),
                    TenantLoad::uniform(TenantSpec::new("bg"), 50.0, &kernels()),
                ],
            },
            bursts: vec![Burst {
                tenant: 1,
                start_ns: 300_000_000,
                end_ns: 350_000_000,
                factor: 20.0,
            }],
            blackouts: vec![Blackout {
                worker: 0,
                start_ns: 500_000_000,
                end_ns: 600_000_000,
            }],
            churn_period_ns: 250_000_000,
            chaos: ChaosConfig::uniform(
                seed ^ 0x00C0_FFEE,
                FaultProfile {
                    bit_error_rate: 1e-5,
                    drop_rate: 0.01,
                    hang_rate: 0.005,
                    ..FaultProfile::default()
                },
            ),
            serve: ServeConfig {
                pool: 2,
                policy: BatchPolicy::KernelAware { max_batch: 8 },
                ..ServeConfig::default()
            },
        }
    }

    fn book() -> CostBook {
        CostBook::measure_with_host(
            &TargetEnv::pulp_parallel(),
            &TargetEnv::host_m4(),
            &HetSystemConfig::default(),
            &kernels(),
        )
        .expect("kernel measurement must succeed")
    }

    #[test]
    fn chaos_soak_holds_every_invariant() {
        let out = run_soak(&HetSystemConfig::default(), book(), &spec(42)).unwrap();
        assert!(out.violations.is_empty(), "{:?}", out.violations);
        assert!(out.requests > 0);
        assert!(out.report.chaos.any(), "chaos must leave a trace");
    }

    #[test]
    fn soak_is_replayable_from_its_seed() {
        let a = run_soak(&HetSystemConfig::default(), book(), &spec(7)).unwrap();
        let b = run_soak(&HetSystemConfig::default(), book(), &spec(7)).unwrap();
        assert_eq!(a.requests, b.requests);
        assert_eq!(a.report.completed, b.report.completed);
        assert_eq!(a.report.failed_over, b.report.failed_over);
        assert_eq!(a.report.makespan_ns, b.report.makespan_ns);
        assert_eq!(a.report.chaos, b.report.chaos);
        assert_eq!(a.report.slo, b.report.slo);
    }

    #[test]
    fn misconfiguration_reports_the_seed() {
        let mut s = spec(123);
        s.chaos.policy.fallback_to_host = true;
        // A book without host costs cannot arm the fallback.
        let plain = CostBook::measure(
            &TargetEnv::pulp_parallel(),
            &HetSystemConfig::default(),
            &kernels(),
        )
        .expect("kernel measurement must succeed");
        let err = run_soak(&HetSystemConfig::default(), plain, &s).unwrap_err();
        assert!(err.contains("seed=123"), "{err}");
        assert!(err.contains("host"), "{err}");
    }

    #[test]
    fn churn_timeline_covers_the_window() {
        let t = spec(1).timeline();
        assert_eq!(t.flushes, vec![250_000_000, 500_000_000, 750_000_000]);
        assert_eq!(t.blackouts.len(), 1);
    }
}
