//! Chaos engineering for the serving pool: per-worker fault injection,
//! scripted disruptions, and exact degradation accounting — all on the
//! virtual clock.
//!
//! The fault layer (bit errors, frame drops, mid-offload hangs) and the
//! serving layer were built in separate PRs and had never met: a pool
//! "served millions of users" over links that could not fail. This
//! module attaches a seeded [`FaultInjector`] to each worker and prices
//! every degradation a dispatch suffers on the same virtual nanosecond
//! clock the scheduler runs on:
//!
//! * a corrupted, truncated, or dropped frame costs a retransmission
//!   (frame time + bounded exponential backoff,
//!   [`OffloadPolicy::backoff_for`]), on the offload runtime's own
//!   frame-recovery walk, [`OffloadPolicy::deliver`];
//! * a hung accelerator run, or an end-of-computation event that lands
//!   after the armed watchdog fires, costs the watchdog window, then the
//!   whole batch restarts from scratch, on the offload runtime's own
//!   end-of-computation walk, [`OffloadPolicy::await_eoc`];
//! * when the retry budget is exhausted the batch **fails over to the
//!   host** (each payload runs serially at the measured host cost) or —
//!   with fallback disabled — fails outright.
//!
//! Every event is counted exactly once, so the SLO-miss ledger and the
//! invariant checker ([`crate::invariants`]) can reconcile aggregated
//! metrics against raw per-request outcomes bit-for-bit. With no
//! profiles configured the whole module is bypassed and the pool's
//! scheduling (and its golden snapshots) is untouched.

use ulp_link::{FaultConfig, FaultInjector, FaultStats, SpiLink, FRAME_OVERHEAD};
use ulp_offload::{EocWait, HetSystemConfig, OffloadCost, OffloadPolicy};

/// Fault rates of one worker's link and event wires — the serve-scale
/// twin of [`FaultConfig`], holding only the knobs that make sense for a
/// pool (permanently stuck wires would just delete the worker; model
/// those as blackouts instead).
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub struct FaultProfile {
    /// Per-bit flip probability on the serial data lines.
    pub bit_error_rate: f64,
    /// Probability a whole frame is lost.
    pub drop_rate: f64,
    /// Probability a frame is cut short mid-transfer.
    pub truncate_rate: f64,
    /// Probability one dispatched batch hangs mid-offload (no
    /// end-of-computation event; the watchdog is the only way out).
    pub hang_rate: f64,
    /// Probability the end-of-computation event fires late.
    pub late_eoc_rate: f64,
    /// How late (accelerator cycles) a late event fires.
    pub late_eoc_cycles: u64,
}

impl FaultProfile {
    /// Whether any fault mechanism is enabled.
    #[must_use]
    pub fn is_active(&self) -> bool {
        self.bit_error_rate > 0.0
            || self.drop_rate > 0.0
            || self.truncate_rate > 0.0
            || self.hang_rate > 0.0
            || self.late_eoc_rate > 0.0
    }

    /// The link-layer fault model this profile induces, seeded for one
    /// worker.
    #[must_use]
    pub fn fault_config(&self, seed: u64) -> FaultConfig {
        FaultConfig {
            seed,
            bit_error_rate: self.bit_error_rate,
            drop_rate: self.drop_rate,
            truncate_rate: self.truncate_rate,
            hang_rate: self.hang_rate,
            late_eoc_rate: self.late_eoc_rate,
            late_eoc_cycles: self.late_eoc_cycles,
            stuck_fetch_enable: false,
            stuck_eoc: false,
        }
    }
}

/// Chaos configuration of a pool: which workers fault, how hard the
/// runtime fights back, and where the host fallback sits.
#[derive(Clone, Debug)]
pub struct ChaosConfig {
    /// Seed of the per-worker fault streams (worker `w` draws from an
    /// independent stream derived from `seed` and `w`).
    pub seed: u64,
    /// Fault profiles, assigned round-robin to workers (`profiles[w %
    /// len]`). Empty disables chaos entirely — the pool behaves (and
    /// reports) bit-identically to a chaos-free build.
    pub profiles: Vec<FaultProfile>,
    /// The offload runtime's recovery policy, applied per dispatch: its
    /// retries bound the retransmissions per frame and the restarts per
    /// hung batch, and its watchdog (in host cycles) is armed around each
    /// dispatch. Its host fallback runs an unrecoverable batch's payloads
    /// on the host and needs host costs in the book (see
    /// [`CostBook::measure_with_host`](crate::CostBook::measure_with_host));
    /// without it the batch's requests fail outright.
    pub policy: OffloadPolicy,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            seed: 1,
            profiles: Vec::new(),
            policy: OffloadPolicy::default(),
        }
    }
}

impl ChaosConfig {
    /// Whether any worker will actually see faults.
    #[must_use]
    pub fn is_active(&self) -> bool {
        self.profiles.iter().any(FaultProfile::is_active)
    }

    /// One profile for every worker (the common case: a uniformly
    /// unreliable fleet).
    #[must_use]
    pub fn uniform(seed: u64, profile: FaultProfile) -> Self {
        ChaosConfig {
            seed,
            profiles: vec![profile],
            ..ChaosConfig::default()
        }
    }

    /// The injector of worker `widx`, with its derived seed. `None`
    /// when chaos is off or the worker's profile is fault-free.
    #[must_use]
    pub fn injector_for(&self, widx: usize) -> Option<FaultInjector> {
        if self.profiles.is_empty() {
            return None;
        }
        let profile = self.profiles[widx % self.profiles.len()];
        if !profile.is_active() {
            return None;
        }
        // Splitmix-style stream separation: workers never share draws.
        let seed = self
            .seed
            .wrapping_add((widx as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        Some(FaultInjector::new(profile.fault_config(seed)))
    }
}

/// One worker outage window: the worker finishes its in-flight batch but
/// accepts no new dispatches while `[start_ns, end_ns)` covers the
/// virtual clock.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Blackout {
    /// Index of the affected worker.
    pub worker: usize,
    /// First virtual nanosecond of the outage.
    pub start_ns: u64,
    /// First virtual nanosecond after the outage.
    pub end_ns: u64,
}

/// Scripted disruption timeline of a run: worker blackouts plus
/// kernel-binary residency flushes (every worker forgets its resident
/// binary at each flush instant, so the next dispatch pays the upload
/// again — "residency churn").
#[derive(Clone, Debug, Default)]
pub struct Timeline {
    /// Worker outage windows.
    pub blackouts: Vec<Blackout>,
    /// Sorted virtual instants at which all resident binaries are
    /// evicted.
    pub flushes: Vec<u64>,
}

impl Timeline {
    /// Whether the timeline disrupts anything at all.
    #[must_use]
    pub fn is_active(&self) -> bool {
        !self.blackouts.is_empty() || !self.flushes.is_empty()
    }

    /// Whether worker `widx` is blacked out at `now`.
    #[must_use]
    pub fn blacked_out(&self, widx: usize, now: u64) -> bool {
        self.blackouts
            .iter()
            .any(|b| b.worker == widx && b.start_ns <= now && now < b.end_ns)
    }

    /// The earliest blackout end after `now` — the instant a stalled
    /// scheduler must wake at when every available worker is out.
    #[must_use]
    pub fn next_blackout_end(&self, now: u64) -> Option<u64> {
        self.blackouts
            .iter()
            .filter(|b| b.end_ns > now)
            .map(|b| b.end_ns)
            .min()
    }
}

/// Virtual-time frame pricing for retransmissions, derived from the
/// pool's system configuration without instantiating a simulator.
#[derive(Clone, Debug)]
pub(crate) struct LinkTiming {
    link: SpiLink,
    drive_hz: f64,
    mcu_hz: f64,
    pulp_hz: f64,
}

impl LinkTiming {
    pub(crate) fn new(cfg: &HetSystemConfig) -> Self {
        LinkTiming {
            link: SpiLink::new(cfg.link_width, cfg.link_prescaler),
            drive_hz: cfg.link_drive_hz(),
            mcu_hz: cfg.mcu_freq_hz,
            pulp_hz: cfg.pulp_freq_hz,
        }
    }

    /// Wire time of one `payload`-byte frame (plus header), ns.
    pub(crate) fn frame_ns(&self, payload: usize) -> u64 {
        (self
            .link
            .transfer_seconds(payload + FRAME_OVERHEAD, self.drive_hz)
            * 1e9)
            .round() as u64
    }

    /// Host cycles → virtual nanoseconds.
    pub(crate) fn host_cycles_ns(&self, cycles: u64) -> u64 {
        (cycles as f64 * 1e9 / self.mcu_hz).round() as u64
    }

    /// Accelerator cycles → virtual nanoseconds.
    pub(crate) fn pulp_cycles_ns(&self, cycles: u64) -> u64 {
        (cycles as f64 * 1e9 / self.pulp_hz).round() as u64
    }
}

/// Aggregated chaos counters of one serve run. Scheduler-side events
/// (retries, watchdog fires, fallbacks) are counted here; raw link-layer
/// counters are folded in from the per-worker injectors at the end of
/// the run.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct ChaosStats {
    /// Frames passed through the per-worker injectors.
    pub frames: u64,
    /// Individual bits flipped on the wires.
    pub bits_flipped: u64,
    /// Frames corrupted, truncated, or dropped (detected failures).
    pub frames_damaged: u64,
    /// Corrupted frames whose damage aliased the CRC-16 and was accepted.
    pub crc_escapes: u64,
    /// Frame retransmissions the recovery layer paid for.
    pub retransmissions: u64,
    /// Watchdog expiries on hung batches and on events past the window
    /// (each one restarts the batch).
    pub watchdog_fires: u64,
    /// Late end-of-computation events that still beat the watchdog.
    pub late_events: u64,
    /// Batches abandoned to the host fallback.
    pub fallback_batches: u64,
    /// Requests completed by the host fallback.
    pub fallback_requests: u64,
    /// Requests that failed outright (retries exhausted, no fallback).
    pub failed_requests: u64,
    /// Residency-churn flushes applied.
    pub residency_flushes: u64,
    /// Dispatches denied because the affine worker was blacked out.
    pub blackout_windows: u64,
}

impl ChaosStats {
    /// Folds one injector's raw link counters into the run totals.
    pub(crate) fn absorb(&mut self, s: &FaultStats) {
        self.frames += s.frames;
        self.bits_flipped += s.bits_flipped;
        self.frames_damaged += s.frames_corrupted + s.frames_dropped + s.frames_truncated;
        self.crc_escapes += s.crc_escapes;
    }

    /// True if any chaos activity was recorded.
    #[must_use]
    pub fn any(&self) -> bool {
        *self != ChaosStats::default()
    }
}

/// What a dispatched batch came to, after chaos had its say.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum BatchFate {
    /// Delivered and computed on the accelerator (possibly after
    /// recovery work).
    Served,
    /// Unrecoverable on the accelerator; payloads completed on the host.
    FailedOver,
    /// Unrecoverable and no fallback: the batch's requests failed.
    Failed,
}

/// Priced outcome of one dispatch under fault injection.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Degradation {
    /// Total service time of the dispatch, recovery included, ns.
    pub service_ns: u64,
    /// How the batch ended.
    pub fate: BatchFate,
    /// Scheduler-side event deltas of this dispatch.
    pub retransmissions: u64,
    /// Watchdog expiries charged to this dispatch.
    pub watchdog_fires: u64,
    /// Late end-of-computation events absorbed.
    pub late_events: u64,
}

/// Everything `degrade` needs to price one dispatch.
pub(crate) struct DispatchJob<'a> {
    /// Measured cost of the batch's kernel.
    pub cost: &'a OffloadCost,
    /// Fused iteration count of the batch.
    pub iterations: usize,
    /// Whether the binary upload is part of this dispatch.
    pub ship: bool,
    /// Healthy (fault-free) service time of the batch, ns.
    pub base_ns: u64,
    /// Compute portion of `base_ns` (sets the automatic watchdog), ns.
    pub compute_ns: u64,
    /// Host cost per payload iteration (0 = unmeasured), ns.
    pub host_est_ns: u64,
}

/// Replays the fault channel over every frame of a dispatch (each
/// through [`OffloadPolicy::deliver`]) and its end-of-computation event
/// (through [`OffloadPolicy::await_eoc`]), pricing the recovery work on
/// the virtual clock. The injector's PRNG stream advances exactly once
/// per frame attempt / event draw, so a `(seed, workload)` pair replays
/// the same chaos on every machine.
pub(crate) fn degrade(
    injector: &mut FaultInjector,
    cfg: &ChaosConfig,
    timing: &LinkTiming,
    job: &DispatchJob<'_>,
) -> Degradation {
    let policy = &cfg.policy;
    let mut extra_ns = 0u64;
    let mut retransmissions = 0u64;

    // Frame plan of the fused batch: the binary (if shipping) then every
    // input and output buffer of every iteration, in wire order.
    let binary = job.ship.then_some(job.cost.offload_bytes);
    let per_iter = job
        .cost
        .input_frames
        .iter()
        .chain(job.cost.output_frames.iter())
        .copied();
    let frames = binary
        .into_iter()
        .chain((0..job.iterations).flat_map(|_| per_iter.clone()));

    // The walk stops at the first undeliverable frame.
    let delivered = frames.into_iter().all(|payload| {
        let d = policy.deliver(injector, payload + FRAME_OVERHEAD);
        retransmissions += u64::from(d.retransmissions);
        for i in 0..d.retransmissions {
            extra_ns = extra_ns
                .saturating_add(timing.frame_ns(payload))
                .saturating_add(timing.host_cycles_ns(policy.backoff_for(i)));
        }
        d.delivered
    });

    let watchdog_ns = if policy.watchdog_cycles > 0 {
        timing.host_cycles_ns(policy.watchdog_cycles)
    } else {
        // The offload runtime's auto deadline: 4× expected compute,
        // floored so even a trivial batch arms a real window.
        job.compute_ns
            .saturating_mul(4)
            .max(timing.host_cycles_ns(OffloadPolicy::MIN_WATCHDOG_CYCLES))
    };
    // The event must land inside the window: compute plus lateness. A
    // batch that was never delivered never computes, so never completes.
    let fits = |late| job.compute_ns.saturating_add(timing.pulp_cycles_ns(late)) <= watchdog_ns;
    let wait = if delivered {
        policy.await_eoc(injector, fits)
    } else {
        EocWait::default()
    };
    extra_ns = extra_ns
        .saturating_add(watchdog_ns.saturating_mul(wait.trips))
        .saturating_add(wait.late_cycles.map_or(0, |c| timing.pulp_cycles_ns(c)));

    let (fate, service_ns) = if wait.completed {
        (BatchFate::Served, job.base_ns.saturating_add(extra_ns))
    } else if policy.fallback_to_host && job.host_est_ns > 0 {
        let host_ns = job.host_est_ns.saturating_mul(job.iterations as u64);
        (BatchFate::FailedOver, extra_ns.saturating_add(host_ns))
    } else {
        (BatchFate::Failed, extra_ns)
    };
    Degradation {
        service_ns,
        fate,
        retransmissions,
        watchdog_fires: wait.trips,
        late_events: u64::from(wait.late_cycles.is_some()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timing() -> LinkTiming {
        LinkTiming::new(&HetSystemConfig::default())
    }

    fn job(cost: &OffloadCost) -> DispatchJob<'_> {
        DispatchJob {
            cost,
            iterations: 4,
            ship: true,
            base_ns: 1_000_000,
            compute_ns: 400_000,
            host_est_ns: 10_000_000,
        }
    }

    fn cost() -> OffloadCost {
        OffloadCost {
            kernel: "synthetic".to_owned(),
            offload_bytes: 2048,
            input_frames: vec![256, 64],
            output_frames: vec![128],
            cycles_cold: 5000,
            cycles_warm: 4000,
            activity: Default::default(),
        }
    }

    #[test]
    fn fault_free_profile_is_transparent() {
        let cfg = ChaosConfig::default();
        assert!(!cfg.is_active());
        assert!(cfg.injector_for(0).is_none());
        let c = ChaosConfig::uniform(7, FaultProfile::default());
        assert!(!c.is_active());
        assert!(c.injector_for(3).is_none());
    }

    #[test]
    fn clean_channel_charges_nothing() {
        let cfg = ChaosConfig::uniform(
            1,
            FaultProfile {
                hang_rate: 0.0,
                // active so an injector exists, but never fires
                bit_error_rate: 1e-18,
                ..FaultProfile::default()
            },
        );
        let mut inj = cfg.injector_for(0).unwrap();
        let c = cost();
        let d = degrade(&mut inj, &cfg, &timing(), &job(&c));
        assert_eq!(d.fate, BatchFate::Served);
        assert_eq!(d.service_ns, 1_000_000);
        assert_eq!(d.retransmissions + d.watchdog_fires + d.late_events, 0);
    }

    #[test]
    fn degradation_is_seed_deterministic() {
        let cfg = ChaosConfig::uniform(
            99,
            FaultProfile {
                bit_error_rate: 1e-4,
                drop_rate: 0.02,
                hang_rate: 0.05,
                ..FaultProfile::default()
            },
        );
        let run = || {
            let mut inj = cfg.injector_for(2).unwrap();
            let c = cost();
            (0..200)
                .map(|_| {
                    let d = degrade(&mut inj, &cfg, &timing(), &job(&c));
                    (d.service_ns, d.fate, d.retransmissions, d.watchdog_fires)
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn certain_hang_falls_over_to_host_after_retries() {
        // Three watchdog windows (initial run + 2 retries), then the four
        // payloads run on the host at 10 ms each. The window counts host
        // cycles: 16,000 at the default 16 MHz host is 1 ms, and the
        // automatic window (4× compute) floors at MIN_WATCHDOG_CYCLES,
        // 62.5 µs at 16 MHz.
        let c = cost();
        for (watchdog_cycles, compute_ns, window_ns) in [
            (16_000, 400_000, 1_000_000),
            (0, 400_000, 1_600_000),
            (0, 10, 62_500),
        ] {
            let cfg = ChaosConfig {
                policy: OffloadPolicy {
                    max_retries: 2,
                    watchdog_cycles,
                    ..OffloadPolicy::default()
                },
                ..ChaosConfig::uniform(
                    5,
                    FaultProfile {
                        hang_rate: 1.0,
                        ..FaultProfile::default()
                    },
                )
            };
            let mut inj = cfg.injector_for(0).unwrap();
            let j = DispatchJob {
                compute_ns,
                ..job(&c)
            };
            let d = degrade(&mut inj, &cfg, &timing(), &j);
            assert_eq!(d.fate, BatchFate::FailedOver);
            assert_eq!(d.watchdog_fires, 3);
            assert_eq!(
                d.service_ns,
                3 * window_ns + 4 * 10_000_000,
                "watchdog {watchdog_cycles} cycles, compute {compute_ns} ns"
            );
        }
    }

    #[test]
    fn no_fallback_means_failed() {
        let cfg = ChaosConfig {
            policy: OffloadPolicy {
                max_retries: 0,
                fallback_to_host: false,
                ..OffloadPolicy::default()
            },
            ..ChaosConfig::uniform(
                5,
                FaultProfile {
                    drop_rate: 1.0,
                    ..FaultProfile::default()
                },
            )
        };
        let mut inj = cfg.injector_for(0).unwrap();
        let c = cost();
        let d = degrade(&mut inj, &cfg, &timing(), &job(&c));
        assert_eq!(d.fate, BatchFate::Failed);
    }

    /// The offload runtime and the serving layer recover frames on one
    /// walk: on the same cost, seed and frame order (no hangs or late
    /// events, so the event wire draws nothing) they retransmit the same
    /// frames and charge the same surcharge, up to serving's rounding of
    /// each retransmission's frame time and backoff to whole nanoseconds.
    #[test]
    fn offload_and_serving_recover_a_frame_plan_alike() {
        use ulp_kernels::{Benchmark, TargetEnv};
        use ulp_offload::{HetSystem, OffloadOptions};

        let build = Benchmark::MatMul.build(&TargetEnv::pulp_parallel());
        let opts = OffloadOptions {
            iterations: 16,
            ..OffloadOptions::default()
        };
        let profiles = [
            FaultProfile {
                drop_rate: 0.1,
                ..FaultProfile::default()
            },
            FaultProfile {
                bit_error_rate: 5e-6,
                ..FaultProfile::default()
            },
            FaultProfile {
                truncate_rate: 0.1,
                ..FaultProfile::default()
            },
            FaultProfile {
                bit_error_rate: 5e-6,
                drop_rate: 0.05,
                truncate_rate: 0.05,
                ..FaultProfile::default()
            },
        ];
        for (seed, profile) in (1u64..).zip(profiles) {
            let fault = profile.fault_config(seed);
            let config = HetSystemConfig {
                fault,
                ..HetSystemConfig::default()
            };
            let mut sys = HetSystem::new(config.clone());
            let cost = sys.measure_cost(&build).unwrap();
            let offload = sys.offload(&build, &opts).unwrap().resilience;

            let cfg = ChaosConfig {
                policy: opts.policy,
                ..ChaosConfig::uniform(seed, profile)
            };
            let mut inj = FaultInjector::new(fault);
            let served = degrade(
                &mut inj,
                &cfg,
                &LinkTiming::new(&config),
                &DispatchJob {
                    cost: &cost,
                    iterations: opts.iterations,
                    ship: true,
                    base_ns: 0,
                    compute_ns: 1_000_000,
                    host_est_ns: 0,
                },
            );
            let s = inj.stats();
            let fired = [
                (profile.drop_rate, s.frames_dropped),
                (profile.bit_error_rate, s.frames_corrupted),
                (profile.truncate_rate, s.frames_truncated),
            ];
            for (rate, count) in fired {
                assert!(rate == 0.0 || count > 0, "{profile:?}: a fault never fired");
            }
            assert_eq!(served.fate, BatchFate::Served, "{profile:?}");
            assert_eq!(
                served.retransmissions, offload.retransmissions,
                "{profile:?}"
            );
            let gap_ns = (offload.extra_seconds * 1e9 - served.service_ns as f64).abs();
            assert!(
                gap_ns <= offload.retransmissions as f64,
                "{profile:?}: offload {} ns vs serving {} ns over {} retransmissions",
                offload.extra_seconds * 1e9,
                served.service_ns,
                offload.retransmissions
            );
        }
    }

    /// The offload runtime and the serving layer wait out the
    /// end-of-computation event on one walk: a one-iteration offload and
    /// a one-iteration dispatch on the same seed trip the same watchdogs,
    /// fall back alike and accept the same lateness, each priced in its
    /// own units.
    #[test]
    fn offload_and_serving_wait_out_events_alike() {
        use ulp_kernels::{Benchmark, TargetEnv};
        use ulp_offload::{HetSystem, OffloadOptions};

        let build = Benchmark::MatMul.build(&TargetEnv::pulp_parallel());
        let host_build = Benchmark::MatMul.build(&TargetEnv::host_m4());
        let config = HetSystemConfig::default();
        let sys = HetSystem::new(config.clone());
        let host_ns = (sys.run_on_host(&host_build).unwrap().seconds * 1e9).round() as u64;
        let profile = |hang_rate, late_eoc_rate, late_eoc_cycles| FaultProfile {
            hang_rate,
            late_eoc_rate,
            late_eoc_cycles,
            ..FaultProfile::default()
        };
        // (profile, watchdog host cycles or 0 = auto). The first is 10⁹ cycles
        // late; the second's window is shorter than matmul's compute.
        let cases = [
            (profile(0.0, 1.0, 1_000_000_000), 0),
            (profile(0.0, 0.5, 64), 1_000),
            (profile(0.5, 0.0, 0), 40_000),
            (profile(0.0, 0.5, 20_000), 40_000),
            (profile(0.3, 0.4, 1_000_000), 40_000),
        ];
        let (mut trips, mut lateness_ns) = (0, 0.0);
        for seed in 1..=3u64 {
            for (profile, watchdog_cycles) in cases {
                let ctx = format!("seed {seed}, watchdog {watchdog_cycles}, {profile:?}");
                let config = HetSystemConfig {
                    fault: profile.fault_config(seed),
                    ..config.clone()
                };
                let policy = OffloadPolicy {
                    watchdog_cycles,
                    ..OffloadPolicy::default()
                };
                let mut sys = HetSystem::new(config.clone());
                let opts = OffloadOptions {
                    policy,
                    ..OffloadOptions::default()
                };
                let report = sys.offload_with_fallback(&build, &host_build, &opts);
                let offload = report.unwrap().resilience;
                let cost = sys.measure_cost(&build).unwrap();
                let timing = LinkTiming::new(&config);
                let served = degrade(
                    &mut FaultInjector::new(config.fault),
                    &ChaosConfig {
                        policy,
                        ..ChaosConfig::uniform(seed, profile)
                    },
                    &timing,
                    &DispatchJob {
                        cost: &cost,
                        iterations: 1,
                        ship: true,
                        base_ns: 0,
                        compute_ns: timing.pulp_cycles_ns(cost.cycles_cold),
                        host_est_ns: host_ns,
                    },
                );
                assert_eq!(served.watchdog_fires, offload.watchdog_trips, "{ctx}");
                let fell_back = served.fate == BatchFate::FailedOver;
                assert_eq!(fell_back, offload.fell_back_to_host, "{ctx}");
                trips += offload.watchdog_trips;
                // Lateness: the surcharge past the timeout windows. A case
                // on the automatic window never completes.
                if !fell_back {
                    let window_s = watchdog_cycles as f64 / config.mcu_freq_hz;
                    let trips = offload.watchdog_trips as f64;
                    let late_ns = (offload.extra_seconds - trips * window_s) * 1e9;
                    let windows_ns = served.watchdog_fires * timing.host_cycles_ns(watchdog_cycles);
                    let served_ns = (served.service_ns - windows_ns) as f64;
                    let gap = (late_ns - served_ns).abs();
                    assert!(gap <= 1.0, "{ctx}: {late_ns} vs {served_ns} ns late");
                    lateness_ns += late_ns;
                }
            }
        }
        assert!(trips > 0 && lateness_ns > 0.0, "{trips}, {lateness_ns}");
    }

    #[test]
    fn workers_draw_from_independent_streams() {
        let cfg = ChaosConfig::uniform(
            3,
            FaultProfile {
                drop_rate: 0.5,
                ..FaultProfile::default()
            },
        );
        let seq = |w: usize| {
            let mut inj = cfg.injector_for(w).unwrap();
            (0..64).map(|_| inj.assess(64)).collect::<Vec<_>>()
        };
        assert_ne!(seq(0), seq(1));
    }

    #[test]
    fn timeline_blackout_windows() {
        let t = Timeline {
            blackouts: vec![Blackout {
                worker: 1,
                start_ns: 100,
                end_ns: 200,
            }],
            flushes: vec![150],
        };
        assert!(t.is_active());
        assert!(!t.blacked_out(0, 150));
        assert!(t.blacked_out(1, 100));
        assert!(t.blacked_out(1, 199));
        assert!(!t.blacked_out(1, 200));
        assert_eq!(t.next_blackout_end(0), Some(200));
        assert_eq!(t.next_blackout_end(200), None);
    }
}
