//! Hardware event unit / synchronizer.
//!
//! The PULP cluster "contains a HW synchronizer used to accelerate
//! synchronization between the cores, making sure that they can be put to
//! sleep and woken up in just a few cycles" (paper §III-B). This module
//! tracks barrier arrivals and the end-of-computation (EOC) wire towards
//! the host; the [`Cluster`](crate::Cluster) routes `sev`/`wfe`/`barrier`
//! instruction outcomes through it.

/// Barrier and event bookkeeping for one cluster.
///
/// # Example
///
/// ```
/// use ulp_cluster::EventUnit;
///
/// let mut eu = EventUnit::new(2);
/// assert_eq!(eu.barrier_arrive(0, 100), None); // first core waits
/// assert_eq!(eu.barrier_arrive(1, 140), Some(140)); // release at last arrival
/// ```
#[derive(Clone, Debug)]
pub struct EventUnit {
    participants: usize,
    arrived: Vec<Option<u64>>,
    barriers_completed: u64,
    eoc_at: Option<u64>,
}

impl EventUnit {
    /// Creates an event unit for `participants` cores.
    #[must_use]
    pub fn new(participants: usize) -> Self {
        EventUnit {
            participants,
            arrived: vec![None; participants],
            barriers_completed: 0,
            eoc_at: None,
        }
    }

    /// Number of cores that take part in barriers.
    #[must_use]
    pub fn participants(&self) -> usize {
        self.participants
    }

    /// Registers the arrival of `core` at the barrier at time `at`.
    ///
    /// Returns `Some(release_time)` when this was the last expected arrival:
    /// all waiting cores should be woken at that time. The release time is
    /// the latest arrival (the barrier cannot release before everyone is
    /// in); the per-core wake-up latency is charged by
    /// [`Core::wake`](ulp_isa::Core::wake).
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range or arrives twice at the same
    /// barrier generation (both indicate a simulator bug).
    pub fn barrier_arrive(&mut self, core: usize, at: u64) -> Option<u64> {
        assert!(
            core < self.participants,
            "core {core} outside barrier group"
        );
        assert!(
            self.arrived[core].is_none(),
            "core {core} arrived twice at the barrier"
        );
        self.arrived[core] = Some(at);
        if self.arrived.iter().all(Option::is_some) {
            let release = self.arrived.iter().map(|t| t.unwrap()).max().unwrap();
            self.arrived.fill(None);
            self.barriers_completed += 1;
            Some(release)
        } else {
            None
        }
    }

    /// Barriers completed since the last reset (PMU).
    #[must_use]
    pub fn barriers_completed(&self) -> u64 {
        self.barriers_completed
    }

    /// Raises the end-of-computation wire at time `at` (first edge wins).
    pub fn raise_eoc(&mut self, at: u64) {
        if self.eoc_at.is_none() {
            self.eoc_at = Some(at);
        }
    }

    /// Time at which EOC was raised, if it was.
    #[must_use]
    pub fn eoc_at(&self) -> Option<u64> {
        self.eoc_at
    }

    /// Clears barrier state and the EOC wire (new offload).
    pub fn reset(&mut self) {
        self.arrived.fill(None);
        self.eoc_at = None;
        self.barriers_completed = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn barrier_releases_at_last_arrival() {
        let mut eu = EventUnit::new(3);
        assert_eq!(eu.barrier_arrive(0, 100), None);
        assert_eq!(eu.barrier_arrive(2, 250), None);
        assert_eq!(eu.arrived.iter().flatten().count(), 2);
        assert_eq!(eu.barrier_arrive(1, 180), Some(250));
        assert_eq!(eu.arrived.iter().flatten().count(), 0);
        assert_eq!(eu.barriers_completed(), 1);
    }

    #[test]
    fn barrier_reusable_across_generations() {
        let mut eu = EventUnit::new(2);
        assert_eq!(eu.barrier_arrive(0, 10), None);
        assert_eq!(eu.barrier_arrive(1, 20), Some(20));
        assert_eq!(eu.barrier_arrive(1, 30), None);
        assert_eq!(eu.barrier_arrive(0, 50), Some(50));
        assert_eq!(eu.barriers_completed(), 2);
    }

    #[test]
    #[should_panic(expected = "arrived twice")]
    fn double_arrival_is_a_bug() {
        let mut eu = EventUnit::new(2);
        let _ = eu.barrier_arrive(0, 10);
        let _ = eu.barrier_arrive(0, 11);
    }

    #[test]
    fn eoc_first_edge_wins() {
        let mut eu = EventUnit::new(4);
        assert_eq!(eu.eoc_at(), None);
        eu.raise_eoc(500);
        eu.raise_eoc(900);
        assert_eq!(eu.eoc_at(), Some(500));
        eu.reset();
        assert_eq!(eu.eoc_at(), None);
    }

    #[test]
    fn single_core_barrier_releases_immediately() {
        let mut eu = EventUnit::new(1);
        assert_eq!(eu.barrier_arrive(0, 42), Some(42));
    }
}
