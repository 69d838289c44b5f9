//! Contextful errors of the serving layer.
//!
//! Long soak runs must never die with a bare panic deep inside the
//! scheduler: a failure surfaced from a million-request seeded run is
//! only actionable if it names the misconfiguration (which kernel, which
//! tenant index) so the harness can prepend the workload seed and emit a
//! one-line reproduction recipe.

use std::error::Error;
use std::fmt;

use ulp_offload::OffloadError;

/// Error raised by the serving layer's pool, cost book, or soak harness.
#[derive(Debug)]
pub enum ServeError {
    /// A request named a kernel the pool's [`CostBook`](crate::CostBook)
    /// never measured — a pool configuration bug, reported instead of
    /// panicking so soak harnesses can attach the seed.
    UnknownKernel {
        /// Name of the unmeasured kernel.
        kernel: &'static str,
    },
    /// A request carried a tenant index outside the pool's tenant table.
    UnknownTenant {
        /// The offending tenant index.
        index: usize,
        /// Number of tenants the pool was built with.
        tenants: usize,
    },
    /// Host-fallback pricing was requested but the cost book was built
    /// without host measurements
    /// ([`CostBook::measure_with_host`](crate::CostBook::measure_with_host)).
    MissingHostCost {
        /// Kernel whose host cost is missing.
        kernel: &'static str,
    },
    /// A request stream broke (arrival, id) order: the record at `index`
    /// arrives before its predecessor or does not carry a larger id. The
    /// pool's per-class FIFO queues rely on that order.
    Unordered {
        /// Position of the offending record in the stream.
        index: usize,
        /// Its request id.
        id: u64,
    },
    /// A request asked for more kernel iterations than
    /// [`ServeConfig::MAX_REQUEST_ITERATIONS`](crate::ServeConfig::MAX_REQUEST_ITERATIONS)
    /// allows — pricing and the fault model would otherwise do work
    /// proportional to an untrusted count.
    TooManyIterations {
        /// Position of the offending record in the stream.
        index: usize,
        /// Its request id.
        id: u64,
        /// The iteration count it asked for.
        iterations: usize,
    },
    /// Cost measurement failed while bringing the pool up.
    Measure(OffloadError),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::UnknownKernel { kernel } => {
                write!(f, "kernel `{kernel}` is not in the pool's cost book")
            }
            ServeError::UnknownTenant { index, tenants } => {
                write!(
                    f,
                    "request names tenant index {index} but the pool has {tenants} tenants"
                )
            }
            ServeError::MissingHostCost { kernel } => {
                write!(
                    f,
                    "host fallback needs a host cost for `{kernel}`; build the book with \
                     CostBook::measure_with_host"
                )
            }
            ServeError::Unordered { index, id } => {
                write!(f, "request #{index} (id {id}) breaks (arrival, id) order")
            }
            ServeError::TooManyIterations {
                index,
                id,
                iterations,
            } => write!(
                f,
                "request #{index} (id {id}) asks for {iterations} iterations; a request may \
                 ask for at most {}",
                crate::ServeConfig::MAX_REQUEST_ITERATIONS
            ),
            ServeError::Measure(e) => write!(f, "cost measurement failed: {e}"),
        }
    }
}

impl Error for ServeError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ServeError::Measure(e) => Some(e),
            _ => None,
        }
    }
}

impl From<OffloadError> for ServeError {
    fn from(e: OffloadError) -> Self {
        ServeError::Measure(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_carry_context() {
        let e = ServeError::UnknownTenant {
            index: 7,
            tenants: 2,
        };
        let msg = e.to_string();
        assert!(msg.contains('7') && msg.contains('2'), "{msg}");
        assert!(ServeError::UnknownKernel { kernel: "cnn" }
            .to_string()
            .contains("cnn"));
        assert!(ServeError::MissingHostCost { kernel: "hog" }
            .to_string()
            .contains("measure_with_host"));
        let msg = ServeError::Unordered { index: 3, id: 41 }.to_string();
        assert!(msg.contains("#3") && msg.contains("id 41"), "{msg}");
        let msg = ServeError::TooManyIterations {
            index: 5,
            id: 42,
            iterations: 4_294_967_295,
        }
        .to_string();
        assert!(
            msg.contains("#5")
                && msg.contains("id 42")
                && msg.contains("4294967295 iterations")
                && msg.contains("at most 1024"),
            "{msg}"
        );
    }
}
