//! Request-trace record and replay: the testing primitive that turns
//! scheduler comparisons from statistical into exact.
//!
//! [`TraceRecorder`] captures a request stream — tenant, kernel, SLO
//! class, arrival instant, iteration count, and the request id that
//! doubles as its payload seed — into a compact **versioned** format,
//! and [`TraceReplayer`] turns the bytes back into the identical
//! stream. Because a serve run is a pure function of its request stream
//! (see [`server`](crate::server)), replaying one trace through two
//! scheduler configurations is an exact A/B experiment: every divergence
//! in the reports is caused by the scheduler, not the workload.
//!
//! # Format v1
//!
//! Two interchangeable encodings, distinguished on decode by the first
//! byte (`{` = JSON, anything else = binary):
//!
//! * **Binary** — little-endian throughout: magic `UTRC`, version `u16`
//!   (= 1), reserved `u16` (= 0), record count `u64`; then one 28-byte
//!   record per request (`id u64`, `arrival_ns u64`, `tenant u32`,
//!   `iterations u32`, `kernel u8`, `class u8`, reserved `u16`); then an
//!   FNV-1a 64 checksum over the record bytes. Kernels travel as their
//!   index into [`Benchmark::ALL`] and classes as
//!   [`DeadlineClass::rank`], so the encoding is stable across display
//!   name changes.
//! * **JSON** — line-oriented for the workspace's hand-rolled parsing:
//!   a header line carrying the schema string
//!   (`ulp-serve-trace-v1`) and count, then one object per line per
//!   request in stream order. The `kernel_name` field is informational;
//!   decode trusts the index.
//!
//! Either encoding decodes to the identical request slice, and
//! re-encoding a decoded trace reproduces the input bytes exactly —
//! that round trip is what the replay tests pin.

use std::fmt;

use ulp_kernels::Benchmark;

use crate::request::{DeadlineClass, ServeRequest};

/// Magic prefix of a binary trace.
pub const TRACE_MAGIC: [u8; 4] = *b"UTRC";
/// Current trace format version.
pub const TRACE_VERSION: u16 = 1;
/// Schema string of the JSON encoding.
pub const TRACE_SCHEMA: &str = "ulp-serve-trace-v1";
/// Bytes per binary record.
const RECORD_BYTES: usize = 28;
/// Bytes of the binary header (magic + version + reserved + count).
const HEADER_BYTES: usize = 16;

/// Why a trace failed to decode.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TraceError {
    /// Fewer bytes than the header, records, and checksum require.
    Truncated,
    /// The first four bytes are neither `UTRC` nor a JSON header.
    BadMagic,
    /// A version this decoder does not speak.
    BadVersion(u16),
    /// The record bytes do not hash to the stored checksum.
    BadChecksum,
    /// A kernel index outside [`Benchmark::ALL`], as written.
    BadKernel(u64),
    /// A class rank outside [`DeadlineClass::ALL`], as written.
    BadClass(u64),
    /// A malformed JSON trace (message names the offending line).
    Json(String),
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Truncated => write!(f, "trace truncated"),
            TraceError::BadMagic => write!(f, "not a request trace (bad magic)"),
            TraceError::BadVersion(v) => write!(f, "unsupported trace version {v}"),
            TraceError::BadChecksum => write!(f, "trace checksum mismatch (corrupt records)"),
            TraceError::BadKernel(k) => write!(f, "kernel index {k} outside the benchmark table"),
            TraceError::BadClass(c) => write!(f, "class rank {c} outside the deadline classes"),
            TraceError::Json(msg) => write!(f, "malformed JSON trace: {msg}"),
        }
    }
}

impl std::error::Error for TraceError {}

/// FNV-1a 64 over raw bytes — the trace checksum.
fn fnv1a_bytes(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// Records a request stream and encodes it to the versioned trace
/// formats.
#[derive(Clone, Debug, Default)]
pub struct TraceRecorder {
    records: Vec<ServeRequest>,
}

impl TraceRecorder {
    /// An empty recorder.
    #[must_use]
    pub fn new() -> Self {
        TraceRecorder::default()
    }

    /// Appends one request to the trace.
    pub fn record(&mut self, r: &ServeRequest) {
        self.records.push(*r);
    }

    /// Appends a whole stream in order.
    pub fn record_all(&mut self, rs: &[ServeRequest]) {
        self.records.extend_from_slice(rs);
    }

    /// Recorded requests, in record order.
    #[must_use]
    pub fn requests(&self) -> &[ServeRequest] {
        &self.records
    }

    /// Recorded request count.
    #[must_use]
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// `true` when nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Encodes the trace in the binary format.
    ///
    /// # Panics
    ///
    /// Panics when a recorded request's kernel is not in
    /// [`Benchmark::ALL`] — impossible for requests built from the
    /// benchmark table.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(HEADER_BYTES + self.records.len() * RECORD_BYTES + 8);
        out.extend_from_slice(&TRACE_MAGIC);
        out.extend_from_slice(&TRACE_VERSION.to_le_bytes());
        out.extend_from_slice(&0u16.to_le_bytes());
        out.extend_from_slice(&(self.records.len() as u64).to_le_bytes());
        for r in &self.records {
            let kernel = Benchmark::ALL
                .iter()
                .position(|&b| b == r.benchmark)
                .expect("recorded kernel must be in the benchmark table")
                as u8;
            out.extend_from_slice(&r.id.to_le_bytes());
            out.extend_from_slice(&r.arrival_ns.to_le_bytes());
            out.extend_from_slice(&(r.tenant as u32).to_le_bytes());
            out.extend_from_slice(&(r.iterations as u32).to_le_bytes());
            out.push(kernel);
            out.push(r.class.rank());
            out.extend_from_slice(&0u16.to_le_bytes());
        }
        let checksum = fnv1a_bytes(&out[HEADER_BYTES..]);
        out.extend_from_slice(&checksum.to_le_bytes());
        out
    }

    /// Encodes the trace in the line-oriented JSON format.
    #[must_use]
    pub fn encode_json(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{{\"schema\":\"{TRACE_SCHEMA}\",\"count\":{}}}\n",
            self.records.len()
        ));
        for r in &self.records {
            let kernel = Benchmark::ALL
                .iter()
                .position(|&b| b == r.benchmark)
                .expect("recorded kernel must be in the benchmark table");
            out.push_str(&format!(
                "{{\"id\":{},\"tenant\":{},\"kernel\":{},\"kernel_name\":\"{}\",\
                 \"class\":{},\"arrival_ns\":{},\"iterations\":{}}}\n",
                r.id,
                r.tenant,
                kernel,
                r.benchmark.name(),
                r.class.rank(),
                r.arrival_ns,
                r.iterations
            ));
        }
        out
    }
}

/// Decodes a recorded trace and hands the stream back for replay.
#[derive(Clone, Debug)]
pub struct TraceReplayer {
    requests: Vec<ServeRequest>,
}

impl TraceReplayer {
    /// Decodes either trace encoding, sniffing JSON by a leading `{`.
    ///
    /// # Errors
    ///
    /// Any [`TraceError`] the bytes earn.
    pub fn decode(bytes: &[u8]) -> Result<Self, TraceError> {
        if bytes.first() == Some(&b'{') {
            let text = std::str::from_utf8(bytes)
                .map_err(|_| TraceError::Json("not valid UTF-8".into()))?;
            return Self::decode_json(text);
        }
        Self::decode_binary(bytes)
    }

    fn decode_binary(bytes: &[u8]) -> Result<Self, TraceError> {
        if bytes.len() < HEADER_BYTES + 8 {
            return Err(TraceError::Truncated);
        }
        if bytes[..4] != TRACE_MAGIC {
            return Err(TraceError::BadMagic);
        }
        let version = u16::from_le_bytes([bytes[4], bytes[5]]);
        if version != TRACE_VERSION {
            return Err(TraceError::BadVersion(version));
        }
        // The count is untrusted: a body it cannot describe exactly —
        // including one too large to address — is a truncated file.
        let count = usize::try_from(u64::from_le_bytes(
            bytes[8..16].try_into().expect("8 bytes"),
        ))
        .map_err(|_| TraceError::Truncated)?;
        let body_end = count
            .checked_mul(RECORD_BYTES)
            .and_then(|body| body.checked_add(HEADER_BYTES))
            .filter(|&end| end.checked_add(8) == Some(bytes.len()))
            .ok_or(TraceError::Truncated)?;
        let stored = u64::from_le_bytes(bytes[body_end..].try_into().expect("8 bytes"));
        if fnv1a_bytes(&bytes[HEADER_BYTES..body_end]) != stored {
            return Err(TraceError::BadChecksum);
        }
        let mut requests = Vec::with_capacity(count);
        for rec in bytes[HEADER_BYTES..body_end].chunks_exact(RECORD_BYTES) {
            requests.push(ServeRequest {
                id: u64::from_le_bytes(rec[..8].try_into().expect("8 bytes")),
                arrival_ns: u64::from_le_bytes(rec[8..16].try_into().expect("8 bytes")),
                tenant: u32::from_le_bytes(rec[16..20].try_into().expect("4 bytes")) as usize,
                iterations: u32::from_le_bytes(rec[20..24].try_into().expect("4 bytes")) as usize,
                benchmark: decode_kernel(u64::from(rec[24]))?,
                class: decode_class(u64::from(rec[25]))?,
            });
        }
        Ok(TraceReplayer { requests })
    }

    /// Decodes the line-oriented JSON encoding.
    ///
    /// # Errors
    ///
    /// [`TraceError::Json`] on malformed text, plus the kernel/class
    /// range errors of the binary decoder.
    pub fn decode_json(text: &str) -> Result<Self, TraceError> {
        let mut lines = text.lines();
        let header = lines
            .next()
            .ok_or_else(|| TraceError::Json("empty".into()))?;
        if !header.contains(&format!("\"schema\":\"{TRACE_SCHEMA}\"")) {
            return Err(TraceError::Json(format!(
                "header missing schema {TRACE_SCHEMA:?}: {header}"
            )));
        }
        let count = json_u64(header, "count")?;
        // Every record is a line of its own: reserve what the text holds,
        // not what the header promises.
        let mut requests = Vec::with_capacity(lines.clone().count());
        for line in lines.filter(|l| !l.trim().is_empty()) {
            requests.push(ServeRequest {
                id: json_u64(line, "id")?,
                tenant: json_u64(line, "tenant")? as usize,
                benchmark: decode_kernel(json_u64(line, "kernel")?)?,
                iterations: json_u64(line, "iterations")? as usize,
                class: decode_class(json_u64(line, "class")?)?,
                arrival_ns: json_u64(line, "arrival_ns")?,
            });
        }
        if requests.len() as u64 != count {
            return Err(TraceError::Json(format!(
                "header promises {count} records, found {}",
                requests.len()
            )));
        }
        Ok(TraceReplayer { requests })
    }

    /// The decoded request stream — feed it to any
    /// [`ServePool::run`](crate::ServePool::run) or
    /// [`Fleet::run`](crate::Fleet::run); the byte-identical stream
    /// makes the runs exact A/B comparisons.
    #[must_use]
    pub fn requests(&self) -> &[ServeRequest] {
        &self.requests
    }

    /// Consumes the replayer, handing the stream out by value.
    #[must_use]
    pub fn into_requests(self) -> Vec<ServeRequest> {
        self.requests
    }
}

/// The kernel at a wire index, range-checked before any narrowing.
fn decode_kernel(index: u64) -> Result<Benchmark, TraceError> {
    usize::try_from(index)
        .ok()
        .and_then(|i| Benchmark::ALL.get(i).copied())
        .ok_or(TraceError::BadKernel(index))
}

/// The class of a wire rank, compared without narrowing.
fn decode_class(rank: u64) -> Result<DeadlineClass, TraceError> {
    DeadlineClass::ALL
        .into_iter()
        .find(|c| u64::from(c.rank()) == rank)
        .ok_or(TraceError::BadClass(rank))
}

/// Extracts `"key":<u64>` from one hand-rolled JSON line.
fn json_u64(line: &str, key: &str) -> Result<u64, TraceError> {
    let pat = format!("\"{key}\":");
    let at = line
        .find(&pat)
        .ok_or_else(|| TraceError::Json(format!("missing {key:?} in {line}")))?;
    let digits: String = line[at + pat.len()..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits
        .parse()
        .map_err(|_| TraceError::Json(format!("non-numeric {key:?} in {line}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loadgen::{TenantLoad, WorkloadSpec};
    use crate::request::TenantSpec;

    fn stream() -> Vec<ServeRequest> {
        WorkloadSpec {
            seed: 77,
            duration_ns: 200_000_000,
            tenants: vec![TenantLoad {
                class_mix: [1.0, 1.0, 1.0],
                ..TenantLoad::uniform(TenantSpec::new("t"), 500.0, &Benchmark::ALL[..3])
            }],
        }
        .generate()
    }

    fn eq_streams(a: &[ServeRequest], b: &[ServeRequest]) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert_eq!(x.id, y.id);
            assert_eq!(x.tenant, y.tenant);
            assert_eq!(x.benchmark, y.benchmark);
            assert_eq!(x.iterations, y.iterations);
            assert_eq!(x.class, y.class);
            assert_eq!(x.arrival_ns, y.arrival_ns);
        }
    }

    #[test]
    fn binary_round_trip_is_byte_identical() {
        let reqs = stream();
        let mut rec = TraceRecorder::new();
        rec.record_all(&reqs);
        let bytes = rec.encode();
        let replay = TraceReplayer::decode(&bytes).unwrap();
        eq_streams(&reqs, replay.requests());
        // Re-encoding the decoded stream reproduces the bytes exactly.
        let mut rec2 = TraceRecorder::new();
        rec2.record_all(replay.requests());
        assert_eq!(rec2.encode(), bytes);
    }

    #[test]
    fn json_round_trip_is_byte_identical() {
        let reqs = stream();
        let mut rec = TraceRecorder::new();
        rec.record_all(&reqs);
        let text = rec.encode_json();
        assert!(text.starts_with(&format!("{{\"schema\":\"{TRACE_SCHEMA}\"")));
        let replay = TraceReplayer::decode(text.as_bytes()).unwrap();
        eq_streams(&reqs, replay.requests());
        let mut rec2 = TraceRecorder::new();
        rec2.record_all(replay.requests());
        assert_eq!(rec2.encode_json(), text);
    }

    #[test]
    fn corruption_is_caught() {
        let mut rec = TraceRecorder::new();
        rec.record_all(&stream());
        let good = rec.encode();

        let mut flipped = good.clone();
        flipped[HEADER_BYTES + 3] ^= 0x40;
        assert_eq!(
            TraceReplayer::decode(&flipped).unwrap_err(),
            TraceError::BadChecksum
        );

        assert_eq!(
            TraceReplayer::decode(&good[..good.len() - 1]).unwrap_err(),
            TraceError::Truncated
        );

        let mut magic = good.clone();
        magic[0] = b'X';
        assert_eq!(
            TraceReplayer::decode(&magic).unwrap_err(),
            TraceError::BadMagic
        );

        let mut version = good;
        version[4] = 9;
        assert_eq!(
            TraceReplayer::decode(&version).unwrap_err(),
            TraceError::BadVersion(9)
        );
    }

    #[test]
    fn bad_kernel_and_class_indices_are_caught() {
        let mut rec = TraceRecorder::new();
        rec.record(&stream()[0]);
        let mut bytes = rec.encode();
        bytes[HEADER_BYTES + 24] = 250; // kernel byte of record 0
                                        // Checksum covers the record bytes, so recompute it to reach the
                                        // kernel check.
        let body_end = bytes.len() - 8;
        let sum = fnv1a_bytes(&bytes[HEADER_BYTES..body_end]);
        bytes[body_end..].copy_from_slice(&sum.to_le_bytes());
        assert_eq!(
            TraceReplayer::decode(&bytes).unwrap_err(),
            TraceError::BadKernel(250)
        );

        let mut rec = TraceRecorder::new();
        rec.record(&stream()[0]);
        let mut bytes = rec.encode();
        bytes[HEADER_BYTES + 25] = 9; // class byte of record 0
        let sum = fnv1a_bytes(&bytes[HEADER_BYTES..body_end]);
        bytes[body_end..].copy_from_slice(&sum.to_le_bytes());
        assert_eq!(
            TraceReplayer::decode(&bytes).unwrap_err(),
            TraceError::BadClass(9)
        );
    }

    #[test]
    fn empty_trace_round_trips() {
        let rec = TraceRecorder::new();
        assert!(rec.is_empty());
        let replay = TraceReplayer::decode(&rec.encode()).unwrap();
        assert!(replay.requests().is_empty());
        let replay = TraceReplayer::decode(rec.encode_json().as_bytes()).unwrap();
        assert!(replay.into_requests().is_empty());
    }
}
