//! # marshal-netstore
//!
//! Resilient artifact distribution for marshal workdirs: turns the
//! content-addressed blob pool (`workdir/objects/`) into a fleet-scale
//! artifact cache, so two machines building the same workload spec transfer
//! only the bytes the receiver is missing.
//!
//! - [`proto`]: a length-prefixed, checksummed frame protocol with a version
//!   handshake and batched blob requests.
//! - [`transport`]: the pluggable [`Transport`] trait — real TCP, an
//!   in-process loopback for tests, and a [`FaultTransport`] shim that
//!   injects deterministic network faults.
//! - [`server`]: the `marshal serve` daemon — thread-per-connection with
//!   per-connection read deadlines, malformed-frame rejection without
//!   crashing, and graceful drain on SIGINT.
//! - [`client`]: the fetch-before-build client — bounded retries with
//!   exponential backoff and deterministic jitter, a circuit breaker that
//!   degrades a whole build to local-only after consecutive failures, and
//!   hash verification with quarantine of every received blob.
//!
//! Robustness is the headline: a dead or lying daemon must cost one timeout
//! and a structured warning, never a wedged or failed build.

#![warn(missing_docs)]

pub mod client;
pub mod proto;
pub mod server;
pub mod transport;

pub use client::{RemoteFetchSummary, RemoteStore, RetryPolicy};
pub use proto::{decode_frame, encode_frame, Message, NetError, NET_VERSION};
pub use server::{ServeSummary, Server, ServerHandle};
pub use transport::{
    FaultPlan, FaultTransport, LoopbackTransport, NetFaultKind, TcpTransport, Transport,
};
