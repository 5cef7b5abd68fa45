//! # probranch-serve
//!
//! The resilient sweep service: serves the figure/table sweeps of the
//! `probranch` reproduction over a socket, wrapping one long-lived
//! shared trace store so every request benefits from (and feeds) the
//! same capture pool. Std-only networking — a small length-prefixed
//! framed protocol over [`std::net::TcpListener`]; no async runtime,
//! no serialization dependency (see [`protocol`]).
//!
//! The crate is transport plus robustness framework: the [`Server`]
//! is generic over a sweep handler (`Fn(&SweepRequest) -> SweepOutcome`),
//! and the `figures --serve` binary wires that handler to the
//! experiment layer. Four robustness layers, one per failure mode a
//! long-running service meets:
//!
//! * **Admission control** — a fixed in-flight budget of 4 sweeps: a
//!   request arriving while the budget is spent receives a structured
//!   [`Status::Overloaded`] response immediately (load-shedding, never
//!   accept-then-hang), and every connection carries 10 s read/write
//!   timeouts so a stalled peer cannot pin a thread. [`Server::bind`]
//!   takes only an address.
//! * **Request coalescing** — identical sweep requests (same section,
//!   scale and engine: [`SweepRequest::coalesce_key`]) share one
//!   computation: the first becomes the leader, later arrivals wait on
//!   its result and are counted ([`StatsSnapshot::coalesced`]). An `Ok`
//!   outcome is kept for the server's lifetime, so a repeated request
//!   is answered from memory; cancelled, failed and bad requests are
//!   not kept, so retries recompute. Handlers must therefore be
//!   deterministic in the key, and the kept outcomes are bounded by the
//!   keys a handler accepts. Together with the trace store's per-key
//!   capture locks, N concurrent requests for one emulation key perform
//!   exactly one capture.
//! * **Cooperative cancellation** — requests carry an optional
//!   deadline the handler turns into a `CancelToken`, the parent of
//!   every supervised cell attempt's token; the pipeline's chunk loops
//!   poll it, so an expired request stops consuming CPU within one
//!   chunk and fails with a structured [`Status::Cancelled`] response.
//! * **Graceful shutdown** — SIGTERM/ctrl-c (see
//!   [`install_signal_shutdown`]) or a protocol `shutdown` request
//!   drains in-flight sweeps to completion while answering new ones
//!   with [`Status::ShuttingDown`]. Each accepting thread serves the
//!   connection it accepts and then blocks in `accept` again, so a
//!   closed-loop client starts no thread per request; two threads wait
//!   in `accept`, and one more starts whenever a thread takes a
//!   connection while no other waits, so no client waits behind
//!   another client's connection. Once the drain completes, one
//!   connect to the listener's own port wakes each thread still in
//!   `accept`, and [`Server::run`] returns so the caller can write the
//!   pooled traces the trace directory is missing before exit.
//!
//! The request path is torture-testable end to end: the
//! `serve.{accept,read,write,drop}` failpoints of `probranch-faults`
//! inject dropped accepts, failed frame reads/writes and post-sweep
//! connection drops under a seeded plan armed on the thread that calls
//! [`Server::run`] (every accepting thread joins it), and
//! the bundled `probranch-client` binary retries transient transport
//! failures so a budget-capped fault plan heals to byte-identical
//! output.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod protocol;
pub mod server;
mod sig;

pub use client::{request, request_with_retry, wait_ready};
pub use protocol::{
    read_frame, write_frame, Request, Response, Status, SweepRequest, MAX_FRAME, PROTOCOL, SECTIONS,
};
pub use server::{Server, StatsSnapshot, SweepOutcome};
pub use sig::{install_signal_shutdown, signal_shutdown_flag};
