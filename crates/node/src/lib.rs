//! # sc-node — a runnable SecureCyclon daemon
//!
//! Graduates the protocol from in-memory simulation to real sockets: a
//! single-threaded event-loop daemon over non-blocking `std::net`
//! (poll-style readiness; the build environment has no registry access,
//! so no tokio), running [`sc_core::SecureCyclonNode`] behind a small
//! [`Transport`](transport::Transport) trait.
//!
//! * [`frame`] — length-prefixed framing over `wire::encode_message` /
//!   `wire::decode_message`, with per-connection read budgets.
//! * [`transport`] — the `Transport` trait and its TCP implementation
//!   with connect/read timeouts and deterministic retry/backoff.
//! * [`fault`] — a deterministic fault-injecting `Transport` wrapper
//!   (seeded drop/delay/duplication, partitions, resets, throttling).
//! * [`control`] — the control-socket status protocol test harnesses
//!   scrape live state through.
//! * [`daemon`] — the event loop: clock-driven gossip cycles, exchanges
//!   driven from frames while other traffic is served, the §V-A
//!   bootstrap/sponsorship join handshake.
//! * [`config`] — daemon configuration and the flag parser the `sc-node`
//!   binary uses.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod control;
pub mod daemon;
pub mod fault;
pub mod frame;
pub mod transport;

pub use config::NodeConfig;
pub use control::{ControlClient, StatusReport};
pub use daemon::Daemon;
pub use fault::FaultTransport;
pub use frame::{Frame, FrameError, FrameKind, FRAME_HEADER_BYTES};
pub use transport::{TcpTransport, Transport};
