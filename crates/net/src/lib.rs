//! `mmjoin-net` — the TCP front end of the join service.
//!
//! The service crate turns the engines into a long-lived *process*;
//! this crate turns that process into a *server*: a length-prefixed
//! binary protocol over plain `std::net` TCP (the workspace is offline
//! — no tokio, no async), shared by the `mmjoin-netd` daemon and the
//! `mmjoin-cli` client.
//!
//! * [`frame`] — `u32` little-endian length prefix + payload, capped at
//!   [`frame::MAX_FRAME`].
//! * [`wire`] — the tagged request/response messages inside frames,
//!   with a status byte distinguishing success, errors, admission
//!   rejections ([`wire::Status::Overloaded`]) and drain mode
//!   ([`wire::Status::ShuttingDown`]).
//! * [`server`] — one thread per connection (kept for the next one
//!   when it ends, up to the slot count), which runs each request to its
//!   answer through the shared grammar after taking one of a fixed number
//!   of compute slots (granted in ticket order, with a bounded number of
//!   waiters; a cache hit takes none), and graceful shutdown that drains
//!   every request holding or waiting for a slot.
//! * [`client`] — a blocking client with request/response and
//!   pipelined modes.
//!
//! Commands on the wire are lines in the *same* grammar the stdin REPL
//! speaks ([`mmjoin_service::command`]): one grammar, two transports.

pub mod client;
pub mod frame;
pub mod server;
pub mod wire;

pub use client::Client;
pub use server::{serve, NetConfig, NetMetricsSnapshot, Server};
pub use wire::{Status, WireRequest, WireResponse};
