//! Message-passing substrate.
//!
//! The paper's implementation sits on a customized MPICH for the TH
//! Express-2 interconnect. Rust has no mature MPI tooling (the repro band's
//! `repro_why` calls this out), so this crate supplies the two halves the
//! reproduction needs:
//!
//! * [`real`] — an in-process "cluster": ranks are OS threads connected by
//!   crossbeam channels, with typed point-to-point sends and one receive
//!   (optional timeout, typed errors for silent or exited peers). A rank
//!   may hand its [`Inbox`] to a helper thread — exactly the helper-thread
//!   communication offload of the paper's Figure 8.
//! * [`model`] — the classic latency–bandwidth (the paper's `a`–`b`) cost
//!   model, plus NIC resources for the DES so receive-side serialization
//!   is captured.

pub mod model;
pub mod real;

pub use model::{ModeledNet, NetParams};
pub use real::{Cluster, Envelope, Inbox, RankCtx};
