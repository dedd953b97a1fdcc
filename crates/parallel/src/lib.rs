//! The parallel EnKF implementations: L-EnKF, P-EnKF, S-EnKF and D-EnKF.
//!
//! Every variant exists in two interchangeable forms that share one
//! algorithmic description (the co-design described in DESIGN.md):
//!
//! * [`exec`] — **real executors**: ranks are OS threads
//!   ([`enkf_net::Cluster`]), ensemble members are real files
//!   ([`enkf_pfs::FileStore`]), block data travels over channels, and the
//!   S-EnKF helper thread genuinely overlaps reception with the main
//!   thread's local analyses (Fig. 8). Produces a bit-exact analysis
//!   ensemble plus wall-clock phase timings. Used for correctness and
//!   small-scale measurements.
//! * [`model`] — **modeled executors**: the same operation structure is
//!   emitted as a task DAG into the discrete-event engine
//!   ([`enkf_sim::Simulation`]) against modeled OSTs and NICs, which is how
//!   the paper-scale (12,000-processor) experiments of Figures 1, 5, 9–13
//!   are regenerated.
//!
//! The variants:
//!
//! * **L-EnKF** (`LEnkf`) — single reader: rank 0 reads members one by one
//!   and scatters expansion blocks (§6, the Keppenne-style baseline).
//! * **P-EnKF** (`PEnkf`) — block reading: all ranks read their own block
//!   of every file directly (Fig. 3), then analyze; phases strictly
//!   sequential. The state-of-the-art baseline the paper compares against.
//! * **S-EnKF** (`SEnkf`) — the paper's contribution: bar reading by
//!   dedicated I/O processors in `n_cg` concurrent groups (Figs. 6–7),
//!   multi-stage layered analysis overlapping I/O and communication with
//!   computation via helper threads (Fig. 8), parameters chosen by the
//!   auto-tuner (`enkf_tuning`).
//! * **D-EnKF** (`DEnkf`) — distributed-array non-sequential executor:
//!   every rank owns one full-width bar of the state, ranks all-to-all
//!   exchange observation-space blocks, and the whole network is
//!   assimilated in one batched covariance-form update whose `C⁻¹` kernel
//!   is selectable (dense Cholesky or the iterative Sherman-Morrison of
//!   arXiv 1302.3876).
//!
//! One value, [`CampaignExecutor`], names a variant with its configuration
//! in both worlds. [`CampaignExecutor::run`] runs one cycle on the real
//! executor and [`CampaignExecutor::model`] runs its DES mirror; each
//! takes a [`enkf_fault::FaultConfig`] (`FaultConfig::none()` for a clean
//! cycle) and an optional [`enkf_health::HealthMonitor`], and both return
//! the trace and fault log whose digests the conformance suites compare.
//! The per-variant structs ([`LEnkf`], [`PEnkf`], [`SEnkf`], [`DEnkf`])
//! each have the one `run` the dispatch calls.

pub mod campaign;
pub mod exec;
pub mod model;
pub mod report;

pub use campaign::{
    run_campaign, run_campaign_ctx, BackoffClock, CampaignConfig, CampaignCtx, CampaignError,
    CampaignExecutor, CampaignReport, CkptMode, RecoveryEvent,
};
pub use exec::denkf::DEnkf;
pub use exec::lenkf::LEnkf;
pub use exec::penkf::PEnkf;
pub use exec::senkf::SEnkf;
pub use exec::setup::AssimilationSetup;
pub use exec::writeback::parallel_write_back;
pub use model::campaign::{
    model_campaign, model_campaign_adaptive, CampaignModelOutcome, CampaignModelPlan, CyclePrice,
    ModelVariant,
};
pub use model::lenkf::model_lenkf_traced;
pub use model::penkf::model_penkf_traced;
pub use model::senkf::model_senkf_traced;
pub use model::{ModelConfig, ModelOutcome};
pub use report::{ExecutionReport, PhaseBreakdown};
