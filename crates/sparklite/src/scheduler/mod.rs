//! The DAG scheduler and the discrete-event task execution simulation.

pub mod dag;
mod dispatch;
mod epochs;
pub mod executor;
mod launch;
mod recovery;
pub mod sim;
mod state;

pub use dag::{build_plan, Stage, StageId, StageKind, StagePlan};
pub use executor::ExecutorSpec;
pub use sim::JobRunner;
pub use state::RunState;
