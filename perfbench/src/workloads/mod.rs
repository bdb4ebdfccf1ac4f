//! The five workloads. Each is a single-client closed loop; README.md says
//! why each was chosen and which layer metrics it should move.

pub mod ag;
pub mod avl;
pub mod lang;
pub mod memo;
pub mod sheet;
