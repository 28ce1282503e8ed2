//! The tracker's vision kernels — real pixel computation on synthetic
//! frames, so execution times are data-dependent exactly as the paper's
//! §3.1 describes ("computation is data-dependent (for example, looking for
//! a specific object in a video frame)").

pub mod background;
pub mod detect;
pub mod histogram;
#[cfg(test)]
mod reference;

pub use background::subtract_background;
pub use detect::detect_target;
pub use histogram::build_histogram;
