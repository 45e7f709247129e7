//! Small self-contained mathematical substrate for the PID-Piper reproduction.
//!
//! The paper's pipeline needs a handful of numerical tools that we implement
//! from scratch rather than pulling in heavyweight dependencies:
//!
//! - 3-vector / 3x3-matrix geometry for rigid-body simulation ([`vec3`], [`mat3`]);
//! - small dense matrices with QR-based least squares for system
//!   identification (SRR baseline) and VIF regressions ([`matrix`]);
//! - descriptive statistics and rolling windows ([`stats`]);
//! - the Variance Inflation Factor collinearity metric from Section III of
//!   the paper ([`mod@vif`]);
//! - dynamic time warping used for threshold calibration ([`dtw`]);
//! - the CUSUM change detector used by the monitoring module ([`cusum`]);
//! - angle helpers (wrapping, degree/radian conversion) ([`angles`]);
//! - op-order-preserving cache-blocked matrix–matrix micro-kernels for
//!   batched fleet inference ([`gemm`]);
//! - branch-free, auto-vectorizable sigmoid/tanh/exp kernels shared by
//!   every inference path ([`activations`]);
//! - NaN-safe total-order comparison helpers ([`float`]) — the required
//!   replacement for `partial_cmp().unwrap()` and float `==` throughout
//!   the workspace (enforced by `pidpiper-analyzer`).
//!
//! # Examples
//!
//! ```
//! use pidpiper_math::cusum::Cusum;
//!
//! let mut monitor = Cusum::new(0.5);
//! // Transient residuals below the drift never accumulate:
//! assert_eq!(monitor.update(0.2), 0.0);
//! // Systematic residuals do:
//! for _ in 0..10 { monitor.update(1.5); }
//! assert!(monitor.statistic() > 5.0);
//! ```

#![deny(missing_docs)]

pub mod activations;
pub mod angles;
pub mod cusum;
pub mod dtw;
pub mod float;
pub mod gemm;
pub mod mat3;
pub mod matrix;
pub mod stats;
pub mod vec3;
pub mod vif;

pub use angles::{deg_to_rad, rad_to_deg, wrap_angle};
pub use cusum::Cusum;
pub use dtw::{dtw_distance, dtw_path};
pub use float::{approx_eq, fmax, fmin, is_zero, sort_floats};
pub use gemm::{gemm_acc, gemm_bias};
pub use mat3::Mat3;
pub use matrix::Matrix;
pub use stats::{mean, population_variance, sample_variance, std_dev, RollingWindow};
pub use vec3::Vec3;
pub use vif::{vif, vif_all};
