//! Circuit-level memory models and functional arrays for CAMA.
//!
//! This crate is the reproduction's substitute for the paper's SPICE
//! simulations of custom TSMC 28 nm arrays:
//!
//! * [`units`] — strongly-typed energy/delay/area/leakage quantities;
//! * [`models`] — Table III's circuit numbers, plus analytic scaling fits
//!   (periphery vs. cell terms) for geometries the paper uses but does
//!   not tabulate (64×256 CAM, 256×32 encoder, 96×96 RCB, …), calibrated
//!   against every value the text quotes;
//! * [`cam_array`] — a functional 8T CAM bank with selective precharge
//!   and NO inverters (the state-matching memory of §IV.A);
//! * [`crossbar`] — 8T SRAM crossbars: the full crossbar (FCB), the
//!   diagonal-remapped reduced crossbar with `k_dia = 43` (RRCB, §IV.B),
//!   and the RRCB's full-crossbar reconfiguration.

#![forbid(unsafe_code)]

pub mod cam_array;
pub mod crossbar;
pub mod models;
pub mod units;

pub use cam_array::CamBank;
pub use crossbar::{FullCrossbar, LocalSwitch, ReducedCrossbar, K_DIA};
pub use models::{ArrayModel, CircuitLibrary};
pub use units::{Area, Delay, Energy, Leakage};
