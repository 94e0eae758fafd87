//! # kt-bench
//!
//! Support for the `perf` pipeline benchmark bin: the regression
//! checks it gates CI on ([`checks`]) and the Prometheus text
//! exposition validator behind its `--check-prom` mode ([`prom`]).

#![warn(missing_docs)]

pub mod checks;
pub mod prom;
