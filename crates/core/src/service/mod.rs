//! Alignment-as-a-service: the overload-safe daemon core behind the
//! `pimserve` binary (DESIGN.md §13).
//!
//! One warm [`Platform`](crate::Platform) is shared by a small set of
//! blocking threads that together make the service robust under load
//! rather than merely fast when idle:
//!
//! * [`protocol`] — the length-prefixed wire format and a blocking
//!   [`Client`](protocol::Client) shared by server, `pimbench` and tests;
//! * [`queue`] — the bounded, byte-accounted admission queue with
//!   load-shedding and a work-conserving batch take;
//! * [`server`] — acceptor/readers/batcher threads, per-request
//!   deadlines, `catch_unwind` panic quarantine and graceful drain;
//! * [`obs`] — the live observability plane: rolling-window per-second
//!   telemetry buckets, request-scoped trace ids + slow-request log,
//!   the `Stats`/`Prom` live exposition and the batcher-stall watchdog.
//!
//! Everything the control plane decides is counted in
//! [`ServiceTelemetry`](crate::ServiceTelemetry) and lands in the
//! metrics JSON's `service` section, so the SLO story is measurable —
//! and, since PR 10, observable live over the wire mid-run.

use std::error::Error;
use std::fmt;

pub mod obs;
pub mod protocol;
pub mod queue;
pub mod server;

pub use server::{serve, ServeSummary, ServerHandle};

/// Limits and behaviour knobs for one serving run.
///
/// Validation is strict — a queue that can hold nothing or a pool with
/// no threads is a configuration error to reject up front
/// ([`ServiceConfig::validate`]), not a downstream panic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceConfig {
    /// Worker threads per alignment batch.
    pub threads: usize,
    /// Most reads coalesced into one `align_chunk_parallel` call (at
    /// most [`EPOCH_STRIDE`](crate::EPOCH_STRIDE)).
    pub batch_max: usize,
    /// Bounded admission queue depth.
    pub queue_depth: usize,
    /// In-flight payload byte budget (admitted but unanswered).
    pub max_inflight_bytes: usize,
    /// Server-side default deadline applied to requests that carry none
    /// (milliseconds; 0 = no default).
    pub default_deadline_ms: u32,
    /// Base of the retry-after hint on shed rejections.
    pub retry_after_base_ms: u32,
    /// Try the reverse complement when the forward strand fails.
    pub both_strands: bool,
    /// Enable the deterministic test-fault hooks (`__panic__`,
    /// `__stall_ms_N__` read ids). Never enable in production.
    pub test_faults: bool,
    /// Rolling-window ring capacity for the observability plane,
    /// seconds (`--obs-window`).
    pub obs_window_secs: u32,
    /// Watchdog head-of-queue stall threshold, milliseconds
    /// (`--watchdog-ms`; 0 disables the watchdog thread).
    pub watchdog_threshold_ms: u32,
}

impl Default for ServiceConfig {
    fn default() -> ServiceConfig {
        ServiceConfig {
            threads: 2,
            batch_max: 64,
            queue_depth: 256,
            max_inflight_bytes: 8 << 20,
            default_deadline_ms: 0,
            retry_after_base_ms: 20,
            both_strands: true,
            test_faults: false,
            obs_window_secs: obs::DEFAULT_OBS_WINDOW_SECS,
            watchdog_threshold_ms: obs::DEFAULT_WATCHDOG_THRESHOLD_MS,
        }
    }
}

impl ServiceConfig {
    /// Rejects configurations that cannot serve.
    ///
    /// # Errors
    ///
    /// [`ServiceError::InvalidConfig`] naming the offending knob.
    pub fn validate(&self) -> Result<(), ServiceError> {
        if self.threads == 0 {
            return Err(ServiceError::InvalidConfig(
                "--threads must be at least 1".to_owned(),
            ));
        }
        if self.batch_max == 0 || self.batch_max > crate::EPOCH_STRIDE {
            return Err(ServiceError::InvalidConfig(format!(
                "--batch-max must be between 1 and {}",
                crate::EPOCH_STRIDE
            )));
        }
        if self.queue_depth == 0 {
            return Err(ServiceError::InvalidConfig(
                "--queue-depth must be at least 1 (a zero-depth queue admits nothing)".to_owned(),
            ));
        }
        if self.max_inflight_bytes == 0 {
            return Err(ServiceError::InvalidConfig(
                "--max-inflight-bytes must be positive".to_owned(),
            ));
        }
        if self.obs_window_secs == 0 || self.obs_window_secs > 3600 {
            return Err(ServiceError::InvalidConfig(
                "--obs-window must be between 1 and 3600 seconds".to_owned(),
            ));
        }
        Ok(())
    }
}

/// Why the service could not start.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServiceError {
    /// A configuration knob fails validation (usage error: fix the
    /// flags).
    InvalidConfig(String),
    /// The listener could not bind (environment error).
    Bind {
        /// The requested listen address.
        addr: String,
        /// The OS error text.
        message: String,
    },
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::InvalidConfig(msg) => write!(f, "invalid service configuration: {msg}"),
            ServiceError::Bind { addr, message } => {
                write!(f, "cannot bind {addr}: {message}")
            }
        }
    }
}

impl Error for ServiceError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_validates() {
        assert_eq!(ServiceConfig::default().validate(), Ok(()));
    }

    #[test]
    fn zero_knobs_are_rejected_with_named_flags() {
        for (field, patch) in [
            (
                "--threads",
                &(|c: &mut ServiceConfig| c.threads = 0) as &dyn Fn(&mut ServiceConfig),
            ),
            ("--batch-max", &|c: &mut ServiceConfig| c.batch_max = 0),
            ("--batch-max", &|c: &mut ServiceConfig| c.batch_max = 65_537),
            ("--queue-depth", &|c: &mut ServiceConfig| c.queue_depth = 0),
            ("--max-inflight-bytes", &|c: &mut ServiceConfig| {
                c.max_inflight_bytes = 0
            }),
            ("--obs-window", &|c: &mut ServiceConfig| {
                c.obs_window_secs = 0
            }),
        ] {
            let mut config = ServiceConfig::default();
            patch(&mut config);
            let err = config.validate().unwrap_err();
            match err {
                ServiceError::InvalidConfig(msg) => {
                    assert!(msg.contains(field), "{field} missing from {msg:?}")
                }
                other => panic!("expected InvalidConfig, got {other:?}"),
            }
        }
    }

    #[test]
    fn bind_error_names_the_address() {
        let e = ServiceError::Bind {
            addr: "127.0.0.1:1".to_owned(),
            message: "permission denied".to_owned(),
        };
        let msg = e.to_string();
        assert!(msg.contains("127.0.0.1:1"));
        assert!(msg.contains("permission denied"));
    }
}
