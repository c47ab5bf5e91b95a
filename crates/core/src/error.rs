//! The crate-level error type.

use core::fmt;

/// Errors surfaced by Kalis' public API.
#[derive(Debug)]
#[non_exhaustive]
// kalis-lint: allow(KL306): named by the `pub` signature of `ModuleRegistry::build`
pub enum KalisError {
    /// A configuration file failed to parse.
    Config(crate::config::ConfigError),
    /// A configuration referenced a module name the registry does not know.
    UnknownModule {
        /// The unresolvable module name.
        name: String,
    },
    /// A collective-knowledge message was rejected.
    SyncRejected {
        /// The peer whose message was rejected (`"unknown"` when the
        /// frame failed authentication before the sender was readable).
        peer: String,
        /// Why the message was rejected.
        reason: String,
    },
    /// A peer is Dead (or was never discovered) and cannot be synced to.
    PeerUnreachable {
        /// The unreachable peer.
        peer: String,
    },
    /// A module is quarantined by the supervisor (crash loop or repeated
    /// watchdog-budget overruns) and is excluded from dispatch until its
    /// backoff expires.
    ModuleQuarantined {
        /// The quarantined module's registry name.
        module: String,
    },
    /// The ingest rate exceeds what the pipeline sustains and the
    /// overload controller is shedding work; callers that can apply
    /// backpressure should slow down.
    PipelineOverload {
        /// Observed arrival rate (packets over the trailing second).
        rate: u64,
        /// Configured sustainable capacity (packets per second).
        capacity: u64,
    },
    /// An I/O failure (trace logging, config loading).
    Io(std::io::Error),
}

impl fmt::Display for KalisError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KalisError::Config(e) => write!(f, "configuration error: {e}"),
            KalisError::UnknownModule { name } => {
                write!(f, "unknown module `{name}` (not in the module registry)")
            }
            KalisError::SyncRejected { peer, reason } => {
                write!(
                    f,
                    "collective knowledge message from `{peer}` rejected: {reason}"
                )
            }
            KalisError::PeerUnreachable { peer } => {
                write!(f, "peer `{peer}` is unreachable (Dead or undiscovered)")
            }
            KalisError::ModuleQuarantined { module } => {
                write!(
                    f,
                    "module `{module}` is quarantined by the supervisor (awaiting backoff expiry)"
                )
            }
            KalisError::PipelineOverload { rate, capacity } => {
                write!(
                    f,
                    "pipeline overloaded: {rate} pkt/s observed against {capacity} pkt/s capacity, shedding engaged"
                )
            }
            KalisError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for KalisError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            KalisError::Config(e) => Some(e),
            KalisError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<crate::config::ConfigError> for KalisError {
    fn from(value: crate::config::ConfigError) -> Self {
        KalisError::Config(value)
    }
}

impl From<std::io::Error> for KalisError {
    fn from(value: std::io::Error) -> Self {
        KalisError::Io(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error;

    #[test]
    fn display_covers_variants() {
        let e = KalisError::UnknownModule {
            name: "Nope".into(),
        };
        assert!(e.to_string().contains("Nope"));
        let e = KalisError::SyncRejected {
            peer: "K2".into(),
            reason: "creator mismatch".into(),
        };
        assert!(e.to_string().contains("creator mismatch"));
        assert!(e.to_string().contains("K2"), "rejection names the peer");
        let e = KalisError::PeerUnreachable { peer: "K9".into() };
        assert!(e.to_string().contains("K9"));
        let e = KalisError::ModuleQuarantined {
            module: "SybilModule".into(),
        };
        assert!(e.to_string().contains("SybilModule"));
        assert!(e.to_string().contains("quarantined"));
        let e = KalisError::PipelineOverload {
            rate: 9001,
            capacity: 5000,
        };
        assert!(e.to_string().contains("9001"));
        assert!(e.to_string().contains("5000"));
    }

    #[test]
    fn source_is_populated_only_for_wrapped_errors() {
        let io = KalisError::Io(std::io::Error::new(std::io::ErrorKind::NotFound, "disk"));
        assert!(io.source().is_some());
        for plain in [
            KalisError::PeerUnreachable { peer: "K2".into() },
            KalisError::SyncRejected {
                peer: "K2".into(),
                reason: "bad".into(),
            },
            KalisError::ModuleQuarantined {
                module: "SybilModule".into(),
            },
            KalisError::PipelineOverload {
                rate: 2,
                capacity: 1,
            },
        ] {
            assert!(plain.source().is_none());
        }
    }
}
