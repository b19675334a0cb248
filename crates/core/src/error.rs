//! The tool's unified error type.

use std::fmt;

/// Any error the FireMarshal tool can surface to a user.
#[derive(Debug, Clone, PartialEq)]
pub enum MarshalError {
    /// Workload specification problems.
    Config(marshal_config::ConfigError),
    /// Incremental build engine failures.
    Build(marshal_depgraph::BuildError),
    /// Simulation failures.
    Sim(marshal_sim_functional::SimError),
    /// Kernel build failures.
    Linux(marshal_linux::LinuxError),
    /// Firmware/boot-binary failures.
    Firmware(marshal_firmware::FirmwareError),
    /// Filesystem image failures.
    Image(marshal_image::FsError),
    /// Host script (host-init / post-run-hook) failures.
    Script(String),
    /// An on-disk artifact failed its integrity check (bit-rot, torn
    /// write, or outside modification).
    Corrupt(String),
    /// Host I/O failures.
    Io(String),
    /// Anything else (bad CLI usage, missing artifacts, ...).
    Other(String),
}

impl fmt::Display for MarshalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MarshalError::Config(e) => write!(f, "config: {e}"),
            MarshalError::Build(e) => write!(f, "build: {e}"),
            MarshalError::Sim(e) => write!(f, "simulation: {e}"),
            MarshalError::Linux(e) => write!(f, "kernel: {e}"),
            MarshalError::Firmware(e) => write!(f, "firmware: {e}"),
            MarshalError::Image(e) => write!(f, "image: {e}"),
            MarshalError::Script(m) => write!(f, "script: {m}"),
            MarshalError::Corrupt(m) => write!(f, "corrupt artifact: {m}"),
            MarshalError::Io(m) => write!(f, "io: {m}"),
            MarshalError::Other(m) => write!(f, "{m}"),
        }
    }
}

impl std::error::Error for MarshalError {}

impl From<marshal_config::ConfigError> for MarshalError {
    fn from(e: marshal_config::ConfigError) -> MarshalError {
        MarshalError::Config(e)
    }
}

impl From<marshal_depgraph::BuildError> for MarshalError {
    fn from(e: marshal_depgraph::BuildError) -> MarshalError {
        MarshalError::Build(e)
    }
}

impl From<marshal_sim_functional::SimError> for MarshalError {
    fn from(e: marshal_sim_functional::SimError) -> MarshalError {
        MarshalError::Sim(e)
    }
}

impl From<marshal_linux::LinuxError> for MarshalError {
    fn from(e: marshal_linux::LinuxError) -> MarshalError {
        MarshalError::Linux(e)
    }
}

impl From<marshal_firmware::FirmwareError> for MarshalError {
    fn from(e: marshal_firmware::FirmwareError) -> MarshalError {
        MarshalError::Firmware(e)
    }
}

impl From<marshal_image::FsError> for MarshalError {
    fn from(e: marshal_image::FsError) -> MarshalError {
        MarshalError::Image(e)
    }
}

impl From<std::io::Error> for MarshalError {
    fn from(e: std::io::Error) -> MarshalError {
        MarshalError::Io(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_display() {
        let e: MarshalError = marshal_config::ConfigError::NotFound("x".into()).into();
        assert!(e.to_string().contains("not found"));
        let e: MarshalError = marshal_image::FsError::NotFound("/y".into()).into();
        assert!(e.to_string().starts_with("image:"));
        let e = MarshalError::Other("plain".into());
        assert_eq!(e.to_string(), "plain");
    }
}
