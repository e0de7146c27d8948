//! Typed errors for the public engine surface.
//!
//! The pre-serve engine crashed on bad input (`panic!` on unknown kernel
//! names, `assert!` on empty ladders, `String` errors from the planner).
//! That was tolerable for a CLI that validates everything up front; a
//! serving loop cannot afford it — `finbench-serve` maps every variant
//! into a typed `Rejected` response instead of taking the process down.

/// Everything that can go wrong when resolving kernels or plans
/// through the public `finbench-engine` surface.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineError {
    /// A kernel name that is not in the registry.
    UnknownKernel {
        /// The name that failed to resolve.
        name: String,
        /// Every registered kernel name, registration order.
        known: Vec<&'static str>,
    },
    /// A kernel with no rungs (or no cost levels) cannot be planned.
    EmptyLadder {
        /// The offending kernel.
        kernel: String,
    },
    /// An empty kernel-list operand (e.g. `--only ""` or `--only a,,b`).
    EmptyKernelList,
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::UnknownKernel { name, known } => {
                write!(f, "unknown kernel: {name} (kernels: {})", known.join(", "))
            }
            EngineError::EmptyLadder { kernel } => {
                write!(f, "kernel {kernel}: cannot plan an empty ladder")
            }
            EngineError::EmptyKernelList => {
                write!(f, "expected a comma-separated list of kernel names")
            }
        }
    }
}

impl std::error::Error for EngineError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_offender_and_the_valid_choices() {
        let e = EngineError::UnknownKernel {
            name: "black_sholes".into(),
            known: vec!["black_scholes", "rng"],
        };
        let msg = e.to_string();
        assert!(msg.contains("black_sholes"), "{msg}");
        assert!(msg.contains("black_scholes, rng"), "{msg}");

        let msg = EngineError::EmptyLadder {
            kernel: "toy".into(),
        }
        .to_string();
        assert!(msg.contains("toy"), "{msg}");
    }

    #[test]
    fn is_a_std_error() {
        let e: Box<dyn std::error::Error> = Box::new(EngineError::EmptyKernelList);
        assert!(!e.to_string().is_empty());
    }
}
