//! Typed errors for platform construction.

use serde::{Deserialize, Error, Value};
use std::fmt;

/// Errors produced when assembling an [`crate::HcSystem`] or
/// [`crate::HcInstance`].
#[derive(Debug, Clone, PartialEq)]
pub enum PlatformError {
    /// The machine set is empty.
    NoMachines,
    /// The execution-time matrix has the wrong shape.
    ExecShape {
        /// Expected `(machines, tasks)`.
        expected: (usize, usize),
        /// Actual `(rows, cols)`.
        actual: (usize, usize),
    },
    /// The transfer-time matrix has the wrong shape.
    TransferShape {
        /// Expected `(machine_pairs, data_items)`.
        expected: (usize, usize),
        /// Actual `(rows, cols)`.
        actual: (usize, usize),
    },
    /// A cost entry was NaN, infinite or negative.
    InvalidCost {
        /// Which matrix: `"E"` or `"Tr"`.
        matrix: &'static str,
        /// Row of the offending entry.
        row: usize,
        /// Column of the offending entry.
        col: usize,
        /// The offending value.
        value: f64,
    },
    /// An execution time was zero or negative — the paper's model requires
    /// strictly positive execution times (goodness `O_i / C_i` divides by
    /// finishing times).
    NonPositiveExecution {
        /// Machine row.
        machine: usize,
        /// Task column.
        task: usize,
        /// The offending value.
        value: f64,
    },
}

impl fmt::Display for PlatformError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlatformError::NoMachines => write!(f, "HC system needs at least one machine"),
            PlatformError::ExecShape { expected, actual } => write!(
                f,
                "execution matrix shape {actual:?} != expected (machines x tasks) {expected:?}"
            ),
            PlatformError::TransferShape { expected, actual } => write!(
                f,
                "transfer matrix shape {actual:?} != expected (machine pairs x data items) {expected:?}"
            ),
            PlatformError::InvalidCost { matrix, row, col, value } => {
                write!(f, "{matrix}[{row}][{col}] = {value} is not a finite non-negative cost")
            }
            PlatformError::NonPositiveExecution { machine, task, value } => {
                write!(f, "E[{machine}][{task}] = {value}; execution times must be > 0")
            }
        }
    }
}

impl std::error::Error for PlatformError {}

impl PlatformError {
    /// The [`crate::HcSystem`] field the error is about, as named in the
    /// serialized form.
    pub(crate) fn field(&self) -> &'static str {
        match self {
            PlatformError::NoMachines => "machines",
            PlatformError::TransferShape { .. }
            | PlatformError::InvalidCost { matrix: "Tr", .. } => "transfer",
            _ => "exec",
        }
    }
}

/// Deserializes field `name` of the struct map `v` (a `target`), naming
/// the field in any error it raises.
pub(crate) fn de_field<T: Deserialize>(v: &Value, target: &str, name: &str) -> Result<T, Error> {
    if v.as_map().is_none() {
        return Err(Error::expected("map", target, v));
    }
    let field = v.get_field(name).ok_or_else(|| Error::missing_field(target, name))?;
    T::deserialize(field).map_err(|e| in_field(name, e))
}

/// Prefixes an error with the field it came from: `name: msg`, or the
/// dotted path `name.inner: msg` when `msg` already names a field.
pub(crate) fn in_field(name: &str, e: impl fmt::Display) -> Error {
    let msg = e.to_string();
    let nested = msg.split_once(": ").is_some_and(|(head, _)| {
        !head.is_empty() && head.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.')
    });
    Error::custom(if nested { format!("{name}.{msg}") } else { format!("{name}: {msg}") })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages() {
        assert!(PlatformError::NoMachines.to_string().contains("at least one"));
        let e = PlatformError::ExecShape { expected: (2, 7), actual: (3, 7) };
        assert!(e.to_string().contains("(3, 7)"));
        let e = PlatformError::InvalidCost { matrix: "Tr", row: 0, col: 1, value: f64::NAN };
        assert!(e.to_string().contains("Tr[0][1]"));
        let e = PlatformError::NonPositiveExecution { machine: 1, task: 2, value: 0.0 };
        assert!(e.to_string().contains("E[1][2]"));
    }
}
