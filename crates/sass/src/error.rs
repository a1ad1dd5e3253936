//! Error type shared by the parser, the listing model and the cubin container.

use std::fmt;

/// Error produced while parsing, editing or unpacking SASS artifacts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SassError {
    /// A line of SASS text could not be parsed.
    Parse {
        /// 1-based line number within the listing, when known.
        line: usize,
        /// Explanation of the failure.
        message: String,
    },
    /// A control code field was malformed.
    ControlCode(String),
    /// An operand token could not be parsed.
    Operand(String),
    /// An instruction index was past the end of the program.
    Index(usize),
    /// A cubin section or symbol was missing or inconsistent.
    Cubin(String),
}

impl SassError {
    pub(crate) fn parse(line: usize, message: impl Into<String>) -> Self {
        SassError::Parse {
            line,
            message: message.into(),
        }
    }
}

impl fmt::Display for SassError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SassError::Parse { line, message } => {
                write!(f, "parse error at line {line}: {message}")
            }
            SassError::ControlCode(msg) => write!(f, "invalid control code: {msg}"),
            SassError::Operand(msg) => write!(f, "invalid operand: {msg}"),
            SassError::Index(index) => write!(f, "instruction index {index} out of range"),
            SassError::Cubin(msg) => write!(f, "invalid cubin: {msg}"),
        }
    }
}

impl std::error::Error for SassError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_lowercase_and_informative() {
        let err = SassError::parse(3, "unexpected token `foo`");
        let text = err.to_string();
        assert!(text.contains("line 3"));
        assert!(text.contains("unexpected token"));
    }

    #[test]
    fn error_trait_is_implemented() {
        fn assert_error<E: std::error::Error + Send + Sync + 'static>() {}
        assert_error::<SassError>();
    }
}
