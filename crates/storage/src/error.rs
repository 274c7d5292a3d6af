use std::fmt;

use skycache_geom::GeomError;

/// Errors produced by the storage layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageError {
    /// A table cannot be built from zero points (dimensionality unknown).
    EmptyTable,
    /// A point's dimensionality differs from the table's.
    DimensionMismatch {
        /// The table's dimensionality.
        expected: usize,
        /// The offending point's dimensionality.
        actual: usize,
    },
    /// The table would hold more heap slots than row ids exist.
    TooManyRows,
    /// An underlying geometric constructor failed.
    Geom(GeomError),
    /// An I/O failure during save/load.
    Io(String),
    /// A persisted table file failed validation.
    Corrupt(String),
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::EmptyTable => write!(f, "cannot build a table from zero points"),
            StorageError::DimensionMismatch { expected, actual } => {
                write!(f, "point dimensionality {actual} != table dimensionality {expected}")
            }
            StorageError::TooManyRows => {
                write!(f, "a table holds at most {} rows", crate::RowId::MAX)
            }
            StorageError::Geom(e) => write!(f, "geometry error: {e}"),
            StorageError::Io(e) => write!(f, "i/o error: {e}"),
            StorageError::Corrupt(why) => write!(f, "corrupt table file: {why}"),
        }
    }
}

impl std::error::Error for StorageError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StorageError::Geom(e) => Some(e),
            _ => None,
        }
    }
}

impl From<GeomError> for StorageError {
    fn from(e: GeomError) -> Self {
        StorageError::Geom(e)
    }
}

impl From<std::io::Error> for StorageError {
    fn from(e: std::io::Error) -> Self {
        StorageError::Io(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_full_table_names_the_row_limit() {
        assert_eq!(StorageError::TooManyRows.to_string(), "a table holds at most 4294967295 rows");
    }
}
