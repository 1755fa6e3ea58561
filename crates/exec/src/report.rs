//! The one report format the workspace's bench binaries emit and `xtask`
//! reads: an ordered `key=value` record, one pair per line.
//!
//! A binary fills a [`Record`] and prints it to stdout as its only output
//! (progress goes to stderr); `xtask` captures that stdout, archives it,
//! and reads it back with [`parse`]. One writer and one reader keep key
//! names and value formats from drifting between the two.
//!
//! # Examples
//!
//! ```
//! use sram_exec::report::{parse, Record};
//!
//! let mut record = Record::default();
//! record.put("workers", 4).put("digest", format!("{:016x}", 0xa4u64));
//! let text = record.to_string();
//! assert_eq!(text, "workers=4\ndigest=00000000000000a4\n");
//! assert_eq!(parse(&text)["digest"], "00000000000000a4");
//! ```

use std::collections::BTreeMap;
use std::fmt::{self, Display, Write};

/// An ordered `key=value` record under construction.
#[derive(Debug, Default, Clone)]
pub struct Record {
    text: String,
}

impl Record {
    /// Appends the line `key=value`.
    pub fn put(&mut self, key: impl Display, value: impl Display) -> &mut Self {
        // Writing into a `String` cannot fail.
        let _ = writeln!(self.text, "{key}={value}");
        self
    }
}

impl Display for Record {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.text)
    }
}

/// Parses a record's text into key → value, trimming both sides; lines
/// without `=` are skipped.
pub fn parse(text: &str) -> BTreeMap<String, String> {
    text.lines()
        .filter_map(|line| line.split_once('='))
        .map(|(k, v)| (k.trim().to_string(), v.trim().to_string()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_reads_back_what_put_wrote() {
        let mut record = Record::default();
        record
            .put("a", 1)
            .put("tenant0_name", "digits")
            .put("err", "x = y");
        let kv = parse(&record.to_string());
        assert_eq!(kv.len(), 3);
        assert_eq!(kv["a"], "1");
        assert_eq!(kv["tenant0_name"], "digits");
        // Only the first `=` splits.
        assert_eq!(kv["err"], "x = y");
    }

    #[test]
    fn parse_skips_lines_without_a_pair() {
        let kv = parse("title line\n k = v \n\n");
        assert_eq!(kv.len(), 1);
        assert_eq!(kv["k"], "v");
    }
}
