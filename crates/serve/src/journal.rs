//! Write-ahead job journal: append-only, length-prefixed, checksummed
//! JSONL.
//!
//! Every job-state transition the daemon commits to is recorded as one
//! framed line:
//!
//! ```text
//! SJ1 <len:8 hex> <crc:16 hex> <json>\n
//! ```
//!
//! `len` is the byte length of the JSON payload and `crc` its FxHash
//! checksum, so replay can tell a torn tail (the daemon died
//! mid-write) from silent corruption mid-file. The JSON renderer
//! escapes control characters inside strings, so a payload never
//! contains a raw newline and the framing is recoverable line-by-line.
//!
//! Durability contract: non-terminal records (`submitted`, `started`,
//! `checkpoint`) are buffered writes — losing the tail of them on a
//! crash only loses progress hints. Terminal records (`done`,
//! `failed`, `cancelled`) are fsynced before the daemon acknowledges
//! the state, so an acknowledged terminal outcome survives `kill -9`.
//!
//! Replay semantics ([`Journal::open`]):
//! * complete, valid lines are returned in order;
//! * corrupted lines mid-file (checksum or framing mismatch, or bytes
//!   that are not UTF-8) are skipped and counted — later valid records
//!   still apply;
//! * a torn final line (no trailing newline, or invalid framing at
//!   EOF) is counted and truncated away so appends start clean;
//! * duplicate terminal records for one job are tolerated — the last
//!   one wins (re-marking after recovery appends, never rewrites).

use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use soctam_exec::{fault, fx_hash_one};
use soctam_registry::Json;

/// Frame marker; bump on any incompatible format change.
const MAGIC: &str = "SJ1";

/// What a journal replay found.
#[derive(Debug, Default)]
pub struct Replay {
    /// The valid records, in file order.
    pub records: Vec<Json>,
    /// Corrupted lines skipped mid-file.
    pub corrupt: u64,
    /// Whether a torn tail was truncated away.
    pub torn_tail: bool,
}

/// An open, append-position journal file.
#[derive(Debug)]
pub struct Journal {
    file: Mutex<File>,
    path: PathBuf,
}

/// A journal I/O failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JournalError {
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for JournalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for JournalError {}

impl From<std::io::Error> for JournalError {
    fn from(e: std::io::Error) -> Self {
        JournalError {
            message: format!("journal I/O error: {e}"),
        }
    }
}

/// Frames one record payload.
fn frame(json: &str) -> String {
    format!(
        "{MAGIC} {:08x} {:016x} {json}\n",
        json.len(),
        fx_hash_one(&json.as_bytes())
    )
}

/// Parses one framed line (without the trailing newline); `None` when
/// the framing or checksum does not hold.
fn parse_line(line: &str) -> Option<Json> {
    let rest = line.strip_prefix(MAGIC)?.strip_prefix(' ')?;
    let len_hex = rest.get(..8)?;
    let rest = rest.get(8..)?.strip_prefix(' ')?;
    let crc_hex = rest.get(..16)?;
    let json = rest.get(16..)?.strip_prefix(' ')?;
    let len = usize::from_str_radix(len_hex, 16).ok()?;
    let crc = u64::from_str_radix(crc_hex, 16).ok()?;
    if json.len() != len || fx_hash_one(&json.as_bytes()) != crc {
        return None;
    }
    Json::parse(json).ok()
}

impl Journal {
    /// Opens (creating if absent) the journal at `path`, replays its
    /// valid records and positions the file for appending. A torn
    /// final line is truncated away so the next append starts on a
    /// clean frame boundary.
    ///
    /// # Errors
    ///
    /// [`JournalError`] when the file cannot be opened, read or
    /// truncated.
    pub fn open(path: &Path) -> Result<(Journal, Replay), JournalError> {
        let mut file = OpenOptions::new()
            .read(true)
            .create(true)
            .append(true)
            .open(path)?;
        // Bytes, not a String: a tail torn inside a multi-byte
        // character is not UTF-8, and must not fail the whole replay.
        let mut raw = Vec::new();
        file.seek(SeekFrom::Start(0))?;
        file.read_to_end(&mut raw)?;

        let mut replay = Replay::default();
        let mut valid_end = 0usize;
        let mut cursor = 0usize;
        for line in raw.split_inclusive(|&b| b == b'\n') {
            let start = cursor;
            cursor += line.len();
            let Some(framed) = line.strip_suffix(b"\n") else {
                // No newline: the write was torn mid-line.
                replay.torn_tail = true;
                continue;
            };
            match std::str::from_utf8(framed).ok().and_then(parse_line) {
                Some(record) => {
                    replay.records.push(record);
                    // Everything up to and including this line is good
                    // (earlier corrupt lines stay in place; only the
                    // tail past the last valid line may be cut).
                    valid_end = start + line.len();
                }
                None => replay.corrupt += 1,
            }
        }
        // Truncate a torn tail so the next append frames cleanly. Keep
        // corrupt-but-complete lines before the last valid record —
        // they are evidence, and replay skips them anyway.
        if replay.torn_tail {
            // Anything after the last valid line is the torn region
            // (complete corrupt lines there are dropped with it).
            if valid_end < raw.len() {
                let corrupt_after: u64 = raw[valid_end..]
                    .split_inclusive(|&b| b == b'\n')
                    .filter(|l| l.ends_with(b"\n"))
                    .count() as u64;
                replay.corrupt = replay.corrupt.saturating_sub(corrupt_after);
            }
            file.set_len(valid_end as u64)?;
        }
        file.seek(SeekFrom::End(0))?;
        Ok((
            Journal {
                file: Mutex::new(file),
                path: path.to_path_buf(),
            },
            replay,
        ))
    }

    /// The journal's path (surfaced in `/metrics`).
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends one record; `sync` additionally fsyncs (used for
    /// terminal job states so acknowledged outcomes survive a crash).
    ///
    /// # Errors
    ///
    /// [`JournalError`] on I/O failure or an armed `serve.journal`
    /// failpoint.
    pub fn append(&self, record: &Json, sync: bool) -> Result<(), JournalError> {
        // Failpoint: journal faults must degrade to counted write
        // drops, never take a job (or the daemon) down with them.
        fault::check("serve.journal").map_err(|e| JournalError {
            message: e.to_string(),
        })?;
        let framed = frame(&record.render());
        let mut file = self
            .file
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        file.write_all(framed.as_bytes())?;
        if sync {
            file.sync_data()?;
        }
        Ok(())
    }

    /// Fsyncs the journal (shutdown path).
    ///
    /// # Errors
    ///
    /// [`JournalError`] on I/O failure.
    pub fn sync(&self) -> Result<(), JournalError> {
        self.file
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .sync_data()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(n: i128) -> Json {
        Json::obj(vec![("rec", Json::str("test")), ("n", Json::Int(n))])
    }

    fn temp_path(name: &str) -> PathBuf {
        let mut path = std::env::temp_dir();
        path.push(format!("soctam-journal-{name}-{}", std::process::id()));
        path
    }

    #[test]
    fn roundtrips_records() {
        let path = temp_path("roundtrip");
        let _ = std::fs::remove_file(&path);
        {
            let (journal, replay) = Journal::open(&path).unwrap();
            assert!(replay.records.is_empty());
            journal.append(&record(1), false).unwrap();
            journal.append(&record(2), true).unwrap();
        }
        let (_, replay) = Journal::open(&path).unwrap();
        assert_eq!(replay.records.len(), 2);
        assert_eq!(replay.corrupt, 0);
        assert!(!replay.torn_tail);
        assert_eq!(replay.records[1].get("n"), Some(&Json::Int(2)));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_tail_is_truncated_and_survivors_kept() {
        let path = temp_path("torn");
        let _ = std::fs::remove_file(&path);
        {
            let (journal, _) = Journal::open(&path).unwrap();
            journal.append(&record(1), true).unwrap();
        }
        // Simulate a crash mid-write: a partial frame with no newline.
        let mut file = OpenOptions::new().append(true).open(&path).unwrap();
        file.write_all(b"SJ1 000000ff 00").unwrap();
        drop(file);

        let (journal, replay) = Journal::open(&path).unwrap();
        assert_eq!(replay.records.len(), 1);
        assert!(replay.torn_tail);
        // Appending after recovery lands on a clean frame boundary.
        journal.append(&record(2), true).unwrap();
        drop(journal);
        let (_, replay) = Journal::open(&path).unwrap();
        assert_eq!(replay.records.len(), 2);
        assert!(!replay.torn_tail);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn corrupted_checksum_mid_file_is_skipped_not_fatal() {
        let path = temp_path("corrupt");
        let _ = std::fs::remove_file(&path);
        {
            let (journal, _) = Journal::open(&path).unwrap();
            journal.append(&record(1), false).unwrap();
        }
        // A complete line whose checksum does not match its payload.
        let bogus = format!("{MAGIC} {:08x} {:016x} {}\n", 7, 0u64, r#"{"x":1}"#);
        let mut file = OpenOptions::new().append(true).open(&path).unwrap();
        file.write_all(bogus.as_bytes()).unwrap();
        drop(file);
        {
            let (journal, replay) = Journal::open(&path).unwrap();
            assert_eq!(replay.records.len(), 1, "corrupt line skipped");
            assert_eq!(replay.corrupt, 1);
            journal.append(&record(3), true).unwrap();
        }
        let (_, replay) = Journal::open(&path).unwrap();
        assert_eq!(replay.records.len(), 2, "records after corruption apply");
        assert_eq!(replay.corrupt, 1);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn tail_torn_inside_a_multibyte_char_is_recovered() {
        let path = temp_path("torn-utf8");
        let _ = std::fs::remove_file(&path);
        let delta = Json::obj(vec![("rec", Json::str("Δ"))]);
        {
            let (journal, _) = Journal::open(&path).unwrap();
            journal.append(&record(1), true).unwrap();
            journal.append(&delta, true).unwrap();
        }
        // Cut the second record just after the first byte of `Δ`
        // (0xCE 0x94), leaving a tail that is not UTF-8.
        let bytes = std::fs::read(&path).unwrap();
        let cut = bytes.iter().position(|&b| b == 0xCE).unwrap() + 1;
        std::fs::write(&path, &bytes[..cut]).unwrap();

        let (journal, replay) = Journal::open(&path).unwrap();
        assert_eq!(replay.records, vec![record(1)]);
        assert!(replay.torn_tail);
        assert_eq!(replay.corrupt, 0);
        journal.append(&delta, true).unwrap();
        drop(journal);
        let (_, replay) = Journal::open(&path).unwrap();
        assert_eq!(replay.records, vec![record(1), delta]);
        assert!(!replay.torn_tail);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn complete_line_that_is_not_utf8_is_corruption() {
        let path = temp_path("bad-utf8");
        let _ = std::fs::remove_file(&path);
        {
            let (journal, _) = Journal::open(&path).unwrap();
            journal.append(&record(1), false).unwrap();
        }
        let mut file = OpenOptions::new().append(true).open(&path).unwrap();
        file.write_all(b"SJ1 \xff\xfe\n").unwrap();
        drop(file);
        {
            let (journal, replay) = Journal::open(&path).unwrap();
            assert_eq!(replay.records, vec![record(1)]);
            assert_eq!(replay.corrupt, 1);
            assert!(!replay.torn_tail);
            journal.append(&record(2), true).unwrap();
        }
        let (_, replay) = Journal::open(&path).unwrap();
        assert_eq!(replay.records, vec![record(1), record(2)]);
        assert_eq!(replay.corrupt, 1);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn bad_length_prefix_is_corruption() {
        assert!(parse_line("SJ1 zzzzzzzz 0000000000000000 {}").is_none());
        assert!(parse_line("nonsense").is_none());
        let good = frame(r#"{"a":1}"#);
        assert!(parse_line(good.trim_end()).is_some());
    }
}
