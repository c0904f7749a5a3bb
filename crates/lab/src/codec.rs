//! The one line codec behind every `mb-lab` text format.
//!
//! The journal (`mblab1`), the transport segment (`mbseg1`), the wire
//! protocol (`mbsrv1`) and the persisted job identity (`job.meta`) are
//! built from two line shapes, and this module owns both:
//!
//! * a **field line** — a leading version token, then space-separated
//!   `key=value` fields. [`Fields::split`] is the only `key=value`
//!   splitter in the crate: the tail keys (`msg`, `detail`) swallow
//!   the rest of the line so free text may carry spaces, and a bare
//!   token, a duplicate key, a key the format does not define or a
//!   missing required key is a typed [`FieldError`].
//! * a **record line** — `r <slot> <payload> <chain>`, one completed
//!   slot: its index, its payload as comma-separated 16-digit hex `f64`
//!   bit patterns, and the digest chain after it. [`render_record`]
//!   writes one; [`verify_chain`] is the single loop that walks a run of
//!   record lines and re-derives their chain, for journal and segment
//!   loads alike.
//!
//! The chain is `chain_0 = fnv1a64(header line)` and
//! `chain_{k+1} = mix64(chain_k ^ fnv1a64(body_k))`, where `body_k` is
//! the record line up to (not including) its chain field. Records parse
//! only in their canonical rendering, so the bytes the chain hashes are
//! exactly the bytes [`render_record`] writes: a verified run of journal
//! lines can be shipped as a byte slice and re-verified anywhere.

use std::fmt;
use std::fmt::Write as _;
use std::str::FromStr;

/// Keys whose value runs to the end of the line (free text).
const TAIL_KEYS: [&str; 2] = ["msg", "detail"];

/// Most fields one line may carry; every format defines fewer keys.
const MAX_FIELDS: usize = 8;

/// Why a field line was rejected. Borrows the offending text, so a
/// rejection costs no allocation until a caller renders it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FieldError<'a> {
    /// A token without `=`.
    Bare(&'a str),
    /// A token whose key is not `[a-z_]+`.
    BadKey(&'a str),
    /// A non-tail key with nothing after its `=`.
    Empty(&'a str),
    /// The same key twice.
    Duplicate(&'a str),
    /// A key the line's format does not define.
    Unknown(&'a str),
    /// A required key that is absent.
    Missing(&'a str),
    /// A value that does not parse as its key's type.
    BadValue {
        /// The key.
        key: &'a str,
        /// Its rejected value.
        value: &'a str,
    },
}

impl fmt::Display for FieldError<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            FieldError::Bare(token) => write!(f, "bare token '{token}' (want key=value)"),
            FieldError::BadKey(token) => write!(f, "bad field key in '{token}'"),
            FieldError::Empty(key) => write!(f, "empty value for field '{key}'"),
            FieldError::Duplicate(key) => write!(f, "duplicate field '{key}'"),
            FieldError::Unknown(key) => write!(f, "unknown field '{key}'"),
            FieldError::Missing(key) => write!(f, "missing field '{key}'"),
            FieldError::BadValue { key, value } => write!(f, "bad value '{value}' for '{key}'"),
        }
    }
}

/// Strips the leading version token of a field line, returning the
/// rest of the line, or the token actually found when it is not
/// `version`.
pub(crate) fn strip_version<'a>(line: &'a str, version: &str) -> Result<&'a str, &'a str> {
    let (token, rest) = line.split_once(' ').unwrap_or((line, ""));
    if token == version {
        Ok(rest)
    } else {
        Err(token)
    }
}

/// The checked `key=value` fields of one line, in line order.
#[derive(Debug)]
pub(crate) struct Fields<'a> {
    pairs: [(&'a str, &'a str); MAX_FIELDS],
    len: usize,
}

impl<'a> Fields<'a> {
    /// Splits `rest` into `key=value` fields. Every key in `required`
    /// must appear, any key in `optional` may, no other key may, and no
    /// key may repeat. Non-tail values are one space-delimited token and
    /// must not be empty.
    pub(crate) fn split(
        rest: &'a str,
        required: &[&'a str],
        optional: &[&str],
    ) -> Result<Fields<'a>, FieldError<'a>> {
        debug_assert!(required.len() + optional.len() <= MAX_FIELDS);
        let mut fields = Fields {
            pairs: [("", ""); MAX_FIELDS],
            len: 0,
        };
        let mut rest = rest.trim_start_matches(' ');
        while !rest.is_empty() {
            let (token, after) = rest.split_once(' ').unwrap_or((rest, ""));
            let (key, value) = token.split_once('=').ok_or(FieldError::Bare(token))?;
            if key.is_empty() || !key.bytes().all(|b| b.is_ascii_lowercase() || b == b'_') {
                return Err(FieldError::BadKey(token));
            }
            if !required.contains(&key) && !optional.contains(&key) {
                return Err(FieldError::Unknown(key));
            }
            if fields.get(key).is_some() {
                return Err(FieldError::Duplicate(key));
            }
            // Keys are distinct members of `required ∪ optional`, so the
            // table cannot overflow.
            if TAIL_KEYS.contains(&key) {
                fields.pairs[fields.len] = (key, &rest[key.len() + 1..]);
                fields.len += 1;
                break;
            }
            if value.is_empty() {
                return Err(FieldError::Empty(key));
            }
            fields.pairs[fields.len] = (key, value);
            fields.len += 1;
            rest = after.trim_start_matches(' ');
        }
        match required.iter().find(|key| fields.get(key).is_none()) {
            Some(key) => Err(FieldError::Missing(key)),
            None => Ok(fields),
        }
    }

    /// The value of `key`, if present.
    pub(crate) fn get(&self, key: &str) -> Option<&'a str> {
        self.pairs[..self.len]
            .iter()
            .find(|(k, _)| *k == key)
            .map(|&(_, v)| v)
    }

    /// The value of `key` converted by `convert`; absent is
    /// [`FieldError::Missing`], unconvertible is [`FieldError::BadValue`].
    pub(crate) fn get_with<T>(
        &self,
        key: &'a str,
        convert: impl FnOnce(&'a str) -> Option<T>,
    ) -> Result<T, FieldError<'a>> {
        let value = self.get(key).ok_or(FieldError::Missing(key))?;
        convert(value).ok_or(FieldError::BadValue { key, value })
    }

    /// [`Fields::get_with`] for an optional key: absent is `Ok(None)`.
    pub(crate) fn opt_with<T>(
        &self,
        key: &'a str,
        convert: impl FnOnce(&'a str) -> Option<T>,
    ) -> Result<Option<T>, FieldError<'a>> {
        self.get(key)
            .map(|_| self.get_with(key, convert))
            .transpose()
    }

    /// The value of `key` parsed with [`FromStr`].
    pub(crate) fn value<T: FromStr>(&self, key: &'a str) -> Result<T, FieldError<'a>> {
        self.get_with(key, |v| v.parse().ok())
    }
}

/// Parses bare hexadecimal (no `0x`) into a `u64`.
pub(crate) fn hex(text: &str) -> Option<u64> {
    u64::from_str_radix(text, 16).ok()
}

/// FNV-1a over a byte string — the line hash feeding the digest chain.
pub(crate) fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// SplitMix64 finalizer — diffuses the chain state between records.
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Chain value after a record with body `body` follows chain `prev`.
fn chain_step(prev: u64, body: &str) -> u64 {
    mix64(prev ^ fnv1a64(body.as_bytes()))
}

/// Appends the record line of `(slot, payload)` chained after `prev`
/// to `out`, terminating newline included, and returns the record's
/// chain value.
pub(crate) fn render_record(out: &mut String, prev: u64, slot: usize, payload: &[f64]) -> u64 {
    let start = out.len();
    let _ = write!(out, "r {slot:x} ");
    for (i, value) in payload.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{:016x}", value.to_bits());
    }
    let chain = chain_step(prev, &out[start..]);
    let _ = writeln!(out, " {chain:016x}");
    chain
}

/// One record line, parsed but not yet chain-checked.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Record<'a> {
    /// The slot index.
    pub(crate) slot: usize,
    /// The chain value the line records.
    pub(crate) chain: u64,
    /// The comma-separated payload bit patterns, already validated.
    payload: &'a str,
    /// The line up to its chain field: the bytes the chain hashes.
    body: &'a str,
}

impl<'a> Record<'a> {
    /// The payload values, bit-exact.
    pub(crate) fn values(&self) -> impl Iterator<Item = f64> + 'a {
        self.payload
            .split(',')
            .filter(|h| !h.is_empty())
            .map(|h| f64::from_bits(hex(h).expect("payload validated by parse_record")))
    }
}

/// Whether `text` is non-empty lowercase hex.
fn is_lower_hex(text: &str) -> bool {
    !text.is_empty() && text.bytes().all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f'))
}

/// Whether `text` is exactly 16 lowercase hex digits.
fn is_hex16(text: &str) -> bool {
    text.len() == 16 && is_lower_hex(text)
}

/// Parses one record line in its canonical rendering — lowercase hex,
/// no padding on the slot, 16 digits per payload value and for the
/// chain — or returns `None`.
pub(crate) fn parse_record(line: &str) -> Option<Record<'_>> {
    let rest = line.strip_prefix("r ")?;
    let (before_chain, chain) = rest.rsplit_once(' ')?;
    let (slot, payload) = before_chain.split_once(' ')?;
    let canonical_slot =
        slot.len() <= 16 && is_lower_hex(slot) && (slot == "0" || !slot.starts_with('0'));
    if !canonical_slot || !is_hex16(chain) {
        return None;
    }
    if !payload.is_empty() && !payload.split(',').all(is_hex16) {
        return None;
    }
    Some(Record {
        slot: usize::from_str_radix(slot, 16).ok()?,
        chain: hex(chain)?,
        payload,
        body: &line[..2 + before_chain.len()],
    })
}

/// Where [`verify_chain`] stopped.
#[derive(Debug)]
pub(crate) enum ChainError<E> {
    /// The line at this zero-based index of the run is not a record.
    Unparseable(usize),
    /// The record at this index does not re-derive from its
    /// predecessor: edited, reordered or truncated history.
    Broken(usize),
    /// The caller's `accept` rejected a verified record.
    Rejected(E),
}

/// The record-chain verification loop: walks `lines` starting from
/// chain value `start`, requires every line to parse and to carry the
/// chain its body re-derives, and hands each verified record to
/// `accept`. Returns the chain value after the last line.
pub(crate) fn verify_chain<'a, E>(
    start: u64,
    lines: impl IntoIterator<Item = &'a str>,
    mut accept: impl FnMut(Record<'a>) -> Result<(), E>,
) -> Result<u64, ChainError<E>> {
    let mut chain = start;
    for (i, line) in lines.into_iter().enumerate() {
        let record = parse_record(line).ok_or(ChainError::Unparseable(i))?;
        chain = chain_step(chain, record.body);
        if record.chain != chain {
            return Err(ChainError::Broken(i));
        }
        accept(record).map_err(ChainError::Rejected)?;
    }
    Ok(chain)
}
