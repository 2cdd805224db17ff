//! The memcached-style text protocol: its vocabulary as one verb table,
//! and incremental parsers for both directions.
//!
//! Mirrors the idiom of `eveth_http::parser`: the parser accumulates bytes
//! fed from the socket, yields one [`Command`] as soon as it is complete,
//! and keeps any excess bytes for the next command on the connection —
//! which is exactly what makes pipelining free. Payload-carrying commands
//! are materialized zero-copy: the buffered bytes for a completed command
//! are frozen into one [`Bytes`] allocation and the key/value are O(1)
//! slices into it.
//!
//! The grammar is the classic memcached text protocol subset: fifteen
//! verbs over five wire shapes ([`Shape`]). [`VERBS`] is the source of
//! truth — a verb's name, its shape, whether it takes `noreply`, whether
//! it writes, and whether a replicating router may fan it out are each
//! stated there once, and the parser, the encoder, the server and the
//! router all read them from it.
//!
//! ```text
//! keys        get | gets  <key>+\r\n
//! storage     set | add | replace | append | prepend
//!                         <key> <flags> <exptime> <bytes> [noreply]\r\n<data>\r\n
//!             cas         <key> <flags> <exptime> <bytes> <cas unique> [noreply]\r\n<data>\r\n
//! key+number  touch       <key> <exptime> [noreply]\r\n
//!             incr | decr <key> <delta> [noreply]\r\n
//! key         delete      <key> [noreply]\r\n
//! bare        stats | version | quit\r\n
//! ```
//!
//! `gets` is `get` plus the per-entry version stamp (`cas unique`) in each
//! `VALUE` line; `cas` stores only if the stamp is unchanged. [`Command`]
//! follows the shapes: one variant per shape, the verb that picked it
//! carried as a small field (`with_cas`, [`StoreMode`], `decr`).
//!
//! Replies follow the same line grammar:
//!
//! ```text
//! value       VALUE <key> <flags> <bytes> [<cas unique>]\r\n<data>\r\n
//! stat        STAT <name> <value text>\r\n
//! text        VERSION | CLIENT_ERROR | SERVER_ERROR <text>\r\n
//! number      <decimal>\r\n
//! fixed       END | STORED | NOT_STORED | EXISTS | TOUCHED | DELETED
//!             | NOT_FOUND | ERROR\r\n
//! ```
//!
//! Both directions are cut by the same three rules, each stated once: one
//! non-allocating field tokenizer (`Fields`: fields are separated by runs
//! of spaces), one number rule (`parse_u64`: decimal digits only, no sign)
//! and one frame rule (`scan_frame`: a line of bounded length — 8 KiB
//! unless a [`CommandParser`] is given another limit — then the data block
//! its head declares and that block's CRLF). A field the grammar does not
//! name is an error on either side.

use std::fmt;
use std::mem;

use bytes::{BufferPool, Bytes, BytesMut};

/// Maximum key length, per the memcached protocol.
pub const MAX_KEY_LEN: usize = 250;

/// Default cap on one value's length (1 MiB, memcached's item limit):
/// the store's [`max_value_bytes`](crate::store::StoreConfig) default, the
/// default declared-size limit of [`CommandParser`], and the fixed limit
/// [`ReplyParser`] holds a peer's `VALUE` header to.
pub const MAX_VALUE_LEN: usize = 1024 * 1024;

/// Cap on one reply line before its CRLF, and the default cap on one
/// command line.
const MAX_LINE_LEN: usize = 8 * 1024;

/// The five wire shapes of a command line (see the module grammar).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// `<verb> <key>+`
    Keys,
    /// `<verb> <key> <flags> <exptime> <bytes> [<cas unique>] [noreply]`,
    /// then a `<bytes>`-long data block.
    Storage,
    /// `<verb> <key> <number> [noreply]`
    KeyNumber,
    /// `<verb> <key> [noreply]`
    Key,
    /// `<verb>`
    Bare,
}

/// The protocol's verbs, in [`VERBS`] order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verb {
    /// `get`
    Get,
    /// `gets`
    Gets,
    /// `set`
    Set,
    /// `add`
    Add,
    /// `replace`
    Replace,
    /// `append`
    Append,
    /// `prepend`
    Prepend,
    /// `cas`
    Cas,
    /// `touch`
    Touch,
    /// `delete`
    Delete,
    /// `incr`
    Incr,
    /// `decr`
    Decr,
    /// `stats`
    Stats,
    /// `version`
    Version,
    /// `quit`
    Quit,
}

/// One row of the verb table: everything the protocol knows about a verb
/// that is not carried by an individual command.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VerbInfo {
    /// The verb this row describes.
    pub verb: Verb,
    /// Its name on the wire.
    pub name: &'static str,
    /// The shape of its command line.
    pub shape: Shape,
    /// Accepts a trailing `noreply`.
    pub noreply: bool,
    /// Mutates the store.
    pub write: bool,
    /// A write that means the same thing on every replica, so a
    /// replicating router may send it to all of a key's replicas. The
    /// other writes are conditional on per-node state that legitimately
    /// differs across replicas — `cas` (version stamps are per-node
    /// sequence numbers), `add`/`replace` (presence), `append`/`prepend`
    /// and `incr`/`decr` (current value) — and fanning one out could
    /// store on the primary while a secondary answers
    /// `EXISTS`/`NOT_STORED`, acking the client over silently diverged
    /// replicas.
    pub fanout: bool,
}

/// The verb table, indexed by `Verb as usize`. `get` is first: lookup by
/// name is a linear scan and `get` is the hot verb.
#[rustfmt::skip]
pub static VERBS: [VerbInfo; 15] = [
    VerbInfo { verb: Verb::Get,     name: "get",     shape: Shape::Keys,      noreply: false, write: false, fanout: false },
    VerbInfo { verb: Verb::Gets,    name: "gets",    shape: Shape::Keys,      noreply: false, write: false, fanout: false },
    VerbInfo { verb: Verb::Set,     name: "set",     shape: Shape::Storage,   noreply: true,  write: true,  fanout: true  },
    VerbInfo { verb: Verb::Add,     name: "add",     shape: Shape::Storage,   noreply: true,  write: true,  fanout: false },
    VerbInfo { verb: Verb::Replace, name: "replace", shape: Shape::Storage,   noreply: true,  write: true,  fanout: false },
    VerbInfo { verb: Verb::Append,  name: "append",  shape: Shape::Storage,   noreply: true,  write: true,  fanout: false },
    VerbInfo { verb: Verb::Prepend, name: "prepend", shape: Shape::Storage,   noreply: true,  write: true,  fanout: false },
    VerbInfo { verb: Verb::Cas,     name: "cas",     shape: Shape::Storage,   noreply: true,  write: true,  fanout: false },
    VerbInfo { verb: Verb::Touch,   name: "touch",   shape: Shape::KeyNumber, noreply: true,  write: true,  fanout: true  },
    VerbInfo { verb: Verb::Delete,  name: "delete",  shape: Shape::Key,       noreply: true,  write: true,  fanout: true  },
    VerbInfo { verb: Verb::Incr,    name: "incr",    shape: Shape::KeyNumber, noreply: true,  write: true,  fanout: false },
    VerbInfo { verb: Verb::Decr,    name: "decr",    shape: Shape::KeyNumber, noreply: true,  write: true,  fanout: false },
    VerbInfo { verb: Verb::Stats,   name: "stats",   shape: Shape::Bare,      noreply: false, write: false, fanout: false },
    VerbInfo { verb: Verb::Version, name: "version", shape: Shape::Bare,      noreply: false, write: false, fanout: false },
    VerbInfo { verb: Verb::Quit,    name: "quit",    shape: Shape::Bare,      noreply: false, write: false, fanout: false },
];

impl Verb {
    /// This verb's row of [`VERBS`].
    pub fn info(self) -> &'static VerbInfo {
        &VERBS[self as usize]
    }

    /// The row of the verb named `name` on the wire, if any.
    fn lookup(name: &[u8]) -> Option<&'static VerbInfo> {
        VERBS.iter().find(|row| row.name.as_bytes() == name)
    }
}

/// How a storage command treats what is already stored under its key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreMode {
    /// `set`: store unconditionally.
    Set,
    /// `add`: store only if the key is absent (or expired).
    Add,
    /// `replace`: store only if a live entry already exists.
    Replace,
    /// `append`: concatenate onto the tail of an existing live value
    /// (`NOT_STORED` on a miss). Per memcached, the `flags`/`exptime`
    /// fields are required on the wire but ignored — the stored entry
    /// keeps its own.
    Append,
    /// `prepend`: concatenate onto the head of an existing live value;
    /// `flags`/`exptime` ignored like `append`.
    Prepend,
    /// `cas`: store only if the entry's version stamp still equals the
    /// one the client observed via `gets`.
    Cas(u64),
}

impl StoreMode {
    /// The verb that spells this mode.
    fn verb(self) -> Verb {
        match self {
            StoreMode::Set => Verb::Set,
            StoreMode::Add => Verb::Add,
            StoreMode::Replace => Verb::Replace,
            StoreMode::Append => Verb::Append,
            StoreMode::Prepend => Verb::Prepend,
            StoreMode::Cas(_) => Verb::Cas,
        }
    }

    /// The mode a storage verb spells; `stamp` is the line's `<cas
    /// unique>` field, read only by `cas`.
    fn of(verb: Verb, stamp: u64) -> StoreMode {
        match verb {
            Verb::Add => StoreMode::Add,
            Verb::Replace => StoreMode::Replace,
            Verb::Append => StoreMode::Append,
            Verb::Prepend => StoreMode::Prepend,
            Verb::Cas => StoreMode::Cas(stamp),
            _ => StoreMode::Set,
        }
    }
}

/// One parsed client command: one variant per wire [`Shape`] (the bare
/// verbs, which share nothing but their shape, stay apart).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Command {
    /// `get` / `gets` with one or more keys.
    Get {
        /// Keys to look up, in request order.
        keys: Vec<Bytes>,
        /// `gets`: each `VALUE` line carries the entry's version stamp
        /// (`cas unique`) for a later `cas`.
        with_cas: bool,
    },
    /// `set` / `add` / `replace` / `append` / `prepend` / `cas`: store a
    /// value, subject to `mode`.
    Store {
        /// Which storage verb this is.
        mode: StoreMode,
        /// The key.
        key: Bytes,
        /// Opaque client flags, echoed back on `get`.
        flags: u32,
        /// Expiry in seconds relative to receipt; `0` = never.
        exptime: u64,
        /// The value payload.
        value: Bytes,
        /// Suppress the reply.
        noreply: bool,
    },
    /// `touch`: update a live entry's expiry without sending or returning
    /// its value (`TOUCHED` / `NOT_FOUND`).
    Touch {
        /// The key.
        key: Bytes,
        /// New expiry in seconds relative to receipt; `0` = never.
        exptime: u64,
        /// Suppress the reply.
        noreply: bool,
    },
    /// `delete` a key.
    Delete {
        /// The key.
        key: Bytes,
        /// Suppress the reply.
        noreply: bool,
    },
    /// `incr` / `decr`: add to, or subtract from (floored at 0), a
    /// decimal-numeric value.
    Arith {
        /// The key.
        key: Bytes,
        /// Amount to add or subtract.
        delta: u64,
        /// `decr`: subtract instead of add.
        decr: bool,
        /// Suppress the reply.
        noreply: bool,
    },
    /// `stats`: dump server counters.
    Stats,
    /// `version`.
    Version,
    /// `quit`: close the connection.
    Quit,
}

impl Command {
    /// The verb this command is spelled with.
    pub fn verb(&self) -> Verb {
        match self {
            Command::Get {
                with_cas: false, ..
            } => Verb::Get,
            Command::Get { with_cas: true, .. } => Verb::Gets,
            Command::Store { mode, .. } => mode.verb(),
            Command::Touch { .. } => Verb::Touch,
            Command::Delete { .. } => Verb::Delete,
            Command::Arith { decr: false, .. } => Verb::Incr,
            Command::Arith { decr: true, .. } => Verb::Decr,
            Command::Stats => Verb::Stats,
            Command::Version => Verb::Version,
            Command::Quit => Verb::Quit,
        }
    }

    /// True when the client asked for no reply.
    pub fn noreply(&self) -> bool {
        match self {
            Command::Store { noreply, .. }
            | Command::Touch { noreply, .. }
            | Command::Delete { noreply, .. }
            | Command::Arith { noreply, .. } => *noreply,
            _ => false,
        }
    }

    /// The command's routing key: its first (for `get`/`gets`, only
    /// meaningful when single-key) key. `None` for keyless commands
    /// (`stats`, `version`, `quit`) — a router must pick a home for those
    /// by policy, not by hash.
    pub fn key(&self) -> Option<&Bytes> {
        match self {
            Command::Get { keys, .. } => keys.first(),
            Command::Store { key, .. }
            | Command::Touch { key, .. }
            | Command::Delete { key, .. }
            | Command::Arith { key, .. } => Some(key),
            Command::Stats | Command::Version | Command::Quit => None,
        }
    }

    /// True for commands that mutate the store (the table's `write`
    /// column).
    pub fn is_write(&self) -> bool {
        self.verb().info().write
    }

    /// Appends the canonical wire form to `out` — the inverse of
    /// [`CommandParser`]. Round-tripping may normalize whitespace but
    /// never changes meaning; a router re-encodes parsed commands with
    /// this when forwarding to a backend.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        use std::io::Write as _;
        out.extend_from_slice(self.verb().info().name.as_bytes());
        // Infallible: Vec's io::Write never errors.
        match self {
            Command::Get { keys, .. } => {
                for key in keys {
                    out.push(b' ');
                    out.extend_from_slice(key);
                }
            }
            Command::Store {
                mode,
                key,
                flags,
                exptime,
                value,
                ..
            } => {
                out.push(b' ');
                out.extend_from_slice(key);
                let _ = write!(out, " {flags} {exptime} {}", value.len());
                if let StoreMode::Cas(stamp) = mode {
                    let _ = write!(out, " {stamp}");
                }
            }
            Command::Touch {
                key, exptime: num, ..
            }
            | Command::Arith {
                key, delta: num, ..
            } => {
                out.push(b' ');
                out.extend_from_slice(key);
                let _ = write!(out, " {num}");
            }
            Command::Delete { key, .. } => {
                out.push(b' ');
                out.extend_from_slice(key);
            }
            Command::Stats | Command::Version | Command::Quit => {}
        }
        if self.noreply() {
            out.extend_from_slice(b" noreply");
        }
        out.extend_from_slice(wire::CRLF);
        if let Command::Store { value, .. } = self {
            out.extend_from_slice(value);
            out.extend_from_slice(wire::CRLF);
        }
    }
}

/// Why parsing failed; the server answers [`ProtoError::to_reply`] and
/// closes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtoError {
    /// A line exceeded the configured limit.
    TooLarge,
    /// The line's first word is no verb of the protocol.
    UnknownCommand,
    /// Structurally invalid input, with a short reason.
    Malformed(&'static str),
}

impl ProtoError {
    /// The human-readable reason.
    pub fn reason(&self) -> &'static str {
        match self {
            ProtoError::TooLarge => "line too long",
            ProtoError::UnknownCommand => "unknown command",
            ProtoError::Malformed(why) => why,
        }
    }

    /// The line a server (or a router in front of it) answers this error
    /// with before closing: `ERROR` for an unknown verb, `CLIENT_ERROR
    /// <reason>` for everything else.
    pub fn to_reply(&self) -> Reply {
        match self {
            ProtoError::UnknownCommand => Reply::Error,
            other => Reply::ClientError(other.reason()),
        }
    }
}

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "protocol error: {}", self.reason())
    }
}

impl std::error::Error for ProtoError {}

/// Incremental command parser; one per connection.
///
/// # Examples
///
/// ```
/// use eveth_kv::protocol::{Command, CommandParser};
///
/// let mut p = CommandParser::new();
/// assert!(p.feed(b"set k 7 0 3\r\nab").unwrap().is_none());
/// let cmd = p.feed(b"c\r\nget k\r\n").unwrap().unwrap();
/// match cmd {
///     Command::Store { key, flags, value, .. } => {
///         assert_eq!(&key[..], b"k");
///         assert_eq!(flags, 7);
///         assert_eq!(&value[..], b"abc");
///     }
///     other => panic!("unexpected {other:?}"),
/// }
/// // The pipelined `get` is already buffered:
/// let next = p.feed(b"").unwrap().unwrap();
/// let keys = vec![bytes::Bytes::from_static(b"k")];
/// assert_eq!(next, Command::Get { keys, with_cas: false });
/// ```
#[derive(Debug)]
pub struct CommandParser {
    buf: FrameBuf,
    limit: usize,
    value_limit: usize,
}

impl CommandParser {
    /// A parser with an 8 KB command-line limit and a 1 MiB value limit.
    pub fn new() -> Self {
        Self::with_limit(MAX_LINE_LEN)
    }

    /// A parser with an explicit command-line limit and the default 1 MiB
    /// value limit.
    pub fn with_limit(limit: usize) -> Self {
        Self::with_limits(limit, MAX_VALUE_LEN)
    }

    /// A parser with explicit command-line and value-payload limits. The
    /// value limit is enforced on the *declared* byte count, before any
    /// payload is buffered — a client announcing a huge `set` is rejected
    /// immediately instead of ballooning server memory.
    pub fn with_limits(limit: usize, value_limit: usize) -> Self {
        CommandParser {
            buf: FrameBuf::default(),
            limit,
            value_limit,
        }
    }

    /// Bytes buffered but not yet consumed by a complete command.
    pub fn buffered(&self) -> usize {
        self.buf.buffered()
    }

    /// Feeds bytes; returns a command once one is complete. Call again
    /// with an empty slice to drain pipelined commands already buffered.
    ///
    /// This entry point copies `data` into the staging buffer; the
    /// zero-copy path is [`CommandParser::feed_bytes`].
    ///
    /// # Errors
    ///
    /// [`ProtoError`] on oversized or malformed input; the connection
    /// should be closed afterwards.
    pub fn feed(&mut self, data: &[u8]) -> Result<Option<Command>, ProtoError> {
        self.buf.stage(data);
        self.try_next()
    }

    /// Feeds an owned chunk, aliasing it zero-copy when nothing is
    /// buffered (the common case for a socket's recv loop: each chunk is
    /// drained of complete commands before the next recv). Only a partial
    /// command left straddling the boundary forces a copy-merge into the
    /// staging buffer.
    pub fn feed_bytes(&mut self, chunk: Bytes) -> Result<Option<Command>, ProtoError> {
        self.buf.alias_or_stage(chunk);
        self.try_next()
    }

    /// Extracts the next complete command from the buffered bytes
    /// without feeding anything — the drain step for pipelined bursts.
    pub fn try_next(&mut self) -> Result<Option<Command>, ProtoError> {
        let (limit, value_limit) = (self.limit, self.value_limit);
        let frame = self.buf.next_frame(|buf| {
            scan_frame(buf, limit, |line| ParsedLine::parse(line, value_limit))
        })?;
        Ok(frame.map(|(head, raw)| head.into_command(raw)))
    }
}

/// The buffering under both incremental parsers: hold the bytes fed so
/// far, and split complete frames off the front as refcounted windows.
///
/// At most one of `frozen`/`staging` is non-empty.
#[derive(Debug, Default)]
struct FrameBuf {
    /// Refcounted window over the bytes currently being framed. A chunk
    /// handed to [`FrameBuf::alias_or_stage`] when nothing is buffered
    /// lands here *aliased*, zero-copy; complete frames are split off the
    /// front O(1) and their fields are windows into the same region.
    frozen: Bytes,
    /// Copy-staged bytes, used only when a frame straddles input
    /// boundaries (or for slice-based feeding). Pooled; once it holds a
    /// complete frame the whole staging buffer is frozen into `frozen`
    /// and consumed from there.
    staging: BytesMut,
}

impl FrameBuf {
    fn buffered(&self) -> usize {
        self.staging.len() + self.frozen.len()
    }

    /// Takes ownership of `chunk`: aliased when nothing is buffered,
    /// copy-merged behind the buffered remainder otherwise.
    fn alias_or_stage(&mut self, chunk: Bytes) {
        if self.staging.is_empty() && self.frozen.is_empty() {
            self.frozen = chunk;
        } else {
            self.stage(&chunk);
        }
    }

    /// Copies `data` into the staging buffer, first folding in any frozen
    /// remainder so the buffered bytes stay contiguous.
    fn stage(&mut self, data: &[u8]) {
        if data.is_empty() {
            return;
        }
        if self.staging.is_empty() {
            let mut staging = BufferPool::global().acquire();
            staging.extend_from_slice(&mem::take(&mut self.frozen));
            self.staging = staging;
        }
        self.staging.extend_from_slice(data);
    }

    /// Splits the next complete frame off the front. `scan` inspects the
    /// buffered bytes without consuming them and answers `Some((head,
    /// total))` when `buf[..total]` is one whole frame, `None` when more
    /// bytes are needed (always the answer for an empty buffer).
    fn next_frame<H>(
        &mut self,
        scan: impl FnOnce(&[u8]) -> Result<Option<(H, usize)>, ProtoError>,
    ) -> Result<Option<(H, Bytes)>, ProtoError> {
        let staged = !self.staging.is_empty();
        let buffered: &[u8] = if staged { &self.staging } else { &self.frozen };
        let Some((head, total)) = scan(buffered)? else {
            return Ok(None);
        };
        if staged {
            // Promote: from here on extraction is O(1) splitting.
            self.frozen = mem::take(&mut self.staging).freeze();
        }
        let frame = self.frozen.split_to(total);
        if self.frozen.is_empty() {
            // Drop the (now spent) window so the backing region — a recv
            // chunk or recycled slab — is released.
            self.frozen = Bytes::new();
        }
        Ok(Some((head, frame)))
    }
}

// ---------------------------------------------------------------------------
// The line grammar, shared by commands and replies.
// ---------------------------------------------------------------------------

/// The one field tokenizer: the `(start, end)` spans of a line's fields,
/// a run of spaces counting as one separator. Allocates nothing.
struct Fields<'a> {
    line: &'a [u8],
    pos: usize,
}

impl<'a> Fields<'a> {
    fn new(line: &'a [u8]) -> Self {
        Fields { line, pos: 0 }
    }

    /// The rest of the line after the fields taken so far, without its
    /// leading spaces: the free text of a `STAT` value.
    fn rest(mut self) -> &'a [u8] {
        self.skip_spaces();
        &self.line[self.pos..]
    }

    fn skip_spaces(&mut self) {
        while self.line.get(self.pos) == Some(&b' ') {
            self.pos += 1;
        }
    }
}

impl Iterator for Fields<'_> {
    type Item = (usize, usize);

    fn next(&mut self) -> Option<(usize, usize)> {
        self.skip_spaces();
        let start = self.pos;
        while self.pos < self.line.len() && self.line[self.pos] != b' ' {
            self.pos += 1;
        }
        (self.pos > start).then_some((start, self.pos))
    }
}

/// The one number rule: decimal digits only (no sign), and no overflow.
fn parse_u64(field: &[u8]) -> Option<u64> {
    if field.is_empty() || field.len() > 20 {
        return None;
    }
    let mut v: u64 = 0;
    for &b in field {
        if !b.is_ascii_digit() {
            return None;
        }
        v = v.checked_mul(10)?.checked_add((b - b'0') as u64)?;
    }
    Some(v)
}

/// The one frame rule: a line of at most `limit` bytes up to its CRLF,
/// then — when `head` reads the line as declaring one — a data block of
/// the declared length and its own CRLF. Inspects `buf` without consuming
/// it and answers the head and the frame's length, or `None` while bytes
/// are missing; the [`FrameBuf::next_frame`] scanner of both directions.
fn scan_frame<H>(
    buf: &[u8],
    limit: usize,
    head: impl FnOnce(&[u8]) -> Result<(H, Option<usize>), ProtoError>,
) -> Result<Option<(H, usize)>, ProtoError> {
    let Some(line_end) = find_crlf(buf) else {
        return if buf.len() > limit {
            Err(ProtoError::TooLarge)
        } else {
            Ok(None)
        };
    };
    if line_end > limit {
        return Err(ProtoError::TooLarge);
    }
    let (head, block) = head(&buf[..line_end])?;
    let total = match block {
        // The block length was capped by `head`, so this cannot overflow.
        Some(n) => {
            let need = line_end + 2 + n + 2;
            if buf.len() < need {
                return Ok(None);
            }
            if &buf[need - 2..need] != wire::CRLF {
                return Err(ProtoError::Malformed("data block not CRLF-terminated"));
            }
            need
        }
        None => line_end + 2,
    };
    Ok(Some((head, total)))
}

fn find_crlf(buf: &[u8]) -> Option<usize> {
    buf.windows(2).position(|w| w == b"\r\n")
}

impl Default for CommandParser {
    fn default() -> Self {
        Self::new()
    }
}

/// A scanned command line: the verb, the span of its (first) key —
/// resolved into a `Bytes` slice only once the whole command is buffered —
/// and its numeric fields, parsed once.
struct ParsedLine {
    verb: Verb,
    /// Length of the command line (the offset of its CR in the frame).
    line_len: usize,
    /// Span of the key within the line; for `get`/`gets`, of the first.
    key: (usize, usize),
    noreply: bool,
    /// The line's numeric fields in wire order: `[flags, exptime, bytes,
    /// cas unique]` for the storage shape, `[number]` for key+number.
    nums: [u64; 4],
}

impl ParsedLine {
    /// Reads a command line; answers it and the length of the data block
    /// it declares, which must not exceed `value_limit`.
    fn parse(line: &[u8], value_limit: usize) -> Result<(ParsedLine, Option<usize>), ProtoError> {
        let mut fields = Fields::new(line);
        let (vs, ve) = fields
            .next()
            .ok_or(ProtoError::Malformed("empty command"))?;
        let info = Verb::lookup(&line[vs..ve]).ok_or(ProtoError::UnknownCommand)?;
        let mut parsed = ParsedLine {
            verb: info.verb,
            line_len: line.len(),
            key: (0, 0),
            noreply: false,
            nums: [0; 4],
        };
        if info.shape == Shape::Keys {
            let mut first = None;
            for (s, e) in fields {
                validate_key(&line[s..e])?;
                first.get_or_insert((s, e));
            }
            parsed.key = first.ok_or(ProtoError::Malformed("get needs at least one key"))?;
            return Ok((parsed, None));
        }
        let (arity, what) = match (info.shape, info.verb) {
            (Shape::Storage, Verb::Cas) => {
                (5, "cas needs <key> <flags> <exptime> <bytes> <cas unique>")
            }
            (Shape::Storage, _) => (4, "set needs <key> <flags> <exptime> <bytes>"),
            (Shape::KeyNumber, Verb::Touch) => (2, "touch needs <key> <exptime>"),
            (Shape::KeyNumber, _) => (2, "incr/decr need <key> <delta>"),
            (Shape::Key, _) => (1, "delete needs <key>"),
            _ => (0, "unexpected arguments"),
        };
        // At most the arguments plus a `noreply`, held on the stack.
        let mut args = [(0, 0); 6];
        let mut n = 0;
        for span in fields {
            if n == arity + usize::from(info.noreply) {
                return Err(ProtoError::Malformed(what));
            }
            args[n] = span;
            n += 1;
        }
        if n == arity + 1 && &line[args[arity].0..args[arity].1] == b"noreply" {
            parsed.noreply = true;
            n = arity;
        }
        if n != arity {
            return Err(ProtoError::Malformed(what));
        }
        let num = |field: usize, what: &'static str| {
            let (s, e) = args[field];
            parse_u64(&line[s..e]).ok_or(ProtoError::Malformed(what))
        };
        let nums = &mut parsed.nums;
        match info.shape {
            Shape::Storage => {
                if info.verb == Verb::Cas {
                    nums[3] = num(4, "bad cas unique")?;
                }
                nums[0] = num(1, "bad flags")?;
                if nums[0] > u32::MAX as u64 {
                    return Err(ProtoError::Malformed("flags out of range"));
                }
                nums[1] = num(2, "bad exptime")?;
                nums[2] = num(3, "bad byte count")?;
            }
            Shape::KeyNumber if info.verb == Verb::Touch => nums[0] = num(1, "bad exptime")?,
            Shape::KeyNumber => nums[0] = num(1, "bad delta")?,
            _ => {}
        }
        if arity > 0 {
            parsed.key = args[0];
            validate_key(&line[args[0].0..args[0].1])?;
        }
        let block = (info.shape == Shape::Storage).then_some(parsed.nums[2]);
        match block {
            Some(n) if n > value_limit as u64 => Err(ProtoError::Malformed("value too large")),
            _ => Ok((parsed, block.map(|n| n as usize))),
        }
    }

    /// Builds the final command from its frame (the command line, then
    /// the data block if the verb carries one).
    fn into_command(self, frame: Bytes) -> Command {
        let key = || frame.slice(self.key.0..self.key.1);
        let (verb, noreply) = (self.verb, self.noreply);
        let [first, exptime, bytes, stamp] = self.nums;
        match verb.info().shape {
            Shape::Keys => Command::Get {
                keys: Fields::new(&frame[..self.line_len])
                    .skip(1)
                    .map(|(s, e)| frame.slice(s..e))
                    .collect(),
                with_cas: verb == Verb::Gets,
            },
            Shape::Storage => {
                let data = self.line_len + 2;
                Command::Store {
                    mode: StoreMode::of(verb, stamp),
                    key: key(),
                    flags: first as u32,
                    exptime,
                    value: frame.slice(data..data + bytes as usize),
                    noreply,
                }
            }
            Shape::KeyNumber if verb == Verb::Touch => Command::Touch {
                key: key(),
                exptime: first,
                noreply,
            },
            Shape::KeyNumber => Command::Arith {
                key: key(),
                delta: first,
                decr: verb == Verb::Decr,
                noreply,
            },
            Shape::Key => Command::Delete {
                key: key(),
                noreply,
            },
            Shape::Bare => match verb {
                Verb::Stats => Command::Stats,
                Verb::Version => Command::Version,
                _ => Command::Quit,
            },
        }
    }
}

fn validate_key(key: &[u8]) -> Result<(), ProtoError> {
    if key.is_empty() {
        return Err(ProtoError::Malformed("empty key"));
    }
    if key.len() > MAX_KEY_LEN {
        return Err(ProtoError::Malformed("key too long"));
    }
    if key.iter().any(|&b| b <= b' ' || b == 0x7F) {
        return Err(ProtoError::Malformed(
            "key contains whitespace or control bytes",
        ));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Server replies.
// ---------------------------------------------------------------------------

/// The protocol's fixed reply lines. Centralizing them keeps every encode
/// path byte-identical and lets single-line replies ship as
/// `Bytes::from_static` — a true alias of these constants, zero
/// allocation and zero copy.
pub mod wire {
    /// `END\r\n`.
    pub const END: &[u8] = b"END\r\n";
    /// `STORED\r\n`.
    pub const STORED: &[u8] = b"STORED\r\n";
    /// `NOT_STORED\r\n`.
    pub const NOT_STORED: &[u8] = b"NOT_STORED\r\n";
    /// `EXISTS\r\n`.
    pub const EXISTS: &[u8] = b"EXISTS\r\n";
    /// `TOUCHED\r\n`.
    pub const TOUCHED: &[u8] = b"TOUCHED\r\n";
    /// `DELETED\r\n`.
    pub const DELETED: &[u8] = b"DELETED\r\n";
    /// `NOT_FOUND\r\n`.
    pub const NOT_FOUND: &[u8] = b"NOT_FOUND\r\n";
    /// `ERROR\r\n`.
    pub const ERROR: &[u8] = b"ERROR\r\n";
    /// The line/block terminator.
    pub const CRLF: &[u8] = b"\r\n";
    /// The `VALUE ` line prefix.
    pub const VALUE_PREFIX: &[u8] = b"VALUE ";
}

/// A server reply, encodable to wire bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Reply {
    /// One `VALUE` line + data block (part of a `get`/`gets` response).
    Value {
        /// The key.
        key: Bytes,
        /// Client flags stored with the value.
        flags: u32,
        /// The value payload.
        data: Bytes,
        /// The entry's version stamp — the line's trailing `cas unique`,
        /// present in a `gets` response only.
        cas: Option<u64>,
    },
    /// `END` terminating a `get` or `stats` response.
    End,
    /// `STORED`.
    Stored,
    /// `NOT_STORED` (failed `add`/`replace` precondition).
    NotStored,
    /// `EXISTS` (a `cas` found the entry modified).
    Exists,
    /// `TOUCHED` (a `touch` found and re-deadlined a live entry).
    Touched,
    /// `DELETED`.
    Deleted,
    /// `NOT_FOUND`.
    NotFound,
    /// Numeric result of `incr`/`decr`.
    Number(u64),
    /// One `STAT <name> <value>` line.
    Stat(String, String),
    /// `VERSION <v>`.
    Version(&'static str),
    /// `ERROR` (unknown command).
    Error,
    /// `CLIENT_ERROR <msg>`.
    ClientError(&'static str),
    /// `SERVER_ERROR <msg>` — the server (or a router in front of it)
    /// could not execute an otherwise valid command, e.g. every replica
    /// of the key was unreachable. Unlike `CLIENT_ERROR` it does not
    /// imply the connection must close.
    ServerError(&'static str),
}

/// The replies that are one fixed line, each beside its bytes: the
/// table the gather encoder and the reply scanner both read.
static FIXED_LINES: [(Reply, &[u8]); 8] = [
    (Reply::End, wire::END),
    (Reply::Stored, wire::STORED),
    (Reply::NotStored, wire::NOT_STORED),
    (Reply::Exists, wire::EXISTS),
    (Reply::Touched, wire::TOUCHED),
    (Reply::Deleted, wire::DELETED),
    (Reply::NotFound, wire::NOT_FOUND),
    (Reply::Error, wire::ERROR),
];

impl Reply {
    /// Appends the wire encoding to `out`. Written out variant by
    /// variant on purpose: it is the reference the table-driven
    /// [`Reply::encode_gather`] is tested against.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            Reply::Value {
                key,
                flags,
                data,
                cas,
            } => {
                out.extend_from_slice(wire::VALUE_PREFIX);
                out.extend_from_slice(key);
                let header = match cas {
                    Some(cas) => format!(" {} {} {}\r\n", flags, data.len(), cas),
                    None => format!(" {} {}\r\n", flags, data.len()),
                };
                out.extend_from_slice(header.as_bytes());
                out.extend_from_slice(data);
                out.extend_from_slice(wire::CRLF);
            }
            Reply::End => out.extend_from_slice(wire::END),
            Reply::Stored => out.extend_from_slice(wire::STORED),
            Reply::NotStored => out.extend_from_slice(wire::NOT_STORED),
            Reply::Exists => out.extend_from_slice(wire::EXISTS),
            Reply::Touched => out.extend_from_slice(wire::TOUCHED),
            Reply::Deleted => out.extend_from_slice(wire::DELETED),
            Reply::NotFound => out.extend_from_slice(wire::NOT_FOUND),
            Reply::Number(n) => out.extend_from_slice(format!("{n}\r\n").as_bytes()),
            Reply::Stat(k, v) => out.extend_from_slice(format!("STAT {k} {v}\r\n").as_bytes()),
            Reply::Version(v) => out.extend_from_slice(format!("VERSION {v}\r\n").as_bytes()),
            Reply::Error => out.extend_from_slice(wire::ERROR),
            Reply::ClientError(msg) => {
                out.extend_from_slice(format!("CLIENT_ERROR {msg}\r\n").as_bytes())
            }
            Reply::ServerError(msg) => {
                out.extend_from_slice(format!("SERVER_ERROR {msg}\r\n").as_bytes())
            }
        }
    }

    /// Appends the wire encoding to a gather queue. Byte-identical to
    /// [`Reply::encode_into`], but `VALUE` payloads are queued as O(1)
    /// refcounted windows of the stored entry instead of being copied —
    /// the value bytes flow from the store to the socket untouched. Line
    /// text (prefixes, headers, status lines) lands in the queue's pooled
    /// scratch region, formatted in place without intermediate `String`s.
    pub fn encode_gather(&self, q: &mut ReplyQueue) {
        match self {
            Reply::Value {
                key,
                flags,
                data,
                cas,
            } => {
                q.put_scratch(wire::VALUE_PREFIX);
                q.put_scratch(key);
                match cas {
                    Some(cas) => q.put_fmt(format_args!(" {} {} {}\r\n", flags, data.len(), cas)),
                    None => q.put_fmt(format_args!(" {} {}\r\n", flags, data.len())),
                }
                q.push_bytes(data.clone());
                q.put_scratch(wire::CRLF);
            }
            Reply::Number(n) => q.put_fmt(format_args!("{n}\r\n")),
            Reply::Stat(k, v) => q.put_fmt(format_args!("STAT {k} {v}\r\n")),
            Reply::Version(v) => q.put_fmt(format_args!("VERSION {v}\r\n")),
            Reply::ClientError(msg) => q.put_fmt(format_args!("CLIENT_ERROR {msg}\r\n")),
            Reply::ServerError(msg) => q.put_fmt(format_args!("SERVER_ERROR {msg}\r\n")),
            fixed => {
                let (_, line) = FIXED_LINES
                    .iter()
                    .find(|(reply, _)| reply == fixed)
                    .expect("every reply without text of its own is a fixed line");
                q.put_scratch(line);
            }
        }
    }

    /// True when this reply *completes* a command's response: everything
    /// except the streamed prefixes — `VALUE`/`STAT` lines, which are
    /// closed by a later `END`. A `VERSION` line closes: it is the whole
    /// one-line response to `version`, never a prefix of anything. The
    /// shared rule the client and the router both count pipelined
    /// responses by — a non-closing classification here would leave a
    /// forwarding router waiting forever for a terminator that never
    /// comes.
    pub fn closes_command(&self) -> bool {
        !matches!(self, Reply::Value { .. } | Reply::Stat(..))
    }
}

/// One segment of a pending vectored reply.
#[derive(Debug)]
enum Seg {
    /// A `(start, end)` range of the queue's scratch region.
    Scratch { start: usize, end: usize },
    /// An owned refcounted window (a stored value, aliased zero-copy).
    Owned(Bytes),
}

/// A per-session reply accumulator feeding the gather-write path.
///
/// Replies for a whole pipelined batch are encoded into it back to back:
/// line text goes into one pooled scratch buffer (adjacent text fragments
/// coalesce into a single segment), while `VALUE` payloads are queued as
/// refcounted [`Bytes`] windows of the stored entries — never copied.
/// [`ReplyQueue::finish`] freezes the scratch once and hands back the
/// segment list for one vectored send ([`Conn::sendv`]).
///
/// [`Conn::sendv`]: eveth_core::net::Conn::sendv
///
/// # Examples
///
/// ```
/// use bytes::Bytes;
/// use eveth_kv::protocol::{Reply, ReplyQueue};
///
/// let mut q = ReplyQueue::new();
/// Reply::Value {
///     key: Bytes::from_static(b"k"),
///     flags: 0,
///     data: Bytes::from_static(b"hello"),
///     cas: None,
/// }
/// .encode_gather(&mut q);
/// Reply::End.encode_gather(&mut q);
/// let segs = q.finish();
/// let wire: Vec<u8> = segs.iter().flat_map(|s| s.iter().copied()).collect();
/// assert_eq!(&wire[..], b"VALUE k 0 5\r\nhello\r\nEND\r\n");
/// // The payload segment aliases the stored value (segment 1 here).
/// assert_eq!(&segs[1][..], b"hello");
/// ```
#[derive(Debug, Default)]
pub struct ReplyQueue {
    /// Pooled staging region for reply line text; acquired lazily on the
    /// first write, frozen (and recycled through the pool) per batch.
    scratch: BytesMut,
    segs: Vec<Seg>,
    total: usize,
}

impl ReplyQueue {
    /// An empty queue; allocates nothing until a reply is encoded.
    pub fn new() -> Self {
        ReplyQueue::default()
    }

    /// Total queued bytes across all segments.
    pub fn len(&self) -> usize {
        self.total
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Appends raw text to the scratch region, coalescing with an
    /// immediately preceding scratch segment.
    pub fn put_scratch(&mut self, src: &[u8]) {
        self.ensure_scratch();
        let start = self.scratch.len();
        self.scratch.extend_from_slice(src);
        self.commit_scratch(start);
    }

    /// Formats directly into the scratch region (no intermediate
    /// `String`), coalescing like [`ReplyQueue::put_scratch`].
    pub fn put_fmt(&mut self, args: fmt::Arguments<'_>) {
        use fmt::Write as _;
        self.ensure_scratch();
        let start = self.scratch.len();
        // Infallible: BytesMut's fmt::Write never errors.
        let _ = self.scratch.write_fmt(args);
        self.commit_scratch(start);
    }

    /// Queues an owned window as its own segment — the zero-copy path for
    /// value payloads.
    pub fn push_bytes(&mut self, data: Bytes) {
        if data.is_empty() {
            return;
        }
        self.total += data.len();
        self.segs.push(Seg::Owned(data));
    }

    fn ensure_scratch(&mut self) {
        if self.scratch.capacity() == 0 {
            self.scratch = BufferPool::global().acquire();
        }
    }

    fn commit_scratch(&mut self, start: usize) {
        let end = self.scratch.len();
        if end == start {
            return;
        }
        self.total += end - start;
        if let Some(Seg::Scratch { end: prev_end, .. }) = self.segs.last_mut() {
            if *prev_end == start {
                *prev_end = end;
                return;
            }
        }
        self.segs.push(Seg::Scratch { start, end });
    }

    /// Drains the queue into one segment list for a vectored send: the
    /// scratch region is frozen once and text segments become O(1)
    /// windows of it. The queue is left empty and reusable.
    pub fn finish(&mut self) -> Vec<Bytes> {
        let segs = mem::take(&mut self.segs);
        self.total = 0;
        if segs.is_empty() {
            self.scratch.clear();
            return Vec::new();
        }
        let frozen = mem::take(&mut self.scratch).freeze();
        segs.into_iter()
            .map(|seg| match seg {
                Seg::Scratch { start, end } => frozen.slice(start..end),
                Seg::Owned(b) => b,
            })
            .collect()
    }
}

/// Incremental reply parser, the client side of the wire: feed response
/// bytes and it yields [`Reply`]s one at a time, reassembling `VALUE`
/// data blocks across chunk boundaries. The load generator, the cluster
/// router and scripted clients read replies through its
/// [`ReplyFramer`](crate::client::ReplyFramer), which also keeps each
/// reply's raw frame.
#[derive(Debug, Default)]
pub struct ReplyParser {
    buf: FrameBuf,
}

impl ReplyParser {
    /// A fresh parser.
    pub fn new() -> Self {
        ReplyParser::default()
    }

    /// Bytes buffered but not yet consumed.
    pub fn buffered(&self) -> usize {
        self.buf.buffered()
    }

    /// Feeds bytes; returns the next reply when complete. Call with an
    /// empty slice to drain further buffered replies. This entry point
    /// copies; [`ReplyParser::feed_bytes`] is the zero-copy path.
    ///
    /// # Errors
    ///
    /// [`ProtoError::Malformed`] on an unrecognized reply line,
    /// [`ProtoError::TooLarge`] on a line longer than 8 KiB.
    pub fn feed(&mut self, data: &[u8]) -> Result<Option<Reply>, ProtoError> {
        self.buf.stage(data);
        self.try_next()
    }

    /// Feeds an owned chunk, aliasing it zero-copy when nothing is
    /// buffered — the mirror of [`CommandParser::feed_bytes`] for the
    /// client side.
    ///
    /// # Errors
    ///
    /// As [`ReplyParser::feed`].
    pub fn feed_bytes(&mut self, chunk: Bytes) -> Result<Option<Reply>, ProtoError> {
        self.push(chunk);
        self.try_next()
    }

    /// Extracts the next complete reply from the buffered bytes without
    /// feeding anything — the drain step for pipelined response bursts.
    ///
    /// # Errors
    ///
    /// As [`ReplyParser::feed`].
    pub fn try_next(&mut self) -> Result<Option<Reply>, ProtoError> {
        Ok(self.next_frame()?.map(|(reply, _)| reply))
    }

    /// Buffers an owned chunk without parsing it.
    pub(crate) fn push(&mut self, chunk: Bytes) {
        self.buf.alias_or_stage(chunk);
    }

    /// The next complete reply together with its raw frame: the exact
    /// bytes it arrived as, a window of the fed chunk when it lay inside
    /// one.
    pub(crate) fn next_frame(&mut self) -> Result<Option<(Reply, Bytes)>, ProtoError> {
        let frame = self
            .buf
            .next_frame(|buf| scan_frame(buf, MAX_LINE_LEN, reply_head))?;
        Ok(frame.map(|(head, raw)| (head.into_reply(&raw), raw)))
    }
}

/// A scanned reply head; `Value` field windows are resolved against the
/// frame only after the whole reply is known complete.
enum ReplyHead {
    Plain(Reply),
    Value {
        key: (usize, usize),
        flags: u32,
        len: usize,
        cas: Option<u64>,
    },
}

impl ReplyHead {
    fn into_reply(self, raw: &Bytes) -> Reply {
        match self {
            ReplyHead::Plain(reply) => reply,
            ReplyHead::Value {
                key: (ks, ke),
                flags,
                len,
                cas,
            } => {
                // The data block sits between the line and the final CRLF.
                let data_end = raw.len() - wire::CRLF.len();
                Reply::Value {
                    key: raw.slice(ks..ke),
                    flags,
                    data: raw.slice(data_end - len..data_end),
                    cas,
                }
            }
        }
    }
}

/// Reads a reply line; answers its head and the length of the data block
/// it declares (a `VALUE` line's, capped at [`MAX_VALUE_LEN`]).
fn reply_head(line: &[u8]) -> Result<(ReplyHead, Option<usize>), ProtoError> {
    let mut fields = Fields::new(line);
    let field = |span: Option<(usize, usize)>| span.map(|(s, e)| &line[s..e]);
    let word = field(fields.next()).unwrap_or_default();
    let text = |bytes: &[u8]| {
        std::str::from_utf8(bytes)
            .map(str::to_string)
            .map_err(|_| ProtoError::Malformed("non-UTF-8 STAT line"))
    };
    let reply = match word {
        b"VALUE" => {
            let key = fields.next().ok_or(ProtoError::Malformed("VALUE key"))?;
            let flags = field(fields.next())
                .and_then(parse_u64)
                .and_then(|flags| u32::try_from(flags).ok())
                .ok_or(ProtoError::Malformed("VALUE flags"))?;
            // The length is the peer's word: capped before it sizes
            // anything, which also keeps the frame offsets from overflow.
            let len = field(fields.next())
                .and_then(parse_u64)
                .filter(|&len| len <= MAX_VALUE_LEN as u64)
                .ok_or(ProtoError::Malformed("VALUE length"))? as usize;
            // A fourth field is the `cas unique` of a `gets` response.
            let cas = field(fields.next())
                .map(|stamp| parse_u64(stamp).ok_or(ProtoError::Malformed("VALUE cas unique")))
                .transpose()?;
            if fields.next().is_some() {
                return Err(ProtoError::Malformed("VALUE extra field"));
            }
            let head = ReplyHead::Value {
                key,
                flags,
                len,
                cas,
            };
            return Ok((head, Some(len)));
        }
        b"STAT" => {
            let name = field(fields.next()).ok_or(ProtoError::Malformed("STAT without name"))?;
            let value = fields.rest();
            if value.is_empty() {
                return Err(ProtoError::Malformed("STAT without value"));
            }
            Reply::Stat(text(name)?, text(value)?)
        }
        // The parser keeps these replies' kind, not their text.
        b"VERSION" => Reply::Version(""),
        b"CLIENT_ERROR" => Reply::ClientError(""),
        b"SERVER_ERROR" => Reply::ServerError(""),
        word => {
            let fixed = FIXED_LINES
                .iter()
                .find(|(_, bytes)| &bytes[..bytes.len() - wire::CRLF.len()] == word);
            match (fixed, parse_u64(word), fields.next()) {
                (Some((reply, _)), _, None) => reply.clone(),
                (None, Some(n), None) => Reply::Number(n),
                _ => return Err(ProtoError::Malformed("unrecognized reply")),
            }
        }
    };
    Ok((ReplyHead::Plain(reply), None))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_one(raw: &[u8]) -> Command {
        CommandParser::new().feed(raw).unwrap().unwrap()
    }

    #[test]
    fn parses_multi_key_get() {
        let cmd = parse_one(b"get alpha beta gamma\r\n");
        match cmd {
            Command::Get {
                keys,
                with_cas: false,
            } => {
                let keys: Vec<_> = keys.iter().map(|k| k.to_vec()).collect();
                assert_eq!(
                    keys,
                    vec![b"alpha".to_vec(), b"beta".to_vec(), b"gamma".to_vec()]
                );
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn set_value_is_slice_of_one_buffer() {
        let cmd = parse_one(b"set k 1 60 5\r\nhello\r\n");
        match cmd {
            Command::Store {
                mode: StoreMode::Set,
                key,
                flags,
                exptime,
                value,
                noreply,
            } => {
                assert_eq!(&key[..], b"k");
                assert_eq!(flags, 1);
                assert_eq!(exptime, 60);
                assert_eq!(&value[..], b"hello");
                assert!(!noreply);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn binary_safe_values() {
        let mut raw = b"set bin 0 0 4\r\n".to_vec();
        raw.extend_from_slice(&[0x00, 0xFF, b'\r', b'\n']);
        raw.extend_from_slice(b"\r\n");
        let cmd = CommandParser::new().feed(&raw).unwrap().unwrap();
        match cmd {
            Command::Store { value, .. } => assert_eq!(&value[..], &[0x00, 0xFF, b'\r', b'\n']),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn byte_at_a_time_feeding() {
        let raw = b"set k 0 0 3\r\nxyz\r\ndelete k noreply\r\n";
        let mut p = CommandParser::new();
        let mut got = Vec::new();
        for b in raw.iter() {
            if let Some(c) = p.feed(std::slice::from_ref(b)).unwrap() {
                got.push(c);
            }
        }
        while let Some(c) = p.feed(b"").unwrap() {
            got.push(c);
        }
        assert_eq!(got.len(), 2);
        assert!(matches!(got[0], Command::Store { .. }));
        assert!(matches!(got[1], Command::Delete { noreply: true, .. }));
        assert_eq!(p.buffered(), 0);
    }

    #[test]
    fn pipelined_commands_keep_remainder() {
        let mut p = CommandParser::new();
        let first = p
            .feed(b"incr n 5\r\ndecr n 2\r\nstats\r\n")
            .unwrap()
            .unwrap();
        assert!(matches!(
            first,
            Command::Arith {
                delta: 5,
                decr: false,
                ..
            }
        ));
        assert!(matches!(
            p.feed(b"").unwrap().unwrap(),
            Command::Arith {
                delta: 2,
                decr: true,
                ..
            }
        ));
        assert_eq!(p.feed(b"").unwrap().unwrap(), Command::Stats);
        assert!(p.feed(b"").unwrap().is_none());
    }

    #[test]
    fn parses_add_replace_cas_gets() {
        match parse_one(b"add k 3 60 2\r\nab\r\n") {
            Command::Store {
                mode: StoreMode::Add,
                key,
                flags,
                value,
                ..
            } => {
                assert_eq!(&key[..], b"k");
                assert_eq!(flags, 3);
                assert_eq!(&value[..], b"ab");
            }
            other => panic!("unexpected {other:?}"),
        }
        match parse_one(b"replace k 0 0 1 noreply\r\nx\r\n") {
            Command::Store {
                mode: StoreMode::Replace,
                noreply,
                ..
            } => assert!(noreply),
            other => panic!("unexpected {other:?}"),
        }
        match parse_one(b"cas k 1 0 3 99\r\nxyz\r\n") {
            Command::Store {
                mode: StoreMode::Cas(cas_unique),
                key,
                value,
                noreply,
                ..
            } => {
                assert_eq!(&key[..], b"k");
                assert_eq!(cas_unique, 99);
                assert_eq!(&value[..], b"xyz");
                assert!(!noreply);
            }
            other => panic!("unexpected {other:?}"),
        }
        match parse_one(b"cas k 1 0 0 7 noreply\r\n\r\n") {
            Command::Store {
                mode: StoreMode::Cas(cas_unique),
                noreply,
                ..
            } => {
                assert_eq!(cas_unique, 7);
                assert!(noreply);
            }
            other => panic!("unexpected {other:?}"),
        }
        match parse_one(b"gets a b\r\n") {
            Command::Get {
                keys,
                with_cas: true,
            } => assert_eq!(keys.len(), 2),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_append_prepend_touch() {
        match parse_one(b"append k 9 60 3\r\nxyz\r\n") {
            Command::Store {
                mode: StoreMode::Append,
                key,
                flags,
                exptime,
                value,
                noreply,
            } => {
                assert_eq!(&key[..], b"k");
                assert_eq!((flags, exptime), (9, 60));
                assert_eq!(&value[..], b"xyz");
                assert!(!noreply);
            }
            other => panic!("unexpected {other:?}"),
        }
        match parse_one(b"prepend k 0 0 2 noreply\r\nab\r\n") {
            Command::Store {
                mode: StoreMode::Prepend,
                value,
                noreply,
                ..
            } => {
                assert_eq!(&value[..], b"ab");
                assert!(noreply);
            }
            other => panic!("unexpected {other:?}"),
        }
        match parse_one(b"touch k 120\r\n") {
            Command::Touch {
                key,
                exptime,
                noreply,
            } => {
                assert_eq!(&key[..], b"k");
                assert_eq!(exptime, 120);
                assert!(!noreply);
            }
            other => panic!("unexpected {other:?}"),
        }
        match parse_one(b"touch k 0 noreply\r\n") {
            Command::Touch { noreply, .. } => assert!(noreply),
            other => panic!("unexpected {other:?}"),
        }
        for bad in [
            &b"append k 0 0\r\n"[..],
            &b"prepend k 0 0 x\r\na\r\n"[..],
            &b"touch k\r\n"[..],
            &b"touch k notanumber\r\n"[..],
            &b"touch k 0 extra stuff\r\n"[..],
        ] {
            assert!(
                CommandParser::new().feed(bad).is_err(),
                "should reject {:?}",
                String::from_utf8_lossy(bad)
            );
        }
    }

    #[test]
    fn touched_reply_roundtrips() {
        let mut wire = Vec::new();
        Reply::Touched.encode_into(&mut wire);
        assert_eq!(&wire[..], b"TOUCHED\r\n");
        let got = ReplyParser::new().feed(&wire).unwrap().unwrap();
        assert_eq!(got, Reply::Touched);
    }

    #[test]
    fn value_cas_reply_roundtrips_with_stamp() {
        let replies = vec![
            Reply::Value {
                key: Bytes::from_static(b"k"),
                flags: 2,
                data: Bytes::from_static(b"payload"),
                cas: Some(12345),
            },
            Reply::End,
            Reply::NotStored,
            Reply::Exists,
        ];
        let mut wire = Vec::new();
        for r in &replies {
            r.encode_into(&mut wire);
        }
        assert!(wire.starts_with(b"VALUE k 2 7 12345\r\n"));
        let mut p = ReplyParser::new();
        let mut got = Vec::new();
        for chunk in wire.chunks(4) {
            if let Some(r) = p.feed(chunk).unwrap() {
                got.push(r);
                while let Some(r) = p.feed(b"").unwrap() {
                    got.push(r);
                }
            }
        }
        assert_eq!(got, replies);
    }

    #[test]
    fn encode_into_roundtrips_through_the_parser() {
        let raws: &[&[u8]] = &[
            b"get alpha\r\n",
            b"get alpha beta\r\n",
            b"gets k\r\n",
            b"set k 7 60 5\r\nhello\r\n",
            b"set k 0 0 2 noreply\r\nhi\r\n",
            b"add k 1 2 1\r\nx\r\n",
            b"replace k 0 0 1\r\ny\r\n",
            b"cas k 1 0 3 99\r\nxyz\r\n",
            b"cas k 1 0 1 7 noreply\r\nz\r\n",
            b"append k 0 0 2\r\nab\r\n",
            b"prepend k 0 0 2 noreply\r\ncd\r\n",
            b"touch k 120\r\n",
            b"touch k 0 noreply\r\n",
            b"delete k\r\n",
            b"delete k noreply\r\n",
            b"incr n 5\r\n",
            b"decr n 2 noreply\r\n",
            b"stats\r\n",
            b"version\r\n",
            b"quit\r\n",
        ];
        for raw in raws {
            let cmd = parse_one(raw);
            let mut wire = Vec::new();
            cmd.encode_into(&mut wire);
            // Canonical form is byte-identical to canonical input...
            assert_eq!(
                wire.as_slice(),
                *raw,
                "encode({:?})",
                String::from_utf8_lossy(raw)
            );
            // ...and reparses to the same command.
            assert_eq!(parse_one(&wire), cmd);
        }
    }

    #[test]
    fn key_and_is_write_classify_commands() {
        assert_eq!(parse_one(b"get a b\r\n").key().unwrap().as_ref(), b"a");
        assert_eq!(parse_one(b"incr n 1\r\n").key().unwrap().as_ref(), b"n");
        assert_eq!(parse_one(b"stats\r\n").key(), None);
        assert!(!parse_one(b"get a\r\n").is_write());
        assert!(!parse_one(b"gets a\r\n").is_write());
        assert!(parse_one(b"set k 0 0 1\r\nx\r\n").is_write());
        assert!(parse_one(b"delete k\r\n").is_write());
        assert!(parse_one(b"touch k 0\r\n").is_write());
        assert!(!parse_one(b"quit\r\n").is_write());
    }

    #[test]
    fn verb_table_matches_the_replication_rule_the_router_documents() {
        let names = |pick: fn(&VerbInfo) -> bool| -> Vec<&str> {
            VERBS.iter().filter(|r| pick(r)).map(|r| r.name).collect()
        };
        // State-independent writes fan out to every replica...
        assert_eq!(names(|r| r.fanout), ["set", "touch", "delete"]);
        // ...conditional ones go to the key's primary only.
        assert_eq!(
            names(|r| r.write && !r.fanout),
            ["add", "replace", "append", "prepend", "cas", "incr", "decr"]
        );
        assert_eq!(
            names(|r| !r.write),
            ["get", "gets", "stats", "version", "quit"]
        );
        for (i, row) in VERBS.iter().enumerate() {
            assert_eq!(row.verb as usize, i, "{} is out of enum order", row.name);
            assert_eq!(Verb::lookup(row.name.as_bytes()), Some(row));
            // Exactly the writes take `noreply`, and every keyed non-write
            // is a retrieval.
            assert_eq!(row.noreply, row.write, "{}", row.name);
            assert_eq!(
                row.noreply,
                !matches!(row.shape, Shape::Keys | Shape::Bare),
                "{}",
                row.name
            );
            // The parser honours the column: a trailing `noreply` is a
            // flag where accepted, an argument (or an error) elsewhere.
            let line = match row.shape {
                Shape::Keys | Shape::Key => format!("{} k noreply\r\n", row.name),
                Shape::Storage if row.verb == Verb::Cas => {
                    format!("{} k 0 0 1 7 noreply\r\nx\r\n", row.name)
                }
                Shape::Storage => format!("{} k 0 0 1 noreply\r\nx\r\n", row.name),
                Shape::KeyNumber => format!("{} k 1 noreply\r\n", row.name),
                Shape::Bare => format!("{} noreply\r\n", row.name),
            };
            match CommandParser::new().feed(line.as_bytes()) {
                Ok(Some(cmd)) => {
                    assert_eq!(cmd.verb(), row.verb);
                    assert_eq!(cmd.noreply(), row.noreply, "{line:?}");
                    assert_eq!(cmd.is_write(), row.write, "{line:?}");
                }
                other => assert!(!row.noreply && other.is_err(), "{line:?}: {other:?}"),
            }
        }
        assert_eq!(Verb::lookup(b"GET"), None, "verbs are case-sensitive");
    }

    #[test]
    fn server_error_roundtrips_and_closes() {
        let mut wire = Vec::new();
        Reply::ServerError("no live replica").encode_into(&mut wire);
        assert_eq!(&wire[..], b"SERVER_ERROR no live replica\r\n");
        let got = ReplyParser::new().feed(&wire).unwrap().unwrap();
        // The parser keeps the shape, not the text (same as CLIENT_ERROR).
        assert_eq!(got, Reply::ServerError(""));
        assert!(got.closes_command());
        // VERSION is a complete single-line response, not a streamed
        // prefix — it must close, or a router framing backend replies
        // would wait forever for a terminator.
        assert!(Reply::Version("").closes_command());
        assert!(!Reply::Value {
            key: Bytes::from_static(b"k"),
            flags: 0,
            data: Bytes::new(),
            cas: None,
        }
        .closes_command());
        assert!(Reply::End.closes_command());
    }

    #[test]
    fn rejects_malformed() {
        for bad in [
            &b"frobnicate\r\n"[..],
            &b"get\r\n"[..],
            &b"gets\r\n"[..],
            &b"add k 0 0\r\n"[..],
            &b"replace k 0 0\r\n"[..],
            &b"cas k 0 0 1\r\nx\r\n"[..],
            &b"cas k 0 0 1 notanumber\r\nx\r\n"[..],
            &b"set k 0 0\r\n"[..],
            &b"set k 0 0 abc\r\n"[..],
            &b"set k x 0 1\r\na\r\n"[..],
            &b"set k 0 x 1\r\na\r\n"[..],
            &b"set k 4294967296 0 1\r\na\r\n"[..],
            &b"incr k notanumber\r\n"[..],
            &b"set \x01 0 0 1\r\nx\r\n"[..],
            &b"stats extra\r\n"[..],
        ] {
            assert!(
                CommandParser::new().feed(bad).is_err(),
                "should reject {:?}",
                String::from_utf8_lossy(bad)
            );
        }
    }

    #[test]
    fn oversized_line_rejected() {
        let mut p = CommandParser::with_limit(32);
        let mut big = b"get ".to_vec();
        big.extend(std::iter::repeat_n(b'a', 64));
        assert_eq!(p.feed(&big).unwrap_err(), ProtoError::TooLarge);
    }

    #[test]
    fn oversized_declared_payload_rejected_before_buffering() {
        let mut p = CommandParser::with_limits(8 * 1024, 64);
        // The line alone declares 65 bytes: rejected with no payload fed.
        assert_eq!(
            p.feed(b"set k 0 0 65\r\n").unwrap_err(),
            ProtoError::Malformed("value too large")
        );
        // At the cap exactly, the set goes through.
        let mut p = CommandParser::with_limits(8 * 1024, 64);
        let mut raw = b"set k 0 0 64\r\n".to_vec();
        raw.extend(std::iter::repeat_n(b'v', 64));
        raw.extend_from_slice(b"\r\n");
        assert!(matches!(
            p.feed(&raw).unwrap().unwrap(),
            Command::Store { .. }
        ));
    }

    #[test]
    fn key_length_boundary() {
        let ok = format!("delete {}\r\n", "k".repeat(MAX_KEY_LEN));
        assert!(CommandParser::new().feed(ok.as_bytes()).unwrap().is_some());
        let bad = format!("delete {}\r\n", "k".repeat(MAX_KEY_LEN + 1));
        assert!(CommandParser::new().feed(bad.as_bytes()).is_err());
    }

    #[test]
    fn feed_bytes_aliases_chunk_zero_copy() {
        let chunk = Bytes::from(b"set k 0 0 5\r\nhello\r\nget k\r\n".to_vec());
        let chunk_ptr = chunk.as_ref().as_ptr();
        let mut p = CommandParser::new();
        match p.feed_bytes(chunk).unwrap().unwrap() {
            Command::Store { value, .. } => {
                // The value is a window of the original chunk region.
                assert!(std::ptr::eq(value.as_ref().as_ptr(), unsafe {
                    chunk_ptr.add(13)
                }));
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(matches!(p.feed(b"").unwrap().unwrap(), Command::Get { .. }));
        assert_eq!(p.buffered(), 0);
    }

    #[test]
    fn feed_bytes_merges_straddling_command() {
        let mut p = CommandParser::new();
        assert!(p
            .feed_bytes(Bytes::from(b"set k 0 0 6\r\nabc".to_vec()))
            .unwrap()
            .is_none());
        assert_eq!(p.buffered(), 16);
        match p
            .feed_bytes(Bytes::from(b"def\r\nstats\r\n".to_vec()))
            .unwrap()
            .unwrap()
        {
            Command::Store { value, .. } => assert_eq!(&value[..], b"abcdef"),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(p.feed(b"").unwrap().unwrap(), Command::Stats);
        assert_eq!(p.buffered(), 0);
    }

    #[test]
    fn reply_queue_gathers_byte_identical_to_encode_into() {
        let replies = vec![
            Reply::Value {
                key: Bytes::from_static(b"alpha"),
                flags: 7,
                data: Bytes::from_static(b"payload-bytes"),
                cas: None,
            },
            Reply::Stored,
            Reply::Value {
                key: Bytes::from_static(b"beta"),
                flags: 0,
                data: Bytes::from_static(b"x"),
                cas: Some(99),
            },
            Reply::End,
            Reply::Number(17),
            Reply::ClientError("bad delta"),
        ];
        let mut flat = Vec::new();
        let mut q = ReplyQueue::new();
        for r in &replies {
            r.encode_into(&mut flat);
            r.encode_gather(&mut q);
        }
        assert_eq!(q.len(), flat.len());
        let segs = q.finish();
        let gathered: Vec<u8> = segs.iter().flat_map(|s| s.iter().copied()).collect();
        assert_eq!(gathered, flat);
        assert!(q.is_empty());
        // Adjacent text coalesces: STORED rides in the same segment as the
        // preceding CRLF rather than its own.
        assert!(segs.len() < replies.len() * 2);
    }

    #[test]
    fn reply_queue_value_segment_aliases_store_entry() {
        let value = Bytes::from(b"the stored value".to_vec());
        let mut q = ReplyQueue::new();
        Reply::Value {
            key: Bytes::from_static(b"k"),
            flags: 0,
            data: value.clone(),
            cas: None,
        }
        .encode_gather(&mut q);
        let segs = q.finish();
        let payload = segs
            .iter()
            .find(|s| &s[..] == b"the stored value")
            .expect("payload segment");
        assert!(
            std::ptr::eq(payload.as_ref().as_ptr(), value.as_ref().as_ptr()),
            "payload segment must alias the stored value, not copy it"
        );
    }

    #[test]
    fn reply_parser_feed_bytes_yields_windowed_values() {
        let mut wire = Vec::new();
        Reply::Value {
            key: Bytes::from_static(b"k"),
            flags: 3,
            data: Bytes::from_static(b"abcde"),
            cas: None,
        }
        .encode_into(&mut wire);
        Reply::End.encode_into(&mut wire);
        let chunk = Bytes::from(wire);
        let chunk_ptr = chunk.as_ref().as_ptr();
        let mut p = ReplyParser::new();
        match p.feed_bytes(chunk).unwrap().unwrap() {
            Reply::Value {
                key, flags, data, ..
            } => {
                assert_eq!(&key[..], b"k");
                assert_eq!(flags, 3);
                assert_eq!(&data[..], b"abcde");
                // Both key and payload are windows of the chunk region.
                assert!(std::ptr::eq(key.as_ref().as_ptr(), unsafe {
                    chunk_ptr.add(6)
                }));
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(p.feed(b"").unwrap().unwrap(), Reply::End);
        assert_eq!(p.buffered(), 0);
    }

    #[test]
    fn reply_roundtrip_through_client_parser() {
        let replies = vec![
            Reply::Value {
                key: Bytes::from_static(b"k"),
                flags: 9,
                data: Bytes::from_static(b"\x00binary\r\ndata"),
                cas: None,
            },
            Reply::End,
            Reply::Stored,
            Reply::Deleted,
            Reply::NotFound,
            Reply::Number(1234),
            Reply::Stat("hits".into(), "42".into()),
            Reply::Error,
        ];
        let mut wire = Vec::new();
        for r in &replies {
            r.encode_into(&mut wire);
        }
        let mut p = ReplyParser::new();
        let mut got = Vec::new();
        // Feed in awkward 3-byte chunks to exercise reassembly.
        for chunk in wire.chunks(3) {
            if let Some(r) = p.feed(chunk).unwrap() {
                got.push(r);
                while let Some(r) = p.feed(b"").unwrap() {
                    got.push(r);
                }
            }
        }
        assert_eq!(got, replies);
        assert_eq!(p.buffered(), 0);
    }
}
