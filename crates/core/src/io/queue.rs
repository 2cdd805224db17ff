//! The one byte FIFO: a queue of refcounted [`Bytes`] chunks addressed
//! by byte offset from the front.
//!
//! Every byte stream in the workspace queues *windows*, not bytes, on it:
//! both directions of an application-level TCP connection (`eveth-tcp`'s
//! TCB), each direction of the simulator's kernel-socket model
//! (`eveth-simos`'s socket fabric) and the FIFO [`pipe`](mod@super::pipe).
//!
//! The TCB's send queue holds what the application wrote until it is
//! acknowledged, its receive queue holds what arrived until it is read,
//! and a segment, its retransmission and a read are O(1) slices of a
//! queued chunk. For the TCB, bytes are physically copied in exactly three
//! places, each through the buffer fabric's counted writes
//! ([`bytes::bytes_copied_total`]) and each reported to the caller:
//!
//! * a [`range`](ByteQueue::range) or [`take`](ByteQueue::take) that
//!   straddles chunks is gathered into one region (at most an MSS for a
//!   segment, one read's worth for a read);
//! * a piece shorter than [`COPY_BREAK`] gives up its window for a
//!   right-sized private region, so that an eight-byte reply waiting for
//!   an ACK (or for a slow reader) never pins the 16 KiB slab it was
//!   encoded in;
//! * a run of such short pieces in one gather write is coalesced into a
//!   single region.
//!
//! The kernel models (the fabric and the pipe) differ in one way: their
//! copies are the kernel's, not the application's, so they stay out of
//! that count. They queue with [`push_window`](ByteQueue::push_window)
//! (no copy-break) and read with [`take_kernel`](ByteQueue::take_kernel)
//! (an uncounted gather, and a drained queue frees its storage).
//!
//! The stream's framing is that of a plain byte queue: `len`, and so every
//! accepted count, segment boundary and read length derived from it, does
//! not depend on how the bytes are chunked.

use std::collections::VecDeque;

use bytes::{Bytes, BytesMut};

/// Pieces shorter than this are copied into a right-sized region instead
/// of holding a window of the caller's (possibly pooled) region.
pub const COPY_BREAK: usize = 256;

/// Applies the copy-break to one piece: returns the piece to queue and
/// how many bytes were copied to make it (0 when the piece is long, or
/// already is its whole region, or aliases `'static` data).
pub fn copy_break(piece: Bytes) -> (Bytes, usize) {
    if piece.len() >= COPY_BREAK || piece.is_empty() {
        return (piece, 0);
    }
    let own = piece.compact();
    let copied = if own.as_ptr() == piece.as_ptr() {
        0
    } else {
        own.len()
    };
    (own, copied)
}

/// Gathers `n` bytes from the front of `parts` into one right-sized
/// region (one counted copy).
fn gather<'a>(parts: impl Iterator<Item = &'a [u8]>, n: usize) -> Bytes {
    let mut out = BytesMut::with_capacity(n);
    for part in parts {
        let take = part.len().min(n - out.len());
        out.extend_from_slice(&part[..take]);
        if out.len() == n {
            break;
        }
    }
    out.freeze()
}

/// A FIFO of non-empty [`Bytes`] chunks, each tagged with the stream offset
/// of its first byte. Offsets are contiguous from front to back, so the
/// length is the distance between the two ends and the chunk holding a
/// byte offset is a binary search away — no cursor to keep in step with
/// ACKs or to reset on go-back-N, and an empty queue is one empty
/// `VecDeque`.
#[derive(Debug, Default)]
pub struct ByteQueue {
    chunks: VecDeque<(u64, Bytes)>,
}

impl ByteQueue {
    /// An empty queue; it allocates on the first push.
    pub fn new() -> Self {
        Self::default()
    }

    /// Stream offset one past the last queued byte (numbering restarts
    /// whenever the queue drains).
    fn end(&self) -> u64 {
        self.chunks
            .back()
            .map_or(0, |(at, chunk)| at + chunk.len() as u64)
    }

    /// Queued bytes.
    pub fn len(&self) -> usize {
        self.chunks
            .front()
            .map_or(0, |(at, _)| (self.end() - at) as usize)
    }

    /// Whether no byte is queued.
    pub fn is_empty(&self) -> bool {
        self.chunks.is_empty()
    }

    fn push_chunk(&mut self, chunk: Bytes) {
        if !chunk.is_empty() {
            self.chunks.push_back((self.end(), chunk));
        }
    }

    /// Appends `chunk` as it is, a window with no copy-break: the kernel
    /// models' copy-in, which is not the application's copy.
    pub fn push_window(&mut self, chunk: Bytes) {
        self.push_chunk(chunk);
    }

    /// Appends one piece under the copy-break; returns the bytes copied.
    pub fn push(&mut self, piece: Bytes) -> usize {
        let (chunk, copied) = copy_break(piece);
        self.push_chunk(chunk);
        copied
    }

    /// Gather write: appends the first `room` bytes of the concatenation
    /// of `pieces`. Returns `(accepted, copied)`.
    pub fn write(&mut self, pieces: &[Bytes], room: usize) -> (usize, usize) {
        let (mut left, mut copied) = (room, 0);
        let mut i = 0;
        while i < pieces.len() && left > 0 {
            // The run of short pieces that starts here: `pieces[i..j]`,
            // `run` bytes in all (the last one possibly cut short by
            // `left`).
            let (mut j, mut run) = (i, 0);
            while j < pieces.len() && run < left {
                let take = pieces[j].len().min(left - run);
                if take >= COPY_BREAK {
                    break;
                }
                run += take;
                j += 1;
            }
            if j == i {
                // No run: a long piece, queued as a window.
                run = pieces[i].len().min(left);
                self.push_chunk(pieces[i].slice(..run));
                j += 1;
            } else if j - i == 1 {
                copied += self.push(pieces[i].slice(..run));
            } else {
                self.push_chunk(gather(pieces[i..j].iter().map(|p| &p[..]), run));
                copied += run;
            }
            left -= run;
            i = j;
        }
        (room - left, copied)
    }

    /// Bytes `off..off + n` as one buffer: a window when they lie inside
    /// one chunk, else a gathered copy. Returns the buffer and the bytes
    /// copied to make it.
    ///
    /// # Panics
    ///
    /// Panics when the range reaches past the end of the queue.
    pub fn range(&self, off: usize, n: usize) -> (Bytes, usize) {
        assert!(off + n <= self.len(), "range past the end of the queue");
        if n == 0 {
            return (Bytes::new(), 0);
        }
        let target = self.chunks[0].0 + off as u64;
        let idx = self
            .chunks
            .partition_point(|(at, chunk)| at + chunk.len() as u64 <= target);
        let (at, first) = &self.chunks[idx];
        let skip = (target - at) as usize;
        if skip + n <= first.len() {
            return (first.slice(skip..skip + n), 0);
        }
        let rest = self.chunks.range(idx + 1..).map(|(_, chunk)| &chunk[..]);
        (gather(std::iter::once(&first[skip..]).chain(rest), n), n)
    }

    /// Drops the first `n` bytes.
    pub fn advance(&mut self, n: usize) {
        assert!(n <= self.len(), "advance past the end of the queue");
        let mut left = n;
        while left > 0 {
            let (at, front) = self.chunks.front_mut().expect("len covers n");
            if front.len() <= left {
                left -= front.len();
                self.chunks.pop_front();
            } else {
                *front = front.slice(left..);
                *at += left as u64;
                left = 0;
            }
        }
    }

    /// Removes and returns the first `n` bytes: a window when the front
    /// chunk covers them, else a gathered copy. Returns the buffer and the
    /// bytes copied to make it.
    pub fn take(&mut self, n: usize) -> (Bytes, usize) {
        let (out, copied) = self.range(0, n);
        self.advance(n);
        (out, copied)
    }

    /// Removes and returns the first `n` bytes as a kernel model copies
    /// them out: a window when the front chunk covers them, else one
    /// gather into a fresh region that stays out of
    /// [`bytes::bytes_copied_total`]. A read that drains the queue frees
    /// its storage, so an idle stream holds none.
    pub fn take_kernel(&mut self, n: usize) -> Bytes {
        let out = if self
            .chunks
            .front()
            .is_none_or(|(_, front)| front.len() >= n)
        {
            self.range(0, n).0
        } else {
            let mut out = Vec::with_capacity(n);
            for (_, chunk) in &self.chunks {
                let take = chunk.len().min(n - out.len());
                out.extend_from_slice(&chunk[..take]);
                if out.len() == n {
                    break;
                }
            }
            Bytes::from(out)
        };
        self.advance(n);
        if self.chunks.is_empty() {
            self.chunks = VecDeque::new();
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn stream(n: usize) -> Vec<u8> {
        (0..n).map(|i| (i * 31 + i / 251) as u8).collect()
    }

    /// A queue holding `stream(total)` in chunks of `sizes` (cycled).
    fn chunked(total: usize, sizes: &[usize]) -> ByteQueue {
        let data = Bytes::from(stream(total));
        let mut q = ByteQueue::new();
        let (mut at, mut i) = (0, 0);
        while at < total {
            let n = sizes[i % sizes.len()].min(total - at);
            q.push_chunk(data.slice(at..at + n));
            at += n;
            i += 1;
        }
        q
    }

    #[test]
    fn range_inside_a_chunk_is_a_window_and_across_chunks_one_gather() {
        let q = chunked(3000, &[1000]);
        let want = stream(3000);
        let (inside, copied) = q.range(1200, 700);
        assert_eq!((&inside[..], copied), (&want[1200..1900], 0));
        assert_eq!(inside.as_ptr(), q.chunks[1].1[200..].as_ptr(), "aliased");
        let (across, copied) = q.range(900, 1300);
        assert_eq!((&across[..], copied), (&want[900..2200], 1300));
        let (whole, copied) = q.range(0, 3000);
        assert_eq!((&whole[..], copied), (&want[..], 3000));
        assert_eq!(q.len(), 3000, "range does not consume");
    }

    #[test]
    fn take_and_advance_cross_chunk_boundaries() {
        let mut q = chunked(2500, &[1000]);
        let want = stream(2500);
        let (a, copied) = q.take(400);
        assert_eq!((&a[..], copied), (&want[..400], 0));
        let (b, copied) = q.take(600);
        assert_eq!((&b[..], copied), (&want[400..1000], 0));
        assert_eq!(q.chunks.len(), 2, "an emptied chunk is released");
        let (c, copied) = q.take(1200);
        assert_eq!((&c[..], copied), (&want[1000..2200], 1200));
        q.advance(100);
        assert_eq!(q.len(), 200);
        let (d, _) = q.take(200);
        assert_eq!(&d[..], &want[2300..]);
        assert!(q.is_empty() && q.chunks.is_empty());
    }

    #[test]
    fn empty_pieces_and_empty_ranges_queue_nothing() {
        let mut q = ByteQueue::new();
        assert_eq!(q.push(Bytes::new()), 0);
        let pieces = [Bytes::new(), Bytes::from(stream(300)), Bytes::new()];
        assert_eq!(q.write(&pieces, 1000), (300, 0));
        assert_eq!(q.write(&[Bytes::new(), Bytes::new()], 1000), (0, 0));
        assert_eq!(q.write(&pieces, 0), (0, 0));
        assert_eq!((q.len(), q.chunks.len()), (300, 1));
        let (none, copied) = q.range(300, 0);
        assert!(none.is_empty() && copied == 0);
        q.advance(0);
        assert_eq!(q.len(), 300);
    }

    #[test]
    fn copy_break_right_sizes_short_windows_only() {
        let region = Bytes::from(stream(4096));
        // A short window of a larger region is copied out…
        let (short, copied) = copy_break(region.slice(10..18));
        assert_eq!((&short[..], copied), (&region[10..18], 8));
        assert_ne!(short.as_ptr(), region[10..].as_ptr());
        // …a long one keeps its window…
        let (long, copied) = copy_break(region.slice(..COPY_BREAK));
        assert_eq!(copied, 0);
        assert_eq!(long.as_ptr(), region.as_ptr());
        // …and a short piece that pins nothing is left alone: `'static`
        // data, and a region the piece covers entirely.
        let fixed = Bytes::from_static(b"STORED\r\n");
        let whole = Bytes::from(stream(8));
        for piece in [fixed, whole] {
            let (same, copied) = copy_break(piece.clone());
            assert_eq!(copied, 0);
            assert_eq!(same.as_ptr(), piece.as_ptr());
        }
    }

    #[test]
    fn a_run_of_short_pieces_is_coalesced_into_one_region() {
        let region = Bytes::from(stream(4096));
        let long = region.slice(1000..1000 + COPY_BREAK);
        let pieces = [
            region.slice(0..20),
            region.slice(20..50),
            long.clone(),
            region.slice(50..60),
            region.slice(60..90),
            region.slice(90..100),
        ];
        let mut q = ByteQueue::new();
        assert_eq!(q.write(&pieces, usize::MAX), (100 + COPY_BREAK, 100));
        let lens: Vec<usize> = q.chunks.iter().map(|(_, c)| c.len()).collect();
        assert_eq!(lens, [50, COPY_BREAK, 50], "one region per run");
        assert_eq!(
            q.chunks[1].1.as_ptr(),
            long.as_ptr(),
            "the long piece is aliased"
        );
        let (all, _) = q.range(0, q.len());
        let want = [&region[..50], &long[..], &region[50..100]].concat();
        assert_eq!(&all[..], &want[..]);
    }

    #[test]
    fn write_stops_at_room_mid_piece_and_mid_run() {
        let region = Bytes::from(stream(4096));
        let pieces = [
            region.slice(0..1000),
            region.slice(1000..1010),
            region.slice(1010..1020),
        ];
        // Room ends inside the long piece: what is left of it is long.
        let mut q = ByteQueue::new();
        assert_eq!(q.write(&pieces, 600), (600, 0));
        // Room ends a few bytes into the long piece: a short window.
        let mut q = ByteQueue::new();
        assert_eq!(q.write(&pieces, 7), (7, 7));
        // Room ends inside the run of short pieces.
        let mut q = ByteQueue::new();
        assert_eq!(q.write(&pieces, 1015), (1015, 15));
        let (all, _) = q.range(0, 1015);
        assert_eq!(&all[..], &region[..1015]);
        assert_eq!(q.chunks.len(), 2);
    }

    #[test]
    fn a_kernel_read_inside_a_chunk_is_a_window_of_the_queued_one() {
        let region = Bytes::from(stream(1000));
        let mut q = ByteQueue::new();
        // Short pieces are queued as they are: no copy-break.
        q.push_window(region.slice(..8));
        q.push_window(region.slice(8..));
        assert_eq!(q.chunks[0].1.as_ptr(), region.as_ptr());
        let first = q.take_kernel(5);
        assert_eq!(&first[..], &region[..5]);
        assert_eq!(first.as_ptr(), region.as_ptr(), "aliased");
        let second = q.take_kernel(3);
        assert_eq!(second.as_ptr(), region[5..].as_ptr(), "aliased");
        assert_eq!(q.len(), 992);
    }

    #[test]
    fn a_kernel_read_across_chunks_is_one_uncounted_gather() {
        let want = stream(3000);
        // The copy counter is process-wide and other tests copy beside
        // this one: the reads count nothing if any attempt sees it stand
        // still (a counted gather would move it by 3,000 every time).
        let uncounted = (0..100).any(|_| {
            let mut q = chunked(3000, &[1000]);
            let copied0 = bytes::bytes_copied_total();
            let (across, rest) = (q.take_kernel(1500), q.take_kernel(1500));
            assert_eq!([&across[..], &rest[..]].concat(), want);
            bytes::bytes_copied_total() == copied0
        });
        assert!(uncounted, "a kernel read's gather is the kernel's copy");
    }

    #[test]
    fn a_kernel_read_that_drains_the_queue_frees_its_storage() {
        let mut q = chunked(3000, &[100]);
        assert!(q.chunks.capacity() > 0);
        q.take_kernel(2999);
        assert!(q.chunks.capacity() > 0, "a partial read keeps it");
        q.take_kernel(1);
        assert!(q.is_empty());
        assert_eq!(q.chunks.capacity(), 0, "storage freed");
    }

    #[test]
    fn lookups_follow_acks_and_rollbacks() {
        let mut q = chunked(10_000, &[1000]);
        let want = stream(10_000);
        // Sequential segments, as `output` cuts them.
        for seg in 0..6 {
            let (s, _) = q.range(seg * 1460, 1460);
            assert_eq!(&s[..], &want[seg * 1460..(seg + 1) * 1460]);
        }
        // An ACK for three segments: every offset shifts down.
        q.advance(3 * 1460);
        let (next, _) = q.range(6 * 1460 - 4380, 1240);
        assert_eq!(&next[..], &want[8760..]);
        // Go-back-N: the next lookup is back at the front.
        let (head, copied) = q.range(0, 1460);
        assert_eq!((&head[..], copied), (&want[4380..5840], 1460));
        // A queue that drained and refilled numbers its chunks afresh.
        q.advance(q.len());
        assert!(q.is_empty());
        q.push_chunk(Bytes::from(stream(500)));
        q.push_chunk(Bytes::from(stream(500)));
        let (again, _) = q.range(400, 200);
        assert_eq!(&again[..], &[&want[400..500], &want[..100]].concat()[..]);
    }

    /// The queue against the plain byte queue it replaces.
    #[derive(Debug, Clone)]
    enum Op {
        Write(Vec<usize>, usize),
        Push(usize),
        Range(usize, usize),
        Advance(usize),
        Take(usize),
    }

    fn op() -> impl Strategy<Value = Op> {
        let size = prop_oneof![0usize..40, 200usize..320, 1000usize..3000].boxed();
        prop_oneof![
            (proptest::collection::vec(size.clone(), 0..5), 0usize..6000)
                .prop_map(|(sizes, room)| Op::Write(sizes, room)),
            size.prop_map(Op::Push),
            (0usize..5000, 1usize..1600).prop_map(|(off, n)| Op::Range(off, n)),
            (0usize..3000).prop_map(Op::Advance),
            (0usize..3000).prop_map(Op::Take),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn behaves_like_a_byte_queue(ops in proptest::collection::vec(op(), 1..60)) {
            let source = Bytes::from(stream(1 << 16));
            let mut fed = 0;
            let mut feed = |n: usize| {
                fed = (fed + n) % (1 << 15);
                source.slice(fed..fed + n)
            };
            let mut q = ByteQueue::new();
            let mut model: Vec<u8> = Vec::new();
            for op in ops {
                match op {
                    Op::Write(sizes, room) => {
                        let pieces: Vec<Bytes> = sizes.into_iter().map(&mut feed).collect();
                        let flat = pieces.concat();
                        let want = room.min(flat.len());
                        let (accepted, copied) = q.write(&pieces, room);
                        prop_assert_eq!(accepted, want);
                        prop_assert!(copied <= accepted);
                        model.extend_from_slice(&flat[..want]);
                    }
                    Op::Push(n) => {
                        let piece = feed(n);
                        model.extend_from_slice(&piece);
                        q.push(piece);
                    }
                    Op::Range(off, n) => {
                        let off = off.min(model.len());
                        let n = n.min(model.len() - off);
                        let (got, _) = q.range(off, n);
                        prop_assert_eq!(&got[..], &model[off..off + n]);
                    }
                    Op::Advance(n) => {
                        let n = n.min(model.len());
                        q.advance(n);
                        model.drain(..n);
                    }
                    Op::Take(n) => {
                        let n = n.min(model.len());
                        let (got, _) = q.take(n);
                        let want: Vec<u8> = model.drain(..n).collect();
                        prop_assert_eq!(&got[..], &want[..]);
                    }
                }
                prop_assert_eq!(q.len(), model.len());
                let sum: usize = q.chunks.iter().map(|(_, c)| c.len()).sum();
                prop_assert_eq!(sum, q.len());
                prop_assert!(q.chunks.iter().all(|(_, c)| !c.is_empty()));
                let ends = q.chunks.iter().map(|(at, c)| at + c.len() as u64);
                prop_assert!(ends.zip(q.chunks.iter().skip(1)).all(|(end, next)| end == next.0));
            }
        }
    }
}
