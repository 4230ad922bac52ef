//! Minimal `Buf`/`BufMut`: the little-endian accessors the sketch store's
//! binary frame format and the distributed tier's wire protocol use, plus
//! a tiny length-prefixed framing module ([`frame`]) for the
//! coordinator/worker streams.

/// Read side: consuming little-endian reads over a shrinking slice.
pub trait Buf {
    /// Bytes left to read.
    fn remaining(&self) -> usize;
    /// Pop `n` bytes off the front.
    fn advance(&mut self, n: usize);
    /// Borrow the unread bytes.
    fn chunk(&self) -> &[u8];

    /// Read one byte.
    fn get_u8(&mut self) -> u8 {
        let b = self.chunk()[0];
        self.advance(1);
        b
    }

    /// Read a little-endian `u32`, consuming 4 bytes.
    fn get_u32_le(&mut self) -> u32 {
        let mut b = [0u8; 4];
        b.copy_from_slice(&self.chunk()[..4]);
        self.advance(4);
        u32::from_le_bytes(b)
    }

    /// Read a little-endian `u64`, consuming 8 bytes.
    fn get_u64_le(&mut self) -> u64 {
        let mut b = [0u8; 8];
        b.copy_from_slice(&self.chunk()[..8]);
        self.advance(8);
        u64::from_le_bytes(b)
    }

    /// Read a little-endian `f64`, consuming 8 bytes.
    fn get_f64_le(&mut self) -> f64 {
        f64::from_bits(self.get_u64_le())
    }
}

impl Buf for &[u8] {
    fn remaining(&self) -> usize {
        self.len()
    }

    fn advance(&mut self, n: usize) {
        *self = &self[n..];
    }

    fn chunk(&self) -> &[u8] {
        self
    }
}

/// Write side: appending little-endian writes.
pub trait BufMut {
    /// Append raw bytes.
    fn put_slice(&mut self, src: &[u8]);

    /// Append one byte.
    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }

    /// Append a little-endian `u32`.
    fn put_u32_le(&mut self, v: u32) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Append a little-endian `u64`.
    fn put_u64_le(&mut self, v: u64) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Append a little-endian `f64`.
    fn put_f64_le(&mut self, v: f64) {
        self.put_u64_le(v.to_bits());
    }
}

impl BufMut for Vec<u8> {
    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src);
    }
}

/// Length-prefixed framing over byte streams: every frame is a
/// little-endian `u32` payload length followed by the payload.
///
/// This is the wire format of the distributed shard tier's
/// coordinator/worker protocol (`crates/dist`). It is a shim extension —
/// the real `bytes` crate carries no I/O; when the registry becomes
/// reachable and the shim is swapped out, this module moves verbatim into
/// `dist::proto` (see `crates/shims/README.md`).
pub mod frame {
    use std::io::{self, IoSlice, Read, Write};

    /// Bytes of the length prefix.
    pub const HEADER_LEN: usize = 4;

    /// Largest payload the `u32` length prefix can carry. Writers must
    /// refuse anything bigger — a silent wrap would corrupt the stream.
    pub const MAX_PAYLOAD: usize = u32::MAX as usize;

    /// Encodes one frame (length prefix + payload) into a fresh buffer.
    ///
    /// # Panics
    /// Panics when the payload exceeds [`MAX_PAYLOAD`] (the prefix would
    /// wrap); fallible callers should use [`write_to`].
    pub fn encode(payload: &[u8]) -> Vec<u8> {
        assert!(
            payload.len() <= MAX_PAYLOAD,
            "frame payload of {} bytes exceeds the u32 length prefix",
            payload.len()
        );
        let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
        out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        out.extend_from_slice(payload);
        out
    }

    /// Writes one frame to `w` and flushes it. Fails fast (nothing
    /// written) when the payload exceeds [`MAX_PAYLOAD`] — wrapping the
    /// prefix would corrupt the stream mid-frame.
    ///
    /// The prefix and the payload leave in one vectored write (looping
    /// only on a partial write), never as two back-to-back writes: on a
    /// TCP link a lone 4-byte prefix write followed by the payload is the
    /// write-write-read pattern that stalls the payload behind Nagle's
    /// algorithm until the peer's delayed ACK (~40 ms). The payload is
    /// never copied, so multi-megabyte frames cost no extra memcpy.
    pub fn write_to(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
        if payload.len() > MAX_PAYLOAD {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "frame payload of {} bytes exceeds the u32 length prefix",
                    payload.len()
                ),
            ));
        }
        let header = (payload.len() as u32).to_le_bytes();
        let mut slices = [IoSlice::new(&header), IoSlice::new(payload)];
        let mut pending: &mut [IoSlice<'_>] = &mut slices;
        while !pending.is_empty() {
            match w.write_vectored(pending) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::WriteZero,
                        "failed to write the whole frame",
                    ))
                }
                Ok(n) => IoSlice::advance_slices(&mut pending, n),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        w.flush()
    }

    /// Largest chunk the reader commits memory to ahead of the bytes
    /// actually arriving (see [`read_from`]).
    const READ_CHUNK: usize = 1 << 20;

    /// Reads one frame's payload from `r`.
    ///
    /// Returns `Ok(None)` on a clean end-of-stream (EOF before any header
    /// byte); a stream that ends mid-frame is an error, as is a declared
    /// length above `max_len` (protects against garbage prefixes).
    ///
    /// The length prefix is never trusted with an allocation: the payload
    /// buffer grows in at-most-1-MiB steps as bytes actually
    /// arrive, so a hostile peer that declares `max_len` and then stalls
    /// (or disconnects) costs one chunk of memory, not `max_len`.
    pub fn read_from(r: &mut impl Read, max_len: usize) -> io::Result<Option<Vec<u8>>> {
        let mut header = [0u8; HEADER_LEN];
        let mut got = 0;
        while got < HEADER_LEN {
            match r.read(&mut header[got..])? {
                0 if got == 0 => return Ok(None),
                0 => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "stream ended inside a frame header",
                    ))
                }
                n => got += n,
            }
        }
        let len = u32::from_le_bytes(header) as usize;
        if len > max_len {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("frame length {len} exceeds the {max_len}-byte limit"),
            ));
        }
        let mut payload = Vec::with_capacity(len.min(READ_CHUNK));
        while payload.len() < len {
            let step = (len - payload.len()).min(READ_CHUNK);
            let at = payload.len();
            payload.resize(at + step, 0);
            r.read_exact(&mut payload[at..])?;
        }
        Ok(Some(payload))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let mut buf = Vec::new();
        buf.put_u8(7);
        buf.put_u32_le(0xAB_CD_EF_01);
        buf.put_u64_le(0xDEAD_BEEF_u64);
        buf.put_f64_le(-1.5);
        let mut r: &[u8] = &buf;
        assert_eq!(r.remaining(), 21);
        assert_eq!(r.get_u8(), 7);
        assert_eq!(r.get_u32_le(), 0xAB_CD_EF_01);
        assert_eq!(r.get_u64_le(), 0xDEAD_BEEF_u64);
        assert_eq!(r.get_f64_le(), -1.5);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn frame_roundtrip_over_a_stream() {
        let mut stream = Vec::new();
        frame::write_to(&mut stream, b"hello").unwrap();
        frame::write_to(&mut stream, b"").unwrap();
        frame::write_to(&mut stream, &[9u8; 300]).unwrap();
        let mut r: &[u8] = &stream;
        assert_eq!(frame::read_from(&mut r, 1024).unwrap().unwrap(), b"hello");
        assert_eq!(frame::read_from(&mut r, 1024).unwrap().unwrap(), b"");
        assert_eq!(frame::read_from(&mut r, 1024).unwrap().unwrap(), [9u8; 300]);
        // Clean EOF after the last frame.
        assert!(frame::read_from(&mut r, 1024).unwrap().is_none());
    }

    #[test]
    fn frame_encode_matches_write_to() {
        let mut stream = Vec::new();
        frame::write_to(&mut stream, b"abc").unwrap();
        assert_eq!(frame::encode(b"abc"), stream);
    }

    #[test]
    fn frames_larger_than_one_read_chunk_roundtrip() {
        // Exercises the incremental-allocation path (payload > READ_CHUNK).
        let payload: Vec<u8> = (0..(1 << 20) * 2 + 12345).map(|k| k as u8).collect();
        let mut stream = Vec::new();
        frame::write_to(&mut stream, &payload).unwrap();
        let mut r: &[u8] = &stream;
        assert_eq!(
            frame::read_from(&mut r, usize::MAX).unwrap().unwrap(),
            payload
        );
    }

    /// Records every `write_vectored` call; accepts at most `limit` bytes
    /// per call (`usize::MAX` = everything offered).
    struct CountingWriter {
        bytes: Vec<u8>,
        calls: usize,
        flushes: usize,
        limit: usize,
    }

    impl CountingWriter {
        fn new(limit: usize) -> Self {
            Self {
                bytes: Vec::new(),
                calls: 0,
                flushes: 0,
                limit,
            }
        }
    }

    impl std::io::Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.write_vectored(&[std::io::IoSlice::new(buf)])
        }

        fn write_vectored(&mut self, bufs: &[std::io::IoSlice<'_>]) -> std::io::Result<usize> {
            self.calls += 1;
            let mut taken = 0;
            for b in bufs {
                let n = b.len().min(self.limit - taken);
                self.bytes.extend_from_slice(&b[..n]);
                taken += n;
                if taken == self.limit {
                    break;
                }
            }
            Ok(taken)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            self.flushes += 1;
            Ok(())
        }
    }

    #[test]
    fn frame_leaves_in_one_write_when_the_writer_takes_it_all() {
        for payload in [&b""[..], b"hello", &[7u8; 70_000]] {
            let mut w = CountingWriter::new(usize::MAX);
            frame::write_to(&mut w, payload).unwrap();
            assert_eq!(w.calls, 1, "{}-byte payload", payload.len());
            assert_eq!(w.flushes, 1);
            assert_eq!(w.bytes, frame::encode(payload));
        }
    }

    #[test]
    fn frame_survives_one_byte_partial_writes() {
        let big: Vec<u8> = (0..(1 << 20) + 777).map(|k| (k * 31) as u8).collect();
        for payload in [&b""[..], b"abc", &big[..]] {
            let mut w = CountingWriter::new(1);
            frame::write_to(&mut w, payload).unwrap();
            assert_eq!(w.bytes, frame::encode(payload));
            assert_eq!(w.calls, frame::HEADER_LEN + payload.len());
            assert_eq!(w.flushes, 1);
        }
    }

    #[test]
    fn frame_errors_on_damage() {
        // Truncated mid-header.
        let mut r: &[u8] = &[1u8, 0];
        assert!(frame::read_from(&mut r, 1024).is_err());
        // Truncated mid-payload.
        let full = frame::encode(b"hello");
        let mut r: &[u8] = &full[..full.len() - 2];
        assert!(frame::read_from(&mut r, 1024).is_err());
        // Oversized declared length.
        let mut r: &[u8] = &frame::encode(&[0u8; 64]);
        assert!(frame::read_from(&mut r, 16).is_err());
    }
}
