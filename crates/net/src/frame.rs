//! Length-prefixed framing: every message on the wire is a `u32`
//! little-endian payload length followed by exactly that many bytes.
//!
//! The prefix makes message boundaries explicit (no sentinel scanning,
//! payloads may contain anything) and lets the reader pre-size its
//! buffer; [`MAX_FRAME`] caps that allocation so a corrupt or hostile
//! prefix cannot balloon memory.
//!
//! A frame leaves in **one** `write`: prefix and payload written
//! separately reach a socket as two segments, and with Nagle's algorithm
//! on, the second waits for the peer's delayed ACK of the first — a
//! measured 40 ms per frame (DESIGN.md "Wire protocol"). The sockets
//! also run with `TCP_NODELAY` (see `server`/`client`), so a frame is on
//! the wire when `write_frame` returns.

use std::io::{self, Read, Write};

/// Upper bound on a single frame's payload (16 MiB). Row dumps from
/// `query … show <n>` are the largest legitimate payloads; anything
/// beyond this is treated as a protocol error, not an allocation.
pub const MAX_FRAME: u32 = 16 * 1024 * 1024;

/// Writes one frame (length prefix + payload) with a single `write_all`
/// and flushes.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    let len = u32::try_from(payload.len())
        .ok()
        .filter(|&l| l <= MAX_FRAME)
        .ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "frame of {} bytes exceeds MAX_FRAME {MAX_FRAME}",
                    payload.len()
                ),
            )
        })?;
    let mut frame = Vec::with_capacity(4 + payload.len());
    frame.extend_from_slice(&len.to_le_bytes());
    frame.extend_from_slice(payload);
    w.write_all(&frame)?;
    w.flush()
}

/// Reads one frame's payload. Returns `Ok(None)` on a clean EOF at a
/// frame boundary (the peer closed between messages); EOF mid-frame is
/// an `UnexpectedEof` error.
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
    // Fill the prefix byte-wise so a clean EOF *before* it (Ok(None))
    // is distinguishable from an EOF *inside* it (UnexpectedEof).
    let mut prefix = [0u8; 4];
    let mut filled = 0;
    while filled < 4 {
        match r.read(&mut prefix[filled..]) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed mid-prefix",
                ))
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    let len = u32::from_le_bytes(prefix);
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds MAX_FRAME {MAX_FRAME}"),
        ));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Accepts whatever it is handed, counting the calls.
    #[derive(Default)]
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_frame_is_one_write() {
        // Including the sizes around 8 KiB, the default capacity of a
        // `BufWriter`: wrapped in one, a frame that does not fit splits.
        for len in [0, 5, 8191, 8192, 8193, 1 << 20] {
            let payload = vec![0xA5u8; len];
            let mut w = CountingWriter::default();
            write_frame(&mut w, &payload).unwrap();
            assert_eq!(w.writes, 1, "{len}-byte payload");
            let back = read_frame(&mut w.bytes.as_slice()).unwrap().unwrap();
            assert_eq!(back, payload);
        }
    }

    #[test]
    fn round_trip_and_boundary_eof() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        write_frame(&mut buf, &[0xFF; 300]).unwrap();

        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"hello");
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"");
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), vec![0xFF; 300]);
        assert!(read_frame(&mut r).unwrap().is_none(), "clean EOF");
    }

    #[test]
    fn eof_mid_frame_is_an_error() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"truncated payload").unwrap();
        let mut r = &buf[..buf.len() - 3];
        assert_eq!(
            read_frame(&mut r).unwrap_err().kind(),
            io::ErrorKind::UnexpectedEof
        );
        // Truncated inside the prefix itself is also mid-frame.
        let mut r = &buf[..2];
        assert_eq!(
            read_frame(&mut r).unwrap_err().kind(),
            io::ErrorKind::UnexpectedEof
        );
    }

    #[test]
    fn oversized_prefix_is_rejected_without_allocating() {
        let bad = (MAX_FRAME + 1).to_le_bytes();
        let mut r = &bad[..];
        assert_eq!(
            read_frame(&mut r).unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
        let mut w = Vec::new();
        assert!(write_frame(&mut w, &vec![0u8; MAX_FRAME as usize + 1]).is_err());
    }
}
