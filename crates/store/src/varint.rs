//! LEB128 variable-length integer coding.
//!
//! The adjacency sections store node-id gaps, which on sorted real-world
//! adjacency lists are overwhelmingly small — LEB128 gets most of them
//! into one byte where the text format spends 5-8 digit characters plus a
//! separator. Hand-rolled (like the `vendor/` shims) because the build
//! runs without crates.io access.
//!
//! Public because `ssr-serve`'s binary wire codec (`ssb/1`) frames its
//! messages with the same coding — one varint implementation, one set of
//! truncation/overflow semantics across disk and wire.

/// Appends the LEB128 encoding of `value` to `out`.
#[inline]
pub fn write_varint(out: &mut Vec<u8>, mut value: u64) {
    loop {
        let byte = (value & 0x7f) as u8;
        value >>= 7;
        if value == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Decodes one LEB128 integer from `buf[*pos..]`, advancing `*pos`.
///
/// Returns `None` on truncation (the continuation bit set on the last
/// available byte) or overflow past 64 bits — both are corruption, never
/// a panic. This function sits in the inner loop of the zero-parse load,
/// where one- and two-byte varints are about equally common (the v2
/// out-section of a 16,500-node, 205,675-edge citation graph: 49.1% one
/// byte, 47.0% two, 3.9% longer). Both decode in straight-line code, so the
/// only branch on the data is the well-predicted one to the checked path
/// for longer and truncated varints.
#[inline]
pub fn read_varint(buf: &[u8], pos: &mut usize) -> Option<u64> {
    let p = *pos;
    let &first = buf.get(p)?;
    // A missing second byte reads as a continuation byte, so a truncated
    // two-byte varint takes the checked path, which reports it.
    let second = buf.get(p + 1).copied().unwrap_or(0x80);
    let (c0, c1) = (first >> 7, second >> 7);
    if c0 & c1 != 0 {
        *pos = p + 1;
        return read_varint_slow(buf, pos, first);
    }
    // `c0` is 1 for a two-byte varint, whose second byte is then the
    // final one (`c1 == 0`); for a one-byte varint the mask drops it.
    let two = u64::from(c0).wrapping_neg();
    *pos = p + 1 + usize::from(c0);
    Some(u64::from(first & 0x7f) | ((u64::from(second) << 7) & two))
}

/// Continuation of [`read_varint`] after a first byte with the
/// continuation bit set, when the second byte is missing or continues.
#[cold]
fn read_varint_slow(buf: &[u8], pos: &mut usize, first: u8) -> Option<u64> {
    let mut value = u64::from(first & 0x7f);
    let mut shift = 7u32;
    loop {
        let &byte = buf.get(*pos)?;
        *pos += 1;
        // The 10th byte of a u64 varint may only carry the lowest bit.
        if shift == 63 && byte > 1 {
            return None;
        }
        value |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Some(value);
        }
        shift += 7;
        if shift > 63 {
            return None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(v: u64) -> usize {
        let mut buf = Vec::new();
        write_varint(&mut buf, v);
        let mut pos = 0;
        assert_eq!(read_varint(&buf, &mut pos), Some(v), "value {v}");
        assert_eq!(pos, buf.len());
        buf.len()
    }

    #[test]
    fn encodes_boundaries() {
        assert_eq!(round_trip(0), 1);
        assert_eq!(round_trip(127), 1);
        assert_eq!(round_trip(128), 2);
        assert_eq!(round_trip(16_383), 2);
        assert_eq!(round_trip(16_384), 3);
        assert_eq!(round_trip(u64::from(u32::MAX)), 5);
        assert_eq!(round_trip(u64::MAX), 10); // ⌈64/7⌉ bytes
    }

    #[test]
    fn dense_sweep_round_trips() {
        for v in (0..100_000u64).chain((0..64).map(|s| 1u64 << s)) {
            round_trip(v);
        }
    }

    #[test]
    fn truncated_stream_is_none() {
        let mut buf = Vec::new();
        write_varint(&mut buf, 300);
        buf.truncate(1); // continuation bit set, second byte missing
        let mut pos = 0;
        assert_eq!(read_varint(&buf, &mut pos), None);
        assert_eq!(read_varint(&[], &mut 0), None);
    }

    #[test]
    fn overlong_encoding_is_none() {
        // 11 continuation bytes can never terminate inside u64.
        let buf = [0x80u8; 11];
        assert_eq!(read_varint(&buf, &mut 0), None);
        // 10th byte carrying more than the top bit overflows.
        let mut buf = vec![0x80u8; 9];
        buf.push(0x02);
        assert_eq!(read_varint(&buf, &mut 0), None);
    }

    /// The byte-at-a-time checked loop, verbatim: the reference the
    /// straight-line path must match on every input
    /// ([`short_varints_decode_as_the_checked_loop_did`]).
    mod oracle {
        #[inline]
        pub fn read_varint(buf: &[u8], pos: &mut usize) -> Option<u64> {
            let &first = buf.get(*pos)?;
            *pos += 1;
            if first & 0x80 == 0 {
                return Some(u64::from(first));
            }
            read_varint_slow(buf, pos, first)
        }

        #[cold]
        fn read_varint_slow(buf: &[u8], pos: &mut usize, first: u8) -> Option<u64> {
            let mut value = u64::from(first & 0x7f);
            let mut shift = 7u32;
            loop {
                let &byte = buf.get(*pos)?;
                *pos += 1;
                // The 10th byte of a u64 varint may only carry the lowest bit.
                if shift == 63 && byte > 1 {
                    return None;
                }
                value |= u64::from(byte & 0x7f) << shift;
                if byte & 0x80 == 0 {
                    return Some(value);
                }
                shift += 7;
                if shift > 63 {
                    return None;
                }
            }
        }
    }

    #[test]
    fn short_varints_decode_as_the_checked_loop_did() {
        // Every buffer of 0–2 bytes, and every 3-byte buffer whose first
        // two bytes both continue: each way out of the straight-line
        // path. Value, `None` and final `pos` must all agree, at offset 0
        // and behind one leading byte.
        let mut bufs: Vec<Vec<u8>> = vec![Vec::new()];
        bufs.extend((0..=255u8).map(|a| vec![a]));
        for a in 0..=255u8 {
            bufs.extend((0..=255u8).map(|b| vec![a, b]));
        }
        let mut checked = 0usize;
        let mut check = |buf: &[u8], at: usize| {
            let (mut got_pos, mut want_pos) = (at, at);
            let got = read_varint(buf, &mut got_pos);
            let want = oracle::read_varint(buf, &mut want_pos);
            assert_eq!((got, got_pos), (want, want_pos), "{buf:02x?} at {at}");
            checked += 1;
        };
        for buf in &bufs {
            check(buf, 0);
            check(&[&[0xff][..], buf].concat(), 1);
        }
        let mut buf = [0xff, 0x80, 0x80, 0x80];
        for a in 0x80..=0xffu8 {
            for b in 0x80..=0xffu8 {
                for c in 0..=255u8 {
                    buf[1..].copy_from_slice(&[a, b, c]);
                    check(&buf[1..], 0);
                    check(&buf, 1);
                }
            }
        }
        assert_eq!(checked, 2 * (1 + 256 + 256 * 256 + 128 * 128 * 256));
    }

    #[test]
    fn sequential_decode_advances() {
        let mut buf = Vec::new();
        for v in [5u64, 1000, 0, 77] {
            write_varint(&mut buf, v);
        }
        let mut pos = 0;
        let got: Vec<u64> = std::iter::from_fn(|| read_varint(&buf, &mut pos)).take(4).collect();
        assert_eq!(got, vec![5, 1000, 0, 77]);
        assert_eq!(pos, buf.len());
    }
}
