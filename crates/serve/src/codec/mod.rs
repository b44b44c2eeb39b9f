//! Wire codecs: pluggable serialization for the typed protocol.
//!
//! One [`Codec`] API, two encodings:
//!
//! * [`jsonl`] — the original newline-delimited JSON, byte-for-byte
//!   compatible with every pre-codec client and server. No request ids on
//!   the wire: responses arrive in request order and both peers count.
//! * [`ssb`] — `ssb/1`, a length-prefixed binary format framed with
//!   `ssr-store`'s LEB128 varints. Every frame carries an explicit
//!   request id, which is what makes deep pipelining safe. Queries,
//!   pings and their replies are coded field by field, with floats as
//!   raw IEEE-754 bits, so scores are bit-identical to the JSON path
//!   (which uses shortest-round-trip decimals) by construction. Every
//!   admin message travels as its `json/1` line inside one frame, so
//!   [`jsonl`] is the one encoding of each admin message.
//!
//! A server sniffs the protocol from the first byte of a connection: an
//! `ssb/1` client opens with the 4-byte magic [`SSB_MAGIC`] (first byte
//! `S`, which no JSON request line starts with); anything else is treated
//! as JSON. Decoding is incremental — feed whatever bytes have arrived,
//! get back [`Decoded::Incomplete`] until a whole frame is buffered — so
//! the event-driven runtime never blocks on a partial frame.

pub mod jsonl;
pub mod ssb;

use crate::protocol::{Request, Response};

/// The protocol-negotiation magic an `ssb/1` client sends once,
/// immediately after connecting, before its first frame.
pub const SSB_MAGIC: &[u8; 4] = b"SSB1";

/// Frame-size cap enforced by the `ssb/1` decoder: a declared length
/// beyond this is a *length lie* (corruption or attack), not a frame
/// worth buffering for.
pub const MAX_FRAME_BYTES: u64 = 64 << 20;

/// Line-length cap enforced by the JSON decoder: an unterminated request
/// line beyond this will never be served, so the stream is rejected
/// instead of buffered without bound.
pub const MAX_JSON_LINE_BYTES: usize = 8 << 20;

/// The available wire formats, as negotiated per connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireFormat {
    /// Newline-delimited JSON (`json/1`): the compatibility codec.
    Jsonl,
    /// Length-prefixed binary (`ssb/1`): the pipelining codec.
    Ssb,
}

impl WireFormat {
    /// The codec implementing this format.
    pub fn codec(self) -> &'static dyn Codec {
        match self {
            WireFormat::Jsonl => &jsonl::JsonlCodec,
            WireFormat::Ssb => &ssb::SsbCodec,
        }
    }

    /// Versioned wire name (`json/1` / `ssb/1`).
    pub fn name(self) -> &'static str {
        self.codec().name()
    }
}

/// Outcome of one incremental decode attempt against a byte buffer.
///
/// `consumed` counts from the start of the buffer; the caller drops that
/// prefix and tries again. Decoders never panic on hostile input — every
/// malformed byte sequence comes back as [`Decoded::Malformed`].
#[derive(Debug, Clone, PartialEq)]
pub enum Decoded<T> {
    /// The buffer does not yet hold a complete frame; read more bytes.
    Incomplete,
    /// Skippable filler (a blank JSON line); consume and retry.
    Skip {
        /// Bytes to drop from the front of the buffer.
        consumed: usize,
    },
    /// One complete frame decoded.
    Frame {
        /// Bytes the frame occupied.
        consumed: usize,
        /// Request id, when the wire carries one (`ssb/1`). JSON frames
        /// have no id — pairing is positional.
        id: Option<u64>,
        /// The decoded value.
        value: T,
    },
    /// A complete frame (or an unframeable prefix) that does not decode.
    Malformed(Malformed),
}

/// Details of a failed decode.
#[derive(Debug, Clone, PartialEq)]
pub struct Malformed {
    /// Bytes to discard before the stream could continue (`0` when it
    /// cannot).
    pub consumed: usize,
    /// Request id, when the frame carried one before going bad — lets the
    /// server address its error response.
    pub id: Option<u64>,
    /// Whether the stream is still framed after discarding `consumed`
    /// bytes. JSON parse failures are recoverable (the newline still
    /// frames the stream); an `ssb/1` length lie is not.
    pub recoverable: bool,
    /// Human-readable cause (becomes the error response / client error).
    pub error: String,
}

/// One wire encoding of the typed protocol. Implementations are stateless
/// — per-connection state (buffers, id counters) lives with the caller.
pub trait Codec: Send + Sync {
    /// Versioned wire name (`json/1` / `ssb/1`).
    fn name(&self) -> &'static str;

    /// Appends the encoding of one request to `out`. `id` is carried on
    /// the wire by `ssb/1` and ignored by JSON (ids are positional there).
    fn encode_request(&self, id: u64, req: &Request, out: &mut Vec<u8>);

    /// Attempts to decode one request frame from the front of `buf`.
    fn decode_request(&self, buf: &[u8]) -> Decoded<Request>;

    /// Appends the encoding of one response to `out`.
    fn encode_response(&self, id: u64, resp: &Response, out: &mut Vec<u8>);

    /// Attempts to decode one response frame from the front of `buf`.
    fn decode_response(&self, buf: &[u8]) -> Decoded<Response>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_formats_name_their_version() {
        assert_eq!(WireFormat::Jsonl.name(), "json/1");
        assert_eq!(WireFormat::Ssb.name(), "ssb/1");
    }

    #[test]
    fn magic_first_byte_is_unambiguous() {
        // Sniffing keys on the first byte: no JSON request line may start
        // with the magic's first byte.
        assert_eq!(SSB_MAGIC[0], b'S');
        assert_ne!(SSB_MAGIC[0], b'{');
        assert_ne!(SSB_MAGIC[0], b' ');
    }
}
