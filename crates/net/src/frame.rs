//! The wire format: length-framed, checksummed, versioned.
//!
//! Every frame is a fixed 40-byte header followed by `len` payload
//! bytes:
//!
//! ```text
//! offset  size  field
//!      0     4  magic      "PDCN"
//!      4     2  version    wire protocol version (little-endian, = 2)
//!      6     1  kind       FrameKind discriminant
//!      7     1  flags      bit 0 overtake, bit 1 retransmit
//!      8     4  src        sender's rank (world rank for control
//!                          frames; *group* rank within comm_id for
//!                          Data — the link itself identifies the
//!                          sending process)
//!     12     4  tag        message tag (i32; meaningful for Data)
//!     16     8  comm_id    destination communicator (Data)
//!     24     8  ack_id     delivery-ack correlation id (Data/Ack)
//!     32     4  len        payload length in bytes
//!     36     4  crc32      IEEE CRC-32 over bytes 0..36 + payload
//! ```
//!
//! All integers are little-endian. A frame that fails any validation —
//! bad magic, unknown version or kind, oversized length, checksum
//! mismatch — poisons the connection it arrived on: the reader treats
//! the stream as corrupt and tears the link down rather than trying to
//! resynchronize, and the reconnect/failure-detection machinery takes
//! over. That is the honest response on a byte stream: once framing is
//! lost there is no reliable way back in.

use std::io::{self, Read, Write};

/// `"PDCN"` — the frame magic.
pub const WIRE_MAGIC: [u8; 4] = *b"PDCN";

/// Wire protocol version. Bumped on any incompatible layout change;
/// peers with mismatched versions refuse each other at handshake.
/// Version 2: Data payloads use `pdc_mpc::codec`'s binary encoding
/// instead of JSON.
pub const WIRE_VERSION: u16 = 2;

/// Refuse absurd frames before allocating for them.
pub const MAX_PAYLOAD: u32 = 64 * 1024 * 1024;

const HEADER_LEN: usize = 40;
const FLAG_OVERTAKE: u8 = 1 << 0;
const FLAG_RETRANSMIT: u8 = 1 << 1;

/// What a frame is for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameKind {
    /// Handshake, dialer → acceptor: payload is a JSON [`Hello`].
    Hello,
    /// Rendezvous reply, rank 0 → joiner: payload is a JSON [`Welcome`].
    Welcome,
    /// One `pdc-mpc` message (the only kind fault injection touches).
    Data,
    /// Delivery ack: `ack_id` echoes a Data frame matched by a receive.
    Ack,
    /// Keepalive, sent on idle links; feeds the failure detector.
    Heartbeat,
    /// Crash notice: `src` announces its own (cooperative) death.
    Dead,
    /// Graceful goodbye: the peer is done; its silence is not a death.
    Bye,
}

impl FrameKind {
    fn to_u8(self) -> u8 {
        match self {
            FrameKind::Hello => 0,
            FrameKind::Welcome => 1,
            FrameKind::Data => 2,
            FrameKind::Ack => 3,
            FrameKind::Heartbeat => 4,
            FrameKind::Dead => 5,
            FrameKind::Bye => 6,
        }
    }

    fn from_u8(b: u8) -> Option<Self> {
        Some(match b {
            0 => FrameKind::Hello,
            1 => FrameKind::Welcome,
            2 => FrameKind::Data,
            3 => FrameKind::Ack,
            4 => FrameKind::Heartbeat,
            5 => FrameKind::Dead,
            6 => FrameKind::Bye,
            _ => return None,
        })
    }
}

/// One decoded wire frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// What the frame is for.
    pub kind: FrameKind,
    /// Sender's rank: world rank for control frames (Hello, Dead, …),
    /// group rank within `comm_id` for Data frames — on an established
    /// link the peer's process identity is known from the connection,
    /// so Data frames spend the field on what the receiver's
    /// `Status::source` must report.
    pub src: u32,
    /// Message tag (Data frames).
    pub tag: i32,
    /// Destination communicator id (Data frames).
    pub comm_id: u64,
    /// Ack correlation id (Data: ack requested; Ack: the echo).
    pub ack_id: u64,
    /// Deliver ahead of queued traffic (injected reordering).
    pub overtake: bool,
    /// Control-plane retransmission: exempt from fault injection.
    pub retransmit: bool,
    /// Payload bytes.
    pub payload: Vec<u8>,
}

impl Frame {
    /// A bare frame of `kind` from world rank `src`, no payload.
    pub fn control(kind: FrameKind, src: u32) -> Self {
        Self {
            kind,
            src,
            tag: 0,
            comm_id: 0,
            ack_id: 0,
            overtake: false,
            retransmit: false,
            payload: Vec::new(),
        }
    }

    /// Serialize into one write-ready buffer.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(HEADER_LEN + self.payload.len());
        buf.extend_from_slice(&WIRE_MAGIC);
        buf.extend_from_slice(&WIRE_VERSION.to_le_bytes());
        buf.push(self.kind.to_u8());
        let mut flags = 0u8;
        if self.overtake {
            flags |= FLAG_OVERTAKE;
        }
        if self.retransmit {
            flags |= FLAG_RETRANSMIT;
        }
        buf.push(flags);
        buf.extend_from_slice(&self.src.to_le_bytes());
        buf.extend_from_slice(&self.tag.to_le_bytes());
        buf.extend_from_slice(&self.comm_id.to_le_bytes());
        buf.extend_from_slice(&self.ack_id.to_le_bytes());
        buf.extend_from_slice(&(self.payload.len() as u32).to_le_bytes());
        let crc = crc32_finish(crc32_update(crc32_update(CRC_INIT, &buf), &self.payload));
        buf.extend_from_slice(&crc.to_le_bytes());
        buf.extend_from_slice(&self.payload);
        buf
    }

    /// Read and validate one frame from a stream. An `UnexpectedEof`
    /// before the first header byte is a clean close; anywhere else it
    /// is a truncated frame. Validation failures come back as
    /// `InvalidData` errors naming the failed check.
    pub fn read_from(r: &mut impl Read) -> io::Result<Frame> {
        let mut header = [0u8; HEADER_LEN];
        r.read_exact(&mut header)?;
        if header[0..4] != WIRE_MAGIC {
            return Err(bad("bad frame magic"));
        }
        let version = u16::from_le_bytes([header[4], header[5]]);
        if version != WIRE_VERSION {
            return Err(bad("unsupported wire version"));
        }
        let Some(kind) = FrameKind::from_u8(header[6]) else {
            return Err(bad("unknown frame kind"));
        };
        let flags = header[7];
        let src = u32::from_le_bytes(header[8..12].try_into().unwrap());
        let tag = i32::from_le_bytes(header[12..16].try_into().unwrap());
        let comm_id = u64::from_le_bytes(header[16..24].try_into().unwrap());
        let ack_id = u64::from_le_bytes(header[24..32].try_into().unwrap());
        let len = u32::from_le_bytes(header[32..36].try_into().unwrap());
        let want_crc = u32::from_le_bytes(header[36..40].try_into().unwrap());
        if len > MAX_PAYLOAD {
            return Err(bad("frame payload too large"));
        }
        let mut payload = vec![0u8; len as usize];
        r.read_exact(&mut payload)?;
        let got_crc = crc32_finish(crc32_update(
            crc32_update(CRC_INIT, &header[..HEADER_LEN - 4]),
            &payload,
        ));
        if got_crc != want_crc {
            return Err(bad("frame checksum mismatch"));
        }
        Ok(Frame {
            kind,
            src,
            tag,
            comm_id,
            ack_id,
            overtake: flags & FLAG_OVERTAKE != 0,
            retransmit: flags & FLAG_RETRANSMIT != 0,
            payload,
        })
    }

    /// Encode and write this frame, flushing the stream.
    pub fn write_to(&self, w: &mut impl Write) -> io::Result<()> {
        w.write_all(&self.encode())?;
        w.flush()
    }
}

fn bad(msg: &'static str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// Handshake payload: who is dialing, and for which session.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct Hello {
    /// Session id both sides must agree on (derived from the launch).
    pub session: u64,
    /// Dialer's world rank.
    pub rank: u32,
    /// Dialer's world size (rank 0 verifies agreement at rendezvous).
    pub np: u32,
    /// Dialer's own listen address, for the rendezvous address book.
    pub listen: String,
}

/// Rendezvous reply: the address book, one listen address per rank.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct Welcome {
    /// Session id (echoed).
    pub session: u64,
    /// `addrs[r]` is rank r's listen address.
    pub addrs: Vec<String>,
}

// ---------------------------------------------------------------------
// CRC-32 (IEEE 802.3), table-driven; the table is built at compile time.
// ---------------------------------------------------------------------

const CRC_INIT: u32 = 0xFFFF_FFFF;

const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
};

/// Fold `data` into a running CRC state (start from [`CRC_INIT`]).
fn crc32_update(mut crc: u32, data: &[u8]) -> u32 {
    for &b in data {
        crc = CRC_TABLE[((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    crc
}

fn crc32_finish(crc: u32) -> u32 {
    crc ^ 0xFFFF_FFFF
}

/// CRC-32 of one buffer (exposed for tests and tools).
pub fn crc32(data: &[u8]) -> u32 {
    crc32_finish(crc32_update(CRC_INIT, data))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data_frame() -> Frame {
        Frame {
            kind: FrameKind::Data,
            src: 3,
            tag: 42,
            comm_id: 7,
            ack_id: 99,
            overtake: true,
            retransmit: true,
            payload: b"hello, wire".to_vec(),
        }
    }

    #[test]
    fn crc32_known_vector() {
        // The classic check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn round_trip_all_kinds() {
        for kind in [
            FrameKind::Hello,
            FrameKind::Welcome,
            FrameKind::Data,
            FrameKind::Ack,
            FrameKind::Heartbeat,
            FrameKind::Dead,
            FrameKind::Bye,
        ] {
            let mut f = data_frame();
            f.kind = kind;
            let bytes = f.encode();
            let back = Frame::read_from(&mut bytes.as_slice()).unwrap();
            assert_eq!(back, f);
        }
    }

    #[test]
    fn corrupt_payload_fails_checksum() {
        let mut bytes = data_frame().encode();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        let err = Frame::read_from(&mut bytes.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("checksum"));
    }

    #[test]
    fn corrupt_header_detected() {
        // Magic.
        let mut bytes = data_frame().encode();
        bytes[0] = b'X';
        assert!(Frame::read_from(&mut bytes.as_slice()).is_err());
        // Version.
        let mut bytes = data_frame().encode();
        bytes[4] = 0xFF;
        assert!(Frame::read_from(&mut bytes.as_slice()).is_err());
        // Kind.
        let mut bytes = data_frame().encode();
        bytes[6] = 200;
        assert!(Frame::read_from(&mut bytes.as_slice()).is_err());
        // A header-field flip (tag) lands on the checksum.
        let mut bytes = data_frame().encode();
        bytes[12] ^= 0x10;
        let err = Frame::read_from(&mut bytes.as_slice()).unwrap_err();
        assert!(err.to_string().contains("checksum"));
    }

    #[test]
    fn version_one_header_is_refused() {
        let mut bytes = data_frame().encode();
        bytes[4..6].copy_from_slice(&1u16.to_le_bytes());
        let err = Frame::read_from(&mut bytes.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(
            err.to_string().contains("unsupported wire version"),
            "{err}"
        );
    }

    #[test]
    fn truncated_frame_is_eof() {
        let bytes = data_frame().encode();
        let cut = &bytes[..bytes.len() - 3];
        let err = Frame::read_from(&mut &cut[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn back_to_back_frames_parse_in_order() {
        let a = Frame::control(FrameKind::Heartbeat, 1);
        let b = data_frame();
        let mut bytes = a.encode();
        bytes.extend_from_slice(&b.encode());
        let mut cursor = bytes.as_slice();
        assert_eq!(Frame::read_from(&mut cursor).unwrap(), a);
        assert_eq!(Frame::read_from(&mut cursor).unwrap(), b);
    }

    #[test]
    fn hello_welcome_payloads_round_trip() {
        let hello = Hello {
            session: 9,
            rank: 2,
            np: 4,
            listen: "127.0.0.1:12345".into(),
        };
        let json = serde_json::to_vec(&hello).unwrap();
        let back: Hello = serde_json::from_slice(&json).unwrap();
        assert_eq!(back, hello);
        let welcome = Welcome {
            session: 9,
            addrs: vec!["a".into(), "b".into()],
        };
        let json = serde_json::to_vec(&welcome).unwrap();
        let back: Welcome = serde_json::from_slice(&json).unwrap();
        assert_eq!(back, welcome);
    }
}
