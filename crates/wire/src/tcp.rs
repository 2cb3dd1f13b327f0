//! TCP segments.
//!
//! Segments carry a *length* rather than literal bytes — the simulator
//! cares about sequence-space arithmetic, timing and airtime, not the
//! data itself. Sequence numbers are full 32-bit values with wrapping
//! comparison, as on the wire.

/// TCP header flags (only the ones the Reno model uses).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TcpFlags {
    /// Synchronise sequence numbers (connection setup).
    pub syn: bool,
    /// Acknowledgement field is valid.
    pub ack: bool,
    /// Sender has finished sending.
    pub fin: bool,
    /// Reset the connection.
    pub rst: bool,
}

impl TcpFlags {
    /// Plain data/ACK segment flags.
    pub const ACK: TcpFlags = TcpFlags {
        syn: false,
        ack: true,
        fin: false,
        rst: false,
    };
    /// SYN.
    pub const SYN: TcpFlags = TcpFlags {
        syn: true,
        ack: false,
        fin: false,
        rst: false,
    };
    /// SYN+ACK.
    pub const SYN_ACK: TcpFlags = TcpFlags {
        syn: true,
        ack: true,
        fin: false,
        rst: false,
    };
}

/// A TCP segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TcpSegment {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Sequence number of the first payload byte.
    pub seq: u32,
    /// Cumulative acknowledgement number (valid if `flags.ack`).
    pub ack: u32,
    /// Advertised receive window in bytes.
    pub window: u32,
    /// Header flags.
    pub flags: TcpFlags,
    /// Payload length in bytes (the bytes themselves are not simulated).
    pub payload_len: u32,
}

impl TcpSegment {
    /// TCP header wire size (no options).
    pub const HEADER_SIZE: usize = 20;

    /// Total wire size: header + payload.
    pub fn wire_size(&self) -> usize {
        Self::HEADER_SIZE + self.payload_len as usize
    }

    /// The sequence number following this segment's payload (SYN/FIN each
    /// consume one sequence number).
    pub fn seq_end(&self) -> u32 {
        let mut len = self.payload_len;
        if self.flags.syn {
            len = len.wrapping_add(1);
        }
        if self.flags.fin {
            len = len.wrapping_add(1);
        }
        self.seq.wrapping_add(len)
    }
}

/// Wrapping "less than" over the 32-bit TCP sequence space (RFC 1982
/// serial number arithmetic).
pub fn seq_lt(a: u32, b: u32) -> bool {
    a != b && b.wrapping_sub(a) < (1 << 31)
}

/// Wrapping "less than or equal" over the sequence space.
pub fn seq_le(a: u32, b: u32) -> bool {
    a == b || seq_lt(a, b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use spider_simcore::check::check;

    fn seg(seq: u32, len: u32, flags: TcpFlags) -> TcpSegment {
        TcpSegment {
            src_port: 80,
            dst_port: 5000,
            seq,
            ack: 0,
            window: 65535,
            flags,
            payload_len: len,
        }
    }

    #[test]
    fn seq_end_counts_syn_and_fin() {
        assert_eq!(seg(100, 50, TcpFlags::ACK).seq_end(), 150);
        assert_eq!(seg(100, 0, TcpFlags::SYN).seq_end(), 101);
        let fin = TcpFlags {
            fin: true,
            ack: true,
            ..Default::default()
        };
        assert_eq!(seg(100, 10, fin).seq_end(), 111);
    }

    #[test]
    fn seq_end_wraps() {
        assert_eq!(seg(u32::MAX, 2, TcpFlags::ACK).seq_end(), 1);
    }

    #[test]
    fn wire_size_includes_header() {
        assert_eq!(seg(0, 1460, TcpFlags::ACK).wire_size(), 1480);
    }

    #[test]
    fn wrapping_comparisons() {
        assert!(seq_lt(1, 2));
        assert!(!seq_lt(2, 1));
        assert!(!seq_lt(5, 5));
        assert!(seq_le(5, 5));
        // Wrap-around: a number just past MAX is "greater".
        assert!(seq_lt(u32::MAX, 3));
        assert!(!seq_lt(3, u32::MAX));
    }

    /// seq_lt is a strict ordering on any window smaller than 2^31.
    #[test]
    fn seq_lt_consistent_with_offsets() {
        check("seq_lt_consistent_with_offsets", 256, |g| {
            let (base, d) = (g.u32(0..u32::MAX), g.u32(1..1 << 30));
            let b = base.wrapping_add(d);
            assert!(seq_lt(base, b), "!({base} < {b})");
            assert!(!seq_lt(b, base), "{b} < {base}");
            assert!(seq_le(base, b), "!({base} <= {b})");
        });
    }
}
