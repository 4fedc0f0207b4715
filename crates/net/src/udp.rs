//! Real UDP backend: socket binding and the wire format.
//!
//! The production Raincore implementation "uses UDP as the packet sending
//! and receiving interface" (§2.1). [`UdpNet`] binds a node's sockets and
//! records its peers; [`UdpNet::into_batch_io`] then hands them to the
//! one real-socket I/O engine, [`BatchIo`], which carries the same
//! [`Datagram`] vocabulary as the simulator. The protocol state machines
//! therefore run unchanged on an actual network (see the `udp_cluster`
//! example).
//!
//! Each logical [`Addr`] (node + NIC index) maps to one socket address;
//! multiple NICs per node are simply multiple bound sockets, giving real
//! redundant links exactly as the paper describes.
//!
//! A small header travels in front of every payload so the receiver learns
//! the *logical* source address and traffic class:
//! `varint(src.node) · u8(src.nic) · u8(class) · payload`.

use crate::addr::{Addr, Datagram, PacketClass};
use crate::batch::{BatchConfig, BatchIo};
use bytes::Bytes;
use raincore_types::wire::{Reader, WireDecode, WireEncode, Writer};
use std::collections::HashMap;
use std::net::{SocketAddr, UdpSocket};

/// Encode a datagram into its on-the-wire form:
/// `varint(src.node) · u8(src.nic) · u8(class) · payload`.
///
/// Public so out-of-process tooling (the loss-injecting conformance proxy)
/// can decode the logical source of a packet in flight and re-emit the
/// bytes unchanged — the destination never travels on the wire, it is the
/// receiving socket.
pub fn encode_wire(d: &Datagram) -> Bytes {
    let mut w = Writer::with_capacity(d.payload.len() + 8);
    d.src.encode(&mut w);
    d.class.encode(&mut w);
    w.put_bytes(&d.payload);
    w.finish()
}

/// Decode an on-the-wire datagram received on the socket bound to `dst`.
/// Returns `None` on any malformed input (foreign traffic on the port).
pub fn decode_wire(buf: &[u8], dst: Addr) -> Option<Datagram> {
    let mut r = Reader::new(buf);
    let src = Addr::decode(&mut r).ok()?;
    let class = PacketClass::decode(&mut r).ok()?;
    let payload = r.get_bytes().ok()?;
    r.expect_end().ok()?;
    Some(Datagram {
        src,
        dst,
        class,
        payload,
    })
}

/// Zero-copy variant of [`decode_wire`]: the returned datagram's payload
/// is a slice of `buf` sharing its storage (no copy). Accepts and rejects
/// exactly the same inputs as [`decode_wire`] — the batched I/O engine
/// uses this to hand out payloads that alias pooled receive blocks.
pub fn decode_wire_shared(buf: &Bytes, dst: Addr) -> Option<Datagram> {
    let total = buf.len();
    let mut r = Reader::new(buf);
    let src = Addr::decode(&mut r).ok()?;
    let class = PacketClass::decode(&mut r).ok()?;
    let len = r.get_varint().ok()?;
    // Anything but an exact fit is the copying path's BadLength /
    // Truncated / TrailingBytes — all of which drop the datagram.
    if r.remaining() as u64 != len {
        return None;
    }
    let start = total - r.remaining();
    Some(Datagram {
        src,
        dst,
        class,
        payload: buf.slice(start..start + len as usize),
    })
}

/// Upper bound of the wire header in front of a payload:
/// varint(node ≤ 5) + nic (1) + class (1) + varint(payload len ≤ 10).
pub(crate) const WIRE_HDR_MAX: usize = 17;

/// Encodes just the wire header of `d` into a stack buffer, returning its
/// length. `header ++ payload` is byte-identical to [`encode_wire`] — the
/// batched send path relies on this to gather header and payload as two
/// iovecs without allocating (asserted in `header_split_matches_encode`).
pub(crate) fn encode_wire_header(d: &Datagram, out: &mut [u8; WIRE_HDR_MAX]) -> usize {
    let mut n = put_varint_raw(out, 0, u64::from(d.src.node.0));
    out[n] = d.src.nic;
    n += 1;
    out[n] = d.class.index() as u8;
    n += 1;
    put_varint_raw(out, n, d.payload.len() as u64)
}

/// LEB128 into a fixed buffer; must match `Writer::put_varint` exactly.
fn put_varint_raw(out: &mut [u8; WIRE_HDR_MAX], mut n: usize, mut v: u64) -> usize {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out[n] = byte;
            return n + 1;
        }
        out[n] = byte | 0x80;
        n += 1;
    }
}

/// A node's bound UDP sockets and its peer map, before the I/O engine
/// takes them over.
///
/// Binding is split from driving so a caller can read the OS-chosen
/// ports ([`UdpNet::local_socket_addr`]) and exchange peer addresses
/// before any node starts. `UdpNet` runs no thread and reads no socket:
/// datagrams that arrive before [`UdpNet::into_batch_io`] wait in the
/// kernel socket buffer and come out of the engine's first `recv_batch`.
pub struct UdpNet {
    sockets: Vec<(Addr, UdpSocket)>,
    peers: HashMap<Addr, SocketAddr>,
}

impl UdpNet {
    /// Binds sockets for every `(local logical addr, socket addr)` pair
    /// and records the peer map used to resolve destination [`Addr`]s.
    ///
    /// Pass `0` ports to let the OS choose; the chosen addresses are
    /// readable via [`UdpNet::local_socket_addr`].
    pub fn bind(
        local: &[(Addr, SocketAddr)],
        peers: HashMap<Addr, SocketAddr>,
    ) -> std::io::Result<Self> {
        let sockets = local
            .iter()
            .map(|&(laddr, saddr)| Ok((laddr, UdpSocket::bind(saddr)?)))
            .collect::<std::io::Result<_>>()?;
        Ok(UdpNet { sockets, peers })
    }

    /// The OS socket address actually bound for a local logical address.
    pub fn local_socket_addr(&self, addr: Addr) -> Option<SocketAddr> {
        let (_, sock) = self.sockets.iter().find(|(a, _)| *a == addr)?;
        sock.local_addr().ok()
    }

    /// Registers (or updates) the socket address of a peer's logical
    /// address.
    pub fn add_peer(&mut self, addr: Addr, saddr: SocketAddr) {
        self.peers.insert(addr, saddr);
    }

    /// Hands every bound socket and the peer map to the batched I/O
    /// engine; from here on the caller's pump thread owns all I/O.
    pub fn into_batch_io(self, cfg: BatchConfig) -> std::io::Result<BatchIo> {
        BatchIo::from_parts(self.sockets, self.peers, cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::IoBackend;
    use raincore_types::NodeId;

    fn loopback() -> SocketAddr {
        "127.0.0.1:0".parse().unwrap()
    }

    #[test]
    fn header_round_trip() {
        let d = Datagram::data(
            Addr::new(NodeId(3), 1),
            Addr::primary(NodeId(9)),
            Bytes::from_static(b"abc"),
        );
        let buf = encode_wire(&d);
        let got = decode_wire(&buf, Addr::primary(NodeId(9))).unwrap();
        assert_eq!(got, d);
    }

    #[test]
    fn garbage_header_rejected() {
        assert!(decode_wire(&[0xff, 0xff, 0xff], Addr::primary(NodeId(0))).is_none());
        assert!(decode_wire(&[], Addr::primary(NodeId(0))).is_none());
    }

    #[test]
    fn header_split_matches_encode() {
        for (node, payload) in [
            (NodeId(0), Bytes::new()),
            (NodeId(3), Bytes::from_static(b"abc")),
            (NodeId(300), Bytes::from(vec![7u8; 1000])),
            (NodeId(u32::MAX), Bytes::from(vec![1u8; 200])),
        ] {
            let d = Datagram::data(Addr::new(node, 5), Addr::primary(NodeId(9)), payload);
            let mut hdr = [0u8; WIRE_HDR_MAX];
            let hlen = encode_wire_header(&d, &mut hdr);
            let mut split = hdr[..hlen].to_vec();
            split.extend_from_slice(&d.payload);
            assert_eq!(&split[..], &encode_wire(&d)[..]);
        }
    }

    #[test]
    fn decode_wire_shared_agrees_with_decode_wire() {
        let dst = Addr::primary(NodeId(9));
        let good = encode_wire(&Datagram::control(
            Addr::new(NodeId(7), 2),
            dst,
            Bytes::from_static(b"payload"),
        ));
        let truncated = good.slice(..good.len() - 3);
        let trailing = {
            let mut v = good.to_vec();
            v.push(0xab);
            Bytes::from(v)
        };
        for case in [
            good,
            truncated,
            trailing,
            Bytes::from_static(&[0xff, 0xff, 0xff]),
            Bytes::new(),
        ] {
            let copied = decode_wire(&case, dst);
            let shared = decode_wire_shared(&case, dst);
            assert_eq!(copied, shared);
        }
    }

    #[test]
    fn multiple_nics_bind_separately() {
        let n0 = Addr::new(NodeId(0), 0);
        let n1 = Addr::new(NodeId(0), 1);
        let net = UdpNet::bind(&[(n0, loopback()), (n1, loopback())], HashMap::new()).unwrap();
        let s0 = net.local_socket_addr(n0).unwrap();
        let s1 = net.local_socket_addr(n1).unwrap();
        assert_ne!(s0.port(), s1.port());
    }

    #[test]
    fn datagram_sent_before_conversion_is_first_received() {
        for backend in [IoBackend::Batched, IoBackend::Scalar] {
            let me = Addr::primary(NodeId(1));
            let net = UdpNet::bind(&[(me, loopback())], HashMap::new()).unwrap();
            let to = net.local_socket_addr(me).unwrap();
            let early =
                Datagram::control(Addr::primary(NodeId(0)), me, Bytes::from_static(b"early"));
            let sender = UdpSocket::bind(loopback()).unwrap();
            sender.send_to(&encode_wire(&early), to).unwrap();

            let cfg = BatchConfig {
                backend,
                ..BatchConfig::default()
            };
            let mut io = net.into_batch_io(cfg).unwrap();
            let mut got = Vec::new();
            io.recv_batch(&mut got, std::time::Duration::from_secs(5));
            assert_eq!(got, vec![early], "{backend:?}");
        }
    }
}
