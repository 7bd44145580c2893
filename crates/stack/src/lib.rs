//! Protocol engines for the Nectar reproduction.
//!
//! §4 of the paper implements "several transport protocols on the CAB,
//! including TCP/IP and a set of Nectar-specific transport protocols"
//! providing "datagram, reliable message, and request-response
//! communication". This crate holds those protocols as *pure,
//! simulation-agnostic state machines* in the smoltcp style: every
//! engine is driven by explicit calls carrying the current time and
//! input bytes, and produces actions (segments to transmit, data to
//! deliver, timers to arm) instead of doing I/O.
//!
//! That purity is what lets the same TCP/IP code run in two places, as
//! it did in the original system: on the CAB (§5.2, protocol engine
//! mode) and on the host (§5.1, network device mode with the Berkeley
//! stack on the host).
//!
//! * [`ip`] — IPv4 endpoint: output path with fragmentation, input path
//!   with validation and reassembly (§4.1).
//! * [`icmp`] — echo responder and error generation (ICMP runs as a
//!   mailbox upcall on the CAB).
//! * [`udp`] — port demultiplexing over IP.
//! * [`tcp`] — the full TCP state machine (§4.2): handshake, sliding
//!   window, Jacobson/Karels RTT estimation with Karn's rule, Tahoe
//!   congestion control, delayed ACK, zero-window probing, and the
//!   checksum-off experimental mode of Figure 7.
//! * [`rmp`] — the Nectar reliable message protocol, "a simple
//!   stop-and-wait protocol".
//! * [`reqresp`] — the Nectar request-response protocol, "the transport
//!   mechanism for client-server RPC calls".
//! * [`conform`] — the conformance oracle: always-on protocol invariant
//!   monitors for simulation builds plus the packetdrill-style `.pkt`
//!   script interpreter (DESIGN.md §11).
//! * [`rtt`] — the RFC 6298 round-trip estimator behind every measured
//!   retransmission timeout (TCP sockets, collective groups).
//! * [`collective`] — CAB-resident collectives: multicast fan-out down
//!   source-rooted trees, log-depth tree barrier, and reduction
//!   combining at interior CABs (DESIGN.md §16).

pub mod collective;
pub mod conform;
pub mod icmp;
pub mod ip;
pub mod reqresp;
pub mod rmp;
pub mod rtt;
pub mod tcp;
pub mod udp;
