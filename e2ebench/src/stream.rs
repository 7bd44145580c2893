//! `stream`: the paper's 26-host / 2-HUB deployment carrying 13
//! self-clocked 4 KiB streams (closed loop: each sender keeps its
//! transport's window full), paired as in
//! `nectar::scenario::two_hub_pair_load` — 6 same-HUB pairs, 7 across
//! the trunk, alternating RMP and TCP. Seven pairs (4 RMP, 3 TCP; 4
//! same-HUB, 3 across the trunk) run host-resident through the VME
//! interface; the other six run on the CABs. A light request/response
//! probe, whose schedule the seed sets, and a four-member barrier share
//! the boards with the streams.

use std::cell::Cell;
use std::rc::Rc;

use nectar::collective::CollectiveGroup;
use nectar::config::Config;
use nectar::scenario::{
    CabRmpStreamer, CabSink, CabTcpListener, CabTcpStreamer, HostRmpStreamer, HostSink,
    HostTcpStreamer,
};
use nectar::topology::Topology;
use nectar::world::World;
use nectar_cab::proto::ip_for_cab;
use nectar_cab::reqs::{TcpCtl, MB_TCP_CTL};
use nectar_cab::HostOpMode;
use nectar_sim::{SimDuration, SimTime};

use crate::common::{mbps, Instance, Outcome, RpcProbe};
use crate::member::{deploy_members, fold_group};
use crate::spans::Spans;

pub const HOSTS: usize = 26;
pub const MSG: usize = 4096;
const TCP_PORT: u16 = 5000;
/// Simulated window; long enough for the event queue's growth under
/// uncoalesced wakeups to show.
pub const WINDOW: SimDuration = SimDuration::from_millis(2000);
/// Effectively unbounded: every stream stays active for the window.
const ENDLESS: u64 = u64::MAX / 2;

struct Pair {
    src: u16,
    dst: u16,
    tcp: bool,
    host: bool,
    sink_mbox: u16,
    /// RMP channel key at the source CAB: (dst cab, dst mbox, src mbox).
    rmp_key: (u16, u16, u16),
    received: Rc<Cell<u64>>,
}

/// Source/sink CABs in `two_hub_pair_load` order: among the first 12
/// CABs partners sit two apart (same HUB under the interleaved
/// attachment); the rest pair with their neighbour across the trunk.
fn pairs() -> Vec<(u16, u16)> {
    let mut v = Vec::new();
    for j in 0..3u16 {
        v.push((4 * j, 4 * j + 2));
        v.push((4 * j + 1, 4 * j + 3));
    }
    let mut k = 12u16;
    while k + 1 < HOSTS as u16 {
        v.push((k, k + 1));
        k += 2;
    }
    v
}

fn deploy_pair(world: &mut World, idx: usize, src: u16, dst: u16, host: bool) -> Pair {
    let tcp = idx % 2 == 1;
    let (s, d) = (src as usize, dst as usize);
    let sink_mbox = world.cabs[d].shared.create_mailbox(host, HostOpMode::SharedMemory);
    let src_mbox = world.cabs[s].shared.create_mailbox(host, HostOpMode::SharedMemory);
    let received = match (tcp, host) {
        (false, false) => {
            let (sink, _, received, _) = CabSink::new(sink_mbox, ENDLESS);
            world.cabs[d].fork_app(Box::new(sink));
            let (tx, _) = CabRmpStreamer::new((dst, sink_mbox), src_mbox, MSG, ENDLESS);
            world.cabs[s].fork_app(Box::new(tx));
            received
        }
        (true, false) => {
            let accept = world.cabs[d].shared.create_mailbox(false, HostOpMode::SharedMemory);
            world.cabs[d].fork_app(Box::new(CabTcpListener::new(TCP_PORT, accept, sink_mbox)));
            let (sink, _, received, _) = CabSink::new(sink_mbox, ENDLESS);
            world.cabs[d].fork_app(Box::new(sink));
            let (tx, _) = CabTcpStreamer::new(dst, TCP_PORT, MSG, ENDLESS);
            world.cabs[s].fork_app(Box::new(tx));
            received
        }
        (false, true) => {
            let (sink, _, received, _) = HostSink::new(sink_mbox, None, ENDLESS);
            world.hosts[d].spawn(Box::new(sink));
            let (tx, _) = HostRmpStreamer::new((dst, sink_mbox), src_mbox, MSG, ENDLESS);
            world.hosts[s].spawn(Box::new(tx));
            received
        }
        (true, true) => {
            // the host sink listens through the CAB's TCP control mailbox
            let accept = world.cabs[d].shared.create_mailbox(true, HostOpMode::SharedMemory);
            let listen = TcpCtl::Listen { port: TCP_PORT, accept_mbox: accept }.encode();
            let shared = &mut world.cabs[d].shared;
            let msg = shared.begin_put(MB_TCP_CTL, listen.len()).expect("fresh CAB has heap");
            shared.msg_write(&msg, 0, &listen);
            shared.end_put(MB_TCP_CTL, msg);
            let (sink, _, received, _) = HostSink::new(sink_mbox, Some(accept), ENDLESS);
            world.hosts[d].spawn(Box::new(sink));
            let (tx, _) = HostTcpStreamer::new(dst, TCP_PORT, src_mbox, MSG, ENDLESS);
            world.hosts[s].spawn(Box::new(tx));
            received
        }
    };
    Pair { src, dst, tcp, host, sink_mbox, rmp_key: (dst, sink_mbox, src_mbox), received }
}

pub fn setup(seed: u64, spans: &mut Spans) -> Instance {
    let topo = Topology::two_hubs(HOSTS);
    let config = Config { seed, ..Config::default() };
    let (mut world, sim) = spans.scope("World::new", |_| World::new(config, topo));
    crate::route_tables(&world, spans);
    let end = SimTime::ZERO + WINDOW;
    let (pairs, probe, group) = spans.scope("deploy", |_| {
        let pairs: Vec<Pair> = pairs()
            .into_iter()
            .enumerate()
            .map(|(i, (s, d))| deploy_pair(&mut world, i, s, d, i % 4 < 2))
            .collect();
        // 1000 req/s from 8 endpoints across the trunk, drained well
        // before the window closes
        let probe = RpcProbe::deploy(
            &mut world,
            seed,
            25,
            0,
            8,
            1000,
            SimTime::ZERO + SimDuration::from_millis(1),
            SimTime::ZERO + (WINDOW - SimDuration::from_millis(100)),
        );
        let members = CollectiveGroup::tree(2, vec![2, 9, 16, 23], 4);
        let group = deploy_members(
            &mut world,
            &members,
            u32::MAX,
            |_| SimTime::ZERO + SimDuration::from_millis(1),
            SimDuration::from_micros(500),
        );
        (pairs, probe, group)
    });
    let finish = Box::new(move |world: &World| {
        let mut out = Outcome::default();
        probe.finish(world, &mut out);
        fold_group(&group, None, &mut out);
        out.group_root = Some(2);
        let mut min = u64::MAX;
        let (mut rmp_bytes, mut tcp_bytes, mut msgs) = (0u64, 0u64, 0u64);
        for p in &pairs {
            let got = p.received.get();
            min = min.min(got);
            if p.tcp {
                tcp_bytes += got;
            } else {
                rmp_bytes += got;
            }
            msgs += got.div_ceil(MSG as u64);
            check_pair(world, p, &mut out);
        }
        let total = rmp_bytes + tcp_bytes;
        out.attempted += msgs;
        out.payload_bytes += total;
        out.goodput_mbps = mbps(total, WINDOW);
        out.min_flow_mbps = mbps(min, WINDOW);
        out.rmp_stream_mbps = mbps(rmp_bytes, WINDOW);
        out.tcp_stream_mbps = mbps(tcp_bytes, WINDOW);
        out.ops_per_s = msgs as f64 / WINDOW.as_secs_f64();
        out
    });
    Instance { world, sim, end, finish }
}

/// A sink's byte count must agree with its sender's transport progress.
fn check_pair(world: &World, p: &Pair, out: &mut Outcome) {
    let name = format!(
        "{} {} pair {}->{}",
        if p.host { "host" } else { "cab" },
        if p.tcp { "tcp" } else { "rmp" },
        p.src,
        p.dst
    );
    let got = p.received.get();
    let mb = &world.cabs[p.dst as usize].shared.mailboxes[p.sink_mbox as usize];
    if got == 0 {
        out.problems.push(format!("{name}: no bytes delivered"));
    }
    if got != mb.deq_bytes {
        out.problems
            .push(format!("{name}: sink counted {got} B, its mailbox handed out {}", mb.deq_bytes));
    }
    if p.tcp {
        // in-order bytes the receiving socket accepted = bytes the sink
        // took + bytes queued in its mailbox + bytes still in the socket;
        // the receiver's next expected sequence lies in the sender's
        // [acked, sent] range
        let rx_ip = ip_for_cab(p.dst);
        let tx_ip = ip_for_cab(p.src);
        let rx = world.cabs[p.dst as usize]
            .proto
            .tcp
            .sockets()
            .map(|(_, s)| s)
            .find(|s| s.local() == (rx_ip, TCP_PORT) && s.remote().0 == tx_ip);
        let tx = world.cabs[p.src as usize]
            .proto
            .tcp
            .sockets()
            .map(|(_, s)| s)
            .find(|s| s.remote() == (rx_ip, TCP_PORT));
        let (Some(rx), Some(tx)) = (rx, tx) else {
            out.problems.push(format!("{name}: connection not found"));
            return;
        };
        let accepted = rx.stats().bytes_in;
        let accounted = mb.enq_bytes + rx.readable() as u64;
        if accepted != accounted {
            out.problems.push(format!(
                "{name}: socket accepted {accepted} B but sink + mailbox + socket hold {accounted} B"
            ));
        }
        let (una, nxt, _) = tx.seq_state();
        let (_, _, rcv_nxt) = rx.seq_state();
        if !(una.before_eq(rcv_nxt) && rcv_nxt.before_eq(nxt)) {
            out.problems.push(format!("{name}: receiver sequence outside the sender's window"));
        }
    } else {
        // stop-and-wait: the sink side holds every acknowledged message
        // and at most one message the sender has not yet seen acked
        let Some(tx) = world.cabs[p.src as usize].proto.rmp_tx.get(&p.rmp_key) else {
            out.problems.push(format!("{name}: RMP channel not found"));
            return;
        };
        let st = tx.stats();
        let acked = st.messages_delivered * MSG as u64;
        out.failed += st.messages_failed;
        if mb.enq_bytes < acked || mb.enq_bytes > acked + MSG as u64 {
            out.problems.push(format!(
                "{name}: sender saw {acked} B acknowledged, sink mailbox received {} B",
                mb.enq_bytes
            ));
        }
    }
}
