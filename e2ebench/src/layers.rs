//! Per-layer metrics of the traced run, read from outside: the world's
//! public counters after the window, the scheduler's counters, the
//! outcome the workload folded, and the host times of the traced spans.
//! Every layer reports on every workload; a layer a workload does not
//! load reads 0.

use nectar::topology::Attachment;
use nectar::world::{Sim, World};
use nectar_load::LoadTransport;
use nectar_sim::SimDuration;

use crate::common::Outcome;
use crate::Metric;

/// Host-side figures of the traced run, gathered by the runner.
#[derive(Clone, Debug, Default)]
pub struct HostSide {
    pub world_new_s: f64,
    pub route_table_s: f64,
    pub deploy_s: f64,
    pub rss_after_setup_mb: f64,
    /// Host seconds of each `run_until` slice, in order.
    pub slice_s: Vec<f64>,
    /// Scheduler queue length after each slice.
    pub slice_pending: Vec<u64>,
    /// The untraced run of the same seed: wall, CPU and run-queue wait.
    pub untraced_run_s: f64,
    pub untraced_cpu_s: f64,
    pub untraced_rq_wait_s: f64,
    /// The machine's speed beside the untraced run (see `calib`).
    pub untraced_speed: f64,
    /// The traced run's wall time, slices plus per-slice snapshots.
    pub traced_run_s: f64,
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// `(name, unit, value)` for every per-layer metric.
pub fn collect(
    world: &World,
    sim: &Sim,
    window: SimDuration,
    out: &Outcome,
    h: &HostSide,
) -> Vec<Metric> {
    let win_ns = window.as_nanos().max(1) as f64;
    let events = sim.executed() as f64;
    let frames = world.stats.frames_launched as f64;
    let mut m = Vec::new();
    let mut put = |name: &'static str, unit: &'static str, v: f64| m.push((name, unit, v));

    // sim: the event kernel
    put("sim.events", "count", events);
    put("sim.ns_per_event", "ns", ratio(h.untraced_run_s * h.untraced_speed * 1e9, events));
    put("sim.pending_end", "count", sim.pending() as f64);
    let first = h.slice_s.first().copied().unwrap_or(0.0);
    let last = h.slice_s.last().copied().unwrap_or(0.0);
    put("sim.slice_growth", "ratio", ratio(last, first));
    let p_first = h.slice_pending.first().copied().unwrap_or(0) as f64;
    let p_last = h.slice_pending.last().copied().unwrap_or(0) as f64;
    put("sim.pending_growth", "ratio", ratio(p_last, p_first));
    put("sim.events_per_frame", "ratio", ratio(events, frames));
    put("sim.cancelled", "count", sim.cancelled() as f64);

    // core: building the world
    put("core.world_new_s", "s", h.world_new_s);
    put("core.route_table_s", "s", h.route_table_s);
    put("core.deploy_s", "s", h.deploy_s);
    put("core.rss_after_setup_mb", "MB", h.rss_after_setup_mb);

    // cab: the communication processors
    let (mut busy_max, mut busy_sum) = (0f64, 0f64);
    let (mut ctx, mut irq, mut rx_frames, mut deq_msgs) = (0u64, 0u64, 0u64, 0u64);
    let (mut depth_high, mut empty_polls, mut fifo_high, mut fifo_drop) = (0u64, 0u64, 0u64, 0u64);
    let (mut crc, mut sigq_high) = (0u64, 0u64);
    for cab in &world.cabs {
        let busy = cab.rt.cpu_busy.as_nanos() as f64 / win_ns;
        busy_max = busy_max.max(busy);
        busy_sum += busy;
        ctx += cab.rt.ctx_switches;
        irq += cab.rt.interrupts_taken;
        rx_frames += cab.stats.frames_rx;
        for mb in &cab.shared.mailboxes {
            deq_msgs += mb.deq_msgs;
            depth_high = depth_high.max(mb.depth_high);
        }
        empty_polls += cab.shared.mbox_empty_polls;
        fifo_high = fifo_high.max(cab.stats.rx_fifo_high);
        fifo_drop += cab.stats.frames_fifo_dropped;
        crc += cab.stats.frames_crc_dropped;
        sigq_high = sigq_high.max(cab.shared.host_sigq_high);
    }
    put("cab.busy_max", "ratio", busy_max);
    put("cab.busy_mean", "ratio", ratio(busy_sum, world.cabs.len() as f64));
    put("cab.ctx_switches_per_msg", "ratio", ratio(ctx as f64, deq_msgs as f64));
    put("cab.interrupts_per_frame", "ratio", ratio(irq as f64, rx_frames as f64));
    put("cab.mbox_depth_high", "count", depth_high as f64);
    put("cab.mbox_empty_polls", "count", empty_polls as f64);
    put("cab.rx_fifo_high_bytes", "B", fifo_high as f64);
    put("cab.rx_fifo_dropped_frames", "count", fifo_drop as f64);

    // host: the VME-attached hosts
    let (mut host_busy, mut vme, mut switches) = (0f64, 0u64, 0u64);
    for host in &world.hosts {
        host_busy = host_busy.max(host.stats.cpu_busy.as_nanos() as f64 / win_ns);
        vme += host.stats.vme_words;
        switches += host.stats.proc_switches;
    }
    let payload_kb = out.payload_bytes as f64 / 1024.0;
    put("host.busy_max", "ratio", host_busy);
    put("host.vme_words_per_kb", "ratio", ratio(vme as f64, payload_kb));
    put("host.proc_switches_per_msg", "ratio", ratio(switches as f64, out.attempted as f64));
    put("host.sigq_depth_high", "count", sigq_high as f64);

    // hub: the crossbars and their trunks
    let bits_per_ns = world.config.link.fiber_bits_per_sec as f64 / 1e9;
    let (mut backlog_high, mut trunk_busy) = (0u64, 0f64);
    let (mut forwarded, mut dropped, mut held) = (0u64, 0u64, 0u64);
    for (h, hub) in world.hubs.iter().enumerate() {
        let s = hub.stats();
        forwarded += s.forwarded + s.forwarded_circuit;
        dropped += s.dropped_bad_route + s.dropped_bad_port + s.dropped_backlog;
        held += s.held_frames;
        for (port, att) in world.topo.port_map[h].iter().enumerate() {
            let ps = hub.port_stats(port);
            backlog_high = backlog_high.max(ps.backlog_high.as_nanos());
            if matches!(att, Attachment::Hub { .. }) {
                trunk_busy = trunk_busy.max(ps.tx_bytes as f64 * 8.0 / bits_per_ns / win_ns);
            }
        }
    }
    put("hub.port_backlog_high_us", "sim-us", backlog_high as f64 / 1e3);
    put("hub.trunk_busy", "ratio", trunk_busy);
    put("hub.forwarded_frames", "count", forwarded as f64);
    put("hub.dropped_frames", "count", dropped as f64);
    put("hub.held_frames", "count", held as f64);

    // wire: bytes on the fibers
    let mut coll = nectar_stack::collective::CollectiveStats::default();
    for cab in &world.cabs {
        let s = cab.proto.coll.stats();
        coll.replicas += s.replicas;
        coll.arrives_rx += s.arrives_rx;
        coll.arrive_retransmits += s.arrive_retransmits;
        coll.duplicate_arrives += s.duplicate_arrives;
        coll.stale_arrives += s.stale_arrives;
        coll.straggler_resends += s.straggler_resends;
    }
    put(
        "wire.bytes_per_payload_byte",
        "ratio",
        ratio(world.stats.bytes_launched as f64, out.payload_bytes as f64),
    );
    put("wire.crc_dropped", "count", crc as f64);
    put(
        "wire.coll_replicas_per_epoch",
        "ratio",
        ratio(coll.replicas as f64, out.group_epochs as f64),
    );

    // stack: the transport protocols
    for (t, name) in [
        (LoadTransport::Datagram, "stack.datagram.p99_us"),
        (LoadTransport::Rmp, "stack.rmp.p99_us"),
        (LoadTransport::ReqResp, "stack.reqresp.p99_us"),
        (LoadTransport::Udp, "stack.udp.p99_us"),
        (LoadTransport::Tcp, "stack.tcp.p99_us"),
    ] {
        put(name, "sim-us", out.recorder.record(t).latency.percentile_nanos(0.99) as f64 / 1e3);
    }
    put("stack.rmp.stream_mbps", "sim-Mbit/s", out.rmp_stream_mbps);
    put("stack.tcp.stream_mbps", "sim-Mbit/s", out.tcp_stream_mbps);
    let mut tcp = nectar_stack::tcp::TcpSocketStats::default();
    let (mut rmp_retx, mut rr_retx) = (0u64, 0u64);
    for cab in &world.cabs {
        tcp.absorb(&cab.proto.tcp.total_socket_stats());
        rmp_retx += cab.proto.rmp_tx.values().map(|tx| tx.stats().retransmits).sum::<u64>();
        rr_retx += cab.proto.rr_clients.values().map(|c| c.stats().retransmits).sum::<u64>();
    }
    put("stack.tcp.retransmits", "count", tcp.retransmits as f64);
    put("stack.tcp.fast_retransmits", "count", tcp.fast_retransmits as f64);
    put("stack.tcp.timeouts", "count", tcp.timeouts as f64);
    put(
        "stack.tcp.segs_per_kb",
        "ratio",
        ratio(tcp.segs_out as f64, tcp.bytes_out as f64 / 1024.0),
    );
    put("stack.rmp.retransmits", "count", rmp_retx as f64);
    put("stack.reqresp.retransmits", "count", rr_retx as f64);
    put("stack.coll.arrive_retransmits", "count", coll.arrive_retransmits as f64);
    put("stack.coll.duplicate_arrives", "count", coll.duplicate_arrives as f64);
    put("stack.coll.straggler_resends", "count", coll.straggler_resends as f64);
    put("stack.coll.abandoned_members", "count", out.abandoned_members as f64);
    let root_rx = out.group_root.map_or(0, |r| world.cabs[r].proto.coll.stats().arrives_rx);
    put(
        "stack.coll.root_arrives_per_epoch",
        "ratio",
        ratio(root_rx as f64, out.group_epochs as f64),
    );
    // arrives_rx counts only the arrives a gather absorbed
    let heard = coll.arrives_rx + coll.duplicate_arrives + coll.stale_arrives;
    put("stack.coll.useful_arrive_ratio", "ratio", ratio(coll.arrives_rx as f64, heard as f64));

    // load: the request generators
    let led = world.load.as_ref().map(|l| *l.borrow()).unwrap_or_default();
    put(
        "load.late_dispatch_ratio",
        "ratio",
        ratio(led.late_dispatch as f64, led.requests_sent as f64),
    );
    put("load.timeouts", "count", led.timeouts as f64);
    put("load.stale_replies", "count", led.stale_replies as f64);

    // the benchmark process
    put("proc.cpu_s", "s", h.untraced_cpu_s);
    put("proc.rq_wait_s", "s", h.untraced_rq_wait_s);
    put("proc.trace_overhead", "ratio", ratio(h.traced_run_s, h.untraced_run_s));
    put("proc.speed", "ratio", h.untraced_speed);
    put("proc.cores", "count", crate::hostinfo::cores() as f64);
    put("ops.failed_ratio", "ratio", ratio(out.failed as f64, out.attempted as f64));
    m
}
