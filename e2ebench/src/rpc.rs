//! `rpc`: open-loop Poisson request/response on the 26-host / 2-HUB
//! deployment. 1,200 endpoints, multiplexed onto CAB client threads,
//! drive all five transports against one echo CAB each, with payloads
//! uniform over 16–1024 B. The mix is weighted by each transport's
//! per-request cost so the five serving CABs load about evenly.
//!
//! Two parts: the nominal rate, where the busiest serving CAB is about
//! 70 % busy (the timed window), and a ladder of rates stepped through
//! the knee that stops at the first rate missing the SLO.

use nectar::collective::CollectiveGroup;
use nectar::config::Config;
use nectar::topology::Topology;
use nectar::world::World;
use nectar_load::{deploy_fleet, Arrival, FleetPlan, LoadRecorder, LoadTransport};
use nectar_sim::{SimDuration, SimTime};

use crate::common::{
    latency_into, ledger_into, mbps, merged_latency, Instance, Outcome, RPC_SIZE, RPC_TIMEOUT,
};
use crate::member::{deploy_members, fold_group};
use crate::spans::Spans;

pub const HOSTS: usize = 26;
/// `(transport, endpoints)`: 1,200 endpoints in all.
const MIX: [(LoadTransport, usize); 5] = [
    (LoadTransport::Datagram, 476),
    (LoadTransport::Rmp, 243),
    (LoadTransport::ReqResp, 294),
    (LoadTransport::Udp, 117),
    (LoadTransport::Tcp, 70),
];
const ENDPOINTS_PER_CLIENT: usize = 25;
const CLIENTS_PER_CAB: usize = 7;
/// Aggregate offered load at the nominal point, requests/s.
pub const NOMINAL_RPS: u64 = 24_000;
/// The ladder, requests/s; it stops at the first rate missing the SLO.
pub const LADDER_RPS: [u64; 5] = [16_000, 24_000, 28_000, 38_000, 46_000];
/// The latency SLO on p99, from intended start.
pub const SLO_P99: SimDuration = SimDuration::from_millis(10);
/// Warm-up before the first intended start: every TCP endpoint connects
/// at t = 0.
const WARMUP: SimDuration = SimDuration::from_millis(20);
/// Measured window at the nominal rate and at each ladder step.
pub const MEASURE: SimDuration = SimDuration::from_millis(300);
pub const LADDER_MEASURE: SimDuration = SimDuration::from_millis(200);

fn plan(seed: u64, rps: u64, measure: SimDuration) -> FleetPlan {
    let endpoints: usize = MIX.iter().map(|(_, n)| n).sum();
    FleetPlan {
        seed,
        mix: MIX.to_vec(),
        clients_per_cab: CLIENTS_PER_CAB,
        endpoints_per_client: ENDPOINTS_PER_CLIENT,
        arrival: Arrival::Open {
            mean_gap: SimDuration::from_nanos(endpoints as u64 * 1_000_000_000 / rps),
        },
        size: RPC_SIZE,
        timeout: RPC_TIMEOUT,
        start: SimTime::ZERO + WARMUP,
        stop: SimTime::ZERO + WARMUP + measure,
    }
}

/// Run past the stop time so every request resolves or times out.
fn drain_end(p: &FleetPlan) -> SimTime {
    p.stop + RPC_TIMEOUT + SimDuration::from_millis(20)
}

/// The nominal point: the fleet plus a four-member barrier on a spare
/// CAB and three client CABs (500 µs think time between epochs).
pub fn setup(seed: u64, spans: &mut Spans) -> Instance {
    let p = plan(seed, NOMINAL_RPS, MEASURE);
    let config = Config { seed, ..Config::default() };
    let (mut world, sim) =
        spans.scope("World::new", |_| World::new(config, Topology::two_hubs(HOSTS)));
    crate::route_tables(&world, spans);
    let (fleet, group) = spans.scope("deploy", |_| {
        let fleet = deploy_fleet(&mut world, &p);
        let members = CollectiveGroup::tree(2, vec![25, 7, 14, 21], 4);
        let group = deploy_members(
            &mut world,
            &members,
            u32::MAX,
            |_| SimTime::ZERO + WARMUP,
            SimDuration::from_micros(500),
        );
        (fleet, group)
    });
    let finish = Box::new(move |world: &World| {
        let mut out = Outcome::default();
        let rec = fleet.recorder.borrow().clone();
        latency_into(&rec, &mut out);
        ledger_into(world, &mut out);
        fold_group(&group, None, &mut out);
        out.group_root = Some(25);
        let mut payload = 0u64;
        let mut min = u64::MAX;
        for (t, _) in MIX {
            let r = rec.record(t);
            payload += r.bytes_sent + r.bytes_received;
            min = min.min(r.bytes_sent + r.bytes_received);
        }
        out.payload_bytes += payload;
        out.goodput_mbps = mbps(payload, MEASURE);
        out.min_flow_mbps = mbps(min, MEASURE);
        out
    });
    Instance { world, sim, end: drain_end(&p), finish }
}

/// One ladder step's verdict.
#[derive(Clone, Debug)]
pub struct Step {
    pub rps: u64,
    pub p99_us: f64,
    pub failed: u64,
    /// Mean latency of the second half of the window over the first.
    pub backlog_growth: f64,
    pub pass: bool,
}

fn run_step(seed: u64, rps: u64) -> Step {
    let p = plan(seed ^ rps, rps, LADDER_MEASURE);
    let config = Config { seed: p.seed, ..Config::default() };
    let (mut world, mut sim) = World::new(config, Topology::two_hubs(HOSTS));
    let fleet = deploy_fleet(&mut world, &p);
    let mean = |rec: &LoadRecorder| {
        let h = merged_latency(rec);
        (h.mean().as_nanos() as f64 * h.len() as f64, h.len() as f64)
    };
    world.run_until(&mut sim, p.start + LADDER_MEASURE / 2);
    let (sum1, n1) = mean(&fleet.recorder.borrow());
    world.run_until(&mut sim, drain_end(&p));
    let rec = fleet.recorder.borrow().clone();
    let (sum2, n2) = mean(&rec);
    let first = sum1 / n1.max(1.0);
    let second = (sum2 - sum1) / (n2 - n1).max(1.0);
    let backlog_growth = second / first.max(1.0);
    let p99_us = merged_latency(&rec).percentile_nanos(0.99) as f64 / 1e3;
    let failed: u64 =
        MIX.iter().map(|(t, _)| rec.record(*t).timeouts + rec.record(*t).failures).sum();
    let pass = p99_us <= SLO_P99.as_nanos() as f64 / 1e3 && failed == 0 && backlog_growth <= 2.0;
    Step { rps, p99_us, failed, backlog_growth, pass }
}

/// Step through the ladder until the first miss; the knee is the
/// highest passing rate (0 when the first step misses).
pub fn ladder(seed: u64) -> (u64, Vec<Step>) {
    let mut steps = Vec::new();
    let mut knee = 0;
    for rps in LADDER_RPS {
        let s = run_step(seed, rps);
        let pass = s.pass;
        steps.push(s);
        if !pass {
            break;
        }
        knee = rps;
    }
    (knee, steps)
}

/// Proof that the seed reaches the workload: two seeds must produce
/// different request schedules over the first 5 ms.
pub fn schedules_differ(seed: u64) -> bool {
    let sent = |seed: u64| {
        let p = plan(seed, NOMINAL_RPS, MEASURE);
        let (mut world, mut sim) =
            World::new(Config { seed, ..Config::default() }, Topology::two_hubs(HOSTS));
        let fleet = deploy_fleet(&mut world, &p);
        world.run_until(&mut sim, p.start + SimDuration::from_millis(5));
        let l = *fleet.ledger.borrow();
        (l.requests_intended, l.bytes_sent)
    };
    sent(seed) != sent(seed.wrapping_add(1))
}
