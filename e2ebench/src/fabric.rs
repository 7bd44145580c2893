//! `fabric`: a lossless 4-ary tree barrier with a u64 Sum reduction over
//! 2048 members on a 3-stage folded Clos sized for 2048 CABs (2160 CABs,
//! 244 HUBs), with the default `CollectiveConfig` (2 ms fixed RTO).
//! Closed loop: every member arrives at t = 0 and again as soon as it is
//! released, for a fixed number of epochs. A light request/response
//! probe runs between two spare CABs on one leaf HUB outside the group,
//! so its seeded schedule never touches a link the barrier uses: the
//! barrier itself is the same for every seed.

use nectar::collective::CollectiveGroup;
use nectar::config::Config;
use nectar::topology::{ClosSpec, Topology};
use nectar::world::World;
use nectar_sim::{SimDuration, SimTime};

use crate::common::{mbps, Instance, Outcome, RpcProbe};
use crate::member::{deploy_members, fold_group};
use crate::spans::Spans;

pub const MEMBERS: usize = 2048;
pub const FANOUT: usize = 4;
/// Epochs per member: past the ~19 at which the default fixed RTO
/// makes the 2048-member barrier collapse.
pub const EPOCHS: u32 = 20;
/// Every epoch resolves (released or abandoned) well before this.
pub const END: SimDuration = SimDuration::from_millis(600);
/// Bytes an epoch moves for one member: its operand up, the result down.
const EPOCH_PAYLOAD: u64 = 16;

pub fn setup(seed: u64, spans: &mut Spans) -> Instance {
    let topo = Topology::folded_clos(&ClosSpec::for_cabs(MEMBERS));
    let cabs = topo.cabs() as u16;
    let config = Config { seed, ..Config::default() };
    let (mut world, sim) = spans.scope("World::new", |_| World::new(config, topo));
    crate::route_tables(&world, spans);
    let end = SimTime::ZERO + END;
    let (group, probe) = spans.scope("deploy", |_| {
        let members = CollectiveGroup::tree(1, (0..MEMBERS as u16).collect(), FANOUT);
        let group =
            deploy_members(&mut world, &members, EPOCHS, |_| SimTime::ZERO, SimDuration::ZERO);
        // 2000 req/s from 16 endpoints between the last two CABs, which
        // share a leaf with no member on it
        let (server, client) = (cabs - 1, cabs - 2);
        assert_eq!(
            world.topo.cab_port[server as usize].0, world.topo.cab_port[client as usize].0,
            "the probe's CABs must share a leaf"
        );
        let leaf = world.topo.cab_port[client as usize].0;
        assert!(
            (0..MEMBERS).all(|m| world.topo.cab_port[m].0 != leaf),
            "the probe's leaf must hold no member"
        );
        let probe = RpcProbe::deploy(
            &mut world,
            seed,
            server,
            client,
            16,
            2000,
            SimTime::ZERO + SimDuration::from_millis(1),
            SimTime::ZERO + (END - SimDuration::from_millis(100)),
        );
        (group, probe)
    });
    let finish = Box::new(move |world: &World| {
        let mut out = Outcome::default();
        probe.finish(world, &mut out);
        let before = out.attempted - out.failed;
        let (slowest, last) = fold_group(&group, Some(EPOCHS), &mut out);
        let completed = out.attempted - out.failed - before;
        let window = last.saturating_since(SimTime::ZERO);
        out.payload_bytes += completed * EPOCH_PAYLOAD;
        out.goodput_mbps = mbps(completed * EPOCH_PAYLOAD, window);
        out.min_flow_mbps = mbps(slowest * EPOCH_PAYLOAD, window);
        out.ops_per_s = completed as f64 / window.as_secs_f64();
        out.group_root = Some(0);
        out
    });
    Instance { world, sim, end, finish }
}
