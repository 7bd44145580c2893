//! Pieces every workload shares: the set-up instance handed to the
//! runner, the outcome read back from a finished world, the light
//! request/response probe, and percentile helpers.

use nectar::scenario::{CabEcho, Transport};
use nectar::world::{Sim, World};
use nectar_cab::HostOpMode;
use nectar_load::{Arrival, SizeDist};
use nectar_load::{ClientSpec, LoadClient, LoadRecorder, LoadTransport, SharedRecorder};
use nectar_sim::{BucketHist, Pcg32, SimDuration, SimTime};

use crate::calib::{Meter, SAMPLE_EVERY_S};
use crate::hostinfo::{timed, Timed};

/// Payload sizes of every request/response operation: uniform 16–1024 B.
pub const RPC_SIZE: SizeDist = SizeDist::Uniform(16, 1025);
/// Client-side deadline of every request.
pub const RPC_TIMEOUT: SimDuration = SimDuration::from_millis(50);

/// A world built and deployed, ready to run to `end`.
pub struct Instance {
    pub world: World,
    pub sim: Sim,
    pub end: SimTime,
    /// Reads the workload's handles once the world has run to `end`.
    pub finish: Box<dyn Fn(&World) -> Outcome>,
}

/// Slices a paced window is cut into.
pub const SLICES: u64 = 20;

impl Instance {
    /// Run the window in `SLICES` `run_until` slices, sampling the
    /// machine's speed just before, just after, and between slices every
    /// `SAMPLE_EVERY_S` of simulation. Slicing does not change event
    /// order. The figures returned cover the slices alone.
    pub fn run_paced(&mut self, meter: &mut Meter) -> Result<Timed, String> {
        let span_ns = (self.end - SimTime::ZERO).as_nanos();
        let mut sum = Timed::default();
        let mut since_sample = 0.0;
        meter.sample()?;
        for k in 1..=SLICES {
            let until = SimTime::ZERO + SimDuration::from_nanos(span_ns * k / SLICES);
            let (_, t) = timed(|| self.world.run_until(&mut self.sim, until));
            sum.wall_s += t.wall_s;
            sum.cpu_s += t.cpu_s;
            sum.rq_wait_s += t.rq_wait_s;
            since_sample += t.wall_s;
            if since_sample >= SAMPLE_EVERY_S && k < SLICES {
                meter.sample()?;
                since_sample = 0.0;
            }
        }
        meter.sample()?;
        Ok(sum)
    }

    pub fn outcome(&self) -> Outcome {
        (self.finish)(&self.world)
    }
}

/// What a finished run produced, on the simulated clock.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// Delivered application payload over all flows, Mbit/s.
    pub goodput_mbps: f64,
    /// Slowest single flow, Mbit/s.
    pub min_flow_mbps: f64,
    /// Request latency from intended start, all request/response
    /// traffic of the workload, µs.
    pub rpc_p50_us: f64,
    pub rpc_p99_us: f64,
    /// Sustained operations per second (the rpc workload replaces this
    /// with its ladder knee).
    pub ops_per_s: f64,
    /// Member-epoch latency (arrive → release), µs.
    pub barrier_p50_us: f64,
    pub barrier_p99_us: f64,
    /// Operations issued and operations the simulated system failed or
    /// abandoned.
    pub attempted: u64,
    pub failed: u64,
    /// Application payload bytes delivered (the denominator of the
    /// per-byte layer ratios).
    pub payload_bytes: u64,
    /// Correctness violations; any entry fails the run.
    pub problems: Vec<String>,
    /// Request latency per transport (the per-layer `stack.*.p99_us`).
    pub recorder: LoadRecorder,
    /// Stream goodput per protocol, Mbit/s.
    pub rmp_stream_mbps: f64,
    pub tcp_stream_mbps: f64,
    /// Group epochs completed and the root CAB of the main group.
    pub group_epochs: u64,
    pub group_root: Option<usize>,
    /// Samples behind the rpc and barrier percentiles.
    pub rpc_samples: u64,
    pub barrier_samples: u64,
    /// Group members that stopped on an abandoned epoch.
    pub abandoned_members: u64,
}

/// Nearest-rank percentile of a sorted slice (0 when empty).
pub fn pct(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (p * (sorted.len() - 1) as f64).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

pub fn mbps(bytes: u64, window: SimDuration) -> f64 {
    bytes as f64 * 8.0 / window.as_nanos().max(1) as f64 * 1e3
}

/// All transports' latencies in one histogram, with every request that
/// timed out or was refused scored at the client deadline, so that it
/// misses any latency limit below the deadline.
pub fn merged_latency(rec: &LoadRecorder) -> BucketHist {
    let mut all = BucketHist::new();
    for t in LoadTransport::ALL {
        let r = rec.record(t);
        all.merge(&r.latency);
        for _ in 0..r.timeouts + r.failures {
            all.record(RPC_TIMEOUT);
        }
    }
    all
}

/// A light open-loop request/response probe: `endpoints` ReqResp
/// endpoints on one client thread at `client_cab`, served by an echo
/// thread on `server_cab`, offering `rps` in aggregate between `start`
/// and `stop`. It measures request latency on workloads whose main load
/// is not request/response.
pub struct RpcProbe {
    pub recorder: SharedRecorder,
}

impl RpcProbe {
    #[allow(clippy::too_many_arguments)]
    pub fn deploy(
        world: &mut World,
        seed: u64,
        server_cab: u16,
        client_cab: u16,
        endpoints: usize,
        rps: u64,
        start: SimTime,
        stop: SimTime,
    ) -> RpcProbe {
        let recorder = LoadRecorder::shared();
        let ledger = world.attach_load_ledger();
        let cab = &mut world.cabs[server_cab as usize];
        let mbox = cab.shared.create_mailbox(false, HostOpMode::SharedMemory);
        cab.fork_app(Box::new(CabEcho { transport: Transport::ReqResp, recv_mbox: mbox }));
        let mut master = Pcg32::seeded(seed ^ 0x9b0be);
        let spec = ClientSpec {
            transport: LoadTransport::ReqResp,
            server: (server_cab, mbox),
            arrival: Arrival::Open {
                mean_gap: SimDuration::from_nanos(endpoints as u64 * 1_000_000_000 / rps),
            },
            size: RPC_SIZE,
            timeout: RPC_TIMEOUT,
            start,
            stop,
            udp_port: 9000,
            rngs: (0..endpoints).map(|k| master.fork(k as u64)).collect(),
        };
        world.cabs[client_cab as usize].fork_app(Box::new(LoadClient::new(
            spec,
            recorder.clone(),
            ledger,
        )));
        RpcProbe { recorder }
    }

    /// Fold the probe's requests into an outcome.
    pub fn finish(&self, world: &World, out: &mut Outcome) {
        let rec = self.recorder.borrow().clone();
        latency_into(&rec, out);
        ledger_into(world, out);
        out.payload_bytes += rec.record(LoadTransport::ReqResp).bytes_received;
    }
}

/// Latency percentiles of a recorder, folded into `out`.
pub fn latency_into(rec: &LoadRecorder, out: &mut Outcome) {
    let all = merged_latency(rec);
    out.rpc_p50_us = all.percentile_nanos(0.50) as f64 / 1e3;
    out.rpc_p99_us = all.percentile_nanos(0.99) as f64 / 1e3;
    out.rpc_samples = all.len() as u64;
    out.recorder = rec.clone();
}

/// Attempt/failure counts of a world's load ledger, folded into `out`,
/// and the check that the ledger balances.
pub fn ledger_into(world: &World, out: &mut Outcome) {
    if let Some(l) = &world.load {
        let l = l.borrow();
        out.attempted += l.requests_intended;
        out.failed += l.timeouts + l.failures;
        if l.responses + l.timeouts + l.failures != l.requests_intended {
            out.problems.push(format!(
                "load ledger does not balance: {} responses + {} timeouts + {} failures != {} intended",
                l.responses, l.timeouts, l.failures, l.requests_intended
            ));
        }
        if l.requests_intended == 0 {
            out.problems.push("no request was issued".into());
        }
    }
}
