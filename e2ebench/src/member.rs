//! The barrier member the benchmark forks on every group member.
//!
//! It does what `nectar::collective::CollectiveMember` does — arrive
//! with a fixed operand, wait for the release note, arrive again — and
//! also records what that type does not expose: the latency of every
//! member-epoch (arrive → release, read at the member) and the reduced
//! value each release carried. An optional first-arrival offset and a
//! think time between epochs let the same thread serve as the
//! closed-loop fabric barrier and as a light background group.

use std::cell::RefCell;
use std::rc::Rc;

use nectar::collective::CollectiveGroup;
use nectar::world::World;
use nectar_cab::proto::coll_arrive;
use nectar_cab::reqs::CollNote;
use nectar_cab::shared::{MboxId, WouldBlock};
use nectar_cab::{CabThread, Cx, Step};
use nectar_sim::{SimDuration, SimTime};
use nectar_wire::collective::CombineOp;

use crate::common::{pct, Outcome};

/// What one member observed.
#[derive(Debug, Default)]
pub struct MemberLog {
    /// Arrive → release latency of every completed epoch, ns.
    pub latencies_ns: Vec<u64>,
    /// Releases whose value was not the expected reduction.
    pub wrong_values: u64,
    /// Simulated time of the latest release, ns.
    pub last_release_ns: u64,
    /// Arrive → failure-note time of the epoch the engine abandoned
    /// (retries exhausted); the member stopped there.
    pub abandoned_after_ns: Option<u64>,
}

impl MemberLog {
    pub fn completions(&self) -> u64 {
        self.latencies_ns.len() as u64
    }
}

pub type SharedLog = Rc<RefCell<MemberLog>>;

struct TimedMember {
    group: u16,
    note_mbox: MboxId,
    contrib: u64,
    expected: u64,
    epochs: u32,
    think: SimDuration,
    /// When set, the next arrival is due at this time.
    next_arrive: Option<SimTime>,
    arrived_at: SimTime,
    log: SharedLog,
}

impl CabThread for TimedMember {
    fn name(&self) -> &'static str {
        "bench-coll-member"
    }

    fn run(&mut self, cx: &mut Cx<'_>) -> Step {
        if let Some(at) = self.next_arrive {
            if cx.now() < at {
                return Step::Sleep(at);
            }
            self.next_arrive = None;
            self.arrived_at = cx.now();
            coll_arrive(cx, self.group, CombineOp::Sum, self.contrib);
        }
        for _ in 0..cx.proto.burst_limit {
            if !cx.mbox_pending(self.note_mbox) {
                return Step::Block(cx.mbox_cond(self.note_mbox));
            }
            let msg = match cx.begin_get(self.note_mbox) {
                Err(WouldBlock::Empty(c)) | Err(WouldBlock::NoSpace(c)) => return Step::Block(c),
                Ok(msg) => msg,
            };
            let bytes = cx.shared.msg_bytes(&msg).to_vec();
            cx.end_get(self.note_mbox, msg);
            match CollNote::decode(&bytes) {
                Some(CollNote::Completed { group, value, .. }) if group == self.group => {
                    let now = cx.now();
                    let mut log = self.log.borrow_mut();
                    log.latencies_ns.push(now.as_nanos() - self.arrived_at.as_nanos());
                    log.last_release_ns = now.as_nanos();
                    if value != self.expected {
                        log.wrong_values += 1;
                    }
                    if log.completions() >= self.epochs as u64 {
                        return Step::Done;
                    }
                    drop(log);
                    let at = now + self.think;
                    self.next_arrive = Some(at);
                    return Step::Sleep(at);
                }
                Some(CollNote::Failed { group, .. }) if group == self.group => {
                    let waited = cx.now().as_nanos() - self.arrived_at.as_nanos();
                    self.log.borrow_mut().abandoned_after_ns = Some(waited);
                    return Step::Done;
                }
                _ => {}
            }
        }
        Step::Yield
    }
}

/// Install `group` and fork one member per CAB. Member `i` contributes
/// `i + 1`, so every release must carry `n(n+1)/2`; it first arrives at
/// `first_arrival(i)` and waits `think` after each release.
pub fn deploy_members(
    world: &mut World,
    group: &CollectiveGroup,
    epochs: u32,
    first_arrival: impl Fn(usize) -> SimTime,
    think: SimDuration,
) -> Vec<SharedLog> {
    let n = group.members.len() as u64;
    let expected = n * (n + 1) / 2;
    let mboxes = group.deploy(world);
    let mut logs = Vec::with_capacity(group.members.len());
    for (i, (&m, &mb)) in group.members.iter().zip(&mboxes).enumerate() {
        let log = SharedLog::default();
        world.cabs[m as usize].fork_app(Box::new(TimedMember {
            group: group.group,
            note_mbox: mb,
            contrib: i as u64 + 1,
            expected,
            epochs,
            think,
            next_arrive: Some(first_arrival(i)),
            arrived_at: SimTime::ZERO,
            log: log.clone(),
        }));
        logs.push(log);
    }
    logs
}

/// Fold a group's member logs into `out`: barrier percentiles over
/// every attempted member-epoch (an abandoned one scored at the time its
/// failure was reported), `epochs` member-epochs attempted per member
/// when `epochs` is set (closed loop to a fixed count) or the arrivals
/// resolved so far otherwise, and one problem per wrong release value.
/// Returns the slowest member's completed epochs and the time of the
/// last release.
pub fn fold_group(logs: &[SharedLog], epochs: Option<u32>, out: &mut Outcome) -> (u64, SimTime) {
    let mut samples = Vec::new();
    let mut completed = 0u64;
    let mut min_completed = u64::MAX;
    let mut wrong = 0u64;
    let mut attempted = 0u64;
    let mut last = 0u64;
    out.group_epochs = 0;
    for l in logs {
        let l = l.borrow();
        samples.extend_from_slice(&l.latencies_ns);
        samples.extend(l.abandoned_after_ns);
        out.abandoned_members += l.abandoned_after_ns.is_some() as u64;
        completed += l.completions();
        min_completed = min_completed.min(l.completions());
        wrong += l.wrong_values;
        last = last.max(l.last_release_ns);
        out.group_epochs = out.group_epochs.max(l.completions());
        attempted += match epochs {
            Some(e) => e as u64,
            None => l.completions() + l.abandoned_after_ns.is_some() as u64,
        };
    }
    samples.sort_unstable();
    out.barrier_p50_us = pct(&samples, 0.50) as f64 / 1e3;
    out.barrier_p99_us = pct(&samples, 0.99) as f64 / 1e3;
    out.barrier_samples = samples.len() as u64;
    out.attempted += attempted;
    out.failed += attempted - completed;
    if wrong > 0 {
        out.problems.push(format!("{wrong} member-epochs released a wrong reduced value"));
    }
    if completed == 0 {
        out.problems.push("no member-epoch completed".into());
    }
    (min_completed, SimTime::from_nanos(last))
}
