//! How fast the machine runs right now, measured by a fixed reference
//! workload that shares no code with the simulator.
//!
//! On a shared VM the same window of the same seed took from 0.9 s to
//! 1.6 s of host time, with the thread on CPU the whole time: neighbours
//! slow the vCPU itself, for seconds to many minutes at a time. Reference
//! chunks run just before, during (between `run_until` slices) and just
//! after a timed region see the same slowdown, so host times are reported
//! scaled by `speed()`: the chunks' reference time over their measured
//! time. A scaled time reads as host seconds on the reference machine
//! at its typical speed.
//!
//! The chunk is an event-queue-and-memory loop, like the simulator's own
//! hot path: a binary heap of timestamped entries, each pop touching a
//! random word of an 8 MiB table. It depends only on this file, so a
//! change to the simulator never moves it.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::process::{Command, Stdio};
use std::time::Instant;

const TABLE_WORDS: usize = 1 << 20;
const QUEUE_LEN: u64 = 16_384;
const STEPS_PER_CHUNK: u32 = 400_000;
/// Seconds one chunk typically takes on the reference machine (a shared
/// 2-vCPU VM, Intel Xeon at 2.1 GHz).
pub const REF_CHUNK_S: f64 = 0.075;
/// Host seconds of simulation between two samples of a paced run.
pub const SAMPLE_EVERY_S: f64 = 1.0;

/// The reference workload's state, kept across chunks so that every
/// chunk does the same work on warm memory.
pub struct Reference {
    table: Vec<u64>,
    queue: BinaryHeap<Reverse<(u64, u64)>>,
    rng: u64,
    /// Chunks run and their total host seconds.
    pub chunks: u32,
    pub seconds: f64,
}

impl Reference {
    /// Allocate and warm the state with one untimed chunk.
    pub fn new() -> Self {
        let mut r = Reference {
            table: vec![0; TABLE_WORDS],
            queue: BinaryHeap::with_capacity(QUEUE_LEN as usize),
            rng: 0x9e37_79b9_7f4a_7c15,
            chunks: 0,
            seconds: 0.0,
        };
        for id in 0..QUEUE_LEN {
            let t = r.next() % 1_000_000;
            r.queue.push(Reverse((t, id)));
        }
        r.work();
        r
    }

    fn next(&mut self) -> u64 {
        // xorshift64
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        self.rng
    }

    fn work(&mut self) {
        let mask = TABLE_WORDS - 1;
        let mut acc = 0u64;
        for _ in 0..STEPS_PER_CHUNK {
            let Reverse((t, id)) = self.queue.pop().expect("the queue is never empty");
            let k = self.next() as usize & mask;
            self.table[k] = self.table[k].wrapping_add(t ^ id);
            acc = acc.wrapping_add(self.table[k.wrapping_mul(7) & mask]);
            let gap = 1 + self.next() % 1_000;
            self.queue.push(Reverse((t + gap, id)));
        }
        black_box(acc);
    }

    /// Run one timed chunk.
    pub fn chunk(&mut self) {
        let t0 = Instant::now();
        self.work();
        self.seconds += t0.elapsed().as_secs_f64();
        self.chunks += 1;
    }

    /// The machine's speed over the chunks run so far, as a share of the
    /// reference machine's: below 1 when it ran slower.
    pub fn speed(&self) -> f64 {
        if self.chunks == 0 {
            1.0
        } else {
            REF_CHUNK_S * self.chunks as f64 / self.seconds
        }
    }
}

/// Where the reference chunks run.
pub enum Meter {
    /// In this process; for child processes, whose memory is not
    /// reported.
    Here(Reference),
    /// In a fresh `--child reference` process per sample, so that the
    /// table stays out of this process's memory high-water mark.
    Spawned { workload: String, chunks: u32, seconds: f64 },
}

impl Meter {
    /// Take one sample of the machine's speed.
    pub fn sample(&mut self) -> Result<(), String> {
        match self {
            Meter::Here(r) => r.chunk(),
            Meter::Spawned { workload, chunks, seconds } => {
                let exe = std::env::current_exe()
                    .map_err(|e| format!("cannot find own executable: {e}"))?;
                let out = Command::new(exe)
                    .args(["--workload", workload, "--child", "reference"])
                    .stderr(Stdio::inherit())
                    .output()
                    .map_err(|e| format!("cannot start the reference process: {e}"))?;
                let s: f64 = String::from_utf8_lossy(&out.stdout)
                    .trim()
                    .parse()
                    .map_err(|_| format!("the reference process failed: {}", out.status))?;
                *chunks += 1;
                *seconds += s;
            }
        }
        Ok(())
    }

    pub fn speed(&self) -> f64 {
        match self {
            Meter::Here(r) => r.speed(),
            Meter::Spawned { chunks, seconds, .. } => {
                REF_CHUNK_S * f64::from(*chunks) / seconds.max(f64::MIN_POSITIVE)
            }
        }
    }
}

/// `--child reference`: print the seconds of one warm chunk.
pub fn reference_child() -> ! {
    let mut r = Reference::new();
    r.chunk();
    println!("{}", r.seconds);
    std::process::exit(0)
}
