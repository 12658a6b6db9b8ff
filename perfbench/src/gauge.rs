//! A fixed reference kernel that measures how fast the host runs
//! simulator-like code at the moment.
//!
//! On a shared VM, other tenants slow memory- and branch-heavy code by up
//! to 1.8x for tens of seconds at a time, while steal time stays near zero.
//! A simple arithmetic loop does not see this, but code shaped like the
//! simulator does. The gauge has two such phases: a binary-heap event
//! queue popped and pushed in time order, each event updating a random
//! word of a 2 MiB state array; and hash-map lookups of random keys
//! feeding data-dependent branches. The benchmark times the gauge before
//! and after every measured repetition and scales the repetition's host
//! times by [`REFERENCE_S`] over the gauge's time. A change to the
//! simulator moves the scaled times exactly as it moves the raw ones,
//! since the gauge shares no code with it; the host's slow and fast
//! periods cancel out.

use std::cmp::Reverse;
use std::collections::hash_map::DefaultHasher;
use std::collections::{BinaryHeap, HashMap};
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::time::Instant;

/// Pending events in the gauge's queue.
const EVENTS: u64 = 1 << 16;
/// Words of state the events update (2 MiB).
const STATE_WORDS: usize = 1 << 18;
/// Events timed per measurement.
const OPS: u32 = 100_000;
/// Keys in the gauge's map, and lookups timed per measurement.
const KEYS: u64 = 1 << 14;
const LOOKUPS: u32 = 300_000;
/// Spreads the map's keys over the key space.
const KEY_STRIDE: u64 = 2_654_435_761;

/// The gauge's time, in seconds, on the host the benchmark was sized on
/// (a 2-vCPU Xeon cloud VM, in a quiet period). Scaled times are host
/// seconds on a host running the gauge this fast.
pub const REFERENCE_S: f64 = 0.02;

/// The reference kernel, with its buffers allocated once so that each
/// measurement does the same work on the same memory. The map hashes with
/// fixed keys, so every process probes it alike.
pub struct Gauge {
    queue: BinaryHeap<Reverse<(u64, u64)>>,
    state: Vec<u64>,
    map: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>>,
}

impl Default for Gauge {
    fn default() -> Self {
        Gauge::new()
    }
}

impl Gauge {
    pub fn new() -> Gauge {
        Gauge {
            queue: BinaryHeap::with_capacity(EVENTS as usize + 1),
            state: vec![0; STATE_WORDS],
            map: (0..KEYS).map(|k| (k * KEY_STRIDE, k)).collect(),
        }
    }

    /// Host seconds the kernel takes now. Refilling the queue is not
    /// timed; every measurement replays the same sequence of events and
    /// lookups.
    pub fn measure(&mut self) -> f64 {
        let mut rng = 99u64;
        let mut next = || {
            rng = rng
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            rng
        };
        self.queue.clear();
        self.state.fill(0);
        for id in 0..EVENTS {
            self.queue.push(Reverse((next() >> 20, id)));
        }
        let t = Instant::now();
        for _ in 0..OPS {
            let Reverse((at, id)) = self.queue.pop().expect("the queue never empties");
            let r = next();
            let word = (r >> 20) as usize % STATE_WORDS;
            self.state[word] = self.state[word].wrapping_add(id);
            self.queue.push(Reverse((at + (r >> 44), id)));
        }
        let mut acc = 0u64;
        for _ in 0..LOOKUPS {
            let r = next();
            // A quarter of the keys exist.
            match self.map.get(&((r >> 48) * KEY_STRIDE)) {
                Some(v) if v & 1 == 0 => acc = acc.wrapping_add(*v),
                Some(v) => acc ^= v,
                None => acc = acc.rotate_left(1),
            }
            if r & 4 == 0 {
                acc = acc.wrapping_mul(3);
            }
        }
        let elapsed = t.elapsed().as_secs_f64();
        black_box((&self.state, acc));
        elapsed
    }
}
