//! Property-based tests of the adaptive conservative window machinery:
//! window ends never violate the lookahead lower bound or the stride
//! cap, fast-forwarded window starts always land on the straight-line
//! global minimum next-event time (validated against a single-shard
//! reference run), and fingerprints are byte-identical across window
//! policies and shard counts on randomized ping-pong workloads.

use std::collections::BTreeSet;

use dcsim::{
    Component, ComponentId, Context, Engine, ShardPlan, ShardedEngine, SimDuration, SimTime,
    WindowPolicy,
};
use proptest::prelude::*;

/// Ping-pong component with a minimum reply delay: replies to its peer
/// after `floor + jitter` drawn from its private stream.
struct PacedPinger {
    peer: ComponentId,
    remaining: u64,
    floor: u64,
    jitter: u64,
    log: Vec<(u64, u64)>,
}

impl Component<u64> for PacedPinger {
    fn on_message(&mut self, msg: u64, ctx: &mut Context<'_, u64>) {
        self.log.push((ctx.now().as_nanos(), msg));
        if self.remaining > 0 {
            self.remaining -= 1;
            let delay = self.floor + ctx.rng().next_u64() % self.jitter.max(1);
            ctx.send_after(SimDuration::from_nanos(delay), self.peer, msg + 1);
        }
    }
}

/// `split` pairs exchanging cross-shard traffic at least `floor` apart,
/// plus `colo` colocated pairs whose events can never reach a
/// cut. First all split components (even/odd = the two sides), then the
/// colocated ones.
fn build(
    seed: u64,
    split: usize,
    colo: usize,
    volleys: u64,
    floor: u64,
    jitter: u64,
) -> Engine<u64> {
    let mut engine: Engine<u64> = Engine::new(seed);
    let pairs = split + colo;
    for p in 0..pairs {
        let a = ComponentId::from_raw(2 * p);
        let b = ComponentId::from_raw(2 * p + 1);
        for peer in [b, a] {
            engine.add_component(PacedPinger {
                peer,
                remaining: volleys,
                floor,
                jitter,
                log: Vec::new(),
            });
        }
        engine.schedule(SimTime::from_nanos(17 * p as u64), a, 0);
    }
    engine
}

/// Split pairs straddle shards 0/1..; colocated pairs round-robin. The
/// reply floor is the honest cross-shard minimum, so it is the
/// lookahead; colocated components can never reach a cut (`MAX` excess),
/// split components are themselves cut members (`floor` excess).
fn plan(split: usize, colo: usize, shards: u32, floor: u64) -> ShardPlan {
    let mut shard_of = Vec::new();
    let mut excess = Vec::new();
    for p in 0..split {
        shard_of.push((2 * p as u32) % shards);
        shard_of.push((2 * p as u32 + 1) % shards);
        excess.push(SimDuration::from_nanos(floor));
        excess.push(SimDuration::from_nanos(floor));
    }
    for p in 0..colo {
        let s = p as u32 % shards;
        shard_of.push(s);
        shard_of.push(s);
        excess.push(SimDuration::MAX);
        excess.push(SimDuration::MAX);
    }
    ShardPlan::new(shards, shard_of, SimDuration::from_nanos(floor)).with_cut_excess(excess)
}

fn fingerprint(engine: &ShardedEngine<u64>, components: usize) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    for i in 0..components {
        let p = engine
            .component::<PacedPinger>(ComponentId::from_raw(i))
            .unwrap();
        writeln!(out, "c{} log={:?}", i, p.log).unwrap();
    }
    out
}

/// Every timestamp any component ever saw — by construction, the set of
/// all event times in the run (receptions are the only events here).
fn event_times(engine: &ShardedEngine<u64>, components: usize) -> BTreeSet<u64> {
    let mut times = BTreeSet::new();
    for i in 0..components {
        let p = engine
            .component::<PacedPinger>(ComponentId::from_raw(i))
            .unwrap();
        times.extend(p.log.iter().map(|&(at, _)| at));
    }
    times
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Adaptive window ends respect the lookahead lower bound and the
    /// stride cap; every window start is the straight-line global
    /// minimum next-event time (an actual event timestamp from the
    /// single-shard reference — never earlier, and never later or the
    /// fingerprints below could not match); and fingerprints are
    /// byte-identical across policies and shard counts.
    #[test]
    fn adaptive_windows_are_bounded_correct_and_policy_invariant(
        seed in any::<u64>(),
        split in 1usize..4,
        colo in 1usize..4,
        volleys in 10u64..60,
        floor in 200u64..2_000,
        jitter in 1u64..3_000,
        stride in 2u32..24,
    ) {
        let reference = {
            let mut e = ShardedEngine::from_engine(
                build(seed, split, colo, volleys, floor, jitter),
                plan(split, colo, 1, floor),
            );
            e.run_to_idle();
            e
        };
        let components = 2 * (split + colo);
        let ref_fp = fingerprint(&reference, components);
        let times = event_times(&reference, components);

        for shards in [2u32, 4] {
            let mut adaptive = ShardedEngine::from_engine(
                build(seed, split, colo, volleys, floor, jitter),
                plan(split, colo, shards, floor),
            );
            adaptive.set_window_policy(WindowPolicy { stride_cap: stride });
            adaptive.record_windows(true);
            adaptive.run_to_idle();
            prop_assert_eq!(
                fingerprint(&adaptive, components), ref_fp.clone(),
                "adaptive fingerprint diverged at {} shards", shards
            );

            let mut fixed = ShardedEngine::from_engine(
                build(seed, split, colo, volleys, floor, jitter),
                plan(split, colo, shards, floor),
            );
            fixed.set_window_policy(WindowPolicy::fixed());
            fixed.run_to_idle();
            prop_assert_eq!(
                fingerprint(&fixed, components), ref_fp.clone(),
                "fixed fingerprint diverged at {} shards", shards
            );

            let mut prev_end = 0u64;
            for &(start, end) in adaptive.window_log() {
                prop_assert!(start >= prev_end, "windows overlap");
                prop_assert!(
                    end >= start.saturating_add(floor),
                    "window [{}, {}) shorter than the {} ns lookahead", start, end, floor
                );
                prop_assert!(
                    end <= start.saturating_add(floor.saturating_mul(stride as u64)),
                    "window [{}, {}) beyond the stride cap", start, end
                );
                prop_assert!(
                    times.contains(&start),
                    "window start {} is not an event time: fast-forward overshot \
                     or undershot the global minimum", start
                );
                prev_end = end;
            }
        }
    }

    /// Fast-forward bookkeeping: starts that jump past the previous
    /// window's end are exactly the ones counted, and idle-heavy
    /// workloads do fast-forward.
    #[test]
    fn fast_forward_counts_match_the_window_log(
        seed in any::<u64>(),
        volleys in 20u64..80,
        floor in 3_000u64..20_000,
    ) {
        // Pure split pairs with a large reply floor and tiny jitter:
        // consecutive events are far apart, so most windows fast-forward.
        let mut e = ShardedEngine::from_engine(
            build(seed, 2, 0, volleys, floor, 50),
            plan(2, 0, 4, floor),
        );
        e.set_window_policy(WindowPolicy { stride_cap: 4 });
        e.record_windows(true);
        e.run_to_idle();
        let log = e.window_log();
        let expected: u64 = log
            .windows(2)
            .filter(|w| w[1].0 > w[0].1)
            .count() as u64;
        let stats = e.sync_stats();
        for s in &stats {
            prop_assert_eq!(s.windows_run, log.len() as u64);
            prop_assert_eq!(
                s.windows_fast_forwarded, expected,
                "fast-forward counter disagrees with the recorded windows"
            );
        }
    }
}
