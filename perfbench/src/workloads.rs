//! The three workloads: each builds its simulation through the public
//! `catapult`/`dcnet`/`shell`/`apps` APIs from a seed, runs it, and checks
//! the simulated output.
//!
//! The seed drives everything: the cluster's engine seed, and a separate
//! input stream (placement of endpoints, message sizes and times, probe
//! phases) drawn before the cluster runs. The same seed gives the same
//! inputs, and on one commit the same simulated output.

use std::collections::BTreeSet;
use std::time::Instant;

use apps::ranking::{QueryArrival, RankingMode, RankingParams, RankingServer};
use apps::remote::AcceleratorRole;
use catapult::probe::schedule_probes;
use catapult::workload::{FleetLoadGen, FleetWorkloadConfig};
use catapult::{calib, Cluster, ClusterBuilder};
use dcnet::{Msg, NodeAddr};
use dcsim::{Component, ComponentId, Context, SimDuration, SimRng, SimTime, WindowPolicy};
use host::{OpenLoopGen, StartGenerator};
use shell::ltl::{LtlConfig, SendConnId};
use shell::{LtlDeliver, ShellCmd};
use telemetry::MetricsSnapshot;

/// Mixed into the seed for the input stream, so inputs and the engine's
/// own random stream are independent draws.
const INPUT_SALT: u64 = 0x9E37_79B9_7F4A_7C15;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Fig. 11 remote-FPGA ranking: an open-loop query stream at 2.0x the
    /// software operating point, offloaded over LTL to another rack.
    RemoteRanking,
    /// Fig. 10 at fleet scale: 260-pod lazy hybrid fabric, 2M-user flow
    /// background, sparse LTL probes in the 2-pod packet island.
    FleetBackground,
    /// Multi-frame selective-repeat LTL incast on a 2-pod fabric with 1%
    /// injected loss at every shell. Its per-layer pass also runs the
    /// same inputs on the sharded engine.
    LossyIncast,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [
        Workload::RemoteRanking,
        Workload::FleetBackground,
        Workload::LossyIncast,
    ];

    /// The workload's name on the command line and in reports.
    pub fn name(self) -> &'static str {
        match self {
            Workload::RemoteRanking => "remote_ranking",
            Workload::FleetBackground => "fleet_background",
            Workload::LossyIncast => "lossy_incast",
        }
    }

    /// The workload named `name`, if any.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the workload can also run on the sharded engine.
    pub fn shardable(self) -> bool {
        self == Workload::LossyIncast
    }
}

/// Shards (and, on a host with at least 2 cores, worker threads) of a
/// sharded execution.
pub const SHARDS: u32 = 2;

/// Queries per `remote_ranking` instance at full scale.
const RANKING_QUERIES: f64 = 6_000.0;
/// Offered load, normalised to the software operating point (Fig. 11).
const RANKING_LOAD: f64 = 2.0;

/// Pods of the fleet fabric (249,600 hosts) and of its packet island.
const FLEET_PODS: u16 = 260;
const FLEET_ISLAND: u16 = 2;
/// Probe pairs per tier (L0, L1, L2) and probes per pair at full scale.
const FLEET_PAIRS_PER_TIER: u16 = 4;
const FLEET_PROBES_PER_PAIR: f64 = 3_000.0;
const FLEET_PROBE_GAP: SimDuration = SimDuration::from_micros(100);
const FLEET_PROBE_BYTES: usize = 32;

/// Incast receivers, senders per receiver and messages per sender at
/// full scale.
const INCAST_RECEIVERS: usize = 4;
const INCAST_SENDERS: usize = 12;
const INCAST_ROUNDS: f64 = 40.0;
/// Every sender of a receiver submits one message per round.
const INCAST_ROUND: SimDuration = SimDuration::from_micros(300);
/// Submit jitter within a round.
const INCAST_JITTER_NS: u64 = 5_000;
/// Message sizes span this range (multi-frame at the LTL MTU).
const INCAST_MIN_BYTES: usize = 24 * 1024;
const INCAST_MAX_BYTES: usize = 72 * 1024;
/// Injected egress LTL frame loss at every shell.
const INCAST_LOSS: f64 = 0.01;

/// The query factory of `remote_ranking`'s generator: a named fn-pointer
/// type, so the traced pass can recognise the generator by downcasting.
pub type QueryFn = fn(u64, &mut SimRng) -> Msg;
/// `remote_ranking`'s open-loop query generator.
pub type QueryGen = OpenLoopGen<QueryFn>;

fn query_arrival(id: u64, _rng: &mut SimRng) -> Msg {
    Msg::custom(QueryArrival { id })
}

/// A built, wired simulation ready to run, with its set-up split.
pub struct Prepared {
    /// The simulation.
    pub cluster: Cluster,
    /// Operations the workload attempts (queries, LTL messages, probes).
    pub attempted: u64,
    /// Host seconds in `ClusterBuilder::build`.
    pub build_s: f64,
    /// Host seconds wiring the fabric and scheduling the inputs (shells,
    /// connections, consumers, roles, generators; sharding included).
    pub wire_s: f64,
    expect: Expect,
}

/// What the output check needs to know about one workload instance.
enum Expect {
    Ranking {
        server: ComponentId,
        role: ComponentId,
        queries: u64,
    },
    Fleet {
        pairs: Vec<(NodeAddr, NodeAddr)>,
        probes_per_pair: u64,
        horizon: SimTime,
    },
    Incast {
        sinks: Vec<ComponentId>,
        senders: Vec<Vec<NodeAddr>>,
        rounds: u64,
    },
}

/// The output check's verdict on one run.
#[derive(Debug, Clone, Default)]
pub struct Verdict {
    /// Operations not completed (all of them when a check failed).
    pub failed: u64,
    /// Failed output checks; empty when the output is correct.
    pub errors: Vec<String>,
}

/// Operations one instance of `workload` attempts at `scale`; the same
/// for every seed.
pub fn planned_ops(workload: Workload, scale: f64) -> u64 {
    match workload {
        Workload::RemoteRanking => scaled(RANKING_QUERIES, scale),
        Workload::FleetBackground => {
            scaled(FLEET_PROBES_PER_PAIR, scale) * 3 * u64::from(FLEET_PAIRS_PER_TIER)
        }
        Workload::LossyIncast => {
            scaled(INCAST_ROUNDS, scale) * (INCAST_RECEIVERS * INCAST_SENDERS) as u64
        }
    }
}

/// Builds and wires `workload` from `seed`, on [`SHARDS`] shards when
/// `sharded`. `scale` (in `(0, 1]`) shrinks the generated inputs for the
/// benchmark's self-tests; the benchmark runs at `1.0`.
///
/// # Panics
///
/// Panics if `sharded` is set for a workload that is not
/// [`Workload::shardable`].
pub fn prepare(workload: Workload, seed: u64, scale: f64, sharded: bool) -> Prepared {
    assert!(
        !sharded || workload.shardable(),
        "{} has no sharded execution",
        workload.name()
    );
    let mut inputs = SimRng::seed_from(seed ^ INPUT_SALT);
    match workload {
        Workload::RemoteRanking => remote_ranking(seed, scale, &mut inputs),
        Workload::FleetBackground => fleet_background(seed, scale, &mut inputs),
        Workload::LossyIncast => lossy_incast(seed, scale, &mut inputs, sharded),
    }
}

/// Runs the prepared simulation to completion; returns events dispatched.
pub fn run(prepared: &mut Prepared) -> u64 {
    match prepared.expect {
        // The fleet generator never stops: run to the probe horizon.
        Expect::Fleet { horizon, .. } => prepared.cluster.run_until(horizon),
        _ => prepared.cluster.run_to_idle(),
    }
}

/// Checks the simulated output of a finished run.
pub fn check(prepared: &Prepared, snap: &MetricsSnapshot) -> Verdict {
    let cluster = &prepared.cluster;
    let mut v = Verdict::default();
    match &prepared.expect {
        Expect::Ranking {
            server,
            role,
            queries,
        } => {
            let done = cluster
                .component::<RankingServer>(*server)
                .map_or(0, |s| s.completed());
            let served = cluster
                .component::<AcceleratorRole>(*role)
                .map_or(0, |r| r.completed());
            if done != *queries {
                v.errors
                    .push(format!("{done} of {queries} queries completed"));
            }
            if served != *queries {
                v.errors
                    .push(format!("remote role served {served} of {queries} queries"));
            }
        }
        Expect::Fleet {
            pairs,
            probes_per_pair,
            ..
        } => {
            match cluster.flowsim() {
                Some(fs) => {
                    let (inj, del, fly) = (
                        fs.bytes_injected(),
                        fs.bytes_delivered(),
                        fs.bytes_in_flight(),
                    );
                    if inj != del + fly {
                        v.errors.push(format!(
                            "flowsim ledger: injected {inj} != delivered {del} + in flight {fly}"
                        ));
                    }
                    if del == 0 {
                        v.errors
                            .push("flowsim delivered no background bytes".into());
                    }
                }
                None => v.errors.push("fleet fabric has no flow model".into()),
            }
            for (a, b) in pairs {
                let delivered = snap
                    .counter(&format!("shell/{b}/ltl/msgs_delivered"))
                    .unwrap_or(0);
                let unacked = cluster.shell(*a).ltl().in_flight();
                if delivered != *probes_per_pair || unacked != 0 {
                    v.errors.push(format!(
                        "probe pair {a}->{b}: {delivered} of {probes_per_pair} delivered, \
                         {unacked} unacknowledged"
                    ));
                }
            }
        }
        Expect::Incast {
            sinks,
            senders,
            rounds,
        } => {
            for (r, (&sink, group)) in sinks.iter().zip(senders).enumerate() {
                let Some(sink) = cluster.component::<IncastSink>(sink) else {
                    v.errors.push(format!("receiver {r} lost its sink"));
                    continue;
                };
                if let Some(e) = &sink.error {
                    v.errors.push(format!("receiver {r}: {e}"));
                }
                for (s, addr) in group.iter().enumerate() {
                    let delivered = u64::from(sink.next[s]);
                    let missing = rounds - delivered;
                    // An undelivered message is a failure only when its
                    // connection gave up; anything else is lost output.
                    let conn_failed = snap
                        .counter(&format!("shell/{addr}/ltl/conn_failures"))
                        .unwrap_or(0)
                        > 0;
                    if missing > 0 && !conn_failed {
                        v.errors.push(format!(
                            "sender {addr}: {missing} messages undelivered on a live connection"
                        ));
                    }
                    v.failed += missing;
                }
            }
        }
    }
    if !v.errors.is_empty() {
        v.failed = prepared.attempted;
    }
    v
}

fn secs(since: Instant) -> f64 {
    since.elapsed().as_secs_f64()
}

fn scaled(full: f64, scale: f64) -> u64 {
    (full * scale).round().max(1.0) as u64
}

fn remote_ranking(seed: u64, scale: f64, inputs: &mut SimRng) -> Prepared {
    let t = Instant::now();
    let mut cluster = ClusterBuilder::paper(seed, 1).build();
    let build_s = secs(t);

    let t = Instant::now();
    let shape = cluster.fabric().shape();
    // Server and accelerator in two different racks of the one pod.
    let host_tor = inputs.index(shape.tors_per_pod as usize) as u16;
    let accel_tor =
        (host_tor + 1 + inputs.index(shape.tors_per_pod as usize - 1) as u16) % shape.tors_per_pod;
    let host_addr = NodeAddr::new(
        0,
        host_tor,
        inputs.index(shape.hosts_per_tor as usize) as u16,
    );
    let accel_addr = NodeAddr::new(
        0,
        accel_tor,
        inputs.index(shape.hosts_per_tor as usize) as u16,
    );
    let queries = scaled(RANKING_QUERIES, scale);
    let params = RankingParams::default();
    let qps = RANKING_LOAD * 0.9 * params.software_capacity();

    let host_shell = cluster.add_shell(host_addr);
    let accel_shell = cluster.add_shell(accel_addr);
    let (to_accel, to_host, _, accel_recv) = cluster.connect_pair(host_addr, accel_addr);
    let server = cluster.add_component_at(
        host_addr,
        RankingServer::new(
            params.clone(),
            RankingMode::RemoteFpga {
                shell: host_shell,
                conn: to_accel,
            },
        ),
    );
    let mut role = AcceleratorRole::new(
        accel_shell,
        params.fpga_latency,
        params.sigma / 2.0,
        params.fpga_slots,
        params.response_bytes,
    );
    role.add_reply_route(accel_recv, to_host);
    let role = cluster.add_component_at(accel_addr, role);
    let gen: QueryGen = OpenLoopGen::new(
        server,
        SimDuration::from_secs_f64(1.0 / qps),
        Some(queries),
        query_arrival as QueryFn,
    );
    let gen = cluster.add_component_at(host_addr, gen);
    cluster
        .engine_mut()
        .schedule(SimTime::ZERO, gen, Msg::custom(StartGenerator));
    cluster.set_consumer(host_addr, server);
    cluster.set_consumer(accel_addr, role);
    Prepared {
        cluster,
        attempted: queries,
        build_s,
        wire_s: secs(t),
        expect: Expect::Ranking {
            server,
            role,
            queries,
        },
    }
}

fn fleet_background(seed: u64, scale: f64, inputs: &mut SimRng) -> Prepared {
    let t = Instant::now();
    let mut cluster = ClusterBuilder::paper(seed, FLEET_PODS)
        .packet_island(FLEET_ISLAND)
        .lazy(true)
        .build();
    let build_s = secs(t);

    let t = Instant::now();
    let shape = cluster.fabric().shape();
    let probes_per_pair = scaled(FLEET_PROBES_PER_PAIR, scale);
    // The Fig. 10 tiers on disjoint racks of the island: L0 inside a rack,
    // L1 across racks of pod 0, L2 across the island's two pods. The host
    // slot of each tier and every pair's probe phase come from the seed.
    let mut pairs = Vec::new();
    for tier in 0..3u16 {
        let host = inputs.index(shape.hosts_per_tor as usize - 1) as u16;
        for i in 0..FLEET_PAIRS_PER_TIER {
            pairs.push(match tier {
                0 => (NodeAddr::new(0, i, host), NodeAddr::new(0, i, host + 1)),
                1 => (
                    NodeAddr::new(0, 8 + 2 * i, host),
                    NodeAddr::new(0, 9 + 2 * i, host),
                ),
                _ => (
                    NodeAddr::new(0, 20 + i, host),
                    NodeAddr::new(1, 20 + i, host),
                ),
            });
        }
    }
    for &(a, b) in &pairs {
        cluster.add_shell(a);
        cluster.add_shell(b);
        let (a_send, _, _, _) = cluster.connect_pair(a, b);
        let phase = inputs.index(FLEET_PROBE_GAP.as_nanos() as usize) as u64;
        schedule_probes(
            &mut cluster,
            a,
            a_send,
            SimTime::from_nanos(phase),
            FLEET_PROBE_GAP,
            probes_per_pair,
            FLEET_PROBE_BYTES,
        );
    }
    let flowsim = cluster
        .flowsim_id()
        .expect("a hybrid fidelity map registers a flow model");
    let fidelity = cluster.fabric().fidelity().clone();
    let gen = cluster.engine_mut().add_component(FleetLoadGen::new(
        FleetWorkloadConfig::default(),
        shape,
        &fidelity,
        flowsim,
    ));
    cluster
        .engine_mut()
        .schedule(SimTime::ZERO, gen, Msg::custom(StartGenerator));
    // As in `fig10::run_fleet`: leave room for the last probe's ACK.
    let horizon =
        SimTime::ZERO + FLEET_PROBE_GAP * (probes_per_pair + 50) + SimDuration::from_millis(1);
    let attempted = probes_per_pair * pairs.len() as u64;
    Prepared {
        cluster,
        attempted,
        build_s,
        wire_s: secs(t),
        expect: Expect::Fleet {
            pairs,
            probes_per_pair,
            horizon,
        },
    }
}

fn lossy_incast(seed: u64, scale: f64, inputs: &mut SimRng, sharded: bool) -> Prepared {
    let t = Instant::now();
    let shell_cfg = calib::shell_config().with_ltl(LtlConfig::default().selective_repeat());
    let mut cluster = ClusterBuilder::paper(seed, 2)
        .shell_config(shell_cfg)
        .build();
    let build_s = secs(t);

    let t = Instant::now();
    let shape = cluster.fabric().shape();
    let rounds = scaled(INCAST_ROUNDS, scale);
    // Receivers alternate pods, each in a rack of its own, so every
    // incast converges on one host link. Each receiver's senders
    // alternate pods too, on random racks without a receiver, so every
    // incast crosses racks and the spine.
    let mut receiver_racks = BTreeSet::new();
    let receivers: Vec<NodeAddr> = (0..INCAST_RECEIVERS)
        .map(|r| loop {
            let pod = r as u16 % 2;
            let tor = inputs.index(shape.tors_per_pod as usize) as u16;
            if receiver_racks.insert((pod, tor)) {
                break NodeAddr::new(pod, tor, inputs.index(shape.hosts_per_tor as usize) as u16);
            }
        })
        .collect();
    let mut used = BTreeSet::new();
    let senders: Vec<Vec<NodeAddr>> = (0..INCAST_RECEIVERS)
        .map(|_| {
            (0..INCAST_SENDERS)
                .map(|s| loop {
                    let addr = NodeAddr::new(
                        s as u16 % 2,
                        inputs.index(shape.tors_per_pod as usize) as u16,
                        inputs.index(shape.hosts_per_tor as usize) as u16,
                    );
                    if !receiver_racks.contains(&(addr.pod, addr.tor)) && used.insert(addr) {
                        break addr;
                    }
                })
                .collect()
        })
        .collect();

    let mut sinks = Vec::new();
    for (r, &recv) in receivers.iter().enumerate() {
        cluster.add_shell(recv);
        // Every sender's schedule: one message per round, jittered. Sizes
        // are the same evenly spaced multi-frame sizes for every sender,
        // in a seeded order, so each sender offers the same bytes.
        let plans: Vec<Vec<(u64, u32)>> = senders[r]
            .iter()
            .map(|_| {
                let mut lens: Vec<u32> = (0..rounds)
                    .map(|k| {
                        let span = (INCAST_MAX_BYTES - INCAST_MIN_BYTES) as u64;
                        (INCAST_MIN_BYTES as u64 + span * k / (rounds - 1).max(1)) as u32
                    })
                    .collect();
                inputs.shuffle(&mut lens);
                lens.into_iter()
                    .enumerate()
                    .map(|(k, len)| {
                        let at = k as u64 * INCAST_ROUND.as_nanos()
                            + inputs.index(INCAST_JITTER_NS as usize) as u64;
                        (at, len)
                    })
                    .collect()
            })
            .collect();
        let sink = cluster.add_component_at(
            recv,
            IncastSink {
                expected: plans
                    .iter()
                    .map(|p| p.iter().map(|&(_, len)| len).collect())
                    .collect(),
                next: vec![0; plans.len()],
                error: None,
            },
        );
        cluster.set_consumer(recv, sink);
        sinks.push(sink);
        for (s, (&addr, plan)) in senders[r].iter().zip(plans).enumerate() {
            let shell = cluster.add_shell(addr);
            let (conn, _, _, _) = cluster.connect_pair(addr, recv);
            let first = SimTime::from_nanos(plan[0].0);
            let source = cluster.add_component_at(
                addr,
                IncastSource {
                    shell,
                    conn,
                    sender: s as u32,
                    plan,
                    next: 0,
                },
            );
            cluster
                .engine_mut()
                .schedule(first, source, Msg::custom(Fire));
        }
    }
    let shells: Vec<ComponentId> = cluster.shells().map(|(_, id)| id).collect();
    for id in shells {
        cluster.engine_mut().schedule(
            SimTime::ZERO,
            id,
            Msg::custom(ShellCmd::SetLtlLossRate(INCAST_LOSS)),
        );
    }
    if sharded {
        cluster.shard(SHARDS);
        // Pinned, so no ambient environment variable changes the policy.
        cluster.set_window_policy(WindowPolicy::adaptive());
    }
    let attempted = rounds * (INCAST_RECEIVERS * INCAST_SENDERS) as u64;
    Prepared {
        cluster,
        attempted,
        build_s,
        wire_s: secs(t),
        expect: Expect::Incast {
            sinks,
            senders,
            rounds,
        },
    }
}

/// Bootstrap message: an [`IncastSource`] submits its next message.
struct Fire;

/// Submits one sender's planned messages to its shell at their times.
/// The payload's first 8 bytes carry the sender's index at its receiver
/// and the message's index, so the sink can check order and size.
struct IncastSource {
    shell: ComponentId,
    conn: SendConnId,
    sender: u32,
    /// `(submit time ns, length)` per message, in time order.
    plan: Vec<(u64, u32)>,
    next: usize,
}

impl IncastSource {
    fn submit(&mut self, ctx: &mut Context<'_, Msg>) {
        let (_, len) = self.plan[self.next];
        let mut payload = vec![0u8; len as usize];
        payload[..4].copy_from_slice(&self.sender.to_be_bytes());
        payload[4..8].copy_from_slice(&(self.next as u32).to_be_bytes());
        ctx.send(
            self.shell,
            Msg::custom(ShellCmd::LtlSend {
                conn: self.conn,
                vc: 0,
                payload: payload.into(),
            }),
        );
        self.next += 1;
        if let Some(&(at, _)) = self.plan.get(self.next) {
            ctx.timer_after(SimTime::from_nanos(at).saturating_since(ctx.now()), 0);
        }
    }
}

impl Component<Msg> for IncastSource {
    fn on_message(&mut self, _msg: Msg, ctx: &mut Context<'_, Msg>) {
        self.submit(ctx);
    }

    fn on_timer(&mut self, _token: u64, ctx: &mut Context<'_, Msg>) {
        self.submit(ctx);
    }
}

/// A receiver's LTL consumer: checks every delivered message against its
/// sender's plan (in order, exact size) and counts deliveries.
struct IncastSink {
    /// Planned message lengths per sender index.
    expected: Vec<Vec<u32>>,
    /// Messages delivered per sender index (= the next expected index).
    next: Vec<u32>,
    /// The first violation seen.
    error: Option<String>,
}

impl IncastSink {
    fn deliver(&mut self, payload: &[u8]) -> Result<(), String> {
        let field = |i: usize| -> Result<u32, String> {
            let bytes = payload
                .get(i..i + 4)
                .ok_or_else(|| format!("{}-byte message has no header", payload.len()))?;
            Ok(u32::from_be_bytes(bytes.try_into().expect("4-byte slice")))
        };
        let (sender, index) = (field(0)? as usize, field(4)?);
        let next = self
            .next
            .get_mut(sender)
            .ok_or_else(|| format!("message from unknown sender {sender}"))?;
        if index != *next {
            return Err(format!(
                "sender {sender}: message {index} delivered, {} expected",
                *next
            ));
        }
        let want = self.expected[sender].get(index as usize).copied();
        if want != Some(payload.len() as u32) {
            return Err(format!(
                "sender {sender} message {index}: {} bytes, planned {want:?}",
                payload.len()
            ));
        }
        *next += 1;
        Ok(())
    }
}

impl Component<Msg> for IncastSink {
    fn on_message(&mut self, msg: Msg, _ctx: &mut Context<'_, Msg>) {
        if let Ok(d) = msg.downcast::<LtlDeliver>() {
            if let Err(e) = self.deliver(&d.payload) {
                self.error.get_or_insert(e);
            }
        }
    }
}
