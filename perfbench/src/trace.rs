//! The traced pass: host time per component kind, from an engine observer.
//!
//! [`KindTracer`] timestamps the end of every dispatched event and charges
//! the interval since the previous one to the kind of the event's
//! destination component. Each interval therefore covers that event's
//! queue pop, its handler and the tracer's own bookkeeping. Kinds are
//! resolved once per component id by downcasting through
//! [`Engine::component`]. The observer is passive, so a traced run
//! dispatches exactly the events an untraced run does.

use std::time::Instant;

use apps::ranking::RankingServer;
use apps::remote::AcceleratorRole;
use catapult::workload::FleetLoadGen;
use dcnet::{FlowSim, Msg, Switch};
use dcsim::{ComponentId, Engine, EventRecord, Observer};
use shell::Shell;

use crate::workloads::QueryGen;

/// The component kinds host time is split by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `dcnet::Switch`: TOR, aggregation and spine switches.
    Switch,
    /// `shell::Shell`: bridge, elastic router, LTL and frame codecs.
    Shell,
    /// `dcnet::FlowSim`: the flow-level background model.
    FlowSim,
    /// `catapult::workload::FleetLoadGen`: the fleet background generator.
    FleetGen,
    /// Roles and services: `RankingServer`, `AcceleratorRole`, `OpenLoopGen`.
    Apps,
    /// Everything else (the benchmark's own sinks).
    Other,
}

impl Kind {
    /// Every kind, in report order.
    pub const ALL: [Kind; 6] = [
        Kind::Switch,
        Kind::Shell,
        Kind::FlowSim,
        Kind::FleetGen,
        Kind::Apps,
        Kind::Other,
    ];

    /// The metric-name prefix of this kind.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Switch => "switch",
            Kind::Shell => "shell",
            Kind::FlowSim => "flowsim",
            Kind::FleetGen => "fleetgen",
            Kind::Apps => "apps",
            Kind::Other => "other",
        }
    }

    fn of(engine: &Engine<Msg>, id: ComponentId) -> Kind {
        if engine.component::<Switch>(id).is_some() {
            Kind::Switch
        } else if engine.component::<Shell>(id).is_some() {
            Kind::Shell
        } else if engine.component::<FlowSim>(id).is_some() {
            Kind::FlowSim
        } else if engine.component::<FleetLoadGen>(id).is_some() {
            Kind::FleetGen
        } else if engine.component::<RankingServer>(id).is_some()
            || engine.component::<AcceleratorRole>(id).is_some()
            || engine.component::<QueryGen>(id).is_some()
        {
            Kind::Apps
        } else {
            Kind::Other
        }
    }
}

/// Host nanoseconds and events charged to each [`Kind`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KindTimes {
    /// Self time per kind, indexed like [`Kind::ALL`].
    pub nanos: [u64; 6],
    /// Events per kind, indexed like [`Kind::ALL`].
    pub events: [u64; 6],
}

/// The observer behind the traced pass.
pub struct KindTracer {
    /// Resolved kind per raw component id (`None` until first seen).
    kinds: Vec<Option<Kind>>,
    last: Instant,
    times: KindTimes,
}

impl KindTracer {
    /// A tracer whose first interval starts now; attach it immediately
    /// before the run call.
    pub fn start() -> KindTracer {
        KindTracer {
            kinds: Vec::new(),
            last: Instant::now(),
            times: KindTimes::default(),
        }
    }

    /// The times charged so far.
    pub fn times(&self) -> KindTimes {
        self.times
    }
}

impl Observer<Msg> for KindTracer {
    fn after_event(&mut self, event: &EventRecord, engine: &Engine<Msg>) {
        let now = Instant::now();
        let raw = event.dest.as_raw();
        if raw >= self.kinds.len() {
            self.kinds.resize(raw + 1, None);
        }
        let kind = *self.kinds[raw].get_or_insert_with(|| Kind::of(engine, event.dest));
        let k = kind as usize;
        self.times.nanos[k] += now.duration_since(self.last).as_nanos() as u64;
        self.times.events[k] += 1;
        self.last = now;
    }
}
