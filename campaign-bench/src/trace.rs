//! Spans measured from outside the engine.
//!
//! Two sources feed one span tree per traced campaign:
//!
//! * the benchmark's own timestamps around calls into public functions
//!   (`prepare_campaign`, `PreparedCampaign::run`, `tabulate`, the farm
//!   calls), added with [`SpanTree::add`];
//! * [`Recorder`], a [`CampaignObserver`] that stamps every life-cycle
//!   event the engine already emits, turned into layer spans by
//!   [`SpanTree::add_events`].
//!
//! A span's *self time* is its duration minus the part its children cover.
//! The container spans (`campaign`, the root, and `run`, the
//! `PreparedCampaign::run` call) belong to no layer, so their self time is
//! the traced wall clock that no layer accounts for:
//! [`SpanTree::unattributed_frac`].

use bera_goofi::campaign::CampaignResult;
use bera_goofi::experiment::{ExperimentRecord, FaultSpec};
use bera_goofi::observer::CampaignObserver;
use bera_goofi::planner::PlanStats;
use std::sync::Mutex;
use std::time::Instant;

/// Span names that group other spans and belong to no layer.
pub const CONTAINERS: [&str; 2] = ["campaign", "run"];

/// The engine events the span derivation needs. Events carry the fault
/// index where the engine provides one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// `fault_list_sampled`: planning starts.
    FaultListSampled,
    /// `plan_computed`: planning ends, the batch pass starts.
    PlanComputed,
    /// `batch_admission`: the lockstep batch pass ends.
    BatchAdmission,
    /// `arena_restored`: an experiment's machine is restored.
    ArenaRestored,
    /// `experiment_started`: fast-forward to the injection point starts.
    Started(usize),
    /// `fault_injected`: the faulty drive starts.
    Injected(usize),
    /// `experiment_executed`: the drive ends, classification starts.
    Executed(usize),
    /// `experiment_classified`: a record is final.
    Classified(usize),
    /// `campaign_completed`: the result is assembled.
    CampaignCompleted,
}

/// A timestamped event; time in seconds since the recorder's origin.
pub type Stamped = (f64, Event);

/// Records engine events with their wall-clock time. Meant for
/// single-threaded campaigns: the span derivation reads the events as one
/// sequence.
pub struct Recorder {
    origin: Instant,
    events: Mutex<Vec<Stamped>>,
}

impl Recorder {
    /// A recorder whose timestamps count from `origin`.
    #[must_use]
    pub fn new(origin: Instant) -> Self {
        Recorder {
            origin,
            // Sized for a paper-scale campaign so the traced run does not
            // pay for reallocation.
            events: Mutex::new(Vec::with_capacity(1 << 16)),
        }
    }

    fn push(&self, event: Event) {
        let t = self.origin.elapsed().as_secs_f64();
        self.events
            .lock()
            .expect("no recorder holder panics while pushing")
            .push((t, event));
    }

    /// The recorded events, in arrival order.
    #[must_use]
    pub fn into_events(self) -> Vec<Stamped> {
        self.events
            .into_inner()
            .expect("no recorder holder panics while pushing")
    }
}

impl CampaignObserver for Recorder {
    fn fault_list_sampled(&self, _faults: &[FaultSpec]) {
        self.push(Event::FaultListSampled);
    }

    fn plan_computed(&self, _stats: &PlanStats) {
        self.push(Event::PlanComputed);
    }

    fn batch_admission(&self, _rejected_untraceable: usize, _vis_admitted: usize) {
        self.push(Event::BatchAdmission);
    }

    fn arena_restored(&self, _copied_words: usize, _full_clone: bool) {
        self.push(Event::ArenaRestored);
    }

    fn experiment_started(&self, index: usize, _fault: FaultSpec, _from: Option<usize>) {
        self.push(Event::Started(index));
    }

    fn fault_injected(&self, index: usize, _fault: FaultSpec) {
        self.push(Event::Injected(index));
    }

    fn experiment_executed(&self, index: usize, _instructions: u64, _block: u64) {
        self.push(Event::Executed(index));
    }

    fn experiment_classified(&self, index: usize, _record: &ExperimentRecord) {
        self.push(Event::Classified(index));
    }

    fn campaign_completed(&self, _result: &CampaignResult) {
        self.push(Event::CampaignCompleted);
    }
}

/// One span: a layer busy over `[start, end]` seconds.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer (or container) name.
    pub layer: &'static str,
    /// Fault-list index, for spans of one experiment.
    pub fault: Option<usize>,
    /// Start, seconds since the trace origin.
    pub start: f64,
    /// End, seconds since the trace origin.
    pub end: f64,
    /// Index of the enclosing span; `None` only for the root.
    pub parent: Option<usize>,
}

impl Span {
    /// `end - start`.
    #[must_use]
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// The spans of one traced campaign; index 0 is the root `campaign` span.
#[derive(Debug, Clone)]
pub struct SpanTree {
    spans: Vec<Span>,
}

/// An experiment whose closing `Classified` event has not arrived yet.
struct OpenExperiment {
    index: usize,
    started: f64,
    injected: Option<f64>,
    executed: Option<f64>,
}

impl SpanTree {
    /// A tree holding only the root `campaign` span.
    #[must_use]
    pub fn new(start: f64, end: f64) -> Self {
        SpanTree {
            spans: vec![Span {
                layer: "campaign",
                fault: None,
                start,
                end,
                parent: None,
            }],
        }
    }

    /// Adds a span under `parent` and returns its index.
    ///
    /// # Panics
    ///
    /// Panics if `parent` is not a span of this tree.
    pub fn add(
        &mut self,
        parent: usize,
        layer: &'static str,
        fault: Option<usize>,
        start: f64,
        end: f64,
    ) -> usize {
        assert!(
            parent < self.spans.len(),
            "parent span {parent} does not exist"
        );
        self.spans.push(Span {
            layer,
            fault,
            start,
            end,
            parent: Some(parent),
        });
        self.spans.len() - 1
    }

    /// Derives layer spans under `parent` from one campaign's events:
    ///
    /// * `planner`: `FaultListSampled` → `PlanComputed`;
    /// * `batch`: `PlanComputed` → `BatchAdmission` (absent when the batch
    ///   pass did not run);
    /// * `restore`: the previous event → `ArenaRestored`;
    /// * `experiment`: `Started(i)` → `Classified(i)`, with children
    ///   `machine.ff` (→ `Injected`), `machine.drive` (→ `Executed`) and
    ///   `classify` (→ `Classified`);
    /// * `replicate`: the last experiment's end → `CampaignCompleted`.
    ///
    /// `Classified` events with no open experiment (analytic, batch-
    /// resolved and replicated records) only advance the "previous event"
    /// time.
    pub fn add_events(&mut self, parent: usize, events: &[Stamped]) {
        let mut last = self.spans[parent].start;
        let mut sampled = None;
        let mut planned = None;
        let mut simulated_until = None;
        let mut open: Option<OpenExperiment> = None;
        for &(t, event) in events {
            match event {
                Event::FaultListSampled => sampled = Some(t),
                Event::PlanComputed => {
                    self.add(parent, "planner", None, sampled.unwrap_or(last), t);
                    planned = Some(t);
                }
                Event::BatchAdmission => {
                    self.add(parent, "batch", None, planned.unwrap_or(last), t);
                }
                Event::ArenaRestored => {
                    self.add(parent, "restore", None, last, t);
                }
                Event::Started(index) => {
                    open = Some(OpenExperiment {
                        index,
                        started: t,
                        injected: None,
                        executed: None,
                    });
                }
                Event::Injected(index) => {
                    if let Some(e) = open.as_mut().filter(|e| e.index == index) {
                        e.injected = Some(t);
                    }
                }
                Event::Executed(index) => {
                    if let Some(e) = open.as_mut().filter(|e| e.index == index) {
                        e.executed = Some(t);
                    }
                }
                Event::Classified(index) => {
                    if let Some(e) = open.take_if(|e| e.index == index) {
                        let executed = e.executed.unwrap_or(t);
                        let injected = e.injected.unwrap_or(executed);
                        let f = Some(index);
                        let exp = self.add(parent, "experiment", f, e.started, t);
                        self.add(exp, "machine.ff", f, e.started, injected);
                        self.add(exp, "machine.drive", f, injected, executed);
                        self.add(exp, "classify", f, executed, t);
                        simulated_until = Some(t);
                    }
                }
                Event::CampaignCompleted => {
                    let from = simulated_until.or(planned).unwrap_or(last);
                    self.add(parent, "replicate", None, from, t);
                }
            }
            last = t;
        }
    }

    /// All spans, root first.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Each span's self time: its duration minus the union of its
    /// children's intervals (clipped to the span), so parallel children
    /// are not double-counted.
    #[must_use]
    pub fn self_times(&self) -> Vec<f64> {
        let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start, s.end));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, mut kids)| {
                kids.sort_by(|a, b| a.0.total_cmp(&b.0));
                let mut covered = 0.0;
                let mut reach = s.start;
                for (a, b) in kids {
                    let (a, b) = (a.max(reach), b.min(s.end));
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                s.duration() - covered
            })
            .collect()
    }

    /// Summed self time of every span named `layer`.
    #[must_use]
    pub fn layer_self(&self, layer: &str) -> f64 {
        self.spans
            .iter()
            .zip(self.self_times())
            .filter(|(s, _)| s.layer == layer)
            .fold(0.0, |sum, (_, t)| sum + t)
    }

    /// Durations of every span named `layer`.
    #[must_use]
    pub fn durations(&self, layer: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.layer == layer)
            .map(Span::duration)
            .collect()
    }

    /// The share of the root's wall clock that no layer span covers: the
    /// self time of the [`CONTAINERS`] over the root's duration.
    #[must_use]
    pub fn unattributed_frac(&self) -> f64 {
        let unattributed: f64 = CONTAINERS.iter().map(|c| self.layer_self(c)).sum();
        unattributed / self.spans[0].duration()
    }

    /// The spans as JSON lines (times in microseconds since the trace
    /// origin), one per span, tagged with `workload`.
    #[must_use]
    pub fn to_jsonl(&self, workload: &str) -> String {
        let self_times = self.self_times();
        let mut out = String::new();
        for (id, (s, own)) in self.spans.iter().zip(self_times).enumerate() {
            let opt = |v: Option<usize>| v.map_or_else(|| "null".to_string(), |v| v.to_string());
            out.push_str(&format!(
                "{{\"workload\":\"{workload}\",\"id\":{id},\"parent\":{},\"layer\":\"{}\",\
                 \"fault\":{},\"start_us\":{:.3},\"dur_us\":{:.3},\"self_us\":{:.3}}}\n",
                opt(s.parent),
                s.layer,
                opt(s.fault),
                s.start * 1e6,
                s.duration() * 1e6,
                own * 1e6,
            ));
        }
        out
    }
}
