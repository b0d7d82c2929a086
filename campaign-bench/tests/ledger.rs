//! Attribution of a synthetic event stream to layers: spans come out of
//! the events where the engine's life cycle says they should, a span's
//! self time is its duration minus its children, and wall clock no layer
//! covers lands in `ledger.unattributed_frac`.

use bera_campaign_bench::trace::{Event, SpanTree};

/// Root `campaign` 0–10 s holding `setup` 0–1, `run` 1–9 and `table`
/// 9–9.5, with one campaign's events inside `run`: plan, batch, one
/// simulated experiment, two records that skip the simulator, replicate.
fn tree() -> SpanTree {
    let mut t = SpanTree::new(0.0, 10.0);
    t.add(0, "setup", None, 0.0, 1.0);
    let run = t.add(0, "run", None, 1.0, 9.0);
    t.add(0, "table", None, 9.0, 9.5);
    t.add_events(
        run,
        &[
            (1.0, Event::FaultListSampled),
            (2.0, Event::PlanComputed),
            (2.5, Event::Classified(0)), // analytic: no span
            (3.0, Event::BatchAdmission),
            (3.5, Event::ArenaRestored),
            (3.6, Event::Started(1)),
            (4.0, Event::Injected(1)),
            (5.0, Event::Executed(1)),
            (5.5, Event::Classified(1)),
            (6.0, Event::Classified(2)), // replicated: no span
            (8.0, Event::CampaignCompleted),
        ],
    );
    t
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() < 1e-9
}

#[test]
fn events_become_layer_spans() {
    let t = tree();
    let layers: Vec<&str> = t.spans().iter().map(|s| s.layer).collect();
    assert_eq!(
        layers,
        [
            "campaign",
            "setup",
            "run",
            "table",
            "planner",
            "batch",
            "restore",
            "experiment",
            "machine.ff",
            "machine.drive",
            "classify",
            "replicate",
        ]
    );
    let experiment = t.spans().iter().position(|s| s.layer == "experiment");
    for child in ["machine.ff", "machine.drive", "classify"] {
        let span = t.spans().iter().find(|s| s.layer == child).expect(child);
        assert_eq!(span.parent, experiment, "{child} nests in its experiment");
        assert_eq!(span.fault, Some(1));
    }
}

#[test]
fn self_time_is_span_minus_children() {
    let t = tree();
    for (layer, expected) in [
        ("setup", 1.0),
        ("planner", 1.0),
        ("batch", 1.0),
        ("restore", 0.5),
        ("machine.ff", 0.4),
        ("machine.drive", 1.0),
        ("classify", 0.5),
        // 3.6–5.5 is fully covered by its three children.
        ("experiment", 0.0),
        // From the last simulated record (5.5), not the last record (6.0).
        ("replicate", 2.5),
        ("table", 0.5),
        // 8 s minus 6.9 s of layers: the 3.5–3.6 and 8–9 gaps.
        ("run", 1.1),
        // 10 s minus setup, run and table: the 9.5–10 gap.
        ("campaign", 0.5),
    ] {
        assert!(
            close(t.layer_self(layer), expected),
            "{layer}: self {} != {expected}",
            t.layer_self(layer)
        );
    }
    assert_eq!(t.durations("experiment").len(), 1);
    assert!(close(t.durations("experiment")[0], 1.9));
}

#[test]
fn gaps_land_in_unattributed() {
    let t = tree();
    assert!(close(t.unattributed_frac(), (1.1 + 0.5) / 10.0));
    // Self times partition the root: every instant is counted once.
    let total: f64 = t.self_times().iter().sum();
    assert!(close(total, 10.0), "self times sum to {total}");
}

#[test]
fn parallel_children_are_not_double_counted() {
    let mut t = SpanTree::new(0.0, 4.0);
    t.add(0, "farm.worker", None, 0.5, 3.0);
    t.add(0, "farm.worker", None, 1.0, 3.5);
    assert!(close(t.layer_self("campaign"), 1.0));
    assert!(close(t.unattributed_frac(), 0.25));
}

#[test]
fn absent_layers_read_zero() {
    let mut t = SpanTree::new(0.0, 1.0);
    let run = t.add(0, "run", None, 0.0, 1.0);
    // A campaign with no batch pass and nothing simulated.
    t.add_events(
        run,
        &[
            (0.1, Event::FaultListSampled),
            (0.2, Event::PlanComputed),
            (0.9, Event::CampaignCompleted),
        ],
    );
    assert_eq!(t.layer_self("batch").to_bits(), 0.0f64.to_bits());
    assert!(t.durations("experiment").is_empty());
    // With nothing simulated, replication runs from the end of planning.
    assert!(close(t.layer_self("replicate"), 0.7));
}
