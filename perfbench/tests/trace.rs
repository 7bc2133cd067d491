//! Self time per layer derived from spans.

use std::time::Instant;

use perfbench::trace::{self_time_by_layer, to_jsonl, Span, Tracer};

fn span(sid: u64, name: &'static str, parent: Option<u64>, start_ns: u64, end_ns: u64) -> Span {
    Span {
        sid,
        name,
        group: 0,
        parent,
        start_ns,
        end_ns,
    }
}

#[test]
fn self_time_subtracts_the_union_of_the_children() {
    let spans = [
        span(1, "bench.job", None, 0, 100),
        // Overlapping children cover [10, 60) and [80, 120) ∩ [0, 100).
        span(2, "service.submit", Some(1), 10, 40),
        span(3, "service.wait_started", Some(1), 30, 60),
        span(4, "service.wait_completed", Some(1), 80, 120),
        // A child nested inside another child counts for its own parent only.
        span(5, "problems.build", Some(4), 90, 95),
    ];
    let layers = self_time_by_layer(&spans);
    let ns = |layer: &str| (layers[layer].0 * 1e9).round() as u64;
    assert_eq!(ns("bench"), 100 - 50 - 20);
    assert_eq!(ns("service"), 30 + 30 + (40 - 5));
    assert_eq!(ns("problems"), 5);
    assert_eq!(layers["service"].1, 3);
}

#[test]
fn a_disabled_tracer_records_nothing_and_an_enabled_one_links_children() {
    let off = Tracer::new(Instant::now(), false);
    off.span("bench.x", 0, None, |id| assert_eq!(id, None));
    assert!(off.spans().is_empty());

    let on = Tracer::new(Instant::now(), true);
    on.span("bench.root", 7, None, |root| {
        on.span("parallel.child", 7, root, |_| ());
    });
    let spans = on.spans();
    assert_eq!(spans.len(), 2);
    let root = spans.iter().find(|s| s.name == "bench.root").expect("root");
    let child = spans
        .iter()
        .find(|s| s.name == "parallel.child")
        .expect("child");
    assert_eq!(child.parent, Some(root.sid));
    assert!(root.start_ns <= child.start_ns && child.end_ns <= root.end_ns);
    assert_eq!(to_jsonl(&spans).lines().count(), 2);
}
