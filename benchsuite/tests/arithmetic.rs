//! Median, quartile and span self-time arithmetic.

use bitdissem_benchsuite::stats::{median, Spread};
use bitdissem_benchsuite::trace::{self_time, self_time_under, Span, Tracer};

#[test]
fn spread_interpolates_between_order_statistics() {
    let s = Spread::of(&[4.0, 1.0, 3.0, 2.0, 5.0]);
    assert_eq!((s.n, s.q1, s.median, s.q3), (5, 2.0, 3.0, 4.0));
    // Even count: the median and quartiles fall between samples.
    let s = Spread::of(&[1.0, 2.0, 3.0, 4.0]);
    assert_eq!((s.q1, s.median, s.q3), (1.75, 2.5, 3.25));
    assert_eq!(median(&[7.0]), 7.0);
}

#[test]
fn empty_samples_summarize_to_zero() {
    assert_eq!(Spread::of(&[]), Spread { n: 0, q1: 0.0, median: 0.0, q3: 0.0 });
}

fn span(name: &'static str, start: f64, end: f64, parent: Option<usize>) -> Span {
    Span { name, start, end, parent }
}

#[test]
fn self_time_subtracts_direct_children_only() {
    // pass [0, 10] ⊃ measure [1, 7] ⊃ compile [2, 3]; close [8, 9].
    let spans = vec![
        span("bench.pass", 0.0, 10.0, None),
        span("experiments.measure", 1.0, 7.0, Some(0)),
        span("poly.compile", 2.0, 3.0, Some(1)),
        span("obs.close", 8.0, 9.0, Some(0)),
    ];
    assert_eq!(self_time(&spans, 0), 3.0, "10 - 6 - 1: the grandchild is not subtracted twice");
    assert_eq!(self_time(&spans, 1), 5.0);
    assert_eq!(self_time(&spans, 2), 1.0);
    assert_eq!(self_time_under(&spans, &[0], "experiments.measure"), 5.0);
    assert_eq!(self_time_under(&spans, &[0], "poly.compile"), 1.0);
}

#[test]
fn self_time_under_ignores_spans_outside_the_roots() {
    let spans = vec![
        span("bench.setup", 0.0, 1.0, None),
        span("analysis.witness", 0.2, 0.5, Some(0)),
        span("bench.pass", 2.0, 4.0, None),
        span("analysis.witness", 2.5, 3.0, Some(2)),
    ];
    assert_eq!(self_time_under(&spans, &[2], "analysis.witness"), 0.5);
    assert_eq!(self_time_under(&spans, &[0, 2], "analysis.witness"), 0.8);
    let none = self_time_under(&spans, &[2], "markov.lu");
    assert!(none == 0.0 && none.is_sign_positive(), "an idle layer reads +0, not -0");
}

#[test]
fn tracer_nests_spans_and_a_disabled_tracer_records_nothing() {
    let t = Tracer::enabled();
    let (v, root) = t.span_indexed("bench.pass", || t.span("markov.build", || 41) + 1);
    assert_eq!(v, 42);
    let spans = t.spans();
    assert_eq!(root, Some(0));
    assert_eq!(spans[1].parent, Some(0));
    assert!(spans[0].start <= spans[1].start && spans[1].end <= spans[0].end);

    let off = Tracer::disabled();
    assert_eq!(off.span_indexed("bench.pass", || 7), (7, None));
    assert!(off.spans().is_empty());
}
