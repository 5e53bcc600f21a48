//! `BENCHMARK.json` declares exactly what each workload emits. The dry
//! listing evaluates the same metric functions a run uses, on empty
//! measurements, so nothing is timed here.

use std::collections::BTreeSet;

use bitdissem_benchsuite::metrics::listing;
use bitdissem_benchsuite::workload::Workload;
use bitdissem_obs::json::{self, Value};

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    json::parse(&text).expect("BENCHMARK.json parses")
}

fn declared(doc: &Value, key: &str) -> BTreeSet<(String, String)> {
    let Some(Value::Arr(items)) = doc.get(key) else { panic!("{key} is an array") };
    items
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(Value::as_str).expect("name");
            let unit = m.get("unit").and_then(Value::as_str).expect("unit");
            (name.to_string(), unit.to_string())
        })
        .collect()
}

fn emitted(w: Workload, traced: bool) -> BTreeSet<(String, String)> {
    let list = listing(w, traced);
    let set: BTreeSet<_> = list.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect();
    assert_eq!(set.len(), list.len(), "{} emits a metric name twice", w.name());
    set
}

#[test]
fn declared_workloads_are_the_benchmark_workloads() {
    let doc = benchmark_json();
    let Some(Value::Arr(items)) = doc.get("workloads") else { panic!("workloads is an array") };
    let names: Vec<&str> =
        items.iter().map(|w| w.get("name").and_then(Value::as_str).expect("name")).collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(names, ours);
}

#[test]
fn every_workload_emits_every_declared_metric() {
    let doc = benchmark_json();
    let e2e = declared(&doc, "end_to_end");
    let layers = declared(&doc, "per_layer");
    for w in Workload::ALL {
        assert_eq!(emitted(w, false), e2e, "{} untraced", w.name());
        assert_eq!(emitted(w, true), layers, "{} traced", w.name());
    }
}
