//! `BENCHMARK.json` at the repository root must describe exactly what
//! the benchmark prints.

use perfbench::catalog::{END_TO_END, PER_LAYER};
use perfbench::GATED;
use turnroute_experiment::json::{self, Value};

fn benchmark() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    json::parse(&std::fs::read_to_string(path).unwrap()).unwrap()
}

fn rows<'a>(v: &'a Value, key: &str) -> &'a [Value] {
    v.get(key).and_then(Value::as_arr).unwrap()
}

fn field<'a>(v: &'a Value, key: &str) -> &'a str {
    v.get(key).and_then(Value::as_str).unwrap()
}

#[test]
fn workloads_and_metrics_match_the_catalog() {
    let b = benchmark();
    let names: Vec<&str> = rows(&b, "workloads")
        .iter()
        .map(|w| field(w, "name"))
        .collect();
    assert_eq!(names, GATED);

    let e2e = rows(&b, "end_to_end");
    assert_eq!(e2e.len(), END_TO_END.len());
    for (row, m) in e2e.iter().zip(END_TO_END) {
        assert_eq!(field(row, "name"), m.name);
        assert_eq!(field(row, "unit"), m.unit);
        let better = if m.lower_is_better { "lower" } else { "higher" };
        assert_eq!(field(row, "better"), better, "{}", m.name);
        let bound = row.get("bound").and_then(Value::as_f64).unwrap();
        assert!(bound > 0.0 && bound <= 0.25, "{}", m.name);
    }
    let setup_bound = e2e[0].get("bound").and_then(Value::as_f64).unwrap();
    assert_eq!(field(&e2e[0], "name"), "setup_s");
    assert!(e2e
        .iter()
        .all(|r| r.get("bound").and_then(Value::as_f64).unwrap() <= setup_bound));

    let layers = rows(&b, "per_layer");
    assert_eq!(layers.len(), PER_LAYER.len());
    for (row, m) in layers.iter().zip(PER_LAYER) {
        assert_eq!(field(row, "name"), m.name);
        assert_eq!(field(row, "unit"), m.unit);
        let better = if m.lower_is_better { "lower" } else { "higher" };
        assert_eq!(field(row, "better"), better, "{}", m.name);
    }
}
