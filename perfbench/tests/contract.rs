//! The benchmark's own checks: `BENCHMARK.json` and the code agree on
//! names and units, the known-answer table covers every cell, and a
//! minimal pass of every workload finishes correct in both modes with
//! exactly the declared metrics.
//!
//! The workload passes run real queries (about two minutes in total);
//! run them optimized: `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::collections::BTreeMap;

use perfbench::layers::PER_LAYER;
use perfbench::measure::Ledger;
use perfbench::workload::{expected_secure, Workload, KNOWN_ANSWERS};
use perfbench::{run, Args, END_TO_END};

/// A JSON value: just enough of the grammar for `BENCHMARK.json`.
#[derive(Debug)]
enum Value {
    Num(f64),
    Str(String),
    Arr(Vec<Value>),
    Obj(BTreeMap<String, Value>),
}

impl Value {
    fn get(&self, key: &str) -> &Value {
        match self {
            Value::Obj(m) => m.get(key).unwrap_or_else(|| panic!("missing key {key}")),
            _ => panic!("not an object"),
        }
    }

    fn keys(&self) -> Vec<&str> {
        match self {
            Value::Obj(m) => m.keys().map(String::as_str).collect(),
            _ => panic!("not an object"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Value::Str(s) => s,
            _ => panic!("not a string: {self:?}"),
        }
    }

    fn num(&self) -> f64 {
        match self {
            Value::Num(n) => *n,
            _ => panic!("not a number: {self:?}"),
        }
    }

    fn arr(&self) -> &[Value] {
        match self {
            Value::Arr(a) => a,
            _ => panic!("not an array: {self:?}"),
        }
    }
}

fn parse(text: &str) -> Value {
    fn skip(b: &[u8], i: &mut usize) {
        while b[*i].is_ascii_whitespace() {
            *i += 1;
        }
    }
    fn value(b: &[u8], i: &mut usize) -> Value {
        skip(b, i);
        match b[*i] {
            b'{' => {
                *i += 1;
                let mut m = BTreeMap::new();
                loop {
                    skip(b, i);
                    if b[*i] == b'}' {
                        *i += 1;
                        return Value::Obj(m);
                    }
                    let Value::Str(k) = value(b, i) else {
                        panic!("object key must be a string")
                    };
                    skip(b, i);
                    assert_eq!(b[*i], b':');
                    *i += 1;
                    assert!(m.insert(k, value(b, i)).is_none(), "duplicate key");
                    skip(b, i);
                    if b[*i] == b',' {
                        *i += 1;
                    }
                }
            }
            b'[' => {
                *i += 1;
                let mut a = Vec::new();
                loop {
                    skip(b, i);
                    if b[*i] == b']' {
                        *i += 1;
                        return Value::Arr(a);
                    }
                    a.push(value(b, i));
                    skip(b, i);
                    if b[*i] == b',' {
                        *i += 1;
                    }
                }
            }
            b'"' => {
                let start = *i + 1;
                *i = start;
                while b[*i] != b'"' {
                    assert_ne!(b[*i], b'\\', "escapes are not used in BENCHMARK.json");
                    *i += 1;
                }
                *i += 1;
                Value::Str(String::from_utf8(b[start..*i - 1].to_vec()).expect("utf-8"))
            }
            _ => {
                let start = *i;
                while matches!(b[*i], b'0'..=b'9' | b'.' | b'-' | b'e' | b'E' | b'+') {
                    *i += 1;
                }
                Value::Num(
                    std::str::from_utf8(&b[start..*i])
                        .expect("ascii")
                        .parse()
                        .expect("number"),
                )
            }
        }
    }
    let mut i = 0;
    value(text.as_bytes(), &mut i)
}

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"))
}

fn is_name(s: &str) -> bool {
    s.len() <= 64
        && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn is_unit(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 16
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

fn declared(spec: &Value, key: &str) -> Vec<(String, String)> {
    spec.get(key)
        .arr()
        .iter()
        .map(|m| {
            (
                m.get("name").str().to_string(),
                m.get("unit").str().to_string(),
            )
        })
        .collect()
}

fn owned(metrics: &[(&str, &str)]) -> Vec<(String, String)> {
    metrics
        .iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

#[test]
fn benchmark_json_matches_the_code() {
    let spec = benchmark_json();
    assert_eq!(
        spec.keys(),
        [
            "command",
            "end_to_end",
            "paths",
            "per_layer",
            "run_seconds",
            "workloads"
        ]
    );
    let workloads: Vec<&str> = spec
        .get("workloads")
        .arr()
        .iter()
        .map(|w| {
            assert_eq!(w.keys(), ["name", "why"]);
            let why = w.get("why").str();
            assert!(!why.is_empty() && why.len() <= 200 && !why.contains('\n'));
            w.get("name").str()
        })
        .collect();
    let ours: Vec<&str> = Workload::DECLARED.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, ours);

    assert_eq!(declared(&spec, "end_to_end"), owned(END_TO_END));
    assert_eq!(declared(&spec, "per_layer"), owned(PER_LAYER));

    let mut names: Vec<&str> = workloads.clone();
    let mut max_bound: f64 = 0.0;
    for m in spec.get("end_to_end").arr() {
        assert_eq!(m.keys(), ["better", "bound", "name", "unit"]);
        let bound = m.get("bound").num();
        assert!(bound > 0.0 && bound <= 0.25);
        max_bound = max_bound.max(bound);
        names.push(m.get("name").str());
    }
    let setup = spec
        .get("end_to_end")
        .arr()
        .iter()
        .find(|m| m.get("name").str() == "setup_s")
        .expect("setup_s is declared");
    assert_eq!(setup.get("unit").str(), "s");
    assert_eq!(setup.get("better").str(), "lower");
    assert_eq!(
        setup.get("bound").num(),
        max_bound,
        "setup_s has the largest bound"
    );
    for m in spec.get("per_layer").arr() {
        assert_eq!(m.keys(), ["better", "name", "unit"]);
        names.push(m.get("name").str());
    }
    for m in spec
        .get("end_to_end")
        .arr()
        .iter()
        .chain(spec.get("per_layer").arr())
    {
        assert!(is_unit(m.get("unit").str()), "bad unit {m:?}");
        assert!(matches!(m.get("better").str(), "lower" | "higher"));
    }
    for name in &names {
        assert!(is_name(name), "bad name {name}");
    }
    let mut unique = names.clone();
    unique.sort_unstable();
    unique.dedup();
    assert_eq!(unique.len(), names.len(), "names are used once");

    for arg in spec.get("command").arr() {
        let arg = arg.str();
        assert!(arg.len() <= 200 && !arg.starts_with('/') && !arg.contains(".."));
    }
    for path in spec.get("paths").arr() {
        assert_eq!(path.str(), "perfbench");
    }
    let seconds = spec.get("run_seconds").num();
    assert!(seconds.fract() == 0.0 && (1.0..=60.0).contains(&seconds));
}

#[test]
fn known_answers_cover_every_cell() {
    for (name, _) in KNOWN_ANSWERS {
        assert!(
            contract_shadow_logic::core::DesignKind::from_name(name).is_some(),
            "{name} names no design"
        );
    }
    for w in Workload::ALL {
        for cell in w.cells() {
            // Panics on a design the table does not cover.
            expected_secure(cell.design);
        }
    }
    // Each formal workload is one-sided: attacks on insecure cores,
    // proofs on secure ones.
    assert!(Workload::Attack
        .cells()
        .iter()
        .all(|c| !expected_secure(c.design)));
    for w in [Workload::Proof, Workload::HardProof] {
        assert!(w.cells().iter().all(|c| expected_secure(c.design)));
    }
}

fn metric_names(metrics: &[(&str, f64, &str)]) -> Vec<(String, String)> {
    metrics
        .iter()
        .map(|(n, _, u)| (n.to_string(), u.to_string()))
        .collect()
}

/// The share the seed commit decides on each workload.
fn decided_share(w: Workload) -> f64 {
    match w {
        Workload::Attack => 1.0,
        Workload::Proof | Workload::Fuzz => 0.75,
        Workload::HardProof => 0.0,
    }
}

fn minimal_pass(w: Workload) {
    let mut ledger = Ledger::open(None);
    for trace in [false, true] {
        let args = Args {
            workload: w,
            seed: 7,
            seconds: 0,
            trace,
        };
        let result = run(&args, &mut ledger);
        assert!(
            result.failures.is_empty(),
            "{} trace={trace}: {:?}",
            w.name(),
            result.failures
        );
        assert!(result.attempted >= w.cells().len());
        let line = result.json_line();
        assert!(line.starts_with("{\"correct\": true, "), "{line}");
        let expected = if trace {
            owned(PER_LAYER)
        } else {
            owned(END_TO_END)
        };
        assert_eq!(metric_names(&result.metrics), expected);
        if trace {
            let share = result
                .metrics
                .iter()
                .find(|m| m.0 == "verdict.decided_share")
                .expect("declared")
                .1;
            assert_eq!(share, decided_share(w), "{}", w.name());
        } else {
            for (name, value, _) in &result.metrics {
                assert!(*value > 0.0, "{} {name} reads {value}", w.name());
            }
            let share = format!("metric decided_share = {} share", decided_share(w));
            assert!(
                result.lines.contains(&share),
                "{}: {:?}",
                w.name(),
                result.lines
            );
        }
    }
    assert!(ledger.mismatches().is_empty());
}

#[test]
fn attack_minimal_pass() {
    minimal_pass(Workload::Attack);
}

#[test]
fn proof_minimal_pass() {
    minimal_pass(Workload::Proof);
}

#[test]
fn hard_proof_minimal_pass() {
    minimal_pass(Workload::HardProof);
}

#[test]
fn fuzz_minimal_pass() {
    minimal_pass(Workload::Fuzz);
}

#[test]
fn arguments_are_checked() {
    let parse = |s: &str| Args::parse(s.split_whitespace().map(String::from));
    assert_eq!(
        parse("--workload fuzz --seed 3 --seconds 5 --trace 1"),
        Ok(Args {
            workload: Workload::Fuzz,
            seed: 3,
            seconds: 5,
            trace: true
        })
    );
    assert!(parse("--seed 3").is_err());
    assert!(parse("--workload nope").is_err());
    assert!(parse("--workload fuzz --trace 2").is_err());
    assert!(parse("--workload fuzz --seconds").is_err());
}
