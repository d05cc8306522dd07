//! The benchmark's own checks: printed names match `BENCHMARK.json`,
//! the output line is the agreed JSON shape, a held-out seed runs
//! clean, and one seed reproduces every model number exactly. Under
//! `cfg(test)` the horizons are a tenth of the real ones.

use super::*;

/// A seed no tuning run used.
const HELD_OUT: u64 = 0x5EED_0FF5;

/// Minimal JSON value, enough to read `BENCHMARK.json` and the result
/// line back (both ASCII).
#[derive(Debug, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(kv) => kv
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .unwrap_or(&Json::Null),
            _ => &Json::Null,
        }
    }

    fn keys(&self) -> Vec<&str> {
        match self {
            Json::Obj(kv) => kv.iter().map(|(k, _)| k.as_str()).collect(),
            _ => Vec::new(),
        }
    }

    fn names(&self) -> Vec<&str> {
        match self {
            Json::Arr(items) => items
                .iter()
                .map(|i| match i.get("name") {
                    Json::Str(s) => s.as_str(),
                    other => panic!("name is not a string: {other:?}"),
                })
                .collect(),
            other => panic!("not an array: {other:?}"),
        }
    }
}

fn parse(text: &str) -> Json {
    let mut p = Parser {
        s: text.as_bytes(),
        i: 0,
    };
    let v = p.value();
    p.ws();
    assert_eq!(p.i, p.s.len(), "trailing bytes after JSON value");
    v
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.s.get(self.i).is_some_and(u8::is_ascii_whitespace) {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) {
        self.ws();
        assert_eq!(
            self.s.get(self.i),
            Some(&c),
            "expected {:?} at {}",
            c as char,
            self.i
        );
        self.i += 1;
    }

    fn value(&mut self) -> Json {
        self.ws();
        match self.s[self.i] {
            b'{' => {
                self.i += 1;
                let mut kv = Vec::new();
                self.ws();
                if self.s[self.i] == b'}' {
                    self.i += 1;
                    return Json::Obj(kv);
                }
                loop {
                    self.ws();
                    let Json::Str(k) = self.value() else {
                        panic!("object key is not a string at {}", self.i)
                    };
                    self.eat(b':');
                    kv.push((k, self.value()));
                    self.ws();
                    self.i += 1;
                    match self.s[self.i - 1] {
                        b',' => continue,
                        b'}' => return Json::Obj(kv),
                        c => panic!("unexpected {:?} in object", c as char),
                    }
                }
            }
            b'[' => {
                self.i += 1;
                let mut items = Vec::new();
                self.ws();
                if self.s[self.i] == b']' {
                    self.i += 1;
                    return Json::Arr(items);
                }
                loop {
                    items.push(self.value());
                    self.ws();
                    self.i += 1;
                    match self.s[self.i - 1] {
                        b',' => continue,
                        b']' => return Json::Arr(items),
                        c => panic!("unexpected {:?} in array", c as char),
                    }
                }
            }
            b'"' => {
                self.i += 1;
                let mut out = String::new();
                loop {
                    let c = self.s[self.i];
                    self.i += 1;
                    match c {
                        b'"' => return Json::Str(out),
                        b'\\' => {
                            let e = self.s[self.i];
                            self.i += 1;
                            out.push(match e {
                                b'n' => '\n',
                                b't' => '\t',
                                b'"' | b'\\' | b'/' => e as char,
                                _ => panic!("unsupported escape \\{}", e as char),
                            });
                        }
                        _ => {
                            assert!(c.is_ascii(), "non-ASCII byte at {}", self.i - 1);
                            out.push(c as char);
                        }
                    }
                }
            }
            b't' | b'f' | b'n' => {
                for (word, v) in [
                    ("true", Json::Bool(true)),
                    ("false", Json::Bool(false)),
                    ("null", Json::Null),
                ] {
                    if self.s[self.i..].starts_with(word.as_bytes()) {
                        self.i += word.len();
                        return v;
                    }
                }
                panic!("bad literal at {}", self.i)
            }
            _ => {
                let start = self.i;
                while self
                    .s
                    .get(self.i)
                    .is_some_and(|c| c.is_ascii_digit() || b"+-.eE".contains(c))
                {
                    self.i += 1;
                }
                let text = std::str::from_utf8(&self.s[start..self.i]).expect("ascii");
                Json::Num(
                    text.parse()
                        .unwrap_or_else(|_| panic!("bad number {text:?}")),
                )
            }
        }
    }
}

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    parse(&std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/"))
}

/// Parses a printed result line and returns its metric names, checking
/// the shape the benchmark contract fixes.
fn printed_names(out: &Outcome) -> Vec<String> {
    let line = parse(&out.json());
    assert_eq!(line.keys(), ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(line.get("correct"), &Json::Bool(out.correct));
    let Json::Num(attempted) = line.get("attempted") else {
        panic!("attempted is not a number")
    };
    assert!(*attempted >= 1.0);
    let metrics = line.get("metrics");
    for name in metrics.keys() {
        let m = metrics.get(name);
        assert_eq!(m.keys(), ["value", "unit"], "{name}");
        assert!(
            matches!(m.get("value"), Json::Num(v) if v.is_finite()),
            "{name}"
        );
    }
    metrics.keys().into_iter().map(String::from).collect()
}

#[test]
fn workloads_match_benchmark_json() {
    let spec = benchmark_json();
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(spec.get("workloads").names(), names);
}

#[test]
fn held_out_seed_prints_every_declared_metric() {
    let spec = benchmark_json();
    let end_to_end = spec.get("end_to_end").names();
    let per_layer = spec.get("per_layer").names();
    let cpus = cpu::Affinity::save().cpus().to_vec();
    let nproc = Workload::Fabric8.threads();
    for w in Workload::ALL {
        let out = untraced(w, HELD_OUT, 1e-3);
        assert!(out.correct && out.failed == 0, "{} untraced", w.name());
        assert_eq!(printed_names(&out), end_to_end, "{} --trace 0", w.name());
        let out = traced(w, HELD_OUT, 1e-3);
        assert!(out.correct && out.failed == 0, "{} traced", w.name());
        assert_eq!(printed_names(&out), per_layer, "{} --trace 1", w.name());
        // A run gives its thread back its CPUs, so the fabric, run after
        // pinned workloads, still steps at `nproc` threads beside the
        // 1-thread repetition.
        assert_eq!(cpu::Affinity::save().cpus(), cpus, "{} affinity", w.name());
        if w == Workload::Fabric8 && nproc > 1 {
            let speedup = out
                .metrics
                .iter()
                .find(|(name, _, _)| name == "fabric.thread_speedup");
            assert!(speedup.is_some_and(|m| m.2 > 0.0), "{speedup:?}");
        }
    }
}

#[test]
fn one_seed_reproduces_every_model_metric() {
    for w in Workload::ALL {
        let inputs = Inputs::new(w, 7);
        let a = run_rep(w, &inputs, w.threads(), None);
        let b = run_rep(w, &Inputs::new(w, 7), w.threads(), None);
        assert_eq!(a.failed, 0, "{}", w.name());
        assert_eq!(a.fingerprint, b.fingerprint, "{}", w.name());
        assert_eq!(a.model, b.model, "{}", w.name());
        assert_eq!(
            (a.ops, a.epochs, a.msgs, a.delivered),
            (b.ops, b.epochs, b.msgs, b.delivered)
        );
    }
}
