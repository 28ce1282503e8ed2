//! The result line: metric catalogue, JSON writer and a small JSON reader.
//!
//! The last line a run prints is one JSON object with exactly the keys
//! `correct`, `attempted`, `failed` and `metrics`; `metrics` maps each
//! metric name to `{"value": <number>, "unit": <string>}`.

use aru_metrics::json::{JsonObj, Raw};

/// One measured metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub value: f64,
}

/// One run's outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

/// Is `name` a legal metric name: 1 to 64 of `[A-Za-z0-9_.-]`, starting
/// with a letter or digit.
#[must_use]
pub fn valid_name(name: &str) -> bool {
    let b = name.as_bytes();
    !b.is_empty()
        && b.len() <= 64
        && b[0].is_ascii_alphanumeric()
        && b.iter()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, b'_' | b'.' | b'-'))
}

impl BenchResult {
    /// Render as one line of JSON. Values keep every digit Rust's
    /// shortest round-trip formatting gives them.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut metrics = JsonObj::new();
        for m in &self.metrics {
            metrics = metrics.field(
                &m.name,
                JsonObj::new()
                    .field("value", m.value)
                    .field("unit", m.unit.as_str())
                    .raw(),
            );
        }
        JsonObj::new()
            .field("correct", self.correct)
            .field("attempted", self.attempted)
            .field("failed", self.failed)
            .field("metrics", Raw(metrics.finish()))
            .finish()
    }

    /// Parse a line written by [`BenchResult::to_json`].
    pub fn from_json(text: &str) -> Result<BenchResult, String> {
        let v = parse(text)?;
        let count = |key: &str| {
            v.get(key)
                .and_then(Value::as_f64)
                .filter(|x| *x >= 0.0 && x.fract() == 0.0)
                .map(|x| x as u64)
                .ok_or(format!("missing or bad `{key}`"))
        };
        let correct = match v.get("correct") {
            Some(Value::Bool(b)) => *b,
            _ => return Err("missing `correct`".into()),
        };
        let Some(Value::Obj(fields)) = v.get("metrics") else {
            return Err("missing `metrics`".into());
        };
        let mut metrics = Vec::new();
        for (name, m) in fields {
            let value = m.get("value").and_then(Value::as_f64);
            let unit = m.get("unit").and_then(Value::as_str);
            match (value, unit) {
                (Some(value), Some(unit)) => metrics.push(Metric {
                    name: name.clone(),
                    unit: unit.to_string(),
                    value,
                }),
                _ => return Err(format!("metric `{name}` lacks value or unit")),
            }
        }
        Ok(BenchResult {
            correct,
            attempted: count("attempted")?,
            failed: count("failed")?,
            metrics,
        })
    }
}

/// A parsed JSON value (objects keep their key order).
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Value>),
    Obj(Vec<(String, Value)>),
}

impl Value {
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(f) => f.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(x) => Some(*x),
            _ => None,
        }
    }

    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// Parse one JSON document.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser {
        s: text.as_bytes(),
        i: 0,
    };
    let v = p.value()?;
    p.ws();
    if p.i != p.s.len() {
        return Err(format!("trailing input at byte {}", p.i));
    }
    Ok(v)
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) -> Result<(), String> {
        self.ws();
        if self.s.get(self.i) == Some(&c) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", c as char, self.i))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        self.ws();
        match self.s.get(self.i) {
            Some(b'{') => {
                self.i += 1;
                let mut fields = Vec::new();
                self.ws();
                if self.s.get(self.i) == Some(&b'}') {
                    self.i += 1;
                    return Ok(Value::Obj(fields));
                }
                loop {
                    self.ws();
                    let k = self.string()?;
                    self.eat(b':')?;
                    fields.push((k, self.value()?));
                    self.ws();
                    match self.s.get(self.i) {
                        Some(b',') => self.i += 1,
                        Some(b'}') => {
                            self.i += 1;
                            return Ok(Value::Obj(fields));
                        }
                        _ => return Err(format!("bad object at byte {}", self.i)),
                    }
                }
            }
            Some(b'[') => {
                self.i += 1;
                let mut items = Vec::new();
                self.ws();
                if self.s.get(self.i) == Some(&b']') {
                    self.i += 1;
                    return Ok(Value::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    self.ws();
                    match self.s.get(self.i) {
                        Some(b',') => self.i += 1,
                        Some(b']') => {
                            self.i += 1;
                            return Ok(Value::Arr(items));
                        }
                        _ => return Err(format!("bad array at byte {}", self.i)),
                    }
                }
            }
            Some(b'"') => self.string().map(Value::Str),
            Some(_) => {
                for (word, v) in [
                    ("true", Value::Bool(true)),
                    ("false", Value::Bool(false)),
                    ("null", Value::Null),
                ] {
                    if self.s[self.i..].starts_with(word.as_bytes()) {
                        self.i += word.len();
                        return Ok(v);
                    }
                }
                let start = self.i;
                while self.i < self.s.len()
                    && matches!(
                        self.s[self.i],
                        b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'
                    )
                {
                    self.i += 1;
                }
                std::str::from_utf8(&self.s[start..self.i])
                    .ok()
                    .and_then(|t| t.parse::<f64>().ok())
                    .map(Value::Num)
                    .ok_or(format!("bad number at byte {start}"))
            }
            None => Err("unexpected end of input".into()),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.i;
            while self.i < self.s.len() && !matches!(self.s[self.i], b'"' | b'\\') {
                self.i += 1;
            }
            out.push_str(std::str::from_utf8(&self.s[start..self.i]).map_err(|e| e.to_string())?);
            match self.s.get(self.i) {
                Some(b'"') => {
                    self.i += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    let esc = *self.s.get(self.i + 1).ok_or("unterminated escape")?;
                    self.i += 2;
                    match esc {
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self.s.get(self.i..self.i + 4).ok_or("short \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                                16,
                            )
                            .map_err(|e| e.to_string())?;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.i += 4;
                        }
                        c => out.push(c as char),
                    }
                }
                _ => return Err("unterminated string".into()),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalogue::{END_TO_END, PER_LAYER};

    #[test]
    fn result_json_round_trips() {
        let r = BenchResult {
            correct: true,
            attempted: 1234,
            failed: 0,
            metrics: vec![
                Metric {
                    name: "latency_p50_ms".into(),
                    unit: "ms".into(),
                    value: 1.203_456_789_012_345,
                },
                Metric {
                    name: "outputs_per_s".into(),
                    unit: "1/s".into(),
                    value: 12_345.678_9,
                },
                Metric {
                    name: "tiny".into(),
                    unit: "s".into(),
                    value: 3.5e-7,
                },
            ],
        };
        let line = r.to_json();
        assert!(!line.contains('\n'));
        assert_eq!(BenchResult::from_json(&line).unwrap(), r);
        let keys: Vec<String> = match parse(&line).unwrap() {
            Value::Obj(f) => f.into_iter().map(|(k, _)| k).collect(),
            _ => unreachable!(),
        };
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    }

    #[test]
    fn metric_names_are_legal_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(name), "bad metric name {name}");
            assert!(seen.insert(*name), "duplicate metric name {name}");
            assert!(
                !unit.is_empty()
                    && unit.len() <= 16
                    && unit
                        .bytes()
                        .all(|c| c.is_ascii_alphanumeric() || b"_/%.-".contains(&c)),
                "bad unit {unit}"
            );
        }
        assert!(!valid_name(""));
        assert!(!valid_name("_lead"));
        assert!(!valid_name("has space"));
        assert!(!valid_name(&"x".repeat(65)));
        assert!(valid_name("stampede.target-det-1.busy_share"));
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json beside the benchmark directory");
        let doc = parse(&text).unwrap();
        for (key, cat) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let Some(Value::Arr(items)) = doc.get(key) else {
                panic!("BENCHMARK.json lacks {key}");
            };
            let listed: Vec<(&str, &str)> = items
                .iter()
                .map(|m| {
                    (
                        m.get("name").and_then(Value::as_str).unwrap(),
                        m.get("unit").and_then(Value::as_str).unwrap(),
                    )
                })
                .collect();
            assert_eq!(listed, cat, "{key} differs from the catalogue");
        }
    }
}
