//! Repeatability check for the benchmark's result files.
//!
//! ```text
//! compare [--benchmark BENCHMARK.json] <dir-a> [<dir-b>]
//! ```
//!
//! Each directory holds result files named `<workload>-<anything>.json`
//! whose last line is the benchmark's result object. For every workload
//! and metric, prints the median and quartiles of each set (quartiles as
//! Python's `statistics.quantiles(values, n=4)` computes them), the
//! spread `(q3 - q1) / median`, and, for metrics with a bound in
//! BENCHMARK.json, the spread against that bound. With two sets it also
//! prints how far set B's median moved from set A's in the metric's
//! worse direction, and flags a move past the bound. Exits non-zero
//! when any bounded metric's spread or move exceeds its bound.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;

/// A parsed JSON value (enough of JSON for result and benchmark files).
#[derive(Debug, Clone)]
enum Json {
    /// `true`, `false` or `null`.
    Lit,
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    fn str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn parse(text: &str) -> Result<Json, String> {
        let mut parser = Parser {
            bytes: text.as_bytes(),
            at: 0,
        };
        let value = parser.value()?;
        parser.skip_ws();
        if parser.at != parser.bytes.len() {
            return Err(format!("trailing text at byte {}", parser.at));
        }
        Ok(value)
    }

    fn skip_ws(&mut self) {
        while self.bytes.get(self.at).is_some_and(u8::is_ascii_whitespace) {
            self.at += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        self.skip_ws();
        if self.bytes.get(self.at) == Some(&byte) {
            self.at += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", byte as char, self.at))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.bytes.get(self.at) {
            Some(b'{') => {
                self.at += 1;
                let mut fields = Vec::new();
                self.skip_ws();
                if self.bytes.get(self.at) == Some(&b'}') {
                    self.at += 1;
                    return Ok(Json::Obj(fields));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.expect(b':')?;
                    fields.push((key, self.value()?));
                    self.skip_ws();
                    match self.bytes.get(self.at) {
                        Some(b',') => self.at += 1,
                        Some(b'}') => {
                            self.at += 1;
                            return Ok(Json::Obj(fields));
                        }
                        _ => return Err(format!("bad object at byte {}", self.at)),
                    }
                }
            }
            Some(b'[') => {
                self.at += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.bytes.get(self.at) == Some(&b']') {
                    self.at += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    self.skip_ws();
                    match self.bytes.get(self.at) {
                        Some(b',') => self.at += 1,
                        Some(b']') => {
                            self.at += 1;
                            return Ok(Json::Arr(items));
                        }
                        _ => return Err(format!("bad array at byte {}", self.at)),
                    }
                }
            }
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.word("true"),
            Some(b'f') => self.word("false"),
            Some(b'n') => self.word("null"),
            _ => {
                let start = self.at;
                while self
                    .bytes
                    .get(self.at)
                    .is_some_and(|b| b.is_ascii_digit() || b"+-.eE".contains(b))
                {
                    self.at += 1;
                }
                std::str::from_utf8(&self.bytes[start..self.at])
                    .ok()
                    .and_then(|s| s.parse().ok())
                    .map(Json::Num)
                    .ok_or_else(|| format!("bad value at byte {start}"))
            }
        }
    }

    fn word(&mut self, word: &str) -> Result<Json, String> {
        if self.bytes[self.at..].starts_with(word.as_bytes()) {
            self.at += word.len();
            Ok(Json::Lit)
        } else {
            Err(format!("bad literal at byte {}", self.at))
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        let mut chars = std::str::from_utf8(&self.bytes[self.at..])
            .map_err(|e| e.to_string())?
            .char_indices();
        while let Some((i, c)) = chars.next() {
            match c {
                '"' => {
                    self.at += i + 1;
                    return Ok(out);
                }
                '\\' => match chars.next() {
                    Some((_, 'n')) => out.push('\n'),
                    Some((_, 't')) => out.push('\t'),
                    Some((_, other)) => out.push(other),
                    None => break,
                },
                c => out.push(c),
            }
        }
        Err("unterminated string".to_string())
    }
}

/// The quartiles of `values` as Python's `statistics.quantiles(values,
/// n=4)` (the default, exclusive method) computes them.
fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let ld = data.len();
    if ld < 2 {
        let only = data.first().copied().unwrap_or(0.0);
        return [only; 3];
    }
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (i, slot) in (1..4).zip(out.iter_mut()) {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    out
}

/// `workload → metric → values`, from one directory of result files.
type Runs = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

fn load_runs(dir: &Path) -> Result<Runs, String> {
    let mut runs = Runs::new();
    let mut entries: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    entries.sort();
    for path in entries {
        let name = path
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or_default();
        let workload = name.split('-').next().unwrap_or(name).to_string();
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let last = text
            .lines()
            .rev()
            .find(|l| !l.trim().is_empty())
            .unwrap_or("");
        let result = Parser::parse(last).map_err(|e| format!("{}: {e}", path.display()))?;
        let Some(Json::Obj(metrics)) = result.get("metrics") else {
            return Err(format!("{}: no metrics object", path.display()));
        };
        for (metric, value) in metrics {
            if let Some(v) = value.get("value").and_then(Json::num) {
                runs.entry(workload.clone())
                    .or_default()
                    .entry(metric.clone())
                    .or_default()
                    .push(v);
            }
        }
    }
    Ok(runs)
}

/// `metric → (bound, lower is better)` for the bounded metrics.
fn load_bounds(path: &Path) -> Result<BTreeMap<String, (f64, bool)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let spec = Parser::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut bounds = BTreeMap::new();
    if let Some(Json::Arr(metrics)) = spec.get("end_to_end") {
        for metric in metrics {
            let name = metric.get("name").and_then(Json::str).unwrap_or_default();
            let bound = metric.get("bound").and_then(Json::num).unwrap_or(0.0);
            let lower = metric.get("better").and_then(Json::str) == Some("lower");
            bounds.insert(name.to_string(), (bound, lower));
        }
    }
    Ok(bounds)
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let mut spec = "BENCHMARK.json".to_string();
    if let Some(at) = args.iter().position(|a| a == "--benchmark") {
        if at + 1 < args.len() {
            spec = args.remove(at + 1);
        }
        args.remove(at);
    }
    if args.is_empty() || args.len() > 2 {
        eprintln!("usage: compare [--benchmark BENCHMARK.json] <dir-a> [<dir-b>]");
        return ExitCode::from(2);
    }
    let loaded = load_bounds(Path::new(&spec)).and_then(|bounds| {
        let sets = args
            .iter()
            .map(|dir| load_runs(Path::new(dir)))
            .collect::<Result<Vec<_>, _>>()?;
        Ok((bounds, sets))
    });
    let (bounds, sets) = match loaded {
        Ok(loaded) => loaded,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for (workload, metrics) in &sets[0] {
        println!("{workload}");
        println!(
            "  {:<34} {:>3} {:>12} {:>12} {:>12} {:>7} {:>6}  verdict",
            "metric", "n", "median", "q1", "q3", "spread", "bound"
        );
        for (metric, a) in metrics {
            let bound = bounds.get(metric);
            let mut row = |label: &str, values: &[f64]| {
                let [q1, q2, q3] = quartiles(values);
                let spread = if q2 == 0.0 { 0.0 } else { (q3 - q1) / q2.abs() };
                let (bound_text, verdict) = match bound {
                    // setup_s is gated on its median only.
                    Some(_) if metric == "setup_s" => ("-".to_string(), String::new()),
                    Some(&(b, _)) if spread > b => {
                        ok = false;
                        (format!("{b}"), "TOO NOISY".to_string())
                    }
                    Some(&(b, _)) if spread > b / 3.0 => {
                        (format!("{b}"), "within bound".to_string())
                    }
                    Some(&(b, _)) => (format!("{b}"), "steady".to_string()),
                    None => ("-".to_string(), String::new()),
                };
                println!(
                    "  {:<34} {:>3} {:>12.4} {:>12.4} {:>12.4} {:>7.4} {:>6}  {}",
                    format!("{metric}{label}"),
                    values.len(),
                    q2,
                    q1,
                    q3,
                    spread,
                    bound_text,
                    verdict
                );
                q2
            };
            let median_a = row("", a);
            let Some(b) = sets
                .get(1)
                .and_then(|set| set.get(workload))
                .and_then(|m| m.get(metric))
            else {
                continue;
            };
            let median_b = row(" [B]", b);
            if let Some(&(bound, lower)) = bound {
                let worse = if lower {
                    median_b - median_a
                } else {
                    median_a - median_b
                } / median_a.abs();
                let verdict = if worse > bound {
                    ok = false;
                    "REGRESSION"
                } else {
                    "ok"
                };
                println!(
                    "  {:<34} B vs A: {:+.4} worse (bound {bound})  {verdict}",
                    metric, worse
                );
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
