//! The metric catalog, read from the repository's `BENCHMARK.json` at
//! build time, so metric names, units, directions and bounds have one
//! source.

use serde_json::Value;

const BENCHMARK_JSON: &str = include_str!("../../../../BENCHMARK.json");

/// One metric of `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDef {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// Share of the parent's median the metric may worsen by
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

/// The parsed catalog.
#[derive(Debug, Clone)]
pub struct Catalog {
    /// Seconds of timed work per run.
    pub run_seconds: f64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricDef>,
    pub per_layer: Vec<MetricDef>,
}

impl Catalog {
    /// The catalog this binary was built with.
    pub fn load() -> Catalog {
        Catalog::parse(BENCHMARK_JSON).expect("BENCHMARK.json is well formed")
    }

    fn parse(text: &str) -> Result<Catalog, String> {
        let root: Value = serde_json::from_str(text).map_err(|e| e.to_string())?;
        let list = |key: &str| -> Result<Vec<Value>, String> {
            root.get(key)
                .and_then(Value::as_array)
                .cloned()
                .ok_or_else(|| format!("`{key}` is not a list"))
        };
        let text_of = |v: &Value, key: &str| -> Result<String, String> {
            v.get(key)
                .and_then(Value::as_str)
                .map(str::to_owned)
                .ok_or_else(|| format!("an entry lacks `{key}`"))
        };
        let metrics = |key: &str| -> Result<Vec<MetricDef>, String> {
            list(key)?
                .iter()
                .map(|m| {
                    Ok(MetricDef {
                        name: text_of(m, "name")?,
                        unit: text_of(m, "unit")?,
                        higher_is_better: text_of(m, "better")? == "higher",
                        bound: m.get("bound").and_then(Value::as_f64),
                    })
                })
                .collect()
        };
        Ok(Catalog {
            run_seconds: root
                .get("run_seconds")
                .and_then(Value::as_f64)
                .ok_or("`run_seconds` is not a number")?,
            workloads: list("workloads")?
                .iter()
                .map(|w| text_of(w, "name"))
                .collect::<Result<_, _>>()?,
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        })
    }

    /// The end-to-end or the per-layer metrics.
    pub fn metrics(&self, traced: bool) -> &[MetricDef] {
        if traced {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_committed_catalog_parses() {
        let c = Catalog::load();
        assert_eq!(c.workloads, ["train", "rescore", "monitor", "ingest"]);
        assert!(c.run_seconds >= 1.0);
        let setup = c.end_to_end.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!(setup.unit, "s");
        assert!(!setup.higher_is_better);
        let widest = c
            .end_to_end
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(
            setup.bound,
            Some(widest),
            "set-up time carries the widest bound"
        );
        assert!(c
            .end_to_end
            .iter()
            .all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        assert!(c.per_layer.iter().all(|m| m.bound.is_none()));
        assert!(c.metrics(true).iter().any(|m| m.name == "trace.coverage"));
    }

    #[test]
    fn malformed_catalogs_are_refused() {
        assert!(Catalog::parse("{}").is_err());
        assert!(Catalog::parse(
            r#"{"workloads": [{"why": "x"}], "end_to_end": [], "per_layer": []}"#
        )
        .is_err());
    }
}
