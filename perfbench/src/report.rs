//! The result line: one JSON object with `correct`, `attempted`, `failed`
//! and `metrics`, each metric a `{"value": .., "unit": ..}` pair.

/// One measured metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The measured value.
    pub value: f64,
}

/// Accumulates metrics in print order.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    /// Adds a metric.
    pub fn push(&mut self, name: impl Into<String>, unit: &'static str, value: f64) {
        self.0.push(Metric {
            name: name.into(),
            unit,
            value,
        });
    }
}

/// Renders a number as JSON. JSON has no non-finite numbers; those print
/// as 0, and the run counts them as failures.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_owned()
    }
}

/// Renders the result line.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .0
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_contract_shape() {
        let mut m = Metrics::default();
        m.push("setup_s", "s", 0.5);
        m.push("requests_per_s", "1/s", 1.25e6);
        assert_eq!(
            result_line(true, 3, 0, &m),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}, \
             \"requests_per_s\": {\"value\": 1250000.0, \"unit\": \"1/s\"}}}"
        );
    }
}
