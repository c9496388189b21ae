//! Shared harness utilities for the figure-regeneration binaries.
//!
//! Every binary in `src/bin/` regenerates one figure of the paper's
//! evaluation (see DESIGN.md §4 for the experiment index); the helpers here
//! keep their measurement protocol consistent.

use insight_datagen::scenario::Scenario;
use insight_rtec::window::WindowConfig;
use insight_traffic::{DistributedRecognizer, TrafficRulesConfig};
use std::time::Duration;

/// The result of timing recognition at a sequence of query times.
#[derive(Debug, Clone)]
pub struct RecognitionTiming {
    /// Working-memory size used (seconds).
    pub wm: i64,
    /// Mean engine input facts per window (a bus record contributes both a
    /// `move` event and a `gps` observation).
    pub mean_sdes: f64,
    /// Mean dataset records per window — the paper's "12,500 SDEs per
    /// 10 min" axis counts records.
    pub mean_records: f64,
    /// Mean wall-clock recognition time per query (max over the parallel
    /// region engines — the distributed recognition time of Figure 4).
    pub mean_time: Duration,
    /// Mean summed (sequential-equivalent) CPU time per query.
    pub mean_cpu_time: Duration,
    /// Queries measured.
    pub queries: usize,
}

/// Ingests the scenario and measures recognition at `n_queries` query times
/// whose windows are fully populated: the first query fires once a whole
/// working memory of data is available.
pub fn time_recognition(
    scenario: &Scenario,
    rules: TrafficRulesConfig,
    wm: i64,
    step: i64,
    n_queries: usize,
) -> Result<RecognitionTiming, Box<dyn std::error::Error>> {
    let window = WindowConfig::new(wm, step)?;
    let mut rec = DistributedRecognizer::from_deployment(rules, window, &scenario.scats)?;
    let (start, end) = scenario.window();

    let mut sde_idx = 0usize;
    let mut total_sdes = 0usize;
    let mut total_records = 0usize;
    let mut total_time = Duration::ZERO;
    let mut total_cpu = Duration::ZERO;
    let mut queries = 0usize;

    let mut q = start + wm;
    while queries < n_queries && q <= end {
        while sde_idx < scenario.sdes.len() && scenario.sdes[sde_idx].arrival <= q {
            rec.ingest(&scenario.sdes[sde_idx])?;
            sde_idx += 1;
        }
        let result = rec.query(q)?;
        total_sdes += result.sde_count();
        total_records += scenario.sdes_between(q - wm, q).filter(|s| s.arrival <= q).count();
        total_time += result.max_region_time;
        total_cpu += result.total_cpu_time;
        queries += 1;
        q += step;
    }
    if queries == 0 {
        return Err("scenario shorter than one working memory".into());
    }
    Ok(RecognitionTiming {
        wm,
        mean_sdes: total_sdes as f64 / queries as f64,
        mean_records: total_records as f64 / queries as f64,
        mean_time: total_time / queries as u32,
        mean_cpu_time: total_cpu / queries as u32,
        queries,
    })
}

/// Formats a duration as fractional seconds for result tables.
pub fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Writes experiment output both to stdout and to a results file under
/// `target/experiments/`.
pub struct ResultsWriter {
    path: std::path::PathBuf,
    buffer: String,
}

impl ResultsWriter {
    /// Creates a writer for the named experiment.
    pub fn new(name: &str) -> ResultsWriter {
        ResultsWriter {
            path: std::path::PathBuf::from(format!("target/experiments/{name}.txt")),
            buffer: String::new(),
        }
    }

    /// Prints a line to stdout and records it for the results file.
    pub fn line(&mut self, text: impl AsRef<str>) {
        println!("{}", text.as_ref());
        self.buffer.push_str(text.as_ref());
        self.buffer.push('\n');
    }

    /// Flushes the recorded lines to the results file.
    pub fn finish(self) -> std::io::Result<std::path::PathBuf> {
        if let Some(dir) = self.path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(&self.path, self.buffer)?;
        Ok(self.path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use insight_datagen::scenario::ScenarioConfig;

    #[test]
    fn timing_protocol_runs_on_small_scenario() {
        let scenario = Scenario::generate(ScenarioConfig::small(1500, 4)).unwrap();
        let t =
            time_recognition(&scenario, TrafficRulesConfig::static_mode(), 600, 300, 2).unwrap();
        assert_eq!(t.queries, 2);
        assert!(t.mean_sdes > 0.0);
        assert!(t.mean_cpu_time >= t.mean_time);
    }

    #[test]
    fn too_short_scenario_errors() {
        let scenario = Scenario::generate(ScenarioConfig::small(300, 4)).unwrap();
        assert!(
            time_recognition(&scenario, TrafficRulesConfig::static_mode(), 6000, 300, 1).is_err()
        );
    }

    #[test]
    fn results_writer_persists() {
        let mut w = ResultsWriter::new("selftest");
        w.line("hello");
        let path = w.finish().unwrap();
        assert_eq!(std::fs::read_to_string(path).unwrap(), "hello\n");
    }
}
