//! Region-distributed recognition (§7.1).
//!
//! "SCATS sensors are placed into the intersections of four geographical
//! areas … We distributed CE recognition accordingly" — one engine per
//! region, each computing the CEs of its region's SCATS intersections and of
//! the buses currently traversing that region. Queries run the engines on
//! parallel threads (scoped threads), and the recognition time of
//! a query is the maximum over the engines — exactly the quantity Figure 4
//! plots.

use crate::config::TrafficRulesConfig;
use crate::recognizer::{TrafficRecognition, TrafficRecognizer};
use crate::rules::build_ruleset;
use insight_datagen::regions::Region;
use insight_datagen::scats::ScatsDeployment;
use insight_datagen::stream::Sde;
use insight_rtec::compile::CompiledPlan;
use insight_rtec::error::RtecError;
use insight_rtec::time::Time;
use insight_rtec::window::WindowConfig;

/// One recogniser per SCATS region.
pub struct DistributedRecognizer {
    partitions: Vec<(Region, TrafficRecognizer)>,
}

/// The result of a distributed query.
#[derive(Debug)]
pub struct DistributedRecognition {
    /// Per-region results.
    pub per_region: Vec<(Region, TrafficRecognition)>,
    /// Wall-clock recognition time of the slowest region (the distributed
    /// recognition time).
    pub max_region_time: std::time::Duration,
    /// Wall-clock recognition time summed over regions (the sequential
    /// equivalent).
    pub total_cpu_time: std::time::Duration,
}

impl DistributedRecognition {
    /// Total SDEs across regions for this window.
    pub fn sde_count(&self) -> usize {
        self.per_region.iter().map(|(_, r)| r.sde_count()).sum()
    }
}

impl DistributedRecognizer {
    /// Partitions a deployment into the four regions and builds one
    /// recogniser each. Regions without intersections are omitted. All
    /// regions run the same rule library, so it is compiled **once** and the
    /// one plan is shared — region-local data (relations, window state)
    /// stays per-engine.
    pub fn from_deployment(
        config: TrafficRulesConfig,
        window: WindowConfig,
        scats: &ScatsDeployment,
    ) -> Result<DistributedRecognizer, RtecError> {
        let plan = CompiledPlan::compile(build_ruleset(&config)?);
        let mut partitions: Vec<(Region, TrafficRecognizer)> = Vec::new();
        for region in Region::ALL {
            if !scats.intersections().iter().any(|i| i.region == region) {
                continue;
            }
            let rec = TrafficRecognizer::with_plan(
                plan.clone(),
                config.clone(),
                window,
                scats,
                Some(region),
            )?;
            partitions.push((region, rec));
        }
        Ok(DistributedRecognizer { partitions })
    }

    /// Number of active regions.
    pub fn regions(&self) -> usize {
        self.partitions.len()
    }

    /// Routes one SDE to the engine of its region. SDEs of regions without
    /// an engine are dropped (mirrors sensors outside any partition).
    pub fn ingest(&mut self, sde: &Sde) -> Result<(), RtecError> {
        let region = sde.region();
        for (r, rec) in &mut self.partitions {
            if *r == region {
                return rec.ingest(sde);
            }
        }
        Ok(())
    }

    /// Routes a crowd answer to the region of its location.
    pub fn ingest_crowd(
        &mut self,
        lon: f64,
        lat: f64,
        congested: bool,
        time: Time,
    ) -> Result<(), RtecError> {
        let region = Region::of(lon, lat);
        for (r, rec) in &mut self.partitions {
            if *r == region {
                return rec.ingest_crowd(lon, lat, congested, time);
            }
        }
        Ok(())
    }

    /// Runs recognition at `q` on all regions in parallel.
    pub fn query(&mut self, q: Time) -> Result<DistributedRecognition, RtecError> {
        let results: Vec<(Region, Result<TrafficRecognition, RtecError>, std::time::Duration)> =
            std::thread::scope(|scope| {
                let handles: Vec<_> = self
                    .partitions
                    .iter_mut()
                    .map(|(region, rec)| {
                        let region = *region;
                        scope.spawn(move || {
                            let start = std::time::Instant::now();
                            let result = rec.query(q);
                            (region, result, start.elapsed())
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().expect("region thread panicked")).collect()
            });

        let mut per_region = Vec::with_capacity(results.len());
        let mut max_region_time = std::time::Duration::ZERO;
        let mut total_cpu_time = std::time::Duration::ZERO;
        for (region, result, elapsed) in results {
            max_region_time = max_region_time.max(elapsed);
            total_cpu_time += elapsed;
            per_region.push((region, result?));
        }
        Ok(DistributedRecognition { per_region, max_region_time, total_cpu_time })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use insight_datagen::scenario::{Scenario, ScenarioConfig};

    #[test]
    fn partitions_cover_regions_with_sensors() {
        let scenario = Scenario::generate(ScenarioConfig::small(900, 13)).unwrap();
        let d = DistributedRecognizer::from_deployment(
            TrafficRulesConfig::default(),
            WindowConfig::new(900, 900).unwrap(),
            &scenario.scats,
        )
        .unwrap();
        assert!(d.regions() >= 1 && d.regions() <= 4);
    }

    #[test]
    fn distributed_query_matches_ingestion() {
        let scenario = Scenario::generate(ScenarioConfig::small(1200, 17)).unwrap();
        let mut d = DistributedRecognizer::from_deployment(
            TrafficRulesConfig::default(),
            WindowConfig::new(1200, 1200).unwrap(),
            &scenario.scats,
        )
        .unwrap();
        for sde in &scenario.sdes {
            d.ingest(sde).unwrap();
        }
        let (_, end) = scenario.window();
        let rec = d.query(end).unwrap();
        assert_eq!(rec.per_region.len(), d.regions());
        assert!(rec.sde_count() > 0);
        assert!(rec.max_region_time <= rec.total_cpu_time);
        // A second query strictly later works too.
        let rec2 = d.query(end + 600).unwrap();
        assert_eq!(rec2.per_region.len(), d.regions());
    }

    #[test]
    fn region_engines_share_one_plan() {
        let scenario = Scenario::generate(ScenarioConfig::small(1200, 17)).unwrap();
        let d = DistributedRecognizer::from_deployment(
            TrafficRulesConfig::default(),
            WindowConfig::new(600, 600).unwrap(),
            &scenario.scats,
        )
        .unwrap();
        assert!(d.regions() > 1, "the scenario spans several regions");
        let first = d.partitions[0].1.plan();
        for (_, rec) in &d.partitions {
            assert!(std::sync::Arc::ptr_eq(rec.plan(), first), "regions share one allocation");
        }
    }

    #[test]
    fn crowd_routing_does_not_error_for_uncovered_regions() {
        let scenario = Scenario::generate(ScenarioConfig::small(600, 19)).unwrap();
        let mut d = DistributedRecognizer::from_deployment(
            TrafficRulesConfig::default(),
            WindowConfig::new(600, 600).unwrap(),
            &scenario.scats,
        )
        .unwrap();
        // A location far outside every partition: silently ignored.
        d.ingest_crowd(0.0, 0.0, true, 100).unwrap();
        // A location inside some partition: accepted.
        let i = &scenario.scats.intersections()[0];
        d.ingest_crowd(i.lon, i.lat, true, 100).unwrap();
    }

    #[test]
    fn region_engines_recognise_what_one_deployment_engine_does() {
        // The two-sensor and approach rules join over relations built from
        // the deployment's sensors; every region engine must get its share.
        let scenario = Scenario::generate(ScenarioConfig::small(1800, 1)).unwrap();
        let config = TrafficRulesConfig {
            approach_congestion: true,
            intersection_congestion_n: 2,
            ..TrafficRulesConfig::default()
        };
        let window = WindowConfig::new(1800, 1800).unwrap();
        let mut whole =
            TrafficRecognizer::from_deployment(config.clone(), window, &scenario.scats).unwrap();
        let mut regions =
            DistributedRecognizer::from_deployment(config, window, &scenario.scats).unwrap();
        for sde in &scenario.sdes {
            whole.ingest(sde).unwrap();
            regions.ingest(sde).unwrap();
        }
        let end = scenario.window().1;
        let whole = whole.query(end).unwrap();
        let regions = regions.query(end).unwrap();
        let intervals = |r: &TrafficRecognition| -> Vec<(f64, f64, String)> {
            let ints = r.congested_intersections().into_iter();
            ints.map(|((lon, lat), ivs)| (lon, lat, format!("{ivs:?}"))).collect()
        };
        let expected = intervals(&whole);
        assert!(!expected.is_empty(), "two congested sensors at some intersection");
        let mut summed: Vec<_> =
            regions.per_region.iter().flat_map(|(_, r)| intervals(r)).collect();
        summed.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.total_cmp(&b.1)));
        assert_eq!(summed, expected);
        let approaches = |r: &TrafficRecognition| {
            r.raw.fluent_entries(crate::rules::ce::SCATS_APPROACH_CONGESTION).len()
        };
        let summed: usize = regions.per_region.iter().map(|(_, r)| approaches(r)).sum();
        assert!(approaches(&whole) > 0);
        assert_eq!(summed, approaches(&whole));
    }
}
