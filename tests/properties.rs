//! Cross-crate property-based tests.

use insight_repro::crowd::model::{LabelSet, SimulatedParticipant};
use insight_repro::crowd::online_em::OnlineEm;
use insight_repro::datagen::mediator::{mediate, MediatorConfig};
use insight_repro::datagen::stream::{BusRecord, Sde, SdeBody};
use insight_repro::gp::graph::Graph;
use insight_repro::gp::kernel::{Kernel, RegularizedLaplacian};
use insight_repro::rtec::prelude::*;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bus_sde(t: i64) -> Sde {
    Sde::punctual(
        t,
        SdeBody::Bus(BusRecord {
            bus: 1,
            line: 1,
            operator: 0,
            delay_s: 0,
            lon: -6.26,
            lat: 53.35,
            direction: 0,
            congestion: false,
        }),
    )
}

proptest! {
    /// The mediator never invents records, never delivers before
    /// occurrence, and respects its delay bound.
    #[test]
    fn mediator_respects_causality(
        n in 1usize..200,
        max_delay in 0i64..300,
        drop in 0.0f64..0.9,
        seed in 0u64..u64::MAX,
    ) {
        let records: Vec<Sde> = (0..n as i64).map(|i| bus_sde(i * 7)).collect();
        let cfg = MediatorConfig { max_delay_s: max_delay, drop_probability: drop, thinning: 1 };
        let out = mediate(records, &cfg, seed).unwrap();
        prop_assert!(out.len() <= n);
        for s in &out {
            prop_assert!(s.arrival >= s.time);
            prop_assert!(s.arrival <= s.time + max_delay);
        }
        // sorted by arrival
        prop_assert!(out.windows(2).all(|w| w[0].arrival <= w[1].arrival));
    }

    /// Online EM posteriors are valid distributions for arbitrary valid
    /// priors and answer sets.
    #[test]
    fn online_em_posteriors_are_distributions(
        weights in proptest::collection::vec(0.01f64..10.0, 4),
        answers in proptest::collection::vec((0usize..10, 0usize..4), 0..10),
        seed in 0u64..1000,
    ) {
        let _ = seed;
        let mut em = OnlineEm::paper_default(10);
        let sum: f64 = weights.iter().sum();
        let prior: Vec<f64> = weights.iter().map(|w| w / sum).collect();
        let outcome = em.process(&prior, &answers).unwrap();
        prop_assert!((outcome.posterior.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        prop_assert!(outcome.posterior.iter().all(|&p| (0.0..=1.0).contains(&p)));
        prop_assert!(outcome.map_label < 4);
        for &p in em.estimates() {
            prop_assert!(p > 0.0 && p < 1.0);
        }
    }

    /// Simulated participants obey their configured error rate direction:
    /// a perfect participant always answers the truth.
    #[test]
    fn perfect_participants_never_lie(truth in 0usize..4, seed in 0u64..u64::MAX) {
        let labels = LabelSet::traffic_default();
        let p = SimulatedParticipant::new(0.0).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        prop_assert_eq!(p.answer(truth, &labels, &mut rng).unwrap(), truth);
    }

    /// The regularized Laplacian kernel is SPD (Cholesky succeeds) on
    /// arbitrary connected grid graphs and hyperparameters.
    #[test]
    fn regularized_laplacian_always_spd(
        w in 2usize..7,
        h in 2usize..7,
        alpha in 0.1f64..10.0,
        beta in 0.1f64..10.0,
    ) {
        let g = Graph::grid(w, h);
        let k = RegularizedLaplacian::new(alpha, beta).unwrap().covariance(&g).unwrap();
        prop_assert!(insight_repro::gp::testing::is_spd(&k, 1e-8));
    }

    /// NearestK returns exactly the k closest workers (checked against a
    /// brute-force sort).
    #[test]
    fn nearest_k_policy_is_exact(
        coords in proptest::collection::vec((-6.4f64..-6.1, 53.28f64..53.42), 1..25),
        k in 1usize..10,
        q in 0usize..25,
    ) {
        use insight_repro::crowd::engine::{Worker, WorkerId};
        use insight_repro::crowd::latency::{ConnectionType, LatencyModel};
        use insight_repro::crowd::policy::SelectionPolicy;
        use insight_repro::datagen::network::distance_m;

        let workers: Vec<Worker> = coords
            .iter()
            .enumerate()
            .map(|(i, &(lon, lat))| Worker {
                id: WorkerId(i as u64),
                lon,
                lat,
                connection: ConnectionType::WiFi,
                avg_comp_ms: 0.0,
            })
            .collect();
        let refs: Vec<&Worker> = workers.iter().collect();
        let (qlon, qlat) = coords[q % coords.len()];
        let selected = SelectionPolicy::NearestK(k).select(
            &refs, qlon, qlat, None, &LatencyModel::default(),
        );
        prop_assert_eq!(selected.len(), k.min(workers.len()));
        // Every selected worker is at least as close as every unselected one.
        let dist = |id: u64| {
            let w = &workers[id as usize];
            distance_m((w.lon, w.lat), (qlon, qlat))
        };
        let max_sel = selected.iter().map(|w| dist(w.0)).fold(0.0, f64::max);
        for w in &workers {
            if !selected.contains(&w.id) {
                prop_assert!(dist(w.id.0) >= max_sel - 1e-9);
            }
        }
    }

    /// The Streams runtime conserves items: with no filtering, everything a
    /// source produces reaches the sink, across arbitrary fan-in.
    #[test]
    fn streams_runtime_conserves_items(
        sizes in proptest::collection::vec(0usize..200, 1..5),
        capacity in 1usize..64,
    ) {
        use insight_repro::streams::item::DataItem;
        use insight_repro::streams::runtime::Runtime;
        use insight_repro::streams::sink::CountSink;
        use insight_repro::streams::source::VecSource;
        use insight_repro::streams::topology::{Input, Output, Topology};

        let mut t = Topology::new();
        t.add_queue("merge", capacity);
        let total: usize = sizes.iter().sum();
        for (i, &n) in sizes.iter().enumerate() {
            let name = format!("src{i}");
            t.add_source(&name, VecSource::new((0..n).map(|j| DataItem::new().with("n", j as i64))));
            t.process(&format!("fwd{i}"))
                .input(Input::Stream(name))
                .output(Output::Queue("merge".into()))
                .done();
        }
        let sink = CountSink::shared();
        t.process("count").input(Input::Queue("merge".into())).output(Output::Sink(Box::new(sink.clone()))).done();
        Runtime::new(t).run().unwrap();
        prop_assert_eq!(sink.count() as usize, total);
    }

    /// RTEC inertia: for any interleaving of on/off events, the fluent holds
    /// at a time iff the most recent preceding event was an `on`.
    #[test]
    fn rtec_inertia_matches_last_writer(
        mut times in proptest::collection::vec((1i64..999, proptest::bool::ANY), 1..30),
        probe in 1i64..999,
    ) {
        times.sort();
        times.dedup_by_key(|(t, _)| *t);

        let mut b = RuleSetBuilder::new();
        b.declare_event("on", 0);
        b.declare_event("off", 0);
        let t1 = b.var("T1");
        b.initiated(fluent("f", [], val(true)), t1, [happens(event_pat("on", []), t1)]);
        let t2 = b.var("T2");
        b.terminated(fluent("f", [], val(true)), t2, [happens(event_pat("off", []), t2)]);
        let rs = b.build().unwrap();
        let mut engine = Engine::new(rs, WindowConfig::new(1000, 1000).unwrap());
        for &(t, on) in &times {
            engine.add_event(Event::new(if on { "on" } else { "off" }, Vec::<Term>::new(), t)).unwrap();
        }
        let rec = engine.query(1000).unwrap();
        let expected = times
            .iter().rfind(|&&(t, _)| t <= probe)  // times sorted: the latest event at or before probe
            .map(|&(_, on)| on)
            .unwrap_or(false);
        prop_assert_eq!(rec.holds_at("f", &[], &Term::truth(), probe), expected);
    }
}
