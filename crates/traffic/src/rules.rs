//! The paper's CE rule-sets, expressed in the RTEC rule AST.
//!
//! [`build_ruleset`] assembles the full rule library for a
//! [`TrafficRulesConfig`]; the resulting [`RuleSet`] expects two relations
//! to be provided to the engine —
//!
//! * `scats_intersection(Int, LonInt, LatInt)` — the instrumented
//!   intersections and their coordinates, and
//! * `area(Lon, Lat)` — the areas of interest congestion is tracked for
//!   (typically the SCATS intersection locations, the paper's choice) —
//!
//! plus the `close/4` builtin of [`crate::geo`] and the one-tuple relation
//! `close_box(DLon, DLat)` holding the bounding box that builtin implies
//! (`crate::geo::close_box`; [`crate::recognizer::TrafficRecognizer`] sets
//! all three from its intersections).

use crate::config::{NoisyVariant, RecognitionMode, TrafficRulesConfig};
use crate::sde::names;
use insight_rtec::dsl::{
    any, builtin, cmp, cnst, event_head, event_pat, fluent, fluent_pat, guard, happens, holds,
    not_holds, pat, relation, term_ne, val, RuleSet, RuleSetBuilder,
};
use insight_rtec::error::RtecError;
use insight_rtec::pattern::VarId;
use insight_rtec::rule::{BodyAtom, CmpOp, IntervalExpr, NumExpr, ValRef};
use insight_rtec::term::Term;

/// Names of the derived CEs and fluents.
pub mod ce {
    /// `delayIncrease(Bus, Lon', Lat', Lon, Lat)` derived event.
    pub(crate) const DELAY_INCREASE: &str = "delayIncrease";
    /// `scatsCongestion(Int, A, S) = true` simple fluent (rule-set 2).
    pub const SCATS_CONGESTION: &str = "scatsCongestion";
    /// `scatsIntCongestion(LonInt, LatInt) = true` statically-determined.
    pub const SCATS_INT_CONGESTION: &str = "scatsIntCongestion";
    /// `busCongestion(Lon, Lat) = true` simple fluent (rule-set 3 / 3′).
    pub const BUS_CONGESTION: &str = "busCongestion";
    /// `sourceDisagreement(LonInt, LatInt) = true` statically-determined.
    pub const SOURCE_DISAGREEMENT: &str = "sourceDisagreement";
    /// `disagree(Bus, LonInt, LatInt, Val)` derived event.
    pub(crate) const DISAGREE: &str = "disagree";
    /// `agree(Bus)` derived event.
    pub(crate) const AGREE: &str = "agree";
    /// `noisy(Bus) = true` simple fluent (rule-set 4 or 5).
    pub(crate) const NOISY: &str = "noisy";
    /// `noisyScats(Int) = true` — SCATS reliability (omitted in the paper).
    pub(crate) const NOISY_SCATS: &str = "noisyScats";
    /// `flowTrend(Int, A, S, Dir)` derived event.
    pub(crate) const FLOW_TREND: &str = "flowTrend";
    /// `densityTrend(Int, A, S, Dir)` derived event.
    pub const DENSITY_TREND: &str = "densityTrend";
    /// `busNearArea(Bus, Lon, Lat, Cong)` — internal: a bus emission close
    /// to an area of interest. Factors the expensive `move × gps × area ×
    /// close` join out of the `busCongestion` rules so it runs once per
    /// window instead of once per dependent rule.
    pub(crate) const BUS_NEAR_AREA: &str = "busNearArea";
    /// `busNearInt(Bus, LonInt, LatInt, Cong)` — internal: a bus emission
    /// close to a SCATS intersection, shared by the `disagree`/`agree`
    /// rules.
    pub(crate) const BUS_NEAR_INT: &str = "busNearInt";
    /// `citizenCongestion(Lon, Lat) = true` — extension fluent over
    /// classified micro-blogging reports.
    pub(crate) const CITIZEN_CONGESTION: &str = "citizenCongestion";
    /// `scatsApproachCongestion(Int, A) = true` — the approach level of the
    /// paper's "more structured intersection congestion definition that
    /// depends on approach congestion which in turn would depend on sensor
    /// congestion" (§4.3).
    pub(crate) const SCATS_APPROACH_CONGESTION: &str = "scatsApproachCongestion";
}

/// Relation names the engine must be provided with.
pub mod rel {
    /// `scats_intersection(Int, LonInt, LatInt)`.
    pub const SCATS_INTERSECTION: &str = "scats_intersection";
    /// `area(Lon, Lat)` — the areas of interest.
    pub const AREA: &str = "area";
    /// `scats_approach(Int, A)` — the instrumented approaches; only needed
    /// when `approach_congestion` is enabled.
    pub(crate) const SCATS_APPROACH: &str = "scats_approach";
    /// `scats_sensor_pair(Int, S1, S2)` — unordered sensor pairs per
    /// intersection; only needed when `intersection_congestion_n == 2`.
    pub(crate) const SCATS_SENSOR_PAIR: &str = "scats_sensor_pair";
    /// `close_box(DLon, DLat)` — one tuple: the half-widths in degrees of the
    /// bounding box `close` implies over the location relations
    /// (`crate::geo::close_box`).
    pub const CLOSE_BOX: &str = "close_box";
}

/// Builds the complete rule set for the configuration.
pub fn build_ruleset(config: &TrafficRulesConfig) -> Result<RuleSet, RtecError> {
    let mut b = RuleSetBuilder::new();
    b.declare_event(names::MOVE, 4);
    b.declare_event(names::TRAFFIC, 5);
    b.declare_event(names::CROWD, 3);
    if config.citizen_reports {
        b.declare_event(names::CITIZEN_REPORT, 4);
    }
    b.declare_input_fluent(names::GPS, 5);
    b.declare_relation(rel::SCATS_INTERSECTION, 3);
    b.declare_relation(rel::AREA, 2);
    b.declare_relation(rel::CLOSE_BOX, 2);
    b.declare_builtin("close", 4);

    delay_increase(&mut b, config);
    scats_congestion(&mut b, config);
    match config.intersection_congestion_n {
        2 => {
            b.declare_relation(rel::SCATS_SENSOR_PAIR, 3);
            scats_int_congestion_n2(&mut b);
        }
        _ => scats_int_congestion(&mut b),
    }
    if config.approach_congestion {
        b.declare_relation(rel::SCATS_APPROACH, 2);
        scats_approach_congestion(&mut b);
    }
    trends(&mut b, config);

    match config.mode {
        RecognitionMode::Static => {
            bus_near(&mut b, ce::BUS_NEAR_AREA, rel::AREA);
            bus_congestion(&mut b, false, ce::BUS_NEAR_AREA);
        }
        RecognitionMode::SelfAdaptive(variant) => {
            bus_near(&mut b, ce::BUS_NEAR_INT, rel::SCATS_INTERSECTION);
            if config.shared_spatial_join {
                // Areas of interest == SCATS intersections: busCongestion
                // can reuse the busNearInt join.
                bus_congestion(&mut b, true, ce::BUS_NEAR_INT);
            } else {
                bus_near(&mut b, ce::BUS_NEAR_AREA, rel::AREA);
                bus_congestion(&mut b, true, ce::BUS_NEAR_AREA);
            }
            disagree_agree(&mut b);
            noisy(&mut b, variant, config.crowd_window_s);
        }
    }
    source_disagreement(&mut b);
    if config.scats_reliability {
        noisy_scats(&mut b);
    }
    if config.citizen_reports {
        citizen_congestion(&mut b);
    }

    b.build()
}

/// The instantaneous `delayIncrease` CE (§4.1).
fn delay_increase(b: &mut RuleSetBuilder, config: &TrafficRulesConfig) {
    let bus = b.var("di_Bus");
    let d1 = b.var("di_D1");
    let d2 = b.var("di_D2");
    let (lon1, lat1) = (b.var("di_Lon1"), b.var("di_Lat1"));
    let (lon2, lat2) = (b.var("di_Lon2"), b.var("di_Lat2"));
    let t1 = b.var("di_T1");
    let t2 = b.var("di_T2");
    b.derived_event(
        event_head(ce::DELAY_INCREASE, [pat(bus), pat(lon1), pat(lat1), pat(lon2), pat(lat2)]),
        t2,
        [
            happens(event_pat(names::MOVE, [pat(bus), any(), any(), pat(d1)]), t1),
            holds(
                fluent_pat(names::GPS, [pat(bus), pat(lon1), pat(lat1), any(), any()], val(true)),
                t1,
            ),
            happens(event_pat(names::MOVE, [pat(bus), any(), any(), pat(d2)]), t2),
            holds(
                fluent_pat(names::GPS, [pat(bus), pat(lon2), pat(lat2), any(), any()], val(true)),
                t2,
            ),
            guard(cmp(NumExpr::sub(d2.into(), d1.into()), CmpOp::Gt, config.delay_increase_d)),
            guard(cmp(NumExpr::sub(t2.into(), t1.into()), CmpOp::Gt, 0.0)),
            guard(cmp(NumExpr::sub(t2.into(), t1.into()), CmpOp::Lt, config.delay_increase_t)),
        ],
    );
}

/// Rule-set (2): `scatsCongestion(Int, A, S) = true`.
fn scats_congestion(b: &mut RuleSetBuilder, config: &TrafficRulesConfig) {
    let (int, a, s) = (b.var("sc_Int"), b.var("sc_A"), b.var("sc_S"));
    let (d, f) = (b.var("sc_D"), b.var("sc_F"));
    let head = || fluent(ce::SCATS_CONGESTION, [pat(int), pat(a), pat(s)], val(true));

    let t = b.var("sc_Ti");
    b.initiated(
        head(),
        t,
        [
            happens(event_pat(names::TRAFFIC, [pat(int), pat(a), pat(s), pat(d), pat(f)]), t),
            guard(cmp(d, CmpOp::Ge, config.density_upper)),
            guard(cmp(f, CmpOp::Le, config.flow_lower)),
        ],
    );
    let t = b.var("sc_Tt1");
    b.terminated(
        head(),
        t,
        [
            happens(event_pat(names::TRAFFIC, [pat(int), pat(a), pat(s), pat(d), pat(f)]), t),
            guard(cmp(d, CmpOp::Lt, config.density_upper)),
        ],
    );
    let t = b.var("sc_Tt2");
    b.terminated(
        head(),
        t,
        [
            happens(event_pat(names::TRAFFIC, [pat(int), pat(a), pat(s), pat(d), pat(f)]), t),
            guard(cmp(f, CmpOp::Gt, config.flow_lower)),
        ],
    );
}

/// `scatsIntCongestion(LonInt, LatInt) = true`: a SCATS intersection is
/// congested while at least one of its sensors is (the `n = 1` instance of
/// the paper's family of intersection-congestion definitions; §4.3).
fn scats_int_congestion(b: &mut RuleSetBuilder) {
    let int = b.var("sic_Int");
    let (lon, lat) = (b.var("sic_Lon"), b.var("sic_Lat"));
    b.static_fluent(
        fluent(ce::SCATS_INT_CONGESTION, [pat(lon), pat(lat)], val(true)),
        [relation(rel::SCATS_INTERSECTION, [pat(int), pat(lon), pat(lat)])],
        IntervalExpr::Fluent(fluent_pat(ce::SCATS_CONGESTION, [pat(int), any(), any()], val(true))),
    );
}

/// `close(LonP, LatP, Lon, Lat)` over the locations `(Lon, Lat)` of a
/// relation atom, preceded by the bounding box it implies — two ordinary
/// guards against the `close_box` half-widths. The guards are entailed by
/// the builtin, so the conjunction recognises exactly what `close` alone
/// would; stating them lets the engine's planner reach the nearby locations
/// through a sorted-column band instead of calling `close` on every tuple.
fn close_to(
    b: &mut RuleSetBuilder,
    prefix: &str,
    (lon_p, lat_p): (VarId, VarId),
    location: BodyAtom,
    (lon, lat): (VarId, VarId),
) -> [BodyAtom; 5] {
    let (d_lon, d_lat) = (b.var(&format!("{prefix}_DLon")), b.var(&format!("{prefix}_DLat")));
    let within = |x: VarId, p: VarId, d: VarId| {
        guard(cmp(NumExpr::Abs(Box::new(NumExpr::sub(x.into(), p.into()))), CmpOp::Le, d))
    };
    [
        relation(rel::CLOSE_BOX, [pat(d_lon), pat(d_lat)]),
        location,
        within(lon, lon_p, d_lon),
        within(lat, lat_p, d_lat),
        builtin("close", [lon_p, lat_p, lon, lat].map(ValRef::Var)),
    ]
}

/// The shared spatial join: `busNear*(Bus, Lon, Lat, Cong)` happens when a
/// bus emission is close to a location of the given relation. Factoring
/// this join into one derived event makes every dependent rule (the
/// `busCongestion`, `disagree` and `agree` definitions) a cheap scan, which
/// is what keeps the self-adaptive overhead of Figure 4 small.
fn bus_near(b: &mut RuleSetBuilder, head_name: &str, relation_name: &str) {
    let prefix = format!("bn_{head_name}");
    let bus = b.var(&format!("{prefix}_Bus"));
    let (lon_b, lat_b) = (b.var(&format!("{prefix}_LonB")), b.var(&format!("{prefix}_LatB")));
    let (lon, lat) = (b.var(&format!("{prefix}_Lon")), b.var(&format!("{prefix}_Lat")));
    let cong = b.var(&format!("{prefix}_Cong"));
    let t = b.var(&format!("{prefix}_T"));
    let rel_args = if relation_name == rel::SCATS_INTERSECTION {
        vec![any(), pat(lon), pat(lat)]
    } else {
        vec![pat(lon), pat(lat)]
    };
    let mut body = vec![
        happens(event_pat(names::MOVE, [pat(bus), any(), any(), any()]), t),
        holds(
            fluent_pat(names::GPS, [pat(bus), pat(lon_b), pat(lat_b), any(), pat(cong)], val(true)),
            t,
        ),
    ];
    body.extend(close_to(
        b,
        &prefix,
        (lon_b, lat_b),
        relation(relation_name, rel_args),
        (lon, lat),
    ));
    b.derived_event(event_head(head_name, [pat(bus), pat(lon), pat(lat), pat(cong)]), t, body);
}

/// Rule-set (3) / (3′): `busCongestion(Lon, Lat) = true` over the areas of
/// interest. With `filter_noisy` the rule-set (3′) condition
/// `not holdsAt(noisy(Bus) = true)` is added, discarding unreliable buses.
fn bus_congestion(b: &mut RuleSetBuilder, filter_noisy: bool, near_event: &str) {
    let bus = b.var("bc_Bus");
    let (lon, lat) = (b.var("bc_Lon"), b.var("bc_Lat"));
    let head = || fluent(ce::BUS_CONGESTION, [pat(lon), pat(lat)], val(true));

    for (flag, initiate) in [(1i64, true), (0i64, false)] {
        let t = b.var(if initiate { "bc_Ti" } else { "bc_Tt" });
        let mut body =
            vec![happens(event_pat(near_event, [pat(bus), pat(lon), pat(lat), cnst(flag)]), t)];
        if filter_noisy {
            body.push(not_holds(fluent_pat(ce::NOISY, [pat(bus)], val(true)), t));
        }
        if initiate {
            b.initiated(head(), t, body);
        } else {
            b.terminated(head(), t, body);
        }
    }
}

/// The `disagree(Bus, LonInt, LatInt, Val)` and `agree(Bus)` events (§4.3).
fn disagree_agree(b: &mut RuleSetBuilder) {
    let bus = b.var("da_Bus");
    let (lon, lat) = (b.var("da_Lon"), b.var("da_Lat"));

    // (flag, scats congested?, verdict): flag=1 & no scats congestion ->
    // disagree positive; flag=0 & congestion -> disagree negative;
    // matching combinations -> agree.
    let cases: [(i64, bool, Option<&str>); 4] = [
        (1, false, Some("positive")),
        (0, true, Some("negative")),
        (1, true, None),
        (0, false, None),
    ];
    for (i, (flag, scats_congested, verdict)) in cases.into_iter().enumerate() {
        let t = b.var(&format!("da_T{i}"));
        let mut body = vec![happens(
            event_pat(ce::BUS_NEAR_INT, [pat(bus), pat(lon), pat(lat), cnst(flag)]),
            t,
        )];
        let scats_pat = fluent_pat(ce::SCATS_INT_CONGESTION, [pat(lon), pat(lat)], val(true));
        body.push(if scats_congested { holds(scats_pat, t) } else { not_holds(scats_pat, t) });
        match verdict {
            Some(v) => {
                b.derived_event(
                    event_head(ce::DISAGREE, [pat(bus), pat(lon), pat(lat), cnst(Term::sym(v))]),
                    t,
                    body,
                );
            }
            None => {
                b.derived_event(event_head(ce::AGREE, [pat(bus)]), t, body);
            }
        }
    }
}

/// Rule-set (4) or (5): the `noisy(Bus)` fluent.
fn noisy(b: &mut RuleSetBuilder, variant: NoisyVariant, crowd_window_s: f64) {
    let bus = b.var("n_Bus");
    let (lon, lat) = (b.var("n_Lon"), b.var("n_Lat"));
    let head = || fluent(ce::NOISY, [pat(bus)], val(true));

    match variant {
        NoisyVariant::CrowdValidated => {
            // initiatedAt: disagree and the crowd sides with SCATS.
            let t = b.var("n_Ti");
            let t2 = b.var("n_Ti2");
            let bus_val = b.var("n_BusVal");
            let crowd_val = b.var("n_CrowdVal");
            b.initiated(
                head(),
                t,
                [
                    happens(
                        event_pat(ce::DISAGREE, [pat(bus), pat(lon), pat(lat), pat(bus_val)]),
                        t,
                    ),
                    happens(event_pat(names::CROWD, [pat(lon), pat(lat), pat(crowd_val)]), t2),
                    guard(term_ne(bus_val, crowd_val)),
                    guard(cmp(NumExpr::sub(t2.into(), t.into()), CmpOp::Gt, 0.0)),
                    guard(cmp(NumExpr::sub(t2.into(), t.into()), CmpOp::Lt, crowd_window_s)),
                ],
            );
        }
        NoisyVariant::Pessimistic => {
            // initiatedAt: any disagreement (SCATS trusted by default).
            let t = b.var("n_Ti");
            b.initiated(
                head(),
                t,
                [happens(event_pat(ce::DISAGREE, [pat(bus), any(), any(), any()]), t)],
            );
        }
    }

    // terminatedAt: source agreement.
    let t = b.var("n_Tt1");
    b.terminated(head(), t, [happens(event_pat(ce::AGREE, [pat(bus)]), t)]);

    // terminatedAt: the crowd proves the bus correct. Rule-set (4)
    // terminates at the disagreement time T; rule-set (5) at the crowd
    // answer time T′ — both as printed in the paper.
    let t = b.var("n_Tt2");
    let t2 = b.var("n_Tt2b");
    let v = b.var("n_Val");
    let head_time = match variant {
        NoisyVariant::CrowdValidated => t,
        NoisyVariant::Pessimistic => t2,
    };
    b.terminated(
        head(),
        head_time,
        [
            happens(event_pat(ce::DISAGREE, [pat(bus), pat(lon), pat(lat), pat(v)]), t),
            happens(event_pat(names::CROWD, [pat(lon), pat(lat), pat(v)]), t2),
            guard(cmp(NumExpr::sub(t2.into(), t.into()), CmpOp::Gt, 0.0)),
            guard(cmp(NumExpr::sub(t2.into(), t.into()), CmpOp::Lt, crowd_window_s)),
        ],
    );
}

/// `sourceDisagreement(LonInt, LatInt) = true` via
/// `relative_complement_all` (§4.3).
fn source_disagreement(b: &mut RuleSetBuilder) {
    let int = b.var("sd_Int");
    let (lon, lat) = (b.var("sd_Lon"), b.var("sd_Lat"));
    b.static_fluent(
        fluent(ce::SOURCE_DISAGREEMENT, [pat(lon), pat(lat)], val(true)),
        [relation(rel::SCATS_INTERSECTION, [pat(int), pat(lon), pat(lat)])],
        IntervalExpr::RelComp(
            Box::new(IntervalExpr::Fluent(fluent_pat(
                ce::BUS_CONGESTION,
                [pat(lon), pat(lat)],
                val(true),
            ))),
            vec![IntervalExpr::Fluent(fluent_pat(
                ce::SCATS_INT_CONGESTION,
                [pat(lon), pat(lat)],
                val(true),
            ))],
        ),
    );
}

/// SCATS reliability from crowd answers — "the formalisation is similar and
/// omitted to save space" (§4.3 end); reconstructed here.
fn noisy_scats(b: &mut RuleSetBuilder) {
    let int = b.var("ns_Int");
    let (lon, lat) = (b.var("ns_Lon"), b.var("ns_Lat"));
    let head = || fluent(ce::NOISY_SCATS, [pat(int)], val(true));
    let scats_pat = || fluent_pat(ce::SCATS_INT_CONGESTION, [pat(lon), pat(lat)], val(true));

    // Crowd contradicts the sensors → the intersection's sensors are noisy.
    for (i, (crowd_val, congested)) in
        [("positive", false), ("negative", true)].into_iter().enumerate()
    {
        let t = b.var(&format!("ns_Ti{i}"));
        let mut body = vec![
            happens(event_pat(names::CROWD, [pat(lon), pat(lat), cnst(Term::sym(crowd_val))]), t),
            relation(rel::SCATS_INTERSECTION, [pat(int), pat(lon), pat(lat)]),
        ];
        body.push(if congested { holds(scats_pat(), t) } else { not_holds(scats_pat(), t) });
        b.initiated(head(), t, body);
    }
    // Crowd confirms the sensors → reliability restored.
    for (i, (crowd_val, congested)) in
        [("positive", true), ("negative", false)].into_iter().enumerate()
    {
        let t = b.var(&format!("ns_Tt{i}"));
        let mut body = vec![
            happens(event_pat(names::CROWD, [pat(lon), pat(lat), cnst(Term::sym(crowd_val))]), t),
            relation(rel::SCATS_INTERSECTION, [pat(int), pat(lon), pat(lat)]),
        ];
        body.push(if congested { holds(scats_pat(), t) } else { not_holds(scats_pat(), t) });
        b.terminated(head(), t, body);
    }
}

/// The `n = 2` member of the family: a SCATS intersection is congested
/// while at least two of its sensors are *simultaneously* congested —
/// realised as the union over sensor pairs of the pairwise interval
/// intersections.
fn scats_int_congestion_n2(b: &mut RuleSetBuilder) {
    let int = b.var("sic2_Int");
    let (s1, s2) = (b.var("sic2_S1"), b.var("sic2_S2"));
    let (lon, lat) = (b.var("sic2_Lon"), b.var("sic2_Lat"));
    b.static_fluent(
        fluent(ce::SCATS_INT_CONGESTION, [pat(lon), pat(lat)], val(true)),
        [
            relation(rel::SCATS_INTERSECTION, [pat(int), pat(lon), pat(lat)]),
            relation(rel::SCATS_SENSOR_PAIR, [pat(int), pat(s1), pat(s2)]),
        ],
        IntervalExpr::Intersect(vec![
            IntervalExpr::Fluent(fluent_pat(
                ce::SCATS_CONGESTION,
                [pat(int), any(), pat(s1)],
                val(true),
            )),
            IntervalExpr::Fluent(fluent_pat(
                ce::SCATS_CONGESTION,
                [pat(int), any(), pat(s2)],
                val(true),
            )),
        ]),
    );
}

/// `scatsApproachCongestion(Int, A) = true`: an approach is congested while
/// at least one of its sensors is — the intermediate level of the paper's
/// structured intersection-congestion definition family.
fn scats_approach_congestion(b: &mut RuleSetBuilder) {
    let (int, a) = (b.var("sac_Int"), b.var("sac_A"));
    b.static_fluent(
        fluent(ce::SCATS_APPROACH_CONGESTION, [pat(int), pat(a)], val(true)),
        [relation(rel::SCATS_APPROACH, [pat(int), pat(a)])],
        IntervalExpr::Fluent(fluent_pat(
            ce::SCATS_CONGESTION,
            [pat(int), pat(a), any()],
            val(true),
        )),
    );
}

/// Extension: `citizenCongestion(Lon, Lat) = true` from classified
/// micro-blogging reports — the §1 Twitter-style source, handled like the
/// bus congestion flags: a positive report near an area of interest
/// initiates the fluent, a free-flow report terminates it.
fn citizen_congestion(b: &mut RuleSetBuilder) {
    let user = b.var("cc_User");
    let (lon_r, lat_r) = (b.var("cc_LonR"), b.var("cc_LatR"));
    let (lon, lat) = (b.var("cc_Lon"), b.var("cc_Lat"));
    let head = || fluent(ce::CITIZEN_CONGESTION, [pat(lon), pat(lat)], val(true));
    for (flag, initiate) in [(1i64, true), (0i64, false)] {
        let t = b.var(if initiate { "cc_Ti" } else { "cc_Tt" });
        let mut body = vec![happens(
            event_pat(names::CITIZEN_REPORT, [pat(user), pat(lon_r), pat(lat_r), cnst(flag)]),
            t,
        )];
        body.extend(close_to(
            b,
            "cc",
            (lon_r, lat_r),
            relation(rel::AREA, [pat(lon), pat(lat)]),
            (lon, lat),
        ));
        if initiate {
            b.initiated(head(), t, body);
        } else {
            b.terminated(head(), t, body);
        }
    }
}

/// Flow and density trend CEs over consecutive readings of one sensor —
/// the "traffic flow and density trends for proactive decision-making" of
/// §4.3.
fn trends(b: &mut RuleSetBuilder, config: &TrafficRulesConfig) {
    let (int, a, s) = (b.var("tr_Int"), b.var("tr_A"), b.var("tr_S"));
    let (d1, f1) = (b.var("tr_D1"), b.var("tr_F1"));
    let (d2, f2) = (b.var("tr_D2"), b.var("tr_F2"));

    let specs: [(&str, bool, bool); 4] = [
        (ce::FLOW_TREND, true, true),     // flow up
        (ce::FLOW_TREND, true, false),    // flow down
        (ce::DENSITY_TREND, false, true), // density up
        (ce::DENSITY_TREND, false, false),
    ];
    for (i, (name, use_flow, up)) in specs.into_iter().enumerate() {
        let t1 = b.var(&format!("tr_T1_{i}"));
        let t2 = b.var(&format!("tr_T2_{i}"));
        let delta = if use_flow { config.trend_flow_delta } else { config.trend_density_delta };
        let (hi, lo) = if use_flow { (f2, f1) } else { (d2, d1) };
        let (hi, lo) = if up { (hi, lo) } else { (lo, hi) };
        b.derived_event(
            event_head(
                name,
                [pat(int), pat(a), pat(s), cnst(Term::sym(if up { "up" } else { "down" }))],
            ),
            t2,
            [
                happens(
                    event_pat(names::TRAFFIC, [pat(int), pat(a), pat(s), pat(d1), pat(f1)]),
                    t1,
                ),
                happens(
                    event_pat(names::TRAFFIC, [pat(int), pat(a), pat(s), pat(d2), pat(f2)]),
                    t2,
                ),
                guard(cmp(NumExpr::sub(hi.into(), lo.into()), CmpOp::Ge, delta)),
                guard(cmp(NumExpr::sub(t2.into(), t1.into()), CmpOp::Gt, 0.0)),
                guard(cmp(NumExpr::sub(t2.into(), t1.into()), CmpOp::Le, config.trend_window_s)),
            ],
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use insight_rtec::engine::Engine;
    use insight_rtec::event::{Event, FluentObs, Stamped};
    use insight_rtec::interval::Interval;
    use insight_rtec::window::WindowConfig;

    const INT_LON: f64 = -6.2600;
    const INT_LAT: f64 = 53.3500;

    fn engine(config: &TrafficRulesConfig) -> Engine {
        let rs = build_ruleset(config).expect("rule set builds");
        let mut e = Engine::new(rs, WindowConfig::new(10_000, 10_000).unwrap());
        e.register_builtin("close", crate::geo::close_builtin(config.close_threshold_m)).unwrap();
        e.set_relation(
            rel::SCATS_INTERSECTION,
            vec![vec![Term::int(1), Term::float(INT_LON), Term::float(INT_LAT)]],
        )
        .unwrap();
        e.set_relation(rel::AREA, vec![vec![Term::float(INT_LON), Term::float(INT_LAT)]]).unwrap();
        let close_box = crate::geo::close_box_tuples(config.close_threshold_m, [INT_LAT]);
        e.set_relation(rel::CLOSE_BOX, close_box).unwrap();
        e
    }

    fn bus_emission(
        e: &mut Engine,
        bus: i64,
        t: i64,
        lon: f64,
        lat: f64,
        congestion: i64,
        delay: i64,
    ) {
        e.add_event(Event::new(
            names::MOVE,
            [Term::int(bus), Term::int(10), Term::int(7), Term::int(delay)],
            t,
        ))
        .unwrap();
        e.add_stamped_obs(Stamped::<FluentObs>::punctual(FluentObs::new(
            names::GPS,
            [
                Term::int(bus),
                Term::float(lon),
                Term::float(lat),
                Term::int(0),
                Term::int(congestion),
            ],
            true,
            t,
        )))
        .unwrap();
    }

    fn scats_reading(e: &mut Engine, t: i64, density: f64, flow: f64) {
        e.add_event(Event::new(
            names::TRAFFIC,
            [Term::int(1), Term::int(0), Term::int(5), Term::float(density), Term::float(flow)],
            t,
        ))
        .unwrap();
    }

    fn int_args() -> Vec<Term> {
        vec![Term::float(INT_LON), Term::float(INT_LAT)]
    }

    #[test]
    fn builds_both_modes() {
        let s = build_ruleset(&TrafficRulesConfig::static_mode()).unwrap();
        let a = build_ruleset(&TrafficRulesConfig::default()).unwrap();
        let (ssf, sev, sst) = (s.sf_rules().len(), s.ev_rules().len(), s.static_rules().len());
        let (asf, aev, ast) = (a.sf_rules().len(), a.ev_rules().len(), a.static_rules().len());
        assert!(asf > ssf, "adaptive adds noisy rules");
        assert!(aev > sev, "adaptive adds disagree/agree rules");
        assert_eq!(sst, ast, "same static fluents");
        let cfg = TrafficRulesConfig { scats_reliability: true, ..Default::default() };
        let r = build_ruleset(&cfg).unwrap();
        assert!(
            (r.sf_rules().len(), r.ev_rules().len(), r.static_rules().len()).0 > asf,
            "scats reliability adds rules"
        );
    }

    #[test]
    fn scats_congestion_follows_rule_set_2() {
        let mut e = engine(&TrafficRulesConfig::static_mode());
        // congested at 360 (D high, F low), cleared at 720 (D low).
        scats_reading(&mut e, 360, 100.0, 900.0);
        scats_reading(&mut e, 720, 40.0, 1700.0);
        let rec = e.query(10_000).unwrap();
        let ivs = rec
            .intervals_of(
                ce::SCATS_CONGESTION,
                &[Term::int(1), Term::int(0), Term::int(5)],
                &Term::truth(),
            )
            .unwrap();
        assert_eq!(ivs.as_slice(), &[Interval::span(360, 720)]);
        // Intersection-level congestion mirrors its single congested sensor.
        let int_ivs =
            rec.intervals_of(ce::SCATS_INT_CONGESTION, &int_args(), &Term::truth()).unwrap();
        assert_eq!(int_ivs.as_slice(), &[Interval::span(360, 720)]);
    }

    #[test]
    fn high_density_high_flow_is_not_congestion() {
        // The fundamental diagram's conjunction: dense but flowing traffic
        // does not trigger rule-set (2).
        let mut e = engine(&TrafficRulesConfig::static_mode());
        scats_reading(&mut e, 360, 100.0, 1700.0);
        let rec = e.query(10_000).unwrap();
        assert!(rec.fluent_entries(ce::SCATS_CONGESTION).is_empty());
    }

    #[test]
    fn bus_congestion_rule_set_3() {
        let mut e = engine(&TrafficRulesConfig::static_mode());
        // Bus 1 close to the area reports congestion at 100; bus 2 clears it
        // at 400.
        bus_emission(&mut e, 1, 100, INT_LON + 0.0005, INT_LAT, 1, 0);
        bus_emission(&mut e, 2, 400, INT_LON, INT_LAT + 0.0005, 0, 0);
        // A far-away bus reporting congestion must not matter.
        bus_emission(&mut e, 3, 500, INT_LON + 0.1, INT_LAT, 1, 0);
        let rec = e.query(10_000).unwrap();
        let ivs = rec.intervals_of(ce::BUS_CONGESTION, &int_args(), &Term::truth()).unwrap();
        assert_eq!(ivs.as_slice(), &[Interval::span(100, 400)]);
    }

    #[test]
    fn source_disagreement_is_relative_complement() {
        let mut e = engine(&TrafficRulesConfig::static_mode());
        // Buses say congested during [100, 700); SCATS says congested
        // during [360, 720).
        bus_emission(&mut e, 1, 100, INT_LON, INT_LAT, 1, 0);
        bus_emission(&mut e, 1, 700, INT_LON, INT_LAT, 0, 0);
        scats_reading(&mut e, 360, 100.0, 900.0);
        scats_reading(&mut e, 720, 40.0, 1700.0);
        let rec = e.query(10_000).unwrap();
        let ivs = rec.intervals_of(ce::SOURCE_DISAGREEMENT, &int_args(), &Term::truth()).unwrap();
        assert_eq!(ivs.as_slice(), &[Interval::span(100, 360)]);
    }

    #[test]
    fn delay_increase_fires_on_sharp_growth() {
        let mut e = engine(&TrafficRulesConfig::static_mode());
        bus_emission(&mut e, 1, 100, INT_LON, INT_LAT, 0, 50);
        bus_emission(&mut e, 1, 130, INT_LON + 0.001, INT_LAT, 0, 400); // +350 in 30 s
        bus_emission(&mut e, 2, 100, INT_LON, INT_LAT, 0, 50);
        bus_emission(&mut e, 2, 130, INT_LON, INT_LAT, 0, 70); // +20: below `d`
        let rec = e.query(10_000).unwrap();
        let des = rec.events_of(ce::DELAY_INCREASE);
        assert_eq!(des.len(), 1);
        assert_eq!(des[0].args[0], Term::int(1));
        assert_eq!(des[0].time, 130);
    }

    #[test]
    fn disagree_and_agree_events() {
        let mut e = engine(&TrafficRulesConfig::default());
        // SCATS congested [360, 720).
        scats_reading(&mut e, 360, 100.0, 900.0);
        scats_reading(&mut e, 720, 40.0, 1700.0);
        // Bus says congested at 400 while SCATS agrees -> agree.
        bus_emission(&mut e, 1, 400, INT_LON, INT_LAT, 1, 0);
        // Bus says clear at 500 while SCATS says congested -> disagree negative.
        bus_emission(&mut e, 2, 500, INT_LON, INT_LAT, 0, 0);
        // Bus says congested at 800 while SCATS clear -> disagree positive.
        bus_emission(&mut e, 3, 800, INT_LON, INT_LAT, 1, 0);
        let rec = e.query(10_000).unwrap();
        let agrees = rec.events_of(ce::AGREE);
        assert_eq!(agrees.len(), 1);
        assert_eq!(agrees[0].args[0], Term::int(1));
        let disagrees = rec.events_of(ce::DISAGREE);
        assert_eq!(disagrees.len(), 2);
        let d2 = disagrees.iter().find(|d| d.args[0] == Term::int(2)).unwrap();
        assert_eq!(d2.args[3], Term::sym("negative"));
        let d3 = disagrees.iter().find(|d| d.args[0] == Term::int(3)).unwrap();
        assert_eq!(d3.args[3], Term::sym("positive"));
    }

    #[test]
    fn pessimistic_noisy_marks_on_disagreement_and_recovers_on_agreement() {
        let mut e = engine(&TrafficRulesConfig::self_adaptive(NoisyVariant::Pessimistic));
        // SCATS clear the whole time; bus 1 claims congestion at 100
        // (disagree) then reports clear at 600 close to the (clear)
        // intersection (agree).
        scats_reading(&mut e, 50, 30.0, 1700.0);
        bus_emission(&mut e, 1, 100, INT_LON, INT_LAT, 1, 0);
        bus_emission(&mut e, 1, 600, INT_LON, INT_LAT, 0, 0);
        let rec = e.query(10_000).unwrap();
        let noisy = rec.intervals_of(ce::NOISY, &[Term::int(1)], &Term::truth()).unwrap();
        assert_eq!(noisy.as_slice(), &[Interval::span(100, 600)]);
    }

    #[test]
    fn rule_set_3_prime_discards_noisy_bus_reports() {
        let mut e = engine(&TrafficRulesConfig::self_adaptive(NoisyVariant::Pessimistic));
        // SCATS clear; bus 1 reports congestion at 100 -> it becomes noisy
        // at 100, so its report must NOT create busCongestion... but note
        // the initiation and the noisy marking happen at the same instant:
        // rule (3') checks holdsAt(noisy) at T, and noisy starts at T
        // (half-open [100, ...)), so the very first disagreeing report is
        // already filtered.
        scats_reading(&mut e, 50, 30.0, 1700.0);
        bus_emission(&mut e, 1, 100, INT_LON, INT_LAT, 1, 0);
        bus_emission(&mut e, 1, 200, INT_LON, INT_LAT, 1, 0);
        let rec = e.query(10_000).unwrap();
        assert!(
            rec.intervals_of(ce::BUS_CONGESTION, &int_args(), &Term::truth()).is_none(),
            "noisy bus reports are discarded"
        );
    }

    #[test]
    fn crowd_validated_noisy_requires_crowd_confirmation() {
        let mut e = engine(&TrafficRulesConfig::self_adaptive(NoisyVariant::CrowdValidated));
        scats_reading(&mut e, 50, 30.0, 1700.0);
        // Bus 1 disagrees (positive) at 100; the only crowd answer arrives
        // 700 s later — outside the 600 s crowd window — so under rule-set
        // (4) bus 1 stays reliable.
        bus_emission(&mut e, 1, 100, INT_LON, INT_LAT, 1, 0);
        // Bus 2 disagrees at 750 and the crowd sides with SCATS (negative,
        // i.e. no congestion) at 800 -> bus 2 becomes noisy.
        bus_emission(&mut e, 2, 750, INT_LON, INT_LAT, 1, 0);
        e.add_event(crate::sde::crowd_event(INT_LON, INT_LAT, false, 800)).unwrap();
        let rec = e.query(10_000).unwrap();
        assert!(rec.intervals_of(ce::NOISY, &[Term::int(1)], &Term::truth()).is_none());
        // The crowd answer (negative) contradicts bus 2's claim (positive),
        // so no termination rule fires: bus 2 stays noisy.
        let noisy2 = rec.intervals_of(ce::NOISY, &[Term::int(2)], &Term::truth()).unwrap();
        assert_eq!(noisy2.as_slice(), &[Interval::open_from(750)]);
    }

    #[test]
    fn crowd_validated_noisy_cleared_when_crowd_proves_bus_right() {
        let mut e = engine(&TrafficRulesConfig::self_adaptive(NoisyVariant::CrowdValidated));
        scats_reading(&mut e, 50, 30.0, 1700.0);
        // Bus disagrees (positive) at 100; crowd sides with SCATS at 150
        // -> noisy from 100. Bus disagrees again at 500; crowd now sides
        // with the bus (positive) at 550 -> cleared at 500 (rule-set 4
        // terminates at the disagreement time T).
        bus_emission(&mut e, 1, 100, INT_LON, INT_LAT, 1, 0);
        e.add_event(crate::sde::crowd_event(INT_LON, INT_LAT, false, 150)).unwrap();
        bus_emission(&mut e, 1, 500, INT_LON, INT_LAT, 1, 0);
        e.add_event(crate::sde::crowd_event(INT_LON, INT_LAT, true, 550)).unwrap();
        let rec = e.query(10_000).unwrap();
        let noisy = rec.intervals_of(ce::NOISY, &[Term::int(1)], &Term::truth()).unwrap();
        assert_eq!(noisy.as_slice(), &[Interval::span(100, 500)]);
    }

    #[test]
    fn trend_events_fire_on_consecutive_readings() {
        let mut e = engine(&TrafficRulesConfig::static_mode());
        scats_reading(&mut e, 360, 30.0, 800.0);
        scats_reading(&mut e, 720, 80.0, 1400.0); // +50 density, +600 flow
        scats_reading(&mut e, 1080, 20.0, 700.0); // -60 density, -700 flow
        let rec = e.query(10_000).unwrap();
        let flows = rec.events_of(ce::FLOW_TREND);
        assert_eq!(flows.len(), 2);
        assert!(flows.iter().any(|f| f.args[3] == Term::sym("up") && f.time == 720));
        assert!(flows.iter().any(|f| f.args[3] == Term::sym("down") && f.time == 1080));
        let densities = rec.events_of(ce::DENSITY_TREND);
        assert_eq!(densities.len(), 2);
    }

    fn scats_reading_for(
        e: &mut Engine,
        sensor: i64,
        approach: i64,
        t: i64,
        density: f64,
        flow: f64,
    ) {
        e.add_event(Event::new(
            names::TRAFFIC,
            [
                Term::int(1),
                Term::int(approach),
                Term::int(sensor),
                Term::float(density),
                Term::float(flow),
            ],
            t,
        ))
        .unwrap();
    }

    #[test]
    fn n2_intersection_congestion_requires_two_simultaneous_sensors() {
        let cfg = TrafficRulesConfig {
            intersection_congestion_n: 2,
            ..TrafficRulesConfig::static_mode()
        };
        let mut e = engine(&cfg);
        e.set_relation(
            rel::SCATS_SENSOR_PAIR,
            vec![vec![Term::int(1), Term::int(5), Term::int(6)]],
        )
        .unwrap();
        // Sensor 5 congested [360, 1440); sensor 6 congested [720, 1800).
        scats_reading_for(&mut e, 5, 0, 360, 100.0, 900.0);
        scats_reading_for(&mut e, 5, 0, 1440, 30.0, 1700.0);
        scats_reading_for(&mut e, 6, 1, 720, 100.0, 900.0);
        scats_reading_for(&mut e, 6, 1, 1800, 30.0, 1700.0);
        let rec = e.query(10_000).unwrap();
        // n=2: congested only while BOTH sensors are.
        let ivs = rec.intervals_of(ce::SCATS_INT_CONGESTION, &int_args(), &Term::truth()).unwrap();
        assert_eq!(ivs.as_slice(), &[Interval::span(720, 1440)]);
    }

    #[test]
    fn n1_intersection_congestion_is_union_of_sensors() {
        let mut e = engine(&TrafficRulesConfig::static_mode());
        scats_reading_for(&mut e, 5, 0, 360, 100.0, 900.0);
        scats_reading_for(&mut e, 5, 0, 1440, 30.0, 1700.0);
        scats_reading_for(&mut e, 6, 1, 720, 100.0, 900.0);
        scats_reading_for(&mut e, 6, 1, 1800, 30.0, 1700.0);
        let rec = e.query(10_000).unwrap();
        let ivs = rec.intervals_of(ce::SCATS_INT_CONGESTION, &int_args(), &Term::truth()).unwrap();
        assert_eq!(ivs.as_slice(), &[Interval::span(360, 1800)]);
    }

    #[test]
    fn approach_congestion_mirrors_sensor_congestion() {
        let mut cfg = TrafficRulesConfig::static_mode();
        cfg.approach_congestion = true;
        let mut e = engine(&cfg);
        e.set_relation(rel::SCATS_APPROACH, vec![vec![Term::int(1), Term::int(0)]]).unwrap();
        scats_reading(&mut e, 360, 100.0, 900.0);
        scats_reading(&mut e, 720, 40.0, 1700.0);
        let rec = e.query(10_000).unwrap();
        let ivs = rec
            .intervals_of(
                ce::SCATS_APPROACH_CONGESTION,
                &[Term::int(1), Term::int(0)],
                &Term::truth(),
            )
            .unwrap();
        assert_eq!(ivs.as_slice(), &[Interval::span(360, 720)]);
        // An approach with no sensors stays absent.
        assert_eq!(rec.fluent_entries(ce::SCATS_APPROACH_CONGESTION).len(), 1);
    }

    #[test]
    fn citizen_congestion_extension() {
        let mut cfg = TrafficRulesConfig::static_mode();
        cfg.citizen_reports = true;
        let mut e = engine(&cfg);
        let report = |user: i64, t: i64, flag: i64| {
            Event::new(
                names::CITIZEN_REPORT,
                [Term::int(user), Term::float(INT_LON), Term::float(INT_LAT), Term::int(flag)],
                t,
            )
        };
        e.add_event(report(1, 100, 1)).unwrap();
        e.add_event(report(2, 500, 0)).unwrap();
        // A far-away positive report must not matter.
        e.add_event(Event::new(
            names::CITIZEN_REPORT,
            [Term::int(3), Term::float(INT_LON + 0.2), Term::float(INT_LAT), Term::int(1)],
            600,
        ))
        .unwrap();
        let rec = e.query(10_000).unwrap();
        let ivs = rec.intervals_of(ce::CITIZEN_CONGESTION, &int_args(), &Term::truth()).unwrap();
        assert_eq!(ivs.as_slice(), &[Interval::span(100, 500)]);
    }

    #[test]
    fn citizen_rules_absent_by_default() {
        let rs = build_ruleset(&TrafficRulesConfig::default()).unwrap();
        assert!(!rs
            .derived_fluents()
            .contains(&insight_rtec::term::Symbol::new(ce::CITIZEN_CONGESTION)));
    }

    #[test]
    fn noisy_scats_reconstruction() {
        let mut cfg = TrafficRulesConfig::self_adaptive(NoisyVariant::Pessimistic);
        cfg.scats_reliability = true;
        let mut e = engine(&cfg);
        // SCATS clear, crowd says congested at 200 -> sensors noisy from 200.
        scats_reading(&mut e, 50, 30.0, 1700.0);
        e.add_event(crate::sde::crowd_event(INT_LON, INT_LAT, true, 200)).unwrap();
        // Later the SCATS go congested and the crowd confirms at 800 ->
        // reliability restored.
        scats_reading(&mut e, 700, 100.0, 900.0);
        e.add_event(crate::sde::crowd_event(INT_LON, INT_LAT, true, 800)).unwrap();
        let rec = e.query(10_000).unwrap();
        let ns = rec.intervals_of(ce::NOISY_SCATS, &[Term::int(1)], &Term::truth()).unwrap();
        assert_eq!(ns.as_slice(), &[Interval::span(200, 800)]);
    }
}
