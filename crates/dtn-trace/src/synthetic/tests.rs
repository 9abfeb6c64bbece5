use super::*;
use dtn_core::graph::ContactGraph;
use dtn_core::ncl::{all_metrics, metric_skew};

#[test]
fn regime_shift_trace_moves_the_hubs() {
    let half = Duration::days(1);
    let t = regime_shift_trace(20, 3_000, 9, half);
    assert_eq!(t.midpoint(), Time(half.as_secs()));
    let first = t.slice(Time::ZERO, t.midpoint());
    let second = t.slice(t.midpoint(), Time(t.duration().as_secs()));
    let hub = |tr: &ContactTrace| {
        tr.node_contact_counts()
            .iter()
            .enumerate()
            .max_by_key(|&(_, &c)| c)
            .map(|(i, _)| i)
            .unwrap()
    };
    assert_ne!(
        hub(&first),
        hub(&second),
        "the busiest node must change across the regime boundary"
    );
}

#[test]
fn deterministic_under_seed() {
    let a = SyntheticTraceBuilder::new(10).seed(3).build();
    let b = SyntheticTraceBuilder::new(10).seed(3).build();
    assert_eq!(a, b);
    let c = SyntheticTraceBuilder::new(10).seed(4).build();
    assert_ne!(a, c);
}

#[test]
fn contact_count_matches_target_within_tolerance() {
    let target = 10_000;
    let t = SyntheticTraceBuilder::new(40)
        .duration(Duration::days(3))
        .target_contacts(target)
        .seed(11)
        .build();
    let got = t.contact_count() as f64;
    assert!(
        (got - target as f64).abs() < 0.1 * target as f64,
        "got {got} contacts for target {target}"
    );
}

#[test]
fn contacts_lie_within_duration() {
    let t = SyntheticTraceBuilder::new(15)
        .duration(Duration::hours(6))
        .seed(2)
        .build();
    for c in t.contacts() {
        assert!(c.start < c.end);
        assert!(c.end.as_secs() <= t.duration().as_secs());
    }
}

#[test]
fn scale_shrinks_duration_and_contacts_proportionally() {
    let full = SyntheticTraceBuilder::new(30)
        .duration(Duration::days(4))
        .target_contacts(20_000)
        .seed(5)
        .build();
    let tenth = SyntheticTraceBuilder::new(30)
        .duration(Duration::days(4))
        .target_contacts(20_000)
        .scale(0.1)
        .seed(5)
        .build();
    assert_eq!(tenth.duration(), Duration::days(4).mul_f64(0.1));
    let ratio = tenth.contact_count() as f64 / full.contact_count() as f64;
    assert!((ratio - 0.1).abs() < 0.05, "ratio {ratio}");
}

#[test]
fn preset_matches_table_one_statistics() {
    // Scaled down 20× to keep the test fast; density is preserved.
    let t = SyntheticTraceBuilder::from_preset(TracePreset::Infocom05)
        .scale(0.05)
        .seed(1)
        .build();
    assert_eq!(t.node_count(), 41);
    let expected = 22_459.0 * 0.05;
    let got = t.contact_count() as f64;
    assert!(
        (got - expected).abs() < 0.25 * expected,
        "got {got}, expected ≈{expected}"
    );
}

#[test]
fn metric_distribution_is_skewed_like_fig4() {
    // The heterogeneity knob must produce a clearly skewed NCL-metric
    // distribution (the paper reports up-to-tenfold max/median).
    let t = SyntheticTraceBuilder::new(40)
        .duration(Duration::days(2))
        .target_contacts(4_000)
        .heterogeneity(1.5)
        .seed(9)
        .build();
    let table = t.rate_table(Time(t.duration().as_secs()));
    let g = ContactGraph::from_rate_table(&table, Time(t.duration().as_secs()));
    let skew = metric_skew(&all_metrics(&g, 3600.0));
    assert!(skew.max_over_median > 1.5, "skew {skew:?}");
}

#[test]
fn communities_concentrate_contacts() {
    let base = SyntheticTraceBuilder::new(20)
        .duration(Duration::days(1))
        .target_contacts(4_000)
        .communities(4)
        .community_boost(8.0)
        .seed(13);
    let t = base.build();
    let (mut intra, mut inter) = (0u64, 0u64);
    for c in t.contacts() {
        if c.a.index() % 4 == c.b.index() % 4 {
            intra += 1;
        } else {
            inter += 1;
        }
    }
    // 4 communities of 5 nodes: intra pairs = 4·C(5,2)=40 of 190
    // total. With an 8× boost, intra contacts must clearly dominate
    // their 21% pair share.
    let intra_share = intra as f64 / (intra + inter) as f64;
    assert!(intra_share > 0.5, "intra share {intra_share}");
}

#[test]
fn burstiness_preserves_contact_count_but_clusters_meetings() {
    let base = SyntheticTraceBuilder::new(20)
        .duration(Duration::days(4))
        .target_contacts(12_000)
        .granularity(Duration::secs(120))
        .seed(31);
    let smooth = base.clone().build();
    let bursty = base.clone().burstiness(6.0).build();
    // Calibration holds for both.
    let (s, b) = (smooth.contact_count() as f64, bursty.contact_count() as f64);
    assert!((s - 12_000.0).abs() < 1_800.0, "smooth {s}");
    assert!((b - 12_000.0).abs() < 3_000.0, "bursty {b}");
    // Bursty contacts cluster: many consecutive same-pair gaps of
    // exactly one granularity.
    let count_small_gaps = |t: &ContactTrace| {
        let mut small = 0u32;
        let mut total = 0u32;
        for pair in crate::analysis::aggregate_intercontact_times(t) {
            total += 1;
            if pair.as_secs() <= 120 {
                small += 1;
            }
        }
        small as f64 / total.max(1) as f64
    };
    assert!(
        count_small_gaps(&bursty) > 2.0 * count_small_gaps(&smooth),
        "bursty trace must have far more back-to-back contacts"
    );
}

#[test]
fn calibration_is_invariant_under_the_process_choice() {
    // The acceptance bar for "figures stay comparable": every
    // process must land near the same contact target. Heavy-tailed
    // gap laws converge slowly, hence the per-process bands.
    let target = 12_000.0;
    for kind in ContactProcessKind::ALL {
        let t = SyntheticTraceBuilder::new(30)
            .duration(Duration::days(6))
            .target_contacts(12_000)
            .contact_process(kind)
            .seed(77)
            .build();
        let got = t.contact_count() as f64;
        let tol = match kind {
            ContactProcessKind::Poisson => 0.10,
            // One Pareto draw can swallow a pair's whole span.
            _ => 0.30,
        };
        assert!(
            (got - target).abs() < tol * target,
            "{}: got {got} contacts for target {target}",
            kind.name()
        );
    }
}

#[test]
#[should_panic(expected = "duty fraction")]
fn invalid_process_parameters_panic_at_the_builder() {
    let _ = SyntheticTraceBuilder::new(5).contact_process(ContactProcessKind::DutyCycled {
        period_secs: 3600.0,
        duty: 0.0,
    });
}

#[test]
#[should_panic(expected = "burstiness")]
fn sub_one_burstiness_panics() {
    let _ = SyntheticTraceBuilder::new(5).burstiness(0.5);
}

#[test]
#[should_panic(expected = "at least two nodes")]
fn one_node_population_panics() {
    let _ = SyntheticTraceBuilder::new(1);
}

#[test]
#[should_panic(expected = "shape must exceed 1")]
fn bad_shape_panics() {
    let _ = SyntheticTraceBuilder::new(5).heterogeneity(0.9);
}

#[test]
fn stream_matches_build_across_configurations() {
    let builders = [
        SyntheticTraceBuilder::new(12).seed(7),
        SyntheticTraceBuilder::new(30)
            .seed(17)
            .communities(3)
            .community_boost(6.0),
        SyntheticTraceBuilder::new(25).seed(23).burstiness(4.0),
        SyntheticTraceBuilder::new(40).seed(5).scale(0.3),
        SyntheticTraceBuilder::from_preset(TracePreset::Infocom05).scale(0.05),
        SyntheticTraceBuilder::new(18)
            .seed(11)
            .contact_process(ContactProcessKind::PARETO),
        SyntheticTraceBuilder::new(18)
            .seed(13)
            .contact_process(ContactProcessKind::LOGNORMAL),
        SyntheticTraceBuilder::new(18)
            .seed(19)
            .contact_process(ContactProcessKind::BOUNDED_POWER_LAW),
        SyntheticTraceBuilder::new(18)
            .seed(29)
            .burstiness(3.0)
            .contact_process(ContactProcessKind::DUTY_CYCLED),
    ];
    for builder in builders {
        let built = builder.build();
        let stream = builder.stream();
        assert_eq!(stream.node_count(), built.node_count());
        assert_eq!(stream.duration(), built.duration());
        let streamed: Vec<Contact> = stream.collect();
        assert_eq!(streamed, built.contacts(), "stream != build");
    }
}

#[test]
fn sampled_mode_streams_in_order_and_in_bounds() {
    // Above EXACT_PAIR_SWEEP_LIMIT the skip-sampled pair selection
    // kicks in; the stream must still be sorted by the trace key
    // and every contact must respect the node and time bounds.
    let builder = SyntheticTraceBuilder::new(3000)
        .duration(Duration::hours(6))
        .target_contacts(40_000)
        .edge_density(0.01)
        .communities(8)
        .seed(41);
    let stream = builder.stream();
    let duration = stream.duration();
    let mut count = 0usize;
    let mut prev: Option<Contact> = None;
    for c in stream {
        assert!(c.a.index() < 3000 && c.b.index() < 3000);
        assert!(c.a < c.b, "contacts are endpoint-normalized");
        assert!(c.end <= Time(duration.as_secs()));
        assert!(c.start < c.end);
        if let Some(p) = prev {
            assert!(
                (p.start, p.a, p.b, p.end) <= (c.start, c.a, c.b, c.end),
                "stream out of order: {p:?} before {c:?}"
            );
        }
        prev = Some(c);
        count += 1;
    }
    // Calibration is statistical; sampled pair selection keeps the
    // contact target within a loose band.
    assert!(
        (20_000..=80_000).contains(&count),
        "contact count {count} far from target"
    );
}

#[test]
fn sampled_mode_concentrates_intra_community_contacts() {
    let builder = SyntheticTraceBuilder::new(2500)
        .duration(Duration::hours(6))
        .target_contacts(30_000)
        .edge_density(0.01)
        .communities(5)
        .community_boost(8.0)
        .seed(19);
    let mut intra = 0usize;
    let mut total = 0usize;
    for c in builder.stream() {
        if c.a.index() % 5 == c.b.index() % 5 {
            intra += 1;
        }
        total += 1;
    }
    // 5 communities: uniform mixing would put ~20% of contacts
    // intra-community; the boost must pull well past that.
    assert!(total > 1_000, "degenerate trace: {total} contacts");
    assert!(
        intra as f64 / total as f64 > 0.4,
        "intra share {:.3} too low",
        intra as f64 / total as f64
    );
}

#[test]
fn empty_pair_plan_yields_empty_stream() {
    // With edge density driven to the floor and only two nodes the
    // kept-pair set can be empty; both paths must agree on that too.
    let builder = SyntheticTraceBuilder::new(2).edge_density(1e-9).seed(101);
    let built = builder.build();
    let streamed: Vec<Contact> = builder.stream().collect();
    assert_eq!(streamed, built.contacts());
}

/// The city population the scale harness streams, at `nodes`.
fn city(nodes: usize) -> SyntheticTraceBuilder {
    SyntheticTraceBuilder::new(nodes)
        .duration(Duration::days(2))
        .target_contacts(25 * nodes as u64)
        .communities((nodes / 500).clamp(4, 4096))
        .community_boost(6.0)
        .edge_density(12.0 / (nodes - 1) as f64)
        .seed(42)
}

#[test]
fn a_kept_pair_streams_from_at_most_120_bytes() {
    // 1 500 nodes sweep every pair, 5 000 skip-sample them.
    for nodes in [1_500, 5_000] {
        let builder = city(nodes);
        let pairs = builder.plan().pairs.len();
        let stream = builder.stream();
        let per_pair = stream.heap_bytes() / pairs;
        assert!(pairs > 4 * nodes, "{nodes} nodes kept {pairs} pairs");
        assert!(per_pair <= 120, "{nodes} nodes: {per_pair} B per kept pair");
        // A block past the reserve may regrow a buffer, rarely.
        let mut drained = stream;
        for _ in drained.by_ref().take(10 * nodes) {}
        assert!(drained.heap_bytes() / pairs <= 120);
    }
}

/// Equal-start groups of a time-ordered contact list whose ends differ:
/// runs of two or more contacts of one pair at one start, which the
/// stream must send in order of end.
fn equal_start_groups(contacts: &[Contact]) -> usize {
    contacts
        .chunk_by(|x, y| (x.start, x.a, x.b) == (y.start, y.a, y.b))
        .filter(|run| run.first().map(|c| c.end) != run.last().map(|c| c.end))
        .count()
}

#[test]
fn equal_start_groups_stream_as_built_under_every_process() {
    // Sessions a fraction of a second apart: most runs end on a start
    // the next session truncates to again, and those ties come out by
    // end, not by generation order.
    for kind in ContactProcessKind::ALL {
        for burstiness in [1.0, 3.0] {
            let builder = SyntheticTraceBuilder::new(4)
                .duration(Duration::hours(1))
                .target_contacts(40_000)
                .edge_density(1.0)
                .burstiness(burstiness)
                .contact_process(kind)
                .seed(3);
            let built = builder.build();
            let groups = equal_start_groups(built.contacts());
            assert!(groups > 0, "{}: no equal-start group", kind.name());
            let streamed: Vec<Contact> = builder.stream().collect();
            assert_eq!(
                streamed,
                built.contacts(),
                "{}: stream != build",
                kind.name()
            );
        }
    }
}

#[test]
fn pairs_sharing_a_start_come_out_in_a_b_order() {
    // A hand-made plan whose pairs are listed against `(a, b)` order, as
    // the skip-sampled selection lists them: the merge orders them.
    let base = SyntheticTraceBuilder::new(4)
        .duration(Duration::hours(1))
        .target_contacts(20_000)
        .edge_density(1.0)
        .seed(5)
        .plan();
    let mut plan = base.clone();
    plan.pairs.reverse();
    plan.pairs.swap(1, 4);
    let streamed: Vec<Contact> = ContactStream::new(plan, 20_000).collect();
    let expected: Vec<Contact> = ContactStream::new(base, 20_000).collect();
    assert_eq!(
        streamed, expected,
        "the merge follows (a, b), not plan order"
    );
    let shared = streamed
        .windows(2)
        .filter(|w| w[0].start == w[1].start && (w[0].a, w[0].b) != (w[1].a, w[1].b))
        .count();
    assert!(shared > 100, "only {shared} starts shared across pairs");
    for w in streamed.windows(2) {
        assert!(
            (w[0].start, w[0].a, w[0].b, w[0].end) <= (w[1].start, w[1].a, w[1].b, w[1].end),
            "{:?} before {:?}",
            w[0],
            w[1]
        );
    }
}

/// The sorting build `build` replaced: every pair's raw contacts
/// collected pair by pair and put through `ContactTrace::new`'s sort.
fn sorted_reference(builder: &SyntheticTraceBuilder) -> ContactTrace {
    let plan = builder.plan();
    let mut contacts = Vec::new();
    for pair in &plan.pairs {
        let mut gen = stream::PairContacts::new(pair, &plan.constants);
        while let Some((start, end)) = gen.next_raw(&plan.constants) {
            contacts.push(Contact::new(pair.a, pair.b, start, end));
        }
    }
    ContactTrace::new(plan.nodes, contacts, plan.trace_duration)
}

/// Blocks the merge cuts `builder`'s span into, on both paths.
fn blocks(builder: &SyntheticTraceBuilder) -> usize {
    let pairs = builder.plan().pairs.len();
    (builder.calibrated_contacts() as usize / stream::BLOCK_CONTACTS.max(pairs / 4)).max(1)
}

#[test]
fn build_merges_what_a_sort_orders_under_every_process() {
    let exact = SyntheticTraceBuilder::new(60)
        .duration(Duration::days(2))
        .target_contacts(20_000)
        .communities(3)
        .seed(37);
    // Above the exact-sweep limit: pairs come out of the skip sampler
    // against `(a, b)` order.
    let sampled = SyntheticTraceBuilder::new(2_500)
        .duration(Duration::hours(12))
        .target_contacts(20_000)
        .edge_density(0.001)
        .seed(43);
    let one_block = SyntheticTraceBuilder::new(10)
        .duration(Duration::hours(6))
        .target_contacts(1_500)
        .seed(47);
    // Blocks of under two hours: at burstiness 3 many runs of
    // re-detections straddle a block edge.
    let many_blocks = SyntheticTraceBuilder::new(40)
        .duration(Duration::hours(12))
        .target_contacts(40_000)
        .granularity(Duration::secs(300))
        .seed(53);
    assert!(blocks(&exact) >= 4 && blocks(&sampled) >= 4);
    assert!(blocks(&many_blocks) >= 8);
    assert_eq!(blocks(&one_block), 1);
    for base in [exact, sampled, one_block, many_blocks] {
        for kind in ContactProcessKind::ALL {
            for burstiness in [1.0, 3.0] {
                let builder = base.clone().burstiness(burstiness).contact_process(kind);
                let built = builder.build();
                assert!(built.contact_count() > 500, "{}: degenerate", kind.name());
                let sorted = sorted_reference(&builder);
                assert_eq!(
                    built,
                    sorted,
                    "{} at burstiness {burstiness}: build != sort",
                    kind.name()
                );
                let streamed: Vec<Contact> = builder.stream().collect();
                assert_eq!(
                    streamed,
                    sorted.contacts(),
                    "{} at burstiness {burstiness}: stream != sort",
                    kind.name()
                );
            }
        }
    }
}

#[test]
fn a_built_trace_keeps_its_reserve_and_no_doubling_slack() {
    // Calibrated at 9 000: the first seed falls short of the reserve, the
    // second overruns it and grows by exactly what overran.
    let builder = |seed| {
        SyntheticTraceBuilder::new(30)
            .duration(Duration::days(1))
            .target_contacts(9_000)
            .seed(seed)
    };
    let (short, over) = (builder(1), builder(3));
    for (builder, overruns) in [(short, false), (over, true)] {
        let reserve = builder.calibrated_contacts() as usize;
        let contacts = builder.merge_blocks(builder.plan());
        assert_eq!(
            contacts.len() > reserve,
            overruns,
            "{} contacts",
            contacts.len()
        );
        assert_eq!(contacts.capacity(), contacts.len().max(reserve));
        assert_eq!(contacts, sorted_reference(&builder).contacts());
    }
}
