//! Property-based tests over the workspace's core invariants, spanning
//! crates: runtime scheduling/reduction laws, message-passing semantics,
//! the payload codec, the statistics stack, and the reconstruction
//! solver.

use std::collections::{BTreeMap, HashMap};

use proptest::prelude::*;
use serde::{Deserialize, Serialize};

use pdc_mpc::codec::{decode, encode};
use pdc_mpc::{ops, World};
use pdc_shmem::{parallel_for, parallel_reduce, Schedule, Team};
use pdc_stats::describe::{mean, round_to, variance};
use pdc_stats::dist::StudentT;
use pdc_stats::ttest::paired_t_test;

fn schedule_strategy() -> impl Strategy<Value = Schedule> {
    prop_oneof![
        Just(Schedule::Static { chunk: None }),
        (1usize..5).prop_map(|c| Schedule::Static { chunk: Some(c) }),
        (1usize..5).prop_map(|c| Schedule::Dynamic { chunk: c }),
        (1usize..5).prop_map(|m| Schedule::Guided { min_chunk: m }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn every_schedule_visits_every_index_exactly_once(
        schedule in schedule_strategy(),
        threads in 1usize..6,
        len in 0usize..200,
    ) {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let team = Team::new(threads);
        let counts: Vec<AtomicUsize> = (0..len).map(|_| AtomicUsize::new(0)).collect();
        parallel_for(&team, 0..len, schedule, |i, _| {
            counts[i].fetch_add(1, Ordering::Relaxed);
        });
        for (i, c) in counts.iter().enumerate() {
            prop_assert_eq!(c.load(Ordering::Relaxed), 1, "index {}", i);
        }
    }

    #[test]
    fn parallel_reduce_equals_sequential_fold(
        schedule in schedule_strategy(),
        threads in 1usize..6,
        data in prop::collection::vec(0u64..1000, 0..120),
    ) {
        let team = Team::new(threads);
        let got = parallel_reduce(
            &team, 0..data.len(), schedule, 0u64, |i| data[i], |a, b| a + b);
        prop_assert_eq!(got, data.iter().sum::<u64>());
    }

    #[test]
    fn allreduce_sum_equals_rank_sum(np in 1usize..7) {
        let out = World::new(np).run(|c| c.allreduce(c.rank() as u64, ops::sum).unwrap());
        let want: u64 = (0..np as u64).sum();
        prop_assert!(out.iter().all(|&v| v == want));
    }

    #[test]
    fn gather_preserves_rank_order(np in 1usize..7, base in 0usize..100) {
        let out = World::new(np).run(|c| c.gather(0, c.rank() * 3 + base).unwrap());
        let want: Vec<usize> = (0..np).map(|r| r * 3 + base).collect();
        prop_assert_eq!(out[0].as_ref().unwrap(), &want);
    }

    #[test]
    fn ring_send_recv_never_loses_messages(np in 2usize..7, payload in any::<u32>()) {
        let out = World::new(np).run(|c| {
            let next = (c.rank() + 1) % c.size();
            let prev = (c.rank() + c.size() - 1) % c.size();
            c.send(next, 0, &(payload ^ c.rank() as u32)).unwrap();
            c.recv::<u32>(prev, 0).unwrap()
        });
        for (r, got) in out.iter().enumerate() {
            let prev = (r + np - 1) % np;
            prop_assert_eq!(*got, payload ^ prev as u32);
        }
    }

    #[test]
    fn mean_bounds_and_variance_nonneg(data in prop::collection::vec(-1e6f64..1e6, 1..60)) {
        let m = mean(&data).unwrap();
        let lo = data.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = data.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(m >= lo - 1e-6 && m <= hi + 1e-6);
        prop_assert!(variance(&data).unwrap() >= -1e-9);
    }

    #[test]
    fn t_cdf_is_monotone_and_bounded(nu in 1.0f64..100.0, a in -20.0f64..20.0, b in -20.0f64..20.0) {
        let d = StudentT::new(nu).unwrap();
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(d.cdf(lo) <= d.cdf(hi) + 1e-12);
        prop_assert!((0.0..=1.0).contains(&d.cdf(a)));
    }

    #[test]
    fn paired_t_is_antisymmetric(
        pre in prop::collection::vec(1.0f64..5.0, 4..30),
    ) {
        // Construct a post with guaranteed non-degenerate differences.
        let post: Vec<f64> = pre.iter().enumerate()
            .map(|(i, &v)| (v + (i % 3) as f64 * 0.5 + 0.25).min(5.0))
            .collect();
        if let Ok(fwd) = paired_t_test(&pre, &post) {
            let rev = paired_t_test(&post, &pre).unwrap();
            prop_assert!((fwd.t + rev.t).abs() < 1e-10);
            prop_assert!((fwd.p_two_sided - rev.p_two_sided).abs() < 1e-12);
        }
    }

    #[test]
    fn reconstructed_mean_vectors_round_trip(total_pct in 100usize..500) {
        let target = round_to(total_pct as f64 / 100.0, 2);
        if let Some((v, n)) = pdc_assessment::reconstruct_mean_vector(target, 22) {
            prop_assert_eq!(v.len(), n);
            prop_assert_eq!(v.reported_mean(), target);
            prop_assert!(v.values().iter().all(|&x| (1..=5).contains(&x)));
        }
    }

    #[test]
    fn fire_damage_within_bounds(size in 1usize..25, seed in any::<u64>(), prob in 0.0f64..1.0) {
        let r = pdc_exemplars::forestfire::simulate_fire(size, prob, seed);
        prop_assert!(r.burned_pct > 0.0, "centre always burns");
        prop_assert!(r.burned_pct <= 100.0);
        prop_assert!(r.iterations >= 1);
        // Each iteration past the first requires at least one fresh
        // ignition, and every tree ignites at most once.
        prop_assert!(r.iterations <= size * size + 1);
    }

    #[test]
    fn lcs_score_is_symmetric_in_containment(lig in "[a-e]{1,6}", prot in "[a-e]{1,30}") {
        use pdc_exemplars::drugdesign::score;
        let s = score(&lig, &prot);
        prop_assert!(s <= lig.len().min(prot.len()));
        // Appending to the protein never lowers the score.
        let longer = format!("{prot}x");
        prop_assert!(score(&lig, &longer) >= s);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn parallel_scan_matches_sequential(
        data in prop::collection::vec(0u64..1000, 0..150),
        threads in 1usize..6,
    ) {
        use pdc_shmem::scan::parallel_inclusive_scan;
        let mut par = data.clone();
        parallel_inclusive_scan(&Team::new(threads), &mut par, |a, b| a + b);
        let mut acc = 0u64;
        let seq: Vec<u64> = data.iter().map(|&x| { acc += x; acc }).collect();
        prop_assert_eq!(par, seq);
    }

    #[test]
    fn cart_coords_rank_bijection(a in 1usize..5, b in 1usize..5) {
        use pdc_mpc::CartComm;
        World::new(a * b).run(|comm| {
            let cart = CartComm::create(comm, &[a, b], &[false, true]).unwrap();
            for r in 0..a * b {
                let coords = cart.coords_of(r);
                assert_eq!(cart.rank_of(&coords).unwrap(), r);
            }
        });
    }

    #[test]
    fn dims_create_always_factors(n in 1usize..200, d in 1usize..4) {
        let dims = pdc_mpc::dims_create(n, d);
        prop_assert_eq!(dims.iter().product::<usize>(), n);
        prop_assert_eq!(dims.len(), d);
        // Balanced: sorted descending.
        for w in dims.windows(2) {
            prop_assert!(w[0] >= w[1]);
        }
    }

    #[test]
    fn bootstrap_ci_brackets_the_mean(
        data in prop::collection::vec(1.0f64..5.0, 5..40),
        seed in any::<u64>(),
    ) {
        let ci = pdc_stats::bootstrap_mean_ci(&data, 300, 0.05, seed).unwrap();
        let m = mean(&data).unwrap();
        // Percentile CIs from resampled means always bracket a value
        // within the data's range; the mean lies inside up to resampling
        // granularity.
        prop_assert!(ci.lo <= m + 1e-9 && m - 1e-9 <= ci.hi, "{:?} vs {}", ci, m);
    }

    #[test]
    fn wilcoxon_agrees_with_t_on_strong_shifts(
        base in prop::collection::vec(1.0f64..3.0, 12..25),
    ) {
        use pdc_stats::wilcoxon_signed_rank;
        // A uniform +1.5 shift with small deterministic jitter: both
        // tests must call it significant.
        let post: Vec<f64> = base
            .iter()
            .enumerate()
            .map(|(i, &v)| v + 1.5 + 0.1 * ((i % 3) as f64))
            .collect();
        let t = paired_t_test(&base, &post).unwrap();
        let w = wilcoxon_signed_rank(&base, &post).unwrap();
        prop_assert!(t.p_two_sided < 0.01);
        prop_assert!(w.p_two_sided < 0.01);
    }

    #[test]
    fn parsons_rejects_every_nontrivial_permutation(swap_a in 0usize..5, swap_b in 0usize..5) {
        use pdc_courseware::Parsons;
        let p = Parsons::spmd_problem();
        let mut ans = p.solution.clone();
        ans.swap(swap_a, swap_b);
        let g = p.grade(&ans);
        prop_assert_eq!(g.correct, swap_a == swap_b, "{}", g.feedback);
    }

    #[test]
    fn heat_mpc_matches_seq_for_any_rank_count(np in 1usize..6, cells in 1usize..30) {
        use pdc_exemplars::heat::{run_mpc, run_seq, HeatConfig};
        let config = HeatConfig {
            cells,
            steps: 25,
            ..Default::default()
        };
        prop_assert_eq!(run_mpc(&config, np), run_seq(&config));
    }

    #[test]
    fn pandemic_counts_conserve_population(agents in 10usize..60, seed in any::<u64>()) {
        use pdc_exemplars::pandemic::{run_seq, PandemicConfig};
        let config = PandemicConfig {
            agents,
            days: 12,
            seed,
            ..Default::default()
        };
        for day in run_seq(&config) {
            prop_assert_eq!(day.s + day.i + day.r, agents);
        }
    }
}

// ---------------------------------------------------------------------
// The typed-message payload codec (`pdc_mpc::codec`).
// ---------------------------------------------------------------------

/// Text with JSON escapes, control characters and non-ASCII code points.
const TEXT: &str = "[a-c\"\\\n\t\u{1}/é中😀]{0,10}";

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
enum Shape {
    Empty,
    Radius(f64),
    Point(f64, f64),
    Named { label: String, sides: u8 },
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Nested {
    grid: Vec<Vec<f64>>,
    maybe: Option<i64>,
    triple: (u64, String, bool),
    sorted: BTreeMap<String, Vec<u32>>,
    hashed: HashMap<String, Option<f64>>,
    shapes: Vec<Shape>,
}

/// Ordinary `f64`s plus the edge values a text codec mangles (NaN is
/// covered bit for bit by `tests/payload_fidelity.rs`; it would defeat
/// the `==` below).
fn float() -> impl Strategy<Value = f64> {
    prop_oneof![
        any::<f64>(),
        Just(f64::INFINITY),
        Just(f64::NEG_INFINITY),
        Just(-0.0),
        Just(f64::MAX),
        Just(f64::MIN_POSITIVE),
        Just(5e-324),
        Just(0.1 + 0.2),
    ]
}

fn shape() -> impl Strategy<Value = Shape> {
    prop_oneof![
        Just(Shape::Empty),
        float().prop_map(Shape::Radius),
        prop::collection::vec(float(), 2..3).prop_map(|xy| Shape::Point(xy[0], xy[1])),
        TEXT.prop_map(|label| Shape::Named { label, sides: 3 }),
    ]
}

fn maybe_int() -> impl Strategy<Value = Option<i64>> {
    prop_oneof![Just(None), any::<i64>().prop_map(Some)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn codec_round_trips_nested_payloads(
        grid in prop::collection::vec(prop::collection::vec(float(), 0..5), 0..5),
        maybe in maybe_int(),
        big in any::<u64>(),
        text in TEXT,
        flag in any::<bool>(),
        keys in prop::collection::vec(TEXT, 0..4),
        counts in prop::collection::vec(any::<u32>(), 0..4),
        shapes in prop::collection::vec(shape(), 0..4),
    ) {
        let nested = Nested {
            grid,
            maybe,
            triple: (big, text, flag),
            sorted: keys.iter().map(|k| (k.clone(), counts.clone())).collect(),
            hashed: keys
                .iter()
                .enumerate()
                .map(|(i, k)| (k.clone(), (i % 2 == 0).then_some(i as f64 * -0.5)))
                .collect(),
            shapes,
        };
        let bytes = encode(&nested).unwrap();
        let back: Nested = decode(&bytes).unwrap();
        prop_assert_eq!(&back, &nested);
        // `==` cannot see the sign of -0.0; the re-encoded bits can.
        prop_assert_eq!(encode(&back).unwrap(), bytes);
    }

    #[test]
    fn codec_decode_never_panics_on_hostile_bytes(
        noise in prop::collection::vec(any::<u8>(), 0..64),
        grid in prop::collection::vec(prop::collection::vec(float(), 0..4), 1..4),
        label in TEXT,
        flip in any::<usize>(),
    ) {
        // Arbitrary bytes: an error or some value, never a panic.
        let _ = decode::<serde_json::Value>(&noise);
        let _ = decode::<Vec<Vec<f64>>>(&noise);
        let valid = encode(&(grid, label, Shape::Point(1.0, -2.0))).unwrap();
        // The encoding is self-delimiting, so every strict prefix is
        // an error.
        for cut in 0..valid.len() {
            prop_assert!(decode::<serde_json::Value>(&valid[..cut]).is_err(), "prefix {}", cut);
        }
        let mut flipped = valid.to_vec();
        let bit = flip % (flipped.len() * 8);
        flipped[bit / 8] ^= 1 << (bit % 8);
        let _ = decode::<serde_json::Value>(&flipped);
        let _ = decode::<(Vec<Vec<f64>>, String, Shape)>(&flipped);
    }
}

/// The codec's tag byte for an array, read off a real encoding.
fn array_tag() -> u8 {
    encode(&Vec::<u8>::new()).unwrap()[0]
}

#[test]
fn codec_refuses_a_length_prefix_larger_than_the_input() {
    for empty in [
        encode(&Vec::<u8>::new()),
        encode(""),
        encode(&BTreeMap::<String, u8>::new()),
    ] {
        let mut bytes = empty.unwrap().to_vec();
        assert_eq!(bytes.len(), 5, "tag + u32 length");
        bytes[1..].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(decode::<serde_json::Value>(&bytes).is_err());
    }
}

#[test]
fn codec_refuses_ten_thousand_nested_arrays() {
    let mut bytes = Vec::new();
    for _ in 0..10_000 {
        bytes.push(array_tag());
        bytes.extend_from_slice(&1u32.to_le_bytes());
    }
    bytes.extend_from_slice(&encode(&()).unwrap());
    let err = decode::<serde_json::Value>(&bytes).unwrap_err();
    assert!(err.to_string().contains("deeper"), "{err}");
    // Bare tags with no lengths at all are refused too.
    assert!(decode::<serde_json::Value>(&vec![array_tag(); 10_000]).is_err());
}
