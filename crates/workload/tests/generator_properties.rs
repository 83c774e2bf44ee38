//! Property-based tests of the synthetic workload generator, the
//! characteristics measurement and the stream fingerprint.

use std::collections::{HashMap, HashSet};

use proptest::prelude::*;

use micco_workload::{
    from_text, to_text, DataCharacteristics, RepeatDistribution, TensorId, TensorPairStream,
    Vector, WorkloadSpec,
};

const DISTRIBUTIONS: [RepeatDistribution; 3] = [
    RepeatDistribution::Uniform,
    RepeatDistribution::Gaussian,
    RepeatDistribution::Zipf,
];

/// Any generator spec: every distribution, and sometimes per-vector tensor
/// dims and vector sizes (an empty draw keeps the spec's single value).
fn spec() -> impl Strategy<Value = WorkloadSpec> {
    (
        (
            1usize..32,
            4usize..64,
            0.0f64..=1.0,
            0usize..DISTRIBUTIONS.len(),
        ),
        (1usize..6, any::<u64>(), 1usize..6),
        (
            proptest::collection::vec(4usize..64, 0..4),
            proptest::collection::vec(1usize..32, 0..4),
        ),
    )
        .prop_map(
            |((vs, dim, rate, dist), (nv, seed, batch), (dims, sizes))| {
                let mut spec = WorkloadSpec::new(vs, dim)
                    .with_repeat_rate(rate)
                    .with_distribution(DISTRIBUTIONS[dist])
                    .with_vectors(nv)
                    .with_seed(seed)
                    .with_batch(batch);
                if !dims.is_empty() {
                    spec = spec.with_dim_choices(dims);
                }
                if !sizes.is_empty() {
                    spec = spec.with_vector_size_choices(sizes);
                }
                spec
            },
        )
}

/// XXH64 (seed 0) of `input`, written byte slice by byte slice from the
/// spec (<https://github.com/Cyan4973/xxHash/blob/dev/doc/xxhash_spec.md>).
fn xxh64(input: &[u8]) -> u64 {
    const P1: u64 = 0x9E37_79B1_85EB_CA87;
    const P2: u64 = 0xC2B2_AE3D_27D4_EB4F;
    const P3: u64 = 0x1656_67B1_9E37_79F9;
    const P4: u64 = 0x85EB_CA77_C2B2_AE63;
    const P5: u64 = 0x27D4_EB2F_1656_67C5;
    fn round(acc: u64, lane: u64) -> u64 {
        acc.wrapping_add(lane.wrapping_mul(P2))
            .rotate_left(31)
            .wrapping_mul(P1)
    }
    fn merge(acc: u64, lane: u64) -> u64 {
        (acc ^ round(0, lane)).wrapping_mul(P1).wrapping_add(P4)
    }
    let u64_at = |b: &[u8]| u64::from_le_bytes(b[..8].try_into().expect("8 bytes"));
    let mut rest = input;
    let mut acc = if input.len() >= 32 {
        let mut lanes = [P1.wrapping_add(P2), P2, 0, P1.wrapping_neg()];
        while rest.len() >= 32 {
            for (i, lane) in lanes.iter_mut().enumerate() {
                *lane = round(*lane, u64_at(&rest[8 * i..]));
            }
            rest = &rest[32..];
        }
        let mut acc = lanes[0]
            .rotate_left(1)
            .wrapping_add(lanes[1].rotate_left(7))
            .wrapping_add(lanes[2].rotate_left(12))
            .wrapping_add(lanes[3].rotate_left(18));
        for lane in lanes {
            acc = merge(acc, lane);
        }
        acc
    } else {
        P5
    };
    acc = acc.wrapping_add(input.len() as u64);
    while rest.len() >= 8 {
        acc = (acc ^ round(0, u64_at(rest)))
            .rotate_left(27)
            .wrapping_mul(P1)
            .wrapping_add(P4);
        rest = &rest[8..];
    }
    if rest.len() >= 4 {
        let lane = u32::from_le_bytes(rest[..4].try_into().expect("4 bytes")) as u64;
        acc = (acc ^ lane.wrapping_mul(P1))
            .rotate_left(23)
            .wrapping_mul(P2)
            .wrapping_add(P3);
        rest = &rest[4..];
    }
    for &byte in rest {
        acc = (acc ^ (byte as u64).wrapping_mul(P5))
            .rotate_left(11)
            .wrapping_mul(P1);
    }
    acc ^= acc >> 33;
    acc = acc.wrapping_mul(P2);
    acc ^= acc >> 29;
    acc = acc.wrapping_mul(P3);
    acc ^ (acc >> 32)
}

/// The stream fingerprint's definition: XXH64 of a stage marker and task
/// count per vector, then every field of every task, each a little-endian
/// `u64`. Store keys and the golden plan corpus depend on this exact value.
fn reference_fingerprint(vectors: &[Vector]) -> u64 {
    let mut bytes = Vec::new();
    let mut put = |value: u64| bytes.extend_from_slice(&value.to_le_bytes());
    for v in vectors {
        // a stage marker keeps [t0 | t1] distinct from [t0, t1]
        put(u64::MAX);
        put(v.tasks.len() as u64);
        for t in &v.tasks {
            put(t.id.0);
            put(t.a.id.0);
            put(t.a.bytes);
            put(t.b.id.0);
            put(t.b.bytes);
            put(t.out.id.0);
            put(t.out.bytes);
            put(t.flops);
        }
    }
    xxh64(&bytes)
}

/// `stream` with `change` applied to a copy of its vectors.
fn rebuilt(stream: &TensorPairStream, change: impl FnOnce(&mut Vec<Vector>)) -> TensorPairStream {
    let mut vectors = stream.clone().into_vectors();
    change(&mut vectors);
    TensorPairStream::new(vectors)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Structural invariants of any generated stream.
    #[test]
    fn stream_is_well_formed(spec in spec()) {
        let s = spec.generate();
        prop_assert_eq!(s.vectors().len(), spec.num_vectors);
        let mut task_ids = HashSet::new();
        let mut out_ids = HashSet::new();
        for v in s.vectors() {
            match &spec.vector_size_choices {
                Some(sizes) => prop_assert!(sizes.contains(&v.len()), "size drawn from the choices"),
                None => prop_assert_eq!(v.len(), spec.vector_size),
            }
            for t in &v.tasks {
                prop_assert!(task_ids.insert(t.id), "task ids unique");
                prop_assert!(out_ids.insert(t.out.id), "output ids unique");
                prop_assert!(t.out.id.0 >= 1 << 40, "outputs in their own range");
                prop_assert!(t.a.id.0 < 1 << 40);
                prop_assert!(t.b.id.0 < 1 << 40);
                prop_assert_eq!(t.a.bytes, t.b.bytes);
                prop_assert!(t.flops > 0);
            }
        }
    }

    /// Generation is a pure function of the spec.
    #[test]
    fn generation_deterministic(spec in spec()) {
        prop_assert_eq!(spec.generate(), spec.generate());
    }

    /// A rate-zero stream has no repeated input slots at all; a rate-one
    /// stream repeats every slot after the seed vector, except the first
    /// slot of a tensor shape no earlier vector had (repeats reference
    /// only tensors of their own shape, and there is none yet).
    #[test]
    fn rate_extremes(spec in spec()) {
        let fresh = spec.clone().with_repeat_rate(0.0).generate();
        let mut seen = HashSet::new();
        for v in fresh.vectors() {
            for t in &v.tasks {
                prop_assert!(seen.insert(t.a.id) && seen.insert(t.b.id), "rate 0 must be all fresh");
            }
        }
        let full = spec.with_repeat_rate(1.0).generate();
        // one pool per shape; a shape's footprint identifies it
        let mut pools: HashMap<u64, HashSet<TensorId>> = HashMap::new();
        for (vi, v) in full.vectors().iter().enumerate() {
            for t in &v.tasks {
                for d in [t.a, t.b] {
                    let pool = pools.entry(d.bytes).or_default();
                    if vi > 0 && !pool.is_empty() {
                        prop_assert!(pool.contains(&d.id), "rate 1 must repeat after the seed vector");
                    }
                    pool.insert(d.id);
                }
            }
        }
    }

    /// Measured characteristics are within their documented ranges and the
    /// measured repeat rate of steady-state vectors tracks the spec rate.
    #[test]
    fn characteristics_in_range(spec in spec()) {
        let s = spec.generate();
        let mut seen = HashSet::new();
        for v in s.vectors() {
            let c = DataCharacteristics::measure(v, &mut seen);
            prop_assert_eq!(c.vector_size, v.len());
            prop_assert!((0.0..=1.0).contains(&c.repeated_rate));
            prop_assert!((0.0..=1.0).contains(&c.distribution_bias));
            prop_assert!(c.tensor_bytes > 0.0);
            let f = c.features();
            prop_assert!(f.iter().all(|x| x.is_finite()));
        }
    }

    /// The text serialisation round-trips any generated stream exactly.
    #[test]
    fn serialization_roundtrips(spec in spec()) {
        let stream = spec.generate();
        let text = to_text(&stream);
        let back = from_text(&text).expect("own output must parse");
        prop_assert_eq!(stream, back);
    }

    /// Working-set accounting: unique bytes never exceed the naive total
    /// and never fall below one vector's share.
    #[test]
    fn unique_bytes_bounds(spec in spec()) {
        let s = spec.generate();
        let naive: u64 = s
            .vectors()
            .iter()
            .flat_map(|v| v.tasks.iter())
            .map(|t| t.a.bytes + t.b.bytes + t.out.bytes)
            .sum();
        prop_assert!(s.unique_bytes() <= naive);
        prop_assert!(s.peak_vector_bytes() <= s.unique_bytes());
        for v in s.vectors() {
            prop_assert!(v.unique_bytes() <= s.unique_bytes());
        }
    }

    /// A generated stream's fingerprint is the reference XXH64 of its
    /// vectors, and a text round trip (a fresh stream that has computed
    /// nothing yet) fingerprints the same.
    #[test]
    fn fingerprint_matches_the_reference(spec in spec()) {
        let stream = spec.generate();
        let expected = reference_fingerprint(stream.vectors());
        prop_assert_eq!(stream.fingerprint(), expected);
        // the cached value is what a second call returns
        prop_assert_eq!(stream.fingerprint(), expected);
        let back = from_text(&to_text(&stream)).expect("own output must parse");
        prop_assert_eq!(back.fingerprint(), expected);
    }

    /// Every way of changing a stream goes through its vectors and a new
    /// stream, so a fingerprint cached before the change never answers
    /// for the changed stream: each change fingerprints differently, and
    /// as the reference does for the changed vectors.
    #[test]
    fn a_changed_stream_never_keeps_a_stale_fingerprint(spec in spec()) {
        let base = spec.generate();
        let cached = base.fingerprint();
        let mut changed = vec![
            ("flops", rebuilt(&base, |v| v.last_mut().unwrap().tasks[0].flops += 1)),
            ("operand bytes", rebuilt(&base, |v| v[0].tasks[0].a.bytes += 1)),
            ("trailing empty vector", rebuilt(&base, |v| v.push(Vector::default()))),
        ];
        if let Some(at) = base.vectors().iter().position(|v| v.len() >= 2) {
            changed.push(("two tasks swapped", rebuilt(&base, |v| v[at].tasks.swap(0, 1))));
        }
        if base.vectors().len() >= 2 {
            changed.push((
                "stage boundary moved",
                rebuilt(&base, |v| {
                    let task = v[0].tasks.pop().unwrap();
                    v[1].tasks.insert(0, task);
                }),
            ));
        }
        for (what, stream) in &changed {
            prop_assert_ne!(stream.fingerprint(), cached, "{} must change the fingerprint", what);
            prop_assert_eq!(stream.fingerprint(), reference_fingerprint(stream.vectors()), "{}", what);
        }
        prop_assert_eq!(base.fingerprint(), cached);
    }

    /// Clones keep the fingerprint, and equality looks at the vectors
    /// only: a stream equals its clone whether or not either has computed
    /// its fingerprint.
    #[test]
    fn clones_keep_the_fingerprint_and_equality_ignores_it(spec in spec()) {
        let a = spec.generate();
        let b = a.clone();
        prop_assert_eq!(&a, &b);
        let fp = a.fingerprint();
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(&b, &a);
        let c = a.clone();
        prop_assert_eq!(&c, &b);
        prop_assert_eq!(c.fingerprint(), fp);
        prop_assert_eq!(b.fingerprint(), fp);
        prop_assert_eq!(&spec.generate(), &a);
    }
}

/// The reference is XXH64: it reproduces the spec's published vectors,
/// the last of which (39 bytes) runs the stripe loop and every tail step.
#[test]
fn the_reference_hash_reproduces_the_published_xxh64_vectors() {
    assert_eq!(xxh64(b""), 0xef46_db37_51d8_e999);
    assert_eq!(xxh64(b"a"), 0xd24e_c4f1_a98c_6e5b);
    assert_eq!(xxh64(b"abc"), 0x44bc_2cf5_ad77_0999);
    assert_eq!(
        xxh64(b"Nobody inspects the spammish repetition"),
        0xfbce_a83c_8a37_8bf1
    );
}

#[test]
fn the_empty_stream_is_the_default_and_hashes_to_xxh64_of_nothing() {
    let empty = TensorPairStream::new(vec![]);
    assert_eq!(TensorPairStream::default(), empty);
    assert_eq!(empty.fingerprint(), 0xef46_db37_51d8_e999);
    assert_eq!(
        TensorPairStream::default().fingerprint(),
        0xef46_db37_51d8_e999
    );
    assert_eq!(reference_fingerprint(&[]), 0xef46_db37_51d8_e999);
}
