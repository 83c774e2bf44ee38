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

/// The stream fingerprint as first defined: 64-bit FNV-1a over a stage
/// marker and task count per vector, then every field of every task.
/// Store keys and the golden plan corpus depend on this exact value.
fn reference_fingerprint(vectors: &[Vector]) -> u64 {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = FNV_OFFSET;
    let mut mix = |value: u64| {
        for byte in value.to_le_bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(FNV_PRIME);
        }
    };
    for v in vectors {
        // a stage marker keeps [t0 | t1] distinct from [t0, t1]
        mix(u64::MAX);
        mix(v.tasks.len() as u64);
        for t in &v.tasks {
            mix(t.id.0);
            mix(t.a.id.0);
            mix(t.a.bytes);
            mix(t.b.id.0);
            mix(t.b.bytes);
            mix(t.out.id.0);
            mix(t.out.bytes);
            mix(t.flops);
        }
    }
    h
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

    /// A generated stream's fingerprint is the reference FNV-1a of its
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

#[test]
fn the_empty_stream_is_the_default_and_hashes_to_the_fnv_offset() {
    let empty = TensorPairStream::new(vec![]);
    assert_eq!(TensorPairStream::default(), empty);
    assert_eq!(empty.fingerprint(), 0xcbf2_9ce4_8422_2325);
    assert_eq!(
        TensorPairStream::default().fingerprint(),
        0xcbf2_9ce4_8422_2325
    );
    assert_eq!(reference_fingerprint(&[]), 0xcbf2_9ce4_8422_2325);
}
