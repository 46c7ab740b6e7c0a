//! Model LRU: each network is validated and lowered to canonical form
//! once, then every query against the same content hash reuses the
//! lowered copy ("lowered once").
//!
//! Each entry also keeps the source text it was admitted from, so a query
//! whose model text is byte-equal to a cached source is a hit without
//! parsing, re-serialising or hashing ("parsed once per distinct source").
//! The comparison is exact byte equality, so no collision argument is
//! needed; any other spelling takes the content-hash path.
//!
//! Recency is a deterministic logical tick (queries processed), not wall
//! time, so eviction order is identical on every machine. Ties (which
//! cannot happen — ticks are unique per touch) would break by key.

use crate::hash::model_hash;
use abonn_nn::{CanonicalNetwork, Network};
use std::collections::BTreeMap;
use std::sync::Arc;

/// A network plus its cached canonical lowering.
#[derive(Debug)]
pub struct LoweredModel {
    /// The validated network.
    pub network: Network,
    /// Its canonical form, lowered once at admission.
    pub canonical: CanonicalNetwork,
}

/// Model cache counters, serialised into the stats artifact.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ModelCacheCounters {
    /// Queries that found their model already lowered.
    pub hits: usize,
    /// Queries that lowered a model.
    pub misses: usize,
    /// Models evicted to stay under capacity.
    pub evictions: usize,
}

/// One cached model.
#[derive(Debug)]
struct Entry {
    /// Logical tick of the last touch.
    last_used: u64,
    /// The exact text the model was admitted from; evicted with the entry.
    source: String,
    model: Arc<LoweredModel>,
}

/// Deterministic LRU of lowered models keyed by content hash.
#[derive(Debug)]
pub struct ModelCache {
    capacity: usize,
    tick: u64,
    entries: BTreeMap<u64, Entry>,
    counters: ModelCacheCounters,
}

impl ModelCache {
    /// Cache holding at most `capacity` lowered models (minimum 1).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity: capacity.max(1),
            tick: 0,
            entries: BTreeMap::new(),
            counters: ModelCacheCounters::default(),
        }
    }

    /// Fetches the lowered model for `hash`, if cached; refreshes its
    /// recency.
    pub fn get(&mut self, hash: u64) -> Option<Arc<LoweredModel>> {
        self.tick += 1;
        let entry = self.entries.get_mut(&hash)?;
        entry.last_used = self.tick;
        self.counters.hits += 1;
        Some(Arc::clone(&entry.model))
    }

    /// Fetches the model admitted from exactly these `source` bytes, if
    /// cached, as `(content_hash, lowered)`. A match counts and refreshes
    /// exactly like [`ModelCache::get`] on its hash — it is the same hit,
    /// reached without parsing or hashing; no match touches nothing.
    pub fn get_by_source(&mut self, source: &str) -> Option<(u64, Arc<LoweredModel>)> {
        let hash = self
            .entries
            .iter()
            .find(|(_, entry)| entry.source == source)
            .map(|(&hash, _)| hash)?;
        self.get(hash).map(|model| (hash, model))
    }

    /// Lowers and admits a network parsed from `source`, evicting the
    /// least-recently-used model if over capacity. Returns
    /// `(content_hash, lowered)`. A network already cached under another
    /// spelling is a hit and keeps the source it was first admitted from.
    ///
    /// # Errors
    ///
    /// The lowering error message when the network cannot be put in
    /// canonical form.
    pub fn admit(
        &mut self,
        network: Network,
        source: String,
    ) -> Result<(u64, Arc<LoweredModel>), String> {
        let hash = model_hash(&network);
        if let Some(model) = self.get(hash) {
            return Ok((hash, model));
        }
        self.counters.misses += 1;
        let canonical = CanonicalNetwork::from_network(&network).map_err(|e| e.to_string())?;
        let model = Arc::new(LoweredModel { network, canonical });
        self.tick += 1;
        let entry = Entry {
            last_used: self.tick,
            source,
            model: Arc::clone(&model),
        };
        self.entries.insert(hash, entry);
        while self.entries.len() > self.capacity {
            let victim = self
                .entries
                .iter()
                .min_by_key(|(key, entry)| (entry.last_used, **key))
                .map(|(key, _)| *key)
                .expect("non-empty cache has a minimum");
            self.entries.remove(&victim);
            self.counters.evictions += 1;
        }
        Ok((hash, model))
    }

    /// Counter snapshot.
    #[must_use]
    pub fn counters(&self) -> ModelCacheCounters {
        self.counters
    }

    /// Number of currently cached models.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use abonn_nn::{Layer, Shape};
    use abonn_tensor::Matrix;
    use proptest::prelude::*;

    fn tiny_net(bias: f64) -> Network {
        Network::new(
            Shape::Flat(1),
            vec![Layer::dense(
                Matrix::from_rows(&[&[1.0], &[-1.0]]),
                vec![bias, 0.0],
            )],
        )
        .unwrap()
    }

    /// Admits `net` from its pretty-printed source.
    fn admit(cache: &mut ModelCache, net: Network) -> (u64, Arc<LoweredModel>) {
        let source = abonn_nn::io::to_json(&net).unwrap();
        cache.admit(net, source).unwrap()
    }

    /// `Server::resolve_model`'s order on a source: a byte-equal hit, else
    /// parse and admit.
    fn resolve(cache: &mut ModelCache, source: &str) -> u64 {
        if let Some((hash, _)) = cache.get_by_source(source) {
            return hash;
        }
        let net = abonn_nn::io::from_json(source).unwrap();
        cache.admit(net, source.to_string()).unwrap().0
    }

    /// The reference resolution: parse every query, then admit by hash.
    fn resolve_by_parsing(cache: &mut ModelCache, source: &str) -> u64 {
        let net = abonn_nn::io::from_json(source).unwrap();
        cache.admit(net, source.to_string()).unwrap().0
    }

    /// Six spellings of three models: pretty and compact JSON of each.
    fn spellings() -> Vec<String> {
        (0..3)
            .flat_map(|i| {
                let net = tiny_net(f64::from(i));
                let pretty = abonn_nn::io::to_json(&net).unwrap();
                let compact = serde_json::to_string(&net).unwrap();
                assert_ne!(pretty, compact);
                [pretty, compact]
            })
            .collect()
    }

    #[test]
    fn admission_is_content_addressed() {
        let mut cache = ModelCache::new(4);
        let (h1, _) = admit(&mut cache, tiny_net(0.0));
        let (h2, _) = admit(&mut cache, tiny_net(0.0));
        let (h3, _) = admit(&mut cache, tiny_net(1.0));
        assert_eq!(h1, h2, "identical content, identical hash");
        assert_ne!(h1, h3);
        let c = cache.counters();
        assert_eq!((c.hits, c.misses, c.evictions), (1, 2, 0));
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut cache = ModelCache::new(2);
        let (h0, _) = admit(&mut cache, tiny_net(0.0));
        let (_h1, _) = admit(&mut cache, tiny_net(1.0));
        // Touch h0 so h1 becomes the victim.
        assert!(cache.get(h0).is_some());
        let (_h2, _) = admit(&mut cache, tiny_net(2.0));
        assert_eq!(cache.len(), 2);
        assert!(cache.get(h0).is_some(), "recently used survives");
        assert_eq!(cache.counters().evictions, 1);
    }

    #[test]
    fn byte_equal_source_is_a_hit() {
        let mut cache = ModelCache::new(4);
        let source = abonn_nn::io::to_json(&tiny_net(0.0)).unwrap();
        let (hash, model) = cache.admit(tiny_net(0.0), source.clone()).unwrap();
        let (hit_hash, hit_model) = cache.get_by_source(&source).unwrap();
        assert_eq!(hit_hash, hash);
        assert!(
            Arc::ptr_eq(&hit_model, &model),
            "the cached lowering itself"
        );
        assert_eq!(cache.counters().hits, 1);
        // Another spelling of the same model is not a source match, and
        // a non-match touches no counter.
        let compact = serde_json::to_string(&tiny_net(0.0)).unwrap();
        assert!(cache.get_by_source(&compact).is_none());
        let counters = ModelCacheCounters {
            hits: 1,
            misses: 1,
            evictions: 0,
        };
        assert_eq!(cache.counters(), counters);
        // It still reaches the entry through its content hash.
        assert_eq!(resolve(&mut cache, &compact), hash);
        assert_eq!(cache.counters().hits, 2);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn eviction_drops_the_stored_source() {
        let mut cache = ModelCache::new(1);
        let sources = spellings();
        let first = resolve(&mut cache, &sources[0]);
        resolve(&mut cache, &sources[2]);
        assert_eq!(cache.counters().evictions, 1);
        assert!(
            cache.get_by_source(&sources[0]).is_none(),
            "an evicted model's source must not match"
        );
        assert!(cache.get(first).is_none());
        // Coming back is a fresh miss that re-admits the model.
        assert_eq!(resolve(&mut cache, &sources[0]), first);
        assert_eq!(cache.counters().misses, 3);
        assert!(cache.get_by_source(&sources[0]).is_some());
    }

    #[test]
    fn memo_matches_parsing_every_query_on_a_scripted_session() {
        let sources = spellings();
        // Model i spelled pretty (2i) or compact (2i + 1), capacity 2: hits
        // by source, hits by hash across spellings, and evictions.
        let script = [0, 0, 1, 2, 3, 0, 4, 5, 2, 1, 4, 4, 0, 3];
        let mut memo = ModelCache::new(2);
        let mut reference = ModelCache::new(2);
        let mut trace = Vec::new();
        for &i in &script {
            let hash = resolve(&mut memo, &sources[i]);
            assert_eq!(hash, resolve_by_parsing(&mut reference, &sources[i]));
            assert_eq!(memo.counters(), reference.counters(), "after source {i}");
            assert_eq!(memo.len(), reference.len());
            let c = memo.counters();
            trace.push((c.hits, c.misses, c.evictions));
        }
        // (hits, misses, evictions) after each query, derived by hand.
        let expected = [
            (0, 1, 0),
            (1, 1, 0),
            (2, 1, 0),
            (2, 2, 0),
            (3, 2, 0),
            (4, 2, 0),
            (4, 3, 1),
            (5, 3, 1),
            (5, 4, 2),
            (5, 5, 3),
            (5, 6, 4),
            (6, 6, 4),
            (7, 6, 4),
            (7, 7, 5),
        ];
        assert_eq!(trace, expected);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn memo_matches_parsing_every_query(
            script in proptest::collection::vec(0usize..6, 1..40),
            capacity in 1usize..4,
        ) {
            let sources = spellings();
            let mut memo = ModelCache::new(capacity);
            let mut reference = ModelCache::new(capacity);
            for &i in &script {
                let hash = resolve(&mut memo, &sources[i]);
                prop_assert_eq!(hash, resolve_by_parsing(&mut reference, &sources[i]));
                prop_assert_eq!(memo.counters(), reference.counters());
            }
        }
    }
}
