//! A content-addressed, persistent result cache.
//!
//! Entries are keyed by the FNV-1a hash of a point's canonical
//! coordinates ([`crate::PointId::hash`]) mixed with an evaluator
//! *version tag*, so bumping the tag invalidates exactly the sweeps
//! whose model changed. One snapshot file per sweep, written with keys
//! sorted, so the file itself is deterministic and diff-friendly.

use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::fnv1a;
use crate::space::PointId;

const HEADER: &str = "# explore cache v1";

/// A sweep result that can live in a [`Cache`].
///
/// `decode(encode(x))` must reproduce `x` exactly (bit-exact floats —
/// see [`crate::Enc::f64`]); a `None` from `decode` counts as a cache
/// miss, so format evolution is safe.
pub trait Cacheable: Sized {
    /// Single-line encoding of the result.
    fn encode(&self) -> String;
    /// Parses an [`Cacheable::encode`]d line; `None` on any mismatch.
    fn decode(s: &str) -> Option<Self>;
}

/// A persistent map from point content-addresses to encoded results.
#[derive(Debug)]
pub struct Cache {
    path: Option<PathBuf>,
    version_hash: u64,
    map: BTreeMap<u64, String>,
    dirty: bool,
}

impl Cache {
    /// Opens (creating lazily) the cache for `sweep` under `dir`,
    /// loading any existing snapshot. `version` tags the evaluator:
    /// change it when the model behind the sweep changes and every
    /// entry becomes a miss.
    pub fn open(dir: &Path, sweep: &str, version: &str) -> Cache {
        let path = dir.join(format!("{sweep}.cache"));
        let mut cache = Cache {
            path: Some(path.clone()),
            version_hash: fnv1a(version.as_bytes()),
            map: BTreeMap::new(),
            dirty: false,
        };
        if let Ok(text) = fs::read_to_string(&path) {
            for line in text.lines() {
                if line.is_empty() || line.starts_with('#') {
                    continue;
                }
                if let Some((key, value)) = line.split_once('\t') {
                    if let Ok(key) = u64::from_str_radix(key, 16) {
                        cache.map.insert(key, value.to_string());
                    }
                }
            }
        }
        cache
    }

    /// An unpersisted cache (tests, `--no-cache` dry runs).
    pub fn in_memory(version: &str) -> Cache {
        Cache {
            path: None,
            version_hash: fnv1a(version.as_bytes()),
            map: BTreeMap::new(),
            dirty: false,
        }
    }

    fn key(&self, id: PointId) -> u64 {
        // splitmix64-style finalizer over the content hash and the
        // version tag, so nearby hashes spread across the key space.
        let mut z = id
            .hash
            .wrapping_add(self.version_hash.rotate_left(32))
            .wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Number of stored entries.
    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache is empty.
    #[cfg(test)]
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Looks up the result cached for a point, if any.
    pub fn get<R: Cacheable>(&self, id: PointId) -> Option<R> {
        self.map.get(&self.key(id)).and_then(|s| R::decode(s))
    }

    /// Stores a point's result.
    pub fn put<R: Cacheable>(&mut self, id: PointId, value: &R) {
        let encoded = value.encode();
        debug_assert!(
            !encoded.contains('\n') && !encoded.contains('\t'),
            "Cacheable encodings must be single-line and tab-free"
        );
        self.map.insert(self.key(id), encoded);
        self.dirty = true;
    }

    /// Writes the snapshot if anything changed since load. Returns the
    /// path written, or `None` for in-memory caches / clean caches.
    ///
    /// # Errors
    ///
    /// Returns any filesystem error from creating the directory or
    /// writing the file.
    pub fn save(&mut self) -> io::Result<Option<PathBuf>> {
        let Some(path) = &self.path else {
            return Ok(None);
        };
        if !self.dirty {
            return Ok(None);
        }
        if let Some(parent) = path.parent() {
            fs::create_dir_all(parent)?;
        }
        // BTreeMap iterates in key order, so the snapshot is already
        // sorted and deterministic.
        let mut out = String::with_capacity(self.map.len() * 32 + HEADER.len());
        out.push_str(HEADER);
        out.push('\n');
        for (key, value) in &self.map {
            out.push_str(&format!("{key:016x}\t{value}\n"));
        }
        fs::write(path, out)?;
        self.dirty = false;
        Ok(Some(path.clone()))
    }
}

macro_rules! cacheable_via_codec {
    ($ty:ty, $enc:ident, $dec:ident) => {
        impl Cacheable for $ty {
            fn encode(&self) -> String {
                crate::Enc::new().$enc(*self).finish()
            }
            fn decode(s: &str) -> Option<Self> {
                let mut d = crate::Dec::new(s);
                d.$dec()
            }
        }
    };
}

cacheable_via_codec!(u64, u64, u64);
cacheable_via_codec!(usize, usize, usize);
cacheable_via_codec!(i64, i64, i64);
cacheable_via_codec!(f64, f64, f64);
cacheable_via_codec!(bool, bool, bool);

impl Cacheable for String {
    fn encode(&self) -> String {
        crate::Enc::new().str(self).finish()
    }
    fn decode(s: &str) -> Option<Self> {
        crate::Dec::new(s).str()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(hash: u64) -> PointId {
        PointId { index: 0, hash }
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("explore_cache_{tag}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn round_trips_through_disk() {
        let dir = tmp_dir("rt");
        let mut c = Cache::open(&dir, "demo", "v1");
        assert!(c.is_empty());
        c.put(id(1), &0.5f64);
        c.put(id(2), &7u64);
        let path = c.save().unwrap().expect("dirty cache writes");
        assert!(path.ends_with("demo.cache"));

        let c2 = Cache::open(&dir, "demo", "v1");
        assert_eq!(c2.len(), 2);
        assert_eq!(c2.get::<f64>(id(1)), Some(0.5));
        assert_eq!(c2.get::<u64>(id(2)), Some(7));
        assert_eq!(c2.get::<u64>(id(3)), None);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn version_bump_invalidates() {
        let dir = tmp_dir("ver");
        let mut c = Cache::open(&dir, "demo", "v1");
        c.put(id(1), &1u64);
        c.save().unwrap();
        let c2 = Cache::open(&dir, "demo", "v2");
        assert_eq!(c2.get::<u64>(id(1)), None, "new version misses");
        let c1 = Cache::open(&dir, "demo", "v1");
        assert_eq!(c1.get::<u64>(id(1)), Some(1));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_file_is_deterministic() {
        let dir = tmp_dir("det");
        let mut a = Cache::open(&dir, "a", "v1");
        let mut b = Cache::open(&dir, "b", "v1");
        // Insert in different orders.
        for h in [3u64, 1, 2] {
            a.put(id(h), &(h * 10));
        }
        for h in [1u64, 2, 3] {
            b.put(id(h), &(h * 10));
        }
        let pa = a.save().unwrap().unwrap();
        let pb = b.save().unwrap().unwrap();
        assert_eq!(
            fs::read_to_string(pa).unwrap(),
            fs::read_to_string(pb).unwrap()
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn clean_cache_does_not_rewrite() {
        let dir = tmp_dir("clean");
        let mut c = Cache::open(&dir, "demo", "v1");
        c.put(id(1), &1u64);
        assert!(c.save().unwrap().is_some());
        assert!(c.save().unwrap().is_none(), "second save is a no-op");
        assert!(Cache::in_memory("v1").save().unwrap().is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn undecodable_entry_is_a_miss() {
        let mut c = Cache::in_memory("v1");
        c.put(id(5), &"text".to_string());
        assert_eq!(c.get::<u64>(id(5)), None, "wrong type decodes to miss");
        assert_eq!(c.get::<String>(id(5)).as_deref(), Some("text"));
    }
}
