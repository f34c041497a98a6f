//! Workload configuration and transaction generation.

use crate::zipf::Zipf;
use bcastdb_db::{Key, TxnSpec};
use bcastdb_sim::DetRng;
use std::cell::RefCell;

thread_local! {
    /// `KEYS[i]`, once asked for, is `WorkloadConfig::key(i)`: generated
    /// transactions share one string per key instead of formatting and
    /// allocating a copy per access. Sized like the Zipf table; per thread,
    /// so parallel sweeps do not pass reference counts between cores.
    static KEYS: RefCell<Vec<Option<Key>>> = const { RefCell::new(Vec::new()) };
}

/// Shape of the synthetic workload, mirroring the evaluation methodology of
/// the paper's era: fixed database, fixed transaction shapes, skewed
/// access, a read-only fraction.
#[derive(Debug, Clone)]
pub struct WorkloadConfig {
    /// Number of distinct objects in the database.
    pub n_keys: usize,
    /// Zipf skew over the key space (0 = uniform).
    pub theta: f64,
    /// Reads per update transaction.
    pub reads_per_txn: usize,
    /// Writes per update transaction.
    pub writes_per_txn: usize,
    /// Reads per read-only transaction.
    pub reads_per_ro_txn: usize,
    /// Fraction of transactions that are read-only (0.0..=1.0).
    pub readonly_fraction: f64,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            n_keys: 1000,
            theta: 0.8,
            reads_per_txn: 2,
            writes_per_txn: 2,
            reads_per_ro_txn: 4,
            readonly_fraction: 0.0,
        }
    }
}

impl WorkloadConfig {
    /// Validates the configuration.
    ///
    /// # Panics
    /// Panics on nonsensical values (zero keys, fraction outside `[0,1]`,
    /// an update shape with zero writes).
    pub fn validate(&self) {
        assert!(self.n_keys > 0, "empty database");
        assert!(
            (0.0..=1.0).contains(&self.readonly_fraction),
            "read-only fraction out of range"
        );
        assert!(
            self.writes_per_txn > 0 || self.readonly_fraction >= 1.0,
            "update transactions need at least one write"
        );
    }

    /// Builds the Zipf sampler for this configuration.
    pub fn sampler(&self) -> Zipf {
        Zipf::new(self.n_keys, self.theta)
    }

    /// The key for 0-based index `i`.
    pub fn key(i: usize) -> Key {
        KEYS.with(|keys| {
            let mut keys = keys.borrow_mut();
            if keys.len() <= i {
                keys.resize(i + 1, None);
            }
            let key = keys[i].get_or_insert_with(|| Key::new(format!("k{i:06}")));
            key.clone()
        })
    }

    /// Generates one transaction. Keys within a transaction are distinct;
    /// update transactions read their write set's keys first (the paper's
    /// model: all reads, then all writes), plus extra reads if configured.
    pub fn gen_txn(&self, zipf: &Zipf, rng: &mut DetRng) -> TxnSpec {
        let read_only = self.readonly_fraction > 0.0 && rng.gen_bool(self.readonly_fraction);
        let (n_reads, n_writes) = if read_only {
            (self.reads_per_ro_txn.max(1), 0)
        } else {
            (self.reads_per_txn, self.writes_per_txn)
        };
        let total = n_reads + n_writes;
        let mut picked = Vec::with_capacity(total);
        let mut guard = 0;
        while picked.len() < total.min(self.n_keys) {
            let idx = zipf.sample(rng);
            if !picked.contains(&idx) {
                picked.push(idx);
            }
            guard += 1;
            if guard > 100 * total.max(1) {
                // Tiny key spaces under heavy skew: fall back to linear fill.
                for i in 0..self.n_keys {
                    if picked.len() >= total.min(self.n_keys) {
                        break;
                    }
                    if !picked.contains(&i) {
                        picked.push(i);
                    }
                }
            }
        }
        let mut spec = TxnSpec::new();
        let n_reads_actual = picked.len().saturating_sub(n_writes.min(picked.len()));
        for &idx in picked.iter().take(n_reads_actual) {
            spec = spec.read(Self::key(idx));
        }
        for &idx in picked.iter().skip(n_reads_actual) {
            spec = spec.write(Self::key(idx), rng.gen_range(0..1_000_000));
        }
        spec
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> WorkloadConfig {
        WorkloadConfig::default()
    }

    #[test]
    fn default_config_is_valid() {
        cfg().validate();
    }

    #[test]
    fn generated_update_txn_has_configured_shape() {
        let c = cfg();
        let z = c.sampler();
        let mut rng = DetRng::new(1);
        let t = c.gen_txn(&z, &mut rng);
        assert_eq!(t.reads().len(), c.reads_per_txn);
        assert_eq!(t.writes().len(), c.writes_per_txn);
        assert!(!t.is_read_only());
    }

    #[test]
    fn keys_within_txn_are_distinct() {
        let c = WorkloadConfig {
            n_keys: 10,
            theta: 0.99,
            reads_per_txn: 3,
            writes_per_txn: 3,
            ..cfg()
        };
        let z = c.sampler();
        let mut rng = DetRng::new(2);
        for _ in 0..200 {
            let t = c.gen_txn(&z, &mut rng);
            let mut all: Vec<&Key> = t.reads().iter().collect();
            all.extend(t.writes().iter().map(|w| &w.key));
            let mut dedup = all.clone();
            dedup.sort();
            dedup.dedup();
            assert_eq!(all.len(), dedup.len(), "duplicate key in {t:?}");
        }
    }

    #[test]
    fn readonly_fraction_is_respected() {
        let c = WorkloadConfig {
            readonly_fraction: 0.5,
            ..cfg()
        };
        let z = c.sampler();
        let mut rng = DetRng::new(3);
        let n = 2000;
        let ro = (0..n)
            .filter(|_| c.gen_txn(&z, &mut rng).is_read_only())
            .count();
        let frac = ro as f64 / n as f64;
        assert!((frac - 0.5).abs() < 0.05, "read-only fraction {frac}");
    }

    #[test]
    fn pure_readonly_workload() {
        let c = WorkloadConfig {
            readonly_fraction: 1.0,
            writes_per_txn: 0,
            ..cfg()
        };
        c.validate();
        let z = c.sampler();
        let mut rng = DetRng::new(4);
        for _ in 0..50 {
            assert!(c.gen_txn(&z, &mut rng).is_read_only());
        }
    }

    #[test]
    fn tiny_keyspace_still_terminates() {
        let c = WorkloadConfig {
            n_keys: 2,
            reads_per_txn: 2,
            writes_per_txn: 2,
            ..cfg()
        };
        let z = c.sampler();
        let mut rng = DetRng::new(5);
        let t = c.gen_txn(&z, &mut rng);
        // Only two keys exist: transaction shrinks to fit.
        assert!(t.reads().len() + t.writes().len() <= 2);
    }

    #[test]
    #[should_panic(expected = "empty database")]
    fn zero_keys_invalid() {
        WorkloadConfig { n_keys: 0, ..cfg() }.validate();
    }

    #[test]
    fn key_naming_is_stable() {
        assert_eq!(WorkloadConfig::key(7).as_str(), "k000007");
        assert_eq!(WorkloadConfig::key(3).as_str(), "k000003");
        assert_eq!(WorkloadConfig::key(7), WorkloadConfig::key(7));
        assert_eq!(WorkloadConfig::key(1 << 20).as_str(), "k1048576");
    }
}
