//! Multi-tenant admission control.
//!
//! A tenant is a named byte quota: the cumulative input bytes it may
//! submit over the daemon's lifetime. Each tenant pairs its spec with
//! one atomic accumulator, and admission is a `fetch_add` followed by a
//! compare against the quota, with no lock and no rollback (once a
//! tenant crosses its quota it stays over quota, which is exactly the
//! semantics a cumulative cap wants).

use crate::{ErrorCode, ServeError};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// One tenant: a name and its lifetime byte quota.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantSpec {
    /// Tenant name, sent in the request envelope.
    pub name: String,
    /// Lifetime byte quota; `None` is unlimited.
    pub max_bytes: Option<u64>,
}

impl TenantSpec {
    /// An unlimited tenant.
    pub fn unlimited(name: impl Into<String>) -> TenantSpec {
        TenantSpec {
            name: name.into(),
            max_bytes: None,
        }
    }

    /// A tenant capped at `max_bytes` cumulative input bytes.
    pub fn limited(name: impl Into<String>, max_bytes: u64) -> TenantSpec {
        TenantSpec {
            name: name.into(),
            max_bytes: Some(max_bytes),
        }
    }
}

/// One tenant's live admission state.
#[derive(Debug)]
pub struct TenantState {
    /// The spec this state was built from.
    pub spec: TenantSpec,
    scanned: AtomicU64,
    admitted: AtomicU64,
    rejected: AtomicU64,
}

impl TenantState {
    fn new(spec: TenantSpec) -> TenantState {
        TenantState {
            spec,
            scanned: AtomicU64::new(0),
            admitted: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
        }
    }

    /// Admit a request of `len` input bytes, charging them to the
    /// quota. Over-quota is a typed [`ErrorCode::TenantOverQuota`]
    /// rejection; the charge is not rolled back (the quota is a
    /// lifetime cumulative cap, and keeping the accumulator monotonic
    /// is what makes concurrent admission race-free).
    pub fn admit(&self, len: u64) -> Result<(), ServeError> {
        let total = self
            .scanned
            .fetch_add(len, Ordering::Relaxed)
            .wrapping_add(len);
        match self.spec.max_bytes {
            Some(max) if total > max => {
                self.rejected.fetch_add(1, Ordering::Relaxed);
                Err(ServeError::new(
                    ErrorCode::TenantOverQuota,
                    format!(
                        "tenant {:?} exhausted its quota of {max} bytes ({total} scanned)",
                        self.spec.name,
                    ),
                ))
            }
            _ => {
                self.admitted.fetch_add(1, Ordering::Relaxed);
                Ok(())
            }
        }
    }

    /// Cumulative bytes charged so far.
    pub fn scanned(&self) -> u64 {
        self.scanned.load(Ordering::Relaxed)
    }

    /// Requests admitted.
    pub fn admitted(&self) -> u64 {
        self.admitted.load(Ordering::Relaxed)
    }

    /// Requests rejected over quota.
    pub fn rejected(&self) -> u64 {
        self.rejected.load(Ordering::Relaxed)
    }
}

/// The immutable tenant table built at startup.
#[derive(Debug)]
pub struct TenantTable {
    tenants: BTreeMap<String, TenantState>,
}

impl TenantTable {
    /// Build from specs; an empty list yields one unlimited `default`
    /// tenant so single-tenant deployments need no flags.
    pub fn new(specs: Vec<TenantSpec>) -> Result<TenantTable, String> {
        let specs = if specs.is_empty() {
            vec![TenantSpec::unlimited("default")]
        } else {
            specs
        };
        let mut tenants = BTreeMap::new();
        for spec in specs {
            let name = spec.name.clone();
            if tenants
                .insert(name.clone(), TenantState::new(spec))
                .is_some()
            {
                return Err(format!("duplicate tenant {name:?}"));
            }
        }
        Ok(TenantTable { tenants })
    }

    /// Look up a tenant by name.
    pub fn get(&self, name: &str) -> Option<&TenantState> {
        self.tenants.get(name)
    }

    /// All tenants, in name order.
    pub fn iter(&self) -> impl Iterator<Item = &TenantState> {
        self.tenants.values()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quota_is_cumulative_and_sticky() {
        let table = TenantTable::new(vec![
            TenantSpec::limited("small", 100),
            TenantSpec::unlimited("big"),
        ])
        .unwrap();
        let small = table.get("small").unwrap();
        // Rejection fires strictly above the cap: two 50-byte requests
        // land exactly on it and pass, the third crosses it.
        small.admit(50).unwrap();
        small.admit(50).unwrap();
        let err = small.admit(1).unwrap_err();
        assert_eq!(err.code, ErrorCode::TenantOverQuota);
        // Sticky: even a zero-length request stays rejected.
        assert!(small.admit(0).is_err());
        assert_eq!(small.admitted(), 2);
        assert!(small.rejected() >= 2);

        // The other tenant is unaffected.
        let big = table.get("big").unwrap();
        big.admit(u64::from(u32::MAX)).unwrap();
        assert!(table.get("missing").is_none());
    }

    #[test]
    fn empty_table_gets_default_tenant() {
        let table = TenantTable::new(Vec::new()).unwrap();
        assert!(table.get("default").unwrap().admit(1 << 30).is_ok());
        assert!(TenantTable::new(vec![
            TenantSpec::unlimited("dup"),
            TenantSpec::limited("dup", 1),
        ])
        .is_err());
    }
}
