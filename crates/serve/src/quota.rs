//! Per-tenant admission control.
//!
//! The service is multi-tenant: one misbehaving tenant must not be able
//! to flood the queue or monopolize the rank pool. Admission is checked
//! once, at submit time, against the one [`TenantQuota`] each tenant is
//! held to separately; a rejected
//! job never enters the queue (the tenant sees the rejection immediately,
//! matching batch-system convention).

use std::collections::HashMap;

/// Limits one tenant may not exceed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantQuota {
    /// Jobs a tenant may have admitted (queued + running) at once.
    pub max_jobs: usize,
    /// Largest rank slice one of the tenant's jobs may request.
    pub max_ranks_per_job: usize,
}

impl Default for TenantQuota {
    fn default() -> Self {
        TenantQuota {
            max_jobs: usize::MAX,
            max_ranks_per_job: usize::MAX,
        }
    }
}

/// Why a submission was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// The tenant already has `max_jobs` admitted.
    TooManyJobs,
    /// The job asked for more ranks than the tenant's per-job cap.
    RanksOverQuota,
    /// The job asked for more ranks than the whole pool owns — it could
    /// never be scheduled.
    RanksOverPool,
}

/// Admission bookkeeping: the quota every tenant gets, live admitted
/// counts, and rejection counters.
#[derive(Debug, Default)]
pub struct Admission {
    quota: TenantQuota,
    admitted: HashMap<String, usize>,
    rejections: u64,
}

impl Admission {
    /// Admission under one quota for every tenant.
    pub fn new(quota: TenantQuota) -> Admission {
        Admission {
            quota,
            ..Admission::default()
        }
    }

    /// Try to admit a job of `nranks` for `tenant` against a pool of
    /// `pool_total` ranks. On success the tenant's admitted count is
    /// incremented (release it with [`Admission::release`] when the job
    /// leaves the system).
    pub fn try_admit(
        &mut self,
        tenant: &str,
        nranks: usize,
        pool_total: usize,
    ) -> Result<(), RejectReason> {
        let quota = self.quota;
        let live = self.admitted.get(tenant).copied().unwrap_or(0);
        let verdict = if live >= quota.max_jobs {
            Err(RejectReason::TooManyJobs)
        } else if nranks > quota.max_ranks_per_job {
            Err(RejectReason::RanksOverQuota)
        } else if nranks > pool_total {
            Err(RejectReason::RanksOverPool)
        } else {
            Ok(())
        };
        match verdict {
            Ok(()) => {
                *self.admitted.entry(tenant.to_string()).or_insert(0) += 1;
                Ok(())
            }
            Err(r) => {
                self.rejections += 1;
                Err(r)
            }
        }
    }

    /// A previously admitted job of `tenant` left the system (completed
    /// or was abandoned).
    pub fn release(&mut self, tenant: &str) {
        if let Some(n) = self.admitted.get_mut(tenant) {
            *n = n.saturating_sub(1);
        }
    }

    /// Jobs currently admitted for `tenant`.
    pub fn admitted(&self, tenant: &str) -> usize {
        self.admitted.get(tenant).copied().unwrap_or(0)
    }

    /// Total submissions refused so far.
    pub fn rejections(&self) -> u64 {
        self.rejections
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_count_quota_is_enforced_and_released() {
        let mut adm = Admission::new(TenantQuota {
            max_jobs: 2,
            max_ranks_per_job: 8,
        });
        assert!(adm.try_admit("a", 1, 16).is_ok());
        assert!(adm.try_admit("a", 1, 16).is_ok());
        assert_eq!(adm.try_admit("a", 1, 16), Err(RejectReason::TooManyJobs));
        // Another tenant is unaffected.
        assert!(adm.try_admit("b", 1, 16).is_ok());
        adm.release("a");
        assert!(adm.try_admit("a", 1, 16).is_ok());
        assert_eq!(adm.rejections(), 1);
    }

    #[test]
    fn rank_quotas_are_enforced() {
        let mut adm = Admission::new(TenantQuota {
            max_jobs: 10,
            max_ranks_per_job: 4,
        });
        assert_eq!(adm.try_admit("a", 8, 16), Err(RejectReason::RanksOverQuota));
        // Within quota but beyond the whole pool: unschedulable.
        assert_eq!(adm.try_admit("a", 4, 2), Err(RejectReason::RanksOverPool));
        assert!(adm.try_admit("a", 4, 16).is_ok());
        assert_eq!(adm.admitted("a"), 1);
    }
}
