/**
 * @file
 * Deterministic fit cache for the multi-tenant service.
 *
 * Tenants of the same application frequently finish their probe
 * plans with identical observation multisets (replayed traces, A/B
 * fleets, restarted instances, tenants re-probing after the same
 * phase change). Every LEO fit runs cold from the Offline init, so it
 * is a pure function of (prior, observations) and its result can be
 * shared, a refit's as much as a first fit's: the cache keys on
 * (app id, prior version, Observations::contentHash) and returns the
 * previously computed estimate + fit pair.
 *
 * Eviction is deterministic: least-recently-used by a logical use
 * counter (no wall clock), ties broken by key order. Storage is a
 * std::map, so iteration — and therefore every eviction decision —
 * is independent of insertion interleaving.
 */

#ifndef LEO_SERVICE_FIT_CACHE_HH
#define LEO_SERVICE_FIT_CACHE_HH

#include <cstdint>
#include <map>
#include <string>
#include <tuple>

#include "estimators/estimator.hh"
#include "estimators/leo.hh"

namespace leo::service
{

/** Identity of one fit (both metrics). */
struct FitCacheKey
{
    /** Application id the tenant registered under. */
    std::string appId;
    /** Version of the shared offline prior the fit used. */
    std::uint64_t priorVersion = 0;
    /** Observations::contentHash of the observation set. */
    std::uint64_t obsHash = 0;

    bool operator<(const FitCacheKey &o) const
    {
        return std::tie(appId, priorVersion, obsHash) <
               std::tie(o.appId, o.priorVersion, o.obsHash);
    }
};

/** Cached result of one fit: both estimates and both full fits. */
struct CachedFit
{
    estimators::MetricEstimate perfEstimate;
    estimators::MetricEstimate powerEstimate;
    estimators::LeoFit perfFit;
    estimators::LeoFit powerFit;
};

/**
 * LRU map from FitCacheKey to CachedFit with deterministic eviction.
 * Not thread safe; the service uses it from tick() only.
 */
class FitCache
{
  public:
    /** @param capacity Entries held before eviction (0 disables). */
    explicit FitCache(std::size_t capacity) : capacity_(capacity) {}

    /**
     * Look up a key, refreshing its recency on a hit.
     *
     * @return The cached fit, or nullptr on a miss. The pointer is
     *         valid until the next insert().
     */
    const CachedFit *lookup(const FitCacheKey &key);

    /**
     * Insert (or overwrite) an entry, evicting the least recently
     * used entry first when at capacity.
     */
    void insert(const FitCacheKey &key, CachedFit fit);

    /** @return Entries currently held. */
    std::size_t size() const { return entries_.size(); }

    /** @return Evictions performed so far. */
    std::size_t evictions() const { return evictions_; }

  private:
    struct Entry
    {
        CachedFit fit;
        std::uint64_t lastUse = 0;
    };

    std::size_t capacity_;
    std::uint64_t clock_ = 0;
    std::size_t evictions_ = 0;
    std::map<FitCacheKey, Entry> entries_;
};

} // namespace leo::service

#endif // LEO_SERVICE_FIT_CACHE_HH
