/**
 * @file
 * Batch estimation: many independent estimateMetric() calls fanned
 * across a thread pool.
 *
 * This is the scaling path for the experiment drivers (leave-one-out
 * accuracy sweeps run 25 independent fits per metric) and for any
 * server-style deployment estimating several target applications at
 * once. Each request is one task and each fit is serial, so a batch
 * never over-subscribes the machine and every result is bitwise
 * identical to running the same request alone.
 */

#ifndef LEO_ESTIMATORS_BATCH_HH
#define LEO_ESTIMATORS_BATCH_HH

#include <cstddef>
#include <memory>
#include <vector>

#include "estimators/estimator.hh"
#include "estimators/leo.hh"
#include "parallel/thread_pool.hh"

namespace leo::estimators
{

/** One batch entry: the online inputs of a single target app. */
struct EstimateRequest
{
    /** Offline prior vectors for this target (e.g. leave-one-out);
     *  unused when priorBasis is set. */
    std::vector<linalg::Vector> prior;
    /**
     * Shared basis of this target's prior (LEO estimators only). When
     * set, the fit reads it instead of building one from `prior`,
     * bitwise identically, and the fit written to fitOut shares it.
     */
    std::shared_ptr<const PriorBasis> priorBasis;
    /** Observed configuration indices Omega. */
    std::vector<std::size_t> obsIndices;
    /** Observed values at those indices. */
    linalg::Vector obsValues;
    /**
     * Previous fit to warm-start this request's EM from (LEO
     * estimators only; ignored by others and by invalid fits). The
     * pointed-to fit must outlive run().
     */
    const LeoFit *warmStart = nullptr;
    /**
     * When non-null, receives this request's full fit so the caller
     * can warm-start the next batch (LEO estimators only). Distinct
     * requests must point at distinct fits.
     */
    LeoFit *fitOut = nullptr;
};

/**
 * A queue of estimation requests executed together on a pool.
 *
 * Usage: add() every request, then run() once; results come back in
 * add() order. The batch holds references to the estimator and pool,
 * which must outlive it.
 */
class EstimatorBatch
{
  public:
    /**
     * @param estimator Estimator shared by every request (its
     *                  estimateMetric must be const-thread-safe, as
     *                  all in-tree estimators are).
     * @param pool      Pool the requests fan across.
     */
    EstimatorBatch(const Estimator &estimator,
                   parallel::ThreadPool &pool)
        : estimator_(estimator), pool_(pool)
    {
    }

    /** Queue one request; @return its index into run()'s result. */
    std::size_t add(EstimateRequest request)
    {
        requests_.push_back(std::move(request));
        return requests_.size() - 1;
    }

    /** @return Number of queued requests. */
    std::size_t size() const { return requests_.size(); }

    /**
     * Run every queued request across the pool and clear the queue.
     *
     * The first exception thrown by any request propagates after all
     * requests finished.
     *
     * @param space The configuration space shared by the batch.
     * @return One MetricEstimate per request, in add() order.
     */
    std::vector<MetricEstimate> run(const platform::ConfigSpace &space);

  private:
    const Estimator &estimator_;
    parallel::ThreadPool &pool_;
    std::vector<EstimateRequest> requests_;
};

} // namespace leo::estimators

#endif // LEO_ESTIMATORS_BATCH_HH
