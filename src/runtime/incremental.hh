/**
 * @file
 * Incremental per-window refits for the online controller.
 *
 * Between full EM re-estimations the controller keeps measuring: one
 * (configuration, value) sample arrives per control window. A full
 * fitMetric per window is wasteful — the fitted theta barely moves —
 * so this module freezes theta from the last low-rank LeoFit and
 * folds each new sample into the *conditioning* step only:
 *
 *     mean = mu + Sigma_Omega (Sigma_{Omega,Omega} + sigma^2 I)^-1 r
 *
 * The low-rank fit carries Sigma = alpha I + Q' C Q. C alone is NOT
 * positive definite in general (only alpha I + Q' C Q is: C's
 * spectrum reaches down to -alpha), so the conditioner works with the
 * projected covariance B = C + alpha I, which is PSD, and models
 * Sigma ~= Q' B Q — the isotropic floor absorbed into the basis, an
 * O(alpha) approximation off-basis. With B = F F' (Cholesky) the
 * Woodbury identity turns the growing s x s observation system into a
 * fixed q x q one:
 *
 *     K = d I_q + sum_t u_t u_t',   u_t = F' Q e_{idx_t},
 *     d = sigma^2,
 *
 * and each arriving sample is a rank-1 *update* of K's Cholesky
 * factor (O(q^2)), each sample sliding out of the window a rank-1
 * *downdate* — never a refactorization. A downdate that reports
 * NotPositiveDefinite (possible near singularity) triggers a full
 * O(q^3) rebuild of the factor from the surviving window, so the
 * refitter degrades to correct-but-slower instead of failing.
 * Derivation and the update/downdate algorithm: DESIGN.md
 * section 7.2.
 */

#ifndef LEO_RUNTIME_INCREMENTAL_HH
#define LEO_RUNTIME_INCREMENTAL_HH

#include <cstddef>
#include <vector>

#include "estimators/leo.hh"
#include "linalg/cholesky.hh"
#include "linalg/matrix.hh"
#include "linalg/serialize.hh"
#include "linalg/vector.hh"

namespace leo::runtime
{

/** How the controller refreshes estimates between full EM fits. */
enum class RefitMode
{
    None,        //!< No per-window refresh (historical behavior).
    Batch,       //!< Rebuild the observation system from scratch
                 //!< every window (the executable specification).
    Incremental  //!< Rank-1 Cholesky up/downdates per window.
};

/**
 * Frozen-theta conditioner fed one online sample per control window.
 *
 * Batch and Incremental modes maintain the same K factor through
 * different algebra (refactorization vs rank-1 rotations) and agree
 * to rounding; the property suite asserts the controller makes
 * identical decisions under either. All entry points are no-throw in
 * practice: reset() rejects unusable fits by returning false, and
 * numerical trouble downgrades to a rebuild, never an exception.
 */
class IncrementalRefit
{
  public:
    /**
     * Freeze theta from a completed fit and clear the sample window.
     *
     * @param fit    A LeoFit carrying finite factors (fits without
     *               them are rejected: the whole point is never
     *               touching an n x n matrix online).
     * @param window Sliding-window length; samples beyond it are
     *               evicted oldest-first. 0 keeps every sample.
     * @param mode   Batch or Incremental (None deactivates).
     * @return True iff the refitter is now active.
     */
    bool reset(const estimators::LeoFit &fit, std::size_t window,
               RefitMode mode);

    /** Drop the frozen theta; predictInto becomes unavailable. */
    void deactivate() { active_ = false; entries_.clear(); }

    /** @return True iff reset() accepted a fit. */
    bool active() const { return active_; }

    /** @return Samples currently in the window. */
    std::size_t size() const { return entries_.size(); }

    /** @return Full factor rebuilds forced by failed downdates. */
    std::size_t rebuilds() const { return rebuilds_; }

    /**
     * Fold one raw-unit observation into the window.
     *
     * @param index Configuration index of the measurement.
     * @param value Measured value (raw units; the fit's scale anchor
     *              normalizes internally).
     * @return False iff the refitter is inactive or the sample is
     *         unusable (non-finite, index out of range).
     */
    bool addSample(std::size_t index, double value);

    /**
     * Write the conditioned prediction (raw units, clamped at zero)
     * for every configuration into `out`.
     *
     * @return False iff inactive (out untouched).
     */
    bool predictInto(linalg::Vector &out) const;

    /**
     * Serialize the full refitter state — frozen theta, sample
     * window, and the *exact* K factor the rank-1 update sequence
     * arrived at (a refactorization on restore would only match to
     * rounding, breaking the bitwise resume contract).
     */
    void save(linalg::ByteWriter &w) const;

    /**
     * Restore state written by save(). Never throws; a truncated or
     * inconsistent blob deactivates the refitter and returns false
     * (the controller then degrades to fit-once-then-watch, its
     * standard response to refit trouble).
     */
    bool restore(linalg::ByteReader &r);

  private:
    /** One windowed sample: basis loading, normalized residual. */
    struct Entry
    {
        linalg::Vector u;  //!< F' Q e_index (length q).
        double r = 0.0;    //!< value / scale - mu[index].
        std::size_t index = 0;
    };

    /** Refactorize K = d I + sum u u' from the current window. */
    void rebuildFactor();

    /** Downdate-evict samples beyond the window (oldest first). */
    void evictOverflow();

    /** Compute u = F' (column `index` of basisT) into `u`. */
    void loadingAt(linalg::Vector &u, std::size_t index) const;

    bool active_ = false;
    RefitMode mode_ = RefitMode::None;
    std::size_t window_ = 0;
    std::size_t n_ = 0;
    std::size_t q_ = 0;
    double d_ = 0.0;     //!< sigma^2, the observation noise.
    double scale_ = 1.0;
    linalg::Vector mu_;      //!< Normalized-space mean (length n).
    linalg::Matrix basisT_;  //!< Q, q x n.
    linalg::Matrix fmat_;    //!< F = chol(C + alpha I), lower q x q.
    linalg::Cholesky kchol_; //!< Factor of K.
    linalg::Matrix kmat_;    //!< Rebuild scratch.
    std::vector<Entry> entries_;
    std::size_t rebuilds_ = 0;
    // predictInto scratch (mutable: prediction is logically const).
    mutable linalg::Vector t_; // leo-lint: allow(snapshot-completeness) scratch, rebuilt per refit
    mutable linalg::Vector y_; // leo-lint: allow(snapshot-completeness) scratch, rebuilt per refit
    mutable linalg::Vector fy_; // leo-lint: allow(snapshot-completeness) scratch, rebuilt per refit
};

} // namespace leo::runtime

#endif // LEO_RUNTIME_INCREMENTAL_HH
