#include "runtime/changepoint.hh"

#include <algorithm>
#include <cmath>

namespace leo::runtime
{

void
ChangePointDetector::configure(const ChangePointOptions &options)
{
    options_ = options;
    reset();
}

void
ChangePointDetector::reset()
{
    windows_ = 0;
    latency_ = 0;
    warmupSum_ = 0.0;
    bias_ = 0.0;
    gPos_ = 0.0;
    gNeg_ = 0.0;
    lastZeroPos_ = 0;
    lastZeroNeg_ = 0;
}

bool
ChangePointDetector::observe(double residual)
{
    if (!std::isfinite(residual))
        return false; // Faulted telemetry is not phase evidence.
    ++windows_;
    if (windows_ <= options_.warmupWindows) {
        // Warmup estimates the fit's persistent bias at the paced
        // configuration; scoring starts once it is pinned down.
        warmupSum_ += residual;
        if (windows_ == options_.warmupWindows)
            bias_ = warmupSum_ /
                    static_cast<double>(options_.warmupWindows);
        return false;
    }
    const double centered = residual - bias_;
    const double k = options_.cusumDrift;
    gPos_ = std::max(0.0, gPos_ + centered - k);
    gNeg_ = std::max(0.0, gNeg_ - centered - k);
    if (gPos_ == 0.0)
        lastZeroPos_ = windows_;
    if (gNeg_ == 0.0)
        lastZeroNeg_ = windows_;
    const double h = options_.cusumThreshold;
    if (gPos_ <= h && gNeg_ <= h)
        return false;
    // The change plausibly began where the firing side left zero.
    const std::size_t onset =
        gPos_ > h ? lastZeroPos_ : lastZeroNeg_;
    latency_ = windows_ > onset ? windows_ - onset : 1;
    return true;
}

void
ChangePointDetector::save(linalg::ByteWriter &w) const
{
    w.u64(windows_);
    w.u64(latency_);
    w.f64(warmupSum_);
    w.f64(bias_);
    w.f64(gPos_);
    w.f64(gNeg_);
    w.u64(lastZeroPos_);
    w.u64(lastZeroNeg_);
}

bool
ChangePointDetector::restore(linalg::ByteReader &r)
{
    windows_ = static_cast<std::size_t>(r.u64());
    latency_ = static_cast<std::size_t>(r.u64());
    warmupSum_ = r.f64();
    bias_ = r.f64();
    gPos_ = r.f64();
    gNeg_ = r.f64();
    lastZeroPos_ = static_cast<std::size_t>(r.u64());
    lastZeroNeg_ = static_cast<std::size_t>(r.u64());
    if (!r.ok()) {
        reset();
        return false;
    }
    return true;
}

std::vector<double>
changePointLatencyBuckets()
{
    return {1.0, 2.0, 3.0, 5.0, 8.0, 13.0, 21.0, 34.0};
}

} // namespace leo::runtime
