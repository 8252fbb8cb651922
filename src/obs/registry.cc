/**
 * @file
 * Implementation of the metrics registry.
 */

#include "obs/registry.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>

namespace leo::obs
{

namespace
{

/** Round-trip-exact double formatting for the JSON exports. */
std::string
fmtDouble(double v)
{
    if (!std::isfinite(v))
        return v > 0 ? "1e999" : (v < 0 ? "-1e999" : "0");
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        if (c == '"' || c == '\\')
            out.push_back('\\');
        out.push_back(c);
    }
    return out;
}

} // namespace

detail::HistogramCells::HistogramCells(std::vector<double> sorted_edges)
    : edges(std::move(sorted_edges)), counts(edges.size() + 1),
      min(std::numeric_limits<double>::infinity()),
      max(-std::numeric_limits<double>::infinity())
{
}

Counter
Registry::counter(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    return Counter(this, &counters_.try_emplace(name, 0u).first->second);
}

Gauge
Registry::gauge(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    return Gauge(this, &gauges_.try_emplace(name, 0.0).first->second);
}

Histogram
Registry::histogram(const std::string &name,
                    std::vector<double> edges)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = histograms_.find(name);
    if (it == histograms_.end()) {
        std::sort(edges.begin(), edges.end());
        edges.erase(std::unique(edges.begin(), edges.end()),
                    edges.end());
        it = histograms_.try_emplace(name, std::move(edges)).first;
    }
    return Histogram(this, &it->second);
}

Snapshot
Registry::snapshot() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    Snapshot snap;
    for (const auto &[name, cell] : counters_)
        snap.counters.emplace_back(
            name, cell.load(std::memory_order_relaxed));
    for (const auto &[name, cell] : gauges_)
        snap.gauges.emplace_back(name,
                                 cell.load(std::memory_order_relaxed));
    for (const auto &[name, cells] : histograms_) {
        HistogramSnapshot &h = snap.histograms.emplace_back();
        h.name = name;
        h.edges = cells.edges;
        for (const auto &count : cells.counts) {
            h.counts.push_back(count.load(std::memory_order_relaxed));
            h.count += h.counts.back();
        }
        h.sum = cells.sum.load(std::memory_order_relaxed);
        if (h.count > 0) {
            h.min = cells.min.load(std::memory_order_relaxed);
            h.max = cells.max.load(std::memory_order_relaxed);
        }
    }
    return snap;
}

Registry &
Registry::global()
{
    // Leaked on purpose: instrumented code may run during static
    // destruction (pool teardown, atexit trace writers).
    static Registry *reg = []() {
        auto *r = new Registry();
        if (const char *env = std::getenv("LEO_OBS")) {
            if (std::strcmp(env, "off") == 0 ||
                std::strcmp(env, "0") == 0)
                r->setEnabled(false);
        }
        return r;
    }();
    return *reg;
}

// ---- Handles ------------------------------------------------------

void
Counter::add(std::uint64_t n) const
{
    if (registry_ == nullptr || !registry_->enabled())
        return;
    cell_->fetch_add(n, std::memory_order_relaxed);
}

std::uint64_t
Counter::value() const
{
    return registry_ ? cell_->load(std::memory_order_relaxed) : 0;
}

void
Gauge::set(double v) const
{
    if (registry_ == nullptr || !registry_->enabled())
        return;
    cell_->store(v, std::memory_order_relaxed);
}

void
Histogram::record(double v) const
{
    if (registry_ == nullptr || !registry_->enabled())
        return;
    detail::HistogramCells &h = *cells_;
    // Bucket = first edge >= v; everything beyond the last edge goes
    // to the overflow cell.
    const auto it = std::lower_bound(h.edges.begin(), h.edges.end(), v);
    h.counts[static_cast<std::size_t>(it - h.edges.begin())].fetch_add(
        1, std::memory_order_relaxed);
    h.sum.fetch_add(v, std::memory_order_relaxed);
    double cur = h.min.load(std::memory_order_relaxed);
    while (v < cur && !h.min.compare_exchange_weak(
                          cur, v, std::memory_order_relaxed)) {
    }
    cur = h.max.load(std::memory_order_relaxed);
    while (v > cur && !h.max.compare_exchange_weak(
                          cur, v, std::memory_order_relaxed)) {
    }
}

// ---- Snapshot helpers ---------------------------------------------

std::uint64_t
Snapshot::counterOr(const std::string &name,
                    std::uint64_t fallback) const
{
    for (const auto &c : counters)
        if (c.first == name)
            return c.second;
    return fallback;
}

const HistogramSnapshot *
Snapshot::histogram(const std::string &name) const
{
    for (const HistogramSnapshot &h : histograms)
        if (h.name == name)
            return &h;
    return nullptr;
}

std::vector<double>
defaultTimeBucketsMs()
{
    // 2^-10 .. 2^14 ms: ~1 us to ~16 s.
    std::vector<double> edges;
    edges.reserve(25);
    for (int p = -10; p <= 14; ++p)
        edges.push_back(std::ldexp(1.0, p));
    return edges;
}

// ---- JSON export --------------------------------------------------

namespace
{

std::string
histogramJson(const HistogramSnapshot &h)
{
    std::string out = "{\"edges\": [";
    for (std::size_t i = 0; i < h.edges.size(); ++i) {
        if (i)
            out += ", ";
        out += fmtDouble(h.edges[i]);
    }
    out += "], \"counts\": [";
    for (std::size_t i = 0; i < h.counts.size(); ++i) {
        if (i)
            out += ", ";
        out += std::to_string(h.counts[i]);
    }
    out.append("], \"count\": ").append(std::to_string(h.count));
    out.append(", \"sum\": ").append(fmtDouble(h.sum));
    out.append(", \"min\": ").append(fmtDouble(h.min));
    out.append(", \"max\": ").append(fmtDouble(h.max)).append("}");
    return out;
}

} // namespace

std::string
snapshotJson(const Registry &reg)
{
    const Snapshot snap = reg.snapshot();
    std::string out = "{\n  \"counters\": {";
    // Appends rather than "..." + std::string&&, whose inlined copy
    // GCC 12 flags with a false -Wrestrict at -O3.
    const auto entry = [&out](std::size_t i, const std::string &name,
                              const std::string &value) {
        out.append(i ? ",\n    " : "\n    ")
            .append("\"")
            .append(jsonEscape(name))
            .append("\": ")
            .append(value);
    };
    for (std::size_t i = 0; i < snap.counters.size(); ++i)
        entry(i, snap.counters[i].first,
              std::to_string(snap.counters[i].second));
    out += snap.counters.empty() ? "},\n" : "\n  },\n";
    out += "  \"gauges\": {";
    for (std::size_t i = 0; i < snap.gauges.size(); ++i)
        entry(i, snap.gauges[i].first, fmtDouble(snap.gauges[i].second));
    out += snap.gauges.empty() ? "},\n" : "\n  },\n";
    out += "  \"histograms\": {";
    for (std::size_t i = 0; i < snap.histograms.size(); ++i)
        entry(i, snap.histograms[i].name,
              histogramJson(snap.histograms[i]));
    out += snap.histograms.empty() ? "}\n}" : "\n  }\n}";
    return out;
}

// ---- ScopedMs -----------------------------------------------------

ScopedMs::ScopedMs(Histogram h) : hist_(h), active_(h.live())
{
    if (active_)
        t0_ = std::chrono::steady_clock::now();
}

ScopedMs::~ScopedMs()
{
    if (!active_)
        return;
    const auto t1 = std::chrono::steady_clock::now();
    hist_.record(
        std::chrono::duration<double, std::milli>(t1 - t0_).count());
}

} // namespace leo::obs
