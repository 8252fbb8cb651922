/**
 * @file
 * Implementation of the sharded metrics registry.
 *
 * Shard layout: each kind of cell lives in a two-level structure of
 * fixed-size blocks behind atomic pointers. The top-level pointer
 * array is embedded in the Shard (never reallocated), and a block,
 * once published, is immutable in structure — so a reader walking
 * blocks concurrently with the owner thread allocating new ones only
 * ever touches atomics. This is what keeps the writer path free of
 * locks *and* of ThreadSanitizer reports.
 *
 * Only the shard's owning thread allocates blocks and writes cells;
 * the snapshot thread reads cells through relaxed atomic loads. A
 * thread's first write to a registry creates its shard under the
 * registry mutex (see prepareThread() for pre-creating it outside an
 * allocation-audited region).
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

/** Cells per block; blocks per kind. 64 x 64 = 4096 cells, far more
 *  instruments than the pipeline registers. */
constexpr std::size_t kBlock = 64;
constexpr std::size_t kMaxBlocks = 64;

/** Registry instance ids are never reused, so a thread-local cache
 *  entry for a destroyed registry can never be mismatched. */
std::atomic<std::uint64_t> next_registry_id{1};

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

/** Per-thread storage: atomic cells in stable two-level blocks. */
struct Registry::Shard
{
    struct U64Block
    {
        std::atomic<std::uint64_t> v[kBlock] = {};
    };
    struct GaugeCell
    {
        std::atomic<double> value{0.0};
        std::atomic<std::uint64_t> seq{0};
    };
    struct GaugeBlock
    {
        GaugeCell v[kBlock];
    };
    struct StatCell
    {
        std::atomic<double> sum{0.0};
        std::atomic<double> minv{
            std::numeric_limits<double>::infinity()};
        std::atomic<double> maxv{
            -std::numeric_limits<double>::infinity()};
    };
    struct StatBlock
    {
        StatCell v[kBlock];
    };

    std::atomic<U64Block *> counters[kMaxBlocks] = {};
    std::atomic<GaugeBlock *> gauges[kMaxBlocks] = {};
    std::atomic<U64Block *> buckets[kMaxBlocks] = {};
    std::atomic<StatBlock *> stats[kMaxBlocks] = {};

    ~Shard()
    {
        for (std::size_t b = 0; b < kMaxBlocks; ++b) {
            delete counters[b].load(std::memory_order_relaxed);
            delete gauges[b].load(std::memory_order_relaxed);
            delete buckets[b].load(std::memory_order_relaxed);
            delete stats[b].load(std::memory_order_relaxed);
        }
    }

    /** Owner-thread cell access: publish the block on first touch. */
    template <typename Block>
    static Block &
    ownBlock(std::atomic<Block *> (&blocks)[kMaxBlocks],
             std::size_t slot)
    {
        std::atomic<Block *> &p = blocks[slot / kBlock];
        Block *b = p.load(std::memory_order_acquire);
        if (b == nullptr) {
            b = new Block(); // leo-lint: allow(hot-alloc-transitive) first-touch lazy block; amortized, never steady-state
            p.store(b, std::memory_order_release);
        }
        return *b;
    }

    /** Reader cell access: nullptr block means all-zero cells. */
    template <typename Block>
    static const Block *
    peekBlock(const std::atomic<Block *> (&blocks)[kMaxBlocks],
              std::size_t slot)
    {
        return blocks[slot / kBlock].load(std::memory_order_acquire);
    }
};

namespace
{

/** The calling thread's shard cache, keyed by registry id. The
 *  payload is a Registry::Shard* (opaque here because Shard is a
 *  private member type). */
thread_local std::vector<std::pair<std::uint64_t, void *>> tls_shards;

} // namespace

Registry::Registry()
    : id_(next_registry_id.fetch_add(1, std::memory_order_relaxed))
{
}

Registry::~Registry() = default;

Registry::Shard &
Registry::shard()
{
    for (const auto &entry : tls_shards)
        if (entry.first == id_)
            return *static_cast<Shard *>(entry.second);
    std::lock_guard<std::mutex> lock(mutex_);
    Shard &s = shards_.emplace_back();
    tls_shards.emplace_back(id_, &s);
    return s;
}

void
Registry::prepareThread()
{
    Shard &s = shard();
    std::lock_guard<std::mutex> lock(mutex_);
    for (std::size_t c = 0; c < num_counters_; ++c)
        Shard::ownBlock(s.counters, c);
    for (std::size_t g = 0; g < num_gauges_; ++g)
        Shard::ownBlock(s.gauges, g);
    for (std::size_t b = 0; b < num_hist_buckets_; ++b)
        Shard::ownBlock(s.buckets, b);
    for (std::size_t h = 0; h < num_hist_cells_; ++h)
        Shard::ownBlock(s.stats, h);
}

Counter
Registry::counter(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = index_.find(name);
    if (it != index_.end())
        return Counter(this, instruments_[it->second].slot);
    const std::size_t slot = num_counters_++;
    index_[name] = instruments_.size();
    instruments_.push_back({name, Kind::Counter, slot, nullptr});
    return Counter(this, slot);
}

Gauge
Registry::gauge(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = index_.find(name);
    if (it != index_.end())
        return Gauge(this, instruments_[it->second].slot);
    const std::size_t slot = num_gauges_++;
    index_[name] = instruments_.size();
    instruments_.push_back({name, Kind::Gauge, slot, nullptr});
    return Gauge(this, slot);
}

Histogram
Registry::histogram(const std::string &name,
                    std::vector<double> edges)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = index_.find(name);
    if (it != index_.end())
        return Histogram(this, instruments_[it->second].desc);
    detail::HistDesc &desc = hist_descs_.emplace_back();
    desc.edges = std::move(edges);
    std::sort(desc.edges.begin(), desc.edges.end());
    desc.edges.erase(
        std::unique(desc.edges.begin(), desc.edges.end()),
        desc.edges.end());
    desc.base = num_hist_buckets_;
    desc.index = num_hist_cells_++;
    num_hist_buckets_ += desc.edges.size() + 1;
    index_[name] = instruments_.size();
    instruments_.push_back({name, Kind::Histogram, desc.index, &desc});
    return Histogram(this, &desc);
}

void
Registry::counterAdd(std::size_t slot, std::uint64_t n)
{
    auto &cell =
        Shard::ownBlock(shard().counters, slot).v[slot % kBlock];
    cell.fetch_add(n, std::memory_order_relaxed);
}

std::uint64_t
Registry::counterValue(std::size_t slot) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::uint64_t total = 0;
    for (const Shard &s : shards_) {
        const auto *block = Shard::peekBlock(s.counters, slot);
        if (block)
            total += block->v[slot % kBlock].load(
                std::memory_order_relaxed);
    }
    return total;
}

void
Registry::gaugeSet(std::size_t slot, double v)
{
    // Ticket first, then the value: the merge takes the highest
    // ticket, so the last set wins across shards.
    const std::uint64_t seq =
        1 + gauge_seq_.fetch_add(1, std::memory_order_relaxed);
    auto &cell = Shard::ownBlock(shard().gauges, slot).v[slot % kBlock];
    cell.value.store(v, std::memory_order_relaxed);
    cell.seq.store(seq, std::memory_order_release);
}

void
Registry::histRecord(const detail::HistDesc &desc, double v)
{
    Shard &s = shard();
    // Bucket = first edge >= v; everything beyond the last edge goes
    // to the overflow cell.
    const auto it =
        std::lower_bound(desc.edges.begin(), desc.edges.end(), v);
    const std::size_t bucket =
        desc.base +
        static_cast<std::size_t>(it - desc.edges.begin());
    Shard::ownBlock(s.buckets, bucket)
        .v[bucket % kBlock]
        .fetch_add(1, std::memory_order_relaxed);

    auto &stat =
        Shard::ownBlock(s.stats, desc.index).v[desc.index % kBlock];
    stat.sum.fetch_add(v, std::memory_order_relaxed);
    double cur = stat.minv.load(std::memory_order_relaxed);
    while (v < cur &&
           !stat.minv.compare_exchange_weak(
               cur, v, std::memory_order_relaxed)) {
    }
    cur = stat.maxv.load(std::memory_order_relaxed);
    while (v > cur &&
           !stat.maxv.compare_exchange_weak(
               cur, v, std::memory_order_relaxed)) {
    }
}

Snapshot
Registry::snapshot() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    Snapshot snap;
    // instruments_ is appended in registration order; collect then
    // sort by name so the view is independent of registration races.
    for (const Instrument &ins : instruments_) {
        if (ins.kind == Kind::Counter) {
            std::uint64_t total = 0;
            for (const Shard &s : shards_) {
                const auto *b = Shard::peekBlock(s.counters, ins.slot);
                if (b)
                    total += b->v[ins.slot % kBlock].load(
                        std::memory_order_relaxed);
            }
            snap.counters.emplace_back(ins.name, total);
        } else if (ins.kind == Kind::Gauge) {
            double value = 0.0;
            std::uint64_t best = 0;
            for (const Shard &s : shards_) {
                const auto *b = Shard::peekBlock(s.gauges, ins.slot);
                if (!b)
                    continue;
                const auto &cell = b->v[ins.slot % kBlock];
                const std::uint64_t seq =
                    cell.seq.load(std::memory_order_acquire);
                if (seq > best) {
                    best = seq;
                    value =
                        cell.value.load(std::memory_order_relaxed);
                }
            }
            snap.gauges.emplace_back(ins.name, value);
        } else {
            const detail::HistDesc &d = *ins.desc;
            HistogramSnapshot h;
            h.name = ins.name;
            h.edges = d.edges;
            h.counts.assign(d.edges.size() + 1, 0);
            double minv = std::numeric_limits<double>::infinity();
            double maxv = -std::numeric_limits<double>::infinity();
            for (const Shard &s : shards_) {
                for (std::size_t b = 0; b < h.counts.size(); ++b) {
                    const std::size_t cell = d.base + b;
                    const auto *blk =
                        Shard::peekBlock(s.buckets, cell);
                    if (blk)
                        h.counts[b] += blk->v[cell % kBlock].load(
                            std::memory_order_relaxed);
                }
                const auto *stat = Shard::peekBlock(s.stats, d.index);
                if (stat) {
                    const auto &cell = stat->v[d.index % kBlock];
                    h.sum +=
                        cell.sum.load(std::memory_order_relaxed);
                    minv = std::min(
                        minv,
                        cell.minv.load(std::memory_order_relaxed));
                    maxv = std::max(
                        maxv,
                        cell.maxv.load(std::memory_order_relaxed));
                }
            }
            for (std::uint64_t c : h.counts)
                h.count += c;
            if (h.count > 0) {
                h.min = minv;
                h.max = maxv;
            }
            snap.histograms.push_back(std::move(h));
        }
    }
    std::sort(snap.counters.begin(), snap.counters.end());
    std::sort(snap.gauges.begin(), snap.gauges.end());
    std::sort(snap.histograms.begin(), snap.histograms.end(),
              [](const HistogramSnapshot &a,
                 const HistogramSnapshot &b) {
                  return a.name < b.name;
              });
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
    registry_->counterAdd(slot_, n);
}

std::uint64_t
Counter::value() const
{
    return registry_ ? registry_->counterValue(slot_) : 0;
}

void
Gauge::set(double v) const
{
    if (registry_ == nullptr || !registry_->enabled())
        return;
    registry_->gaugeSet(slot_, v);
}

void
Histogram::record(double v) const
{
    if (registry_ == nullptr || desc_ == nullptr ||
        !registry_->enabled())
        return;
    registry_->histRecord(*desc_, v);
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
