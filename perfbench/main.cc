/**
 * @file
 * Entry point of the end-to-end benchmark and the shared helpers of
 * common.hh.
 *
 *   leo_perfbench --workload paper_loop|fleet_rolling|fleet_capped
 *                 --seed N --seconds S --trace 0|1
 *
 * Prints a human-readable table (metric, value, unit, samples), a
 * `digest` line over every value that must repeat exactly for a
 * seed, and as the last line one JSON object with the keys correct,
 * attempted, failed and metrics. perfbench/README.md documents the
 * workloads and metrics.
 */

#include <sys/mman.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <stdexcept>
#include <string>

#include "common.hh"
#include "optimizer/schedule.hh"
#include "stats/metrics.hh"

namespace perfbench
{

std::uint64_t
mix(std::uint64_t seed, std::uint64_t a, std::uint64_t b,
    std::uint64_t c)
{
    // splitmix64 over the tag stream: distinct tags give unrelated
    // streams, equal tags the same one.
    std::uint64_t x = seed;
    for (const std::uint64_t v : {a, b, c}) {
        x += 0x9e3779b97f4a7c15ULL + v;
        x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
        x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
        x ^= x >> 31;
    }
    return x;
}

double
Samples::sum() const
{
    double s = 0.0;
    for (const double v : values_)
        s += v;
    return s;
}

double
Samples::mean() const
{
    return values_.empty() ? 0.0
                           : sum() / static_cast<double>(values_.size());
}

double
Samples::quantile(double q) const
{
    if (values_.empty())
        return 0.0;
    std::vector<double> v = values_;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

void
BlockTail::add(std::size_t unit, double v)
{
    const std::size_t b = unit / kBlock;
    if (blocks_.size() <= b)
        blocks_.resize(b + 1);
    blocks_[b].add(v);
    all_.add(v);
}

double
BlockTail::p95(std::size_t units) const
{
    const std::size_t full = std::min(units / kBlock, blocks_.size());
    if (full == 0)
        return all_.quantile(0.95);
    Samples p95;
    for (std::size_t b = 0; b < full; ++b)
        p95.add(blocks_[b].quantile(0.95));
    return p95.quantile(0.5);
}

void
Report::add(const std::string &name, double value,
            const std::string &unit, std::size_t n)
{
    metrics_.push_back({name, value, unit, n});
}

void
Report::fail(const std::string &what)
{
    ++failures_[what];
}

void
Report::note(const std::string &line)
{
    notes_.push_back(line);
}

void
Digest::add(double v)
{
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    for (int i = 0; i < 8; ++i) {
        h_ ^= (bits >> (8 * i)) & 0xff;
        h_ *= 1099511628211ULL;
    }
}

double
Report::successRatio() const
{
    return attempted_ == 0
               ? 0.0
               : static_cast<double>(attempted_ - failed_) /
                     static_cast<double>(attempted_);
}

void
Report::print() const
{
    for (const std::string &n : notes_)
        std::printf("%s\n", n.c_str());
    std::printf("%-34s %16s %-6s %8s\n", "metric", "value", "unit",
                "samples");
    for (const Metric &m : metrics_)
        std::printf("%-34s %16.6g %-6s %8zu\n", m.name.c_str(), m.value,
                    m.unit.c_str(), m.n);
    std::printf("operations: %llu attempted, %llu failed\n",
                static_cast<unsigned long long>(attempted_),
                static_cast<unsigned long long>(failed_));
    for (const auto &[kind, n] : failedKinds_)
        std::printf("  failed: %s x %llu\n", kind.c_str(),
                    static_cast<unsigned long long>(n));
    for (const auto &[what, n] : failures_)
        std::printf("CHECK FAILED: %s x %llu\n", what.c_str(),
                    static_cast<unsigned long long>(n));
    std::printf("digest %016llx\n",
                static_cast<unsigned long long>(digest_.value()));

    std::string json = "{\"correct\": ";
    json += failures_.empty() ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(attempted_);
    json += ", \"failed\": " + std::to_string(failed_);
    json += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
        char value[64];
        // Every digit as measured; JSON has no NaN or Infinity.
        std::snprintf(value, sizeof value, "%.17g",
                      std::isfinite(metrics_[i].value)
                          ? metrics_[i].value
                          : 0.0);
        json += (i ? ", \"" : "\"") + metrics_[i].name +
                "\": {\"value\": " + value + ", \"unit\": \"" +
                metrics_[i].unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
}

namespace
{

/** The per-layer catalogue: name and unit, in report order. */
const std::pair<const char *, const char *> kLayerCatalogue[] = {
    {"telemetry.collect_ms", "ms"},
    {"estimators.prior_prep_ms", "ms"},
    {"estimators.sanitize_us", "us"},
    {"estimators.fit_cold_ms", "ms"},
    {"estimators.fit_warm_ms", "ms"},
    {"estimators.em_iters_cold", "iters"},
    {"estimators.em_iters_warm", "iters"},
    {"estimators.fits", "count"},
    {"estimators.ridge_retries", "count"},
    {"linalg.prior_basis_ms", "ms"},
    {"linalg.obs_basis_ms", "ms"},
    {"linalg.lp_solve_ms", "ms"},
    {"linalg.lp_pivots_per_solve", "count"},
    {"optimizer.frontier_us", "us"},
    {"optimizer.hull_plan_us", "us"},
    {"optimizer.global_plan_p50_ms", "ms"},
    {"optimizer.global_plan_p95_ms", "ms"},
    {"optimizer.global_infeasible", "count"},
    {"runtime.window_us", "us"},
    {"runtime.reestimations", "count"},
    {"runtime.fallbacks", "count"},
    {"service.tick_ms", "ms"},
    {"service.submit_us", "us"},
    {"service.fit_batch_ms", "ms"},
    {"service.drain_ms", "ms"},
    {"service.fits_per_tick", "count"},
    {"service.cache_hit_ratio", "ratio"},
    {"service.snapshot_bytes", "bytes"},
    {"obs.trace_overhead", "ratio"},
};

/** Program events kept per harvest; harvests run every period, so
 *  this bounds one period's spans with a wide margin. */
constexpr std::size_t kTraceCapacity = 1u << 16;

} // namespace

Trace::Scope::Scope(Trace &trace, const char *name)
    : trace_(trace.on_ ? &trace : nullptr), name_(name)
{
    if (trace_)
        t0_ = nowUs();
}

Trace::Scope::~Scope()
{
    if (trace_)
        trace_->own_.push_back({name_, t0_, nowUs() - t0_});
}

void
Trace::start()
{
    // enable() allocates a fresh buffer, so a run starts the tracer
    // only a couple of times (see follow()).
    leo::obs::Tracer::global().enable(kTraceCapacity);
    on_ = true;
}

void
Trace::stop()
{
    harvest();
    leo::obs::Tracer::global().disable();
    on_ = false;
}

void
Trace::follow(double elapsed_s, double run_s)
{
    const bool want = static_cast<int>(4.0 * elapsed_s / run_s) % 2 == 1;
    if (want && !on_)
        start();
    else if (!want && on_)
        stop();
}

void
Trace::discardProgramSpans()
{
    leo::obs::Tracer &tracer = leo::obs::Tracer::global();
    dropped_ += tracer.dropped();
    tracer.clear();
}

void
Trace::harvest()
{
    std::vector<Span> spans = std::move(own_);
    own_.clear();
    // The program's spans, pulled out of the tracer's Chrome JSON
    // export: one "X" event per line, name first, then ts and dur.
    leo::obs::Tracer &tracer = leo::obs::Tracer::global();
    const std::string json =
        tracer.recorded() > 0 ? tracer.chromeTraceJson() : std::string();
    dropped_ += tracer.dropped();
    tracer.clear();
    for (std::size_t pos = 0;
         (pos = json.find("{\"name\": \"", pos)) != std::string::npos;) {
        pos += 10;
        const std::size_t end = json.find('"', pos);
        const std::size_t line_end = json.find('\n', end);
        const std::size_t ts = json.find("\"ts\": ", end);
        const std::size_t dur = json.find("\"dur\": ", end);
        if (dur < line_end && ts < line_end) // Metadata has no dur.
            spans.push_back(
                {json.substr(pos, end - pos),
                 std::strtod(json.c_str() + ts + 6, nullptr),
                 std::strtod(json.c_str() + dur + 7, nullptr)});
        pos = end;
    }
    if (spans.empty())
        return;
    // Parents sort before the children they contain; one thread runs
    // everything, so spans nest strictly and a stack recovers the
    // tree. Self time = duration minus the direct children.
    std::sort(spans.begin(), spans.end(),
              [](const Span &a, const Span &b) {
                  return a.ts != b.ts ? a.ts < b.ts : a.dur > b.dur;
              });
    std::vector<double> child(spans.size(), 0.0);
    std::vector<std::size_t> stack;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        while (!stack.empty() &&
               spans[stack.back()].ts + spans[stack.back()].dur <=
                   spans[i].ts)
            stack.pop_back();
        if (!stack.empty())
            child[stack.back()] += spans[i].dur;
        stack.push_back(i);
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
        Stat &s = stats_[spans[i].name];
        ++s.count;
        s.totalUs += spans[i].dur;
        s.selfUs += spans[i].dur - child[i];
        s.durUs.add(spans[i].dur);
    }
}

const Trace::Stat &
Trace::stat(const std::string &name) const
{
    static const Stat empty;
    const auto it = stats_.find(name);
    return it == stats_.end() ? empty : it->second;
}

void
Layers::set(const std::string &name, double value, std::size_t n)
{
    for (const auto &[known, unit] : kLayerCatalogue)
        if (name == known) {
            values_[name] = {value, n};
            return;
        }
    throw std::logic_error("unknown per-layer metric " + name);
}

void
Layers::report(Report &report) const
{
    for (const auto &[name, unit] : kLayerCatalogue) {
        const auto it = values_.find(name);
        const auto v = it == values_.end()
                           ? std::pair<double, std::size_t>{0.0, 0}
                           : it->second;
        report.add(name, v.first, unit, v.second);
    }
}

double
peakRate(const leo::workloads::GroundTruth &truth)
{
    double peak = 0.0;
    for (std::size_t c = 0; c < truth.performance.size(); ++c)
        peak = std::max(peak, truth.performance[c]);
    return peak;
}

Quality
scoreEstimates(const leo::linalg::Vector &perf,
               const leo::linalg::Vector &power,
               const leo::workloads::GroundTruth &truth,
               double idle_power, double work, double deadline)
{
    namespace opt = leo::optimizer;
    Quality q;
    q.finite = perf.size() == truth.performance.size() &&
               power.size() == truth.power.size() && perf.allFinite() &&
               power.allFinite();
    if (!q.finite)
        return q;
    q.perfAccuracy = leo::stats::accuracy(perf, truth.performance);
    q.powerAccuracy = leo::stats::accuracy(power, truth.power);
    const opt::PerformanceConstraint c{work, deadline};
    const opt::Schedule plan =
        opt::planMinimalEnergy(perf, power, idle_power, c);
    const opt::Schedule best = opt::planMinimalEnergy(
        truth.performance, truth.power, idle_power, c);
    const double got =
        opt::executeScheduleGuarded(plan, truth.performance,
                                    truth.power, idle_power, c)
            .energyJoules;
    q.energyRatio = got / best.predictedEnergy;
    return q;
}

namespace
{

/** Nominal kernel time: at this speed the normalized timings equal
 *  wall time. */
constexpr double kNominalKernelUs = 1000.0;
/** Fresh memory the kernel maps and touches per measurement. */
constexpr std::size_t kFaultBytes = 512 * 1024;
constexpr int kFaultMaps = 4;

} // namespace

double
HostSpeed::measure()
{
    // One untimed pass first, so the timed pass finds the kernel's
    // data in cache whatever the program's last call left there.
    multiplyAdd();
    const double t0 = nowUs();
    multiplyAdd();
    touchFreshPages();
    const double f = (nowUs() - t0) / kNominalKernelUs;
    recent_[count_++ % 3] = f;
    all_.add(f);
    return f;
}

void
HostSpeed::touchFreshPages()
{
    static const std::size_t page =
        static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
    for (int rep = 0; rep < kFaultMaps; ++rep) {
        void *p = mmap(nullptr, kFaultBytes, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
        if (p == MAP_FAILED)
            throw std::runtime_error("host-speed kernel: mmap failed");
        volatile char *bytes = static_cast<volatile char *>(p);
        for (std::size_t i = 0; i < kFaultBytes; i += page)
            bytes[i] = 1;
        munmap(p, kFaultBytes);
    }
}

void
HostSpeed::multiplyAdd()
{
    const std::size_t n = 48;
    for (int rep = 0; rep < 6; ++rep) {
        std::fill(c_.begin(), c_.end(), 0.0);
        for (std::size_t i = 0; i < n; ++i)
            for (std::size_t k = 0; k < n; ++k) {
                const double aik = a_[i * n + k];
                for (std::size_t j = 0; j < n; ++j)
                    c_[i * n + j] += aik * b_[k * n + j];
            }
        a_[rep % n] += c_[7] * 1e-12;
    }
    for (int rep = 0; rep < 3; ++rep) {
        for (std::size_t k = 0; k < n; ++k) {
            double acc = 0.0;
            for (std::size_t j = 0; j < x_.size(); ++j)
                acc += q_[k * x_.size() + j] * x_[j];
            y_[k] = acc;
        }
        x_[rep] += y_[3] * 1e-12;
    }
}

double
HostSpeed::factor() const
{
    const std::size_t n = std::min<std::size_t>(count_, 3);
    if (n == 0)
        return 1.0;
    double r[3] = {recent_[0], recent_[1], recent_[2]};
    std::sort(r, r + n);
    return n == 2 ? 0.5 * (r[0] + r[1]) : r[n / 2];
}

double
peakRssMb()
{
    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux.
}

} // namespace perfbench

namespace
{

int
usage()
{
    std::fprintf(stderr,
                 "usage: leo_perfbench --workload "
                 "paper_loop|fleet_rolling|fleet_capped --seed N "
                 "--seconds S --trace 0|1\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    perfbench::Options opt;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const char *val = argv[i + 1];
        if (key == "--workload")
            opt.workload = val;
        else if (key == "--seed")
            opt.seed = std::strtoull(val, nullptr, 10);
        else if (key == "--seconds")
            opt.seconds = std::strtod(val, nullptr);
        else if (key == "--trace")
            opt.trace = std::strcmp(val, "0") != 0;
        else
            return usage();
    }
    if (argc % 2 == 0 || !(opt.seconds > 0.0))
        return usage();

    perfbench::Report report;
    try {
        if (opt.workload == "paper_loop")
            perfbench::runPaperLoop(opt, report);
        else if (opt.workload == "fleet_rolling")
            perfbench::runFleetRolling(opt, report);
        else if (opt.workload == "fleet_capped")
            perfbench::runFleetCapped(opt, report);
        else
            return usage();
    } catch (const std::exception &e) {
        std::fprintf(stderr, "leo_perfbench: %s\n", e.what());
        return 1;
    }
    report.print();
    return 0;
}
