/**
 * @file
 * The tracing half of `leo::obs`: RAII scoped spans recorded into a
 * bounded event buffer and exported in Chrome `trace_event` format
 * (a JSON file loadable in Perfetto or chrome://tracing).
 *
 * Cost model:
 *
 *  - Tracing is **off by default**. A Span constructed while the
 *    tracer is disabled costs one relaxed atomic load and a branch —
 *    no clock reads, no stores. This is the null-sink mode that
 *    keeps the instrumented pipeline inside the overhead budget.
 *  - When enabled, a span costs two steady-clock reads plus one
 *    lock-free slot claim (relaxed fetch_add) into a pre-allocated
 *    buffer. Once the buffer is full further events are dropped and
 *    counted — dropped() — rather than blocking or reallocating.
 *  - Event slots are published with a per-slot release flag, so an
 *    export running concurrently with writers only sees fully
 *    written events (and is ThreadSanitizer-clean).
 *
 * Span names and arg keys must be string literals (or otherwise
 * outlive the tracer): events store the pointers, not copies.
 */

#ifndef LEO_OBS_TRACE_HH
#define LEO_OBS_TRACE_HH

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace leo::obs
{

/**
 * The process-wide span collector.
 *
 * enable()/disable()/clear() must not run concurrently with live
 * spans; everything else is thread safe.
 */
class Tracer
{
  public:
    /** Maximum key/value args attachable to one span. */
    static constexpr std::size_t kMaxArgs = 5;

    /** One completed span (Chrome "X" event). */
    struct Event
    {
        const char *name = nullptr;
        const char *cat = nullptr;
        double tsMicros = 0.0;
        double durMicros = 0.0;
        std::uint32_t tid = 0;
        std::uint32_t nargs = 0;
        const char *keys[kMaxArgs] = {};
        double values[kMaxArgs] = {};
        std::atomic<bool> ready{false};
    };

    Tracer() = default;
    ~Tracer();

    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    /**
     * Allocate an event buffer and start recording.
     *
     * @param capacity Maximum events retained; later events are
     *                 dropped (and counted) once full.
     */
    void enable(std::size_t capacity);

    /** Stop recording (the buffer is kept for export). */
    void disable();

    /** @return True iff spans are being recorded. */
    bool enabled() const
    {
        return enabled_.load(std::memory_order_acquire);
    }

    /** @return Events retained in the buffer. */
    std::size_t recorded() const;

    /** @return Events dropped because the buffer was full. */
    std::uint64_t dropped() const
    {
        return dropped_.load(std::memory_order_relaxed);
    }

    /** Forget every recorded event (keeps the buffer and state). */
    void clear();

    /**
     * Render the Chrome trace_event JSON document:
     * `{"displayTimeUnit": "ms", "traceEvents": [...]}` with "X"
     * (complete) events sorted by timestamp.
     */
    std::string chromeTraceJson() const;

    /**
     * Write chromeTraceJson() to a file.
     *
     * @return True on success.
     */
    bool writeChromeTrace(const std::string &path) const;

    /** Claim an event slot; nullptr when disabled or full. */
    Event *claim();

    /** Monotone microseconds since the first call in the process. */
    static double nowMicros();

    /** Small dense id of the calling thread (1, 2, ...). */
    static std::uint32_t threadId();

    /**
     * The process-wide tracer. Never destructed (safe during static
     * destruction). Disabled until enable() is called.
     */
    static Tracer &global();

  private:
    std::atomic<bool> enabled_{false};
    std::atomic<std::size_t> next_{0};
    std::atomic<std::uint64_t> dropped_{0};
    /** Lock-free view of the current buffer for claim(); the vectors
     *  below own the storage. */
    std::atomic<Event *> data_{nullptr};
    std::atomic<std::size_t> cap_{0};
    mutable std::mutex mutex_;
    std::vector<Event> ring_;
    /** Buffers from previous enable() calls; kept so a straggling
     *  span from an old epoch never writes freed memory. */
    std::vector<std::vector<Event>> retired_;
};

/**
 * RAII scoped span on the global tracer: records name, thread id,
 * start timestamp and duration; up to kMaxArgs numeric args.
 *
 * A span created while tracing is disabled is inert (no clocks, no
 * stores) — the zero-overhead guarantee of the subsystem.
 */
class Span
{
  public:
    /**
     * @param name Span name (string literal; `subsystem.noun`).
     * @param cat  Chrome trace category (string literal).
     */
    explicit Span(const char *name, const char *cat = "leo");
    ~Span();

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    /** Attach a numeric argument (ignored beyond kMaxArgs). */
    void arg(const char *key, double value);

  private:
    const char *name_;
    const char *cat_;
    double t0_ = 0.0;
    bool active_ = false;
    std::uint32_t nargs_ = 0;
    const char *keys_[Tracer::kMaxArgs] = {};
    double values_[Tracer::kMaxArgs] = {};
};

} // namespace leo::obs

#endif // LEO_OBS_TRACE_HH
