#include "workloads/trace.hh"

#include <algorithm>
#include <bit>
#include <fstream>
#include <numeric>
#include <sstream>
#include <string_view>
#include <utility>

#include "linalg/error.hh"
#include "workloads/fields.hh"
#include "workloads/jsonish.hh"

namespace leo::workloads
{

namespace
{

/** Append one validated (config, perf, power) row to a segment;
 *  @p where prefixes the error messages. */
void
pushRow(TraceSegment &seg, const std::string &where,
        std::string_view config, std::string_view perf,
        std::string_view power)
{
    const std::size_t c =
        fields::parseCount(config, where + ": config index");
    const double p =
        fields::parseFinite(perf, where + ": performance");
    const double w = fields::parseFinite(power, where + ": power");
    require(p > 0.0, where + ": performance must be positive");
    require(w > 0.0, where + ": power must be positive");
    if (std::find(seg.indices.begin(), seg.indices.end(), c) !=
        seg.indices.end())
        fatal(where + ": duplicate config index " +
              std::to_string(c) + " in segment");
    seg.indices.push_back(c);
    seg.performance.push_back(p);
    seg.power.push_back(w);
}

/** Append a segment to @p table with its rows sorted by config
 *  index; @p where prefixes the empty-segment error. */
void
appendSegment(TraceTable &table, const TraceSegment &seg,
              const std::string &where)
{
    require(!seg.indices.empty(), where + ": empty segment");
    std::vector<std::size_t> order(seg.indices.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    // Indices are unique within a segment: the order is total.
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) {
                  return seg.indices[a] < seg.indices[b];
              });
    TraceSegment &sorted = table.segments.emplace_back();
    sorted.workUnits = seg.workUnits;
    for (const std::size_t o : order) {
        sorted.indices.push_back(seg.indices[o]);
        sorted.performance.push_back(seg.performance[o]);
        sorted.power.push_back(seg.power[o]);
    }
}

TraceTable
fromCsv(const std::string &text)
{
    TraceTable table;
    TraceSegment cur;
    bool open = false; // A segment is being accumulated.
    std::size_t lineno = 0;
    std::stringstream ss(text);
    std::string raw;

    const auto closeSegment = [&]() {
        appendSegment(table, cur,
                      "trace: line " + std::to_string(lineno));
        cur = TraceSegment{};
    };

    while (std::getline(ss, raw)) {
        ++lineno;
        const std::string line = fields::stripLine(raw);
        if (line.empty())
            continue;
        const auto cells = fields::splitCommas(line);
        const std::string where =
            "trace: line " + std::to_string(lineno);
        if (cells[0] == "segment") {
            require(cells.size() == 2,
                    where + ": segment directive needs exactly one "
                            "work-unit count");
            if (open)
                closeSegment();
            cur.workUnits = fields::parseCount(
                cells[1], where + ": work-unit count");
            open = true;
            continue;
        }
        if (cells[0] == "config" || cells[0] == "index")
            continue; // Optional header row.
        require(cells.size() == 3,
                where + ": expected 3 columns "
                        "(config,performance,power), got " +
                    std::to_string(cells.size()));
        open = true; // The first row may open an unbounded segment.
        pushRow(cur, where, cells[0], cells[1], cells[2]);
    }
    require(open, "trace: no data rows");
    closeSegment();
    return table;
}

/** One [c, perf, power] JSON row. */
void
pushJsonRow(TraceSegment &seg, const jsonish::Value &row)
{
    require(row.isArray() && row.items().size() == 3,
            "trace: each row must be a [config, performance, power] "
            "triple");
    const auto &cells = row.items();
    pushRow(seg, "trace: JSON row", cells[0].numberText(),
            cells[1].numberText(), cells[2].numberText());
}

TraceTable
fromJson(const std::string &text)
{
    const jsonish::Value doc = jsonish::parse(text);
    TraceTable table;
    if (doc.isArray()) {
        TraceSegment seg;
        for (const auto &row : doc.items())
            pushJsonRow(seg, row);
        appendSegment(table, seg, "trace");
        return table;
    }
    require(doc.isObject() && doc.has("segments"),
            "trace: JSON root must be a row array or an object with "
            "'segments'");
    const auto &segs = doc.at("segments").items();
    require(!segs.empty(), "trace: 'segments' is empty");
    for (const auto &sv : segs) {
        require(sv.isObject() && sv.has("rows"),
                "trace: each segment needs a 'rows' array");
        TraceSegment seg;
        if (sv.has("workUnits"))
            seg.workUnits = fields::parseCount(
                sv.at("workUnits").numberText(), "trace: workUnits");
        for (const auto &row : sv.at("rows").items())
            pushJsonRow(seg, row);
        appendSegment(table, seg, "trace");
    }
    return table;
}

/** Fill one dense value from sorted sparse rows: the measured row
 *  itself, index-linear between its neighbors, clamped at the ends. */
double
fillValue(const std::vector<std::size_t> &idx,
          const std::vector<double> &val, std::size_t c)
{
    // Find the first measured row at or above c.
    std::size_t hi = 0;
    while (hi < idx.size() && idx[hi] < c)
        ++hi;
    if (hi < idx.size() && idx[hi] == c)
        return val[hi]; // Exact row: replay the measurement.
    if (hi == 0)
        return val.front(); // Before the first row: clamp.
    if (hi == idx.size())
        return val.back(); // Past the last row: clamp.
    const std::size_t lo = hi - 1;
    const double t = static_cast<double>(c - idx[lo]) /
                     static_cast<double>(idx[hi] - idx[lo]);
    return val[lo] + (val[hi] - val[lo]) * t;
}

/** Pack the assignment's knob effects into a lookup key. */
std::array<std::uint64_t, 7>
keyOf(const platform::ResourceAssignment &ra)
{
    return {static_cast<std::uint64_t>(ra.threads),
            std::bit_cast<std::uint64_t>(ra.htShare),
            static_cast<std::uint64_t>(ra.memControllers),
            std::bit_cast<std::uint64_t>(ra.freqGHz),
            static_cast<std::uint64_t>(ra.turbo ? 1 : 0),
            static_cast<std::uint64_t>(ra.activeCores),
            static_cast<std::uint64_t>(ra.activeSockets)};
}

} // namespace

TraceTable
TraceTable::fromString(const std::string &text)
{
    return fields::looksLikeJson(text) ? fromJson(text)
                                       : fromCsv(text);
}

TraceTable
TraceTable::fromFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    require(in.good(), "trace: cannot read '" + path + "'");
    std::stringstream buf;
    buf << in.rdbuf();
    return fromString(buf.str());
}

std::size_t
TraceTable::maxIndex() const
{
    std::size_t m = 0;
    for (const auto &seg : segments)
        for (const std::size_t c : seg.indices)
            m = std::max(m, c);
    return m;
}

TraceApplicationModel::TraceApplicationModel(
    TraceTable table, const platform::ConfigSpace &space,
    TraceModelOptions options)
    : table_(std::move(table)), options_(std::move(options))
{
    require(!table_.segments.empty(), "trace: no segments");
    const std::size_t n = space.size();
    require(table_.maxIndex() < n,
            "trace: config index " +
                std::to_string(table_.maxIndex()) +
                " is outside the space (size " + std::to_string(n) +
                ")");

    std::size_t start = 0;
    for (std::size_t s = 0; s < table_.segments.size(); ++s) {
        const auto &seg = table_.segments[s];
        linalg::Vector perf(n), power(n);
        for (std::size_t c = 0; c < n; ++c) {
            perf[c] = fillValue(seg.indices, seg.performance, c);
            power[c] = fillValue(seg.indices, seg.power, c);
        }
        perf_.push_back(std::move(perf));
        power_.push_back(std::move(power));
        starts_.push_back(start);
        start += seg.workUnits;
    }

    for (std::size_t c = 0; c < n; ++c)
        lookup_.emplace(keyOf(space.assignment(c)), c);
}

double
TraceApplicationModel::heartbeatRate(
    const platform::ResourceAssignment &ra) const
{
    return perf_[active_][indexOf(ra)];
}

double
TraceApplicationModel::powerWatts(
    const platform::ResourceAssignment &ra) const
{
    return power_[active_][indexOf(ra)];
}

double
TraceApplicationModel::idlePowerWatts() const
{
    return options_.idlePowerWatts;
}

void
TraceApplicationModel::setWorkUnit(std::size_t unit)
{
    active_ = segmentAt(unit);
}

std::size_t
TraceApplicationModel::segmentAt(std::size_t unit) const
{
    std::size_t seg = 0;
    for (std::size_t s = 0; s < table_.segments.size(); ++s) {
        const std::size_t wu = table_.segments[s].workUnits;
        seg = s;
        if (wu == 0 || unit < starts_[s] + wu)
            return s;
    }
    return seg; // Past the last bounded segment: stay in it.
}

const linalg::Vector &
TraceApplicationModel::segmentPerformance(std::size_t seg) const
{
    require(seg < perf_.size(), "trace: segment out of range");
    return perf_[seg];
}

const linalg::Vector &
TraceApplicationModel::segmentPower(std::size_t seg) const
{
    require(seg < power_.size(), "trace: segment out of range");
    return power_[seg];
}

std::size_t
TraceApplicationModel::indexOf(
    const platform::ResourceAssignment &ra) const
{
    const auto it = lookup_.find(keyOf(ra));
    require(it != lookup_.end(),
            "trace: resource assignment is not in the model's "
            "configuration space");
    return it->second;
}

} // namespace leo::workloads
