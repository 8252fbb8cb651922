#include "scenario/spec.hh"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>
#include <utility>

#include "linalg/error.hh"
#include "workloads/fields.hh"
#include "workloads/jsonish.hh"

namespace leo::scenario
{

namespace
{

namespace fields = workloads::fields;
using fields::formatNumber;

/** Split a stripped line on runs of blanks. */
std::vector<std::string>
tokens(const std::string &line)
{
    std::istringstream in(line);
    std::vector<std::string> out;
    for (std::string tok; in >> tok;)
        out.push_back(std::move(tok));
    return out;
}

/** A phase scale: finite and > 0. */
double
parseScale(const std::string &tok, const std::string &what)
{
    const double s = fields::parseFinite(tok, "scenario: " + what);
    require(s > 0.0, "scenario: " + what + " '" + tok +
                         "' must be > 0");
    return s;
}

/** Split "key=value"; returns false when there is no '='. */
bool
splitKv(const std::string &tok, std::string *key, std::string *val)
{
    const std::size_t eq = tok.find('=');
    if (eq == std::string::npos)
        return false;
    *key = tok.substr(0, eq);
    *val = tok.substr(eq + 1);
    return true;
}

WorkloadKind
parseWorkload(const std::string &v)
{
    if (v == "analytic")
        return WorkloadKind::Analytic;
    if (v == "phased")
        return WorkloadKind::Phased;
    if (v == "trace")
        return WorkloadKind::Trace;
    fatal("scenario: unknown workload '" + v +
          "' (analytic | phased | trace)");
}

runtime::ChangePointPolicy
parsePolicy(const std::string &v)
{
    if (v == "off")
        return runtime::ChangePointPolicy::Off;
    if (v == "coldrefit")
        return runtime::ChangePointPolicy::ColdRefit;
    fatal("scenario: unknown changepoint policy '" + v +
          "' (off | coldrefit)");
}

/** A free-text value (a name, an application, a path): one token of
 *  the text grammar, so no blank, '#' or control character — the
 *  canonical text could not carry it back. */
const std::string &
textValue(const std::string &v, const std::string &what)
{
    const bool one_token =
        !v.empty() && std::none_of(v.begin(), v.end(), [](char ch) {
            const auto c = static_cast<unsigned char>(ch);
            return c <= 0x20 || c == 0x7f || c == '#';
        });
    if (!one_token)
        fatal("scenario: " + what + " '" + v +
              "' must be one token: no blank, '#' or control "
              "character");
    return v;
}

/** A heredoc body as the text form reads it back: no line ends in a
 *  carriage return (CRLF bodies are tolerated and stored as LF). */
std::string
bodyText(const std::string &raw)
{
    std::string body;
    body.reserve(raw.size());
    for (const char c : raw) {
        if (c == '\n')
            while (!body.empty() && body.back() == '\r')
                body.pop_back();
        body += c;
    }
    while (!body.empty() && body.back() == '\r')
        body.pop_back();
    return body;
}

void
setFaultField(faults::FaultScenario &f, const std::string &key,
              const std::string &val)
{
    if (key == "nan")
        f.nanProb = fields::parseFinite(val, "scenario: fault nan");
    else if (key == "inf")
        f.infProb = fields::parseFinite(val, "scenario: fault inf");
    else if (key == "dropout")
        f.dropoutProb = fields::parseFinite(val, "scenario: fault dropout");
    else if (key == "outlier")
        f.outlierProb = fields::parseFinite(val, "scenario: fault outlier");
    else if (key == "outlier_scale")
        f.outlierScale =
            fields::parseFinite(val, "scenario: fault outlier_scale");
    else if (key == "stale")
        f.staleProb = fields::parseFinite(val, "scenario: fault stale");
    else if (key == "seed")
        f.seed = fields::parseCount(val, "scenario: fault seed");
    else
        fatal("scenario: unknown fault field '" + key + "'");
}

/** Apply one phase option (app, frames, scale). */
void
setPhaseField(PhaseSpec &ph, const std::string &key,
              const std::string &val)
{
    if (key == "app")
        ph.app = textValue(val, "phase app");
    else if (key == "frames")
        ph.frames = fields::parseCount(val, "scenario: phase frames");
    else if (key == "scale")
        ph.scale = parseScale(val, "phase scale");
    else
        fatal("scenario: unknown phase option '" + key + "'");
}

/** Apply one tenant-arrival option (count, spacing, rate_spread). */
void
setArrivalField(ArrivalSpec &a, const std::string &key,
                const std::string &val)
{
    if (key == "count")
        a.tenants = fields::parseCount(val, "scenario: tenants");
    else if (key == "spacing")
        a.spacingWindows =
            fields::parseCount(val, "scenario: tenants spacing");
    else if (key == "rate_spread")
        a.rateSpread =
            fields::parseFinite(val, "scenario: tenants rate_spread");
    else
        fatal("scenario: unknown tenants option '" + key + "'");
}

/** Every phase lasts at least one frame. */
void
requireFrames(const PhaseSpec &ph)
{
    require(ph.frames > 0, "scenario: phase '" + ph.app +
                               "' needs frames=<n> > 0");
}

/** A JSON scalar as the text the field setters parse: a number's
 *  source text or a string's payload. */
const std::string &
scalarText(const workloads::jsonish::Value &v)
{
    return v.isNumber() ? v.numberText() : v.asString();
}

Spec
fromJsonDoc(const std::string &text)
{
    namespace js = workloads::jsonish;
    const js::Value doc = js::parse(text);
    require(doc.isObject(), "scenario: JSON root must be an object");
    Spec spec;
    // Only the structure is read here; every scalar goes through the
    // text grammar's setters, so both forms validate alike.
    for (const auto &[key, v] : doc.members()) {
        if (key == "phases") {
            for (const js::Value &pv : v.items()) {
                PhaseSpec ph;
                for (const auto &[pk, pval] : pv.members())
                    setPhaseField(ph, pk, scalarText(pval));
                requireFrames(ph);
                spec.phases.push_back(std::move(ph));
            }
        } else if (key == "fault") {
            for (const auto &[fk, fv] : v.members())
                setFaultField(spec.faults, fk, scalarText(fv));
        } else if (key == "tenants") {
            for (const auto &[tk, tv] : v.members())
                setArrivalField(spec.arrivals, tk, scalarText(tv));
        } else if (key == "trace_inline") {
            spec.traceText = bodyText(v.asString());
        } else {
            // Keys are sorted, so "phase_scale" would always run
            // before "phases" and rescale nothing.
            require(key != "phase_scale",
                    "scenario: JSON phases carry their own 'scale'");
            setField(spec, key, scalarText(v));
        }
    }
    return spec;
}

Spec
fromTextDoc(const std::string &text)
{
    Spec spec;
    std::stringstream ss(text);
    std::string raw;
    std::size_t lineno = 0;
    while (std::getline(ss, raw)) {
        ++lineno;
        const std::string line = fields::stripLine(raw);
        if (line.empty())
            continue;
        const auto toks = tokens(line);
        const std::string &dir = toks[0];
        const auto wantArg = [&](const char *what) -> const std::string & {
            require(toks.size() >= 2,
                    "scenario: line " + std::to_string(lineno) +
                        ": '" + dir + "' needs " + what);
            return toks[1];
        };
        // A directive without options takes exactly one value.
        const auto soleArg = [&](const char *what) -> const std::string & {
            const std::string &arg = wantArg(what);
            require(toks.size() == 2,
                    "scenario: line " + std::to_string(lineno) +
                        ": '" + dir + "' takes one value, got " +
                        std::to_string(toks.size() - 1));
            return arg;
        };
        if (dir == "phase") {
            PhaseSpec ph;
            setPhaseField(ph, "app", wantArg("an application name"));
            for (std::size_t i = 2; i < toks.size(); ++i) {
                std::string k, v;
                require(splitKv(toks[i], &k, &v),
                        "scenario: line " + std::to_string(lineno) +
                            ": phase options are key=value");
                setPhaseField(ph, k, v);
            }
            requireFrames(ph);
            spec.phases.push_back(std::move(ph));
        } else if (dir == "fault") {
            for (std::size_t i = 1; i < toks.size(); ++i) {
                std::string k, v;
                require(splitKv(toks[i], &k, &v),
                        "scenario: line " + std::to_string(lineno) +
                            ": fault options are key=value");
                setFaultField(spec.faults, k, v);
            }
        } else if (dir == "tenants") {
            setArrivalField(spec.arrivals, "count",
                            wantArg("a tenant count"));
            for (std::size_t i = 2; i < toks.size(); ++i) {
                std::string k, v;
                require(splitKv(toks[i], &k, &v),
                        "scenario: line " + std::to_string(lineno) +
                            ": tenants options are key=value");
                setArrivalField(spec.arrivals, k, v);
            }
        } else if (dir == "trace_inline") {
            const std::string &arg = soleArg("a <<DELIM marker");
            require(arg.size() > 2 && arg[0] == '<' && arg[1] == '<',
                    "scenario: line " + std::to_string(lineno) +
                        ": trace_inline needs <<DELIM");
            const std::string delim = arg.substr(2);
            std::string body;
            bool closed = false;
            while (std::getline(ss, raw)) {
                ++lineno;
                if (fields::stripLine(raw) == delim) {
                    closed = true;
                    break;
                }
                body += raw;
                body += '\n';
            }
            require(closed, "scenario: unterminated trace_inline "
                            "(missing '" +
                                delim + "')");
            // Only CRLF-strip the body: it is raw trace text.
            spec.traceText = bodyText(body);
        } else {
            setField(spec, dir, soleArg("a value"));
        }
    }
    return spec;
}

} // namespace

void
setField(Spec &spec, const std::string &key,
         const std::string &value)
{
    if (key == "name") {
        spec.name = textValue(value, "name");
    } else if (key == "workload") {
        spec.workload = parseWorkload(value);
    } else if (key == "app") {
        spec.app = textValue(value, "app");
    } else if (key == "target") {
        spec.targetRate = fields::parseFinite(value, "scenario: target");
        require(spec.targetRate >= 0.0,
                "scenario: target '" + value +
                    "' must be >= 0 (0 = auto)");
    } else if (key == "frames") {
        spec.frames = fields::parseCount(value, "scenario: frames");
    } else if (key == "seed") {
        spec.seed = fields::parseCount(value, "scenario: seed");
    } else if (key == "changepoint") {
        spec.changePointPolicy = parsePolicy(value);
    } else if (key == "trace_file") {
        spec.traceFile = textValue(value, "trace_file");
    } else if (key == "tenants") {
        setArrivalField(spec.arrivals, "count", value);
    } else if (key == "phase_scale") {
        const double s = parseScale(value, "phase_scale");
        for (PhaseSpec &ph : spec.phases) {
            // The product must stay a scale the text form reads back.
            ph.scale *= s;
            if (!std::isfinite(ph.scale) || ph.scale <= 0.0)
                fatal("scenario: phase_scale '" + value +
                      "' takes phase '" + ph.app + "' out of range");
        }
    } else if (key.size() > 6 && key.compare(0, 6, "fault.") == 0) {
        setFaultField(spec.faults, key.substr(6), value);
    } else {
        fatal("scenario: unknown directive '" + key + "'");
    }
}

Spec
Spec::fromString(const std::string &text)
{
    return fields::looksLikeJson(text) ? fromJsonDoc(text)
                                       : fromTextDoc(text);
}

Spec
Spec::fromFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    require(in.good(), "scenario: cannot read '" + path + "'");
    std::stringstream buf;
    buf << in.rdbuf();
    return fromString(buf.str());
}

std::string
Spec::toString() const
{
    std::string out;
    out += "name " + name + "\n";
    out += "workload ";
    out += workload == WorkloadKind::Analytic ? "analytic"
           : workload == WorkloadKind::Phased ? "phased"
                                              : "trace";
    out += "\n";
    out += "app " + app + "\n";
    out += "target " + formatNumber(targetRate) + "\n";
    out += "frames " + std::to_string(frames) + "\n";
    out += "seed " + std::to_string(seed) + "\n";
    out += "changepoint ";
    out += changePointPolicy == runtime::ChangePointPolicy::Off
               ? "off"
               : "coldrefit";
    out += "\n";
    // Every fault field off its default, so a value the fault
    // injector would reject (a negative probability, say) survives
    // the round trip and is rejected there too.
    const faults::FaultScenario none;
    std::string fault;
    if (faults.nanProb != none.nanProb)
        fault += " nan=" + formatNumber(faults.nanProb);
    if (faults.infProb != none.infProb)
        fault += " inf=" + formatNumber(faults.infProb);
    if (faults.dropoutProb != none.dropoutProb)
        fault += " dropout=" + formatNumber(faults.dropoutProb);
    if (faults.outlierProb != none.outlierProb)
        fault += " outlier=" + formatNumber(faults.outlierProb);
    if (faults.outlierProb != none.outlierProb ||
        faults.outlierScale != none.outlierScale)
        fault += " outlier_scale=" + formatNumber(faults.outlierScale);
    if (faults.staleProb != none.staleProb)
        fault += " stale=" + formatNumber(faults.staleProb);
    if (faults.seed != none.seed)
        fault += " seed=" + std::to_string(faults.seed);
    if (!fault.empty())
        out += "fault" + fault + "\n";
    for (const PhaseSpec &ph : phases) {
        out += "phase " + ph.app +
               " frames=" + std::to_string(ph.frames) +
               " scale=" + formatNumber(ph.scale) + "\n";
    }
    if (!traceFile.empty())
        out += "trace_file " + traceFile + "\n";
    if (!traceText.empty()) {
        // The first of END, END1, END2, ... that no body line reads
        // as, so the heredoc closes where the body does.
        std::vector<std::string> lines;
        std::stringstream body(traceText);
        for (std::string line; std::getline(body, line);)
            lines.push_back(fields::stripLine(line));
        std::string delim = "END";
        for (std::size_t k = 1; std::find(lines.begin(), lines.end(),
                                          delim) != lines.end();
             ++k)
            delim = "END" + std::to_string(k);
        out += "trace_inline <<" + delim + "\n";
        out += traceText;
        if (traceText.back() != '\n')
            out += '\n';
        out += delim + "\n";
    }
    if (arrivals.tenants != 1 || arrivals.spacingWindows != 0 ||
        arrivals.rateSpread != 0.0) {
        out += "tenants " + std::to_string(arrivals.tenants);
        if (arrivals.spacingWindows != 0)
            out += " spacing=" +
                   std::to_string(arrivals.spacingWindows);
        if (arrivals.rateSpread != 0.0)
            out +=
                " rate_spread=" + formatNumber(arrivals.rateSpread);
        out += "\n";
    }
    return out;
}

std::vector<Spec>
expandGrid(const Spec &base, const std::vector<GridAxis> &axes)
{
    std::vector<Spec> cells{base};
    for (const GridAxis &axis : axes) {
        require(!axis.values.empty(),
                "scenario: grid axis '" + axis.key +
                    "' has no values");
        std::vector<Spec> next;
        next.reserve(cells.size() * axis.values.size());
        for (const Spec &cell : cells) {
            for (const std::string &v : axis.values) {
                Spec expanded = cell;
                setField(expanded, axis.key, v);
                expanded.name =
                    cell.name + "/" + axis.key + "=" + v;
                next.push_back(std::move(expanded));
            }
        }
        cells = std::move(next);
    }
    return cells;
}

} // namespace leo::scenario
