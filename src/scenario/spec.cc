#include "scenario/spec.hh"

#include <algorithm>
#include <sstream>
#include <utility>

#include "linalg/error.hh"
#include "workloads/fields.hh"

namespace leo::scenario
{

namespace
{

namespace fields = workloads::fields;

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

/** Apply one fault field. `val()` yields the value and is called
 *  only once the field is known (see setFieldOf). */
template <typename Value>
void
setFaultField(faults::FaultScenario &f, const std::string &key,
              Value &&val)
{
    if (key == "nan")
        f.nanProb = fields::parseFinite(val(), "scenario: fault nan");
    else if (key == "inf")
        f.infProb = fields::parseFinite(val(), "scenario: fault inf");
    else if (key == "dropout")
        f.dropoutProb =
            fields::parseFinite(val(), "scenario: fault dropout");
    else if (key == "outlier")
        f.outlierProb =
            fields::parseFinite(val(), "scenario: fault outlier");
    else if (key == "outlier_scale")
        f.outlierScale =
            fields::parseFinite(val(), "scenario: fault outlier_scale");
    else if (key == "stale")
        f.staleProb = fields::parseFinite(val(), "scenario: fault stale");
    else if (key == "seed")
        f.seed = fields::parseCount(val(), "scenario: fault seed");
    else
        fatal("scenario: unknown fault field '" + key + "'");
}

/** Apply one phase option (app, frames, scale). */
void
setPhaseField(PhaseSpec &ph, const std::string &key,
              const std::string &val)
{
    if (key == "app") {
        ph.app = textValue(val, "phase app");
    } else if (key == "frames") {
        ph.frames = fields::parseCount(val, "scenario: phase frames");
    } else if (key == "scale") {
        ph.scale = fields::parseFinite(val, "scenario: phase scale");
        require(ph.scale > 0.0,
                "scenario: phase scale '" + val + "' must be > 0");
    } else {
        fatal("scenario: unknown phase option '" + key + "'");
    }
}

/** The key dispatch behind setField. `value()` yields the value and
 *  is called only once the key is known, so an unknown key, a fault
 *  field's included, is named as such even on a line that has no
 *  value. */
template <typename Value>
void
setFieldOf(Spec &spec, const std::string &key, Value &&value)
{
    if (key == "name") {
        spec.name = textValue(value(), "name");
    } else if (key == "workload") {
        spec.workload = parseWorkload(value());
    } else if (key == "app") {
        spec.app = textValue(value(), "app");
    } else if (key == "target") {
        const std::string &v = value();
        spec.targetRate = fields::parseFinite(v, "scenario: target");
        require(spec.targetRate >= 0.0,
                "scenario: target '" + v + "' must be >= 0 (0 = auto)");
    } else if (key == "frames") {
        spec.frames = fields::parseCount(value(), "scenario: frames");
    } else if (key == "seed") {
        spec.seed = fields::parseCount(value(), "scenario: seed");
    } else if (key == "changepoint") {
        spec.changePointPolicy = parsePolicy(value());
    } else if (key == "trace_file") {
        spec.traceFile = textValue(value(), "trace_file");
    } else if (key.size() > 6 && key.compare(0, 6, "fault.") == 0) {
        setFaultField(spec.faults, key.substr(6), value);
    } else {
        fatal("scenario: unknown directive '" + key + "'");
    }
}

} // namespace

void
setField(Spec &spec, const std::string &key,
         const std::string &value)
{
    setFieldOf(spec, key,
               [&]() -> const std::string & { return value; });
}

Spec
Spec::fromString(const std::string &text)
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
            require(ph.frames > 0, "scenario: phase '" + ph.app +
                                       "' needs frames=<n> > 0");
            spec.phases.push_back(std::move(ph));
        } else if (dir == "fault") {
            for (std::size_t i = 1; i < toks.size(); ++i) {
                std::string k, v;
                require(splitKv(toks[i], &k, &v),
                        "scenario: line " + std::to_string(lineno) +
                            ": fault options are key=value");
                setFaultField(spec.faults, k,
                              [&]() -> const std::string & { return v; });
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
            setFieldOf(spec, dir, [&]() -> const std::string & {
                return soleArg("a value");
            });
        }
    }
    return spec;
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
