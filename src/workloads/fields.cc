/**
 * @file
 * Implementation of the shared text grammar.
 */

#include "workloads/fields.hh"

#include <charconv>
#include <cmath>
#include <system_error>

#include "linalg/error.hh"

namespace leo::workloads::fields
{

namespace
{

std::string_view
trim(std::string_view s)
{
    const std::size_t b = s.find_first_not_of(" \t\r");
    if (b == std::string_view::npos)
        return {};
    return s.substr(b, s.find_last_not_of(" \t\r") - b + 1);
}

} // namespace

std::string
stripLine(std::string_view raw)
{
    return std::string(trim(raw.substr(0, raw.find('#'))));
}

std::vector<std::string>
splitCommas(std::string_view line)
{
    std::vector<std::string> out;
    while (true) {
        const std::size_t comma = line.find(',');
        out.emplace_back(trim(line.substr(0, comma)));
        if (comma == std::string_view::npos)
            return out;
        line.remove_prefix(comma + 1);
    }
}

double
parseFinite(std::string_view token, const std::string &what)
{
    double x = 0.0;
    const char *end = token.data() + token.size();
    const auto [ptr, ec] = std::from_chars(token.data(), end, x);
    require(ec == std::errc{} && ptr == end && std::isfinite(x),
            what + " '" + std::string(token) +
                "' is not a finite number");
    return x;
}

std::uint64_t
parseCount(std::string_view token, const std::string &what)
{
    // from_chars reads no sign into an unsigned type, so "consumed
    // everything without error" is exactly "decimal digits < 2^64".
    std::uint64_t n = 0;
    const char *end = token.data() + token.size();
    const auto [ptr, ec] = std::from_chars(token.data(), end, n);
    require(ec == std::errc{} && ptr == end,
            what + " '" + std::string(token) +
                "' is not a count (a non-negative decimal integer)");
    return n;
}

std::string
formatNumber(double x)
{
    char buf[32];
    const auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), x);
    invariant(ec == std::errc{}, "formatNumber: buffer too small");
    return std::string(buf, ptr);
}

} // namespace leo::workloads::fields
