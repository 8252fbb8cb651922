/**
 * @file
 * The one text grammar of the repository's plain-text inputs.
 *
 * The CSV tables (experiments/csv.hh), trace tables
 * (workloads/trace.hh), scenario specs (scenario/spec.hh) and
 * leo_cli's numeric flags all read lines, fields and numbers here:
 * '#' starts a comment, blanks (space, tab, CR) around lines and
 * fields are dropped, a CSV line splits on every comma (a trailing
 * comma makes an empty field), a number is a whole locale-free
 * decimal token that is finite, and a count is an exact
 * non-negative decimal integer below 2^64. formatNumber() prints the
 * shortest text that reads back bit for bit. The parsers throw
 * leo::FatalError naming the offending token.
 */

#ifndef LEO_WORKLOADS_FIELDS_HH
#define LEO_WORKLOADS_FIELDS_HH

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace leo::workloads::fields
{

/** @return @p raw without its '#' comment and surrounding blanks. */
std::string stripLine(std::string_view raw);

/** Split a line on commas, trimming every field. */
std::vector<std::string> splitCommas(std::string_view line);

/**
 * @param token The whole token: a finite decimal number.
 * @param what  Error context, e.g. "trace: line 3: power".
 * @return The number.
 */
double parseFinite(std::string_view token, const std::string &what);

/**
 * @param token The whole token: decimal digits only, below 2^64.
 * @param what  Error context.
 * @return The count.
 */
std::uint64_t parseCount(std::string_view token,
                         const std::string &what);

/** @return The shortest text parseFinite() reads back as exactly
 *          @p x (std::to_chars). */
std::string formatNumber(double x);

} // namespace leo::workloads::fields

#endif // LEO_WORKLOADS_FIELDS_HH
