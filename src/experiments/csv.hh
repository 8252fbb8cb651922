/**
 * @file
 * Minimal CSV input/output for profiles, observations and estimates.
 *
 * The paper's released artifact consumed measurement tables; these
 * helpers give the command-line tool (tools/leo_cli) and downstream
 * users a plain-text interchange format:
 *
 *  - profile table:  one row per application,
 *        name,v_0,v_1,...,v_{n-1}
 *  - observations:   one row per observed configuration,
 *        index,value
 *  - estimates:      one row per configuration,
 *        index,estimate[,stddev]
 *
 * Lines, fields and numbers follow the grammar the trace and
 * scenario readers share (workloads/fields.hh): '#' starts a comment
 * anywhere on a line, blank lines and CRLF endings are fine, a
 * trailing comma makes an empty cell (rejected), every value must be
 * a finite number and every index an exact non-negative decimal
 * integer. Writers print each number in its shortest round-trip
 * form, so a table reads back bit for bit.
 */

#ifndef LEO_EXPERIMENTS_CSV_HH
#define LEO_EXPERIMENTS_CSV_HH

#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "linalg/vector.hh"

namespace leo::experiments
{

/** One named application vector (a profile-table row). */
struct NamedVector
{
    std::string name;
    linalg::Vector values;
};

/**
 * Parse a profile table.
 *
 * @param in Input stream.
 * @return One NamedVector per row; all rows must have equal length.
 */
std::vector<NamedVector> readProfileTable(std::istream &in);

/** Write a profile table. */
void writeProfileTable(std::ostream &out,
                       const std::vector<NamedVector> &rows);

/**
 * Parse an observation list of (index, value) pairs.
 *
 * @param in Input stream.
 * @return Indices and values, in file order.
 */
std::pair<std::vector<std::size_t>, linalg::Vector> readObservations(
    std::istream &in);

/** Write an observation list. */
void writeObservations(std::ostream &out,
                       const std::vector<std::size_t> &indices,
                       const linalg::Vector &values);

/**
 * Write an estimate table (index, value and optional stddev).
 *
 * @param out    Output stream.
 * @param values Estimated values.
 * @param stddev Optional per-configuration standard deviation (empty
 *               to omit the column).
 */
void writeEstimates(std::ostream &out, const linalg::Vector &values,
                    const linalg::Vector &stddev = linalg::Vector{});

} // namespace leo::experiments

#endif // LEO_EXPERIMENTS_CSV_HH
