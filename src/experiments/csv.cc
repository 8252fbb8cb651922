/**
 * @file
 * Implementation of the CSV interchange helpers.
 */

#include "experiments/csv.hh"

#include <istream>
#include <ostream>

#include "linalg/error.hh"
#include "workloads/fields.hh"

namespace leo::experiments
{

namespace fields = workloads::fields;

std::vector<NamedVector>
readProfileTable(std::istream &in)
{
    std::vector<NamedVector> rows;
    std::string line;
    std::size_t lineno = 0;
    while (std::getline(in, line)) {
        ++lineno;
        line = fields::stripLine(line);
        if (line.empty())
            continue;
        const std::vector<std::string> cells =
            fields::splitCommas(line);
        require(cells.size() >= 2,
                "profile row needs a name and at least one value "
                "(line " + std::to_string(lineno) + ")");
        NamedVector row;
        row.name = cells[0];
        linalg::Vector v(cells.size() - 1);
        const std::string what =
            "line " + std::to_string(lineno) + ": profile value";
        for (std::size_t i = 1; i < cells.size(); ++i)
            v[i - 1] = fields::parseFinite(cells[i], what);
        row.values = std::move(v);
        if (!rows.empty()) {
            require(row.values.size() == rows.front().values.size(),
                    "ragged profile table at line " +
                        std::to_string(lineno));
        }
        rows.push_back(std::move(row));
    }
    return rows;
}

void
writeProfileTable(std::ostream &out,
                  const std::vector<NamedVector> &rows)
{
    for (const NamedVector &row : rows) {
        out << row.name;
        for (double v : row.values)
            out << ',' << fields::formatNumber(v);
        out << '\n';
    }
}

std::pair<std::vector<std::size_t>, linalg::Vector>
readObservations(std::istream &in)
{
    std::vector<std::size_t> indices;
    std::vector<double> values;
    std::string line;
    std::size_t lineno = 0;
    while (std::getline(in, line)) {
        ++lineno;
        line = fields::stripLine(line);
        if (line.empty())
            continue;
        const std::vector<std::string> cells =
            fields::splitCommas(line);
        require(cells.size() == 2,
                "observation row must be 'index,value' (line " +
                    std::to_string(lineno) + ")");
        const std::string at = "line " + std::to_string(lineno);
        indices.push_back(
            fields::parseCount(cells[0], at + ": observation index"));
        values.push_back(
            fields::parseFinite(cells[1], at + ": observation value"));
    }
    return {std::move(indices), linalg::Vector(std::move(values))};
}

void
writeObservations(std::ostream &out,
                  const std::vector<std::size_t> &indices,
                  const linalg::Vector &values)
{
    require(indices.size() == values.size(),
            "writeObservations: size mismatch");
    for (std::size_t i = 0; i < indices.size(); ++i)
        out << indices[i] << ',' << fields::formatNumber(values[i])
            << '\n';
}

void
writeEstimates(std::ostream &out, const linalg::Vector &values,
               const linalg::Vector &stddev)
{
    require(stddev.empty() || stddev.size() == values.size(),
            "writeEstimates: stddev size mismatch");
    for (std::size_t i = 0; i < values.size(); ++i) {
        out << i << ',' << fields::formatNumber(values[i]);
        if (!stddev.empty())
            out << ',' << fields::formatNumber(stddev[i]);
        out << '\n';
    }
}

} // namespace leo::experiments
