/**
 * @file
 * Tests for the CSV interchange helpers.
 */

#include <sstream>

#include <gtest/gtest.h>

#include "experiments/csv.hh"
#include "linalg/error.hh"

using namespace leo;
using experiments::NamedVector;

TEST(Csv, ProfileTableRoundTrip)
{
    std::vector<NamedVector> rows{
        {"kmeans", linalg::Vector{1.0, 2.5, 3.25}},
        {"x264", linalg::Vector{4.0, 1.0 / 3.0, 0.1 + 0.2}},
    };
    std::ostringstream out;
    experiments::writeProfileTable(out, rows);
    std::istringstream in(out.str());
    auto back = experiments::readProfileTable(in);
    ASSERT_EQ(back.size(), 2u);
    EXPECT_EQ(back[0].name, "kmeans");
    EXPECT_DOUBLE_EQ(back[0].values[1], 2.5);
    EXPECT_EQ(back[1].name, "x264");
    // Shortest round-trip text: every value reads back bit for bit.
    EXPECT_EQ(back[1].values[1], 1.0 / 3.0);
    EXPECT_EQ(back[1].values[2], 0.1 + 0.2);
}

TEST(Csv, SkipsCommentsAndBlankLines)
{
    std::istringstream in(
        "# a comment\n"
        "\n"
        "app1,1,2\n"
        "   \n"
        "# another\n"
        "app2,3,4\n");
    auto rows = experiments::readProfileTable(in);
    ASSERT_EQ(rows.size(), 2u);
    EXPECT_EQ(rows[1].name, "app2");
}

TEST(Csv, RejectsRaggedProfileTable)
{
    std::istringstream in("a,1,2\nb,3\n");
    EXPECT_THROW(experiments::readProfileTable(in), FatalError);
}

TEST(Csv, RejectsGarbageNumbers)
{
    std::istringstream in("a,1,banana\n");
    EXPECT_THROW(experiments::readProfileTable(in), FatalError);
}

TEST(Csv, ObservationsRoundTrip)
{
    std::vector<std::size_t> idx{4, 9, 29, 30};
    linalg::Vector vals{214.0, 1.0 / 3.0, 160.5, 0.1 + 0.2};
    std::ostringstream out;
    experiments::writeObservations(out, idx, vals);
    std::istringstream in(out.str());
    auto [bidx, bvals] = experiments::readObservations(in);
    EXPECT_EQ(bidx, idx);
    ASSERT_EQ(bvals.size(), 4u);
    EXPECT_DOUBLE_EQ(bvals[2], 160.5);
    EXPECT_EQ(bvals[1], 1.0 / 3.0);
    EXPECT_EQ(bvals[3], 0.1 + 0.2);
}

TEST(Csv, ObservationsRejectBadRows)
{
    std::istringstream three("1,2,3\n");
    EXPECT_THROW(experiments::readObservations(three), FatalError);
    std::istringstream negative("-1,2\n");
    EXPECT_THROW(experiments::readObservations(negative), FatalError);
    std::istringstream fractional("1.5,2\n");
    EXPECT_THROW(experiments::readObservations(fractional),
                 FatalError);
}

TEST(Csv, RejectsNonFiniteAndEmptyCells)
{
    // Every reader shares one grammar (workloads/fields.hh): cells
    // must be finite, and a trailing comma is an empty cell.
    for (const char *bad :
         {"a,1,nan\n", "a,inf,2\n", "a,1,2,\n", "a,1,,2\n"}) {
        std::istringstream in(bad);
        EXPECT_THROW(experiments::readProfileTable(in), FatalError)
            << bad;
    }
    for (const char *bad : {"3,nan\n", "4,inf\n", "4,-inf\n",
                            "4,1,\n", "1e30,2\n", "4,\n"}) {
        std::istringstream in(bad);
        EXPECT_THROW(experiments::readObservations(in), FatalError)
            << bad;
    }
}

TEST(Csv, StripsInlineComments)
{
    std::istringstream profile("app1,1,2   # measured on host A\r\n"
                               "app2,3,4#no space\n");
    auto rows = experiments::readProfileTable(profile);
    ASSERT_EQ(rows.size(), 2u);
    EXPECT_EQ(rows[0].values[1], 2.0);
    EXPECT_EQ(rows[1].values[1], 4.0);

    std::istringstream obs("5,10.5 # probe 1\n");
    auto [idx, vals] = experiments::readObservations(obs);
    ASSERT_EQ(idx.size(), 1u);
    EXPECT_EQ(idx[0], 5u);
    EXPECT_EQ(vals[0], 10.5);
}

TEST(Csv, EstimatesWithAndWithoutStddev)
{
    linalg::Vector v{1.0, 2.0};
    std::ostringstream plain;
    experiments::writeEstimates(plain, v);
    EXPECT_EQ(plain.str(), "0,1\n1,2\n");

    std::ostringstream with;
    experiments::writeEstimates(with, v, linalg::Vector{0.1, 0.2});
    EXPECT_EQ(with.str(), "0,1,0.1\n1,2,0.2\n");

    EXPECT_THROW(
        experiments::writeEstimates(plain, v, linalg::Vector{0.1}),
        FatalError);
}
