/**
 * @file
 * Implementation of the shared whole-fit comparison.
 */

#include "support/fit_compare.hh"

#include <bit>
#include <cstdint>

#include <gtest/gtest.h>

namespace leo::support
{

namespace
{

std::uint64_t
bitsOf(double v)
{
    return std::bit_cast<std::uint64_t>(v);
}

void
expectSameBits(const linalg::Vector &a, const linalg::Vector &b,
               const std::string &what)
{
    ASSERT_EQ(a.size(), b.size()) << what;
    for (std::size_t j = 0; j < a.size(); ++j)
        ASSERT_EQ(bitsOf(a[j]), bitsOf(b[j])) << what << "[" << j << "]";
}

void
expectSameBits(const linalg::Matrix &a, const linalg::Matrix &b,
               const std::string &what)
{
    ASSERT_EQ(a.rows(), b.rows()) << what;
    ASSERT_EQ(a.cols(), b.cols()) << what;
    for (std::size_t r = 0; r < a.rows(); ++r)
        for (std::size_t c = 0; c < a.cols(); ++c)
            ASSERT_EQ(bitsOf(a.at(r, c)), bitsOf(b.at(r, c)))
                << what << "(" << r << "," << c << ")";
}

} // namespace

void
expectFitsBitwise(const estimators::LeoFit &a, const estimators::LeoFit &b,
                  const std::string &what)
{
    expectSameBits(a.prediction, b.prediction, what + ".prediction");
    EXPECT_EQ(bitsOf(a.sigma2), bitsOf(b.sigma2)) << what;
    EXPECT_EQ(a.iterations, b.iterations) << what;
    EXPECT_EQ(a.converged, b.converged) << what;
    ASSERT_EQ(a.logLikelihoodTrace.size(), b.logLikelihoodTrace.size())
        << what;
    for (std::size_t i = 0; i < a.logLikelihoodTrace.size(); ++i)
        EXPECT_EQ(bitsOf(a.logLikelihoodTrace[i]),
                  bitsOf(b.logLikelihoodTrace[i]))
            << what << ".trace[" << i << "]";
    EXPECT_EQ(bitsOf(a.scale), bitsOf(b.scale)) << what;
    ASSERT_EQ(a.prior == nullptr, b.prior == nullptr) << what;
    if (a.prior) {
        expectSameBits(a.prior->rows(), b.prior->rows(),
                       what + ".prior.rows");
        expectSameBits(a.prior->coords(), b.prior->coords(),
                       what + ".prior.coords");
    }
    EXPECT_EQ(a.kept.units, b.kept.units) << what;
    expectSameBits(a.kept.w, b.kept.w, what + ".kept.w");
    expectSameBits(a.kept.l, b.kept.l, what + ".kept.l");
    expectSameBits(a.coeff, b.coeff, what + ".coeff");
    EXPECT_EQ(bitsOf(a.alphaDiag), bitsOf(b.alphaDiag)) << what;
    expectSameBits(a.varCore, b.varCore, what + ".varCore");
}

} // namespace leo::support
