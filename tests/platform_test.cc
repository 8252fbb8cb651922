/**
 * @file
 * Unit tests for the machine model and configuration spaces.
 */

#include <gtest/gtest.h>

#include "linalg/error.hh"
#include "platform/config_space.hh"
#include "platform/machine.hh"

using namespace leo;
using platform::Config;
using platform::ConfigSpace;
using platform::Machine;
using platform::MachineSpec;
using linalg::Vector;

TEST(Machine, DefaultSpecMatchesPaperTestbed)
{
    Machine m;
    const MachineSpec &s = m.spec();
    EXPECT_EQ(s.totalCores(), 16u);      // 2 x 8-core Xeon E5-2690
    EXPECT_EQ(s.threadsPerCore, 2u);     // hyperthreading
    EXPECT_EQ(s.memControllers, 2u);     // one per socket
    EXPECT_EQ(s.speedSettings(), 16u);   // 15 DVFS + TurboBoost
    EXPECT_DOUBLE_EQ(s.minFreqGHz, 1.2);
    EXPECT_DOUBLE_EQ(s.maxFreqGHz, 2.9);
    EXPECT_DOUBLE_EQ(s.tdpPerSocketW, 135.0);
}

TEST(Machine, DvfsLadderEndpoints)
{
    Machine m;
    EXPECT_DOUBLE_EQ(m.frequencyGHz(0, 1), 1.2);
    EXPECT_DOUBLE_EQ(m.frequencyGHz(14, 1), 2.9);
    // Ladder is monotone.
    for (unsigned i = 0; i + 1 < 15; ++i)
        EXPECT_LT(m.frequencyGHz(i, 1), m.frequencyGHz(i + 1, 1));
}

TEST(Machine, TurboDegradesWithActiveCores)
{
    Machine m;
    const double one = m.frequencyGHz(15, 1);
    const double all = m.frequencyGHz(15, 16);
    EXPECT_DOUBLE_EQ(one, m.spec().turboPeakGHz);
    EXPECT_DOUBLE_EQ(all, m.spec().turboAllCoreGHz);
    EXPECT_GT(one, all);
    // Turbo is always at least the top non-turbo speed.
    EXPECT_GE(all, m.spec().maxFreqGHz);
}

TEST(Machine, AssignmentSocketFilling)
{
    Machine m;
    auto a8 = m.assignment({8, 1, 2, 0});
    EXPECT_EQ(a8.activeSockets, 1u);
    auto a9 = m.assignment({9, 1, 2, 0});
    EXPECT_EQ(a9.activeSockets, 2u);
    auto a16 = m.assignment({16, 2, 2, 15});
    EXPECT_EQ(a16.threads, 32u);
    EXPECT_TRUE(a16.turbo);
}

TEST(Machine, AssignmentHyperthreading)
{
    Machine m;
    auto ht = m.assignment({4, 2, 1, 3});
    EXPECT_EQ(ht.threads, 8u);
    EXPECT_EQ(ht.activeCores, 4u);
    EXPECT_DOUBLE_EQ(ht.htShare, 0.5);
    auto no_ht = m.assignment({4, 1, 1, 3});
    EXPECT_DOUBLE_EQ(no_ht.htShare, 0.0);
}

TEST(Machine, CoreOnlyAssignment)
{
    Machine m;
    auto a1 = m.coreOnlyAssignment(1);
    EXPECT_EQ(a1.threads, 1u);
    EXPECT_EQ(a1.activeCores, 1u);
    EXPECT_DOUBLE_EQ(a1.freqGHz, m.spec().maxFreqGHz);

    auto a20 = m.coreOnlyAssignment(20);
    EXPECT_EQ(a20.threads, 20u);
    EXPECT_EQ(a20.activeCores, 16u);
    EXPECT_GT(a20.htShare, 0.0);

    auto a32 = m.coreOnlyAssignment(32);
    EXPECT_EQ(a32.activeCores, 16u);
    EXPECT_NEAR(a32.htShare, 0.5, 1e-12);

    EXPECT_THROW(m.coreOnlyAssignment(0), FatalError);
    EXPECT_THROW(m.coreOnlyAssignment(33), FatalError);
}

TEST(Machine, ValidRejectsBadKnobs)
{
    Machine m;
    EXPECT_TRUE(m.valid({1, 1, 1, 0}));
    EXPECT_FALSE(m.valid({0, 1, 1, 0}));
    EXPECT_FALSE(m.valid({17, 1, 1, 0}));
    EXPECT_FALSE(m.valid({1, 3, 1, 0}));
    EXPECT_FALSE(m.valid({1, 1, 3, 0}));
    EXPECT_FALSE(m.valid({1, 1, 1, 16}));
}

TEST(ConfigSpace, FullFactorialSize)
{
    Machine m;
    auto space = ConfigSpace::fullFactorial(m);
    // 16 cores x 2 HT x 2 MCs x 16 speeds = 1024 (Section 6.1).
    EXPECT_EQ(space.size(), 1024u);
    EXPECT_EQ(space.numKnobs(), 4u);
}

TEST(ConfigSpace, FlatteningOrderMatchesPaper)
{
    // "The number of memory controllers is the fastest changing
    // component of configuration, followed by clockspeed, followed by
    // number of cores" (Section 6.3).
    Machine m;
    auto space = ConfigSpace::fullFactorial(m);

    // Knobs: cores, threads per core, memory controllers, speed.
    const Vector &c0 = space.knobs(0);
    const Vector &c1 = space.knobs(1);
    EXPECT_EQ(c1[2], c0[2] + 1);
    EXPECT_EQ(c1[3], c0[3]);
    EXPECT_EQ(c1[0], c0[0]);

    const Vector &c2 = space.knobs(2);
    EXPECT_EQ(c2[3], c0[3] + 1);
    EXPECT_EQ(c2[2], c0[2]);

    EXPECT_EQ(space.knobs(32)[0], c0[0] + 1);

    // Hyperthreading changes slowest: second half of the space.
    EXPECT_EQ(space.knobs(512)[1], 2.0);
}

TEST(ConfigSpace, RoundTripIndexing)
{
    // Every configuration's knobs map back to its index through the
    // flattening order: memory controllers fastest, then speed, then
    // cores, hyperthreading slowest.
    Machine m;
    const MachineSpec &spec = m.spec();
    auto space = ConfigSpace::fullFactorial(m);
    for (std::size_t c = 0; c < space.size(); ++c) {
        const Vector &k = space.knobs(c);
        const auto cores = static_cast<std::size_t>(k[0]);
        const auto tpc = static_cast<std::size_t>(k[1]);
        const auto mc = static_cast<std::size_t>(k[2]);
        const auto speed = static_cast<std::size_t>(k[3]);
        const std::size_t index =
            (((tpc - 1) * spec.totalCores() + (cores - 1)) *
                 spec.speedSettings() +
             speed) *
                spec.memControllers +
            (mc - 1);
        EXPECT_EQ(index, c);
    }
}

TEST(ConfigSpace, LastConfigIsAllResources)
{
    // The race-to-idle baseline (experiments/energy.cc) relies on the
    // final index being the all-resources configuration.
    Machine m;
    auto space = ConfigSpace::fullFactorial(m);
    EXPECT_EQ(space.describe(space.size() - 1), "16c x2 2m s15");
}

TEST(ConfigSpace, CoreOnlySpace)
{
    Machine m;
    auto space = ConfigSpace::coreOnly(m);
    EXPECT_EQ(space.size(), 32u); // Section 2: 32 core allocations
    EXPECT_EQ(space.numKnobs(), 1u);
    EXPECT_EQ(space.assignment(0).threads, 1u);
    EXPECT_EQ(space.assignment(31).threads, 32u);
    EXPECT_DOUBLE_EQ(space.knobs(4)[0], 5.0);
}

TEST(ConfigSpace, ReducedFactorial)
{
    Machine m;
    auto space = ConfigSpace::reducedFactorial(m, 2, 2);
    // 8 cores x 2 HT x 2 MC x 8 speeds = 256.
    EXPECT_EQ(space.size(), 256u);
    EXPECT_THROW(ConfigSpace::reducedFactorial(m, 0, 1), FatalError);
}

TEST(ConfigSpace, AssignmentsConsistentWithKnobs)
{
    Machine m;
    auto space = ConfigSpace::fullFactorial(m);
    for (std::size_t c = 0; c < space.size(); c += 131) {
        const auto &ra = space.assignment(c);
        const auto &k = space.knobs(c);
        EXPECT_DOUBLE_EQ(k[0], ra.activeCores);
        EXPECT_DOUBLE_EQ(k[2], ra.memControllers);
        EXPECT_EQ(ra.threads,
                  static_cast<unsigned>(k[0]) *
                      static_cast<unsigned>(k[1]));
    }
}

TEST(ConfigSpace, OutOfRangeThrows)
{
    Machine m;
    auto space = ConfigSpace::coreOnly(m);
    EXPECT_THROW(space.assignment(32), FatalError);
    EXPECT_THROW(space.knobs(99), FatalError);
    EXPECT_THROW(space.describe(32), FatalError);
}
