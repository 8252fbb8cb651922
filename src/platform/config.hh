/**
 * @file
 * System configuration types.
 *
 * The evaluation platform of Section 6.1 is a dual-socket Xeon E5-2690
 * exposing 16 cores, 2 hyperthreads, 2 memory controllers and 16 speed
 * settings (15 DVFS steps plus TurboBoost) for a total of 1024
 * user-accessible configurations.
 */

#ifndef LEO_PLATFORM_CONFIG_HH
#define LEO_PLATFORM_CONFIG_HH

#include <cstddef>
#include <string>

namespace leo::platform
{

/**
 * One point of the configurable space: the four knobs the runtime can
 * actuate (process affinity, hyperthreading, numactl memory-controller
 * binding, cpufrequtils speed setting).
 */
struct Config
{
    /** Physical cores allocated (1..16). */
    unsigned cores = 1;
    /** Threads per core (1 = no hyperthreading, 2 = hyperthreading). */
    unsigned threadsPerCore = 1;
    /** Memory controllers bound (1..2). */
    unsigned memControllers = 1;
    /** Speed setting (0..14 = DVFS ladder, 15 = TurboBoost). */
    unsigned speedIdx = 0;

    /** @return A compact human-readable rendering, e.g. "8c x2 2m s12". */
    std::string describe() const;
};

/**
 * The physical resources a configuration grants, in the units the
 * application models consume. This decouples the *knob* encoding from
 * the *effect* encoding so alternative spaces (e.g. the 32-point
 * core-allocation space of the Section 2 example) can drive the same
 * application models.
 */
struct ResourceAssignment
{
    /** Logical threads available to the application. */
    unsigned threads = 1;
    /** Fraction of threads that are hyperthread siblings, in [0, 1). */
    double htShare = 0.0;
    /** Memory controllers reachable. */
    unsigned memControllers = 1;
    /** Effective core clock in GHz (already accounts for turbo). */
    double freqGHz = 1.2;
    /** True when running in the TurboBoost speed setting. */
    bool turbo = false;
    /** Physical cores powered on. */
    unsigned activeCores = 1;
    /** Sockets with at least one active core (1..2). */
    unsigned activeSockets = 1;
};

} // namespace leo::platform

#endif // LEO_PLATFORM_CONFIG_HH
