/**
 * @file
 * Machine model of the evaluation platform.
 *
 * Simulates the paper's dual-socket SuperMICRO X9DRL-iF server with
 * two Intel Xeon E5-2690 processors (Section 6.1): the DVFS ladder
 * (1.2 - 2.9 GHz in 15 steps), TurboBoost, a voltage/frequency curve,
 * per-socket TDP of 135 W, and wall ("WattsUp") idle power. The
 * machine converts a Config into the ResourceAssignment consumed by
 * the application models and supplies the electrical constants for
 * the power model.
 */

#ifndef LEO_PLATFORM_MACHINE_HH
#define LEO_PLATFORM_MACHINE_HH

#include "platform/config.hh"

namespace leo::platform
{

/**
 * Electrical and topological description of the simulated server.
 *
 * Defaults model the paper's testbed; every field is public so tests
 * and alternative platforms can build variants.
 */
struct MachineSpec
{
    /** Physical cores per socket. */
    unsigned coresPerSocket = 8;
    /** Number of sockets. */
    unsigned sockets = 2;
    /** Hardware threads per core. */
    unsigned threadsPerCore = 2;
    /** Memory controllers (one per socket). */
    unsigned memControllers = 2;
    /** Number of DVFS steps below turbo. */
    unsigned dvfsSteps = 15;
    /** Lowest DVFS frequency in GHz. */
    double minFreqGHz = 1.2;
    /** Highest non-turbo DVFS frequency in GHz. */
    double maxFreqGHz = 2.9;
    /** Single-core TurboBoost ceiling in GHz. */
    double turboPeakGHz = 3.8;
    /** All-core TurboBoost frequency in GHz. */
    double turboAllCoreGHz = 3.3;
    /** Thermal design power per socket in Watts. */
    double tdpPerSocketW = 135.0;
    /** Wall power of the idle system (fans, disks, PSU loss, DRAM). */
    double idleSystemPowerW = 85.0;
    /** Uncore power per powered socket in Watts. */
    double uncorePowerPerSocketW = 14.0;
    /** Power per active memory controller in Watts. */
    double memControllerPowerW = 6.0;
    /** Dynamic power coefficient: W per GHz per V^2 per active core. */
    double dynPowerCoeff = 1.55;
    /** Static (leakage) power per active core in Watts. */
    double corePowerStaticW = 1.3;
    /** Voltage at the lowest DVFS point (V). */
    double minVoltage = 0.80;
    /** Voltage at the highest non-turbo DVFS point (V). */
    double maxVoltage = 1.15;
    /** Extra voltage margin applied in turbo (V). */
    double turboVoltageBumpV = 0.12;
    /** Extra power a second hyperthread adds on a busy core (ratio). */
    double htPowerRatio = 0.18;

    /** @return Total physical cores. */
    unsigned totalCores() const { return coresPerSocket * sockets; }
    /** @return Speed settings including turbo. */
    unsigned speedSettings() const { return dvfsSteps + 1; }
};

/**
 * The simulated machine.
 *
 * Stateless except for its spec: translates knobs into the physical
 * resources that the workload models consume. The power models read
 * the spec's electrical constants (the V/f curve among them)
 * directly.
 */
class Machine
{
  public:
    /** Build a machine from a spec (defaults to the paper's testbed). */
    explicit Machine(MachineSpec spec = MachineSpec{});

    /** @return The machine description. */
    const MachineSpec &spec() const { return spec_; }

    /**
     * Frequency of a speed setting in GHz.
     *
     * @param speed_idx    0..dvfsSteps-1 for the ladder, dvfsSteps for
     *                     turbo.
     * @param active_cores Cores powered (turbo frequency degrades as
     *                     more cores are active).
     */
    double frequencyGHz(unsigned speed_idx, unsigned active_cores) const;

    /**
     * Translate a knob configuration into physical resources.
     *
     * Cores fill the first socket before waking the second, matching
     * how affinity masks were assigned on the testbed.
     */
    ResourceAssignment assignment(const Config &cfg) const;

    /**
     * Resources for a *logical core count* alone (the Section 2
     * core-allocation-only experiment): threads 1..32 at full speed,
     * hyperthread siblings engaged past 16.
     */
    ResourceAssignment coreOnlyAssignment(unsigned logical_cores) const;

    /** @return True iff the knobs are inside the machine's ranges. */
    bool valid(const Config &cfg) const;

  private:
    MachineSpec spec_;
};

} // namespace leo::platform

#endif // LEO_PLATFORM_MACHINE_HH
