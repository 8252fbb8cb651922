/**
 * @file
 * Implementation of the offline profile database.
 */

#include "telemetry/profile_store.hh"

#include "linalg/error.hh"

namespace leo::telemetry
{

ProfileStore::ProfileStore(std::vector<ApplicationRecord> records)
    : records_(std::move(records))
{
    for (const ApplicationRecord &r : records_) {
        require(r.performance.size() == spaceSize() &&
                    r.power.size() == spaceSize(),
                "ProfileStore: records of unequal length");
    }
}

ProfileStore
ProfileStore::collect(
    const std::vector<workloads::ApplicationProfile> &profiles,
    const platform::Machine &machine, const platform::ConfigSpace &space,
    const HeartbeatMonitor &monitor, const PowerMeter &meter,
    stats::Rng &rng)
{
    std::vector<ApplicationRecord> records;
    records.reserve(profiles.size());
    for (const workloads::ApplicationProfile &p : profiles) {
        workloads::ApplicationModel model(p, machine);
        ApplicationRecord rec;
        rec.name = p.name;
        rec.performance = linalg::Vector(space.size());
        rec.power = linalg::Vector(space.size());
        for (std::size_t c = 0; c < space.size(); ++c) {
            const platform::ResourceAssignment &ra = space.assignment(c);
            rec.performance[c] = monitor.measureRate(model, ra, rng);
            rec.power[c] = meter.read(model, ra, rng);
        }
        records.push_back(std::move(rec));
    }
    return ProfileStore(std::move(records));
}

std::size_t
ProfileStore::spaceSize() const
{
    return records_.empty() ? 0 : records_.front().performance.size();
}

bool
ProfileStore::contains(const std::string &name) const
{
    for (const ApplicationRecord &r : records_)
        if (r.name == name)
            return true;
    return false;
}

ProfileStore
ProfileStore::without(const std::string &name) const
{
    std::vector<ApplicationRecord> kept;
    kept.reserve(records_.size());
    for (const ApplicationRecord &r : records_)
        if (r.name != name)
            kept.push_back(r);
    return ProfileStore(std::move(kept));
}

} // namespace leo::telemetry
