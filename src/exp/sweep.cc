#include "src/exp/sweep.hh"

#include "src/sim/logging.hh"

namespace netcrafter::exp {

Job &
SweepSpec::add(std::string job_name, std::string workload,
               config::SystemConfig cfg, double scale)
{
    auto [it, inserted] =
        by_name_.emplace(std::move(job_name), jobs_.size());
    if (!inserted) {
        NC_FATAL("sweep '", name_, "': duplicate job name '", it->first,
                 "'");
    }
    jobs_.push_back(
        Job{it->first, std::move(workload), std::move(cfg), scale, {}});
    return jobs_.back();
}

void
SweepSpec::addGrid(const std::vector<std::string> &workload_names,
                   const std::vector<ConfigPoint> &configs, double scale)
{
    for (const auto &cfg : configs) {
        for (const auto &w : workload_names)
            add(cfg.label + "/" + w, w, cfg.config, scale);
    }
}

std::size_t
SweepSpec::indexOf(const std::string &job_name) const
{
    auto it = by_name_.find(job_name);
    if (it == by_name_.end())
        NC_FATAL("sweep '", name_, "': no job named '", job_name, "'");
    return it->second;
}

} // namespace netcrafter::exp
