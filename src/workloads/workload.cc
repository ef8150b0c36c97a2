#include "workload.hh"

#include "util/logging.hh"

namespace dopp
{

namespace
{

/** Every workload and its factory, in Table 2 order. */
struct WorkloadEntry
{
    const char *name;
    std::unique_ptr<Workload> (*make)(const WorkloadConfig &);
};

constexpr WorkloadEntry workloadTable[] = {
    {"blackscholes", makeBlackscholes}, {"canneal", makeCanneal},
    {"ferret", makeFerret},             {"fluidanimate", makeFluidanimate},
    {"inversek2j", makeInversek2j},     {"jmeint", makeJmeint},
    {"jpeg", makeJpeg},                 {"kmeans", makeKmeans},
    {"swaptions", makeSwaptions},
};

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = [] {
        std::vector<std::string> out;
        for (const WorkloadEntry &w : workloadTable)
            out.push_back(w.name);
        return out;
    }();
    return names;
}

std::unique_ptr<Workload>
makeWorkload(const std::string &name, const WorkloadConfig &config)
{
    for (const WorkloadEntry &w : workloadTable) {
        if (name == w.name)
            return w.make(config);
    }
    fatal("unknown workload '%s'", name.c_str());
}

double
workloadOutputError(const std::string &name,
                    const std::vector<double> &approx,
                    const std::vector<double> &precise)
{
    WorkloadConfig cfg;
    return makeWorkload(name, cfg)->outputError(approx, precise);
}

} // namespace dopp
