#include "stream.hh"

#include "tech/registry.hh"
#include "workloads/workloads.hh"

namespace perfbench
{

using namespace rissp;

uint64_t
Rng::next()
{
    uint64_t z = (state += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

size_t
Rng::below(size_t n)
{
    return static_cast<size_t>(next() % n);
}

uint64_t
laneSeed(uint64_t seed, uint64_t lane)
{
    Rng rng(seed ^ (lane * 0xD1B54A32D192ED03ull));
    return rng.next();
}

Rounds::Rounds(size_t n, uint64_t seed)
    : rng(seed), order(n), pos(n)
{
    for (size_t i = 0; i < n; ++i)
        order[i] = i;
}

size_t
Rounds::next()
{
    if (pos == order.size()) {
        rng.shuffle(order);
        pos = 0;
    }
    return order[pos++];
}

std::string
saltedSource(const std::string &text, uint64_t salt)
{
    return "/* salt " + std::to_string(salt) + " */\n" + text;
}

const std::vector<SourcePair> &
allSourcePairs()
{
    static const std::vector<SourcePair> pairs = [] {
        std::vector<SourcePair> out;
        for (size_t w = 0; w < allWorkloads().size(); ++w)
            for (minic::OptLevel opt : minic::allOptLevels())
                out.push_back({w, opt});
        return out;
    }();
    return pairs;
}

std::string
ColdOp::source() const
{
    return saltedSource(allWorkloads()[pair.workload].source, salt);
}

const std::string &
ColdOp::workloadName() const
{
    return allWorkloads()[pair.workload].name;
}

ColdStream::ColdStream(uint64_t seed)
    : rounds(allSourcePairs().size(), laneSeed(seed, 1)),
      // Salts of one run share their high half and count up in the
      // low half, so no two ops of a run ever share a source.
      saltBase(laneSeed(seed, 2) << 32)
{
}

ColdOp
ColdStream::next()
{
    ColdOp op;
    op.index = count;
    op.pair = allSourcePairs()[rounds.next()];
    op.salt = saltBase | (count & 0xFFFFFFFFull);
    ++count;
    return op;
}

const std::vector<ServeRequest> &
servePool()
{
    static const std::vector<ServeRequest> pool = [] {
        std::vector<ServeRequest> out;
        for (const char *verb : {"characterize", "run", "synth"})
            for (size_t w = 0; w < allWorkloads().size(); ++w)
                out.push_back({verb, w,
                               "{\"workload\": \"" +
                                   allWorkloads()[w].name + "\"}"});
        return out;
    }();
    return pool;
}

explore::ExplorationPlan
sweepPlan(const std::vector<std::string> &workloads,
          const std::vector<std::string> &techs)
{
    explore::ExplorationPlan plan;
    plan.mode = explore::ExplorationPlan::Mode::Paired;
    for (const std::string &wl : workloads) {
        plan.subsets.push_back(explore::SubsetSpec::fromWorkload(wl));
        plan.workloads.push_back(wl);
    }
    for (const std::string &wl : workloads) {
        plan.subsets.push_back(explore::SubsetSpec::full());
        plan.workloads.push_back(wl);
    }
    for (const std::string &spec : techs)
        plan.techs.push_back(explore::TechSpec::fromSpec(spec).take());
    return plan;
}

namespace
{

std::vector<std::string>
techNames()
{
    std::vector<std::string> names;
    for (const Technology &tech : TechRegistry::builtins().list())
        names.push_back(tech.name);
    return names;
}

std::vector<std::string>
workloadNames()
{
    std::vector<std::string> names;
    for (const Workload &wl : allWorkloads())
        names.push_back(wl.name);
    return names;
}

/** The seeded order of @p items. */
std::vector<std::string>
shuffled(std::vector<std::string> items, Rng &rng)
{
    rng.shuffle(items);
    return items;
}

} // namespace

explore::ExplorationPlan
fullSweepPlan()
{
    return sweepPlan(workloadNames(), techNames());
}

std::vector<explore::ExplorationPlan>
sweepPool(uint64_t seed)
{
    Rng rng(laneSeed(seed, 3));
    const std::vector<std::string> workloads =
        shuffled(workloadNames(), rng);
    const std::vector<std::string> techs = shuffled(techNames(), rng);
    // Sweep i takes the kSweepWorkloads workloads after position
    // i * kSweepWorkloads of the seeded order, cyclically, and
    // kSweepTechs consecutive techs: every workload is in exactly
    // kSweepWorkloads sweeps, so each seed's pool holds the same work.
    std::vector<explore::ExplorationPlan> pool;
    for (size_t i = 0; i < workloads.size(); ++i) {
        std::vector<std::string> w, t;
        for (size_t j = 0; j < kSweepWorkloads; ++j)
            w.push_back(
                workloads[(i * kSweepWorkloads + j) % workloads.size()]);
        for (size_t j = 0; j < kSweepTechs; ++j)
            t.push_back(techs[(i + j) % techs.size()]);
        pool.push_back(sweepPlan(w, t));
    }
    return pool;
}

} // namespace perfbench
