/**
 * @file
 * Seeded op streams: everything the program under test is asked to
 * do is generated here from `--seed`, and nothing else reaches it.
 */

#ifndef PERFBENCH_STREAM_HH
#define PERFBENCH_STREAM_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "compiler/driver.hh"
#include "explore/plan.hh"

namespace perfbench
{

/** SplitMix64: small, seedable, identical on every platform. */
class Rng
{
  public:
    explicit Rng(uint64_t seed) : state(seed) {}

    uint64_t next();

    /** Uniform in [0, n); n > 0. */
    size_t below(size_t n);

    template <typename T>
    void
    shuffle(std::vector<T> &items)
    {
        for (size_t i = items.size(); i > 1; --i)
            std::swap(items[i - 1], items[below(i)]);
    }

  private:
    uint64_t state;
};

/** Derive an independent seed for sub-stream @p lane of @p seed. */
uint64_t laneSeed(uint64_t seed, uint64_t lane);

/**
 * Endless rounds over [0, n): each round is a fresh seeded
 * permutation. A run therefore sees every item equally often, up to
 * one partial round, so its mix does not drift with the seed.
 */
class Rounds
{
  public:
    Rounds(size_t n, uint64_t seed);

    size_t next();

  private:
    Rng rng;
    std::vector<size_t> order;
    size_t pos;
};

/**
 * A bundled workload's MiniC text with `/\* salt N *\/` prepended.
 * The comment changes the source (and so every cache and store key)
 * but not one emitted instruction.
 */
std::string saltedSource(const std::string &text, uint64_t salt);

/** One (bundled workload, optimization level) pair. */
struct SourcePair
{
    size_t workload = 0; ///< index into rissp::allWorkloads()
    rissp::minic::OptLevel opt = rissp::minic::OptLevel::O2;
};

/** All 25 bundled workloads x -O0..-Oz, in Table 3 x Figure 5 order. */
const std::vector<SourcePair> &allSourcePairs();

/** One op of a cold stream: a pair and the salt that makes it new. */
struct ColdOp
{
    uint64_t index = 0;
    SourcePair pair;
    uint64_t salt = 0;

    std::string source() const;
    const std::string &workloadName() const;
};

/** The cold workloads' op stream: rounds over allSourcePairs(), a
 *  distinct salt per op. */
class ColdStream
{
  public:
    explicit ColdStream(uint64_t seed);

    ColdOp next();

  private:
    Rounds rounds;
    uint64_t saltBase;
    uint64_t count = 0;
};

/** One serve_hot request: a verb on a bundled workload at -O2. */
struct ServeRequest
{
    std::string verb;   ///< "characterize", "run" or "synth"
    size_t workload = 0;
    std::string body;   ///< the JSON body sent to /api/v1/<verb>

    std::string target() const { return "/api/v1/" + verb; }
};

/** Every distinct serve_hot request (3 verbs x 25 workloads). */
const std::vector<ServeRequest> &servePool();

/** Workloads per explore_warm sweep, and registry techs per sweep. */
inline constexpr size_t kSweepWorkloads = 8;
inline constexpr size_t kSweepTechs = 2;

/**
 * An explore_warm sweep: for each of @p workloads its own RISSP and
 * RISSP-RV32E run on it (paired), crossed with @p techs.
 */
rissp::explore::ExplorationPlan
sweepPlan(const std::vector<std::string> &workloads,
          const std::vector<std::string> &techs);

/** The whole design space every sweep draws from: all bundled
 *  workloads x all registry techs. */
rissp::explore::ExplorationPlan fullSweepPlan();

/** One seeded sweep of kSweepWorkloads x kSweepTechs per bundled
 *  workload, every workload in exactly kSweepWorkloads of them. */
std::vector<rissp::explore::ExplorationPlan> sweepPool(uint64_t seed);

} // namespace perfbench

#endif // PERFBENCH_STREAM_HH
