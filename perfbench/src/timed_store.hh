/**
 * @file
 * A timing decorator over any `store::ArtifactStore`, handed to the
 * service through `ServiceOptions::artifacts`. It forwards every
 * call unchanged and records its duration: always as counters, and
 * as a span when the tracer is on.
 */

#ifndef PERFBENCH_TIMED_STORE_HH
#define PERFBENCH_TIMED_STORE_HH

#include <atomic>
#include <memory>

#include "store/artifact_store.hh"
#include "trace.hh"

namespace perfbench
{

class TimedStore final : public rissp::store::ArtifactStore
{
  public:
    TimedStore(std::shared_ptr<rissp::store::ArtifactStore> inner,
               Tracer &tracer);

    bool load(rissp::store::ArtifactKind kind,
              const rissp::store::ArtifactKey &key,
              std::vector<uint8_t> &payload) override;

    bool publish(rissp::store::ArtifactKind kind,
                 const rissp::store::ArtifactKey &key,
                 const std::vector<uint8_t> &payload) override;

    rissp::store::StoreStats stats() const override
    {
        return inner->stats();
    }

    /** Time spent inside the wrapped store, summed over threads. */
    struct Timing
    {
        uint64_t loads = 0;
        uint64_t publishes = 0;
        double loadMs = 0;
        double publishMs = 0;
    };
    Timing timing() const;

  private:
    std::shared_ptr<rissp::store::ArtifactStore> inner;
    Tracer &tracer;
    std::atomic<uint64_t> loads{0};
    std::atomic<uint64_t> publishes{0};
    std::atomic<int64_t> loadNs{0};
    std::atomic<int64_t> publishNs{0};
};

} // namespace perfbench

#endif // PERFBENCH_TIMED_STORE_HH
