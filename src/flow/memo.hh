/**
 * @file
 * Exactly-once concurrent memoization cache.
 *
 * The first thread to ask for a key computes the value; every other
 * thread — including ones that arrive while the computation is still
 * running — blocks on a shared future and then reuses it. Because each
 * distinct key is computed exactly once, `misses()` equals the number
 * of distinct keys and `hits()` is deterministic for a fixed plan no
 * matter how many worker threads race on the cache.
 *
 * Every instance lives in `flow::StageCaches` (flow/caches.hh).
 */

#ifndef RISSP_FLOW_MEMO_HH
#define RISSP_FLOW_MEMO_HH

#include <atomic>
#include <cstdint>
#include <future>
#include <unordered_map>
#include <utility>

#include "util/mutex.hh"

namespace rissp::flow
{

/** Thread-safe exactly-once memoization of Key -> Value. */
template <typename Key, typename Value,
          typename Hash = std::hash<Key>>
class MemoCache
{
  public:
    /**
     * Return the cached value for @p key, computing it with @p fn on
     * first use. @p fn runs outside the cache lock, so long-running
     * computations for different keys proceed in parallel.
     * @p was_hit, when given, reports whether this lookup reused a
     * value (note: which of several racing lookups computes is
     * scheduling-dependent; only the aggregate counters are
     * deterministic).
     *
     * If @p fn throws, the exception propagates to this caller and to
     * every waiter already blocked on the same key, and the entry is
     * removed — the next lookup of the key recomputes. (Callers that
     * want failures cached as values store a Result instead.)
     */
    template <typename Fn>
    Value getOrCompute(const Key &key, Fn &&fn,
                       bool *was_hit = nullptr)
    {
        std::promise<Value> promise;
        std::shared_future<Value> future;
        bool owner = false;
        {
            LockGuard lock(mu);
            auto it = entries.find(key);
            if (it == entries.end()) {
                future = promise.get_future().share();
                entries.emplace(key, future);
                owner = true;
            } else {
                future = it->second;
            }
        }
        if (owner) {
            missCount.fetch_add(1, std::memory_order_relaxed);
            try {
                promise.set_value(fn());
            } catch (...) {
                // Don't poison the key: erase the entry FIRST so no
                // new lookup can latch onto the failed future, then
                // publish the exception to the waiters already
                // blocked on it. A later lookup recomputes instead
                // of receiving broken_promise forever.
                {
                    LockGuard lock(mu);
                    entries.erase(key);
                }
                promise.set_exception(std::current_exception());
            }
        } else {
            hitCount.fetch_add(1, std::memory_order_relaxed);
        }
        if (was_hit)
            *was_hit = !owner;
        return future.get();
    }

    /** Lookups that reused a value (including waits on in-flight
     *  computations by another thread). */
    uint64_t hits() const
    {
        return hitCount.load(std::memory_order_relaxed);
    }

    /** Lookups that computed: equals the number of distinct keys. */
    uint64_t misses() const
    {
        return missCount.load(std::memory_order_relaxed);
    }

    size_t size() const
    {
        LockGuard lock(mu);
        return entries.size();
    }

  private:
    mutable rissp::Mutex mu;
    /** Only the entry *map* is guarded; the shared futures it hands
     *  out synchronize on their own (value published by set_value,
     *  consumed by get). */
    std::unordered_map<Key, std::shared_future<Value>, Hash> entries
        RISSP_GUARDED_BY(mu);
    std::atomic<uint64_t> hitCount{0};
    std::atomic<uint64_t> missCount{0};
};

} // namespace rissp::flow

#endif // RISSP_FLOW_MEMO_HH
