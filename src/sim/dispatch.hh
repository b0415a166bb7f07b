/**
 * @file
 * Dispatch-mode selection for the simulator interpreter cores.
 *
 * Both simulators carry two semantically identical interpreter cores
 * over the pre-decoded text span (sim/exec_core.inc): a portable
 * `switch` core and, on compilers with the GNU labels-as-values
 * extension, a computed-goto threaded core. Which one a run() uses is
 * resolved here, in priority order:
 *
 *   1. the mode requested explicitly in the run options;
 *   2. the RISSP_DISPATCH environment variable
 *      ("auto" | "switch" | "threaded");
 *   3. the build default (-DRISSP_DISPATCH= CMake cache option);
 *   4. Auto: threaded when the compiler supports computed goto,
 *      switch otherwise.
 *
 * Requesting Threaded on a toolchain without computed goto degrades
 * to Switch (the cores are bit-identical, so this is a pure
 * performance decision); an unrecognized environment value warns
 * once and is treated as Auto.
 */

#ifndef RISSP_SIM_DISPATCH_HH
#define RISSP_SIM_DISPATCH_HH

#include <cstdint>
#include <optional>
#include <string_view>

#include "sim/trace.hh"

/** 1 when the GNU labels-as-values extension is available and the
 *  threaded interpreter cores are compiled in. */
#if defined(__GNUC__) || defined(__clang__)
#define RISSP_HAS_COMPUTED_GOTO 1
#else
#define RISSP_HAS_COMPUTED_GOTO 0
#endif

namespace rissp
{

/** Which interpreter core run() drives. */
enum class DispatchMode : uint8_t
{
    Auto,     ///< resolve via env var, build default, then detection
    Switch,   ///< portable dense-switch core
    Threaded, ///< computed-goto threaded core (GNU extension)
};

/** True when the threaded cores are compiled into this binary. */
constexpr bool
threadedDispatchSupported()
{
    return RISSP_HAS_COMPUTED_GOTO != 0;
}

/** Canonical lower-case name ("auto", "switch", "threaded"). */
std::string_view dispatchModeName(DispatchMode mode);

/** Parse a mode name; empty optional for anything unrecognized. */
std::optional<DispatchMode> dispatchModeFromName(std::string_view name);

/**
 * Collapse @p requested to the concrete core to run (never Auto):
 * explicit requests win, then the RISSP_DISPATCH environment
 * variable, then the build default, then support detection.
 */
DispatchMode resolveDispatchMode(DispatchMode requested);

namespace sim_detail
{

/** The interpreter cores' retirement-record cursor: the record being
 *  written, in place in the run's TraceSink, in traced
 *  instantiations; empty (and thus free) in untraced ones. */
template <bool kTrace>
struct TraceSlot
{
    RetireEvent *ev;
};

template <>
struct TraceSlot<false>
{
};

} // namespace sim_detail

} // namespace rissp

#endif // RISSP_SIM_DISPATCH_HH
