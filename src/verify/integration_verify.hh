/**
 * @file
 * Integration-level verification of generated RISSPs (§3.4.2):
 *
 *  - architectural signature tests per instruction (the RISCOF flow:
 *    run directed tests on the RISSP, compare the signature a golden
 *    reference produces — our RefSim plays Spike);
 *  - RVFI retirement-trace monitors (the riscv-formal flow): pc
 *    chaining, register-file consistency, memory access legality;
 *  - lock-step co-simulation on constrained-random programs.
 */

#ifndef RISSP_VERIFY_INTEGRATION_VERIFY_HH
#define RISSP_VERIFY_INTEGRATION_VERIFY_HH

#include "core/rissp.hh"
#include "core/subset.hh"
#include "sim/refsim.hh"

namespace rissp
{

/** RVFI monitor verdict. */
struct MonitorReport
{
    uint64_t eventsChecked = 0;
    std::vector<std::string> violations;

    bool passed() const { return violations.empty(); }
};

/**
 * Incremental RVFI monitor: push() one retirement event at a time and
 * the same per-event and chaining invariants as checkRvfiStream() are
 * applied as the stream flows, holding only what the chaining checks
 * need of the previous event — O(violations) memory instead of
 * O(instret). For any event sequence, pushing all events then
 * calling report() yields a MonitorReport
 * identical to checkRvfiStream() on the equivalent vector (covered by
 * test_verify).
 */
class RvfiStreamChecker
{
  public:
    /** Check @p ev as the next retirement in the stream. */
    void push(const RetireEvent &ev);

    /** Verdict over everything pushed so far. */
    const MonitorReport &report() const { return rpt; }

  private:
    /** Record a violation of event @p at (at @p pc). */
    void flag(size_t at, uint32_t pc, const char *what);

    MonitorReport rpt;
    // What the chaining checks need of the previous event.
    uint32_t prevPc = 0;
    uint32_t prevNextPc = 0;
    bool prevStopped = false; ///< it halted or trapped
    bool hasPrev = false;
    size_t index = 0;
};

/** Check an RVFI stream for per-event and chaining invariants. */
MonitorReport checkRvfiStream(const std::vector<RetireEvent> &events);

/** Lock-step co-simulation verdict. */
struct CosimReport
{
    bool passed = false;
    uint64_t instret = 0;
    std::string firstDivergence;
    MonitorReport monitor;   ///< RVFI checks on the RISSP's stream

    /** Divergence context: the last few retirements before the stop
     *  (oldest first, the divergent step last), bounded by
     *  CosimOptions::contextEvents. Empty on a clean pass. */
    std::vector<RetireEvent> recentRef;
    std::vector<RetireEvent> recentDut;
};

/** DUT events per Rissp::run() call in cosimulate()'s block-stepped
 *  lock-step: the size of its reusable event buffer. A measured
 *  constant, not a knob; it changes no report, only speed. */
constexpr uint64_t kCosimBlock = 1024;

/** Knobs for cosimulate(). */
struct CosimOptions
{
    uint64_t maxSteps = 10'000'000;
    /** Optional netlist fault injected into the RISSP's execution
     *  (mutation testing at the integration level): a non-equivalent
     *  fault must surface as a divergence, which is how the mismatch
     *  path of the verification flow is exercised end-to-end. */
    const Mutation *fault = nullptr;
    /** Ring-buffer depth for CosimReport::recentRef/recentDut. */
    unsigned contextEvents = 8;
};

/**
 * Run @p program on a RISSP built for @p subset and on the reference
 * ISS, comparing every retirement event, the final register file and
 * the final memory signature region (symbol "signature", when the
 * program defines it).
 *
 * Block-stepped: each Rissp::run() call writes up to kCosimBlock DUT
 * events into one reused buffer, then the reference, driven by the
 * independent RefSim::step(), steps alongside that block and each
 * event pair is checked in order (eventsMatch, the RVFI monitor, the
 * step limit), so the report is identical, context rings included,
 * to stepping both machines one instruction at a time. RVFI
 * invariants are checked incrementally (RvfiStreamChecker) and only
 * a small ring of recent events is retained for context, so memory
 * stays O(kCosimBlock) whatever the instret.
 */
CosimReport cosimulate(const Program &program,
                       const InstrSubset &subset,
                       const CosimOptions &options);

/** Convenience overload with the historical signature. */
CosimReport cosimulate(const Program &program,
                       const InstrSubset &subset,
                       uint64_t max_steps = 10'000'000,
                       const Mutation *fault = nullptr);

/**
 * Directed architectural test for one instruction: a program that
 * exercises the op on corner operands and stores results to the
 * signature region.
 */
Program archTestProgram(Op op);

/** Constrained-random terminating program (forward branches only),
 *  for trace-level fuzzing of RISSP vs reference. */
Program randomProgram(uint64_t seed, unsigned num_instrs,
                      const InstrSubset &subset);

} // namespace rissp

#endif // RISSP_VERIFY_INTEGRATION_VERIFY_HH
