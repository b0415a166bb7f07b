/**
 * @file
 * The generated RISSP: a single-cycle RV32E-subset processor
 * (Step 3 of Figure 2, Figure 3 microarchitecture).
 *
 * Fetch (PC + incrementer), the 16-entry register file and the memory
 * interfaces are the fixed units; ModularEX executes. One instruction
 * retires per cycle (CPI = 1, §4.2.4). Executing an instruction whose
 * block was not stitched in is a hardware trap — that is what makes a
 * subset processor a *subset* processor.
 *
 * The simulator emits RVFI-style RetireEvents so riscv-formal-style
 * monitors and signature co-simulation against the reference ISS can
 * check it (§3.4.2).
 */

#ifndef RISSP_CORE_RISSP_HH
#define RISSP_CORE_RISSP_HH

#include <memory>
#include <string>

#include "core/modularex.hh"
#include "sim/refsim.hh"

namespace rissp
{

/** Options for Rissp::run(). */
struct RisspRunOptions
{
    /** Stop after this many instructions (StopReason::StepLimit). */
    uint64_t maxSteps = 100'000'000;

    /** Interpreter core for the specialized engine (a pure
     *  performance knob; all modes are bit-identical). */
    DispatchMode dispatch = DispatchMode::Auto;

    /** When set, every RetireEvent is written into this caller-owned
     *  sink, in place, and the run retires at most trace->room()
     *  instructions (see TraceSink): the gate-level engine and the
     *  specialized cores feed it alike. */
    TraceSink *trace = nullptr;

    /** Injected netlist fault. Any non-null Mutation — including
     *  Kind::None — routes every instruction through the gate-level
     *  structural engine, preserving the mutation-coverage surface
     *  (the specialized cores never see faults). */
    const Mutation *fault = nullptr;

    /** Force the gate-level engine even with no fault (what run()
     *  always did before the specialized cores existed). */
    bool gateLevel = false;
};

/** A generated instruction-subset processor plus its simulator. */
class Rissp
{
  public:
    /**
     * Build a RISSP for @p subset.
     * @param subset  instruction subset from Step 1
     * @param name    report label, e.g. "RISSP-armpit"
     * @param library the pre-verified block library (Step 0)
     */
    Rissp(const InstrSubset &subset, std::string name,
          const HwLibrary &library = HwLibrary::instance());

    const std::string &name() const { return risspName; }
    const InstrSubset &subset() const { return ex.subset(); }
    const ModularEx &modularEx() const { return ex; }

    /** Reset the machine and load a program image. */
    void reset(const Program &program);

    /**
     * Execute one cycle (one instruction). With @p mut == nullptr
     * this drives the subset-specialized functional core (bit-
     * identical to the gate-level engine, pinned by tests); any
     * non-null @p mut — even Mutation{Kind::None} — forces the full
     * structural gate-level chain.
     */
    RetireEvent step(const Mutation *mut = nullptr);

    /** Run until halt/trap or @p maxSteps cycles. */
    RunResult run(uint64_t maxSteps = 100'000'000);

    /** Run with explicit dispatch/trace/fault options. A fault (or
     *  gateLevel) selects the gate-level engine; otherwise the
     *  subset-specialized interpreter core runs. */
    RunResult run(const RisspRunOptions &options);

    uint32_t pc() const { return pcReg; }
    uint32_t reg(unsigned idx) const;
    /** Direct memory access. Writing into the text span through this
     *  handle bypasses the decoded-instruction cache; call reset()
     *  again before executing such a change (icache semantics). */
    Memory &memory() { return mem; }
    const Memory &memory() const { return mem; }
    uint64_t cycles() const { return retired; } // CPI == 1
    StopReason stopReason() const { return stopped; }

    const std::vector<uint32_t> &outputWords() const { return outWords; }
    const std::string &outputText() const { return outText; }

  private:
    /** One instruction through the gate-level structural engine —
     *  ModularEX evaluates the stitched blocks, with @p mut (which
     *  may be null) threaded into every primitive. This is the
     *  pre-specialization step() body, kept whole as the mutation-
     *  coverage surface and the off-span fallback. */
    RetireEvent stepGate(const Mutation *mut);

    /** One instruction through the specialized core (mut == null). */
    RetireEvent stepFast();

    // Interpreter cores over the pre-decoded text span, stamped out
    // from sim/exec_core.inc — same statement of the semantics as
    // RefSim's, specialized here to the generated subset.
    template <bool kTrace>
    RunResult runCoreSwitch(uint64_t maxSteps, TraceSink *traceOut);
    template <bool kTrace>
    RunResult runCoreThreaded(uint64_t maxSteps, TraceSink *traceOut);

    // exec_core.inc hooks: only stitched blocks execute, every
    // retire charges ModularEx's counters, and off-span execution
    // goes through the gate-level engine.
    bool coreTokenEnabled(uint8_t tok) const
    {
        return tok < kNumOps && ex.enabledOps()[tok];
    }
    void coreNoteExec(uint8_t tok) const
    {
        ex.noteExec(static_cast<Op>(tok));
    }
    RetireEvent coreSlowStep() { return stepGate(nullptr); }

    std::string risspName;
    ModularEx ex;
    uint32_t pcReg = 0;
    std::array<uint32_t, kNumRegsE> regs{};
    Memory mem;
    DecodedProgram dec;
    StopReason stopped = StopReason::Running;
    uint64_t retired = 0;
    std::vector<uint32_t> outWords;
    std::string outText;
};

} // namespace rissp

#endif // RISSP_CORE_RISSP_HH
