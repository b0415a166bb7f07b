/**
 * @file
 * The §5 code-retargeting tool for long-lasting extreme-edge
 * applications (Figure 11 flow).
 *
 * Given a program compiled for the full RV32E ISA and the instruction
 * subset a fabricated RISSP supports, the tool:
 *
 *  1. identifies the instructions the RISSP does not implement;
 *  2. asks the generator (the ChatGPT-plugin analog in
 *     macro_library) for a macro expansion of each one, simulating
 *     the candidate against the original instruction's semantics
 *     over directed operand/alias cases and rejecting wrong ones
 *     until a verified macro emerges (bounded attempts);
 *  3. writes the verified macros to a macro file, rewrites every
 *     offending instruction into its canonical macro invocation, and
 *     reassembles — the retargeted binary then runs on the subset
 *     processor unchanged.
 *
 * Verification (`verifyMacro`) runs each trial twice on the full-ISA
 * reference simulator from one register file and one scratch buffer:
 * once as the already-encoded instruction followed by `ecall`, once
 * as the assembled macro invocation followed by `ecall`. The trial
 * passes when x1–x15 and the whole buffer agree afterwards, so a
 * body must produce the instruction's result *and* keep its promise
 * to restore ra, sp and t0. The verdict is a pure function of
 * (op, body) — independent of the target subset and of the
 * Retargeter's seed — which is what lets a service memoize it (the
 * `verifier` hook; flow::StageCaches::macroVerdict).
 */

#ifndef RISSP_RETARGET_RETARGETER_HH
#define RISSP_RETARGET_RETARGETER_HH

#include <functional>
#include <set>
#include <string>

#include "core/subset.hh"
#include "retarget/macro_library.hh"
#include "util/rng.hh"
#include "util/status.hh"

namespace rissp
{

/** One synthesized-and-verified macro. */
struct MacroExpansion
{
    Op target = Op::Invalid;
    std::string body;        ///< verified body
    unsigned attempts = 0;   ///< candidates tried (paper: < 10)
    bool verified = false;
};

/** Result of retargeting one program. */
struct RetargetResult
{
    bool ok = false;
    std::string error;

    std::string macroFile;           ///< the generated macro.S
    std::vector<MacroExpansion> macros;
    std::set<Op> rewrittenOps;       ///< ops that were transformed

    Program program;                 ///< retargeted binary
    size_t initialTextBytes = 0;     ///< Figure 12 code size before
    size_t retargetedTextBytes = 0;  ///< Figure 12 code size after
    InstrSubset initialSubset;       ///< distinct instrs before
    InstrSubset finalSubset;         ///< distinct instrs after

    double
    codeGrowth() const
    {
        return initialTextBytes == 0 ? 0.0
            : static_cast<double>(retargetedTextBytes) /
                static_cast<double>(initialTextBytes) - 1.0;
    }
};

/** Decides whether a candidate body implements its op. */
using MacroVerifier =
    std::function<bool(Op op, const std::string &body)>;

/** The retargeting tool. */
class Retargeter
{
  public:
    /** The generator seed every caller uses unless it asks. */
    static constexpr uint64_t kDefaultSeed = 0x6E47;

    /**
     * @param target   the subset the fabricated RISSP supports; must
     *        satisfy validateTarget() (panic() otherwise)
     * @param seed     drives the generator's candidate ordering (how
     *        many hallucinated attempts precede the good one)
     * @param verifier judges each candidate; must agree with
     *        verifyMacro (a memoizing wrapper, say)
     */
    explicit Retargeter(const InstrSubset &target,
                        uint64_t seed = kDefaultSeed,
                        MacroVerifier verifier = verifyMacro);

    /** The paper's minimal 12-instruction subset. */
    static InstrSubset minimalSubset();

    /** Check a user-chosen target subset includes the §5 kernel ops
     *  {addi, add, and, xori, sll, sra, jal, jalr, blt, bltu, lw,
     *  sw}; call before constructing a Retargeter from user input. */
    static Status validateTarget(const InstrSubset &target);

    /** True when @p body, wrapped as @p op's macro, behaves exactly
     *  like @p op over the directed operand, alias and value trials
     *  (see the file comment). Pure: same inputs, same verdict. */
    static bool verifyMacro(Op op, const std::string &body);

    /** Synthesize + verify the macro for one instruction. */
    MacroExpansion synthesizeMacro(Op op);

    /** Retarget a fully linked program. */
    RetargetResult retarget(const Program &program);

    /** Reconstruct assembly from a binary, rewriting ops in
     *  @p rewrite into canonical macro invocations (exposed for
     *  tests). Programs the rewriter cannot express (auipc, ra used
     *  as an operand of a rewritten op) come back as RetargetError
     *  instead of aborting: the input binary is the user's. */
    Result<std::string> reconstruct(const Program &program,
                                    const std::set<Op> &rewrite) const;

  private:
    InstrSubset targetSubset;
    Rng rng;
    MacroVerifier verify;
};

} // namespace rissp

#endif // RISSP_RETARGET_RETARGETER_HH
