/**
 * @file
 * Two-pass RV32E assembler.
 *
 * Stands in for GNU as in the paper's flow. Supports labels, the full
 * RV32E instruction set, the standard pseudo-instruction repertoire
 * (li/la/mv/call/ret/j/beqz/...), data directives and gas-style
 * .macro/.endm expansion — the feature the Fig. 11/12 retargeting flow
 * builds on: retarget macros shadow unsupported mnemonics and expand
 * them into supported sequences before encoding.
 */

#ifndef RISSP_ASSEMBLER_ASSEMBLER_HH
#define RISSP_ASSEMBLER_ASSEMBLER_HH

#include <optional>
#include <string>
#include <vector>

#include "sim/program.hh"

namespace rissp
{

/** Load address of .data in every assembled image. */
constexpr uint32_t kAsmDataBase = 0x10000;

/** Memory layout knobs for the assembled image. */
struct AsmOptions
{
    uint32_t textBase = 0x0;       ///< load address of .text
};

/** Result of a tryAssemble() call. */
struct AsmResult
{
    bool ok = false;
    Program program;      ///< valid when ok
    std::string error;    ///< "line N: message" when !ok

    explicit operator bool() const { return ok; }
};

/**
 * Assemble source text into a program image; returns a diagnostic
 * instead of terminating on malformed input.
 */
AsmResult tryAssemble(const std::string &source,
                      const AsmOptions &options = {});

/** Multi-module variant of tryAssemble(). */
AsmResult tryAssembleModules(const std::vector<std::string> &sources,
                             const AsmOptions &options = {});

/** Assemble trusted source text (panic() on malformed input);
 *  user-provided assembly goes through tryAssemble(). */
Program assemble(const std::string &source,
                 const AsmOptions &options = {});

/**
 * Assemble several modules as one unit (e.g. crt0 + libcalls + app);
 * modules share one symbol namespace and are laid out in order.
 */
Program assembleModules(const std::vector<std::string> &sources,
                        const AsmOptions &options = {});

} // namespace rissp

#endif // RISSP_ASSEMBLER_ASSEMBLER_HH
