/**
 * @file
 * MiniC compiler driver: source -> optimized RV32E program image.
 *
 * Mirrors the paper's Step 1 toolflow: compile the application
 * baremetal for the full RV32E ISA at a chosen optimization level,
 * linking the startup stub and only the runtime helpers the code
 * actually calls, and hand the binary to the subset extractor.
 */

#ifndef RISSP_COMPILER_DRIVER_HH
#define RISSP_COMPILER_DRIVER_HH

#include <set>
#include <string>
#include <vector>

#include "sim/program.hh"
#include "util/status.hh"

namespace rissp::minic
{

/** The five optimization levels of Figure 5. */
enum class OptLevel : uint8_t { O0, O1, O2, O3, Oz };

/** All levels, in Figure 5 order. */
std::vector<OptLevel> allOptLevels();

/** "-O2" style label. */
std::string optLevelName(OptLevel level);

/** Output of a compilation. */
struct CompileResult
{
    std::string appAsm;       ///< assembly of the application itself
    Program program;          ///< linked image (crt0 + helpers + app)
    std::set<std::string> helpers; ///< runtime helpers linked in

    /** Static instruction count (codesize/4, the Figure 5 metric). */
    size_t staticInstructions() const
    {
        return program.textSize / 4;
    }
};

/** Target-machine configuration (custom-extension opt-ins). */
struct MachineOptions
{
    /** Generate the custom cmul instruction for multiplies (the
     *  paper's §6 custom-instruction extension path). */
    bool customMul = false;
};

/** Compile MiniC source; throws CompileError on bad input. */
CompileResult compile(const std::string &source, OptLevel level);

/** Compile with explicit machine options. */
CompileResult compile(const std::string &source, OptLevel level,
                      const MachineOptions &machine);

/** Compile MiniC source, reporting bad input as a value instead of
 *  an exception: ErrorCode::CompileError with "line N: ..." in the
 *  message. This is the entry point for user-provided sources. */
Result<CompileResult> tryCompile(const std::string &source,
                                 OptLevel level,
                                 const MachineOptions &machine = {});

/** Compile to application assembly only (no linking); used by the
 *  retargeting flow, which reassembles against macro files. */
std::string compileToAsm(const std::string &source, OptLevel level,
                         std::set<std::string> *helpers_out = nullptr);

/** Assemble an application's assembly together with crt0 and the
 *  named helpers (the "link" step, shared with the retargeter).
 *  Throws CompileError ("line 0: program does not link: ...") when
 *  the modules do not assemble, e.g. a source without main(). */
Program linkProgram(const std::string &app_asm,
                    const std::set<std::string> &helpers,
                    const std::string &macro_file = "");

} // namespace rissp::minic

#endif // RISSP_COMPILER_DRIVER_HH
