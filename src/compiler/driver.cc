#include "compiler/driver.hh"

#include "assembler/assembler.hh"
#include "assembler/runtime.hh"
#include "compiler/emit.hh"
#include "compiler/lower.hh"
#include "compiler/parser.hh"
#include "compiler/passes.hh"
#include "util/logging.hh"

namespace rissp::minic
{

std::vector<OptLevel>
allOptLevels()
{
    return {OptLevel::O0, OptLevel::O1, OptLevel::O2, OptLevel::O3,
            OptLevel::Oz};
}

std::string
optLevelName(OptLevel level)
{
    switch (level) {
      case OptLevel::O0: return "-O0";
      case OptLevel::O1: return "-O1";
      case OptLevel::O2: return "-O2";
      case OptLevel::O3: return "-O3";
      case OptLevel::Oz: return "-Oz";
    }
    return "?";
}

namespace
{

LowerOptions
lowerOptionsFor(OptLevel level,
                const MachineOptions &machine = {})
{
    LowerOptions o;
    o.useCustomMul = machine.customMul;
    switch (level) {
      case OptLevel::O0:
        o.spillAll = true;
        o.foldConstants = false;
        o.inlineMulConst = false;
        o.inlineDivPow2 = false;
        break;
      case OptLevel::O1:
        o.mulMaxOps = 2;
        o.inlineDivPow2 = false;
        break;
      case OptLevel::O2:
        o.mulMaxOps = 3;
        break;
      case OptLevel::O3:
        o.mulMaxOps = 5;
        break;
      case OptLevel::Oz:
        // Size-biased: only single-shift multiplies inline; division
        // always goes through the (shared) helper.
        o.mulMaxOps = 1;
        o.inlineDivPow2 = false;
        break;
    }
    return o;
}

PassOptions
passOptionsFor(OptLevel level)
{
    PassOptions p;
    switch (level) {
      case OptLevel::O0:
        p.optimize = false;
        break;
      case OptLevel::O1:
        p.inlineThreshold = 0;
        break;
      case OptLevel::O2:
        p.inlineThreshold = 14;
        break;
      case OptLevel::O3:
        // Aggressive inlining grows code (the -O3 bumps in Fig. 5).
        p.inlineThreshold = 48;
        break;
      case OptLevel::Oz:
        p.inlineThreshold = 4;
        break;
    }
    return p;
}

/** Compile to IR + emit; shared by compile() and compileToAsm(). */
std::string
compileInternal(const std::string &source, OptLevel level,
                std::set<std::string> &helpers,
                const MachineOptions &machine = {})
{
    TranslationUnit unit = parse(source);
    LowerResult lowered =
        lowerUnit(unit, lowerOptionsFor(level, machine));
    optimize(lowered.ir, passOptionsFor(level));

    // Passes may remove unreachable helper calls: recompute the
    // helper set from the surviving IR so no dead runtime module
    // pollutes the instruction subset.
    helpers.clear();
    for (const IrFunction &fn : lowered.ir.funcs)
        for (const IrInstr &in : fn.code)
            if (in.op == IrOp::Call && in.sym.rfind("__", 0) == 0)
                helpers.insert(in.sym);

    return emitUnit(lowered.ir, level == OptLevel::O0);
}

} // namespace

Program
linkProgram(const std::string &app_asm,
            const std::set<std::string> &helpers,
            const std::string &macro_file)
{
    std::vector<std::string> modules;
    if (!macro_file.empty())
        modules.push_back(macro_file);
    modules.push_back(crt0Source());
    for (const std::string &h : helpers)
        modules.push_back(runtimeModule(h));
    modules.push_back(app_asm);
    // The app text comes from user source, so a link failure (no
    // main, say) is a compile error, never a trusted-input panic.
    AsmResult linked = tryAssembleModules(modules);
    if (!linked)
        throw CompileError(0, "program does not link: " + linked.error);
    return std::move(linked.program);
}

CompileResult
compile(const std::string &source, OptLevel level)
{
    return compile(source, level, MachineOptions{});
}

CompileResult
compile(const std::string &source, OptLevel level,
        const MachineOptions &machine)
{
    CompileResult result;
    result.appAsm = compileInternal(source, level, result.helpers,
                                    machine);
    result.program = linkProgram(result.appAsm, result.helpers);
    return result;
}

Result<CompileResult>
tryCompile(const std::string &source, OptLevel level,
           const MachineOptions &machine)
{
    try {
        return compile(source, level, machine);
    } catch (const CompileError &e) {
        return Status::error(ErrorCode::CompileError, e.what());
    }
}

std::string
compileToAsm(const std::string &source, OptLevel level,
             std::set<std::string> *helpers_out)
{
    std::set<std::string> helpers;
    std::string text = compileInternal(source, level, helpers);
    if (helpers_out)
        *helpers_out = helpers;
    return text;
}

} // namespace rissp::minic
