#include "core/rissp.hh"

#include "util/bits.hh"
#include "util/logging.hh"

namespace rissp
{

Rissp::Rissp(const InstrSubset &subset, std::string name,
             const HwLibrary &library)
    : risspName(std::move(name)), ex(subset, library)
{
    regs.fill(0);
}

void
Rissp::reset(const Program &program)
{
    pcReg = program.entry;
    regs.fill(0);
    mem.clear();
    const AddrSpan span = program.denseSpan();
    mem.reserveSpan(span.base, span.size);
    program.load(mem);
    dec.build(program, mem);
    stopped = StopReason::Running;
    retired = 0;
    outWords.clear();
    outText.clear();
}

uint32_t
Rissp::reg(unsigned idx) const
{
    if (idx >= kNumRegsE)
        panic("Rissp::reg(%u): out of range", idx);
    return regs[idx];
}

RetireEvent
Rissp::step(const Mutation *mut)
{
    // The mutation contract (pinned by tests/test_dispatch.cc): any
    // non-null Mutation, Kind::None included, drives the gate-level
    // chains; only the plain no-fault step may take the fast core.
    if (mut)
        return stepGate(mut);
    return stepFast();
}

RetireEvent
Rissp::stepFast()
{
    // The specialized switch core with a one-instruction budget and
    // a one-record sink: the single-step API inherits the fast path
    // without paying the threaded core's per-entry table build.
    RetireEvent ev;
    TraceSink sink{&ev, &ev + 1};
    runCoreSwitch<true>(1, &sink);
    return ev;
}

RetireEvent
Rissp::stepGate(const Mutation *mut)
{
    RetireEvent ev;
    ev.order = retired;
    ev.pc = pcReg;

    // Fetch: IMEM interface reads the word at pc — pre-decoded by
    // index for text-span pcs, decode-on-fetch otherwise.
    const Instr *fetched = dec.fetch(pcReg);
    Instr slow;
    if (!fetched) {
        if (accessWraps(pcReg, 4)) {
            ev.trap = true;
            stopped = StopReason::Trapped;
            return ev;
        }
        slow = decode(mem.loadWord(pcReg));
        fetched = &slow;
    }
    const Instr &in = *fetched;
    ev.raw = in.raw;
    ev.op = in.op;

    // Register file read ports feed ModularEX.
    BlockInputs bin;
    bin.pc = pcReg;
    bin.insn = in;
    if (in.valid()) {
        if (readsRs1(in.op)) {
            bin.rs1Data = regs[in.rs1];
            ev.rs1 = in.rs1;
            ev.rs1Data = bin.rs1Data;
        }
        if (readsRs2(in.op)) {
            bin.rs2Data = regs[in.rs2];
            ev.rs2 = in.rs2;
            ev.rs2Data = bin.rs2Data;
        }
    }

    const ExResult res = ex.execute(bin, mut);
    if (!res.supported) {
        // No stitched block claimed the instruction: hardware trap.
        ev.trap = true;
        stopped = StopReason::Trapped;
        return ev;
    }
    BlockOutputs out = res.out;

    if (out.halt) {
        ev.halt = true;
        stopped = StopReason::Halted;
        ev.nextPc = pcReg;
        ++retired;
        return ev;
    }

    // DMEM interface.
    if (out.memRead) {
        ev.memRead = true;
        ev.memAddr = out.memAddr;
        ev.memBytes = out.memBytes;
        if (accessWraps(out.memAddr, out.memBytes)) {
            ev.trap = true;
            stopped = StopReason::Trapped;
            return ev;
        }
        const uint32_t raw_data =
            out.memBytes == 4 ? mem.loadWord(out.memAddr)
            : out.memBytes == 2 ? mem.loadHalf(out.memAddr)
            : mem.loadByte(out.memAddr);
        // RVFI memData reports the width-extended DMEM data even for
        // rd == x0 (the reference does too); only the register-file
        // write below masks x0.
        out.rdData = ex.extendLoadData(in.op, raw_data, mut);
        ev.memData = out.rdData;
    } else if (out.memWrite) {
        ev.memWrite = true;
        ev.memAddr = out.memAddr;
        ev.memBytes = out.memBytes;
        ev.memData = out.memWdata;
        if (accessWraps(out.memAddr, out.memBytes)) {
            ev.trap = true;
            stopped = StopReason::Trapped;
            return ev;
        }
        if (out.memAddr == mmio::kPutWord && out.memBytes == 4) {
            outWords.push_back(out.memWdata);
        } else if (out.memAddr == mmio::kPutChar) {
            outText.push_back(static_cast<char>(out.memWdata & 0xFF));
        } else {
            switch (out.memBytes) {
              case 4:
                mem.storeWord(out.memAddr, out.memWdata);
                break;
              case 2:
                mem.storeHalf(out.memAddr,
                              static_cast<uint16_t>(out.memWdata));
                break;
              default:
                mem.storeByte(out.memAddr,
                              static_cast<uint8_t>(out.memWdata));
                break;
            }
            if (dec.overlaps(out.memAddr, out.memBytes))
                dec.invalidate(mem, out.memAddr, out.memBytes);
        }
    }

    // Register file write port.
    if (out.rdWrite && out.rdAddr != 0) {
        regs[out.rdAddr] = out.rdData;
        ev.rd = out.rdAddr;
        ev.rdData = out.rdData;
    }

    pcReg = out.nextPc;
    ev.nextPc = pcReg;
    ++retired;
    return ev;
}

// Stamp out the interpreter cores (see the header in exec_core.inc),
// specialized to this RISSP's subset through the hooks above.
#define RISSP_CORE_CLASS Rissp
#define RISSP_CORE_NAME runCoreSwitch
#define RISSP_CORE_THREADED 0
#include "sim/exec_core.inc"
#undef RISSP_CORE_NAME
#undef RISSP_CORE_THREADED

#if RISSP_HAS_COMPUTED_GOTO
#define RISSP_CORE_NAME runCoreThreaded
#define RISSP_CORE_THREADED 1
#include "sim/exec_core.inc"
#undef RISSP_CORE_NAME
#undef RISSP_CORE_THREADED
#endif
#undef RISSP_CORE_CLASS

RunResult
Rissp::run(uint64_t maxSteps)
{
    RisspRunOptions options;
    options.maxSteps = maxSteps;
    return run(options);
}

RunResult
Rissp::run(const RisspRunOptions &options)
{
    if (options.fault || options.gateLevel) {
        // Gate-level engine: every instruction through the stitched
        // structural chains, faults and all, feeding the same sink
        // (and bounded by it) as the specialized cores.
        TraceSink *const sink = options.trace;
        const uint64_t budget = sink && sink->room() < options.maxSteps
            ? sink->room()
            : options.maxSteps;
        RunResult result;
        for (uint64_t i = 0; i < budget; ++i) {
            const RetireEvent ev = stepGate(options.fault);
            if (sink)
                *sink->cursor++ = ev;
            if (ev.halt) {
                result.reason = StopReason::Halted;
                result.exitCode = regs[reg::a0];
                result.instret = retired;
                result.stopPc = ev.pc;
                return result;
            }
            if (ev.trap) {
                result.reason = StopReason::Trapped;
                result.instret = retired;
                result.stopPc = ev.pc;
                return result;
            }
        }
        result.reason = StopReason::StepLimit;
        result.instret = retired;
        result.stopPc = pcReg;
        return result;
    }

    const DispatchMode mode = resolveDispatchMode(options.dispatch);
#if RISSP_HAS_COMPUTED_GOTO
    if (mode == DispatchMode::Threaded)
        return options.trace
            ? runCoreThreaded<true>(options.maxSteps, options.trace)
            : runCoreThreaded<false>(options.maxSteps, nullptr);
#else
    (void)mode;
#endif
    return options.trace
        ? runCoreSwitch<true>(options.maxSteps, options.trace)
        : runCoreSwitch<false>(options.maxSteps, nullptr);
}

} // namespace rissp
