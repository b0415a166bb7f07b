#include "verify/integration_verify.hh"

#include <atomic>
#include <new>

#include "assembler/assembler.hh"
#include "util/logging.hh"
#include "util/rng.hh"

namespace rissp
{

void
RvfiStreamChecker::flag(size_t at, uint32_t pc, const char *what)
{
    rpt.violations.push_back(
        strFormat("event %zu (pc=0x%08x): %s", at, pc, what));
}

void
RvfiStreamChecker::push(const RetireEvent &ev)
{
    // Chaining checks between the previous event and this one are
    // flagged on the previous event's index, matching the batch
    // checker's report text exactly.
    if (hasPrev) {
        if (prevStopped)
            flag(index - 1, prevPc, "retirement after halt/trap");
        else if (ev.pc != prevNextPc)
            flag(index - 1, prevPc, "pc chain broken");
    }

    ++rpt.eventsChecked;
    if (ev.order != index)
        flag(index, ev.pc, "retirement order not monotone");
    if (ev.rd == 0 && ev.rdData != 0)
        flag(index, ev.pc, "x0 written with a non-zero value");
    if (ev.memRead && ev.memWrite)
        flag(index, ev.pc, "simultaneous load and store");
    if ((ev.memRead || ev.memWrite) &&
        ev.memBytes != 1 && ev.memBytes != 2 && ev.memBytes != 4)
        flag(index, ev.pc, "illegal memory access width");
    if (!ev.trap && !ev.halt && (ev.nextPc & 3))
        flag(index, ev.pc, "misaligned next pc");

    prevPc = ev.pc;
    prevNextPc = ev.nextPc;
    prevStopped = ev.halt || ev.trap;
    hasPrev = true;
    ++index;
}

MonitorReport
checkRvfiStream(const std::vector<RetireEvent> &events)
{
    RvfiStreamChecker checker;
    for (const RetireEvent &ev : events)
        checker.push(ev);
    return checker.report();
}

namespace
{

std::string
describeEvent(const RetireEvent &ev)
{
    return strFormat(
        "pc=0x%08x %s rd=x%u rdData=0x%08x mem%s addr=0x%08x "
        "data=0x%08x", ev.pc,
        disassemble(ev.raw).c_str(), ev.rd, ev.rdData,
        ev.memRead ? "R" : ev.memWrite ? "W" : "-", ev.memAddr,
        ev.memData);
}

bool
eventsMatch(const RetireEvent &a, const RetireEvent &b)
{
    return a.pc == b.pc && a.raw == b.raw && a.nextPc == b.nextPc &&
        a.rd == b.rd && a.rdData == b.rdData &&
        a.memRead == b.memRead && a.memWrite == b.memWrite &&
        (!a.memRead && !a.memWrite
         ? true
         : a.memAddr == b.memAddr && a.memData == b.memData &&
             a.memBytes == b.memBytes) &&
        a.halt == b.halt && a.trap == b.trap;
}

/** Fixed-capacity ring of the most recent retirements. */
class EventRing
{
  public:
    explicit EventRing(unsigned capacity) : ring(capacity) {}

    /** Push @p count events in order; only the last capacity of
     *  them can survive, so only those are copied. */
    void append(const RetireEvent *events, size_t count)
    {
        if (ring.empty())
            return;
        const size_t skip = count > ring.size() ? count - ring.size() : 0;
        for (size_t i = skip; i < count; ++i)
            ring[(total + i) % ring.size()] = events[i];
        total += count;
    }

    /** Contents, oldest first. */
    std::vector<RetireEvent> unrolled() const
    {
        const size_t n = total < ring.size() ? total : ring.size();
        std::vector<RetireEvent> out;
        out.reserve(n);
        for (size_t i = 0; i < n; ++i)
            out.push_back(ring[(total - n + i) % ring.size()]);
        return out;
    }

  private:
    std::vector<RetireEvent> ring;
    size_t total = 0; ///< events appended so far
};

} // namespace

CosimReport
cosimulate(const Program &program, const InstrSubset &subset,
           const CosimOptions &options)
{
    CosimReport rpt;
    RefSim ref;
    ref.reset(program);
    Rissp dut(subset, "cosim-dut");
    dut.reset(program);

    // Block-stepped lock-step: one Rissp::run() retires up to a block
    // of DUT events into dutBlock, in place; the reference then steps
    // alongside, one RefSim::step() per event, and every pair gets the
    // checks a one-instruction-at-a-time loop would apply, in the same
    // order. The DUT running ahead within a block changes nothing it
    // reports: its events do not depend on the reference, and it
    // stops by itself at a halt or trap, where a matching reference
    // stops too. RVFI invariants stream through the monitor, and the
    // context rings take each block's tail (up to the stopping event
    // in the last block).
    //
    // The two blocks live in one buffer per thread, reused call after
    // call: allocating them per call (112 KiB) made glibc trim the
    // heap top on every return, so each call page-faulted the two
    // machines' memories back in: a third of a 19 K-step cosim.
    static thread_local std::vector<RetireEvent> blocks(2 * kCosimBlock);
    RetireEvent *const dutBlock = blocks.data();
    RetireEvent *const refBlock = dutBlock + kCosimBlock;
    RvfiStreamChecker monitor;
    EventRing refRing(options.contextEvents);
    EventRing dutRing(options.contextEvents);
    auto keep = [&](size_t count) {
        refRing.append(refBlock, count);
        dutRing.append(dutBlock, count);
    };
    auto divergence_context = [&]() {
        rpt.recentRef = refRing.unrolled();
        rpt.recentDut = dutRing.unrolled();
    };
    RisspRunOptions run;
    run.fault = options.fault;
    bool halted = false;
    for (uint64_t i = 0; !halted && i < options.maxSteps;) {
        const uint64_t left = options.maxSteps - i;
        TraceSink sink{dutBlock,
                       dutBlock + (left < kCosimBlock ? left : kCosimBlock)};
        run.maxSteps = sink.room();
        run.trace = &sink;
        dut.run(run);
        const size_t retired = static_cast<size_t>(sink.cursor - dutBlock);
        if (retired == 0)
            panic("cosimulate: the DUT retired nothing at step %llu",
                  static_cast<unsigned long long>(i));
        size_t k = 0;
        for (; k < retired; ++k, ++i) {
            // step()'s record is built in its slot, not copied there.
            const RetireEvent &re =
                *new (&refBlock[k]) RetireEvent(ref.step());
            const RetireEvent &de = dutBlock[k];
            monitor.push(de);
            if (!eventsMatch(re, de)) {
                rpt.firstDivergence = strFormat(
                    "step %llu:\n  ref: %s\n  dut: %s",
                    static_cast<unsigned long long>(i),
                    describeEvent(re).c_str(),
                    describeEvent(de).c_str());
                rpt.monitor = monitor.report();
                keep(k + 1);
                divergence_context();
                return rpt;
            }
            if (re.halt || re.trap) {
                rpt.instret = i + 1;
                halted = true;
                ++k;
                break;
            }
            if (i + 1 == options.maxSteps) {
                rpt.firstDivergence = "step limit reached";
                rpt.monitor = monitor.report();
                keep(k + 1);
                divergence_context();
                return rpt;
            }
        }
        keep(k);
    }

    // Final architectural state must agree.
    for (unsigned r = 0; r < kNumRegsE; ++r) {
        if (ref.reg(r) != dut.reg(r)) {
            rpt.firstDivergence = strFormat(
                "final x%u: ref=0x%08x dut=0x%08x", r, ref.reg(r),
                dut.reg(r));
            divergence_context();
            return rpt;
        }
    }
    if (program.hasSymbol("signature")) {
        const uint32_t base = program.symbol("signature");
        for (uint32_t off = 0; off < 256; off += 4) {
            const uint32_t rv = ref.memory().loadWord(base + off);
            const uint32_t dv = dut.memory().loadWord(base + off);
            if (rv != dv) {
                rpt.firstDivergence = strFormat(
                    "signature+%u: ref=0x%08x dut=0x%08x", off, rv,
                    dv);
                divergence_context();
                return rpt;
            }
        }
    }
    rpt.monitor = monitor.report();
    rpt.passed = rpt.monitor.passed();
    if (!rpt.passed) {
        rpt.firstDivergence = rpt.monitor.violations.front();
        divergence_context();
    }
    return rpt;
}

CosimReport
cosimulate(const Program &program, const InstrSubset &subset,
           uint64_t max_steps, const Mutation *fault)
{
    CosimOptions options;
    options.maxSteps = max_steps;
    options.fault = fault;
    return cosimulate(program, subset, options);
}

Program
archTestProgram(Op op)
{
    // Build a directed test in assembly: load corner operands,
    // execute the op, store observable results to the signature.
    std::string body = "    .data\nsignature:\n    .space 256\n"
        "scratch:\n    .space 64\n    .text\n_start:\n"
        "    la a5, signature\n    la a4, scratch\n";
    int sig = 0;
    auto store = [&](const std::string &reg_name) {
        body += strFormat("    sw %s, %d(a5)\n", reg_name.c_str(),
                          sig);
        sig += 4;
    };
    const char *corners[] = {"0", "1", "-1", "0x7FFFFFFF",
                             "0x80000000", "0xAAAAAAAA", "5",
                             "-2048"};
    const std::string name(opName(op));
    switch (opInfo(op).type) {
      case InstrType::R:
        for (const char *a : corners) {
            for (const char *b : {"0", "1", "-1", "0x55555555",
                                  "31"}) {
                body += strFormat("    li a0, %s\n    li a1, %s\n", a,
                                  b);
                body += strFormat("    %s a2, a0, a1\n",
                                  name.c_str());
                store("a2");
            }
        }
        break;
      case InstrType::I:
        if (isLoad(op)) {
            body += "    li a0, 0x89ABCDEF\n    sw a0, 0(a4)\n"
                "    li a0, 0x01234567\n    sw a0, 4(a4)\n";
            for (int off = 0; off < 8;
                 off += (op == Op::Lw ? 4
                         : op == Op::Lh || op == Op::Lhu ? 2 : 1)) {
                body += strFormat("    %s a2, %d(a4)\n",
                                  name.c_str(), off);
                store("a2");
            }
        } else if (op == Op::Jalr) {
            body += "    la a0, jalr_target\n"
                "    jalr a2, 1(a0)\n" // bit 0 must clear
                "jalr_back:\n    jal zero, jalr_done\n"
                "jalr_target:\n    addi a3, zero, 77\n"
                "    jalr zero, 0(a2)\n"
                "jalr_done:\n";
            store("a3");
        } else {
            for (const char *a : corners) {
                for (const char *imm : {"0", "1", "-1", "2047",
                                        "-2048"}) {
                    std::string imm_s = imm;
                    if (op == Op::Slli || op == Op::Srli ||
                        op == Op::Srai)
                        imm_s = std::string(imm) == "2047" ? "31"
                            : std::string(imm) == "-2048" ? "17"
                            : std::string(imm) == "-1" ? "1" : imm;
                    body += strFormat("    li a0, %s\n", a);
                    body += strFormat("    %s a2, a0, %s\n",
                                      name.c_str(), imm_s.c_str());
                    store("a2");
                }
            }
        }
        break;
      case InstrType::S: {
        const char *wide = op == Op::Sw ? "4"
            : op == Op::Sh ? "2" : "1";
        body += "    li a0, 0xDEADBEEF\n";
        for (int slot = 0; slot < 4; ++slot) {
            body += strFormat("    %s a0, %d(a4)\n", name.c_str(),
                              slot * std::stoi(wide));
        }
        body += "    lw a2, 0(a4)\n";
        store("a2");
        body += "    lw a2, 4(a4)\n";
        store("a2");
        break;
      }
      case InstrType::B:
        for (const char *a : {"0", "1", "-1", "0x80000000"}) {
            for (const char *b : {"0", "1", "-1"}) {
                // atomic so concurrent callers (parallel test
                // harnesses) always get unique branch labels
                static std::atomic<int> lblCounter{0};
                const int lbl = ++lblCounter;
                body += strFormat(
                    "    li a0, %s\n    li a1, %s\n"
                    "    li a2, 111\n"
                    "    %s a0, a1, bt_%s_%d\n"
                    "    li a2, 222\n"
                    "bt_%s_%d:\n",
                    a, b, name.c_str(), name.c_str(), lbl,
                    name.c_str(), lbl);
                store("a2");
            }
        }
        break;
      case InstrType::U:
        for (const char *imm : {"0", "1", "0xFFFFF", "0x80000"}) {
            body += strFormat("    %s a2, %s\n", name.c_str(), imm);
            store("a2");
        }
        break;
      case InstrType::J:
        body += "    jal a2, jal_t1\n"
            "jal_back:\n    jal zero, jal_done\n"
            "jal_t1:\n    addi a3, zero, 99\n"
            "    jal zero, jal_back\n"
            "jal_done:\n";
        store("a2");
        store("a3");
        break;
      case InstrType::Sys:
        break;
    }
    body += "    ecall\n";
    return assemble(body);
}

Program
randomProgram(uint64_t seed, unsigned num_instrs,
              const InstrSubset &subset)
{
    Rng rng(seed);
    std::vector<Op> pool;
    for (Op op : subset.ops()) {
        if (op == Op::Jalr || op == Op::Jal || op == Op::Auipc)
            continue; // wild jumps are covered by directed tests
        pool.push_back(op);
    }
    if (pool.empty())
        panic("randomProgram: empty usable subset (callers pass a "
              "non-trivial subset)");

    std::string body = "    .data\nsignature:\n    .space 256\n"
        "    .text\n_start:\n    la a5, signature\n";
    // Random initial register state (x1..x14; a5/x15 is the base).
    for (unsigned r = 1; r <= 14; ++r)
        body += strFormat("    li x%u, %d\n", r,
                          static_cast<int32_t>(rng.next32()));

    int label_n = 0;
    auto reg = [&](unsigned lo, unsigned hi) {
        return strFormat("x%u", lo + rng.below(hi - lo + 1));
    };
    for (unsigned i = 0; i < num_instrs; ++i) {
        const Op op = pool[rng.below(
            static_cast<uint32_t>(pool.size()))];
        const std::string name(opName(op));
        switch (opInfo(op).type) {
          case InstrType::R:
            body += strFormat("    %s %s, %s, %s\n", name.c_str(),
                              reg(1, 14).c_str(), reg(0, 14).c_str(),
                              reg(0, 14).c_str());
            break;
          case InstrType::I:
            if (isLoad(op)) {
                const unsigned width =
                    (op == Op::Lw) ? 4
                    : (op == Op::Lh || op == Op::Lhu) ? 2 : 1;
                const unsigned off =
                    rng.below(252 / width) * width;
                body += strFormat("    %s %s, %u(a5)\n",
                                  name.c_str(), reg(1, 14).c_str(),
                                  off);
            } else if (op == Op::Slli || op == Op::Srli ||
                       op == Op::Srai) {
                body += strFormat("    %s %s, %s, %u\n",
                                  name.c_str(), reg(1, 14).c_str(),
                                  reg(0, 14).c_str(), rng.below(32));
            } else {
                body += strFormat("    %s %s, %s, %d\n",
                                  name.c_str(), reg(1, 14).c_str(),
                                  reg(0, 14).c_str(),
                                  rng.range(-2048, 2047));
            }
            break;
          case InstrType::S: {
            const unsigned width = (op == Op::Sw) ? 4
                : (op == Op::Sh) ? 2 : 1;
            const unsigned off = rng.below(252 / width) * width;
            body += strFormat("    %s %s, %u(a5)\n", name.c_str(),
                              reg(0, 14).c_str(), off);
            break;
          }
          case InstrType::B:
            // Forward branch over the next couple of instructions.
            body += strFormat("    %s %s, %s, .Lfwd%d\n",
                              name.c_str(), reg(0, 14).c_str(),
                              reg(0, 14).c_str(), label_n);
            body += strFormat("    addi %s, %s, 1\n",
                              reg(1, 14).c_str(),
                              reg(0, 14).c_str());
            body += strFormat(".Lfwd%d:\n", label_n);
            ++label_n;
            break;
          case InstrType::U:
            body += strFormat("    %s %s, %d\n", name.c_str(),
                              reg(1, 14).c_str(),
                              rng.range(-(1 << 19), (1 << 19) - 1));
            break;
          default:
            break;
        }
    }
    // Dump the register file into the signature.
    for (unsigned r = 1; r <= 14; ++r)
        body += strFormat("    sw x%u, %u(a5)\n", r, (r - 1) * 4);
    body += "    ecall\n";
    return assemble(body);
}

} // namespace rissp
