/**
 * @file
 * RVFI-style retirement trace record.
 *
 * The paper verifies the RISSP with riscv-formal through the RISC-V
 * Formal Interface (RVFI): per retired instruction the core reports pc,
 * next pc, register reads/writes and memory accesses. Both simulators
 * here emit the same record so monitors and co-simulation can compare
 * them field by field.
 */

#ifndef RISSP_SIM_TRACE_HH
#define RISSP_SIM_TRACE_HH

#include <cstdint>

#include "isa/instr.hh"

namespace rissp
{

/** One retired instruction, RVFI flavoured. */
struct RetireEvent
{
    uint64_t order = 0;      ///< retirement index
    uint32_t pc = 0;         ///< pc of this instruction
    uint32_t nextPc = 0;     ///< pc after this instruction
    uint32_t raw = 0;        ///< instruction word
    Op op = Op::Invalid;     ///< decoded operation

    uint8_t rs1 = 0;         ///< source 1 index (0 if unused)
    uint8_t rs2 = 0;         ///< source 2 index (0 if unused)
    uint32_t rs1Data = 0;    ///< value read from rs1
    uint32_t rs2Data = 0;    ///< value read from rs2

    uint8_t rd = 0;          ///< destination index (0 if none)
    uint32_t rdData = 0;     ///< value written to rd (0 if rd == x0)

    bool memRead = false;    ///< load performed
    bool memWrite = false;   ///< store performed
    uint32_t memAddr = 0;    ///< effective address
    uint32_t memData = 0;    ///< loaded/stored value (width-extended)
    uint8_t memBytes = 0;    ///< access width in bytes

    bool trap = false;       ///< instruction trapped (invalid/unsupported)
    bool halt = false;       ///< ecall/ebreak halt
};

/**
 * Caller-owned storage a traced run writes its retirement records
 * into: each RetireEvent is written once, in place at @c cursor,
 * which then advances. A run given a sink retires at most room()
 * instructions — a full sink stops it with StopReason::StepLimit,
 * resumable like any step limit — so the storage is never overrun
 * and one buffer can be reused from run to run.
 */
struct TraceSink
{
    RetireEvent *cursor = nullptr; ///< where the next record goes
    RetireEvent *end = nullptr;    ///< one past the last free slot

    uint64_t
    room() const
    {
        return static_cast<uint64_t>(end - cursor);
    }
};

} // namespace rissp

#endif // RISSP_SIM_TRACE_HH
