/**
 * @file
 * ModularEX — the modular execution unit (Step 2 of Figure 2).
 *
 * ModularEX holds the instruction hardware blocks pulled from the
 * pre-verified library for a given subset, plus the switch that routes
 * the fetched instruction to its block. The switch is the partial
 * decoder of §3.3: it only selects which block is enabled; full
 * decoding happens inside each block.
 */

#ifndef RISSP_CORE_MODULAREX_HH
#define RISSP_CORE_MODULAREX_HH

#include <array>
#include <cstdint>

#include "blocks/library.hh"
#include "core/subset.hh"

namespace rissp
{

/** Result of one ModularEX evaluation. */
struct ExResult
{
    bool supported = false;  ///< an enabled block claimed the insn
    BlockOutputs out;        ///< valid when supported
};

/** The stitched execution unit of a RISSP. */
class ModularEx
{
  public:
    /**
     * Pull the blocks for @p subset from @p library. Halt support
     * (ecall/ebreak) is always stitched in: a processor must stop.
     */
    ModularEx(const InstrSubset &subset, const HwLibrary &library);

    /** Evaluate one instruction; unsupported ops return
     *  supported == false (a hardware trap in the real RISSP). */
    ExResult execute(const BlockInputs &in,
                     const Mutation *mut = nullptr) const;

    /** Load-path extension for the block of @p op. */
    uint32_t extendLoadData(Op op, uint32_t raw,
                            const Mutation *mut = nullptr) const;

    const InstrSubset &subset() const { return exSubset; }

    /** Per-op stitched-block map, indexed by (size_t)Op — the
     *  partial decoder's enable lines. Rissp::reset builds its
     *  decoded handler tokens from this (sim/decoded_program.hh), so
     *  an unstitched op traps in the specialized dispatch core
     *  exactly like it does through execute(). */
    const std::array<bool, kNumOps> &enabledOps() const
    {
        return enabled;
    }

    /** Charge one dynamic execution of @p op's block. execute()
     *  accounts for itself; the specialized dispatch cores, which
     *  bypass execute() on the no-mutation path, account here so
     *  execCounts() stays engine-independent. */
    void noteExec(Op op) const
    {
        ++counts[static_cast<size_t>(op)];
    }

    /** Number of stitched blocks (incl. the halt block pair). */
    size_t blockCount() const { return numBlocks; }

    /** Per-op dynamic execution counts since construction. */
    const std::array<uint64_t, kNumOps> &execCounts() const
    {
        return counts;
    }

  private:
    InstrSubset exSubset;
    const HwLibrary &lib;
    std::array<bool, kNumOps> enabled{};
    size_t numBlocks = 0;
    mutable std::array<uint64_t, kNumOps> counts{};
};

} // namespace rissp

#endif // RISSP_CORE_MODULAREX_HH
