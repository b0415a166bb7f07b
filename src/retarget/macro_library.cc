#include "retarget/macro_library.hh"

#include "util/logging.hh"
#include "util/strings.hh"

namespace rissp
{

namespace
{

// Shared fragments. Every body restores sp/ra (and t0 where used).

const char *kSubBody = R"(
    addi sp, sp, -4
    sw ra, 0(sp)
    xori ra, \rs2, -1
    addi ra, ra, 1
    add \rd, \rs1, ra
    lw ra, 0(sp)
    addi sp, sp, 4
)";

// a | b == ~(~a & ~b)
const char *kOrBody = R"(
    addi sp, sp, -4
    sw ra, 0(sp)
    xori ra, \rs2, -1
    xori \rd, \rs1, -1
    and \rd, \rd, ra
    xori \rd, \rd, -1
    lw ra, 0(sp)
    addi sp, sp, 4
)";

// a ^ b == (a & ~b) + (~a & b)   (disjoint, so + is |)
const char *kXorBody = R"(
    addi sp, sp, -16
    sw ra, 0(sp)
    sw \rs1, 4(sp)
    sw \rs2, 8(sp)
    xori ra, \rs2, -1
    and ra, \rs1, ra
    sw ra, 12(sp)
    lw ra, 4(sp)
    xori ra, ra, -1
    lw \rd, 8(sp)
    and \rd, ra, \rd
    lw ra, 12(sp)
    add \rd, \rd, ra
    lw ra, 0(sp)
    addi sp, sp, 16
)";

const char *kAndiBody = R"(
    addi sp, sp, -4
    sw ra, 0(sp)
    addi ra, zero, \imm
    and \rd, \rs1, ra
    lw ra, 0(sp)
    addi sp, sp, 4
)";

const char *kOriBody = R"(
    addi sp, sp, -4
    sw ra, 0(sp)
    addi ra, zero, \imm
    xori ra, ra, -1
    xori \rd, \rs1, -1
    and \rd, \rd, ra
    xori \rd, \rd, -1
    lw ra, 0(sp)
    addi sp, sp, 4
)";

const char *kSlliBody = R"(
    addi sp, sp, -4
    sw ra, 0(sp)
    addi ra, zero, \sh
    sll \rd, \rs1, ra
    lw ra, 0(sp)
    addi sp, sp, 4
)";

const char *kSraiBody = R"(
    addi sp, sp, -4
    sw ra, 0(sp)
    addi ra, zero, \sh
    sra \rd, \rs1, ra
    lw ra, 0(sp)
    addi sp, sp, 4
)";

// Logical right shift: arithmetic shift then mask off the
// replicated sign bits. Valid for 1 <= sh <= 31: the mask degenerates
// at sh = 0, so the rewriter lowers every shift by zero to addi and
// never invokes this macro with it.
const char *kSrliBody = R"(
    addi sp, sp, -12
    sw ra, 0(sp)
    sw \rs1, 4(sp)
    addi ra, zero, 32-\sh
    addi \rd, zero, -1
    sll \rd, \rd, ra
    xori \rd, \rd, -1
    sw \rd, 8(sp)
    lw \rd, 4(sp)
    addi ra, zero, \sh
    sra \rd, \rd, ra
    lw ra, 8(sp)
    and \rd, \rd, ra
    lw ra, 0(sp)
    addi sp, sp, 12
)";

// Variable logical right shift. The zero shift amount is special:
// the mask construction degenerates there, so it branches to a copy.
const char *kSrlBody = R"(
    addi sp, sp, -16
    sw ra, 0(sp)
    sw \rs1, 4(sp)
    sw \rs2, 8(sp)
    addi \rd, zero, 31
    lw ra, 8(sp)
    and ra, ra, \rd
    sw ra, 8(sp)
    addi \rd, zero, 1
    bltu ra, \rd, .Lrt_z\@
    xori ra, ra, -1
    addi ra, ra, 33
    addi \rd, zero, -1
    sll \rd, \rd, ra
    xori \rd, \rd, -1
    sw \rd, 12(sp)
    lw \rd, 4(sp)
    lw ra, 8(sp)
    sra \rd, \rd, ra
    lw ra, 12(sp)
    and \rd, \rd, ra
    jal zero, .Lrt_e\@
.Lrt_z\@:
    lw \rd, 4(sp)
.Lrt_e\@:
    lw ra, 0(sp)
    addi sp, sp, 16
)";

const char *kSltBody = R"(
    blt \rs1, \rs2, .Lrt_t\@
    addi \rd, zero, 0
    jal zero, .Lrt_d\@
.Lrt_t\@:
    addi \rd, zero, 1
.Lrt_d\@:
)";

const char *kSltuBody = R"(
    bltu \rs1, \rs2, .Lrt_t\@
    addi \rd, zero, 0
    jal zero, .Lrt_d\@
.Lrt_t\@:
    addi \rd, zero, 1
.Lrt_d\@:
)";

const char *kSltiBody = R"(
    addi sp, sp, -4
    sw ra, 0(sp)
    addi ra, zero, \imm
    blt \rs1, ra, .Lrt_t\@
    addi \rd, zero, 0
    jal zero, .Lrt_d\@
.Lrt_t\@:
    addi \rd, zero, 1
.Lrt_d\@:
    lw ra, 0(sp)
    addi sp, sp, 4
)";

const char *kSltiuBody = R"(
    addi sp, sp, -4
    sw ra, 0(sp)
    addi ra, zero, \imm
    bltu \rs1, ra, .Lrt_t\@
    addi \rd, zero, 0
    jal zero, .Lrt_d\@
.Lrt_t\@:
    addi \rd, zero, 1
.Lrt_d\@:
    lw ra, 0(sp)
    addi sp, sp, 4
)";

const char *kBeqBody = R"(
    blt \rs1, \rs2, .Lrt_ne\@
    blt \rs2, \rs1, .Lrt_ne\@
    jal zero, \target
.Lrt_ne\@:
)";

const char *kBneBody = R"(
    blt \rs1, \rs2, \target
    blt \rs2, \rs1, \target
)";

const char *kBgeBody = R"(
    blt \rs1, \rs2, .Lrt_lt\@
    jal zero, \target
.Lrt_lt\@:
)";

const char *kBgeuBody = R"(
    bltu \rs1, \rs2, .Lrt_lt\@
    jal zero, \target
.Lrt_lt\@:
)";

const char *kLuiBody = R"(
    addi sp, sp, -4
    sw ra, 0(sp)
    addi \rd, zero, \hi
    addi ra, zero, 10
    sll \rd, \rd, ra
    addi \rd, \rd, \lo
    addi ra, zero, 12
    sll \rd, \rd, ra
    lw ra, 0(sp)
    addi sp, sp, 4
)";

const char *kLbuBody = R"(
    addi sp, sp, -12
    sw ra, 0(sp)
    addi ra, \base, \off
    addi \rd, zero, -4
    and \rd, ra, \rd
    lw \rd, 0(\rd)
    sw \rd, 4(sp)
    addi \rd, zero, 3
    and ra, ra, \rd
    sll ra, ra, \rd
    lw \rd, 4(sp)
    sra \rd, \rd, ra
    addi ra, zero, 255
    and \rd, \rd, ra
    lw ra, 0(sp)
    addi sp, sp, 12
)";

const char *kLbBody = R"(
    addi sp, sp, -12
    sw ra, 0(sp)
    addi ra, \base, \off
    addi \rd, zero, -4
    and \rd, ra, \rd
    lw \rd, 0(\rd)
    sw \rd, 4(sp)
    addi \rd, zero, 3
    and ra, ra, \rd
    sll ra, ra, \rd
    xori ra, ra, -1
    addi ra, ra, 1
    addi ra, ra, 24
    lw \rd, 4(sp)
    sll \rd, \rd, ra
    addi ra, zero, 24
    sra \rd, \rd, ra
    lw ra, 0(sp)
    addi sp, sp, 12
)";

const char *kLhuBody = R"(
    addi sp, sp, -12
    sw ra, 0(sp)
    addi ra, \base, \off
    addi \rd, zero, -4
    and \rd, ra, \rd
    lw \rd, 0(\rd)
    sw \rd, 4(sp)
    addi \rd, zero, 2
    and ra, ra, \rd
    addi \rd, zero, 3
    sll ra, ra, \rd
    lw \rd, 4(sp)
    sra \rd, \rd, ra
    sw \rd, 4(sp)
    addi ra, zero, -1
    addi \rd, zero, 16
    sll ra, ra, \rd
    xori ra, ra, -1
    lw \rd, 4(sp)
    and \rd, \rd, ra
    lw ra, 0(sp)
    addi sp, sp, 12
)";

const char *kLhBody = R"(
    addi sp, sp, -12
    sw ra, 0(sp)
    addi ra, \base, \off
    addi \rd, zero, -4
    and \rd, ra, \rd
    lw \rd, 0(\rd)
    sw \rd, 4(sp)
    addi \rd, zero, 2
    and ra, ra, \rd
    addi \rd, zero, 3
    sll ra, ra, \rd
    xori ra, ra, -1
    addi ra, ra, 1
    addi ra, ra, 16
    lw \rd, 4(sp)
    sll \rd, \rd, ra
    addi ra, zero, 16
    sra \rd, \rd, ra
    lw ra, 0(sp)
    addi sp, sp, 12
)";

// Stores are read-modify-write on the enclosing word. t0 is a second
// scratch: operand values are captured on the stack before t0 is
// touched, and t0 is restored at the end (stores define no rd).
const char *kSbBody = R"(
    addi sp, sp, -24
    sw ra, 0(sp)
    addi ra, \base, \off
    sw \src, 8(sp)
    sw t0, 12(sp)
    addi t0, zero, -4
    and t0, ra, t0
    sw t0, 16(sp)
    addi t0, zero, 3
    and ra, ra, t0
    sll ra, ra, t0
    addi t0, zero, 255
    sll t0, t0, ra
    xori t0, t0, -1
    sw ra, 20(sp)
    lw ra, 16(sp)
    lw ra, 0(ra)
    and ra, ra, t0
    lw t0, 8(sp)
    sw ra, 8(sp)
    addi ra, zero, 255
    and t0, t0, ra
    lw ra, 20(sp)
    sll t0, t0, ra
    lw ra, 8(sp)
    add ra, ra, t0
    lw t0, 16(sp)
    sw ra, 0(t0)
    lw t0, 12(sp)
    lw ra, 0(sp)
    addi sp, sp, 24
)";

const char *kShBody = R"(
    addi sp, sp, -24
    sw ra, 0(sp)
    addi ra, \base, \off
    sw \src, 8(sp)
    sw t0, 12(sp)
    addi t0, zero, -4
    and t0, ra, t0
    sw t0, 16(sp)
    addi t0, zero, 2
    and ra, ra, t0
    addi t0, zero, 3
    sll ra, ra, t0
    sw ra, 20(sp)
    addi t0, zero, -1
    addi ra, zero, 16
    sll t0, t0, ra
    xori t0, t0, -1
    lw ra, 20(sp)
    sll t0, t0, ra
    xori t0, t0, -1
    lw ra, 16(sp)
    lw ra, 0(ra)
    and ra, ra, t0
    lw t0, 8(sp)
    sw ra, 8(sp)
    sw t0, 4(sp)
    addi t0, zero, -1
    addi ra, zero, 16
    sll t0, t0, ra
    xori t0, t0, -1
    lw ra, 4(sp)
    and t0, ra, t0
    lw ra, 20(sp)
    sll t0, t0, ra
    lw ra, 8(sp)
    add ra, ra, t0
    lw t0, 16(sp)
    sw ra, 0(t0)
    lw t0, 12(sp)
    lw ra, 0(sp)
    addi sp, sp, 24
)";

std::string
paramNames(Op op)
{
    switch (opInfo(op).type) {
      case InstrType::R:
        return "rd, rs1, rs2";
      case InstrType::I:
        if (isLoad(op))
            return "rd, base, off";
        if (op == Op::Slli || op == Op::Srli || op == Op::Srai)
            return "rd, rs1, sh";
        return "rd, rs1, imm";
      case InstrType::S:
        return "src, base, off";
      case InstrType::B:
        return "rs1, rs2, target";
      case InstrType::U:
        return "rd, hi, lo";
      default:
        panic("macroParams: %s is not retargetable",
              std::string(opName(op)).c_str());
    }
}

} // namespace

bool
canRetarget(Op op)
{
    switch (op) {
      case Op::Sub:
      case Op::Or:
      case Op::Xor:
      case Op::Andi:
      case Op::Ori:
      case Op::Xori: // native but uniform handling is allowed
      case Op::Slli:
      case Op::Srli:
      case Op::Srai:
      case Op::Srl:
      case Op::Slt:
      case Op::Sltu:
      case Op::Slti:
      case Op::Sltiu:
      case Op::Beq:
      case Op::Bne:
      case Op::Bge:
      case Op::Bgeu:
      case Op::Lui:
      case Op::Lb:
      case Op::Lbu:
      case Op::Lh:
      case Op::Lhu:
      case Op::Sb:
      case Op::Sh:
        return true;
      default:
        return false;
    }
}

std::string
correctMacroBody(Op op)
{
    switch (op) {
      case Op::Sub: return kSubBody;
      case Op::Or: return kOrBody;
      case Op::Xor: return kXorBody;
      case Op::Andi: return kAndiBody;
      case Op::Ori: return kOriBody;
      case Op::Xori: return "    xori \\rd, \\rs1, \\imm\n";
      case Op::Slli: return kSlliBody;
      case Op::Srli: return kSrliBody;
      case Op::Srai: return kSraiBody;
      case Op::Srl: return kSrlBody;
      case Op::Slt: return kSltBody;
      case Op::Sltu: return kSltuBody;
      case Op::Slti: return kSltiBody;
      case Op::Sltiu: return kSltiuBody;
      case Op::Beq: return kBeqBody;
      case Op::Bne: return kBneBody;
      case Op::Bge: return kBgeBody;
      case Op::Bgeu: return kBgeuBody;
      case Op::Lui: return kLuiBody;
      case Op::Lb: return kLbBody;
      case Op::Lbu: return kLbuBody;
      case Op::Lh: return kLhBody;
      case Op::Lhu: return kLhuBody;
      case Op::Sb: return kSbBody;
      case Op::Sh: return kShBody;
      default:
        panic("no macro body for %s",
              std::string(opName(op)).c_str());
    }
}

std::vector<std::string>
buggyMacroBodies(Op op)
{
    // Plausible hallucinations: each is syntactically valid and
    // subset-legal but semantically wrong somewhere the verifier's
    // vectors will expose.
    std::vector<std::string> out;
    const std::string good = correctMacroBody(op);
    auto replaced = [&](const std::string &from,
                        const std::string &to)
        -> std::optional<std::string> {
        size_t pos = good.find(from);
        if (pos == std::string::npos)
            return std::nullopt;
        std::string b = good;
        b.replace(pos, from.size(), to);
        return b;
    };
    // Missing +1 in two's complement (a + ~b = a - b - 1).
    if (auto b = replaced("addi ra, ra, 1\n", ""))
        out.push_back(*b);
    // Wrong byte mask.
    if (auto b = replaced("addi ra, zero, 255",
                          "addi ra, zero, 127"))
        out.push_back(*b);
    if (auto b = replaced("addi t0, zero, 255",
                          "addi t0, zero, 127"))
        out.push_back(*b);
    // Inverted compare polarity.
    if (auto b = replaced("blt \\rs1, \\rs2", "blt \\rs2, \\rs1"))
        out.push_back(*b);
    if (auto b = replaced("bltu \\rs1, ra", "bltu ra, \\rs1"))
        out.push_back(*b);
    // Dropped sign-fill correction on the logical right shift.
    if (op == Op::Srli || op == Op::Srl) {
        if (auto b = replaced("and \\rd, \\rd, ra\n    lw ra, 0(sp)",
                              "lw ra, 0(sp)"))
            out.push_back(*b);
    }
    // Wrong lui chunk width.
    if (op == Op::Lui) {
        if (auto b = replaced("addi ra, zero, 10",
                              "addi ra, zero, 8"))
            out.push_back(*b);
    }
    return out;
}

std::string
macroParams(Op op)
{
    return paramNames(op);
}

std::string
macroName(Op op)
{
    return "__rt_" + std::string(opName(op));
}

std::string
wrapMacro(Op op, const std::string &body)
{
    return ".macro " + macroName(op) + " " + macroParams(op) + "\n" +
        body + "\n.endm\n";
}

} // namespace rissp
