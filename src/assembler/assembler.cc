#include "assembler/assembler.hh"

#include <cctype>
#include <map>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>

#include "isa/instr.hh"
#include "isa/reg.hh"
#include "util/bits.hh"
#include "util/logging.hh"
#include "util/strings.hh"

namespace rissp
{

namespace
{

/** Internal diagnostic carrying a source line number. */
class AsmDiag : public std::runtime_error
{
  public:
    AsmDiag(int line, const std::string &msg)
        : std::runtime_error(strFormat("line %d: %s", line, msg.c_str()))
    {}
};

/** How an instruction's immediate is produced in pass 2. */
enum class ImmKind : uint8_t
{
    None,       ///< no immediate
    Value,      ///< literal value
    SymAbs,     ///< symbol + addend, absolute
    SymHi,      ///< %hi(symbol + addend)
    SymLo,      ///< %lo(symbol + addend)
    SymPcRel,   ///< symbol + addend - pc (branches, jal)
};

/** One concrete instruction awaiting encoding. */
struct PendingInstr
{
    Op op = Op::Invalid;
    unsigned rd = 0;
    unsigned rs1 = 0;
    unsigned rs2 = 0;
    ImmKind kind = ImmKind::None;
    int64_t value = 0;
    std::string sym;
    int line = 0;

    /** Sym* kinds reuse `value` as the symbol addend. */
    int64_t &addend() { return value; }
};

/** A data blob or an instruction, placed in a section. */
struct Item
{
    enum class Kind : uint8_t { Instr, Bytes, WordSym } kind;
    uint32_t offset = 0;       ///< offset within its section
    PendingInstr instr;        ///< kind == Instr
    std::vector<uint8_t> bytes;///< kind == Bytes
    std::string sym;           ///< kind == WordSym
    int64_t addend = 0;        ///< kind == WordSym
    int line = 0;
    /** Out-of-range conditional branch rewritten as an inverted
     *  branch over a jal (gas-style branch relaxation). */
    bool relaxed = false;

    uint32_t
    byteSize() const
    {
        switch (kind) {
          case Kind::Instr: return relaxed ? 8 : 4;
          case Kind::Bytes:
            return static_cast<uint32_t>(bytes.size());
          case Kind::WordSym: return 4;
        }
        return 0;
    }
};

struct MacroDef
{
    std::vector<std::string> params;
    std::vector<std::string> body;
};

struct Statement
{
    int line = 0;
    std::string mnemonic;               ///< lower-case
    std::vector<std::string> operands;  ///< raw operand strings
};

bool
isIdentChar(char c)
{
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
        c == '.' || c == '$';
}

/** Split an operand list on top-level commas (parenthesis aware). */
std::vector<std::string>
splitOperands(std::string_view s)
{
    std::vector<std::string> out;
    int depth = 0;
    size_t start = 0;
    for (size_t i = 0; i <= s.size(); ++i) {
        if (i == s.size() || (s[i] == ',' && depth == 0)) {
            std::string_view piece = trim(s.substr(start, i - start));
            if (!piece.empty())
                out.emplace_back(piece);
            start = i + 1;
        } else if (s[i] == '(') {
            ++depth;
        } else if (s[i] == ')') {
            --depth;
        }
    }
    return out;
}

/** The full two-pass assembler state machine. */
class Assembler
{
  public:
    explicit Assembler(const AsmOptions &opts) : options(opts) {}

    void
    addModule(const std::string &source)
    {
        std::vector<std::string> raw_lines = split(source, '\n');
        std::vector<std::pair<int, std::string>> lines;
        lines.reserve(raw_lines.size());
        for (size_t i = 0; i < raw_lines.size(); ++i)
            lines.emplace_back(static_cast<int>(i + 1) + lineBias,
                               stripComment(raw_lines[i]));
        lineBias += static_cast<int>(raw_lines.size());
        collectMacrosAndStatements(lines);
    }

    Program
    finish()
    {
        layout();
        return encode();
    }

  private:
    // ---- phase A: macro collection + statement extraction ----

    static std::string
    stripComment(std::string_view line)
    {
        bool in_str = false;
        for (size_t i = 0; i < line.size(); ++i) {
            char c = line[i];
            if (c == '"' && (i == 0 || line[i - 1] != '\\'))
                in_str = !in_str;
            if (!in_str && (c == '#' ||
                            (c == '/' && i + 1 < line.size() &&
                             line[i + 1] == '/')))
                return std::string(line.substr(0, i));
        }
        return std::string(line);
    }

    void
    collectMacrosAndStatements(
        const std::vector<std::pair<int, std::string>> &lines)
    {
        std::string cur_macro;
        MacroDef cur_def;
        for (const auto &[num, text] : lines) {
            std::string_view body = trim(text);
            if (body.empty())
                continue;
            std::vector<std::string> fields = splitWhitespace(body);
            std::string head = toLower(fields[0]);
            if (head == ".macro") {
                if (!cur_macro.empty())
                    throw AsmDiag(num, "nested .macro");
                if (fields.size() < 2)
                    throw AsmDiag(num, ".macro needs a name");
                cur_macro = toLower(fields[1]);
                cur_def = MacroDef{};
                std::string rest(trim(body.substr(
                    body.find(fields[1]) + fields[1].size())));
                for (const std::string &p : splitOperands(rest))
                    cur_def.params.push_back(p);
                continue;
            }
            if (head == ".endm") {
                if (cur_macro.empty())
                    throw AsmDiag(num, ".endm without .macro");
                macros[cur_macro] = cur_def;
                cur_macro.clear();
                continue;
            }
            if (!cur_macro.empty()) {
                cur_def.body.emplace_back(body);
                continue;
            }
            ingestLine(num, std::string(body), 0);
        }
        if (!cur_macro.empty())
            throw AsmDiag(lineBias, "unterminated .macro");
    }

    /** Handle labels, expand macros/pseudos, queue statements. */
    void
    ingestLine(int num, std::string text, int depth)
    {
        if (depth > 32)
            throw AsmDiag(num, "macro expansion too deep");
        std::string_view rest = trim(text);
        // Peel leading labels.
        while (true) {
            size_t i = 0;
            while (i < rest.size() && isIdentChar(rest[i]))
                ++i;
            if (i > 0 && i < rest.size() && rest[i] == ':') {
                defineLabel(num, std::string(rest.substr(0, i)));
                rest = trim(rest.substr(i + 1));
            } else {
                break;
            }
        }
        if (rest.empty())
            return;

        size_t i = 0;
        while (i < rest.size() &&
               !std::isspace(static_cast<unsigned char>(rest[i])))
            ++i;
        Statement st;
        st.line = num;
        st.mnemonic = toLower(std::string(rest.substr(0, i)));
        st.operands = splitOperands(rest.substr(i));

        // gas semantics: user macros shadow machine instructions.
        auto mit = macros.find(st.mnemonic);
        if (mit != macros.end() &&
            expandingMacros.count(st.mnemonic) == 0) {
            expandMacro(num, mit->second, st, depth);
            return;
        }
        if (expandPseudo(st, depth))
            return;
        processStatement(st);
    }

    void
    expandMacro(int num, const MacroDef &def, const Statement &st,
                int depth)
    {
        if (st.operands.size() > def.params.size())
            throw AsmDiag(num, strFormat(
                "macro '%s' takes %zu argument(s), got %zu",
                st.mnemonic.c_str(), def.params.size(),
                st.operands.size()));
        expandingMacros.insert(st.mnemonic);
        const int expansion_id = macroExpansionCounter++;
        for (const std::string &body_line : def.body) {
            std::string expanded;
            for (size_t i = 0; i < body_line.size(); ++i) {
                if (body_line[i] == '\\' && i + 1 < body_line.size()
                    && body_line[i + 1] == '@') {
                    // gas-style unique expansion counter.
                    expanded += std::to_string(expansion_id);
                    ++i;
                    continue;
                }
                if (body_line[i] == '\\') {
                    size_t j = i + 1;
                    while (j < body_line.size() &&
                           isIdentChar(body_line[j]))
                        ++j;
                    std::string param =
                        body_line.substr(i + 1, j - i - 1);
                    bool found = false;
                    for (size_t k = 0; k < def.params.size(); ++k) {
                        if (def.params[k] == param) {
                            expanded += k < st.operands.size()
                                ? st.operands[k] : "";
                            found = true;
                            break;
                        }
                    }
                    if (!found)
                        throw AsmDiag(num, strFormat(
                            "unknown macro parameter '\\%s'",
                            param.c_str()));
                    i = j - 1;
                } else {
                    expanded += body_line[i];
                }
            }
            ingestLine(num, expanded, depth + 1);
        }
        expandingMacros.erase(st.mnemonic);
    }

    /** Rewrite pseudo-instructions into base instructions (as text, so
     *  retarget macros still apply to the produced sequence). */
    bool
    expandPseudo(const Statement &st, int depth)
    {
        const auto &ops = st.operands;
        auto need = [&](size_t n) {
            if (ops.size() != n)
                throw AsmDiag(st.line, strFormat(
                    "'%s' expects %zu operand(s), got %zu",
                    st.mnemonic.c_str(), n, ops.size()));
        };
        auto emit = [&](const std::string &text) {
            ingestLine(st.line, text, depth + 1);
        };
        const std::string &m = st.mnemonic;

        if (m == "nop") {
            need(0); emit("addi zero, zero, 0"); return true;
        }
        if (m == "mv") {
            need(2); emit("addi " + ops[0] + ", " + ops[1] + ", 0");
            return true;
        }
        if (m == "not") {
            need(2); emit("xori " + ops[0] + ", " + ops[1] + ", -1");
            return true;
        }
        if (m == "neg") {
            need(2); emit("sub " + ops[0] + ", zero, " + ops[1]);
            return true;
        }
        if (m == "seqz") {
            need(2); emit("sltiu " + ops[0] + ", " + ops[1] + ", 1");
            return true;
        }
        if (m == "snez") {
            need(2); emit("sltu " + ops[0] + ", zero, " + ops[1]);
            return true;
        }
        if (m == "sltz") {
            need(2); emit("slt " + ops[0] + ", " + ops[1] + ", zero");
            return true;
        }
        if (m == "sgtz") {
            need(2); emit("slt " + ops[0] + ", zero, " + ops[1]);
            return true;
        }
        if (m == "beqz") {
            need(2); emit("beq " + ops[0] + ", zero, " + ops[1]);
            return true;
        }
        if (m == "bnez") {
            need(2); emit("bne " + ops[0] + ", zero, " + ops[1]);
            return true;
        }
        if (m == "blez") {
            need(2); emit("bge zero, " + ops[0] + ", " + ops[1]);
            return true;
        }
        if (m == "bgez") {
            need(2); emit("bge " + ops[0] + ", zero, " + ops[1]);
            return true;
        }
        if (m == "bltz") {
            need(2); emit("blt " + ops[0] + ", zero, " + ops[1]);
            return true;
        }
        if (m == "bgtz") {
            need(2); emit("blt zero, " + ops[0] + ", " + ops[1]);
            return true;
        }
        if (m == "bgt") {
            need(3);
            emit("blt " + ops[1] + ", " + ops[0] + ", " + ops[2]);
            return true;
        }
        if (m == "ble") {
            need(3);
            emit("bge " + ops[1] + ", " + ops[0] + ", " + ops[2]);
            return true;
        }
        if (m == "bgtu") {
            need(3);
            emit("bltu " + ops[1] + ", " + ops[0] + ", " + ops[2]);
            return true;
        }
        if (m == "bleu") {
            need(3);
            emit("bgeu " + ops[1] + ", " + ops[0] + ", " + ops[2]);
            return true;
        }
        if (m == "j") {
            need(1); emit("jal zero, " + ops[0]); return true;
        }
        if (m == "jal" && ops.size() == 1) {
            emit("jal ra, " + ops[0]); return true;
        }
        if (m == "jr") {
            need(1); emit("jalr zero, 0(" + ops[0] + ")"); return true;
        }
        if (m == "jalr" && ops.size() == 1) {
            emit("jalr ra, 0(" + ops[0] + ")"); return true;
        }
        if (m == "ret") {
            need(0); emit("jalr zero, 0(ra)"); return true;
        }
        // All images here are < 1 MiB, so a direct jal always reaches.
        if (m == "call") {
            need(1); emit("jal ra, " + ops[0]); return true;
        }
        if (m == "tail") {
            need(1); emit("jal zero, " + ops[0]); return true;
        }
        if (m == "la") {
            need(2);
            emit("lui " + ops[0] + ", %hi(" + ops[1] + ")");
            emit("addi " + ops[0] + ", " + ops[0] + ", %lo(" +
                 ops[1] + ")");
            return true;
        }
        if (m == "li") {
            need(2);
            int64_t v = parseNumber(st.line, ops[1]);
            if (fitsSigned(v, 12)) {
                emit("addi " + ops[0] + ", zero, " +
                     std::to_string(v));
            } else {
                const uint32_t u = static_cast<uint32_t>(v);
                const uint32_t hi = (u + 0x800u) >> 12;
                const int32_t lo = sext(u & 0xFFFu, 12);
                emit("lui " + ops[0] + ", " +
                     std::to_string(static_cast<int64_t>(
                         sext(hi & 0xFFFFFu, 20))));
                if (lo != 0)
                    emit("addi " + ops[0] + ", " + ops[0] + ", " +
                         std::to_string(lo));
            }
            return true;
        }
        return false;
    }

    // ---- statement processing (pass 1: sizes and symbols) ----

    struct Section
    {
        std::vector<Item> items;
        uint32_t size = 0;
    };

    void
    defineLabel(int num, const std::string &name)
    {
        if (symbols.count(name))
            throw AsmDiag(num, strFormat(
                "duplicate label '%s'", name.c_str()));
        // Labels bind to the next item so branch relaxation can move
        // byte offsets around without invalidating them.
        symbols[name] = {inText, currentSection().items.size()};
    }

    Section &currentSection() { return inText ? text : data; }

    void
    processStatement(const Statement &st)
    {
        if (!st.mnemonic.empty() && st.mnemonic[0] == '.') {
            processDirective(st);
            return;
        }
        auto op = opFromName(st.mnemonic);
        if (!op)
            throw AsmDiag(st.line, strFormat(
                "unknown instruction '%s'", st.mnemonic.c_str()));
        if (!inText)
            throw AsmDiag(st.line, "instruction outside .text");
        Item item;
        item.kind = Item::Kind::Instr;
        item.offset = text.size;
        item.line = st.line;
        item.instr = parseInstr(*op, st);
        text.items.push_back(std::move(item));
        text.size += 4;
    }

    void
    processDirective(const Statement &st)
    {
        const std::string &d = st.mnemonic;
        const auto &ops = st.operands;
        if (d == ".text") { inText = true; return; }
        if (d == ".data" || d == ".rodata" || d == ".bss") {
            inText = false;
            return;
        }
        if (d == ".section") {
            if (ops.empty())
                throw AsmDiag(st.line, ".section needs a name");
            inText = startsWith(ops[0], ".text");
            return;
        }
        if (d == ".globl" || d == ".global" || d == ".type" ||
            d == ".size" || d == ".file" || d == ".option" ||
            d == ".attribute" || d == ".p2align" || d == ".ident")
            return; // accepted, no effect on the flat image
        if (d == ".equ" || d == ".set") {
            if (ops.size() != 2)
                throw AsmDiag(st.line, d + " needs name, value");
            equates[ops[0]] = parseNumber(st.line, ops[1]);
            return;
        }
        if (d == ".align" || d == ".balign") {
            if (ops.size() != 1)
                throw AsmDiag(st.line, d + " needs one operand");
            int64_t arg = parseNumber(st.line, ops[0]);
            uint32_t alignment = d == ".align"
                ? (1u << arg) : static_cast<uint32_t>(arg);
            Section &sec = currentSection();
            uint32_t pad =
                (alignment - sec.size % alignment) % alignment;
            if (pad)
                appendBytes(st.line, std::vector<uint8_t>(pad, 0));
            return;
        }
        if (d == ".word" || d == ".half" || d == ".byte") {
            unsigned width = d == ".word" ? 4 : d == ".half" ? 2 : 1;
            for (const std::string &operand : ops) {
                // .word label is the one relocatable data form.
                if (width == 4 && !looksNumeric(operand)) {
                    Item item;
                    item.kind = Item::Kind::WordSym;
                    item.offset = currentSection().size;
                    item.line = st.line;
                    parseSymExpr(st.line, operand, item.sym,
                                 item.addend);
                    currentSection().items.push_back(std::move(item));
                    currentSection().size += 4;
                    continue;
                }
                int64_t v = parseNumber(st.line, operand);
                std::vector<uint8_t> bytes(width);
                for (unsigned b = 0; b < width; ++b)
                    bytes[b] = static_cast<uint8_t>(v >> (8 * b));
                appendBytes(st.line, bytes);
            }
            return;
        }
        if (d == ".space" || d == ".zero" || d == ".skip") {
            if (ops.empty())
                throw AsmDiag(st.line, d + " needs a size");
            int64_t n = parseNumber(st.line, ops[0]);
            uint8_t fill = ops.size() > 1
                ? static_cast<uint8_t>(parseNumber(st.line, ops[1]))
                : 0;
            appendBytes(st.line, std::vector<uint8_t>(
                static_cast<size_t>(n), fill));
            return;
        }
        if (d == ".ascii" || d == ".asciz" || d == ".string") {
            if (ops.size() != 1)
                throw AsmDiag(st.line, d + " needs one string");
            std::vector<uint8_t> bytes =
                parseString(st.line, ops[0]);
            if (d != ".ascii")
                bytes.push_back(0);
            appendBytes(st.line, bytes);
            return;
        }
        throw AsmDiag(st.line, strFormat(
            "unknown directive '%s'", d.c_str()));
    }

    void
    appendBytes(int line, std::vector<uint8_t> bytes)
    {
        Section &sec = currentSection();
        Item item;
        item.kind = Item::Kind::Bytes;
        item.offset = sec.size;
        item.line = line;
        sec.size += static_cast<uint32_t>(bytes.size());
        item.bytes = std::move(bytes);
        sec.items.push_back(std::move(item));
    }

    // ---- operand parsing ----

    unsigned
    parseReg(int line, std::string_view token)
    {
        auto r = regFromName(std::string(trim(token)));
        if (!r)
            throw AsmDiag(line, strFormat(
                "bad register '%s'",
                std::string(trim(token)).c_str()));
        return *r;
    }

    static bool
    looksNumeric(std::string_view s)
    {
        s = trim(s);
        if (s.empty())
            return false;
        if (s[0] == '-' || s[0] == '+')
            s = s.substr(1);
        return !s.empty() &&
            std::isdigit(static_cast<unsigned char>(s[0]));
    }

    /** Parse "a", "a+b", "a-b+c" over plain numeric terms (used by
     *  retarget macros that compute shift complements textually). */
    int64_t
    parseNumber(int line, std::string_view token)
    {
        std::string s(trim(token));
        // Fold infix +/- chains; the sign of the first term is
        // handled by parseNumberTerm itself.
        size_t split = std::string::npos;
        for (size_t i = 1; i < s.size(); ++i) {
            if ((s[i] == '+' || s[i] == '-') &&
                std::isalnum(static_cast<unsigned char>(s[i - 1])))
                split = i; // rightmost operator: left associativity
        }
        if (split != std::string::npos) {
            int64_t lhs = parseNumber(
                line, std::string_view(s).substr(0, split));
            int64_t rhs = parseNumberTerm(
                line, std::string_view(s).substr(split + 1));
            return s[split] == '+' ? lhs + rhs : lhs - rhs;
        }
        return parseNumberTerm(line, s);
    }

    int64_t
    parseNumberTerm(int line, std::string_view token)
    {
        std::string s(trim(token));
        if (s.empty())
            throw AsmDiag(line, "expected a number");
        if (auto it = equates.find(s); it != equates.end())
            return it->second;
        if (s.size() >= 3 && s.front() == '\'' && s.back() == '\'')
            return s[1];
        bool neg = false;
        size_t i = 0;
        if (s[0] == '-' || s[0] == '+') {
            neg = s[0] == '-';
            i = 1;
        }
        int base = 10;
        if (i + 1 < s.size() && s[i] == '0' &&
            (s[i + 1] == 'x' || s[i + 1] == 'X')) {
            base = 16;
            i += 2;
        } else if (i + 1 < s.size() && s[i] == '0' &&
                   (s[i + 1] == 'b' || s[i + 1] == 'B')) {
            base = 2;
            i += 2;
        }
        if (i >= s.size())
            throw AsmDiag(line, strFormat(
                "bad number '%s'", s.c_str()));
        int64_t v = 0;
        for (; i < s.size(); ++i) {
            char c = static_cast<char>(
                std::tolower(static_cast<unsigned char>(s[i])));
            int digit;
            if (c >= '0' && c <= '9')
                digit = c - '0';
            else if (c >= 'a' && c <= 'f')
                digit = 10 + (c - 'a');
            else
                throw AsmDiag(line, strFormat(
                    "bad number '%s'", s.c_str()));
            if (digit >= base)
                throw AsmDiag(line, strFormat(
                    "bad number '%s'", s.c_str()));
            v = v * base + digit;
        }
        return neg ? -v : v;
    }

    /** Parse "sym", "sym+4", "sym-8" into symbol + addend. */
    void
    parseSymExpr(int line, std::string_view token, std::string &sym,
                 int64_t &addend)
    {
        std::string s(trim(token));
        size_t pos = s.find_first_of("+-", 1);
        if (pos == std::string::npos) {
            sym = s;
            addend = 0;
        } else {
            sym = std::string(trim(std::string_view(s).substr(0, pos)));
            addend = parseNumber(line,
                                 std::string_view(s).substr(pos));
        }
        if (sym.empty())
            throw AsmDiag(line, "empty symbol reference");
    }

    /** Fill the immediate slot of @p pi from an operand string. */
    void
    parseImm(int line, std::string_view token, PendingInstr &pi,
             bool pc_relative)
    {
        std::string s(trim(token));
        if (startsWith(s, "%hi(") && endsWith(s, ")")) {
            pi.kind = ImmKind::SymHi;
            std::string inner = s.substr(4, s.size() - 5);
            if (looksNumeric(inner)) {
                pi.kind = ImmKind::Value;
                uint32_t u = static_cast<uint32_t>(
                    parseNumber(line, inner));
                pi.value = sext(((u + 0x800u) >> 12) & 0xFFFFFu, 20);
            } else {
                parseSymExpr(line, inner, pi.sym, pi.addend());
            }
            return;
        }
        if (startsWith(s, "%lo(") && endsWith(s, ")")) {
            pi.kind = ImmKind::SymLo;
            std::string inner = s.substr(4, s.size() - 5);
            if (looksNumeric(inner)) {
                pi.kind = ImmKind::Value;
                uint32_t u = static_cast<uint32_t>(
                    parseNumber(line, inner));
                pi.value = sext(u & 0xFFFu, 12);
            } else {
                parseSymExpr(line, inner, pi.sym, pi.addend());
            }
            return;
        }
        if (looksNumeric(s) || equates.count(s) ||
            (!s.empty() && s.front() == '\'')) {
            pi.kind = ImmKind::Value;
            pi.value = parseNumber(line, s);
            return;
        }
        pi.kind = pc_relative ? ImmKind::SymPcRel : ImmKind::SymAbs;
        parseSymExpr(line, s, pi.sym, pi.addend());
    }

    PendingInstr
    parseInstr(Op op, const Statement &st)
    {
        PendingInstr pi;
        pi.op = op;
        pi.line = st.line;
        const auto &ops = st.operands;
        auto need = [&](size_t n) {
            if (ops.size() != n)
                throw AsmDiag(st.line, strFormat(
                    "'%s' expects %zu operand(s), got %zu",
                    std::string(opName(op)).c_str(), n, ops.size()));
        };
        switch (opInfo(op).type) {
          case InstrType::R:
            need(3);
            pi.rd = parseReg(st.line, ops[0]);
            pi.rs1 = parseReg(st.line, ops[1]);
            pi.rs2 = parseReg(st.line, ops[2]);
            break;
          case InstrType::I:
            if (isLoad(op) || op == Op::Jalr) {
                need(2);
                pi.rd = parseReg(st.line, ops[0]);
                parseAddrOperand(st.line, ops[1], pi);
            } else {
                need(3);
                pi.rd = parseReg(st.line, ops[0]);
                pi.rs1 = parseReg(st.line, ops[1]);
                parseImm(st.line, ops[2], pi, false);
            }
            break;
          case InstrType::S:
            need(2);
            pi.rs2 = parseReg(st.line, ops[0]);
            parseAddrOperand(st.line, ops[1], pi);
            break;
          case InstrType::B:
            need(3);
            pi.rs1 = parseReg(st.line, ops[0]);
            pi.rs2 = parseReg(st.line, ops[1]);
            parseImm(st.line, ops[2], pi, true);
            break;
          case InstrType::U:
            need(2);
            pi.rd = parseReg(st.line, ops[0]);
            parseImm(st.line, ops[1], pi, false);
            break;
          case InstrType::J:
            need(2);
            pi.rd = parseReg(st.line, ops[0]);
            parseImm(st.line, ops[1], pi, true);
            break;
          case InstrType::Sys:
            need(0);
            pi.kind = ImmKind::None;
            break;
        }
        return pi;
    }

    /** Parse "imm(rs1)" or bare "imm" (rs1 = x0). */
    void
    parseAddrOperand(int line, std::string_view token, PendingInstr &pi)
    {
        std::string s(trim(token));
        size_t open = s.rfind('(');
        if (open == std::string::npos || s.back() != ')') {
            pi.rs1 = 0;
            parseImm(line, s, pi, false);
            return;
        }
        pi.rs1 = parseReg(
            line, std::string_view(s).substr(
                open + 1, s.size() - open - 2));
        std::string_view imm_part = trim(
            std::string_view(s).substr(0, open));
        if (imm_part.empty()) {
            pi.kind = ImmKind::Value;
            pi.value = 0;
        } else {
            parseImm(line, imm_part, pi, false);
        }
    }

    // ---- pass 2: layout + encode ----

    void
    assignOffsets(Section &sec)
    {
        uint32_t off = 0;
        for (Item &item : sec.items) {
            item.offset = off;
            off += item.byteSize();
        }
        sec.size = off;
    }

    static bool
    isBranchOp(Op op)
    {
        return opInfo(op).type == InstrType::B;
    }

    static Op
    invertBranch(Op op)
    {
        switch (op) {
          case Op::Beq: return Op::Bne;
          case Op::Bne: return Op::Beq;
          case Op::Blt: return Op::Bge;
          case Op::Bge: return Op::Blt;
          case Op::Bltu: return Op::Bgeu;
          case Op::Bgeu: return Op::Bltu;
          default: panic("invertBranch on non-branch");
        }
    }

    void
    layout()
    {
        textStart = options.textBase;
        dataStart = kAsmDataBase;
        assignOffsets(data);
        // Branch relaxation: iterate until every conditional branch
        // reaches its target (relaxing one branch can push another
        // out of range).
        for (int iter = 0; ; ++iter) {
            if (iter > 32)
                throw AsmDiag(0, "branch relaxation did not settle");
            assignOffsets(text);
            bool changed = false;
            for (Item &item : text.items) {
                if (item.kind != Item::Kind::Instr || item.relaxed)
                    continue;
                const PendingInstr &pi = item.instr;
                if (!isBranchOp(pi.op) ||
                    pi.kind != ImmKind::SymPcRel)
                    continue;
                const uint32_t pc = textStart + item.offset;
                const int64_t off = resolveImm(pi, pc);
                if (!fitsSigned(off, 13)) {
                    item.relaxed = true;
                    changed = true;
                }
            }
            if (!changed)
                break;
        }
        if (textStart + text.size > dataStart && data.size > 0)
            throw AsmDiag(0, strFormat(
                "text (%u bytes) overlaps data base 0x%x",
                text.size, dataStart));
    }

    uint32_t
    symbolAddr(int line, const std::string &name) const
    {
        auto it = symbols.find(name);
        if (it == symbols.end())
            throw AsmDiag(line, strFormat(
                "undefined symbol '%s'", name.c_str()));
        const bool in_text = it->second.first;
        const Section &sec = in_text ? text : data;
        const size_t idx = it->second.second;
        const uint32_t off = idx < sec.items.size()
            ? sec.items[idx].offset : sec.size;
        return (in_text ? textStart : dataStart) + off;
    }

    int64_t
    resolveImm(const PendingInstr &pi, uint32_t pc) const
    {
        switch (pi.kind) {
          case ImmKind::None:
            return 0;
          case ImmKind::Value:
            return pi.value;
          case ImmKind::SymAbs:
            return symbolAddr(pi.line, pi.sym) + pi.value;
          case ImmKind::SymHi: {
            uint32_t a = symbolAddr(pi.line, pi.sym) +
                static_cast<uint32_t>(pi.value);
            return sext(((a + 0x800u) >> 12) & 0xFFFFFu, 20);
          }
          case ImmKind::SymLo: {
            uint32_t a = symbolAddr(pi.line, pi.sym) +
                static_cast<uint32_t>(pi.value);
            return sext(a & 0xFFFu, 12);
          }
          case ImmKind::SymPcRel: {
            uint32_t a = symbolAddr(pi.line, pi.sym) +
                static_cast<uint32_t>(pi.value);
            return static_cast<int64_t>(a) -
                static_cast<int64_t>(pc);
          }
        }
        panic("unreachable");
    }

    uint32_t
    encodeOne(const PendingInstr &pi, uint32_t pc) const
    {
        int64_t imm = resolveImm(pi, pc);
        auto check = [&](unsigned width, bool even) {
            if (!fitsSigned(imm, width) ||
                (even && (imm & 1)))
                throw AsmDiag(pi.line, strFormat(
                    "immediate %lld out of range for %s",
                    static_cast<long long>(imm),
                    std::string(opName(pi.op)).c_str()));
        };
        switch (opInfo(pi.op).type) {
          case InstrType::R:
            return encodeR(pi.op, pi.rd, pi.rs1, pi.rs2);
          case InstrType::I:
            if (pi.op == Op::Slli || pi.op == Op::Srli ||
                pi.op == Op::Srai) {
                if (imm < 0 || imm > 31)
                    throw AsmDiag(pi.line, strFormat(
                        "shift amount %lld out of range",
                        static_cast<long long>(imm)));
            } else {
                check(12, false);
            }
            return encodeI(pi.op, pi.rd, pi.rs1,
                           static_cast<int32_t>(imm));
          case InstrType::S:
            check(12, false);
            return encodeS(pi.op, pi.rs1, pi.rs2,
                           static_cast<int32_t>(imm));
          case InstrType::B:
            check(13, true);
            return encodeB(pi.op, pi.rs1, pi.rs2,
                           static_cast<int32_t>(imm));
          case InstrType::U:
            if (imm < -(1 << 19) || imm >= (1 << 20))
                throw AsmDiag(pi.line, strFormat(
                    "U-immediate %lld out of range",
                    static_cast<long long>(imm)));
            return encodeU(pi.op, pi.rd,
                           static_cast<int32_t>(imm));
          case InstrType::J:
            check(21, true);
            return encodeJ(pi.op, pi.rd,
                           static_cast<int32_t>(imm));
          case InstrType::Sys:
            return encodeSys(pi.op);
        }
        panic("unreachable");
    }

    Program
    encode()
    {
        Program prog;
        Segment text_seg;
        text_seg.base = textStart;
        text_seg.bytes.resize(text.size, 0);
        for (const Item &item : text.items) {
            if (item.kind == Item::Kind::Instr) {
                const uint32_t pc = textStart + item.offset;
                uint32_t word;
                if (item.relaxed) {
                    // Inverted branch skipping the jal, then the jal
                    // carrying the long-range offset.
                    const PendingInstr &pi = item.instr;
                    word = encodeB(invertBranch(pi.op), pi.rs1,
                                   pi.rs2, 8);
                    for (unsigned b = 0; b < 4; ++b)
                        text_seg.bytes[item.offset + b] =
                            static_cast<uint8_t>(word >> (8 * b));
                    PendingInstr far;
                    far.op = Op::Jal;
                    far.rd = 0;
                    far.kind = pi.kind;
                    far.value = pi.value;
                    far.sym = pi.sym;
                    far.line = pi.line;
                    word = encodeOne(far, pc + 4);
                    for (unsigned b = 0; b < 4; ++b)
                        text_seg.bytes[item.offset + 4 + b] =
                            static_cast<uint8_t>(word >> (8 * b));
                    continue;
                }
                word = encodeOne(item.instr, pc);
                for (unsigned b = 0; b < 4; ++b)
                    text_seg.bytes[item.offset + b] =
                        static_cast<uint8_t>(word >> (8 * b));
            } else if (item.kind == Item::Kind::Bytes) {
                std::copy(item.bytes.begin(), item.bytes.end(),
                          text_seg.bytes.begin() + item.offset);
            } else {
                uint32_t v = symbolAddr(item.line, item.sym) +
                    static_cast<uint32_t>(item.addend);
                for (unsigned b = 0; b < 4; ++b)
                    text_seg.bytes[item.offset + b] =
                        static_cast<uint8_t>(v >> (8 * b));
            }
        }
        Segment data_seg;
        data_seg.base = dataStart;
        data_seg.bytes.resize(data.size, 0);
        for (const Item &item : data.items) {
            if (item.kind == Item::Kind::Bytes) {
                std::copy(item.bytes.begin(), item.bytes.end(),
                          data_seg.bytes.begin() + item.offset);
            } else if (item.kind == Item::Kind::WordSym) {
                uint32_t v = symbolAddr(item.line, item.sym) +
                    static_cast<uint32_t>(item.addend);
                for (unsigned b = 0; b < 4; ++b)
                    data_seg.bytes[item.offset + b] =
                        static_cast<uint8_t>(v >> (8 * b));
            } else {
                throw AsmDiag(item.line, "instruction in .data");
            }
        }

        prog.segments.push_back(std::move(text_seg));
        if (data.size > 0)
            prog.segments.push_back(std::move(data_seg));
        prog.textBase = textStart;
        prog.textSize = text.size;
        for (const auto &[name, loc] : symbols)
            prog.symbols[name] = symbolAddr(0, name);
        (void)dataStart;
        prog.entry = prog.hasSymbol("_start")
            ? prog.symbols.at("_start") : textStart;
        return prog;
    }

    std::vector<uint8_t>
    parseString(int line, std::string_view token)
    {
        std::string s(trim(token));
        if (s.size() < 2 || s.front() != '"' || s.back() != '"')
            throw AsmDiag(line, "expected a quoted string");
        std::vector<uint8_t> out;
        for (size_t i = 1; i + 1 < s.size(); ++i) {
            char c = s[i];
            if (c == '\\' && i + 2 < s.size()) {
                ++i;
                switch (s[i]) {
                  case 'n': c = '\n'; break;
                  case 't': c = '\t'; break;
                  case '0': c = '\0'; break;
                  case '\\': c = '\\'; break;
                  case '"': c = '"'; break;
                  default:
                    throw AsmDiag(line, "bad string escape");
                }
            }
            out.push_back(static_cast<uint8_t>(c));
        }
        return out;
    }

    const AsmOptions &options;
    int lineBias = 0;
    int macroExpansionCounter = 0;
    std::unordered_map<std::string, MacroDef> macros;
    std::unordered_set<std::string> expandingMacros;
    std::unordered_map<std::string, int64_t> equates;
    // label -> (in_text, item index at definition point)
    std::map<std::string, std::pair<bool, size_t>> symbols;
    Section text;
    Section data;
    bool inText = true;
    uint32_t textStart = 0;
    uint32_t dataStart = 0;
};

} // namespace

AsmResult
tryAssemble(const std::string &source, const AsmOptions &options)
{
    return tryAssembleModules({source}, options);
}

AsmResult
tryAssembleModules(const std::vector<std::string> &sources,
                   const AsmOptions &options)
{
    AsmResult result;
    try {
        Assembler as(options);
        for (const std::string &src : sources)
            as.addModule(src);
        result.program = as.finish();
        result.ok = true;
    } catch (const std::exception &e) {
        result.error = e.what();
    }
    return result;
}

Program
assemble(const std::string &source, const AsmOptions &options)
{
    AsmResult r = tryAssemble(source, options);
    if (!r.ok)
        panic("assemble: trusted source failed: %s (user input goes "
              "through tryAssemble)", r.error.c_str());
    return std::move(r.program);
}

Program
assembleModules(const std::vector<std::string> &sources,
                const AsmOptions &options)
{
    AsmResult r = tryAssembleModules(sources, options);
    if (!r.ok)
        panic("assembleModules: trusted source failed: %s (user "
              "input goes through tryAssembleModules)",
              r.error.c_str());
    return std::move(r.program);
}

} // namespace rissp
