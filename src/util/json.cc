#include "util/json.hh"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "util/logging.hh"

namespace rissp
{

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out;
}

std::string
jsonNum(double value)
{
    // JSON has no nan/inf literals; a degenerate metric must still
    // produce a parseable document.
    if (!std::isfinite(value))
        return "null";
    std::ostringstream out;
    out.precision(17);
    out << value;
    return out.str();
}

// ------------------------------------------------------- JsonValue

bool
JsonValue::asBool() const
{
    if (valueKind != Kind::Bool)
        panic("JsonValue::asBool on a %s", kindName(valueKind));
    return boolValue;
}

double
JsonValue::asNumber() const
{
    if (valueKind != Kind::Number)
        panic("JsonValue::asNumber on a %s", kindName(valueKind));
    return numberValue;
}

const std::string &
JsonValue::asString() const
{
    if (valueKind != Kind::String)
        panic("JsonValue::asString on a %s", kindName(valueKind));
    return stringValue;
}

const std::vector<JsonValue> &
JsonValue::items() const
{
    if (valueKind != Kind::Array)
        panic("JsonValue::items on a %s", kindName(valueKind));
    return arrayItems;
}

const std::vector<JsonValue::Member> &
JsonValue::members() const
{
    if (valueKind != Kind::Object)
        panic("JsonValue::members on a %s", kindName(valueKind));
    return objectMembers;
}

const JsonValue *
JsonValue::find(std::string_view key) const
{
    if (valueKind != Kind::Object)
        return nullptr;
    for (const Member &member : objectMembers)
        if (member.first == key)
            return &member.second;
    return nullptr;
}

const char *
JsonValue::kindName(Kind kind)
{
    switch (kind) {
      case Kind::Null: return "null";
      case Kind::Bool: return "bool";
      case Kind::Number: return "number";
      case Kind::String: return "string";
      case Kind::Array: return "array";
      case Kind::Object: return "object";
    }
    return "unknown";
}

JsonValue
JsonValue::makeNull()
{
    return JsonValue();
}

JsonValue
JsonValue::makeBool(bool value)
{
    JsonValue v;
    v.valueKind = Kind::Bool;
    v.boolValue = value;
    return v;
}

JsonValue
JsonValue::makeNumber(double value)
{
    JsonValue v;
    v.valueKind = Kind::Number;
    v.numberValue = value;
    return v;
}

JsonValue
JsonValue::makeString(std::string value)
{
    JsonValue v;
    v.valueKind = Kind::String;
    v.stringValue = std::move(value);
    return v;
}

JsonValue
JsonValue::makeArray(std::vector<JsonValue> items)
{
    JsonValue v;
    v.valueKind = Kind::Array;
    v.arrayItems = std::move(items);
    return v;
}

JsonValue
JsonValue::makeObject(std::vector<Member> members)
{
    JsonValue v;
    v.valueKind = Kind::Object;
    v.objectMembers = std::move(members);
    return v;
}

// ---------------------------------------------------- JSON parser

namespace
{

/** Recursive-descent parser over untrusted text. Errors carry the
 *  byte offset; recursion is depth-bounded so a pathological body
 *  ("[[[[[…") cannot blow the stack of a server worker. */
class JsonParser
{
  public:
    explicit JsonParser(const std::string &text) : text(text) {}

    Result<JsonValue>
    parse()
    {
        JsonValue value;
        Status status = parseValue(value, 0);
        if (!status.isOk())
            return status;
        skipWhitespace();
        if (pos != text.size())
            return fail("trailing garbage after the document");
        return value;
    }

  private:
    static constexpr int kMaxDepth = 64;

    Status
    fail(const std::string &what) const
    {
        return Status::errorf(ErrorCode::ParseError,
                              "JSON error at byte %zu: %s", pos,
                              what.c_str());
    }

    void
    skipWhitespace()
    {
        while (pos < text.size() &&
               (text[pos] == ' ' || text[pos] == '\t' ||
                text[pos] == '\n' || text[pos] == '\r'))
            ++pos;
    }

    bool
    consume(const char *literal)
    {
        size_t len = 0;
        while (literal[len])
            ++len;
        if (text.compare(pos, len, literal) != 0)
            return false;
        pos += len;
        return true;
    }

    Status
    parseValue(JsonValue &out, int depth)
    {
        if (depth > kMaxDepth)
            return fail("nesting deeper than 64 levels");
        skipWhitespace();
        if (pos >= text.size())
            return fail("unexpected end of input");
        const char c = text[pos];
        if (c == '{')
            return parseObject(out, depth);
        if (c == '[')
            return parseArray(out, depth);
        if (c == '"')
            return parseString(out);
        if (c == '-' || (c >= '0' && c <= '9'))
            return parseNumber(out);
        if (consume("true")) {
            out = JsonValue::makeBool(true);
            return Status::ok();
        }
        if (consume("false")) {
            out = JsonValue::makeBool(false);
            return Status::ok();
        }
        if (consume("null")) {
            out = JsonValue::makeNull();
            return Status::ok();
        }
        return fail("expected a JSON value");
    }

    Status
    parseObject(JsonValue &out, int depth)
    {
        ++pos; // '{'
        std::vector<JsonValue::Member> members;
        skipWhitespace();
        if (pos < text.size() && text[pos] == '}') {
            ++pos;
            out = JsonValue::makeObject(std::move(members));
            return Status::ok();
        }
        for (;;) {
            skipWhitespace();
            if (pos >= text.size() || text[pos] != '"')
                return fail("expected a string object key");
            JsonValue key;
            Status status = parseString(key);
            if (!status.isOk())
                return status;
            for (const JsonValue::Member &member : members)
                if (member.first == key.asString())
                    return fail("duplicate object key '" +
                                key.asString() + "'");
            skipWhitespace();
            if (pos >= text.size() || text[pos] != ':')
                return fail("expected ':' after object key");
            ++pos;
            JsonValue value;
            status = parseValue(value, depth + 1);
            if (!status.isOk())
                return status;
            members.emplace_back(key.asString(), std::move(value));
            skipWhitespace();
            if (pos < text.size() && text[pos] == ',') {
                ++pos;
                continue;
            }
            if (pos < text.size() && text[pos] == '}') {
                ++pos;
                out = JsonValue::makeObject(std::move(members));
                return Status::ok();
            }
            return fail("expected ',' or '}' in object");
        }
    }

    Status
    parseArray(JsonValue &out, int depth)
    {
        ++pos; // '['
        std::vector<JsonValue> items;
        skipWhitespace();
        if (pos < text.size() && text[pos] == ']') {
            ++pos;
            out = JsonValue::makeArray(std::move(items));
            return Status::ok();
        }
        for (;;) {
            JsonValue value;
            Status status = parseValue(value, depth + 1);
            if (!status.isOk())
                return status;
            items.push_back(std::move(value));
            skipWhitespace();
            if (pos < text.size() && text[pos] == ',') {
                ++pos;
                continue;
            }
            if (pos < text.size() && text[pos] == ']') {
                ++pos;
                out = JsonValue::makeArray(std::move(items));
                return Status::ok();
            }
            return fail("expected ',' or ']' in array");
        }
    }

    Status
    parseString(JsonValue &out)
    {
        ++pos; // '"'
        std::string value;
        while (pos < text.size()) {
            const unsigned char c =
                static_cast<unsigned char>(text[pos]);
            if (c == '"') {
                ++pos;
                out = JsonValue::makeString(std::move(value));
                return Status::ok();
            }
            if (c < 0x20)
                return fail("unescaped control character in string");
            if (c != '\\') {
                value += static_cast<char>(c);
                ++pos;
                continue;
            }
            ++pos; // '\\'
            if (pos >= text.size())
                return fail("unterminated escape");
            const char esc = text[pos++];
            switch (esc) {
              case '"': value += '"'; break;
              case '\\': value += '\\'; break;
              case '/': value += '/'; break;
              case 'b': value += '\b'; break;
              case 'f': value += '\f'; break;
              case 'n': value += '\n'; break;
              case 'r': value += '\r'; break;
              case 't': value += '\t'; break;
              case 'u': {
                uint32_t code = 0;
                if (!parseHex4(code))
                    return fail("bad \\u escape");
                if (code >= 0xD800 && code <= 0xDBFF) {
                    // High surrogate: require its low half.
                    uint32_t low = 0;
                    if (pos + 1 >= text.size() ||
                        text[pos] != '\\' || text[pos + 1] != 'u')
                        return fail("unpaired surrogate");
                    pos += 2;
                    if (!parseHex4(low) || low < 0xDC00 ||
                        low > 0xDFFF)
                        return fail("unpaired surrogate");
                    code = 0x10000 + ((code - 0xD800) << 10) +
                           (low - 0xDC00);
                } else if (code >= 0xDC00 && code <= 0xDFFF) {
                    return fail("unpaired surrogate");
                }
                appendUtf8(value, code);
                break;
              }
              default:
                return fail("unknown escape");
            }
        }
        return fail("unterminated string");
    }

    bool
    parseHex4(uint32_t &out)
    {
        if (pos + 4 > text.size())
            return false;
        out = 0;
        for (int i = 0; i < 4; ++i) {
            const char c = text[pos + i];
            out <<= 4;
            if (c >= '0' && c <= '9') out |= c - '0';
            else if (c >= 'a' && c <= 'f') out |= c - 'a' + 10;
            else if (c >= 'A' && c <= 'F') out |= c - 'A' + 10;
            else return false;
        }
        pos += 4;
        return true;
    }

    static void
    appendUtf8(std::string &out, uint32_t code)
    {
        if (code < 0x80) {
            out += static_cast<char>(code);
        } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
        } else if (code < 0x10000) {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
        } else {
            out += static_cast<char>(0xF0 | (code >> 18));
            out += static_cast<char>(0x80 | ((code >> 12) & 0x3F));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
        }
    }

    Status
    parseNumber(JsonValue &out)
    {
        // Validate the JSON grammar first — strtod accepts more
        // (hex, "inf", leading '+') than JSON allows.
        const size_t start = pos;
        if (pos < text.size() && text[pos] == '-')
            ++pos;
        if (pos >= text.size() ||
            !(text[pos] >= '0' && text[pos] <= '9'))
            return fail("malformed number");
        if (text[pos] == '0')
            ++pos;
        else
            while (pos < text.size() && text[pos] >= '0' &&
                   text[pos] <= '9')
                ++pos;
        if (pos < text.size() && text[pos] == '.') {
            ++pos;
            if (pos >= text.size() ||
                !(text[pos] >= '0' && text[pos] <= '9'))
                return fail("malformed number");
            while (pos < text.size() && text[pos] >= '0' &&
                   text[pos] <= '9')
                ++pos;
        }
        if (pos < text.size() &&
            (text[pos] == 'e' || text[pos] == 'E')) {
            ++pos;
            if (pos < text.size() &&
                (text[pos] == '+' || text[pos] == '-'))
                ++pos;
            if (pos >= text.size() ||
                !(text[pos] >= '0' && text[pos] <= '9'))
                return fail("malformed number");
            while (pos < text.size() && text[pos] >= '0' &&
                   text[pos] <= '9')
                ++pos;
        }
        const std::string word = text.substr(start, pos - start);
        const double value = std::strtod(word.c_str(), nullptr);
        if (!std::isfinite(value))
            return fail("number out of range");
        out = JsonValue::makeNumber(value);
        return Status::ok();
    }

    const std::string &text;
    size_t pos = 0;
};

} // namespace

Result<JsonValue>
parseJson(const std::string &text)
{
    return JsonParser(text).parse();
}

} // namespace rissp
