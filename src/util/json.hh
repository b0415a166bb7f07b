/**
 * @file
 * Minimal JSON helpers shared by the report emitters
 * (explore::ResultTable, flow::toJson) and the network front end.
 *
 * Emission stays hand-built — the output formats are small and
 * fixed, and byte-stable output across runs matters more than a DOM.
 * Parsing (`parseJson`) does build a small DOM: the HTTP endpoint
 * receives request bodies from untrusted clients, so the parser
 * returns every syntax problem as a `Status` value (never throws,
 * never aborts) and bounds its recursion depth.
 */

#ifndef RISSP_UTIL_JSON_HH
#define RISSP_UTIL_JSON_HH

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/status.hh"

namespace rissp
{

/** Escape for inclusion inside a JSON string literal. */
std::string jsonEscape(const std::string &s);

/** Shortest round-trip form of a double, so emitted files compare
 *  byte-for-byte across runs and thread counts. Non-finite values
 *  emit "null" — JSON has no nan/inf literals. */
std::string jsonNum(double value);

/** "true"/"false". */
inline const char *
jsonBool(bool value)
{
    return value ? "true" : "false";
}

/**
 * A parsed JSON value. Object member order is preserved (it carries
 * no meaning, but it keeps diagnostics deterministic); duplicate
 * keys are a parse error, so `find` is unambiguous.
 */
class JsonValue
{
  public:
    enum class Kind : uint8_t
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object,
    };

    using Member = std::pair<std::string, JsonValue>;

    Kind kind() const { return valueKind; }
    bool isNull() const { return valueKind == Kind::Null; }
    bool isBool() const { return valueKind == Kind::Bool; }
    bool isNumber() const { return valueKind == Kind::Number; }
    bool isString() const { return valueKind == Kind::String; }
    bool isArray() const { return valueKind == Kind::Array; }
    bool isObject() const { return valueKind == Kind::Object; }

    /** Accessors panic() on a kind mismatch — callers check first
     *  (the REST layer turns mismatches into InvalidArgument before
     *  ever touching these). */
    bool asBool() const;
    double asNumber() const;
    const std::string &asString() const;
    const std::vector<JsonValue> &items() const;
    const std::vector<Member> &members() const;

    /** Object member by key; nullptr when absent (or not an
     *  object). */
    const JsonValue *find(std::string_view key) const;

    /** Human name of a kind, for diagnostics ("string", ...). */
    static const char *kindName(Kind kind);

    static JsonValue makeNull();
    static JsonValue makeBool(bool value);
    static JsonValue makeNumber(double value);
    static JsonValue makeString(std::string value);
    static JsonValue makeArray(std::vector<JsonValue> items);
    static JsonValue makeObject(std::vector<Member> members);

  private:
    Kind valueKind = Kind::Null;
    bool boolValue = false;
    double numberValue = 0;
    std::string stringValue;
    std::vector<JsonValue> arrayItems;
    std::vector<Member> objectMembers;
};

/**
 * Parse one JSON document (trailing whitespace allowed, trailing
 * garbage is an error). Untrusted input: every problem — bad
 * escapes, duplicate keys, nesting deeper than 64 levels, numbers
 * out of double range — comes back as a ParseError Status with the
 * byte offset where parsing stopped.
 */
Result<JsonValue> parseJson(const std::string &text);

} // namespace rissp

#endif // RISSP_UTIL_JSON_HH
