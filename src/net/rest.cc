#include "net/rest.hh"

#include <cmath>
#include <initializer_list>
#include <vector>

namespace rissp::net
{

namespace
{

/** A field present in a body: its name, for diagnostics, and its
 *  value. Each reader checks the value and stores it in @p out. */
struct Present
{
    const char *name;
    const JsonValue &value;

    Status
    wrongKind(const char *wanted) const
    {
        return Status::errorf(ErrorCode::InvalidArgument,
                              "field '%s' must be a %s, not a %s", name,
                              wanted, JsonValue::kindName(value.kind()));
    }

    Status
    read(std::string &out) const
    {
        if (!value.isString())
            return wrongKind("string");
        out = value.asString();
        return Status::ok();
    }

    /** A string whose empty value keeps @p out's default. */
    Status
    readNonEmpty(std::string &out) const
    {
        if (!value.isString())
            return wrongKind("string");
        if (!value.asString().empty())
            out = value.asString();
        return Status::ok();
    }

    Status
    read(bool &out) const
    {
        if (!value.isBool())
            return wrongKind("bool");
        out = value.asBool();
        return Status::ok();
    }

    template <typename Count>
    Status
    readCount(uint64_t max, Count &out) const
    {
        if (!value.isNumber())
            return wrongKind("number");
        const double number = value.asNumber();
        if (number < 0 || number > static_cast<double>(max) ||
            number != std::floor(number))
            return Status::errorf(ErrorCode::InvalidArgument,
                                  "field '%s' must be an integer in "
                                  "[0, %llu]",
                                  name,
                                  static_cast<unsigned long long>(max));
        out = static_cast<Count>(number);
        return Status::ok();
    }

    Status
    read(minic::OptLevel &out) const
    {
        if (!value.isString())
            return wrongKind("string");
        const std::string &opt = value.asString();
        if (opt == "O0") out = minic::OptLevel::O0;
        else if (opt == "O1") out = minic::OptLevel::O1;
        else if (opt == "O2") out = minic::OptLevel::O2;
        else if (opt == "O3") out = minic::OptLevel::O3;
        else if (opt == "Oz") out = minic::OptLevel::Oz;
        else
            return Status::errorf(ErrorCode::InvalidArgument,
                                  "field '%s' must be one of O0, O1, "
                                  "O2, O3, Oz, not '%s'",
                                  name, opt.c_str());
        return Status::ok();
    }

    /** A mnemonic array → subset. */
    Status
    read(std::optional<InstrSubset> &out) const
    {
        if (!value.isArray())
            return wrongKind("array");
        std::vector<std::string> names;
        for (const JsonValue &item : value.items()) {
            if (!item.isString())
                return Status::errorf(ErrorCode::InvalidArgument,
                                      "field '%s' must hold mnemonic "
                                      "strings",
                                      name);
            names.push_back(item.asString());
        }
        Result<InstrSubset> subset = InstrSubset::tryFromNames(names);
        if (!subset)
            return subset.status();
        out = subset.take();
        return Status::ok();
    }

    /** A tech spec; empty keeps the default technology. */
    Status
    read(explore::TechSpec &out) const
    {
        std::string spec;
        const Status status = readNonEmpty(spec);
        if (!status || spec.empty())
            return status;
        Result<explore::TechSpec> parsed =
            explore::TechSpec::fromSpec(spec);
        if (!parsed)
            return parsed.status();
        out = parsed.take();
        return Status::ok();
    }
};

/** One row of a verb's table: a body field, how a present value is
 *  applied to the request under construction, and whether it is one
 *  of the alternatives of which a body gives exactly one. */
template <typename Req>
struct Field
{
    const char *name;
    Status (*apply)(const Present &field, Req &request);
    bool oneOf = false;
};

template <typename Req>
using Fields = std::vector<Field<Req>>;

constexpr uint64_t kMaxSteps = uint64_t{1} << 53;

/** The rows the four source verbs share, then @p rows. */
template <typename Req>
Fields<Req>
sourceFields(std::initializer_list<Field<Req>> rows)
{
    Fields<Req> fields = {
        {"workload",
         [](auto &f, auto &r) { return f.read(r.source.workload); }, true},
        {"source", [](auto &f, auto &r) { return f.read(r.source.text); },
         true},
        {"label",
         [](auto &f, auto &r) { return f.readNonEmpty(r.source.label); }},
        {"opt", [](auto &f, auto &r) { return f.read(r.opt); }},
    };
    fields.insert(fields.end(), rows);
    return fields;
}

/** The request schema: one field table per verb, in the order the
 *  fields are applied (and their faults reported). */
struct Schema
{
    Fields<flow::CharacterizeRequest> characterize =
        sourceFields<flow::CharacterizeRequest>({});

    Fields<flow::RunRequest> run = sourceFields<flow::RunRequest>({
        {"verify", [](auto &f, auto &r) { return f.read(r.verify); }},
        {"max_steps",
         [](auto &f, auto &r) { return f.readCount(kMaxSteps, r.maxSteps); }},
        {"subset", [](auto &f, auto &r) { return f.read(r.subsetOverride); }},
    });

    Fields<flow::SynthRequest> synth = sourceFields<flow::SynthRequest>({
        {"name", [](auto &f, auto &r) { return f.readNonEmpty(r.name); }},
        {"tech", [](auto &f, auto &r) { return f.read(r.tech); }},
        {"baselines", [](auto &f, auto &r) { return f.read(r.baselines); }},
        {"physical", [](auto &f, auto &r) { return f.read(r.physical); }},
        {"subset", [](auto &f, auto &r) { return f.read(r.subsetOverride); }},
    });

    Fields<flow::RetargetRequest> retarget =
        sourceFields<flow::RetargetRequest>({
            {"max_steps",
             [](auto &f, auto &r) {
                 return f.readCount(kMaxSteps, r.maxSteps);
             }},
            {"verify_equivalence",
             [](auto &f, auto &r) { return f.read(r.verifyEquivalence); }},
            {"target", [](auto &f, auto &r) { return f.read(r.target); }},
        });

    Fields<flow::ExploreRequest> explore = {
        {"plan", [](auto &f, auto &r) { return f.read(r.planText); }, true},
        {"threads",
         [](auto &f, auto &r) {
             return f.readCount(4096, r.options.threads);
         }},
    };
};

const Schema &
schema()
{
    static const Schema tables;
    return tables;
}

/** Call @p visit with @p verb's field table. */
template <typename Visit>
auto
withFields(Verb verb, Visit &&visit)
{
    const Schema &tables = schema();
    switch (verb) {
      case Verb::Characterize: return visit(tables.characterize);
      case Verb::Run: return visit(tables.run);
      case Verb::Synth: return visit(tables.synth);
      case Verb::Retarget: return visit(tables.retarget);
      case Verb::Explore: break;
    }
    return visit(tables.explore);
}

template <typename Req>
bool
names(const Fields<Req> &fields, std::string_view name)
{
    for (const Field<Req> &field : fields)
        if (name == field.name)
            return true;
    return false;
}

/** Map @p body through @p fields: reject a member no row names,
 *  apply the present fields in row order, then require exactly one
 *  of the oneOf rows. The first fault in that order is reported. */
template <typename Req>
Result<flow::Request>
parseFields(const Fields<Req> &fields, const JsonValue &body)
{
    for (const JsonValue::Member &member : body.members())
        if (!names(fields, member.first))
            return Status::errorf(ErrorCode::InvalidArgument,
                                  "unknown field '%s'",
                                  member.first.c_str());
    Req request;
    const char *given = nullptr; // the first oneOf field present
    const char *also = nullptr;  // a second one
    for (const Field<Req> &field : fields) {
        const JsonValue *value = body.find(field.name);
        if (!value)
            continue;
        const Status applied = field.apply({field.name, *value}, request);
        if (!applied)
            return applied;
        if (field.oneOf && given)
            also = field.name;
        else if (field.oneOf)
            given = field.name;
    }
    if (also)
        return Status::errorf(ErrorCode::InvalidArgument,
                              "give either '%s' or '%s', not both",
                              given, also);
    if (!given) {
        std::string choices;
        for (const Field<Req> &field : fields)
            if (field.oneOf)
                choices += (choices.empty() ? "'" : " or '") +
                           std::string(field.name) + "'";
        return Status::error(ErrorCode::InvalidArgument,
                             "missing " + choices);
    }
    return flow::Request(std::move(request));
}

} // namespace

const char *
verbName(Verb verb)
{
    switch (verb) {
      case Verb::Characterize: return "characterize";
      case Verb::Run: return "run";
      case Verb::Synth: return "synth";
      case Verb::Retarget: return "retarget";
      case Verb::Explore: return "explore";
    }
    return "unknown";
}

Result<Verb>
verbFromName(const std::string &name)
{
    for (size_t i = 0; i < kVerbCount; ++i) {
        const Verb verb = static_cast<Verb>(i);
        if (name == verbName(verb))
            return verb;
    }
    return Status::errorf(ErrorCode::InvalidArgument,
                          "unknown verb '%s' (characterize, run, "
                          "synth, retarget, explore)",
                          name.c_str());
}

bool
hasField(Verb verb, std::string_view field)
{
    return withFields(
        verb, [field](const auto &fields) { return names(fields, field); });
}

Result<flow::Request>
requestFromJson(Verb verb, const JsonValue &body)
{
    if (!body.isObject())
        return Status::errorf(ErrorCode::InvalidArgument,
                              "request body must be a JSON object, "
                              "not a %s",
                              JsonValue::kindName(body.kind()));
    return withFields(verb, [&body](const auto &fields) {
        return parseFields(fields, body);
    });
}

Result<flow::Request>
requestFromBody(Verb verb, const std::string &body)
{
    Result<JsonValue> parsed = parseJson(body);
    if (!parsed)
        return parsed.status();
    return requestFromJson(verb, parsed.value());
}

int
httpStatusFor(const Status &status)
{
    switch (status.code()) {
      case ErrorCode::Ok: return 200;
      case ErrorCode::InvalidArgument:
      case ErrorCode::ParseError:
      case ErrorCode::CompileError:
      case ErrorCode::AsmError: return 400;
      case ErrorCode::NotFound: return 404;
      case ErrorCode::Trap:
      case ErrorCode::StepLimit:
      case ErrorCode::CosimMismatch:
      case ErrorCode::RetargetError:
      case ErrorCode::SynthError: return 422;
      case ErrorCode::Unavailable: return 429;
      case ErrorCode::Internal: return 500;
    }
    return 500;
}

} // namespace rissp::net
