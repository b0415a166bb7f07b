#include "net/rest.hh"

#include <algorithm>
#include <cmath>
#include <vector>

namespace rissp::net
{

namespace
{

/** Reject members outside @p verb's schema, naming the first
 *  offender. */
Status
checkFields(const JsonValue &body, Verb verb)
{
    for (const JsonValue::Member &member : body.members())
        if (!hasField(verb, member.first))
            return Status::errorf(ErrorCode::InvalidArgument,
                                  "unknown field '%s'",
                                  member.first.c_str());
    return Status::ok();
}

Status
wrongKind(const char *field, const JsonValue &value,
          const char *wanted)
{
    return Status::errorf(ErrorCode::InvalidArgument,
                          "field '%s' must be a %s, not a %s", field,
                          wanted, JsonValue::kindName(value.kind()));
}

Result<std::string>
stringField(const JsonValue &body, const char *name)
{
    const JsonValue *value = body.find(name);
    if (!value)
        return std::string();
    if (!value->isString())
        return wrongKind(name, *value, "string");
    return value->asString();
}

Result<bool>
boolField(const JsonValue &body, const char *name, bool fallback)
{
    const JsonValue *value = body.find(name);
    if (!value)
        return fallback;
    if (!value->isBool())
        return wrongKind(name, *value, "bool");
    return value->asBool();
}

Result<uint64_t>
countField(const JsonValue &body, const char *name,
           uint64_t fallback, uint64_t max)
{
    const JsonValue *value = body.find(name);
    if (!value)
        return fallback;
    if (!value->isNumber())
        return wrongKind(name, *value, "number");
    const double number = value->asNumber();
    if (number < 0 || number > static_cast<double>(max) ||
        number != std::floor(number))
        return Status::errorf(ErrorCode::InvalidArgument,
                              "field '%s' must be an integer in "
                              "[0, %llu]",
                              name,
                              static_cast<unsigned long long>(max));
    return static_cast<uint64_t>(number);
}

/** "workload" XOR "source" (+ "label") → SourceRef. */
Result<flow::SourceRef>
sourceFromJson(const JsonValue &body)
{
    const JsonValue *workload = body.find("workload");
    const JsonValue *source = body.find("source");
    if (workload && source)
        return Status::error(ErrorCode::InvalidArgument,
                             "give either 'workload' or 'source', "
                             "not both");
    if (workload) {
        if (!workload->isString())
            return wrongKind("workload", *workload, "string");
        return flow::SourceRef::bundled(workload->asString());
    }
    if (!source)
        return Status::error(ErrorCode::InvalidArgument,
                             "missing 'workload' or 'source'");
    if (!source->isString())
        return wrongKind("source", *source, "string");
    Result<std::string> label = stringField(body, "label");
    if (!label)
        return label.status();
    return flow::SourceRef::inlineText(
        source->asString(),
        label.value().empty() ? "<inline>" : label.take());
}

Result<minic::OptLevel>
optFromJson(const JsonValue &body)
{
    Result<std::string> word = stringField(body, "opt");
    if (!word)
        return word.status();
    const std::string &opt = word.value();
    if (opt.empty() || opt == "O2") return minic::OptLevel::O2;
    if (opt == "O0") return minic::OptLevel::O0;
    if (opt == "O1") return minic::OptLevel::O1;
    if (opt == "O3") return minic::OptLevel::O3;
    if (opt == "Oz") return minic::OptLevel::Oz;
    return Status::errorf(ErrorCode::InvalidArgument,
                          "field 'opt' must be one of O0, O1, O2, "
                          "O3, Oz, not '%s'",
                          opt.c_str());
}

/** A mnemonic array field → subset; nullopt when absent. */
Result<std::optional<InstrSubset>>
subsetField(const JsonValue &body, const char *name)
{
    const JsonValue *value = body.find(name);
    if (!value)
        return std::optional<InstrSubset>();
    if (!value->isArray())
        return wrongKind(name, *value, "array");
    std::vector<std::string> names;
    for (const JsonValue &item : value->items()) {
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
    return std::optional<InstrSubset>(subset.take());
}

Result<flow::Request>
characterizeFromJson(const JsonValue &body)
{
    Result<flow::SourceRef> source = sourceFromJson(body);
    if (!source)
        return source.status();
    Result<minic::OptLevel> opt = optFromJson(body);
    if (!opt)
        return opt.status();
    flow::CharacterizeRequest request;
    request.source = source.take();
    request.opt = opt.value();
    return flow::Request(std::move(request));
}

Result<flow::Request>
runFromJson(const JsonValue &body)
{
    Result<flow::SourceRef> source = sourceFromJson(body);
    if (!source)
        return source.status();
    Result<minic::OptLevel> opt = optFromJson(body);
    if (!opt)
        return opt.status();
    flow::RunRequest request;
    Result<bool> verify = boolField(body, "verify", request.verify);
    if (!verify)
        return verify.status();
    Result<uint64_t> maxSteps = countField(
        body, "max_steps", request.maxSteps, uint64_t{1} << 53);
    if (!maxSteps)
        return maxSteps.status();
    Result<std::optional<InstrSubset>> subset =
        subsetField(body, "subset");
    if (!subset)
        return subset.status();
    request.source = source.take();
    request.opt = opt.value();
    request.verify = verify.value();
    request.maxSteps = maxSteps.value();
    request.subsetOverride = subset.take();
    return flow::Request(std::move(request));
}

Result<flow::Request>
synthFromJson(const JsonValue &body)
{
    Result<flow::SourceRef> source = sourceFromJson(body);
    if (!source)
        return source.status();
    Result<minic::OptLevel> opt = optFromJson(body);
    if (!opt)
        return opt.status();
    flow::SynthRequest request;
    Result<std::string> name = stringField(body, "name");
    if (!name)
        return name.status();
    Result<std::string> tech = stringField(body, "tech");
    if (!tech)
        return tech.status();
    Result<bool> baselines =
        boolField(body, "baselines", request.baselines);
    if (!baselines)
        return baselines.status();
    Result<bool> physical =
        boolField(body, "physical", request.physical);
    if (!physical)
        return physical.status();
    Result<std::optional<InstrSubset>> subset =
        subsetField(body, "subset");
    if (!subset)
        return subset.status();
    request.source = source.take();
    request.opt = opt.value();
    if (!name.value().empty())
        request.name = name.take();
    if (!tech.value().empty()) {
        Result<explore::TechSpec> spec =
            explore::TechSpec::fromSpec(tech.value());
        if (!spec)
            return spec.status();
        request.tech = spec.take();
    }
    request.baselines = baselines.value();
    request.physical = physical.value();
    request.subsetOverride = subset.take();
    return flow::Request(std::move(request));
}

Result<flow::Request>
retargetFromJson(const JsonValue &body)
{
    Result<flow::SourceRef> source = sourceFromJson(body);
    if (!source)
        return source.status();
    Result<minic::OptLevel> opt = optFromJson(body);
    if (!opt)
        return opt.status();
    flow::RetargetRequest request;
    Result<uint64_t> maxSteps = countField(
        body, "max_steps", request.maxSteps, uint64_t{1} << 53);
    if (!maxSteps)
        return maxSteps.status();
    Result<bool> verify = boolField(body, "verify_equivalence",
                                    request.verifyEquivalence);
    if (!verify)
        return verify.status();
    Result<std::optional<InstrSubset>> target =
        subsetField(body, "target");
    if (!target)
        return target.status();
    request.source = source.take();
    request.opt = opt.value();
    request.maxSteps = maxSteps.value();
    request.verifyEquivalence = verify.value();
    request.target = target.take();
    return flow::Request(std::move(request));
}

Result<flow::Request>
exploreFromJson(const JsonValue &body)
{
    const JsonValue *plan = body.find("plan");
    if (!plan)
        return Status::error(ErrorCode::InvalidArgument,
                             "missing 'plan'");
    if (!plan->isString())
        return wrongKind("plan", *plan, "string");
    Result<uint64_t> threads =
        countField(body, "threads", 0, 4096);
    if (!threads)
        return threads.status();
    flow::ExploreRequest request;
    request.planText = plan->asString();
    request.options.threads =
        static_cast<unsigned>(threads.value());
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
    static const std::vector<std::string_view> fields[kVerbCount] = {
        {"workload", "source", "label", "opt"},
        {"workload", "source", "label", "opt", "verify", "max_steps",
         "subset"},
        {"workload", "source", "label", "opt", "name", "tech",
         "baselines", "physical", "subset"},
        {"workload", "source", "label", "opt", "target", "max_steps",
         "verify_equivalence"},
        {"plan", "threads"},
    };
    const std::vector<std::string_view> &names =
        fields[static_cast<size_t>(verb)];
    return std::find(names.begin(), names.end(), field) !=
           names.end();
}

Result<flow::Request>
requestFromJson(Verb verb, const JsonValue &body)
{
    if (!body.isObject())
        return Status::errorf(ErrorCode::InvalidArgument,
                              "request body must be a JSON object, "
                              "not a %s",
                              JsonValue::kindName(body.kind()));
    Status fields = checkFields(body, verb);
    if (!fields.isOk())
        return fields;
    switch (verb) {
      case Verb::Characterize: return characterizeFromJson(body);
      case Verb::Run: return runFromJson(body);
      case Verb::Synth: return synthFromJson(body);
      case Verb::Retarget: return retargetFromJson(body);
      case Verb::Explore: return exploreFromJson(body);
    }
    return Status::error(ErrorCode::Internal, "impossible verb");
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
