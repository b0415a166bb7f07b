/**
 * @file
 * Pins of the request codec (net/rest.hh), field by field.
 *
 * For every verb and every body field: the exact error a value of the
 * wrong kind or out of range gets, compared as the bytes the daemon
 * serves (`flow::toJson(status)`), and the request a valid value maps
 * to, compared by the response it dispatches to against a hand-built
 * typed request. Around that: the body-level rules (an object, no
 * unknown members, exactly one of "workload" and "source", explore's
 * required "plan") and the field schema `hasField` reports, which
 * `risspgen` uses to reject flags a verb does not take.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "flow/flow.hh"
#include "flow/json.hh"
#include "net/rest.hh"

namespace rissp::net
{
namespace
{

const Verb kSourceVerbs[] = {Verb::Characterize, Verb::Run, Verb::Synth,
                             Verb::Retarget};

const char *kProgram = "int main(void) { return 3; }";

/** What the daemon answers for @p body when the codec rejects it;
 *  "accepted" when the codec maps it onto a request. */
std::string
rejection(Verb verb, const std::string &body)
{
    const Result<flow::Request> request = requestFromBody(verb, body);
    return request.isOk() ? "accepted" : flow::toJson(request.status());
}

std::string
invalid(const std::string &message)
{
    return flow::toJson(
        Status::error(ErrorCode::InvalidArgument, message));
}

/** The typed request @p body maps to; fails the test if rejected. */
flow::Request
accepted(Verb verb, const std::string &body)
{
    Result<flow::Request> request = requestFromBody(verb, body);
    EXPECT_TRUE(request.isOk())
        << verbName(verb) << " " << body << ": "
        << request.status().toString();
    return request.isOk() ? request.take() : flow::Request();
}

/** One service for every acceptance case: each response here is a
 *  pure function of its request, so warm caches only save time. */
const flow::FlowService &
service()
{
    static const flow::FlowService instance;
    return instance;
}

/** @p body on @p verb must serve exactly what @p want serves. */
void
expectMapsTo(Verb verb, const std::string &body,
             const flow::Request &want)
{
    EXPECT_EQ(flow::toJson(service().dispatch(accepted(verb, body))),
              flow::toJson(service().dispatch(want)))
        << verbName(verb) << " " << body;
}

/** A hand-built request of @p verb's type on @p source at @p opt. */
flow::Request
sourced(Verb verb, flow::SourceRef source,
        minic::OptLevel opt = minic::OptLevel::O2)
{
    auto build = [&](auto request) -> flow::Request {
        request.source = std::move(source);
        request.opt = opt;
        return request;
    };
    switch (verb) {
      case Verb::Characterize:
        return build(flow::CharacterizeRequest());
      case Verb::Run: return build(flow::RunRequest());
      case Verb::Synth: return build(flow::SynthRequest());
      case Verb::Retarget: return build(flow::RetargetRequest());
      case Verb::Explore: break;
    }
    ADD_FAILURE() << "explore takes no source";
    return flow::Request();
}

// ------------------------------------------------------ body rules

TEST(RestCodec, BodyMustBeAnObject)
{
    for (size_t i = 0; i < kVerbCount; ++i) {
        const Verb verb = static_cast<Verb>(i);
        EXPECT_EQ(rejection(verb, "[]"),
                  invalid("request body must be a JSON object, not a "
                          "array"));
        EXPECT_EQ(rejection(verb, "5"),
                  invalid("request body must be a JSON object, not a "
                          "number"));
        EXPECT_EQ(rejection(verb, R"("crc32")"),
                  invalid("request body must be a JSON object, not a "
                          "string"));
    }
}

TEST(RestCodec, UnknownFieldsAreNamedBeforeAnyValueIsRead)
{
    for (Verb verb : kSourceVerbs) {
        EXPECT_EQ(rejection(verb, R"({"workload": "crc32", )"
                                  R"("verfy": true})"),
                  invalid("unknown field 'verfy'"));
        // The unknown member wins over a bad value ahead of it.
        EXPECT_EQ(rejection(verb, R"({"opt": 5, "bogus": 1})"),
                  invalid("unknown field 'bogus'"));
        EXPECT_EQ(rejection(verb, R"({"workload": "crc32", )"
                                  R"("plan": "x"})"),
                  invalid("unknown field 'plan'"));
    }
    EXPECT_EQ(rejection(Verb::Explore, R"({"plan": "x", )"
                                       R"("workload": "crc32"})"),
              invalid("unknown field 'workload'"));
    EXPECT_EQ(rejection(Verb::Characterize, R"({"workload": "crc32", )"
                                            R"("verify": true})"),
              invalid("unknown field 'verify'"));
}

TEST(RestCodec, ExactlyOneOfWorkloadAndSource)
{
    for (Verb verb : kSourceVerbs) {
        EXPECT_EQ(rejection(verb, R"({"workload": "crc32", )"
                                  R"("source": "int main"})"),
                  invalid("give either 'workload' or 'source', not "
                          "both"));
        EXPECT_EQ(rejection(verb, "{}"),
                  invalid("missing 'workload' or 'source'"));
        EXPECT_EQ(rejection(verb, R"({"label": "x.c"})"),
                  invalid("missing 'workload' or 'source'"));
    }
}

// ------------------------------------------ the shared source fields

TEST(RestCodec, WorkloadField)
{
    for (Verb verb : kSourceVerbs) {
        EXPECT_EQ(rejection(verb, R"({"workload": 5})"),
                  invalid("field 'workload' must be a string, not a "
                          "number"));
        // Names are resolved by the service, not the codec.
        expectMapsTo(verb, R"({"workload": "nope"})",
                     sourced(verb, flow::SourceRef::bundled("nope")));
        expectMapsTo(verb, R"({"workload": "crc32"})",
                     sourced(verb, flow::SourceRef::bundled("crc32")));
    }
}

TEST(RestCodec, SourceAndLabelFields)
{
    const std::string body =
        std::string(R"({"source": ")") + kProgram + R"(")";
    for (Verb verb : kSourceVerbs) {
        EXPECT_EQ(rejection(verb, R"({"source": ["x"]})"),
                  invalid("field 'source' must be a string, not a "
                          "array"));
        EXPECT_EQ(rejection(verb, body + R"(, "label": 5})"),
                  invalid("field 'label' must be a string, not a "
                          "number"));
        // Text that does not compile is the service's to diagnose.
        expectMapsTo(verb, R"({"source": "}{"})",
                     sourced(verb, flow::SourceRef::inlineText("}{")));
        expectMapsTo(
            verb, body + R"(, "label": "three.c"})",
            sourced(verb,
                    flow::SourceRef::inlineText(kProgram, "three.c")));
    }
    const flow::Request labelled = accepted(
        Verb::Characterize, body + R"(, "label": "three.c"})");
    EXPECT_EQ(std::get<flow::CharacterizeRequest>(labelled).source.label,
              "three.c");
    // An absent or empty label is the inline default.
    for (const std::string &unlabelled :
         {body + "}", body + R"(, "label": ""})"}) {
        const flow::Request request =
            accepted(Verb::Characterize, unlabelled);
        const flow::SourceRef &source =
            std::get<flow::CharacterizeRequest>(request).source;
        EXPECT_EQ(source.text, kProgram);
        EXPECT_EQ(source.label, "<inline>");
    }
}

TEST(RestCodec, OptField)
{
    for (Verb verb : kSourceVerbs) {
        EXPECT_EQ(rejection(verb, R"({"workload": "crc32", "opt": 2})"),
                  invalid("field 'opt' must be a string, not a "
                          "number"));
        EXPECT_EQ(
            rejection(verb, R"({"workload": "crc32", "opt": "O4"})"),
            invalid("field 'opt' must be one of O0, O1, O2, O3, Oz, "
                    "not 'O4'"));
        EXPECT_EQ(
            rejection(verb, R"({"workload": "crc32", "opt": "o1"})"),
            invalid("field 'opt' must be one of O0, O1, O2, O3, Oz, "
                    "not 'o1'"));
        expectMapsTo(verb, R"({"workload": "crc32", "opt": "O1"})",
                     sourced(verb, flow::SourceRef::bundled("crc32"),
                             minic::OptLevel::O1));
    }
    const struct
    {
        const char *word;
        minic::OptLevel level;
    } levels[] = {{"O0", minic::OptLevel::O0},
                  {"O1", minic::OptLevel::O1},
                  {"O2", minic::OptLevel::O2},
                  {"O3", minic::OptLevel::O3},
                  {"Oz", minic::OptLevel::Oz}};
    for (const auto &level : levels) {
        const flow::Request request = accepted(
            Verb::Characterize, std::string(R"({"workload": "crc32", )") +
                                    R"("opt": ")" + level.word + "\"}");
        EXPECT_EQ(std::get<flow::CharacterizeRequest>(request).opt,
                  level.level)
            << level.word;
    }
}

// Every present field is checked: "label" next to "workload" too,
// and an empty "opt" is a bad level, not an absent one.
TEST(RestCodec, EveryPresentFieldIsKindChecked)
{
    for (Verb verb : kSourceVerbs) {
        EXPECT_EQ(
            rejection(verb, R"({"workload": "crc32", "label": 5})"),
            invalid("field 'label' must be a string, not a number"));
        EXPECT_EQ(
            rejection(verb, R"({"workload": "crc32", "opt": ""})"),
            invalid("field 'opt' must be one of O0, O1, O2, O3, Oz, "
                    "not ''"));
    }
}

// ------------------------------------------------------ per verb

/** The rejections every mnemonic-array field shares. */
void
expectSubsetRejections(Verb verb, const std::string &field)
{
    const std::string prefix = R"({"workload": "crc32", ")" + field;
    EXPECT_EQ(rejection(verb, prefix + R"(": "add"})"),
              invalid("field '" + field +
                      "' must be a array, not a string"));
    EXPECT_EQ(rejection(verb, prefix + R"(": {}})"),
              invalid("field '" + field +
                      "' must be a array, not a object"));
    EXPECT_EQ(rejection(verb, prefix + R"(": ["add", 1]})"),
              invalid("field '" + field +
                      "' must hold mnemonic strings"));
    EXPECT_EQ(rejection(verb, prefix + R"(": ["add", "frob"]})"),
              invalid("unknown instruction 'frob' in subset spec"));
}

/** The rejections every count field shares. */
void
expectCountRejections(Verb verb, const std::string &prefix,
                      const std::string &field, const char *range)
{
    const std::string head = prefix + "\"" + field + "\": ";
    const std::string outOfRange =
        "field '" + field + "' must be an integer in " + range;
    EXPECT_EQ(rejection(verb, head + R"("10"})"),
              invalid("field '" + field +
                      "' must be a number, not a string"));
    EXPECT_EQ(rejection(verb, head + "-1}"), invalid(outOfRange));
    EXPECT_EQ(rejection(verb, head + "1.5}"), invalid(outOfRange));
    EXPECT_EQ(rejection(verb, head + "1e16}"), invalid(outOfRange));
}

TEST(RestCodec, RunFields)
{
    EXPECT_EQ(rejection(Verb::Run, R"({"workload": "crc32", )"
                                   R"("verify": "yes"})"),
              invalid("field 'verify' must be a bool, not a string"));
    expectCountRejections(Verb::Run, R"({"workload": "crc32", )",
                          "max_steps", "[0, 9007199254740992]");
    expectSubsetRejections(Verb::Run, "subset");

    flow::RunRequest want;
    want.source = flow::SourceRef::bundled("crc32");
    want.verify = true;
    expectMapsTo(Verb::Run, R"({"workload": "crc32", "verify": true})",
                 want);

    want = flow::RunRequest();
    want.source = flow::SourceRef::bundled("crc32");
    want.maxSteps = 5;
    expectMapsTo(Verb::Run, R"({"workload": "crc32", "max_steps": 5})",
                 want);

    want = flow::RunRequest();
    want.source = flow::SourceRef::bundled("crc32");
    want.subsetOverride = InstrSubset::fromNames({"addi", "jal"});
    expectMapsTo(Verb::Run, R"({"workload": "crc32", )"
                            R"("subset": ["addi", "jal"]})",
                 want);

    // Faults are reported in schema order, not body order.
    EXPECT_EQ(rejection(Verb::Run, R"({"verify": 1, "opt": "O9", )"
                                   R"("workload": "crc32"})"),
              invalid("field 'opt' must be one of O0, O1, O2, O3, Oz, "
                      "not 'O9'"));
}

TEST(RestCodec, SynthFields)
{
    const std::string crc = R"({"workload": "crc32", )";
    EXPECT_EQ(rejection(Verb::Synth, crc + R"("name": 1})"),
              invalid("field 'name' must be a string, not a number"));
    EXPECT_EQ(rejection(Verb::Synth, crc + R"("tech": true})"),
              invalid("field 'tech' must be a string, not a bool"));
    EXPECT_EQ(
        rejection(Verb::Synth, crc + R"("tech": "flexic-0.6um:x"})"),
        invalid("tech spec 'flexic-0.6um:x': override 'x' is not "
                "key=value"));
    EXPECT_EQ(rejection(Verb::Synth, crc + R"("tech": "nope"})"),
              flow::toJson(explore::TechSpec::fromSpec("nope").status()));
    EXPECT_EQ(rejection(Verb::Synth, crc + R"("baselines": "no"})"),
              invalid("field 'baselines' must be a bool, not a "
                      "string"));
    EXPECT_EQ(rejection(Verb::Synth, crc + R"("physical": 0})"),
              invalid("field 'physical' must be a bool, not a "
                      "number"));
    expectSubsetRejections(Verb::Synth, "subset");
    EXPECT_EQ(rejection(Verb::Synth, crc + R"("name": 1, "tech": 1})"),
              invalid("field 'name' must be a string, not a number"));

    auto base = [] {
        flow::SynthRequest request;
        request.source = flow::SourceRef::bundled("crc32");
        return request;
    };
    flow::SynthRequest want = base();
    want.name = "mine";
    expectMapsTo(Verb::Synth, crc + R"("name": "mine"})", want);
    // Empty strings keep the defaults.
    expectMapsTo(Verb::Synth, crc + R"("name": "", "tech": ""})",
                 base());

    want = base();
    want.tech = explore::TechSpec::fromSpec("silicon-65nm").take();
    expectMapsTo(Verb::Synth, crc + R"("tech": "silicon-65nm"})", want);

    want = base();
    want.baselines = false;
    expectMapsTo(Verb::Synth, crc + R"("baselines": false})", want);

    want = base();
    want.physical = false;
    expectMapsTo(Verb::Synth, crc + R"("physical": false})", want);

    want = base();
    want.subsetOverride =
        InstrSubset::fromNames({"add", "addi", "jal", "jalr"});
    expectMapsTo(Verb::Synth,
                 crc + R"("subset": ["add", "addi", "jal", "jalr"]})",
                 want);
}

TEST(RestCodec, RetargetFields)
{
    const std::string crc = R"({"workload": "crc32", )";
    expectSubsetRejections(Verb::Retarget, "target");
    expectCountRejections(Verb::Retarget, crc, "max_steps",
                          "[0, 9007199254740992]");
    EXPECT_EQ(rejection(Verb::Retarget,
                        crc + R"("verify_equivalence": "false"})"),
              invalid("field 'verify_equivalence' must be a bool, not "
                      "a string"));

    auto base = [] {
        flow::RetargetRequest request;
        request.source = flow::SourceRef::bundled("crc32");
        return request;
    };
    flow::RetargetRequest want = base();
    want.verifyEquivalence = false;
    expectMapsTo(Verb::Retarget, crc + R"("verify_equivalence": false})",
                 want);

    want = base();
    want.maxSteps = 1000;
    expectMapsTo(Verb::Retarget, crc + R"("max_steps": 1000})", want);

    // A target without the kernel ops is the service's to refuse.
    want = base();
    want.target = InstrSubset::fromNames({"addi", "jal"});
    expectMapsTo(Verb::Retarget, crc + R"("target": ["addi", "jal"]})",
                 want);

    want = base();
    want.target = InstrSubset::fromNames(
        {"addi", "add", "and", "xori", "sll", "sra", "jal", "jalr",
         "blt", "bltu", "lw", "sw", "sub", "srli"});
    expectMapsTo(Verb::Retarget,
                 crc + R"("target": ["addi", "add", "and", "xori", )"
                       R"("sll", "sra", "jal", "jalr", "blt", "bltu", )"
                       R"("lw", "sw", "sub", "srli"]})",
                 want);
}

TEST(RestCodec, ExploreFields)
{
    const char *plan = "workload crc32\\nsubset fit = @crc32\\n";
    const std::string body = std::string(R"({"plan": ")") + plan + "\"";
    EXPECT_EQ(rejection(Verb::Explore, R"({"plan": 1})"),
              invalid("field 'plan' must be a string, not a number"));
    EXPECT_EQ(rejection(Verb::Explore, "{}"), invalid("missing 'plan'"));
    EXPECT_EQ(rejection(Verb::Explore, R"({"threads": 2})"),
              invalid("missing 'plan'"));
    expectCountRejections(Verb::Explore, body + ", ", "threads",
                          "[0, 4096]");
    EXPECT_EQ(rejection(Verb::Explore, R"({"plan": 1, "threads": "x"})"),
              invalid("field 'plan' must be a string, not a number"));

    flow::ExploreRequest want;
    want.planText = "workload crc32\nsubset fit = @crc32\n";
    expectMapsTo(Verb::Explore, body + "}", want);
    want.options.threads = 2;
    expectMapsTo(Verb::Explore, body + R"(, "threads": 2})", want);
    const flow::Request threaded =
        accepted(Verb::Explore, body + R"(, "threads": 2})");
    EXPECT_EQ(std::get<flow::ExploreRequest>(threaded).options.threads,
              2u);

    // A plan that does not parse is the service's to diagnose.
    flow::ExploreRequest bad;
    bad.planText = "frobnicate\n";
    expectMapsTo(Verb::Explore, R"({"plan": "frobnicate\n"})", bad);
}

// ------------------------------------------------------ the schema

TEST(RestCodec, HasFieldIsTheServeTable)
{
    // docs/SERVE.md's "Request bodies" table, row by row.
    const struct
    {
        const char *field;
        std::vector<Verb> verbs;
    } rows[] = {
        {"workload", {kSourceVerbs, kSourceVerbs + 4}},
        {"source", {kSourceVerbs, kSourceVerbs + 4}},
        {"label", {kSourceVerbs, kSourceVerbs + 4}},
        {"opt", {kSourceVerbs, kSourceVerbs + 4}},
        {"verify", {Verb::Run}},
        {"max_steps", {Verb::Run, Verb::Retarget}},
        {"subset", {Verb::Run, Verb::Synth}},
        {"name", {Verb::Synth}},
        {"tech", {Verb::Synth}},
        {"baselines", {Verb::Synth}},
        {"physical", {Verb::Synth}},
        {"target", {Verb::Retarget}},
        {"verify_equivalence", {Verb::Retarget}},
        {"plan", {Verb::Explore}},
        {"threads", {Verb::Explore}},
    };
    for (const auto &row : rows) {
        for (size_t i = 0; i < kVerbCount; ++i) {
            const Verb verb = static_cast<Verb>(i);
            bool listed = false;
            for (Verb v : row.verbs)
                listed = listed || v == verb;
            EXPECT_EQ(hasField(verb, row.field), listed)
                << verbName(verb) << " " << row.field;
        }
    }
    for (size_t i = 0; i < kVerbCount; ++i) {
        EXPECT_FALSE(hasField(static_cast<Verb>(i), "verfy"));
        EXPECT_FALSE(hasField(static_cast<Verb>(i), ""));
    }
}

} // namespace
} // namespace rissp::net
