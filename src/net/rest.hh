/**
 * @file
 * The request codec: the one mapping from user input to a typed
 * `flow::Request`, plus the status-code mapping of the responses.
 *
 * Every front end spells a request as the same small JSON object:
 * the serve daemon reads it from the HTTP body, and `risspgen` lowers
 * its command-line words — one-shot verbs and batch-file lines alike
 * — onto it before calling `requestFromJson`. The response body is
 * `flow::toJson(...)` *verbatim*, so `risspgen <verb> --json` prints
 * byte for byte what the daemon serves for the same request. The
 * socket loop in net/server.cc owns nothing schema-shaped.
 *
 * Per-verb fields (all optional unless noted), with the `risspgen`
 * words that lower onto them:
 *
 *   field                verbs        risspgen words
 *   "workload": name     all but      `@name`
 *                        explore
 *   "source": MiniC      all but      a file path (read at the CLI
 *   + "label": string    explore      edge; the label is the path)
 *   "opt": "O0".."O3"/   all but      `-O0` .. `-O3`, `-Oz`
 *          "Oz"          explore
 *   "verify": bool       run          `--verify`
 *   "max_steps": number  run,         —
 *                        retarget
 *   "subset": [mnemonics] run, synth  — (run/synth on this subset)
 *   "name": string       synth        —
 *   "tech": spec string  synth        `--tech <spec>`
 *   "baselines": bool    synth        —
 *   "physical": bool     synth        —
 *   "target": [mnemonics] retarget    —
 *   "verify_equivalence" retarget     —
 *     : bool
 *   "plan": plan text    explore      a plan file path (required)
 *   "threads": number    explore      —
 *
 * Exactly one of "workload" and "source" is required outside
 * explore. Unknown fields are rejected with InvalidArgument naming
 * the field: a client typo ("verfy") must never silently change
 * behavior.
 */

#ifndef RISSP_NET_REST_HH
#define RISSP_NET_REST_HH

#include <string>
#include <string_view>

#include "flow/flow.hh"
#include "util/json.hh"
#include "util/status.hh"

namespace rissp::net
{

/** The five verbs, as they appear in /api/v1/<verb> targets. */
enum class Verb : uint8_t
{
    Characterize,
    Run,
    Synth,
    Retarget,
    Explore,
};

constexpr size_t kVerbCount = 5;

/** Wire name of a verb ("characterize", ...). */
const char *verbName(Verb verb);

/** Parse a wire name; InvalidArgument on anything else. */
Result<Verb> verbFromName(const std::string &name);

/** Whether @p field is in @p verb's body schema (the table above). */
bool hasField(Verb verb, std::string_view field);

/** Build the typed request for @p verb from a parsed JSON body —
 *  the one place a `flow::Request` is built from user input. */
Result<flow::Request> requestFromJson(Verb verb,
                                      const JsonValue &body);

/** Convenience: parse @p body as JSON, then map it. */
Result<flow::Request> requestFromBody(Verb verb,
                                      const std::string &body);

/**
 * The HTTP status code a response status maps onto. Client-side
 * problems (bad fields, unknown workloads, sources that don't
 * compile) are 4xx; pipeline outcomes on a well-formed request
 * (trap, cosim mismatch, impossible corner) are 422; shed load is
 * 429; internal invariants surfaced as values are 500.
 */
int httpStatusFor(const Status &status);

} // namespace rissp::net

#endif // RISSP_NET_REST_HH
