/**
 * @file
 * The request codec: the one mapping from user input to a typed
 * `flow::Request`, plus the status-code mapping of the responses.
 *
 * Every front end spells a request as the same small JSON object:
 * the serve daemon reads it from the HTTP body, and `risspgen` lowers
 * its command-line words — one-shot verbs and batch-file lines alike
 * — onto it before calling `requestFromJson`, as `rissp-explore` does
 * its plan and --threads. The response body is
 * `flow::toJson(...)` *verbatim*, so `risspgen <verb> --json` prints
 * byte for byte what the daemon serves for the same request. The
 * socket loop in net/server.cc owns nothing schema-shaped.
 *
 * The schema is the per-verb field tables in net/rest.cc, one row per
 * body field: its name and how its value is checked and applied.
 * The codec rejects a member no row names (a client typo like
 * "verfy" must never silently change behavior), applies the present
 * fields in row order — the first fault in that order is the one
 * reported — and then requires exactly one of "workload" and
 * "source" (explore: "plan"). docs/SERVE.md lists the fields with
 * the `risspgen` words that lower onto them.
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

/** Whether @p field is in @p verb's body schema (its field table). */
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
