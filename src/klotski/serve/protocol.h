// Wire protocol of the Klotski plan service ("klotski.serve.v1").
//
// Transport: a POSIX stream socket carrying newline-delimited JSON — one
// request document per line, one response document per line, in order.
// There is deliberately no framing beyond '\n' and no external dependency:
// the in-tree JSON layer is the only serialization machinery, and a human
// can drive the daemon with `nc -U` for debugging.
//
// Request:  {"id": "...", "method": "...", "params": {...}}
//   id      optional client-chosen tag, echoed verbatim in the response
//   method  ping | stats | metrics | plan | audit | chaos | replan | whatif
//           | submit | poll | wait | cancel
//   params  method-specific object (see README "Plan service")
//
// Response: {"id": "...", "status": "...", "cached": bool,
//            "error": "...", "result": {...}}
//   status  "ok"         — result holds the method's payload
//           "error"      — error holds a diagnostic; result absent. Carries
//                          the request's id whenever the line parsed as a
//                          request
//           "overloaded" — admission control rejected the request (queue
//                          full); retry with backoff. Never silently queued,
//                          and never the answer to a plan cache hit, which
//                          needs no worker.
//           "draining"   — the daemon is shutting down and no longer
//                          admits work requests
//   cached  true when the result was served from the content-addressed
//           plan cache (or coalesced onto another in-flight computation)
//           rather than a fresh planner run
#pragma once

#include <string>

#include "klotski/json/json.h"

namespace klotski::serve {

inline constexpr const char* kProtocolSchema = "klotski.serve.v1";

struct Request {
  std::string id;      // optional; echoed back
  std::string method;  // validated by the service, not the parser
  json::Value params;  // object; empty object when omitted

  json::Value to_json() const;
};

/// Parses one request line. Throws std::invalid_argument (or
/// json::JsonError) on malformed input — the server turns that into a
/// status:"error" response rather than dropping the connection.
Request parse_request(const std::string& line);

struct Response {
  std::string id;
  std::string status = "ok";  // ok | error | overloaded | draining
  bool cached = false;
  std::string error;
  json::Value result;  // null unless status == "ok"

  bool ok() const { return status == "ok"; }

  json::Value to_json() const;
  /// Compact single-line serialization plus the terminating '\n'.
  std::string to_line() const;

  static Response parse(const std::string& line);

  static Response make_ok(const std::string& id, json::Value result,
                          bool cached = false);
  static Response make_error(const std::string& id, const std::string& error);
  static Response make_status(const std::string& id,
                              const std::string& status);
};

}  // namespace klotski::serve
