// Wire protocol of the query service: newline-framed text lines over a
// TCP stream, one request or reply per line (docs/ARCHITECTURE.md
// §"Query service & admission control"). Kept dependency-free on the
// socket layer so the same parse/format code serves the service,
// perfbench's socket clients and the tests (service_test's
// ClosedLoopClientsMatchOracleAndHitPlanCache drives K of them).
//
// Requests:
//   Q <id> <deadline_ms> <vql...>   submit; <id> is a client-chosen
//                                   token (no whitespace), deadline_ms
//                                   0 means none, measured from receipt
//   C <id>                          cancel the in-flight query <id>
//   S                               service stats snapshot
// Replies:
//   R <id> OK rows=<n> hash=<16 hex> gen=<g>
//       queue_ms=<f> plan_ms=<f> drain_ms=<f>
//   R <id> CANCELLED|DEADLINE_EXCEEDED|ERROR:<Code> gen=...
//       queue_ms=... plan_ms=... drain_ms=... msg=<rest of line>
//   T queries=... ok=... cancelled=... expired=... failed=...
//       generations=... late=0 extent_passes=... property_reads=...
//       plan_cache_hits=... plan_cache_misses=...
//   E <message>                     protocol-level error (malformed
//                                   line, duplicate in-flight id, or a
//                                   line over kMaxLineBytes, after
//                                   which the connection closes)
#ifndef VODAK_SERVICE_PROTOCOL_H_
#define VODAK_SERVICE_PROTOCOL_H_

#include <cstdint>
#include <string>

#include "common/result.h"
#include "engine/query_api.h"
#include "types/value.h"

namespace vodak {
namespace service {

/// Longest request line the service buffers, newline excluded. A longer
/// line gets one `E` reply and its connection is closed, so no client
/// can grow the process's memory by withholding the newline.
constexpr size_t kMaxLineBytes = size_t{1} << 20;

/// One parsed request line.
struct Request {
  enum class Kind { kQuery, kCancel, kStats };
  Kind kind = Kind::kQuery;
  /// Client-chosen request token (kQuery / kCancel).
  std::string id;
  /// kQuery: deadline in milliseconds from receipt; 0 means none.
  double deadline_ms = 0.0;
  /// kQuery: the VQL text (the rest of the line).
  std::string vql;
};

Result<Request> ParseRequestLine(const std::string& line);

/// One parsed reply line (the client half, used by the load harness
/// and the tests).
struct Reply {
  std::string id;
  /// "OK", "CANCELLED", "DEADLINE_EXCEEDED" or "ERROR:<Code>".
  std::string status;
  uint64_t rows = 0;
  /// 16-hex-digit ResultDigest (OK replies only).
  std::string hash;
  engine::QueryStats stats;
  std::string message;

  bool ok() const { return status == "OK"; }
};

Result<Reply> ParseReplyLine(const std::string& line);

/// Service-level counters, reported by the `S` command. Admission
/// counts queries that entered a generation; rejected arrivals land
/// directly in cancelled/expired/failed.
struct ServiceStats {
  uint64_t queries_admitted = 0;
  uint64_t queries_ok = 0;
  uint64_t queries_cancelled = 0;
  uint64_t queries_expired = 0;
  uint64_t queries_failed = 0;
  uint64_t generations = 0;
  /// Always 0: generations take no late members. Kept, with its `late`
  /// field on the `T` line, because perfbench still reads it.
  uint64_t late_attached = 0;
  /// Store-counter deltas accumulated over all generation drains.
  uint64_t extent_passes = 0;
  uint64_t property_reads = 0;  // lint: not-atomic
  /// Query lines whose plan came from / missed the plan cache. A miss
  /// plans; plan errors count as misses.
  uint64_t plan_cache_hits = 0;
  uint64_t plan_cache_misses = 0;
};

/// Formats / parses the `T ...` stats line.
std::string FormatStatsLine(const ServiceStats& stats);
Result<ServiceStats> ParseStatsLine(const std::string& line);

/// Status → wire token: OK / CANCELLED / DEADLINE_EXCEEDED /
/// ERROR:<CodeName>. The two terminal per-query outcomes get their own
/// tokens so clients can tell a trip deadline from a server fault.
std::string StatusToken(const Status& status);

/// Order-independent 64-bit FNV-1a digest of a result value set. Each
/// element contributes its kind and its raw key (an OID's 64 bits, an
/// INT's 8 bytes, a STRING's length and bytes; the ToString rendering
/// for other kinds). Value sets are canonical (sorted, deduplicated),
/// so equal results digest equally on any thread of any run — the
/// wire-size-friendly correctness check the load harness compares
/// against the row-mode oracle.
uint64_t ResultDigest(const Value& value);

/// `hash=` rendering of a digest: exactly 16 lowercase hex digits.
std::string DigestHex(uint64_t digest);

/// Formats one `R ...` reply line (no trailing newline). `result` may
/// be null for non-OK statuses.
std::string FormatReplyLine(const std::string& id, const Status& status,
                            const Value* result,
                            const engine::QueryStats& stats);

}  // namespace service
}  // namespace vodak

#endif  // VODAK_SERVICE_PROTOCOL_H_
