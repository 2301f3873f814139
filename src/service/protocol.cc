#include "service/protocol.h"

#include <cstdio>
#include <sstream>
#include <vector>

namespace vodak {
namespace service {

namespace {

/// Splits on single spaces; VQL text (the tail of a Q line) is never
/// split because callers stop tokenizing after the fixed prefix.
std::vector<std::string> SplitTokens(const std::string& line) {
  std::vector<std::string> tokens;
  std::istringstream in(line);
  std::string tok;
  while (in >> tok) tokens.push_back(tok);
  return tokens;
}

bool ParseDouble(const std::string& s, double* out) {
  char extra = 0;
  return std::sscanf(s.c_str(), "%lf%c", out, &extra) == 1;
}

bool ParseU64(const std::string& s, uint64_t* out) {
  char extra = 0;
  unsigned long long v = 0;
  if (std::sscanf(s.c_str(), "%llu%c", &v, &extra) != 1) return false;
  *out = static_cast<uint64_t>(v);
  return true;
}

std::string FormatMs(double ms) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", ms);
  return buf;
}

/// Parses one `key=value` token against an expected key.
bool TakeField(const std::string& token, const char* key,
               std::string* value) {
  const std::string prefix = std::string(key) + "=";
  if (token.compare(0, prefix.size(), prefix) != 0) return false;
  *value = token.substr(prefix.size());
  return true;
}

}  // namespace

Result<Request> ParseRequestLine(const std::string& line) {
  if (line.empty()) {
    return Status::InvalidArgument("empty request line");
  }
  Request req;
  switch (line[0]) {
    case 'S': {
      if (line.size() > 1 && line.find_first_not_of(" \t", 1) !=
                                 std::string::npos) {
        return Status::InvalidArgument("S takes no arguments");
      }
      req.kind = Request::Kind::kStats;
      return req;
    }
    case 'C': {
      auto tokens = SplitTokens(line);
      if (tokens.size() != 2) {
        return Status::InvalidArgument("expected: C <id>");
      }
      req.kind = Request::Kind::kCancel;
      req.id = tokens[1];
      return req;
    }
    case 'Q': {
      // Q <id> <deadline_ms> <vql...> — tokenize only the fixed
      // three-token prefix, the remainder is the VQL text verbatim.
      size_t pos = 1;
      auto next_token = [&](std::string* out) {
        while (pos < line.size() && line[pos] == ' ') ++pos;
        const size_t start = pos;
        while (pos < line.size() && line[pos] != ' ') ++pos;
        *out = line.substr(start, pos - start);
        return !out->empty();
      };
      std::string deadline_tok;
      if (!next_token(&req.id) || !next_token(&deadline_tok)) {
        return Status::InvalidArgument(
            "expected: Q <id> <deadline_ms> <vql>");
      }
      if (!ParseDouble(deadline_tok, &req.deadline_ms) ||
          req.deadline_ms < 0) {
        return Status::InvalidArgument("bad deadline_ms: " + deadline_tok);
      }
      while (pos < line.size() && line[pos] == ' ') ++pos;
      req.vql = line.substr(pos);
      if (req.vql.empty()) {
        return Status::InvalidArgument("empty query text");
      }
      req.kind = Request::Kind::kQuery;
      return req;
    }
    default:
      return Status::InvalidArgument("unknown request kind: " +
                                     line.substr(0, 1));
  }
}

std::string StatusToken(const Status& status) {
  switch (status.code()) {
    case StatusCode::kOk:
      return "OK";
    case StatusCode::kCancelled:
      return "CANCELLED";
    case StatusCode::kDeadlineExceeded:
      return "DEADLINE_EXCEEDED";
    default:
      return std::string("ERROR:") + StatusCodeName(status.code());
  }
}

uint64_t ResultDigest(const Value& value) {
  constexpr uint64_t kBasis = 1469598103934665603ull;
  constexpr uint64_t kPrime = 1099511628211ull;
  auto mix = [](uint64_t h, const std::string& s) {
    for (char c : s) {
      h ^= static_cast<unsigned char>(c);
      h *= kPrime;
    }
    // Separator byte so {"ab","c"} and {"a","bc"} digest differently.
    h ^= 0x1f;
    h *= kPrime;
    return h;
  };
  uint64_t h = kBasis;
  if (value.is_set()) {
    // Sets are canonical (sorted, deduplicated), so element order is
    // deterministic across threads and runs.
    for (const Value& v : value.AsSet()) h = mix(h, v.ToString());
  } else {
    h = mix(h, value.ToString());
  }
  return h;
}

std::string DigestHex(uint64_t digest) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(digest));
  return buf;
}

std::string FormatReplyLine(const std::string& id, const Status& status,
                            const Value* result,
                            const engine::QueryStats& stats) {
  std::string line = "R " + id + " " + StatusToken(status);
  if (status.ok()) {
    const size_t rows =
        (result != nullptr && result->is_set()) ? result->AsSet().size()
                                                : 1;
    const uint64_t digest =
        result != nullptr ? ResultDigest(*result) : 0;
    line += " rows=" + std::to_string(rows);
    line += " hash=" + DigestHex(digest);
  }
  line += " gen=" + std::to_string(stats.generation_id);
  line += std::string(" late=") + (stats.attached_late ? "1" : "0");
  line += " queue_ms=" + FormatMs(stats.queue_ms);
  line += " plan_ms=" + FormatMs(stats.plan_ms);
  line += " drain_ms=" + FormatMs(stats.drain_ms);
  if (!status.ok()) {
    // msg= is the final field: the message may contain spaces.
    line += " msg=" + status.message();
  }
  return line;
}

Result<Reply> ParseReplyLine(const std::string& line) {
  auto tokens = SplitTokens(line);
  if (tokens.size() < 3 || tokens[0] != "R") {
    return Status::InvalidArgument("not a reply line: " + line);
  }
  Reply reply;
  reply.id = tokens[1];
  reply.status = tokens[2];
  size_t i = 3;
  std::string v;
  if (reply.ok()) {
    if (i + 1 >= tokens.size() || !TakeField(tokens[i], "rows", &v) ||
        !ParseU64(v, &reply.rows) ||
        !TakeField(tokens[i + 1], "hash", &reply.hash)) {
      return Status::InvalidArgument("bad OK reply fields: " + line);
    }
    i += 2;
  }
  uint64_t late = 0;
  const bool stats_ok =
      i + 5 <= tokens.size() && TakeField(tokens[i], "gen", &v) &&
      ParseU64(v, &reply.stats.generation_id) &&
      TakeField(tokens[i + 1], "late", &v) && ParseU64(v, &late) &&
      TakeField(tokens[i + 2], "queue_ms", &v) &&
      ParseDouble(v, &reply.stats.queue_ms) &&
      TakeField(tokens[i + 3], "plan_ms", &v) &&
      ParseDouble(v, &reply.stats.plan_ms) &&
      TakeField(tokens[i + 4], "drain_ms", &v) &&
      ParseDouble(v, &reply.stats.drain_ms);
  if (!stats_ok) {
    return Status::InvalidArgument("bad reply stats fields: " + line);
  }
  reply.stats.attached_late = late != 0;
  if (!reply.ok()) {
    const size_t msg_pos = line.find(" msg=");
    if (msg_pos != std::string::npos) {
      reply.message = line.substr(msg_pos + 5);
    }
  }
  return reply;
}

namespace {

/// The `T` line's fields in wire order: FormatStatsLine writes and
/// ParseStatsLine requires exactly these, so the two cannot drift.
struct StatsField {
  const char* key;
  uint64_t ServiceStats::*member;
};
constexpr StatsField kStatsFields[] = {
    {"queries", &ServiceStats::queries_admitted},
    {"ok", &ServiceStats::queries_ok},
    {"cancelled", &ServiceStats::queries_cancelled},
    {"expired", &ServiceStats::queries_expired},
    {"failed", &ServiceStats::queries_failed},
    {"generations", &ServiceStats::generations},
    {"late", &ServiceStats::late_attached},
    {"extent_passes", &ServiceStats::extent_passes},
    {"property_reads", &ServiceStats::property_reads},
    {"plan_cache_hits", &ServiceStats::plan_cache_hits},
    {"plan_cache_misses", &ServiceStats::plan_cache_misses},
};
constexpr size_t kStatsFieldCount =
    sizeof(kStatsFields) / sizeof(kStatsFields[0]);

}  // namespace

std::string FormatStatsLine(const ServiceStats& stats) {
  std::string line = "T";
  for (const StatsField& field : kStatsFields) {
    line += ' ';
    line += field.key;
    line += '=';
    line += std::to_string(stats.*field.member);
  }
  return line;
}

Result<ServiceStats> ParseStatsLine(const std::string& line) {
  auto tokens = SplitTokens(line);
  if (tokens.size() != kStatsFieldCount + 1 || tokens[0] != "T") {
    return Status::InvalidArgument("not a stats line: " + line);
  }
  ServiceStats stats;
  for (size_t i = 0; i < kStatsFieldCount; ++i) {
    std::string v;
    if (!TakeField(tokens[i + 1], kStatsFields[i].key, &v) ||
        !ParseU64(v, &(stats.*kStatsFields[i].member))) {
      return Status::InvalidArgument("bad stats field: " + tokens[i + 1]);
    }
  }
  return stats;
}

}  // namespace service
}  // namespace vodak
