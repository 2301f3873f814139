// A blocking loopback client for the query service's line protocol
// (service/protocol.h): one request line out, one reply line back.
#ifndef PERFBENCH_CLIENT_H_
#define PERFBENCH_CLIENT_H_

#include <cstdint>
#include <string>

namespace perfbench {

class LineClient {
 public:
  LineClient() = default;
  LineClient(const LineClient&) = delete;
  LineClient& operator=(const LineClient&) = delete;
  ~LineClient();

  bool Connect(uint16_t port);
  /// Sends `line` plus a newline and reads one reply line into `reply`.
  /// False when the connection fails either way.
  bool RoundTrip(const std::string& line, std::string* reply);

 private:
  int fd_ = -1;
  std::string buf_;
};

}  // namespace perfbench

#endif  // PERFBENCH_CLIENT_H_
