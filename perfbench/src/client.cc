#include "client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>

namespace perfbench {

LineClient::~LineClient() {
  if (fd_ >= 0) close(fd_);
}

bool LineClient::Connect(uint16_t port) {
  fd_ = socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) return false;
  const int one = 1;
  setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  return connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0;
}

bool LineClient::RoundTrip(const std::string& line, std::string* reply) {
  const std::string framed = line + "\n";
  size_t sent = 0;
  while (sent < framed.size()) {
    const ssize_t n = send(fd_, framed.data() + sent, framed.size() - sent, 0);
    if (n <= 0) return false;
    sent += static_cast<size_t>(n);
  }
  for (;;) {
    const size_t nl = buf_.find('\n');
    if (nl != std::string::npos) {
      reply->assign(buf_, 0, nl);
      buf_.erase(0, nl + 1);
      return true;
    }
    char chunk[4096];
    const ssize_t n = recv(fd_, chunk, sizeof(chunk), 0);
    if (n <= 0) return false;
    buf_.append(chunk, static_cast<size_t>(n));
  }
}

}  // namespace perfbench
