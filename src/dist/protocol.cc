#include "dist/protocol.h"

#include <arpa/inet.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "runner/report.h"
#include "sim/checksum.h"

namespace pert::dist {

using runner::JsonValue;

std::string frame_message(const JsonValue& msg) {
  std::string payload = msg.dump();  // compact: contains no newline
  std::string out = std::to_string(payload.size());
  out.reserve(out.size() + payload.size() + 11);
  out += ' ';
  out += sim::crc_hex8(sim::crc32(payload));
  out += ' ';
  out += payload;
  out += '\n';
  return out;
}

void FrameReader::feed(std::string_view data) {
  // Periodically drop the consumed prefix so the buffer doesn't grow
  // unboundedly across a long stream of small frames.
  if (pos_ > 4096 && pos_ >= buf_.size() / 2) {
    buf_.erase(0, pos_);
    pos_ = 0;
  }
  buf_.append(data);
}

std::optional<JsonValue> FrameReader::next() {
  // Parse the "<len> " prefix.
  std::size_t p = pos_;
  std::size_t len = 0;
  bool any_digit = false;
  while (p < buf_.size()) {
    const char c = buf_[p];
    if (c >= '0' && c <= '9') {
      len = len * 10 + static_cast<std::size_t>(c - '0');
      if (len > kMaxFramePayload)
        throw std::runtime_error("frame length " + std::to_string(len) +
                                 " exceeds limit");
      any_digit = true;
      ++p;
      continue;
    }
    if (c == ' ' && any_digit) break;
    throw std::runtime_error("malformed frame prefix");
  }
  if (p >= buf_.size()) {
    if (!any_digit && p > pos_) throw std::runtime_error("malformed frame");
    return std::nullopt;  // prefix incomplete
  }
  ++p;  // consume the space
  // Parse the "<crc32-hex8> " checksum field.
  if (buf_.size() - p < 9) return std::nullopt;  // checksum incomplete
  const std::optional<std::uint32_t> want_crc =
      sim::parse_crc_hex8(std::string_view(buf_).substr(p, 8));
  if (!want_crc || buf_[p + 8] != ' ')
    throw std::runtime_error("malformed frame checksum field");
  p += 9;
  if (buf_.size() - p < len + 1) return std::nullopt;  // payload incomplete
  const std::string_view payload(buf_.data() + p, len);
  if (buf_[p + len] != '\n')
    throw std::runtime_error("frame payload not newline-terminated");
  if (sim::crc32(payload) != *want_crc)
    throw std::runtime_error(
        "frame checksum mismatch: payload corrupted in transit");
  pos_ = p + len + 1;
  try {
    return JsonValue::parse(payload);
  } catch (const std::exception& e) {
    throw std::runtime_error(std::string("malformed frame payload: ") +
                             e.what());
  }
}

std::string_view message_type(const JsonValue& msg) {
  const JsonValue* t = msg.find("type");
  return t && t->is_string() ? std::string_view(t->as_string())
                             : std::string_view();
}

namespace {

JsonValue typed(const char* type) {
  JsonValue::Object o;
  o.emplace_back("type", JsonValue(type));
  return JsonValue(std::move(o));
}

[[noreturn]] void bad_message(const char* what) {
  throw std::runtime_error(std::string("malformed message: ") + what);
}

}  // namespace

JsonValue make_hello(const HelloMsg& h) {
  JsonValue msg = typed("hello");
  msg.set("v", JsonValue(h.version));
  msg.set("name", JsonValue(h.name));
  msg.set("cells", JsonValue(h.cells));
  msg.set("grid", JsonValue(h.grid));
  msg.set("worker", JsonValue(h.worker));
  return msg;
}

HelloMsg parse_hello(const JsonValue& msg) {
  const JsonValue* name = msg.find("name");
  const JsonValue* cells = msg.find("cells");
  const JsonValue* grid = msg.find("grid");
  if (!name || !name->is_string() || !cells || !cells->is_uint() || !grid ||
      !grid->is_uint())
    bad_message("hello requires name/cells/grid");
  HelloMsg h;
  // Absent `v` means the pre-versioning protocol; report it as revision 1 so
  // the coordinator's reject can name the skew instead of guessing.
  h.version = 1;
  if (const JsonValue* v = msg.find("v"); v && v->is_uint())
    h.version = v->as_uint();
  h.name = name->as_string();
  h.cells = cells->as_uint();
  h.grid = grid->as_uint();
  if (const JsonValue* w = msg.find("worker"); w && w->is_string())
    h.worker = w->as_string();
  return h;
}

JsonValue make_welcome(const WelcomeMsg& w) {
  JsonValue msg = typed("welcome");
  msg.set("v", JsonValue(w.version));
  msg.set("done", JsonValue(w.done));
  msg.set("heartbeat_ms", JsonValue(w.heartbeat_ms));
  return msg;
}

WelcomeMsg parse_welcome(const JsonValue& msg) {
  WelcomeMsg w;
  w.version = 1;
  if (const JsonValue* v = msg.find("v"); v && v->is_uint())
    w.version = v->as_uint();
  if (const JsonValue* d = msg.find("done"); d && d->is_uint())
    w.done = d->as_uint();
  if (const JsonValue* hb = msg.find("heartbeat_ms"); hb && hb->is_uint())
    w.heartbeat_ms = hb->as_uint();
  return w;
}

JsonValue make_reject(std::string_view error) {
  JsonValue msg = typed("reject");
  msg.set("error", JsonValue(std::string(error)));
  return msg;
}

JsonValue make_request() { return typed("request"); }

JsonValue make_heartbeat() { return typed("heartbeat"); }

JsonValue make_ack(std::uint64_t cell) {
  JsonValue msg = typed("ack");
  msg.set("cell", JsonValue(cell));
  return msg;
}

std::uint64_t parse_ack(const JsonValue& msg) {
  const JsonValue* cell = msg.find("cell");
  if (!cell || !cell->is_uint()) bad_message("ack requires cell");
  return cell->as_uint();
}

JsonValue make_assign(const std::vector<std::uint64_t>& cells) {
  JsonValue msg = typed("assign");
  JsonValue::Array arr;
  arr.reserve(cells.size());
  for (std::uint64_t c : cells) arr.push_back(JsonValue(c));
  msg.set("cells", JsonValue(std::move(arr)));
  return msg;
}

std::vector<std::uint64_t> parse_assign(const JsonValue& msg) {
  const JsonValue* cells = msg.find("cells");
  if (!cells || !cells->is_array()) bad_message("assign requires cells[]");
  std::vector<std::uint64_t> out;
  out.reserve(cells->as_array().size());
  for (const JsonValue& c : cells->as_array()) {
    if (!c.is_uint()) bad_message("assign cell indices must be integers");
    out.push_back(c.as_uint());
  }
  return out;
}

JsonValue make_wait(std::uint64_t ms) {
  JsonValue msg = typed("wait");
  msg.set("ms", JsonValue(ms));
  return msg;
}

JsonValue make_drain() { return typed("drain"); }

JsonValue make_result(const runner::JobResult& r) {
  JsonValue msg = typed("result");
  msg.set("record", runner::to_json(r));
  return msg;
}

runner::JobResult parse_result(const JsonValue& msg) {
  const JsonValue* rec = msg.find("record");
  if (!rec || !rec->is_object()) bad_message("result requires record{}");
  return runner::result_from_json(*rec);
}

JsonValue make_bye() { return typed("bye"); }

// --- sockets -----------------------------------------------------------

namespace {

[[noreturn]] void fail_errno(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

}  // namespace

int dial(const std::string& address) {
  const std::size_t colon = address.find_last_of(':');
  if (colon == std::string::npos || colon + 1 >= address.size())
    throw std::runtime_error("bad address \"" + address +
                             "\" (expected host:port)");
  const std::string host = address.substr(0, colon);
  const std::string port = address.substr(colon + 1);

  addrinfo hints{};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* res = nullptr;
  const int rc = ::getaddrinfo(host.c_str(), port.c_str(), &hints, &res);
  if (rc != 0)
    throw std::runtime_error("cannot resolve " + address + ": " +
                             ::gai_strerror(rc));
  int fd = -1;
  std::string err = "no addresses for " + address;
  for (addrinfo* ai = res; ai != nullptr; ai = ai->ai_next) {
    fd = ::socket(ai->ai_family, ai->ai_socktype | SOCK_CLOEXEC,
                  ai->ai_protocol);
    if (fd < 0) continue;
    if (::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0) break;
    err = "cannot connect to " + address + ": " + std::strerror(errno);
    ::close(fd);
    fd = -1;
  }
  ::freeaddrinfo(res);
  if (fd < 0) throw std::runtime_error(err);
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return fd;
}

int listen_on(const std::string& host, std::uint16_t port,
              std::uint16_t* bound_port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) fail_errno("socket");
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (host.empty() || host == "0.0.0.0") {
    addr.sin_addr.s_addr = htonl(INADDR_ANY);
  } else if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    throw std::runtime_error("bad listen host \"" + host +
                             "\" (expected an IPv4 address)");
  }
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    fail_errno("bind " + host + ":" + std::to_string(port));
  }
  if (::listen(fd, 64) != 0) {
    ::close(fd);
    fail_errno("listen");
  }
  if (bound_port != nullptr) {
    sockaddr_in got{};
    socklen_t len = sizeof got;
    if (::getsockname(fd, reinterpret_cast<sockaddr*>(&got), &len) != 0) {
      ::close(fd);
      fail_errno("getsockname");
    }
    *bound_port = ntohs(got.sin_port);
  }
  return fd;
}

void send_all(int fd, std::string_view data) {
  std::size_t off = 0;
  while (off < data.size()) {
    // MSG_NOSIGNAL: a vanished peer surfaces as EPIPE, not a fatal SIGPIPE.
    const ::ssize_t n = ::send(fd, data.data() + off, data.size() - off,
                               MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      fail_errno("send");
    }
    off += static_cast<std::size_t>(n);
  }
}

std::optional<JsonValue> recv_message(int fd, FrameReader& reader) {
  for (;;) {
    if (auto msg = reader.next()) return msg;
    char buf[4096];
    const ::ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      fail_errno("recv");
    }
    if (n == 0) {
      if (reader.buffered() > 0)
        throw std::runtime_error("connection closed mid-frame");
      return std::nullopt;
    }
    reader.feed(std::string_view(buf, static_cast<std::size_t>(n)));
  }
}

}  // namespace pert::dist
