// Operator introspection channel, in the spirit of BIND's
// statistics-channel and unbound-control: a localhost-only TCP listener
// speaking a trivial line protocol. One command per line; the response
// is arbitrary text terminated by a line containing exactly "END", so
// `printf 'stats\n' | nc 127.0.0.1 PORT` and scripted probes both work.
// Errors come back as "ERROR: ..." followed by "END". "quit" closes the
// connection.
//
// The server owns nothing it reports on: built-in commands render the
// shared MetricsRegistry and drain the FlightRecorder, and the hosting
// binary registers domain commands (snapshot.info, health, explain ...)
// as closures. dispatch() is exposed directly so tests can drive every
// command without a socket.
//
// This is the cold path — handlers run on the admin thread and may
// allocate and lock freely; the only contact with the serve path is
// through the wait-free FlightRecorder rings and relaxed metric reads.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace eum::obs {

struct AdminServerConfig {
  /// TCP port on 127.0.0.1; 0 picks an ephemeral port (see port()).
  std::uint16_t port = 0;
  /// Registry behind the built-in `stats` / `metrics` commands (optional).
  MetricsRegistry* registry = nullptr;
  /// Recorder behind the built-in `traces` command (optional).
  FlightRecorder* recorder = nullptr;
  /// Accept/read poll granularity — bounds stop() latency.
  std::chrono::milliseconds poll_interval{50};
};

class AdminServer {
 public:
  /// Command handler: argv (argv[0] = command name) -> response text.
  /// A missing trailing newline is added; the END terminator is appended
  /// by the server. Throwing reports "ERROR: <what>" to the client.
  using Handler = std::function<std::string(const std::vector<std::string>&)>;

  explicit AdminServer(AdminServerConfig config = {});
  ~AdminServer();

  AdminServer(const AdminServer&) = delete;
  AdminServer& operator=(const AdminServer&) = delete;

  /// Register a command before start(); replaces any previous handler of
  /// the same name. `help_text` shows up in the built-in `help` output.
  void register_command(std::string name, std::string help_text, Handler handler);

  /// Resolve one command line to its response body (no END terminator).
  /// Used by the socket loop and directly by tests.
  [[nodiscard]] std::string dispatch(std::string_view line);

  /// Bind 127.0.0.1:port and serve on a background thread. Throws
  /// std::runtime_error when the socket can't be set up.
  void start();
  void stop();

  /// The bound port (resolved after start() when config port was 0).
  [[nodiscard]] std::uint16_t port() const noexcept { return bound_port_; }

 private:
  struct Command {
    std::string help;
    Handler handler;
  };

  void register_builtins();
  void serve_loop();
  void serve_connection(int client_fd);

  AdminServerConfig config_;
  std::map<std::string, Command> commands_;
  int listen_fd_ = -1;
  std::uint16_t bound_port_ = 0;
  std::atomic<bool> stopping_{false};
  std::thread thread_;
};

}  // namespace eum::obs
