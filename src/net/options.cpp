#include "net/options.hpp"

#include "common/error.hpp"
#include "common/parse.hpp"

namespace fastcons {

PeerAddress parse_peer_address(const std::string& spec) {
  const auto first = spec.find(':');
  const auto second = spec.rfind(':');
  if (first == std::string::npos || second == first) {
    throw ConfigError("bad --peer spec (want ID:HOST:PORT): " + spec);
  }
  const std::string id_text = spec.substr(0, first);
  const std::string host = spec.substr(first + 1, second - first - 1);
  const std::string port_text = spec.substr(second + 1);
  const auto id = parse_u64(id_text, kInvalidNode - 1);
  if (!id) {
    throw ConfigError("bad --peer id (want a replica number): " + spec);
  }
  if (host.empty()) {
    throw ConfigError("bad --peer host (empty): " + spec);
  }
  const auto port = parse_u64(port_text, 65535);
  if (!port || *port == 0) {
    throw ConfigError("bad --peer port (want 1..65535): " + spec);
  }
  PeerAddress peer;
  peer.id = static_cast<NodeId>(*id);
  peer.host = host;
  peer.port = static_cast<std::uint16_t>(*port);
  return peer;
}

std::optional<std::string> parse_daemon_args(
    const std::vector<std::string>& args, DaemonOptions& out) {
  bool have_id = false;
  bool have_port = false;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    const auto value = [&]() -> std::optional<std::string> {
      if (i + 1 >= args.size()) return std::nullopt;
      return args[++i];
    };
    const auto missing = [&] { return arg + " needs a value"; };
    if (arg == "--help" || arg == "-h") {
      return "help";
    } else if (arg == "--id") {
      const auto v = value();
      if (!v) return missing();
      const auto id = parse_u64(*v, kInvalidNode - 1);
      if (!id) return "bad --id (want a replica number): " + *v;
      out.server.self = static_cast<NodeId>(*id);
      have_id = true;
    } else if (arg == "--port") {
      const auto v = value();
      if (!v) return missing();
      const auto port = parse_u64(*v, 65535);
      if (!port) return "bad --port (want 0..65535): " + *v;
      out.server.listen_port = static_cast<std::uint16_t>(*port);
      have_port = true;
    } else if (arg == "--bind") {
      const auto v = value();
      if (!v) return missing();
      if (v->empty()) return "bad --bind (empty address)";
      out.server.bind_address = *v;
    } else if (arg == "--peer") {
      const auto v = value();
      if (!v) return missing();
      try {
        out.server.peers.push_back(parse_peer_address(*v));
      } catch (const ConfigError& e) {
        return e.what();
      }
    } else if (arg == "--demand") {
      const auto v = value();
      if (!v) return missing();
      const auto d = parse_double(*v);
      if (!d || *d < 0.0) return "bad --demand (want a number >= 0): " + *v;
      out.server.demand = *d;
    } else if (arg == "--algorithm") {
      const auto v = value();
      if (!v) return missing();
      const auto protocol = protocol_preset(*v);
      if (!protocol) {
        return "bad --algorithm (want fast|demand-order|weak): " + *v;
      }
      out.server.protocol = *protocol;
    } else if (arg == "--period-ms") {
      const auto v = value();
      if (!v) return missing();
      const auto p = parse_double(*v);
      if (!p || *p <= 0.0) return "bad --period-ms (want > 0): " + *v;
      out.period_ms = *p;
    } else if (arg == "--write") {
      const auto v = value();
      if (!v) return missing();
      const auto eq = v->find('=');
      if (eq == std::string::npos) return "bad --write (want KEY=VALUE): " + *v;
      out.writes.emplace_back(v->substr(0, eq), v->substr(eq + 1));
    } else if (arg == "--run-seconds") {
      const auto v = value();
      if (!v) return missing();
      const auto s = parse_double(*v);
      if (!s || *s < 0.0) return "bad --run-seconds (want >= 0): " + *v;
      out.run_seconds = *s;
    } else if (arg == "--load-writes-per-sec") {
      const auto v = value();
      if (!v) return missing();
      const auto r = parse_double(*v);
      if (!r || *r <= 0.0) return "bad --load-writes-per-sec (want > 0): " + *v;
      out.load_writes_per_sec = *r;
    } else if (arg == "--load-seconds") {
      const auto v = value();
      if (!v) return missing();
      const auto s = parse_double(*v);
      if (!s || *s <= 0.0) return "bad --load-seconds (want > 0): " + *v;
      out.load_seconds = *s;
    } else if (arg == "--data-dir") {
      const auto v = value();
      if (!v) return missing();
      if (v->empty()) return "bad --data-dir (empty path)";
      out.server.durability.dir = *v;
    } else if (arg == "--fsync") {
      const auto v = value();
      if (!v) return missing();
      if (*v == "none") {
        out.server.durability.fsync = FsyncPolicy::none;
      } else if (*v == "always") {
        out.server.durability.fsync = FsyncPolicy::always;
      } else {
        return "bad --fsync (want none|always): " + *v;
      }
    } else if (arg == "--checkpoint-every") {
      const auto v = value();
      if (!v) return missing();
      const auto n = parse_u64(*v, std::uint64_t{1} << 32);
      if (!n) return "bad --checkpoint-every (want a record count): " + *v;
      out.server.durability.checkpoint_every = *n;
    } else if (arg == "--verbose") {
      out.verbose = true;
    } else {
      return "unknown argument '" + arg + "'";
    }
  }
  if (!have_id) return "--id is required";
  if (!have_port) return "--port is required";
  if ((out.load_writes_per_sec > 0.0) != (out.load_seconds > 0.0)) {
    return "--load-writes-per-sec and --load-seconds go together";
  }
  out.server.seconds_per_unit = out.period_ms / 1000.0;
  return std::nullopt;
}

}  // namespace fastcons
