// prodb_server — the rule-engine server binary.
//
//   prodb_server --tcp_port=0 --db=/tmp/wm.db --wal --durable
//                --rules=program.ops --matcher=rete
//
// Prints one "LISTENING tcp=<port> unix=<path>" line on stdout once the
// listeners are open (test harnesses and the bench driver parse it),
// then serves until SIGINT/SIGTERM. --tcp_port=0 binds an ephemeral
// port; the printed line carries the resolved one.

#include <signal.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "net/server.h"

namespace {

bool ParseFlag(const char* arg, const char* name, std::string* value) {
  std::string prefix = std::string("--") + name + "=";
  if (std::strncmp(arg, prefix.c_str(), prefix.size()) != 0) return false;
  *value = arg + prefix.size();
  return true;
}

bool ParseBoolFlag(const char* arg, const char* name) {
  return std::string(arg) == std::string("--") + name;
}

int Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--tcp_port=N] [--tcp_host=H] [--unix=PATH]\n"
      "          [--db=PATH] [--open_existing] [--wal] [--durable]\n"
      "          [--rules=FILE] [--matcher=rete|rete-dbms|query|pattern]\n"
      "          [--shards=N] [--shard_threads=N] [--planner]\n"
      "          [--workers=N] [--frames=N] [--no_load]\n",
      argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  prodb::net::RuleServerOptions opts;
  std::string rules_path;
  std::string v;
  size_t shards = 0, shard_threads = 0;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (ParseFlag(a, "tcp_port", &v)) {
      opts.tcp_port = std::atoi(v.c_str());
    } else if (ParseFlag(a, "tcp_host", &v)) {
      opts.tcp_host = v;
    } else if (ParseFlag(a, "unix", &v)) {
      opts.unix_path = v;
    } else if (ParseFlag(a, "db", &v)) {
      opts.system.db_path = v;
      opts.system.wm_storage = prodb::StorageKind::kPaged;
    } else if (ParseBoolFlag(a, "open_existing")) {
      opts.system.open_existing = true;
    } else if (ParseBoolFlag(a, "wal")) {
      opts.system.enable_wal = true;
    } else if (ParseBoolFlag(a, "durable")) {
      opts.system.enable_wal = true;
      opts.system.durable_directory = true;
    } else if (ParseFlag(a, "rules", &v)) {
      rules_path = v;
    } else if (ParseFlag(a, "matcher", &v)) {
      if (v == "rete") {
        opts.system.matcher = prodb::MatcherKind::kRete;
      } else if (v == "rete-dbms") {
        opts.system.matcher = prodb::MatcherKind::kReteDbms;
      } else if (v == "query") {
        opts.system.matcher = prodb::MatcherKind::kQuery;
      } else if (v == "pattern") {
        opts.system.matcher = prodb::MatcherKind::kPattern;
      } else {
        return Usage(argv[0]);
      }
    } else if (ParseFlag(a, "shards", &v)) {
      shards = static_cast<size_t>(std::atoi(v.c_str()));
    } else if (ParseFlag(a, "shard_threads", &v)) {
      shard_threads = static_cast<size_t>(std::atoi(v.c_str()));
    } else if (ParseBoolFlag(a, "planner")) {
      opts.system.planner.enable = true;
    } else if (ParseFlag(a, "workers", &v)) {
      opts.system.workers = static_cast<size_t>(std::atoi(v.c_str()));
    } else if (ParseFlag(a, "frames", &v)) {
      opts.system.buffer_pool_frames =
          static_cast<size_t>(std::atoi(v.c_str()));
    } else if (ParseBoolFlag(a, "no_load")) {
      opts.allow_load = false;
    } else {
      return Usage(argv[0]);
    }
  }
  if (shards > 0) {
    opts.system.sharding.num_shards = shards;
    opts.system.sharding.threads =
        shard_threads > 0 ? shard_threads : shards;
  }
  if (!rules_path.empty()) {
    std::ifstream in(rules_path);
    if (!in) {
      std::fprintf(stderr, "cannot read rules file %s\n",
                   rules_path.c_str());
      return 1;
    }
    std::ostringstream ss;
    ss << in.rdbuf();
    opts.preload = ss.str();
  }

  const std::string unix_path = opts.unix_path;
  prodb::net::RuleServer server(std::move(opts));
  prodb::Status st = server.Start();
  if (!st.ok()) {
    std::fprintf(stderr, "server start failed: %s\n",
                 st.ToString().c_str());
    return 1;
  }
  std::printf("LISTENING tcp=%d unix=%s\n", server.tcp_port(),
              unix_path.c_str());
  std::fflush(stdout);

  sigset_t set;
  sigemptyset(&set);
  sigaddset(&set, SIGINT);
  sigaddset(&set, SIGTERM);
  pthread_sigmask(SIG_BLOCK, &set, nullptr);
  int sig = 0;
  sigwait(&set, &sig);
  server.Stop();
  return 0;
}
