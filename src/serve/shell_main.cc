// gea_shell — interactive client for the GEA query service.
//
//   gea_shell --port=PORT [--deadline-ms=N]
//
// Reads one command per line from stdin and prints responses to stdout
// (errors to stderr), so it works identically at a terminal and under
// redirection in tests/scripts. Commands:
//
//   login <user> <password> [user|admin]
//   sql <query...>            rest of the line is the SQL text
//   <op> [key=value ...]      any protocol command, e.g.:
//                             aggregate enum=Brain out=Brain_SUMY
//   \timing [on|off]          print the server's per-stage latency
//                             breakdown after each command
//   \stats [view]             fetch a gea_stat_* view (default
//                             gea_stat_requests) via get_table;
//                             gea_stat_transactions shows MVCC epochs,
//                             pinned readers and group-commit batching
//   \role                     server role (primary/replica/router) + detail
//   \lag                      replication lag (the gea_stat_replication view)
//   \shards                   shard fan-out of a router (the `shards` op)
//   help | quit
//
// Tables render through rel::Table::ToText; a non-OK response prints
// "ERROR <code>: <message>" and the shell keeps going. Exit status is 0
// unless the connection could not be established or was lost.

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/status.h"
#include "serve/client.h"

namespace {

using gea::serve::QueryClient;
using gea::serve::Response;

void PrintHelp() {
  std::cout << "commands:\n"
               "  login <user> <password> [user|admin]\n"
               "  sql <query...>\n"
               "  <op> [key=value ...]   (ping, tables, explain, aggregate,\n"
               "                          populate, diff, top_gap, mine,\n"
               "                          checkpoint, ...)\n"
               "  \\timing [on|off]       server stage breakdown per command\n"
               "  \\stats [view]          show a gea_stat_* view (default\n"
               "                          gea_stat_requests; try\n"
               "                          gea_stat_transactions for MVCC\n"
               "                          epochs + group commit)\n"
               "  \\role                  server role + replication detail\n"
               "  \\lag                   the gea_stat_replication view\n"
               "  \\shards                shard fan-out (routers only)\n"
               "  help, quit\n";
}

void PrintTiming(const QueryClient& client) {
  const std::optional<gea::serve::StageBreakdown>& timing =
      client.LastTiming();
  if (!timing.has_value()) return;
  auto ms = [](uint64_t nanos) { return static_cast<double>(nanos) / 1e6; };
  char line[384];
  std::snprintf(line, sizeof(line),
                "Time: %.3f ms (decode %.3f, queue %.3f, execute %.3f, "
                "lock-wait %.3f, wal-append %.3f, wal-fsync %.3f, "
                "encode %.3f)\n",
                ms(timing->TotalNanos()), ms(timing->decode_nanos),
                ms(timing->queue_nanos), ms(timing->execute_nanos),
                ms(timing->lock_wait_nanos), ms(timing->wal_append_nanos),
                ms(timing->wal_fsync_nanos), ms(timing->encode_nanos));
  std::cout << line;
  // A request that materializes nothing reports no memory line.
  if (timing->alloc_bytes > 0 || timing->peak_bytes > 0) {
    std::snprintf(line, sizeof(line),
                  "Memory: %llu bytes allocated, %llu peak\n",
                  static_cast<unsigned long long>(timing->alloc_bytes),
                  static_cast<unsigned long long>(timing->peak_bytes));
    std::cout << line;
  }
}

void PrintResponse(const Response& response) {
  if (!response.ok()) {
    std::cout << "ERROR " << gea::StatusCodeName(response.code) << ": "
              << response.message << "\n";
    return;
  }
  if (response.table.has_value()) {
    std::cout << response.table->ToText(/*max_rows=*/50);
    std::cout << "(" << response.table->NumRows() << " rows)\n";
  }
  if (!response.text.empty()) std::cout << response.text << "\n";
  if (!response.table.has_value() && response.text.empty()) {
    std::cout << "ok\n";
  }
}

}  // namespace

int main(int argc, char** argv) {
  int port = 0;
  uint32_t deadline_ms = 0;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--port=", 7) == 0) {
      port = std::atoi(arg + 7);
    } else if (std::strncmp(arg, "--deadline-ms=", 14) == 0) {
      deadline_ms = static_cast<uint32_t>(std::atoi(arg + 14));
    } else {
      std::cerr << "usage: gea_shell --port=PORT [--deadline-ms=N]\n";
      return 2;
    }
  }
  if (port <= 0) {
    std::cerr << "gea_shell: --port=PORT is required\n";
    return 2;
  }

  QueryClient client;
  client.SetDeadlineMs(deadline_ms);
  if (gea::Status status = client.Connect(port); !status.ok()) {
    std::cerr << "gea_shell: " << status.ToString() << "\n";
    return 1;
  }

  const bool interactive = isatty(fileno(stdin)) != 0;
  if (interactive) {
    std::cout << "connected to 127.0.0.1:" << port
              << " — type 'help' for commands\n";
  }

  std::string line;
  while (true) {
    if (interactive) std::cout << "gea> " << std::flush;
    if (!std::getline(std::cin, line)) break;

    std::istringstream in(line);
    std::string op;
    in >> op;
    if (op.empty()) continue;
    if (op == "quit" || op == "exit") break;
    if (op == "help") {
      PrintHelp();
      continue;
    }
    if (op == "\\timing") {
      std::string mode;
      in >> mode;
      if (mode.empty()) {
        client.SetTracing(!client.Tracing());
      } else if (mode == "on") {
        client.SetTracing(true);
      } else if (mode == "off") {
        client.SetTracing(false);
      } else {
        std::cout << "ERROR InvalidArgument: \\timing [on|off]\n";
        continue;
      }
      std::cout << "Timing is " << (client.Tracing() ? "on" : "off") << ".\n";
      continue;
    }

    std::map<std::string, std::string> params;
    if (op == "\\role") {
      op = "role";
    } else if (op == "\\shards") {
      op = "shards";
    } else if (op == "\\lag") {
      // Sugar like \stats: the replication view is an ordinary stat table.
      op = "get_table";
      params["name"] = "gea_stat_replication";
    } else if (op == "\\stats") {
      // Sugar over get_table: the stat views are ordinary computed
      // tables, so the server path is identical to any table fetch.
      std::string view;
      in >> view;
      op = "get_table";
      params["name"] = view.empty() ? "gea_stat_requests" : view;
    } else if (op == "sql") {
      std::string query;
      std::getline(in, query);
      const size_t start = query.find_first_not_of(' ');
      if (start == std::string::npos) {
        std::cout << "ERROR InvalidArgument: sql needs a query\n";
        continue;
      }
      params["query"] = query.substr(start);
    } else if (op == "login") {
      std::string user, password, level;
      in >> user >> password >> level;
      if (user.empty() || password.empty()) {
        std::cout << "ERROR InvalidArgument: login <user> <password> "
                     "[user|admin]\n";
        continue;
      }
      params["user"] = user;
      params["password"] = password;
      if (!level.empty()) params["level"] = level;
    } else {
      std::string pair;
      bool bad = false;
      while (in >> pair) {
        const size_t eq = pair.find('=');
        if (eq == std::string::npos || eq == 0) {
          std::cout << "ERROR InvalidArgument: expected key=value, got '"
                    << pair << "'\n";
          bad = true;
          break;
        }
        params[pair.substr(0, eq)] = pair.substr(eq + 1);
      }
      if (bad) continue;
    }

    gea::Result<Response> response = client.Call(op, std::move(params));
    if (!response.ok()) {
      std::cerr << "gea_shell: connection lost: "
                << response.status().ToString() << "\n";
      return 1;
    }
    PrintResponse(*response);
    if (client.Tracing()) PrintTiming(client);
  }
  return 0;
}
