// cmpserve: the CMP prediction-serving daemon.
//
//   cmptool compile --tree model.txt --out model.cmpb
//   cmpserve --model iris=model.cmpb --port 0 --port-file /tmp/port
//   printf 'predict iris 5.1,3.5,1.4,0.2\n' | nc 127.0.0.1 $(cat /tmp/port)
//
// Exit codes follow the cmptool contract: 0 ok, 2 bad arguments,
// 3 I/O or socket failure.

#include <csignal>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "common/cpu_features.h"
#include "common/net.h"
#include "serve/server.h"

namespace {

constexpr int kExitOk = 0;
constexpr int kExitBadArgs = 2;
constexpr int kExitIo = 3;

volatile std::sig_atomic_t g_signal = 0;

void OnSignal(int sig) { g_signal = sig; }

int Usage() {
  std::cerr
      << "usage: cmpserve --model NAME=PATH.cmpb [--model NAME2=PATH2 ...]\n"
         "                [--port P] [--unix PATH] [--threads N] [--batch-rows R]\n"
         "                [--port-file FILE] [--kernel auto|scalar|avx2]\n"
         "\n"
         "Serves predictions for compiled .cmpb models over a local TCP\n"
         "(default, port 0 = ephemeral) or UNIX socket. Line protocol:\n"
         "  predict <model> <csv-row> | predictp ... | batch <model> <n>\n"
         "  swap <model> <path.cmpb> | stats | quit\n"
         "Pipelined requests are answered in order.\n"
         "\n"
         "--batch-rows caps one scoring batch (default 256). Rows score as\n"
         "soon as a pool thread is free and only wait while every one is\n"
         "busy.\n"
         "\n"
         "--kernel pins the ISA tier of the batch traversal kernels\n"
         "(default auto-detects; predictions are identical across tiers).\n"
         "The tier actually serving is reported as kernel_isa in stats.\n";
  return kExitBadArgs;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::pair<std::string, std::string>> models;
  cmp::ServeOptions opts;
  std::string port_file;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--model") {
      const char* v = value();
      if (v == nullptr) return Usage();
      const char* eq = std::strchr(v, '=');
      if (eq == nullptr || eq == v || eq[1] == '\0') {
        std::cerr << "--model wants NAME=PATH, got '" << v << "'\n";
        return Usage();
      }
      models.emplace_back(std::string(v, eq), std::string(eq + 1));
    } else if (arg == "--port") {
      const char* v = value();
      if (v == nullptr) return Usage();
      opts.port = std::atoi(v);
    } else if (arg == "--unix") {
      const char* v = value();
      if (v == nullptr) return Usage();
      opts.unix_path = v;
    } else if (arg == "--threads") {
      const char* v = value();
      if (v == nullptr) return Usage();
      opts.num_threads = std::atoi(v);
    } else if (arg == "--batch-rows") {
      const char* v = value();
      if (v == nullptr) return Usage();
      opts.batch.max_rows = std::atoi(v);
    } else if (arg == "--port-file") {
      const char* v = value();
      if (v == nullptr) return Usage();
      port_file = v;
    } else if (arg == "--kernel") {
      const char* v = value();
      if (v == nullptr) return Usage();
      std::string kernel_error;
      if (!cmp::SelectKernelIsaByName(v, &kernel_error)) {
        std::cerr << kernel_error << "\n";
        return Usage();
      }
    } else {
      std::cerr << "unknown flag " << arg << "\n";
      return Usage();
    }
  }
  if (models.empty()) {
    std::cerr << "at least one --model NAME=PATH.cmpb is required\n";
    return Usage();
  }
  if (opts.batch.max_rows < 1 ||
      opts.port < 0 || opts.port > 65535) {
    return Usage();
  }

  cmp::ServeDaemon daemon(opts);
  for (const auto& [name, path] : models) {
    std::string error;
    if (daemon.registry().PublishFromFile(name, path, &error) == 0) {
      std::cerr << "cannot serve " << name << " from " << path << ": "
                << error << "\n";
      return kExitIo;
    }
  }

  std::string error;
  if (!daemon.Start(&error)) {
    std::cerr << "cmpserve: " << error << "\n";
    return kExitIo;
  }
  if (!opts.unix_path.empty()) {
    std::cerr << "cmpserve listening on " << opts.unix_path << "\n";
  } else {
    std::cerr << "cmpserve listening on " << opts.host << ":" << daemon.port()
              << "\n";
  }
  if (!port_file.empty() && !cmp::WritePortFile(port_file, daemon.port())) {
    std::cerr << "cannot write " << port_file << "\n";
    return kExitIo;
  }

  std::signal(SIGINT, OnSignal);
  std::signal(SIGTERM, OnSignal);
  // Poll between short waits so a signal (whose handler may not touch
  // locks) still turns into a prompt, orderly shutdown.
  while (g_signal == 0 && !daemon.WaitFor(/*timeout_ms=*/200)) {
  }
  daemon.Shutdown();
  std::cerr << "cmpserve: " << daemon.stats().ToJson() << "\n";
  return kExitOk;
}
