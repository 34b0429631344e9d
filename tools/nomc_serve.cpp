// nomc-serve — the campaign service daemon.
//
// Listens on a Unix-domain socket for line-delimited JSON requests from
// nomc-campaign clients (and anything else speaking the protocol in
// docs/service.md): campaign submissions, status/cache counters, point
// queries, and streamed CSV exports. Submitted specs are canonicalized and
// hashed; points already present in the per-spec JSONL store are served from
// the result cache, only the missing ones are simulated — so the stores it
// writes are byte-identical to local `nomc-campaign run` ones.
//
// A submit simulates its missing points on the server thread, through one
// pool of --jobs × --point-jobs threads shared by the trials of all of them;
// other clients are answered once it returns.
//
//   nomc-serve --socket /tmp/nomc.sock --data-dir campaigns --point-jobs 4
//   nomc-campaign submit fig01.campaign --server /tmp/nomc.sock
#include <cstdio>
#include <string>

#include "cli/args.hpp"
#include "cli/options.hpp"
#include "svc/server.hpp"

int main(int argc, char** argv) {
  using namespace nomc;

  cli::ArgParser args;
  args.add_string("socket", "nomc.sock", "Unix-domain socket path to listen on");
  args.add_string("data-dir", "nomc-campaigns",
                  "directory for campaign stores and sidecars (created if missing)");
  args.add_int("jobs", 1,
               "pool threads = jobs x point-jobs, shared by the trials of all missing "
               "points (0 = all)");
  args.add_int("point-jobs", 1, "pool threads = jobs x point-jobs (0 = all)");
  args.add_int("trial-workers", 1, "worker threads inside each trial (0 = all)");
  args.add_flag("quiet", "suppress per-point progress lines");
  if (const auto exit_code = cli::parse_standard(args, argc, argv, "nomc-serve")) {
    return *exit_code;
  }

  svc::ServerConfig config;
  config.socket_path = args.get_string("socket");
  config.data_dir = args.get_string("data-dir");
  config.jobs = args.get_int("jobs");
  config.point_jobs = args.get_int("point-jobs");
  config.trial_workers = args.get_int("trial-workers");
  config.quiet = args.get_flag("quiet");

  svc::Server server;
  std::string error;
  if (!server.open(config, error)) {
    std::fprintf(stderr, "nomc-serve: %s\n", error.c_str());
    return 1;
  }
  if (!config.quiet) {
    std::printf("nomc-serve: listening on %s, data in %s/\n", config.socket_path.c_str(),
                config.data_dir.c_str());
    std::fflush(stdout);
  }
  if (!server.run(error)) {
    std::fprintf(stderr, "nomc-serve: %s\n", error.c_str());
    return 1;
  }
  if (!config.quiet) {
    std::printf("nomc-serve: shutdown (%llu submission(s), %llu point(s) computed, "
                "%llu cache hit(s))\n",
                static_cast<unsigned long long>(server.submissions()),
                static_cast<unsigned long long>(server.computed()),
                static_cast<unsigned long long>(server.cache_hits()));
  }
  return 0;
}
