// nomc-campaign — declarative experiment-campaign driver.
//
// Expands a plain-text campaign spec (see docs/campaigns.md) into its sweep
// grid, runs every point through the parallel trial runner, and checkpoints
// completed points into a versioned JSONL result store, so an interrupted
// campaign resumes without recomputing — byte-identically, at any --jobs.
//
// With --server it turns into a client of a running nomc-serve: submit ships
// the spec over the socket (already-computed points come from the server's
// result cache), status/query/export read the server's stores. Without
// --server the same commands work against local files (docs/service.md).
//
//   nomc-campaign run examples/campaigns/fig01_cfd.campaign --jobs 0
//   nomc-campaign resume examples/campaigns/fig01_cfd.campaign
//   nomc-campaign list examples/campaigns/fig01_cfd.campaign
//   nomc-campaign export-csv fig01_cfd.jsonl --out fig01_cfd.csv
//   nomc-campaign compare fig19_zigbee_vs_dcn.jsonl 0 1
//   nomc-campaign submit examples/campaigns/fig01_cfd.campaign --server nomc.sock
#include <charconv>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "cli/args.hpp"
#include "cli/options.hpp"
#include "exp/campaign.hpp"
#include "exp/result_store.hpp"
#include "exp/spec.hpp"
#include "exp/store_index.hpp"
#include "stats/summary.hpp"
#include "stats/table.hpp"
#include "svc/client.hpp"

namespace {

using namespace nomc;

int usage(std::FILE* out) {
  std::fputs(
      "usage: nomc-campaign <command> <file> [options]\n"
      "\n"
      "commands:\n"
      "  run <spec.campaign>         run the campaign into a fresh JSONL store\n"
      "  resume <spec.campaign>      continue an interrupted campaign\n"
      "  list <spec.campaign>        show the sweep grid and completion status\n"
      "  export-csv <store.jsonl>    convert a result store to long-format CSV\n"
      "  compare <store> <a> <b>     points a, b: overall pps mean +- 95% CI, and\n"
      "                              b's gain over a, paired by trial seed\n"
      "  submit <spec.campaign>      run via the campaign service (--server), or\n"
      "                              locally with resume semantics without it\n"
      "  status <spec|hash>          campaign progress + service cache counters\n"
      "  query <spec|hash> --point n print one stored record line\n"
      "  export <spec|hash>          long-format CSV, streamed record-by-record\n"
      "  shutdown <socket>           ask the nomc-serve at <socket> to exit\n"
      "\n"
      "options:\n"
      "  --server <socket> talk to the nomc-serve instance at this Unix-domain\n"
      "                    socket instead of local files (submit/status/query/\n"
      "                    export)\n"
      "  --point <n>       query: sweep-point index to fetch\n"
      "  --out <path>      result store path (default: <campaign name>.jsonl;\n"
      "                    for export-csv/export: CSV path, default stdout)\n"
      "  --jobs <n>        with --point-jobs m: one pool of about n x m threads\n"
      "  --point-jobs <m>  (default 1 each; 0 = all hardware threads) that the\n"
      "                    trials of all points share. The store is written in\n"
      "                    point order and byte-identical for every value.\n"
      "  --max-points <n>  stop after computing n new points (testing aid;\n"
      "                    resume finishes the rest)\n"
      "  --overwrite       run: discard an existing store\n"
      "  --quiet           suppress per-point progress lines\n"
      "\n"
      "Spec grammar and the JSONL schema are documented in docs/campaigns.md;\n"
      "the service protocol and result cache in docs/service.md.\n",
      out);
  return out == stdout ? 0 : 2;
}

cli::ArgParser make_options() {
  cli::ArgParser args;
  args.add_string("server", "", "nomc-serve Unix-domain socket to talk to");
  args.add_string("out", "", "result store path (default: <campaign name>.jsonl)");
  args.add_int("point", -1, "query: sweep-point index to fetch");
  args.add_int("jobs", 1, "pool threads = jobs x point-jobs, shared by all trials (0 = all)");
  args.add_int("point-jobs", 1, "pool threads = jobs x point-jobs (0 = all hardware threads)");
  args.add_int("max-points", -1, "stop after computing this many new points");
  args.add_flag("overwrite", "run: discard an existing result store");
  args.add_flag("quiet", "suppress per-point progress lines");
  return args;
}

std::string store_path(const cli::ArgParser& args, const exp::CampaignSpec& spec) {
  const std::string out = args.get_string("out");
  return out.empty() ? spec.name + ".jsonl" : out;
}

/// `file` for the service commands is a spec path or, with --server only, a
/// bare 16-hex spec hash. Fills `hash`, and `spec` when `file` is a spec.
bool resolve_campaign_arg(const std::string& file, const std::string& server,
                          exp::CampaignSpec& spec, std::string& hash) {
  exp::SpecError spec_error;
  if (exp::load_campaign(file, spec, spec_error)) {
    hash = exp::spec_hash(spec);
    return true;
  }
  const bool hex16 = file.size() == 16 &&
                     file.find_first_not_of("0123456789abcdef") == std::string::npos;
  if (hex16 && !server.empty()) {
    hash = file;
    return true;
  }
  std::fprintf(stderr, "%s: not a loadable spec (%s)%s\n", file.c_str(),
               spec_error.str().c_str(),
               hex16 ? "; a spec hash only works with --server" : " nor a 16-hex spec hash");
  return false;
}

/// Reply envelope check shared by every service call.
bool reply_ok(const exp::JsonValue& reply, std::string& error) {
  const exp::JsonValue* ok = reply.find("ok");
  if (ok == nullptr || ok->type != exp::JsonValue::Type::kBool) {
    error = "malformed reply (no \"ok\")";
    return false;
  }
  if (!ok->boolean) {
    const exp::JsonValue* message = reply.find("error");
    error = message != nullptr ? message->string : "unspecified server error";
    return false;
  }
  return true;
}

/// One request/reply exchange with the nomc-serve at `server`.
bool call_server(const std::string& server, const std::string& request, exp::JsonValue& reply,
                 std::string& error) {
  svc::Client client;
  return client.connect(server, error) && client.call(request, reply, error) &&
         reply_ok(reply, error);
}

int run_or_resume(const std::string& spec_path, const cli::ArgParser& args, bool resume) {
  exp::CampaignSpec spec;
  exp::SpecError spec_error;
  if (!exp::load_campaign(spec_path, spec, spec_error)) {
    std::fprintf(stderr, "%s: %s\n", spec_path.c_str(), spec_error.str().c_str());
    return 1;
  }

  exp::CampaignOptions options;
  options.jobs = args.get_int("jobs");
  options.point_jobs = args.get_int("point-jobs");
  options.max_points = args.get_int("max-points");
  options.quiet = args.get_flag("quiet");
  options.mode = resume ? exp::CampaignOptions::Mode::kResume
                 : args.get_flag("overwrite") ? exp::CampaignOptions::Mode::kOverwrite
                                              : exp::CampaignOptions::Mode::kFresh;

  const std::string out_path = store_path(args, spec);
  if (!options.quiet) {
    std::printf("campaign %s (spec %s) -> %s\n", spec.name.c_str(),
                exp::spec_hash(spec).c_str(), out_path.c_str());
  }
  exp::CampaignStats stats;
  std::string error;
  if (!exp::run_campaign(spec, out_path, options, &stats, error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 1;
  }
  std::printf("%s: %d point(s) computed, %d reused, %d total -> %s\n", spec.name.c_str(),
              stats.computed, stats.reused, stats.total, out_path.c_str());
  return 0;
}

int list_campaign(const std::string& spec_path, const cli::ArgParser& args) {
  exp::CampaignSpec spec;
  exp::SpecError spec_error;
  if (!exp::load_campaign(spec_path, spec, spec_error)) {
    std::fprintf(stderr, "%s: %s\n", spec_path.c_str(), spec_error.str().c_str());
    return 1;
  }
  const std::string out_path = store_path(args, spec);
  const std::string hash = exp::spec_hash(spec);

  // The index keeps completion checks O(1) per point (and reconciles the
  // .idx sidecar as a side effect); only listed records are read.
  exp::StoreIndex index;
  std::string error;
  std::error_code ignored;
  const bool have_store = std::filesystem::exists(out_path, ignored);
  if (have_store && !index.open(out_path, hash, error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 1;
  }

  std::printf("campaign %s (spec %s), store %s%s\n\n", spec.name.c_str(), hash.c_str(),
              out_path.c_str(), have_store ? "" : " (not created yet)");
  stats::TablePrinter table{{"point", "assignment", "status", "overall (pkt/s)", "jain"}};
  for (const exp::SweepPoint& point : exp::expand_grid(spec)) {
    const exp::StoreIndex::Entry* entry =
        have_store ? index.find(hash, point.index) : nullptr;
    exp::ResultRecord record;
    if (entry != nullptr && !index.read_record(*entry, record, error)) {
      std::fprintf(stderr, "%s\n", error.c_str());
      return 1;
    }
    table.add_row({std::to_string(point.index), exp::assignment_label(point.assignment),
                   entry != nullptr ? "done" : "pending",
                   entry != nullptr ? stats::TablePrinter::num(record.overall_pps, 1) : "-",
                   entry != nullptr ? stats::TablePrinter::num(record.jain, 3) : "-"});
  }
  table.print();
  return 0;
}

int export_csv(const std::string& store_file, const cli::ArgParser& args) {
  // Streamed through the StoreIndex: one record in memory at a time, bytes
  // identical to the old whole-store exp::export_csv path.
  exp::StoreIndex index;
  std::string error;
  if (!index.open(store_file, /*expected_hash=*/"", error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 1;
  }
  if (index.truncated_tail()) {
    std::fprintf(stderr, "note: dropped a torn trailing line (interrupted write)\n");
  }

  const std::string out_path = args.get_string("out");
  std::FILE* out = out_path.empty() ? stdout : std::fopen(out_path.c_str(), "wb");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", out_path.c_str());
    return 1;
  }
  const bool ok = exp::export_csv_indexed(index, out, error);
  if (out != stdout) std::fclose(out);
  if (!ok) {
    std::fprintf(stderr, "CSV export failed: %s\n", error.c_str());
    return 1;
  }
  if (!out_path.empty()) {
    std::printf("%zu record(s) exported to %s\n", index.entries().size(), out_path.c_str());
  }
  return 0;
}

/// compare <store> <a> <b>: each point's overall pps as mean ± 95 % CI over
/// its stored trials, then b's gain over a, 100·(b/a − 1), paired trial by
/// trial over the trials where a > 0. Trial i of both points ran on the
/// same deployment seed, so both must share seed and trials.
int compare_command(int argc, char** argv) {
  if (argc != 5) {
    std::fputs("usage: nomc-campaign compare <store.jsonl> <point-a> <point-b>\n", stderr);
    return 2;
  }
  exp::StoreScan scan;
  std::string error;
  if (!exp::scan_store(argv[2], /*expected_hash=*/"", scan, error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 1;
  }
  const exp::ResultRecord* records[2] = {nullptr, nullptr};
  for (int i = 0; i < 2; ++i) {
    const std::string_view text = argv[3 + i];
    const char* const text_end = text.data() + text.size();
    int point = -1;
    const auto [end, status] = std::from_chars(text.data(), text_end, point);
    const bool parsed = status == std::errc{} && end == text_end;
    for (const exp::ResultRecord& record : scan.records) {
      if (parsed && record.point == point) records[i] = &record;
    }
    if (records[i] == nullptr) {
      std::fprintf(stderr, "compare: point %s is not in %s\n", argv[3 + i], argv[2]);
      return 1;
    }
  }
  const exp::ResultRecord& a = *records[0];
  const exp::ResultRecord& b = *records[1];
  if (a.seed != b.seed || a.trials != b.trials) {
    std::fprintf(stderr, "compare: points %d and %d differ in seed or trials, so no trial pairs\n",
                 a.point, b.point);
    return 1;
  }

  stats::SummaryStats stats_a;
  stats::SummaryStats stats_b;
  stats::SummaryStats gain;
  for (std::size_t trial = 0; trial < a.trial_overall_pps.size(); ++trial) {
    const double result_a = a.trial_overall_pps[trial];
    const double result_b = b.trial_overall_pps[trial];
    stats_a.add(result_a);
    stats_b.add(result_b);
    if (result_a > 0.0) gain.add(100.0 * (result_b / result_a - 1.0));
  }

  std::printf("%s (%s): %d paired trial(s) per point\n\n", a.campaign.c_str(), argv[2],
              a.trials);
  stats::TablePrinter table{{"design", "overall (pkt/s)", "±95% CI"}};
  for (const auto& [name, record, summary] : {std::tuple{"A", &a, &stats_a}, {"B", &b, &stats_b}}) {
    table.add_row({std::string{name} + ": point " + std::to_string(record->point) + " " +
                       exp::assignment_label(record->sweep),
                   stats::TablePrinter::num(summary->mean(), 1),
                   stats::TablePrinter::num(summary->ci95_half_width(), 1)});
  }
  table.print();
  std::printf("\nB vs A (paired over %zu deployments): %+.1f%% ± %.1f%%\n", gain.count(),
              gain.mean(), gain.ci95_half_width());
  return 0;
}

// ---- Service-backed commands ---------------------------------------------

int submit_command(const std::string& spec_path, const cli::ArgParser& args) {
  const std::string server = args.get_string("server");
  if (server.empty()) {
    // Local fallback: submit semantics are "make sure this campaign is
    // complete", i.e. a resume against the default store path.
    return run_or_resume(spec_path, args, /*resume=*/true);
  }
  std::string spec_text;
  if (!exp::read_whole_file(spec_path, spec_text)) {
    std::fprintf(stderr, "cannot read %s\n", spec_path.c_str());
    return 1;
  }

  std::string request = "{\"op\":\"submit\",\"spec\":";
  exp::json_append_string(request, spec_text);
  request += '}';
  exp::JsonValue reply;
  std::string error;
  if (!call_server(server, request, reply, error)) {
    std::fprintf(stderr, "submit failed: %s\n", error.c_str());
    return 1;
  }
  const exp::JsonValue* campaign = reply.find("campaign");
  const exp::JsonValue* hash = reply.find("spec_hash");
  const exp::JsonValue* points = reply.find("points");
  const exp::JsonValue* done = reply.find("done");
  std::printf("%s: %d/%d point(s) done on %s (spec %s)\n",
              campaign != nullptr ? campaign->string.c_str() : "?",
              done != nullptr ? static_cast<int>(done->number) : -1,
              points != nullptr ? static_cast<int>(points->number) : -1, server.c_str(),
              hash != nullptr ? hash->string.c_str() : "?");
  return 0;
}

int status_command(const std::string& file, const cli::ArgParser& args) {
  const std::string server = args.get_string("server");
  exp::CampaignSpec spec;
  std::string hash;
  if (!resolve_campaign_arg(file, server, spec, hash)) return 1;

  if (server.empty()) {
    // Local: progress of the store next to us.
    const std::string out_path = store_path(args, spec);
    const int total = static_cast<int>(exp::expand_grid(spec).size());
    int done = 0;
    if (std::error_code ignored; std::filesystem::exists(out_path, ignored)) {
      exp::StoreIndex index;
      std::string error;
      if (!index.open(out_path, hash, error)) {
        std::fprintf(stderr, "%s\n", error.c_str());
        return 1;
      }
      for (int point = 0; point < total; ++point) {
        if (index.contains(hash, point)) ++done;
      }
    }
    std::printf("%s (spec %s): %d/%d point(s) done, store %s\n", spec.name.c_str(),
                hash.c_str(), done, total, out_path.c_str());
    return 0;
  }

  std::string request = "{\"op\":\"status\",\"spec_hash\":";
  exp::json_append_string(request, hash);
  request += '}';
  exp::JsonValue reply;
  std::string error;
  if (!call_server(server, request, reply, error)) {
    std::fprintf(stderr, "status failed: %s\n", error.c_str());
    return 1;
  }
  const exp::JsonValue* campaign = reply.find("campaign");
  const exp::JsonValue* points = reply.find("points");
  const exp::JsonValue* done = reply.find("done");
  const exp::JsonValue* state = reply.find("state");
  const exp::JsonValue* submissions = reply.find("submissions");
  const exp::JsonValue* computed = reply.find("computed");
  const exp::JsonValue* cache_hits = reply.find("cache_hits");
  const exp::JsonValue* campaigns = reply.find("campaigns");
  std::printf("%s (spec %s): %d/%d point(s) done on %s",
              campaign != nullptr ? campaign->string.c_str() : "?", hash.c_str(),
              done != nullptr ? static_cast<int>(done->number) : -1,
              points != nullptr ? static_cast<int>(points->number) : -1, server.c_str());
  if (state != nullptr && state->type == exp::JsonValue::Type::kString) {
    std::printf(" [%s]", state->string.c_str());
  }
  std::printf("\n");
  std::printf("server: %d submission(s), %d point(s) computed, %d cache hit(s), "
              "%d campaign(s)\n",
              submissions != nullptr ? static_cast<int>(submissions->number) : -1,
              computed != nullptr ? static_cast<int>(computed->number) : -1,
              cache_hits != nullptr ? static_cast<int>(cache_hits->number) : -1,
              campaigns != nullptr ? static_cast<int>(campaigns->number) : -1);
  return 0;
}

int query_command(const std::string& file, const cli::ArgParser& args) {
  const int point = args.get_int("point");
  if (point < 0) {
    std::fprintf(stderr, "query needs --point <n>\n");
    return 2;
  }
  const std::string server = args.get_string("server");
  exp::CampaignSpec spec;
  std::string hash;
  if (!resolve_campaign_arg(file, server, spec, hash)) return 1;

  if (server.empty()) {
    exp::StoreIndex index;
    std::string error;
    if (!index.open(store_path(args, spec), hash, error)) {
      std::fprintf(stderr, "%s\n", error.c_str());
      return 1;
    }
    const exp::StoreIndex::Entry* entry = index.find(hash, point);
    std::string line;
    if (entry == nullptr) {
      std::fprintf(stderr, "point %d is not stored for %s\n", point, hash.c_str());
      return 1;
    }
    if (!index.read_line(*entry, line, error)) {
      std::fprintf(stderr, "%s\n", error.c_str());
      return 1;
    }
    std::printf("%s\n", line.c_str());
    return 0;
  }

  std::string request = "{\"op\":\"query\",\"spec_hash\":";
  exp::json_append_string(request, hash);
  request += ",\"point\":" + std::to_string(point) + "}";
  exp::JsonValue reply;
  std::string error;
  if (!call_server(server, request, reply, error)) {
    std::fprintf(stderr, "query failed: %s\n", error.c_str());
    return 1;
  }
  const exp::JsonValue* record = reply.find("record");
  if (record == nullptr || record->type != exp::JsonValue::Type::kString) {
    std::fprintf(stderr, "malformed reply (no \"record\")\n");
    return 1;
  }
  std::printf("%s\n", record->string.c_str());
  return 0;
}

int export_command(const std::string& file, const cli::ArgParser& args) {
  const std::string server = args.get_string("server");
  exp::CampaignSpec spec;
  std::string hash;
  if (!resolve_campaign_arg(file, server, spec, hash)) return 1;

  if (server.empty()) {
    return export_csv(store_path(args, spec), args);
  }

  svc::Client client;
  std::string error;
  if (!client.connect(server, error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 1;
  }
  std::string request = "{\"op\":\"export\",\"spec_hash\":";
  exp::json_append_string(request, hash);
  request += '}';
  if (!client.send_line(request, error)) {
    std::fprintf(stderr, "export failed: %s\n", error.c_str());
    return 1;
  }

  const std::string out_path = args.get_string("out");
  std::FILE* out = out_path.empty() ? stdout : std::fopen(out_path.c_str(), "wb");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", out_path.c_str());
    return 1;
  }
  // Stream: {"csv":<line>}* then {"ok":true,"done":true,"rows":N} (or an
  // error terminator once the server hits a bad record).
  int exit_code = 1;
  std::uint64_t rows = 0;
  while (true) {
    std::string line;
    exp::JsonValue reply;
    if (!client.recv_line(line, error) || !svc::parse_reply(line, reply, error)) {
      std::fprintf(stderr, "export failed: %s\n", error.c_str());
      break;
    }
    if (const exp::JsonValue* csv = reply.find("csv");
        csv != nullptr && csv->type == exp::JsonValue::Type::kString) {
      std::fprintf(out, "%s\n", csv->string.c_str());
      continue;
    }
    if (!reply_ok(reply, error)) {
      std::fprintf(stderr, "export failed: %s\n", error.c_str());
      break;
    }
    if (const exp::JsonValue* count = reply.find("rows"); count != nullptr) {
      rows = static_cast<std::uint64_t>(count->number);
    }
    exit_code = 0;
    break;
  }
  if (out != stdout) std::fclose(out);
  if (exit_code == 0 && !out_path.empty()) {
    std::printf("%llu row(s) exported to %s\n", static_cast<unsigned long long>(rows),
                out_path.c_str());
  }
  return exit_code;
}

int shutdown_command(const std::string& socket_path) {
  exp::JsonValue reply;
  std::string error;
  if (!call_server(socket_path, "{\"op\":\"shutdown\"}", reply, error)) {
    std::fprintf(stderr, "shutdown failed: %s\n", error.c_str());
    return 1;
  }
  std::printf("server at %s is shutting down\n", socket_path.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 && (std::strcmp(argv[1], "--help") == 0 || std::strcmp(argv[1], "-h") == 0)) {
    return usage(stdout);
  }
  if (argc < 3) return usage(stderr);
  const std::string command = argv[1];
  const std::string file = argv[2];
  if (command == "compare") return compare_command(argc, argv);  // positional only

  cli::ArgParser args = make_options();
  if (const auto exit_code =
          cli::parse_standard(args, argc, argv, std::string{"nomc-campaign "} + command,
                              /*first=*/3)) {
    return *exit_code;
  }

  if (command == "run") return run_or_resume(file, args, /*resume=*/false);
  if (command == "resume") return run_or_resume(file, args, /*resume=*/true);
  if (command == "list") return list_campaign(file, args);
  if (command == "export-csv") return export_csv(file, args);
  if (command == "submit") return submit_command(file, args);
  if (command == "status") return status_command(file, args);
  if (command == "query") return query_command(file, args);
  if (command == "export") return export_command(file, args);
  if (command == "shutdown") return shutdown_command(file);
  std::fprintf(stderr, "unknown command: %s\n\n", command.c_str());
  return usage(stderr);
}
