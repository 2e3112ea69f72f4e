// e2e_bench — measures engine campaigns through the public C++ API.
//
//   e2e_bench --spec S --work DIR --threads W --seconds T [--twin TWIN_SPEC] [--construct]
//   e2e_bench --trace --spec S --work DIR --threads W
//
// Without --trace it times the spec's set-up (load + validate + expand), then
// runs whole rounds, starting one only while it can be expected to end within
// T seconds (always at least one). A round is a serial pass (every
// job through run_job_line, in id order, on this thread, each call timed)
// followed by a campaign pass (run_campaign at pool width W, which is what
// `bbng_engine run` does). After the rounds it runs the untimed checks'
// inputs: a twin campaign (same scenarios as swap_equilibrium jobs) and the
// Theorem 2.3 constructions.
//
// With --trace it runs the serial pass once, then two pairs of untraced and traced
// campaign passes, and reports the counter deltas and the bbng_trace phase
// attribution of the last traced pass.
//
// Output is one JSON object per line on stdout, flushed as each phase ends,
// so a parent that kills a hung run still holds every finished round. The
// record checks and all statistics live in the Python driver (run.py).
#include <sys/resource.h>

#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "constructions/equilibria.hpp"
#include "engine/jobgraph.hpp"
#include "engine/runner.hpp"
#include "engine/spec.hpp"
#include "engine/tasks.hpp"
#include "game/equilibrium.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "obs/trace_analysis.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"
#include "util/procstat.hpp"

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(usage.ru_utime) + tv(usage.ru_stime);
}

struct Args {
  std::string spec;
  std::string work;
  std::string twin;
  unsigned threads = 2;
  double seconds = 10;
  bool construct = false;
  bool trace = false;
};

Args parse_args(int argc, char** argv) {
  bbng::Cli cli("e2e_bench", "Measures engine campaigns through the public C++ API.");
  const auto spec = cli.add_string("spec", "", "campaign spec to run (required)");
  const auto work = cli.add_string("work", "", "directory for the artifacts (required)");
  const auto twin = cli.add_string("twin", "", "twin swap_equilibrium spec run after the rounds");
  const auto threads = cli.add_int("threads", 2, "campaign pool width");
  const auto seconds = cli.add_double("seconds", 10, "start rounds only within this budget");
  const auto construct = cli.add_flag("construct", "check the Theorem 2.3 constructions");
  const auto trace = cli.add_flag("trace", "make the traced run instead of the rounds");
  cli.parse(argc, argv);
  if (spec->empty() || work->empty()) {
    throw std::invalid_argument("--spec and --work are required");
  }
  if (*threads < 1) throw std::invalid_argument("--threads must be at least 1");
  return {*spec, *work, *twin, static_cast<unsigned>(*threads), *seconds, *construct, *trace};
}

void emit(const std::string& line) {
  std::cout << line << '\n' << std::flush;
}

template <typename Fill>
std::string json_object(Fill&& fill) {
  std::ostringstream os;
  bbng::JsonWriter writer(os, /*pretty=*/false);
  writer.begin_object();
  fill(writer);
  writer.end_object();
  return os.str();
}

void write_numbers(bbng::JsonWriter& writer, const std::string& name,
                   const std::vector<double>& values) {
  writer.key(name).begin_array();
  for (const double v : values) writer.value(v);
  writer.end_array();
}

void write_indices(bbng::JsonWriter& writer, const std::string& name,
                   const std::vector<std::uint64_t>& values) {
  writer.key(name).begin_array();
  for (const std::uint64_t v : values) writer.value(v);
  writer.end_array();
}

struct Loaded {
  bbng::CampaignSpec campaign;
  std::string text;
  std::vector<bbng::Job> jobs;
};

struct SetupSamples {
  std::vector<double> load_ms;
  std::vector<double> expand_ms;
  std::vector<double> setup_s;

  void write(bbng::JsonWriter& w) const {
    write_numbers(w, "load_ms", load_ms);
    write_numbers(w, "expand_ms", expand_ms);
    write_numbers(w, "setup_s", setup_s);
  }
};

// Set-up is sub-millisecond, so one timing would be mostly clock noise: a
// batch repeats it until kBatchSeconds have passed and records the mean.
// Batches are spread over the whole run (kSetupEvery jobs apart in each
// serial pass), so their median sees the same host as the other metrics.
constexpr double kBatchSeconds = 0.02;
constexpr std::size_t kSetupEvery = 10;

Loaded setup_batch(const std::string& spec_path, SetupSamples& samples) {
  Loaded loaded;
  double load = 0;
  double expand = 0;
  std::uint64_t reps = 0;
  const auto batch_start = Clock::now();
  do {
    const auto t0 = Clock::now();
    loaded.campaign = bbng::load_campaign_spec(spec_path, &loaded.text);
    const auto t1 = Clock::now();
    loaded.jobs = bbng::expand_jobs(loaded.campaign);
    const auto t2 = Clock::now();
    load += std::chrono::duration<double>(t1 - t0).count();
    expand += std::chrono::duration<double>(t2 - t1).count();
    ++reps;
  } while (seconds_since(batch_start) < kBatchSeconds);
  const auto count = static_cast<double>(reps);
  samples.load_ms.push_back(1e3 * load / count);
  samples.expand_ms.push_back(1e3 * expand / count);
  samples.setup_s.push_back((load + expand) / count);
  return loaded;
}

Loaded time_setup(const std::string& spec_path) {
  constexpr int kBatches = 5;
  SetupSamples samples;
  Loaded loaded;
  for (int batch = 0; batch < kBatches; ++batch) loaded = setup_batch(spec_path, samples);
  emit(json_object([&](bbng::JsonWriter& w) {
    w.field("phase", "setup").field("jobs", static_cast<std::uint64_t>(loaded.jobs.size()));
    samples.write(w);
  }));
  return loaded;
}

/// Every job through run_job_line in id order. With `latency_ms`, each call
/// is timed; with `setup`, a set-up batch runs (untimed by the job clock)
/// after every kSetupEvery jobs.
std::vector<std::string> serial_pass(const Loaded& loaded, const std::string& spec_path,
                                     std::vector<double>* latency_ms,
                                     SetupSamples* setup) {
  std::vector<std::string> lines;
  lines.reserve(loaded.jobs.size());
  for (const bbng::Job& job : loaded.jobs) {
    const auto t0 = Clock::now();
    lines.push_back(bbng::run_job_line(loaded.campaign, job));
    if (latency_ms != nullptr) latency_ms->push_back(1e3 * seconds_since(t0));
    if (setup != nullptr && lines.size() % kSetupEvery == 0) {
      (void)setup_batch(spec_path, *setup);
    }
  }
  return lines;
}

struct CampaignTiming {
  double wall_s = 0;
  double cpu_s = 0;
};

CampaignTiming campaign_pass(const Loaded& loaded, const std::string& output,
                             unsigned threads) {
  bbng::RunnerConfig config;
  config.output_path = output;
  config.threads = threads;
  config.overwrite = true;
  const double cpu0 = cpu_seconds();
  const auto t0 = Clock::now();
  const bbng::RunReport report = bbng::run_campaign(loaded.campaign, loaded.text, config);
  CampaignTiming timing;
  timing.wall_s = seconds_since(t0);
  timing.cpu_s = cpu_seconds() - cpu0;
  if (!report.completed) throw std::runtime_error("campaign did not complete: " + output);
  return timing;
}

std::vector<std::string> read_records(const std::string& artifact) {
  std::ifstream in(artifact);
  if (!in) throw std::runtime_error("cannot read " + artifact);
  std::vector<std::string> lines;
  std::string line;
  std::getline(in, line);  // header: spec fingerprint and host metadata
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

/// Ids of jobs whose line in `got` differs from `want` or is missing.
std::vector<std::uint64_t> mismatches(const std::vector<std::string>& want,
                                      const std::vector<std::string>& got) {
  std::vector<std::uint64_t> ids;
  for (std::size_t i = 0; i < want.size(); ++i) {
    if (i >= got.size() || got[i] != want[i]) ids.push_back(i);
  }
  return ids;
}

void write_lines(const std::string& path, const std::vector<std::string>& lines) {
  std::ofstream out(path, std::ios::trunc);
  for (const std::string& line : lines) out << line << '\n';
  if (!out) throw std::runtime_error("cannot write " + path);
}

// Theorem 2.3 budget vectors, one per branch of the construction; each
// result must certify as an exact Nash equilibrium in both versions.
void check_constructions() {
  const std::vector<std::pair<std::string, std::vector<std::uint32_t>>> cases = {
      {"figure1", bbng::figure1_budgets()},
      {"hub", {5, 1, 1, 1, 1, 1, 1, 1, 1, 1}},
      {"uniform2", {2, 2, 2, 2, 2, 2, 2, 2}},
      {"disconnected", {0, 0, 0, 1, 1, 2}},
  };
  bbng::SolverBudget budget;
  budget.node_limit = 200'000;
  const std::string line = json_object([&](bbng::JsonWriter& w) {
    w.field("phase", "construct").key("cases").begin_array();
    for (const auto& [name, budgets] : cases) {
      const bbng::Digraph g = bbng::construct_equilibrium(bbng::BudgetGame(budgets));
      for (const bbng::CostVersion version : {bbng::CostVersion::Sum, bbng::CostVersion::Max}) {
        const bbng::NashReport report = bbng::verify_nash_equilibrium(g, version, budget);
        w.begin_object()
            .field("name", name)
            .field("version", bbng::to_string(version))
            .field("certified", report.certified)
            .field("epsilon", report.epsilon)
            .end_object();
      }
    }
    w.end_array();
  });
  emit(line);
}

int measure(const Args& args) {
  const Loaded loaded = time_setup(args.spec);
  const std::string artifact = args.work + "/campaign.jsonl";
  std::vector<std::string> reference;
  const auto start = Clock::now();
  // Start a round only while it can be expected to end within the budget
  // (the last round's length), so runs do not overshoot by a whole round.
  double last_round_s = 0;
  for (std::uint64_t round = 0;
       round == 0 || seconds_since(start) + last_round_s <= args.seconds; ++round) {
    const auto round_start = Clock::now();
    std::vector<double> latency_ms;
    SetupSamples setup;
    const std::vector<std::string> lines =
        serial_pass(loaded, args.spec, &latency_ms, &setup);
    const CampaignTiming timing = campaign_pass(loaded, artifact, args.threads);
    // Checks, outside both timed regions: every serial pass must repeat
    // the first byte for byte, and every campaign pass must match its own
    // round's serial pass (the engine's width-independence promise).
    if (round == 0) {
      reference = lines;
      write_lines(args.work + "/serial.jsonl", lines);
    }
    const std::vector<std::uint64_t> serial_diff = mismatches(reference, lines);
    const std::vector<std::uint64_t> campaign_diff = mismatches(lines, read_records(artifact));
    emit(json_object([&](bbng::JsonWriter& w) {
      w.field("phase", "round").field("round", round);
      write_numbers(w, "serial_ms", latency_ms);
      w.field("wall_s", timing.wall_s).field("cpu_s", timing.cpu_s);
      write_indices(w, "serial_mismatch", serial_diff);
      write_indices(w, "campaign_mismatch", campaign_diff);
      setup.write(w);
    }));
    last_round_s = seconds_since(round_start);
  }
  emit(json_object([&](bbng::JsonWriter& w) {
    w.field("phase", "memory").field("peak_rss_kb", bbng::peak_rss_kb());
  }));

  if (!args.twin.empty()) {
    Loaded twin;
    twin.campaign = bbng::load_campaign_spec(args.twin, &twin.text);
    bbng::RunnerConfig config;
    config.output_path = args.work + "/twin.jsonl";
    config.threads = args.threads;
    config.overwrite = true;
    const bbng::RunReport report = bbng::run_campaign(twin.campaign, twin.text, config);
    emit(json_object([&](bbng::JsonWriter& w) {
      w.field("phase", "twin").field("completed", report.completed);
    }));
  }
  if (args.construct) check_constructions();
  emit(R"({"phase":"done"})");
  return 0;
}

std::map<std::string, std::uint64_t> counters() {
  std::map<std::string, std::uint64_t> out;
  for (const bbng::obs::CounterValue& c : bbng::obs::snapshot()) out[c.name] = c.value;
  return out;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

int trace(const Args& args) {
  const Loaded loaded = time_setup(args.spec);

  const auto t0 = Clock::now();
  (void)serial_pass(loaded, args.spec, nullptr, nullptr);
  const double serial_s = seconds_since(t0);

  // Two untraced/traced pairs; the driver compares the faster of each kind.
  // The last traced pass is the one attributed: its counters are the
  // snapshot delta across it, and its sidecar minus the preceding untraced
  // pass's sidecar isolates its histogram sums.
  const std::string untraced = args.work + "/untraced.jsonl";
  const std::string traced = args.work + "/traced.jsonl";
  const std::string trace_path = args.work + "/trace.json";
  std::vector<double> untraced_s;
  std::vector<double> traced_s;
  std::map<std::string, std::uint64_t> before;
  std::map<std::string, std::uint64_t> after;
  for (int pair = 0; pair < 2; ++pair) {
    untraced_s.push_back(campaign_pass(loaded, untraced, args.threads).wall_s);
    before = counters();
    bbng::obs::trace::begin();
    traced_s.push_back(campaign_pass(loaded, traced, args.threads).wall_s);
    bbng::obs::trace::write_file(trace_path);
    after = counters();
  }

  const bbng::obs::TraceAttribution attribution =
      bbng::obs::attribute_trace(bbng::parse_json(read_file(trace_path)));
  emit(json_object([&](bbng::JsonWriter& w) {
    w.field("phase", "trace").field("serial_s", serial_s);
    write_numbers(w, "untraced_s", untraced_s);
    write_numbers(w, "traced_s", traced_s);
    w.field("trace", trace_path)
        .field("artifact", traced)
        .field("sidecar_before", untraced + ".obs_host.json")
        .field("sidecar_after", traced + ".obs_host.json");
    w.key("counters").begin_object();
    for (const auto& [name, value] : after) w.field(name, value - before[name]);
    w.end_object();
    w.key("phases").begin_object();
    for (const bbng::obs::PhaseStat& phase : attribution.phases) {
      w.key(phase.name)
          .begin_object()
          .field("count", phase.count)
          .field("total_us", phase.total_us)
          .field("self_us", phase.self_us)
          .end_object();
    }
    w.end_object();
  }));
  emit(R"({"phase":"done"})");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse_args(argc, argv);
    return args.trace ? trace(args) : measure(args);
  } catch (const std::exception& e) {
    std::cerr << "e2e_bench: " << e.what() << '\n';
    return 1;
  }
}
