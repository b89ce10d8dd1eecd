// batch_sweep: the paper-size verified sweep of bench/verify_full.cpp,
// driven in process — 10 kernels x k = 4..7: profile simulation, selection
// and encode, analytic transitions, and a full FetchDecoder replay — with
// every row checked against the committed reference.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench.h"
#include "cfg/cfg.h"
#include "core/fetch_decoder.h"
#include "core/selection.h"
#include "isa/assembler.h"
#include "obs/selfmetrics.h"
#include "parallel/pool.h"
#include "power/power.h"
#include "sim/bus.h"
#include "sim/cpu.h"
#include "telemetry/export.h"
#include "workloads/workload.h"

namespace perfbench {

namespace {

using namespace asimt;
using json::Value;

constexpr int kBlockSizes[] = {4, 5, 6, 7};
constexpr std::size_t kNumK = std::size(kBlockSizes);
constexpr std::uint64_t kMaxSteps = 500'000'000;
constexpr int kSetupRepeats = 101;

double seconds_since(Clock::time_point t0) {
  return seconds_between(t0, Clock::now());
}

// Stage 1: one profiled kernel, shared read-only by its k rows.
struct Profiled {
  isa::Program program;
  cfg::Cfg cfg;
  cfg::Profile profile;
  long long baseline_transitions = 0;
  bool check_ok = false;
  std::string check_error;
  std::uint64_t instructions = 0;
  double task_s = 0.0;
  // Traced sweeps only.
  double assemble_s = 0.0;
  double build_cfg_s = 0.0;
  double sim_s = 0.0;      // plain Cpu::run, no-op fetch callback
  double profile_s = 0.0;  // the profiling run, Profiler on every fetch
};

// Stage 2: one (kernel, k) row.
struct Row {
  std::uint64_t fetches = 0;
  std::uint64_t decoded = 0;
  std::uint64_t mismatches = 0;
  bool restored = false;
  long long transitions = 0;
  double reduction_percent = 0.0;
  double task_s = 0.0;
  // Traced sweeps only.
  double select_s = 0.0;
  double transitions_s = 0.0;
  double replay_s = 0.0;  // the decoder-replay run
};

void start_cpu(const workloads::Workload& w, const isa::Program& program,
               sim::Memory& memory, sim::Cpu& cpu) {
  memory.load_program(program);
  cpu.state().pc = program.entry();
  w.init(memory, cpu.state());
}

Profiled profile_kernel(const workloads::Workload& w, bool trace) {
  const Clock::time_point task = Clock::now();
  Profiled p;
  Clock::time_point t0 = Clock::now();
  p.program = isa::assemble(w.source);
  p.assemble_s = seconds_since(t0);
  t0 = Clock::now();
  p.cfg = cfg::build_cfg(p.program);
  p.build_cfg_s = seconds_since(t0);
  if (trace) {
    sim::Memory memory;
    sim::Cpu cpu(memory);
    start_cpu(w, p.program, memory, cpu);
    t0 = Clock::now();
    cpu.run(kMaxSteps, [](std::uint32_t, std::uint32_t) {});
    p.sim_s = seconds_since(t0);
  }
  sim::Memory memory;
  sim::Cpu cpu(memory);
  start_cpu(w, p.program, memory, cpu);
  cfg::Profiler profiler(p.cfg);
  t0 = Clock::now();
  p.instructions = cpu.run(
      kMaxSteps, [&](std::uint32_t pc, std::uint32_t) { profiler.on_fetch(pc); });
  p.profile_s = seconds_since(t0);
  p.check_ok = w.check(memory, &p.check_error);
  p.profile = profiler.take();
  p.baseline_transitions =
      cfg::dynamic_transitions(p.cfg, p.profile, p.cfg.text);
  p.task_s = seconds_since(task);
  return p;
}

Row replay_row(const workloads::Workload& w, const Profiled& p, int k) {
  const Clock::time_point task = Clock::now();
  Row row;
  core::SelectionOptions sel;
  sel.chain.block_size = k;
  Clock::time_point t0 = Clock::now();
  const core::SelectionResult selection =
      core::select_and_encode(p.cfg, p.profile, sel);
  row.select_s = seconds_since(t0);
  t0 = Clock::now();
  const std::vector<std::uint32_t> image_words =
      selection.apply_to_text(p.cfg.text, p.cfg.text_base);
  row.transitions = cfg::dynamic_transitions(p.cfg, p.profile, image_words);
  row.transitions_s = seconds_since(t0);
  row.reduction_percent =
      power::reduction_percent(p.baseline_transitions, row.transitions);
  const sim::TextImage image(p.cfg.text_base, image_words);

  core::FetchDecoder decoder(selection.tt, selection.bbit);
  sim::Memory memory;
  sim::Cpu cpu(memory);
  start_cpu(w, p.program, memory, cpu);
  t0 = Clock::now();
  cpu.run(kMaxSteps, [&](std::uint32_t pc, std::uint32_t word) {
    const std::uint32_t bus = image.contains(pc) ? image.word_at(pc) : word;
    if (decoder.feed(pc, bus) != word) ++row.mismatches;
  });
  row.replay_s = seconds_since(t0);
  row.fetches = decoder.stats().fetches;
  row.decoded = decoder.stats().decoded;
  row.restored = cpu.state().halted && row.mismatches == 0;
  row.task_s = seconds_since(task);
  return row;
}

struct Sweep {
  std::vector<Profiled> profiled;
  std::vector<Row> rows;
  double wall_s = 0.0;
};

// The verify_full sweep: one task per kernel, then one per (kernel, k).
Sweep run_sweep_once(const std::vector<workloads::Workload>& suite,
                     bool trace) {
  Sweep s;
  const Clock::time_point t0 = Clock::now();
  s.profiled = parallel::parallel_map(suite.size(), [&](std::size_t i) {
    return profile_kernel(suite[i], trace);
  });
  s.rows = parallel::parallel_map(suite.size() * kNumK, [&](std::size_t idx) {
    const std::size_t wi = idx / kNumK;
    if (!s.profiled[wi].check_ok) return Row{};
    return replay_row(suite[wi], s.profiled[wi], kBlockSizes[idx % kNumK]);
  });
  s.wall_s = seconds_since(t0);
  return s;
}

Value rows_json(const std::vector<workloads::Workload>& suite,
                const Sweep& s) {
  Value rows = Value::array();
  for (std::size_t idx = 0; idx < s.rows.size(); ++idx) {
    const std::size_t wi = idx / kNumK;
    const Row& row = s.rows[idx];
    Value out = Value::object();
    out.set("workload", suite[wi].name);
    out.set("block_size", kBlockSizes[idx % kNumK]);
    out.set("fetches", row.fetches);
    out.set("decoded", row.decoded);
    out.set("mismatches", row.mismatches);
    out.set("baseline_transitions", s.profiled[wi].baseline_transitions);
    out.set("transitions", row.transitions);
    out.set("reduction_percent", row.reduction_percent);
    out.set("restored", row.restored);
    rows.push_back(std::move(out));
  }
  return rows;
}

// Busy share and straggler time of one stage's task durations.
void stage_shape(const std::vector<double>& tasks, double& busy,
                 double& straggler) {
  for (const double t : tasks) busy += t;
  if (!tasks.empty()) {
    straggler += *std::max_element(tasks.begin(), tasks.end()) - median(tasks);
  }
}

}  // namespace

std::vector<workloads::Workload> kernel_suite() {
  std::vector<workloads::Workload> suite = workloads::make_all({});
  for (auto& w : workloads::make_extra({})) suite.push_back(std::move(w));
  return suite;
}

RunResult run_sweep(const Options& options) {
  RunResult result;
  const unsigned jobs = parallel::default_jobs();
  result.details.set("jobs", jobs);

  // Set-up: building the kernel suite and assembling every kernel.
  std::vector<double> setups;
  std::vector<workloads::Workload> suite;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const Clock::time_point t0 = Clock::now();
    suite = kernel_suite();
    for (const auto& w : suite) isa::assemble(w.source);
    setups.push_back(seconds_since(t0));
  }

  const std::string ref_path = options.reference + "/batch_sweep.json";
  std::string ref_text;
  Value reference;
  if (!read_file(ref_path, ref_text)) {
    result.fail("missing reference " + ref_path);
    return result;
  }
  reference = json::parse(ref_text).at("rows");

  const Clock::time_point end =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(options.seconds));
  std::vector<Sweep> plain, traced;
  // Traced runs alternate plain and traced sweeps so both see the same
  // machine state; their wall-time ratio is the tracing overhead.
  while (plain.size() + traced.size() < 2 ||
         (options.trace && traced.empty()) || Clock::now() < end) {
    const bool trace = options.trace && plain.size() > traced.size();
    Sweep s = run_sweep_once(suite, trace);
    const Value rows = rows_json(suite, s);
    std::uint64_t ok = 0;
    for (const Row& row : s.rows) ok += row.restored ? 1 : 0;
    result.count(s.rows.size(), ok);
    if (!(rows == reference)) {
      result.fail("sweep rows differ from " + ref_path);
      result.details.set("rows", rows);
    }
    for (std::size_t wi = 0; wi < suite.size(); ++wi) {
      if (!s.profiled[wi].check_ok) {
        result.fail(suite[wi].name + " functional check: " +
                    s.profiled[wi].check_error);
      }
    }
    (trace ? traced : plain).push_back(std::move(s));
    if (!result.correct) break;
  }

  if (!options.trace) {
    // A row's latency is its task time, median over the sweeps; p50/p99
    // run across the rows. Per-sweep scheduling noise moves single task
    // times by 20% and more, the per-row medians by little.
    std::vector<double> walls, row_ms;
    for (const Sweep& s : plain) walls.push_back(s.wall_s);
    for (std::size_t idx = 0; idx < plain.front().rows.size(); ++idx) {
      std::vector<double> row;
      for (const Sweep& s : plain) row.push_back(s.rows[idx].task_s * 1e3);
      row_ms.push_back(median(row));
    }
    result.add("setup_s", median(setups), "s", setups.size());
    result.add("p50_ms", quantile(row_ms, 0.50), "ms", row_ms.size());
    result.add("p99_ms", quantile(row_ms, 0.99), "ms", row_ms.size());
    result.add("sweep_s", median(walls), "s", walls.size());
    result.add("peak_rss_mb",
               static_cast<double>(
                   obs::sample_process_metrics().max_rss_bytes) /
                   (1024.0 * 1024.0),
               "MiB");
    return result;
  }

  // Per-layer split: per-sweep totals of each public call, median over the
  // traced sweeps.
  std::vector<double> assemble, build_cfg, sim, profile, select, transitions,
      decoder, mips, traced_walls;
  std::uint64_t instructions = 0, decoded = 0;
  for (const Sweep& s : traced) {
    double a = 0, b = 0, r = 0, p = 0, se = 0, tr = 0, d = 0;
    std::uint64_t instr = 0;
    for (const Profiled& k : s.profiled) {
      a += k.assemble_s;
      b += k.build_cfg_s;
      r += k.sim_s;
      p += k.profile_s - k.sim_s;
      instr += k.instructions;
    }
    std::uint64_t dec = 0;
    for (std::size_t idx = 0; idx < s.rows.size(); ++idx) {
      const Row& row = s.rows[idx];
      se += row.select_s;
      tr += row.transitions_s;
      d += row.replay_s - s.profiled[idx / kNumK].sim_s;
      dec += row.decoded;
    }
    assemble.push_back(a * 1e3);
    build_cfg.push_back(b * 1e3);
    sim.push_back(r);
    profile.push_back(p);
    select.push_back(se * 1e3);
    transitions.push_back(tr * 1e3);
    decoder.push_back(d);
    mips.push_back(static_cast<double>(instr) / r / 1e6);
    traced_walls.push_back(s.wall_s);
    instructions = instr;
    decoded = dec;
  }
  std::vector<double> busy_share, straggler, plain_walls;
  for (const Sweep& s : plain) {
    std::vector<double> stage1, stage2;
    for (const Profiled& k : s.profiled) stage1.push_back(k.task_s);
    for (const Row& row : s.rows) stage2.push_back(row.task_s);
    double busy = 0.0, strag = 0.0;
    stage_shape(stage1, busy, strag);
    stage_shape(stage2, busy, strag);
    busy_share.push_back(busy / (s.wall_s * jobs));
    straggler.push_back(strag);
    plain_walls.push_back(s.wall_s);
  }
  const std::size_t n = traced.size();
  result.add("isa.assemble_ms", median(assemble), "ms", n);
  result.add("cfg.build_cfg_ms", median(build_cfg), "ms", n);
  result.add("sim.run_s", median(sim), "s", n);
  result.add("sim.mips", median(mips), "MIPS", n);
  result.add("cfg.profile_s", median(profile), "s", n);
  result.add("core.select_encode_ms", median(select), "ms", n);
  result.add("cfg.dynamic_transitions_ms", median(transitions), "ms", n);
  result.add("core.fetch_decoder_s", median(decoder), "s", n);
  result.add("parallel.busy_share", median(busy_share), "share", plain.size());
  result.add("parallel.straggler_s", median(straggler), "s", plain.size());
  result.add("sim.instructions", static_cast<double>(instructions), "count");
  result.add("core.decoded_fetches", static_cast<double>(decoded), "count");
  result.add("bench.trace_overhead_share",
             median(traced_walls) / median(plain_walls) - 1.0, "share", n);
  return result;
}

// Writes the current sweep's rows as the committed reference.
int write_sweep_reference(const Options& options) {
  const std::vector<workloads::Workload> suite = kernel_suite();
  const Sweep s = run_sweep_once(suite, false);
  Value doc = Value::object();
  doc.set("rows", rows_json(suite, s));
  const std::string path = options.reference + "/batch_sweep.json";
  if (!telemetry::write_text_file(path, doc.dump(2) + "\n")) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
    return 1;
  }
  std::printf("wrote %s\n", path.c_str());
  return 0;
}

}  // namespace perfbench
