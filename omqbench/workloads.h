// Workload entry points and the fixed metric tables every run reports.
#ifndef OMQBENCH_WORKLOADS_H_
#define OMQBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <string>

#include "common/scheduler.h"
#include "harness.h"
#include "serve/plan.h"

namespace omqbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Where the traced run writes its spans ("" = nowhere).
  std::string trace_out;
};

/// Untraced runs report these (every workload reports all of them; see
/// README.md for what each one means on each workload).
struct MetricSpec {
  const char* name;
  const char* unit;
};
inline constexpr MetricSpec kEndToEnd[] = {
    {"cold_ttfa_s", "s"},     {"qps", "1/s"},
    {"answers_us_p50", "us"}, {"answers_us_p90", "us"},
    {"update_us_p50", "us"},  {"setup_s", "s"},
    {"peak_rss_mb", "MiB"},
};

/// Traced runs report these, named after the module whose public calls
/// they time or whose stats snapshot they read.
inline constexpr MetricSpec kPerLayer[] = {
    {"logic.parse_us", "us"},
    {"core.classify_s", "s"},
    {"reasoner.bouquets_checked", "count"},
    {"reasoner.meta_tableau_steps", "count"},
    {"reasoner.meta_cache_hit_rate", "ratio"},
    {"datalog.rewrite_us", "us"},
    {"datalog.rewrite_rules", "count"},
    {"datalog.configurations_explored", "count"},
    {"datalog.fo_unfold_us", "us"},
    {"datalog.fo_disjuncts", "count"},
    {"serve.plan_compile_us", "us"},
    {"serve.compile_query_us", "us"},
    {"serve.backend_picks.fo", "count"},
    {"serve.backend_picks.datalog", "count"},
    {"serve.backend_picks.cspsat", "count"},
    {"serve.backend_picks.tableau", "count"},
    {"serve.truncated_fallbacks", "count"},
    {"serve.session_answers_us_p50", "us"},
    {"serve.session_update_us_p50", "us"},
    {"serve.driver_overhead_us_p50", "us"},
    {"serve.answers_self_share", "ratio"},
    {"serve.answer_memo_hit_rate", "ratio"},
    {"query.candidates_per_match", "ratio"},
    {"serve.dred_rounds", "count"},
    {"serve.overdeleted_facts", "count"},
    {"serve.rederived_facts", "count"},
    {"serve.rederive_ratio", "ratio"},
    {"serve.incremental_refreshes", "count"},
    {"reasoner.tableau_steps", "count"},
    {"reasoner.branches_opened", "count"},
    {"reasoner.nogood_prunes", "count"},
    {"reasoner.cache_hit_rate", "ratio"},
    {"serve.tableau_recomputes", "count"},
    {"common.tasks_submitted", "1/cmd"},
    {"common.steals", "1/cmd"},
    {"common.spawn_denied", "1/cmd"},
    {"trace.overhead_s", "s"},
    {"trace.stage_coverage", "ratio"},
};

/// Per-layer values by name; names absent from the map report 0 (the
/// workload does not reach that layer).
using LayerValues = std::map<std::string, double>;

/// Scheduler counters per command over a timed phase.
void AddSchedulerDeltas(const gfomq::SchedulerStats& before,
                        const gfomq::SchedulerStats& after, double commands,
                        LayerValues* layers);

/// Records the planner's picks and truncated fallbacks in the run's
/// "picks" line and as the serve.backend_picks.* layer values.
void RecordPicks(const gfomq::serve::PlannerStats& picks, RunResult* res,
                 LayerValues* layers);

RunResult RunColdStart(const Options& opts);
/// serve_lookup, serve_update and serve_conp.
RunResult RunServe(const Options& opts);

}  // namespace omqbench

#endif  // OMQBENCH_WORKLOADS_H_
