// cold_start: time to first answer from a cold `ontology` command, the only
// workload that pays the Theorem 13 meta decision.
//
// Every pass runs the whole suite. Each ontology gets a fresh ServeDriver
// with default DriverOptions (serial bouquet scan, outdegree 3) and runs
// ontology -> session -> query -> four asserts -> answers. Relation names
// carry the seed tag and the pass number, so every pass is a new ontology
// to the plan cache and a new set of names to the symbol table.
//
// The traced run drives the same stages through public calls instead of
// the line protocol, in order: parse, OmqEngine::Create + Classify,
// OmqPlan::Compile (assume_ptime = that verdict, so the meta decision is
// paid once), CompileQuery, the asserts and the first Session::Answers.

#include <functional>
#include <memory>

#include "core/engine.h"
#include "logic/parser.h"
#include "query/cq.h"
#include "serve/driver.h"
#include "serve/plan.h"
#include "serve/session.h"
#include "workloads.h"

namespace omqbench {
namespace {

using namespace gfomq;
using namespace gfomq::serve;

struct FactSpec {
  std::string rel;  // template relation (placeholder name)
  std::vector<int> args;
};
using Facts = std::vector<FactSpec>;

std::set<int> Unary(const Facts& facts, const std::string& rel) {
  std::set<int> out;
  for (const FactSpec& f : facts) {
    if (f.rel == rel) out.insert(f.args[0]);
  }
  return out;
}

std::set<std::pair<int, int>> Binary(const Facts& facts,
                                     const std::string& rel) {
  std::set<std::pair<int, int>> out;
  for (const FactSpec& f : facts) {
    if (f.rel == rel) out.insert({f.args[0], f.args[1]});
  }
  return out;
}

AnswerSet Singletons(const std::set<int>& xs) {
  AnswerSet out;
  for (int x : xs) out.insert({x});
  return out;
}

/// Five distinct element ids below 100.
std::vector<int> Pick5(Rng& rng) {
  std::vector<int> ids;
  while (ids.size() < 5) {
    int id = static_cast<int>(rng.Below(100));
    if (std::find(ids.begin(), ids.end(), id) == ids.end()) ids.push_back(id);
  }
  return ids;
}

/// One suite member. Relation names in `ontology`/`query` end in '@', which
/// is replaced by the pass suffix. `expected` is the closed-form certain
/// answer set of the query over the asserted facts.
struct ColdTemplate {
  const char* key;
  const char* ontology;
  const char* query;
  Certainty ptime;    // expected meta decision
  PlanBackend pick;   // expected planner pick for the query
  std::function<Facts(Rng&)> facts;
  std::function<AnswerSet(const Facts&)> expected;
};

const std::vector<ColdTemplate>& Suite() {
  static const std::vector<ColdTemplate> suite = {
      // PTIME, recursive: B is the A-closure along R; datalog-served.
      {"ptime_reach",
       "forall x . (A@(x) -> B@(x)); "
       "forall x, y (R@(x,y) -> (B@(x) -> B@(y)));",
       "q(x) :- B@(x)", Certainty::kYes, PlanBackend::kDatalogRewrite,
       [](Rng& rng) {
         std::vector<int> e = Pick5(rng);
         return Facts{{"A", {e[0]}}, {"R", {e[0], e[1]}},
                      {"R", {e[1], e[2]}}, {"R", {e[3], e[4]}}};
       },
       [](const Facts& f) {
         std::set<int> reach = Unary(f, "A");
         auto edges = Binary(f, "R");
         for (bool grew = true; grew;) {
           grew = false;
           for (auto [x, y] : edges) {
             if (reach.count(x) && reach.insert(y).second) grew = true;
           }
         }
         return Singletons(reach);
       }},
      // PTIME after a full scan; the query unfolds to a 2-disjunct UCQ.
      {"ptime_guarded",
       "forall x, y (R@(x,y) -> (A@(x) -> B@(y)));", "q(x) :- B@(x)",
       Certainty::kYes, PlanBackend::kFoRewrite,
       [](Rng& rng) {
         std::vector<int> e = Pick5(rng);
         return Facts{{"A", {e[0]}}, {"R", {e[0], e[1]}},
                      {"R", {e[2], e[3]}}, {"B", {e[4]}}};
       },
       [](const Facts& f) {
         std::set<int> out = Unary(f, "B");
         std::set<int> a = Unary(f, "A");
         for (auto [x, y] : Binary(f, "R")) {
           if (a.count(x)) out.insert(y);
         }
         return Singletons(out);
       }},
      // coNP: the disjunction is a violation at the first bouquets.
      {"conp_unary", "forall x . (A@(x) -> B1@(x) | B2@(x));",
       "q(x) :- B1@(x) ; q(x) :- B2@(x)", Certainty::kNo,
       PlanBackend::kTableau,
       [](Rng& rng) {
         std::vector<int> e = Pick5(rng);
         return Facts{{"A", {e[0]}}, {"A", {e[1]}}, {"B1", {e[2]}},
                      {"B2", {e[3]}}};
       },
       [](const Facts& f) {
         std::set<int> out = Unary(f, "A");
         for (int x : Unary(f, "B1")) out.insert(x);
         for (int x : Unary(f, "B2")) out.insert(x);
         return Singletons(out);
       }},
      {"conp_guarded", "forall x, y (R@(x,y) -> (A@(x) -> B1@(y) | B2@(y)));",
       "q(x) :- B1@(x) ; q(x) :- B2@(x)", Certainty::kNo,
       PlanBackend::kTableau,
       [](Rng& rng) {
         std::vector<int> e = Pick5(rng);
         return Facts{{"A", {e[0]}}, {"R", {e[0], e[1]}},
                      {"R", {e[2], e[3]}}, {"B2", {e[4]}}};
       },
       [](const Facts& f) {
         std::set<int> out = Unary(f, "B1");
         for (int x : Unary(f, "B2")) out.insert(x);
         std::set<int> a = Unary(f, "A");
         for (auto [x, y] : Binary(f, "R")) {
           if (a.count(x)) out.insert(y);
         }
         return Singletons(out);
       }},
      // FO-rewritable with a small bouquet space.
      {"fo_small", "forall x, y (R@(x,y) -> B@(y));", "q(x) :- R@(x,y), B@(y)",
       Certainty::kYes, PlanBackend::kFoRewrite,
       [](Rng& rng) {
         std::vector<int> e = Pick5(rng);
         return Facts{{"R", {e[0], e[1]}}, {"R", {e[1], e[2]}},
                      {"B", {e[3]}}, {"R", {e[4], e[3]}}};
       },
       [](const Facts& f) {
         std::set<int> out;
         for (auto [x, y] : Binary(f, "R")) out.insert(x);
         return Singletons(out);
       }},
  };
  return suite;
}

std::string Substitute(const std::string& text, const std::string& suffix) {
  std::string out;
  for (char c : text) {
    if (c == '@') {
      out += suffix;
    } else {
      out.push_back(c);
    }
  }
  return out;
}

/// The concrete inputs of one suite member in one pass.
struct ColdInputs {
  std::string suffix;  // appended to every relation name
  std::string ontology;
  std::string query;
  std::string elem_prefix;
  Facts facts;
  AnswerSet expected;
  std::string FactText(const FactSpec& f) const {
    std::string s = f.rel + suffix + "(";
    for (size_t i = 0; i < f.args.size(); ++i) {
      if (i) s += ",";
      s += ElemName(elem_prefix, f.args[i]);
    }
    return s + ")";
  }
};

ColdInputs MakeInputs(const ColdTemplate& t, size_t index, uint64_t seed,
                      const std::string& pass_tag) {
  ColdInputs in;
  in.suffix = "_" + pass_tag;
  in.ontology = Substitute(t.ontology, in.suffix);
  in.query = Substitute(t.query, in.suffix);
  in.elem_prefix = "e" + pass_tag;
  Rng rng(seed * 1000003ULL + index * 7919ULL +
          std::hash<std::string>{}(pass_tag));
  in.facts = t.facts(rng);
  in.expected = t.expected(in.facts);
  return in;
}

struct PassStats {
  double ttfa_s = 0;
  uint64_t commands = 0;
  PlannerStats picks;
};

/// Latencies of a run's cold sessions, in microseconds. A cold client's
/// first `assert` and `answers` wait for the meta decision, so the *_cold
/// samples are measured from the session's first command (`ontology`) to
/// the reply; the *_cmd samples from each command's own submission.
struct ColdLatencies {
  std::vector<double> answers_cold, updates_cold, answers_cmd, updates_cmd;
};

/// One cold session over the line protocol, one command at a time. Replies
/// are checked after the first answer arrives.
void RunColdSession(const ColdTemplate& t, const ColdInputs& in,
                    const std::string& tag, PassStats* pass,
                    ColdLatencies* lat, RunResult* res) {
  ServeDriver driver;  // default DriverOptions: serial scan, outdegree 3
  std::vector<std::string> lines = {
      "ontology o" + tag + " " + in.ontology,
      "session s" + tag + " o" + tag,
      "query s" + tag + " q " + in.query,
  };
  for (const FactSpec& f : in.facts) {
    lines.push_back("assert s" + tag + " " + in.FactText(f));
  }
  lines.push_back("answers s" + tag + " q");

  std::vector<std::string> replies;
  std::vector<double> own_us, cold_us;
  Clock::time_point t0 = Clock::now();
  for (const std::string& line : lines) {
    Clock::time_point s = Clock::now();
    replies.push_back(driver.SubmitLine(line).get());
    Clock::time_point e = Clock::now();
    own_us.push_back(MicrosBetween(s, e));
    cold_us.push_back(MicrosBetween(t0, e));
  }
  pass->ttfa_s += cold_us.back() / 1e6;
  pass->commands += lines.size();
  pass->picks += driver.plans().PlannerTotals();

  const std::string backend =
      t.ptime == Certainty::kYes ? "backend=datalog" : "backend=tableau";
  res->Check(replies[0].rfind("ok ontology", 0) == 0 &&
                 replies[0].find(backend) != std::string::npos,
             std::string(t.key) + " verdict: " + replies[0]);
  res->Check(replies[1].rfind("ok session", 0) == 0, replies[1]);
  res->Check(replies[2].rfind("ok query", 0) == 0, replies[2]);
  for (size_t i = 3; i + 1 < replies.size(); ++i) {
    res->Check(replies[i] == "ok", lines[i] + " -> " + replies[i]);
    lat->updates_cold.push_back(cold_us[i]);
    lat->updates_cmd.push_back(own_us[i]);
  }
  AnswerSet got;
  bool parsed = ParseAnswersReply(replies.back(), &got);
  res->Check(parsed && got == in.expected,
             std::string(t.key) + " answers: " + replies.back());
  lat->answers_cold.push_back(cold_us.back());
  lat->answers_cmd.push_back(own_us.back());
}

/// Per-pass sums of the traced run's per-layer numbers.
struct TracedPass {
  LayerValues layers;
  double wall_s = 0;       // root spans: traced time to first answer
  double stage_us = 0;     // the stage spans inside them
  uint64_t cache_hits = 0, cache_lookups = 0;
  uint64_t candidates = 0, matches = 0;
  uint64_t solver_hits = 0, solver_lookups = 0;
};

void TraceColdSession(const ColdTemplate& t, const ColdInputs& in,
                      Tracer* tracer, uint64_t request, TracedPass* tp,
                      std::vector<double>* session_answers_us,
                      std::vector<double>* session_update_us,
                      RunResult* res) {
  LayerValues& L = tp->layers;
  SymbolsPtr symbols = MakeSymbols();
  Span root(tracer, std::string("cold.") + t.key, request);
  double stage = 0;

  Span parse(tracer, "logic.ParseOntology+ParseUcq", request, root.id());
  Result<Ontology> onto = ParseOntology(in.ontology, symbols);
  Result<Ucq> query = ParseUcq(in.query, symbols);
  stage += parse.Stop();
  L["logic.parse_us"] += parse.Stop();
  if (!onto.ok() || !query.ok()) {
    res->Check(false, std::string(t.key) + " parse");
    return;
  }

  Span classify(tracer, "core.OmqEngine::Create+Classify", request,
                root.id());
  Result<OmqEngine> engine = OmqEngine::Create(*onto);
  if (!engine.ok()) {
    res->Check(false, std::string(t.key) + " engine");
    return;
  }
  const OmqVerdict verdict = engine->Classify();
  stage += classify.Stop();
  L["core.classify_s"] += classify.Stop() / 1e6;
  L["reasoner.bouquets_checked"] += static_cast<double>(verdict.bouquets_checked);
  L["reasoner.meta_tableau_steps"] +=
      static_cast<double>(verdict.meta_stats.tableau.steps);
  tp->cache_hits += verdict.meta_stats.cache.hits;
  tp->cache_lookups += verdict.meta_stats.cache.Lookups();
  res->Check(verdict.ptime == t.ptime,
             std::string(t.key) + " traced verdict");

  Span compile(tracer, "serve.OmqPlan::Compile", request, root.id());
  PlanOptions popts;
  popts.assume_ptime = verdict.ptime;
  Result<std::shared_ptr<OmqPlan>> plan = OmqPlan::Compile(*onto, popts);
  stage += compile.Stop();
  L["serve.plan_compile_us"] += compile.Stop();
  if (!plan.ok()) {
    res->Check(false, std::string(t.key) + " compile");
    return;
  }

  Session session(*plan);
  Span cq(tracer, "serve.OmqPlan::CompileQuery", request, root.id());
  Result<std::shared_ptr<const CompiledQuery>> compiled =
      (*plan)->CompileQuery(*query);
  Status registered = session.RegisterQuery("q", *query);
  stage += cq.Stop();
  L["serve.compile_query_us"] += cq.Stop();
  if (!compiled.ok() || !registered.ok()) {
    res->Check(false, std::string(t.key) + " compile query");
    return;
  }

  for (const FactSpec& f : in.facts) {
    Fact fact{static_cast<uint32_t>(symbols->FindRel(f.rel + in.suffix)), {}};
    for (int a : f.args) {
      fact.args.push_back(session.AddConstant(ElemName(in.elem_prefix, a)));
    }
    Span s(tracer, "serve.Session::Assert", request, root.id());
    Result<bool> added = session.Assert(fact);
    double us = s.Stop();
    stage += us;
    session_update_us->push_back(us);
    res->Check(added.ok() && *added, std::string(t.key) + " traced assert");
  }

  Span answers(tracer, "serve.Session::Answers", request, root.id());
  Result<std::set<std::vector<ElemId>>> got = session.Answers("q");
  double answers_us = answers.Stop();
  stage += answers_us;
  session_answers_us->push_back(answers_us);
  tp->wall_s += root.Stop() / 1e6;
  tp->stage_us += stage;

  AnswerSet got_ids;
  if (got.ok()) {
    for (const std::vector<ElemId>& tuple : *got) {
      Tuple ids;
      for (ElemId e : tuple) {
        std::string name = session.db().ElemName(e);
        ids.push_back(std::atoi(name.c_str() + name.rfind('_') + 1));
      }
      got_ids.insert(ids);
    }
  }
  res->Check(got.ok() && got_ids == in.expected,
             std::string(t.key) + " traced answers");

  // Detail spans, outside the stage chain: the rewriter and the unfolder
  // on their own (RewriteFo includes its own rewriting).
  if (verdict.ptime == Certainty::kYes) {
    Span rw(tracer, "datalog.OmqEngine::Rewrite", request);
    Result<RewriteResult> rewrite = engine->Rewrite(*query);
    L["datalog.rewrite_us"] += rw.Stop();
    if (rewrite.ok()) {
      L["datalog.rewrite_rules"] +=
          static_cast<double>(rewrite->program.rules.size());
      L["datalog.configurations_explored"] +=
          static_cast<double>(rewrite->configurations_explored);
    }
    Span fo(tracer, "datalog.OmqEngine::RewriteFo", request);
    Result<FoRewriteResult> unfolded = engine->RewriteFo(*query);
    L["datalog.fo_unfold_us"] += fo.Stop();
    if (unfolded.ok() && unfolded->ok) {
      L["datalog.fo_disjuncts"] +=
          static_cast<double>(unfolded->ucq.disjuncts.size());
    }
  }

  MatchStats ms;
  if ((*compiled)->fo_compiled) {
    (*compiled)->fo_compiled->AllAnswers(session.db(), &ms);
  } else {
    CompiledUcq(*query).AllAnswers(session.db(), &ms);
  }
  tp->candidates += ms.candidates;
  tp->matches += ms.matches;

  TableauStats ts = (*plan)->solver().tableau_stats();
  ConsistencyCacheStats cs = (*plan)->solver().cache_stats();
  L["reasoner.tableau_steps"] += static_cast<double>(ts.steps);
  L["reasoner.branches_opened"] += static_cast<double>(ts.branches_opened);
  L["reasoner.nogood_prunes"] += static_cast<double>(ts.nogood_prunes);
  tp->solver_hits += cs.hits;
  tp->solver_lookups += cs.Lookups();
  const SessionStats& ss = session.stats();
  L["serve.tableau_recomputes"] += static_cast<double>(ss.tableau_recomputes);
  L["serve.incremental_refreshes"] +=
      static_cast<double>(ss.incremental_refreshes);
}


/// Warms the shared pool and runs one cold session on an ontology outside
/// the suite, so code pages, allocator arenas and pool threads are hot
/// before anything is timed. Returns its duration.
double Setup(uint64_t seed, int round, RunResult* res) {
  Clock::time_point t0 = Clock::now();
  Scheduler::Global()->ParallelFor(64, [](uint64_t) {});
  const ColdTemplate& warm = Suite().back();
  std::string tag = "w" + SeedTag(seed) + std::to_string(round);
  ColdInputs in = MakeInputs(warm, 99, seed, tag);
  PassStats pass;
  ColdLatencies lat;
  RunColdSession(warm, in, tag, &pass, &lat, res);
  return SecondsSince(t0);
}

}  // namespace

RunResult RunColdStart(const Options& opts) {
  RunResult res;
  const std::vector<ColdTemplate>& suite = Suite();
  const std::string tag = SeedTag(opts.seed);

  // Set-up runs five times here and, in untraced runs, five more times
  // after the timed passes, so its median (setup_s) spans the whole run
  // rather than its start.
  std::vector<double> setups;
  for (int r = 0; r < 5; ++r) setups.push_back(Setup(opts.seed, r, &res));

  // Passes over the line protocol; a traced run alternates them with traced
  // passes, so both sides of the tracing overhead see the same host.
  std::vector<double> pass_ttfa;
  ColdLatencies lat;
  uint64_t commands = 0;
  double timed_s = 0;
  PlannerStats first_picks;
  LayerValues layers;
  Tracer tracer;
  std::vector<TracedPass> traced;
  std::vector<double> session_answers_us, session_update_us;
  uint64_t request = 0;
  gfomq::SchedulerStats sched0 = Scheduler::Global()->stats();
  Clock::time_point start = Clock::now();
  for (int pass_no = 0;
       pass_no < (opts.trace ? 6 : 3) || SecondsSince(start) < opts.seconds;
       ++pass_no) {
    const bool traced_pass = opts.trace && pass_no % 2 == 1;
    PassStats pass;
    TracedPass tp;
    for (size_t i = 0; i < suite.size(); ++i) {
      std::string ptag = tag + std::to_string(pass_no) + "x" + std::to_string(i);
      ColdInputs in = MakeInputs(suite[i], i, opts.seed, ptag);
      if (pass_no == 0) {
        res.input_digest = Fnv1a(res.input_digest, in.ontology + in.query);
        for (const FactSpec& f : in.facts) {
          res.input_digest = Fnv1a(res.input_digest, in.FactText(f));
        }
      }
      if (traced_pass) {
        TraceColdSession(suite[i], in, &tracer, request++, &tp,
                         &session_answers_us, &session_update_us, &res);
      } else {
        RunColdSession(suite[i], in, ptag, &pass, &lat, &res);
      }
    }
    if (traced_pass) {
      tp.layers["reasoner.meta_cache_hit_rate"] =
          Ratio(tp.cache_hits, tp.cache_lookups);
      tp.layers["query.candidates_per_match"] =
          Ratio(tp.candidates, tp.matches);
      tp.layers["reasoner.cache_hit_rate"] =
          Ratio(tp.solver_hits, tp.solver_lookups);
      traced.push_back(std::move(tp));
      continue;
    }
    pass_ttfa.push_back(pass.ttfa_s);
    commands += pass.commands;
    timed_s += pass.ttfa_s;
    if (pass_no == 0) {
      RecordPicks(pass.picks, &res, &layers);
      first_picks = pass.picks;
    } else if (!std::equal(std::begin(pass.picks.chosen),
                           std::end(pass.picks.chosen),
                           std::begin(first_picks.chosen)) ||
               pass.picks.truncated_fallbacks !=
                   first_picks.truncated_fallbacks) {
      res.notes.push_back("FLAG: pass " + std::to_string(pass_no) +
                          " picks differ from pass 0");
    }
  }
  gfomq::SchedulerStats sched1 = Scheduler::Global()->stats();
  for (const ColdTemplate& t : suite) {
    res.picks[std::string("verdict.") + t.key] =
        t.ptime == Certainty::kYes ? "yes" : "no";
  }

  if (!opts.trace) {
    for (int r = 5; r < 10; ++r) setups.push_back(Setup(opts.seed, r, &res));
    res.Add("cold_ttfa_s", Median(pass_ttfa), "s");
    res.Add("qps", static_cast<double>(commands) / timed_s, "1/s");
    res.Add("answers_us_p50", Median(lat.answers_cold), "us");
    res.Add("answers_us_p90", Percentile(lat.answers_cold, 0.9), "us");
    res.Add("update_us_p50", Median(lat.updates_cold), "us");
    res.Add("setup_s", Median(setups), "s");
    res.Add("peak_rss_mb", PeakRssMb(), "MiB");
    res.notes.push_back("samples: passes=" + std::to_string(pass_ttfa.size()) +
                        " answers=" + std::to_string(lat.answers_cold.size()) +
                        " updates=" + std::to_string(lat.updates_cold.size()));
    return res;
  }

  for (const auto& [name, v] : traced.front().layers) {
    (void)v;
    std::vector<double> per_pass;
    for (const TracedPass& tp : traced) {
      auto it = tp.layers.find(name);
      per_pass.push_back(it == tp.layers.end() ? 0.0 : it->second);
    }
    layers[name] = Median(per_pass);
  }
  std::vector<double> walls, stages;
  for (const TracedPass& tp : traced) {
    walls.push_back(tp.wall_s);
    stages.push_back(tp.stage_us / 1e6);
  }
  const double untraced_ttfa = Median(pass_ttfa);
  layers["trace.overhead_s"] = Median(walls) - untraced_ttfa;
  layers["trace.stage_coverage"] = Median(stages) / untraced_ttfa;
  const double s_answers = Median(session_answers_us);
  std::vector<double> driver_data = lat.answers_cmd;
  driver_data.insert(driver_data.end(), lat.updates_cmd.begin(),
                     lat.updates_cmd.end());
  std::vector<double> session_data = session_answers_us;
  session_data.insert(session_data.end(), session_update_us.begin(),
                      session_update_us.end());
  layers["serve.session_answers_us_p50"] = s_answers;
  layers["serve.session_update_us_p50"] = Median(session_update_us);
  layers["serve.driver_overhead_us_p50"] =
      Median(driver_data) - Median(session_data);
  layers["serve.answers_self_share"] = s_answers / Median(lat.answers_cmd);
  AddSchedulerDeltas(sched0, sched1, static_cast<double>(commands), &layers);
  for (const MetricSpec& m : kPerLayer) {
    res.Add(m.name, layers.count(m.name) ? layers[m.name] : 0.0, m.unit);
  }
  res.notes.push_back("passes: untraced=" + std::to_string(pass_ttfa.size()) +
                      " traced=" + std::to_string(traced.size()) +
                      " spans=" + std::to_string(tracer.spans().size()));
  if (!opts.trace_out.empty() && !tracer.WriteJson(opts.trace_out)) {
    res.notes.push_back("could not write " + opts.trace_out);
  }
  return res;
}

void RecordPicks(const PlannerStats& picks, RunResult* res,
                 LayerValues* layers) {
  for (size_t b = 0; b < kNumPlanBackends; ++b) {
    const std::string name = BackendName(static_cast<PlanBackend>(b));
    res->picks["picks." + name] = std::to_string(picks.chosen[b]);
    (*layers)["serve.backend_picks." + name] =
        static_cast<double>(picks.chosen[b]);
  }
  res->picks["truncated_fallbacks"] =
      std::to_string(picks.truncated_fallbacks);
  (*layers)["serve.truncated_fallbacks"] =
      static_cast<double>(picks.truncated_fallbacks);
}

void AddSchedulerDeltas(const gfomq::SchedulerStats& before,
                        const gfomq::SchedulerStats& after, double commands,
                        LayerValues* layers) {
  if (commands <= 0) return;
  (*layers)["common.tasks_submitted"] =
      static_cast<double>(after.tasks_submitted - before.tasks_submitted) /
      commands;
  (*layers)["common.steals"] =
      static_cast<double>(after.steals - before.steals) / commands;
  (*layers)["common.spawn_denied"] =
      static_cast<double>(after.spawn_denied - before.spawn_denied) /
      commands;
}

}  // namespace omqbench
