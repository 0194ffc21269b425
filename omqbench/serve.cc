// serve_lookup, serve_update and serve_conp: steady-state traffic through
// ServeDriver from one blocking client thread per session (closed loop).
//
// Each session follows a seeded script: a base loaded through `assert`
// lines during set-up, then cycles of deltas (assert/retract of facts from
// a per-session universe) and `answers` commands. Every query is
// registered on every session before the plan's first `answers`, so the
// planner picks from static costs only. Replies are stored during the
// timed phase and checked afterwards by replaying the script into a
// closed-form model of the session (the backend-independent oracle).
//
// The traced run adds: the same stages as public calls with spans (parse,
// Classify, Compile with assume_ptime, CompileQuery, Rewrite, RewriteFo),
// and a fixed-length replay of every session's script straight into
// Session objects, once untraced and once with a span per call.

#include <cstdlib>
#include <functional>
#include <future>
#include <memory>
#include <string_view>
#include <thread>

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

/// A generated fact; b < 0 for unary relations.
struct GFact {
  std::string rel;
  int a = 0;
  int b = -1;
  auto operator<=>(const GFact&) const = default;
};

/// The oracle's view of one session's base.
class Model {
 public:
  bool Has(const GFact& f) const {
    if (f.b < 0) return Unary(f.rel).count(f.a) > 0;
    auto it = out_.find(f.a);
    return it != out_.end() && it->second.count(f.b) > 0;
  }
  void Set(const GFact& f, bool present) {
    ++revision_;
    if (f.b < 0) {
      if (present) {
        unary_[f.rel].insert(f.a);
      } else {
        unary_[f.rel].erase(f.a);
      }
    } else if (present) {
      out_[f.a].insert(f.b);
      in_[f.b].insert(f.a);
    } else {
      out_[f.a].erase(f.b);
      in_[f.b].erase(f.a);
    }
  }
  const std::set<int>& Unary(const std::string& rel) const {
    static const std::set<int> kEmpty;
    auto it = unary_.find(rel);
    return it == unary_.end() ? kEmpty : it->second;
  }
  /// R-successors / R-predecessors (R is the only binary relation).
  const std::set<int>& Out(int x) const { return Adj(out_, x); }
  const std::set<int>& In(int x) const { return Adj(in_, x); }
  /// B(x) under forall x,y (R(x,y) -> B(y)): a B fact or an incoming edge.
  bool HasB(int x) const { return Unary("B").count(x) || !In(x).empty(); }
  uint64_t revision() const { return revision_; }

 private:
  static const std::set<int>& Adj(const std::map<int, std::set<int>>& m,
                                  int x) {
    static const std::set<int> kEmpty;
    auto it = m.find(x);
    return it == m.end() ? kEmpty : it->second;
  }
  std::map<std::string, std::set<int>> unary_;
  std::map<int, std::set<int>> out_, in_;
  uint64_t revision_ = 0;
};

struct Command {
  enum Kind { kAssert, kRetract, kAnswers } kind = kAnswers;
  GFact fact;
  int query = 0;
  /// Expected reply of a delta: "ok" when it changes the base, "ok absent"
  /// for an idempotent re-assert.
  bool changes = true;
};

/// A session's generated base: facts that never change, plus a universe of
/// facts the deltas toggle (`initially` marks the ones present at start).
struct BaseSpec {
  std::vector<GFact> fixed;
  std::vector<GFact> universe;
  std::vector<bool> initially;
};

struct ServeSpec {
  const char* name;
  const char* ontology;
  std::vector<std::string> queries;
  std::function<DriverOptions()> options;
  std::function<BaseSpec(Rng&, int session)> base;
  /// Deltas either toggle a random universe fact (every delta changes the
  /// base; asserts and retracts about even) or churn: retract a present
  /// fact with probability `retract_share`, else assert a random universe
  /// fact, which may already be present (an idempotent re-assert).
  bool toggle = false;
  double retract_share = 0.3;
  int deltas_per_cycle = 1;
  int answers_per_cycle = 1;
  std::function<AnswerSet(const Model&, int query)> expected;
  /// Commands per session in each traced-run replay.
  size_t replay_commands = 0;
  /// Commands per second one client is expected to stay under; sizes the
  /// client logs.
  double client_rate = 0;
  PlanBackend pick;  // where every query is expected to land
};

/// Marks each universe fact present with probability `p`. Churn at
/// retract share r is stationary at p = 1 - r/(1-r), toggling at p = 1/2,
/// so the base neither grows nor shrinks over a run.
BaseSpec Universe(Rng& rng, std::vector<GFact> fixed,
                  std::vector<GFact> universe, double p) {
  BaseSpec b;
  b.fixed = std::move(fixed);
  b.universe = std::move(universe);
  for (size_t i = 0; i < b.universe.size(); ++i) {
    b.initially.push_back(rng.Chance(p));
  }
  return b;
}

AnswerSet Singletons(const std::set<int>& xs) {
  AnswerSet out;
  for (int x : xs) out.insert({x});
  return out;
}

/// Distinct random R edges over n nodes, avoiding `taken`.
std::vector<GFact> RandomEdges(Rng& rng, int n, size_t count,
                               std::set<std::pair<int, int>>* taken) {
  std::vector<GFact> out;
  while (out.size() < count) {
    int a = static_cast<int>(rng.Below(n));
    int b = static_cast<int>(rng.Below(n));
    if (a == b || !taken->insert({a, b}).second) continue;
    out.push_back({"R", a, b});
  }
  return out;
}

/// About k out- and k in-edges per node over n nodes: k random
/// permutations, minus fixed points and edges already in `taken`. Regular
/// degrees keep the matching and closure work of one seed close to the
/// next one's.
std::vector<GFact> RegularEdges(Rng& rng, int n, int k,
                                std::set<std::pair<int, int>>* taken) {
  std::vector<GFact> out;
  std::vector<int> perm(n);
  for (int r = 0; r < k; ++r) {
    for (int i = 0; i < n; ++i) perm[i] = i;
    for (int i = n - 1; i > 0; --i) {
      std::swap(perm[i], perm[rng.Below(static_cast<uint64_t>(i) + 1)]);
    }
    for (int i = 0; i < n; ++i) {
      if (perm[i] != i && taken->insert({i, perm[i]}).second) {
        out.push_back({"R", i, perm[i]});
      }
    }
  }
  return out;
}

/// Distinct random nodes, avoiding `taken`.
std::vector<int> RandomNodes(Rng& rng, int n, size_t count,
                             std::set<int>* taken) {
  std::vector<int> out;
  while (out.size() < count) {
    int a = static_cast<int>(rng.Below(n));
    if (taken->insert(a).second) out.push_back(a);
  }
  return out;
}

// --- serve_lookup: FO-served views, read-heavy ---------------------------

constexpr int kLookupNodes = 500;
constexpr int kLookupDegree = 2;

ServeSpec LookupSpec() {
  ServeSpec s;
  s.name = "serve_lookup";
  s.ontology = "forall x, y (R(x,y) -> B(y));";
  s.queries = {
      "q(x) :- R(x,y), C(y)",        "q(x) :- B(x), C(x)",
      "q(x) :- R(x,y), R(y,z), C(z)", "q(x) :- R(x,y), B(x), D(y)",
      "q(x) :- C(x), R(x,y), B(y)",  "q(x) :- D(x), B(x)",
  };
  s.options = [] { return DriverOptions{}; };
  s.base = [](Rng& rng, int) {
    std::set<std::pair<int, int>> edges;
    std::vector<GFact> fixed = RegularEdges(rng, kLookupNodes, kLookupDegree,
                                            &edges);
    std::vector<GFact> universe = RandomEdges(rng, kLookupNodes, 40, &edges);
    std::set<int> c_taken, d_taken, b_taken;
    for (int x : RandomNodes(rng, kLookupNodes, 4, &c_taken)) {
      fixed.push_back({"C", x});
    }
    for (int x : RandomNodes(rng, kLookupNodes, 4, &d_taken)) {
      fixed.push_back({"D", x});
    }
    for (int x : RandomNodes(rng, kLookupNodes, 40, &b_taken)) {
      fixed.push_back({"B", x});
    }
    for (int x : RandomNodes(rng, kLookupNodes, 12, &c_taken)) {
      universe.push_back({"C", x});
    }
    for (int x : RandomNodes(rng, kLookupNodes, 12, &d_taken)) {
      universe.push_back({"D", x});
    }
    for (int x : RandomNodes(rng, kLookupNodes, 16, &b_taken)) {
      universe.push_back({"B", x});
    }
    return Universe(rng, std::move(fixed), std::move(universe), 0.5);
  };
  s.toggle = true;
  s.deltas_per_cycle = 1;
  s.answers_per_cycle = 9;
  s.expected = [](const Model& m, int q) {
    AnswerSet out;
    const std::set<int>& C = m.Unary("C");
    const std::set<int>& D = m.Unary("D");
    switch (q) {
      case 0:  // R(x,y), C(y)
        for (int y : C) {
          for (int x : m.In(y)) out.insert({x});
        }
        break;
      case 1:  // B(x), C(x)
        for (int x : C) {
          if (m.HasB(x)) out.insert({x});
        }
        break;
      case 2:  // R(x,y), R(y,z), C(z)
        for (int z : C) {
          for (int y : m.In(z)) {
            for (int x : m.In(y)) out.insert({x});
          }
        }
        break;
      case 3:  // R(x,y), B(x), D(y)
        for (int y : D) {
          for (int x : m.In(y)) {
            if (m.HasB(x)) out.insert({x});
          }
        }
        break;
      case 4:  // C(x), R(x,y), B(y) -- every R target is a B
        for (int x : C) {
          if (!m.Out(x).empty()) out.insert({x});
        }
        break;
      case 5:  // D(x), B(x)
        for (int x : D) {
          if (m.HasB(x)) out.insert({x});
        }
        break;
    }
    return out;
  };
  s.replay_commands = 2000;
  s.client_rate = 10000;
  s.pick = PlanBackend::kFoRewrite;
  return s;
}

// --- serve_update: datalog-served recursive views, write-heavy -----------

constexpr int kUpdateNodes = 240;

ServeSpec UpdateSpec() {
  ServeSpec s;
  s.name = "serve_update";
  s.ontology =
      "forall x . (A(x) -> B(x)); forall x, y (R(x,y) -> (B(x) -> B(y)));";
  s.queries = {"q(x) :- B(x)", "q(x) :- B(x), C(x)"};
  s.options = [] {
    // Outdegree-2 bouquets keep classification in set-up near 0.1 s; this
    // workload measures maintenance, not the meta decision.
    DriverOptions o;
    o.plan.engine.bouquet.max_outdegree = 2;
    return o;
  };
  s.base = [](Rng& rng, int) {
    std::set<std::pair<int, int>> edges;
    std::vector<GFact> universe = RegularEdges(rng, kUpdateNodes, 2, &edges);
    std::set<int> roots;
    for (int x : RandomNodes(rng, kUpdateNodes, 12, &roots)) {
      universe.push_back({"A", x});
    }
    std::vector<GFact> fixed;
    std::set<int> marked;
    for (int x : RandomNodes(rng, kUpdateNodes, kUpdateNodes / 3, &marked)) {
      fixed.push_back({"C", x});
    }
    return Universe(rng, std::move(fixed), std::move(universe),
                    1.0 - 0.3 / 0.7);
  };
  s.retract_share = 0.3;
  s.deltas_per_cycle = 4;
  s.answers_per_cycle = 1;
  s.expected = [](const Model& m, int q) {
    std::set<int> reach = m.Unary("A");
    std::vector<int> todo(reach.begin(), reach.end());
    while (!todo.empty()) {
      int x = todo.back();
      todo.pop_back();
      for (int y : m.Out(x)) {
        if (reach.insert(y).second) todo.push_back(y);
      }
    }
    if (q == 1) {
      std::set<int> both;
      for (int x : reach) {
        if (m.Unary("C").count(x)) both.insert(x);
      }
      return Singletons(both);
    }
    return Singletons(reach);
  };
  s.replay_commands = 400;
  s.client_rate = 2000;
  s.pick = PlanBackend::kDatalogRewrite;
  return s;
}

// --- serve_conp: tableau-served sessions across the budget cliff ---------

/// Independent A facts per session; the last ones sit above the size at
/// which the tableau budget runs out.
constexpr int kConpSizes[] = {6, 10, 14, 17};

ServeSpec ConpSpec() {
  ServeSpec s;
  s.name = "serve_conp";
  s.ontology = "forall x . (A(x) -> B1(x) | B2(x));";
  s.queries = {"q(x) :- B1(x) ; q(x) :- B2(x)"};
  s.options = [] { return DriverOptions{}; };
  s.base = [](Rng& rng, int session) {
    const int n = kConpSizes[session % 4];
    std::vector<GFact> fixed;
    for (int i = 0; i < n; ++i) fixed.push_back({"A", i});
    // Deltas flip B1/B2 marks on A elements back and forth.
    std::vector<GFact> universe;
    std::set<int> taken;
    for (int x : RandomNodes(rng, n, 5, &taken)) {
      universe.push_back({rng.Chance(0.5) ? "B1" : "B2", x});
    }
    return Universe(rng, std::move(fixed), std::move(universe), 0.5);
  };
  s.toggle = true;
  s.deltas_per_cycle = 2;
  s.answers_per_cycle = 1;
  s.expected = [](const Model& m, int) {
    std::set<int> out = m.Unary("A");
    for (int x : m.Unary("B1")) out.insert(x);
    for (int x : m.Unary("B2")) out.insert(x);
    return Singletons(out);
  };
  s.replay_commands = 12;
  s.client_rate = 20000;
  s.pick = PlanBackend::kTableau;
  return s;
}

/// One session's deterministic command stream plus the model it implies.
class Script {
 public:
  Script(const ServeSpec& spec, uint64_t seed, int session)
      : spec_(&spec),
        rng_(seed * 0x9e3779b97f4a7c15ULL + static_cast<uint64_t>(session)),
        base_(spec.base(rng_, session)),
        prefix_(SeedTag(seed) + "s" + std::to_string(session)) {
    for (const GFact& f : base_.fixed) model_.Set(f, true);
    for (size_t i = 0; i < base_.universe.size(); ++i) {
      if (base_.initially[i]) {
        model_.Set(base_.universe[i], true);
        present_.push_back(i);
      }
    }
  }

  /// The facts present before the first command, in load order.
  std::vector<GFact> InitialFacts() const {
    std::vector<GFact> out = base_.fixed;
    for (size_t i : present_) out.push_back(base_.universe[i]);
    return out;
  }

  Command Next() {
    Command c;
    const uint64_t cycle = static_cast<uint64_t>(spec_->deltas_per_cycle +
                                                 spec_->answers_per_cycle);
    if (step_++ % cycle >= static_cast<uint64_t>(spec_->deltas_per_cycle)) {
      c.kind = Command::kAnswers;
      c.query = next_query_++ % static_cast<int>(spec_->queries.size());
      return c;
    }
    if (spec_->toggle) {
      // Flip one universe fact: every delta changes the base.
      size_t i = rng_.Below(base_.universe.size());
      c.fact = base_.universe[i];
      auto pos = std::find(present_.begin(), present_.end(), i);
      if (pos == present_.end()) {
        c.kind = Command::kAssert;
        present_.push_back(i);
      } else {
        c.kind = Command::kRetract;
        *pos = present_.back();
        present_.pop_back();
      }
      model_.Set(c.fact, c.kind == Command::kAssert);
      return c;
    }
    if (!present_.empty() && rng_.Chance(spec_->retract_share)) {
      size_t k = rng_.Below(present_.size());
      c.kind = Command::kRetract;
      c.fact = base_.universe[present_[k]];
      present_[k] = present_.back();
      present_.pop_back();
      model_.Set(c.fact, false);
      return c;
    }
    size_t i = rng_.Below(base_.universe.size());
    c.kind = Command::kAssert;
    c.fact = base_.universe[i];
    c.changes = !model_.Has(c.fact);
    if (c.changes) {
      model_.Set(c.fact, true);
      present_.push_back(i);
    }
    return c;
  }

  std::string FactText(const GFact& f) const {
    std::string s = f.rel + "(" + ElemName(prefix_, f.a);
    if (f.b >= 0) s += "," + ElemName(prefix_, f.b);
    return s + ")";
  }
  const std::string& prefix() const { return prefix_; }
  const Model& model() const { return model_; }

 private:
  const ServeSpec* spec_;
  Rng rng_;
  BaseSpec base_;
  std::string prefix_;
  Model model_;
  std::vector<size_t> present_;  // universe indices currently in the base
  uint64_t step_ = 0;
  int next_query_ = 0;
};

std::string SessionName(int i) { return "s" + std::to_string(i); }
std::string QueryName(int q) { return "q" + std::to_string(q); }

std::string CommandLine(const Script& script, int session, const Command& c) {
  switch (c.kind) {
    case Command::kAssert:
      return "assert " + SessionName(session) + " " + script.FactText(c.fact);
    case Command::kRetract:
      return "retract " + SessionName(session) + " " + script.FactText(c.fact);
    case Command::kAnswers:
      break;
  }
  return "answers " + SessionName(session) + " " + QueryName(c.query);
}

/// An `answers` reply reduced to what the oracle compares: the declared
/// count and an order-independent sum of the hashes of its "(a,b)" tuple
/// texts. Delta replies use the reserved counts below.
struct ReplyDigest {
  uint32_t n = kMalformed;
  uint64_t sum = 0;
  bool operator==(const ReplyDigest&) const = default;
  static constexpr uint32_t kMalformed = 0xffffffff;
  static constexpr uint32_t kDeltaOk = 0xfffffff0;      // "ok"
  static constexpr uint32_t kDeltaAbsent = 0xfffffff1;  // "ok absent"
};

ReplyDigest DigestAnswers(const std::string& reply) {
  ReplyDigest d;
  const size_t n_pos = reply.find(" n=");
  if (reply.rfind("ok answers ", 0) != 0 || n_pos == std::string::npos) {
    return d;
  }
  uint32_t n = static_cast<uint32_t>(
      std::strtoul(reply.c_str() + n_pos + 3, nullptr, 10));
  for (size_t open = reply.find('(', n_pos); open != std::string::npos;
       open = reply.find('(', open + 1)) {
    const size_t close = reply.find(')', open);
    if (close == std::string::npos) return d;
    d.sum += Fnv1a(kFnvBasis, std::string_view(reply).substr(
                                  open, close - open + 1));
  }
  d.n = n;
  return d;
}

ReplyDigest DigestDelta(const std::string& reply) {
  ReplyDigest d;
  if (reply == "ok") d.n = ReplyDigest::kDeltaOk;
  if (reply == "ok absent") d.n = ReplyDigest::kDeltaAbsent;
  return d;
}

/// The digest the oracle expects for `query` in the script's current
/// state, memoized per (query, model revision).
class ExpectedDigest {
 public:
  explicit ExpectedDigest(const ServeSpec& spec) : spec_(spec) {}
  const ReplyDigest& Get(const Script& script, int query) {
    auto key = std::make_pair(query, script.model().revision());
    if (key != key_) {
      key_ = key;
      AnswerSet set = spec_.expected(script.model(), query);
      digest_ = ReplyDigest{static_cast<uint32_t>(set.size()), 0};
      for (const Tuple& t : set) {
        std::string text = "(";
        for (size_t i = 0; i < t.size(); ++i) {
          if (i) text += ",";
          text += ElemName(script.prefix(), t[i]);
        }
        digest_.sum += Fnv1a(kFnvBasis, text + ")");
      }
    }
    return digest_;
  }

 private:
  const ServeSpec& spec_;
  std::pair<int, uint64_t> key_{-1, 0};
  ReplyDigest digest_;
};

/// A driver after set-up: ontology compiled, every session opened with
/// every query registered, bases loaded, first answers checked.
struct Served {
  std::unique_ptr<ServeDriver> driver;
  std::vector<std::unique_ptr<Script>> scripts;
  double ttfa_s = 0;
  double setup_s = 0;
  std::string plan_backend;
};

Served SetUp(const ServeSpec& spec, uint64_t seed, RunResult* res) {
  Served sv;
  Clock::time_point t0 = Clock::now();
  sv.driver = std::make_unique<ServeDriver>(spec.options());
  ServeDriver& d = *sv.driver;
  std::string reply = d.HandleLine(std::string("ontology O ") + spec.ontology);
  res->Check(reply.rfind("ok ontology", 0) == 0, "ontology: " + reply);
  size_t pos = reply.find("backend=");
  if (pos != std::string::npos) sv.plan_backend = reply.substr(pos + 8);
  const int sessions = 4;
  for (int i = 0; i < sessions; ++i) {
    reply = d.HandleLine("session " + SessionName(i) + " O");
    res->Check(reply.rfind("ok session", 0) == 0, reply);
    for (size_t q = 0; q < spec.queries.size(); ++q) {
      reply = d.HandleLine("query " + SessionName(i) + " " +
                           QueryName(static_cast<int>(q)) + " " +
                           spec.queries[q]);
      res->Check(reply.rfind("ok query", 0) == 0, reply);
    }
  }
  for (int i = 0; i < sessions; ++i) {
    sv.scripts.push_back(std::make_unique<Script>(spec, seed, i));
    const Script& script = *sv.scripts.back();
    std::vector<std::future<std::string>> loads;
    for (const GFact& f : script.InitialFacts()) {
      loads.push_back(
          d.SubmitLine("assert " + SessionName(i) + " " + script.FactText(f)));
    }
    std::vector<std::future<std::string>> firsts;
    for (size_t q = 0; q < spec.queries.size(); ++q) {
      firsts.push_back(d.SubmitLine("answers " + SessionName(i) + " " +
                                    QueryName(static_cast<int>(q))));
    }
    std::vector<std::string> first_replies;
    for (auto& f : firsts) {
      first_replies.push_back(f.get());
      if (i == 0 && first_replies.size() == 1) sv.ttfa_s = SecondsSince(t0);
    }
    for (auto& f : loads) {
      std::string r = f.get();
      res->Check(r == "ok", "base assert: " + r);
    }
    ExpectedDigest expected(spec);
    for (size_t q = 0; q < first_replies.size(); ++q) {
      res->Check(DigestAnswers(first_replies[q]) ==
                     expected.Get(script, static_cast<int>(q)),
                 std::string(spec.name) + " first answers: " +
                     first_replies[q].substr(0, 200));
    }
  }
  sv.setup_s = SecondsSince(t0);
  return sv;
}

/// What one closed-loop client saw: per command its latency and reply
/// digest, in fixed-size chunks. The first chunks are allocated and touched
/// before the timed phase (`capacity` records), so the benchmark's own
/// bookkeeping adds the same resident memory whatever the command rate;
/// past that it grows one chunk at a time.
class ClientLog {
 public:
  struct Record {
    ReplyDigest reply;
    float us = 0;
  };
  explicit ClientLog(size_t capacity) {
    for (size_t c = 0; c * kChunk < capacity; ++c) {
      chunks_.emplace_back(kChunk);
    }
  }
  void Add(float us, const ReplyDigest& reply) {
    if (size_ == chunks_.size() * kChunk) chunks_.emplace_back(kChunk);
    chunks_[size_ / kChunk][size_ % kChunk] = Record{reply, us};
    ++size_;
  }
  size_t size() const { return size_; }
  const Record& operator[](size_t i) const {
    return chunks_[i / kChunk][i % kChunk];
  }

 private:
  static constexpr size_t kChunk = 1 << 16;
  std::vector<std::vector<Record>> chunks_;
  size_t size_ = 0;
};

void RunClient(ServeDriver* driver, Script* script, int session,
               Clock::time_point start, double seconds, ClientLog* log) {
  for (;;) {
    Clock::time_point s = Clock::now();
    if (std::chrono::duration<double>(s - start).count() >= seconds) break;
    Command c = script->Next();
    std::string line = CommandLine(*script, session, c);
    s = Clock::now();
    std::string reply = driver->SubmitLine(line).get();
    float us = static_cast<float>(MicrosBetween(s, Clock::now()));
    log->Add(us, c.kind == Command::kAnswers ? DigestAnswers(reply)
                                             : DigestDelta(reply));
  }
}

/// Latencies of one timed phase, split by command kind.
struct Latencies {
  std::vector<double> answers_us, update_us, all_us;
};

/// Replays a session's script against its logged replies; splits the
/// latencies by command kind on the way.
void Verify(const ServeSpec& spec, uint64_t seed, int session,
            const ClientLog& log, Latencies* lat, RunResult* res) {
  Script script(spec, seed, session);
  ExpectedDigest expected(spec);
  for (size_t i = 0; i < log.size(); ++i) {
    Command c = script.Next();
    const ReplyDigest& got = log[i].reply;
    lat->all_us.push_back(log[i].us);
    if (c.kind == Command::kAnswers) {
      lat->answers_us.push_back(log[i].us);
      const ReplyDigest& want = expected.Get(script, c.query);
      res->Check(got == want, SessionName(session) + " " +
                                  CommandLine(script, session, c) +
                                  ": expected n=" + std::to_string(want.n) +
                                  ", got n=" + std::to_string(got.n));
    } else {
      lat->update_us.push_back(log[i].us);
      const uint32_t want = c.changes ? ReplyDigest::kDeltaOk
                                      : ReplyDigest::kDeltaAbsent;
      res->Check(got.n == want, CommandLine(script, session, c) +
                                    ": unexpected reply");
    }
  }
}

struct TimedPhase {
  double qps = 0;
  /// Peak RSS at the end of the timed phase, before the oracle's replay.
  double peak_rss_mb = 0;
  uint64_t commands = 0;
  Latencies lat;
  PlannerStats picks;
  gfomq::SchedulerStats sched_before, sched_after;
};

TimedPhase RunTimed(const ServeSpec& spec, uint64_t seed, Served* sv,
                    double seconds, RunResult* res) {
  TimedPhase tp;
  const int sessions = static_cast<int>(sv->scripts.size());
  std::vector<ClientLog> logs;
  for (int i = 0; i < sessions; ++i) {
    logs.emplace_back(static_cast<size_t>(spec.client_rate * seconds));
  }
  tp.sched_before = Scheduler::Global()->stats();
  Clock::time_point start = Clock::now();
  {
    std::vector<std::thread> clients;
    for (int i = 0; i < sessions; ++i) {
      clients.emplace_back(RunClient, sv->driver.get(), sv->scripts[i].get(),
                           i, start, seconds, &logs[i]);
    }
    for (std::thread& t : clients) t.join();
  }
  const double wall = SecondsSince(start);
  tp.sched_after = Scheduler::Global()->stats();
  tp.peak_rss_mb = PeakRssMb();
  tp.picks = sv->driver->plans().PlannerTotals();
  for (int i = 0; i < sessions; ++i) {
    Verify(spec, seed, i, logs[i], &tp.lat, res);
    tp.commands += logs[i].size();
  }
  tp.qps = static_cast<double>(tp.commands) / wall;
  return tp;
}

/// Records the timed driver's picks and flags a query that did not land on
/// the workload's backend.
void RecordServePicks(const ServeSpec& spec, const Served& sv,
                      const TimedPhase& tp, RunResult* res,
                      LayerValues* layers) {
  RecordPicks(tp.picks, res, layers);
  res->picks["verdict.plan_backend"] = sv.plan_backend;
  if (tp.picks.chosen[static_cast<size_t>(spec.pick)] != spec.queries.size()) {
    res->notes.push_back(std::string("FLAG: expected every query on ") +
                         BackendName(spec.pick));
  }
}

/// The traced run's direct path: a plan compiled with the verdict passed
/// in (so the meta decision is not paid again), sessions loaded through
/// Session::Assert, then `replay_commands` per session, one session after
/// the other.
struct Replay {
  double wall_s = 0;
  std::vector<double> answers_us, update_us;
  SessionStats stats;  // summed over sessions (monotone counters)
  uint64_t answers_calls = 0;
  TableauStats tableau;
  ConsistencyCacheStats cache;
  MatchStats match;
};

Replay RunReplay(const ServeSpec& spec, uint64_t seed, Certainty ptime,
                 Tracer* tracer, RunResult* res) {
  Replay rp;
  SymbolsPtr symbols = MakeSymbols();
  Result<Ontology> onto = ParseOntology(spec.ontology, symbols);
  std::vector<Ucq> queries;
  for (const std::string& q : spec.queries) {
    Result<Ucq> parsed = ParseUcq(q, symbols);
    if (parsed.ok()) queries.push_back(*parsed);
  }
  PlanOptions popts = spec.options().plan;
  popts.assume_ptime = ptime;
  Result<std::shared_ptr<OmqPlan>> plan =
      onto.ok() ? OmqPlan::Compile(*onto, popts)
                : Result<std::shared_ptr<OmqPlan>>(onto.status());
  if (!plan.ok() || queries.size() != spec.queries.size()) {
    res->Check(false, std::string(spec.name) + " replay set-up");
    return rp;
  }
  std::vector<std::unique_ptr<Session>> sessions;
  std::vector<std::unique_ptr<Script>> scripts;
  auto to_fact = [&](Session& s, const Script& script, const GFact& f) {
    Fact fact{static_cast<uint32_t>(symbols->FindRel(f.rel)), {}};
    fact.args.push_back(s.AddConstant(ElemName(script.prefix(), f.a)));
    if (f.b >= 0) {
      fact.args.push_back(s.AddConstant(ElemName(script.prefix(), f.b)));
    }
    return fact;
  };
  auto to_ids = [](const Session& s,
                   const std::set<std::vector<ElemId>>& got) {
    AnswerSet ids;
    for (const std::vector<ElemId>& tuple : got) {
      Tuple t;
      for (ElemId e : tuple) {
        std::string name = s.db().ElemName(e);
        t.push_back(std::atoi(name.c_str() + name.rfind('_') + 1));
      }
      ids.insert(t);
    }
    return ids;
  };
  for (int i = 0; i < 4; ++i) {
    sessions.push_back(std::make_unique<Session>(*plan));
    for (size_t q = 0; q < queries.size(); ++q) {
      Status st = sessions[i]->RegisterQuery(QueryName(static_cast<int>(q)),
                                             queries[q]);
      res->Check(st.ok(), "replay register query");
    }
  }
  for (int i = 0; i < 4; ++i) {
    scripts.push_back(std::make_unique<Script>(spec, seed, i));
    for (const GFact& f : scripts[i]->InitialFacts()) {
      sessions[i]->Assert(to_fact(*sessions[i], *scripts[i], f));
    }
    for (size_t q = 0; q < queries.size(); ++q) {
      sessions[i]->Answers(QueryName(static_cast<int>(q)));
    }
  }

  Clock::time_point start = Clock::now();
  uint64_t request = 0;
  for (int i = 0; i < 4; ++i) {
    Session& s = *sessions[i];
    Script& script = *scripts[i];
    for (size_t k = 0; k < spec.replay_commands; ++k, ++request) {
      Command c = script.Next();
      if (c.kind == Command::kAnswers) {
        Span span(tracer, "serve.Session::Answers/" + QueryName(c.query),
                  request);
        Result<std::set<std::vector<ElemId>>> got =
            s.Answers(QueryName(c.query));
        rp.answers_us.push_back(span.Stop());
        ++rp.answers_calls;
        res->Check(got.ok() && to_ids(s, *got) == spec.expected(script.model(),
                                                                 c.query),
                   std::string(spec.name) + " replay answers " +
                       SessionName(i) + " " + QueryName(c.query));
        continue;
      }
      Fact fact = to_fact(s, script, c.fact);
      const bool is_assert = c.kind == Command::kAssert;
      Span span(tracer,
                is_assert ? "serve.Session::Assert" : "serve.Session::Retract",
                request);
      Result<bool> changed = is_assert ? s.Assert(fact) : s.Retract(fact);
      rp.update_us.push_back(span.Stop());
      res->Check(changed.ok() && *changed == c.changes,
                 "replay " + CommandLine(script, i, c));
    }
  }
  rp.wall_s = SecondsSince(start);

  for (int i = 0; i < 4; ++i) {
    const SessionStats& st = sessions[i]->stats();
    rp.stats.answer_cache_hits += st.answer_cache_hits;
    rp.stats.dred_rounds += st.dred_rounds;
    rp.stats.overdeleted_facts += st.overdeleted_facts;
    rp.stats.rederived_facts += st.rederived_facts;
    rp.stats.incremental_refreshes += st.incremental_refreshes;
    rp.stats.tableau_recomputes += st.tableau_recomputes;
    for (size_t q = 0; q < queries.size(); ++q) {
      Result<std::shared_ptr<const CompiledQuery>> cq =
          (*plan)->CompileQuery(queries[q]);
      if (cq.ok() && (*cq)->fo_compiled) {
        (*cq)->fo_compiled->AllAnswers(sessions[i]->db(), &rp.match);
      } else {
        CompiledUcq(queries[q]).AllAnswers(sessions[i]->db(), &rp.match);
      }
    }
  }
  rp.tableau = (*plan)->solver().tableau_stats();
  rp.cache = (*plan)->solver().cache_stats();
  return rp;
}


/// The traced stages of compiling this workload's ontology and queries.
Certainty TraceStages(const ServeSpec& spec, Tracer* tracer,
                      LayerValues* layers, RunResult* res) {
  LayerValues& L = *layers;
  SymbolsPtr symbols = MakeSymbols();
  const uint64_t request = 1u << 30;
  Span parse(tracer, "logic.ParseOntology+ParseUcq", request);
  Result<Ontology> onto = ParseOntology(spec.ontology, symbols);
  std::vector<Ucq> queries;
  for (const std::string& q : spec.queries) {
    Result<Ucq> parsed = ParseUcq(q, symbols);
    if (parsed.ok()) queries.push_back(*parsed);
  }
  L["logic.parse_us"] = parse.Stop();
  if (!onto.ok() || queries.size() != spec.queries.size()) {
    res->Check(false, std::string(spec.name) + " traced parse");
    return Certainty::kUnknown;
  }
  const PlanOptions base_opts = spec.options().plan;
  Span classify(tracer, "core.OmqEngine::Create+Classify", request);
  Result<OmqEngine> engine = OmqEngine::Create(*onto, base_opts.engine);
  if (!engine.ok()) {
    res->Check(false, std::string(spec.name) + " traced engine");
    return Certainty::kUnknown;
  }
  const OmqVerdict verdict = engine->Classify();
  L["core.classify_s"] = classify.Stop() / 1e6;
  L["reasoner.bouquets_checked"] =
      static_cast<double>(verdict.bouquets_checked);
  L["reasoner.meta_tableau_steps"] =
      static_cast<double>(verdict.meta_stats.tableau.steps);
  L["reasoner.meta_cache_hit_rate"] = verdict.meta_stats.cache.HitRate();

  PlanOptions popts = base_opts;
  popts.assume_ptime = verdict.ptime;
  Span compile(tracer, "serve.OmqPlan::Compile", request);
  Result<std::shared_ptr<OmqPlan>> plan = OmqPlan::Compile(*onto, popts);
  L["serve.plan_compile_us"] = compile.Stop();
  if (!plan.ok()) {
    res->Check(false, std::string(spec.name) + " traced compile");
    return verdict.ptime;
  }
  for (const Ucq& q : queries) {
    Span cq(tracer, "serve.OmqPlan::CompileQuery", request);
    Result<std::shared_ptr<const CompiledQuery>> compiled =
        (*plan)->CompileQuery(q);
    L["serve.compile_query_us"] += cq.Stop();
    res->Check(compiled.ok(), std::string(spec.name) + " traced query");
    if (verdict.ptime != Certainty::kYes) continue;
    Span rw(tracer, "datalog.OmqEngine::Rewrite", request);
    Result<RewriteResult> rewrite = engine->Rewrite(q);
    L["datalog.rewrite_us"] += rw.Stop();
    if (rewrite.ok()) {
      L["datalog.rewrite_rules"] +=
          static_cast<double>(rewrite->program.rules.size());
      L["datalog.configurations_explored"] +=
          static_cast<double>(rewrite->configurations_explored);
    }
    Span fo(tracer, "datalog.OmqEngine::RewriteFo", request);
    Result<FoRewriteResult> unfolded = engine->RewriteFo(q);
    L["datalog.fo_unfold_us"] += fo.Stop();
    if (unfolded.ok() && unfolded->ok) {
      L["datalog.fo_disjuncts"] +=
          static_cast<double>(unfolded->ucq.disjuncts.size());
    }
  }
  return verdict.ptime;
}

}  // namespace

RunResult RunServe(const Options& opts) {
  RunResult res;
  ServeSpec spec;
  if (opts.workload == "serve_lookup") {
    spec = LookupSpec();
  } else if (opts.workload == "serve_update") {
    spec = UpdateSpec();
  } else if (opts.workload == "serve_conp") {
    spec = ConpSpec();
  } else {
    return res;
  }
  Scheduler::Global()->ParallelFor(64, [](uint64_t) {});  // warm the pool

  // Set-up runs five times before the timed phase (the last driver serves
  // it) and, in untraced runs, five times after it, so slow drift of the
  // host is spread over both medians (setup_s and cold_ttfa_s).
  std::vector<double> setups, ttfas;
  Served sv;
  auto set_up = [&] {
    sv = Served();  // the previous driver goes before the next is built
    sv = SetUp(spec, opts.seed, &res);
    setups.push_back(sv.setup_s);
    ttfas.push_back(sv.ttfa_s);
  };
  for (int r = 0; r < (opts.trace ? 1 : 5); ++r) set_up();
  for (const auto& script : sv.scripts) {
    for (const GFact& f : script->InitialFacts()) {
      res.input_digest = Fnv1a(res.input_digest, script->FactText(f));
    }
  }
  TimedPhase tp = RunTimed(spec, opts.seed, &sv,
                           opts.trace ? opts.seconds / 2 : opts.seconds, &res);
  LayerValues L;
  RecordServePicks(spec, sv, tp, &res, &L);
  res.notes.push_back("samples: commands=" + std::to_string(tp.commands) +
                      " answers=" + std::to_string(tp.lat.answers_us.size()) +
                      " updates=" + std::to_string(tp.lat.update_us.size()));
  sv.driver.reset();

  if (!opts.trace) {
    for (int r = 0; r < 5; ++r) set_up();
    sv.driver.reset();
    res.Add("cold_ttfa_s", Median(ttfas), "s");
    res.Add("qps", tp.qps, "1/s");
    res.Add("answers_us_p50", Median(tp.lat.answers_us), "us");
    res.Add("answers_us_p90", Percentile(tp.lat.answers_us, 0.9), "us");
    res.Add("update_us_p50", Median(tp.lat.update_us), "us");
    res.Add("setup_s", Median(setups), "s");
    res.Add("peak_rss_mb", tp.peak_rss_mb, "MiB");
    return res;
  }

  Tracer tracer;
  Certainty ptime = TraceStages(spec, &tracer, &L, &res);
  // Untraced replays before and after the traced one, so warm-up is not
  // billed to either side of the overhead.
  Replay before = RunReplay(spec, opts.seed, ptime, nullptr, &res);
  Replay traced = RunReplay(spec, opts.seed, ptime, &tracer, &res);
  Replay after = RunReplay(spec, opts.seed, ptime, nullptr, &res);
  const double untraced_s = 0.5 * (before.wall_s + after.wall_s);

  const double s_answers = Median(traced.answers_us);
  std::vector<double> session_all = traced.answers_us;
  session_all.insert(session_all.end(), traced.update_us.begin(),
                     traced.update_us.end());
  L["serve.session_answers_us_p50"] = s_answers;
  L["serve.session_update_us_p50"] = Median(traced.update_us);
  L["serve.driver_overhead_us_p50"] = Median(tp.lat.all_us) - Median(session_all);
  L["serve.answers_self_share"] = Ratio(s_answers, Median(tp.lat.answers_us));
  L["serve.answer_memo_hit_rate"] =
      Ratio(traced.stats.answer_cache_hits, traced.answers_calls);
  L["query.candidates_per_match"] =
      Ratio(traced.match.candidates, traced.match.matches);
  L["serve.dred_rounds"] = static_cast<double>(traced.stats.dred_rounds);
  L["serve.overdeleted_facts"] =
      static_cast<double>(traced.stats.overdeleted_facts);
  L["serve.rederived_facts"] =
      static_cast<double>(traced.stats.rederived_facts);
  L["serve.rederive_ratio"] =
      Ratio(traced.stats.rederived_facts, traced.stats.overdeleted_facts);
  L["serve.incremental_refreshes"] =
      static_cast<double>(traced.stats.incremental_refreshes);
  L["reasoner.tableau_steps"] = static_cast<double>(traced.tableau.steps);
  L["reasoner.branches_opened"] =
      static_cast<double>(traced.tableau.branches_opened);
  L["reasoner.nogood_prunes"] =
      static_cast<double>(traced.tableau.nogood_prunes);
  L["reasoner.cache_hit_rate"] = traced.cache.HitRate();
  L["serve.tableau_recomputes"] =
      static_cast<double>(traced.stats.tableau_recomputes);
  AddSchedulerDeltas(tp.sched_before, tp.sched_after,
                     static_cast<double>(tp.commands), &L);
  double span_us = 0;
  for (double v : traced.answers_us) span_us += v;
  for (double v : traced.update_us) span_us += v;
  L["trace.overhead_s"] = traced.wall_s - untraced_s;
  L["trace.stage_coverage"] = Ratio(span_us / 1e6, untraced_s);
  for (const MetricSpec& m : kPerLayer) {
    res.Add(m.name, L.count(m.name) ? L[m.name] : 0.0, m.unit);
  }
  res.notes.push_back("replay: commands/session=" +
                      std::to_string(spec.replay_commands) +
                      " untraced_s=" + std::to_string(untraced_s) +
                      " traced_s=" + std::to_string(traced.wall_s) +
                      " spans=" + std::to_string(tracer.spans().size()));
  if (!opts.trace_out.empty() && !tracer.WriteJson(opts.trace_out)) {
    res.notes.push_back("could not write " + opts.trace_out);
  }
  return res;
}

}  // namespace omqbench
