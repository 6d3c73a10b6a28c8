// The comimo repository benchmark: three pipelines a user of the library
// waits on, timed end to end, with a traced mode that times each layer.
//
//   ber   — STBC link BER curves driven to a relative-CI target through
//           measure_waveform_ber (mc/adaptive stopping, fade-tilted
//           importance sampling at each curve's deepest point), then
//           cooperative hops planned by UnderlayCooperativeHop::plan and
//           run through simulate_cooperative_hop;
//   net   — a grouped CoMIMONet field: build + routing backbone, a fixed
//           set of source→destination routes, seeded kill waves through
//           CoMimoNet::remove_nodes;
//   svc   — an in-process ServiceDaemon driven by closed-loop
//           ServiceClient sessions with a mostly-light job mix.
//
// Every run measures all three pipelines, because every run reports every
// end-to-end metric.  The workload picks which pipeline runs at full size
// (inputs drawn from --seed); the other two run as fixed small probes
// whose inputs do not depend on the seed.  One round runs each pipeline
// once; the first round is a discarded warm-up, the rest repeat until
// --seconds have passed, and every timing is each operation's fastest
// over the rounds (see the note where the figures are formed).  A final
// untimed round re-runs everything with the correctness checks.
//
// Usage: perfbench --workload ber_curve|net_pass|service_mix --seed <n>
//                  --seconds <s> --trace 0|1 [--spawn-ns <ns>]
// The last stdout line is the result JSON; --trace 1 also writes the
// obs layer's Chrome-format span file to the working directory.
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "checks.h"
#include "comimo/common/constants.h"
#include "comimo/common/error.h"
#include "comimo/common/parallel.h"
#include "comimo/energy/ebbar.h"
#include "comimo/energy/ebbar_table.h"
#include "comimo/energy/mimo_energy.h"
#include "comimo/mc/adaptive.h"
#include "comimo/net/clustering.h"
#include "comimo/net/comimonet.h"
#include "comimo/net/routing.h"
#include "comimo/net/spanning_tree.h"
#include "comimo/numeric/rng.h"
#include "comimo/numeric/simd/simd.h"
#include "comimo/obs/trace.h"
#include "comimo/phy/ber_sweep.h"
#include "comimo/phy/hop_batch.h"
#include "comimo/phy/link_batch.h"
#include "comimo/service/client.h"
#include "comimo/service/daemon.h"
#include "comimo/service/job.h"
#include "comimo/service/wire.h"
#include "comimo/testbed/coop_hop_sim.h"
#include "comimo/underlay/cooperative_hop.h"

namespace perfbench {
namespace {

using namespace comimo;
using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// Peak resident set of this process so far.
double peak_rss_mb() {
  struct rusage ru {};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

double median(std::vector<double> v) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Nearest-rank percentile, q in (0, 1].
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[rank == 0 ? 0 : rank - 1];
}

std::uint64_t mix(std::uint64_t seed, std::uint64_t tag) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (tag + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

struct CheckFailed : std::runtime_error {
  using std::runtime_error::runtime_error;
};

void require(const std::string& reason, const std::string& what) {
  if (!reason.empty()) throw CheckFailed(what + ": " + reason);
}

// Monte-Carlo engine threads, for the BER pipeline and each daemon
// worker.  One: with a pool of one worker, parallel_for runs its body
// on the calling thread.  Across threads, parallel_for_chunks lets its
// caller return — destroying the on-stack mutex and condition variable
// — while the last chunk's worker is still about to lock that mutex;
// with a 2-thread engine, 3 of 11 runs aborted in pthread_mutex_lock.
constexpr unsigned kEngineThreads = 1;

// ---------------------------------------------------------------- ber ---

struct CurveSpec {
  int b;
  unsigned mt;
  unsigned mr;
  std::vector<double> grid;  // the last point runs with importance sampling
  double is_lambda;          // fade tilt of that point
  double is_budget_div;      // IS budget = plain equal-CI trials / this
};

struct HopShape {
  unsigned mt;
  unsigned mr;
};

// The hop shapes of the full pipeline; the traced kernel timings use them
// in every workload, so per-layer names do not depend on the workload.
const HopShape kHopShapes[] = {{2, 2}, {3, 2}, {4, 3}};

UnderlayHopPlan plan_hop(const HopShape& s) {
  UnderlayHopConfig hc;
  hc.mt = s.mt;
  hc.mr = s.mr;
  hc.hop_distance_m = 150.0;
  hc.cluster_diameter_m = 10.0;
  hc.ber = 1e-3;
  return UnderlayCooperativeHop().plan(hc);
}

class BerPipeline {
 public:
  static constexpr std::size_t kReplicas = 3;

  struct Point {
    std::size_t curve;
    WaveformBerConfig cfg;
    double gamma_b_db;
  };
  struct Round {
    std::vector<double> point_s;  // per curve point
    std::size_t blocks = 0;
    std::size_t checkpoints = 0;
    std::vector<double> hop_s;  // per hop
    std::size_t hop_bits = 0;
    std::vector<WaveformBerPoint> points;
    std::vector<CoopHopSimResult> hops;
    std::size_t failed = 0;
  };

  BerPipeline(bool full, std::uint64_t seed, ThreadPool& pool)
      : hop_reps_(full ? 1 : 4) {
    const double target = full ? 0.15 : 0.25;
    if (full) {
      // Trials to the target vary with the seed, and ber_curve_s with
      // them.  Of the tilts tried (λ = 3–6 at 15 dB, 1.5–3.5 at 11 dB),
      // these gave the steadiest stopping trial counts over seeds 1–10:
      // 2×2 QPSK at 15 dB took 187k–235k trials with λ = 4 against
      // 457k–562k with λ = 3; 4×2 16-QAM at 11 dB took 16.7k–22.9k with
      // λ = 1.5 against 10.2k–25.6k with λ = 2.
      // The pair of curves then runs kReplicas times, each replica on
      // its own streams, so ber_curve_s sums independent stopping times
      // and the seed's share of its spread shrinks about as 1/√replicas.
      const CurveSpec pair[] = {{2, 2, 2, {0.0, 4.0, 8.0, 15.0}, 4.0, 8.0},
                                {4, 4, 2, {3.0, 6.0, 9.0, 11.0}, 1.5, 4.0}};
      for (std::size_t r = 0; r < kReplicas; ++r) {
        curves_.insert(curves_.end(), std::begin(pair), std::end(pair));
      }
    } else {
      curves_ = {{2, 2, 2, {0.0, 4.0, 8.0, 12.0}, 2.0, 2.0},
                 {4, 4, 2, {4.0, 7.0, 12.0}, 2.0, 2.0}};
    }
    const double z = confidence_z(0.95);
    for (std::size_t c = 0; c < curves_.size(); ++c) {
      const CurveSpec& cs = curves_[c];
      const std::size_t bpb =
          WaveformBerKernel(cs.b, cs.mt, cs.mr, 1.0).bits_per_block();
      for (std::size_t i = 0; i < cs.grid.size(); ++i) {
        const bool is = i + 1 == cs.grid.size();
        const double p = exact_stbc_ber(cs.b, cs.mt, cs.mr, cs.grid[i]);
        // Budget: a multiple of the equal-CI plain trial count, so the
        // chunk partition (budget/1024) — and with it the checkpoint
        // granularity — is fine against the stopping point.
        const double plain =
            z * z / (target * target * p * static_cast<double>(bpb));
        const double want = is ? plain / cs.is_budget_div : 16.0 * plain;
        Point pt;
        pt.curve = c;
        pt.gamma_b_db = cs.grid[i];
        pt.cfg.b = cs.b;
        pt.cfg.mt = cs.mt;
        pt.cfg.mr = cs.mr;
        pt.cfg.blocks = std::max<std::size_t>(
            65536, static_cast<std::size_t>(std::ceil(want / 1024.0)) * 1024);
        pt.cfg.seed = mix(full ? seed : 0x9B0BE, points_.size());
        pt.cfg.pool = &pool;
        pt.cfg.adaptive.target_rel_ci = target;
        pt.cfg.adaptive.confidence = 0.95;
        pt.cfg.adaptive.checkpoint_every = 1;
        if (is) {
          pt.cfg.adaptive.is_mode = IsMode::kScaledNoise;
          pt.cfg.adaptive.is_noise_scale = 1.0;
          pt.cfg.adaptive.is_channel_scale = cs.is_lambda;
        }
        points_.push_back(pt);
      }
    }
    const std::size_t lanes = simd::batch_width();
    const std::size_t n_hops = full ? std::size(kHopShapes) : 1;
    for (std::size_t h = 0; h < n_hops; ++h) {
      CoopHopSimConfig hc;
      hc.plan = plan_hop(kHopShapes[h]);
      hc.seed = mix(full ? seed : 0x4090BE, 100 + h);
      hc.pool = &pool;
      // A block count that is not a multiple of the SIMD width, so the
      // ragged tail group runs every round.
      const std::size_t bpb =
          CoopHopBlockKernel(hc.plan, hc.local_snr_db).bits_per_block();
      const std::size_t groups = full ? 24000 / lanes : 12000 / lanes;
      hc.bits = bpb * (groups * lanes + lanes / 2 + 1) - 1;
      hops_.push_back(hc);
    }
  }

  std::size_t ops() const { return points_.size() + hops_.size(); }

  Round run() const {
    Round r;
    const obs::SpanTimer round_span("ber.round");
    for (const Point& p : points_) {
      const obs::SpanTimer s("mc.measure_waveform_ber");
      const auto t0 = Clock::now();
      r.points.push_back(measure_waveform_ber(p.cfg, p.gamma_b_db));
      r.point_s.push_back(seconds_between(t0, Clock::now()));
      r.blocks += r.points.back().trials_executed;
      r.checkpoints += r.points.back().checkpoints;
      if (!r.points.back().target_met) ++r.failed;
    }
    for (const CoopHopSimConfig& hc : hops_) {
      // The probe's one short hop runs hop_reps_ times, each timed.
      double best = std::numeric_limits<double>::infinity();
      for (std::size_t rep = 0; rep < hop_reps_; ++rep) {
        const obs::SpanTimer s("testbed.simulate_cooperative_hop");
        const auto t0 = Clock::now();
        CoopHopSimResult res = simulate_cooperative_hop(hc);
        best = std::min(best, seconds_between(t0, Clock::now()));
        if (rep + 1 == hop_reps_) r.hops.push_back(std::move(res));
      }
      r.hop_s.push_back(best);
      r.hop_bits += hc.bits;
    }
    return r;
  }

  // Same bits every round: the engine is deterministic per (seed, config).
  static bool same(const Round& a, const Round& b) {
    if (a.points.size() != b.points.size() || a.hops.size() != b.hops.size())
      return false;
    for (std::size_t i = 0; i < a.points.size(); ++i) {
      if (a.points[i].ber != b.points[i].ber ||
          a.points[i].trials_executed != b.points[i].trials_executed)
        return false;
    }
    for (std::size_t i = 0; i < a.hops.size(); ++i) {
      if (a.hops[i].bit_errors != b.hops[i].bit_errors) return false;
    }
    return true;
  }

  void verify(const Round& r) const {
    std::vector<std::vector<BerSample>> samples(curves_.size());
    for (std::size_t i = 0; i < points_.size(); ++i) {
      const WaveformBerPoint& p = r.points[i];
      require(p.target_met ? "" : "CI target not met within the budget",
              "ber point");
      samples[points_[i].curve].push_back({p.gamma_b_db, p.ber, p.rel_ci});
    }
    for (std::size_t c = 0; c < curves_.size(); ++c) {
      require(check_ber_curve(curves_[c].b, curves_[c].mt, curves_[c].mr,
                              samples[c], 0.95, 5.0),
              "ber curve " + std::to_string(c));
    }
    for (std::size_t h = 0; h < hops_.size(); ++h) {
      const std::size_t bpb =
          CoopHopBlockKernel(hops_[h].plan, hops_[h].local_snr_db)
              .bits_per_block();
      require(check_hop_ber(r.hops[h].ber, hops_[h].plan.config.ber,
                            r.hops[h].bits, bpb, 5.0),
              "cooperative hop " + std::to_string(h));
    }
  }

 private:
  std::vector<CurveSpec> curves_;
  std::vector<Point> points_;
  std::vector<CoopHopSimConfig> hops_;
  std::size_t hop_reps_;
};

// ---------------------------------------------------------------- net ---

// Cluster pairs whose seeds (first members) lie within the link range:
// the candidate pairs CoMimoNet::build_links_grid hands to
// links_from_pairs, which fans them out on ThreadPool::shared() from
// 4096 pairs on.
std::size_t candidate_link_pairs(const CoMimoNet& net) {
  const double range = net.config().link_range_m;
  std::vector<Vec2> seeds;
  for (const Cluster& c : net.clusters()) {
    seeds.push_back(net.node(c.members.front()).position);
  }
  std::map<std::pair<long, long>, std::vector<std::size_t>> cells;
  const auto cell = [&](const Vec2& p) {
    return std::make_pair(static_cast<long>(std::floor(p.x / range)),
                          static_cast<long>(std::floor(p.y / range)));
  };
  for (std::size_t i = 0; i < seeds.size(); ++i) cells[cell(seeds[i])].push_back(i);
  std::size_t pairs = 0;
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    const auto [cx, cy] = cell(seeds[i]);
    for (long dx = -1; dx <= 1; ++dx) {
      for (long dy = -1; dy <= 1; ++dy) {
        const auto it = cells.find({cx + dx, cy + dy});
        if (it == cells.end()) continue;
        for (const std::size_t j : it->second) {
          if (j > i && distance(seeds[i], seeds[j]) <= range) ++pairs;
        }
      }
    }
  }
  return pairs;
}

struct RouteLayers {
  std::vector<double> path_us, plan_us, solve_us;
  std::size_t path_calls = 0, plan_calls = 0, solve_calls = 0;
};

class NetPipeline {
 public:
  struct Round {
    double build_s = 0.0;
    std::size_t clusters = 0;
    std::size_t links = 0;
    std::size_t bytes = 0;
    std::vector<double> route_s;  // per routed pair
    std::size_t hops = 0;
    double peak_rss_before_waves_mb = 0.0;
    std::vector<double> wave_s;
    std::vector<double> kept_frac;
    std::size_t final_clusters = 0;
    std::size_t final_links = 0;
  };

  NetPipeline(bool full, std::uint64_t seed)
      : seed_(full ? seed : 0x4E7),
        // The probe's 2000 SUs keep its candidate link pairs (about 3000,
        // printed to stderr) under the 4096 from which links are derived
        // on the shared pool, whose parallel_for_chunks can abort on short
        // chunks (see kEngineThreads).
        n_(full ? 100000 : 2000),
        route_hops_(full ? 8000 : 1000),
        n_waves_(full ? 64 : 24),
        victims_(full ? 100 : 16) {
    const std::size_t groups = n_ / 4;
    const double width = 150.0 * std::sqrt(static_cast<double>(groups));
    nodes_ = clustered_field(groups, 4, 5.0, width, width, mix(seed_, 1));
    cfg_.communication_range_m = 45.0;
    cfg_.cluster_diameter_m = 14.0;
    cfg_.link_range_m = 220.0;
    cfg_.index_mode = NetIndexMode::kGrid;
    // Connected pairs in distinct clusters, fixed for the run, drawn until
    // their backbone paths hold route_hops_ hops: the routing work of a
    // round then does not depend on the seed.
    const CoMimoNet net(nodes_, cfg_);
    const RoutingBackbone bb(net);
    std::cerr << "net field: " << n_ << " SUs, " << net.clusters().size()
              << " clusters, " << candidate_link_pairs(net)
              << " candidate link pairs\n";
    Rng pick(mix(seed_, 2), 0);
    for (std::size_t hops = 0; hops < route_hops_;) {
      const NodeId s = net.nodes()[pick.uniform_int(n_)].id;
      const NodeId d = net.nodes()[pick.uniform_int(n_)].id;
      const ClusterId a = net.cluster_of(s), b = net.cluster_of(d);
      const auto path = a == b ? std::nullopt : bb.path(a, b);
      if (!path) continue;
      pairs_.emplace_back(s, d);
      hops += path->size() - 1;
    }
  }

  std::size_t ops() const { return pairs_.size() + n_waves_; }

  // verify: run the checks at each stage (outside every timed region);
  // layers: also time path/plan/solve calls one by one and count the
  // clusters each wave keeps.
  Round run(bool verify = false, RouteLayers* layers = nullptr) const {
    Round r;
    const obs::SpanTimer round_span("net.round");
    const auto t0 = Clock::now();
    std::unique_ptr<CoMimoNet> net;
    std::unique_ptr<CooperativeRouter> router;
    {
      const obs::SpanTimer s("net.build");
      net = std::make_unique<CoMimoNet>(nodes_, cfg_);
      router = std::make_unique<CooperativeRouter>(*net, SystemParams{},
                                                   1e-3, 40e3);
    }
    r.build_s = seconds_between(t0, Clock::now());
    r.clusters = net->clusters().size();
    r.links = net->links().size();
    r.bytes = net->approx_bytes();
    std::unique_ptr<NetSnapshot> before_waves;
    if (verify) {
      before_waves = std::make_unique<NetSnapshot>(snapshot(*net));
      require(check_geometry(*before_waves, 16), "built network");
    }

    std::vector<RouteReport> routes;
    routes.reserve(pairs_.size());
    for (const auto& [s, d] : pairs_) {
      const obs::SpanTimer sp("net.route");
      const auto t1 = Clock::now();
      routes.push_back(router->route(s, d));
      r.route_s.push_back(seconds_between(t1, Clock::now()));
      r.hops += routes.back().hops.size();
    }
    if (verify) {
      for (std::size_t i = 0; i < pairs_.size(); ++i) {
        require(check_route(*before_waves, pairs_[i].first, pairs_[i].second,
                            routes[i], 1e-3),
                "route " + std::to_string(i));
      }
    }
    if (layers) time_route_layers(*net, router->backbone(), *layers);
    r.peak_rss_before_waves_mb = peak_rss_mb();

    for (std::size_t w = 0; w < n_waves_; ++w) {
      Rng rng(mix(seed_, 3), w);
      std::vector<NodeId> victims;
      for (std::size_t k = 0; k < victims_; ++k) {
        victims.push_back(net->nodes()[rng.uniform_int(net->nodes().size())].id);
      }
      std::set<std::vector<NodeId>> before;
      if (layers) {
        for (const Cluster& c : net->clusters()) before.insert(c.members);
      }
      const auto tw = Clock::now();
      {
        const obs::SpanTimer s("net.kill_wave");
        net->remove_nodes(victims);
      }
      r.wave_s.push_back(seconds_between(tw, Clock::now()));
      if (layers) {
        std::size_t kept = 0;
        for (const Cluster& c : net->clusters()) kept += before.count(c.members);
        r.kept_frac.push_back(static_cast<double>(kept) /
                              static_cast<double>(before.size()));
      }
    }
    r.final_clusters = net->clusters().size();
    r.final_links = net->links().size();
    if (verify) {
      const NetSnapshot after = snapshot(*net);
      require(check_same_network(after,
                                 snapshot(CoMimoNet(net->nodes(), cfg_))),
              "incremental network vs rebuild");
      require(check_geometry(after, 16), "network after kill waves");
    }
    return r;
  }

  static bool same(const Round& a, const Round& b) {
    return a.clusters == b.clusters && a.links == b.links &&
           a.hops == b.hops && a.final_clusters == b.final_clusters &&
           a.final_links == b.final_links;
  }

  const std::vector<SuNode>& nodes() const { return nodes_; }
  const CoMimoNetConfig& config() const { return cfg_; }

 private:
  // Algorithm 2 per hop, as CooperativeRouter::route runs it, with each
  // layer's call timed on its own.
  void time_route_layers(const CoMimoNet& net, const RoutingBackbone& bb,
                         RouteLayers& out) const {
    const UnderlayCooperativeHop planner;
    const MimoEnergyModel model;
    const EbBarSolver& solver = model.solver();
    for (const auto& [s, d] : pairs_) {
      const auto t0 = Clock::now();
      const auto path = bb.path(net.cluster_of(s), net.cluster_of(d));
      out.path_us.push_back(1e6 * seconds_between(t0, Clock::now()));
      ++out.path_calls;
      for (std::size_t i = 0; path && i + 1 < path->size(); ++i) {
        const ClusterId a = (*path)[i], b = (*path)[i + 1];
        UnderlayHopConfig hc;
        hc.mt = static_cast<unsigned>(net.clusters()[a].size());
        hc.mr = static_cast<unsigned>(net.clusters()[b].size());
        hc.hop_distance_m = net.link_between(a, b)->length_m;
        hc.cluster_diameter_m = std::max(
            {net.cluster_diameter_of(a), net.cluster_diameter_of(b), 1.0});
        hc.ber = 1e-3;
        hc.bandwidth_hz = 40e3;
        const auto t1 = Clock::now();
        (void)planner.plan(hc);
        out.plan_us.push_back(1e6 * seconds_between(t1, Clock::now()));
        ++out.plan_calls;
        for (int bits = kMinConstellationBits; bits <= kMaxConstellationBits;
             ++bits) {
          const auto t2 = Clock::now();
          try {
            (void)solver.solve(hc.ber, bits, hc.mt, hc.mr);
          } catch (const NumericError&) {
          }
          out.solve_us.push_back(1e6 * seconds_between(t2, Clock::now()));
          ++out.solve_calls;
        }
      }
    }
  }

  std::uint64_t seed_;
  std::size_t n_, route_hops_, n_waves_, victims_;
  std::vector<SuNode> nodes_;
  CoMimoNetConfig cfg_;
  std::vector<std::pair<NodeId, NodeId>> pairs_;
};

// ---------------------------------------------------------------- svc ---

constexpr unsigned kServiceWorkers = 2;
constexpr std::size_t kSessions = 4;
const char* const kJobKinds[] = {"ebbar_min", "waveform_ber", "net_churn"};

class ServicePipeline {
 public:
  struct Round {
    double phase_s = 0.0;
    std::vector<double> latency_ms;              // every job
    std::map<std::string, std::vector<double>> kind_ms;
    std::vector<std::vector<service::ServiceClient::Reply>> replies;
  };

  ServicePipeline(bool full, std::uint64_t seed, std::string socket_path)
      : socket_path_(std::move(socket_path)) {
    const std::uint64_t s0 = full ? seed : 0x5E4;
    const std::size_t per_session = full ? 400 : 200;
    static const char* const kP[] = {"0.1",   "0.05",   "0.01", "0.005",
                                     "0.001", "0.0005", "0.0001"};
    for (std::size_t s = 0; s < kSessions; ++s) {
      session_seeds_.push_back(mix(s0, 500 + s));
      Rng rng(mix(s0, 600), s);
      std::vector<service::JobSpec> jobs;
      for (std::size_t i = 0; i < per_session; ++i) {
        // 16 light : 3 small waveform : 1 small churn per 20 jobs, so the
        // median lands in the light mode and p90 inside the waveform one.
        service::JobSpec spec;
        const std::size_t slot = i % 20;
        if (slot == 7) {
          // 80 nodes: 3 160 candidate link pairs, under CoMimoNet's 4 096
          // threshold for deriving links on the shared pool, whose
          // parallel_for_chunks aborted 3 of 10 runs at 200 nodes.
          spec.kind = "net_churn";
          spec.params = {{"nodes", "80"},
                         {"rounds", "2"},
                         {"kill_per_round", "5"},
                         {"seed", std::to_string(rng.uniform_int(1u << 30))}};
        } else if (slot == 3 || slot == 11 || slot == 16) {
          spec.kind = "waveform_ber";
          spec.params = {
              {"b", std::to_string(1 + rng.uniform_int(2))},
              {"mt", std::to_string(1 + rng.uniform_int(2))},
              {"mr", std::to_string(1 + rng.uniform_int(2))},
              {"blocks", "200"},
              {"gamma_b_db", std::to_string(2 + rng.uniform_int(7))},
              {"seed", std::to_string(rng.uniform_int(1u << 30))}};
        } else {
          spec.kind = "ebbar_min";
          spec.params = {{"p", kP[rng.uniform_int(7)]},
                         {"mt", std::to_string(1 + rng.uniform_int(4))},
                         {"mr", std::to_string(1 + rng.uniform_int(4))}};
        }
        jobs.push_back(std::move(spec));
      }
      jobs_.push_back(std::move(jobs));
    }
    service::ServiceConfig sc;
    sc.socket_path = socket_path_;
    sc.service_workers = kServiceWorkers;
    sc.mc_threads = kEngineThreads;
    window_ = sc.latency_window;
    daemon_ = std::make_unique<service::ServiceDaemon>(sc);
  }

  ~ServicePipeline() { stop(); }
  ServicePipeline(const ServicePipeline&) = delete;
  ServicePipeline& operator=(const ServicePipeline&) = delete;

  void stop() {
    if (daemon_) daemon_->stop();
    daemon_.reset();
  }

  std::size_t ops() const { return kSessions * jobs_[0].size(); }

  // The first round, then more until the daemon has served a full
  // latency window (ServiceConfig::latency_window): a long-running
  // daemon's latency reservoir is full, so every timed round meets the
  // daemon in that steady state, whatever the run length.
  Round warm_up() const {
    Round first = run();
    for (std::size_t served = ops(); served < window_; served += ops()) {
      require(same(first, run()) ? "" : "replies moved", "warm-up");
    }
    return first;
  }

  Round run() const {
    Round r;
    const obs::SpanTimer round_span("svc.round");
    std::vector<std::unique_ptr<service::ServiceClient>> clients;
    for (std::size_t s = 0; s < kSessions; ++s) {
      clients.push_back(std::make_unique<service::ServiceClient>(
          socket_path_, session_seeds_[s]));
    }
    r.replies.resize(kSessions);
    std::vector<std::vector<double>> lat(kSessions);
    std::vector<std::string> errors(kSessions);
    const auto t0 = Clock::now();
    {
      const obs::SpanTimer loop_span("svc.closed_loop");
      std::vector<std::thread> threads;
      for (std::size_t s = 0; s < kSessions; ++s) {
        threads.emplace_back([&, s] {
          try {
            for (const service::JobSpec& spec : jobs_[s]) {
              const auto a = Clock::now();
              (void)clients[s]->submit(spec);
              r.replies[s].push_back(clients[s]->next_reply());
              lat[s].push_back(1e3 * seconds_between(a, Clock::now()));
            }
          } catch (const std::exception& e) {
            errors[s] = e.what();
          }
        });
      }
      for (std::thread& t : threads) t.join();
    }
    r.phase_s = seconds_between(t0, Clock::now());
    for (std::size_t s = 0; s < kSessions; ++s) {
      if (!errors[s].empty()) throw std::runtime_error("session: " + errors[s]);
      for (std::size_t i = 0; i < lat[s].size(); ++i) {
        r.latency_ms.push_back(lat[s][i]);
        r.kind_ms[jobs_[s][i].kind].push_back(lat[s][i]);
      }
    }
    return r;
  }

  static bool same(const Round& a, const Round& b) {
    for (std::size_t s = 0; s < a.replies.size(); ++s) {
      if (a.replies[s].size() != b.replies[s].size()) return false;
      for (std::size_t i = 0; i < a.replies[s].size(); ++i) {
        if (a.replies[s][i].body != b.replies[s][i].body) return false;
      }
    }
    return true;
  }

  // Replies against run_job called directly; returns run_job times [ms]
  // per kind.
  std::map<std::string, std::vector<double>> verify(const Round& r) const {
    std::map<std::string, std::vector<double>> run_ms;
    service::JobRuntime runtime{EbBarTable::Spec{}};
    ThreadPool pool(kEngineThreads);
    for (std::size_t s = 0; s < kSessions; ++s) {
      std::vector<std::uint64_t> ids;
      std::vector<std::string> expected;
      for (std::size_t i = 0; i < jobs_[s].size(); ++i) {
        ids.push_back(i + 1);
        const auto t0 = Clock::now();
        const Json env =
            service::run_job(jobs_[s][i], session_seeds_[s], runtime, pool);
        run_ms[jobs_[s][i].kind].push_back(
            1e3 * seconds_between(t0, Clock::now()));
        expected.push_back(env.dump_string(2));
      }
      require(check_replies(ids, r.replies[s], expected),
              "service session " + std::to_string(s));
    }
    return run_ms;
  }

  const std::vector<std::vector<service::JobSpec>>& jobs() const {
    return jobs_;
  }

 private:
  std::string socket_path_;
  std::size_t window_ = 0;
  std::vector<std::uint64_t> session_seeds_;
  std::vector<std::vector<service::JobSpec>> jobs_;
  std::unique_ptr<service::ServiceDaemon> daemon_;
};

// ------------------------------------------------------- layer timings ---

// Median ns per block of WaveformBerKernel::run_block_batch on the
// calling thread, full SIMD groups only.
double link_block_ns(int b, unsigned mt, unsigned mr) {
  const WaveformBerKernel kernel(b, mt, mr, std::pow(10.0, 0.8));
  const std::size_t w = simd::batch_width();
  LinkBatchWorkspace ws;
  kernel.prepare_batch(ws, w);
  std::vector<Rng> rngs;
  for (std::size_t i = 0; i < w; ++i) rngs.emplace_back(0x11, i);
  const std::size_t groups = 4096 / w;
  std::vector<double> samples;
  std::size_t sink = 0;
  for (int rep = 0; rep < 7; ++rep) {
    const auto t0 = Clock::now();
    for (std::size_t g = 0; g < groups; ++g) {
      sink += kernel.run_block_batch(ws, rngs.data(), w);
    }
    samples.push_back(1e9 * seconds_between(t0, Clock::now()) /
                      static_cast<double>(groups * w));
  }
  if (sink == ~std::size_t{0}) std::cerr << "";
  return median(samples);
}

// Median ns per block of CoopHopBlockKernel::run_group_batch.
double hop_block_ns(const HopShape& shape) {
  const UnderlayHopPlan plan = plan_hop(shape);
  const CoopHopBlockKernel kernel(plan, 30.0);
  const std::size_t w = simd::batch_width();
  HopBatchWorkspace ws;
  kernel.prepare_batch(ws, w);
  const std::size_t groups = 2048 / w;
  std::vector<std::uint8_t> payload(groups * w * kernel.bits_per_block());
  Rng bits(0x22, 0);
  for (auto& bit : payload) bit = bits.bernoulli(0.5) ? 1 : 0;
  std::vector<CoopHopBlockKernel::GroupStats> stats(w);
  std::vector<double> samples;
  for (int rep = 0; rep < 7; ++rep) {
    const auto t0 = Clock::now();
    for (std::size_t g = 0; g < groups; ++g) {
      if (w > 1) {
        kernel.run_group_batch(ws, payload.data(), g * w, w, 0x33,
                               kernel.decoder_full(), stats.data());
      } else {
        kernel.run_group_serial(ws, payload.data(), g, 1, 0x33,
                                kernel.decoder_full(), stats.data());
      }
    }
    samples.push_back(1e9 * seconds_between(t0, Clock::now()) /
                      static_cast<double>(groups * w));
  }
  return median(samples);
}

// Median µs of one request/reply frame exchange over a socket pair.
double wire_roundtrip_us(const std::string& request, const std::string& reply) {
  int fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
    throw std::runtime_error("socketpair failed");
  }
  std::vector<double> samples;
  service::Frame in;
  for (int i = 0; i < 400; ++i) {
    const auto t0 = Clock::now();
    const bool ok =
        service::send_frame(fds[0], service::FrameType::kRequest, request) &&
        service::recv_frame(fds[1], in) &&
        service::send_frame(fds[1], service::FrameType::kResult, reply) &&
        service::recv_frame(fds[0], in);
    samples.push_back(1e6 * seconds_between(t0, Clock::now()));
    if (!ok) {
      service::close_fd(fds[0]);
      service::close_fd(fds[1]);
      throw std::runtime_error("socket pair exchange failed");
    }
  }
  service::close_fd(fds[0]);
  service::close_fd(fds[1]);
  return median(samples);
}

double spec_parse_us(const std::string& text) {
  std::vector<double> samples;
  std::size_t sink = 0;
  for (int rep = 0; rep < 9; ++rep) {
    const auto t0 = Clock::now();
    for (int i = 0; i < 1000; ++i) sink += service::JobSpec::parse(text).params.size();
    samples.push_back(1e3 * seconds_between(t0, Clock::now()));
  }
  if (sink == 0) throw std::runtime_error("spec parse lost its params");
  return median(samples);
}

template <typename F>
double median_seconds(int reps, F&& f) {
  std::vector<double> samples;
  for (int i = 0; i < reps; ++i) {
    const auto t0 = Clock::now();
    f();
    samples.push_back(seconds_between(t0, Clock::now()));
  }
  return median(samples);
}

// --------------------------------------------------------------- main ---

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::int64_t spawn_ns = -1;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + k);
    const std::string v = argv[++i];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::stoull(v);
    } else if (k == "--seconds") {
      a.seconds = std::stod(v);
    } else if (k == "--trace") {
      a.trace = v == "1";
    } else if (k == "--spawn-ns") {
      a.spawn_ns = std::stoll(v);
    } else {
      throw std::invalid_argument("unknown flag " + k);
    }
  }
  if (a.workload != "ber_curve" && a.workload != "net_pass" &&
      a.workload != "service_mix") {
    throw std::invalid_argument("unknown workload '" + a.workload + "'");
  }
  if (!(a.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
  return a;
}

std::string json_num(double v) {
  std::ostringstream os;
  os.precision(10);
  os << v;
  return os.str();
}

int run(const Args& args) {
  const auto start = args.spawn_ns >= 0
                         ? Clock::time_point(std::chrono::nanoseconds(args.spawn_ns))
                         : Clock::now();
  ThreadPool ber_pool(kEngineThreads);
  const BerPipeline ber(args.workload == "ber_curve", args.seed, ber_pool);
  const NetPipeline net(args.workload == "net_pass", args.seed);
  ServicePipeline svc(args.workload == "service_mix", args.seed,
                      "svc-" + std::to_string(::getpid()) + ".sock");

  // Warm-up: pools spun up, workspaces shaped, the daemon's ē_b table
  // built by its first ebbar_min job and its latency window filled.
  // Discarded.  The network goes last, so that its reading of the peak
  // RSS before the kill waves covers the other two pipelines' passes.
  const BerPipeline::Round ber0 = ber.run();
  const ServicePipeline::Round svc0 = svc.warm_up();
  const NetPipeline::Round net0 = net.run();
  const double setup_s = seconds_between(start, Clock::now());
  // Peak RSS of one pass of the BER and service pipelines and the
  // network's build and routes, read in the first pass, not after the
  // timed rounds: each round rebuilds the network, and the heap of a
  // 10⁵-SU net_pass run kept growing by up to 5 MB over 8 rounds, so a
  // later reading would follow how many rounds the host let run.  The
  // kill waves are left out: what they add moves with the seeded
  // victims by 8–14 MB on the full field (first dirty cluster, heap
  // layout), so it goes to net.wave_peak_rss_mb, which has no bound.
  const double peak_rss = net0.peak_rss_before_waves_mb;
  const double wave_peak_rss = peak_rss_mb();

  std::vector<BerPipeline::Round> ber_r;
  std::vector<NetPipeline::Round> net_r;
  std::vector<ServicePipeline::Round> svc_r;
  const auto t_measure = Clock::now();
  std::size_t failed = 0;
  // The traced run turns the obs layer on for the timed rounds and records
  // the first one's spans, the benchmark's and the library's own
  // (mc.chunk, pool.job, coophop.hop), in one Chrome trace.
  if (args.trace) obs::start_trace("");
  do {
    {
      const obs::SpanTimer s("round");
      ber_r.push_back(ber.run());
      net_r.push_back(net.run());
      svc_r.push_back(svc.run());
    }
    obs::stop_trace();
    failed += ber_r.back().failed;
    // Determinism: every round repeats the warm-up's outputs bit for bit.
    require(BerPipeline::same(ber0, ber_r.back()) ? "" : "BER results moved",
            "round");
    require(NetPipeline::same(net0, net_r.back()) ? "" : "network moved",
            "round");
    require(ServicePipeline::same(svc0, svc_r.back()) ? "" : "replies moved",
            "round");
    svc_r.back().replies.clear();
  } while (seconds_between(t_measure, Clock::now()) < args.seconds);
  const std::size_t rounds = ber_r.size();
  const std::size_t attempted = rounds * (ber.ops() + net.ops() + svc.ops());

  // Verification round, untimed.
  RouteLayers layers;
  ber.verify(ber.run());
  const NetPipeline::Round net_v =
      net.run(/*verify=*/true, args.trace ? &layers : nullptr);
  require(NetPipeline::same(net0, net_v) ? "" : "network moved", "verify");
  const auto run_ms = svc.verify(svc0);

  // Host contention on a shared machine only ever adds time, and its slow
  // phases last from milliseconds to tens of seconds, so a median over
  // rounds swings with the phases a run happens to meet.  Every round
  // repeats the same operations on the same inputs (checked above), so
  // each figure takes each operation's fastest time over the rounds: per
  // curve point, hop, route and kill wave, and per round for the network
  // build and the service loop, which are a round's whole phase.
  auto fastest = [&](auto&& f) {
    double best = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < rounds; ++i) best = std::min(best, f(i));
    return best;
  };
  auto fastest_each = [&](auto&& times) {
    std::vector<double> best(times(0).size(),
                             std::numeric_limits<double>::infinity());
    for (std::size_t i = 0; i < rounds; ++i) {
      for (std::size_t k = 0; k < best.size(); ++k) {
        best[k] = std::min(best[k], times(i)[k]);
      }
    }
    return best;
  };
  const auto sum = [](const std::vector<double>& v) {
    double s = 0.0;
    for (const double x : v) s += x;
    return s;
  };
  const double curve_s =
      sum(fastest_each([&](std::size_t i) { return ber_r[i].point_s; }));
  const double hop_s =
      sum(fastest_each([&](std::size_t i) { return ber_r[i].hop_s; }));
  const double route_s =
      sum(fastest_each([&](std::size_t i) { return net_r[i].route_s; }));
  const double kill_wave_s =
      median(fastest_each([&](std::size_t i) { return net_r[i].wave_s; }));
  std::map<std::string, std::vector<double>> kind_ms;
  for (std::size_t i = 0; i < rounds; ++i) {
    for (const auto& [k, v] : svc_r[i].kind_ms) {
      kind_ms[k].insert(kind_ms[k].end(), v.begin(), v.end());
    }
  }
  std::vector<std::pair<std::string, std::pair<double, const char*>>> e2e = {
      {"setup_s", {setup_s, "s"}},
      {"peak_rss_mb", {peak_rss, "MB"}},
      {"ber_curve_s", {curve_s, "s"}},
      {"ber_blocks_per_s",
       {static_cast<double>(ber_r[0].blocks) / curve_s, "blocks/s"}},
      {"hop_bits_per_s",
       {static_cast<double>(ber_r[0].hop_bits) / hop_s, "bits/s"}},
      {"net_build_s", {fastest([&](std::size_t i) { return net_r[i].build_s; }), "s"}},
      {"route_hops_per_s",
       {static_cast<double>(net_r[0].hops) / route_s, "hops/s"}},
      {"kill_wave_s", {kill_wave_s, "s"}},
      {"jobs_per_s",
       {static_cast<double>(svc.ops()) /
            fastest([&](std::size_t i) { return svc_r[i].phase_s; }),
        "jobs/s"}},
      {"job_p50_ms",
       {fastest([&](std::size_t i) { return percentile(svc_r[i].latency_ms, 0.50); }),
        "ms"}},
      {"job_p90_ms",
       {fastest([&](std::size_t i) { return percentile(svc_r[i].latency_ms, 0.90); }),
        "ms"}},
  };

  std::vector<std::pair<std::string, std::pair<double, const char*>>> metrics;
  if (!args.trace) {
    metrics = e2e;
  } else {
    const auto mean = [&](const std::vector<double>& v) {
      return v.empty() ? std::nan("") : sum(v) / static_cast<double>(v.size());
    };
    const std::vector<double>& kept = net_v.kept_frac;
    const std::size_t n_points = ber_r[0].points.size();
    const CoMimoNet built(net.nodes(), net.config());
    const double backbone_s =
        median_seconds(3, [&] { const RoutingBackbone bb(built); });
    metrics = {
        {"phy.link_block_ns.2x2_b2", {link_block_ns(2, 2, 2), "ns"}},
        {"phy.link_block_ns.4x2_b4", {link_block_ns(4, 4, 2), "ns"}},
        {"testbed.hop_block_ns.2x2", {hop_block_ns(kHopShapes[0]), "ns"}},
        {"testbed.hop_block_ns.3x2", {hop_block_ns(kHopShapes[1]), "ns"}},
        {"testbed.hop_block_ns.4x3", {hop_block_ns(kHopShapes[2]), "ns"}},
        {"mc.trials", {static_cast<double>(ber_r[0].blocks), "count"}},
        {"mc.checkpoints", {static_cast<double>(ber_r[0].checkpoints), "count"}},
        {"mc.point_s", {curve_s / static_cast<double>(n_points), "s"}},
        {"energy.ebbar_solve_us", {mean(layers.solve_us), "us"}},
        {"energy.ebbar_solve_calls", {static_cast<double>(layers.solve_calls), "count"}},
        {"underlay.plan_us", {mean(layers.plan_us), "us"}},
        {"underlay.plan_calls", {static_cast<double>(layers.plan_calls), "count"}},
        {"net.path_us", {mean(layers.path_us), "us"}},
        {"net.path_calls", {static_cast<double>(layers.path_calls), "count"}},
        {"net.cluster_s",
         {median_seconds(3, [&] {
            (void)d_clustering(net.nodes(), net.config().cluster_diameter_m,
                               NetIndexMode::kGrid);
          }),
          "s"}},
        {"net.build_s",
         {median_seconds(3, [&] { const CoMimoNet n(net.nodes(), net.config()); }), "s"}},
        {"net.backbone_s", {backbone_s, "s"}},
        {"net.kill_s", {kill_wave_s, "s"}},
        {"net.kill_kept_frac", {median(kept), "ratio"}},
        {"net.wave_peak_rss_mb", {wave_peak_rss, "MB"}},
        {"net.bytes_per_node",
         {static_cast<double>(net0.bytes) / static_cast<double>(net.nodes().size()),
          "B"}},
        {"energy.table_build_ms",
         {1e3 * median_seconds(3, [] {
            (void)EbBarTable::build(EbBarSolver{}, EbBarTable::Spec{});
          }),
          "ms"}},
    };
    for (const char* kind : kJobKinds) {
      const double run = median(run_ms.at(kind));
      metrics.push_back({std::string("service.run_job_ms.") + kind, {run, "ms"}});
      metrics.push_back({std::string("service.queue_wait_ms.") + kind,
                         {median(kind_ms.at(kind)) - run, "ms"}});
    }
    const std::string request = svc.jobs()[0][0].serialize();
    metrics.push_back({"service.wire_roundtrip_us",
                       {wire_roundtrip_us(request, svc0.replies[0][0].body), "us"}});
    metrics.push_back({"service.spec_parse_us", {spec_parse_us(request), "us"}});
  }
  svc.stop();

  std::ostringstream out;
  out << "{\"correct\": true, \"attempted\": " << attempted
      << ", \"failed\": " << failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out << (i ? ", " : "") << "\"" << metrics[i].first << "\": {\"value\": "
        << json_num(metrics[i].second.first) << ", \"unit\": \""
        << metrics[i].second.second << "\"}";
  }
  out << "}}";

  if (args.trace) {
    std::ostringstream extra;
    extra << "{\"workload\":\"" << args.workload << "\",\"seed\":" << args.seed
          << ",\"rounds\":" << rounds << ",\"e2e_traced\":{";
    for (std::size_t i = 0; i < e2e.size(); ++i) {
      extra << (i ? "," : "") << "\"" << e2e[i].first
            << "\":" << json_num(e2e[i].second.first);
    }
    extra << "}}";
    obs::write_trace_file("trace-" + args.workload + "-" +
                          std::to_string(args.seed) + ".json");
    std::cerr << "traced end-to-end figures: " << extra.str() << "\n";
  }
  std::cerr << "rounds " << rounds << ", simd tier "
            << simd::tier_name(simd::active_tier()) << " (width "
            << simd::batch_width() << ")\n";
  std::cout << out.str() << std::endl;
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(perfbench::parse_args(argc, argv));
  } catch (const perfbench::CheckFailed& e) {
    std::cerr << "check failed: " << e.what() << "\n";
    std::cout << "{\"correct\": false, \"attempted\": 1, \"failed\": 1, "
                 "\"metrics\": {}}"
              << std::endl;
    return 1;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
}
