// Tests of the benchmark's own correctness checks: each check accepts a
// genuine output of the library and rejects a deliberately wrong copy.
//
// Run: python3 perfbench/run.py --selftest   (exit 0 = every case held)
#include <unistd.h>

#include <iostream>
#include <string>
#include <vector>

#include "checks.h"
#include "comimo/net/comimonet.h"
#include "comimo/net/routing.h"
#include "comimo/phy/ber_sweep.h"
#include "comimo/service/client.h"
#include "comimo/service/daemon.h"
#include "comimo/testbed/coop_hop_sim.h"

namespace {

using namespace comimo;
using perfbench::BerSample;

int failures = 0;

void expect(bool accepted, const std::string& reason, const char* name) {
  const bool ok = accepted ? reason.empty() : !reason.empty();
  std::cout << (ok ? "ok   " : "FAIL ") << name
            << (reason.empty() ? "" : "  (" + reason + ")") << "\n";
  if (!ok) ++failures;
}

// One engine thread, as in bench.cpp: a pool of one runs parallel_for on
// the calling thread.
ThreadPool& engine_pool() {
  static ThreadPool pool(1);
  return pool;
}

void ber_curve_cases() {
  std::vector<BerSample> curve;
  for (const double g : {0.0, 4.0, 8.0}) {
    WaveformBerConfig cfg;
    cfg.b = 2;
    cfg.mt = 2;
    cfg.mr = 2;
    cfg.blocks = 400000;
    cfg.seed = 3 + static_cast<std::uint64_t>(g);
    cfg.adaptive.target_rel_ci = 0.15;
    cfg.pool = &engine_pool();
    const WaveformBerPoint p = measure_waveform_ber(cfg, g);
    curve.push_back({g, p.ber, p.rel_ci});
  }
  expect(true, perfbench::check_ber_curve(2, 2, 2, curve, 0.95, 5.0),
         "ber curve: measured 2x2 QPSK curve");
  auto doubled = curve;
  doubled[1].ber *= 2.0;
  expect(false, perfbench::check_ber_curve(2, 2, 2, doubled, 0.95, 5.0),
         "ber curve: one BER scaled by 2");
  auto flat = curve;
  flat[2].ber = flat[1].ber;
  flat[2].gamma_b_db = flat[1].gamma_b_db + 1e-9;
  expect(false, perfbench::check_ber_curve(2, 2, 2, flat, 0.95, 1e9),
         "ber curve: not falling along gamma_b");
  expect(false, perfbench::check_ber_curve(4, 2, 2, curve, 0.95, 5.0),
         "ber curve: QPSK points against the 16-QAM law");
}

void hop_cases() {
  UnderlayHopConfig hc;
  hc.hop_distance_m = 150.0;
  hc.cluster_diameter_m = 10.0;
  hc.ber = 1e-3;
  CoopHopSimConfig cfg;
  cfg.plan = UnderlayCooperativeHop().plan(hc);
  cfg.bits = 200003;
  cfg.pool = &engine_pool();
  const CoopHopSimResult r = simulate_cooperative_hop(cfg);
  const std::size_t bpb =
      CoopHopBlockKernel(cfg.plan, cfg.local_snr_db).bits_per_block();
  expect(true, perfbench::check_hop_ber(r.ber, 1e-3, r.bits, bpb, 5.0),
         "hop: simulated 2x2 hop");
  expect(false,
         perfbench::check_hop_ber(2.0 * r.ber, 1e-3, r.bits, bpb, 5.0),
         "hop: BER scaled by 2");
}

void network_cases() {
  CoMimoNetConfig cfg;
  cfg.communication_range_m = 45.0;
  cfg.cluster_diameter_m = 14.0;
  cfg.link_range_m = 220.0;
  const double width = 150.0 * std::sqrt(500.0);
  CoMimoNet net(clustered_field(500, 4, 5.0, width, width, 9), cfg);
  const perfbench::NetSnapshot good = perfbench::snapshot(net);
  expect(true, perfbench::check_geometry(good, 64), "net: built network");
  expect(true, perfbench::check_same_network(good, perfbench::snapshot(net)),
         "net: same network");

  // One member moved into the farthest cluster.
  perfbench::NetSnapshot moved = good;
  Cluster& from = moved.clusters.front();
  std::size_t victim = 0;
  while (from.members[victim] == from.head) ++victim;
  const NodeId id = from.members[victim];
  from.members.erase(from.members.begin() + static_cast<long>(victim));
  moved.clusters.back().members.push_back(id);
  expect(false, perfbench::check_geometry(moved, 64),
         "net: member moved to another cluster (geometry)");
  expect(false, perfbench::check_same_network(good, moved),
         "net: member moved to another cluster (rebuild equality)");

  perfbench::NetSnapshot stretched = good;
  stretched.links.front().length_m *= 1.01;
  expect(false, perfbench::check_geometry(stretched, 64),
         "net: link length off its member gap");
  perfbench::NetSnapshot dropped = good;
  dropped.links.erase(dropped.links.begin() + 1);
  expect(false, perfbench::check_geometry(dropped, 100000),
         "net: one link missing");

  // A route across the field, then broken copies of it.
  const CooperativeRouter router(net, SystemParams{}, 1e-3, 40e3);
  NodeId src = 0, dst = 0;
  std::size_t best = 0;
  for (NodeId d = 1; d < net.nodes().size(); d += 97) {
    const auto path =
        router.backbone().path(net.cluster_of(0), net.cluster_of(d));
    if (path && path->size() > best) {
      best = path->size();
      dst = d;
    }
  }
  const RouteReport route = router.route(src, dst);
  expect(route.hops.size() >= 3, "", "net: test route has >= 3 hops");
  expect(true, perfbench::check_route(good, src, dst, route, 1e-3),
         "route: planned route");
  RouteReport broken = route;
  broken.hops.erase(broken.hops.begin() + 1);
  expect(false, perfbench::check_route(good, src, dst, broken, 1e-3),
         "route: one hop removed");
  RouteReport hot = route;
  hot.hops.back().plan.ebar *= 2.0;
  expect(false, perfbench::check_route(good, src, dst, hot, 1e-3),
         "route: hop ebar scaled by 2");
  expect(false, perfbench::check_route(good, dst, src, route, 1e-3),
         "route: source and destination swapped");
}

void service_cases() {
  using namespace comimo::service;
  const std::string path = "selftest-" + std::to_string(::getpid()) + ".sock";
  ServiceConfig sc;
  sc.socket_path = path;
  sc.service_workers = 2;
  sc.mc_threads = 1;
  ServiceDaemon daemon(sc);
  std::vector<JobSpec> jobs(3);
  jobs[0].kind = "ebbar_min";
  jobs[0].params = {{"p", "0.001"}, {"mt", "2"}, {"mr", "3"}};
  jobs[1].kind = "waveform_ber";
  jobs[1].params = {{"blocks", "200"}, {"gamma_b_db", "4"}, {"seed", "5"}};
  jobs[2].kind = "net_churn";
  jobs[2].params = {{"nodes", "80"}, {"rounds", "2"}, {"seed", "6"}};
  std::vector<ServiceClient::Reply> replies;
  std::vector<std::uint64_t> ids;
  {
    ServiceClient client(path, 77);
    for (const JobSpec& j : jobs) ids.push_back(client.submit(j));
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      replies.push_back(client.next_reply());
    }
  }
  daemon.stop();
  JobRuntime runtime{EbBarTable::Spec{}};
  ThreadPool pool(1);
  std::vector<std::string> expected;
  for (const JobSpec& j : jobs) {
    expected.push_back(run_job(j, 77, runtime, pool).dump_string(2));
  }
  expect(true, perfbench::check_replies(ids, replies, expected),
         "service: replies of a live daemon");
  auto flipped = replies;
  flipped[1].body[flipped[1].body.size() / 2] ^= 0x01;
  expect(false, perfbench::check_replies(ids, flipped, expected),
         "service: one byte flipped in a reply");
  auto swapped = replies;
  std::swap(swapped[0], swapped[2]);
  expect(false, perfbench::check_replies(ids, swapped, expected),
         "service: replies out of order");
  expected.pop_back();
  expect(false, perfbench::check_replies(ids, replies, expected),
         "service: a reply missing");
}

}  // namespace

int main() {
  try {
    ber_curve_cases();
    hop_cases();
    network_cases();
    service_cases();
  } catch (const std::exception& e) {
    std::cout << "FAIL exception: " << e.what() << "\n";
    return 1;
  }
  std::cout << (failures ? "selftest FAILED\n" : "selftest passed\n");
  return failures ? 1 : 0;
}
