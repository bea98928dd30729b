// Seeded differential over mid-run path transitions.
//
// Ring::set_plan_cache_enabled(false) hands a running System to the
// interpreter at a cycle boundary, and (true) hands it back to the
// planned paths, which pick up the datapath state the interpreter left.
// These cases flip it at random cycle boundaries while driving the
// System through System::step() and through its run_* loops, over
// spatial FIR, the local-mode running MAC, the 5/3 wavelet, block
// matvec8, motion estimation and random controller page schedules (see
// page_schedules.hpp), with the host input cut short so runs also end
// at host-input stalls.  Every run must equal a pure-interpreter run of
// the same drive in outputs, architectural SystemStats, output-stop
// timeouts and every metric outside ring.plan.* and ring.superstep.*
// (the host.in_fifo_depth histogram and the per-Dnode and per-switch
// counters included).  A failure names its kernel and seed.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/image.hpp"
#include "common/rng.hpp"
#include "dsp/matvec.hpp"
#include "kernels/jobs.hpp"
#include "kernels/mac_kernel.hpp"
#include "page_schedules.hpp"
#include "sim/system.hpp"

namespace sring {
namespace {

constexpr int kSeedsPerKernel = 12;
constexpr int kScheduleSeeds = 48;
constexpr std::uint64_t kOutputBudget = 300;

enum class Kernel {
  kFir,
  kMacLocal,
  kDwt53,
  kMatvec8,
  kMotionEst,
  kSchedule,
  kCount
};

const char* kernel_name(Kernel k) {
  switch (k) {
    case Kernel::kFir:
      return "fir.spatial";
    case Kernel::kMacLocal:
      return "mac.local";
    case Kernel::kDwt53:
      return "dwt53";
    case Kernel::kMatvec8:
      return "matvec8";
    case Kernel::kMotionEst:
      return "motion_est";
    default:
      return "page.schedule";
  }
}

struct Action {
  /// kFlip toggles the plan cache; kSteps runs n System::step() calls;
  /// kCycles, kOutputs (n more words) and kHalt (budget n) run the
  /// System's run_* loops; kRerun re-arms the program and re-sends the
  /// input from the start.
  enum Kind { kSend, kFlip, kSteps, kCycles, kOutputs, kHalt, kRerun } kind;
  std::uint64_t n = 0;
};

struct Case {
  RingGeometry g{};
  LinkRate link = LinkRate::unlimited();
  std::shared_ptr<const LoadableProgram> program;
  bool planned_at_load = true;
  std::vector<Word> input;
  std::vector<Action> drive;
};

std::vector<Word> signal(Rng& rng, std::size_t n) {
  std::vector<Word> x(n);
  for (Word& w : x) w = rng.next_word_in(-500, 500);
  return x;
}

Image random_image(Rng& rng, std::size_t w, std::size_t h) {
  Image img(w, h);
  for (std::size_t y = 0; y < h; ++y) {
    for (std::size_t x = 0; x < w; ++x) img.at(x, y) = rng.next_word_in(0, 255);
  }
  return img;
}

/// A flip before about a third of the runs, and runs of a few cycles
/// stepped or run through the loops, so the flips land on arbitrary
/// cycles.
void push_run(Rng& rng, Case& c, Action::Kind kind, std::uint64_t n) {
  if (rng.next_below(3) == 0) c.drive.push_back({Action::kFlip, 0});
  c.drive.push_back({kind, n});
}

void push_kernel_drive(Rng& rng, Case& c, std::uint64_t tail) {
  std::size_t sent = 0;
  for (int step = 0; step < 48; ++step) {
    if (sent < c.input.size() && rng.next_below(100) < 50) {
      const std::size_t k = std::min<std::size_t>(c.input.size() - sent,
                                                  1 + rng.next_below(90));
      c.drive.push_back({Action::kSend, k});
      sent += k;
    }
    switch (rng.next_below(3)) {
      case 0:
        push_run(rng, c, Action::kSteps, 1 + rng.next_below(12));
        break;
      case 1:
        push_run(rng, c, Action::kCycles,
                 1 + rng.next_below(rng.next_below(4) == 0 ? 300 : 24));
        break;
      default:
        push_run(rng, c, Action::kOutputs, 1 + rng.next_below(30));
        break;
    }
  }
  if (sent < c.input.size()) {
    c.drive.push_back({Action::kSend, c.input.size() - sent});
  }
  push_run(rng, c, Action::kHalt, tail);
  push_run(rng, c, Action::kCycles, 1 + rng.next_below(40));
}

Case make_case(Kernel kernel, int seed) {
  Rng rng(0x7F11Full * 1000003u + static_cast<std::uint64_t>(kernel) * 7919u +
          static_cast<std::uint64_t>(seed));
  Case c;
  c.g = {8, 2, 16};
  c.planned_at_load = rng.next_below(2) == 0;
  const std::size_t samples = 100 + rng.next_below(300);
  const auto take = [&](rt::Job job) {
    c.program = job.program;
    c.input = std::move(job.input);
  };
  switch (kernel) {
    case Kernel::kFir: {
      const std::vector<Word> coeffs{5, static_cast<Word>(-3), 2, 1};
      take(kernels::make_spatial_fir_job(c.g, signal(rng, samples), coeffs));
      break;
    }
    case Kernel::kMacLocal:
      c.program = std::make_shared<const LoadableProgram>(
          kernels::make_running_mac_program(c.g));
      c.input = signal(rng, 2 * samples);
      break;
    case Kernel::kDwt53:
      take(kernels::make_dwt53_job(c.g,
                                   signal(rng, samples & ~std::size_t{1})));
      break;
    case Kernel::kMatvec8:
      take(kernels::make_matvec8_job(c.g, dsp::dct8_matrix_q7(),
                                     signal(rng, samples & ~std::size_t{7})));
      break;
    case Kernel::kMotionEst: {
      const int range = 2;
      const Image ref = random_image(rng, 20, 20);
      const Image cand = random_image(rng, 20, 20);
      take(kernels::make_motion_estimation_job(c.g, ref, 6, 6, cand, range));
      break;
    }
    default: {
      schedules::Case sc = schedules::make_case(seed);
      c.g = sc.g;
      c.link = sc.link;
      c.program = std::make_shared<const LoadableProgram>(sc.program);
      c.input = std::move(sc.input);
      for (const schedules::Action& a : sc.drive) {
        switch (a.kind) {
          case schedules::Action::kSend:
            c.drive.push_back({Action::kSend, a.n});
            break;
          case schedules::Action::kRerun:
            c.drive.push_back({Action::kRerun, 0});
            break;
          default: {
            // Split the run at a random cycle, each part stepped or run
            // through the loop.
            const std::uint64_t first = rng.next_below(a.n + 1);
            for (const std::uint64_t part : {first, a.n - first}) {
              if (part == 0) continue;
              push_run(rng, c,
                       rng.next_below(2) == 0 ? Action::kSteps
                                              : Action::kCycles,
                       part);
            }
            break;
          }
        }
      }
      return c;
    }
  }
  push_kernel_drive(rng, c, 64 * samples);
  return c;
}

struct Outcome {
  std::vector<Word> outputs;
  SystemStats stats;
  std::string metrics;
  std::uint64_t timeouts = 0;  ///< kOutputs / kHalt past their budget
  std::uint64_t superstep_cycles = 0;
};

/// Run `c`: with `flips`, as its drive says, else interpreted
/// throughout.
Outcome run_case(const Case& c, bool flips) {
  System sys({c.g, c.link});
  bool planned = flips && c.planned_at_load;
  sys.ring().set_plan_cache_enabled(planned);
  sys.load(*c.program);
  Outcome o;
  std::size_t sent = 0;
  for (const Action& a : c.drive) {
    switch (a.kind) {
      case Action::kSend:
        sys.host().send(std::span<const Word>(c.input).subspan(sent, a.n));
        sent += a.n;
        break;
      case Action::kFlip:
        if (flips) {
          planned = !planned;
          sys.ring().set_plan_cache_enabled(planned);
        }
        break;
      case Action::kSteps:
        for (std::uint64_t i = 0; i < a.n; ++i) sys.step();
        break;
      case Action::kCycles:
        sys.run_cycles(a.n);
        break;
      case Action::kOutputs:
        // The budget throws at the same cycle on every path.
        try {
          sys.run_until_outputs(sys.host().received().size() + a.n,
                                kOutputBudget);
        } catch (const SimError&) {
          ++o.timeouts;
        }
        break;
      case Action::kHalt:
        try {
          sys.run_until_halt(a.n);
        } catch (const SimError&) {
          ++o.timeouts;
        }
        break;
      case Action::kRerun: {
        const std::vector<Word> first = sys.host().take_received();
        o.outputs.insert(o.outputs.end(), first.begin(), first.end());
        o.superstep_cycles += sys.ring().superstep_cycles();
        EXPECT_TRUE(sys.rearm(*c.program));
        sent = 0;
        break;
      }
    }
  }
  const std::vector<Word> rest = sys.host().take_received();
  o.outputs.insert(o.outputs.end(), rest.begin(), rest.end());
  o.stats = sys.stats();
  o.superstep_cycles += sys.ring().superstep_cycles();
  o.metrics = schedules::metrics_without(sys.metrics(),
                                         {"ring.plan.", "ring.superstep."});
  return o;
}

TEST(TransitionDifferential, PlanCacheFlipsMatchTheInterpreter) {
  for (int k = 0; k < static_cast<int>(Kernel::kCount); ++k) {
    const auto kernel = static_cast<Kernel>(k);
    const int seeds =
        kernel == Kernel::kSchedule ? kScheduleSeeds : kSeedsPerKernel;
    std::uint64_t planned = 0;
    std::uint64_t fused = 0;
    std::uint64_t cycles = 0;
    for (int seed = 0; seed < seeds; ++seed) {
      SCOPED_TRACE(std::string(kernel_name(kernel)) + " seed " +
                   std::to_string(seed));
      const Case c = make_case(kernel, seed);
      const Outcome interp = run_case(c, false);
      const Outcome flipped = run_case(c, true);

      EXPECT_EQ(interp.outputs, flipped.outputs);
      EXPECT_EQ(schedules::arch_only(interp.stats).to_string(),
                schedules::arch_only(flipped.stats).to_string());
      EXPECT_EQ(interp.metrics, flipped.metrics);
      EXPECT_EQ(interp.timeouts, flipped.timeouts);
      EXPECT_EQ(interp.stats.plan_hits, 0u);
      if (testing::Test::HasFailure()) return;
      planned += flipped.stats.plan_hits;
      fused += flipped.superstep_cycles;
      cycles += flipped.stats.cycles;
    }
    // Both paths must run a fair share of the cycles, and the loops
    // must fuse some, or the flips test no transition.
    EXPECT_GT(planned, cycles / 10) << kernel_name(kernel);
    EXPECT_LT(planned, cycles - cycles / 10) << kernel_name(kernel);
    EXPECT_GT(fused, 0u) << kernel_name(kernel);
  }
}

}  // namespace
}  // namespace sring
