#include "common/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace rem::common {

std::size_t hardware_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

void parallel_for(std::size_t n, std::size_t num_threads,
                  const std::function<void(std::size_t)>& fn) {
  if (num_threads == 0) num_threads = hardware_threads();
  std::atomic<std::size_t> next{0};
  std::exception_ptr first_error;
  std::mutex error_mu;
  const auto drain = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      try {
        fn(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mu);
        if (!first_error) first_error = std::current_exception();
      }
    }
  };
  if (n <= 1 || num_threads <= 1) {
    drain();
  } else {
    std::vector<std::jthread> threads;  // each joins when the vector dies
    for (std::size_t t = 0; t < std::min(num_threads, n); ++t)
      threads.emplace_back(drain);
  }
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace rem::common
