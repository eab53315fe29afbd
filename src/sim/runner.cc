#include "sim/runner.hh"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace parbs {

unsigned
HardwareJobs()
{
    const unsigned n = std::thread::hardware_concurrency();
    return n == 0 ? 1 : n;
}

unsigned
ResolveChannelJobs(unsigned requested, std::uint32_t channels)
{
    const unsigned jobs =
        requested == 0 ? std::min<unsigned>(channels, HardwareJobs())
                       : requested;
    return std::max(1u, std::min<unsigned>(jobs, channels));
}

void
ParallelFor(unsigned jobs, std::size_t n,
            const std::function<void(std::size_t)>& fn)
{
    std::atomic<std::size_t> cursor{0};
    std::mutex error_mutex;
    std::size_t error_index = n;
    std::exception_ptr error;

    auto drain = [&] {
        for (std::size_t i = cursor.fetch_add(1); i < n;
             i = cursor.fetch_add(1)) {
            try {
                fn(i);
            } catch (...) {
                std::lock_guard<std::mutex> lock(error_mutex);
                if (i < error_index) {
                    error_index = i;
                    error = std::current_exception();
                }
            }
        }
    };

    std::vector<std::thread> threads;
    const std::size_t helpers =
        std::max<std::size_t>(std::min<std::size_t>(jobs, n), 1) - 1;
    threads.reserve(helpers);
    for (std::size_t t = 0; t < helpers; ++t) {
        threads.emplace_back(drain);
    }
    drain();
    for (std::thread& thread : threads) {
        thread.join();
    }
    if (error) {
        std::rethrow_exception(error);
    }
}

} // namespace parbs
