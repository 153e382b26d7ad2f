#include "obs/process_stats.h"

#include <cstdlib>

#if defined(__linux__)
#include <fcntl.h>
#endif
#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#include <unistd.h>
#endif

namespace mqa {

#if defined(__linux__)
namespace {

/// Resident pages from /proc/self/statm ("size resident shared text lib
/// data dt", in pages), read with one open/read/close into a stack buffer
/// so the sample allocates nothing. -1 when unreadable or malformed.
int64_t ReadResidentPages() {
  const int fd = open("/proc/self/statm", O_RDONLY | O_CLOEXEC);
  if (fd < 0) return -1;
  char buf[128];
  const ssize_t n = read(fd, buf, sizeof(buf) - 1);
  close(fd);
  if (n <= 0) return -1;
  buf[n] = '\0';
  char* end = nullptr;
  (void)std::strtoll(buf, &end, 10);  // size
  if (end == buf) return -1;
  const char* resident = end;
  const long long pages = std::strtoll(resident, &end, 10);
  return end == resident ? -1 : static_cast<int64_t>(pages);
}

}  // namespace
#endif

ProcessStats ReadProcessStats() {
  ProcessStats stats;

#if defined(__linux__)
  const int64_t resident_pages = ReadResidentPages();
  if (resident_pages >= 0) {
    stats.rss_bytes =
        resident_pages * static_cast<int64_t>(sysconf(_SC_PAGESIZE));
  }
#endif

#if defined(__unix__) || defined(__APPLE__)
  struct rusage usage;
  if (getrusage(RUSAGE_SELF, &usage) == 0) {
    // ru_maxrss is kilobytes on Linux, bytes on macOS.
#if defined(__APPLE__)
    stats.peak_rss_bytes = static_cast<int64_t>(usage.ru_maxrss);
#else
    stats.peak_rss_bytes = static_cast<int64_t>(usage.ru_maxrss) * 1024;
#endif
    stats.cpu_user_seconds =
        static_cast<double>(usage.ru_utime.tv_sec) +
        static_cast<double>(usage.ru_utime.tv_usec) * 1e-6;
    stats.cpu_system_seconds =
        static_cast<double>(usage.ru_stime.tv_sec) +
        static_cast<double>(usage.ru_stime.tv_usec) * 1e-6;
  }
#endif

  return stats;
}

}  // namespace mqa
