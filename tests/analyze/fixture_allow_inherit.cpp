// Inlining-independent allowlist sites: an entry's site is the named
// function plus the libstdc++ functions and weak template / header-inline
// definitions it calls, so an excuse does not depend on what the compiler
// chose to inline. `grow` is a noinline template (a weak definition) whose
// vector growth allocates out of line. `warm_up` is allowlisted and calls it:
// the allocation inside `grow` is excused through `warm_up`. `hot_step` is
// not allowlisted and calls the very same `grow<long>`: that call path is
// still a finding, and its chain must name `hot_step`, the unexcused caller.
//
// analyze-root: ^warm_up\(
// analyze-root: ^hot_step\(
// analyze-allow: alloc ^warm_up\( # fixture: budgeted warm-up growth through an out-of-line template helper
// analyze-expect-suppressed: alloc
// analyze-expect: alloc hot_step
#include <vector>

namespace {
void escape(const void* p) { asm volatile("" : : "g"(p) : "memory"); }
}  // namespace

template <typename T>
__attribute__((noinline)) void grow(std::vector<T>& samples, T value) {
  samples.push_back(value);
  escape(samples.data());
}

void warm_up(std::vector<long>& samples, long value);
void hot_step(std::vector<long>& samples, long value);

void warm_up(std::vector<long>& samples, long value) { grow(samples, value); }

void hot_step(std::vector<long>& samples, long value) { grow(samples, value + 1); }
