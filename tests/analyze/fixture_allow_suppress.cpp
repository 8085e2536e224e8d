// Allowlist suppression: the same vector growth as fixture_hot_alloc, but a
// reviewed, reasoned entry excuses the banned references at exactly this
// site (hot_record plus the library helpers it calls — here -O2 inlines the
// growth path into hot_record itself). The expectations assert both that
// the result is clean and that the suppression actually fired — and the
// site regex is deliberately exact, so the entry could never excuse an
// allocation in any other project function (fixture_allow_inherit covers a
// helper shared with an unexcused caller).
//
// analyze-root: ^hot_record\(
// analyze-allow: alloc ^hot_record\( # fixture: budgeted warm-up growth of the sample table
// analyze-expect-suppressed: alloc
// analyze-expect-clean
#include <vector>

namespace {
void escape(const void* p) { asm volatile("" : : "g"(p) : "memory"); }
}  // namespace

void hot_record(long sample);

void hot_record(long sample) {
  std::vector<long> samples;
  samples.push_back(sample);
  escape(samples.data());
}
