// Fixture: op-doc-drift rule (R9), table side; paired with
// op_doc_drift.md. "alpha" is documented, "beta" is bold only outside the
// doc's Ops section, so it must fire once. The row in this comment,
// {"gamma", OpDispatch::kBarrier, Gamma}, and the string literal below
// are not table rows.
namespace fixture {

enum class OpDispatch { kBarrier, kPooled };

struct OpSpec {
  const char* name;
  OpDispatch dispatch;
  int (*handler)();
};

int Alpha() { return 0; }
int Beta() { return 1; }

const char* kNote = "{\"epsilon\", OpDispatch::kBarrier, Epsilon}";

constexpr OpSpec kOps[] = {
    {"alpha", OpDispatch::kPooled, Alpha},
    {"beta", OpDispatch::kBarrier, Beta},
};

}  // namespace fixture
