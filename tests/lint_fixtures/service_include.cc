// Fixture: service-include rule (R10). A library file outside
// src/service/ that includes a service header must fire exactly once, on
// the include line. Other layers' headers, a commented-out include and a
// string naming a service header must not fire:
// #include "src/service/explain_service.h"
#include <string>

#include "src/common/trace.h"
#include "src/service/result_cache.h"

const char* FixtureServiceHeader() { return "src/service/protocol.h"; }
