// Former names of the sampled monitor, kept for the fdbench sources
// (perfbench/) until they switch to fd::SchemaMonitor and
// fd::MonitorState. Use nowhere else.
#pragma once

#include "fd/schema_monitor.h"

namespace fdevolve::fd {

using SampledSchemaMonitor = SchemaMonitor;
using SampledMonitorState = MonitorState;

}  // namespace fdevolve::fd
