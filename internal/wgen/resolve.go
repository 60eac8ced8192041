package wgen

import (
	"strings"

	"repro/internal/workload"
)

// ResolveSource streams the named workload the way the scenario compiler
// names it: a name ending in .swf is an SWF log, read incrementally
// (workload.OpenSWFSource); anything else is a preset, generated lazily
// (Stream).
// cpus supplies the system size for SWF logs without a MaxProcs header
// (0 requires the header); jobs overrides a preset's trace length (0
// keeps the model's native length). The filter's status cleaning applies
// to SWF logs only, but its EcoUsers hook tags presets too: "*" opts in
// every generated job, user IDs match when the model assigns a user pool
// (Model.Users). Every call returns an independent source, so concurrent
// runs never share a cursor.
func ResolveSource(name string, cpus, jobs int, filter workload.SWFFilter) (workload.JobSource, error) {
	if strings.HasSuffix(name, ".swf") {
		return workload.OpenSWFSource(name, cpus, filter)
	}
	m, err := Preset(name)
	if err != nil {
		return nil, err
	}
	if jobs > 0 {
		m.Jobs = jobs
	}
	eco, err := filter.EcoSet()
	if err != nil {
		return nil, err
	}
	src, err := Stream(m)
	if err != nil {
		return nil, err
	}
	return workload.TagEco(src, eco), nil
}
